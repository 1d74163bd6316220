"""Spectral upper bounds on graph independence via walk-generating functions."""

from .graphs import (
    Graph,
    Graph6ParseError,
    adjacency,
    encode_graph6,
    generate_named,
    parse_edge_list,
    parse_graph6,
    strong_product,
)
from .reciprocal import (
    CriticalReport,
    IntervalMin,
    PoleProximityError,
    ReciprocalSum,
    central_strip,
    enumerate_critical_points,
    has_critical_points,
    verify_duality,
)
from .spectral import SpectralData, cluster_weights, eig_sym, walk_minimum
from .bounds import laplacian_bound, report
from .independent_set import independence_number, max_independent_set
from .theta import (
    OptimizerVector,
    ThetaEstimate,
    extract_optimizer,
    minimize_theta,
    optimal_scaling,
    submultiplicativity_check,
)

__version__ = "0.1.0"

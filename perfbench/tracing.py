"""Spans around the public functions of each walktheta layer, recorded from outside `src/`.

`install` replaces module attributes with timing wrappers. A name bound with
`from .graphs import ...` is a separate attribute of the importing module, so
graph functions are wrapped where `cli`, `bounds` and `theta` look them up;
wrapping `walktheta.graphs` itself would count nothing. Spans stay in memory
and are written once, when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute, span name); names are the layer metrics' prefixes.
TARGETS = (
    ("walktheta.cli", "main", "cli.main"),
    ("walktheta.cli", "parse_graph6", "graphs.parse_graph6"),
    ("walktheta.cli", "adjacency", "graphs.adjacency"),
    ("walktheta.bounds", "adjacency", "graphs.adjacency"),
    ("walktheta.bounds", "laplacian", "graphs.laplacian"),
    ("walktheta.theta", "strong_product", "graphs.strong_product"),
    ("walktheta.spectral", "eig_sym", "spectral.eig_sym"),
    ("walktheta.spectral", "cluster_weights", "spectral.cluster_weights"),
    ("numpy.linalg", "eigh", "spectral.eigh"),
    ("numpy.linalg", "eigvalsh", "spectral.eigvalsh"),
    ("walktheta.walkgen", "minimize_on_subinterval", "walkgen.minimize"),
    ("walktheta.walkgen", "minimize_on_spectral_interval", "walkgen.minimize"),
    ("walktheta.walkgen", "build", "walkgen.build"),
    ("walktheta.reciprocal", "enumerate_critical_points", "reciprocal.enumerate_critical_points"),
    ("walktheta.reciprocal", "verify_duality", "reciprocal.verify_duality"),
    ("walktheta.bounds", "report", "bounds.report"),
    ("walktheta.bounds", "walkgen_bound", "bounds.walkgen_bound"),
    ("walktheta.bounds", "laplacian_bound", "bounds.laplacian_bound"),
    ("walktheta.bounds", "closed_form_bound", "bounds.closed_form_bound"),
    ("walktheta.bounds", "hoffman_regular", "bounds.hoffman_regular"),
    ("walktheta.theta", "minimize_theta", "theta.minimize_theta"),
    ("walktheta.theta", "optimal_scaling", "theta.optimal_scaling"),
    ("walktheta.theta", "extract_optimizer", "theta.extract_optimizer"),
    ("walktheta.theta", "submultiplicativity_check", "theta.submultiplicativity_check"),
)


class Recorder:
    """Spans as [name index, parent span index or -1, start, end], in call order."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.missing = []
        self._stack = []

    def wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name_id, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target; a target the code no longer has is listed, not fatal."""
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
            else:
                setattr(module, attr, self.wrap(fn, name))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "missing": self.missing}, fh)


class Trace:
    """Per-name totals, self times and call counts of one dumped trace."""

    def __init__(self, path):
        with open(path) as fh:
            data = json.load(fh)
        self.missing = data["missing"]
        names = data["names"]
        spans = data["spans"]
        self.name = [names[s[0]] for s in spans]
        self.parent = [s[1] for s in spans]
        self.dur = [s[3] - s[2] for s in spans]
        child = [0.0] * len(spans)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.dur[i]
        self.total, self.self_time, self.calls = {}, {}, {}
        for i, name in enumerate(self.name):
            self.total[name] = self.total.get(name, 0.0) + self.dur[i]
            self.self_time[name] = self.self_time.get(name, 0.0) + self.dur[i] - child[i]
            self.calls[name] = self.calls.get(name, 0) + 1

    def indices(self, name: str) -> list:
        return [i for i, n in enumerate(self.name) if n == name]

    def has_ancestor(self, i: int, name: str) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == name:
                return True
            p = self.parent[p]
        return False

    def child_time(self, i: int, name: str) -> float:
        return sum(self.dur[j] for j, p in enumerate(self.parent) if p == i and self.name[j] == name)

"""Empty. The walk-generating function is `spectral.SpectralData.walk` and its interval
minimum `spectral.walk_minimum`; `perfbench/tracing.py` imports this module for its trace targets.
"""

"""Streaming PCA with per-coordinate uncertainty estimates.

The library computes the leading eigenvector of a covariance matrix from a
single pass over the data, quantifies the uncertainty of each coordinate of
the estimate via a batched subsampling estimator with median-of-means
aggregation, and ships a multiplier-bootstrap baseline, exact small-instance
decomposition oracles, and a desk-scale experiment harness.
"""

__version__ = "0.1.0"

import importlib

# Each exported name and the module it lives in. A name is imported on first
# use (PEP 562), so ``import ojainfer`` loads no numpy, and the console
# script can set its thread defaults before numpy starts its BLAS pool.
_HOMES = {
    "core": ("Dataset", "DegenerateGapError", "EigenSystem", "RegimeError", "SeedLabel",
             "SeedSpec", "eigendecompose", "psd_sqrt", "sample_covariance", "sign_align", "sin2"),
    "defaults": ("DEFAULT_ALPHA", "PAPER_M1"),
    "oja": ("learning_rate", "oja_boosted", "oja_run"),
    "varest": ("VarEstResult", "batch_variance", "median_of_means", "ojavarest", "plan_schedule"),
    "bootstrap": ("bootstrap_run",),
    "synth": ("build_sigma", "sample"),
    "asymvar": ("AsymptoticVariance", "MomentEstimates", "build_r0_v", "build_rn",
                "empirical_hajek_covariance", "estimate_mtilde"),
    "hoeffding": ("DecompositionReport", "hajek_projection", "hoeffding_term", "matrix_product",
                  "residual_decomposition"),
    "inference": ("ConfidenceBand", "CoverageReport", "build_ci", "normal_quantile"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME_OF, "__version__"]


def __getattr__(name: str):
    # An unknown name raises AttributeError, so ``from ojainfer import io`` still
    # falls back to importing the submodule.
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

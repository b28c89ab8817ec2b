"""Streaming PCA with per-coordinate uncertainty estimates.

The library computes the leading eigenvector of a covariance matrix from a
single pass over the data, quantifies the uncertainty of each coordinate of
the estimate via a batched subsampling estimator with median-of-means
aggregation, and ships a multiplier-bootstrap baseline, exact small-instance
decomposition oracles, and a desk-scale experiment harness.
"""

__version__ = "0.1.0"

from .core import (
    Dataset,
    DegenerateGapError,
    EigenSystem,
    RegimeError,
    SeedLabel,
    SeedSpec,
    eigendecompose,
    psd_sqrt,
    sample_covariance,
    sign_align,
    sin2,
)
from .oja import DEFAULT_ALPHA, learning_rate, oja_boosted, oja_run
from .varest import PAPER_M1, VarEstResult, batch_variance, median_of_means, ojavarest, plan_schedule
from .bootstrap import bootstrap_run
from .synth import build_sigma, sample
from .asymvar import (
    AsymptoticVariance,
    MomentEstimates,
    build_r0_v,
    build_rn,
    empirical_hajek_covariance,
    estimate_mtilde,
)
from .hoeffding import DecompositionReport, hajek_projection, hoeffding_term, matrix_product, residual_decomposition
from .inference import ConfidenceBand, CoverageReport, build_ci, normal_quantile

__all__ = [
    "Dataset", "DegenerateGapError", "EigenSystem", "RegimeError", "SeedLabel", "SeedSpec",
    "eigendecompose", "psd_sqrt", "sample_covariance", "sign_align", "sin2",
    "DEFAULT_ALPHA", "learning_rate", "oja_boosted", "oja_run",
    "PAPER_M1", "VarEstResult", "batch_variance", "median_of_means",
    "ojavarest", "plan_schedule",
    "bootstrap_run",
    "build_sigma", "sample",
    "AsymptoticVariance", "MomentEstimates", "build_r0_v", "build_rn",
    "empirical_hajek_covariance", "estimate_mtilde",
    "DecompositionReport", "hajek_projection", "hoeffding_term",
    "matrix_product", "residual_decomposition",
    "ConfidenceBand", "CoverageReport", "build_ci", "normal_quantile",
    "__version__",
]

"""Per-coordinate confidence intervals and coverage evaluation.

The normal quantile comes from the standard library's ``statistics.NormalDist``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .core import sign_align, _check_unit
from .defaults import require_at_least, require_open_unit


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF.

    Example: ``normal_quantile(0.975)`` is 1.959964... for a two-sided 95%
    interval.
    """
    require_open_unit("quantile argument", p)
    return NormalDist().inv_cdf(p)


@dataclass(frozen=True)
class ConfidenceBand:
    """Symmetric per-coordinate intervals center +/- half_width."""

    center: np.ndarray
    half_width: np.ndarray
    level: float

    def __post_init__(self) -> None:
        center = _check_unit(self.center, "center")
        hw = np.asarray(self.half_width, dtype=np.float64).reshape(-1)
        if hw.shape != center.shape:
            raise ValueError("half_width must match the center's dimension")
        if np.any(hw < 0.0):
            raise ValueError("half widths must be nonnegative")
        require_open_unit("level", self.level)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "half_width", hw)

    def lower(self) -> np.ndarray:
        return self.center - self.half_width

    def upper(self) -> np.ndarray:
        return self.center + self.half_width


def build_ci(vtilde: np.ndarray, sigma2: np.ndarray, level: float) -> ConfidenceBand:
    """Per-coordinate interval vtilde_k +/- z * sqrt(sigma2_k).

    ``sigma2`` is the variance at the interval's scale, as
    :func:`ojainfer.experiments.method_variance` returns it.
    """
    require_open_unit("level", level)
    sigma2 = np.asarray(sigma2, dtype=np.float64).reshape(-1)
    if np.any(sigma2 < 0.0):
        raise ValueError("variance estimates must be nonnegative")
    z = normal_quantile(1.0 - (1.0 - level) / 2.0)
    return ConfidenceBand(center=vtilde, half_width=z * np.sqrt(sigma2), level=level)


@dataclass(frozen=True)
class CoverageReport:
    """Per-coordinate hit counts and rates over repeated trials."""

    trials: int
    hits: np.ndarray
    rates: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        hits = np.asarray(self.hits, dtype=np.int64)
        require_at_least("trials", self.trials, 1)
        if np.any(hits < 0) or np.any(hits > self.trials):
            raise ValueError("hit counts must lie in [0, trials]")
        object.__setattr__(self, "hits", hits)
        object.__setattr__(self, "rates", hits / float(self.trials))


def band_hits(band: ConfidenceBand, truth: np.ndarray) -> np.ndarray:
    """(d,) ints: 1 where the band's interval contains the truth coordinate.

    The band's center is sign-aligned to the truth before testing, since the
    estimators only identify the leading direction up to sign.
    """
    truth = _check_unit(truth, "truth")
    if band.center.shape != truth.shape:
        raise ValueError("band dimension does not match the truth vector")
    center = sign_align(truth, band.center)
    return (np.abs(truth - center) <= band.half_width).astype(np.int64)


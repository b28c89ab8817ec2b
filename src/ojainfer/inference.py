"""Per-coordinate confidence intervals, coverage evaluation, and limit checks.

The normal CDF and quantile come from the standard library's
``statistics.NormalDist``, and the normality statistic is a plain
Anderson-Darling computation on standardized values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .core import sign_align, _check_unit

# Anderson-Darling critical value for normality at significance AD_SIGNIFICANCE,
# with estimated mean and variance (statistic modified by (1 + 0.75/n + 2.25/n^2)).
AD_SIGNIFICANCE = 0.01
AD_CRITICAL = 1.035
# check_entrywise_bound flags a scaled residual above ENTRYWISE_THRESHOLD, and
# leaves out a coordinate whose limit variance is at most NEGLIGIBLE_VARIANCE.
ENTRYWISE_THRESHOLD = 3.0
NEGLIGIBLE_VARIANCE = 1e-12


def normal_cdf(z: float) -> float:
    """Standard normal CDF."""
    return NormalDist().cdf(z)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF.

    Example: ``normal_quantile(0.975)`` is 1.959964... for a two-sided 95%
    interval.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1) (got {p})")
    return NormalDist().inv_cdf(p)


def check_level(level: float) -> None:
    """Refuse a confidence level outside (0, 1), NaN included."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1) (got {level})")


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
        check_level(self.level)
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
    check_level(level)
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
        if self.trials < 1:
            raise ValueError("need at least one trial")
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


def anderson_darling(values: np.ndarray) -> float:
    """Anderson-Darling normality statistic on standardized values.

    Mean and variance are estimated from the sample; the returned statistic
    includes the usual small-sample modification and compares against
    ``AD_CRITICAL``.
    """
    x = np.sort(np.asarray(values, dtype=np.float64).reshape(-1))
    n = x.shape[0]
    if n < 8:
        raise ValueError(f"need at least 8 values (got {n})")
    mean = float(x.mean())
    std = float(x.std(ddof=1))
    if std == 0.0:
        raise ValueError("values are constant; normality is undefined")
    z = (x - mean) / std
    cdf = np.array([normal_cdf(v) for v in z])
    eps = 1e-15
    cdf = np.clip(cdf, eps, 1.0 - eps)
    i = np.arange(1, n + 1)
    a2 = -n - np.mean((2 * i - 1) * (np.log(cdf) + np.log(1.0 - cdf[::-1])))
    return float(a2 * (1.0 + 0.75 / n + 2.25 / n**2))


@dataclass(frozen=True)
class EntrywiseBoundReport:
    """Scaled 75th-percentile residual magnitudes per coordinate."""

    ratios: dict[int, float]
    flagged: list[int]
    excluded: list[int]
    threshold: float
    trials: int


def check_entrywise_bound(residuals: np.ndarray, v_diag: np.ndarray, eta_n: float,
                          gap: float) -> EntrywiseBoundReport:
    """Check that residual coordinates stay within their predicted scale.

    For each coordinate k with limit variance above ``NEGLIGIBLE_VARIANCE``,
    reports the 75th percentile over trials of

        |r_k| / sqrt(eta_n * gap * V_kk * ln d)

    and flags coordinates exceeding ``ENTRYWISE_THRESHOLD``. Coordinates with
    negligible limit variance are listed separately rather than scored.
    """
    res = np.atleast_2d(np.asarray(residuals, dtype=np.float64))
    trials, d = res.shape
    if trials < 200:
        raise ValueError(f"need at least 200 trials (got {trials})")
    v_diag = np.asarray(v_diag, dtype=np.float64).reshape(-1)
    if v_diag.shape[0] != d:
        raise ValueError("variance diagonal does not match residual dimension")
    if eta_n <= 0.0 or gap <= 0.0:
        raise ValueError("eta_n and gap must be positive")
    log_d = math.log(d) if d > 1 else 1.0
    ratios: dict[int, float] = {}
    flagged: list[int] = []
    excluded: list[int] = []
    for k in range(d):
        if v_diag[k] <= NEGLIGIBLE_VARIANCE:
            excluded.append(k)
            continue
        scale = math.sqrt(eta_n * gap * v_diag[k] * log_d)
        ratio = float(np.percentile(np.abs(res[:, k]), 75.0)) / scale
        ratios[k] = ratio
        if ratio > ENTRYWISE_THRESHOLD:
            flagged.append(k)
    return EntrywiseBoundReport(ratios=ratios, flagged=flagged, excluded=excluded,
                                threshold=ENTRYWISE_THRESHOLD, trials=trials)


@dataclass(frozen=True)
class CltReport:
    """Variance-matching ratios and normality statistics on strong coordinates."""

    coords: list[int]
    variance_ratios: dict[int, float]
    ad_statistics: dict[int, float]
    ad_pass: dict[int, bool]
    significance: float
    trials: int


def check_clt(residuals: np.ndarray, v_diag: np.ndarray, eta_n: float, gap: float,
              variance_floor: float) -> CltReport:
    """Compare residual coordinate distributions against their Gaussian limit.

    Restricted to J = {k : V_kk >= variance_floor}. For each such k, the
    empirical variance of r_k / sqrt(eta_n * gap) is reported as a ratio to
    V_kk, together with an Anderson-Darling normality statistic tested at
    ``AD_SIGNIFICANCE``; the normality outcome is informational, not a hard
    gate.
    """
    res = np.atleast_2d(np.asarray(residuals, dtype=np.float64))
    trials, d = res.shape
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials (got {trials})")
    v_diag = np.asarray(v_diag, dtype=np.float64).reshape(-1)
    if v_diag.shape[0] != d:
        raise ValueError("variance diagonal does not match residual dimension")
    coords = [k for k in range(d) if v_diag[k] >= variance_floor]
    if not coords:
        raise ValueError(f"no coordinate has limit variance >= {variance_floor}")
    scale = math.sqrt(eta_n * gap)
    ratios: dict[int, float] = {}
    stats: dict[int, float] = {}
    passes: dict[int, bool] = {}
    for k in coords:
        scaled = res[:, k] / scale
        ratios[k] = float(np.var(scaled)) / float(v_diag[k])
        stat = anderson_darling(scaled)
        stats[k] = stat
        passes[k] = stat < AD_CRITICAL
    return CltReport(coords=coords, variance_ratios=ratios, ad_statistics=stats,
                     ad_pass=passes, significance=AD_SIGNIFICANCE, trials=trials)

"""Acceptance checks of the paper's two results about single entries.

``check_entrywise_bound`` scores residual coordinates against the
Bernstein-type entrywise bound, and ``check_clt`` compares them with their
Gaussian limit on the coordinates of large limit variance, with a plain
Anderson-Darling statistic (``anderson_darling``) on standardized values.
``residual_trials`` draws the residuals they take: fresh streaming runs on
the synthetic family, batched through ``ojainfer.oja.oja_kernel``. No command
reaches them, so they live beside the tests that call them.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from ojainfer.core import EigenSystem, SeedLabel, SeedSpec
from ojainfer.defaults import DEFAULT_ALPHA, require_at_least, require_positive
from ojainfer.oja import gaussian_unit, learning_rate, oja_kernel
from ojainfer.synth import sample

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


def anderson_darling(values: np.ndarray) -> float:
    """Anderson-Darling normality statistic on standardized values.

    Mean and variance are estimated from the sample; the returned statistic
    includes the usual small-sample modification and compares against
    ``AD_CRITICAL``.
    """
    x = np.sort(np.asarray(values, dtype=np.float64).reshape(-1))
    n = x.shape[0]
    require_at_least("n", n, 8)
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
    require_at_least("trials", trials, 200)
    v_diag = np.asarray(v_diag, dtype=np.float64).reshape(-1)
    if v_diag.shape[0] != d:
        raise ValueError("variance diagonal does not match residual dimension")
    require_positive("eta_n", eta_n)
    require_positive("gap", gap)
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
    require_at_least("trials", trials, 1000)
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


# Trials per kernel call in residual_trials; its buffers hold twice this many datasets.
_TRIAL_CHUNK = 128


def residual_trials(
    root: np.ndarray,
    eigen: EigenSystem,
    n: int,
    trials: int,
    seed: SeedSpec = SeedSpec(0),
) -> np.ndarray:
    """Draw (trials, d) residuals of fresh streaming runs against the truth.

    Each row is v_est - (v1 . v_est) v1 for one independent dataset and
    initial vector, at the step of ``DEFAULT_ALPHA``; used by the
    concentration and limit-distribution checks.
    """
    gap = eigen.require_gap()
    eta_n = learning_rate(n, gap, DEFAULT_ALPHA)
    v1 = eigen.leading
    rows = np.empty((trials, eigen.d))
    for lo in range(0, trials, _TRIAL_CHUNK):
        streams = [seed.child(t) for t in range(lo, min(lo + _TRIAL_CHUNK, trials))]
        data = np.stack([sample(root, n, st.child(SeedLabel.DATA).rng()).samples for st in streams])
        starts = np.array([gaussian_unit(st.child(SeedLabel.START).rng(), eigen.d) for st in streams])
        v, _ = oja_kernel(data, eta_n, starts)
        rows[lo : lo + len(streams)] = v - (v @ v1)[:, None] * v1
    return rows

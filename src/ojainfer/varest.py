"""Subsampled per-coordinate variance estimation with robust aggregation.

The estimator splits n samples into m1 groups of m2 batches of size
B = n // (m1 * m2), runs one streaming pass per batch with step size
eta_B tuned to the batch length, measures per-coordinate spread of the batch
estimates around a high-accuracy proxy vector, and aggregates the m1 group
variances by their median:

    sigma2[l, k] = (1/m2) * sum_j ( e_k . (v_{l,j} - (vt . v_{l,j}) vt) )^2
    gamma[k]     = median_l sigma2[l, k] / (eta_B * gap)

gamma estimates the scale-free per-coordinate limit variance; multiplying it
back by eta_B * gap recovers the batch-scale spread itself.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import UNIT_TOL, Dataset, SeedSpec, _check_unit
from .defaults import DEFAULT_ALPHA, require_at_least, require_open_unit
from .oja import gaussian_unit, learning_rate, oja_kernel, require_regime

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class VarEstResult:
    """Estimates gamma plus the per-group spreads they were aggregated from."""

    gamma: np.ndarray
    batch_sigma2: np.ndarray
    eta_b: float
    batch_size: int
    m1: int
    m2: int
    vtilde: np.ndarray
    samples_unused: int

    def __post_init__(self) -> None:
        if np.any(self.gamma < 0.0):
            raise ValueError("per-coordinate variance estimates must be nonnegative")


def plan_schedule(n: int, d: int, delta: float,
                  m1_override: int | None = None,
                  m2_override: int | None = None) -> tuple[int, int, int]:
    """Resolve the (m1, m2, B) split for n samples in dimension d.

    Defaults: m1 = ceil(8 ln(d/delta)) groups, m2 = max(2, ceil(ln n))
    batches per group, B = n // (m1 * m2) samples per batch. Fails when the
    data cannot give every batch at least 2 samples.
    """
    require_at_least("n", n, 4)
    require_open_unit("delta", delta)
    require_at_least("d", d, 1)
    m1 = m1_override if m1_override is not None else math.ceil(8.0 * math.log(d / delta))
    m2 = m2_override if m2_override is not None else max(2, math.ceil(math.log(n)))
    require_at_least("m1", m1, 1)
    require_at_least("m2", m2, 1)
    batch = n // (m1 * m2)
    require_at_least(f"insufficient data for the schedule: the batch size at n={n}, m1={m1}, m2={m2}",
                     batch, 2)
    return m1, m2, batch


def batch_variance(batch_vectors, vtilde: np.ndarray) -> np.ndarray:
    """Per-coordinate mean squared residual of unit vectors around a proxy.

    Residuals are taken against the component along ``vtilde``, so flipping
    the sign of any input vector leaves the output bit-identical.
    """
    vt = _check_unit(vtilde, "vtilde")
    vecs = np.atleast_2d(np.asarray(batch_vectors, dtype=np.float64))
    if vecs.shape[0] == 0:
        raise ValueError("need at least one vector")
    if vecs.shape[1] != vt.shape[0]:
        raise ValueError(f"vectors have d={vecs.shape[1]}, proxy has d={vt.shape[0]}")
    norms = np.linalg.norm(vecs, axis=1)
    if not np.all(np.abs(norms - 1.0) <= UNIT_TOL):
        raise ValueError("all batch vectors must be unit norm")
    coeffs = vecs @ vt
    residuals = vecs - coeffs[:, None] * vt[None, :]
    return np.mean(residuals**2, axis=0)


def median_of_means(values) -> np.ndarray | float:
    """Median over the first axis, the middle pair averaged for an even count: (m1, d) group
    spreads give their (d,) per-coordinate medians, a 1-D sequence a scalar."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot take a median of no values")
    return np.median(arr, axis=0)


def ojavarest(data: Dataset, delta: float, vtilde: np.ndarray, gap: float, *,
              m1: int | None = None, m2: int | None = None, alpha: float = DEFAULT_ALPHA,
              seed: SeedSpec = SeedSpec(0)) -> VarEstResult:
    """Estimate per-coordinate residual variances by batched subsampling.

    Parameters
    ----------
    data : Dataset
        The n samples; only the first m1*m2*B are consumed (in order), the
        trailing remainder is dropped and its size recorded.
    delta : float
        Failure-probability budget driving the default schedule.
    vtilde : (d,) array
        High-accuracy unit proxy for the leading direction, computed by the
        caller (single full pass by default, or a boosted variant).
    gap : float
        Eigengap lambda_1 - lambda_2 used for the step size and rescaling.
    m1, m2, alpha
        Schedule overrides for :func:`plan_schedule` (None keeps its formula)
        and the step multiplier of eta_B = learning_rate(B, gap, alpha).
    seed
        Batch i starts from a random unit vector of ``seed.child(i)``.

    The m1 * m2 batch runs advance together, as the states of one
    :func:`oja_kernel` call. Raises RegimeError when eta_B * lambda_1 >= 1,
    with lambda_1 read off as the proxy's Rayleigh quotient on the used samples.
    """
    vt = _check_unit(vtilde, "vtilde")
    m1, m2, batch = plan_schedule(data.n, data.d, delta, m1, m2)
    eta_b = learning_rate(batch, gap, alpha)
    used = m1 * m2 * batch
    unused = data.n - used
    require_regime(data.samples[:used], vt, eta_b, gap, "eta_B")
    if unused:
        log.info("schedule uses %d of %d samples (%d trailing dropped)", used, data.n, unused)

    runs = m1 * m2
    starts = [gaussian_unit(seed.child(i).rng(), data.d) for i in range(runs)]
    stacked, _ = oja_kernel(data.samples[:used].reshape(runs, batch, data.d), eta_b, starts)
    sigma2 = np.empty((m1, data.d))
    for ell in range(m1):
        sigma2[ell] = batch_variance(stacked[ell * m2 : (ell + 1) * m2], vt)
    gamma = median_of_means(sigma2) / (eta_b * gap)
    return VarEstResult(
        gamma=gamma, batch_sigma2=sigma2, eta_b=eta_b, batch_size=batch,
        m1=m1, m2=m2, vtilde=vt, samples_unused=unused,
    )

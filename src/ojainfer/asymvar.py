"""Analytic covariance of the residual fluctuations, plus Monte-Carlo checks.

With eigenvalues l_1 > l_2 >= ... >= l_d and tail basis Vp = [v_2 ... v_d],
the scale-free limit covariance of the residual is assembled from the
second-moment matrix of projected sample noise

    Mt = E[ Vp^T (A - Sigma) v1 v1^T (A - Sigma) Vp ],        A = X X^T,

through

    R0[k, l] = Mt[k, l] / (2 l_1 - l_{k+1} - l_{l+1})
    V        = Vp R0 Vp^T / (l_1 - l_2).

The finite-horizon covariance of the leading fluctuation term over n steps at
step size eta is

    Rn[k, l] = Mt[k, l] / (1 + eta l_1)^2 * (1 - (d_k d_l)^n) / (1 - d_k d_l),
    d_k      = 1 - eta (l_1 - l_{k+1}) / (1 + eta l_1),

and satisfies E[Psi Psi^T] = eta^2 Vp Rn Vp^T for the order-1 term Psi.

Mt is estimated by Monte Carlo because the fourth-moment structure of the
sampler is distribution-specific. A sampler gives (m, d) rows x, each the
draw A = x x^T; sample counts, seeds, and per-entry standard errors are
always recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EigenSystem, SeedSpec
from .hoeffding import order1_contraction

DENOM_FLOOR = 1e-12
POWER_ITERS = 50
_CHUNK = 65536
_BLOCK_ELEMS = 65536


def _sigma_matrix(eigen: EigenSystem) -> np.ndarray:
    return (eigen.eigenvectors * eigen.eigenvalues) @ eigen.eigenvectors.T


def _draw(sampler, rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    """The sampler's next m rows x_i, each standing for the draw A_i = x_i x_i^T."""
    out = np.asarray(sampler(rng, m), dtype=np.float64)
    if out.shape != (m, d):
        raise ValueError(f"sampler returned shape {out.shape}, expected ({m}, {d}) rows")
    return out


@dataclass(frozen=True)
class MomentEstimates:
    """Monte-Carlo moment summary of the sampling noise A - Sigma.

    ``m2``/``m4`` are the L2/L4 norms of the operator norm of A - Sigma (so
    m2 <= m4 holds by the power-mean inequality), ``vstat`` the operator norm
    of E[(A - Sigma)^2], ``mtilde`` the projected second-moment matrix with
    per-entry standard errors in ``mc_stderr``.
    """

    m2: float
    m4: float
    vstat: float
    mtilde: np.ndarray
    mc_samples: int
    mc_stderr: np.ndarray
    seed: SeedSpec | None = None

    def __post_init__(self) -> None:
        mt = np.asarray(self.mtilde, dtype=np.float64)
        sym_err = float(np.max(np.abs(mt - mt.T))) if mt.size else 0.0
        if sym_err > 1e-8:
            raise ValueError(f"mtilde not symmetric (defect {sym_err:.3e})")
        vals = np.linalg.eigvalsh((mt + mt.T) / 2.0)
        if vals.size and vals[0] < -1e-8 * max(1.0, float(vals[-1])):
            raise ValueError(f"mtilde not PSD (min eigenvalue {float(vals[0]):.3e})")
        if self.m2 > self.m4 + 1e-12 * max(1.0, self.m4):
            raise ValueError(f"moment ordering violated: m2={self.m2} > m4={self.m4}")
        object.__setattr__(self, "mtilde", mt)
        object.__setattr__(self, "mc_stderr", np.asarray(self.mc_stderr, dtype=np.float64))


@dataclass(frozen=True)
class AsymptoticVariance:
    """Scale-free limit covariance (r0, v) and optional finite-n block rn."""

    r0: np.ndarray
    v: np.ndarray
    rn: np.ndarray | None = None
    d_factors: np.ndarray | None = None
    n: int | None = None
    eta: float | None = None

    def diag(self) -> np.ndarray:
        """Per-coordinate limit variances diag(V), length d."""
        return np.diag(self.v).copy()


def _operator_norms(x: np.ndarray, eigen: EigenSystem, rng: np.random.Generator) -> np.ndarray:
    """Operator norm of x_i x_i^T - Sigma for each row x_i, by batched power iteration.

    The iteration runs in Sigma's eigenbasis, where z Sigma is lam * z, on
    (d, rows) blocks of about ``_BLOCK_ELEMS`` entries that stay in cache.
    """
    m, d = x.shape
    z = rng.standard_normal((m, d))
    q, lam = eigen.eigenvectors, eigen.eigenvalues[:, None]
    step = max(1, _BLOCK_ELEMS // d)
    out = np.empty(m)
    for lo in range(0, m, step):
        xb = q.T @ x[lo:lo + step].T
        zb = q.T @ z[lo:lo + step].T
        zb /= np.sqrt(np.einsum("ij,ij->j", zb, zb))
        y = np.empty_like(zb)
        for _ in range(POWER_ITERS + 1):    # the last pass gives the norms
            np.multiply(xb, np.einsum("ij,ij->j", xb, zb), out=y)
            zb *= lam
            y -= zb
            nrm = np.sqrt(np.einsum("ij,ij->j", y, y))
            np.divide(y, np.where(nrm == 0.0, 1.0, nrm), out=zb)
        out[lo:lo + step] = nrm
    return out


def estimate_mtilde(sampler, eigen: EigenSystem, mc_samples: int, seed: SeedSpec) -> MomentEstimates:
    """Monte-Carlo estimate of the projected noise second moment.

    Parameters
    ----------
    sampler : callable (rng, m) -> (m, d) array
        Sample rows x, each giving the draw A = x x^T. Any other shape is a
        ValueError.
    eigen : EigenSystem
        Decomposition of the sampler's population second moment; its gap must
        be non-degenerate for the projection to be well defined.
    mc_samples : int
        Number of draws, at least 100.
    seed : SeedSpec
        Random stream key, recorded in the output.
    """
    eigen.require_gap()
    if mc_samples < 100:
        raise ValueError(f"need mc_samples >= 100 (got {mc_samples})")
    d = eigen.d
    v1 = eigen.leading
    vp = eigen.tail_basis
    sigma = _sigma_matrix(eigen)
    sigma_v1 = sigma @ v1
    rng = seed.rng()

    p = d - 1
    sum_w = np.zeros((p, p))
    sum_w2 = np.zeros((p, p))
    sum_q2 = 0.0
    sum_q4 = 0.0
    sum_a = np.zeros((d, d))
    sum_asq = np.zeros((d, d))
    done = 0
    while done < mc_samples:
        m = min(_CHUNK, mc_samples - done)
        x = _draw(sampler, rng, m, d)
        t = x @ v1
        w = (x * t[:, None] - sigma_v1) @ vp          # rows Vp^T (A_i - Sigma) v1
        nrm2 = np.einsum("ij,ij->i", x, x)
        sum_a += x.T @ x
        sum_asq += (x * nrm2[:, None]).T @ x          # sum of ||x||^2 x x^T
        w2 = w * w
        sum_w += w.T @ w                              # sum of w w^T, O(d^2) memory
        sum_w2 += w2.T @ w2                           # sum of (w w^T)**2, entrywise
        q = _operator_norms(x, eigen, rng)
        sum_q2 += float((q**2).sum())
        sum_q4 += float((q**4).sum())
        done += m

    mt = sum_w / mc_samples
    mt = (mt + mt.T) / 2.0
    var_w = np.maximum(sum_w2 / mc_samples - (sum_w / mc_samples) ** 2, 0.0)
    stderr = np.sqrt(var_w / mc_samples)

    # E[(A - Sigma)^2] from the raw accumulators of A = x x^T draws.
    mean_a = sum_a / mc_samples
    sq = sum_asq / mc_samples - mean_a @ sigma - sigma @ mean_a + sigma @ sigma
    sq = (sq + sq.T) / 2.0
    vstat = float(np.max(np.abs(np.linalg.eigvalsh(sq))))

    m2 = math.sqrt(sum_q2 / mc_samples)
    m4 = (sum_q4 / mc_samples) ** 0.25
    return MomentEstimates(m2=m2, m4=m4, vstat=vstat, mtilde=mt,
                           mc_samples=mc_samples, mc_stderr=stderr, seed=seed)


def build_r0_v(moments: MomentEstimates, eigen: EigenSystem) -> AsymptoticVariance:
    """Assemble the scale-free limit covariance from moment estimates."""
    gap = eigen.require_gap()
    lam = eigen.eigenvalues
    mt = moments.mtilde
    denom = 2.0 * lam[0] - lam[1:, None] - lam[None, 1:]
    if float(denom.min()) < DENOM_FLOOR:
        raise ValueError(f"spectral denominator collapsed (min {float(denom.min()):.3e})")
    r0 = mt / denom
    vp = eigen.tail_basis
    v = (vp @ r0 @ vp.T) / gap
    v = (v + v.T) / 2.0
    align = float(np.max(np.abs(v @ eigen.leading)))
    scale = max(1.0, float(np.max(np.abs(v))))
    if align > 1e-8 * scale:
        raise ValueError(f"limit covariance leaks onto the leading direction ({align:.3e})")
    return AsymptoticVariance(r0=r0, v=v)


def contraction_factors(eigen: EigenSystem, eta: float) -> np.ndarray:
    """Per-direction contraction d_k = 1 - eta (l_1 - l_{k+1})/(1 + eta l_1)."""
    lam = eigen.eigenvalues
    return 1.0 - eta * (lam[0] - lam[1:]) / (1.0 + eta * lam[0])


def build_rn(moments: MomentEstimates, eigen: EigenSystem, n: int, eta: float) -> np.ndarray:
    """Finite-horizon covariance block of the order-1 fluctuation term.

    Requires 0 < eta * l_1 < 1 and a positive gap; the geometric-series
    denominator 1 - d_k d_l cannot vanish under those conditions but is
    guarded anyway.
    """
    eigen.require_gap()
    if n < 1:
        raise ValueError(f"need n >= 1 (got {n})")
    lam1 = float(eigen.eigenvalues[0])
    if not 0.0 < eta * lam1 < 1.0:
        raise ValueError(f"need 0 < eta*lambda_1 < 1 (got {eta * lam1})")
    dk = contraction_factors(eigen, eta)
    prod = dk[:, None] * dk[None, :]
    denom = 1.0 - prod
    if float(np.min(np.abs(denom))) < DENOM_FLOOR:
        raise ValueError("geometric denominator 1 - d_k d_l vanished")
    series = (1.0 - prod**n) / denom
    return moments.mtilde / (1.0 + eta * lam1) ** 2 * series


def with_rn(asym: AsymptoticVariance, moments: MomentEstimates, eigen: EigenSystem,
            n: int, eta: float) -> AsymptoticVariance:
    """Return a copy of ``asym`` carrying the finite-n block for (n, eta)."""
    rn = build_rn(moments, eigen, n, eta)
    return AsymptoticVariance(r0=asym.r0, v=asym.v, rn=rn,
                              d_factors=contraction_factors(eigen, eta), n=n, eta=float(eta))


@dataclass(frozen=True)
class EmpiricalCovariance:
    """Monte-Carlo estimate of E[Psi Psi^T] with per-entry standard errors."""

    matrix: np.ndarray
    stderr: np.ndarray
    trials: int
    seed: SeedSpec | None = None


def empirical_hajek_covariance(sampler, eigen: EigenSystem, n: int, eta: float,
                               trials: int, seed: SeedSpec) -> EmpiricalCovariance:
    """Monte-Carlo covariance of the order-1 fluctuation term over fresh data.

    Each trial draws n fresh (n, d) rows from ``sampler`` and evaluates the
    explicit order-1 sum; the global sign is irrelevant for the outer
    product, so no initial vector enters. Matches eta^2 Vp Rn Vp^T in
    expectation.
    """
    eigen.require_gap()
    if trials < 1:
        raise ValueError(f"need trials >= 1 (got {trials})")
    d = eigen.d
    v1 = eigen.leading
    vp = eigen.tail_basis
    sigma_v1 = _sigma_matrix(eigen) @ v1
    contract = order1_contraction(eigen, eta, n)
    sum_m = np.zeros((d, d))
    sum_m2 = np.zeros((d, d))
    for t in range(trials):
        rng = seed.child(t).rng()
        x = _draw(sampler, rng, n, d)
        psi = contract((x * (x @ v1)[:, None] - sigma_v1) @ vp)
        outer = np.outer(psi, psi)
        sum_m += outer
        sum_m2 += outer**2
    mean = sum_m / trials
    var = np.maximum(sum_m2 / trials - mean**2, 0.0)
    stderr = np.sqrt(var / trials)
    return EmpiricalCovariance(matrix=mean, stderr=stderr, trials=trials, seed=seed)


def ck_diagnostic(psi_variances: np.ndarray, eta: float, gap: float, m2: float) -> np.ndarray:
    """Per-coordinate signal strength sqrt(var_k / eta * gap / m2^2).

    ``psi_variances`` are the diagonal entries of an empirical order-1
    covariance (see :func:`empirical_hajek_covariance`). Exposed as a
    diagnostic only; no data-driven estimator of these constants is claimed.
    """
    if eta <= 0.0 or gap <= 0.0 or m2 <= 0.0:
        raise ValueError("eta, gap, and m2 must all be positive")
    vals = np.maximum(np.asarray(psi_variances, dtype=np.float64), 0.0)
    return np.sqrt(vals / eta * gap / (m2 * m2))

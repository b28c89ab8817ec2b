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
from functools import partial

import numpy as np

from .core import EigenSystem, SeedSpec
from .defaults import require_at_least, require_positive
from .hoeffding import order1_contraction
from .oja import require_step
from .workers import cpu_ranges, run_parts

DENOM_FLOOR = 1e-12
# Entries per chunk: estimate_mtilde draws, and _operator_norms takes, _BLOCK_ELEMS // d rows
# at a time (at least one), so each array of the moment loop is about 0.5 MB whatever d.
_BLOCK_ELEMS = 65536
# A cap on the secular iterations; they settle in about five.
_ROOT_ITERS = 50
# The least step above a pole at 0; its square stays a normal double.
_TINY = np.finfo(np.float64).tiny ** 0.5


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


def _model_roots(w1: np.ndarray, s2: np.ndarray, a: np.ndarray, gap: float):
    """Roots y+ >= 0 >= y- of w1 / (y + gap) + s2 / y = a, elementwise (a >= 1, the rest >= 0).

    The larger-magnitude root comes from the quadratic formula without
    cancellation, the other from the product of the roots, -s2 gap / a.
    """
    p = w1 + s2 - a * gap
    q = p + np.copysign(np.sqrt(p * p + 4.0 * a * s2 * gap), p)
    far = q / (2.0 * a)
    near = np.divide(-2.0 * s2 * gap, q, out=np.zeros_like(q), where=q != 0.0)
    return np.maximum(far, near), np.minimum(far, near)


def _fit(wb: np.ndarray, h: np.ndarray, y: np.ndarray):
    """(s2, a) such that s2 / y + 1 - a matches sum_k wb_k / (y - h_k) in value and slope at y."""
    v = wb / (y - h) ** 2
    return y * y * v.sum(axis=0), 1.0 + (h * v).sum(axis=0)


def _operator_norms(x: np.ndarray, eigen: EigenSystem) -> np.ndarray:
    """Operator norm of x_i x_i^T - Sigma for each row x_i, exact to rounding.

    In Sigma's eigenbasis a row is z = Q^T x and the draw z z^T - diag(lam), a
    rank-one update of diag(-lam). Shifted by lam_2, its eigenvalues are the
    roots y = mu + lam_2 of the secular equation (Bunch, Nielsen & Sorensen 1978)

        w_1 / (y + g) + sum_{k >= 2} w_k / (y - h_k) = 1,
        w = z**2,  g = lam_1 - lam_2,  h_k = lam_2 - lam_k >= 0,

    and the norm is the larger of the top root less lam_2 and lam_2 less the
    bottom root, which lies in [-g, 0]. Each iteration keeps the w_1 term and
    replaces the others by s2 / y + 1 - a, matched in value and slope at the
    iterate (:func:`_fit`); the model's root is the next iterate. Its pole at
    h_2 = 0 is the farthest of theirs from the top root, so the model lies
    below the secular function there and the top iterates rise to the root;
    it is the nearest to the bottom root, so those iterates rise too. A row
    leaves the iteration once its step is within a few ulps of the
    spectrum's scale, or once its bottom root is known to lose to its top one.
    """
    lam = eigen.eigenvalues
    gap = float(lam[0] - lam[1])
    h = (lam[1] - lam[1:])[:, None]
    tol = 4.0 * np.finfo(np.float64).eps
    scale = float(lam[0] - lam[-1])
    # The top root lies above h_d, the last pole, and beats the bottom one only
    # above 2 lam_2; its iterates stay just above both, and a root below that
    # floor is read as the larger of the two.
    base = max(2.0 * float(lam[1]), float(h[-1, 0]))
    floor = base + max(tol * abs(base), _TINY)
    w = (eigen.eigenvectors.T @ x.T) ** 2
    w1, wb = w[0], w[1:]
    # The first top iterate is the root of the model at y = inf.
    y = np.maximum(_model_roots(w1, wb.sum(axis=0), np.ones_like(w1), gap)[0], floor)
    y = _secular_roots(w1, wb, h, gap, y, True, floor, tol, scale)
    top = np.where(y > floor, y, base) - lam[1]
    # lam_2 less the bottom root is at most lam_1, and is lam_1 when g = 0.
    norm = np.maximum(top, lam[0])
    rest = np.flatnonzero(top < lam[0])
    if gap > 0.0 and rest.size:
        y = _secular_roots(w1[rest], wb[:, rest], h, gap, np.full(rest.size, -gap), False,
                           lam[1] - top[rest], tol, scale)
        norm[rest] = np.maximum(top[rest], lam[1] - y)
    return norm


def _secular_roots(w1, wb, h, gap, y, top, bound, tol, scale):
    """Each column's top secular root, kept at least ``bound``, or its bottom one, from y upwards.

    A bottom iterate also stops once it reaches its ``bound``: the root is
    then at least that high, so it loses to the top root, and so does the
    iterate.
    """
    bound = np.broadcast_to(bound, y.shape)
    out = np.empty_like(y)
    live = np.arange(y.size)
    for _ in range(_ROOT_ITERS):
        up, down = _model_roots(w1, *_fit(wb, h, y), gap)
        new = np.maximum(up, bound) if top else down
        done = np.abs(new - y) <= tol * (np.abs(new) + scale)
        if not top:
            done |= new >= bound
        out[live[done]] = new[done]
        keep = ~done
        live, w1, wb, y, bound = live[keep], w1[keep], wb[:, keep], new[keep], bound[keep]
        if not live.size:
            return out
    out[live] = y
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
    require_at_least("mc_samples", mc_samples, 100)
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
    step = max(1, _BLOCK_ELEMS // d)
    done = 0
    while done < mc_samples:
        m = min(step, mc_samples - done)
        x = _draw(sampler, rng, m, d)
        t = x @ v1
        w = (x * t[:, None] - sigma_v1) @ vp          # rows Vp^T (A_i - Sigma) v1
        nrm2 = np.einsum("ij,ij->i", x, x)
        sum_a += x.T @ x
        sum_asq += (x * nrm2[:, None]).T @ x          # sum of ||x||^2 x x^T
        w2 = w * w
        sum_w += w.T @ w                              # sum of w w^T, O(d^2) memory
        sum_w2 += w2.T @ w2                           # sum of (w w^T)**2, entrywise
        q = _operator_norms(x, eigen)
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

    Requires a positive, finite eta with eta * l_1 < 1 (a RegimeError
    otherwise) and a positive gap; the geometric-series denominator
    1 - d_k d_l cannot vanish under those conditions but is guarded anyway.
    """
    eigen.require_gap()
    require_at_least("n", n, 1)
    require_positive("eta", eta)
    lam1 = float(eigen.eigenvalues[0])
    require_step(eta, lam1, "eta", "the finite-horizon block needs a smaller eta")
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
    _check_trials(eigen, eta, trials)
    return _covariance(order1_terms(sampler, eigen, n, eta, seed, 0, trials), seed)


def order1_terms(sampler, eigen: EigenSystem, n: int, eta: float, seed: SeedSpec,
                 lo: int, hi: int) -> np.ndarray:
    """The order-1 terms Psi of trials lo..hi-1, one (d,) row each; trial t draws from ``seed.child(t)``."""
    d = eigen.d
    v1 = eigen.leading
    vp = eigen.tail_basis
    sigma_v1 = _sigma_matrix(eigen) @ v1
    contract = order1_contraction(eigen, eta, n)
    psi = np.empty((hi - lo, d))
    for t in range(lo, hi):
        x = _draw(sampler, seed.child(t).rng(), n, d)
        psi[t - lo] = contract((x * (x @ v1)[:, None] - sigma_v1) @ vp)
    return psi


def _check_trials(eigen: EigenSystem, eta: float, trials: int) -> None:
    eigen.require_gap()
    require_positive("eta", eta)
    require_at_least("trials", trials, 1)


def _covariance(psi: np.ndarray, seed: SeedSpec) -> EmpiricalCovariance:
    """Mean outer product of the rows of ``psi``, as the product psi^T psi, and its standard errors."""
    trials = psi.shape[0]
    sq = psi * psi
    mean = (psi.T @ psi) / trials
    var = np.maximum((sq.T @ sq) / trials - mean**2, 0.0)
    stderr = np.sqrt(var / trials)
    return EmpiricalCovariance(matrix=mean, stderr=stderr, trials=trials, seed=seed)


def moments_and_trials(sampler, eigen: EigenSystem, mc_samples: int, moment_seed: SeedSpec,
                       n: int | None, eta: float | None, trials: int, trial_seed: SeedSpec
                       ) -> tuple[MomentEstimates, EmpiricalCovariance | None, dict]:
    """:func:`estimate_mtilde`, and with ``trials`` > 0 :func:`empirical_hajek_covariance` beside it.

    The parts handed to :func:`~ojainfer.workers.run_parts` are trial range
    0, the moment estimate, then the further ranges of
    :func:`~ojainfer.workers.cpu_ranges`; range 0 runs here and the others,
    where the process may fork, on forked workers. Each range returns its
    :func:`order1_terms`, joined here in trial order, so both estimates are
    those of the two calls made one after the other. Returns (moments, the
    empirical covariance or None, run_parts' run record).
    """
    require_at_least("trials", trials, 0)
    estimate = partial(estimate_mtilde, sampler, eigen, mc_samples, moment_seed)
    if trials == 0:
        (moments,), run = run_parts([estimate])
        return moments, None, run
    _check_trials(eigen, eta, trials)
    ranges = [partial(order1_terms, sampler, eigen, n, eta, trial_seed, lo, hi)
              for lo, hi in cpu_ranges(trials)]
    (first, moments, *rest), run = run_parts([ranges[0], estimate, *ranges[1:]])
    return moments, _covariance(np.concatenate([first, *rest]), trial_seed), run


def ck_diagnostic(psi_variances: np.ndarray, eta: float, gap: float, m2: float) -> np.ndarray:
    """Per-coordinate signal strength sqrt(var_k / eta * gap / m2^2).

    ``psi_variances`` are the diagonal entries of an empirical order-1
    covariance (see :func:`empirical_hajek_covariance`). Exposed as a
    diagnostic only; no data-driven estimator of these constants is claimed.
    """
    for name, value in (("eta", eta), ("gap", gap), ("m2", m2)):
        require_positive(name, value)
    vals = np.maximum(np.asarray(psi_variances, dtype=np.float64), 0.0)
    return np.sqrt(vals / eta * gap / (m2 * m2))

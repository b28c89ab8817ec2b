"""Single-pass streaming estimation of the leading eigenvector.

The basic iteration keeps a running unit vector u and, for each incoming
sample x, applies

    u <- normalize(u + eta * x * (x . u))

which is a projected stochastic-gradient step on the Rayleigh quotient. The
module also provides the constant learning-rate schedule used throughout the
library and a boosted variant that runs the iteration on disjoint batches and
picks the most central candidate.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from .core import UNIT_TOL, Dataset, RegimeError, SeedSpec, require_gap, sample_covariance, sin2


def learning_rate(n: float, gap: float, alpha: float) -> float:
    """Constant step size alpha * ln(n) / (n * gap) for a pass of length n."""
    if not n >= 2:
        raise ValueError(f"need n >= 2 samples for a learning rate (got {n})")
    if not 0.0 < gap < math.inf:
        raise ValueError(f"gap must be positive and finite (got {gap})")
    if not 1.0 < alpha < math.inf:
        raise ValueError(f"alpha must exceed 1 and be finite (got {alpha})")
    return alpha * math.log(n) / (n * gap)


def require_regime(samples: np.ndarray, v: np.ndarray, eta: float, gap: float, name: str,
                   kind: str) -> None:
    """Raise RegimeError unless eta * lambda_1 < 1, with lambda_1 read off as the unit vector
    ``v``'s Rayleigh quotient on the (n, d) ``samples`` that a pass at step ``eta`` read.

    The message names the step as ``name`` (``eta_B``, ``eta_n``) and the pass as ``kind``.
    """
    step = eta * float(np.mean((samples @ v) ** 2))
    if step >= 1.0:
        raise RegimeError(f"{name} * lambda_1 = {step:.3g} >= 1: the {kind} step size {eta:.3g} "
                          f"is out of the regime the estimator covers; is the gap {gap:.3g} at noise level?")


def gaussian_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    """Uniform random unit vector: g / ||g|| with g ~ N(0, I_d)."""
    g = rng.standard_normal(d)
    return g / np.linalg.norm(g)


class DegenerateIterateError(ValueError):
    """A state's iterate became zero or non-finite; ``state`` is its index among the kernel call's states."""

    def __init__(self, state: int, message: str):
        super().__init__(message)
        self.state = state


# Largest eta * sum |w_i| ||x_i||^2 of a block: the update's coefficients, and their
# rounding errors, grow by up to exp of it. Blocks over it are halved, with the blocks between them.
_BLOCK_BOUND = 4.0
# Blocks per segment, the unit read from a stream and factored in one go.
_SEGMENT_BLOCKS = 32


def _block_size(d: int, states: int) -> int:
    """Samples per block for ``states`` states of dimension d advanced together.

    Measured on this kernel, the best k fell like states^(-1/3) (32 for one
    state, 8 for 27), and to 1 once states exceed 16 * d.
    """
    if states > 16 * d:
        return 1
    k = int(32.0 / states ** (1.0 / 3.0) + 1e-9)
    return 1 << (k.bit_length() - 1)


def _segments(blocks, rows: int):
    """(start, (K, m, d) array) pieces of at most ``rows`` samples per state."""
    if isinstance(blocks, np.ndarray):
        x = np.asarray(blocks, dtype=np.float64)
        x = x if x.ndim == 3 else x[None]
        for start in range(0, x.shape[1], rows):
            yield start, x[:, start : start + rows]
        return
    stream, start = iter(blocks), 0
    while chunk := list(islice(stream, rows)):
        yield start, np.asarray(chunk, dtype=np.float64)[None]
        start += len(chunk)


def _advance(U: np.ndarray, X: np.ndarray, ew: np.ndarray, start: int, G: np.ndarray | None = None) -> None:
    """Apply the (K, blocks, k, d) samples ``X`` to the (K, d, 1) states ``U``.

    ``ew`` is the (K, blocks, k) steps, eta times the multipliers, ``G`` the
    blocks' X X^T if known. With L the strict lower triangle of X X^T, a block
    moves u to u + X^T c where (I - eta W L) c = eta W X u: the k updates
    without their normalisations, which only rescale. The factors
    (I - eta W L)^-1 eta W of all blocks are built first, by forward
    substitution across the stack. Blocks before the first over
    ``_BLOCK_BOUND`` (NaN is over it) and after the last run at size k; the
    run from the first to the last runs again in blocks of k/2, or 1 if k is odd.
    """
    K, nb, k, d = X.shape
    # Overflow and NaN run on into U, and are reported below at their first block.
    with np.errstate(all="ignore"):
        G = np.matmul(X, X.swapaxes(-1, -2)) if G is None else G
        load = (np.abs(ew) * np.diagonal(G, axis1=-2, axis2=-1)).sum(-1)
        over = np.flatnonzero(~(load <= _BLOCK_BOUND).all(0)) if k > 1 else ()
        if len(over):
            lo, hi, size = over[0], over[-1] + 1, 1 if k % 2 else k // 2
            _advance(U, X[:, :lo], ew[:, :lo], start, G[:, :lo])
            _advance(U, X[:, lo:hi].reshape(K, -1, size, d), ew[:, lo:hi].reshape(K, -1, size), start + lo * k)
            return _advance(U, X[:, hi:], ew[:, hi:], start + hi * k, G[:, hi:])
        N = G * (np.tri(k, k, -1) * ew[..., None])
        T = np.zeros_like(N) + np.eye(k)
        for i in range(1, k):
            T[..., i : i + 1, :i] = np.matmul(N[..., i : i + 1, :i], T[..., :i, :i])
        M = T * ew[..., None, :]
        XT, Ut = X.swapaxes(-1, -2), U.transpose(0, 2, 1)
        norms = np.empty((nb, K, 1, 1))
        for j, nrm in enumerate(norms):
            c = np.matmul(M[:, j], np.matmul(X[:, j], U))
            U += np.matmul(XT[:, j], c)
            U /= np.sqrt(np.matmul(Ut, U), out=nrm)
    bad = np.argwhere(~((norms > 0.0) & (norms < math.inf)))
    if bad.size:
        j, i = bad[0, :2]
        raise DegenerateIterateError(int(i), f"iterate {i} degenerated in samples {start + j * k}.."
                                     f"{start + j * k + k - 1} (norm {float(norms[j, i, 0, 0])!r})")


def oja_kernel(blocks, eta: float, U0: np.ndarray, weights=None) -> tuple[np.ndarray, int]:
    """Advance K states u <- normalize(u + eta * w * x (x . u)) over their samples.

    ``blocks`` is a (K, n, d) array, state i reading ``blocks[i]`` in order,
    or for one state an (n, d) array or an iterable of rows (read once, O(k)
    rows at a time). Arrays are not copied: a ``np.broadcast_to`` view that
    gives K states the same (n, d) rows is read as it is. ``weights`` are
    (K, n) multipliers for an array, None for all 1: every sample's step
    eta * w goes to the block update as one (K, n) array. Returns the final
    (K, d) unit rows, equal to the per-sample loop up to rounding, and the
    samples each state read.
    Raises ValueError for an ``eta`` that is not positive and finite, a start
    row that is not unit norm (within ``UNIT_TOL``), samples whose d is not
    the starts', and a zero or non-finite iterate (a DegenerateIterateError
    naming its state and samples).
    """
    if not 0.0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite (got {eta})")
    U = np.array(U0, dtype=np.float64, ndmin=2)[:, :, None]
    K, d, _ = U.shape
    norms = np.linalg.norm(U[:, :, 0], axis=1)
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_TOL))
    if off.size:
        raise ValueError(f"start row {off[0]} must be unit norm (got norm {float(norms[off[0]])!r})")
    w = None if weights is None else np.asarray(weights, dtype=np.float64).reshape(K, -1)
    if w is not None and w.shape[1:] != np.shape(blocks)[-2:-1]:
        raise ValueError(f"{w.shape[1]} weights for samples of shape {np.shape(blocks)}")
    k = _block_size(d, K)
    n = 0
    for start, x in _segments(blocks, k * _SEGMENT_BLOCKS):
        m = x.shape[1]
        if x.ndim != 3 or x.shape[0] != K or x.shape[2] != d:
            raise ValueError(f"samples {start}..{start + m - 1} have shape {x.shape}, expected"
                             f" ({K}, {m}, {d}) for ({K}, {d}) start rows")
        ew = np.full((K, m), eta, dtype=np.float64) if w is None else eta * w[:, start : start + m]
        full = m - m % k
        for lo, hi, size in ((0, full, k), (full, m, m - full)):
            if hi > lo:
                _advance(U, x[:, lo:hi].reshape(K, -1, size, d), ew[:, lo:hi].reshape(K, -1, size),
                         start + lo)
        n += m
    return U[:, :, 0], n


def oja_run(data, eta: float, u0: np.ndarray) -> np.ndarray:
    """One streaming pass over ``data`` starting from the unit vector ``u0``.

    Parameters
    ----------
    data : Dataset, (n, d) array, or iterable of length-d vectors
        Consumed once, in order, by :func:`oja_kernel`.
    eta : float
        Positive, finite constant step size.
    u0 : (d,) array
        Unit-norm initial vector.

    Returns
    -------
    (d,) array
        The final unit-norm iterate. :func:`oja_kernel` checks ``eta`` and
        ``u0``; an empty stream raises ValueError.
    """
    U, count = oja_kernel(data.samples if isinstance(data, Dataset) else data, eta, u0)
    if count == 0:
        raise ValueError("sample stream was empty")
    return U[0]


_GAP_ROWS = 4096


def estimate_gap(data: Dataset) -> float:
    """Plug-in eigengap, from the eigenvalues alone, of the first min(n, _GAP_ROWS) rows."""
    head = Dataset(data.samples[:_GAP_ROWS])
    vals = np.linalg.eigvalsh(sample_covariance(head))
    return require_gap(float(vals[-1] - vals[-2]) if data.d >= 2 else 0.0)


def oja_boosted(data: Dataset, delta: float, gap: float, alpha: float, seed: SeedSpec) -> np.ndarray:
    """High-probability variant: batch the stream and return the central candidate's (d,) vector.

    The data is split into q = max(1, ceil(ln(1/delta))) contiguous batches of
    equal size (trailing remainder dropped), a fresh streaming run is made per
    batch (all q as the states of one kernel call), and the winner is the
    candidate whose median squared-sine distance to the other candidates is
    smallest. Ties go to the earliest batch, which keeps the selection
    deterministic. With a single batch this reduces to a plain pass over the
    whole dataset. Candidate j starts from ``seed.child(j)``.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1) (got {delta})")
    q = max(1, math.ceil(math.log(1.0 / delta)))
    batch = data.n // q
    if batch < 2:
        raise ValueError(
            f"need at least 2 samples per batch: n={data.n} gives batches of {batch} for q={q}"
        )
    eta = learning_rate(batch, gap, alpha)
    starts = np.array([gaussian_unit(seed.child(j).rng(), data.d) for j in range(q)])
    finals, _ = oja_kernel(data.samples[: q * batch].reshape(q, batch, data.d), eta, starts)
    best = 0 if q == 1 else int(np.argmin([np.median([sin2(u, v) for v in np.delete(finals, i, axis=0)])
                                           for i, u in enumerate(finals)]))
    return finals[best]

"""Dense vector/matrix kernels, the offline eigen-oracle, and angle metrics.

Conventions
-----------
- Samples are stored row-wise: a dataset of n observations in R^d is an
  (n, d) float64 array.
- Eigenvectors are stored column-wise: ``eigenvectors[:, 0]`` is the leading
  eigenvector.
- All operations are pure functions on immutable inputs; random streams are
  carried explicitly through :class:`SeedSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Eigengaps at or below this are treated as degenerate by downstream consumers.
GAP_FLOOR = 1e-12


class DegenerateGapError(ValueError):
    """Raised when an operation needs a spectral gap but the gap is ~0."""


class RegimeError(ValueError):
    """Raised when a step size leaves the regime eta * lambda_1 < 1 that the guarantees cover."""


@dataclass(frozen=True)
class SeedSpec:
    """Key for a reproducible, hierarchical family of random streams.

    ``master`` is the experiment-level seed; ``stream`` is a tuple of integer
    labels identifying one independent consumer (trial index, batch index,
    replica index, ...). Distinct (master, stream) pairs yield statistically
    independent generators; identical pairs yield identical generators.
    """

    master: int
    stream: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "stream", tuple(int(s) for s in self.stream))
        if not 0 <= int(self.master) < 2**64:
            raise ValueError("master seed must be a 64-bit unsigned integer")

    def rng(self) -> np.random.Generator:
        """Fresh generator for this (master, stream) pair."""
        seq = np.random.SeedSequence(self.master, spawn_key=self.stream)
        return np.random.default_rng(seq)

    def child(self, *labels: int) -> "SeedSpec":
        """Derive the seed of a sub-consumer identified by ``labels``."""
        return SeedSpec(self.master, self.stream + tuple(int(x) for x in labels))


class SeedLabel:
    """The one table of stream labels: each consumer draws from ``seed.child(SeedLabel.X)``."""

    DATA = 0             # the samples of a synthetic dataset
    START = 1            # the proxy pass's start vector (oja_boosted: its candidates' starts)
    VAREST = 2           # ojavarest's batch start vectors
    BOOTSTRAP = 3        # (BOOTSTRAP, b): the multipliers of a b-replica bootstrap
    BOOTSTRAP_START = 4  # the bootstrap replicas' shared start vector
    BENCH = 10           # BENCH + idx: method idx of a timing bench
    WARMUP = 99          # the timing bench's untimed warm-up pass
    MOMENTS = 1          # asymvar: Monte-Carlo moment draws
    EMPIRICAL = 2        # asymvar: empirical covariance trials


@dataclass(frozen=True)
class Dataset:
    """An in-memory batch of n samples in R^d (rows = observations).

    Parameters
    ----------
    samples : (n, d) array_like
        Observation matrix; coerced to C-contiguous float64.
    """

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(np.asarray(self.samples, dtype=np.float64))
        if arr.ndim != 2:
            raise ValueError(f"samples must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"dataset needs n >= 1 and d >= 1, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("dataset contains non-finite entries")
        object.__setattr__(self, "samples", arr)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def d(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class EigenSystem:
    """Offline eigendecomposition of a symmetric matrix, sorted descending.

    ``eigenvectors`` holds orthonormal columns; ``gap`` is the separation
    between the two largest eigenvalues. A gap at or below ``GAP_FLOOR`` is a
    legal value here, but consumers that need a unique leading direction must
    call :meth:`require_gap` first.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    gap: float = field(init=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=np.float64).reshape(-1)
        vecs = np.asarray(self.eigenvectors, dtype=np.float64)
        d = vals.shape[0]
        if vecs.shape != (d, d):
            raise ValueError("eigenvectors must be a (d, d) matrix of columns")
        if np.any(np.diff(vals) > 0):
            raise ValueError("eigenvalues must be sorted in descending order")
        ortho_err = np.max(np.abs(vecs.T @ vecs - np.eye(d)))
        if ortho_err > 1e-8:
            raise ValueError(f"eigenvectors not orthonormal (max defect {ortho_err:.3e})")
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", np.ascontiguousarray(vecs))
        gap = float(vals[0] - vals[1]) if d >= 2 else 0.0
        object.__setattr__(self, "gap", gap)

    @property
    def d(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def leading(self) -> np.ndarray:
        """Leading eigenvector v_1 (a view, length d)."""
        return self.eigenvectors[:, 0]

    @property
    def tail_basis(self) -> np.ndarray:
        """Orthonormal basis of the complement of v_1, shape (d, d-1)."""
        return self.eigenvectors[:, 1:]

    def require_gap(self) -> float:
        """Return the eigengap, raising if it is degenerate."""
        return require_gap(self.gap)


def require_gap(gap: float) -> float:
    """Return ``gap``, raising DegenerateGapError at or below ``GAP_FLOOR``."""
    if gap <= GAP_FLOOR:
        raise DegenerateGapError(
            f"eigengap {gap:.3e} is degenerate; a strictly positive "
            "separation between the top two eigenvalues is required"
        )
    return gap


# Largest | ||v|| - 1 | that _check_unit, and oja_kernel for its start rows, accept as unit norm.
UNIT_TOL = 1e-8


def _check_unit(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    nrm = float(np.linalg.norm(v))
    if not abs(nrm - 1.0) <= UNIT_TOL:
        raise ValueError(f"{name} must be unit norm (got ||{name}|| = {nrm!r})")
    return v


def sample_covariance(data: Dataset) -> np.ndarray:
    """Second-moment matrix (1/n) sum_i x_i x_i^T of a dataset.

    The result is symmetrized to cancel floating-point asymmetry, so the
    output passes a strict symmetry check.
    """
    x = data.samples
    s = (x.T @ x) / x.shape[0]
    return (s + s.T) / 2.0


def eigendecompose(s: np.ndarray) -> EigenSystem:
    """Full symmetric eigendecomposition with eigenvalues sorted descending.

    Parameters
    ----------
    s : (d, d) array_like
        Symmetric matrix; asymmetry beyond 1e-8 (relative) is rejected.

    Raises
    ------
    ValueError
        If the input is not square/symmetric.
    np.linalg.LinAlgError
        If the solver fails to converge.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    scale = max(1.0, float(np.max(np.abs(s))))
    asym = float(np.max(np.abs(s - s.T)))
    if asym > 1e-8 * scale:
        raise ValueError(f"matrix is not symmetric (max |S - S^T| = {asym:.3e})")
    vals, vecs = np.linalg.eigh((s + s.T) / 2.0)
    order = np.argsort(vals)[::-1]
    return EigenSystem(vals[order], vecs[:, order])


def psd_sqrt(eigen: EigenSystem) -> np.ndarray:
    """Symmetric square root R of a PSD matrix, given its eigendecomposition.

    R @ R reproduces the decomposed matrix. Eigenvalues in [-1e-6, 0) are
    clamped to zero; anything below -1e-6 signals a materially indefinite
    input and raises.
    """
    vals = eigen.eigenvalues
    if np.any(vals < -1e-6):
        raise ValueError(
            f"matrix has a materially negative eigenvalue ({float(vals.min()):.3e})"
        )
    clamped = np.clip(vals, 0.0, None)
    root = (eigen.eigenvectors * np.sqrt(clamped)) @ eigen.eigenvectors.T
    return (root + root.T) / 2.0


def sin2(u: np.ndarray, v: np.ndarray) -> float:
    """Squared sine of the angle between two unit vectors: 1 - (u . v)^2.

    Symmetric in its arguments and invariant to flipping the sign of either
    input. Tiny negative values from roundoff are clipped to 0.
    """
    u = _check_unit(u, "u")
    v = _check_unit(v, "v")
    c = float(u @ v)
    return max(0.0, 1.0 - c * c)


def sign_align(reference: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Resolve the +/- ambiguity of ``v`` against a reference direction.

    Returns ``v`` when reference . v >= 0, else ``-v``. An exactly zero dot
    product keeps the candidate's sign, which makes the rule deterministic.
    """
    reference = _check_unit(reference, "reference")
    v = _check_unit(v, "v")
    return v if float(reference @ v) >= 0.0 else -v

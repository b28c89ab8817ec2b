"""Synthetic data family with known ground-truth covariance.

The covariance is built from an exponential-decay correlation kernel and a
power-law scale profile:

    K_ij    = exp(-c * |i - j|)
    sigma_i = scale * i**(-beta)          (1-based i)
    Sigma   = K * outer(sigma, sigma)     (entrywise product)

Samples are X = Sigma^{1/2} Z with Z having i.i.d. entries uniform on
(-sqrt(3), sqrt(3)), so each Z coordinate has mean zero and unit variance.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Dataset, EigenSystem, eigendecompose, psd_sqrt
from .defaults import DEFAULT_C, DEFAULT_SCALE

HALF_WIDTH = math.sqrt(3.0)


def build_sigma(d: int, beta: float, c: float = DEFAULT_C,
                scale: float = DEFAULT_SCALE) -> tuple[np.ndarray, EigenSystem, np.ndarray]:
    """Construct the covariance, its eigendecomposition and its square root.

    ``beta`` controls how fast coordinate scales decay, ``c`` the correlation
    decay of the kernel, ``scale`` the overall magnitude.

    Returns
    -------
    (sigma, eigen, root)
        The (d, d) covariance, its full EigenSystem (eigenvalues in
        descending order) and Sigma^{1/2}, taken from that EigenSystem. A
        minimum eigenvalue below -1e-8 * lambda_1 raises, since the kernel
        construction is positive semidefinite by design; tiny negative
        values from roundoff are clamped in the square root.
    """
    if d < 2:
        raise ValueError(f"need d >= 2 (got {d})")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite (got {beta})")
    if not 0.0 < c < math.inf:
        raise ValueError(f"kernel decay c must be positive and finite (got {c})")
    if not 0.0 < scale < math.inf:
        raise ValueError(f"scale must be positive and finite (got {scale})")
    idx = np.arange(d)
    kernel = np.exp(-c * np.abs(idx[:, None] - idx[None, :]))
    scales = scale * (idx + 1.0) ** (-beta)
    sigma = kernel * np.outer(scales, scales)
    sigma = (sigma + sigma.T) / 2.0
    eigen = eigendecompose(sigma)
    lam = eigen.eigenvalues
    if lam[-1] < -1e-8 * lam[0]:
        raise ValueError(
            f"construction produced a non-PSD matrix (min eigenvalue {lam[-1]:.3e})"
        )
    return sigma, eigen, psd_sqrt(eigen)


# Rows drawn per block: Z for one block is the only scratch beyond the output.
_BLOCK_ROWS = 4096


def sample(root: np.ndarray, n: int, rng: np.random.Generator) -> Dataset:
    """Materialize n i.i.d. samples X = Sigma^{1/2} Z as a Dataset, d read off ``root``.

    Each block of Z is multiplied straight into its rows of the output, so
    the draw holds one (n, d) array and one block of Z.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 samples (got {n})")
    root = np.asarray(root, dtype=np.float64)
    if root.ndim != 2 or root.shape[0] != root.shape[1]:
        raise ValueError(f"root must be a square (d, d) matrix (got shape {root.shape})")
    d = root.shape[0]
    out = np.empty((n, d))
    for lo in range(0, n, _BLOCK_ROWS):
        z = rng.uniform(-HALF_WIDTH, HALF_WIDTH, size=(min(_BLOCK_ROWS, n - lo), d))
        np.matmul(z, root, out=out[lo:lo + len(z)])
    return Dataset(out)


def vector_sampler(root: np.ndarray):
    """Sampler callable (rng, m) -> (m, d) rows for the moment estimators.

    One product per draw, not :func:`sample`'s blocks: the two can differ in the
    last bit once m exceeds a block, and the moment estimates keep these bits.
    """
    root = np.asarray(root, dtype=np.float64)

    def draw(rng: np.random.Generator, m: int) -> np.ndarray:
        z = rng.uniform(-HALF_WIDTH, HALF_WIDTH, size=(m, root.shape[0]))
        return z @ root

    return draw


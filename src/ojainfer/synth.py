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
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import Dataset, EigenSystem, SeedSpec, eigendecompose

HALF_WIDTH = math.sqrt(3.0)

# Decay presets seen in practice for this family; beta stays a free parameter.
BETA_PRESETS = (0.02, 0.2, 1.0, 2.0)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic family.

    ``beta`` controls how fast coordinate scales decay, ``c`` the correlation
    decay of the kernel, ``scale`` the overall magnitude.
    """

    d: int
    beta: float
    c: float = 0.01
    scale: float = 5.0
    seed: SeedSpec = SeedSpec(0)

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"need d >= 2 (got {self.d})")
        if self.c <= 0.0:
            raise ValueError(f"kernel decay c must be positive (got {self.c})")
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive (got {self.scale})")


def build_sigma(spec: SynthSpec) -> tuple[np.ndarray, EigenSystem]:
    """Construct the covariance matrix and its eigendecomposition.

    Returns
    -------
    (sigma, eigen)
        The (d, d) covariance and its full EigenSystem, eigenvalues in
        descending order. A minimum eigenvalue below -1e-8 * lambda_1 raises,
        since the kernel construction is positive semidefinite by design;
        tiny negative values from roundoff are tolerated (they are clamped in
        downstream square roots).
    """
    idx = np.arange(spec.d)
    kernel = np.exp(-spec.c * np.abs(idx[:, None] - idx[None, :]))
    scales = spec.scale * (idx + 1.0) ** (-spec.beta)
    sigma = kernel * np.outer(scales, scales)
    sigma = (sigma + sigma.T) / 2.0
    eigen = eigendecompose(sigma)
    lam = eigen.eigenvalues
    if lam[-1] < -1e-8 * lam[0]:
        raise ValueError(
            f"construction produced a non-PSD matrix (min eigenvalue {lam[-1]:.3e})"
        )
    return sigma, eigen


# Rows drawn per block: Z for one block is the only scratch beyond the output.
_BLOCK_ROWS = 4096


def _z_blocks(spec: SynthSpec, sigma_root: np.ndarray, n: int, rng, block: int):
    """Check the arguments; return Sigma^{1/2} and a generator of Z blocks."""
    if n < 1:
        raise ValueError(f"need n >= 1 samples (got {n})")
    root = np.asarray(sigma_root, dtype=np.float64)
    if root.shape != (spec.d, spec.d):
        raise ValueError(f"sigma_root has shape {root.shape}, expected ({spec.d}, {spec.d})")
    if rng is None:
        rng = spec.seed.rng()

    def blocks():
        for lo in range(0, n, block):
            yield rng.uniform(-HALF_WIDTH, HALF_WIDTH, size=(min(block, n - lo), spec.d))

    return root, blocks()


def sample_stream(
    spec: SynthSpec,
    sigma_root: np.ndarray,
    n: int,
    rng: np.random.Generator | None = None,
    block: int = _BLOCK_ROWS,
) -> Iterator[np.ndarray]:
    """Yield blocks of samples, keeping memory constant beyond Sigma^{1/2}.

    ``rng`` defaults to the stream keyed by ``spec.seed``.
    """
    root, blocks = _z_blocks(spec, sigma_root, n, rng, block)
    for z in blocks:
        yield z @ root


def sample(spec: SynthSpec, sigma_root: np.ndarray, n: int, rng: np.random.Generator | None = None) -> Dataset:
    """Materialize n i.i.d. samples X = Sigma^{1/2} Z as a Dataset.

    Each block of Z is multiplied straight into its rows of the output, so
    the draw holds one (n, d) array and one block of Z.
    """
    root, blocks = _z_blocks(spec, sigma_root, n, rng, _BLOCK_ROWS)
    out = np.empty((n, spec.d))
    lo = 0
    for z in blocks:
        np.matmul(z, root, out=out[lo:lo + len(z)])
        lo += len(z)
    return Dataset(out, provenance="synthetic")


def vector_sampler(spec: SynthSpec, sigma_root: np.ndarray):
    """Sampler callable (rng, m) -> (m, d) rows for the moment estimators."""
    root = np.asarray(sigma_root, dtype=np.float64)

    def draw(rng: np.random.Generator, m: int) -> np.ndarray:
        z = rng.uniform(-HALF_WIDTH, HALF_WIDTH, size=(m, spec.d))
        return z @ root

    return draw


def mask_missing(data: Dataset, rate: float, seed: SeedSpec) -> Dataset:
    """Zero out each entry independently with probability ``rate``.

    Returns a new Dataset; the input is untouched. ``rate`` must lie in
    [0, 1) since fully-masked data carries no information.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"mask rate must lie in [0, 1) (got {rate})")
    if rate == 0.0:
        return Dataset(data.samples.copy(), provenance=data.provenance)
    rng = seed.rng()
    keep = rng.random(data.samples.shape) >= rate
    return Dataset(data.samples * keep, provenance=data.provenance)

"""Reference implementations that the fast paths are tested against.

``oja_loop`` is the per-sample streaming update: one update and one
normalisation per sample, with no blocking; the tests compare
``ojainfer.oja.oja_kernel`` and every pass built on it against it.
``write_csv_cells`` is the per-cell CSV writer that ``ojainfer.io.write_csv``
must match byte for byte. ``operator_norms_rows`` is the power iteration on
(m, d) rows in the original basis, and ``hajek_vector`` the order-1 term of
one trial with its weight table built in place; ``ojainfer.asymvar`` must
match both. ``sample_blocks`` is ``ojainfer.synth.sample`` as a stack of
per-block products.
"""

import csv
import math

import numpy as np

from ojainfer.io import _fmt
from ojainfer.synth import HALF_WIDTH


def oja_loop(samples, eta, u0, weights=None):
    """Apply u <- normalize(u + eta * w_i * x_i (x_i . u)) sample by sample."""
    u = np.array(u0, dtype=np.float64)
    for i, x in enumerate(samples):
        w = 1.0 if weights is None else weights[i]
        s = x @ u
        u += (eta * w * s) * x
        nrm = math.sqrt(u @ u)
        if nrm == 0.0 or not math.isfinite(nrm):
            raise ValueError(f"iterate degenerated at sample {i} (norm {nrm!r})")
        u *= 1.0 / nrm
    return u


def write_csv_cells(samples, path):
    """Write rows as headerless CSV, each cell formatted by itself."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in samples:
            writer.writerow([_fmt(v) for v in row])


def operator_norms_rows(x, sigma, rng, iters=50):
    """Power-iterate each row's x x^T - Sigma from one normal start vector."""
    m, d = x.shape
    z = rng.standard_normal((m, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    for _ in range(iters):
        s = np.einsum("ij,ij->i", x, z)
        y = x * s[:, None] - z @ sigma
        nrm = np.linalg.norm(y, axis=1, keepdims=True)
        nrm[nrm == 0.0] = 1.0
        z = y / nrm
    s = np.einsum("ij,ij->i", x, z)
    y = x * s[:, None] - z @ sigma
    return np.linalg.norm(y, axis=1)


def hajek_vector(x, eigen, eta, sigma_v1):
    """Order-1 fluctuation vector for one trial of n sample rows (sign +1)."""
    lam = eigen.eigenvalues
    v1 = eigen.leading
    vp = eigen.tail_basis
    n = x.shape[0]
    t = x @ v1
    g = (x * t[:, None] - sigma_v1) @ vp
    ratios = (1.0 + eta * lam[1:]) / (1.0 + eta * lam[0])
    expo = np.arange(n - 1, -1, -1.0)
    ysum = ((ratios[None, :] ** expo[:, None]) * g).sum(axis=0)
    return (eta / (1.0 + eta * lam[0])) * (vp @ ysum)


def sample_blocks(root, n, rng, block=4096):
    """Draw Z in blocks of rows, multiply each by the root, and stack the products."""
    parts = [rng.uniform(-HALF_WIDTH, HALF_WIDTH, size=(min(block, n - lo), root.shape[0])) @ root
             for lo in range(0, n, block)]
    return np.vstack(parts)

"""Reference implementations that the fast paths are tested against.

``oja_loop`` is the per-sample streaming update: one update and one
normalisation per sample, with no blocking; the tests compare
``ojainfer.oja.oja_kernel`` and every pass built on it against it.
``write_csv_cells`` is the per-cell CSV writer that ``ojainfer.io.write_csv``
must match byte for byte.
"""

import csv
import math

import numpy as np

from ojainfer.io import _fmt


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

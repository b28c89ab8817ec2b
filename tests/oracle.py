"""Reference per-sample streaming update: the oracle for the blocked kernel.

One update and one normalisation per sample, with no blocking; the tests
compare ``ojainfer.oja.oja_kernel`` and every pass built on it against it.
"""

import math

import numpy as np


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

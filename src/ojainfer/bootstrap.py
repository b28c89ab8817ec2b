"""Online multiplier-bootstrap baseline for the variance comparison.

Replica j is one kernel pass over the data, in order, with sample i
weighted by an i.i.d. mean-1 multiplier:

    u_j <- normalize(u_j + eta * W_{i,j} * x_i (x_i . u_j)).

The multipliers are the only replica-to-replica randomness, each replica
owning a derived stream, so permuting replica seeds permutes the outputs.
Replicas run one after another: time is linear in b, space is n + b*d.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, SeedSpec
from .oja import oja_kernel

MULTIPLIER_LAWS = ("exponential", "normal", "constant")


def _multipliers(law: str, rng: np.random.Generator, n: int) -> np.ndarray | None:
    """One replica's n multipliers; None for the constant law (all ones)."""
    if law == "exponential":
        return rng.standard_exponential(n)
    if law == "normal":
        return 1.0 + rng.standard_normal(n)
    return None


def bootstrap_run(data: Dataset, b: int, eta: float, seed: SeedSpec, u0: np.ndarray,
                  law: str = "exponential") -> np.ndarray:
    """Run b weighted replicas over the data at step ``eta``; returns (b, d) rows.

    All replicas start from the same ``u0`` and see the samples in the same
    order; only their multipliers differ, replica j's drawn from
    ``seed.child(j)``. Laws: ``exponential`` is Exp(1) (mean 1, variance 1,
    nonnegative), ``normal`` is 1 + N(0, 1); ``constant`` pins every
    multiplier to 1, which makes replica 0 reproduce a plain streaming pass
    bit for bit. :func:`oja_kernel` checks ``eta`` and ``u0``.
    """
    if b < 1:
        raise ValueError(f"need at least one replica (got b={b})")
    if law not in MULTIPLIER_LAWS:
        raise ValueError(f"unknown multiplier law {law!r}; pick from {MULTIPLIER_LAWS}")
    replicas = np.empty((b, data.d))
    for j in range(b):
        weights = _multipliers(law, seed.child(j).rng(), data.n)
        try:
            replicas[j] = oja_kernel(data.samples, eta, u0, weights)[0][0]
        except ValueError as exc:
            raise ValueError(f"replica {j}: {exc}") from exc
    return replicas


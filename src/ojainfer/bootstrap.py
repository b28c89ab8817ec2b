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

from .core import Dataset, SeedSpec, _check_unit
from .oja import oja_kernel
from .varest import batch_variance

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
    bit for bit.
    """
    if b < 1:
        raise ValueError(f"need at least one replica (got b={b})")
    if law not in MULTIPLIER_LAWS:
        raise ValueError(f"unknown multiplier law {law!r}; pick from {MULTIPLIER_LAWS}")
    if eta <= 0.0:
        raise ValueError(f"eta must be positive (got {eta})")
    u0 = _check_unit(u0, "u0")
    if u0.shape[0] != data.d:
        raise ValueError(f"u0 has d={u0.shape[0]}, data has d={data.d}")
    replicas = np.empty((b, data.d))
    for j in range(b):
        weights = _multipliers(law, seed.child(j).rng(), data.n)
        try:
            replicas[j] = oja_kernel(data.samples, eta, u0, weights)[0][0]
        except ValueError as exc:
            raise ValueError(f"replica {j}: {exc}") from exc
    return replicas


def bootstrap_variance(replicas, vtilde: np.ndarray) -> np.ndarray:
    """Per-coordinate mean squared residual of the replicas around a proxy.

    Same output shape and semantics as the subsampling estimator's per-group
    spread, so the two methods are directly comparable.
    """
    arr = np.atleast_2d(np.asarray(replicas, dtype=np.float64))
    if arr.shape[0] < 1 or arr.size == 0:
        raise ValueError("need at least one replica")
    return batch_variance(arr, vtilde)

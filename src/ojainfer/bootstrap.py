"""Online multiplier-bootstrap baseline for the variance comparison.

Replica j is one kernel pass over the data, in order, with sample i
weighted by an i.i.d. mean-1 multiplier:

    u_j <- normalize(u_j + eta * W_{i,j} * x_i (x_i . u_j)).

The multipliers are the only replica-to-replica randomness, each replica
owning a derived stream, so permuting replica seeds permutes the outputs.
Chunks of up to ``_CHUNK`` replicas run as the states of one kernel call,
which reads the rows through a broadcast view. Time is linear in b; space
is the n*d rows, shared by every replica, plus at most ``_CHUNK``*n
multipliers, plus the b*d results.
"""

from __future__ import annotations

import numpy as np

from .core import Dataset, SeedSpec
from .defaults import DEFAULT_LAW
from .oja import DegenerateIterateError, oja_kernel

MULTIPLIER_LAWS = ("exponential", "normal", "constant")

# Replicas per kernel call: bounds the multipliers held at once to this many rows of n.
_CHUNK = 32


def _multipliers(law: str, rng: np.random.Generator, n: int) -> np.ndarray | None:
    """One replica's n multipliers; None for the constant law (all ones)."""
    if law == "exponential":
        return rng.standard_exponential(n)
    if law == "normal":
        return 1.0 + rng.standard_normal(n)
    return None


def bootstrap_run(data: Dataset, b: int, eta: float, seed: SeedSpec, u0: np.ndarray,
                  law: str = DEFAULT_LAW) -> np.ndarray:
    """Run b weighted replicas over the data at step ``eta``; returns (b, d) rows.

    All replicas start from the same ``u0`` and see the samples in the same
    order; only their multipliers differ, replica j's drawn from
    ``seed.child(j)``. Laws: ``exponential`` is Exp(1) (mean 1, variance 1,
    nonnegative), ``normal`` is 1 + N(0, 1); ``constant`` pins every
    multiplier to 1, which makes replica 0 reproduce a plain streaming pass
    bit for bit. :func:`oja_kernel` checks ``eta`` and ``u0``. A degenerate
    iterate raises ValueError "replica <j>: iterate <i> degenerated in
    samples ...", i being j's state in its chunk of ``_CHUNK`` replicas: of
    the first chunk that holds one, it names the earliest degenerate samples
    and the lowest replica there.
    """
    if b < 1:
        raise ValueError(f"need at least one replica (got b={b})")
    if law not in MULTIPLIER_LAWS:
        raise ValueError(f"unknown multiplier law {law!r}; pick from {MULTIPLIER_LAWS}")
    n, d = data.n, data.d
    replicas = np.empty((b, d))
    for lo in range(0, b, _CHUNK):
        c = min(_CHUNK, b - lo)
        weights = None
        if law != "constant":
            weights = np.empty((c, n))
            for i in range(c):
                weights[i] = _multipliers(law, seed.child(lo + i).rng(), n)
        try:
            replicas[lo : lo + c] = oja_kernel(np.broadcast_to(data.samples, (c, n, d)), eta,
                                               np.broadcast_to(u0, (c, d)), weights)[0]
        except DegenerateIterateError as exc:
            raise ValueError(f"replica {lo + exc.state}: {exc}") from exc
    return replicas

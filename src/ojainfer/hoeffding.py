"""Exact small-instance oracles for the update-product expansion.

The product B_n = (I + eta*A_n) ... (I + eta*A_1) admits an exact expansion
into terms T_{n,k} indexed by which of the n factors contribute a centered
matrix eta*(A_i - Sigma) instead of the constant factor (I + eta*Sigma):

    B_n = sum_{k=0}^{n} T_{n,k},
    T_{n,k} = sum_{|S|=k} prod_{i=n..1} M_{S,i},
    M_{S,i} = eta*(A_i - Sigma) if i in S else (I + eta*Sigma).

The k=1 term drives the fluctuations of the normalized iterate; this module
computes the terms by literal subset enumeration (small n only) together with
the five-piece exact decomposition of the residual of the final estimate.
Everything here is an oracle: clarity and exactness over speed.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import EigenSystem, _check_unit

# C(14, 7) subsets keep full enumeration sub-second at oracle sizes.
ENUMERATION_CAP = 14
# Largest defect DecompositionReport.validate allows in either exact identity.
IDENTITY_TOL = 1e-9


def _as_matrix_stack(samples, dim: int | None) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        if dim is None and (arr.ndim != 3 or arr.shape[1] < 1):
            raise ValueError("empty sample list needs an explicit dim")
        d = dim if dim is not None else arr.shape[1]
        return np.empty((0, d, d))
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError(f"expected n square matrices, got shape {arr.shape}")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"matrices are {arr.shape[1]}x{arr.shape[1]}, expected {dim}")
    return arr


def matrix_product(samples, eta: float, dim: int | None = None) -> np.ndarray:
    """Ordered product (I + eta*A_n) ... (I + eta*A_1); empty input gives I.

    The left-most factor belongs to the latest sample, matching how the
    streaming update composes. ``dim`` is only needed when ``samples`` is
    empty and its dimension cannot be inferred.
    """
    arr = _as_matrix_stack(samples, dim)
    d = arr.shape[1]
    out = np.eye(d)
    for a in arr:
        out = out + eta * (a @ out)
    return out


def hoeffding_term(samples, sigma: np.ndarray, eta: float, k: int) -> np.ndarray:
    """Order-k term of the expansion of the product, by subset enumeration.

    Parameters
    ----------
    samples : n square matrices
        The A_1 ... A_n factors, in stream order.
    sigma : (d, d) array
        Centering matrix (the population second moment).
    eta : float
        Step size.
    k : int
        Number of centered factors; 0 <= k <= n.

    Notes
    -----
    Enumerates all C(n, k) subsets, so n is capped at ``ENUMERATION_CAP``.
    The k=0 term is (I + eta*Sigma)^n exactly.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    arr = _as_matrix_stack(samples, sigma.shape[0])
    n, d = arr.shape[0], arr.shape[1]
    if n > ENUMERATION_CAP:
        raise ValueError(f"subset enumeration capped at n <= {ENUMERATION_CAP} (got n={n})")
    if not 0 <= k <= n:
        raise ValueError(f"order k={k} out of range [0, {n}]")

    plain = np.eye(d) + eta * sigma
    powers = [np.eye(d)]
    for _ in range(n):
        powers.append(plain @ powers[-1])
    centered = [eta * (a - sigma) for a in arr]

    if k == 0:
        return powers[n]
    total = np.zeros((d, d))
    for subset in combinations(range(1, n + 1), k):
        # Build P^(n-i_k) D_{i_k} P^(gap) ... D_{i_1} P^(i_1 - 1) left to right.
        prod = powers[n - subset[-1]]
        prev = subset[-1]
        for pos in reversed(subset[:-1]):
            prod = prod @ centered[prev - 1] @ powers[prev - pos - 1]
            prev = pos
        prod = prod @ centered[prev - 1] @ powers[prev - 1]
        total += prod
    return total


def _sign(x: float) -> float:
    # sign(0) := +1 for determinism.
    return -1.0 if x < 0.0 else 1.0


def hajek_projection(samples, sigma: np.ndarray, eigen: EigenSystem, eta: float, u0: np.ndarray) -> np.ndarray:
    """Leading fluctuation term as an explicit sum of independent vectors.

    Evaluates eta * sum_j X_j with

        X_j = sign(v1 . u0)/(1 + eta*l1) * Vp L^(n-j) Vp^T (A_j - Sigma) v1,

    where L is diagonal with entries (1 + eta*l_{i+1})/(1 + eta*l1). This is
    the closed form of the order-1 expansion term projected away from the
    leading direction and rescaled by (1 + eta*l1)^n.
    """
    eigen.require_gap()
    sigma = np.asarray(sigma, dtype=np.float64)
    arr = _as_matrix_stack(samples, sigma.shape[0])
    n = arr.shape[0]
    u0 = _check_unit(u0, "u0")
    v1 = eigen.leading
    vp = eigen.tail_basis
    if n == 0:
        return np.zeros(sigma.shape[0])
    g = (arr @ v1 - sigma @ v1) @ vp            # rows: Vp^T (A_j - Sigma) v1
    return _sign(float(v1 @ u0)) * order1_contraction(eigen, eta, n)(g)


def order1_contraction(eigen: EigenSystem, eta: float, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Map rows g_j = Vp^T (A_j - Sigma) v1, j = 1..n, to the unsigned order-1 term.

    The (n, d-1) table of the weights L^(n-j) of :func:`hajek_projection` is
    built once, so every trial of length n shares it.
    """
    lam = eigen.eigenvalues
    ratios = (1.0 + eta * lam[1:]) / (1.0 + eta * lam[0])
    weights = ratios ** np.arange(n - 1, -1, -1.0)[:, None]   # sample j=1 carries power n-1
    scale = eta / (1.0 + eta * lam[0])
    return lambda g: scale * (eigen.tail_basis @ np.einsum("ik,ik->k", weights, g))


@dataclass(frozen=True)
class DecompositionReport:
    """Exact values of the expansion terms and residual pieces on one instance.

    ``terms`` holds T_{n,0} ... T_{n,n} when enumeration was feasible, else
    None. The residual pieces satisfy, up to roundoff,

        v_est - (vtilde . v_est) vtilde = e0 + e1 + e2 + e3 + e4.
    """

    n: int
    d: int
    eta: float
    b_matrix: np.ndarray
    terms: list[np.ndarray] | None
    e0: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    e4: np.ndarray
    v_est: np.ndarray
    vtilde: np.ndarray
    u0: np.ndarray
    sigma: np.ndarray

    def residual_sum(self) -> np.ndarray:
        return self.e0 + self.e1 + self.e2 + self.e3 + self.e4

    def residual_target(self) -> np.ndarray:
        return self.v_est - float(self.vtilde @ self.v_est) * self.vtilde

    def validate(self) -> None:
        """Assert the two exact identities the report is built on, each to ``IDENTITY_TOL``."""
        if self.terms is not None:
            err = np.linalg.norm(self.b_matrix - sum(self.terms), "fro")
            rel = err / np.linalg.norm(self.b_matrix, "fro")
            if rel > IDENTITY_TOL:
                raise AssertionError(f"term expansion misses the product: rel err {rel:.3e}")
        gap = float(np.linalg.norm(self.residual_target() - self.residual_sum()))
        if gap > IDENTITY_TOL:
            raise AssertionError(f"residual pieces do not sum to the residual: {gap:.3e}")


def residual_decomposition(
    samples,
    sigma: np.ndarray,
    eigen: EigenSystem,
    eta: float,
    u0: np.ndarray,
    vtilde: np.ndarray,
    include_terms: bool | None = None,
    exact_e2: bool = False,
) -> DecompositionReport:
    """Exact five-piece split of the residual of the normalized product.

    The pieces are: recentering against the proxy vector (e0), the leading
    fluctuation term (e1), higher-order expansion terms (e2), the
    normalization mismatch (e3), and leakage of the off-axis part of the
    initial vector (e4).

    By default e2 is obtained by recentering the full product against its
    expectation (I + eta*Sigma)^n and subtracting e1, which stays exact for
    any n. With ``exact_e2=True`` (n <= ENUMERATION_CAP) it is instead summed
    from the enumerated order >= 2 terms as a cross-check.
    """
    eigen.require_gap()
    sigma = np.asarray(sigma, dtype=np.float64)
    arr = _as_matrix_stack(samples, sigma.shape[0])
    n, d = arr.shape[0], arr.shape[1]
    u0 = _check_unit(u0, "u0")
    vtilde = _check_unit(vtilde, "vtilde")
    v1 = eigen.leading
    vp = eigen.tail_basis
    lam1 = float(eigen.eigenvalues[0])

    align = float(v1 @ u0)
    if align == 0.0:
        raise ValueError("u0 is exactly orthogonal to the leading eigenvector")
    sgn = _sign(align)
    denom = (1.0 + eta * lam1) ** n
    if not math.isfinite(denom):
        raise ValueError(f"(1 + eta*lambda_1)^n overflowed at n={n}")
    c_n = abs(align) * denom

    b = matrix_product(arr, eta)
    b_u0 = b @ u0
    norm_bu0 = float(np.linalg.norm(b_u0))
    v_est = b_u0 / norm_bu0

    e0 = float(v1 @ v_est) * v1 - float(vtilde @ v_est) * vtilde
    e1 = hajek_projection(arr, sigma, eigen, eta, u0)

    if exact_e2:
        if n > ENUMERATION_CAP:
            raise ValueError(f"exact_e2 needs n <= {ENUMERATION_CAP} (got n={n})")
        higher = sum(hoeffding_term(arr, sigma, eta, k) for k in range(2, n + 1))
        higher = higher if n >= 2 else np.zeros((d, d))
        e2 = (sgn / denom) * (vp @ (vp.T @ (higher @ v1)))
    else:
        expected_v1 = (1.0 + eta * eigen.eigenvalues) ** n * (eigen.eigenvectors.T @ v1)
        centered_v1 = b @ v1 - eigen.eigenvectors @ expected_v1
        e2 = (sgn / denom) * (vp @ (vp.T @ centered_v1)) - e1

    e3 = (vp @ (vp.T @ b_u0)) * (1.0 / norm_bu0 - 1.0 / c_n)
    u0_off = vp @ (vp.T @ u0)
    e4 = (vp @ (vp.T @ (b @ u0_off))) / c_n

    terms: list[np.ndarray] | None = None
    if include_terms is None:
        include_terms = n <= ENUMERATION_CAP
    if include_terms:
        terms = [hoeffding_term(arr, sigma, eta, k) for k in range(n + 1)]

    return DecompositionReport(
        n=n, d=d, eta=float(eta), b_matrix=b, terms=terms,
        e0=e0, e1=e1, e2=e2, e3=e3, e4=e4,
        v_est=v_est, vtilde=vtilde, u0=u0, sigma=sigma,
    )

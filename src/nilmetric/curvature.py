"""Ricci operator, scalar curvature, moment map, invariant Ricci operator
and the normalized curvature functional on brackets.

All curvature formulas are evaluated in a G-orthonormal frame obtained by
Cholesky transport and conjugated back, so operators returned in the
original frame are G-self-adjoint rather than plain-symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra_core import Metric, _transported, as_tensor
from .errors import ZeroTensor
from .structures import Structure, invariant_projection, with_defaults


def _frame_ricci(T0: np.ndarray) -> np.ndarray:
    """Ricci operator of a structure tensor at the identity metric."""
    n = T0.shape[0]
    flat_first = T0.reshape(n, n * n)                     # pij,qij->pq
    M1 = flat_first @ flat_first.T
    flat_last = T0.reshape(n * n, n)                      # ijp,ijq->pq
    M2 = flat_last.T @ flat_last
    return -0.5 * M1 + 0.25 * M2


def ricci_operator(mu, G: Metric = None) -> np.ndarray:
    """Ricci operator of (mu, G); G-self-adjoint, symmetric when G = I."""
    tensor = as_tensor(mu)
    if G is None:
        G = Metric.identity(tensor.dim)
    mu0, h, hinv = _transported(tensor, G)
    R0 = _frame_ricci(mu0.full())
    if G.is_identity():
        return R0
    return hinv @ R0 @ h


def scalar_curvature(mu, G: Metric = None) -> float:
    """Scalar curvature; equals -1/4 |mu|^2 exactly at the identity metric."""
    tensor = as_tensor(mu)
    if G is None or G.is_identity():
        return -0.25 * tensor.norm2()
    mu0, _, _ = _transported(tensor, G)
    return -0.25 * mu0.norm2()


def moment_map(mu) -> np.ndarray:
    """Moment map value m(mu) at the identity metric; equals 8 * Ric."""
    T = as_tensor(mu).full()
    M1 = np.einsum("pij,qij->pq", T, T, optimize=True)
    M2 = np.einsum("ijp,ijq->pq", T, T, optimize=True)
    return -4.0 * M1 + 2.0 * M2


def invariant_ricci(mu, G: Metric, gamma: Structure,
                    method: str = "closed",
                    allow_scale: bool = False,
                    check_cone: bool = True) -> np.ndarray:
    """Projection of the Ricci operator onto the symmetric structure algebra.

    Equals the Ricci operator itself for NoStructure.  allow_scale admits
    symplectic metrics compatible only up to a positive factor; check_cone
    controls the symplectic cone assertion (see invariant_projection).
    """
    ric = ricci_operator(mu, G)
    if gamma.tag == "none":
        return ric
    return invariant_projection(gamma, G, ric, method=method,
                                allow_scale=allow_scale, check_cone=check_cone)


def F_of_ricci(ric_gamma: np.ndarray, norm2: float) -> float:
    """F = tr((Ric^gamma)^2) / |mu|^4 from Ric^gamma and |mu|^2; 0 when
    |mu|^2 = 0."""
    if norm2 == 0.0:
        return 0.0
    return float(np.trace(ric_gamma @ ric_gamma)) / norm2**2


def functional_F(mu, gamma: Structure = None, G: Metric = None,
                 allow_scale: bool = False) -> float:
    """Normalized squared size of the invariant Ricci operator,
    tr((Ric^gamma)^2) / |mu|^4; scale-invariant in mu.

    Evaluated at the identity metric by default; a metric argument
    evaluates the same quantity for the transported bracket.
    """
    tensor, G, gamma = with_defaults(mu, G, gamma)
    mu0, _, _ = _transported(tensor, G)
    norm2 = mu0.norm2()
    if norm2 == 0.0:
        raise ZeroTensor("the functional is undefined at mu = 0")
    ric_gamma = invariant_ricci(tensor, G, gamma, allow_scale=allow_scale)
    return F_of_ricci(ric_gamma, norm2)


@dataclass(frozen=True)
class CurvatureReport:
    ric: np.ndarray
    scal: float
    ric_gamma: np.ndarray
    moment: np.ndarray
    F_value: float
    eigen_ric: list
    eigen_ric_gamma: list


def curvature_report(mu, G: Metric = None, gamma: Structure = None,
                     allow_scale: bool = False) -> CurvatureReport:
    """All curvature invariants of (mu, G, gamma) in one immutable record.

    Spectra are those of the transported (symmetric) operators, sorted
    ascending.  The moment field is always the identity-metric moment map
    of the raw tensor.  F_value is 0 for the zero tensor.
    """
    tensor, G, gamma = with_defaults(mu, G, gamma)
    mu0, h, hinv = _transported(tensor, G)
    ric = ricci_operator(tensor, G)
    ric_gamma = invariant_ricci(tensor, G, gamma, allow_scale=allow_scale)
    norm2 = mu0.norm2()
    eigen_ric = np.linalg.eigvalsh(h @ ric @ hinv)
    eigen_ric_gamma = np.linalg.eigvalsh(h @ ric_gamma @ hinv)
    return CurvatureReport(
        ric=ric,
        scal=-0.25 * norm2,
        ric_gamma=ric_gamma,
        moment=moment_map(tensor),
        F_value=F_of_ricci(ric_gamma, norm2),
        eigen_ric=[float(x) for x in eigen_ric],
        eigen_ric_gamma=[float(x) for x in eigen_ric_gamma],
    )

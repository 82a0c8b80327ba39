"""Ricci operator, scalar curvature, moment map, invariant Ricci operator
and the normalized curvature functional on brackets.

All curvature comes from one kernel, ``frame_curvature``: given a bracket
and the structure payload in an orthonormal frame, it returns the
symmetric Ric and Ric^gamma with |mu|^2.  Each entry point for a metric G
(the identity by default) starts with ``_frame_data``, which transports
the bracket once into the G-orthonormal frame and calls the kernel; an
operator is conjugated back at most once, so operators in the original
frame are G-self-adjoint rather than plain-symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra_core import Metric, SkewTensor, _from_frame, act, as_tensor
from .errors import DimensionMismatch, ZeroTensor
from .structures import (
    Structure,
    _frame_projection,
    _transported_payload,
    with_defaults,
)


def _ricci_form(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The bilinear form behind Ric = _ricci_form(T, T) on full (n, n, n)
    arrays, -1/2 A[p,i,j] B[q,i,j] + 1/4 A[i,j,p] B[i,j,q]; leading axes of
    A are a batch, so Ric's derivative along dT is the symmetric part of
    2 _ricci_form(dT, T)."""
    n = B.shape[-1]
    first = A.reshape(A.shape[:-3] + (n, n * n))          # pij,qij->pq
    last = A.reshape(A.shape[:-3] + (n * n, n))           # ijp,ijq->pq
    return (-0.5 * (first @ B.reshape(n, n * n).T)
            + 0.25 * (last.swapaxes(-1, -2) @ B.reshape(n * n, n)))


def frame_curvature(mu0: SkewTensor, gamma: Structure, payload0) -> tuple:
    """(Ric, Ric^gamma, |mu|^2) of a bracket in an orthonormal frame, with
    payload0 the structure's maps in that frame (_transported_payload).

    Both operators are symmetric; Ric^gamma is the orthogonal projection of
    Ric onto the symmetric structure algebra, Ric itself for NoStructure.
    """
    n = mu0.dim
    if gamma.dim != n:
        raise DimensionMismatch(f"structure dim {gamma.dim} vs tensor dim {n}")
    T0 = mu0.full()
    ric = _ricci_form(T0, T0)
    ric = 0.5 * (ric + ric.T)
    ric_gamma = _frame_projection(gamma, payload0, ric)
    return ric, 0.5 * (ric_gamma + ric_gamma.T), mu0.norm2()


def _frame_data(mu, G: Metric = None, gamma: Structure = None,
                allow_scale: bool = False) -> tuple:
    """(G, mu0, Ric, Ric^gamma, |mu|^2) in the G-orthonormal frame, with the
    identity metric and no structure as defaults: every entry point's
    prologue."""
    tensor, G, gamma = with_defaults(mu, G, gamma)
    mu0 = act(G.transport, tensor)
    return (G, mu0) + frame_curvature(
        mu0, gamma, _transported_payload(gamma, G, allow_scale))


def ricci_operator(mu, G: Metric = None) -> np.ndarray:
    """Ricci operator of (mu, G); G-self-adjoint, symmetric when G = I."""
    G, _, ric, _, _ = _frame_data(mu, G)
    return _from_frame(ric, G)


def scalar_curvature(mu, G: Metric = None) -> float:
    """Scalar curvature, -1/4 |mu|^2 in the G-orthonormal frame."""
    tensor = as_tensor(mu)
    return -0.25 * (tensor if G is None else act(G.transport, tensor)).norm2()


def moment_map(mu) -> np.ndarray:
    """Moment map value m(mu) at the identity metric: 8 Ric, from the
    kernel's Ricci form (the identity m = 8 Ric)."""
    T = as_tensor(mu).full()
    ric = _ricci_form(T, T)
    return 4.0 * (ric + ric.T)


def invariant_ricci(mu, G: Metric = None, gamma: Structure = None,
                    allow_scale: bool = False) -> np.ndarray:
    """Projection of the Ricci operator onto the symmetric structure algebra.

    Equals the Ricci operator itself for NoStructure.  allow_scale admits
    symplectic metrics compatible only up to a positive factor (see
    invariant_projection).
    """
    G, _, _, ric_gamma, _ = _frame_data(mu, G, gamma, allow_scale)
    return _from_frame(ric_gamma, G)


def F_of_ricci(ric_gamma: np.ndarray, norm2: float) -> float:
    """F = tr((Ric^gamma)^2) / |mu|^4 from Ric^gamma and |mu|^2; 0 when
    |mu|^2 = 0."""
    if norm2 == 0.0:
        return 0.0
    return float(np.trace(ric_gamma @ ric_gamma)) / norm2**2


def soliton_split(ric_gamma: np.ndarray, norm2: float) -> tuple:
    """(c, D) with the frame's symmetric Ric^gamma = c I + D, c =
    tr((Ric^gamma)^2) / scal (0 when scal = -|mu|^2 / 4 is 0): the
    certificate's split, whose D is the normalized flow's velocity and
    delta_mu(D) the descent's direction."""
    scal = -0.25 * norm2
    c = 0.0 if scal == 0.0 else float(np.vdot(ric_gamma, ric_gamma)) / scal
    return c, ric_gamma - c * np.eye(len(ric_gamma))


def functional_F(mu, gamma: Structure = None, G: Metric = None,
                 allow_scale: bool = False) -> float:
    """Normalized squared size of the invariant Ricci operator,
    tr((Ric^gamma)^2) / |mu|^4; scale-invariant in mu.

    Evaluated at the identity metric by default; a metric argument
    evaluates the same quantity for the transported bracket.
    """
    _, _, _, ric_gamma, norm2 = _frame_data(mu, G, gamma, allow_scale)
    if norm2 == 0.0:
        raise ZeroTensor("the functional is undefined at mu = 0")
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
    G, _, ric0, ric_gamma0, norm2 = _frame_data(mu, G, gamma, allow_scale)
    return CurvatureReport(
        ric=_from_frame(ric0, G),
        scal=-0.25 * norm2,
        ric_gamma=_from_frame(ric_gamma0, G),
        moment=moment_map(mu),
        F_value=F_of_ricci(ric_gamma0, norm2),
        eigen_ric=[float(x) for x in np.linalg.eigvalsh(ric0)],
        eigen_ric_gamma=[float(x) for x in np.linalg.eigvalsh(ric_gamma0)],
    )

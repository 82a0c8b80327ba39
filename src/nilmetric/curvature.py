"""Ricci operator, scalar curvature, moment map, invariant Ricci operator,
the normalized curvature functional and the certificate's split on brackets.

All come from one kernel, ``frame_kernel``: from a bracket's pair rows in an
orthonormal frame and the structure's projector matrix P there (the one
definition of the projection, structures._frame_projector) it returns the
symmetric Ric and Ric^gamma, |mu|^2, the split Ric^gamma = c I + D and
delta_mu(D).  The flow's field (whose bracket velocity is s/2 delta_mu(D)),
its samples, the descent's moves and the certificate all call it.  Each
entry point for a metric G (the identity by default) starts with
``_frame_data``, which builds P for G, transports the bracket once into the
G-orthonormal frame and calls the kernel; an operator is conjugated back at
most once, so operators in the original frame are G-self-adjoint rather
than plain-symmetric.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .algebra_core import (Metric, _flat_pair_index, _from_frame, _identity,
                           _pair_scatter, act, as_tensor)
from .errors import ZeroTensor
from .structures import Structure, _frame_projector, with_defaults


def _ricci_form(Ca: np.ndarray, Fa: np.ndarray, Cb: np.ndarray,
                Fb: np.ndarray) -> np.ndarray:
    """The bilinear form behind Ric = _ricci_form(C, F, C, F) on pair rows C
    and full arrays F read as (n, n^2), 0.5 (Ca^T Cb - Fa Fb^T); leading axes
    of Ca and Fa are a batch, folded into the rows of 2-D products (ndarray.dot
    skips matmul's ufunc dispatch).  With a = b numpy forms both products by
    the symmetric rank-k update, so Ric is exactly symmetric."""
    n = Cb.shape[-1]
    ric = (Ca.swapaxes(-1, -2).reshape(-1, len(Cb)).dot(Cb)
           - Fa.reshape(-1, n * n).dot(Fb.reshape(n, n * n).T))
    return 0.5 * ric.reshape(Ca.shape[:-2] + (n, n))


# a bracket's curvature and split in an orthonormal frame, defect the pair
# rows of delta_mu(D)
FramePoint = namedtuple("FramePoint", "ric ric_gamma norm2 c D defect")


def frame_kernel(C: np.ndarray, P: np.ndarray) -> FramePoint:
    """The curvature and certificate of the bracket with pair rows C in an
    orthonormal frame, P the frame's _frame_projector, from one full array
    F = S C (S = _pair_scatter(n)) read as (n, n^2).

    Ric = 0.5 (C^T C - F F^T) and Ric^gamma = P vec(Ric), its upper triangle
    mirrored, are both exactly symmetric.  The certificate's split has
    c = |Ric^gamma|^2 / scal (0 when scal = -|mu|^2 / 4 is 0) and
    D = Ric^gamma - c I; as D is symmetric, delta_mu(D) = C D - S^T (D F).
    """
    n = C.shape[-1]
    S = _pair_scatter(n)
    F = S.dot(C).reshape(n, n * n)
    ric = 0.5 * (C.T.dot(C) - F.dot(F.T))  # _ricci_form unrolled: 10% faster
    ric_gamma = P.dot(ric.ravel())
    ij, ji = _flat_pair_index(n)
    ric_gamma[ji] = ric_gamma[ij]
    ric_gamma = ric_gamma.reshape(n, n)
    norm2 = 2.0 * float(np.vdot(C, C))
    scal = -0.25 * norm2
    c = 0.0 if scal == 0.0 else float(np.vdot(ric_gamma, ric_gamma)) / scal
    D = ric_gamma - c * _identity(n)
    defect = C.dot(D) - S.T.dot(D.dot(F).reshape(n * n, n))
    return FramePoint(ric, ric_gamma, norm2, c, D, defect)


def certificate_residual(point: FramePoint) -> float:
    """|delta_mu(D)| / ((1 + |D|) |mu|) of a kernel point; 0 when mu = 0."""
    if point.norm2 == 0.0:
        return 0.0
    nd = np.sqrt(2.0 * float(np.vdot(point.defect, point.defect)))
    return float(nd / ((1.0 + np.linalg.norm(point.D)) * np.sqrt(point.norm2)))


def _frame_data(mu, G: Metric = None, gamma: Structure = None) -> tuple:
    """(G, frame_kernel of the bracket in the G-orthonormal frame), with the
    identity metric and no structure as defaults: every entry point's
    prologue."""
    tensor, G, gamma = with_defaults(mu, G, gamma)
    P = _frame_projector(gamma, G)
    return G, frame_kernel(act(G.transport, tensor).coeffs, P)


def ricci_operator(mu, G: Metric = None) -> np.ndarray:
    """Ricci operator of (mu, G); G-self-adjoint, symmetric when G = I."""
    G, point = _frame_data(mu, G)
    return _from_frame(point.ric, G)


def scalar_curvature(mu, G: Metric = None) -> float:
    """Scalar curvature, -1/4 |mu|^2 in the G-orthonormal frame."""
    tensor = as_tensor(mu)
    return -0.25 * (tensor if G is None else act(G.transport, tensor)).norm2()


def moment_map(mu) -> np.ndarray:
    """Moment map value m(mu) at the identity metric: 8 Ric, from the
    kernel's Ricci form (the identity m = 8 Ric)."""
    T = as_tensor(mu)
    return 8.0 * _ricci_form(T.coeffs, T.full(), T.coeffs, T.full())


def invariant_ricci(mu, G: Metric = None, gamma: Structure = None) -> np.ndarray:
    """Projection of the Ricci operator onto the symmetric structure algebra.

    Equals the Ricci operator itself for NoStructure.  G may be compatible
    with a symplectic form up to a positive factor (see invariant_projection).
    """
    G, point = _frame_data(mu, G, gamma)
    return _from_frame(point.ric_gamma, G)


def F_of_point(point: FramePoint) -> float:
    """F = |Ric^gamma|^2 / |mu|^4 = -c / (4 |mu|^2) of a kernel point; 0
    when mu = 0."""
    return 0.0 if point.norm2 == 0.0 else -0.25 * point.c / point.norm2


def functional_F(mu, gamma: Structure = None, G: Metric = None) -> float:
    """Normalized squared size of the invariant Ricci operator,
    tr((Ric^gamma)^2) / |mu|^4; scale-invariant in mu.

    Evaluated at the identity metric by default; a metric argument
    evaluates the same quantity for the transported bracket.
    """
    point = _frame_data(mu, G, gamma)[1]
    if point.norm2 == 0.0:
        raise ZeroTensor("the functional is undefined at mu = 0")
    return F_of_point(point)


@dataclass(frozen=True)
class CurvatureReport:
    ric: np.ndarray
    scal: float
    ric_gamma: np.ndarray
    moment: np.ndarray
    F_value: float
    eigen_ric: list
    eigen_ric_gamma: list


def curvature_report(mu, G: Metric = None, gamma: Structure = None) -> CurvatureReport:
    """All curvature invariants of (mu, G, gamma) in one immutable record.

    Spectra are those of the transported (symmetric) operators, sorted
    ascending.  The moment field is always the identity-metric moment map
    of the raw tensor.  F_value is 0 for the zero tensor.
    """
    G, point = _frame_data(mu, G, gamma)
    return CurvatureReport(
        ric=_from_frame(point.ric, G),
        scal=-0.25 * point.norm2,
        ric_gamma=_from_frame(point.ric_gamma, G),
        moment=moment_map(mu),
        F_value=F_of_point(point),
        eigen_ric=[float(x) for x in np.linalg.eigvalsh(point.ric)],
        eigen_ric_gamma=[float(x) for x in np.linalg.eigvalsh(point.ric_gamma)],
    )

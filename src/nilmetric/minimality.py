"""Algebraic certification of minimal (soliton-compatible) metrics, the
non-hermitian-Ricci obstruction for symplectic structures, and spectral
fingerprints for telling structures apart.

The certificate tests, at a given metric, whether the invariant Ricci
operator splits as c I + D with D a derivation of the bracket.  The test
is algebraic: c is forced by traces, D is the remainder, and the residual
is the norm of the coboundary of D.  A failed test at one metric proves
nothing about other compatible metrics, so the negative verdict is
NotCertified, never "NotMinimal".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra_core import (Bracket, Metric, SkewTensor, _from_frame,
                           as_tensor, coboundary)
from .curvature import _frame_data, curvature_report, soliton_split
from .defaults import TOL_DISTINGUISH, certification_tolerance
from .errors import DimensionMismatch, NotClosed, WrongTag
from .structures import (
    SYMPLECTIC,
    Structure,
    integrability_accepted,
    integrability_residual,
)

MINIMAL = "Minimal"
NOT_CERTIFIED = "NotCertified"
OBSTRUCTED = "Obstructed"
ABELIAN = "Abelian"

DISTINCT = "Distinct"
INDISTINGUISHABLE = "Indistinguishable"


@dataclass(frozen=True)
class Certificate:
    c: float
    D: np.ndarray
    residual: float
    verdict: str
    tolerance: float

    @property
    def minimal(self) -> bool:
        return self.verdict == MINIMAL


def frame_certificate(mu0: SkewTensor, ric_gamma0: np.ndarray,
                      norm2: float) -> tuple:
    """(c, D0, residual, delta_mu0(D0)) of the certificate for mu0 in an
    orthonormal frame, from its Ric^gamma and |mu|^2 (frame_curvature).
    The residual is |delta_mu0(D0)| / ((1 + |D0|) |mu0|), 0 when mu0 = 0."""
    c, D0 = soliton_split(ric_gamma0, norm2)
    defect = coboundary(mu0, D0)
    norm = mu0.norm()
    residual = (0.0 if norm == 0.0 else
                float(defect.norm() / ((1.0 + float(np.linalg.norm(D0))) * norm)))
    return c, D0, residual, defect


def certify_minimal(mu, G: Metric = None, gamma: Structure = None,
                    tol: float = None) -> Certificate:
    """Test whether the invariant Ricci operator equals c I + (derivation).

    Returns a Certificate whose verdict is Minimal iff the relative
    coboundary residual of D = Ric^gamma - c I is within tolerance.  The
    tolerance defaults to the package certification default, overridable
    per call or through the NILMETRIC_TOL environment variable.  D is
    returned in the original frame.
    """
    if tol is None:  # read first: a bad NILMETRIC_TOL is reported first
        tol = certification_tolerance()
    G, mu0, _, ric_gamma0, norm2 = _frame_data(mu, G, gamma)
    c, D0, residual, _ = frame_certificate(mu0, ric_gamma0, norm2)
    verdict = MINIMAL if residual <= tol else NOT_CERTIFIED
    return Certificate(c=c, D=_from_frame(D0, G), residual=residual,
                       verdict=verdict, tolerance=float(tol))


@dataclass(frozen=True)
class ObstructionReport:
    status: str
    obstruction_norm: float


def hermitian_obstruction(mu, G: Metric = None,
                          gamma: Structure = None) -> ObstructionReport:
    """Size of the part of the Ricci operator anticommuting with the map
    of a closed symplectic structure (its projection onto the structure
    algebra).  It is positive whenever the bracket is nonzero, so no
    compatible metric can have a hermitian (commuting) Ricci operator.

    Returns Abelian for the zero bracket, which passes the same dimension
    and compatibility checks as any other; raises NotClosed when the form
    is not closed for the bracket.
    """
    if gamma is None or gamma.tag != SYMPLECTIC:
        raise WrongTag("the obstruction is specific to symplectic structures")
    tensor = as_tensor(mu)
    closed = integrability_residual(gamma, tensor)
    if not integrability_accepted(closed, tensor):
        raise NotClosed(f"form is not closed (residual {closed:.3e})")
    _, _, _, ric_gamma0, _ = _frame_data(tensor, G, gamma)
    if tensor.norm2() == 0.0:
        return ObstructionReport(status=ABELIAN, obstruction_norm=0.0)
    return ObstructionReport(
        status=OBSTRUCTED,
        obstruction_norm=float(np.linalg.norm(ric_gamma0)),
    )


@dataclass(frozen=True)
class Fingerprint:
    dim: int
    eigen_ric: list
    eigen_ric_gamma: list
    scal: float
    lcs_dims: list


def fingerprint(mu, G: Metric = None, gamma: Structure = None) -> Fingerprint:
    """Spectral and series data of (mu, G, gamma), invariant under
    structure-preserving orthogonal basis changes."""
    if not isinstance(mu, Bracket):
        mu = Bracket(mu)
    report = curvature_report(mu, G, gamma)
    return Fingerprint(
        dim=mu.dim,
        eigen_ric=report.eigen_ric,
        eigen_ric_gamma=report.eigen_ric_gamma,
        scal=report.scal,
        lcs_dims=list(mu.lcs_dims),
    )


def distinguish(f1: Fingerprint, f2: Fingerprint,
                tol: float = TOL_DISTINGUISH) -> str:
    """Distinct if the series dimensions differ, or if any spectrum divided
    by |scal| differs beyond tol.

    Minimal metrics are unique up to isometry and scaling, so homothetic
    data are Indistinguishable; the zero bracket is Distinct from any other.
    Indistinguishable is NOT a proof that the underlying structures are
    equivalent; it only means this test cannot separate them.
    """
    if f1.dim != f2.dim:
        raise DimensionMismatch(f"fingerprint dims {f1.dim} vs {f2.dim}")
    if (list(f1.lcs_dims) != list(f2.lcs_dims)
            or (f1.scal == 0.0) != (f2.scal == 0.0)):
        return DISTINCT
    # the zero bracket has zero spectra, compared unscaled
    s1 = abs(f1.scal) or 1.0
    s2 = abs(f2.scal) or 1.0
    for a, b in ((f1.eigen_ric, f2.eigen_ric),
                 (f1.eigen_ric_gamma, f2.eigen_ric_gamma)):
        if len(a) != len(b):
            return DISTINCT
        if np.abs(np.asarray(a) / s1 - np.asarray(b) / s2).max() > tol:
            return DISTINCT
    return INDISTINGUISHABLE

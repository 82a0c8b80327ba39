"""Geometric structures on the underlying vector space: compatibility of
metrics, integrability residuals, the symmetric part of the structure
algebra, and invariant projections onto it.

A Structure is a tagged payload:

- ``none``: no constraint.
- ``symplectic``: a nondegenerate skew matrix ``omega`` with entries
  omega[i, j] = omega(X_i, X_j); under the identity metric this matrix is
  also the map J with omega(X, Y) = <X, J Y>.
- ``complex``: a map J with J^2 = -I.
- ``hypercomplex``: three maps (J1, J2, J3) obeying the quaternion
  identities J1 J2 = J3 = -J2 J1, Ji^2 = -I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra_core import (
    Metric,
    SkewTensor,
    _from_frame,
    as_tensor,
    combine,
    pair_index,
    svd_nullspace,
    sym_basis,
    skew_basis,
    triple_index,
)
from .defaults import TOL_COMPAT
from .errors import (
    DimensionMismatch,
    DimensionParity,
    IncompatibleMetric,
    InvalidStructure,
    SplitMismatch,
    WrongTag,
)

NO_STRUCTURE = "none"
SYMPLECTIC = "symplectic"
COMPLEX = "complex"
HYPERCOMPLEX = "hypercomplex"

TAGS = (NO_STRUCTURE, SYMPLECTIC, COMPLEX, HYPERCOMPLEX)


@dataclass(frozen=True)
class Structure:
    tag: str
    dim: int
    payload: object = None  # None | ndarray | (J1, J2, J3)

    def maps(self) -> tuple:
        """The complex-structure maps carried by the payload, if any."""
        if self.tag == COMPLEX:
            return (self.payload,)
        if self.tag == HYPERCOMPLEX:
            return tuple(self.payload)
        return ()


def no_structure(n: int) -> Structure:
    return Structure(NO_STRUCTURE, n)


def with_defaults(mu, G: Metric = None, gamma: Structure = None) -> tuple:
    """(tensor, G, gamma) for a Bracket or SkewTensor mu, with the identity
    metric and no structure as defaults."""
    tensor = as_tensor(mu)
    n = tensor.dim
    return (tensor, Metric.identity(n) if G is None else G,
            no_structure(n) if gamma is None else gamma)


def symplectic_structure(omega: np.ndarray) -> Structure:
    omega = np.asarray(omega, dtype=float)
    n = omega.shape[0]
    if omega.shape != (n, n):
        raise DimensionMismatch(f"form shape {omega.shape}")
    if n % 2:
        raise DimensionParity("symplectic structures need even dimension")
    if np.abs(omega + omega.T).max() > 1e-12 * (1 + np.abs(omega).max()):
        raise InvalidStructure("symplectic form must be antisymmetric")
    if abs(np.linalg.det(omega)) < 1e-12:
        raise InvalidStructure("symplectic form must be nondegenerate")
    return Structure(SYMPLECTIC, n, omega)


def complex_structure(J: np.ndarray) -> Structure:
    J = np.asarray(J, dtype=float)
    n = J.shape[0]
    if J.shape != (n, n):
        raise DimensionMismatch(f"map shape {J.shape}")
    if n % 2:
        raise DimensionParity("complex structures need even dimension")
    if np.abs(J @ J + np.eye(n)).max() > 1e-10:
        raise InvalidStructure("J^2 = -I fails")
    return Structure(COMPLEX, n, J)


def hypercomplex_structure(J1, J2, J3) -> Structure:
    J1, J2, J3 = (np.asarray(J, dtype=float) for J in (J1, J2, J3))
    n = J1.shape[0]
    for J in (J1, J2, J3):
        if J.shape != (n, n):
            raise DimensionMismatch("hypercomplex maps must share one shape")
    if n % 4:
        raise DimensionParity("hypercomplex structures need dimension divisible by 4")
    for J in (J1, J2, J3):
        if np.abs(J @ J + np.eye(n)).max() > 1e-10:
            raise InvalidStructure("Ji^2 = -I fails")
    if np.abs(J1 @ J2 - J3).max() > 1e-10 or np.abs(J2 @ J1 + J3).max() > 1e-10:
        raise InvalidStructure("quaternion identities fail")
    return Structure(HYPERCOMPLEX, n, (J1, J2, J3))


def metric_jmap(gamma: Structure, G: Metric) -> np.ndarray:
    """The map J_G = G^-1 omega defined by omega(X, Y) = <X, J_G Y>_G."""
    if gamma.tag != SYMPLECTIC:
        raise WrongTag("J_G is defined for symplectic structures")
    return np.linalg.solve(G.matrix, gamma.payload)


def compatibility_residual(gamma: Structure, G: Metric) -> float:
    """Deviation of G from the compatible cone of the structure; 0 iff inside."""
    if gamma.dim != G.dim:
        raise DimensionMismatch(f"structure dim {gamma.dim} vs metric dim {G.dim}")
    n = gamma.dim
    if gamma.tag == NO_STRUCTURE:
        return 0.0
    if gamma.tag == SYMPLECTIC:
        JG = metric_jmap(gamma, G)
        return float(np.linalg.norm(JG @ JG + np.eye(n)))
    if gamma.tag == COMPLEX:
        J = gamma.payload
        return float(np.linalg.norm(J.T @ G.matrix @ J - G.matrix))
    return max(
        float(np.linalg.norm(J.T @ G.matrix @ J - G.matrix)) for J in gamma.maps()
    )


def _closedness_rows(omega: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Cyclic-sum values omega(mu(Xi,Xj),Xk) + cyc over triples i<j<k."""
    B = T @ omega  # B[i,j,k] = omega(mu(Xi,Xj), Xk)
    i, j, k = triple_index(T.shape[0])
    return B[i, j, k] + B[j, k, i] + B[k, i, j]


def _nijenhuis_defect(J: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Defect tensor mu(J.,J.) - mu - J mu(J.,.) - J mu(.,J.), full array."""
    A1 = np.einsum("ai,bj,abk->ijk", J, J, T, optimize=True)
    B1 = np.einsum("km,ai,ajm->ijk", J, J, T, optimize=True)
    B2 = np.einsum("km,bj,ibm->ijk", J, J, T, optimize=True)
    return A1 - T - B1 - B2


def integrability_defect(gamma: Structure, mu: SkewTensor) -> np.ndarray:
    """Stacked integrability defect, linear in mu; empty for NoStructure."""
    if gamma.dim != mu.dim:
        raise DimensionMismatch(f"structure dim {gamma.dim} vs tensor dim {mu.dim}")
    T = mu.full()
    if gamma.tag == NO_STRUCTURE:
        return np.zeros(0)
    if gamma.tag == SYMPLECTIC:
        return _closedness_rows(gamma.payload, T)
    return np.concatenate([_nijenhuis_defect(J, T)[pair_index(mu.dim)].ravel()
                           for J in gamma.maps()])


def integrability_residual(gamma: Structure, mu: SkewTensor) -> float:
    """Norm of the integrability defect; 0 iff mu lies in the structure's
    integrable subspace (closedness for symplectic, vanishing Nijenhuis
    defect for complex and hypercomplex)."""
    if gamma.tag == HYPERCOMPLEX:
        return max(integrability_residual(Structure(COMPLEX, gamma.dim, J), mu)
                   for J in gamma.maps())
    return float(np.linalg.norm(integrability_defect(gamma, mu)))


def integrability_accepted(residual: float, mu: SkewTensor) -> bool:
    """The integrability acceptance test, residual <= TOL_COMPAT (1 + |mu|)."""
    return residual <= TOL_COMPAT * (1.0 + mu.norm())


def abelian_defect(gamma: Structure, mu: SkewTensor) -> np.ndarray:
    """Stacked values of mu(J., J.) - mu over the structure's maps."""
    if gamma.tag not in (COMPLEX, HYPERCOMPLEX):
        raise WrongTag("abelian condition needs a complex or hypercomplex structure")
    T = mu.full()
    pairs = pair_index(mu.dim)
    return np.concatenate([
        (np.einsum("ai,bj,abk->ijk", J, J, T, optimize=True) - T)[pairs].ravel()
        for J in gamma.maps()])


def abelian_residual(gamma: Structure, mu: SkewTensor) -> float:
    """V-norm deviation of mu from being abelian for the structure's maps.

    Each i < j pair counts twice, matching the tensor inner product.
    """
    if gamma.tag == HYPERCOMPLEX:
        return max(abelian_residual(Structure(COMPLEX, gamma.dim, J), mu)
                   for J in gamma.maps())
    return float(np.sqrt(2.0) * np.linalg.norm(abelian_defect(gamma, mu)))


def _transported_payload(gamma: Structure, G: Metric,
                         allow_scale: bool = False):
    """Structure payload in the G-orthonormal frame: h J h^-1 per complex
    map; for a symplectic form h J_G h^-1 = h^-T omega h^-1 divided by
    sqrt(kappa), kappa = -tr(J^2) / n.

    Raises IncompatibleMetric unless G is compatible: a symplectic G must
    lie in the conformal cone (J^2 = -kappa I to 1e-8 kappa, kappa > 0)
    and, unless allow_scale is set, have kappa = 1 to TOL_COMPAT.
    """
    if gamma.dim != G.dim:
        raise DimensionMismatch(f"structure dim {gamma.dim} vs metric dim {G.dim}")
    h = G.transport
    hinv = G.transport_inv
    if gamma.tag == SYMPLECTIC:
        J = hinv.T @ gamma.payload @ hinv
        J2 = J @ J
        kappa = -float(np.trace(J2)) / gamma.dim
        if kappa <= 0 or np.abs(J2 + kappa * np.eye(gamma.dim)).max() > 1e-8 * kappa:
            raise IncompatibleMetric("metric leaves the conformal compatible cone")
        if not allow_scale and abs(kappa - 1.0) > TOL_COMPAT:
            raise IncompatibleMetric(
                f"metric compatible only up to scale (kappa = {kappa:.6g})"
            )
        return J / np.sqrt(kappa)
    if compatibility_residual(gamma, G) > TOL_COMPAT:
        raise IncompatibleMetric("metric is not compatible with the structure")
    if gamma.tag == COMPLEX:
        return h @ gamma.payload @ hinv
    if gamma.tag == HYPERCOMPLEX:
        return tuple(h @ J @ hinv for J in gamma.maps())
    return None


def _frame_constraint_rows(gamma: Structure, payload0, B: np.ndarray) -> np.ndarray:
    """Constraint vector whose vanishing says B belongs to the structure
    algebra, in the orthonormal frame."""
    if gamma.tag == NO_STRUCTURE:
        return np.zeros(0)
    if gamma.tag == SYMPLECTIC:
        omega0 = payload0
        return (B.T @ omega0 + omega0 @ B).ravel()
    if gamma.tag == COMPLEX:
        J0 = payload0
        return (B @ J0 - J0 @ B).ravel()
    return np.concatenate([(B @ J0 - J0 @ B).ravel() for J0 in payload0])


@dataclass(frozen=True)
class StructureAlgebra:
    sym_basis: list
    skew_basis: list

    @property
    def skew_dim(self) -> int:
        return len(self.skew_basis)


def structure_algebra(gamma: Structure, G: Metric) -> StructureAlgebra:
    """Bases of the G-symmetric and G-skew parts of the structure algebra.

    Each is an orthonormal nullspace of the constraint rows in the
    G-orthonormal frame, conjugated back; raises IncompatibleMetric as
    _transported_payload does.
    """
    payload0 = _transported_payload(gamma, G)
    parts = []
    for part in (sym_basis(gamma.dim), skew_basis(gamma.dim)):
        rows = np.array(
            [_frame_constraint_rows(gamma, payload0, B) for B in part]
        ).T
        ns = svd_nullspace(rows)
        parts.append([_from_frame(A, G) for A in combine(ns.T, part)])
    return StructureAlgebra(*parts)


def structure_group_basis(gamma: Structure, G: Metric) -> list:
    """Full basis (symmetric plus skew parts) of the structure algebra,
    conjugated back to the G frame.  Used for orbit perturbations."""
    algebra = structure_algebra(gamma, G)
    return algebra.sym_basis + algebra.skew_basis


def _frame_projection(gamma: Structure, payload0, S0: np.ndarray) -> np.ndarray:
    """Closed-form orthogonal projection onto the symmetric structure
    algebra, in the orthonormal frame (symplectic payload: normalized J)."""
    if gamma.tag == NO_STRUCTURE:
        return S0
    if gamma.tag == SYMPLECTIC:
        J0 = payload0
        return 0.5 * (S0 + J0 @ S0 @ J0)
    if gamma.tag == COMPLEX:
        J0 = payload0
        return 0.5 * (S0 - J0 @ S0 @ J0)
    out = S0.copy()
    for J0 in payload0:
        out = out - J0 @ S0 @ J0
    return 0.25 * out


def invariant_projection(gamma: Structure, G: Metric, S: np.ndarray,
                         allow_scale: bool = False) -> np.ndarray:
    """Orthogonal projection of a G-symmetric map S onto the symmetric part
    of the structure algebra, in the trace inner product, by the reflection
    formulas (J = J_G for symplectic).  allow_scale admits symplectic
    metrics compatible only up to a positive factor (see
    _transported_payload).
    """
    S = np.asarray(S, dtype=float)
    n = gamma.dim
    if S.shape != (n, n):
        raise DimensionMismatch(f"operator shape {S.shape} vs dim {n}")
    payload0 = _transported_payload(gamma, G, allow_scale)
    S0 = G.transport @ S @ G.transport_inv
    P0 = _frame_projection(gamma, payload0, 0.5 * (S0 + S0.T))
    return _from_frame(0.5 * (P0 + P0.T), G)


def _grading_preserved(gamma: Structure, n1: int) -> bool:
    for J in gamma.maps():
        if np.abs(J[:n1, n1:]).max() > 1e-12 or np.abs(J[n1:, :n1]).max() > 1e-12:
            return False
    if gamma.tag == SYMPLECTIC:
        omega = gamma.payload
        if np.abs(omega[:n1, n1:]).max() > 1e-12 or np.abs(omega[n1:, :n1]).max() > 1e-12:
            return False
    return True


def graded_ambient_basis(n1: int, n2: int) -> list:
    """Basis of the graded bracket space Lambda^2(n1*) (x) n2 inside dim
    n1 + n2 tensors: pairs within the first block, values in the second."""
    n = n1 + n2
    _, ju = pair_index(n)
    graded = (ju[:, None] < n1) & (np.arange(n) >= n1)
    units = np.eye(graded.size)[graded.ravel()]
    return [SkewTensor(n, u.reshape(graded.shape)) for u in units]


def full_ambient_basis(n: int) -> list:
    """Coordinate basis of the full tensor space V."""
    m = pair_index(n)[0].size
    return [SkewTensor(n, u.reshape(m, n)) for u in np.eye(m * n)]


def integrable_subspace_dim(gamma: Structure, ambient: str = "full",
                            n1: int = None, n2: int = None,
                            abelian: bool = False) -> int:
    """Dimension of the integrable subspace inside the chosen ambient space.

    ambient "full" uses all of V; "two_step" uses the graded space of
    brackets from the first block into the second (the structure must
    preserve that splitting).  With abelian=True the abelian condition is
    intersected as well.
    """
    if ambient == "full":
        basis = full_ambient_basis(gamma.dim)
    elif ambient == "two_step":
        if n1 is None or n2 is None or n1 + n2 != gamma.dim:
            raise SplitMismatch("two_step ambient needs n1 + n2 = dim")
        if not _grading_preserved(gamma, n1):
            raise SplitMismatch("structure does not preserve the splitting")
        basis = graded_ambient_basis(n1, n2)
    else:
        raise ValueError(f"unknown ambient {ambient!r}")
    return integrable_nullspace(gamma, basis, abelian).shape[1]


def integrable_nullspace(gamma: Structure, basis: list,
                         abelian: bool = False) -> np.ndarray:
    """Orthonormal coefficient vectors (columns) of the combinations of the
    basis tensors that are integrable, and abelian too if abelian is set."""
    rows = []
    for b in basis:
        vec = integrability_defect(gamma, b)
        if abelian:
            vec = np.concatenate([vec, abelian_defect(gamma, b)])
        rows.append(vec)
    return svd_nullspace(np.array(rows).T)

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
    as_tensor,
    combine,
    ordered_pairs,
    svd_nullspace,
    sym_basis,
    skew_basis,
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


def normalized_jmap(J: np.ndarray, allow_scale: bool,
                    check_cone: bool = True) -> np.ndarray:
    """J / sqrt(kappa) with kappa = -tr(J^2) / n, for a symplectic map J_G
    in any frame; J^2 = -kappa I on the conformal compatible cone.

    Raises IncompatibleMetric when kappa <= 0, when check_cone is set and
    J^2 deviates from -kappa I beyond 1e-8 kappa, and when allow_scale is
    not set and kappa differs from 1 beyond TOL_COMPAT.
    """
    n = J.shape[0]
    J2 = J @ J
    kappa = -float(np.trace(J2)) / n
    if kappa <= 0:
        raise IncompatibleMetric("metric leaves the conformal compatible cone")
    if check_cone and np.abs(J2 + kappa * np.eye(n)).max() > 1e-8 * kappa:
        raise IncompatibleMetric("metric leaves the conformal compatible cone")
    if not allow_scale and abs(kappa - 1.0) > TOL_COMPAT:
        raise IncompatibleMetric(
            f"metric compatible only up to scale (kappa = {kappa:.6g})"
        )
    return J / np.sqrt(kappa)


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
    n = T.shape[0]
    B = T @ omega  # B[i,j,k] = omega(mu(Xi,Xj), Xk)
    vals = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                vals.append(B[i, j, k] + B[j, k, i] + B[k, i, j])
    return np.array(vals)


def _nijenhuis_defect(J: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Defect tensor mu(J.,J.) - mu - J mu(J.,.) - J mu(.,J.), full array."""
    A1 = np.einsum("ai,bj,abk->ijk", J, J, T, optimize=True)
    B1 = np.einsum("km,ai,ajm->ijk", J, J, T, optimize=True)
    B2 = np.einsum("km,bj,ibm->ijk", J, J, T, optimize=True)
    return A1 - T - B1 - B2


def _pair_rows(D: np.ndarray) -> np.ndarray:
    """Flatten a full antisymmetric defect array over i<j pairs."""
    n = D.shape[0]
    return np.concatenate([D[i, j] for i, j in ordered_pairs(n)])


def integrability_defect(gamma: Structure, mu: SkewTensor) -> np.ndarray:
    """Stacked integrability defect, linear in mu; empty for NoStructure."""
    if gamma.dim != mu.dim:
        raise DimensionMismatch(f"structure dim {gamma.dim} vs tensor dim {mu.dim}")
    T = mu.full()
    if gamma.tag == NO_STRUCTURE:
        return np.zeros(0)
    if gamma.tag == SYMPLECTIC:
        return _closedness_rows(gamma.payload, T)
    return np.concatenate([_pair_rows(_nijenhuis_defect(J, T)) for J in gamma.maps()])


def integrability_residual(gamma: Structure, mu: SkewTensor) -> float:
    """Norm of the integrability defect; 0 iff mu lies in the structure's
    integrable subspace (closedness for symplectic, vanishing Nijenhuis
    defect for complex and hypercomplex)."""
    if gamma.tag == HYPERCOMPLEX:
        T = mu.full()
        return max(
            float(np.linalg.norm(_pair_rows(_nijenhuis_defect(J, T))))
            for J in gamma.maps()
        )
    return float(np.linalg.norm(integrability_defect(gamma, mu)))


def abelian_defect(gamma: Structure, mu: SkewTensor) -> np.ndarray:
    """Stacked values of mu(J., J.) - mu over the structure's maps."""
    if gamma.tag not in (COMPLEX, HYPERCOMPLEX):
        raise WrongTag("abelian condition needs a complex or hypercomplex structure")
    T = mu.full()
    out = []
    for J in gamma.maps():
        D = np.einsum("ai,bj,abk->ijk", J, J, T, optimize=True) - T
        out.append(_pair_rows(D))
    return np.concatenate(out)


def abelian_residual(gamma: Structure, mu: SkewTensor) -> float:
    """V-norm deviation of mu from being abelian for the structure's maps.

    Each i < j pair counts twice, matching the tensor inner product.
    """
    if gamma.tag == HYPERCOMPLEX:
        T = mu.full()
        worst = 0.0
        for J in gamma.maps():
            D = np.einsum("ai,bj,abk->ijk", J, J, T, optimize=True) - T
            worst = max(worst, float(np.sqrt(2.0) * np.linalg.norm(_pair_rows(D))))
        return worst
    vec = abelian_defect(gamma, mu)
    return float(np.sqrt(2.0) * np.linalg.norm(vec))


def _transported_payload(gamma: Structure, G: Metric):
    """Structure payload rewritten in the G-orthonormal frame."""
    h = G.transport
    hinv = G.transport_inv
    if gamma.tag == SYMPLECTIC:
        return hinv.T @ gamma.payload @ hinv
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


def _frame_algebra_parts(gamma: Structure, payload0, n: int):
    """Symmetric and skew orthonormal bases of the structure algebra,
    expressed in the orthonormal frame."""
    parts = []
    for part in (sym_basis(n), skew_basis(n)):
        rows = np.array(
            [_frame_constraint_rows(gamma, payload0, B) for B in part]
        ).T
        ns = svd_nullspace(rows)
        parts.append(list(combine(ns.T, part)))
    return parts


def structure_algebra(gamma: Structure, G: Metric) -> StructureAlgebra:
    """Bases of the G-symmetric and G-skew parts of the structure algebra.

    For non-identity metrics they are computed in the Cholesky-transported
    frame and conjugated back.
    """
    if compatibility_residual(gamma, G) > TOL_COMPAT:
        raise IncompatibleMetric("metric is not compatible with the structure")
    payload0 = _transported_payload(gamma, G)
    sym_part, skew_part = _frame_algebra_parts(gamma, payload0, gamma.dim)
    hinv = G.transport_inv
    h = G.transport
    return StructureAlgebra(sym_basis=[hinv @ A @ h for A in sym_part],
                            skew_basis=[hinv @ A @ h for A in skew_part])


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
                         method: str = "closed",
                         allow_scale: bool = False,
                         check_cone: bool = True) -> np.ndarray:
    """Orthogonal projection of a G-symmetric map S onto the symmetric part
    of the structure algebra, in the trace inner product.

    method "closed" uses the reflection formulas (J = J_G for symplectic);
    "basis" expands against a computed orthonormal basis.  allow_scale
    admits symplectic metrics compatible only up to a positive factor,
    normalizing J_G before projecting (used by the metric flows, whose
    trajectories preserve the symplectic cone only up to scale).
    check_cone=False skips the symplectic cone-membership assertion and
    just kappa-normalizes J_G; integrators use this for their internal
    stage evaluations, which sit off the cone at second order in the step.
    """
    S = np.asarray(S, dtype=float)
    n = gamma.dim
    if S.shape != (n, n):
        raise DimensionMismatch(f"operator shape {S.shape} vs dim {n}")
    if gamma.tag != SYMPLECTIC and compatibility_residual(gamma, G) > TOL_COMPAT:
        raise IncompatibleMetric("metric is not compatible with the structure")
    h = G.transport
    hinv = G.transport_inv
    S0 = h @ S @ hinv
    S0 = 0.5 * (S0 + S0.T)
    if gamma.tag == SYMPLECTIC:
        payload0 = normalized_jmap(h @ metric_jmap(gamma, G) @ hinv,
                                   allow_scale, check_cone)
    else:
        payload0 = _transported_payload(gamma, G)
    if method == "closed":
        P0 = _frame_projection(gamma, payload0, S0)
    elif method == "basis":
        sym_part, _ = _frame_algebra_parts(gamma, payload0, n)
        P0 = combine([float(np.sum(S0 * B)) for B in sym_part], sym_part)
    else:
        raise ValueError(f"unknown projection method {method!r}")
    P0 = 0.5 * (P0 + P0.T)
    return hinv @ P0 @ h


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
    out = []
    for i in range(n1):
        for j in range(i + 1, n1):
            for k in range(n1, n):
                entries = [(i + 1, j + 1, k + 1, 1.0)]
                out.append(SkewTensor.from_entries(n, entries))
    return out


def full_ambient_basis(n: int) -> list:
    """Coordinate basis of the full tensor space V."""
    out = []
    for i, j in ordered_pairs(n):
        for k in range(n):
            out.append(SkewTensor.from_entries(n, [(i + 1, j + 1, k + 1, 1.0)]))
    return out


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
    rows = []
    for b in basis:
        vec = integrability_defect(gamma, b)
        if abelian:
            vec = np.concatenate([vec, abelian_defect(gamma, b)])
        rows.append(vec)
    M = np.array(rows).T
    if M.size == 0:
        return len(basis)
    return svd_nullspace(M).shape[1]

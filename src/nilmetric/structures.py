"""Geometric structures on the underlying vector space: compatibility of
metrics, integrability residuals, the structure algebra, and invariant
projections onto it.

A Structure is a tagged payload:

- ``none``: no constraint.
- ``symplectic``: a nondegenerate skew matrix ``omega`` with entries
  omega[i, j] = omega(X_i, X_j); under the identity metric this matrix is
  also the map J with omega(X, Y) = <X, J Y>.
- ``complex``: a map J with J^2 = -I.
- ``hypercomplex``: three maps (J1, J2, J3) obeying the quaternion
  identities J1 J2 = J3 = -J2 J1, Ji^2 = -I.

In the G-orthonormal frame every class is one tuple of maps J_k
(_frame_maps), and G is compatible iff J_k^T J_k = kappa I for each, with
kappa = tr(J_k^T J_k) / n: the scale is free, as sp(s omega) = sp(omega),
and a complex map forces kappa = 1.  Divided by sqrt(kappa), the maps give
the one projector onto the whole structure algebra, (X + sum_k s_k(X)) /
(1 + k) with the reflection s(X) = J X^T J for the symplectic map and
-J X J for each complex map: one (n^2, n^2) matrix P on vec(X) of any X,
built once per transport (_frame_projector), symmetric to symmetric and
skew to skew.  structure_algebra's bases span its image,
invariant_projection is P on symmetric maps, and Ric^gamma = P vec(Ric).
Integrability and the abelian test are one defect array per condition:
the closedness rows of a form, one array per complex map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra_core import (
    Metric,
    SkewTensor,
    _from_frame,
    _square_matrix,
    _to_frame,
    as_tensor,
    pair_index,
    svd_nullspace,
    sym_basis,
    skew_basis,
    triple_index,
)
from .defaults import TOL_COMPAT, TOL_NULL
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
    omega = _square_matrix(omega, "form")
    n = omega.shape[0]
    if n % 2:
        raise DimensionParity("symplectic structures need even dimension")
    if np.abs(omega + omega.T).max() > 1e-12 * (1 + np.abs(omega).max()):
        raise InvalidStructure("symplectic form must be antisymmetric")
    s = np.linalg.svd(omega, compute_uv=False)
    if s[-1] <= TOL_NULL * s[0]:
        raise InvalidStructure("symplectic form must be nondegenerate")
    return Structure(SYMPLECTIC, n, omega)


def complex_structure(J: np.ndarray) -> Structure:
    J = _square_matrix(J, "map")
    n = J.shape[0]
    if n % 2:
        raise DimensionParity("complex structures need even dimension")
    if np.abs(J @ J + np.eye(n)).max() > 1e-10:
        raise InvalidStructure("J^2 = -I fails")
    return Structure(COMPLEX, n, J)


def hypercomplex_structure(J1, J2, J3) -> Structure:
    J1, J2, J3 = (_square_matrix(J, "map") for J in (J1, J2, J3))
    n = J1.shape[0]
    if not J1.shape == J2.shape == J3.shape:
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


def _frame_maps(gamma: Structure, G: Metric) -> tuple:
    """(maps, residual): the structure's maps in the G-orthonormal frame
    (h^-T omega h^-1 for a form, h J h^-1 per complex map), each divided by
    sqrt(kappa), and the compatibility residual max_k |J_k^T J_k - kappa I|_max
    / kappa, with kappa = tr(J_k^T J_k) / n (1 for a compatible complex map)."""
    if gamma.dim != G.dim:
        raise DimensionMismatch(f"structure dim {gamma.dim} vs metric dim {G.dim}")
    n = gamma.dim
    hinv = G.transport_inv
    if gamma.tag == SYMPLECTIC:
        frame = (hinv.T @ gamma.payload @ hinv,)
    else:
        frame = tuple(_to_frame(J, G) for J in gamma.maps())
    maps, residuals = [], []
    for M in frame:
        MtM = M.T @ M
        kappa = np.trace(MtM) / n
        residuals.append(np.abs(MtM - kappa * np.eye(n)).max() / kappa)
        maps.append(M / np.sqrt(kappa))
    return tuple(maps), float(np.max(residuals, initial=0.0))


def compatibility_residual(gamma: Structure, G: Metric) -> float:
    """Relative deviation of G from the structure's compatible metrics,
    measured in the G-orthonormal frame (_frame_maps); 0 iff compatible."""
    return _frame_maps(gamma, G)[1]


def compatibility_accepted(residual: float) -> bool:
    """The compatibility acceptance test, residual <= TOL_COMPAT."""
    return residual <= TOL_COMPAT


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


def _integrability_parts(gamma: Structure, mu: SkewTensor) -> list:
    """One defect array per integrability condition, each linear in mu:
    the closedness rows of a form, the Nijenhuis pair rows of each map."""
    if gamma.dim != mu.dim:
        raise DimensionMismatch(f"structure dim {gamma.dim} vs tensor dim {mu.dim}")
    T = mu.full()
    if gamma.tag == SYMPLECTIC:
        return [_closedness_rows(gamma.payload, T)]
    pairs = pair_index(mu.dim)
    return [_nijenhuis_defect(J, T)[pairs].ravel() for J in gamma.maps()]


def integrability_defect(gamma: Structure, mu: SkewTensor) -> np.ndarray:
    """Stacked integrability defect, linear in mu; empty for NoStructure."""
    return np.concatenate([np.zeros(0)] + _integrability_parts(gamma, mu))


def integrability_residual(gamma: Structure, mu: SkewTensor) -> float:
    """Largest norm of one condition's defect; 0 iff mu lies in the
    structure's integrable subspace (closed form, or no Nijenhuis defect)."""
    return max((float(np.linalg.norm(d)) for d in _integrability_parts(gamma, mu)),
               default=0.0)


def integrability_accepted(residual: float, mu: SkewTensor) -> bool:
    """The integrability acceptance test, residual <= TOL_COMPAT |mu|: the
    defect is linear in mu, so the verdict does not depend on its scale."""
    return residual <= TOL_COMPAT * mu.norm()


def _abelian_parts(gamma: Structure, mu: SkewTensor) -> list:
    """The pair rows of mu(J., J.) - mu, one array per map."""
    if not gamma.maps():
        raise WrongTag("abelian condition needs a complex or hypercomplex structure")
    T = mu.full()
    pairs = pair_index(mu.dim)
    return [(np.einsum("ai,bj,abk->ijk", J, J, T, optimize=True) - T)[pairs].ravel()
            for J in gamma.maps()]


def abelian_residual(gamma: Structure, mu: SkewTensor) -> float:
    """V-norm deviation of mu from being abelian, largest over the maps;
    each i < j pair counts twice, matching the tensor inner product."""
    return float(np.sqrt(2.0) * max(np.linalg.norm(d)
                                    for d in _abelian_parts(gamma, mu)))


def _frame_projector(gamma: Structure, G: Metric) -> np.ndarray:
    """The (n^2, n^2) matrix, on the row-major vec(X) of any n x n X, of the
    orthogonal projector onto the structure algebra in the G-orthonormal
    frame, X -> (X + sum_k s_k(X)) / (1 + k) with s(X) = J X^T J for the
    symplectic map and -J X J for each complex map (_frame_maps' J_k);
    raises IncompatibleMetric unless compatibility_accepted."""
    maps, residual = _frame_maps(gamma, G)
    if not compatibility_accepted(residual):
        raise IncompatibleMetric(
            f"metric is not compatible with the structure (residual {residual:.3g})")
    n = gamma.dim
    maps = np.reshape(maps, (-1, n, n))
    w = 1.0 / (1 + len(maps))
    symplectic = gamma.tag == SYMPLECTIC  # (J X^T J)[a, b] = J[a, j] X[i, j] J[i, b]
    P = np.einsum("kaj,kib->abij" if symplectic else "kai,kjb->abij",
                  (w if symplectic else -w) * maps, maps).reshape(n * n, n * n)
    P.flat[::n * n + 1] += w
    return P


@dataclass(frozen=True)
class StructureAlgebra:
    sym_basis: list
    skew_basis: list

    @property
    def skew_dim(self) -> int:
        return len(self.skew_basis)


def structure_algebra(gamma: Structure, G: Metric) -> StructureAlgebra:
    """Bases of the G-symmetric and G-skew parts of the structure algebra.

    Each is an orthonormal basis of the image of _frame_projector's P on
    sym_basis(n) or skew_basis(n), B as rows, in the G-orthonormal frame (the
    eigenvalue-1 eigenvectors of B P B^T), conjugated back; raises
    IncompatibleMetric as _frame_projector does.
    """
    n = gamma.dim
    P = _frame_projector(gamma, G)
    parts = []
    for part in (sym_basis(n), skew_basis(n)):
        B = np.reshape(part, (-1, n * n))
        w, v = np.linalg.eigh(B.dot(P).dot(B.T))
        parts.append(list(_from_frame(v[:, w > 0.5].T.dot(B).reshape(-1, n, n), G)))
    return StructureAlgebra(*parts)


def invariant_projection(gamma: Structure, G: Metric, S: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a G-symmetric map S onto the symmetric part
    of the structure algebra, in the trace inner product: _frame_projector's
    P on the symmetric part of S in the G-orthonormal frame, conjugated
    back; raises IncompatibleMetric as _frame_projector does.
    """
    S = np.asarray(S, dtype=float)
    n = gamma.dim
    if S.shape != (n, n):
        raise DimensionMismatch(f"operator shape {S.shape} vs dim {n}")
    P = _frame_projector(gamma, G)
    S0 = _to_frame(S, G)
    P0 = P.dot((0.5 * (S0 + S0.T)).ravel()).reshape(n, n)
    return _from_frame(0.5 * (P0 + P0.T), G)


def _grading_preserved(gamma: Structure, n1: int) -> bool:
    payload = (gamma.payload,) if gamma.tag == SYMPLECTIC else gamma.maps()
    return all(np.abs(M[:n1, n1:]).max() <= 1e-12 and np.abs(M[n1:, :n1]).max() <= 1e-12
               for M in payload)


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
    rows = [np.concatenate([integrability_defect(gamma, b)]
                           + (_abelian_parts(gamma, b) if abelian else []))
            for b in basis]
    return svd_nullspace(np.array(rows).T)

"""Structure-constant tensors, the basis-change action, coboundaries and
derivation algebras of nilpotent Lie brackets.

Conventions used throughout the package:

- A skew tensor mu stores the coefficients of mu(X_i, X_j) for i < j only;
  antisymmetry is structural.  Indices are 1-based in all I/O and documents,
  0-based internally.
- The layout lives here alone: ``pair_index`` gives the row order of the
  stored pairs and ``triple_index`` the triples i < j < k, both lexicographic.
- The inner product on tensors is the ordered double sum over (i, j), so
  each stored i < j coefficient counts twice: ``inner(mu, mu) =
  2 * sum(coeffs**2)``.  This is the unique convention under which the
  scalar curvature identity scal = -1/4 * |mu|^2 holds exactly.
- ``act(g, mu)`` works from the stored pair rows: it contracts the output
  slot there (``coeffs @ g.T``), scatters the rows into one antisymmetric
  matrix per output index and moves the two input slots by one batched
  congruence ``ginv^T T ginv``, the hot path of the metric flow.
- ``coboundary(mu, A)`` is delta_mu(A) = A mu(., .) - mu(A., .) - mu(., A.),
  so delta_mu(I) = -mu.
- General metrics are handled by Cholesky transport: with G = L L^T and
  h = L^T, the bracket is moved once into the G-orthonormal frame
  (``_transported``, act(h, mu)), where the metric is the identity.  All
  curvature is computed there by one kernel (``curvature.frame_curvature``),
  and an operator is conjugated back at most once (``_from_frame``,
  h^-1 A h).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import warnings

import numpy as np

from .defaults import TOL_JACOBI, TOL_NULL, COND_WARN
from .errors import (
    DimensionMismatch,
    InvalidBracket,
    NotNilpotent,
    NotPositiveDefinite,
    NotTwoStep,
    SingularMap,
)


@lru_cache(maxsize=None)
def pair_index(n: int) -> tuple:
    """Read-only (rows, cols) of the pairs i < j in lexicographic order,
    np.triu_indices(n, 1): the row order of SkewTensor.coeffs."""
    idx = np.array(np.triu_indices(n, 1))
    idx.flags.writeable = False  # the cache shares it with every caller
    return tuple(idx)


@lru_cache(maxsize=None)
def triple_index(n: int) -> tuple:
    """Read-only (i, j, k) of the triples i < j < k in lexicographic order."""
    idx = np.indices((n, n, n)).reshape(3, -1)
    idx = idx[:, (idx[0] < idx[1]) & (idx[1] < idx[2])]
    idx.flags.writeable = False
    return tuple(idx)


def _pair_units(n: int, sign: float) -> list:
    """(E_ij + sign E_ji) / sqrt(2) for each pair i < j."""
    iu, ju = pair_index(n)
    I = np.eye(n)
    E = I[iu][:, :, None] * I[ju][:, None, :]
    return list((E + sign * E.transpose(0, 2, 1)) / np.sqrt(2.0))


def sym_basis(n: int) -> list:
    """Frobenius-orthonormal basis of symmetric n x n matrices: the
    diagonal units, then one matrix per pair i < j."""
    return list(np.eye(n)[:, :, None] * np.eye(n)[:, None, :]) + _pair_units(n, 1.0)


def skew_basis(n: int) -> list:
    """Frobenius-orthonormal basis of antisymmetric n x n matrices."""
    return _pair_units(n, -1.0)


def svd_nullspace(M: np.ndarray, rtol: float = TOL_NULL) -> np.ndarray:
    """Orthonormal basis (columns) of the nullspace of M.

    Singular values below rtol * sigma_max are treated as zero.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] == 0 or not np.any(M):
        return np.eye(M.shape[1])
    _, s, vt = np.linalg.svd(M)
    cutoff = rtol * s[0] if s.size else 0.0
    rank = int(np.sum(s > cutoff))
    return vt[rank:].T


class SkewTensor:
    """Element of V = Lambda^2(n*) (x) n as structure constants.

    coeffs has shape (n(n-1)/2, n); row p holds the value of mu(X_i, X_j)
    for the p-th pair (i, j) of pair_index(n), in lexicographic order.
    """

    def __init__(self, dim: int, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float)
        expected = (dim * (dim - 1) // 2, dim)
        if coeffs.shape != expected:
            raise DimensionMismatch(
                f"coeffs shape {coeffs.shape}, expected {expected} for dim {dim}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("tensor coefficients must be finite")
        self.dim = dim
        self.coeffs = coeffs
        self._full = None

    @classmethod
    def zero(cls, dim: int) -> "SkewTensor":
        return cls(dim, np.zeros((dim * (dim - 1) // 2, dim)))

    @classmethod
    def from_entries(cls, dim: int, entries) -> "SkewTensor":
        """Build from 1-based records (i, j, k, coeff) with i < j."""
        records = list(entries)
        table = np.array(records, dtype=float).reshape(-1, 4)
        i, j, k = table[:, :3].astype(int).T - 1
        ok = (0 <= i) & (i < j) & (j < dim) & (0 <= k) & (k < dim)
        if not ok.all():
            i, j, k, _ = records[np.argmin(ok)]
            raise DimensionMismatch(f"entry ({i},{j},{k}) out of range for dim {dim}")
        T = np.zeros((dim, dim, dim))
        np.add.at(T, (i, j, k), table[:, 3])
        return cls(dim, T[pair_index(dim)])

    @classmethod
    def from_full(cls, arr: np.ndarray) -> "SkewTensor":
        """Build from a full (n, n, n) array; checks antisymmetry."""
        arr = np.asarray(arr, dtype=float)
        n = arr.shape[0]
        if arr.shape != (n, n, n):
            raise DimensionMismatch(f"expected cubic array, got {arr.shape}")
        if np.abs(arr + arr.transpose(1, 0, 2)).max() > 1e-12 * (1 + np.abs(arr).max()):
            raise ValueError("array is not antisymmetric in its first two slots")
        return cls(n, arr[pair_index(n)])

    def full(self) -> np.ndarray:
        """Full antisymmetric (n, n, n) array; cached."""
        if self._full is None:
            iu, ju = pair_index(self.dim)
            T = np.zeros((self.dim,) * 3)
            T[iu, ju] = self.coeffs
            T[ju, iu] = -self.coeffs
            self._full = T
        return self._full

    def entries(self) -> list:
        """Nonzero coefficients as 1-based (i, j, k, value) records."""
        iu, ju = pair_index(self.dim)
        r, k = np.nonzero(self.coeffs)
        return list(zip((iu[r] + 1).tolist(), (ju[r] + 1).tolist(),
                        (k + 1).tolist(), self.coeffs[r, k].tolist()))

    def norm2(self) -> float:
        """Squared norm under the ordered-sum convention."""
        return 2.0 * float(np.sum(self.coeffs**2))

    def norm(self) -> float:
        return float(np.sqrt(self.norm2()))

    def scaled(self, t: float) -> "SkewTensor":
        return SkewTensor(self.dim, t * self.coeffs)

    def plus(self, other: "SkewTensor", weight: float = 1.0) -> "SkewTensor":
        if other.dim != self.dim:
            raise DimensionMismatch("tensor dims differ")
        return SkewTensor(self.dim, self.coeffs + weight * other.coeffs)

    def __repr__(self):
        return f"SkewTensor(dim={self.dim}, nnz={int(np.count_nonzero(self.coeffs))})"


def inner(a: SkewTensor, b: SkewTensor) -> float:
    """Ordered-sum inner product on V; each i < j pair counts twice."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dims {a.dim} and {b.dim}")
    return 2.0 * float(np.sum(a.coeffs * b.coeffs))


def jacobi_residual(mu: SkewTensor) -> float:
    """Norm over triples i < j < k of the cyclic Jacobi sum; 0 iff Lie."""
    C = np.einsum("ijl,lkm->ijkm", mu.full(), mu.full())
    i, j, k = triple_index(mu.dim)
    return float(np.linalg.norm(C[i, j, k] + C[k, i, j] + C[j, k, i]))


def lower_central_dims(mu: SkewTensor) -> list:
    """Dimensions of the lower central series n >= [n,n] >= [n,[n,n]] >= ...

    Computed mechanically by iterated image spans; does not assume Jacobi.
    """
    T = mu.full()
    n = mu.dim
    # ranks are cut off on a scale anchored to the whole tensor, not to the
    # current iterate, so rounding noise in a vanishing term stays rank 0
    scale = float(np.sqrt(np.sum(T * T)))
    dims = [n]
    basis = np.eye(n)
    while True:
        image = np.einsum("ijk,jl->ilk", T, basis).reshape(-1, n)
        if not np.any(image):
            dims.append(0)
            break
        _, s, vt = np.linalg.svd(image, full_matrices=False)
        rank = int(np.sum(s > TOL_NULL * scale))
        dims.append(rank)
        if rank == 0:
            break
        if rank >= dims[-2]:
            break
        basis = vt[:rank].T
    return dims


def jacobi_accepted(residual: float, mu: SkewTensor) -> bool:
    """The Jacobi acceptance test, residual <= TOL_JACOBI (1 + |mu|^2)."""
    return residual <= TOL_JACOBI * (1.0 + mu.norm2())


class Bracket:
    """A validated nilpotent Lie bracket: Jacobi plus nilpotency."""

    def __init__(self, tensor: SkewTensor):
        res = jacobi_residual(tensor)
        if not jacobi_accepted(res, tensor):
            raise InvalidBracket(f"jacobi residual {res:.3e} exceeds "
                                 f"{TOL_JACOBI:.0e} (1 + |mu|^2)")
        self.tensor = tensor
        self.lcs_dims = lower_central_dims(tensor)
        if self.lcs_dims[-1] != 0:
            raise NotNilpotent(
                f"lower central series stabilizes at dims {self.lcs_dims}"
            )
        self.nilpotency_index = len(self.lcs_dims) - 1

    @property
    def dim(self) -> int:
        return self.tensor.dim

    def __repr__(self):
        return f"Bracket(dim={self.dim}, index={self.nilpotency_index})"


def as_tensor(mu) -> SkewTensor:
    """The structure constants of a Bracket, or mu itself."""
    return mu.tensor if isinstance(mu, Bracket) else mu


def combine(coeffs, basis: list):
    """sum_k coeffs[k] * basis[k] over SkewTensors or arrays, as one
    tensordot; for arrays, 2-D coeffs give one stacked result per row."""
    if isinstance(basis[0], SkewTensor):
        return SkewTensor(basis[0].dim, combine(coeffs, [b.coeffs for b in basis]))
    return np.tensordot(np.asarray(coeffs, dtype=float), np.stack(basis), axes=1)


def expm(S: np.ndarray) -> np.ndarray:
    """exp(S) by eigh; ValueError unless S is symmetric to 1e-12 relative."""
    S = np.asarray(S, dtype=float)
    if np.abs(S - S.T).max() > 1e-12 * np.abs(S).max():
        raise ValueError("expm needs a symmetric generator")
    w, V = np.linalg.eigh(S)
    return (V * np.exp(w)) @ V.T


def expm_skew(K: np.ndarray) -> np.ndarray:
    """Orthogonal exp(K) for antisymmetric K, by eigh of the Hermitian iK;
    ValueError unless K is antisymmetric to 1e-12 relative."""
    K = np.asarray(K, dtype=float)
    if np.abs(K + K.T).max() > 1e-12 * np.abs(K).max():
        raise ValueError("expm_skew needs an antisymmetric generator")
    w, V = np.linalg.eigh(1j * K)
    return ((V * np.exp(-1j * w)) @ V.conj().T).real


class Metric:
    """Left-invariant inner product <X, Y> = X^T G Y, G symmetric positive
    definite.  Caches the Cholesky transport h = L^T with G = L L^T."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        n = matrix.shape[0]
        if matrix.shape != (n, n):
            raise DimensionMismatch(f"metric shape {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise NotPositiveDefinite("metric matrix has non-finite entries")
        half = 0.5 * matrix  # halved before sums and differences: no overflow
        if np.abs(half - half.T).max() > 5e-11 * (1 + np.abs(matrix).max()):
            raise NotPositiveDefinite("metric matrix is not symmetric")
        self.matrix = half + half.T
        try:
            L = np.linalg.cholesky(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite("Cholesky factorization failed") from exc
        self.transport = L.T  # h with G = h^T h
        self.transport_inv = np.linalg.inv(self.transport)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, n: int) -> "Metric":
        return cls(np.eye(n))

    def is_identity(self) -> bool:
        return bool(np.abs(self.matrix - np.eye(self.dim)).max() < 1e-14)

    def __repr__(self):
        return f"Metric(dim={self.dim})"


def act(g: np.ndarray, mu: SkewTensor) -> SkewTensor:
    """Basis-change action (g.mu)(X, Y) = g mu(g^-1 X, g^-1 Y).

    Satisfies act(I, mu) = mu and act(g, act(h, mu)) = act(gh, mu).
    """
    g = np.asarray(g, dtype=float)
    n = mu.dim
    if g.shape != (n, n):
        raise DimensionMismatch(f"map shape {g.shape} vs dim {n}")
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise SingularMap("basis change is singular") from exc
    if not np.all(np.isfinite(ginv)):
        raise SingularMap("basis change is singular at working precision")
    # 1-norm condition estimate; cheap and within a factor n of the true value
    cond_est = float(np.linalg.norm(g, 1) * np.linalg.norm(ginv, 1))
    if cond_est > COND_WARN:
        warnings.warn(
            f"basis change condition number about {cond_est:.2e} exceeds "
            f"{COND_WARN:.0e}",
            RuntimeWarning,
            stacklevel=2,
        )
    # (g.mu)[a,b,m] = ginv[i,a] ginv[j,b] mu[i,j,k] g[m,k], held as T[m,a,b]:
    # the output slot on the stored pair rows, C[m,p] = g_m . mu_p, scattered
    # into one antisymmetric n x n matrix per m, then one batched congruence
    # (the i sum first); the check is SkewTensor.from_full's
    iu, ju = pair_index(n)
    C = (mu.coeffs @ g.T).T
    T = np.zeros((n, n, n))
    T[:, iu, ju] = C
    T[:, ju, iu] = -C
    T = ginv.T @ T @ ginv
    if np.abs(T + T.transpose(0, 2, 1)).max() > 1e-12 * (1 + np.abs(T).max()):
        raise ValueError("array is not antisymmetric in its first two slots")
    return SkewTensor(n, T[:, iu, ju].T.copy())


def coboundary(mu: SkewTensor, A: np.ndarray) -> SkewTensor:
    """delta_mu(A) = A mu(., .) - mu(A., .) - mu(., A.); delta_mu(I) = -mu."""
    A = np.asarray(A, dtype=float)
    n = mu.dim
    if A.shape != (n, n):
        raise DimensionMismatch(f"map shape {A.shape} vs dim {n}")
    # on the stored pair rows only, so the result is antisymmetric by
    # construction: with S[i,j,k] = A[l,i] mu[l,j,k], mu(., A.) at (i, j) is
    # -S[j,i]; summing the full array instead rounds the (i, j) and (j, i)
    # slots differently, which fails from_full's check once the three terms
    # cancel to far below |A| |mu|
    iu, ju = pair_index(n)
    S = (A.T @ mu.full().reshape(n, n * n)).reshape(n, n, n)
    return SkewTensor(n, mu.coeffs @ A.T - S[iu, ju] + S[ju, iu])


def coboundary_matrix(mu: SkewTensor) -> np.ndarray:
    """Matrix of A -> delta_mu(A) from vec(A) to stored pair coordinates.

    Shape (n(n-1)/2 * n, n^2); row block p*n..p*n+n holds the pair p value.
    """
    T = mu.full()
    n = mu.dim
    I = np.eye(n)
    K = (
        np.einsum("mp,ijq->ijmpq", I, T)
        - np.einsum("qi,pjm->ijmpq", I, T)
        - np.einsum("qj,ipm->ijmpq", I, T)
    )
    return K[pair_index(n)].reshape(-1, n * n)


def derivation_basis(mu) -> list:
    """Frobenius-orthonormal basis of Der(mu) = ker(A -> delta_mu(A))."""
    M = coboundary_matrix(as_tensor(mu))
    ns = svd_nullspace(M)
    return [ns[:, i].reshape(mu.dim, mu.dim) for i in range(ns.shape[1])]


def symmetric_derivation_basis(mu) -> list:
    """Orthonormal basis of the symmetric part of Der(mu)."""
    n = mu.dim
    M = coboundary_matrix(as_tensor(mu))
    SB = np.column_stack([B.ravel() for B in sym_basis(n)])
    ns = svd_nullspace(M @ SB)
    out = []
    for col in ns.T:
        A = (SB @ col).reshape(n, n)
        out.append(0.5 * (A + A.T))
    return out


def _transported(mu: SkewTensor, G: Metric) -> SkewTensor:
    """The tensor in the G-orthonormal frame, act(h, mu) with G = h^T h."""
    return mu if G.is_identity() else act(G.transport, mu)


def _from_frame(A: np.ndarray, G: Metric) -> np.ndarray:
    """An operator of the G-orthonormal frame in the original frame, h^-1 A h."""
    return A if G.is_identity() else G.transport_inv @ A @ G.transport


def _center_split(T0: np.ndarray):
    """Orthonormal bases (Q1, Q2) with Q2 spanning the center, identity frame."""
    n = T0.shape[0]
    M = T0.transpose(0, 2, 1).reshape(n * n, n)
    Q2 = svd_nullspace(M)
    Q1 = svd_nullspace(Q2.T) if Q2.shape[1] else np.eye(n)
    return Q1, Q2


def _require_two_step(T0: np.ndarray):
    scale = np.abs(T0).max()
    if scale == 0.0:
        raise NotTwoStep("abelian bracket has a degenerate center split")
    nested = np.einsum("ijl,lkm->ijkm", T0, T0)
    if np.abs(nested).max() > 1e-10 * scale * scale:
        raise NotTwoStep("bracket is not 2-step nilpotent")


def j_operator(mu: Bracket, G: Metric, Z: np.ndarray) -> np.ndarray:
    """Skew map j(Z) with <j(Z) X, Y> = <mu(X, Y), Z>, for 2-step brackets.

    Returns the full n x n matrix, which vanishes on the center block; its
    restriction to the orthogonal complement of the center is the operator.
    Computed in the G-orthonormal frame and conjugated back.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (mu.dim,):
        raise DimensionMismatch(f"center vector shape {Z.shape}")
    T0 = _transported(mu.tensor, G).full()
    _require_two_step(T0)
    j0 = np.einsum("bak,k->ab", T0, G.transport @ Z)
    return _from_frame(j0, G)


def htype_classify(mu: Bracket, G: Metric, samples: int = 8) -> str:
    """Classify a 2-step bracket metric pair as HType, ModifiedHType or Neither.

    Tests j(Z)^2 on a center basis plus random unit center vectors:
    ModifiedHType needs j(Z)^2 to be a negative scalar for every tested Z,
    HType additionally needs that scalar to equal -<Z, Z>.
    """
    T0 = _transported(mu.tensor, G).full()
    _require_two_step(T0)
    Q1, Q2 = _center_split(T0)
    if Q2.shape[1] == 0:
        raise NotTwoStep("bracket has trivial center")
    rng = np.random.default_rng(0)
    vectors = [Q2[:, i] for i in range(Q2.shape[1])]
    for _ in range(samples):
        v = Q2 @ rng.standard_normal(Q2.shape[1])
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            vectors.append(v / norm)
    modified = True
    exact = True
    m = Q1.shape[1]
    for Z0 in vectors:
        j0 = np.einsum("bak,k->ab", T0, Z0)
        A = Q1.T @ j0 @ Q1
        A2 = A @ A
        c = float(np.trace(A2)) / m
        scale = max(1.0, float(np.abs(A2).max()))
        if c >= -1e-12 or np.abs(A2 - c * np.eye(m)).max() > 1e-8 * scale:
            modified = False
            break
        if abs(c + float(Z0 @ Z0)) > 1e-8 * max(1.0, abs(c)):
            exact = False
    if not modified:
        return "Neither"
    return "HType" if exact else "ModifiedHType"

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
- A metric is handled by Cholesky transport: with G = L L^T and h = L^T,
  the bracket is moved once into the G-orthonormal frame, act(h, mu),
  where the metric is the identity.  All curvature is computed there by
  one kernel (``curvature.frame_curvature``).  Operators move by
  ``_to_frame`` (h A h^-1) and back by ``_from_frame`` (h^-1 A h).  The
  identity metric takes the same path: act(I, .) and I A I are exact.
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
def _flat_pair_index(n: int) -> tuple:
    """Read-only flat positions i n + j and j n + i of the pairs i < j."""
    iu, ju = pair_index(n)
    idx = np.array([iu * n + ju, ju * n + iu])
    idx.flags.writeable = False
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


def svd_nullspace(M: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the nullspace of M.

    Singular values below TOL_NULL * sigma_max are treated as zero.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] == 0 or not np.any(M):
        return np.eye(M.shape[1])
    _, s, vt = np.linalg.svd(M)  # M has a nonzero entry, so s[0] > 0
    rank = int(np.sum(s > TOL_NULL * s[0]))
    return vt[rank:].T


@lru_cache(maxsize=None)
def _pair_scatter(n: int) -> np.ndarray:
    """Read-only matrix taking stored pair rows p to the full array's rows:
    +1 at (i n + j, p) and -1 at (j n + i, p)."""
    ij, ji = _flat_pair_index(n)
    S = np.eye(n * n)[:, ij] - np.eye(n * n)[:, ji]
    S.flags.writeable = False
    return S


def _full_array(coeffs: np.ndarray) -> np.ndarray:
    """The full antisymmetric (..., n, n, n) arrays of stored pair rows
    (..., n(n-1)/2, n); leading axes are a batch.  One product with the
    scatter matrix, exact: each entry is one coefficient times +-1."""
    n = coeffs.shape[-1]
    return (_pair_scatter(n) @ coeffs).reshape(coeffs.shape[:-2] + (n, n, n))


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
        if not np.isfinite(coeffs).all():
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
            self._full = _full_array(self.coeffs)
        return self._full

    def entries(self) -> list:
        """Nonzero coefficients as 1-based (i, j, k, value) records."""
        iu, ju = pair_index(self.dim)
        r, k = np.nonzero(self.coeffs)
        return list(zip((iu[r] + 1).tolist(), (ju[r] + 1).tolist(),
                        (k + 1).tolist(), self.coeffs[r, k].tolist()))

    def norm2(self) -> float:
        """Squared norm under the ordered-sum convention."""
        return 2.0 * float(np.vdot(self.coeffs, self.coeffs))

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
    if not np.isfinite(ginv).all():
        raise SingularMap("basis change is singular at working precision")
    # 1-norm condition estimate, within a factor n of the true value: the
    # largest column sums of |g| and |g^-1|, as np.linalg.norm(., 1) reduces
    cond_est = float(np.abs(g).sum(0).max() * np.abs(ginv).sum(0).max())
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
    # (the i sum first), read out on the stored pair rows only
    iu, ju = pair_index(n)
    C = (mu.coeffs @ g.T).T
    T = np.zeros((n, n, n))
    T[:, iu, ju] = C
    T[:, ju, iu] = -C
    T = ginv.T @ T @ ginv
    return SkewTensor(n, T[:, iu, ju].T.copy())


def coboundary(mu: SkewTensor, A: np.ndarray) -> SkewTensor:
    """delta_mu(A) = A mu(., .) - mu(A., .) - mu(., A.); delta_mu(I) = -mu."""
    A = np.asarray(A, dtype=float)
    n = mu.dim
    if A.shape != (n, n):
        raise DimensionMismatch(f"map shape {A.shape} vs dim {n}")
    return SkewTensor(n, _coboundary_rows(mu.coeffs, mu.full(), A))


def _coboundary_rows(coeffs: np.ndarray, full: np.ndarray,
                     A: np.ndarray) -> np.ndarray:
    """Stored pair rows of delta_mu(A) for mu given by its pair rows and its
    full array; leading axes of either mu or A are a batch.

    On the stored pair rows only, so the result is antisymmetric by
    construction: with S[i,j,k] = A[l,i] mu[l,j,k], mu(., A.) at (i, j) is
    -S[j,i]; summing the full array instead rounds the (i, j) and (j, i)
    slots differently, which fails from_full's check once the three terms
    cancel to far below |A| |mu|.
    """
    n = A.shape[-1]
    ij, ji = _flat_pair_index(n)
    At = A.swapaxes(-1, -2)
    S = At @ full.reshape(full.shape[:-2] + (n * n,))
    S = S.reshape(S.shape[:-2] + (n * n, n))
    return coeffs @ At - S.take(ij, -2) + S.take(ji, -2)


def coboundary_matrix(mu: SkewTensor) -> np.ndarray:
    """Matrix of A -> delta_mu(A) from vec(A) to stored pair coordinates.

    Shape (n(n-1)/2 * n, n^2); row block p*n..p*n+n holds the pair p value.
    Column a is delta_mu of the a-th unit matrix, all in one batch.
    """
    n = mu.dim
    units = np.eye(n * n).reshape(n * n, n, n)
    return _coboundary_rows(mu.coeffs, mu.full(), units).reshape(n * n, -1).T


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


def _to_frame(A: np.ndarray, G: Metric) -> np.ndarray:
    """An operator of the original frame in the G-orthonormal frame, h A h^-1."""
    return G.transport @ A @ G.transport_inv


def _from_frame(A: np.ndarray, G: Metric) -> np.ndarray:
    """An operator of the G-orthonormal frame in the original frame, h^-1 A h."""
    return G.transport_inv @ A @ G.transport


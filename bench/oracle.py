"""Independent reference computations for checking nilmetric's outputs.

Nothing here imports nilmetric.  Brackets are full (n, n, n) arrays with
T[i, j, k] the coefficient of X_k in mu(X_i, X_j); metrics are symmetric
positive-definite matrices G with <X, Y> = X^T G Y; a structure is a pair
(kind, payload) with kind in none / symplectic / complex / hypercomplex and
payload the form omega, the map J or the triple (J1, J2, J3).

The code paths differ on purpose from the program's:

- the G-orthonormal frame is the symmetric square root G^{-1/2} from
  ``eigh``, not a Cholesky factor;
- the Ricci operator is -1/2 sum ad_i^T ad_i + 1/4 sum ad_i ad_i^T over the
  ad matrices of an orthonormal basis, and scal is its trace;
- the invariant part is a least-squares fit onto a basis of the symmetric
  structure algebra computed as a nullspace over all n x n matrices, not a
  reflection formula;
- the certificate constant c is the least-squares solution of
  delta_mu(Ric^gamma - c I) = 0, not a trace ratio.
"""

from __future__ import annotations

import numpy as np

NULL_RTOL = 1e-7


def full_from_pairs(coeffs: np.ndarray) -> np.ndarray:
    """Full antisymmetric array from rows stored for pairs i < j in
    lexicographic order (the layout of the program's tensor coefficients)."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[1]
    iu, ju = np.triu_indices(n, k=1)
    T = np.zeros((n, n, n))
    T[iu, ju] = coeffs
    T[ju, iu] = -coeffs
    return T


def full_from_entries(n: int, entries) -> np.ndarray:
    """Full array from 1-based records (i, j, k, value) with i < j."""
    T = np.zeros((n, n, n))
    for i, j, k, value in entries:
        T[i - 1, j - 1, k - 1] += value
        T[j - 1, i - 1, k - 1] -= value
    return T


def norm2(T: np.ndarray) -> float:
    """|mu|^2 as the sum over ordered pairs (each i < j pair twice)."""
    return float(np.sum(T * T))


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling, an 18-term Taylor sum and squaring;
    accurate to rounding for the small generators used here."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    norm = float(np.abs(A).sum(axis=0).max())
    squarings = int(np.ceil(np.log2(norm / 0.25))) if norm > 0.25 else 0
    B = A / 2.0**squarings
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 19):
        term = term @ B / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def frame(G: np.ndarray):
    """(P, P^-1) with P = G^{-1/2}: the columns of P are a G-orthonormal
    basis and P^-1 = G^{1/2} maps coordinates into it."""
    G = np.asarray(G, dtype=float)
    w, V = np.linalg.eigh(0.5 * (G + G.T))
    if w.min() <= 0.0:
        raise ValueError("metric is not positive definite")
    P = (V / np.sqrt(w)) @ V.T
    Pinv = (V * np.sqrt(w)) @ V.T
    return P, Pinv


def in_frame(T: np.ndarray, P: np.ndarray, Pinv: np.ndarray) -> np.ndarray:
    """Structure constants with respect to the basis given by P's columns."""
    return np.einsum("ia,jb,ijk,ck->abc", P, P, T, Pinv, optimize=True)


def ricci_orthonormal(T0: np.ndarray) -> np.ndarray:
    """Ricci operator of a bracket given in an orthonormal basis."""
    ad = T0.transpose(0, 2, 1)  # ad[i][k, j] = T0[i, j, k]
    return (-0.5 * np.einsum("ikp,ikq->pq", ad, ad)
            + 0.25 * np.einsum("ipk,iqk->pq", ad, ad))


def payload_in_frame(kind: str, payload, P: np.ndarray, Pinv: np.ndarray):
    """A form transforms as P^T omega P, a complex map as P^-1 J P."""
    if kind == "none":
        return None
    if kind == "symplectic":
        return P.T @ payload @ P
    if kind == "complex":
        return Pinv @ payload @ P
    if kind == "hypercomplex":
        return tuple(Pinv @ J @ P for J in payload)
    raise ValueError(f"unknown structure kind {kind!r}")


def _constraint_rows(kind: str, payload0, n: int) -> np.ndarray:
    """Rows of the linear map vec(A) -> constraints whose kernel is the
    symmetric part of the structure algebra: A = A^T plus A^T omega +
    omega A = 0 (symplectic) or A J = J A (complex, each hypercomplex map)."""
    # the vec index of A[i, j] is i * n + j; einsum operands below are
    # indexed [i, j, k, l] = coefficient of A[k, l] in row (i, j)
    eye = np.eye(n)
    transpose = np.einsum("jk,il->ijkl", eye, eye).reshape(n * n, n * n)
    blocks = [np.eye(n * n) - transpose]
    if kind == "symplectic":
        w = payload0
        # (A^T w)[i, j] = A[k, i] w[k, j]; (w A)[i, j] = w[i, k] A[k, j]
        blocks.append((np.einsum("kj,il->ijkl", w, eye)
                       + np.einsum("ik,jl->ijkl", w, eye)).reshape(n * n, n * n))
    elif kind in ("complex", "hypercomplex"):
        maps = (payload0,) if kind == "complex" else payload0
        for J in maps:
            # (A J)[i, j] = A[i, k] J[k, j]; (J A)[i, j] = J[i, k] A[k, j]
            blocks.append((np.einsum("ik,lj->ijkl", eye, J)
                           - np.einsum("ik,jl->ijkl", J, eye)).reshape(n * n, n * n))
    return np.vstack(blocks)


def symmetric_algebra_basis(kind: str, payload0, n: int) -> np.ndarray:
    """Columns: an orthonormal basis (in vec coordinates) of the symmetric
    part of the structure algebra, for a payload given in an orthonormal
    frame."""
    M = _constraint_rows(kind, payload0, n)
    _, s, vt = np.linalg.svd(M)
    rank = int(np.sum(s > NULL_RTOL * s[0]))
    return vt[rank:].T


def full_algebra_basis(kind: str, payload, n: int) -> list:
    """Orthonormal basis (Frobenius) of the whole structure algebra at the
    identity metric, for drawing structure-group perturbations."""
    M = _constraint_rows(kind, payload, n)[n * n:]
    if M.shape[0] == 0:
        return [E.reshape(n, n) for E in np.eye(n * n)]
    _, s, vt = np.linalg.svd(M)
    rank = int(np.sum(s > NULL_RTOL * s[0]))
    return [v.reshape(n, n) for v in vt[rank:]]


def invariant_part(S0: np.ndarray, kind: str, payload0) -> np.ndarray:
    """Least-squares projection of a symmetric map, given in an orthonormal
    frame, onto the symmetric structure algebra."""
    n = S0.shape[0]
    if kind == "none":
        return S0
    B = symmetric_algebra_basis(kind, payload0, n)
    coef, *_ = np.linalg.lstsq(B, S0.ravel(), rcond=None)
    P0 = (B @ coef).reshape(n, n)
    return 0.5 * (P0 + P0.T)


def coboundary(T: np.ndarray, A: np.ndarray) -> np.ndarray:
    """delta_mu(A)(X, Y) = A mu(X, Y) - mu(A X, Y) - mu(X, A Y)."""
    return (np.einsum("kl,ijl->ijk", A, T)
            - np.einsum("li,ljk->ijk", A, T)
            - np.einsum("lj,ilk->ijk", A, T))


class Curvature:
    """Curvature data of (mu, G, gamma), computed in the eigh frame.

    Operators in the frame (``ric0``, ``ric_gamma0``) are symmetric; the
    original-frame operators are ``ric`` and ``ric_gamma``.
    """

    def __init__(self, T: np.ndarray, G: np.ndarray = None,
                 structure: tuple = ("none", None)):
        n = T.shape[0]
        if G is None:
            G = np.eye(n)
        kind, payload = structure
        self.P, self.Pinv = frame(G)
        self.T0 = in_frame(T, self.P, self.Pinv)
        self.ric0 = ricci_orthonormal(self.T0)
        payload0 = payload_in_frame(kind, payload, self.P, self.Pinv)
        self.ric_gamma0 = invariant_part(self.ric0, kind, payload0)
        self.norm2 = norm2(self.T0)
        self.scal = float(np.trace(self.ric0))
        self.F = float(np.sum(self.ric_gamma0 * self.ric_gamma0)) / self.norm2**2

    def to_original(self, A0: np.ndarray) -> np.ndarray:
        return self.P @ A0 @ self.Pinv

    @property
    def ric(self) -> np.ndarray:
        return self.to_original(self.ric0)

    @property
    def ric_gamma(self) -> np.ndarray:
        return self.to_original(self.ric_gamma0)

    def spectra(self) -> tuple:
        """Ascending eigenvalues of Ric and Ric^gamma."""
        return (np.linalg.eigvalsh(self.ric0),
                np.linalg.eigvalsh(self.ric_gamma0))

    def certificate(self) -> tuple:
        """(c, D, residual): c minimizes |delta_mu(Ric^gamma - c I)|, D is
        returned in the original frame, and the residual is normalized as
        |delta_mu(D)| / ((1 + |D|) |mu|) in the orthonormal frame."""
        n = self.T0.shape[0]
        dR = coboundary(self.T0, self.ric_gamma0)
        # delta_mu(I) = -mu, so delta_mu(R - c I) = dR + c mu
        c = -float(np.sum(dR * self.T0)) / self.norm2
        D0 = self.ric_gamma0 - c * np.eye(n)
        defect = dR + c * self.T0
        residual = np.sqrt(np.sum(defect * defect)) / (
            (1.0 + np.linalg.norm(D0)) * np.sqrt(self.norm2))
        return c, self.to_original(D0), float(residual)


def jacobi_residual(T: np.ndarray) -> float:
    """Largest entry of the cyclic sum [[X_i, X_j], X_k] + cyclic."""
    C = np.einsum("ijl,lkm->ijkm", T, T)
    J = C + C.transpose(1, 2, 0, 3) + C.transpose(2, 0, 1, 3)
    return float(np.abs(J).max())


def closedness_residual(T: np.ndarray, omega: np.ndarray) -> float:
    """Largest entry of omega(mu(X_i, X_j), X_k) + cyclic, the defect of
    d omega = 0 for a left-invariant form."""
    B = np.einsum("ijl,lk->ijk", T, omega)
    return float(np.abs(B + B.transpose(1, 2, 0) + B.transpose(2, 0, 1)).max())


def nijenhuis_residual(T: np.ndarray, J: np.ndarray) -> float:
    """Largest entry of N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y]."""
    JX_JY = np.einsum("ai,bj,abk->ijk", J, J, T)
    J_JX_Y = np.einsum("km,ai,ajm->ijk", J, J, T)
    J_X_JY = np.einsum("km,bj,ibm->ijk", J, J, T)
    return float(np.abs(JX_JY - J_JX_Y - J_X_JY - T).max())


def integrability_residual(T: np.ndarray, structure: tuple) -> float:
    kind, payload = structure
    if kind == "none":
        return 0.0
    if kind == "symplectic":
        return closedness_residual(T, payload)
    maps = (payload,) if kind == "complex" else payload
    return max(nijenhuis_residual(T, J) for J in maps)


def compatibility_residual(G: np.ndarray, structure: tuple) -> float:
    """Deviation of G from the compatible cone, measured in the G-orthonormal
    frame, where the structure must be orthogonal.  Symplectic metrics count
    as compatible up to a positive factor (the flows scale the form): the
    frame form w must satisfy w^T w = kappa I with kappa > 0."""
    kind, payload = structure
    n = G.shape[0]
    if kind == "none":
        return 0.0
    payload0 = payload_in_frame(kind, payload, *frame(G))
    if kind == "symplectic":
        M = payload0.T @ payload0
        kappa = float(np.trace(M)) / n
        return float(np.abs(M - kappa * np.eye(n)).max()) / kappa
    maps = (payload0,) if kind == "complex" else payload0
    return max(float(np.abs(J.T @ J - np.eye(n)).max()) for J in maps)


# Closed forms from the paper's worked families.

M26_RIC_GAMMA = -0.25 * np.diag([5.0, 3.0, 1.0, -1.0, -3.0, -5.0])
M26_C = -7.0 / 4.0
M26_D = np.diag(np.arange(1.0, 7.0)) / 2.0
M26_F = 7.0 / 160.0
HEISENBERG_RIC = np.diag([-0.5, -0.5, 0.5])


def soliton_metric(D: np.ndarray, t: float, G0: np.ndarray) -> np.ndarray:
    """phi_t^T G0 phi_t with phi_t = exp(-(t/2) D), for diagonal D."""
    phi = np.diag(np.exp(-0.5 * t * np.diag(D)))
    return phi.T @ G0 @ phi

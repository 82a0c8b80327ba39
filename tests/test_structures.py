"""Geometric structures, compatibility, integrability and projections."""

from math import comb

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import nilmetric as nm
from nilmetric.algebra_core import combine, expm
from nilmetric.defaults import TOL_COMPAT
from nilmetric.structures import (
    _frame_maps,
    _frame_projector,
    abelian_residual,
    integrability_defect,
    invariant_projection,
    structure_algebra,
    graded_ambient_basis,
    full_ambient_basis,
    integrability_accepted,
)

from conftest import algebra_reference, basis_projection, group_reference

TOL = 1e-12


def rotated_structure(kind, n, rng):
    """The standard structure of the kind moved by a random rotation O.
    For the standard block layout the Cholesky factor of a compatible
    metric is itself in the structure group, so the frame maps would
    equal the original ones."""
    O, _ = np.linalg.qr(rng.standard_normal((n, n)))
    std = nm.standard_structure(kind, n)
    return getattr(nm, f"{kind}_structure")(
        *(O @ J @ O.T for J in std.maps() or (std.payload,)))


def test_standard_symplectic_squares_to_minus_identity():
    for n in (2, 4, 6, 8):
        om = nm.standard_structure("symplectic", n).payload
        assert np.abs(om + om.T).max() < TOL
        assert np.abs(om @ om + np.eye(n)).max() < TOL


def test_standard_complex_square():
    for n in (2, 4, 6):
        J = nm.standard_structure("complex", n).payload
        assert np.abs(J @ J + np.eye(n)).max() < TOL


def test_standard_hypercomplex_quaternion_relations():
    gamma = nm.standard_structure("hypercomplex", 8)
    J1, J2, J3 = gamma.maps()
    for J in (J1, J2, J3):
        assert np.abs(J @ J + np.eye(8)).max() < TOL
    assert np.abs(J1 @ J2 - J3).max() < TOL
    assert np.abs(J2 @ J1 + J3).max() < TOL


def test_structure_constructor_validation():
    with pytest.raises(nm.DimensionParity):
        nm.standard_structure("symplectic", 5)
    with pytest.raises(nm.DimensionParity):
        nm.standard_structure("hypercomplex", 6)
    with pytest.raises(nm.InvalidStructure):
        nm.complex_structure(np.eye(4))
    degenerate = np.zeros((4, 4))
    with pytest.raises(nm.InvalidStructure):
        nm.symplectic_structure(degenerate)


@pytest.mark.parametrize("build", [
    nm.symplectic_structure,
    nm.complex_structure,
    lambda J: nm.hypercomplex_structure(J, J, J),
], ids=["symplectic", "complex", "hypercomplex"])
def test_structure_builders_reject_empty_payload(build):
    with pytest.raises(nm.DimensionMismatch):
        build(np.zeros((0, 0)))


def test_symplectic_nondegeneracy_is_relative():
    # rank is judged by s_min <= TOL_NULL s_max, so the overall scale of
    # the form does not matter but its condition number does
    std = nm.standard_structure("symplectic", 4).payload
    for scale in (1e-3, 1e300):
        gamma = nm.symplectic_structure(scale * std)
        assert np.array_equal(gamma.payload, scale * std)
    near_singular = np.zeros((4, 4))  # blocks 1e7 and 1e-8: det 1e-2, cond 1e15
    near_singular[:2, :2] = 1e7 * std[:2, :2]
    near_singular[2:, 2:] = 1e-8 * std[2:, 2:]
    with pytest.raises(nm.InvalidStructure, match="nondegenerate"):
        nm.symplectic_structure(near_singular)


def test_metric_jmap_and_compatibility_at_identity():
    gamma = nm.standard_structure("symplectic", 6)
    G = nm.Metric.identity(6)
    J = nm.metric_jmap(gamma, G)
    assert np.abs(J - gamma.payload).max() < TOL
    assert nm.compatibility_residual(gamma, G) < TOL


def test_projection_ignores_the_scale_of_a_symplectic_metric():
    # sp(s omega) = sp(omega): the projection at 2I is the one at I
    gamma = nm.standard_structure("symplectic", 6)
    G = nm.Metric(2.0 * np.eye(6))
    R = nm.ricci_operator(nm.m26_point(1.0, 0.0).tensor, G)
    P = invariant_projection(gamma, G, R)
    P1 = invariant_projection(gamma, nm.Metric.identity(6), R)
    assert np.abs(P - P1).max() <= 1e-14 * np.abs(R).max()


def test_closedness_golden_family():
    gamma = nm.standard_structure("symplectic", 6)
    closed = nm.m26_point(1.0, 0.0).tensor
    assert nm.integrability_residual(gamma, closed) < TOL
    open_tensor = nm.symplectic_family(1.0, 1.0, 1.0, 1.0, 1.0, 0.5).tensor
    assert nm.integrability_residual(gamma, open_tensor) > 0.1


def test_complex_curve_is_integrable():
    p = nm.complex_curve(1.7)
    assert nm.integrability_residual(p.structure, p.tensor) < 1e-10


def test_nijenhuis_detects_non_integrable():
    gamma = nm.standard_structure("complex", 6)
    # [e1,e3] = e6 has Nijenhuis tensor N(e1,e3) = -e6 for the standard
    # pairing (e1,e2),(e3,e4),(e5,e6)
    t = nm.SkewTensor.from_entries(6, [(1, 3, 6, 1.0)])
    assert nm.integrability_residual(gamma, t) > 1e-3


def test_hypercomplex_family_is_integrable():
    p = nm.hypercomplex_family(0.25, 0.5, 0.75)
    assert nm.integrability_residual(p.structure, p.tensor) < 1e-10


def _bent(name, size, seed):
    """A preset's bracket plus a random tensor of `size` times its norm."""
    tensor = nm.catalog_get(name).tensor
    rng = np.random.default_rng(seed)
    noise = nm.SkewTensor(tensor.dim, rng.standard_normal(tensor.coeffs.shape))
    return tensor.plus(noise, size * tensor.norm() / noise.norm())


@pytest.mark.parametrize("t", [1e6, 1.0, 1e-6, 1e-8])
def test_integrability_rejects_a_bent_bracket_at_every_scale(t):
    # m26 plus a 5% random tensor is not closed; the defect and the bound
    # TOL_COMPAT |mu| are both linear in mu, so no scale passes (a bound with
    # an absolute floor, TOL_COMPAT (1 + |mu|), accepts it at 1e-8); the zero
    # bracket still passes
    gamma = nm.catalog_get("m26").structure
    mu = _bent("m26", 0.05, 14).scaled(t)
    assert not integrability_accepted(nm.integrability_residual(gamma, mu), mu)
    zero = nm.SkewTensor.zero(6)
    assert integrability_accepted(nm.integrability_residual(gamma, zero), zero)


def _scale_free_verdicts(mu, gamma) -> tuple:
    """(Bracket()'s verdict, integrability_accepted's) of mu."""
    try:
        nm.Bracket(mu)
        verdict = "bracket"
    except nm.InvalidBracket:
        verdict = "jacobi"
    except nm.NotNilpotent:
        verdict = "not nilpotent"
    return verdict, integrability_accepted(
        nm.integrability_residual(gamma, mu), mu)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["heisenberg", "m26", "iwasawa-curve", "hc-g3"]),
       st.sampled_from([0.0, 1e-3, 0.05]), st.integers(0, 2**32 - 1),
       st.floats(1e-6, 1e6))
def test_bracket_and_integrability_verdicts_ignore_scale(name, size, seed, t):
    gamma = nm.catalog_get(name).structure
    mu = _bent(name, size, seed)
    assert (_scale_free_verdicts(mu.scaled(t), gamma)
            == _scale_free_verdicts(mu, gamma))


def test_abelian_residual_golden():
    p = nm.complex_curve(1.0)
    assert abelian_residual(p.structure, p.tensor) == pytest.approx(
        8.0 * np.sqrt(2.0), abs=1e-12)


def test_hypercomplex_residuals_are_the_largest_over_its_maps():
    amb = nm.hypercomplex_ambient()
    rng = np.random.default_rng(59)
    complexes = [nm.complex_structure(J) for J in amb.structure.maps()]
    for t in (amb.sample(rng), amb.sample(rng, abelian=True),
              nm.SkewTensor(8, rng.standard_normal((28, 8)))):
        assert nm.integrability_residual(amb.structure, t) == max(
            nm.integrability_residual(c, t) for c in complexes)
        assert abelian_residual(amb.structure, t) == max(
            abelian_residual(c, t) for c in complexes)


@pytest.mark.parametrize("gamma", [nm.no_structure(6),
                                   nm.standard_structure("symplectic", 6)])
def test_abelian_residual_needs_complex_maps(gamma):
    with pytest.raises(nm.WrongTag):
        abelian_residual(gamma, nm.m26_point(1.0, 0.0).tensor)


@pytest.mark.parametrize("scale", [1e8, 1e-8])
@pytest.mark.parametrize("preset", ["m26", "iwasawa-curve", "hc-g3"])
def test_scaled_compatible_metric_is_accepted(preset, scale):
    # (act(phi^-1, mu), phi^T phi) is isometric to the minimal (mu, I) for
    # phi in the structure group; compatibility does not see the metric's
    # scale, since sp(s omega) = sp(omega) and J^2 = -I fixes no scale
    p = nm.catalog_get(preset)
    rng = np.random.default_rng(61)
    basis = algebra_reference(p.structure).sym_basis
    xi = combine(rng.standard_normal(len(basis)), basis)
    phi = expm(0.5 * xi / np.linalg.norm(xi))
    G = nm.Metric(scale * phi.T @ phi)
    assert nm.compatibility_residual(p.structure, G) <= TOL_COMPAT
    tensor = nm.act(np.linalg.inv(phi), p.tensor)
    assert nm.certify_minimal(tensor, G, p.structure).minimal


def test_symplectic_metric_off_the_cone_is_rejected():
    # diag(1, 2, 1, 1, 1, 1) is not compatible with the standard form up to
    # any factor: kappa = 5/6 and the residual is (1 - 5/6) / (5/6) = 0.4
    p = nm.m26_point(1.0, 0.0)
    G = nm.Metric(np.diag([1.0, 2, 1, 1, 1, 1]))
    assert nm.compatibility_residual(p.structure, G) == pytest.approx(0.4, rel=1e-12)
    with pytest.raises(nm.IncompatibleMetric, match="residual 0.4"):
        nm.certify_minimal(p.tensor, G, p.structure)
    with pytest.raises(nm.IncompatibleMetric):
        structure_algebra(p.structure, G)
    with pytest.raises(nm.IncompatibleMetric):
        nm.metric_flow(p.tensor, p.structure, G, nm.FlowConfig(horizon=0.1))


def test_compatibility_has_no_scale_keyword():
    # the cone of metrics compatible up to a factor is the only notion, so
    # the keyword that chose the strict one is gone from every entry point
    p = nm.m26_point(1.0, 0.0)
    G = nm.Metric.identity(6)
    removed = {"allow_" "scale": True}
    calls = (lambda: nm.certify_minimal(p.tensor, G, p.structure, **removed),
             lambda: nm.invariant_ricci(p.tensor, G, p.structure, **removed),
             lambda: nm.functional_F(p.tensor, p.structure, G, **removed),
             lambda: nm.curvature_report(p.tensor, G, p.structure, **removed),
             lambda: nm.fingerprint(p.tensor, G, p.structure, **removed),
             lambda: invariant_projection(p.structure, G, np.eye(6), **removed))
    for call in calls:
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("kind", ["symplectic", "complex", "hypercomplex"])
def test_check_and_entry_points_share_one_compatibility_verdict(kind):
    # G = phi^T phi + eps max|phi^T phi| S near the compatible metrics, phi
    # the exp of a structure-algebra element of norm <= 3, S symmetric with
    # entries in [-1, 1], eps log-uniform in [1e-11, 1e-6]; check's verdict
    # and the strict projection's must agree on every draw
    n = 8 if kind == "hypercomplex" else 6
    gamma = nm.standard_structure(kind, n)
    basis = group_reference(gamma)
    rng = np.random.default_rng(67)
    verdicts = []
    for _ in range(1000):
        xi = combine(rng.standard_normal(len(basis)), basis)
        phi = scipy.linalg.expm(rng.uniform(0.0, 3.0) * xi / np.linalg.norm(xi))
        G0 = phi.T @ phi
        A = rng.uniform(-1.0, 1.0, (n, n))
        eps = 10.0 ** rng.uniform(-11.0, -6.0)
        G = nm.Metric(G0 + eps * np.abs(G0).max() * 0.5 * (A + A.T))
        try:
            invariant_projection(gamma, G, np.eye(n))
            accepted = True
        except nm.IncompatibleMetric:
            accepted = False
        check = nm.compatibility_residual(gamma, G) <= TOL_COMPAT
        assert check == accepted
        verdicts.append(check)
    assert 0 < sum(verdicts) < len(verdicts)


def test_structure_algebra_dimensions():
    I6 = nm.Metric.identity(6)
    sa = structure_algebra(nm.standard_structure("symplectic", 6), I6)
    assert len(sa.sym_basis) == 12
    assert sa.skew_dim == 9
    sa = structure_algebra(nm.standard_structure("complex", 6), I6)
    assert len(sa.sym_basis) == 9
    assert sa.skew_dim == 9
    sa = structure_algebra(nm.standard_structure("hypercomplex", 8),
                           nm.Metric.identity(8))
    assert len(sa.sym_basis) == 6
    assert sa.skew_dim == 10


def test_structure_algebra_symplectic_parts():
    gamma = nm.standard_structure("symplectic", 6)
    sa = structure_algebra(gamma, nm.Metric.identity(6))
    assert (len(sa.sym_basis), sa.skew_dim) == (12, 9)
    om = gamma.payload
    for B in sa.sym_basis + sa.skew_basis:
        assert np.abs(B.T @ om + om @ B).max() < 1e-10


def _span_gap(A, B):
    """sin of the largest principal angle between the spans of two lists
    of matrices of the same length."""
    QA, QB = (np.linalg.qr(np.reshape(M, (len(M), -1)).T)[0] for M in (A, B))
    return np.linalg.norm(QA @ QA.T - QB @ QB.T, 2)


@pytest.mark.parametrize("kind,n,sym,skew,at", [
    (kind, n, sym, skew, at)
    for kind, n, sym, skew in (("symplectic", 6, 12, 9), ("complex", 6, 9, 9),
                               ("hypercomplex", 8, 6, 10))
    for at in ("identity", "compatible")]
    + [("hc-g3 + hc-g3", 16, 28, 36, "identity")])
def test_structure_algebra_spans_the_reference(kind, n, sym, skew, at):
    # each part is an orthonormal basis in the G-orthonormal frame of the
    # span of the constraint-nullspace reference; a compatible G = phi^T
    # phi, phi = exp(xi) with xi in the reference algebra of a rotated
    # structure, makes the frame maps differ from the original ones
    rng = np.random.default_rng(71)
    if kind == "hc-g3 + hc-g3":  # block-diagonal maps
        gamma = nm.hypercomplex_structure(*(
            np.kron(np.eye(2), J) for J in nm.catalog_get("hc-g3").structure.payload))
    elif at == "identity":
        gamma = nm.standard_structure(kind, n)
    else:
        gamma = rotated_structure(kind, n, rng)
    G = nm.Metric.identity(n)
    if at == "compatible":
        basis = algebra_reference(gamma).sym_basis
        phi = expm(0.3 * combine(rng.standard_normal(len(basis)), basis))
        G = nm.Metric(phi.T @ phi)
        assert np.abs(G.matrix - np.eye(n)).max() > 0.05
    got, want = structure_algebra(gamma, G), algebra_reference(gamma, G)
    assert (len(got.sym_basis), got.skew_dim) == (sym, skew)
    h, hinv = G.transport, G.transport_inv
    for part, ref, sign in ((got.sym_basis, want.sym_basis, 1.0),
                            (got.skew_basis, want.skew_basis, -1.0)):
        assert len(part) == len(ref)
        assert _span_gap(part, ref) <= 1e-12
        frame = np.array([h @ B @ hinv for B in part])
        assert np.abs(frame - sign * frame.swapaxes(1, 2)).max() <= 1e-12
        gram = np.tensordot(frame, frame, ([1, 2], [1, 2]))
        assert np.abs(gram - np.eye(len(part))).max() <= 1e-12


def test_structure_algebra_ignores_the_scale_of_a_symplectic_metric():
    # a metric compatible up to a factor has the structure algebra of I
    gamma = nm.standard_structure("symplectic", 6)
    got = structure_algebra(gamma, nm.Metric(2.5 * np.eye(6)))
    want = structure_algebra(gamma, nm.Metric.identity(6))
    assert (len(got.sym_basis), got.skew_dim) == (12, 9)
    assert _span_gap(got.sym_basis, want.sym_basis) <= 1e-12


def _literal_projection(gamma, payload0, S):
    """(S + s sum_k J_k S J_k) / (1 + k) on a symmetric S, summed in the
    order of the maps, s = +1 for the symplectic map and -1 otherwise."""
    s = 1.0 if gamma.tag == "symplectic" else -1.0
    out = S
    for J in payload0:
        out = out + s * (J @ S @ J)
    return out / (1 + len(payload0))


def _frames():
    """(gamma, G) for each class at I and, rotated, at a compatible
    non-identity metric."""
    rng = np.random.default_rng(73)
    frames = []
    for kind, n in (("symplectic", 6), ("complex", 6), ("hypercomplex", 8)):
        gamma = nm.standard_structure(kind, n)
        frames.append((gamma, nm.Metric.identity(n)))
        gamma = rotated_structure(kind, n, rng)
        basis = algebra_reference(gamma).sym_basis
        phi = expm(0.3 * combine(rng.standard_normal(len(basis)), basis))
        frames.append((gamma, nm.Metric(phi.T @ phi)))
    return frames


FRAMES = _frames()
_entries = st.floats(1e-6, 1e3) | st.floats(-1e3, -1e-6) | st.just(0.0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(FRAMES))),
       st.lists(_entries, min_size=3 * 64, max_size=3 * 64))
def test_frame_projection_is_the_orthogonal_projector(index, entries):
    # the matrix P on arbitrary X (symmetric plus skew): idempotent,
    # self-adjoint in the trace inner product, symmetric to symmetric and
    # skew to skew, with an image in the structure algebra; on symmetric X,
    # the literal reflection formula to rounding, alone and as a (k, n, n)
    # batch
    gamma, G = FRAMES[index]
    payload0 = _frame_maps(gamma, G)[0]
    matrix = _frame_projector(gamma, G)
    n = gamma.dim
    X, Y, Z = np.reshape(entries[:3 * n * n], (3, n, n))
    scale = 1.0 + np.abs(X).max() * np.abs(Y).max()

    def P(M):
        return (M.reshape(-1, n * n) @ matrix.T).reshape(M.shape)

    PX = P(X)
    assert np.abs(P(PX) - PX).max() <= 1e-12 * (1.0 + np.abs(X).max())
    assert abs(np.sum(PX * Y) - np.sum(X * P(Y))) <= 1e-12 * n * n * scale
    S, K = X + X.T, X - X.T
    for M, sign in ((S, 1.0), (K, -1.0)):
        PM = P(M)
        assert np.abs(PM - sign * PM.T).max() <= 1e-12 * (1.0 + np.abs(M).max())
    bound = 1e-12 * (1.0 + np.abs(X).max())
    for J in payload0:
        defect = (PX.T @ J + J @ PX if gamma.tag == "symplectic"
                  else PX @ J - J @ PX)
        assert np.abs(defect).max() <= bound
    bound = 1e-15 * (1.0 + np.abs(S).max())
    assert np.abs(P(S) - _literal_projection(gamma, payload0, S)).max() <= bound
    batch = np.stack([X, Y, Z])
    batch = batch + batch.swapaxes(1, 2)
    bound = 1e-15 * (1.0 + np.abs(batch).max())
    assert np.abs(P(batch)
                  - _literal_projection(gamma, payload0, batch)).max() <= bound


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(FRAMES))),
       st.lists(_entries, min_size=64, max_size=64))
def test_frame_projector_is_the_projection_on_symmetric_maps(index, entries):
    # the kernel's (n^2, n^2) matrix on the row-major vec(S) of a symmetric S
    # is the literal reflection formula to rounding.  The product is
    # symmetric only to rounding (BLAS rounds mirrored rows differently), so
    # the kernel mirrors its upper triangle (test_curvature checks that
    # image is exact)
    gamma, G = FRAMES[index]
    payload0 = _frame_maps(gamma, G)[0]
    n = gamma.dim
    X = np.reshape(entries[:n * n], (n, n))
    S = X + X.T
    P = _frame_projector(gamma, G)
    assert P.shape == (n * n, n * n)
    PS = (P @ S.ravel()).reshape(n, n)
    bound = 1e-15 * (1.0 + np.abs(S).max())
    assert np.abs(PS - _literal_projection(gamma, payload0, S)).max() <= bound


def test_structure_algebra_members_satisfy_frame_constraint():
    gamma = nm.standard_structure("complex", 6)
    sa = structure_algebra(gamma, nm.Metric.identity(6))
    J = gamma.payload
    for A in sa.sym_basis:
        assert np.abs(A @ J - J @ A).max() < 1e-10
        assert np.abs(A - A.T).max() < 1e-10


def test_projection_closed_equals_basis():
    rng = np.random.default_rng(23)
    for kind, n in (("symplectic", 6), ("complex", 6), ("hypercomplex", 8)):
        gamma = nm.standard_structure(kind, n)
        G = nm.Metric.identity(n)
        for _ in range(10):
            A = rng.standard_normal((n, n))
            S = 0.5 * (A + A.T)
            P1 = invariant_projection(gamma, G, S)
            P2 = basis_projection(gamma, S)
            assert np.abs(P1 - P2).max() < 1e-9


def test_projection_idempotent_and_self_adjoint():
    rng = np.random.default_rng(29)
    for kind, n in (("symplectic", 6), ("complex", 6), ("hypercomplex", 8)):
        gamma = nm.standard_structure(kind, n)
        G = nm.Metric.identity(n)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        S, T = 0.5 * (A + A.T), 0.5 * (B + B.T)
        PS = invariant_projection(gamma, G, S)
        PT = invariant_projection(gamma, G, T)
        assert np.abs(invariant_projection(gamma, G, PS) - PS).max() < 1e-10
        assert np.sum(PS * T) == pytest.approx(np.sum(S * PT), abs=1e-10)


def test_symplectic_projection_anticommutes_with_jmap():
    rng = np.random.default_rng(31)
    gamma = nm.standard_structure("symplectic", 6)
    G = nm.Metric.identity(6)
    J = gamma.payload
    A = rng.standard_normal((6, 6))
    S = 0.5 * (A + A.T)
    P = invariant_projection(gamma, G, S)
    assert np.abs(P @ J + J @ P).max() < 1e-10


def test_complex_projection_commutes_with_j():
    rng = np.random.default_rng(37)
    gamma = nm.standard_structure("complex", 6)
    G = nm.Metric.identity(6)
    J = gamma.payload
    A = rng.standard_normal((6, 6))
    S = 0.5 * (A + A.T)
    P = invariant_projection(gamma, G, S)
    assert np.abs(P @ J - J @ P).max() < 1e-10


def test_projection_under_transported_metric():
    # G0 = phi^T phi with phi = exp(xi), xi symmetric in the structure
    # algebra, so phi is in the structure group and Q = h0 phi^-1 is
    # orthogonal.  Q carries the identity-metric constraint-nullspace basis
    # into the G0-frame, where the reflection formula must expand against
    # it; a symplectic metric kappa G0 has the structure algebra of G0.
    # The standard structure is rotated first (rotated_structure).
    rng = np.random.default_rng(41)
    for kind, n, kappa in (("symplectic", 6, 1.0), ("symplectic", 6, 2.5),
                           ("complex", 6, 1.0), ("hypercomplex", 8, 1.0)):
        gamma = rotated_structure(kind, n, rng)
        basis = algebra_reference(gamma).sym_basis
        xi = sum(c * B for c, B in zip(rng.standard_normal(len(basis)), basis))
        phi = expm(0.3 * xi / np.linalg.norm(xi))
        G0 = nm.Metric(phi.T @ phi)
        assert nm.compatibility_residual(gamma, G0) < 1e-10
        assert np.abs(G0.matrix - np.eye(n)).max() > 0.05
        G = nm.Metric(kappa * G0.matrix)
        Q = G0.transport @ np.linalg.inv(phi)
        assert np.abs(Q.T @ Q - np.eye(n)).max() < 1e-12
        frame_basis = [Q @ B @ Q.T for B in basis]
        h, hinv = G.transport, G.transport_inv
        for _ in range(5):
            A = rng.standard_normal((n, n))
            S0 = 0.5 * (A + A.T)
            P = invariant_projection(gamma, G, hinv @ S0 @ h)
            want = sum(float(np.sum(S0 * B)) * B for B in frame_basis)
            assert np.abs(h @ P @ hinv - want).max() < 1e-9
            assert np.abs(want - S0).max() > 0.1


def test_no_structure_projection_is_identity():
    gamma = nm.no_structure(5)
    S = np.diag([1.0, 2, 3, 4, 5])
    P = invariant_projection(gamma, nm.Metric.identity(5), S)
    assert np.abs(P - S).max() < TOL


def test_integrable_subspace_dimensions():
    gamma = nm.standard_structure("hypercomplex", 8)
    assert nm.integrable_subspace_dim(gamma, "two_step", n1=4, n2=4) == 16
    assert nm.integrable_subspace_dim(gamma, "two_step", n1=4, n2=4,
                                      abelian=True) == 12


@pytest.mark.parametrize("n", [4, 6, 8])
def test_integrable_subspace_full_ambient_closed_forms(n):
    # all of V, n C(n,2); closedness cuts one condition per triple; for a
    # complex J, n = 2m, the Nijenhuis tensor ranges over the (0,2)-forms
    # with (1,0)-values, of real dimension 2m C(m,2)
    m = n // 2
    full = n * comb(n, 2)
    assert nm.integrable_subspace_dim(nm.no_structure(n)) == full
    assert nm.integrable_subspace_dim(
        nm.standard_structure("symplectic", n)) == full - comb(n, 3)
    assert nm.integrable_subspace_dim(
        nm.standard_structure("complex", n)) == full - 2 * m * comb(m, 2)


def test_integrable_subspace_split_mismatch():
    gamma = nm.standard_structure("hypercomplex", 8)
    with pytest.raises(nm.SplitMismatch):
        nm.integrable_subspace_dim(gamma, "two_step", n1=3, n2=5)


def test_ambient_bases_dimensions():
    assert len(graded_ambient_basis(4, 2)) == 12
    assert len(graded_ambient_basis(4, 4)) == 24
    assert len(full_ambient_basis(6)) == 90


def test_integrability_defect_linear():
    gamma = nm.standard_structure("symplectic", 6)
    a = nm.SkewTensor.from_entries(6, [(1, 2, 3, 1.0)])
    b = nm.SkewTensor.from_entries(6, [(1, 3, 5, 1.0)])
    lhs = integrability_defect(gamma, a.plus(b, 2.0))
    rhs = integrability_defect(gamma, a) + 2.0 * integrability_defect(gamma, b)
    assert np.abs(lhs - rhs).max() < TOL

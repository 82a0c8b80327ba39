"""Ricci operator, scalar curvature, moment map and the functional."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import ortho_group

import nilmetric as nm

from conftest import (algebra_reference, basis_projection, bench_module,
                      count_kernel_calls, group_reference,
                      moment_map_reference)

TOL = 1e-12


def test_heisenberg_goldens():
    t = nm.heisenberg().tensor
    assert np.abs(nm.ricci_operator(t) - np.diag([-0.5, -0.5, 0.5])).max() < TOL
    assert np.abs(nm.moment_map(t) - np.diag([-4.0, -4.0, 4.0])).max() < TOL
    assert nm.scalar_curvature(t) == pytest.approx(-0.5, abs=TOL)
    assert nm.functional_F(t) == pytest.approx(3.0 / 16.0, abs=TOL)


def test_m26_goldens():
    p = nm.m26_point(1.0, 0.0)
    ric = nm.ricci_operator(p.tensor)
    assert np.abs(ric - np.diag([-1.5, -1.5, -0.5, 0.0, 0.0, 1.0])).max() < 1e-13
    ric_g = nm.invariant_ricci(p.tensor, nm.Metric.identity(6), p.structure)
    want = -0.25 * np.diag([5.0, 3.0, 1.0, -1.0, -3.0, -5.0])
    assert np.abs(ric_g - want).max() < 1e-13
    assert nm.scalar_curvature(p.tensor) == pytest.approx(-2.5, abs=TOL)
    assert nm.functional_F(p.tensor, p.structure) == pytest.approx(
        7.0 / 160.0, abs=1e-15)


def test_complex_curve_goldens():
    for t_par in (1.0, 1.5, 2.0, 3.0):
        p = nm.complex_curve(t_par)
        s2 = 2.0 + t_par**2 + (2.0 - t_par) ** 2
        ric_g = nm.invariant_ricci(p.tensor, nm.Metric.identity(6), p.structure)
        want = 0.25 * s2**2 * np.diag([-1, -1, -1, -1, 1, 1.0])
        assert np.abs(ric_g - want).max() < 1e-10 * s2**2
        assert nm.functional_F(p.tensor, p.structure) == pytest.approx(
            3.0 / 32.0, abs=1e-14)


def test_hypercomplex_center_block():
    r, s, t = 0.3, 0.55, 0.8
    p = nm.hypercomplex_family(r, s, t)
    ric = nm.ricci_operator(p.tensor)
    want = 0.5 * np.diag([0.0,
                          r * r + (1 - r) ** 2,
                          s * s + (1 - s) ** 2,
                          t * t + (1 - t) ** 2])
    assert np.abs(ric[4:, 4:] - np.diag(np.diag(ric[4:, 4:]))).max() < TOL
    assert np.abs(np.sort(np.diag(ric[4:, 4:])) - np.sort(np.diag(want))).max() < 1e-12


def test_moment_map_is_eight_ricci(bracket_corpus):
    for t in bracket_corpus:
        dev = np.abs(nm.moment_map(t) - moment_map_reference(t)).max()
        assert dev <= 1e-10 * (1.0 + t.norm2())


def test_scalar_identity(bracket_corpus):
    for t in bracket_corpus:
        dev = abs(nm.scalar_curvature(t) + 0.25 * t.norm2())
        assert dev <= 1e-12 * (1.0 + t.norm2())


def test_ricci_orthogonal_equivariance():
    rng = np.random.default_rng(13)
    t = nm.m26_point(1.0, 0.0).tensor
    for _ in range(5):
        q = ortho_group.rvs(6, random_state=rng)
        lhs = nm.ricci_operator(nm.act(q, t))
        rhs = q @ nm.ricci_operator(t) @ q.T
        assert np.abs(lhs - rhs).max() < 1e-12


def test_ricci_metric_vs_transported_bracket():
    # evaluating at (mu, G) equals evaluating the transported bracket at I,
    # conjugated back
    rng = np.random.default_rng(17)
    t = nm.complex_curve(2.0).tensor
    A = rng.standard_normal((6, 6))
    G = nm.Metric(np.eye(6) + 0.1 * (A + A.T) + 0.5 * np.diag(np.ones(6)))
    R = nm.ricci_operator(t, G)
    h = G.transport
    R0 = nm.ricci_operator(nm.act(h, t))
    assert np.abs(R - np.linalg.inv(h) @ R0 @ h).max() < 1e-10


def test_ricci_is_g_self_adjoint():
    rng = np.random.default_rng(19)
    t = nm.m26_point(1.0, 0.0).tensor
    A = rng.standard_normal((6, 6))
    G = nm.Metric(np.eye(6) + 0.1 * (A + A.T) + np.eye(6))
    R = nm.ricci_operator(t, G)
    assert np.abs(G.matrix @ R - R.T @ G.matrix).max() < 1e-10


# entries bounded away from underflow: |mu|^2 |A| stays a normal float
_entries = st.floats(1e-6, 1e3) | st.floats(-1e3, -1e-6) | st.just(0.0)


@st.composite
def tensor_and_symmetric(draw):
    """Any skew tensor of dim 2..8 (Jacobi not required) and any symmetric
    map of the same dim."""
    n = draw(st.integers(2, 8))
    pairs = n * (n - 1) // 2
    mu = draw(st.lists(_entries, min_size=pairs * n, max_size=pairs * n))
    B = np.reshape(draw(st.lists(_entries, min_size=n * n, max_size=n * n)),
                   (n, n))
    return nm.SkewTensor(n, np.reshape(mu, (pairs, n))), 0.5 * (B + B.T)


@settings(max_examples=80, deadline=None)
@given(tensor_and_symmetric())
def test_moment_map_identity(case):
    # <delta_mu(A), mu> = 4 tr(Ric_mu A) on all of V: the radial part of the
    # coboundary of Ric^gamma is the -c mu of the split Ric^gamma = c I + D
    mu, A = case
    lhs = nm.inner(nm.coboundary(mu, A), mu)
    rhs = 4.0 * float(np.trace(nm.ricci_operator(mu) @ A))
    assert abs(lhs - rhs) <= 1e-12 * mu.norm2() * np.linalg.norm(A)


def test_soliton_split_is_tangential_and_certified():
    # delta_mu(D) is orthogonal to mu, and at a minimal bracket the split
    # is the certificate's (c, D)
    p = nm.m26_point(1.0, 0.0)
    P = nm.structures._frame_projector(p.structure, nm.Metric.identity(6))
    g = np.eye(6) + 0.2 * np.random.default_rng(5).standard_normal((6, 6))
    for mu in (nm.act(g, p.tensor), p.tensor):
        point = nm.curvature.frame_kernel(mu.coeffs, P)
        c, D, norm2 = point.c, point.D, point.norm2
        assert np.array_equal(D, point.ric_gamma - c * np.eye(6))
        assert abs(nm.inner(nm.coboundary(mu, D), mu)) <= 1e-13 * norm2 * (
            1.0 + np.linalg.norm(D))
    cert = nm.certify_minimal(p.tensor, gamma=p.structure)
    assert cert.c == c and np.array_equal(cert.D, D)
    assert nm.curvature.frame_kernel(np.zeros((3, 3)), np.eye(9)).c == 0.0


def test_scalar_negative_for_nonabelian(bracket_corpus):
    for t in bracket_corpus:
        assert nm.scalar_curvature(t) < 0.0


def test_functional_scale_invariance():
    t = nm.m26_point(1.0, 0.0).tensor
    gamma = nm.m26_point(1.0, 0.0).structure
    assert nm.functional_F(t.scaled(3.0), gamma) == pytest.approx(
        nm.functional_F(t, gamma), abs=1e-14)


def test_functional_rejects_zero():
    with pytest.raises(nm.ZeroTensor):
        nm.functional_F(nm.SkewTensor.zero(4))


def test_curvature_report_fields():
    p = nm.m26_point(1.0, 0.0)
    rep = nm.curvature_report(p.tensor, gamma=p.structure)
    assert rep.scal == pytest.approx(-2.5, abs=TOL)
    assert rep.F_value == pytest.approx(7.0 / 160.0, abs=1e-14)
    assert rep.eigen_ric == sorted(rep.eigen_ric)
    assert np.abs(np.array(rep.eigen_ric_gamma)
                  - np.linspace(-1.25, 1.25, 6)).max() < 1e-12
    assert np.abs(rep.moment - 8.0 * rep.ric).max() < 1e-12


def test_invariant_ricci_none_structure_is_ricci():
    t = nm.heisenberg().tensor
    R1 = nm.invariant_ricci(t, nm.Metric.identity(3), nm.no_structure(3))
    assert np.abs(R1 - nm.ricci_operator(t)).max() < TOL
    # the metric and the structure default to the identity and none
    assert np.array_equal(nm.invariant_ricci(t), R1)
    assert np.array_equal(nm.invariant_ricci(t, None, nm.no_structure(3)), R1)


def test_curvature_report_calls_kernel_once(monkeypatch):
    p = nm.m26_point(1.0, 0.0)
    calls = count_kernel_calls(monkeypatch, "nilmetric.curvature")
    nm.curvature_report(p.tensor, gamma=p.structure)
    assert len(calls) == 1


def test_frame_kernel_matches_entry_points():
    # in the G-orthonormal frame the kernel gives the transported operators
    p = nm.complex_curve(1.5)
    rng = np.random.default_rng(43)
    basis = algebra_reference(p.structure).sym_basis
    xi = sum(c * B for c, B in zip(rng.standard_normal(len(basis)), basis))
    G = nm.Metric(np.linalg.matrix_power(np.eye(6) + 0.1 * xi, 2))
    h, hinv = G.transport, G.transport_inv
    P = nm.structures._frame_projector(p.structure, G)
    mu0 = nm.act(h, p.tensor)
    ric0, ric_gamma0, norm2 = nm.curvature.frame_kernel(mu0.coeffs, P)[:3]
    assert np.abs(ric0 - ric0.T).max() == 0.0
    assert np.abs(ric_gamma0 - ric_gamma0.T).max() == 0.0
    ric = nm.ricci_operator(p.tensor, G)
    ric_gamma = nm.invariant_ricci(p.tensor, G, p.structure)
    assert np.abs(h @ ric @ hinv - ric0).max() < 1e-12
    assert np.abs(h @ ric_gamma @ hinv - ric_gamma0).max() < 1e-12
    assert -0.25 * norm2 == pytest.approx(nm.scalar_curvature(p.tensor, G),
                                          rel=1e-14)


@pytest.mark.parametrize("name", ["heisenberg", "m26", "iwasawa-curve",
                                  "hc-g3"])
def test_frame_kernel_certificate_matches_the_oracle(name):
    # at a perturbed compatible metric, in the Cholesky frame: c and D
    # against bench/oracle.py (eigh frame, least-squares c), and the
    # defect rows against the general coboundary of the kernel's D
    oracle = bench_module("oracle")
    p = nm.catalog_get(name)
    basis = group_reference(p.structure)
    rng = np.random.default_rng(27)
    xi = sum(c * B for c, B in zip(rng.standard_normal(len(basis)), basis))
    phi = expm(0.25 * np.sqrt(len(basis)) / np.linalg.norm(xi) * xi)
    G = nm.Metric(phi.T @ phi)
    P = nm.structures._frame_projector(p.structure, G)
    mu0 = nm.act(G.transport, p.tensor)
    point = nm.curvature.frame_kernel(mu0.coeffs, P)
    c, D, _ = oracle.Curvature(
        p.tensor.full(), G.matrix,
        (p.structure.tag, p.structure.payload)).certificate()
    assert abs(point.c - c) <= 1e-12 * abs(c)
    got = G.transport_inv @ point.D @ G.transport
    assert np.abs(got - D).max() <= 1e-12 * np.abs(D).max()
    want = nm.coboundary(mu0, point.D).coeffs
    scale = np.abs(point.D).max() * np.abs(mu0.coeffs).max()
    assert np.abs(point.defect - want).max() <= 1e-14 * scale


def _direct_sum(p, q):
    """(bracket, structure) of the direct sum of two presets of one class:
    block-diagonal full array and block-diagonal maps."""
    n1, n = p.tensor.dim, p.tensor.dim + q.tensor.dim
    T = np.zeros((n, n, n))
    T[:n1, :n1, :n1], T[n1:, n1:, n1:] = p.tensor.full(), q.tensor.full()

    def block(A, B):
        M = np.zeros((n, n))
        M[:n1, :n1], M[n1:, n1:] = A, B
        return M

    maps = zip(p.structure.maps() or (p.structure.payload,),
               q.structure.maps() or (q.structure.payload,))
    build = getattr(nm, f"{p.structure.tag}_structure")
    return nm.SkewTensor.from_full(T), build(*(block(A, B) for A, B in maps))


@pytest.mark.parametrize("case", ["heisenberg", "m26", "hc-g3", "m26+m26",
                                  "hc-g3+hc-g3"])
def test_frame_kernel_ricci_matches_the_reference(case):
    # on pair rows: Ric = 0.5 (C^T C - F F^T) is the moment map reference
    # / 8 and exactly symmetric (both products are the symmetric rank-k
    # update), and the mirrored Ric^gamma = P vec(Ric) is exactly symmetric
    # too and is Ric expanded against the reference basis of the symmetric
    # structure algebra; n = 3, 6, 8, 12 and 16, at generic brackets of each
    # orbit
    names = case.split("+")
    p = nm.catalog_get(names[0])
    tensor, gamma = ((p.tensor, p.structure) if len(names) == 1
                     else _direct_sum(p, nm.catalog_get(names[1])))
    n = tensor.dim
    rng = np.random.default_rng(24)
    mu = nm.act(np.eye(n) + 0.2 * rng.standard_normal((n, n)), tensor)
    P = nm.structures._frame_projector(gamma, nm.Metric.identity(n))
    ric, ric_gamma, norm2 = nm.curvature.frame_kernel(mu.coeffs, P)[:3]
    assert np.abs(ric - moment_map_reference(mu) / 8.0).max() <= 1e-14 * (
        1.0 + mu.norm2())
    assert np.array_equal(ric, ric.T)
    assert np.array_equal(ric_gamma, ric_gamma.T)
    want = basis_projection(gamma, ric)
    assert np.abs(ric_gamma - want).max() <= 1e-14 * (1.0 + np.abs(ric).max())
    assert norm2 == mu.norm2()


@pytest.mark.parametrize("name, length", [
    ("heisenberg", 0), ("m26", 1), ("iwasawa-curve", 1), ("hc-g3", 3)])
def test_frame_payload_is_a_tuple_of_maps(name, length):
    # every class reaches the kernel as a tuple of maps with J^2 = -I
    p = nm.catalog_get(name)
    n = p.tensor.dim
    I = nm.Metric.identity(n)
    payload0 = nm.structures._frame_maps(p.structure, I)[0]
    assert isinstance(payload0, tuple) and len(payload0) == length
    for J0 in payload0:
        assert np.abs(J0 @ J0 + np.eye(n)).max() < TOL
    ric, ric_gamma, norm2 = nm.curvature.frame_kernel(
        p.tensor.coeffs,
        nm.structures._frame_projector(p.structure, I))[:3]
    assert np.array_equal(ric, nm.ricci_operator(p.tensor))
    assert np.array_equal(ric_gamma,
                          nm.invariant_ricci(p.tensor, I, p.structure))
    assert norm2 == p.tensor.norm2()

"""Geometric structures, compatibility, integrability and projections."""

import numpy as np
import pytest

import nilmetric as nm
from nilmetric.structures import (
    abelian_residual,
    integrability_defect,
    invariant_projection,
    structure_algebra,
    graded_ambient_basis,
    full_ambient_basis,
)

from conftest import basis_projection

TOL = 1e-12


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


def test_metric_jmap_and_compatibility_at_identity():
    gamma = nm.standard_structure("symplectic", 6)
    G = nm.Metric.identity(6)
    J = nm.metric_jmap(gamma, G)
    assert np.abs(J - gamma.payload).max() < TOL
    assert nm.compatibility_residual(gamma, G) < TOL


def test_scaled_metric_needs_allow_scale():
    gamma = nm.standard_structure("symplectic", 6)
    G = nm.Metric(2.0 * np.eye(6))
    R = nm.ricci_operator(nm.m26_point(1.0, 0.0).tensor, G)
    with pytest.raises(nm.IncompatibleMetric):
        invariant_projection(gamma, G, R)
    P = invariant_projection(gamma, G, R, allow_scale=True)
    assert np.all(np.isfinite(P))


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


def test_abelian_residual_golden():
    p = nm.complex_curve(1.0)
    assert abelian_residual(p.structure, p.tensor) == pytest.approx(
        8.0 * np.sqrt(2.0), abs=1e-12)


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


def test_structure_group_basis_symplectic_dimension():
    gamma = nm.standard_structure("symplectic", 6)
    basis = nm.structure_group_basis(gamma, nm.Metric.identity(6))
    assert len(basis) == 21
    om = gamma.payload
    for B in basis:
        assert np.abs(B.T @ om + om @ B).max() < 1e-10


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
    # conjugating the metric by a structure-group element commutes with
    # the projection: P_{g.G}(S) = g^-T P_G(g^T S g^-T) g^T up to frames;
    # checked indirectly through idempotency and symmetry in the G-frame
    rng = np.random.default_rng(41)
    gamma = nm.standard_structure("complex", 6)
    G = nm.Metric(np.eye(6) + 0.2 * np.diag([1, 2, 1, 2, 1, 2.0]))
    if nm.compatibility_residual(gamma, G) < 1e-8:
        A = rng.standard_normal((6, 6))
        S = 0.5 * (A + A.T)
        P = invariant_projection(gamma, G, S)
        assert np.abs(invariant_projection(gamma, G, P) - P).max() < 1e-10


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

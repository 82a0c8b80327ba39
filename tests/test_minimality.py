"""Certification against a 2-step reference, obstruction and fingerprints."""

import numpy as np
import pytest

import nilmetric as nm
from nilmetric.algebra_core import combine, expm

from conftest import algebra_reference, two_step_reference

TOL = 1e-12


def test_m26_certificate_golden():
    p = nm.m26_point(1.0, 0.0)
    cert = nm.certify_minimal(p.tensor, gamma=p.structure)
    assert cert.minimal
    assert cert.c == pytest.approx(-1.75, abs=1e-13)
    assert np.abs(cert.D - 0.5 * np.diag([1, 2, 3, 4, 5, 6.0])).max() < 1e-12
    assert cert.residual <= 1e-12


def test_certificates_across_ellipse():
    for xy in nm.ellipse_points(8):
        p = nm.m26_point(*xy)
        cert = nm.certify_minimal(p.tensor, gamma=p.structure)
        assert cert.minimal
        assert cert.c == pytest.approx(-1.75, abs=1e-12)


def test_heisenberg_certificate():
    t = nm.heisenberg().tensor
    cert = nm.certify_minimal(t)
    assert cert.minimal
    assert cert.c == pytest.approx(-1.5, abs=TOL)
    assert np.abs(cert.D - np.diag([1.0, 1.0, 2.0])).max() < 1e-12


def test_perturbed_point_not_certified():
    rng = np.random.default_rng(3)
    p = nm.m26_point(1.0, 0.0)
    g = np.eye(6) + 0.2 * rng.standard_normal((6, 6))
    cert = nm.certify_minimal(nm.act(g, p.tensor), gamma=None)
    assert cert.verdict in ("Minimal", "NotCertified")
    assert not cert.minimal


def test_certificate_tolerance_env(monkeypatch):
    rng = np.random.default_rng(3)
    p = nm.m26_point(1.0, 0.0)
    g = np.eye(6) + 0.01 * rng.standard_normal((6, 6))
    moved = nm.act(g, p.tensor)
    strict = nm.certify_minimal(moved)
    monkeypatch.setenv("NILMETRIC_TOL", "1e3")
    loose = nm.certify_minimal(moved)
    assert not strict.minimal
    assert loose.minimal
    assert loose.tolerance == pytest.approx(1e3)


def test_shortcut_agrees_with_general_certificate():
    # certify_minimal against the closed-form 2-step reference
    points = [nm.complex_curve(t) for t in (1.0, 1.5, 2.5)]
    points += [nm.heisenberg(), nm.hc_g3_point()]
    for p in points:
        cert = nm.certify_minimal(p.tensor, gamma=p.structure)
        c, D = two_step_reference(p.tensor, p.structure)
        assert cert.minimal
        assert cert.c == pytest.approx(c, abs=1e-12)
        assert np.abs(cert.D - D).max() < 1e-11


def test_shortcut_heisenberg():
    c, _ = two_step_reference(nm.heisenberg().tensor)
    assert c == pytest.approx(-1.5, abs=TOL)
    cert = nm.certify_minimal(nm.heisenberg().tensor)
    assert cert.minimal
    assert cert.c == pytest.approx(-1.5, abs=TOL)


def test_obstruction_golden_m26():
    p = nm.m26_point(1.0, 0.0)
    rep = nm.hermitian_obstruction(p.tensor, gamma=p.structure)
    assert rep.status == "Obstructed"
    assert rep.obstruction_norm**2 == pytest.approx(70.0 / 16.0, abs=1e-12)


def test_obstruction_abelian():
    gamma = nm.standard_structure("symplectic", 6)
    rep = nm.hermitian_obstruction(nm.SkewTensor.zero(6), gamma=gamma)
    assert rep.status == "Abelian"
    assert rep.obstruction_norm == 0.0
    rep = nm.hermitian_obstruction(nm.SkewTensor.zero(6), nm.Metric.identity(6),
                                   gamma)
    assert rep.status == "Abelian"
    # the zero bracket is checked like any other before it reads Abelian
    with pytest.raises(nm.DimensionMismatch):
        nm.hermitian_obstruction(nm.SkewTensor.zero(4), nm.Metric.identity(6),
                                 nm.standard_structure("symplectic", 4))


def test_obstruction_requires_closedness():
    gamma = nm.standard_structure("symplectic", 6)
    open_tensor = nm.symplectic_family(1.0, 1.0, 1.0, 1.0, 1.0, 0.5).tensor
    with pytest.raises(nm.NotClosed):
        nm.hermitian_obstruction(open_tensor, gamma=gamma)


def test_obstruction_requires_symplectic():
    with pytest.raises(nm.WrongTag):
        nm.hermitian_obstruction(nm.heisenberg().tensor,
                                 gamma=nm.no_structure(3))


def test_fingerprint_fields():
    p = nm.m26_point(1.0, 0.0)
    fp = nm.fingerprint(p.tensor, gamma=p.structure)
    assert fp.dim == 6
    assert fp.lcs_dims == [6, 4, 3, 1, 0]
    assert fp.scal == pytest.approx(-2.5, abs=TOL)
    assert np.abs(np.array(fp.eigen_ric_gamma)
                  - np.linspace(-1.25, 1.25, 6)).max() < 1e-12


def test_distinguish_curve_parameters():
    a = nm.fingerprint(nm.complex_curve(1.0).tensor,
                       gamma=nm.complex_curve(1.0).structure)
    b = nm.fingerprint(nm.complex_curve(3.0).tensor,
                       gamma=nm.complex_curve(3.0).structure)
    verdict = nm.distinguish(a, b)
    assert verdict == "Distinct"


def test_distinguish_same_point():
    a = nm.fingerprint(nm.complex_curve(2.0).tensor,
                       gamma=nm.complex_curve(2.0).structure)
    assert nm.distinguish(a, a) == "Indistinguishable"


def test_distinguish_m26_endpoints():
    a = nm.fingerprint(nm.m26_point(1.0, 0.0).tensor)
    b = nm.fingerprint(nm.m26_point(0.0, 1.0).tensor)
    assert nm.distinguish(a, b) == "Distinct"  # lower central series differ


def test_distinguish_is_up_to_scaling():
    m26 = nm.m26_point(1.0, 0.0).tensor
    a = nm.fingerprint(m26)
    b = nm.fingerprint(m26.scaled(2.0))
    assert b.scal == pytest.approx(4.0 * a.scal)  # raw values are kept
    assert nm.distinguish(a, b) == "Indistinguishable"


def test_distinguish_zero_bracket():
    zero = nm.fingerprint(nm.SkewTensor.zero(6))
    assert nm.distinguish(zero, zero) == "Indistinguishable"
    other = nm.fingerprint(nm.m26_point(1.0, 0.0).tensor)
    assert nm.distinguish(zero, other) == "Distinct"
    # the explicit check, not the series dimensions, separates them here
    same_series = nm.Fingerprint(dim=6, eigen_ric=other.eigen_ric,
                                 eigen_ric_gamma=other.eigen_ric_gamma,
                                 scal=other.scal, lcs_dims=zero.lcs_dims)
    assert nm.distinguish(zero, same_series) == "Distinct"
    assert nm.distinguish(same_series, zero) == "Distinct"


def test_distinguish_dimension_mismatch():
    a = nm.fingerprint(nm.heisenberg().tensor)
    b = nm.fingerprint(nm.m26_point(1.0, 0.0).tensor)
    with pytest.raises(nm.DimensionMismatch):
        nm.distinguish(a, b)


def test_certify_with_noncompatible_metric_raises():
    gamma = nm.standard_structure("complex", 6)
    G = nm.Metric(np.diag([1.0, 2, 1, 1, 1, 1]))
    with pytest.raises(nm.IncompatibleMetric):
        nm.certify_minimal(nm.complex_curve(1.0).tensor, G=G, gamma=gamma)


@pytest.mark.parametrize("preset", ["m26", "iwasawa-curve", "hc-g3"])
def test_metric_scale_covariance(preset):
    # at s G the bracket in the orthonormal frame is mu0 / sqrt(s): F is
    # unchanged and Ric^gamma and c scale by 1 / s, for every structure
    p = nm.catalog_get(preset)
    rng = np.random.default_rng(71)
    basis = algebra_reference(p.structure).sym_basis
    xi = combine(rng.standard_normal(len(basis)), basis)
    phi = expm(0.5 * xi / np.linalg.norm(xi))
    G = phi.T @ phi
    base = nm.curvature_report(p.tensor, nm.Metric(G), p.structure)
    c = nm.certify_minimal(p.tensor, nm.Metric(G), p.structure).c
    eig = np.array(base.eigen_ric_gamma)
    for s in (1e-8, 1e-2, 1e2, 1e8):
        Gs = nm.Metric(s * G)
        report = nm.curvature_report(p.tensor, Gs, p.structure)
        assert report.F_value == pytest.approx(base.F_value, rel=1e-12)
        got = s * np.array(report.eigen_ric_gamma)
        assert np.abs(got - eig).max() <= 1e-12 * np.abs(eig).max()
        cs = nm.certify_minimal(p.tensor, Gs, p.structure).c
        assert s * cs == pytest.approx(c, rel=1e-12)


def test_certificate_scale_behavior():
    # certification is invariant under bracket rescaling up to the
    # corresponding rescale of c and D
    p = nm.m26_point(1.0, 0.0)
    cert1 = nm.certify_minimal(p.tensor, gamma=p.structure)
    cert2 = nm.certify_minimal(p.tensor.scaled(2.0), gamma=p.structure)
    assert cert2.minimal
    assert cert2.c == pytest.approx(4.0 * cert1.c, abs=1e-12)
    assert np.abs(cert2.D - 4.0 * cert1.D).max() < 1e-11

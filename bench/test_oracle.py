"""Tests of the benchmark's oracle: closed forms from the paper's families,
and agreement with nilmetric on random compatible metrics.

Run from the repository root with ``python3 -m pytest bench``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import nilmetric as nm  # noqa: E402

import oracle  # noqa: E402


def _structure(point):
    return (point.structure.tag, point.structure.payload)


def _perturbed_metric(point, rng, scale=0.25):
    n = point.tensor.dim
    basis = oracle.full_algebra_basis(*_structure(point), n)
    xi = sum(c * B for c, B in zip(rng.standard_normal(len(basis)), basis))
    xi *= scale * np.sqrt(len(basis)) / np.linalg.norm(xi)
    phi = oracle.expm(xi)
    return phi.T @ phi


PRESETS = ["m26", "iwasawa-curve", "hc-g3", "heisenberg"]


def test_m26_closed_forms():
    p = nm.m26_point(1.0, 0.0)
    cur = oracle.Curvature(oracle.full_from_pairs(p.tensor.coeffs), None,
                           _structure(p))
    assert np.allclose(cur.ric_gamma, oracle.M26_RIC_GAMMA, atol=1e-13)
    c, D, residual = cur.certificate()
    assert abs(c - oracle.M26_C) < 1e-13
    assert np.allclose(D, oracle.M26_D, atol=1e-13)
    assert residual < 1e-14
    assert abs(cur.F - oracle.M26_F) < 1e-15


def test_m26_ellipse_points_share_c_and_d():
    for x, y in nm.ellipse_points(4):
        p = nm.m26_point(x, y)
        cur = oracle.Curvature(oracle.full_from_pairs(p.tensor.coeffs), None,
                               _structure(p))
        c, D, residual = cur.certificate()
        assert abs(c - oracle.M26_C) < 1e-12
        assert np.allclose(D, oracle.M26_D, atol=1e-12)
        assert residual < 1e-13


def test_heisenberg_ricci():
    T = oracle.full_from_entries(3, [(1, 2, 3, 1.0)])
    assert np.allclose(oracle.Curvature(T).ric, oracle.HEISENBERG_RIC,
                       atol=1e-15)


def test_scal_is_minus_quarter_norm_with_pairs_counted_twice():
    rng = np.random.default_rng(7)
    for n in (3, 5, 6):
        coeffs = rng.standard_normal((n * (n - 1) // 2, n))
        T = oracle.full_from_pairs(coeffs)
        assert abs(oracle.norm2(T) - 2.0 * np.sum(coeffs**2)) < 1e-12
        assert abs(oracle.Curvature(T).scal + 0.25 * oracle.norm2(T)) < 1e-12
        A = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        cur = oracle.Curvature(T, A.T @ A)
        assert abs(cur.scal + 0.25 * oracle.norm2(cur.T0)) < 1e-11


def test_algebra_dimensions():
    dims = {"symplectic": (6, 21, 12), "complex": (6, 18, 9),
            "hypercomplex": (8, 16, 6)}
    for kind, (n, full, sym) in dims.items():
        payload = nm.standard_structure(kind, n).payload
        assert len(oracle.full_algebra_basis(kind, payload, n)) == full
        assert oracle.symmetric_algebra_basis(kind, payload, n).shape[1] == sym


def test_expm_closed_forms():
    d = np.array([0.3, -1.2, 2.5])
    assert np.allclose(oracle.expm(np.diag(d)), np.diag(np.exp(d)),
                       rtol=1e-14)
    rot = oracle.expm(np.array([[0.0, -2.0], [2.0, 0.0]]))
    want = np.array([[np.cos(2.0), -np.sin(2.0)], [np.sin(2.0), np.cos(2.0)]])
    assert np.allclose(rot, want, atol=1e-14)


@pytest.mark.parametrize("preset", PRESETS)
def test_agreement_with_nilmetric(preset):
    p = nm.catalog_get(preset)
    structure = _structure(p)
    T = oracle.full_from_pairs(p.tensor.coeffs)
    rng = np.random.default_rng(11)
    for _ in range(4):
        G = _perturbed_metric(p, rng)
        assert oracle.compatibility_residual(G, structure) < 1e-12
        metric = nm.Metric(G)
        cur = oracle.Curvature(T, G, structure)
        scale = np.abs(cur.ric).max()
        assert np.abs(cur.ric - nm.ricci_operator(p.tensor, metric)).max() < 1e-12 * scale
        ric_gamma = nm.invariant_ricci(p.tensor, metric, p.structure)
        assert np.abs(cur.ric_gamma - ric_gamma).max() < 1e-12 * scale
        assert abs(cur.scal - nm.scalar_curvature(p.tensor, metric)) < 1e-12 * abs(cur.scal)
        F = nm.functional_F(p.tensor, p.structure, metric)
        assert abs(cur.F - F) < 1e-12 * F
        c, D, residual = cur.certificate()
        cert = nm.certify_minimal(p.tensor, metric, p.structure)
        assert abs(c - cert.c) < 1e-10 * abs(c)
        assert abs(residual - cert.residual) < 1e-8
        eig_ric, eig_ric_gamma = cur.spectra()
        report = nm.curvature_report(p.tensor, metric, p.structure)
        assert np.allclose(eig_ric, report.eigen_ric, atol=1e-12 * scale)
        assert np.allclose(eig_ric_gamma, report.eigen_ric_gamma,
                           atol=1e-12 * scale)


@pytest.mark.parametrize("preset", PRESETS)
def test_identity_metric_certificates_match(preset):
    p = nm.catalog_get(preset)
    cur = oracle.Curvature(oracle.full_from_pairs(p.tensor.coeffs), None,
                           _structure(p))
    c, D, residual = cur.certificate()
    cert = nm.certify_minimal(p.tensor, gamma=p.structure)
    assert cert.minimal and residual < 1e-12
    assert abs(c - cert.c) < 1e-12
    assert np.allclose(D, cert.D, atol=1e-12)


@pytest.mark.parametrize("preset", PRESETS)
def test_defects_match(preset):
    p = nm.catalog_get(preset)
    T = oracle.full_from_pairs(p.tensor.coeffs)
    structure = _structure(p)
    assert oracle.jacobi_residual(T) < 1e-14
    assert oracle.integrability_residual(T, structure) < 1e-14
    rng = np.random.default_rng(3)
    n = T.shape[0]
    g = np.eye(n) + 0.4 * rng.standard_normal((n, n))
    bent = nm.act(g, p.tensor)
    off = oracle.integrability_residual(oracle.full_from_pairs(bent.coeffs),
                                        structure)
    prog = nm.integrability_residual(p.structure, bent)
    assert (off > 1e-6) == (prog > 1e-6)
    noise = nm.SkewTensor(n, rng.standard_normal(p.tensor.coeffs.shape))
    assert oracle.jacobi_residual(oracle.full_from_pairs(noise.coeffs)) > 1e-3
    assert nm.jacobi_residual(noise) > 1e-3


def test_coboundary_matches():
    p = nm.m26_point(1.0, 0.0)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6))
    T = oracle.full_from_pairs(p.tensor.coeffs)
    want = nm.coboundary(p.tensor, A).full()
    assert np.abs(oracle.coboundary(T, A) - want).max() < 1e-13
    assert np.abs(oracle.coboundary(T, np.eye(6)) + T).max() < 1e-15

"""Preset families: exactness, validation metadata, registry access."""

import math

import numpy as np
import pytest

import nilmetric as nm

SLOTS = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (2, 3, 5), (2, 4, 6)]


def test_m26_point_requires_ellipse():
    with pytest.raises(nm.FamilyConstraint):
        nm.m26_point(1.0, 1.0)
    with pytest.raises(nm.FamilyConstraint):
        nm.m26_point(0.6, 0.46)
    for x, y in ((math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0)):
        with pytest.raises(nm.FamilyConstraint):
            nm.m26_point(x, y)
    # the other constructors reject non-finite parameters the same way
    for build, params in ((nm.complex_curve, (math.inf,)),
                          (nm.hypercomplex_family, (math.nan, 0.5, 0.5)),
                          (nm.symplectic_family,
                           (math.nan, 1.0, 1.0, 1.0, 1.0, 1.0))):
        with pytest.raises(nm.FamilyConstraint):
            build(*params)


def test_ellipse_points_on_constraint():
    pts = nm.ellipse_points(20)
    assert len(pts) == 20
    for x, y in pts:
        assert x * x + x * y + y * y == pytest.approx(1.0, abs=1e-12)
        assert x >= -1e-12 and y >= -1e-12
    # endpoints are the coordinate points
    assert pts[0] == pytest.approx((1.0, 0.0))
    assert pts[-1] == pytest.approx((0.0, 1.0))


def test_m26_validation_metadata():
    p = nm.m26_point(1.0, 0.0)
    v = p.validation
    assert v["jacobi_residual"] == 0.0
    assert v["integrability_residual"] <= 1e-12
    assert v["compatibility_residual"] <= 1e-14
    assert v["lcs_dims"] == [6, 4, 3, 1, 0]
    assert v["nilpotent"]
    assert isinstance(p.bracket, nm.Bracket)
    assert np.array_equal(p.metric.matrix, np.eye(6))


def test_m26_endpoints_differ_in_series():
    a = nm.m26_point(1.0, 0.0)
    b = nm.m26_point(0.0, 1.0)
    assert a.validation["lcs_dims"] == [6, 4, 3, 1, 0]
    assert b.validation["lcs_dims"] == [6, 3, 2, 1, 0]


def test_m26_repeated_calls_bit_identical():
    for xy in nm.ellipse_points(4):
        t1 = nm.m26_point(*xy).tensor
        t2 = nm.m26_point(*xy).tensor
        assert np.array_equal(t1.coeffs, t2.coeffs)


def test_symplectic_family_keeps_non_lie_tables():
    # the all-ones slot values with the last slot zeroed violate Jacobi;
    # the point is still constructed, with the defect in the metadata
    p = nm.symplectic_family(1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
    assert p.validation["jacobi_residual"] == pytest.approx(1.0)
    assert not isinstance(p.bracket, nm.Bracket)
    assert p.validation["lcs_dims"] == [6, 4, 3, 2, 1, 0]


def test_complex_curve_scale_parameter():
    p = nm.complex_curve(1.0)
    assert p.params["t"] == 1.0
    assert p.params["s"] == pytest.approx(2.0)
    assert p.validation["jacobi_residual"] == 0.0
    assert p.validation["integrability_residual"] <= 1e-12
    assert p.validation["lcs_dims"] == [6, 2, 0]


def test_complex_curve_integrable_along_curve():
    for t in (0.0, 0.7, 1.7, 3.0, 4.0):
        p = nm.complex_curve(t)
        assert p.validation["integrability_residual"] <= 1e-12


def test_hypercomplex_family_surface_residual():
    p = nm.hypercomplex_family(0.5, 0.5, 0.5)
    assert p.validation["surface_residual"] == pytest.approx(0.25)
    assert p.validation["integrability_residual"] <= 1e-12
    q = nm.hc_g3_point()
    assert q.validation["surface_residual"] <= 1e-15
    assert q.params["r"] == pytest.approx((3.0 + math.sqrt(3.0)) / 6.0)


def test_surface_points_on_sphere_and_ordered():
    pts = nm.surface_points(5)
    assert len(pts) == 5
    for r, s, t in pts:
        assert r == 0.5
        assert r <= s <= t + 1e-15
        assert r * r + s * s + t * t - r - s - t + 0.5 == pytest.approx(
            0.0, abs=1e-15)


def test_heisenberg_point():
    p = nm.heisenberg()
    assert p.family_id == "heisenberg"
    assert p.tensor.dim == 3
    assert p.validation["lcs_dims"] == [3, 1, 0]


def test_catalog_list_and_get():
    listing = nm.catalog_list()
    ids = [row["id"] for row in listing]
    assert ids == sorted(ids)
    assert set(ids) == {"m26", "iwasawa-curve", "hc-g3", "heisenberg"}
    for row in listing:
        assert isinstance(row["description"], str) and row["description"]
        assert isinstance(row["defaults"], dict)
    default = nm.catalog_get("m26")
    assert default.params == {"x": 1.0, "y": 0.0}
    other = nm.catalog_get("m26", {"x": 0.0, "y": 1.0})
    assert other.params == {"x": 0.0, "y": 1.0}
    curve = nm.catalog_get("iwasawa-curve", {"t": 2.0})
    assert curve.params["t"] == 2.0


def test_catalog_get_errors():
    with pytest.raises(KeyError):
        nm.catalog_get("m27")
    with pytest.raises(KeyError):
        nm.catalog_get("m26", {"z": 1.0})


def test_standard_structure_errors():
    with pytest.raises(nm.DimensionParity):
        nm.standard_structure("symplectic", 5)
    with pytest.raises(nm.DimensionParity):
        nm.standard_structure("complex", 7)
    with pytest.raises(nm.DimensionParity):
        nm.standard_structure("hypercomplex", 6)
    with pytest.raises(ValueError):
        nm.standard_structure("kaehler", 6)


def test_hypercomplex_ambient_dimensions():
    amb = nm.hypercomplex_ambient()
    assert len(amb.basis) == 24
    assert len(amb.integrable_basis) == 16
    assert len(amb.abelian_basis) == 12


def test_hypercomplex_ambient_samples_are_brackets():
    amb = nm.hypercomplex_ambient()
    rng = np.random.default_rng(99)
    for _ in range(5):
        t = amb.sample(rng)
        assert nm.jacobi_residual(t) <= 1e-12
        assert nm.integrability_residual(amb.structure, t) <= 1e-12 * (
            1.0 + t.norm2())
    ab = amb.sample(rng, abelian=True)
    assert nm.jacobi_residual(ab) <= 1e-12
    assert nm.abelian_residual(amb.structure, ab) <= 1e-12 * (1.0 + ab.norm2())

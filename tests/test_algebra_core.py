"""Tensor container, bracket validation, group action and derivations."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nilmetric as nm
from nilmetric.algebra_core import (_full_array, combine, expm, pair_index,
                                    svd_nullspace, sym_basis, skew_basis,
                                    triple_index)

from conftest import bench_module

TOL = 1e-12


def test_ordered_pairs_count():
    assert len(pair_index(6)[0]) == 15
    assert tuple(zip(*pair_index(3))) == ((0, 1), (0, 2), (1, 2))


def test_triple_index_is_lexicographic():
    for n in range(1, 9):
        assert list(zip(*triple_index(n))) == list(combinations(range(n), 3))


@st.composite
def skew_tensors(draw):
    n = draw(st.integers(1, 8))
    size = n * (n - 1) // 2 * n
    values = draw(st.lists(st.floats(-1e3, 1e3) | st.just(0.0),
                           min_size=size, max_size=size))
    return nm.SkewTensor(n, np.reshape(values, (n * (n - 1) // 2, n)))


@settings(max_examples=60, deadline=None)
@given(skew_tensors())
def test_layout_round_trips(t):
    full = t.full()
    assert np.array_equal(full, -full.transpose(1, 0, 2))
    assert np.array_equal(nm.SkewTensor.from_full(full).coeffs, t.coeffs)
    assert np.array_equal(
        nm.SkewTensor.from_entries(t.dim, t.entries()).coeffs, t.coeffs)


def test_oracle_layout_matches_full():
    # the benchmark's oracle hard-codes the coefficient layout; the scatter
    # product is exact, on one tensor and on a batch
    oracle = bench_module("oracle")
    rng = np.random.default_rng(17)
    for n in range(2, 9):
        t = nm.SkewTensor(n, rng.standard_normal((n * (n - 1) // 2, n)))
        assert oracle.full_from_pairs(t.coeffs).tobytes() == t.full().tobytes()
        batch = rng.standard_normal((3, n * (n - 1) // 2, n))
        want = np.stack([oracle.full_from_pairs(c) for c in batch])
        assert _full_array(batch).tobytes() == want.tobytes()


def _jacobi_by_triples(t):
    T = t.full()
    total = 0.0
    for i, j, k in combinations(range(t.dim), 3):
        J = T[i, j] @ T[:, k] + T[j, k] @ T[:, i] + T[k, i] @ T[:, j]
        total += float(np.sum(J ** 2))
    return np.sqrt(total)


@pytest.mark.parametrize("n", range(3, 9))
def test_jacobi_residual_matches_triple_sum(n):
    rng = np.random.default_rng(n)
    t = nm.SkewTensor(n, rng.standard_normal((n * (n - 1) // 2, n)))
    want = _jacobi_by_triples(t)
    assert abs(nm.jacobi_residual(t) - want) <= 1e-14 * want


def test_from_entries_accumulates_repeats():
    t = nm.SkewTensor.from_entries(3, [(1, 2, 3, 1.0), (1, 2, 3, 0.5)])
    full = t.full()
    assert full[0, 1, 2] == pytest.approx(1.5)
    assert full[1, 0, 2] == pytest.approx(-1.5)


def test_from_entries_rejects_unordered_pair():
    with pytest.raises(nm.DimensionMismatch):
        nm.SkewTensor.from_entries(3, [(2, 1, 3, -0.5)])


def test_from_full_rejects_non_antisymmetric():
    bad = np.zeros((3, 3, 3))
    bad[0, 1, 2] = 1.0  # missing the (1,0,2) counterpart
    with pytest.raises(ValueError):
        nm.SkewTensor.from_full(bad)


def test_norm_counts_both_orderings():
    heis = nm.heisenberg().tensor
    assert heis.norm2() == pytest.approx(2.0, abs=TOL)
    m26 = nm.m26_point(1.0, 0.0).tensor
    assert m26.norm2() == pytest.approx(10.0, abs=TOL)


def test_inner_is_symmetric_bilinear():
    rng = np.random.default_rng(1)
    a = nm.SkewTensor.from_entries(4, [(1, 2, 3, rng.standard_normal())])
    b = nm.SkewTensor.from_entries(4, [(1, 3, 4, rng.standard_normal()),
                                       (1, 2, 3, 0.7)])
    assert nm.inner(a, b) == pytest.approx(nm.inner(b, a), abs=TOL)
    assert nm.inner(a.plus(b, 2.0), b) == pytest.approx(
        nm.inner(a, b) + 2.0 * nm.inner(b, b), abs=1e-10)


def test_jacobi_residual_zero_on_bracket():
    assert nm.jacobi_residual(nm.heisenberg().tensor) == pytest.approx(0.0, abs=TOL)
    assert nm.jacobi_residual(nm.m26_point(1.0, 0.0).tensor) < 1e-14


def test_jacobi_residual_positive_on_non_bracket():
    # six-entry table with an incompatible last coefficient
    t = nm.SkewTensor.from_entries(6, [(1, 2, 3, 1.0), (1, 3, 4, 1.0),
                                       (1, 4, 5, 1.0), (1, 5, 6, 1.0),
                                       (2, 3, 5, 1.0), (2, 4, 6, 0.0)])
    assert nm.jacobi_residual(t) == pytest.approx(1.0, abs=1e-12)


def test_lower_central_series_goldens():
    assert nm.lower_central_dims(nm.m26_point(1.0, 0.0).tensor) == [6, 4, 3, 1, 0]
    assert nm.lower_central_dims(nm.m26_point(0.0, 1.0).tensor) == [6, 3, 2, 1, 0]
    assert nm.lower_central_dims(nm.complex_curve(1.5).tensor) == [6, 2, 0]
    assert nm.lower_central_dims(nm.heisenberg().tensor) == [3, 1, 0]


def test_lcs_rank_threshold_is_absolute():
    # a well-scaled bracket whose second image is pure rounding noise must
    # terminate, even if that noise has a consistent direction
    t = nm.complex_curve(3.0).tensor
    dims = nm.lower_central_dims(t)
    assert dims[-1] == 0 and len(dims) == 3


def test_bracket_validation_errors():
    bad = nm.SkewTensor.from_entries(6, [(1, 2, 3, 1.0), (1, 3, 4, 1.0),
                                         (1, 4, 5, 1.0), (1, 5, 6, 1.0),
                                         (2, 3, 5, 1.0), (2, 4, 6, 0.0)])
    with pytest.raises(nm.InvalidBracket):
        nm.Bracket(bad)
    solvable = nm.SkewTensor.from_entries(2, [(1, 2, 2, 1.0)])
    with pytest.raises(nm.NotNilpotent):
        nm.Bracket(solvable)


def test_bracket_nilpotency_index():
    assert nm.Bracket(nm.heisenberg().tensor).nilpotency_index == 2
    assert nm.Bracket(nm.m26_point(1.0, 0.0).tensor).nilpotency_index == 4


def test_act_identity_and_composition():
    t = nm.m26_point(1.0, 0.0).tensor
    assert np.abs(nm.act(np.eye(6), t).full() - t.full()).max() < TOL
    rng = np.random.default_rng(7)
    g = np.eye(6) + 0.2 * rng.standard_normal((6, 6))
    h = np.eye(6) + 0.2 * rng.standard_normal((6, 6))
    lhs = nm.act(g, nm.act(h, t)).full()
    rhs = nm.act(g @ h, t).full()
    assert np.abs(lhs - rhs).max() < 1e-12


def _well_conditioned(rng, n):
    """Q diag(s) with Q orthogonal and s in [0.5, 2]: condition at most 4."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q * rng.uniform(0.5, 2.0, n)


def test_act_matches_direct_einsum():
    # an independent reference: (g.mu)[a,b,m] = ginv[i,a] ginv[j,b]
    # mu[i,j,k] g[m,k] as one einsum over the full array
    rng = np.random.default_rng(12)
    for n in range(2, 9):
        for _ in range(5):
            t = nm.SkewTensor(n, rng.standard_normal((n * (n - 1) // 2, n)))
            g = _well_conditioned(rng, n)
            ginv = np.linalg.inv(g)
            want = np.einsum("ia,jb,ijk,mk->abm", ginv, ginv, t.full(), g)
            got = nm.act(g, t).full()
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_act_composition(n, seed):
    rng = np.random.default_rng(seed)
    t = nm.SkewTensor(n, rng.standard_normal((n * (n - 1) // 2, n)))
    g = _well_conditioned(rng, n)
    h = _well_conditioned(rng, n)
    want = nm.act(g @ h, t).coeffs
    got = nm.act(g, nm.act(h, t)).coeffs
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _conditioned(rng, n, log10_cond):
    """Q1 diag(s) Q2 with log10(s) uniform in +-log10_cond / 2."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    half = 0.5 * log10_cond
    return (q1 * 10.0 ** rng.uniform(-half, half, n)) @ q2


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_act_composition_ill_conditioned(n, seed):
    # cond(g) up to 1e6: the error grows like eps cond(g), and no check
    # inside act may reject the result on the way
    rng = np.random.default_rng(seed)
    t = nm.SkewTensor(n, rng.standard_normal((n * (n - 1) // 2, n)))
    g = _conditioned(rng, n, 6.0)
    h = _well_conditioned(rng, n)
    want = nm.act(g @ h, t).coeffs
    got = nm.act(g, nm.act(h, t)).coeffs
    bound = 1e-14 * np.linalg.cond(g) * np.abs(want).max()
    assert np.abs(got - want).max() <= bound


def test_act_unimodular_shear_fixes_heisenberg():
    # g has det 1 on span(e1, e2) and fixes e3, so g.mu = mu exactly;
    # cond(g) is about 1e8, below COND_WARN
    g = np.array([[1.0, 100.0, 0.0], [100.0, 10001.0, 0.0], [0.0, 0.0, 1.0]])
    t = nm.heisenberg().tensor
    got = nm.act(g, t)
    bound = np.finfo(float).eps * np.linalg.cond(g) * t.norm()
    assert np.abs(got.coeffs - t.coeffs).max() <= bound


def test_act_rejects_singular_map():
    t = nm.heisenberg().tensor
    with pytest.raises(nm.SingularMap):
        nm.act(np.zeros((3, 3)), t)


def test_act_warns_on_ill_conditioned_map():
    t = nm.heisenberg().tensor
    g = np.diag([1.0, 1.0, 1e-14])
    with pytest.warns(RuntimeWarning):
        nm.act(g, t)


def test_act_condition_estimate_is_the_1_norm_product(monkeypatch):
    # act warns exactly when |g|_1 |g^-1|_1, as np.linalg.norm computes
    # it, exceeds COND_WARN: silent at that product, warning one ulp below
    rng = np.random.default_rng(5)
    t = nm.m26_point(1.0, 0.0).tensor
    for _ in range(20):
        g = rng.standard_normal((6, 6))
        cond = np.linalg.norm(g, 1) * np.linalg.norm(np.linalg.inv(g), 1)
        monkeypatch.setattr("nilmetric.algebra_core.COND_WARN", cond)
        nm.act(g, t)  # a warning fails the test (pyproject filterwarnings)
        monkeypatch.setattr("nilmetric.algebra_core.COND_WARN",
                            np.nextafter(cond, 0.0))
        with pytest.warns(RuntimeWarning):
            nm.act(g, t)


def test_act_preserves_jacobi():
    rng = np.random.default_rng(3)
    t = nm.m26_point(1.0, 0.0).tensor
    g = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
    assert nm.jacobi_residual(nm.act(g, t)) < 1e-12


def test_coboundary_of_identity_is_minus_bracket():
    t = nm.m26_point(1.0, 0.0).tensor
    d = nm.coboundary(t, np.eye(6))
    assert np.abs(d.full() + t.full()).max() < TOL


def test_coboundary_matrix_matches_direct():
    rng = np.random.default_rng(11)
    tensors = [nm.complex_curve(2.0).tensor] + [
        nm.SkewTensor(n, rng.standard_normal((n * (n - 1) // 2, n)))
        for n in (2, 3, 5, 8)]
    for t in tensors:
        A = rng.standard_normal((t.dim, t.dim))
        vec = nm.coboundary_matrix(t) @ A.ravel()
        direct = nm.coboundary(t, A).coeffs.ravel()
        assert np.abs(vec - direct).max() < 1e-12


def test_derivation_dimensions_heisenberg():
    b = nm.Bracket(nm.heisenberg().tensor)
    assert len(nm.derivation_basis(b)) == 6
    assert len(nm.symmetric_derivation_basis(b)) == 3


def test_derivations_annihilate_coboundary(bracket_corpus):
    for t in bracket_corpus[:12]:
        for D in nm.symmetric_derivation_basis(t)[:3]:
            assert nm.coboundary(t, D).norm() < 1e-8 * (1 + t.norm())


def test_m26_dilation_is_derivation():
    t = nm.m26_point(1.0, 0.0).tensor
    D = 0.5 * np.diag([1, 2, 3, 4, 5, 6.0])
    assert nm.coboundary(t, D).norm() < TOL


def test_metric_validation():
    with pytest.raises(nm.NotPositiveDefinite):
        nm.Metric(np.diag([1.0, -1.0]))
    with pytest.raises(nm.NotPositiveDefinite):
        nm.Metric(np.array([[1.0, 0.5], [0.1, 1.0]]))
    G = nm.Metric(np.diag([4.0, 9.0]))
    h = G.transport
    assert np.abs(h.T @ h - G.matrix).max() < TOL


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_metric_rejects_non_finite(bad):
    with pytest.raises(nm.NotPositiveDefinite, match="non-finite"):
        nm.Metric(np.diag([bad, 1.0, 1.0]))


def test_metric_near_float_max_stays_finite():
    # the checks halve before they add or subtract; the suite's warning
    # filter turns an overflow warning into a failure
    G = nm.Metric(np.diag([1.7e308, 1.0, 1.0]))
    assert G.matrix[0, 0] == 1.7e308
    assert np.all(np.isfinite(G.matrix)) and np.all(np.isfinite(G.transport))
    skew = np.array([[1.0, 1e308, 0.0], [-1e308, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(nm.NotPositiveDefinite, match="not symmetric"):
        nm.Metric(skew)


def test_metric_symmetrization_is_unchanged():
    rng = np.random.default_rng(23)
    for _ in range(200):
        A = rng.standard_normal((5, 5))
        M = np.eye(5) * 6.0 + 0.5 * (A + A.T) + 1e-12 * A
        assert np.array_equal(nm.Metric(M).matrix, 0.5 * (M + M.T))


def test_sym_skew_bases_orthonormal():
    for n in (3, 5):
        for basis in (sym_basis(n), skew_basis(n)):
            for i, A in enumerate(basis):
                for j, B in enumerate(basis):
                    want = 1.0 if i == j else 0.0
                    assert np.sum(A * B) == pytest.approx(want, abs=TOL)


def test_svd_nullspace_edges():
    assert svd_nullspace(np.zeros((3, 4))).shape == (4, 4)
    ns = svd_nullspace(np.array([[1.0, 1.0]]))
    assert ns.shape == (2, 1)
    assert abs(ns[0, 0] + ns[1, 0]) < TOL


def test_wrong_size_identity_metric_is_rejected():
    # the identity metric takes the general frame path, with its size check
    b = nm.Bracket(nm.heisenberg().tensor)
    with pytest.raises(nm.DimensionMismatch):
        nm.scalar_curvature(b, nm.Metric.identity(4))
    with pytest.raises(nm.DimensionMismatch):
        nm.certify_minimal(b, nm.Metric.identity(5))
    with pytest.raises(nm.DimensionMismatch):
        nm.curvature_report(b, nm.Metric.identity(5))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-2, 2), min_size=3, max_size=3),
       st.floats(0.1, 2.0))
def test_scaling_action_matches_tensor_scaling(coeffs, s):
    entries = [(1, 2, 3, coeffs[0]), (1, 2, 4, coeffs[1]), (1, 3, 4, coeffs[2])]
    t = nm.SkewTensor.from_entries(4, entries)
    scaled = nm.act(np.eye(4) / s, t)
    assert np.abs(scaled.full() - s * t.full()).max() < 1e-10 * max(1.0, s)


def test_expm_matches_scipy_on_symmetric_generators():
    from scipy.linalg import expm as scipy_expm

    rng = np.random.default_rng(11)
    for _ in range(200):
        A = rng.standard_normal((6, 6))
        S = 0.5 * (A + A.T)
        want = scipy_expm(S)
        got = expm(S)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_exponentials_reject_wrong_symmetry():
    A = np.arange(9.0).reshape(3, 3)
    with pytest.raises(ValueError):
        expm(A)


def test_combine_equals_repeated_plus():
    rng = np.random.default_rng(13)
    basis = [nm.SkewTensor(5, rng.standard_normal((10, 5))) for _ in range(7)]
    coeffs = rng.standard_normal(7)
    loop = nm.SkewTensor.zero(5)
    for c, b in zip(coeffs, basis):
        loop = loop.plus(b, c)
    got = combine(coeffs, basis)
    assert np.abs(got.coeffs - loop.coeffs).max() < 1e-14
    mats = [b.coeffs for b in basis]
    assert np.abs(combine(coeffs, mats) - loop.coeffs).max() < 1e-14
    rows = rng.standard_normal((3, 7))
    stacked = combine(rows, mats)
    for row, got in zip(rows, stacked):
        assert np.abs(got - combine(row, mats)).max() < 1e-14

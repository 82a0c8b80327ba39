"""Acceptance suite: twelve numbered criteria, each a single test with its
tolerance pinned and a printed PASS/FAIL line.

Run with -v for one outcome line per criterion, or -s to see the printed
summaries with their measured margins.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

import nilmetric as nm
from nilmetric.structures import (
    graded_ambient_basis,
    integrability_defect,
    svd_nullspace,
)

from conftest import basis_projection, moment_map_reference, perturbed_m26


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE C{num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_moment_map_identity(bracket_corpus):
    tol = 1e-10
    assert len(bracket_corpus) >= 100
    start = time.perf_counter()
    worst = 0.0
    for t in bracket_corpus:
        dev = np.abs(nm.moment_map(t) - moment_map_reference(t)).max()
        worst = max(worst, dev / (1.0 + t.norm2()))
    elapsed = time.perf_counter() - start
    _report(1, worst <= tol and elapsed < 5.0,
            f"{len(bracket_corpus)} brackets, worst rel dev {worst:.3e} "
            f"<= {tol:.0e}, {elapsed:.2f}s < 5s")


def test_criterion_02_scalar_curvature_identity(bracket_corpus):
    tol = 1e-12
    worst = 0.0
    for t in bracket_corpus:
        dev = abs(nm.scalar_curvature(t) + 0.25 * t.norm2())
        worst = max(worst, dev / (1.0 + t.norm2()))
    _report(2, worst <= tol,
            f"{len(bracket_corpus)} brackets, worst rel dev {worst:.3e} "
            f"<= {tol:.0e}")


def test_criterion_03_ricci_derivation_orthogonality(bracket_corpus):
    tol = 1e-9
    worst = 0.0
    checked = 0
    for t in bracket_corpus:
        ric = nm.ricci_operator(t)
        for D in nm.symmetric_derivation_basis(t):
            worst = max(worst, abs(float(np.trace(ric @ D))))
            checked += 1
    _report(3, worst <= tol,
            f"{checked} derivation pairings, worst |tr(Ric D)| "
            f"{worst:.3e} <= {tol:.0e}")


def test_criterion_04_critical_family_goldens():
    tol = 1e-10
    golden = -0.25 * np.diag([5.0, 3.0, 1.0, -1.0, -3.0, -5.0])
    derivation = 0.5 * np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    worst_ric = worst_cert = worst_scal = 0.0
    points = nm.ellipse_points(20)
    assert len(points) == 20
    for x, y in points:
        assert x >= -1e-12 and y >= -1e-12
        p = nm.m26_point(x, y)
        ric_gamma = nm.invariant_ricci(p.tensor, p.metric, p.structure)
        worst_ric = max(worst_ric, np.abs(ric_gamma - golden).max())
        cert = nm.certify_minimal(p.tensor, gamma=p.structure, tol=tol)
        worst_cert = max(worst_cert, cert.residual,
                         abs(cert.c + 1.75),
                         np.abs(cert.D - derivation).max())
        assert cert.minimal
        worst_scal = max(worst_scal,
                         abs(nm.scalar_curvature(p.tensor) + 2.5))
    ok = worst_ric <= tol and worst_cert <= tol and worst_scal <= tol
    _report(4, ok,
            f"20 ellipse points: ric dev {worst_ric:.3e}, cert dev "
            f"{worst_cert:.3e}, scal dev {worst_scal:.3e}, all <= {tol:.0e}")


def test_criterion_05_hypercomplex_subspace_dimensions():
    gamma = nm.standard_structure("hypercomplex", 8)
    dim_h = nm.integrable_subspace_dim(gamma, "two_step", n1=4, n2=4)
    dim_ah = nm.integrable_subspace_dim(gamma, "two_step", n1=4, n2=4,
                                        abelian=True)
    _report(5, dim_h == 16 and dim_ah == 12,
            f"integrable dim {dim_h} == 16, abelian-integrable dim "
            f"{dim_ah} == 12")


def test_criterion_06_hypercomplex_universal_minimality():
    tol = 1e-8
    amb = nm.hypercomplex_ambient()
    rng = np.random.default_rng(20240806)
    worst = 0.0
    for _ in range(200):
        t = amb.sample(rng)
        assert t.norm2() > 1e-8
        cert = nm.certify_minimal(t, gamma=amb.structure, tol=tol)
        assert cert.minimal
        worst = max(worst, cert.residual)
    _report(6, worst <= tol,
            f"200 integrable samples, worst residual {worst:.3e} <= {tol:.0e}")


def _closed_graded_symplectic_samples(n1, n2, count, seed):
    gamma = nm.standard_structure("symplectic", n1 + n2)
    basis = graded_ambient_basis(n1, n2)
    rows = np.array([integrability_defect(gamma, b) for b in basis]).T
    null = svd_nullspace(rows)
    assert null.shape[1] >= 1
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        col = null @ rng.standard_normal(null.shape[1])
        t = nm.SkewTensor.zero(n1 + n2)
        for c, b in zip(col, basis):
            t = t.plus(b, float(c))
        if t.norm2() > 1e-8:
            out.append(t)
    return gamma, out


def test_criterion_07_nonhermitian_obstruction():
    margin = 1e-6
    worst = np.inf
    total = 0
    for n1, n2 in ((4, 2), (3, 3)):
        gamma, samples = _closed_graded_symplectic_samples(
            n1, n2, 50, seed=20240807 + n1)
        for t in samples:
            assert nm.jacobi_residual(t) <= 1e-12 * (1.0 + t.norm2())
            rep = nm.hermitian_obstruction(t, gamma=gamma)
            worst = min(worst, rep.obstruction_norm / t.norm2())
            total += 1
    _report(7, total == 100 and worst > margin,
            f"{total} closed symplectic brackets, min margin {worst:.3e} "
            f"> {margin:.0e}")


def test_criterion_08_normalized_flow_conserves_scal(sp6_basis):
    tol = 1e-6
    p = nm.m26_point(1.0, 0.0)
    rng = np.random.default_rng(808)
    cfg = nm.FlowConfig(step=1e-3, horizon=1.0, sample_every=20)
    worst = 0.0
    for _ in range(20):
        coeffs = rng.standard_normal(len(sp6_basis))
        xi = sum(c * B for c, B in zip(coeffs, sp6_basis))
        xi *= 0.25 * np.sqrt(len(sp6_basis)) / np.linalg.norm(xi)
        phi = expm(xi)
        G0 = nm.Metric(phi.T @ phi)
        trace = nm.metric_flow(p.tensor, p.structure, G0, cfg)
        assert trace.converged
        scals = [row[1] for row in trace.samples]
        drift = max(abs(s - scals[0]) for s in scals) / abs(scals[0])
        worst = max(worst, drift)
    _report(8, worst <= tol,
            f"20 compatible starts to t=1 at step 1e-3, worst rel scal "
            f"drift {worst:.3e} <= {tol:.0e}")


def test_criterion_09_soliton_self_similarity():
    tol = 1e-6
    cfg = nm.FlowConfig(step=1e-2, horizon=1.0, sample_every=5)
    heis = nm.soliton_selfsimilarity_check(nm.heisenberg().tensor, cfg=cfg)
    p = nm.m26_point(1.0, 0.0)
    m26 = nm.soliton_selfsimilarity_check(p.tensor, gamma=p.structure,
                                          cfg=cfg)
    ok = heis.max_deviation <= tol and m26.max_deviation <= tol
    _report(9, ok,
            f"flow vs closed form over [0,1]: Heisenberg dev "
            f"{heis.max_deviation:.3e}, critical-point dev "
            f"{m26.max_deviation:.3e}, both <= {tol:.0e}")


def test_criterion_10_descent_correctness(sp6_basis):
    f_target = 7.0 / 160.0
    p = nm.m26_point(1.0, 0.0)
    rng = np.random.default_rng(2024)
    worst_f = 0.0
    for _ in range(8):
        start = perturbed_m26(sp6_basis, rng, scale=0.3)
        trace = nm.bracket_descent(start, gamma=p.structure)
        fs = [row[2] for row in trace.samples]
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:])), \
            "descent not monotone"
        assert trace.converged
        worst_f = max(worst_f, abs(fs[-1] - f_target))
        cert = nm.certify_minimal(trace.final_state, gamma=p.structure)
        assert cert.minimal

    # finite-difference agreement of the descent direction at random
    # non-critical points: d/ds F(cos s T + sin s u)|0 = -|d| for the
    # unit direction u = d/|d|, d = -delta_T(D) from the certificate of T
    eps = 1e-6
    worst_fd = 0.0
    checked = 0
    fd_rng = np.random.default_rng(1010)
    while checked < 50:
        T = perturbed_m26(sp6_basis, fd_rng, scale=0.35)
        T = T.scaled(1.0 / T.norm())
        D = nm.certify_minimal(T, gamma=p.structure).D
        d = nm.coboundary(T, D).scaled(-1.0)
        nd = d.norm()
        if nd < 1e-4:
            continue
        u = d.scaled(1.0 / nd)

        def f_at(s):
            cand = nm.SkewTensor.from_full(
                np.cos(s) * T.full() + np.sin(s) * u.full())
            return nm.functional_F(cand, gamma=p.structure)

        fd = (f_at(eps) - f_at(-eps)) / (2.0 * eps)
        worst_fd = max(worst_fd, abs(fd + nd) / nd)
        checked += 1
    ok = worst_f <= 1e-6 and worst_fd <= 1e-5
    _report(10, ok,
            f"8 starts reach F=7/160 within {worst_f:.3e} <= 1e-06 with "
            f"certificates; FD agreement {worst_fd:.3e} <= 1e-05 at "
            f"{checked} points")


def test_criterion_11_families_pairwise_distinct():
    curve_fps = []
    for t in (1.0, 1.5, 2.0, 3.0, 4.0):
        p = nm.complex_curve(t)
        curve_fps.append(nm.fingerprint(p.tensor, gamma=p.structure))
    surface_fps = []
    for r, s, t in nm.surface_points(5):
        q = nm.hypercomplex_family(r, s, t)
        surface_fps.append(nm.fingerprint(q.tensor, gamma=q.structure))
    pairs = 0
    for fps in (curve_fps, surface_fps):
        for i in range(len(fps)):
            for j in range(i + 1, len(fps)):
                assert nm.distinguish(fps[i], fps[j]) == "Distinct"
                pairs += 1
    a = nm.fingerprint(nm.m26_point(1.0, 0.0).tensor)
    b = nm.fingerprint(nm.m26_point(0.0, 1.0).tensor)
    assert nm.distinguish(a, b) == "Distinct"
    pairs += 1
    _report(11, True,
            f"{pairs} fingerprint pairs all Distinct (5 curve params, "
            f"5 surface points, 2 family endpoints)")


def test_criterion_12_projection_correctness():
    tol_agree = 1e-9
    tol_proj = 1e-10
    rng = np.random.default_rng(1212)
    worst_agree = worst_idem = worst_adj = 0.0
    for kind, n in (("symplectic", 6), ("complex", 6), ("hypercomplex", 8)):
        gamma = nm.standard_structure(kind, n)
        G = nm.Metric.identity(n)
        for _ in range(100):
            A = rng.standard_normal((n, n))
            S = 0.5 * (A + A.T)
            P1 = nm.invariant_projection(gamma, G, S)
            P2 = basis_projection(gamma, S)
            worst_agree = max(worst_agree, np.abs(P1 - P2).max())
            PP = nm.invariant_projection(gamma, G, P1)
            worst_idem = max(worst_idem, np.abs(PP - P1).max())
            worst_adj = max(worst_adj, np.abs(P1 - P1.T).max())
    ok = (worst_agree <= tol_agree and worst_idem <= tol_proj
          and worst_adj <= tol_proj)
    _report(12, ok,
            f"300 symmetric matrices: closed-vs-basis {worst_agree:.3e} "
            f"<= {tol_agree:.0e}, idempotency {worst_idem:.3e} and "
            f"self-adjointness {worst_adj:.3e} <= {tol_proj:.0e}")

"""Metric flows, bracket descent and soliton self-similarity."""

import numpy as np
import pytest
from scipy.linalg import expm

import nilmetric as nm

from conftest import perturbed_m26


def test_zero_bracket_flow_is_stationary():
    trace = nm.metric_flow(nm.SkewTensor.zero(3), nm.no_structure(3),
                           nm.Metric.identity(3),
                           nm.FlowConfig(step=0.1, horizon=0.3))
    assert trace.converged
    assert np.abs(trace.final_state.matrix - np.eye(3)).max() == 0.0


def test_flow_config_validation():
    with pytest.raises(ValueError):
        nm.FlowConfig(step=-1e-3)
    with pytest.raises(ValueError):
        nm.FlowConfig(horizon=0.0)
    with pytest.raises(ValueError):
        nm.FlowConfig(sign="down")
    with pytest.raises(ValueError):
        nm.FlowConfig(integrator="rk5")
    with pytest.raises(ValueError):
        nm.FlowConfig(sample_every=0)
    with pytest.raises(ValueError):
        nm.FlowConfig(tol_converge=-1.0)


def test_normalized_flow_freezes_scalar_curvature():
    t = nm.heisenberg().tensor
    cfg = nm.FlowConfig(step=1e-3, horizon=0.2, sample_every=20)
    trace = nm.metric_flow(t, nm.no_structure(3), nm.Metric.identity(3), cfg)
    scals = [row[1] for row in trace.samples]
    assert max(abs(s - scals[0]) for s in scals) < 1e-8 * abs(scals[0])


def test_unnormalized_flow_moves_scalar_curvature():
    t = nm.heisenberg().tensor
    cfg = nm.FlowConfig(step=1e-3, horizon=0.2, renorm=False)
    trace = nm.metric_flow(t, nm.no_structure(3), nm.Metric.identity(3), cfg)
    scals = [row[1] for row in trace.samples]
    assert abs(scals[-1] - scals[0]) > 1e-3 * abs(scals[0])


def test_flow_rejects_incompatible_start():
    p = nm.complex_curve(1.0)
    G = nm.Metric(np.diag([1.0, 2, 1, 1, 1, 1]))
    with pytest.raises(nm.IncompatibleMetric):
        nm.metric_flow(p.tensor, p.structure, G, nm.FlowConfig(horizon=0.1))


def test_flow_step_collapse_on_huge_step():
    t = nm.heisenberg().tensor
    cfg = nm.FlowConfig(step=1e12, horizon=1e13, max_iter=5)
    with pytest.raises(nm.StepCollapse):
        nm.metric_flow(t, nm.no_structure(3), nm.Metric.identity(3), cfg)


def test_sample_every_thins_trace():
    t = nm.heisenberg().tensor
    dense = nm.metric_flow(t, nm.no_structure(3), nm.Metric.identity(3),
                           nm.FlowConfig(step=1e-2, horizon=0.5))
    thin = nm.metric_flow(t, nm.no_structure(3), nm.Metric.identity(3),
                          nm.FlowConfig(step=1e-2, horizon=0.5,
                                        sample_every=10))
    assert len(dense.samples) > len(thin.samples)
    # the final state does not depend on the sampling cadence
    assert np.abs(dense.final_state.matrix - thin.final_state.matrix).max() < 1e-14


def test_soliton_selfsimilarity_heisenberg():
    rep = nm.soliton_selfsimilarity_check(
        nm.heisenberg().tensor,
        cfg=nm.FlowConfig(step=1e-2, horizon=1.0, sample_every=10))
    assert rep.max_deviation <= 1e-6
    assert rep.certificate.minimal


def test_soliton_selfsimilarity_m26():
    p = nm.m26_point(1.0, 0.0)
    rep = nm.soliton_selfsimilarity_check(
        p.tensor, gamma=p.structure,
        cfg=nm.FlowConfig(step=1e-2, horizon=1.0, sample_every=10))
    assert rep.max_deviation <= 1e-6


def test_soliton_check_requires_certificate():
    rng = np.random.default_rng(11)
    g = np.eye(6) + 0.2 * rng.standard_normal((6, 6))
    moved = nm.act(g, nm.m26_point(1.0, 0.0).tensor)
    with pytest.raises(nm.NotCertifiedError):
        nm.soliton_selfsimilarity_check(moved)


def test_descent_zero_tensor():
    with pytest.raises(nm.ZeroTensor):
        nm.bracket_descent(nm.SkewTensor.zero(6))


def test_descent_rejects_nonintegrable_start():
    gamma = nm.standard_structure("symplectic", 6)
    open_tensor = nm.symplectic_family(1.0, 1.0, 1.0, 1.0, 1.0, 0.5).tensor
    with pytest.raises(nm.InvalidBracket):
        nm.bracket_descent(open_tensor, gamma=gamma)


def test_descent_at_critical_point_converges_immediately():
    p = nm.m26_point(1.0, 0.0)
    trace = nm.bracket_descent(p.tensor, gamma=p.structure)
    assert trace.converged
    assert trace.samples[-1][0] == 0
    assert trace.samples[-1][2] == pytest.approx(7.0 / 160.0, abs=1e-14)


def test_descent_from_perturbed_start(sp6_basis):
    rng = np.random.default_rng(501)
    start = perturbed_m26(sp6_basis, rng, scale=0.3)
    trace = nm.bracket_descent(start,
                               gamma=nm.m26_point(1.0, 0.0).structure)
    fs = [row[2] for row in trace.samples]
    assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))
    assert trace.converged
    assert fs[-1] == pytest.approx(7.0 / 160.0, abs=1e-8)
    cert = nm.certify_minimal(trace.final_state,
                              gamma=nm.m26_point(1.0, 0.0).structure,
                              allow_scale=True)
    assert cert.minimal
    assert nm.jacobi_residual(trace.final_state) < 1e-8


def test_descent_direction_is_sphere_gradient(sp6_basis):
    # central finite difference of the functional along the normalized
    # descent direction equals minus the direction norm
    rng = np.random.default_rng(77)
    gamma = nm.m26_point(1.0, 0.0).structure
    eps = 1e-6
    checked = 0
    for _ in range(6):
        T = perturbed_m26(sp6_basis, rng, scale=0.35)
        T = T.scaled(1.0 / T.norm())
        d = nm.descent_direction(T, gamma)
        nd = d.norm()
        if nd < 1e-4:
            continue
        u = d.scaled(1.0 / nd)

        def f_at(s):
            cand = nm.SkewTensor.from_full(
                np.cos(s) * T.full() + np.sin(s) * u.full())
            return nm.functional_F(cand, gamma=gamma, allow_scale=True)

        fd = (f_at(eps) - f_at(-eps)) / (2.0 * eps)
        assert abs(fd + nd) <= 1e-5 * nd
        checked += 1
    assert checked >= 4


def test_subspace_descent_on_closed_slice():
    # linear slice of closed symplectic brackets: the closedness
    # constraint ties the last slot to the sum of the first and third
    slots = nm.symplectic_family_span()
    a, b, c, d, e, f = slots
    slice_basis = [
        nm.SkewTensor.from_full(a.full() + f.full()),
        b,
        nm.SkewTensor.from_full(c.full() + f.full()),
        d,
        e,
    ]
    gamma = nm.standard_structure("symplectic", 6)
    start = nm.SkewTensor.from_full(
        0.9 * slice_basis[0].full() + 0.4 * slice_basis[1].full()
        + 1.2 * slice_basis[2].full() + 0.7 * slice_basis[3].full()
        + 1.1 * slice_basis[4].full())
    trace = nm.bracket_descent(start, gamma=gamma, subspace=slice_basis)
    fs = [row[2] for row in trace.samples]
    assert all(y <= x + 1e-12 for x, y in zip(fs, fs[1:]))
    assert trace.converged
    assert fs[-1] == pytest.approx(7.0 / 160.0, abs=1e-9)
    cert = nm.certify_minimal(trace.final_state, gamma=gamma,
                              allow_scale=True)
    assert cert.minimal


def test_converged_descent_limit_is_flow_fixed_point():
    # a certified minimal bracket is a fixed point of the normalized
    # metric flow: the metric stays put up to the derivation reparam
    p = nm.m26_point(1.0, 0.0)
    trace = nm.metric_flow(p.tensor, p.structure, nm.Metric.identity(6),
                           nm.FlowConfig(step=1e-2, horizon=0.5,
                                         sample_every=10))
    cert = nm.certify_minimal(p.tensor, gamma=p.structure)
    for row, Gt in zip(trace.samples, trace.states):
        phi = expm(-0.5 * row[0] * cert.D)
        assert np.abs(Gt - phi.T @ phi).max() < 1e-6


def test_flow_step_cap_reports_stop_reason():
    t = nm.heisenberg().tensor
    cfg = nm.FlowConfig(step=1e-3, horizon=100, max_iter=5)
    trace = nm.metric_flow(t, nm.no_structure(3), nm.Metric.identity(3), cfg)
    assert not trace.converged
    assert trace.stop_reason == "step_cap"
    assert trace.samples[-1][0] == pytest.approx(0.5, abs=1e-9)


def test_flow_does_not_swallow_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr("nilmetric.flows.invariant_ricci", broken)
    with pytest.raises(TypeError, match="injected"):
        nm.metric_flow(nm.heisenberg().tensor, nm.no_structure(3),
                       nm.Metric.identity(3), nm.FlowConfig(horizon=0.1))

"""Metric flows, bracket descent and soliton self-similarity."""

import ast
import re
import sys

import numpy as np
import pytest
from scipy.linalg import expm

import nilmetric as nm

from conftest import (algebra_reference, coarse_flow_start,
                      count_kernel_calls, fd_defect_jacobian, group_reference,
                      perturbed_m26, reference_direction)
from nilmetric.flows import _certified, _defect_jacobian, _flow_field
from nilmetric.structures import _frame_projector, _transported_payload


def minus_coboundary_of_D(T, gamma):
    """The descent direction -delta_T(D), D from the certificate of T."""
    D = nm.certify_minimal(T, gamma=gamma, allow_scale=True).D
    return nm.coboundary(T, D).scaled(-1.0)


def test_zero_bracket_flow_is_stationary():
    trace = nm.metric_flow(nm.SkewTensor.zero(3), nm.no_structure(3),
                           nm.Metric.identity(3),
                           nm.FlowConfig(step=0.1, horizon=0.3))
    assert trace.converged
    assert np.abs(trace.final_state.matrix - np.eye(3)).max() == 0.0


def test_flow_config_validation():
    # a NaN step fails every attempt as an "error" until the step cap, an
    # infinite one drifts scal on every attempt and never collapses, and
    # sample_every=1.5 would sample every third step
    for settings in ({"step": -1e-3}, {"step": np.nan}, {"step": np.inf},
                     {"horizon": 0.0}, {"horizon": np.nan},
                     {"horizon": np.inf}, {"sign": "down"},
                     {"sample_every": 0}, {"sample_every": 1.5},
                     {"max_steps": 0}, {"max_steps": np.nan}):
        with pytest.raises(ValueError):
            nm.FlowConfig(**settings)
    # the descent's own settings: no norm is <= NaN, so a NaN tolerance
    # would end even the exact m26 minimum by line_search
    p = nm.m26_point(1.0, 0.0)
    for settings in ({"tol_converge": -1.0}, {"tol_converge": np.nan},
                     {"tol_converge": np.inf}, {"max_iter": 0},
                     {"max_iter": 2.5}):
        with pytest.raises(ValueError):
            nm.bracket_descent(p.tensor, p.structure, **settings)
    # the self-similarity check compares against the normalized flow only
    with pytest.raises(ValueError):
        nm.soliton_selfsimilarity_check(p.tensor, gamma=p.structure,
                                        cfg=nm.FlowConfig(renorm=False))


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


def test_unnormalized_heisenberg_flow_closed_form():
    # the forward flow keeps G = diag(a, a, c) with c / a^2 = 1 / (1 + 3t/2),
    # which RK4 at step 1e-3 follows to 1e-12
    cfg = nm.FlowConfig(step=1e-3, horizon=0.5, renorm=False)
    trace = nm.metric_flow(nm.heisenberg().tensor, nm.no_structure(3),
                           nm.Metric.identity(3), cfg)
    G = trace.final_state.matrix
    want = 1.0 / (1.0 + 1.5 * 0.5)
    assert trace.stop_reason == "horizon"
    assert abs(G[2, 2] / G[0, 0] ** 2 - want) < 1e-12 * want


def test_flow_config_has_one_integrator():
    # RK4 is the only integrator: the name stays readable, but it is not a
    # setting
    assert nm.FlowConfig().integrator == "rk4"
    with pytest.raises(TypeError):
        nm.FlowConfig(integrator="euler")


def test_flow_rejects_incompatible_start():
    p = nm.complex_curve(1.0)
    G = nm.Metric(np.diag([1.0, 2, 1, 1, 1, 1]))
    with pytest.raises(nm.IncompatibleMetric):
        nm.metric_flow(p.tensor, p.structure, G, nm.FlowConfig(horizon=0.1))


def test_flow_step_collapse_on_huge_step():
    t = nm.heisenberg().tensor
    cfg = nm.FlowConfig(step=1e12, horizon=1e13, max_steps=500)
    with pytest.raises(nm.StepCollapse):
        nm.metric_flow(t, nm.no_structure(3), nm.Metric.identity(3), cfg)


def test_flow_does_not_step_across_a_blowup():
    # the unnormalized backward flow of Heisenberg degenerates at t = 2/3
    # (c / a^2 = 1 / (1 - 3t/2) for G = diag(a, a, c)); no step may jump
    # the singularity, so the run ends there in StepCollapse
    cfg = nm.FlowConfig(step=0.1, horizon=5.0, renorm=False, sign="plus")
    with pytest.raises(nm.StepCollapse) as info:
        nm.metric_flow(nm.heisenberg().tensor, nm.no_structure(3),
                       nm.Metric.identity(3), cfg)
    t_stop = float(str(info.value).split("t = ")[1])
    assert abs(t_stop - 2.0 / 3.0) < 0.01


def _collapse_rejections(cfg) -> dict:
    """The rejected steps by reason that StepCollapse names for the
    Heisenberg flow from the identity metric."""
    with pytest.raises(nm.StepCollapse) as info:
        nm.metric_flow(nm.heisenberg().tensor, nm.no_structure(3),
                       nm.Metric.identity(3), cfg)
    return ast.literal_eval(re.search(r"(\{.*\}) at t = ",
                                      str(info.value)).group(1))


def test_blowup_collapses_on_bracket_gap_rejections():
    # past t = 2/3 the integrated bracket leaves act(h_new, mu0) by more
    # than flows.GAP_TOL: the gap test alone stops the flow at the blow-up
    cfg = nm.FlowConfig(step=0.1, horizon=5.0, renorm=False, sign="plus")
    rejected = _collapse_rejections(cfg)
    assert rejected["bracket_gap"] > 0
    assert rejected["error"] == rejected["scal_drift"] == 0


def test_huge_step_collapses_on_scal_drift_rejections():
    rejected = _collapse_rejections(
        nm.FlowConfig(step=1e12, horizon=1e13, max_steps=500))
    assert rejected["scal_drift"] > 0
    assert rejected["error"] == rejected["bracket_gap"] == 0


def test_flow_rejects_a_stage_that_overflows():
    # at step 1e100 the stage brackets mu + c dt mu' overflow: each such
    # attempt is rejected as an "error", never a crash, until the step
    # collapses
    cfg = nm.FlowConfig(step=1e100, horizon=1e101, renorm=False,
                        max_steps=500)
    with pytest.raises(nm.StepCollapse):
        nm.metric_flow(nm.heisenberg().tensor, nm.no_structure(3),
                       nm.Metric.identity(3), cfg)


def test_flow_rejects_a_stage_whose_pair_rows_turn_nan(monkeypatch):
    # a NaN raises no floating-point error, but the stage whose pair rows
    # are NaN gives a NaN frame velocity, and act rejects the non-finite
    # frame: the attempt is an "error", and the halved step goes on
    field = nm.flows._flow_field
    calls = []

    def poisoned(C, P, h, sign, renorm):
        calls.append(1)
        velocity, dh = field(C, P, h, sign, renorm)
        return (np.full_like(velocity, np.nan) if len(calls) == 1
                else velocity), dh

    monkeypatch.setattr("nilmetric.flows._flow_field", poisoned)
    trace = nm.metric_flow(nm.heisenberg().tensor, nm.no_structure(3),
                           nm.Metric.identity(3),
                           nm.FlowConfig(step=1e-2, horizon=0.1))
    assert trace.converged
    assert trace.stats["rejected"] == {"error": 1, "scal_drift": 0,
                                       "bracket_gap": 0}
    assert trace.stats["min_step"] == 5e-3
    assert np.isfinite(trace.final_state.matrix).all()


@pytest.mark.parametrize("renorm", [True, False])
@pytest.mark.parametrize("preset", ["m26", "iwasawa-curve", "hc-g3"])
def test_flow_field_moves_the_bracket_as_act_does(preset, renorm):
    # the pair field (mu', h') at a non-identity compatible frame: mu' is
    # the derivative of act(h + e h', mu0) at e = 0, here by a central
    # difference of act itself, not of the coboundary.  With e = 1e-6 the
    # difference's truncation and rounding errors stay below 1e-9 of the
    # velocity's scale max|A| max|mu| (A = h' h^-1); the bound is 1e-8
    p = nm.catalog_get(preset)
    basis = group_reference(p.structure)
    rng = np.random.default_rng(22)
    xi = sum(c * B for c, B in zip(rng.standard_normal(len(basis)), basis))
    xi *= 0.25 * np.sqrt(len(basis)) / np.linalg.norm(xi)
    phi = expm(xi)
    G0 = nm.Metric(phi.T @ phi)
    h = G0.transport
    P = _frame_projector(p.structure, _transported_payload(
        p.structure, G0, allow_scale=True))
    mu = nm.act(h, p.tensor)
    velocity, dh = _flow_field(mu.coeffs, P, h, -1.0, renorm)
    e = 1e-6
    want = (nm.act(h + e * dh, p.tensor).coeffs
            - nm.act(h - e * dh, p.tensor).coeffs) / (2 * e)
    scale = np.abs(dh @ np.linalg.inv(h)).max() * np.abs(mu.coeffs).max()
    assert np.abs(velocity - want).max() <= 1e-8 * scale


def test_criterion_8_flows_keep_the_bracket_gap(sp6_basis):
    # criterion 8's 20 starts: every RK4 step lands within 1e-10 of
    # act(h_new, mu0), far inside flows.GAP_TOL, so no step is rejected
    p = nm.m26_point(1.0, 0.0)
    rng = np.random.default_rng(808)
    cfg = nm.FlowConfig(step=1e-3, horizon=1.0, sample_every=20)
    for _ in range(20):
        coeffs = rng.standard_normal(len(sp6_basis))
        xi = sum(c * B for c, B in zip(coeffs, sp6_basis))
        xi *= 0.25 * np.sqrt(len(sp6_basis)) / np.linalg.norm(xi)
        phi = expm(xi)
        stats = nm.metric_flow(p.tensor, p.structure,
                               nm.Metric(phi.T @ phi), cfg).stats
        assert stats["rejected"]["bracket_gap"] == 0
        assert stats["bracket_gap"] <= 1e-10


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
    # the backward flow (sign plus) follows expm(+t D)
    for sign in ("minus", "plus"):
        rep = nm.soliton_selfsimilarity_check(
            nm.heisenberg().tensor,
            cfg=nm.FlowConfig(step=1e-2, horizon=1.0, sample_every=10,
                              sign=sign))
        assert rep.max_deviation <= 1e-6
        assert rep.certificate.minimal


def test_soliton_selfsimilarity_m26():
    p = nm.m26_point(1.0, 0.0)
    for sign in ("minus", "plus"):
        rep = nm.soliton_selfsimilarity_check(
            p.tensor, gamma=p.structure,
            cfg=nm.FlowConfig(step=1e-2, horizon=1.0, sample_every=10,
                              sign=sign))
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
    assert trace.stop_reason == "converged"
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
        d = minus_coboundary_of_D(T, gamma)
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


@pytest.mark.parametrize("name", ["m26", "iwasawa-curve", "hc-g3",
                                  "heisenberg"])
def test_descent_direction_is_minus_coboundary_of_D(name):
    # -delta_mu(D) equals the tangential part of -delta_mu(Ric^gamma); the
    # direction is cubic in mu, so on unit tensors the error is absolute
    # (hc-g3 and heisenberg stay critical along their orbits)
    p = nm.catalog_get(name)
    n = p.tensor.dim
    basis = group_reference(p.structure)
    rng = np.random.default_rng(91)
    for _ in range(5):
        xi = sum(c * B for c, B in zip(rng.standard_normal(len(basis)), basis))
        T = nm.act(expm(0.3 * xi / np.linalg.norm(xi)), p.tensor)
        T = T.scaled(1.0 / T.norm())
        got = minus_coboundary_of_D(T, p.structure)
        want = reference_direction(T, p.structure)
        assert got.plus(want, -1.0).norm() <= 1e-12


def test_descent_computes_one_defect_per_bracket(sp6_basis, monkeypatch):
    # the certificate's coboundary delta_mu(D) of a bracket gives its
    # direction, its stop-test norm, its Gauss-Newton residual and its trace
    # row: no bracket has it computed twice, and it is computed for the
    # trace rows and for the Gauss-Newton trials that were rejected (a
    # rejected first-phase trial needs only F; the Jacobian needs none)
    calls = []

    def counted(mu, A):
        calls.append(mu.coeffs.tobytes())
        return nm.coboundary(mu, A)

    for name, module in list(sys.modules.items()):
        if (name.startswith("nilmetric.")
                and getattr(module, "coboundary", None) is nm.coboundary):
            monkeypatch.setattr(module, "coboundary", counted)
    gamma = nm.m26_point(1.0, 0.0).structure
    start = perturbed_m26(sp6_basis, np.random.default_rng(501), scale=0.3)
    trace = nm.bracket_descent(start, gamma=gamma)
    monkeypatch.undo()
    assert trace.converged
    assert len(calls) == len(trace.samples) + trace.stats["polish_backtracks"]
    assert len(calls) == len(set(calls))
    cert = nm.certify_minimal(trace.final_state, gamma=gamma)
    assert trace.samples[-1][3] == cert.residual


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
    cfg = nm.FlowConfig(step=1e-3, horizon=100, max_steps=500)
    trace = nm.metric_flow(t, nm.no_structure(3), nm.Metric.identity(3), cfg)
    assert not trace.converged
    assert trace.stop_reason == "step_cap"
    assert trace.samples[-1][0] == pytest.approx(0.5, abs=1e-9)


def test_flow_does_not_swallow_programming_errors(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("injected")

    monkeypatch.setattr("nilmetric.flows.frame_curvature", broken)
    with pytest.raises(TypeError, match="injected"):
        nm.metric_flow(nm.heisenberg().tensor, nm.no_structure(3),
                       nm.Metric.identity(3), nm.FlowConfig(horizon=0.1))


def _reference_flow(tensor, gamma, G0, step, horizon):
    """Normalized flow integrated in G by fixed-step RK4, dG/dt =
    -sym(G Ric^gamma_G) + (tr (Ric^gamma)^2 / scal) G: the metric-state
    integrator that metric_flow's frame state replaced."""
    def field(G):
        metric = nm.Metric(G)
        ric = nm.ricci_operator(tensor, metric)
        if gamma.tag == "symplectic":
            # kappa-normalized J_G, without the cone check: RK4's stage
            # metrics leave the cone at second order in the step
            J = nm.metric_jmap(gamma, metric)
            J = J / np.sqrt(-np.trace(J @ J) / len(J))
            ric_gamma = 0.5 * (ric + J @ ric @ J)
        else:
            ric_gamma = nm.invariant_ricci(tensor, metric, gamma)
        dG = G @ ric_gamma
        scal = nm.scalar_curvature(tensor, metric)
        return (-0.5 * (dG + dG.T)
                + (np.trace(ric_gamma @ ric_gamma) / scal) * G)

    G = G0.matrix
    for _ in range(round(horizon / step)):
        k1 = field(G)
        k2 = field(G + 0.5 * step * k1)
        k3 = field(G + 0.5 * step * k2)
        k4 = field(G + step * k3)
        G = G + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return G


@pytest.mark.parametrize("preset", ["m26", "iwasawa-curve", "hc-g3"])
def test_frame_flow_matches_metric_state_rk4(preset):
    # Both integrate the same flow by RK4 at step 1e-3 and agree to their
    # truncation error.  Brackets are scaled to m26's norm: at its catalog
    # scale the iwasawa-curve flow makes G ill-conditioned within t = 1,
    # and the two truncation errors grow with the condition number.
    p = nm.catalog_get(preset)
    tensor = p.tensor.scaled(nm.catalog_get("m26").tensor.norm()
                             / p.tensor.norm())
    basis = group_reference(p.structure)
    rng = np.random.default_rng(808)
    xi = sum(c * B for c, B in zip(rng.standard_normal(len(basis)), basis))
    xi *= 0.25 * np.sqrt(len(basis)) / np.linalg.norm(xi)
    phi = expm(xi)
    G0 = nm.Metric(phi.T @ phi)
    cfg = nm.FlowConfig(step=1e-3, horizon=0.5, sample_every=100)
    G = nm.metric_flow(tensor, p.structure, G0, cfg).final_state.matrix
    want = _reference_flow(tensor, p.structure, G0, cfg.step, cfg.horizon)
    assert np.abs(G - want).max() <= 1e-8 * np.abs(want).max()


def test_flow_works_in_the_frame(monkeypatch):
    # one Metric (the final one), one kernel call per field evaluation and
    # per sample, and one act per attempted step: the stages move the
    # bracket by its velocity, and each step's act re-anchors it
    p = nm.m26_point(1.0, 0.0)
    G0 = nm.Metric(np.diag([1.0, 2.0, 3.0, 1 / 3.0, 1 / 2.0, 1.0]))
    metrics = []
    init = nm.Metric.__init__

    def counted_init(self, matrix):
        metrics.append(1)
        init(self, matrix)

    monkeypatch.setattr(nm.Metric, "__init__", counted_init)
    kernel_calls = count_kernel_calls(monkeypatch, "nilmetric.flows")
    acts = []

    def counted_act(g, mu):
        acts.append(1)
        return nm.act(g, mu)

    monkeypatch.setattr("nilmetric.flows.act", counted_act)
    trace = nm.metric_flow(p.tensor, p.structure, G0,
                           nm.FlowConfig(step=1e-2, horizon=0.3,
                                         sample_every=10))
    assert trace.converged
    assert len(metrics) == 1
    assert len(kernel_calls) == 4 * 30 + len(trace.samples)
    assert len(acts) == 1 + 30
    assert trace.stats.pop("bracket_gap") <= 1e-10
    assert trace.stats == {"field_evals": 4 * 30, "accepted": 30,
                           "rejected": {"error": 0, "scal_drift": 0,
                                        "bracket_gap": 0},
                           "min_step": 1e-2, "final_step": 1e-2}


def test_coarse_flow_regrows_its_step():
    # the benchmark's coarse CLI flow: without regrowth it halved to
    # cfg.step / 8 and took 161 accepted steps and 656 field evaluations.
    # Every step of cfg.step / 2 drifts scal beyond 1e-8 on this run, so
    # its step settles at cfg.step / 4.
    p, G0 = coarse_flow_start()
    cfg = nm.FlowConfig(step=0.05)
    trace = nm.metric_flow(p.tensor, p.structure, G0, cfg)
    stats = trace.stats
    assert trace.converged
    assert stats["field_evals"] < 656
    assert stats["field_evals"] == 4 * (stats["accepted"]
                                        + sum(stats["rejected"].values()))
    assert stats["accepted"] == len(trace.samples) - 1
    assert stats["rejected"]["scal_drift"] > 0
    assert stats["min_step"] < stats["final_step"] <= cfg.step
    scals = [row[1] for row in trace.samples]
    assert abs(scals[-1] - scals[0]) <= 1e-6 * abs(scals[0])
    # the step grows only after 8 accepted steps of one size
    # (flows.REGROW_AFTER; the last step is cut at the horizon)
    steps = np.diff([row[0] for row in trace.samples])[:-1]
    grown = np.flatnonzero(steps[1:] > steps[:-1] * 1.5) + 1
    assert len(grown) > 0
    for i in grown:
        assert i >= 8
        assert np.allclose(steps[i - 8:i], steps[i - 1], rtol=1e-9, atol=0.0)


def test_coarse_flow_ends_on_the_horizon_and_backs_off():
    # the last step is stretched onto the horizon rather than leaving a
    # step of rounding size after it, so every accepted step is at least
    # min_step and final_step is the last step taken; a doubling that fails
    # doubles the wait before the next one (13 rejections without it)
    p, G0 = coarse_flow_start()
    trace = nm.metric_flow(p.tensor, p.structure, G0, nm.FlowConfig(step=0.05))
    stats = trace.stats
    times = [row[0] for row in trace.samples]
    steps = np.diff(times)
    assert trace.converged
    assert times[-1] == 1.0
    assert steps.min() >= stats["min_step"] * (1.0 - 1e-9)
    assert abs(steps[-1] - stats["final_step"]) <= 1e-12
    assert sum(stats["rejected"].values()) <= 6
    scals = [row[1] for row in trace.samples]
    assert abs(scals[-1] - scals[0]) <= 1e-6 * abs(scals[0])
    # over 2,000 steps of 5e-4 t falls 5e-14 short of the horizon, which
    # took one more step of that size before
    fine = nm.metric_flow(nm.heisenberg().tensor, nm.no_structure(3),
                          nm.Metric.identity(3),
                          nm.FlowConfig(step=5e-4, renorm=False,
                                        sample_every=1000))
    assert fine.stats["accepted"] == 2_000
    assert fine.samples[-1][0] == 1.0


def test_flow_step_grows_back_to_cfg_step():
    # hc-g3 from a large perturbation: steps of cfg.step drift scal, and the
    # halved step grows back to cfg.step and tries it again.  On this run
    # every step of cfg.step drifts scal (through t = 8), so the flow ends
    # on the halved step, the last one it took
    p = nm.catalog_get("hc-g3")
    basis = group_reference(p.structure)
    rng = np.random.default_rng(0)
    xi = sum(c * B for c, B in zip(rng.standard_normal(len(basis)), basis))
    phi = expm(0.8 * np.sqrt(len(basis)) / np.linalg.norm(xi) * xi)
    cfg = nm.FlowConfig(step=0.05)
    trace = nm.metric_flow(p.tensor, p.structure, nm.Metric(phi.T @ phi), cfg)
    assert trace.converged
    assert trace.stats["rejected"]["scal_drift"] > 1
    assert trace.stats["min_step"] < cfg.step
    assert trace.stats["final_step"] == trace.stats["min_step"] == cfg.step / 2


def test_descent_calls_kernel_once_per_bracket(sp6_basis, monkeypatch):
    calls = count_kernel_calls(monkeypatch, "nilmetric.flows")
    rng = np.random.default_rng(501)
    start = perturbed_m26(sp6_basis, rng, scale=0.3)
    trace = nm.bracket_descent(start, gamma=nm.m26_point(1.0, 0.0).structure)
    assert trace.converged
    assert len(calls) == len(set(calls))
    # one per trace row and one per rejected line-search trial of either
    # phase; the Jacobian makes none
    stats = trace.stats
    assert len(calls) == (len(trace.samples) + stats["backtracks"]
                          + stats["polish_backtracks"])


def test_descent_stats_count_the_run(sp6_basis):
    gamma = nm.m26_point(1.0, 0.0).structure
    start = perturbed_m26(sp6_basis, np.random.default_rng(501), scale=0.3)
    trace = nm.bracket_descent(start, gamma=gamma)
    stats = trace.stats
    assert trace.converged
    assert len(trace.samples) == (1 + stats["iterations"]
                                  + stats["polish_iterations"])
    assert stats["polish_iterations"] >= 1
    assert stats["polish_iterations"] <= stats["jacobians"]
    # the symmetric structure algebra of m26 has dimension 12, and the
    # stabilizer of a bracket near the limit drops the rank of the solve
    assert 1 <= stats["rank_min"] <= stats["rank_max"] <= 12
    assert nm.bracket_descent(start, gamma=gamma).stats == stats
    at_limit = nm.bracket_descent(nm.m26_point(1.0, 0.0).tensor, gamma=gamma)
    assert at_limit.stats == {"iterations": 0, "backtracks": 0,
                              "polish_iterations": 0, "polish_backtracks": 0,
                              "jacobians": 0, "rank_min": None,
                              "rank_max": None}


@pytest.mark.parametrize("name,structured", [
    ("m26", True), ("iwasawa-curve", True), ("hc-g3", True), ("m26", False)])
def test_defect_jacobian_matches_finite_differences(name, structured):
    # at perturbed points, off the orbit too (the whole orbit of hc-g3 is
    # minimal, so there its defect and Jacobian vanish identically)
    p = nm.catalog_get(name)
    n = p.tensor.dim
    gamma = p.structure if structured else nm.no_structure(n)
    identity = nm.Metric.identity(n)
    basis = algebra_reference(gamma).sym_basis
    group = group_reference(p.structure)
    P = _frame_projector(gamma, _transported_payload(gamma, identity))
    rng = np.random.default_rng(13)
    for _ in range(3):
        xi = sum(c * B for c, B in zip(rng.standard_normal(len(group)), group))
        T = nm.act(expm(0.3 * xi / np.linalg.norm(xi)), p.tensor)
        T = T.plus(nm.SkewTensor(n, rng.standard_normal(T.coeffs.shape)),
                   0.05 / np.sqrt(T.coeffs.size))
        point = _certified(T.scaled(1.0 / T.norm()), P)
        got = _defect_jacobian(point, np.stack(basis), P)
        want = fd_defect_jacobian(point, basis, P)
        assert got.shape == want.shape == (T.coeffs.size, len(basis))
        assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)


def test_descent_stop_reasons(sp6_basis):
    gamma = nm.m26_point(1.0, 0.0).structure
    start = perturbed_m26(sp6_basis, np.random.default_rng(501), scale=0.3)
    capped = nm.bracket_descent(start, gamma=gamma, max_iter=1)
    assert capped.stop_reason == "iteration_cap"
    assert not capped.converged
    # iwasawa-curve descents from criterion-10 perturbations converge,
    # stall or fail a line search; the reason is "converged" exactly when
    # the run converged
    p = nm.catalog_get("iwasawa-curve")
    basis = group_reference(p.structure)
    for seed in range(16):
        rng = np.random.default_rng(seed)
        xi = sum(c * B for c, B in zip(rng.standard_normal(len(basis)), basis))
        xi *= 0.3 * np.sqrt(len(basis)) / np.linalg.norm(xi)
        trace = nm.bracket_descent(nm.act(expm(xi), p.tensor), p.structure)
        assert trace.stop_reason in ("converged", "line_search", "stall",
                                     "iteration_cap")
        assert (trace.stop_reason == "converged") == trace.converged


@pytest.mark.parametrize("preset", ["m26", "iwasawa-curve"])
def test_flow_is_equivariant_under_basis_change(preset):
    # moving the bracket, the structure and G0 by one basis change g moves
    # the flow by g: G'(t) = g^-T G(t) g^-1 (Cholesky frames of the two
    # starts differ by a map outside the structure group)
    p = nm.catalog_get(preset)
    n = p.tensor.dim
    rng = np.random.default_rng(5)
    g = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    ginv = np.linalg.inv(g)
    if p.structure.tag == "symplectic":
        moved = nm.symplectic_structure(ginv.T @ p.structure.payload @ ginv)
    else:
        moved = nm.complex_structure(g @ p.structure.payload @ ginv)
    basis = group_reference(p.structure)
    xi = sum(c * B for c, B in zip(rng.standard_normal(len(basis)), basis))
    phi = expm(0.25 * np.sqrt(len(basis)) / np.linalg.norm(xi) * xi)
    G0 = phi.T @ phi
    cfg = nm.FlowConfig(step=1e-2, horizon=0.2)
    want = nm.metric_flow(p.tensor, p.structure, nm.Metric(G0), cfg)
    got = nm.metric_flow(nm.act(g, p.tensor), moved,
                         nm.Metric(ginv.T @ G0 @ ginv), cfg)
    G = ginv.T @ want.final_state.matrix @ ginv
    assert np.abs(got.final_state.matrix - G).max() <= 1e-10 * np.abs(G).max()

"""Time integration of the invariant Ricci flow on metrics and
sphere-constrained gradient descent of the curvature functional on
brackets, plus the self-similarity check for certified solitons.

Both build the structure's projector matrix once and call the curvature
kernel on pair rows once per bracket they visit, and both use the
certificate's split Ric^gamma = c I + D (curvature.soliton_split).  The
metric flow is a bracket flow (Lauret, "The Ricci flow for simply
connected nilmanifolds", Comm. Anal. Geom. 19, 2011) on the pair (mu, h),
G = h^T h and mu = act(h, mu0): h' = s/2 A h and mu' = s/2 delta_mu(A), A
the Ric^gamma of mu at the identity (D for the normalized flow).  Its
stages pass bare pair rows; each step forms act(h_new, mu0) once, to test
the integrated bracket and as the next state.

The bracket descent runs in two phases.  Phase one follows the orbit
retraction mu <- normalize(act(expm(-eta * Ric^gamma), mu)) with a
backtracking line search on the functional.  By the moment map identity
<delta_mu(A), mu> = 4 tr(Ric A), A symmetric, the radial part of
delta_mu(Ric^gamma) is delta_mu(c I), so the descent direction is
-delta_mu(D), the certificate's coboundary.  Near a critical point the
retraction amplifies off-variety rounding (the exponential winds the
stabilizer of the limit), so once the direction norm is small the
iteration hands off to phase two: a damped Gauss-Newton solve for a
structure-group element annihilating delta_mu(D), which stays on the
orbit by construction and converges quadratically.  Its Jacobian is
analytic (_defect_jacobian): the orbit's velocity at mu along xi is
delta_mu(xi) and Ric is quadratic in mu, so the derivative of delta_mu(D)
is one batched tangent map over the structure algebra.  Phase one alone
either stalls or escapes along the rounding error; the combination is
stable down to direction norms at rounding level.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .algebra_core import (
    Metric,
    SkewTensor,
    _coboundary_rows,
    _full_array,
    _identity,
    _to_frame,
    act,
    as_tensor,
    combine,
    expm,
)
from .curvature import F_of_ricci, _ricci_form, frame_curvature, soliton_split
from .errors import (
    InvalidBracket,
    NilmetricError,
    NotCertifiedError,
    StepCollapse,
    ZeroTensor,
)
from .minimality import certify_minimal, frame_certificate
from .structures import (
    Structure,
    _frame_projector,
    _transported_payload,
    integrability_accepted,
    integrability_residual,
    no_structure,
    structure_algebra,
    with_defaults,
)

POLISH_THRESHOLD = 1e-3
ESCAPE_FACTOR = 10.0
MAX_HALVINGS = 40
REGROW_AFTER = 8  # accepted steps in a row before a halved step first doubles
MAX_POLISH_ITERS = 40
GAP_TOL = 1e-6  # metric_flow's bound on |mu_rk4 - act(h_new, mu0)| relative
RK4_STAGES = ((0.5, 2.0), (0.5, 2.0), (1.0, 1.0))  # RK4 (c, w) after stage 1
TOL_CONVERGE = 1e-8  # bracket_descent's default stop on |delta_mu(D)|
MAX_ITER = 500  # bracket_descent's default cap on first-phase iterations


def _require_positive(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_count(name: str, value) -> None:
    if not (isinstance(value, numbers.Integral) and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class FlowConfig:
    """The settings of metric_flow; max_steps caps the attempted steps."""
    step: float = 1e-3
    horizon: float = 1.0
    sign: str = "minus"
    renorm: bool = True
    max_steps: int = 50_000
    sample_every: int = 1
    # not a field: the one integrator, named for bench/tracing.py's step
    # counter, which reads cfg.integrator
    integrator = "rk4"

    def __post_init__(self):
        _require_positive("step", self.step)
        _require_positive("horizon", self.horizon)
        if self.sign not in ("plus", "minus"):
            raise ValueError(f"sign must be plus or minus, got {self.sign!r}")
        _require_count("max_steps", self.max_steps)
        _require_count("sample_every", self.sample_every)


@dataclass
class FlowTrace:
    samples: list = field(default_factory=list)
    final_state: object = None
    converged: bool = False
    states: list = field(default_factory=list)  # metric matrices at samples
    stop_reason: str = None  # see metric_flow and bracket_descent
    stats: dict = field(default_factory=dict)  # counters of the run


def _unit(tensor: SkewTensor) -> SkewTensor:
    norm = tensor.norm()
    if norm == 0.0:
        raise ZeroTensor("cannot normalize the zero tensor")
    return tensor.scaled(1.0 / norm)


# a bracket at the identity metric with its curvature and certificate:
# Ric^gamma = c I + D, the certificate residual and the defect delta_mu(D)
_Point = namedtuple("_Point", "tensor ric_gamma norm2 c D residual defect")


def _certified(tensor: SkewTensor, P: np.ndarray) -> _Point:
    """The certified point of a bracket: one kernel call and one
    certificate, made once for each bracket the flow samples or the
    descent visits."""
    _, ric_gamma, norm2 = frame_curvature(tensor.coeffs, tensor.full(), P)
    return _Point(tensor, ric_gamma, norm2,
                  *frame_certificate(tensor, ric_gamma, norm2))


def _sample_row(point: _Point, t: float) -> tuple:
    """Trace row (t, scal, F, certificate residual) of a certified bracket."""
    return (float(t), -0.25 * point.norm2,
            F_of_ricci(point.ric_gamma, point.norm2), point.residual)


def _flow_field(C: np.ndarray, P: np.ndarray, h: np.ndarray, sign: float,
                renorm: bool) -> tuple:
    """(mu', h') of the pair state (mu, h), mu = act(h, mu0) with pair rows
    C: h' = s/2 A h and mu' = s/2 delta_mu(A) as pair rows, with A = D (or
    Ric^gamma when not renorm) of mu at the identity, from one full array F."""
    F = _full_array(C)
    _, ric_gamma, norm2 = frame_curvature(C, F, P)
    A = (0.5 * sign) * (soliton_split(ric_gamma, norm2)[1] if renorm
                        else ric_gamma)
    return _coboundary_rows(C, F, A), A.dot(h)


def metric_flow(mu, gamma: Structure, G0: Metric,
                cfg: FlowConfig = None) -> FlowTrace:
    """Integrate dG/dt = s G Ric^gamma_G, with the trace term that freezes
    the scalar curvature when cfg.renorm is set, s = +-1 per cfg.sign.

    The state is the pair (mu, h) of the module docstring, h starting at
    the Cholesky transport of G0; G is formed only at the samples and at the
    end.  Fixed-step RK4; a step is rejected and halved when the new frame
    is singular or a stage overflows, when the integrated bracket leaves
    act(h_new, mu0) by more than GAP_TOL of its largest entry (a step
    across a blow-up of the flow fails here) or, for the normalized flow,
    when the scalar curvature drifts beyond 1e-8 in one step.  After
    REGROW_AFTER accepted steps in a row the step doubles again, up to
    cfg.step; each doubled step that fails doubles that wait.  A step
    within rounding of the horizon is stretched to end on it.  Raises
    StepCollapse when halving underflows, naming the rejections by reason,
    and IncompatibleMetric when G0 is not compatible with the structure.
    Symplectic trajectories are followed in the conformal cone (the flow
    scales the form).  The run stops at the horizon or after cfg.max_steps
    attempted steps; trace.stop_reason says which ("horizon" or
    "step_cap").  trace.stats counts the field evaluations, the accepted
    steps and the rejected ones by reason ("error" for a NilmetricError or
    overflow, "scal_drift", "bracket_gap"), the smallest step size and the
    last one taken, and the largest accepted gap.
    """
    tensor = as_tensor(mu)
    if cfg is None:
        cfg = FlowConfig()
    if gamma is None:
        gamma = no_structure(tensor.dim)
    P = _frame_projector(gamma, _transported_payload(gamma, G0, allow_scale=True))
    sign = 1.0 if cfg.sign == "plus" else -1.0
    evals = 0

    def field(mu_rows, h_state):
        nonlocal evals
        evals += 1
        return _flow_field(mu_rows, P, h_state, sign, cfg.renorm)

    h = G0.transport
    t = 0.0
    dt = min_step = dt_ok = cfg.step
    trace = FlowTrace()
    mu_h = act(h, tensor)  # the bracket in the frame h: the pair's mu
    point = _certified(mu_h, P)
    trace.samples.append(_sample_row(point, t))
    trace.states.append(h.T @ h)
    scal = -0.25 * point.norm2
    iters, accepted, streak, wait = 0, 0, 0, REGROW_AFTER
    max_gap = 0.0
    rejected = {"error": 0, "scal_drift": 0, "bracket_gap": 0}
    while t < cfg.horizon and iters < cfg.max_steps:
        iters += 1
        # a step that would leave only the rounding t has accumulated (far
        # below 1e-9 of the horizon) is stretched to land on the horizon
        last = cfg.horizon - t <= dt + 1e-9 * cfg.horizon
        dt_try = cfg.horizon - t if last else dt
        reason = None
        try:
            # one RK4 tableau on the pair; a stage that overflows fails the
            # attempt as an "error"
            with np.errstate(over="raise", invalid="raise"):
                a, k = field(mu_h.coeffs, h)
                da, dh = a, k
                for c, w in RK4_STAGES:
                    a, k = field(mu_h.coeffs + (c * dt_try) * a,
                                 h + (c * dt_try) * k)
                    da, dh = da + w * a, dh + w * k
                h_new = h + (dt_try / 6.0) * dh
                mu_rk = mu_h.coeffs + (dt_try / 6.0) * da
            # re-anchor: the next state is the bracket of the new frame
            # (act rejects a singular or non-finite one), and the integrated
            # bracket must stay within GAP_TOL of it
            mu_new = act(h_new, tensor)
            gap = float(np.abs(mu_rk - mu_new.coeffs).max(initial=0.0) / max(
                np.abs(mu_new.coeffs).max(initial=0.0), 1e-300))
            scal_new = -0.25 * mu_new.norm2()
            if cfg.renorm and abs(scal_new - scal) > 1e-8 * max(1.0, abs(scal)):
                reason = "scal_drift"
            elif not gap <= GAP_TOL:
                reason = "bracket_gap"
        except (NilmetricError, FloatingPointError):
            reason = "error"
        if reason is not None:
            rejected[reason] += 1
            # a doubled step that fails doubles the wait before the next
            streak, wait = 0, 2 * wait if dt > dt_ok else wait
            dt = 0.5 * dt
            min_step = min(min_step, dt)
            if dt < cfg.step * 2.0**-MAX_HALVINGS:
                raise StepCollapse(f"step underflow after rejections "
                                   f"{rejected} at t = {t:.6g}")
            continue
        h, mu_h, scal, dt_ok = h_new, mu_new, scal_new, dt
        max_gap = max(max_gap, gap)
        t = cfg.horizon if last else t + dt_try
        accepted += 1
        streak += 1
        if streak >= wait and dt < cfg.step and not last:
            dt, streak = 2.0 * dt, 0
        if accepted % cfg.sample_every == 0 or last:
            point = _certified(mu_h, P)
            trace.samples.append(_sample_row(point, t))
            trace.states.append(h.T @ h)
    trace.final_state = Metric(h.T @ h)
    trace.stop_reason = "horizon" if t >= cfg.horizon else "step_cap"
    trace.converged = trace.stop_reason == "horizon"
    trace.stats = {"field_evals": evals, "accepted": accepted,
                   "rejected": rejected, "min_step": min_step,
                   "final_step": dt, "bracket_gap": max_gap}
    return trace


def _descent_sample(point: _Point, k: int) -> tuple:
    """The descent's trace row (iteration, scal, F, certificate residual);
    a name apart from the flow's _sample_row, so profiles tell them apart."""
    return _sample_row(point, k)


def _move(T: SkewTensor, gen: np.ndarray, eta: float, P: np.ndarray) -> _Point:
    """The certified bracket normalize(act(expm(eta * gen), T)): a step
    along the structure-group orbit of T."""
    return _certified(_unit(act(expm(eta * gen), T)), P)


def bracket_descent(mu, gamma: Structure = None, *,
                    tol_converge: float = TOL_CONVERGE,
                    max_iter: int = MAX_ITER) -> FlowTrace:
    """Minimize the curvature functional over the unit sphere of brackets.

    The moves follow the structure-group orbit of the start,
    mu <- normalize(act(expm(eta * xi), mu)) with xi in the symmetric
    structure algebra at the identity, preserving the Jacobi identity and
    the integrability constraint to rounding; at a converged fixed point
    the minimality certificate passes.  Phase one's generator is
    -Ric^gamma; the Gauss-Newton phase (_polish) solves for xi.  Every
    bracket visited, line-search trials included, is certified once, and
    its defect delta_mu(D) gives the direction, the stop tests and the row.

    The run converges when the direction norm |delta_mu(D)| reaches
    tol_converge; phase one makes at most max_iter iterations.  The trace
    samples are (iteration, scal, F, certificate residual), and
    stop_reason says why the run stopped: "converged", "line_search" (no
    step decreased the functional), "stall" (the Gauss-Newton phase stopped
    making progress) or "iteration_cap".  trace.stats counts the
    first-phase iterations and rejected line-search trials ("iterations",
    "backtracks"), the Gauss-Newton iterations, rejected trials and
    Jacobians ("polish_iterations", "polish_backtracks", "jacobians"), and
    the smallest and largest rank of the truncated-SVD solves ("rank_min",
    "rank_max", None without a solve).  Raises ZeroTensor on a zero start,
    InvalidBracket when the start violates the integrability precondition
    and ValueError unless tol_converge is positive and finite and max_iter
    at least 1.
    """
    _require_positive("tol_converge", tol_converge)
    _require_count("max_iter", max_iter)
    tensor = as_tensor(mu)
    if gamma is None:
        gamma = no_structure(tensor.dim)
    tensor = _unit(tensor)
    res0 = integrability_residual(gamma, tensor)
    if not integrability_accepted(res0, tensor):
        raise InvalidBracket(
            f"starting bracket violates integrability (residual {res0:.3e})"
        )
    identity = Metric.identity(tensor.dim)
    P = _frame_projector(gamma, _transported_payload(gamma, identity))

    trace = FlowTrace()
    stats = trace.stats = {"iterations": 0, "backtracks": 0,
                           "polish_iterations": 0, "polish_backtracks": 0,
                           "jacobians": 0, "rank_min": None, "rank_max": None}
    point = _certified(tensor, P)
    trace.samples.append(_descent_sample(point, 0))
    f_cur = trace.samples[-1][2]
    best = (np.inf, point)
    polish_from = None
    stop = None  # set when phase one ends the run
    for _ in range(max_iter):
        nd = point.defect.norm()
        if nd < best[0]:
            best = (nd, point)
        if nd <= tol_converge:
            stop = "converged"
            break
        if nd <= POLISH_THRESHOLD:
            polish_from = point
            break
        if nd > ESCAPE_FACTOR * best[0] and best[0] < 1e-2:
            polish_from = best[1]
            break
        for halvings in range(MAX_HALVINGS):
            eta = 0.5**halvings
            cand = _move(point.tensor, -point.ric_gamma, eta, P)
            f_new = F_of_ricci(cand.ric_gamma, cand.norm2)
            if f_new <= f_cur - 1e-4 * eta * nd * nd:
                break
            stats["backtracks"] += 1
        else:
            stop = "line_search"
            break
        point, f_cur = cand, f_new
        stats["iterations"] += 1
        trace.samples.append(_descent_sample(point, len(trace.samples)))
    else:
        if best[0] < 1e-2:
            polish_from = best[1]
    reason = "iteration_cap"
    if polish_from is not None:
        basis = np.stack(structure_algebra(gamma, identity).sym_basis)
        point, reason = _polish(polish_from, basis, P, tol_converge, trace, f_cur)
    if stop is None:
        stop = "converged" if point.defect.norm() <= tol_converge else reason
    trace.final_state = point.tensor
    trace.stop_reason = stop
    trace.converged = stop == "converged"
    return trace


def _defect_jacobian(point: _Point, basis: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Derivative at xi = 0 of the certified defect delta_mu(D) of
    unit(act(expm(sum_b xi_b B_b), T)), T the unit bracket of the certified
    point: one column per basis element B_b (basis stacked (k, n, n)), rows
    in SkewTensor.coeffs order, all columns in one batch.

    Exact, by the moment map: the orbit's velocity along B is delta_T(B),
    and its tangential part on the unit sphere dU moves Ric by the symmetric
    part of 2 _ricci_form(dU, T), projected onto the structure algebra by
    one product with P.  The sphere holds scal = -|mu|^2 / 4 fixed, so with
    Ric^gamma = c I + D, dc = 2 tr(Ric^gamma dRic^gamma) / scal and
    dD = dRic^gamma - dc I; the column is delta_dU(D) + delta_T(dD).
    """
    tensor, ric_gamma, norm2 = point.tensor, point.ric_gamma, point.norm2
    coeffs, full = tensor.coeffs, tensor.full()
    V = _coboundary_rows(coeffs, full, basis)
    radial = np.tensordot(V, coeffs, 2) / np.sum(coeffs * coeffs)
    dU = V - radial[:, None, None] * coeffs
    dU_full = _full_array(dU)
    dR = _ricci_form(dU, dU_full, coeffs, full)
    dR = ((dR + dR.swapaxes(1, 2)).reshape(len(basis), -1) @ P.T).reshape(dR.shape)
    dc = np.tensordot(dR, ric_gamma, 2) / (-0.125 * norm2)
    dD = dR - dc[:, None, None] * _identity(tensor.dim)
    cols = (_coboundary_rows(dU, dU_full, point.D)
            + _coboundary_rows(coeffs, full, dD))
    return cols.reshape(len(basis), -1).T


def _polish(point: _Point, basis: np.ndarray, P: np.ndarray,
            tol_converge: float, trace: FlowTrace, f_cur: float):
    """Damped Gauss-Newton on the coefficient vector of the certified
    point's defect delta_mu(D), solving for coordinates xi in the basis of
    the symmetric structure algebra with the analytic Jacobian
    (_defect_jacobian); a trial is _move(T, combine(xi, basis), alpha).

    Steps are accepted when the direction norm drops and the functional
    does not increase beyond rounding; rows go to trace.samples and counts
    to trace.stats.  Returns the last point and the reason the iteration
    stopped.
    """
    stats = trace.stats
    ranks = []  # of each truncated-SVD solve
    stalls = 0
    reason = "iteration_cap"
    for _ in range(MAX_POLISH_ITERS):
        tensor, nd = point.tensor, point.defect.norm()
        if nd <= tol_converge:
            reason = "converged"
            break
        dvec = point.defect.coeffs.ravel()
        J = _defect_jacobian(point, basis, P)
        # Truncated-SVD solve: the map has an exact nullspace, the
        # stabilizer of the bracket in the structure group, whose singular
        # values are rounding noise; they must be discarded or the step
        # explodes along them.  A unit trust cap keeps the orbit move well
        # inside the region where expm amplification is benign.
        U, sv, Vt = np.linalg.svd(J, full_matrices=False)
        keep = sv > max(1e-6 * sv[0], 1e-12)
        ranks.append(int(np.count_nonzero(keep)))
        coef = (U.T @ (-dvec))[keep] / sv[keep]
        step = Vt[keep].T @ coef
        step_norm = float(np.linalg.norm(step))
        if step_norm > 1.0:
            step = step / step_norm
        gen = combine(step, basis)
        for halvings in range(25):
            cand = _move(tensor, gen, 0.5**halvings, P)
            f_new = F_of_ricci(cand.ric_gamma, cand.norm2)
            if (cand.defect.norm() < nd
                    and f_new <= f_cur + 1e-13 * (1.0 + abs(f_cur))):
                break
            stats["polish_backtracks"] += 1
        else:
            reason = "line_search"
            break
        stalls = stalls + 1 if cand.defect.norm() > 0.99 * nd else 0
        point, f_cur = cand, min(f_cur, f_new)
        stats["polish_iterations"] += 1
        trace.samples.append(_descent_sample(point, len(trace.samples)))
        if stalls >= 3:
            reason = "stall"
            break
    stats["jacobians"] = len(ranks)
    if ranks:
        stats["rank_min"], stats["rank_max"] = min(ranks), max(ranks)
    return point, reason


@dataclass(frozen=True)
class SolitonReport:
    max_deviation: float
    horizon: float
    certificate: object


def soliton_selfsimilarity_check(mu, gamma: Structure = None,
                                 G: Metric = None,
                                 cfg: FlowConfig = None) -> SolitonReport:
    """Compare the integrated normalized flow against the closed-form
    self-similar candidate: the pullback of G0 through expm((s t/2) D),
    with D from the minimality certificate and s = +-1 per cfg.sign.  In
    the G0-orthonormal frame D is symmetric, and the candidate is
    h^T expm(s t h D h^-1) h.

    Raises NotCertifiedError unless the certificate passes at the start,
    ValueError for an unnormalized cfg (cfg.renorm False).
    """
    tensor, G, gamma = with_defaults(mu, G, gamma)
    if cfg is None:
        cfg = FlowConfig()
    if not cfg.renorm:
        raise ValueError("the self-similarity check needs the normalized flow")
    cert = certify_minimal(tensor, G, gamma, allow_scale=True)
    if not cert.minimal:
        raise NotCertifiedError(
            f"certificate residual {cert.residual:.3e} exceeds {cert.tolerance:.1e}"
        )
    trace = metric_flow(mu, gamma, G, cfg)
    sign = 1.0 if cfg.sign == "plus" else -1.0
    h = G.transport
    D0 = _to_frame(cert.D, G)
    D0 = 0.5 * (D0 + D0.T)
    dev = 0.0
    for row, Gt in zip(trace.samples, trace.states):
        cand = h.T @ expm(sign * row[0] * D0) @ h
        scale = max(float(np.abs(cand).max()), 1e-300)
        dev = max(dev, float(np.abs(Gt - cand).max()) / scale)
    return SolitonReport(max_deviation=dev, horizon=cfg.horizon,
                         certificate=cert)

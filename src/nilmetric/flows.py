"""Time integration of the invariant Ricci flow on metrics and
sphere-constrained gradient descent of the curvature functional on
brackets, plus the self-similarity check for certified solitons.

Both call the curvature kernel once per bracket they visit and use the
certificate's split Ric^gamma = c I + D (curvature.soliton_split).  The
metric flow is a bracket flow (Lauret, "The Ricci flow for simply
connected nilmanifolds", Comm. Anal. Geom. 19, 2011): G = h^T h with h' =
s/2 R h, R the Ric^gamma of act(h, mu) at the identity; the normalized
flow's velocity is D in place of R.  The frame payload stays fixed.

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
orbit by construction and converges quadratically.  Phase one alone
either stalls or escapes along the rounding error; the combination is
stable down to direction norms at rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .algebra_core import (
    Metric,
    SkewTensor,
    act,
    as_tensor,
    combine,
    expm,
)
from .curvature import F_of_ricci, frame_curvature, soliton_split
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
REGROW_AFTER = 8  # accepted steps in a row before a halved step doubles
MAX_POLISH_ITERS = 40
FD_EPS = 1e-7


@dataclass(frozen=True)
class FlowConfig:
    step: float = 1e-3
    horizon: float = 1.0
    sign: str = "minus"
    renorm: bool = True
    tol_converge: float = 1e-8
    integrator: str = "rk4"
    max_iter: int = 500
    sample_every: int = 1

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.tol_converge <= 0:
            raise ValueError("tol_converge must be positive")
        if self.sign not in ("plus", "minus"):
            raise ValueError(f"sign must be plus or minus, got {self.sign!r}")
        if self.integrator not in ("rk4", "euler"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.sample_every < 1:
            raise ValueError("sample_every must be at least 1")


@dataclass
class FlowTrace:
    samples: list = field(default_factory=list)
    final_state: object = None
    converged: bool = False
    no_descent: bool = False
    states: list = field(default_factory=list)  # metric matrices at samples
    stop_reason: str = None  # see metric_flow and bracket_descent
    stats: dict = field(default_factory=dict)  # metric_flow's counters


def _unit(tensor: SkewTensor) -> SkewTensor:
    norm = tensor.norm()
    if norm == 0.0:
        raise ZeroTensor("cannot normalize the zero tensor")
    return tensor.scaled(1.0 / norm)


def _evaluate(tensor: SkewTensor, gamma: Structure, payload0) -> tuple:
    """(tensor, Ric^gamma, |mu|^2) of a bracket at the identity metric."""
    _, ric_gamma, norm2 = frame_curvature(tensor, gamma, payload0)
    return tensor, ric_gamma, norm2


def _certified(point: tuple) -> tuple:
    """The evaluated bracket with its certificate residual and defect
    delta_mu(D) appended: (tensor, Ric^gamma, |mu|^2, residual, defect)."""
    _, _, residual, defect = frame_certificate(*point)
    return point + (residual, defect)


def _sample_row(point: tuple, t: float) -> tuple:
    """Trace row (t, scal, F, certificate residual) of a certified bracket."""
    _, ric_gamma, norm2, residual, _ = point
    return (float(t), -0.25 * norm2, F_of_ricci(ric_gamma, norm2), residual)


def _flow_field(tensor: SkewTensor, gamma: Structure, h: np.ndarray,
                payload0, sign: float, renorm: bool,
                mu_h: SkewTensor = None) -> np.ndarray:
    """h' for the frame h; G = h^T h then solves the metric flow.  mu_h is
    act(h, tensor) when the caller already has it."""
    if mu_h is None:
        mu_h = act(h, tensor)
    _, ric_gamma, norm2 = frame_curvature(mu_h, gamma, payload0)
    A = soliton_split(ric_gamma, norm2)[1] if renorm else ric_gamma
    return (0.5 * sign) * (A @ h)


def _positive_definite(M: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def metric_flow(mu, gamma: Structure, G0: Metric,
                cfg: FlowConfig = None) -> FlowTrace:
    """Integrate dG/dt = s G Ric^gamma_G, with the trace term that freezes
    the scalar curvature when cfg.renorm is set, s = +-1 per cfg.sign.

    The state is a frame h with G = h^T h, starting at the Cholesky
    transport of G0 (see the module docstring); G is formed only at the
    samples and at the end.  Fixed-step integration (rk4 or euler); a step
    is rejected and halved when its change of G leaves the positive-definite
    cone, when the new frame is singular or, for the normalized flow, when
    the scalar curvature drifts beyond 1e-8 in one step.  After
    REGROW_AFTER accepted steps in a row the step doubles again, up to
    cfg.step.  Raises StepCollapse when halving underflows,
    IncompatibleMetric when G0 is not compatible with the structure.
    Symplectic trajectories are followed in the conformal cone (the flow
    scales the form).  The run stops at the horizon or after cfg.max_iter *
    100 attempted steps; trace.stop_reason says which ("horizon" or
    "step_cap").  trace.stats counts the field evaluations, the accepted
    steps and the rejected ones by reason ("cone", "error" for a
    NilmetricError or LinAlgError, "scal_drift"), with the smallest and the
    final step size.
    """
    tensor = as_tensor(mu)
    if cfg is None:
        cfg = FlowConfig()
    if gamma is None:
        gamma = no_structure(tensor.dim)
    payload0 = _transported_payload(gamma, G0, allow_scale=True)
    sign = 1.0 if cfg.sign == "plus" else -1.0
    evals = 0

    def field(state, mu_state=None):
        nonlocal evals
        evals += 1
        return _flow_field(tensor, gamma, state, payload0, sign, cfg.renorm,
                           mu_state)

    h = G0.transport
    t = 0.0
    dt = min_step = cfg.step
    trace = FlowTrace()
    mu_h = act(h, tensor)  # the bracket in the frame h, reused by k1
    point = _certified(_evaluate(mu_h, gamma, payload0))
    trace.samples.append(_sample_row(point, t))
    trace.states.append(h.T @ h)
    scal = -0.25 * point[2]
    iters = 0
    accepted = 0
    streak = 0
    rejected = {"cone": 0, "error": 0, "scal_drift": 0}
    while t < cfg.horizon - 1e-15 and iters < cfg.max_iter * 100:
        iters += 1
        dt_try = min(dt, cfg.horizon - t)
        reason = None
        try:
            k1 = field(h, mu_h)
            if cfg.integrator == "euler":
                h_new = h + dt_try * k1
                dG = dt_try * (h.T @ k1)
            else:
                h2 = h + 0.5 * dt_try * k1
                k2 = field(h2)
                h3 = h + 0.5 * dt_try * k2
                k3 = field(h3)
                h4 = h + dt_try * k3
                k4 = field(h4)
                h_new = h + (dt_try / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                dG = (dt_try / 6.0) * (h.T @ k1 + 2 * h2.T @ k2
                                       + 2 * h3.T @ k3 + h4.T @ k4)
            # G plus dt times the RK4 combination of the stage velocities
            # of G = h^T h must stay positive definite, as it had to when G
            # was the state: a step across a blow-up of the flow fails here
            if not _positive_definite(h.T @ h + dG + dG.T):
                reason = "cone"
            else:
                mu_new = act(h_new, tensor)
                scal_new = -0.25 * mu_new.norm2()
                if cfg.renorm and abs(scal_new - scal) > 1e-8 * max(1.0, abs(scal)):
                    reason = "scal_drift"
        except (NilmetricError, np.linalg.LinAlgError):
            reason = "error"
        if reason is not None:
            rejected[reason] += 1
            streak = 0
            dt = 0.5 * dt
            min_step = min(min_step, dt)
            if dt < cfg.step * 2.0**-MAX_HALVINGS:
                raise StepCollapse(f"step underflow at t = {t:.6g}")
            continue
        h, mu_h, scal = h_new, mu_new, scal_new
        t += dt_try
        accepted += 1
        streak += 1
        if streak == REGROW_AFTER:
            dt, streak = min(2.0 * dt, cfg.step), 0
        at_end = t >= cfg.horizon - 1e-15
        if accepted % cfg.sample_every == 0 or at_end:
            point = _certified(_evaluate(mu_h, gamma, payload0))
            trace.samples.append(_sample_row(point, t))
            trace.states.append(h.T @ h)
    trace.final_state = Metric(h.T @ h)
    trace.stop_reason = "horizon" if t >= cfg.horizon - 1e-15 else "step_cap"
    trace.converged = trace.stop_reason == "horizon"
    trace.stats = {"field_evals": evals, "accepted": accepted,
                   "rejected": rejected, "min_step": min_step,
                   "final_step": dt}
    return trace


def descent_direction(tensor: SkewTensor, gamma: Structure) -> SkewTensor:
    """Negative gradient direction of the functional on the unit sphere:
    -delta_mu(D) with Ric^gamma = c I + D, the tangential part of
    -delta_mu(Ric^gamma).

    The finite-difference identity dF(d / |d|) = -|d| holds at unit norm.
    """
    payload0 = _transported_payload(gamma, Metric.identity(tensor.dim))
    return _certified(_evaluate(tensor, gamma, payload0))[4].scaled(-1.0)


def _descent_sample(point: tuple, k: int) -> tuple:
    """The descent's trace row (iteration, scal, F, certificate residual);
    a name apart from the flow's _sample_row, so profiles tell them apart."""
    return _sample_row(point, k)


def _move(T: SkewTensor, gen: np.ndarray, eta: float, gamma: Structure,
          payload0) -> tuple:
    """The evaluated bracket normalize(act(expm(eta * gen), T)): a step
    along the structure-group orbit of T."""
    return _evaluate(_unit(act(expm(eta * gen), T)), gamma, payload0)


def bracket_descent(mu, gamma: Structure = None,
                    cfg: FlowConfig = None) -> FlowTrace:
    """Minimize the curvature functional over the unit sphere of brackets.

    The moves follow the structure-group orbit of the start,
    mu <- normalize(act(expm(eta * xi), mu)) with xi in the symmetric
    structure algebra at the identity, preserving the Jacobi identity and
    the integrability constraint to rounding; at a converged fixed point
    the minimality certificate passes.  Phase one's generator is
    -Ric^gamma; the Gauss-Newton phase (_polish) solves for xi.  One
    coboundary delta_mu(D) per accepted bracket gives its direction, its
    stop tests and its trace row.

    The trace samples are (iteration, scal, F, certificate residual).  The
    no_descent flag reports a run that did not converge (not fatal), and
    stop_reason says why the run stopped: "converged", "line_search" (no
    step decreased the functional), "stall" (the Gauss-Newton phase stopped
    making progress) or "iteration_cap".  Raises ZeroTensor on a zero start
    and InvalidBracket when the start violates the integrability
    precondition.
    """
    tensor = as_tensor(mu)
    if cfg is None:
        cfg = FlowConfig()
    if gamma is None:
        gamma = no_structure(tensor.dim)
    tensor = _unit(tensor)
    res0 = integrability_residual(gamma, tensor)
    if not integrability_accepted(res0, tensor):
        raise InvalidBracket(
            f"starting bracket violates integrability (residual {res0:.3e})"
        )
    payload0 = _transported_payload(gamma, Metric.identity(tensor.dim))

    trace = FlowTrace()
    k = 0
    point = _certified(_evaluate(tensor, gamma, payload0))
    trace.samples.append(_descent_sample(point, k))
    f_cur = trace.samples[-1][2]
    best = (np.inf, point)
    polish_from = None
    stop = None  # set when phase one ends the run
    for _ in range(cfg.max_iter):
        nd = point[4].norm()
        if nd < best[0]:
            best = (nd, point)
        if nd <= cfg.tol_converge:
            stop = "converged"
            break
        if nd <= POLISH_THRESHOLD:
            polish_from = point
            break
        if nd > ESCAPE_FACTOR * best[0] and best[0] < 1e-2:
            polish_from = best[1]
            break
        eta = 1.0
        accepted = None
        while eta > 2.0**-MAX_HALVINGS:
            cand = _move(point[0], -point[1], eta, gamma, payload0)
            f_new = F_of_ricci(cand[1], cand[2])
            if f_new <= f_cur - 1e-4 * eta * nd * nd:
                accepted = (cand, f_new)
                break
            eta *= 0.5
        if accepted is None:
            stop = "line_search"
            break
        point, f_cur = _certified(accepted[0]), accepted[1]
        k += 1
        trace.samples.append(_descent_sample(point, k))
    else:
        if best[0] < 1e-2:
            polish_from = best[1]
    reason = "iteration_cap"
    if polish_from is not None:
        basis = structure_algebra(gamma, Metric.identity(tensor.dim)).sym_basis
        point, f_cur, k, reason = _polish(polish_from, basis, gamma, payload0,
                                          cfg, trace, k, f_cur)
    if stop is None:
        stop = "converged" if point[4].norm() <= cfg.tol_converge else reason
    trace.final_state = point[0]
    trace.stop_reason = stop
    trace.converged = stop == "converged"
    trace.no_descent = not trace.converged
    return trace


def _polish(point: tuple, basis: list, gamma: Structure, payload0,
            cfg: FlowConfig, trace: FlowTrace, k: int, f_cur: float):
    """Damped Gauss-Newton on the coefficient vector of the certified
    point's defect delta_mu(D), solving for coordinates xi in the basis of
    the symmetric structure algebra; a trial is _move(T, combine(xi,
    basis), alpha).

    Steps are accepted when the direction norm drops and the functional
    does not increase beyond rounding.  Returns the last point, F,
    iteration count and the reason the iteration stopped.
    """
    stalls = 0
    reason = "iteration_cap"
    for _ in range(MAX_POLISH_ITERS):
        tensor, nd = point[0], point[4].norm()
        if nd <= cfg.tol_converge:
            reason = "converged"
            break
        dvec = point[4].coeffs.ravel()
        J = np.empty((dvec.size, len(basis)))
        for i, B in enumerate(basis):
            moved = _certified(_move(tensor, FD_EPS * B, 1.0, gamma, payload0))
            J[:, i] = (moved[4].coeffs.ravel() - dvec) / FD_EPS
        # Truncated-SVD solve: the finite-difference Jacobian carries noise
        # of order eps_mach / FD_EPS, and the map has an exact nullspace
        # (the stabilizer), so small singular values must be discarded or
        # the step explodes along them.  A unit trust cap keeps the orbit
        # move well inside the region where expm amplification is benign.
        U, sv, Vt = np.linalg.svd(J, full_matrices=False)
        keep = sv > max(1e-6 * sv[0], 1e-12)
        coef = (U.T @ (-dvec))[keep] / sv[keep]
        step = Vt[keep].T @ coef
        step_norm = float(np.linalg.norm(step))
        if step_norm > 1.0:
            step = step / step_norm
        gen = combine(step, basis)
        alpha = 1.0
        accepted = None
        while alpha > 2.0**-25:
            cand = _certified(_move(tensor, gen, alpha, gamma, payload0))
            f_new = F_of_ricci(cand[1], cand[2])
            if (cand[4].norm() < nd
                    and f_new <= f_cur + 1e-13 * (1.0 + abs(f_cur))):
                accepted = cand
                break
            alpha *= 0.5
        if accepted is None:
            reason = "line_search"
            break
        stalls = stalls + 1 if accepted[4].norm() > 0.99 * nd else 0
        point, f_cur = accepted, min(f_cur, f_new)
        k += 1
        trace.samples.append(_descent_sample(point, k))
        if stalls >= 3:
            reason = "stall"
            break
    return point, f_cur, k, reason


@dataclass(frozen=True)
class SolitonReport:
    max_deviation: float
    horizon: float
    certificate: object


def soliton_selfsimilarity_check(mu, gamma: Structure = None,
                                 G: Metric = None,
                                 cfg: FlowConfig = None) -> SolitonReport:
    """Compare the integrated normalized flow against the closed-form
    self-similar candidate: the pullback of G0 through expm(-(t/2) D),
    with D from the minimality certificate.  In the G0-orthonormal frame
    D is symmetric, and the candidate is h^T expm(-t h D h^-1) h.

    Raises NotCertifiedError unless the certificate passes at the start.
    """
    tensor, G, gamma = with_defaults(mu, G, gamma)
    if cfg is None:
        cfg = FlowConfig()
    cert = certify_minimal(tensor, G, gamma, allow_scale=True)
    if not cert.minimal:
        raise NotCertifiedError(
            f"certificate residual {cert.residual:.3e} exceeds {cert.tolerance:.1e}"
        )
    trace = metric_flow(mu, gamma, G, replace(cfg, renorm=True))
    h = G.transport
    D0 = h @ cert.D @ G.transport_inv
    D0 = 0.5 * (D0 + D0.T)
    dev = 0.0
    for row, Gt in zip(trace.samples, trace.states):
        cand = h.T @ expm(-row[0] * D0) @ h
        scale = max(float(np.abs(cand).max()), 1e-300)
        dev = max(dev, float(np.abs(Gt - cand).max()) / scale)
    return SolitonReport(max_deviation=dev, horizon=cfg.horizon,
                         certificate=cert)

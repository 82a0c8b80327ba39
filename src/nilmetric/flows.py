"""Time integration of the invariant Ricci flow on metrics and
sphere-constrained gradient descent of the curvature functional on
brackets, plus the self-similarity check for certified solitons.

Both call the curvature kernel once per bracket they visit.  The metric
flow is a bracket flow (Lauret, "The Ricci flow for simply connected
nilmanifolds", Comm. Anal. Geom. 19, 2011): G = h^T h with h' = s/2 (R -
(tr R^2 / scal) I) h, R the Ric^gamma of act(h, mu) at the identity.  The
structure's frame payload stays fixed along it.

The bracket descent runs in two phases.  Phase one follows the orbit
retraction mu <- normalize(act(expm(-eta * Ric^gamma), mu)) with a
backtracking line search on the functional; the velocity of that curve is
minus the coboundary of Ric^gamma, whose tangential part is the (negative)
gradient direction.  Near a critical point the retraction amplifies
off-variety rounding (the exponential winds the stabilizer of the limit),
so once the direction norm is small the iteration hands off to phase two:
a damped Gauss-Newton solve for a structure-group element annihilating the
direction vector, which stays on the orbit by construction and converges
quadratically.  Phase one alone either stalls or escapes along the
rounding error; the combination is stable down to direction norms at
rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .algebra_core import (
    Metric,
    SkewTensor,
    act,
    as_tensor,
    coboundary,
    combine,
    expm,
    inner,
)
from .curvature import F_of_ricci, frame_curvature
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


def _unit(tensor: SkewTensor) -> SkewTensor:
    norm = tensor.norm()
    if norm == 0.0:
        raise ZeroTensor("cannot normalize the zero tensor")
    return tensor.scaled(1.0 / norm)


def _evaluate(tensor: SkewTensor, gamma: Structure, payload0) -> tuple:
    """(tensor, Ric^gamma, |mu|^2) of a bracket at the identity metric."""
    _, ric_gamma, norm2 = frame_curvature(tensor, gamma, payload0)
    return tensor, ric_gamma, norm2


def _sample_row(point: tuple, t: float) -> tuple:
    """Trace row (t, scal, F, certificate residual) of an evaluated bracket."""
    tensor, ric_gamma, norm2 = point
    _, _, residual = frame_certificate(tensor, ric_gamma, norm2)
    return (float(t), -0.25 * norm2, F_of_ricci(ric_gamma, norm2), residual)


def _flow_field(tensor: SkewTensor, gamma: Structure, h: np.ndarray,
                payload0, sign: float, renorm: bool) -> np.ndarray:
    """h' for the frame h; G = h^T h then solves the metric flow."""
    _, ric_gamma, norm2 = frame_curvature(act(h, tensor), gamma, payload0)
    A = ric_gamma
    if renorm:
        scal = -0.25 * norm2
        if abs(scal) > 1e-13:
            A = A - (float(np.trace(A @ A)) / scal) * np.eye(len(h))
    return (0.5 * sign) * (A @ h)


def metric_flow(mu, gamma: Structure, G0: Metric,
                cfg: FlowConfig = None) -> FlowTrace:
    """Integrate dG/dt = s G Ric^gamma_G, with the trace term that freezes
    the scalar curvature when cfg.renorm is set, s = +-1 per cfg.sign.

    The state is a frame h with G = h^T h, starting at the Cholesky
    transport of G0 (see the module docstring); G is formed only at the
    samples and at the end.  Fixed-step integration (rk4 or euler); a step
    is rejected and halved when its change of G leaves the positive-definite
    cone, when the new frame is singular or, for the normalized flow, when
    the scalar curvature drifts beyond 1e-8 in one step.  Raises
    StepCollapse when halving underflows, IncompatibleMetric when G0 is not
    compatible with the structure.  Symplectic trajectories are followed in
    the conformal cone (the flow scales the form).  The run stops at the
    horizon or after cfg.max_iter * 100 attempted steps; trace.stop_reason
    says which ("horizon" or "step_cap").
    """
    tensor = as_tensor(mu)
    if cfg is None:
        cfg = FlowConfig()
    if gamma is None:
        gamma = no_structure(tensor.dim)
    payload0 = _transported_payload(gamma, G0, allow_scale=True)
    sign = 1.0 if cfg.sign == "plus" else -1.0

    def field(state):
        return _flow_field(tensor, gamma, state, payload0, sign, cfg.renorm)

    h = G0.transport
    t = 0.0
    dt = cfg.step
    trace = FlowTrace()
    point = _evaluate(act(h, tensor), gamma, payload0)
    trace.samples.append(_sample_row(point, t))
    trace.states.append(h.T @ h)
    scal = -0.25 * point[2]
    iters = 0
    accepted = 0
    while t < cfg.horizon - 1e-15 and iters < cfg.max_iter * 100:
        iters += 1
        dt_try = min(dt, cfg.horizon - t)
        try:
            k1 = field(h)
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
            np.linalg.cholesky(h.T @ h + dG + dG.T)
            mu_new = act(h_new, tensor)
        except (NilmetricError, np.linalg.LinAlgError):
            mu_new = None
        if mu_new is not None and cfg.renorm:
            scal_new = -0.25 * mu_new.norm2()
            if abs(scal_new - scal) > 1e-8 * max(1.0, abs(scal)):
                mu_new = None
            else:
                scal = scal_new
        if mu_new is None:
            dt = 0.5 * dt
            if dt < cfg.step * 2.0**-MAX_HALVINGS:
                raise StepCollapse(f"step underflow at t = {t:.6g}")
            continue
        h = h_new
        t += dt_try
        accepted += 1
        at_end = t >= cfg.horizon - 1e-15
        if accepted % cfg.sample_every == 0 or at_end:
            trace.samples.append(_sample_row(_evaluate(mu_new, gamma, payload0), t))
            trace.states.append(h.T @ h)
    trace.final_state = Metric(h.T @ h)
    trace.converged = bool(t >= cfg.horizon - 1e-12)
    trace.stop_reason = "horizon" if t >= cfg.horizon - 1e-15 else "step_cap"
    return trace


def _direction(point: tuple) -> SkewTensor:
    """Minus the tangential part of the coboundary of Ric^gamma."""
    tensor, ric_gamma, _ = point
    delta = coboundary(tensor, ric_gamma)
    radial = inner(delta, tensor) / tensor.norm2()
    return delta.plus(tensor, -radial).scaled(-1.0)


def descent_direction(tensor: SkewTensor, gamma: Structure) -> SkewTensor:
    """Negative gradient direction of the functional on the unit sphere:
    minus the tangential part of the coboundary of Ric^gamma.

    The finite-difference identity dF(d / |d|) = -|d| holds at unit norm.
    """
    payload0 = _transported_payload(gamma, Metric.identity(tensor.dim))
    return _direction(_evaluate(tensor, gamma, payload0))


def _descent_sample(point: tuple, k: int) -> tuple:
    """The descent's trace row (iteration, scal, F, certificate residual);
    a name apart from the flow's _sample_row, so profiles tell them apart."""
    return _sample_row(point, k)


def _orthonormalize_span(basis: list) -> list:
    """Gram-Schmidt in the tensor inner product; drops dependent members."""
    out = []
    for b in basis:
        v = b
        for u in out:
            v = v.plus(u, -inner(v, u))
        norm = v.norm()
        if norm > 1e-12:
            out.append(v.scaled(1.0 / norm))
    return out


def bracket_descent(mu, gamma: Structure = None, cfg: FlowConfig = None,
                    subspace: list = None) -> FlowTrace:
    """Minimize the curvature functional over the unit sphere of brackets.

    Orbit mode (default) moves along the structure-group orbit of the
    start, mu <- normalize(act(expm(eta * xi), mu)) with xi in the
    symmetric structure algebra at the identity, preserving the Jacobi
    identity and the integrability constraint to rounding; at a converged
    fixed point the minimality certificate passes.  With subspace (a list
    of SkewTensor spanning a linear slice of V) the moves are
    mu <- normalize(mu + eta * xi) with xi in the orthonormalized span, and
    the direction is projected onto it.  The mode is chosen once, here; it
    fixes the move basis, the move, phase one's generator (-Ric^gamma, or
    the projected direction) and the Gauss-Newton direction vector, which
    phase one and _polish share.

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

    if subspace is None:
        nd_factor = np.sqrt(2.0)  # the coefficient norm counts pairs once

        def move_basis():  # built only when the Gauss-Newton phase runs
            return structure_algebra(gamma, Metric.identity(tensor.dim)).sym_basis

        def move(T, gen, eta):
            return _evaluate(_unit(act(expm(eta * gen), T)), gamma, payload0)

        def dvec_of(point):
            return _direction(point).coeffs.ravel()

        def generator(point):
            return -point[1], _direction(point).norm()
    else:
        span = _orthonormalize_span(subspace)
        nd_factor = 1.0

        def move_basis():
            return span

        def move(T, gen, eta):
            return _evaluate(_unit(T.plus(gen, eta)), gamma, payload0)

        def dvec_of(point):
            d = _direction(point)
            return np.array([inner(d, b) for b in span])

        def generator(point):
            d = combine(dvec_of(point), span)
            return d, d.norm()

    trace = FlowTrace()
    k = 0
    point = _evaluate(tensor, gamma, payload0)
    trace.samples.append(_descent_sample(point, k))
    f_cur = trace.samples[-1][2]
    best = (np.inf, point)
    polish_from = None
    for _ in range(cfg.max_iter):
        gen, nd = generator(point)
        if nd < best[0]:
            best = (nd, point)
        if nd <= cfg.tol_converge:
            trace.final_state = point[0]
            trace.converged = True
            trace.stop_reason = "converged"
            return trace
        if nd <= POLISH_THRESHOLD:
            polish_from = point
            break
        if nd > ESCAPE_FACTOR * best[0] and best[0] < 1e-2:
            polish_from = best[1]
            break
        eta = 1.0
        accepted = None
        while eta > 2.0**-MAX_HALVINGS:
            cand = move(point[0], gen, eta)
            f_new = F_of_ricci(cand[1], cand[2])
            if f_new <= f_cur - 1e-4 * eta * nd * nd:
                accepted = (cand, f_new)
                break
            eta *= 0.5
        if accepted is None:
            trace.no_descent = True
            trace.final_state = point[0]
            trace.converged = False
            trace.stop_reason = "line_search"
            return trace
        point, f_cur = accepted
        k += 1
        trace.samples.append(_descent_sample(point, k))
    reason = "iteration_cap"
    if polish_from is None:
        polish_from = best[1] if best[0] < 1e-2 else None
    if polish_from is not None:
        point, f_cur, k, reason = _polish(polish_from, move_basis(), move,
                                          dvec_of, nd_factor, cfg, trace, k,
                                          f_cur)
    trace.final_state = point[0]
    trace.converged = bool(generator(point)[1] <= cfg.tol_converge)
    trace.no_descent = not trace.converged
    trace.stop_reason = "converged" if trace.converged else reason
    return trace


def _polish(point: tuple, basis: list, move, dvec_of, nd_factor: float,
            cfg: FlowConfig, trace: FlowTrace, k: int, f_cur: float):
    """Damped Gauss-Newton on the direction vector dvec_of(point), solving
    for coordinates xi in the move basis; a trial is move(T, combine(xi,
    basis), alpha).  The direction norm is |dvec| * nd_factor.

    Steps are accepted when the direction norm drops and the functional
    does not increase beyond rounding.  Returns the last point, F,
    iteration count and the reason the iteration stopped.
    """
    dvec = dvec_of(point)
    nd = float(np.linalg.norm(dvec)) * nd_factor
    stalls = 0
    reason = "iteration_cap"
    for _ in range(MAX_POLISH_ITERS):
        if nd <= cfg.tol_converge:
            reason = "converged"
            break
        tensor = point[0]
        J = np.empty((dvec.size, len(basis)))
        for i in range(len(basis)):
            xi = np.zeros(len(basis))
            xi[i] = FD_EPS
            J[:, i] = (dvec_of(move(tensor, combine(xi, basis), 1.0)) - dvec) / FD_EPS
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
            cand = move(tensor, gen, alpha)
            dvec_new = dvec_of(cand)
            nd_new = float(np.linalg.norm(dvec_new)) * nd_factor
            f_new = F_of_ricci(cand[1], cand[2])
            if nd_new < nd and f_new <= f_cur + 1e-13 * (1.0 + abs(f_cur)):
                accepted = (cand, dvec_new, nd_new, f_new)
                break
            alpha *= 0.5
        if accepted is None:
            reason = "line_search"
            break
        stalls = stalls + 1 if accepted[2] > 0.99 * nd else 0
        point, dvec, nd, f_new = accepted
        if f_new <= f_cur:
            f_cur = f_new
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

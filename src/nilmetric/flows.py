"""Time integration of the invariant Ricci flow on metrics and
sphere-constrained gradient descent of the curvature functional on
brackets, plus the self-similarity check for certified solitons.

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

from dataclasses import dataclass, field

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
from .curvature import F_of_ricci, functional_F, invariant_ricci, scalar_curvature
from .defaults import TOL_COMPAT
from .errors import (
    IncompatibleMetric,
    InvalidBracket,
    NilmetricError,
    NotCertifiedError,
    StepCollapse,
    ZeroTensor,
)
from .minimality import _certificate_core, certify_minimal
from .structures import (
    Structure,
    compatibility_residual,
    integrability_residual,
    metric_jmap,
    no_structure,
    normalized_jmap,
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
    stop_reason: str = None  # metric_flow: "horizon" or "step_cap"


def _unit(tensor: SkewTensor) -> SkewTensor:
    norm = tensor.norm()
    if norm == 0.0:
        raise ZeroTensor("cannot normalize the zero tensor")
    return tensor.scaled(1.0 / norm)


def _flow_field(tensor: SkewTensor, gamma: Structure, G: np.ndarray,
                sign: float, normalized: bool) -> np.ndarray:
    metric = Metric(G)
    ric_gamma = invariant_ricci(tensor, metric, gamma, allow_scale=True,
                                check_cone=False)
    dG = sign * (G @ ric_gamma)
    dG = 0.5 * (dG + dG.T)
    if normalized:
        scal = scalar_curvature(tensor, metric)
        if abs(scal) > 1e-13:
            trace2 = float(np.trace(ric_gamma @ ric_gamma))
            dG = dG - sign * (trace2 / scal) * G
    return dG


def _sample_row(tensor: SkewTensor, gamma: Structure, G: np.ndarray,
                t: float) -> tuple:
    metric = Metric(G)
    _, _, residual, ric_gamma0, mu0 = _certificate_core(
        tensor, metric, gamma, allow_scale=True, check_cone=False)
    norm2 = mu0.norm2()
    return (float(t), -0.25 * norm2, F_of_ricci(ric_gamma0, norm2),
            float(residual))


def metric_flow(mu, gamma: Structure, G0: Metric, cfg: FlowConfig = None,
                normalized: bool = None) -> FlowTrace:
    """Integrate dG/dt = s G Ric^gamma_G, optionally with the trace term
    that freezes the scalar curvature, s = +-1 per cfg.sign.

    Fixed-step integration (rk4 or euler); a step is rejected and halved
    when the update leaves the positive-definite cone or, for the
    normalized flow, when the scalar curvature drifts beyond 1e-8 in one
    step.  Raises StepCollapse when halving underflows, IncompatibleMetric
    when G0 is not compatible with the structure.  Symplectic trajectories
    are followed in the conformal cone (the flow scales the form).  The
    run stops at the horizon or after cfg.max_iter * 100 attempted steps;
    trace.stop_reason says which ("horizon" or "step_cap").
    """
    tensor = as_tensor(mu)
    if cfg is None:
        cfg = FlowConfig()
    if gamma is None:
        gamma = no_structure(tensor.dim)
    if normalized is None:
        normalized = cfg.renorm
    if gamma.tag == "symplectic":
        normalized_jmap(metric_jmap(gamma, G0), allow_scale=True)
    elif compatibility_residual(gamma, G0) > TOL_COMPAT:
        raise IncompatibleMetric("starting metric is not compatible")
    sign = 1.0 if cfg.sign == "plus" else -1.0
    G = G0.matrix.copy()
    t = 0.0
    h = cfg.step
    trace = FlowTrace()
    trace.samples.append(_sample_row(tensor, gamma, G, t))
    trace.states.append(G.copy())
    scal_prev = scalar_curvature(tensor, Metric(G))
    iters = 0
    accepted = 0
    while t < cfg.horizon - 1e-15 and iters < cfg.max_iter * 100:
        iters += 1
        h_try = min(h, cfg.horizon - t)
        try:
            k1 = _flow_field(tensor, gamma, G, sign, normalized)
            if cfg.integrator == "euler":
                G_new = G + h_try * k1
            else:
                k2 = _flow_field(tensor, gamma, G + 0.5 * h_try * k1, sign, normalized)
                k3 = _flow_field(tensor, gamma, G + 0.5 * h_try * k2, sign, normalized)
                k4 = _flow_field(tensor, gamma, G + h_try * k3, sign, normalized)
                G_new = G + (h_try / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            G_new = 0.5 * (G_new + G_new.T)
            metric_new = Metric(G_new)
        except (NilmetricError, np.linalg.LinAlgError):
            metric_new = None
        if metric_new is not None and normalized:
            scal_new = scalar_curvature(tensor, metric_new)
            if abs(scal_new - scal_prev) > 1e-8 * max(1.0, abs(scal_prev)):
                metric_new = None
            else:
                scal_prev = scal_new
        if metric_new is None:
            h = 0.5 * h
            if h < cfg.step * 2.0**-MAX_HALVINGS:
                raise StepCollapse(f"step underflow at t = {t:.6g}")
            continue
        G = G_new
        t += h_try
        accepted += 1
        at_end = t >= cfg.horizon - 1e-15
        if accepted % cfg.sample_every == 0 or at_end:
            trace.samples.append(_sample_row(tensor, gamma, G, t))
            trace.states.append(G.copy())
    trace.final_state = Metric(G)
    trace.converged = bool(t >= cfg.horizon - 1e-12)
    trace.stop_reason = "horizon" if t >= cfg.horizon - 1e-15 else "step_cap"
    return trace


def descent_direction(tensor: SkewTensor, gamma: Structure) -> SkewTensor:
    """Negative gradient direction of the functional on the unit sphere:
    minus the tangential part of the coboundary of Ric^gamma.

    The finite-difference identity dF(d / |d|) = -|d| holds at unit norm.
    """
    ric_gamma = invariant_ricci(tensor, Metric.identity(tensor.dim), gamma)
    delta = coboundary(tensor, ric_gamma)
    radial = inner(delta, tensor) / tensor.norm2()
    return delta.plus(tensor, -radial).scaled(-1.0)


def _descent_sample(tensor: SkewTensor, gamma: Structure, k: int) -> tuple:
    scal = -0.25 * tensor.norm2()
    f_value = functional_F(tensor, gamma)
    cert = certify_minimal(tensor, Metric.identity(tensor.dim), gamma)
    return (float(k), float(scal), float(f_value), float(cert.residual))


def _span_project(d: SkewTensor, basis: list) -> tuple:
    """Projection of d onto the span plus its coordinate vector."""
    coords = np.array([inner(d, b) for b in basis])
    return combine(coords, basis), coords


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
    start, preserving the Jacobi identity and the integrability constraint
    to rounding; at a converged fixed point the minimality certificate
    passes.  With subspace (a list of SkewTensor spanning a linear slice
    of V) the updates are linear combinations within that slice and the
    direction is projected onto it.

    The trace samples are (iteration, scal, F, certificate residual); the
    no_descent flag reports a failed line search (not fatal).  Raises
    ZeroTensor on a zero start and InvalidBracket when the start violates
    the integrability precondition.
    """
    tensor = as_tensor(mu)
    if cfg is None:
        cfg = FlowConfig()
    if gamma is None:
        gamma = no_structure(tensor.dim)
    tensor = _unit(tensor)
    res0 = integrability_residual(gamma, tensor)
    if res0 > 1e-8 * (1.0 + tensor.norm2()):
        raise InvalidBracket(
            f"starting bracket violates integrability (residual {res0:.3e})"
        )
    span = _orthonormalize_span(subspace) if subspace is not None else None

    def direction(T):
        d = descent_direction(T, gamma)
        if span is not None:
            d, _ = _span_project(d, span)
        return d

    trace = FlowTrace()
    k = 0
    trace.samples.append(_descent_sample(tensor, gamma, k))
    f_cur = trace.samples[-1][2]
    best = (np.inf, tensor)
    polish_from = None
    for _ in range(cfg.max_iter):
        d = direction(tensor)
        nd = d.norm()
        if nd < best[0]:
            best = (nd, tensor)
        if nd <= cfg.tol_converge:
            trace.final_state = tensor
            trace.converged = True
            return trace
        if nd <= POLISH_THRESHOLD:
            polish_from = tensor
            break
        if nd > ESCAPE_FACTOR * best[0] and best[0] < 1e-2:
            polish_from = best[1]
            break
        ric_gamma = invariant_ricci(tensor, Metric.identity(tensor.dim), gamma)
        eta = 1.0
        accepted = None
        while eta > 2.0**-MAX_HALVINGS:
            if span is None:
                cand = _unit(act(expm(-eta * ric_gamma), tensor))
            else:
                cand = _unit(tensor.plus(d, eta))
            f_new = functional_F(cand, gamma)
            if f_new <= f_cur - 1e-4 * eta * nd * nd:
                accepted = (cand, f_new)
                break
            eta *= 0.5
        if accepted is None:
            trace.no_descent = True
            trace.final_state = tensor
            trace.converged = False
            return trace
        tensor, f_cur = accepted
        k += 1
        trace.samples.append(_descent_sample(tensor, gamma, k))
    if polish_from is None:
        polish_from = best[1] if best[0] < 1e-2 else None
    if polish_from is not None:
        tensor, f_cur, k = _polish(polish_from, gamma, cfg, span, trace, k, f_cur)
    d = direction(tensor)
    trace.final_state = tensor
    trace.converged = bool(d.norm() <= cfg.tol_converge)
    if not trace.converged and not trace.no_descent:
        trace.no_descent = True
    return trace


def _polish(tensor: SkewTensor, gamma: Structure, cfg: FlowConfig,
            span: list, trace: FlowTrace, k: int, f_cur: float):
    """Damped Gauss-Newton on the direction vector.

    Orbit mode solves for a structure-group generator; subspace mode for
    slice coordinates.  Steps are accepted when the direction norm drops
    and the functional does not increase beyond rounding.
    """
    n = tensor.dim
    if span is None:
        basis = structure_algebra(gamma, Metric.identity(n)).sym_basis
    else:
        basis = span

    nd_factor = 1.0 if span is not None else np.sqrt(2.0)

    def dvec_of(T):
        d = descent_direction(T, gamma)
        if span is not None:
            _, coords = _span_project(d, span)
            return coords
        return d.coeffs.ravel()

    def move(T, xi, scale=1.0):
        if span is None:
            return _unit(act(expm(combine(scale * xi, basis)), T))
        return _unit(T.plus(combine(xi, basis), scale))

    dvec = dvec_of(tensor)
    nd = float(np.linalg.norm(dvec)) * nd_factor
    stalls = 0
    for _ in range(MAX_POLISH_ITERS):
        if nd <= cfg.tol_converge:
            break
        J = np.empty((dvec.size, len(basis)))
        for i in range(len(basis)):
            xi = np.zeros(len(basis))
            xi[i] = FD_EPS
            J[:, i] = (dvec_of(move(tensor, xi)) - dvec) / FD_EPS
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
        alpha = 1.0
        accepted = None
        while alpha > 2.0**-25:
            cand = move(tensor, step, alpha)
            dvec_new = dvec_of(cand)
            nd_new = float(np.linalg.norm(dvec_new)) * nd_factor
            f_new = functional_F(cand, gamma)
            if nd_new < nd and f_new <= f_cur + 1e-13 * (1.0 + abs(f_cur)):
                accepted = (cand, dvec_new, nd_new, f_new)
                break
            alpha *= 0.5
        if accepted is None:
            break
        stalls = stalls + 1 if accepted[2] > 0.99 * nd else 0
        tensor, dvec, nd, f_new = accepted
        if f_new <= f_cur:
            f_cur = f_new
        k += 1
        trace.samples.append(_descent_sample(tensor, gamma, k))
        if stalls >= 3:
            break
    return tensor, f_cur, k


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
    trace = metric_flow(mu, gamma, G, cfg, normalized=True)
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

"""Inputs, operations and output checks of the benchmark's workloads.

``ROUNDS[name](seed, ctx)`` returns one round: a list of ``Op``.  A run
repeats whole rounds, so every run attempts the same operations in the
same proportions.  Each op's ``check`` returns the list of ways its output
is wrong (empty when it is right); expected values come from ``oracle`` or
from properties the method must have, never from stored program output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
from pathlib import Path
from typing import Callable

import numpy as np

import nilmetric as nm
import oracle

# Criterion 8's configuration: RK4, step 1e-3, t in [0, 1], a sample
# every 20 steps.
FLOW_CFG = nm.FlowConfig(step=1e-3, horizon=1.0, sample_every=20)
FLOW_SCALE = 0.25      # criterion 8's perturbation scale
DESCENT_SCALE = 0.3    # criterion 10's perturbation scale
DESCENT_STARTS = 96    # distinct starts in one descent round
# Criterion 8's accuracy bound; the flow keeps scal, the compatible cone
# and F only to its integration accuracy.
FLOW_TOL = 1e-6
# Jacobi and integrability hold along the orbit only up to accumulated
# rounding: over 960 descent limits the largest Jacobi entry was 2.7e-10.
ORBIT_TOL = 1e-8
CLI_ENTRY = "import sys; from nilmetric.cli import main; sys.exit(main())"


@dataclasses.dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], bytes]


def structure_of(point) -> tuple:
    return (point.structure.tag, point.structure.payload)


def full_of(tensor) -> np.ndarray:
    return oracle.full_from_pairs(tensor.coeffs)


def perturbation(point, rng, scale: float) -> np.ndarray:
    """exp(xi) for xi drawn from the structure algebra, scaled as in the
    acceptance criteria: |xi| = scale * sqrt(dim of the algebra)."""
    basis = oracle.full_algebra_basis(*structure_of(point), point.tensor.dim)
    xi = sum(c * B for c, B in zip(rng.standard_normal(len(basis)), basis))
    xi *= scale * math.sqrt(len(basis)) / np.linalg.norm(xi)
    return oracle.expm(xi)


def moved(point, g: np.ndarray):
    """The preset's bracket moved by the basis change g, g.mu."""
    T = oracle.in_frame(full_of(point.tensor), np.linalg.inv(g), g)
    iu, ju = np.triu_indices(point.tensor.dim, k=1)
    return nm.SkewTensor(point.tensor.dim, T[iu, ju])


def _close(a, b, rel: float) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.abs(a - b).max() <= rel * max(1.0, float(np.abs(b).max())))


# flow_rk4

def _flow_check(point, G0: np.ndarray, soliton: bool):
    structure = structure_of(point)
    T = full_of(point.tensor)

    def check(trace) -> list:
        bad = []
        last = trace.samples[-1]
        if not trace.converged or abs(last[0] - 1.0) > 1e-12:
            bad.append(f"flow stopped at t = {last[0]!r}")
        scals = np.array([row[1] for row in trace.samples])
        drift = float(np.abs(scals - scals[0]).max() / abs(scals[0]))
        if drift > FLOW_TOL:
            bad.append(f"scal drift {drift:.3e}")
        G = trace.final_state.matrix
        if oracle.compatibility_residual(G, structure) > FLOW_TOL:
            bad.append("final metric left the compatible cone")
        start = oracle.Curvature(T, G0, structure)
        end = oracle.Curvature(T, G, structure)
        if abs(end.scal - start.scal) > FLOW_TOL * abs(start.scal):
            bad.append("oracle scal drifted")
        if abs(end.scal - last[1]) > 1e-9 * abs(end.scal):
            bad.append(f"last row scal {last[1]!r} vs oracle {end.scal!r}")
        if abs(end.F - last[2]) > FLOW_TOL * end.F:
            bad.append(f"last row F {last[2]!r} vs oracle {end.F!r}")
        Fs = [oracle.Curvature(T, Gt, structure).F for Gt in trace.states]
        if any(b > a + 1e-12 * a for a, b in zip(Fs, Fs[1:])):
            bad.append("F increased between samples")
        if soliton:
            for row, Gt in zip(trace.samples, trace.states):
                want = oracle.soliton_metric(oracle.M26_D, row[0], G0)
                if np.abs(Gt - want).max() > 1e-6 * np.abs(want).max():
                    bad.append(f"not self-similar at t = {row[0]}")
                    break
        return bad

    return check


def _flow_op(label: str, point, G0: np.ndarray, soliton: bool = False) -> Op:
    metric = nm.Metric(G0)
    return Op(
        label=label,
        run=lambda: nm.metric_flow(point.tensor, point.structure, metric,
                                   FLOW_CFG),
        check=_flow_check(point, G0, soliton),
        digest=lambda trace: np.asarray(trace.states).tobytes(),
    )


def build_flow(seed: int, ctx) -> list:
    rng = np.random.default_rng([seed, 1])
    m26 = nm.catalog_get("m26")
    # At its catalog scale (|mu|^2 = 40.5) the iwasawa-curve soliton
    # shrinks G so fast that by t = 1 its condition number passes 1e16;
    # scaled to m26's norm it flows 4x slower, with the same dynamics.
    iwasawa = nm.catalog_get("iwasawa-curve")
    iwasawa = dataclasses.replace(iwasawa, bracket=iwasawa.tensor.scaled(
        m26.tensor.norm() / iwasawa.tensor.norm()))
    ops = []
    for label, preset in (("m26/symplectic", m26), ("m26/symplectic", m26),
                          ("iwasawa-curve/complex", iwasawa),
                          ("hc-g3/hypercomplex", nm.catalog_get("hc-g3"))):
        phi = perturbation(preset, rng, FLOW_SCALE)
        ops.append(_flow_op(label, preset, phi.T @ phi))
    ops.append(_flow_op("m26/soliton", m26, np.eye(6), soliton=True))
    return ops


# descent_multistart

def _descent_check(point, F_exact: float):
    structure = structure_of(point)

    def check(output) -> list:
        trace, cert = output
        bad = []
        if not trace.converged:
            bad.append("descent did not converge")
        Fs = [row[2] for row in trace.samples]
        if any(b > a + 1e-12 for a, b in zip(Fs, Fs[1:])):
            bad.append("F increased during the descent")
        T = full_of(trace.final_state)
        cur = oracle.Curvature(T, None, structure)
        if abs(cur.F - F_exact) > 1e-6:
            bad.append(f"final F {cur.F!r} vs {F_exact!r} at the preset")
        if oracle.jacobi_residual(T) > ORBIT_TOL * oracle.norm2(T):
            bad.append("limit violates Jacobi")
        if oracle.integrability_residual(T, structure) > ORBIT_TOL * oracle.norm2(T):
            bad.append("limit is not integrable")
        c, _, residual = cur.certificate()
        if residual > 1e-8:
            bad.append(f"oracle certificate residual {residual:.3e}")
        if not cert.minimal or abs(cert.c - c) > 1e-8 * abs(c):
            bad.append(f"certificate {cert.verdict} c = {cert.c!r}, oracle {c!r}")
        return bad

    return check


def build_descent(seed: int, ctx) -> list:
    rng = np.random.default_rng([seed, 2])
    m26 = nm.catalog_get("m26")
    F_exact = oracle.Curvature(full_of(m26.tensor), None, structure_of(m26)).F
    check = _descent_check(m26, F_exact)

    def op(start):
        def run():
            trace = nm.bracket_descent(start, m26.structure)
            return trace, nm.certify_minimal(trace.final_state,
                                             gamma=m26.structure)
        return Op("m26/symplectic", run, check,
                  lambda out: out[0].final_state.coeffs.tobytes())

    return [op(moved(m26, perturbation(m26, rng, DESCENT_SCALE)))
            for _ in range(DESCENT_STARTS)]


# cli_cold

def _problem(point, metric: np.ndarray = None) -> dict:
    if metric is None:
        return nm.point_to_problem(point)
    return nm.export_problem(point.tensor, point.structure, nm.Metric(metric))


def _parse(output) -> tuple:
    """(parsed JSON or None, problems) of a command's (exit code, stdout)."""
    code, text = output
    try:
        payload = json.loads(text)
    except ValueError:
        return None, ["stdout is not JSON"]
    bad = [] if code == 0 else [f"exit code {code}"]
    if payload.get("format") != 1:
        bad.append("missing format 1 header")
    return payload, bad


def _cli_check(command: str, point, curvature):
    """`curvature()` gives the oracle's data for the command's input."""
    def check(output) -> list:
        out, bad = _parse(output)
        if out is None:
            return bad
        if command == "check" and out.get("pass") is not True:
            bad.append("check did not pass")
        if command in ("curvature", "certify", "fingerprint"):
            cur = curvature()
            if command == "curvature":
                T = full_of(point.tensor)
                if abs(out["scal"] + 0.25 * oracle.norm2(T)) > 1e-12 * oracle.norm2(T):
                    bad.append("scal is not -1/4 |mu|^2")
                if not _close(out["ric"], cur.ric, 1e-12):
                    bad.append("ric differs from the oracle")
                if not _close(out["ric_gamma"], cur.ric_gamma, 1e-12):
                    bad.append("ric_gamma differs from the oracle")
            elif command == "certify":
                c, D, _ = cur.certificate()
                if out["verdict"] != "Minimal":
                    bad.append(f"verdict {out['verdict']}")
                if abs(out["c"] - c) > 1e-10 * abs(c) or not _close(out["D"], D, 1e-10):
                    bad.append("c or D differs from the oracle")
                if point.family_id == "m26" and (
                        abs(out["c"] - oracle.M26_C) > 1e-10
                        or not _close(out["D"], oracle.M26_D, 1e-10)):
                    bad.append("c or D differs from the m26 closed form")
            else:
                eig_ric, eig_ric_gamma = cur.spectra()
                if not (_close(out["eigen_ric"], eig_ric, 1e-12)
                        and _close(out["eigen_ric_gamma"], eig_ric_gamma, 1e-12)):
                    bad.append("spectra differ from the oracle")
        if command == "distinguish" and out.get("verdict") != "Distinct":
            bad.append(f"verdict {out.get('verdict')}")
        if command == "flow":
            s0, s1 = out["scal_initial"], out["scal_final"]
            if not out["converged"]:
                bad.append("flow did not converge")
            if abs(s1 - s0) > FLOW_TOL * abs(s0):
                bad.append("scal drifted")
            if abs(s0 - curvature().scal) > 1e-12 * abs(s0):
                bad.append("initial scal differs from the oracle")
        if command == "search":
            best = out["best"]
            if best["certificate"]["verdict"] != "Minimal" or not best["converged"]:
                bad.append("best start is not a converged Minimal bracket")
            if abs(best["F_final"] - oracle.M26_F) > 1e-6:
                bad.append(f"best F_final {best['F_final']!r}")
        return bad

    return check


def build_cli(seed: int, ctx) -> list:
    rng = np.random.default_rng([seed, 3])
    theta = rng.uniform(0.0, math.pi / 3.0)
    presets = [
        nm.m26_point(math.cos(theta) - math.sin(theta) / math.sqrt(3.0),
                     2.0 * math.sin(theta) / math.sqrt(3.0)),
        nm.complex_curve(rng.uniform(1.0, 2.0)),
        nm.hc_g3_point(),
        nm.heisenberg(),
    ]
    m26 = nm.m26_point(1.0, 0.0)
    # The coarse flow starts from one fixed perturbed metric: its accepted
    # step count depends on how often the step is halved, and that varies
    # from 40 to 640 over random starts.
    phi = perturbation(m26, np.random.default_rng(0), FLOW_SCALE)
    G_flow = phi.T @ phi
    workdir = Path(ctx.workdir)

    def write(name: str, problem: dict) -> str:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(problem), encoding="utf-8")
        return str(path)

    ops = []

    def add(command, argv, point, metric=None):
        G = np.eye(point.tensor.dim) if metric is None else metric
        cached = {}

        def curvature():
            if "cur" not in cached:
                cached["cur"] = oracle.Curvature(full_of(point.tensor), G,
                                                 structure_of(point))
            return cached["cur"]

        ops.append(Op(f"cli.{command}", ctx.cli_runner(argv),
                      _cli_check(command, point, curvature),
                      lambda out: repr(out).encode()))

    for point in presets:
        path = write(point.family_id, _problem(point))
        for command in ("check", "curvature", "certify", "fingerprint"):
            add(command, [command, path], point)
    a = write("m26-x1-y0", _problem(m26))
    b = write("m26-x0-y1", _problem(nm.m26_point(0.0, 1.0)))
    add("distinguish", ["distinguish", a, b], m26)
    flow = write("m26-flow", _problem(m26, G_flow))
    add("flow", ["flow", flow, "--step", "0.05"], m26, G_flow)
    add("search", ["search", a, "--starts", "2", "--seed", str(seed)], m26)
    return ops


def subprocess_runner(root: Path, env: dict):
    """Runs a command in a fresh interpreter, as the installed entry point
    would."""
    def runner(argv):
        def run():
            proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv],
                                  cwd=root, env=env, capture_output=True,
                                  text=True, timeout=120)
            return proc.returncode, proc.stdout
        return run
    return runner


def inprocess_runner(tracer=None):
    """Runs ``nilmetric.cli.main`` in this process; with a tracer, each
    command is one span named after it."""
    from nilmetric import cli

    def runner(argv):
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.call(f"cli.{argv[0]}", cli.main, (argv,), {})
            return code, out.getvalue()
        return run
    return runner


ROUNDS = {
    "flow_rk4": build_flow,
    "descent_multistart": build_descent,
    "cli_cold": build_cli,
}

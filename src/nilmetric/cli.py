"""Command-line interface: validation, curvature reports, certification,
flows, multi-start descent search, fingerprints and catalog presets.

Exit codes: 0 success (pass / Minimal / converged / Distinct), 1 failed
checks or computational errors, 2 unparseable input or bad request, 3 a
clean run whose outcome is negative (NotCertified, no descent, or
Indistinguishable).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys

import numpy as np

from . import __version__
from .algebra_core import (Bracket, Metric, act, combine, expm,
                           jacobi_accepted, jacobi_residual, lower_central_dims)
from .catalog import catalog_get, catalog_list
from .curvature import curvature_report
from .defaults import TOL_DISTINGUISH, certification_tolerance
from .errors import FamilyConstraint, NilmetricError, ParseError
from .flows import (MAX_ITER, TOL_CONVERGE, FlowConfig, bracket_descent,
                    metric_flow)
from .minimality import certify_minimal, distinguish, fingerprint
from .problemfile import jsonable, load_problem, point_to_problem
from .structures import (compatibility_accepted, compatibility_residual,
                         integrability_accepted, integrability_residual,
                         structure_algebra)


def _emit(payload) -> None:
    """Print the format header and the fields of payload, a dict or a
    result record, as one JSON object with sorted keys."""
    fields = {"format": 1, "tool": f"nilmetric {__version__}"}
    fields.update(jsonable(payload))
    print(json.dumps(fields, indent=2, sort_keys=True))


def cmd_check(args) -> int:
    problem = load_problem(args.file)
    tensor = problem.tensor
    jac = jacobi_residual(tensor)
    lcs = lower_central_dims(tensor)
    nilpotent = lcs[-1] == 0
    integ = integrability_residual(problem.structure, tensor)
    compat = compatibility_residual(problem.structure, problem.metric)
    checks = {
        "jacobi": jacobi_accepted(jac, tensor),
        "nilpotent": bool(nilpotent),
        "integrability": integrability_accepted(integ, tensor),
        "compatibility": compatibility_accepted(compat),
    }
    report = {
        "dim": problem.dim,
        "jacobi_residual": jac,
        "lcs_dims": lcs,
        "nilpotent": nilpotent,
        "nilpotency_index": len(lcs) - 1 if nilpotent else None,
        "integrability_residual": integ,
        "compatibility_residual": compat,
        "checks": checks,
        "pass": all(checks.values()),
    }
    _emit(report)
    return 0 if report["pass"] else 1


def cmd_curvature(args) -> int:
    problem = load_problem(args.file)
    report = curvature_report(problem.tensor, problem.metric, problem.structure)
    _emit({**jsonable(report), "dim": problem.dim})
    return 0


def _problem_tolerance(problem, args) -> float:
    if getattr(args, "tol", None) is not None:
        return args.tol
    if "tol" in problem.options:
        return float(problem.options["tol"])
    return certification_tolerance()


def _open_output(path: str):
    """path opened for writing (before any work), or ParseError naming it."""
    try:
        return open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def cmd_certify(args) -> int:
    problem = load_problem(args.file)
    tol = _problem_tolerance(problem, args)
    cert = certify_minimal(problem.tensor, problem.metric, problem.structure,
                           tol=tol)
    _emit(cert)
    return 0 if cert.minimal else 3


def cmd_flow(args) -> int:
    problem = load_problem(args.file)
    cfg = FlowConfig(step=args.step, horizon=args.horizon, sign=args.sign,
                     renorm=not args.unnormalized)
    with _open_output(args.csv) if args.csv else contextlib.nullcontext() as fh:
        trace = metric_flow(problem.tensor, problem.structure, problem.metric, cfg)
        if fh is not None:
            writer = csv.writer(fh)
            writer.writerow(["t", "scal", "F", "cert_residual"])
            for row in trace.samples:
                writer.writerow([f"{v:.17g}" for v in row])
    first = trace.samples[0]
    last = trace.samples[-1]
    _emit({
        "steps": len(trace.samples) - 1,
        "t_final": last[0],
        "scal_initial": first[1],
        "scal_final": last[1],
        "F_initial": first[2],
        "F_final": last[2],
        "cert_residual_final": last[3],
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "stats": trace.stats,
        "normalized": not args.unnormalized,
        "sign": args.sign,
    })
    return 0 if trace.converged else 3


def _search_one(index: int, tensor, structure, basis, seed_seq, scale,
                settings: dict, tol: float):
    rng = np.random.default_rng(seed_seq)
    if index == 0 or not basis:
        start = tensor
    else:
        xi = combine(rng.standard_normal(len(basis)), basis)
        norm = np.linalg.norm(xi)
        if norm > 0:
            xi = (scale / norm) * xi
        start = act(expm(xi), tensor)
    trace = bracket_descent(start, structure, **settings)
    final = trace.final_state
    cert = certify_minimal(final, Metric.identity(final.dim), structure, tol=tol)
    return {
        "start": index,
        "converged": trace.converged,
        "stop_reason": trace.stop_reason,
        "iterations": len(trace.samples) - 1,
        "F_final": trace.samples[-1][2],
        "residual": cert.residual,
        "verdict": cert.verdict,
        "c": cert.c,
        "_final": final,
        "_cert": cert,
    }


def cmd_search(args) -> int:
    problem = load_problem(args.file)
    tol = _problem_tolerance(problem, args)
    tensor = problem.tensor.scaled(1.0 / problem.tensor.norm()) \
        if problem.tensor.norm() > 0 else problem.tensor
    basis = structure_algebra(problem.structure,
                              Metric.identity(problem.dim)).sym_basis
    settings = {"tol_converge": args.tol_converge, "max_iter": args.max_iter}
    children = np.random.SeedSequence(args.seed).spawn(args.starts)
    results = [_search_one(k, tensor, problem.structure, basis, children[k],
                           args.perturbation, settings, tol)
               for k in range(args.starts)]
    best = min(results, key=lambda r: (not r["converged"], r["F_final"]))
    cert = best["_cert"]
    _emit({
        "starts": [{k: v for k, v in r.items() if not k.startswith("_")}
                   for r in results],
        "best": {
            "start": best["start"],
            "F_final": best["F_final"],
            "converged": best["converged"],
            "certificate": cert,
            "bracket": best["_final"],
        },
    })
    return 0 if best["converged"] and cert.minimal else 3


def cmd_fingerprint(args) -> int:
    problem = load_problem(args.file)
    fp = fingerprint(Bracket(problem.tensor), problem.metric, problem.structure)
    _emit(fp)
    return 0


def cmd_distinguish(args) -> int:
    pa = load_problem(args.file_a)
    pb = load_problem(args.file_b)
    fa = fingerprint(Bracket(pa.tensor), pa.metric, pa.structure)
    fb = fingerprint(Bracket(pb.tensor), pb.metric, pb.structure)
    verdict = distinguish(fa, fb, tol=args.tol)
    _emit({
        "verdict": verdict,
        "tolerance": args.tol,
        "fingerprint_a": fa,
        "fingerprint_b": fb,
    })
    return 0 if verdict == "Distinct" else 3


def cmd_catalog(args) -> int:
    if args.action == "list":
        _emit({"catalog": catalog_list()})
        return 0
    params = {}
    for item in args.params:
        if "=" not in item:
            print(f"error: catalog parameter {item!r} is not key=value",
                  file=sys.stderr)
            return 2
        key, _, value = item.partition("=")
        try:
            params[key.strip()] = _FINITE(value)
        except argparse.ArgumentTypeError as exc:
            print(f"error: catalog parameter {item!r}: {exc}", file=sys.stderr)
            return 2
    try:
        point = catalog_get(args.id, params)
    except (KeyError, FamilyConstraint) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    problem = point_to_problem(point)
    text = json.dumps(jsonable(problem), indent=2, sort_keys=True)
    if args.out:
        with _open_output(args.out) as fh:
            fh.write(text + "\n")
        _emit({"written": args.out, "family_id": point.family_id,
               "params": point.params, "validation": point.validation})
    else:
        print(text)
    return 0


def _number(cast, what: str, test):
    """An argparse type: cast(text) if test accepts it; otherwise argparse
    names the flag in one error line and exits 2."""
    def parse(text: str):
        try:
            value = cast(text)
            ok = test(value)
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return parse


_FINITE = _number(float, "a finite number", math.isfinite)
_POSITIVE = _number(float, "a positive finite number",
                    lambda value: math.isfinite(value) and value > 0)
_NON_NEGATIVE = _number(float, "a finite number >= 0",
                        lambda value: math.isfinite(value) and value >= 0)
_POSITIVE_INT = _number(int, "a positive integer", lambda value: value > 0)
_NON_NEGATIVE_INT = _number(int, "a non-negative integer", lambda value: value >= 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilmetric",
        description="curvature, certification, flows and search for "
                    "left-invariant metrics on nilpotent groups",
    )
    parser.add_argument("--version", action="version",
                        version=f"nilmetric {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a problem file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("curvature", help="curvature report as JSON")
    p.add_argument("file")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("certify", help="minimality certificate as JSON")
    p.add_argument("file")
    p.add_argument("--tol", type=_POSITIVE, default=None,
                   help="certification tolerance (default from options/env)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("flow", help="integrate the invariant Ricci flow")
    p.add_argument("file")
    p.add_argument("--step", type=_POSITIVE, default=FlowConfig.step)
    p.add_argument("--horizon", type=_POSITIVE, default=FlowConfig.horizon)
    p.add_argument("--sign", choices=["plus", "minus"], default="minus")
    p.add_argument("--unnormalized", action="store_true",
                   help="drop the scalar-curvature-preserving trace term")
    p.add_argument("--csv", default=None, metavar="PATH",
                   help="write the (t, scal, F, cert_residual) trace as CSV")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("search", help="multi-start descent to a minimal bracket")
    p.add_argument("file")
    p.add_argument("--starts", type=_POSITIVE_INT, default=8)
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0)
    p.add_argument("--perturbation", type=_NON_NEGATIVE, default=0.2,
                   help="Frobenius norm of each perturbed start's symmetric "
                        "structure-algebra generator")
    p.add_argument("--tol-converge", type=_POSITIVE, default=TOL_CONVERGE)
    p.add_argument("--max-iter", type=_POSITIVE_INT, default=MAX_ITER)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("fingerprint", help="spectral fingerprint as JSON")
    p.add_argument("file")
    p.set_defaults(func=cmd_fingerprint)

    p = sub.add_parser("distinguish", help="compare two fingerprints")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--tol", type=_POSITIVE, default=TOL_DISTINGUISH)
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("catalog", help="list presets or export one")
    p.add_argument("action", choices=["list", "get"])
    p.add_argument("id", nargs="?", default=None)
    p.add_argument("params", nargs="*", default=[],
                   help="key=value overrides for the preset parameters")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the problem JSON to a file instead of stdout")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "get" and args.id is None:
        print("error: catalog get needs a preset id", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NilmetricError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of nilmetric: the invariant Ricci flow kernel, the orbit
descent and the cold start of the command line, each output checked
against an independent oracle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones: one worker process runs
whole rounds of the workload for S seconds, and ``SETUP_SAMPLES`` more
fresh processes only set it up, half before and half after it.  With
``--trace 1`` they are the per-layer ones, from one traced round in each
of two fresh processes (whose counts must agree exactly) and one untraced
round for the tracing overhead.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("flow_rk4", "descent_multistart", "cli_cold")
SETUP_SAMPLES = 4
WORKER_TIMEOUT_S = 150
IMPORT_SAMPLES = 3

# numpy and scipy each load their own OpenBLAS with a thread pool sized to
# the cores; two pools on a small machine can stall scipy.linalg.expm for
# its first hundred calls.  One thread per library keeps the load at no
# more threads than cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(env: dict, workload: str, seed: int, mode: str,
               seconds: float = 0.0, trace_file: Path = None) -> dict:
    """Runs one worker; adds ``setup_s``, from process start to the end
    of its set-up, to the worker's result."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(seconds)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def import_times(env: dict) -> dict:
    """Cumulative import times in ms of nilmetric and scipy.linalg, from
    ``python -X importtime`` in a fresh interpreter (0 if not imported)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import nilmetric"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        check=True)
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.partition("import time:")[2].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            found.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
    return {"import.nilmetric_ms": found.get("nilmetric", 0.0),
            "import.scipy_linalg_ms": found.get("scipy.linalg", 0.0)}


def _report_problems(results: list) -> bool:
    """Prints failures to stderr; False if some output was
    nondeterministic."""
    deterministic = True
    for result in results:
        for message in result["messages"]:
            print(f"check failed: {message}", file=sys.stderr)
        if result["nondeterministic"]:
            deterministic = False
            print(f"outputs changed between rounds: ops "
                  f"{result['nondeterministic']}", file=sys.stderr)
    return deterministic


def timed_run(env: dict, workload: str, seed: int, seconds: int) -> dict:
    half = SETUP_SAMPLES // 2
    setups = [run_worker(env, workload, seed, "setup")["setup_s"]
              for _ in range(half)]
    timed = run_worker(env, workload, seed, "timed", seconds)
    setups += [timed["setup_s"]]
    setups += [run_worker(env, workload, seed, "setup")["setup_s"]
               for _ in range(SETUP_SAMPLES - half)]
    metrics = {
        "ops_per_s": (timed["attempted"] / timed["phase_s"], "1/s"),
        "op_ms.p50": (1e3 * statistics.median(timed["op_s"]), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (timed["peak_rss_kb"] / 1024.0, "MB"),
    }
    return {
        "correct": _report_problems([timed]),
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def traced_run(env: dict, workload: str, seed: int) -> dict:
    OUT.mkdir(exist_ok=True)
    base = run_worker(env, workload, seed, "round")
    traced = [run_worker(env, workload, seed, "traced",
                         trace_file=OUT / f"trace-{workload}-seed{seed}-{k}.csv")
              for k in (1, 2)]
    correct = _report_problems([base] + traced)
    first, second = (t["layers"] for t in traced)
    for name in sorted(first):
        if tracing.is_count(name) and first[name] != second[name]:
            correct = False
            print(f"count {name} differs between traced runs: "
                  f"{first[name]!r} vs {second[name]!r}", file=sys.stderr)
    samples = [import_times(env) for _ in range(IMPORT_SAMPLES)]
    layers = dict(first)
    for name in samples[0]:
        layers[name] = statistics.median(s[name] for s in samples)
    layers["trace.overhead_pct"] = 100.0 * (
        sum(traced[0]["op_s"]) / sum(base["op_s"]) - 1.0)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    return {
        "correct": correct,
        "attempted": traced[0]["attempted"],
        "failed": traced[0]["failed"],
        "metrics": {name: {"value": layers[name], "unit": units[name]}
                    for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nilmetric" / "__init__.py").is_file():
        print(f"no nilmetric sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = worker_env()
    try:
        # compiles the bytecode and warms the file cache before any timing
        subprocess.run([sys.executable, "-c", "import nilmetric.cli"],
                       cwd=ROOT, env=env, timeout=120, check=True)
        if args.trace:
            result = traced_run(env, args.workload, args.seed)
        else:
            result = timed_run(env, args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

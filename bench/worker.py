"""One benchmark worker process: set up a workload, run whole rounds of
its operations, then check every output.

    python3 bench/worker.py --workload NAME --seed N --mode MODE
        [--seconds S] [--trace-file PATH]

MODE is ``setup`` (set up, then exit), ``timed`` (whole rounds while
they fit in S seconds, at least one), ``round`` (exactly one round) or
``traced`` (one round with spans recorded).  The last line of stdout is a
JSON object; ``ready`` is the CLOCK_MONOTONIC time at which set-up ended,
so the caller can measure set-up from the moment it started the process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _import_program():
    import nilmetric

    src = (ROOT / "src").resolve()
    if src not in Path(nilmetric.__file__).resolve().parents:
        sys.exit(f"nilmetric was imported from {nilmetric.__file__}, "
                 f"not from {src}")


class Context:
    def __init__(self, workdir: str, cli_runner):
        self.workdir = workdir
        self.cli_runner = cli_runner


def run_rounds(ops, seconds: float, timed: bool, call):
    """Run whole rounds.  Returns the per-op records (index, seconds,
    output digest or the exception raised), the timed-phase seconds and the
    first output seen for each (index, digest), so memory stays that of one
    round however many rounds run.  Another round starts only while the
    time used plus the last round's length stays within `seconds`."""
    records = []
    outputs = {}
    interned = {}  # records share one digest object per distinct output
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for index, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                out = call(op)
            except Exception as exc:  # an op that raises counts as failed
                records.append((index, time.perf_counter() - t0, exc))
                traceback.print_exc(file=sys.stderr)
                continue
            elapsed = time.perf_counter() - t0
            digest = op.digest(out)
            key = (index, digest)
            if key not in outputs:
                outputs[key] = out
                interned[key] = digest
            records.append((index, elapsed, interned[key]))
        now = time.perf_counter()
        if not timed or (now - start) + (now - round_start) > seconds:
            return records, now - start, outputs


def check_records(ops, records, outputs) -> dict:
    """Checks each distinct output once and counts every op whose output
    fails.  An op whose output differs between rounds makes the run
    incorrect."""
    verdicts = {key: ops[key[0]].check(out) for key, out in outputs.items()}
    failed = 0
    messages = set()
    for index, _, digest in records:
        label = ops[index].label
        if isinstance(digest, Exception):
            failed += 1
            messages.add(f"op {index} ({label}) raised {digest!r}")
        elif verdicts[(index, digest)]:
            failed += 1
            messages.add(f"op {index} ({label}): "
                         + "; ".join(verdicts[(index, digest)]))
    seen = [index for index, _ in outputs]
    return {"failed": failed, "messages": sorted(messages)[:20],
            "nondeterministic": sorted({i for i in seen if seen.count(i) > 1})}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "timed", "round", "traced"],
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    _import_program()
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.mode == "traced" else None
    cli = args.workload == "cli_cold"
    runner = None
    if cli and args.mode in ("setup", "timed"):
        runner = workloads.subprocess_runner(ROOT, dict(os.environ))
    elif cli:
        runner = workloads.inprocess_runner(tracer)
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        ops = workloads.ROUNDS[args.workload](args.seed,
                                                Context(workdir, runner))
        ready = time.monotonic()
        if args.mode == "setup":
            print(json.dumps({"ready": ready}))
            return 0
        if tracer is not None:
            tracing.install(tracer)

        def call(op):
            # CLI ops record their own span, named after the command
            if tracer is None or cli:
                return op.run()
            return tracer.call("op", op.run, (), {})

        records, phase, outputs = run_rounds(ops, args.seconds,
                                             args.mode == "timed", call)
        usage = resource.RUSAGE_CHILDREN if cli and args.mode == "timed" \
            else resource.RUSAGE_SELF
        peak_kb = resource.getrusage(usage).ru_maxrss
        if tracer is not None:
            layers = tracing.layer_metrics(tracer, len(records))
            if args.trace_file:
                tracer.write(args.trace_file)
        else:
            layers = {}
        result = check_records(ops, records, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update({
        "ready": ready,
        "phase_s": phase,
        "op_s": [seconds for _, seconds, _ in records],
        "attempted": len(records),
        "peak_rss_kb": peak_kb,
        "layers": layers,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

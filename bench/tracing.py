"""Spans around calls into nilmetric's layers, recorded from outside.

``install`` replaces each traced function by a timing wrapper in every
nilmetric module that holds a reference to it (a module that did ``from
.curvature import invariant_ricci`` holds its own), and wraps
``Metric.__init__`` in place so that ``Metric.identity`` and the other
classmethods keep working.  Each call records a span (id, name, start,
end, parent span); spans stay in memory until ``write``.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import csv
import itertools
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name); the span name is the metric prefix
TRACED = [
    ("nilmetric.algebra_core", "act", "algebra_core.act"),
    ("nilmetric.algebra_core", "coboundary", "algebra_core.coboundary"),
    ("nilmetric.algebra_core", "jacobi_residual", "algebra_core.jacobi_residual"),
    ("nilmetric.curvature", "ricci_operator", "curvature.ricci_operator"),
    ("nilmetric.curvature", "scalar_curvature", "curvature.scalar_curvature"),
    ("nilmetric.curvature", "invariant_ricci", "curvature.invariant_ricci"),
    ("nilmetric.curvature", "functional_F", "curvature.functional_F"),
    ("nilmetric.structures", "metric_jmap", "structures.metric_jmap"),
    ("nilmetric.flows", "metric_flow", "flows.metric_flow"),
    ("nilmetric.flows", "_flow_field", "flows.field_eval"),
    ("nilmetric.flows", "bracket_descent", "flows.bracket_descent"),
    ("nilmetric.flows", "_descent_sample", "flows.descent_sample"),
    ("nilmetric.flows", "_polish", "flows.polish"),
    ("nilmetric.flows", "expm", "flows.expm"),
    ("nilmetric.minimality", "certify_minimal", "minimality.certify_minimal"),
    ("nilmetric.minimality", "fingerprint", "minimality.fingerprint"),
    ("nilmetric.problemfile", "load_problem", "problemfile.load_problem"),
]

PROJECTION = ("nilmetric.structures", "invariant_projection",
              "structures.invariant_projection")

STRUCTURE_TAGS = ("symplectic", "complex", "hypercomplex")


class StepCounter:
    """Accepted and rejected steps of each metric_flow run, read from its
    field evaluations.  Every attempted step starts with an evaluation at
    the current state and its other stages evaluate at fresh arrays; a
    rejected step leaves the state in place, so the next attempt starts
    from the same array object.  A run that stops at its iteration cap
    right after a rejection would count that last attempt as accepted."""

    def __init__(self):
        self.accepted = 0
        self.rejected = 0
        self._calls = None
        self._stages = 4

    def start(self, args, kwargs):
        cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
        self._stages = 1 if cfg is not None and cfg.integrator == "euler" else 4
        self._calls = []

    def field(self, args, raised):
        if self._calls is not None:
            self._calls.append((args[2], raised))

    def finish(self):
        firsts = []
        open_stages = 0
        for state, raised in self._calls:
            if open_stages == 0:
                firsts.append(state)
            open_stages += 1
            if raised or open_stages == self._stages:
                open_stages = 0
        rejected = sum(a is b for a, b in zip(firsts, firsts[1:]))
        self.accepted += len(firsts) - rejected
        self.rejected += rejected
        self._calls = None


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent id or -1)
        self._ids = itertools.count()
        self._local = threading.local()
        self.steps = StepCounter()
        self.descent_iterations = 0
        self.lock = threading.Lock()  # the CLI's search runs descents in threads

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return traced

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_ns", "end_ns", "parent"])
            writer.writerows(sorted(self.spans))


def _replace_everywhere(original, replacement):
    for name, module in list(sys.modules.items()):
        if name == "nilmetric" or name.startswith("nilmetric."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer):
    """Wrap the traced layers of the already imported nilmetric package."""
    import nilmetric.cli  # noqa: F401  (holds its own references)
    from nilmetric import algebra_core

    for module, attr, name in TRACED:
        original = getattr(sys.modules[module], attr)
        if name == "flows.metric_flow":
            wrapper = _wrap_flow(tracer, original, name)
        elif name == "flows.field_eval":
            wrapper = _wrap_field(tracer, original, name)
        elif name == "flows.bracket_descent":
            wrapper = _wrap_descent(tracer, original, name)
        else:
            wrapper = tracer.wrap(original, name)
        _replace_everywhere(original, wrapper)

    module, attr, prefix = PROJECTION
    projection = getattr(sys.modules[module], attr)

    def traced_projection(gamma, *args, **kwargs):
        return tracer.call(f"{prefix}.{gamma.tag}", projection,
                           (gamma,) + args, kwargs)

    _replace_everywhere(projection, traced_projection)

    init = algebra_core.Metric.__init__

    def traced_init(self, *args, **kwargs):
        return tracer.call("algebra_core.Metric", init, (self,) + args, kwargs)

    algebra_core.Metric.__init__ = traced_init


def _wrap_flow(tracer, fn, name):
    def traced(*args, **kwargs):
        tracer.steps.start(args, kwargs)
        try:
            return tracer.call(name, fn, args, kwargs)
        finally:
            tracer.steps.finish()
    return traced


def _wrap_field(tracer, fn, name):
    def traced(*args, **kwargs):
        raised = True
        try:
            out = tracer.call(name, fn, args, kwargs)
            raised = False
            return out
        finally:
            tracer.steps.field(args, raised)
    return traced


def _wrap_descent(tracer, fn, name):
    def traced(*args, **kwargs):
        trace = tracer.call(name, fn, args, kwargs)
        with tracer.lock:
            tracer.descent_iterations += len(trace.samples) - 1
        return trace
    return traced


def span_totals(spans) -> dict:
    """name -> [calls, inclusive ns, self ns]."""
    child_ns = defaultdict(int)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = defaultdict(lambda: [0, 0, 0])
    for sid, name, start, end, _ in spans:
        entry = totals[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_ns[sid]
    return totals


def direct_children(spans, child: str, parent: str) -> int:
    """Number of `child` spans whose parent span is a `parent` span."""
    parents = {sid for sid, name, *_ in spans if name == parent}
    return sum(1 for _, name, _, _, p in spans if name == child and p in parents)


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics of one traced round of `ops` operations."""
    totals = span_totals(tracer.spans)  # missing names read [0, 0, 0]

    def calls(name):
        return totals[name][0]

    def per_op(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    def us_per_call(name):
        return ratio(totals[name][1], calls(name)) / 1e3

    def self_ms(name):
        return per_op(totals[name][2]) / 1e6

    flows = calls("flows.metric_flow")
    descents = calls("flows.bracket_descent")
    out = {
        "flows.metric_flow.field_evals": ratio(calls("flows.field_eval"), flows),
        "flows.metric_flow.accepted_steps": ratio(tracer.steps.accepted, flows),
        "flows.metric_flow.rejected_steps": ratio(tracer.steps.rejected, flows),
        "flows.metric_flow.us_per_field_eval": us_per_call("flows.field_eval"),
        "flows.bracket_descent.iterations": ratio(tracer.descent_iterations, descents),
        "flows.bracket_descent.line_search_trials": ratio(
            direct_children(tracer.spans, "curvature.functional_F",
                            "flows.bracket_descent"), descents),
    }
    for name in ("algebra_core.act", "algebra_core.Metric",
                 "curvature.scalar_curvature", "flows.expm"):
        out[f"{name}.calls"] = per_op(calls(name))
        out[f"{name}.self_ms"] = self_ms(name)
    for name in ("structures.metric_jmap", "minimality.certify_minimal"):
        out[f"{name}.calls"] = per_op(calls(name))
    for tag in STRUCTURE_TAGS:
        name = f"{PROJECTION[2]}.{tag}"
        out[f"{name}.calls"] = per_op(calls(name))
        out[f"{name}.us_per_call"] = us_per_call(name)
    for name in ("curvature.ricci_operator", "curvature.invariant_ricci",
                 "algebra_core.coboundary", "curvature.functional_F",
                 "minimality.certify_minimal", "minimality.fingerprint",
                 "algebra_core.jacobi_residual", "problemfile.load_problem"):
        out[f"{name}.us_per_call"] = us_per_call(name)
    for command in ("check", "curvature", "certify", "fingerprint",
                    "distinguish", "flow", "search"):
        name = f"cli.{command}"
        out[f"{name}.ms"] = ratio(totals[name][1], calls(name)) / 1e6
    return out


def is_count(metric: str) -> bool:
    return metric.endswith((".calls", ".field_evals", ".accepted_steps",
                            ".rejected_steps", ".iterations",
                            ".line_search_trials"))

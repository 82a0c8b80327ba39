"""The benchmark's tracer (bench/tracing.py) wraps package functions by
module and attribute name, and counts a flow's steps from the arguments of
its field evaluations.  A rename or a signature change must fail here, in
the test suite, before it breaks a traced benchmark run."""

import importlib

import pytest

import nilmetric as nm

from conftest import bench_module, coarse_flow_start

TRACING = bench_module("tracing")


def _traced_names() -> list:
    return [(module, attr) for module, attr, _ in TRACING.TRACED
            + [TRACING.PROJECTION]]


@pytest.mark.parametrize("module,attr", _traced_names())
def test_traced_name_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), \
        f"{module}.{attr} is traced by the benchmark but not defined"


def test_step_counter_reads_the_flow_steps(monkeypatch):
    # the coarse CLI flow rejects steps; StepCounter, fed the field
    # evaluations as the tracer sees them, must count what the flow counts
    counter = TRACING.StepCounter()
    field = nm.flows._flow_field

    def recorded(*args, **kwargs):
        raised = True
        try:
            out = field(*args, **kwargs)
            raised = False
            return out
        finally:
            counter.field(args, raised)

    monkeypatch.setattr("nilmetric.flows._flow_field", recorded)
    p, G0 = coarse_flow_start()
    args = (p.tensor, p.structure, G0, nm.FlowConfig(step=0.05))
    counter.start(args, {})
    trace = nm.metric_flow(*args)
    counter.finish()
    assert sum(trace.stats["rejected"].values()) > 0
    assert counter.accepted == trace.stats["accepted"]
    assert counter.rejected == sum(trace.stats["rejected"].values())

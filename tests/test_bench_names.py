"""The benchmark's tracer (bench/tracing.py) wraps package functions by
module and attribute name.  A rename must fail here, in the test suite,
before it breaks a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_names() -> list:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _ in tracing.TRACED
            + [tracing.PROJECTION]]


@pytest.mark.parametrize("module,attr", _traced_names())
def test_traced_name_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), \
        f"{module}.{attr} is traced by the benchmark but not defined"

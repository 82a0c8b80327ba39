"""The benchmark's workloads (bench/workloads.py) build their rounds from the
package's public API.  A change to that API must fail here, in the test
suite, before it breaks a benchmark run."""

import importlib
from types import SimpleNamespace

import pytest

from conftest import BENCH


@pytest.fixture
def workloads(monkeypatch):
    # imported by name, as bench/worker.py does: workloads.py imports its
    # sibling oracle.py by name, and its dataclass needs a registered module
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


def test_workloads_build_and_check_a_descent(workloads, tmp_path):
    ctx = SimpleNamespace(workdir=str(tmp_path),
                          cli_runner=workloads.inprocess_runner())
    rounds = {name: build(1, ctx) for name, build in workloads.ROUNDS.items()}
    assert {name: len(ops) for name, ops in rounds.items()} == {
        "flow_rk4": 5, "descent_multistart": workloads.DESCENT_STARTS,
        "cli_cold": 19}
    op = rounds["descent_multistart"][0]
    out = op.run()
    assert op.check(out) == []
    assert isinstance(op.digest(out), bytes)

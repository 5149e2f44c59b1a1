"""The benchmark's calls stay inside the test suite: every workload plan of
perfbench/workloads.py runs at its TINY sizes, and every report passes.  A
changed signature or name that breaks a plan fails here, not only in a
benchmark run.  The plans are read from the file's text, which this test
neither changes nor compiles to bytecode."""

import sys
import types
from pathlib import Path

import pytest

from rieszlab.maps import TaylorPoly

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
workloads = types.ModuleType("perfbench_workloads")
sys.modules[workloads.__name__] = workloads  # where dataclasses look up its classes' module
exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"), workloads.__dict__)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_plan_runs_and_every_report_passes(workload):
    plan = workloads.build_plan(workload, 0, workloads.TINY)
    reports = [report for check in plan for report in check.run()]
    assert reports
    assert [r.id for r in reports if not r.passed] == []


def test_the_traced_ring_method_exists():
    # the benchmark's tracer wraps TaylorPoly.boundary_values by name
    assert callable(getattr(TaylorPoly, "boundary_values", None))

"""Self-tests of the benchmark: span arithmetic, seeded plans, metric names,
the correctness gate, and exact counts of traced runs.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys

import numpy as np
import pytest

import metrics
import worker
from rieszlab.reporting import VerificationReport
from tracing import Tracer, instrument, public_functions, self_times, span_table
from workloads import FULL, SEED_STRIDE, TINY, WORKLOADS, Check, build_plan

BENCHMARK = json.loads((worker.ROOT / "BENCHMARK.json").read_text())


# ------------------------------ span arithmetic ------------------------------


def test_self_time_is_parent_minus_what_children_cover():
    # 0: [0, 10] with children 1: [1, 3] and 2: [4, 8]; 3: [5, 6] is a child of 2
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    parent = [-1, 0, 0, 2]
    np.testing.assert_allclose(self_times(start, end, parent), [4.0, 2.0, 3.0, 1.0])


def test_span_table_counts_reentry_once_in_busy_time():
    tracer = Tracer()

    def countdown(n):
        return 0 if n == 0 else wrapped(n - 1)

    wrapped = tracer.wrap(countdown, "maps.countdown")
    wrapped(3)
    row = span_table(tracer)["maps.countdown"]
    outer = tracer.end[0] - tracer.start[0]
    assert row["calls"] == 4
    assert row["busy_s"] == pytest.approx(outer)
    assert row["self_s"] == pytest.approx(outer)
    assert list(tracer.parent) == [-1, 0, 1, 2]


# ------------------------------- seeded plans -------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plan_is_a_function_of_the_seed(workload):
    assert build_plan(workload, 7) == build_plan(workload, 7)
    assert build_plan(workload, 7) != build_plan(workload, 8)
    # the check structure, and so the reference layout, does not move with the seed
    assert [c.key for c in build_plan(workload, 7)] == [c.key for c in build_plan(workload, 0)]


def test_seed_zero_reuses_the_full_suite_stage_seeds():
    seeds = {c.func: dict(c.kwargs).get("seed") for c in build_plan("hardy", 0)}
    assert seeds["conjugate_bound_reports"] == 41
    assert {c.args[-1] for c in build_plan("bergman", 0) if c.func == "verify_theorem"} == {71}
    # consecutive benchmark seeds draw disjoint per-sample seed ranges
    assert SEED_STRIDE > FULL.hardy_samples


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_layout_matches_the_plan(workload):
    reference = worker.load_reference(workload)
    assert list(reference) == [c.key for c in build_plan(workload, worker.DEFAULT_SEED)]


# ------------------------------- metric names -------------------------------


def test_metric_names_are_well_formed_and_unique():
    names = [name for name, _, _ in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.fullmatch(name), name


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    def rows(key):
        return [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[key]]

    assert rows("end_to_end") == list(metrics.END_TO_END)
    assert rows("per_layer") == list(metrics.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


# ----------------------------- correctness gate -----------------------------


def _report(**kw):
    fields = dict(id="X", p=2.0, min_slack=0.25, argmin=(0.5,), tolerance=1e-9)
    fields.update(kw)
    return VerificationReport(**fields)


def test_gate_accepts_roundoff_and_rejects_drift_fail_and_raise():
    check = Check("battery", "constant_identity_report")
    ref = [worker.payload(_report())]
    assert worker.gate(check, [_report(min_slack=0.25 * (1 + 1e-15))], ref, True)[:2] == (1, 0)
    assert worker.gate(check, [_report(min_slack=0.25 * (1 + 1e-11))], ref, True)[:2] == (1, 1)
    assert worker.gate(check, [_report(min_slack=0.25 * (1 + 1e-11))], ref, False)[:2] == (1, 0)
    assert worker.gate(check, [_report(id="Y")], ref, True)[:2] == (1, 1)
    failing = _report(min_slack=-1.0, violations=[((0.5,), -1.0)])
    assert worker.gate(check, [failing], ref, False)[:2] == (1, 1)
    assert worker.gate(check, [], ref, False)[:2] == (1, 1)
    assert worker.gate(check, ValueError("boom"), ref * 3, False)[:2] == (3, 3)


def test_drift_compares_numbers_to_roundoff_and_everything_else_exactly():
    assert worker.drift({"a": [1.0, float("inf")]}, {"a": [1.0 + 1e-16, float("inf")]}) is None
    assert worker.drift({"passed": True}, {"passed": False}) is not None
    assert worker.drift({"a": 1e-17}, {"a": -1e-17}) is None  # both ~0
    assert worker.drift({"a": [1, 2]}, {"a": [1]}) is not None


def test_payload_drops_only_the_timing():
    report = _report(elapsed_ms=12.5)
    data = worker.payload(report)
    assert "elapsed_ms" not in data
    assert data["passed"] is True and data["min_slack"] == 0.25


# ------------------------ traced runs: exact counts ------------------------


def _traced_pass(workload):
    tracer = Tracer()
    plan = build_plan(workload, 3, TINY)
    with instrument(tracer):
        reports = [r for check in plan for r in check.run()]
    values = metrics.per_layer_values(tracer, TINY.grid.refine_factor, 0.0)
    return tracer, values, reports


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_and_tracing_is_fully_removed(workload):
    tracer, first, reports = _traced_pass(workload)
    _, second, _ = _traced_pass(workload)
    assert {k: first[k] for k in metrics.EXACT_COUNTS} == {
        k: second[k] for k in metrics.EXACT_COUNTS
    }
    assert set(first) == {name for name, _, _ in metrics.PER_LAYER}
    assert all(r.passed for r in reports)

    # every binding the traced run replaced holds the original function again
    for _, owner, attr, fn in public_functions():
        assert getattr(owner, attr) is fn
    for name, module in sys.modules.items():
        if name.split(".")[0] == "rieszlab":
            for attr, value in vars(module).items():
                assert not getattr(value, "__perfbench_traced__", False), f"{name}.{attr}"
    spans = len(tracer)
    for check in build_plan(workload, 3, TINY):
        check.run()
    assert len(tracer) == spans  # an untraced run records nothing


def test_traced_counts_follow_the_workload():
    _, hardy, _ = _traced_pass("hardy")
    # one ring each of g and h per circle norm; Calderon norms use no rings
    assert 1.5 < hardy["quadrature.rings_per_norm"] <= 2.0
    assert hardy["gridlab.points_scanned"] == 0
    _, bergman, _ = _traced_pass("bergman")
    assert bergman["quadrature.rings_per_norm"] > 64  # 64 radii x (g, h) per disk norm
    _, pointwise, _ = _traced_pass("pointwise")
    assert pointwise["maps.boundary_values.calls"] == 0
    # stage times are read from the battery spans of the stages a workload calls
    assert pointwise["battery.lemma_grid_reports.busy_s"] > 0.0
    assert hardy["battery.lemma_grid_reports.busy_s"] == 0.0
    assert pointwise["gridlab.points_scanned"] > 128 * TINY.grid.t_nodes
    assert pointwise["gridlab.circle_means"] == 16 * (2 * 2 + 2) + 6 * 16 * 6 * 4

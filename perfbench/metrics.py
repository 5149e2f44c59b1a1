"""Metric names, units and directions, and the per-layer values of a traced
pass.  BENCHMARK.json lists the same metrics; the self-tests keep the two in
step.
"""

from __future__ import annotations

import re

from tracing import RING, Tracer, layer_entries, span_table
from workloads import WORKLOADS, build_plan

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_ratio", "ratio", "higher"),
)

# every battery stage function some workload calls: the per-stage table
STAGES = tuple(
    dict.fromkeys(
        check.func
        for workload in WORKLOADS
        for check in build_plan(workload, 0)
        if check.module == "battery"
    )
)

# (span name, fields): the span fields reported per traced function
SPAN_FIELDS = (
    (RING, ("calls", "busy_s")),
    *(
        (f"quadrature.{fn}", ("calls", "busy_s", "self_s"))
        for fn in ("hardy_norm", "triple_norm", "bergman_norm", "bergman_triple_norm")
    ),
    *(
        (f"quadrature.{kind}_power_mean", ("calls", "busy_s"))
        for kind in ("disk", "pair_disk", "product_disk", "circle", "pair_circle", "product_circle")
    ),
    ("quadrature.calderon_norm", ("calls", "busy_s")),
    ("hilbert.conjugate_map", ("busy_s",)),
    ("hilbert.singular_hilbert_at", ("calls", "busy_s")),
    ("hilbert.line_lp_norm", ("calls", "busy_s")),
    ("theorems.verify_theorem", ("calls", "busy_s", "self_s")),
    ("theorems.isoperimetric_chain", ("busy_s",)),
    ("theorems.verify_pair_isoperimetric", ("busy_s",)),
    ("theorems.sharpness_probe", ("busy_s",)),
    ("gridlab.verify_pointwise", ("calls", "busy_s")),
    ("gridlab.locate_equality", ("busy_s",)),
    *(
        (f"gridlab.{fn}", ("calls", "busy_s"))
        for fn in ("check_submean", "check_pluri_lines", "origin_circle_mean")
    ),
    *(
        (f"constants.{fn}", ("calls", "busy_s"))
        for fn in ("minorant_value", "minorant_F", "minorant_G")
    ),
    *((f"battery.{stage}", ("busy_s",)) for stage in STAGES),
)

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}

PER_LAYER = (
    *(
        (f"{span}.{field}", UNITS[field], "lower")
        for span, fields in SPAN_FIELDS
        for field in fields
    ),
    (f"{RING}.points", "count", "lower"),
    (f"{RING}.bytes_computed", "B", "lower"),
    ("quadrature.rings_per_norm", "count", "lower"),
    ("theorems.samples_per_s", "1/s", "higher"),
    ("gridlab.points_scanned", "count", "lower"),
    ("gridlab.points_per_s", "1/s", "higher"),
    ("gridlab.circle_means", "count", "lower"),
    ("gridlab.circle_means_per_s", "1/s", "higher"),
    ("trace.overhead_s", "s", "lower"),
)

# count metrics that must repeat exactly across traced runs of one seed
EXACT_COUNTS = (
    f"{RING}.calls",
    f"{RING}.points",
    "gridlab.points_scanned",
    "gridlab.circle_means",
    "theorems.verify_theorem.calls",
)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0.0 else 0.0


def _points_scanned(report, refine_factor: int) -> int:
    """Grid nodes plus the refinement patch around the minimum."""
    grid = report.grid
    patch = 2 * refine_factor + 1
    if "r_nodes" in grid:
        return grid["r_nodes"] * grid["t_nodes"] + patch * patch
    if "t_nodes" in grid:
        return grid["t_nodes"] + patch
    return 1  # scalar tag: one evaluation


def _circle_means(report) -> int:
    grid = report.grid
    if "n_lines" in grid:
        return grid["n_lines"] * grid["centers"] * grid["radii"]
    return grid["centers"] * grid["radii"] + grid["radii"]  # plus the origin pass


def per_layer_values(tracer: Tracer, refine_factor: int, overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric of one traced pass (0 for layers the pass does
    not use)."""
    table = span_table(tracer)

    def span(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0)

    values = {
        f"{name}.{field}": span(name, field) for name, fields in SPAN_FIELDS for field in fields
    }
    values[f"{RING}.points"] = tracer.ring_points
    values[f"{RING}.bytes_computed"] = 16 * tracer.ring_points  # complex128 per node
    values["quadrature.rings_per_norm"] = _rate(
        span(RING, "calls"), layer_entries(tracer, "quadrature")
    )
    samples = sum(r.grid["samples"] for r in tracer.results["theorems.verify_theorem"])
    values["theorems.samples_per_s"] = _rate(samples, span("theorems.verify_theorem", "busy_s"))
    points = sum(
        _points_scanned(r, refine_factor) for r in tracer.results["gridlab.verify_pointwise"]
    )
    values["gridlab.points_scanned"] = points
    values["gridlab.points_per_s"] = _rate(points, span("gridlab.verify_pointwise", "busy_s"))
    means = sum(
        _circle_means(r)
        for name in ("gridlab.check_submean", "gridlab.check_pluri_lines")
        for r in tracer.results[name]
    )
    values["gridlab.circle_means"] = means
    values["gridlab.circle_means_per_s"] = _rate(
        means, span("gridlab.check_submean", "busy_s") + span("gridlab.check_pluri_lines", "busy_s")
    )
    values["trace.overhead_s"] = overhead_s
    return values

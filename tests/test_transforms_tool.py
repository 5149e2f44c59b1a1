"""tools/transforms.py counts the polynomial transforms of each suite stage,
and leaves the package as it found it."""

import importlib.util
from pathlib import Path

from rieszlab import battery, maps, quadrature

TOOL = Path(__file__).resolve().parents[1] / "tools" / "transforms.py"
SPEC = importlib.util.spec_from_file_location("transforms", TOOL)
transforms_tool = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(transforms_tool)


def test_each_stage_counts_its_transforms_and_the_wrappers_go():
    transform, stages = maps._boundary_rows, {n: getattr(battery, n) for n in battery.__all__}
    counts = {row["stage"]: row for row in transforms_tool.count_transforms()}
    assert list(counts) == [name for name in battery.__all__ if name != "full_suite"]
    # the normalized g and h of each of 200 maps, on the one circle rule of all six p
    conjugate = counts["conjugate_bound_reports"]
    assert (conjugate["circle_rows"], conjugate["disk_rows"]) == (400, 0)
    assert conjugate["points"] == 400 * 256
    # (a, b) and the normalized (g, h) of 100 maps, each on one disk and one
    # circle rule, and g = 1 + z, h = 0 of the closed-form instance
    iso = counts["isoperimetric_reports"]
    assert (iso["circle_rows"], iso["disk_rows"]) == (402, 402)
    assert counts["lemma_grid_reports"]["calls"] == 0
    assert maps._boundary_rows is quadrature._boundary_rows is transform
    assert {n: getattr(battery, n) for n in battery.__all__} == stages

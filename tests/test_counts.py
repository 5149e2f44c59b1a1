"""The one count rule: every count of every entry point (a sample, series,
grid, circle or line count, a degree, a seed) is checked by
reporting._check_integer, which raises ValueError with one of two messages,
before anything is computed."""

import re

import pytest

from rieszlab import battery, theorems
from rieszlab.constants import Minorant
from rieszlab.gridlab import check_pluri_lines, check_submean
from rieszlab.maps import calderon_taylor, random_coefficients
from rieszlab.quadrature import QuadratureSpec, auto_spec
from rieszlab.reporting import GridSpec
from rieszlab.theorems import TheoremId, theorem_sides, verify_theorem


def small(call, **sizes):
    """call with the counts sizes, each overridden by the keyword given."""
    return lambda **bad: call(**{**sizes, **bad})


DRAW = {"samples": 2, "degree": 2, "seed": 0}
# (entry point, its call taking the counts as keywords, {count: least value})
ENTRIES = [
    ("GridSpec", GridSpec, {"r_nodes": 16, "t_nodes": 16, "refine_factor": 2}),
    ("QuadratureSpec", QuadratureSpec, {"n_angle": 4, "n_radial": 1}),
    ("auto_spec", lambda degree: auto_spec(degree, 2.0), {"degree": 0}),
    ("calderon_taylor", lambda degree: calderon_taylor(0.3, degree), {"degree": 0}),
    (
        "random_coefficients",
        small(lambda degree, seed: random_coefficients(degree, [0, seed]), degree=2, seed=1),
        {"degree": 0, "seed": 0},
    ),
    (
        "verify_theorem",
        small(lambda **kw: verify_theorem(TheoremId.MIXED_BY_HARDY, 2.0, **kw), **DRAW),
        {"samples": 1, "degree": 0, "seed": 0},
    ),
    (
        "theorem_sides",
        lambda degree: theorem_sides(
            TheoremId.MIXED_BY_HARDY, (2.0,), degree, random_coefficients(2, [0])
        ),
        {"degree": 0},
    ),
    (
        "isoperimetric_sweep",
        small(
            lambda samples, chain_samples, degree, seed: theorems.isoperimetric_sweep(
                (1.0,), (2,), samples, chain_samples, degree, seed
            ),
            chain_samples=1,
            **DRAW,
        ),
        {"samples": 1, "chain_samples": 1, "degree": 0, "seed": 0},
    ),
    (
        "parseval_bridge_report",
        small(battery.parseval_bridge_report, **DRAW),
        {"samples": 1, "degree": 0, "seed": 0},
    ),
    ("hilbert_multiplier_report", battery.hilbert_multiplier_report, {"seed": 0}),
    (
        "hilbert_singular_report",
        small(battery.hilbert_singular_report, n_series=1),
        {"n_series": 1, "seed": 0},
    ),
    (
        "conjugate_bound_reports",
        small(battery.conjugate_bound_reports, **DRAW),
        {"samples": 1, "degree": 0, "seed": 0},
    ),
    (
        "submean_reports",
        small(battery.submean_reports, centers=1, radii=1),
        {"centers": 1, "radii": 1, "angles": 256, "seed": 0},
    ),
    (
        "pluri_line_reports",
        small(battery.pluri_line_reports, n_lines=16),
        {"n_lines": 16, "seed": 0},
    ),
    (
        "theorem_reports",
        small(battery.theorem_reports, **DRAW),
        {"samples": 1, "degree": 0, "seed": 0},
    ),
    (
        "isoperimetric_reports",
        small(battery.isoperimetric_reports, **DRAW),
        {"samples": 1, "degree": 0, "seed": 0},
    ),
    (
        "full_suite",
        small(battery.full_suite, grid=GridSpec(16, 16), **DRAW),
        {"seed": 0, "samples": 1, "degree": 0},
    ),
    (
        "check_submean",
        small(lambda **kw: check_submean(Minorant.PSI, 3.0, **kw), centers=1, radii=1),
        {"centers": 1, "radii": 1, "angles": 256, "seed": 0},
    ),
    (
        "check_pluri_lines",
        small(
            lambda **kw: check_pluri_lines(Minorant.G_PAIR, 3.0, **kw),
            n_lines=16,
            centers=1,
            radii=1,
        ),
        {"n_lines": 16, "seed": 0, "centers": 1, "radii": 1, "angles": 256},
    ),
]


def bad_counts():
    for entry, call, counts in ENTRIES:
        for name, least in counts.items():
            below = least - 1
            if name == "angles":
                # the two-grid estimate needs an even count, so angles keeps its rule
                bound = f"angles must be an even number >= 256, got {below}"
            else:
                bound = f"{name} must be >= {least}, got {below}"
            for kind, value, message in (
                ("bool", True, f"{name} must be an integer, got True"),
                ("float", least + 0.5, f"{name} must be an integer, got {least + 0.5!r}"),
                ("str", str(least), f"{name} must be an integer, got {str(least)!r}"),
                ("below", below, bound),
            ):
                yield pytest.param(call, name, value, message, id=f"{entry}-{name}-{kind}")


@pytest.mark.parametrize("call, name, value, message", bad_counts())
def test_every_bad_count_raises_one_of_the_two_messages(call, name, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(**{name: value})

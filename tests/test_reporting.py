"""The slack accumulator: the minimum, argmin and violation rules every
check's report follows."""

import math

from rieszlab.reporting import MAX_VIOLATIONS, SlackAccumulator


def test_tie_keeps_the_first_case():
    acc = SlackAccumulator()
    for label, slack in (("a", 0.5), ("b", 0.25), ("c", 0.25), ("d", 0.75)):
        acc.add((label,), slack)
    assert (acc.min_slack, acc.argmin) == (0.25, ("b",))
    assert acc.violations == []


def test_error_style_start_survives_all_zero_errors():
    # error-style checks report minus the largest error, starting from -0.0
    acc = SlackAccumulator(-0.0)
    for k in range(3):
        acc.add((k,), -0.0, 0.0 > 1e-12)
    report = acc.report(id="E", p=None)
    assert report.min_slack == 0.0 and math.copysign(1.0, report.min_slack) == -1.0
    assert report.argmin is None and report.passed
    assert "argmin" not in report.to_dict()


def test_seeded_start_label_stands_until_beaten():
    acc = SlackAccumulator(-0.0, ("cos",))
    acc.add((23,), -0.0, 0.0 > 0.0)
    assert (acc.min_slack, acc.argmin, acc.violations) == (-0.0, ("cos",), [])
    acc.add((24,), -1e-16, 1e-16 > 0.0)
    assert (acc.min_slack, acc.argmin) == (-1e-16, (24,))
    assert acc.violations == [((24,), -1e-16)]


def test_non_strict_predicate_flags_a_zero_slack():
    acc = SlackAccumulator()
    for label, gap in (("x", 0.5), ("y", 0.0)):
        acc.add((label,), gap, gap <= 0)
    assert acc.violations == [(("y",), 0.0)]
    assert acc.report(id="M", p=1.5).passed is False


def test_violations_are_capped_but_the_minimum_is_not():
    acc = SlackAccumulator()
    for k in range(MAX_VIOLATIONS + 50):
        acc.add((k,), -1.0 - k, True)
    assert MAX_VIOLATIONS == 100
    assert len(acc.violations) == MAX_VIOLATIONS
    assert acc.violations[-1] == ((MAX_VIOLATIONS - 1,), -float(MAX_VIOLATIONS))
    assert (acc.min_slack, acc.argmin) == (-1.0 - (MAX_VIOLATIONS + 49), (MAX_VIOLATIONS + 49,))
    acc.flag(("late",), -1.0)
    assert len(acc.violations) == MAX_VIOLATIONS


def test_flag_leaves_the_minimum_alone():
    acc = SlackAccumulator()
    acc.add((1.0, 0.0, 0.5), 0.25)
    acc.flag((0.0, 0.0, 0.5), -3.0)
    assert (acc.min_slack, acc.argmin) == (0.25, (1.0, 0.0, 0.5))
    report = acc.report(id="S", p=2.0, seed=7)
    assert report.violations == [((0.0, 0.0, 0.5), -3.0)]
    assert not report.passed and report.seed == 7 and report.elapsed_ms >= 0.0

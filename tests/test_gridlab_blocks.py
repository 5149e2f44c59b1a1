"""Pin tests for the blocked evaluation in gridlab: the column-block 2-D scan
and the circle blocks of the sub-mean checks must give exactly what the
one-row-block-at-a-time scan and the one-circle-at-a-time checks give.  The
references below are those per-case implementations, kept here only as
oracles; every comparison is `==`."""

import math

import numpy as np
import pytest

from rieszlab import gridlab
from rieszlab.battery import PLURI_P, SUBMEAN_P
from rieszlab.constants import Minorant, minorant_F, minorant_G
from rieszlab.gridlab import (
    SCAN_COLUMNS,
    InequalityId,
    _REGISTRY,
    _axis,
    _minorant_fn,
    _scan_1d,
    _scan_2d,
    check_pluri_lines,
    check_submean,
    default_p_values,
    origin_circle_mean,
)
from rieszlab.reporting import MAX_VIOLATIONS, SlackAccumulator

TWO_PI = 2.0 * math.pi
TWO_D_TAGS = [tag for tag in InequalityId if _REGISTRY[tag].arity == 2]
SEEDS = (0, 53, 1000)


# --------------------------- per-case references ---------------------------


def _ref_normalized(t1, t2, t3):
    return (t1 - t2 - t3) / (np.abs(t1) + np.abs(t2) + np.abs(t3))


def _ref_sum_sq(r, t):
    return 1.0 + r * r + 2.0 * r * np.cos(t)


def _ref_scan_2d(slack_fn, p, r_vals, t_vals, tol, chunk=64):
    """Row blocks of 64 r-nodes against the whole t row, in row-major order."""
    min_slack = math.inf
    argmin = (float(r_vals[0]), float(t_vals[0]))
    violations: list = []
    t_row = t_vals[None, :]
    for i0 in range(0, len(r_vals), chunk):
        r_col = r_vals[i0 : i0 + chunk, None]
        s = slack_fn(p, r_col, t_row)
        flat = int(np.argmin(s))
        i, j = np.unravel_index(flat, s.shape)
        if s[i, j] < min_slack:
            min_slack = float(s[i, j])
            argmin = (float(r_col[i, 0]), float(t_vals[j]))
        if len(violations) < MAX_VIOLATIONS:
            bad = np.argwhere(s < -tol)
            for bi, bj in bad[: MAX_VIOLATIONS - len(violations)]:
                violations.append(
                    ((float(r_col[bi, 0]), float(t_vals[bj])), float(s[bi, bj]))
                )
    return min_slack, argmin, violations


def _ref_circle_mean_with_estimate(fn, center, rho, angles):
    theta = np.arange(angles) * (TWO_PI / angles)
    vals = np.asarray(fn(center + rho * np.exp(1j * theta)), dtype=float)
    mean = float(np.mean(vals))
    half = float(np.mean(vals[::2]))
    return mean, abs(mean - half)


def _ref_check_submean(minorant_or_fn, p, centers, radii, angles, seed, tolerance=1e-9):
    acc = SlackAccumulator()
    if callable(minorant_or_fn):
        fn = minorant_or_fn
        tag = getattr(minorant_or_fn, "__name__", "custom")
        origin_reference = None
    else:
        mid = Minorant(minorant_or_fn)
        fn = _minorant_fn(mid, p)
        tag = mid.value
        origin_reference = lambda rho: origin_circle_mean(mid, p, rho)  # noqa: E731
    rng = np.random.default_rng(seed)

    def record(center, rho):
        mean, err = _ref_circle_mean_with_estimate(fn, center, rho, angles)
        deficit = mean - float(np.real(fn(np.asarray(center)))) + 2.0 * err
        acc.add((center.real, center.imag, rho), float(deficit), deficit < -tolerance)
        return mean, err

    for _ in range(centers):
        z0 = complex(2.0 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, TWO_PI)))
        for _ in range(radii):
            record(z0, abs(z0) * rng.uniform(1e-3, 1.0))
    for _ in range(radii):
        rho = 2.0 * rng.uniform(1e-3, 1.0)
        mean, err = record(0.0 + 0.0j, rho)
        if origin_reference is not None:
            ref = origin_reference(rho)
            allowance = 64.0 * max(1.0, abs(ref)) / angles**2 + 4.0 * err + 1e-10
            if abs(mean - ref) > allowance:
                acc.flag((0.0, 0.0, rho), float(mean - ref))
    return acc.report(
        id=tag,
        p=p,
        grid={"centers": centers, "radii": radii, "angles": angles},
        seed=seed,
        tolerance=tolerance,
    )


def _ref_check_pluri_lines(mid, p, n_lines, seed, centers, radii, angles, tolerance=1e-8):
    two_var = minorant_F if mid is Minorant.F_PAIR else minorant_G
    acc = SlackAccumulator()
    rng = np.random.default_rng(seed)
    for line in range(n_lines):
        z0, w0, w1, w2 = (
            complex(math.sqrt(rng.uniform()) * 1.25 * np.exp(1j * rng.uniform(0, TWO_PI)))
            for _ in range(4)
        )

        def restricted(tau):
            return two_var(z0 + tau * w1, w0 + tau * w2, p)

        for _ in range(centers):
            c = complex(math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, TWO_PI)))
            for _ in range(radii):
                rho = 0.75 * rng.uniform(1e-3, 1.0)
                mean, err = _ref_circle_mean_with_estimate(restricted, c, rho, angles)
                deficit = mean - float(np.real(restricted(np.asarray(c)))) + 2.0 * err
                acc.add((line, c.real, c.imag, rho), float(deficit), deficit < -tolerance)
    return acc.report(
        id=mid.value,
        p=p,
        grid={"n_lines": n_lines, "centers": centers, "radii": radii, "angles": angles},
        seed=seed,
        tolerance=tolerance,
    )


def _payload(report):
    d = report.to_dict()
    del d["elapsed_ms"]
    return d


# ------------------------------- 2-D scan pins -------------------------------


@pytest.mark.parametrize("r_nodes, t_nodes", [(97, 389), (200, 400)])
@pytest.mark.parametrize("tag", TWO_D_TAGS, ids=lambda tag: tag.value)
def test_column_scan_matches_row_scan_on_every_two_variable_tag(
    monkeypatch, tag, r_nodes, t_nodes
):
    # t_nodes is not a multiple of the block width, so the last block is short
    assert t_nodes % SCAN_COLUMNS
    info = _REGISTRY[tag]
    r_vals = _axis(*info.r_range, r_nodes, open_lo=True)
    t_vals = _axis(*info.t_range, t_nodes)
    for p in default_p_values(tag):
        # tol = -0.5 flags part of the grid and tol = -2 all of it, so the
        # violation order is pinned too
        tols = (1e-9, -0.5, -2.0)
        blocked = [_scan_2d(info.slack, p, r_vals, t_vals, tol) for tol in tols]
        with monkeypatch.context() as m:
            m.setattr(gridlab, "_normalized", _ref_normalized)
            m.setattr(gridlab, "_sum_sq", _ref_sum_sq)
            rows = [_ref_scan_2d(info.slack, p, r_vals, t_vals, tol) for tol in tols]
        assert blocked == rows, (tag, p)
        assert len(blocked[2][2]) == MAX_VIOLATIONS


def _full(r, t):
    return np.zeros(np.broadcast_shapes(np.shape(r), np.shape(t)))


def test_column_scan_constant_slack_argmin_is_first_node():
    r_vals, t_vals = np.linspace(0.1, 1.0, 70), np.linspace(-1.0, 1.0, 3 * SCAN_COLUMNS + 5)
    for value in (0.0, -1.0):
        def slack(p, r, t):
            return _full(r, t) + value

        blocked = _scan_2d(slack, 2.0, r_vals, t_vals, 1e-9)
        assert blocked == _ref_scan_2d(slack, 2.0, r_vals, t_vals, 1e-9)
        assert blocked[0] == value
        assert blocked[1] == (float(r_vals[0]), float(t_vals[0]))


def test_column_scan_keeps_first_violations_in_row_major_order():
    # violations in every block, more than MAX_VIOLATIONS in all, and a minimum
    # tied across blocks: the first 100 in row-major order must be kept
    r_vals, t_vals = np.linspace(0.1, 1.0, 50), np.linspace(-1.0, 1.0, 4 * SCAN_COLUMNS + 7)

    def slack(p, r, t):
        s = np.cos(7.0 * t + 3.0 * r) + _full(r, t)
        return np.where(s < -0.98, -1.0, s)

    blocked = _scan_2d(slack, 2.0, r_vals, t_vals, 0.5)
    assert blocked == _ref_scan_2d(slack, 2.0, r_vals, t_vals, 0.5)
    assert len(blocked[2]) == MAX_VIOLATIONS
    s = slack(2.0, r_vals[:, None], t_vals[None, :])
    assert np.count_nonzero(s < -0.5) > MAX_VIOLATIONS
    cols = {t for (_, t), _ in blocked[2]}
    assert len({int(np.searchsorted(t_vals, t)) // SCAN_COLUMNS for t in cols}) > 1


# -------------------------- non-finite slack checks --------------------------


def test_scan_2d_nan_node_does_not_hide_its_block():
    r_vals, t_vals = np.linspace(0.1, 1.0, 40), np.linspace(-1.0, 1.0, 2 * SCAN_COLUMNS + 3)

    def slack(p, r, t):
        return np.where((r == r_vals[0]) & (t == t_vals[5]), np.nan, _full(r, t) - 1.0)

    min_slack, argmin, violations = _scan_2d(slack, 2.0, r_vals, t_vals, 1e-9)
    assert min_slack == -1.0
    assert argmin == (float(r_vals[0]), float(t_vals[0]))
    assert len(violations) == MAX_VIOLATIONS  # FAIL
    label, s = violations[5]
    assert label == (float(r_vals[0]), float(t_vals[5])) and math.isnan(s)


def test_all_nan_slack_fails():
    r_vals, t_vals = np.linspace(0.1, 1.0, 40), np.linspace(-1.0, 1.0, 2 * SCAN_COLUMNS + 3)

    def slack(p, r, t):
        return _full(r, t) + np.nan

    min_slack, argmin, violations = _scan_2d(slack, 2.0, r_vals, t_vals, 1e-9)
    assert min_slack == math.inf
    assert argmin == (float(r_vals[0]), float(t_vals[0]))
    assert len(violations) == MAX_VIOLATIONS  # FAIL
    assert violations[1][0] == (float(r_vals[0]), float(t_vals[1]))

    _, _, violations_1d = _scan_1d(lambda p, x: x + np.nan, 2.0, t_vals, 1e-9)
    assert len(violations_1d) == len(t_vals)


def test_infinite_slack_is_a_violation():
    r_vals, t_vals = np.linspace(0.1, 1.0, 40), np.linspace(-1.0, 1.0, 2 * SCAN_COLUMNS + 3)

    def slack(p, r, t):
        at = (r == r_vals[7]) & (t == t_vals[SCAN_COLUMNS + 1])
        return np.where(at, np.inf, _full(r, t) + 1.0)

    min_slack, _, violations = _scan_2d(slack, 2.0, r_vals, t_vals, 1e-9)
    assert min_slack == 1.0
    assert violations == [((float(r_vals[7]), float(t_vals[SCAN_COLUMNS + 1])), math.inf)]


def test_nan_deficits_fail_the_circle_checks(monkeypatch):
    report = check_submean(lambda z: np.full(z.shape, np.nan), 2.0, centers=4, radii=2, angles=256)
    assert not report.passed
    assert len(report.violations) == 4 * 2 + 2

    monkeypatch.setattr(gridlab, "minorant_G", lambda z, w, p: np.full(np.shape(z), np.nan))
    report = check_pluri_lines(Minorant.G_PAIR, 3.0, n_lines=16, centers=1, radii=1, angles=256)
    assert not report.passed
    assert len(report.violations) == 16


# ------------------------------ circle pins ------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_blocked_submean_matches_per_circle_reference(seed):
    # 20 centers x 4 radii + 4 origin circles: two blocks, the second short
    for mid, ps in SUBMEAN_P.items():
        for p in ps:
            blocked = check_submean(mid, p, centers=20, radii=4, angles=256, seed=seed)
            reference = _ref_check_submean(mid, p, 20, 4, 256, seed)
            assert _payload(blocked) == _payload(reference), (mid, p, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_blocked_pluri_lines_match_per_circle_reference(seed):
    # 16 lines x 2 centers x 3 radii = 96 circles: blocks span several lines
    for mid, ps in PLURI_P.items():
        for p in ps:
            blocked = check_pluri_lines(mid, p, 16, seed, centers=2, radii=3, angles=256)
            reference = _ref_check_pluri_lines(mid, p, 16, seed, 2, 3, 256)
            assert _payload(blocked) == _payload(reference), (mid, p, seed)


def test_blocked_submean_matches_reference_for_custom_callables():
    def subharmonic(z):
        return np.abs(z) ** 1.5

    def superharmonic(z):
        return -np.abs(z) ** 2

    for fn in (subharmonic, superharmonic):
        for seed in SEEDS:
            blocked = check_submean(fn, 2.0, centers=40, radii=4, angles=512, seed=seed)
            assert _payload(blocked) == _payload(_ref_check_submean(fn, 2.0, 40, 4, 512, seed))
    assert len(blocked.violations) == MAX_VIOLATIONS  # the superharmonic one exceeds the cap

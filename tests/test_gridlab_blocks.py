"""Pin tests for the blocked evaluation in gridlab.  The form table and its
buffered (t, r) block scan must give the same bits as the six slack functions
and the (r, t) column-block scan kept in legacy_reference, lemma_grid_reports
must give what one verify_pointwise call per case gives, and the circle
blocks of the sub-mean checks must give exactly what the one-circle-at-a-time
checks give, and so must a sweep of every battery case, with one draw and one
block map per stage.  The one scan-and-refine path and the one zoom must give the
reports and minimizers of the branch per arity kept in legacy_reference, and
the one deficit core the violation order of the loop per circle.  The
one-cosine RE_BRANCH angle profile must give the bits of the three-cosine
form, and the minorants read from the profile table the bits of the formulas
written out per minorant.  A scan shared between workers
must give the bits of the one-thread legacy scan whichever worker takes which
block, and leave no thread running; so must the circle blocks of the sub-mean
and complex-line checks, against their one-worker reports.  Each cell's
floor must lie at or below the cell's evaluated minimum, and be -inf where
a node or a term is not finite; a rectangle over part of the r row must give
the bits of its whole rows; and a scan that skips the cells whose floor is
above its probe's minimum must give the bits of the scan of every cell, a
failing scan and NaN nodes included.  The per-case references below are kept here
only as oracles."""

import dataclasses
import json
import math
import os
import sys
import threading

import numpy as np
import pytest

import legacy_reference as legacy
from rieszlab import battery, gridlab, maps
from rieszlab.battery import PLURI_P, SUBMEAN_P, lemma_grid_reports
from rieszlab.constants import (
    Minorant,
    minorant_F,
    minorant_G,
    minorant_value,
    re_branch_angle,
    theta_lower,
)
from rieszlab.gridlab import (
    R_CHUNK,
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
    equality_loci,
    locate_equality,
    origin_circle_mean,
    scan_ranges,
    verify_pointwise,
)
from rieszlab.reporting import MAX_VIOLATIONS, GridSpec, SlackAccumulator
from test_draw_blocks import _per_radius_submean

TWO_PI = 2.0 * math.pi
TWO_D_TAGS = [tag for tag in InequalityId if scan_ranges(tag)[0] is not None]
SEEDS = (0, 53, 1000)


def _bits(obj):
    """obj with every float replaced by its bit pattern, so that == compares
    bits: -0.0 differs from 0.0, and a NaN equals the same NaN."""
    if isinstance(obj, float):
        return int(np.float64(obj).view(np.uint64))
    if isinstance(obj, (list, tuple)):
        return type(obj)(_bits(x) for x in obj)
    if isinstance(obj, dict):
        return {key: _bits(value) for key, value in obj.items()}
    return obj


def _array_bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


# --------------------------- per-case references ---------------------------


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


@pytest.mark.parametrize("tag", TWO_D_TAGS, ids=lambda tag: tag.value)
def test_registry_slacks_match_legacy_functions_bitwise(tag):
    rng = np.random.default_rng(7)
    r, t = rng.uniform(0.0, 1.5, 2000), rng.uniform(-7.0, 7.0, 2000)
    slack, old = _REGISTRY[tag].slack, legacy.SLACKS[tag]
    for p in default_p_values(tag):
        for args in ((r, t), (r[:60, None], t[None, :70]), (r[:1], t[:50])):
            assert np.array_equal(_array_bits(slack(p, *args)), _array_bits(old(p, *args))), p
        # 0-d arrays and Python floats go through scalar arithmetic, as before
        for k in range(40):
            for args in ((np.asarray(r[k]), np.asarray(t[k])), (float(r[k]), float(t[k]))):
                new_value, old_value = slack(p, *args), old(p, *args)
                assert type(new_value) is type(old_value)
                assert _bits(float(new_value)) == _bits(float(old_value)), (p, args)


@pytest.mark.parametrize("r_nodes, t_nodes", [(97, 389), (200, 400)])
@pytest.mark.parametrize("tag", TWO_D_TAGS, ids=lambda tag: tag.value)
def test_column_scan_matches_row_scan_on_every_two_variable_tag(tag, r_nodes, t_nodes):
    # 389 t-nodes leave a short last block; 400 fill whole blocks of 16
    info = _REGISTRY[tag]
    r_vals = _axis(*info.r_range, r_nodes, open_lo=True)
    t_vals = _axis(*info.t_range, t_nodes)
    for p in default_p_values(tag):
        # tol = -0.5 flags part of the grid and tol = -2 all of it, so the
        # violation order is pinned too
        for tol in (1e-9, -0.5, -2.0):
            blocked = _scan_2d(info.slack, p, r_vals, t_vals, tol)
            old = legacy._scan_2d(legacy.SLACKS[tag], p, r_vals, t_vals, tol)
            assert _bits(blocked) == _bits(old), (tag, p, tol)
            assert blocked == _ref_scan_2d(legacy.SLACKS[tag], p, r_vals, t_vals, tol)
        assert len(blocked[2]) == MAX_VIOLATIONS


@pytest.mark.parametrize("tag", TWO_D_TAGS, ids=lambda tag: tag.value)
def test_scan_with_range_overrides_matches_legacy(tag):
    # ranges beyond the default domain: r > 1 and |t| > 2 pi
    r_vals, t_vals = _axis(0.2, 1.3, 97), _axis(-7.0, 7.0, 389)
    info = _REGISTRY[tag]
    for p in default_p_values(tag):
        for tol in (1e-9, -0.5, -2.0):
            blocked = _scan_2d(info.slack, p, r_vals, t_vals, tol)
            old = legacy._scan_2d(legacy.SLACKS[tag], p, r_vals, t_vals, tol)
            assert _bits(blocked) == _bits(old), (tag, p, tol)


def test_lemma_grid_scans_each_distinct_case_once(monkeypatch):
    grid = GridSpec(r_nodes=40, t_nodes=90)
    calls = []

    def counted(tag, p, grid=None):
        calls.append((tag, p))
        return verify_pointwise(tag, p, grid)

    monkeypatch.setattr(battery, "verify_pointwise", counted)
    reports = lemma_grid_reports(grid)
    cases = [(tag, p) for tag in InequalityId for p in default_p_values(tag)]
    assert len(reports) == len(cases) == 128
    # SUM_BY_MIXED_RADIAL repeats SUM_BY_MIXED_HIGH's slack, exponents and ranges
    assert len(calls) == 120
    assert all(tag is not InequalityId.SUM_BY_MIXED_RADIAL for tag, _ in calls)
    for report, (tag, p) in zip(reports, cases):
        assert _bits(_payload(report)) == _bits(_payload(verify_pointwise(tag, p, grid)))
    # the copy shares no mutable field with the report it repeats
    by_id = {(report.id, report.p): report for report in reports}
    p = default_p_values(InequalityId.SUM_BY_MIXED_HIGH)[0]
    high, radial = by_id["SUM_BY_MIXED_HIGH", p], by_id["SUM_BY_MIXED_RADIAL", p]
    assert high.grid is not radial.grid and high.violations is not radial.violations


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


def test_column_scan_keeps_the_sign_of_the_first_zero():
    # +0.0 and -0.0 tie in one block column; the first zero in row-major order
    # sets the minimum, whichever zero a per-r reduction returns
    r_vals, t_vals = np.linspace(0.1, 1.0, 30), np.linspace(-1.0, 1.0, 2 * SCAN_COLUMNS + 3)
    for first, later in ((0.0, -0.0), (-0.0, 0.0)):
        def slack(p, r, t):
            s = np.where((r == r_vals[3]) & (t == t_vals[2]), first, _full(r, t) + 1.0)
            return np.where((r == r_vals[3]) & (t == t_vals[5]), later, s)

        blocked = _scan_2d(slack, 2.0, r_vals, t_vals, 1e-9)
        assert _bits(blocked) == _bits(legacy._scan_2d(slack, 2.0, r_vals, t_vals, 1e-9))
        assert blocked[1] == (float(r_vals[3]), float(t_vals[2]))
        assert _bits(blocked[0]) == _bits(first)


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


# ------------------------- one scan-and-refine path -------------------------

# the tag's domain, and float and int domains put in its registry row (for
# the axes it has); the int t_range puts a node at t = 0, where the gap
# slacks are not finite
RANGE_OVERRIDES = {
    "default": {},
    "float": {"r_range": (0.25, 0.75), "t_range": (-1.5, 2.5)},
    "int": {"r_range": (0, 1), "t_range": (-3, 3)},
}


@pytest.mark.parametrize("ranges", RANGE_OVERRIDES)
@pytest.mark.parametrize("tag", list(InequalityId), ids=lambda tag: tag.value)
def test_one_scan_path_gives_the_reports_of_a_branch_per_arity(monkeypatch, tag, ranges):
    grid = GridSpec(r_nodes=97, t_nodes=389)
    info = _REGISTRY[tag]
    axes = {axis: bounds for axis, bounds in RANGE_OVERRIDES[ranges].items() if getattr(info, axis)}
    monkeypatch.setitem(_REGISTRY, tag, dataclasses.replace(info, **axes))
    with np.errstate(all="ignore"):
        for p in default_p_values(tag):
            new = _payload(verify_pointwise(tag, p, grid))
            old = _payload(legacy.verify_pointwise(tag, p, grid))
            # every range end is a float, an int domain's included; the
            # branch per arity reported an int t_range's ends as given
            ends = [end for key in ("r_range", "t_range") for end in new["grid"].get(key, ())]
            assert all(type(end) is float for end in ends), (p, ends)
            if "t_range" in old["grid"]:
                old["grid"]["t_range"] = [float(end) for end in old["grid"]["t_range"]]
            assert json.dumps(new) == json.dumps(old), p


@pytest.mark.parametrize("tag", list(InequalityId), ids=lambda tag: tag.value)
def test_one_zoom_gives_the_minimizers_of_a_branch_per_arity(tag):
    # the default exponents and the seven midpoints between them: 240 cases
    ps = default_p_values(tag)
    for p in ps + tuple(0.5 * (a + b) for a, b in zip(ps, ps[1:])):
        assert _bits(locate_equality(tag, p)) == _bits(legacy.locate_equality(tag, p)), p


def test_one_variable_scan_is_the_one_column_fold():
    x = np.linspace(-1.0, 1.0, 3 * MAX_VIOLATIONS + 1)
    slacks = [
        lambda p, x: np.where(x < -0.5, np.nan, x * x - 0.25),  # NaN before the minimum
        lambda p, x: np.where(x < 0.0, 1.0, np.where(x < 0.5, -0.0, 0.0)),  # signed zeros
        lambda p, x: np.where(x < 0.0, 0.0, np.where(x < 0.5, -0.0, 1.0)),
        lambda p, x: np.where(x == x[3], np.inf, np.cos(9.0 * x)),
        lambda p, x: x + np.nan,
        lambda p, x: x + np.inf,
    ]
    for slack in slacks:
        for tol in (1e-9, 0.5, -2.0):
            new, old = _scan_1d(slack, 2.0, x, tol), legacy._scan_1d(slack, 2.0, x, tol)
            assert _bits(new) == _bits(old), tol


def test_origin_flag_follows_its_circles_deficit(monkeypatch):
    # -|z|^2 is superharmonic, so every deficit is a violation, and an origin
    # mean with a wrong unit flags every origin circle as well; the check
    # evaluates a minorant through _polar_product, the reference through
    # minorant_value
    monkeypatch.setattr(gridlab, "minorant_value", lambda mid, z, p: -np.abs(z) ** 2)
    monkeypatch.setattr(gridlab, "_polar_product", lambda theta, modulus, profile, p: -modulus**2)
    monkeypatch.setattr(gridlab, "origin_circle_mean", lambda mid, p, rho: 5.0 * rho ** (0.5 * p))
    kwargs = {"centers": 3, "radii": 4, "angles": 256, "seed": 11}
    report = check_submean(Minorant.RE_BRANCH, 1.5, **kwargs)
    origin = [label for label, _ in report.violations[3 * 4 :]]
    # each origin circle's deficit, then its origin flag, circle by circle
    assert len(origin) == 2 * 4 and origin[::2] == origin[1::2]
    assert all(label[:2] == (0.0, 0.0) for label in origin)
    ref = _per_radius_submean(Minorant.RE_BRANCH, 1.5, gridlab.origin_circle_mean, **kwargs)
    assert _bits(_payload(report)) == _bits(_payload(ref))


# ----------------------------- workers of a scan -----------------------------

WORKERS = (1, 2, 4)


def _spread(slack, workers):
    """slack, and the t-values of the blocks each thread evaluated.  Each
    thread's first block waits until `workers` threads hold one, so the first
    `workers` blocks go to distinct workers."""
    barrier = threading.Barrier(workers, timeout=10)
    taken: dict = {}
    lock = threading.Lock()

    def spread(p, r, t):
        with lock:
            first = threading.get_ident() not in taken
            taken.setdefault(threading.get_ident(), []).append(float(np.ravel(t)[0]))
        if first:
            barrier.wait()
        return slack(p, r, t)

    return spread, taken


def _owners(taken, t_vals):
    """The worker (0, 1, ...) that evaluated each block, by block index."""
    owner = {}
    for k, firsts in enumerate(taken.values()):
        for t0 in firsts:
            owner[int(np.searchsorted(t_vals, t0)) // SCAN_COLUMNS] = k
    return [owner[b] for b in sorted(owner)]


def _split_matches_legacy(monkeypatch, slack, r_vals, t_vals, tol, workers):
    """Scan with `workers` workers, check the bits against the legacy scan
    and return the owner of each block."""
    blocks = -(-len(t_vals) // SCAN_COLUMNS)
    monkeypatch.setattr(maps, "_usable_cpus", lambda: workers)
    spread, taken = _spread(slack, min(workers, blocks))
    split = _scan_2d(spread, 2.0, r_vals, t_vals, tol)
    assert _bits(split) == _bits(legacy._scan_2d(slack, 2.0, r_vals, t_vals, tol)), workers
    owners = _owners(taken, t_vals)
    assert len(owners) == blocks and len(set(owners)) == min(workers, blocks)
    return split, owners


def _at(r, t, r_val, t_val):
    return (r == r_val) & (t == t_val)


@pytest.mark.parametrize("workers", WORKERS)
def test_split_scan_keeps_non_finite_nodes_of_every_worker(monkeypatch, workers):
    # NaN, +inf, -inf and NaN in the first four blocks, which go to distinct workers
    r_vals, t_vals = np.linspace(0.1, 1.0, 40), np.linspace(-1.0, 1.0, 4 * SCAN_COLUMNS + 5)
    nodes = [(3, 2, np.nan), (5, SCAN_COLUMNS + 3, np.inf), (1, 2 * SCAN_COLUMNS + 7, -np.inf)]
    nodes.append((0, 3 * SCAN_COLUMNS, np.nan))

    def slack(p, r, t):
        s = _full(r, t) + 1.0
        for i, j, value in nodes:
            s = np.where(_at(r, t, r_vals[i], t_vals[j]), value, s)
        return s

    (min_slack, argmin, violations), owners = _split_matches_legacy(
        monkeypatch, slack, r_vals, t_vals, 1e-9, workers
    )
    assert len(set(owners[:4])) == min(workers, 4)
    assert min_slack == -math.inf and argmin == (float(r_vals[1]), float(t_vals[2 * SCAN_COLUMNS + 7]))
    assert [label for label, _ in violations] == [
        (float(r_vals[i]), float(t_vals[j])) for i, j, _ in sorted(nodes)
    ]


@pytest.mark.parametrize("workers", WORKERS)
def test_split_scan_keeps_the_first_violations_across_workers(monkeypatch, workers):
    # violations all over the grid, and in about half the rows of blocks 0
    # and 1, which go to distinct workers, so that those come first
    r_vals, t_vals = np.linspace(0.1, 1.0, 50), np.linspace(-1.0, 1.0, 6 * SCAN_COLUMNS + 7)

    def slack(p, r, t):
        s = np.cos(7.0 * t + 3.0 * r) + _full(r, t)
        s = np.where((t <= t_vals[SCAN_COLUMNS + 4]) & (np.cos(40.0 * r) < 0.0), -0.75, s)
        return np.where(s < -0.98, -1.0, s)

    (_, _, violations), owners = _split_matches_legacy(
        monkeypatch, slack, r_vals, t_vals, 0.5, workers
    )
    assert len(violations) == MAX_VIOLATIONS
    assert np.count_nonzero(slack(2.0, r_vals[:, None], t_vals[None, :]) < -0.5) > MAX_VIOLATIONS
    kept = {owners[int(np.searchsorted(t_vals, t)) // SCAN_COLUMNS] for (_, t), _ in violations}
    assert (len(kept) > 1) == (workers > 1)  # the kept ones come from several workers


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("early, late", [(-2.0, -2.0), (0.0, -0.0), (-0.0, 0.0)])
def test_split_scan_tie_goes_to_the_first_node_in_row_major_order(monkeypatch, workers, early, late):
    # the tied minimum sits in row 4 of block 1 and in row 7 of block 0, which
    # different workers take: row 4 comes first in row-major order
    r_vals, t_vals = np.linspace(0.1, 1.0, 30), np.linspace(-1.0, 1.0, 2 * SCAN_COLUMNS + 3)
    first, second = (4, SCAN_COLUMNS + 1), (7, 2)

    def slack(p, r, t):
        s = np.where(_at(r, t, r_vals[first[0]], t_vals[first[1]]), early, _full(r, t) + 1.0)
        return np.where(_at(r, t, r_vals[second[0]], t_vals[second[1]]), late, s)

    (min_slack, argmin, _), owners = _split_matches_legacy(
        monkeypatch, slack, r_vals, t_vals, 1e-9, workers
    )
    assert (owners[0] != owners[1]) == (workers > 1)
    assert argmin == (float(r_vals[first[0]]), float(t_vals[first[1]]))
    assert _bits(min_slack) == _bits(early)


@pytest.mark.parametrize("workers", WORKERS)
def test_grid_narrower_than_one_block_runs_on_the_calling_thread(monkeypatch, workers):
    r_vals, t_vals = np.linspace(0.1, 1.0, 30), np.linspace(-1.0, 1.0, SCAN_COLUMNS - 3)

    def slack(p, r, t):
        return np.where(_at(r, t, r_vals[2], t_vals[5]), -1.0, np.sin(3.0 * r + t))

    _, owners = _split_matches_legacy(monkeypatch, slack, r_vals, t_vals, 1e-9, workers)
    assert owners == [0]
    for tag in TWO_D_TAGS:
        info = _REGISTRY[tag]
        p = default_p_values(tag)[-1]
        assert _bits(_scan_2d(info.slack, p, r_vals, t_vals, 1e-9)) == _bits(
            legacy._scan_2d(legacy.SLACKS[tag], p, r_vals, t_vals, 1e-9)
        )


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("tag", TWO_D_TAGS, ids=lambda tag: tag.value)
def test_split_form_scan_matches_legacy(monkeypatch, tag, workers):
    monkeypatch.setattr(maps, "_usable_cpus", lambda: workers)
    info = _REGISTRY[tag]
    r_vals = _axis(*info.r_range, 97, open_lo=True)
    t_vals = _axis(*info.t_range, 389)
    for p in default_p_values(tag)[::3]:
        for tol in (1e-9, -0.5):
            split = _scan_2d(info.slack, p, r_vals, t_vals, tol)
            old = legacy._scan_2d(legacy.SLACKS[tag], p, r_vals, t_vals, tol)
            assert _bits(split) == _bits(old), (tag, p, tol)


def test_split_scan_hands_out_every_block_once_under_stress(monkeypatch):
    # more workers than cores and a switch interval of a microsecond: a block
    # start handed out twice or lost would change the partials
    monkeypatch.setattr(maps, "_usable_cpus", lambda: 8)
    r_vals, t_vals = np.linspace(0.1, 1.0, 7), np.linspace(-3.0, 3.0, 200 * SCAN_COLUMNS + 1)
    starts = []

    def slack(p, r, t):
        starts.append(float(np.ravel(t)[0]))
        return np.where(np.sin(5.0 * t + r) < -0.9, -1.0, np.sin(5.0 * t + r))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            starts.clear()
            split = _scan_2d(slack, 2.0, r_vals, t_vals, 1e-9)
            assert sorted(starts) == t_vals[::SCAN_COLUMNS].tolist()
            assert _bits(split) == _bits(legacy._scan_2d(slack, 2.0, r_vals, t_vals, 1e-9))
    finally:
        sys.setswitchinterval(interval)


def test_worker_count_is_the_usable_cpus(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert maps._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert maps._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert maps._usable_cpus() == 1


def test_no_thread_outlives_a_scan(monkeypatch):
    baseline = threading.active_count()
    info = _REGISTRY[InequalityId.MIXED_BY_SUM_MID]
    r_vals, t_vals = _axis(*info.r_range, 60, open_lo=True), _axis(*info.t_range, 8 * SCAN_COLUMNS)
    # with one CPU every block runs on the calling thread, and no helper starts
    monkeypatch.setattr(maps, "_usable_cpus", lambda: 1)
    seen = set()

    def counted(p, r, t):
        seen.add((threading.get_ident(), threading.active_count()))
        return info.slack(p, r, t)

    _scan_2d(counted, 3.0, r_vals, t_vals, 1e-9)
    assert seen == {(threading.get_ident(), baseline)}

    monkeypatch.setattr(maps, "_usable_cpus", lambda: 2)
    _scan_2d(info.slack, 3.0, r_vals, t_vals, 1e-9)
    assert threading.active_count() == baseline

    # a slack that raises in the helper, or on the calling thread, while the
    # other worker holds a block: the exception reaches the caller, and the
    # helper is joined before it does
    caller = threading.get_ident()
    for raising_on_helper in (True, False):
        def slack(p, r, t):
            if (threading.get_ident() != caller) == raising_on_helper:
                raise RuntimeError("slack failed")
            return np.sin(r + t)

        spread, taken = _spread(slack, 2)
        with pytest.raises(RuntimeError, match="slack failed"):
            _scan_2d(spread, 2.0, r_vals, t_vals, 1e-9)
        assert len(taken) == 2
        assert threading.active_count() == baseline


# ------------------------- workers of the circle checks -------------------------

# 20 centers x 4 radii + 4 origin circles, and 16 lines x 2 centers x 3 radii:
# at least three blocks for every worker count below
SUBMEAN_CASE = dict(centers=20, radii=4, angles=256, seed=53)
PLURI_CASE = dict(n_lines=16, seed=67, centers=2, radii=3, angles=256)


def _spread_blocks(fn, workers):
    """fn, and the threads that evaluated a block (a 2-D array: circles, or
    the radii of a disk row) with it.  Each thread's first block waits until
    `workers` threads hold one, as in _spread, so the first `workers` blocks
    go to distinct workers.  Center values are 0-d calls and pass straight
    through."""
    barrier = threading.Barrier(workers, timeout=10)
    taken: set = set()
    lock = threading.Lock()

    def spread(*args):
        if np.ndim(args[0]) == 2:
            with lock:
                first = threading.get_ident() not in taken
                taken.add(threading.get_ident())
            if first:
                barrier.wait()
        return fn(*args)

    return spread, taken


def _split_circle_payloads(monkeypatch, workers):
    """The sub-mean and complex-line payloads of every battery case, with the
    blocks spread over `workers` workers; and the threads that took blocks."""
    monkeypatch.setattr(maps, "_usable_cpus", lambda: workers)
    payloads, threads = [], set()
    checks = [(check_submean, SUBMEAN_P, SUBMEAN_CASE), (check_pluri_lines, PLURI_P, PLURI_CASE)]
    for check, cases, sizes in checks:
        for mid, ps in cases.items():
            for p in ps:
                # the checks evaluate every minorant block through _polar_product
                spread, taken = _spread_blocks(gridlab._polar_product, workers)
                with monkeypatch.context() as patch:
                    patch.setattr(gridlab, "_polar_product", spread)
                    payloads.append(_payload(check(mid, p, **sizes)))
                assert len(taken) == workers, (mid, p)
                threads |= taken
    return payloads, threads


@pytest.mark.parametrize("workers", WORKERS)
def test_split_circle_checks_match_one_worker(monkeypatch, workers):
    baseline = threading.active_count()
    monkeypatch.setattr(maps, "_usable_cpus", lambda: 1)
    one, _ = _split_circle_payloads(monkeypatch, 1)
    # the per-circle deficit arithmetic of the one-worker checks
    per_radius = [
        _payload(_per_radius_submean(mid, p, origin_circle_mean, **SUBMEAN_CASE))
        for mid, ps in SUBMEAN_P.items()
        for p in ps
    ]
    assert _bits(one[: len(per_radius)]) == _bits(per_radius)

    split, threads = _split_circle_payloads(monkeypatch, workers)
    assert _bits(split) == _bits(one), workers
    assert (threading.get_ident() in threads) and len(threads) >= workers
    assert threading.active_count() == baseline


def test_circle_check_exception_reaches_the_caller(monkeypatch):
    # a custom callable that raises in the helper's block, or on the calling
    # thread while the helper holds a block: the exception reaches the
    # caller, and the helper is joined before it does
    monkeypatch.setattr(maps, "_usable_cpus", lambda: 2)
    baseline = threading.active_count()
    caller = threading.get_ident()
    for raising_on_helper in (True, False):
        def fn(z):
            if np.ndim(z) == 2 and (threading.get_ident() != caller) == raising_on_helper:
                raise RuntimeError("minorant failed")
            return np.abs(z) ** 1.5

        spread, taken = _spread_blocks(fn, 2)
        with pytest.raises(RuntimeError, match="minorant failed"):
            check_submean(spread, 2.0, **SUBMEAN_CASE)
        assert len(taken) == 2
        assert threading.active_count() == baseline


def test_callers_errstate_reaches_the_circle_helpers(monkeypatch):
    # a custom callable that overflows only in the helper's blocks: under the
    # caller's np.errstate(all="raise") the helper raises FloatingPointError,
    # and under all="ignore" the check runs to the end
    monkeypatch.setattr(maps, "_usable_cpus", lambda: 2)
    baseline = threading.active_count()
    caller = threading.get_ident()

    def fn(z):
        if np.ndim(z) == 2 and threading.get_ident() != caller:
            return np.exp(1e3 * np.abs(z))
        return np.abs(z) ** 1.5

    spread, taken = _spread_blocks(fn, 2)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError, match="overflow"):
        check_submean(spread, 2.0, **SUBMEAN_CASE)
    assert len(taken) == 2
    assert threading.active_count() == baseline
    spread, taken = _spread_blocks(fn, 2)
    with np.errstate(all="ignore"):
        check_submean(spread, 2.0, **SUBMEAN_CASE)
    assert len(taken) == 2


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

    monkeypatch.setattr(
        gridlab, "_polar_product", lambda theta, modulus, profile, p: np.full(np.shape(theta), np.nan)
    )
    report = check_pluri_lines(Minorant.G_PAIR, 3.0, n_lines=16, centers=1, radii=1, angles=256)
    assert not report.passed
    assert len(report.violations) == 16


# ------------------------------ circle pins ------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_blocked_submean_matches_per_circle_reference(seed):
    # 20 centers x 4 radii + 4 origin circles: several blocks, the last short
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


# ------------------------------- circle sweeps -------------------------------

SUBMEAN_CASES = [(mid, p) for mid, ps in SUBMEAN_P.items() for p in ps]
PLURI_CASES = [(mid, p) for mid, ps in PLURI_P.items() for p in ps]


@pytest.mark.parametrize(
    "sizes",
    [dict(centers=20, radii=4, angles=256, seed=0), dict(centers=64, radii=16, angles=1024, seed=53)],
    ids=["small", "battery"],
)
def test_submean_sweep_matches_per_circle_reference(sizes):
    reports = gridlab.submean_sweep(SUBMEAN_CASES, **sizes, tolerance=1e-9)
    assert [r.id for r in reports] == [mid.value for mid, _ in SUBMEAN_CASES]
    for report, (mid, p) in zip(reports, SUBMEAN_CASES):
        reference = _ref_check_submean(mid, p, **sizes)
        assert _bits(_payload(report)) == _bits(_payload(reference)), (mid, p)


@pytest.mark.parametrize(
    "sizes",
    [dict(n_lines=16, seed=0, centers=2, radii=3, angles=256),
     dict(n_lines=64, seed=67, centers=6, radii=4, angles=1024)],
    ids=["small", "battery"],
)
def test_pluri_line_sweep_matches_per_circle_reference(sizes):
    reports = gridlab.pluri_line_sweep(PLURI_CASES, **sizes, tolerance=1e-8)
    assert [r.id for r in reports] == [mid.value for mid, _ in PLURI_CASES]
    for report, (mid, p) in zip(reports, PLURI_CASES):
        reference = _ref_check_pluri_lines(mid, p, **sizes)
        assert _bits(_payload(report)) == _bits(_payload(reference)), (mid, p)


def test_a_sweep_mixing_callables_and_minorants_matches_each_reference():
    def subharmonic(z):
        return np.abs(z) ** 1.5

    def superharmonic(z):
        return -np.abs(z) ** 2

    cases = [(subharmonic, 2.0), (Minorant.PSI, 3.0), (superharmonic, 2.0), (Minorant.RE_BRANCH, 1.5)]
    sizes = dict(centers=40, radii=4, angles=512, seed=1000)
    reports = gridlab.submean_sweep(cases, **sizes, tolerance=1e-9)
    for report, (case, p) in zip(reports, cases):
        assert _bits(_payload(report)) == _bits(_payload(_ref_check_submean(case, p, **sizes)))
    assert [r.passed for r in reports] == [True, True, False, True]


def test_a_sweep_checks_every_case_before_it_draws(monkeypatch):
    drawn = []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: drawn.append(seed))
    with pytest.raises(ValueError, match="PSI requires p"):
        gridlab.submean_sweep([(Minorant.RE_BRANCH, 1.5), (Minorant.PSI, 2.0)], 4, 2, 256, 0, 1e-9)
    with pytest.raises(ValueError, match="two-variable minorants"):
        gridlab.pluri_line_sweep([(Minorant.F_PAIR, 3.0), (Minorant.PSI, 3.0)], 16, 0, 1, 1, 256, 1e-8)
    assert drawn == []


def test_each_circle_stage_draws_once_and_maps_its_blocks_once(monkeypatch):
    calls = []
    share, default_rng = gridlab._share_blocks, np.random.default_rng

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(gridlab, "_share_blocks", counted("share", share))
    monkeypatch.setattr(np.random, "default_rng", counted("draw", default_rng))
    for stage, kwargs, n_cases in (
        (battery.submean_reports, dict(centers=4, radii=2, angles=256), len(SUBMEAN_CASES)),
        (battery.pluri_line_reports, dict(n_lines=16), len(PLURI_CASES)),
    ):
        calls.clear()
        assert len(stage(**kwargs)) == n_cases
        assert calls == ["draw", "share"], stage.__name__


# --------------------------- RE_BRANCH angle profile ---------------------------


@pytest.mark.parametrize("p", [1.01, 1.1, 1.25, 4 / 3, 1.5, 1.75, 1.9, 2.0, 2.5, 3.0, 4.0, 6.0])
def test_re_branch_angle_takes_one_cosine_with_the_same_bits(p):
    rng = np.random.default_rng(int(p * 1000))
    seams = [0.0, -0.0, math.pi, -math.pi, TWO_PI, -TWO_PI]
    seams += [np.nextafter(x, d) for x in seams for d in (-np.inf, np.inf)]
    theta = np.concatenate([rng.uniform(-TWO_PI, TWO_PI, 200_000), seams])
    new = _array_bits(re_branch_angle(theta, p))
    assert new.tolist() == _array_bits(legacy.three_cosine_re_branch_angle(theta, p)).tolist()
    grid = theta[:200_000].reshape(400, 500)
    assert _array_bits(re_branch_angle(grid, p)).tolist() == new[:200_000].reshape(400, 500).tolist()
    for t in seams:
        value = re_branch_angle(t, p)
        assert isinstance(value, float)
        assert _bits(value) == _bits(legacy.three_cosine_re_branch_angle(t, p)), t


# ------------------------------ minorant table ------------------------------


def _seam_angles():
    seams = [0.0, -0.0, math.pi, -math.pi, TWO_PI, -TWO_PI, 0.5 * math.pi, -0.5 * math.pi]
    seams += [np.nextafter(x, d) for x in seams for d in (-np.inf, np.inf)]
    theta = np.random.default_rng(17).uniform(-TWO_PI, TWO_PI, 64 * 1024 - len(seams))
    return np.concatenate([seams, theta]).reshape(64, 1024)


def _polar_points():
    """(64, 1024) points of |zeta| < 2, led by 0, the axes and both sides of
    the negative real axis (arguments +pi and -pi)."""
    rng = np.random.default_rng(13)
    shape = (64, 1024)
    zeta = rng.uniform(0.0, 2.0, shape) * np.exp(1j * rng.uniform(-math.pi, math.pi, shape))
    special = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1j, -1j, 1 + 0j]
    special += [complex(x, y) for x in (-1.0, -2.5, -1e-300) for y in (0.0, -0.0)]
    zeta.flat[: len(special)] = special
    return zeta


def _assert_same_bits(new_fn, old_fn, *points):
    """Bit-identity on the (64, 1024) arrays and, as float, on 0-d arrays and
    scalars of the first 24 points."""
    assert np.array_equal(_array_bits(new_fn(*points)), _array_bits(old_fn(*points)))
    for k in range(24):
        for scalar in ([np.asarray(x.flat[k]) for x in points], [x.flat[k] for x in points]):
            new, old = new_fn(*scalar), old_fn(*scalar)
            assert type(new) is float and _bits(new) == _bits(old), scalar


@pytest.mark.parametrize("mid", list(SUBMEAN_P), ids=lambda mid: mid.value)
def test_single_minorants_read_the_profile_table_with_the_same_bits(mid):
    zeta = _polar_points()
    for p in SUBMEAN_P[mid]:
        _assert_same_bits(
            lambda z: minorant_value(mid, z, p), lambda z: legacy.minorant_value(mid, z, p), zeta
        )


def test_pair_minorants_read_the_profile_table_with_the_same_bits():
    z = _polar_points()
    w = z[::-1, ::-1]
    for new_fn, old_fn, mid, extra in (
        (minorant_F, legacy.minorant_F, Minorant.F_PAIR, (2.0, 4.0)),
        (minorant_G, legacy.minorant_G, Minorant.G_PAIR, ()),
    ):
        for p in PLURI_P[mid] + extra:
            _assert_same_bits(lambda a, b: new_fn(a, b, p), lambda a, b: old_fn(a, b, p), z, w)


def test_theta_lower_keeps_its_bits_with_the_phi_mid_profile():
    theta = _seam_angles()
    for p in (2.5, 4.0, 6.0):
        _assert_same_bits(lambda t: theta_lower(t, p), lambda t: legacy.theta_lower(t, p), theta)


# -------------------------- cell floors and skipping --------------------------


def _refinement(tag, p):
    """The default grid's refinement axes around the tag's first equality
    point at p, as verify_pointwise makes them: 33 x 33 nodes within one
    cell of the point."""
    info, grid = _REGISTRY[tag], GridSpec()
    full = (_axis(*info.r_range, grid.r_nodes, open_lo=True), _axis(*info.t_range, grid.t_nodes))
    axes = []
    for v, a in zip(full, equality_loci(tag, p)[0]):
        d = (v[-1] - v[0]) / (len(v) - 1)
        axes.append(np.linspace(max(v[0], a - d), min(v[-1], a + d), 2 * grid.refine_factor + 1))
    return axes


def _grids(tag, p):
    """The reduced grids over the tag's domain (389 t-nodes leave a short
    last block, and 16 r-nodes are one partial cell), one over the wide
    domain r in [0.2, 1.3], |t| <= 7, and the 33 x 33 refinement at p."""
    info = _REGISTRY[tag]
    for r_nodes, t_nodes in ((97, 389), (200, 400), (16, 389)):
        yield _axis(*info.r_range, r_nodes, open_lo=True), _axis(*info.t_range, t_nodes)
    yield _axis(0.2, 1.3, 97), _axis(-7.0, 7.0, 389)
    yield _refinement(tag, p)


def _cells(n_r):
    """The r-nodes of each cell: R_CHUNK of them, the last cell what is left."""
    return [slice(i0, i0 + R_CHUNK) for i0 in range(0, n_r, R_CHUNK)]


def _assert_floors_hold(form, p, r_vals, t_vals):
    """Check that every cell's floor lies at or below the cell's evaluated
    minimum, and is -inf where a node or a term of the cell is not finite;
    return the floors."""
    evaluate, scratch, floors = form.block_evaluator(p, r_vals, t_vals)
    _, r_terms, t_terms = form._terms(p, r_vals, t_vals)
    bufs = scratch(1)[0]
    starts = range(0, len(t_vals), SCAN_COLUMNS)
    cells = _cells(len(r_vals))
    assert floors.shape == (len(starts), len(cells))
    for row, j0 in zip(floors, starts):
        cols = slice(j0, j0 + SCAN_COLUMNS)
        with np.errstate(all="ignore"):
            s = evaluate(bufs, cols, slice(None))
        t_finite = all(np.isfinite(x[cols]).all() for x in t_terms)
        for floor, rows in zip(row, cells):
            if not (t_finite and all(np.isfinite(x[rows]).all() for x in r_terms)):
                assert floor == -math.inf, (p, j0, rows)
            if np.isfinite(s[:, rows]).all():
                assert floor <= s[:, rows].min(), (p, j0, rows)
            else:
                assert floor == -math.inf, (p, j0, rows)
    return floors


def _no_floors(self, p, consts, r_terms, t_terms):
    return np.full((-(-len(t_terms[0]) // SCAN_COLUMNS), 1), -math.inf)


def _folds(monkeypatch):
    """The rectangles (j0, j1, i0, i1), t-nodes j0:j1 by r-nodes i0:i1, that
    _fold_block folds from now on."""
    folded = []
    fold_block = gridlab._fold_block

    def counted(i0, j0, s, tol):
        folded.append((j0, j0 + s.shape[0], i0, i0 + s.shape[1]))
        return fold_block(i0, j0, s, tol)

    monkeypatch.setattr(gridlab, "_fold_block", counted)
    return folded


def _area(rects):
    """The nodes of the rectangles."""
    return sum((j1 - j0) * (i1 - i0) for j0, j1, i0, i1 in rects)


def _all_blocks(monkeypatch, scan, *args):
    """scan(*args) with every cell's floor -inf, so that no cell is skipped."""
    with monkeypatch.context() as m:
        m.setattr(gridlab._Form, "_block_floors", _no_floors)
        return scan(*args)


@pytest.mark.parametrize("tag", TWO_D_TAGS, ids=lambda tag: tag.value)
def test_block_floors_lie_below_every_block_minimum(tag):
    form = _REGISTRY[tag].slack
    for p in default_p_values(tag):
        for r_vals, t_vals in _grids(tag, p):
            floors = _assert_floors_hold(form, p, r_vals, t_vals)
            assert np.isfinite(floors).any(), p


@pytest.mark.parametrize(
    "tag, p", [(InequalityId.SUM_BY_MIXED_LOW, 1.1), (InequalityId.MIXED_BY_SUM_HIGH, 64.0)]
)
def test_block_floors_hold_on_the_full_grid(tag, p):
    info, grid = _REGISTRY[tag], GridSpec()
    r_vals = _axis(*info.r_range, grid.r_nodes, open_lo=True)
    t_vals = _axis(*info.t_range, grid.t_nodes)
    assert np.isfinite(_assert_floors_hold(info.slack, p, r_vals, t_vals)).any()


@pytest.mark.parametrize("tag", TWO_D_TAGS, ids=lambda tag: tag.value)
def test_a_sub_span_keeps_the_bits_of_its_whole_rows(tag):
    # rectangles that start and end off the cell boundaries, most of odd
    # length, so that pow's vector loop meets its tails at other nodes; the
    # 97 x 329 one is as wide as a joined rectangle that fills the buffers
    info, grid = _REGISTRY[tag], GridSpec()
    r_vals = _axis(*info.r_range, grid.r_nodes, open_lo=True)
    t_vals = _axis(*info.t_range, 389)
    rects = [
        (0, 16, 3, 80), (37, 53, 26, 51), (384, 389, 977, 1999), (5, 6, 1001, 1002),
        (101, 198, 1670, 1999), (16, 32, 1, 2000), (203, 218, 0, 1),
    ]
    for p in default_p_values(tag):
        evaluate, scratch, _ = info.slack.block_evaluator(p, r_vals, t_vals)
        bufs = scratch(1)[0]
        for j0, j1, i0, i1 in rects:
            assert (j1 - j0) * (i1 - i0) <= SCAN_COLUMNS * len(r_vals)
            whole = np.concatenate([
                evaluate(bufs, slice(j, min(j + SCAN_COLUMNS, j1)), slice(None)).copy()
                for j in range(j0, j1, SCAN_COLUMNS)
            ])
            span = evaluate(bufs, slice(j0, j1), slice(i0, i1))
            assert span.shape == (j1 - j0, i1 - i0)
            assert np.array_equal(_array_bits(span), _array_bits(whole[:, i0:i1])), (p, j0, i0)


@pytest.mark.parametrize("tag", TWO_D_TAGS, ids=lambda tag: tag.value)
def test_skipping_blocks_never_changes_a_scan(monkeypatch, tag):
    info, grid = _REGISTRY[tag], GridSpec()
    # the small grids at every default p, and the full grid at one p (the
    # second: MIXED_BY_SUM_MID's first, p = 2, vanishes identically)
    cases = [(p, *axes) for p in default_p_values(tag) for axes in _grids(tag, p)]
    full_grid = (
        _axis(*info.r_range, grid.r_nodes, open_lo=True), _axis(*info.t_range, grid.t_nodes)
    )
    cases.append((default_p_values(tag)[1], *full_grid))
    folded = _folds(monkeypatch)
    for p, r_vals, t_vals in cases:
        # tol = -0.5 flags part of the grid and tol = -2 all of it; inf is
        # the tolerance of locate_equality
        for tol in (1e-9, -0.5, -2.0, math.inf):
            folded.clear()
            skipped = _scan_2d(info.slack, p, r_vals, t_vals, tol)
            evaluated = _area(folded)
            full = _all_blocks(monkeypatch, _scan_2d, info.slack, p, r_vals, t_vals, tol)
            assert _bits(skipped) == _bits(full), (p, tol)
    # the full grid skips cells (at tol = inf, the last scan)
    assert evaluated < _area(folded) - evaluated


@pytest.mark.parametrize(
    "tag, k",
    [
        (InequalityId.MIXED_BY_SUM_LOW, 6),
        (InequalityId.MIXED_BY_SUM_RADIAL, 3),
        (InequalityId.MIXED_BY_SUM_MID, 3),
        (InequalityId.MIXED_BY_SUM_HIGH, 2),
        (InequalityId.SUM_BY_MIXED_HIGH, 0),
        (InequalityId.SUM_BY_MIXED_LOW, 5),
    ],
)
def test_a_scan_with_a_constant_too_small_still_fails(monkeypatch, tag, k):
    # the form's leading constant (k_s on a mixed-by-sum form's P, k_m on a
    # sum-by-mixed form's M) made 1e-6 relative too small: the bound no
    # longer holds near its equality locus, and the full grid sees it
    info, grid = _REGISTRY[tag], GridSpec()
    form, p = info.slack, default_p_values(tag)[k]

    def weak_consts(p):
        k_s, q, k_m, k_2, w = form.consts(p)
        if form.mixed:
            return k_s * (1.0 - 1e-6), q, k_m, k_2, w
        return k_s, q, k_m * (1.0 - 1e-6), k_2, w

    weak = dataclasses.replace(form, consts=weak_consts)
    monkeypatch.setitem(_REGISTRY, tag, dataclasses.replace(info, slack=weak))
    folded = _folds(monkeypatch)
    report = verify_pointwise(tag, p)
    assert not report.passed and report.violations
    assert _area(folded) < grid.r_nodes * grid.t_nodes  # cells were skipped
    full = _all_blocks(monkeypatch, verify_pointwise, tag, p)
    assert _bits(_payload(report)) == _bits(_payload(full))


def test_non_finite_cells_are_evaluated_and_reported(monkeypatch):
    info = _REGISTRY[InequalityId.MIXED_BY_SUM_HIGH]
    form, p = info.slack, default_p_values(InequalityId.MIXED_BY_SUM_HIGH)[2]
    r_vals, t_vals = _axis(*info.r_range, 97, open_lo=True), _axis(*info.t_range, 389)
    k_s, q, k_m, k_2, w = form.consts(p)
    # every constant times a power of two K, which keeps every other node's
    # bits: P = k_s K S^{p/2} overflows where S = |1 + r e^{it}|^2 is near
    # its largest value 4, at r = 1 next to t = 0 and t = +-2 pi, and there
    # the slack is inf/inf = NaN
    big = 2.0 ** math.ceil(math.log2(np.finfo(float).max / (k_s * 4.0 ** (0.5 * p))))
    t_nan = t_vals[200]
    cases = [
        dataclasses.replace(form, consts=lambda p: (k_s * big, q, k_m * big, k_2 * big, w)),
        # a NaN angle profile at one t-node makes that column NaN
        dataclasses.replace(
            form, profile=lambda t, p: np.where(t == t_nan, np.nan, form.profile(t, p))
        ),
    ]
    folded = _folds(monkeypatch)
    for case in cases:
        floors = _assert_floors_hold(case, p, r_vals, t_vals)
        with np.errstate(all="ignore"):
            s = case(p, r_vals[None, :], t_vals[:, None])
        # the (block, cell) pairs that hold a NaN node
        nan_cells = {
            (j0 // SCAN_COLUMNS, c)
            for j0 in range(0, len(t_vals), SCAN_COLUMNS)
            for c, rows in enumerate(_cells(len(r_vals)))
            if np.isnan(s[j0 : j0 + SCAN_COLUMNS, rows]).any()
        }
        assert nan_cells and all(floors[b, c] == -math.inf for b, c in nan_cells)
        nan_nodes = np.argwhere(np.isnan(s))
        for tol in (1e-9, math.inf):
            folded.clear()
            with np.errstate(all="ignore"):
                min_slack, argmin, violations = _scan_2d(case, p, r_vals, t_vals, tol)
                evaluated = list(folded)
                full = _all_blocks(monkeypatch, _scan_2d, case, p, r_vals, t_vals, tol)
            # every NaN node lies in an evaluated rectangle, and cells were skipped
            assert all(
                any(j0 <= j < j1 and i0 <= i < i1 for j0, j1, i0, i1 in evaluated)
                for j, i in nan_nodes
            ), tol
            assert _area(evaluated) < len(r_vals) * len(t_vals), tol
            assert any(math.isnan(s) for _, s in violations), tol
            assert _bits((min_slack, argmin, violations)) == _bits(full), tol

    # a term that is not finite in every block: k_2 r^{p/2} overflows for r > 1,
    # and every cell that holds such an r gets -inf
    huge = dataclasses.replace(form, consts=lambda p: (k_s, q, k_m, np.finfo(float).max, w))
    r_wide = _axis(0.2, 1.3, 97)
    with np.errstate(over="ignore"):
        floors = _assert_floors_hold(huge, p, r_wide, _axis(-7.0, 7.0, 389))
    over = [c for c, rows in enumerate(_cells(len(r_wide))) if (r_wide[rows] > 1.0).any()]
    assert over and (floors[:, over] == -math.inf).all()

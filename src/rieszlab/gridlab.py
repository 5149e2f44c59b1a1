"""Brute-force grid verification of the pointwise scalar inequalities,
sub-mean-value subharmonicity testing, and equality-locus location.

Every inequality is wired to a slack function (RHS minus LHS) whose
nonnegativity is the claim.  Two-variable inequalities in (z, w) are scanned
in reduced coordinates (r, t) = (|z|/|w|, arg z + arg w): every slack depends
only on the moduli and the angle sum and is homogeneous of degree p, so
|w| = 1, r in (0, 1] loses nothing (a direct 4-parameter random scan is kept
as a test of this reduction, see unreduced_slack).

For the homogeneous two-variable tags the slack is reported relative to the
sum of the absolute values of its three terms: raw terms reach ~1e19 at
p = 64, where an absolute -1e-9 acceptance would be swamped by roundoff,
while the relative slack keeps the tolerance meaningful at every p.  The
scalar tags are O(1) quantities and stay absolute.

Evaluation.  A 2-D scan walks column blocks of SCAN_COLUMNS t-nodes against
the whole r column, so the temporaries of one block fit in L2 and every
t-only angle profile is evaluated once per node.  The result is that of one
row-major array: argmin is the first minimal node in row-major order (r
outer), and the violations are the first MAX_VIOLATIONS in row-major order.
A slack that is NaN or infinite is a violation, in the scans and in the
sub-mean checks alike.  The sub-mean and complex-line checks draw their
centers and radii one circle at a time, then evaluate CIRCLE_BLOCK circles
as one (k, angles) array and take the means along each row.  Both block
loops first allocate and free one large array (see _keep_heap), so that the
blocks reuse their temporaries' pages instead of faulting in new ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from .constants import (
    Minorant,
    SharpConstant as SC,
    _fold_pi,
    minorant_F,
    minorant_G,
    minorant_value,
    psi_angle,
    re_branch_angle,
    sharp_constant,
    theta_lower_reflected,
    theta_upper,
)
from .reporting import MAX_VIOLATIONS, GridSpec, SlackAccumulator, VerificationReport

__all__ = [
    "InequalityId",
    "inequality_range",
    "default_p_values",
    "equality_loci",
    "stated_equality_loci",
    "slack_function",
    "cell_diagonal",
    "verify_pointwise",
    "locate_equality",
    "unreduced_slack",
    "check_submean",
    "check_pluri_lines",
    "origin_circle_mean",
]

TWO_PI = 2.0 * math.pi


class InequalityId(Enum):
    """Catalog of the grid-verifiable scalar inequalities."""

    MIXED_BY_SUM_LOW = "MIXED_BY_SUM_LOW"        # (|z|^2+|w|^2)^{p/2} <= a|z+w~|^p - b*F, 1<p<=2
    MIXED_BY_SUM_RADIAL = "MIXED_BY_SUM_RADIAL"  # its single-radius reduction G(r,t) >= 0, 1<p<2
    MIXED_BY_SUM_MID = "MIXED_BY_SUM_MID"        # theta minorant form, 2<=p<=4
    MIXED_BY_SUM_HIGH = "MIXED_BY_SUM_HIGH"      # shifted reflected form, p>=4
    SUM_BY_MIXED_HIGH = "SUM_BY_MIXED_HIGH"      # |z+w~|^p <= c(...)^{p/2} - d*Psi, p>2
    SUM_BY_MIXED_RADIAL = "SUM_BY_MIXED_RADIAL"  # its normalized single-radius form, p>2
    SUM_BY_MIXED_LOW = "SUM_BY_MIXED_LOW"        # cosine minorant form, 1<p<2
    VERBITSKY_COS = "VERBITSKY_COS"              # A cos^p x - B cos(px) >= 1, 1<p<=2
    CSC_GAP = "CSC_GAP"                          # 1 + 1/x^2 - csc^2 x >= 0 on (0, pi/4]
    COT_GAP = "COT_GAP"                          # cot x - (1/x - x/2) >= 0 on (0, pi/4]
    FACTOR_X = "FACTOR_X"                        # sin^{p/2}(pi/p) cot^{1-p/2}(pi/2p) <= 1, 1<p<2
    FACTOR_Y = "FACTOR_Y"                        # stationary-point factor Y >= 1, 1<p<2
    ROOT_GAP_COS = "ROOT_GAP_COS"                # 1-(1-cos(pi/p))^{p/(p-2)} <= cos(pi/2p), p>=4
    ROOT_GAP_SIN = "ROOT_GAP_SIN"                # cos((p/2) arccos s) >= sin(pi/2p), p>=4
    ROOT_GAP_PRODUCT = "ROOT_GAP_PRODUCT"        # s <= cos((p/2) arccos s) cot(pi/2p), p>=4
    ROOT_GAP_ANGLE = "ROOT_GAP_ANGLE"            # cos((pi-pi/p)/p) <= s, p>=4


def _normalized(t1, t2, t3):
    """(t1 - t2 - t3) / (|t1| + |t2| + |t3|); the denominator never vanishes
    on the scanned domains (t3 > 0 whenever t1 = 0).  t2 carries the angle
    profile, so t1 - t2 has the full grid shape and is reused in place."""
    num = t1 - t2
    num -= t3
    den = np.abs(t1) + np.abs(t2)
    den += np.abs(t3)
    num /= den
    return num


def _sum_sq(r, t):
    """|1 + r e^{it}|^2 = (1 + r^2) + 2 r cos t."""
    out = 2.0 * r * np.cos(t)
    out += 1.0 + r * r
    return out


def _slack_mixed_low(p, r, t):
    a = sharp_constant(SC.A_LOW_P, p)
    b = sharp_constant(SC.B_LOW_P, p)
    t1 = a * _sum_sq(r, t) ** (0.5 * p)
    t2 = b * r ** (0.5 * p) * re_branch_angle(t, p)
    t3 = (1.0 + r * r) ** (0.5 * p)
    return _normalized(t1, t2, t3)


def _slack_mixed_radial(p, r, t):
    # literal single-radius form: same inequality with the angle restricted to
    # the principal band, stated with the tangent factor spelled out
    t1 = (_sum_sq(r, t) / (1.0 + math.cos(math.pi / p))) ** (0.5 * p)
    t2 = 2.0 ** (0.5 * p) * r ** (0.5 * p) * np.cos(0.5 * p * t) * math.tan(math.pi / (2.0 * p))
    t3 = (1.0 + r * r) ** (0.5 * p)
    return _normalized(t1, t2, t3)


def _conj_profile(t, p):
    """-cos((p/2)(pi - |t|)) with the even 2 pi-periodic extension."""
    return -np.cos(0.5 * p * (math.pi - _fold_pi(np.asarray(t, dtype=float))))


def _slack_mixed_mid(p, r, t):
    # the constants extend continuously to the p = 2 endpoint (a -> 1, b -> 2),
    # where the slack vanishes identically
    a = sharp_constant(SC.A_HIGH_P, p) if p > 2.0 else 1.0
    b = sharp_constant(SC.B_HIGH_P, p) if p > 2.0 else 2.0
    t1 = a * _sum_sq(r, t) ** (0.5 * p)
    t2 = b * r ** (0.5 * p) * _conj_profile(t, p)
    t3 = (1.0 + r * r) ** (0.5 * p)
    return _normalized(t1, t2, t3)


def _slack_mixed_high(p, r, t):
    a = sharp_constant(SC.A_HIGH_P, p)
    b = sharp_constant(SC.B_HIGH_P, p)
    t1 = a * _sum_sq(r, t) ** (0.5 * p)
    t2 = b * r ** (0.5 * p) * theta_lower_reflected(t - 0.5 * math.pi, p)
    t3 = (1.0 + r * r) ** (0.5 * p)
    return _normalized(t1, t2, t3)


def _slack_sum_by_mixed_high(p, r, t):
    c = sharp_constant(SC.C_HIGH_P, p)
    d = sharp_constant(SC.D_HIGH_P, p)
    t1 = c * (1.0 + r * r) ** (0.5 * p)
    t2 = d * r ** (0.5 * p) * theta_upper(t, p)
    t3 = _sum_sq(r, t) ** (0.5 * p)
    return _normalized(t1, t2, t3)


def _slack_sum_by_mixed_low(p, r, t):
    c = sharp_constant(SC.C_LOW_P, p)
    d = sharp_constant(SC.D_LOW_P, p)
    t1 = c * (1.0 + r * r) ** (0.5 * p)
    t2 = d * r ** (0.5 * p) * psi_angle(t, p)
    t3 = _sum_sq(r, t) ** (0.5 * p)
    return _normalized(t1, t2, t3)


def _slack_verbitsky_cos(p, x):
    a = sharp_constant(SC.VERBITSKY_A, p)
    b = sharp_constant(SC.VERBITSKY_B, p)
    cx = np.maximum(np.cos(x), 0.0)  # cos >= 0 on |x| <= pi/2; clip roundoff
    return a * cx**p - b * np.cos(p * x) - 1.0


def _slack_csc_gap(p, x):
    return 1.0 + 1.0 / (x * x) - 1.0 / np.sin(x) ** 2


def _slack_cot_gap(p, x):
    return np.cos(x) / np.sin(x) - (1.0 / x - 0.5 * x)


def _slack_factor_x(p):
    half = math.pi / (2.0 * p)
    return 1.0 - math.sin(math.pi / p) ** (0.5 * p) * (1.0 / math.tan(half)) ** (1.0 - 0.5 * p)


def _slack_factor_y(p):
    u = (math.sqrt(2.0) * math.sin(math.pi / (2.0 * p))) ** (2.0 * p / (p - 2.0))
    y = (1.0 / (1.0 - u) - 1.0) ** (0.5 * (p - 2.0))
    return y - 1.0


def _root_gap(p: float) -> float:
    """s = 1 - (1 - cos(pi/p))^{p/(p-2)} for p >= 4."""
    return 1.0 - (1.0 - math.cos(math.pi / p)) ** (p / (p - 2.0))


def _slack_root_gap_cos(p):
    return math.cos(math.pi / (2.0 * p)) - _root_gap(p)


def _slack_root_gap_sin(p):
    return math.cos(0.5 * p * math.acos(_root_gap(p))) - math.sin(math.pi / (2.0 * p))


def _slack_root_gap_product(p):
    s = _root_gap(p)
    return math.cos(0.5 * p * math.acos(s)) / math.tan(math.pi / (2.0 * p)) - s


def _slack_root_gap_angle(p):
    return _root_gap(p) - math.cos((math.pi - math.pi / p) / p)


def _pm_mod_2pi(values: Sequence[float], domain: tuple[float, float]) -> list[float]:
    """All points +/-v + 2 pi k inside the domain."""
    lo, hi = domain
    out = []
    for v in values:
        for sign in (1.0, -1.0):
            for k in (-2, -1, 0, 1, 2):
                x = sign * v + TWO_PI * k
                if lo - 1e-12 <= x <= hi + 1e-12:
                    out.append(x)
    return sorted(set(out))


@dataclass(frozen=True)
class _TagInfo:
    arity: int                    # 2: (r, t); 1: (x,); 0: scalar in p
    p_lo: float
    p_hi: float
    lo_closed: bool
    hi_closed: bool
    slack: Callable
    p_values: tuple
    r_range: tuple[float, float] | None = None
    t_range: tuple[float, float] | None = None
    loci: Callable[[float], list] | None = None        # verified equality points
    stated_loci: Callable[[float], list] | None = None  # claimed equality points


_EXT = (-TWO_PI, TWO_PI)


def _geom(lo, hi, n=8):
    return tuple(float(x) for x in np.geomspace(lo, hi, n))


def _lin(lo, hi, n=8):
    return tuple(float(x) for x in np.linspace(lo, hi, n))


_REGISTRY: dict[InequalityId, _TagInfo] = {
    InequalityId.MIXED_BY_SUM_LOW: _TagInfo(
        2, 1.0, 2.0, False, True, _slack_mixed_low, _lin(1.1, 2.0),
        r_range=(0.0, 1.0), t_range=_EXT,
        loci=lambda p: [(1.0, t) for t in _pm_mod_2pi([math.pi / p], _EXT)],
        stated_loci=lambda p: [
            (1.0, t) for v in (math.pi / p, math.pi / p + math.pi)
            for t in _pm_mod_2pi([v], _EXT)
        ],
    ),
    InequalityId.MIXED_BY_SUM_RADIAL: _TagInfo(
        2, 1.0, 2.0, False, False, _slack_mixed_radial, _lin(1.1, 1.9),
        r_range=(0.0, 1.0), t_range=(-math.pi, math.pi),
        loci=lambda p: [(1.0, math.pi / p), (1.0, -math.pi / p)],
        stated_loci=lambda p: [(1.0, math.pi / p), (1.0, -math.pi / p)],
    ),
    InequalityId.MIXED_BY_SUM_MID: _TagInfo(
        2, 2.0, 4.0, True, True, _slack_mixed_mid, _lin(2.0, 4.0),
        r_range=(0.0, 1.0), t_range=_EXT,
        loci=lambda p: [
            (1.0, t)
            for t in _pm_mod_2pi([math.pi - math.pi / p, math.pi + math.pi / p], _EXT)
        ],
        stated_loci=lambda p: [(1.0, math.pi / p), (1.0, -math.pi / p)],
    ),
    InequalityId.MIXED_BY_SUM_HIGH: _TagInfo(
        2, 4.0, 64.0, True, True, _slack_mixed_high, _geom(4.0, 64.0),
        r_range=(0.0, 1.0), t_range=_EXT,
        loci=lambda p: [
            (1.0, t)
            for t in _pm_mod_2pi([math.pi - math.pi / p, math.pi + math.pi / p], _EXT)
        ],
        stated_loci=lambda p: [
            (1.0, 0.5 * math.pi + math.pi / p),
            (1.0, -(0.5 * math.pi + math.pi / p)),
        ],
    ),
    InequalityId.SUM_BY_MIXED_HIGH: _TagInfo(
        2, 2.0, 64.0, False, True, _slack_sum_by_mixed_high, _geom(2.25, 64.0),
        r_range=(0.0, 1.0), t_range=_EXT,
        loci=lambda p: [
            (1.0, t)
            for t in _pm_mod_2pi([math.pi / p, TWO_PI - math.pi / p], _EXT)
        ],
        stated_loci=lambda p: [
            (1.0, t) for v in (math.pi / p, math.pi / p + math.pi)
            for t in _pm_mod_2pi([v], _EXT)
        ],
    ),
    InequalityId.SUM_BY_MIXED_RADIAL: _TagInfo(
        2, 2.0, 64.0, False, True, _slack_sum_by_mixed_high, _geom(2.25, 64.0),
        r_range=(0.0, 1.0), t_range=_EXT,
        loci=lambda p: [
            (1.0, t)
            for t in _pm_mod_2pi([math.pi / p, TWO_PI - math.pi / p], _EXT)
        ],
        stated_loci=lambda p: [
            (1.0, t) for v in (math.pi / p, math.pi / p + math.pi)
            for t in _pm_mod_2pi([v], _EXT)
        ],
    ),
    InequalityId.SUM_BY_MIXED_LOW: _TagInfo(
        2, 1.0, 2.0, False, False, _slack_sum_by_mixed_low, _lin(1.1, 1.9),
        r_range=(0.0, 1.0), t_range=_EXT,
        loci=lambda p: [
            (1.0, t)
            for t in _pm_mod_2pi([math.pi - math.pi / p, math.pi + math.pi / p], _EXT)
        ],
        stated_loci=lambda p: [
            (1.0, math.pi - math.pi / p),
            (1.0, -(math.pi - math.pi / p)),
        ],
    ),
    InequalityId.VERBITSKY_COS: _TagInfo(
        1, 1.0, 2.0, False, True, _slack_verbitsky_cos, _lin(1.1, 2.0),
        t_range=(-0.5 * math.pi, 0.5 * math.pi),
        loci=lambda p: [(math.pi / (2.0 * p),), (-math.pi / (2.0 * p),)],
        stated_loci=lambda p: [(math.pi / (2.0 * p),), (-math.pi / (2.0 * p),)],
    ),
    InequalityId.CSC_GAP: _TagInfo(
        1, 1.0, 64.0, False, True, _slack_csc_gap, _lin(1.5, 8.0),
        t_range=(1e-4, 0.25 * math.pi),
    ),
    InequalityId.COT_GAP: _TagInfo(
        1, 1.0, 64.0, False, True, _slack_cot_gap, _lin(1.5, 8.0),
        t_range=(1e-4, 0.25 * math.pi),
    ),
    InequalityId.FACTOR_X: _TagInfo(
        0, 1.0, 2.0, False, False, _slack_factor_x, _lin(1.05, 1.95)
    ),
    InequalityId.FACTOR_Y: _TagInfo(
        0, 1.0, 2.0, False, False, _slack_factor_y, _lin(1.05, 1.95)
    ),
    InequalityId.ROOT_GAP_COS: _TagInfo(
        0, 4.0, 64.0, True, True, _slack_root_gap_cos, _geom(4.0, 64.0)
    ),
    InequalityId.ROOT_GAP_SIN: _TagInfo(
        0, 4.0, 64.0, True, True, _slack_root_gap_sin, _geom(4.0, 64.0)
    ),
    InequalityId.ROOT_GAP_PRODUCT: _TagInfo(
        0, 4.0, 64.0, True, True, _slack_root_gap_product, _geom(4.0, 64.0)
    ),
    InequalityId.ROOT_GAP_ANGLE: _TagInfo(
        0, 4.0, 64.0, True, True, _slack_root_gap_angle, _geom(4.0, 64.0)
    ),
}


def inequality_range(tag: InequalityId) -> tuple[float, float, bool, bool]:
    info = _REGISTRY[InequalityId(tag)]
    return info.p_lo, info.p_hi, info.lo_closed, info.hi_closed


def default_p_values(tag: InequalityId) -> tuple:
    """Eight exponents spread across the tag's validity range."""
    return _REGISTRY[InequalityId(tag)].p_values


def equality_loci(tag: InequalityId, p: float) -> list:
    """Numerically verified equality points (see the locate tests)."""
    info = _REGISTRY[InequalityId(tag)]
    if info.loci is None:
        raise ValueError(f"{InequalityId(tag).value} has no catalogued equality locus")
    return info.loci(p)


def stated_equality_loci(tag: InequalityId, p: float) -> list:
    """Equality points as claimed alongside each bound (not all are actual
    minima; the MIXED_BY_SUM_MID/HIGH claimed angles are falsified by the
    scan, which finds the minimum at arg(wz) = pi - pi/p instead)."""
    info = _REGISTRY[InequalityId(tag)]
    if info.stated_loci is None:
        raise ValueError(f"{InequalityId(tag).value} has no stated equality locus")
    return info.stated_loci(p)


def slack_function(tag: InequalityId) -> Callable:
    """The tag's slack function: slack(p) for scalar tags, slack(p, x) for
    one-variable tags, slack(p, r, t) for two-variable tags."""
    return _REGISTRY[InequalityId(tag)].slack


def cell_diagonal(tag: InequalityId, grid: GridSpec) -> float:
    """Diagonal of one cell of the grid over the tag's default domain (the
    cell width for one-variable tags)."""
    info = _REGISTRY[InequalityId(tag)]
    if info.arity == 1:
        lo, hi = info.t_range
        return (hi - lo) / (grid.t_nodes - 1)
    r_lo, r_hi = info.r_range
    t_lo, t_hi = info.t_range
    dr = (r_hi - r_lo) / (grid.r_nodes - 1)
    dt = (t_hi - t_lo) / (grid.t_nodes - 1)
    return math.hypot(dr, dt)


def _check_tag_p(tag: InequalityId, p: float) -> float:
    info = _REGISTRY[tag]
    ok_lo = p >= info.p_lo if info.lo_closed else p > info.p_lo
    ok_hi = p <= info.p_hi if info.hi_closed else p < info.p_hi
    if not (ok_lo and ok_hi):
        lo_b = "[" if info.lo_closed else "("
        hi_b = "]" if info.hi_closed else ")"
        raise ValueError(
            f"{tag.value} is valid for p in {lo_b}{info.p_lo}, {info.p_hi}{hi_b}, got {p}"
        )
    return float(p)


# t-nodes per column block of the 2-D scan: against the default 2000 r-nodes
# a block is 64k points, 512 KB per temporary, so a slack's temporaries stay
# in a 2 MB L2 cache, and each t-only angle profile is evaluated once per node
SCAN_COLUMNS = 32


def _keep_heap(nbytes: int) -> None:
    """Allocate and free nbytes once, so that later temporaries of a block
    reuse heap pages instead of faulting in fresh ones.

    glibc serves a large request from its own mapping; freeing it raises the
    mmap threshold to its size and the heap trim threshold to twice that.
    Below those thresholds a block's freed temporaries stay on the heap for
    the next block, where otherwise every block returns them to the kernel
    and faults them in again.  Other allocators ignore it.
    """
    np.empty(nbytes, dtype=np.uint8)


def _first_min(s: np.ndarray) -> tuple[int, float]:
    """Flat index and value of the first minimum of s, NaN skipped; (0, inf)
    when every entry is NaN."""
    k = int(np.argmin(s))
    v = float(s.flat[k])
    if math.isnan(v):  # argmin stops at the first NaN
        if np.isnan(s).all():
            return 0, math.inf
        k = int(np.nanargmin(s))
        v = float(s.flat[k])
    return k, v


def _violated(s, tol):
    """Nodes whose slack is below -tol or not finite."""
    return ~np.isfinite(s) | (s < -tol)


def _scan_2d(slack_fn, p, r_vals, t_vals, tol):
    """Minimum, first minimal node and violations of the slack on the r x t
    grid, all in row-major order (r outer), as if the grid were one array.

    The grid is evaluated in column blocks of SCAN_COLUMNS t-nodes against
    the whole r column.  The minimum is the smallest (value, row, col) over
    the blocks' first minima; NaN never sets it.  A block whose minimum is
    at least -tol and whose maximum is finite holds no violation and is not
    searched; the others give their first MAX_VIOLATIONS violations, and the
    first MAX_VIOLATIONS of those in row-major order are kept.
    """
    r_col = r_vals[:, None]
    _keep_heap(8 * r_col.nbytes * min(SCAN_COLUMNS, len(t_vals)))  # eight block temporaries
    best = (math.inf, 0, 0)
    bad: list = []  # (row, col, slack)
    for j0 in range(0, len(t_vals), SCAN_COLUMNS):
        s = slack_fn(p, r_col, t_vals[None, j0 : j0 + SCAN_COLUMNS])
        k, v = _first_min(s)
        i, j = divmod(k, s.shape[1])
        best = min(best, (v, i, j0 + j))
        if v >= -tol and math.isfinite(v) and math.isfinite(s.max()):
            continue
        for bi, bj in np.argwhere(_violated(s, tol))[:MAX_VIOLATIONS]:
            bad.append((int(bi), j0 + int(bj), float(s[bi, bj])))
        bad.sort()
        del bad[MAX_VIOLATIONS:]
    min_slack, i, j = best
    violations = [((float(r_vals[bi]), float(t_vals[bj])), sv) for bi, bj, sv in bad]
    return min_slack, (float(r_vals[i]), float(t_vals[j])), violations


def _scan_1d(slack_fn, p, x_vals, tol):
    s = slack_fn(p, x_vals)
    j, v = _first_min(s)
    violations = [
        ((float(x_vals[k]),), float(s[k]))
        for k in np.flatnonzero(_violated(s, tol))[:MAX_VIOLATIONS]
    ]
    return v, (float(x_vals[j]),), violations


def _axis(lo, hi, n, open_lo=False):
    if open_lo:
        lo = lo + (hi - lo) / n
    return np.linspace(lo, hi, n)


def verify_pointwise(
    tag: InequalityId, p: float, grid: GridSpec | None = None
) -> VerificationReport:
    """Scan the tag's slack on the full grid plus one local refinement pass
    around the minimum; report min_slack, argmin, and any violations."""
    tag = InequalityId(tag)
    info = _REGISTRY[tag]
    p = _check_tag_p(tag, p)
    grid = grid or GridSpec()
    acc = SlackAccumulator()

    if info.arity == 0:
        s = float(info.slack(p))
        acc.add((p,), s, bool(_violated(s, grid.tolerance)))
        return acc.report(id=tag.value, p=p, grid={"kind": "scalar"}, tolerance=grid.tolerance)

    # the full-grid scan sets the minimum; the refinement pass can only lower it
    if info.arity == 1:
        lo, hi = grid.t_range or info.t_range
        x_vals = _axis(lo, hi, grid.t_nodes)
        acc.min_slack, acc.argmin, acc.violations = _scan_1d(
            info.slack, p, x_vals, grid.tolerance
        )
        dx = (hi - lo) / (grid.t_nodes - 1)
        x_ref = np.linspace(
            max(lo, acc.argmin[0] - dx), min(hi, acc.argmin[0] + dx), 2 * grid.refine_factor + 1
        )
        refined = _scan_1d(info.slack, p, x_ref, grid.tolerance)
        scan_grid = {"t_nodes": grid.t_nodes, "t_range": [lo, hi]}
    else:
        r_lo, r_hi = grid.r_range or info.r_range
        t_lo, t_hi = grid.t_range or info.t_range
        r_vals = _axis(r_lo, r_hi, grid.r_nodes, open_lo=(r_lo == 0.0))
        t_vals = _axis(t_lo, t_hi, grid.t_nodes)
        acc.min_slack, acc.argmin, acc.violations = _scan_2d(
            info.slack, p, r_vals, t_vals, grid.tolerance
        )
        r0, t0 = acc.argmin
        dr = (r_vals[-1] - r_vals[0]) / (grid.r_nodes - 1)
        dt = (t_hi - t_lo) / (grid.t_nodes - 1)
        r_ref = np.linspace(
            max(r_vals[0], r0 - dr), min(r_hi, r0 + dr), 2 * grid.refine_factor + 1
        )
        t_ref = np.linspace(max(t_lo, t0 - dt), min(t_hi, t0 + dt), 2 * grid.refine_factor + 1)
        refined = _scan_2d(info.slack, p, r_ref, t_ref, grid.tolerance)
        scan_grid = {
            "r_nodes": grid.r_nodes,
            "t_nodes": grid.t_nodes,
            "r_range": [float(r_vals[0]), float(r_hi)],
            "t_range": [t_lo, t_hi],
        }
    m2, a2, v2 = refined
    acc.add(a2, m2)
    for label, s in v2:
        acc.flag(label, s)
    return acc.report(id=tag.value, p=p, grid=scan_grid, tolerance=grid.tolerance)


def locate_equality(tag: InequalityId, p: float) -> tuple[tuple, float]:
    """Coarse-to-fine minimization of the slack (three zoom passes).

    Returns (minimizer, slack at minimizer).
    """
    tag = InequalityId(tag)
    info = _REGISTRY[tag]
    p = _check_tag_p(tag, p)
    if info.arity == 0:
        return (p,), float(info.slack(p))

    if info.arity == 1:
        lo, hi = info.t_range
        x = _axis(lo, hi, 1024)
        for _ in range(3):
            s = info.slack(p, x)
            j = int(np.argmin(s))
            dx = x[1] - x[0]
            x = np.linspace(max(lo, x[j] - 2 * dx), min(hi, x[j] + 2 * dx), 129)
        s = info.slack(p, x)
        j = int(np.argmin(s))
        return (float(x[j]),), float(s[j])

    r_lo, r_hi = info.r_range
    t_lo, t_hi = info.t_range
    r = _axis(r_lo, r_hi, 512, open_lo=(r_lo == 0.0))
    t = _axis(t_lo, t_hi, 1024)
    best = ((float(r[-1]), float(t[0])), math.inf)
    for _ in range(3):
        m, a, _v = _scan_2d(info.slack, p, r, t, math.inf)
        best = (a, m)
        dr, dt = r[1] - r[0], t[1] - t[0]
        r = np.linspace(max(r_lo, a[0] - 2 * dr), min(r_hi, a[0] + 2 * dr), 65)
        t = np.linspace(max(t_lo, a[1] - 2 * dt), min(t_hi, a[1] + 2 * dt), 65)
    m, a, _v = _scan_2d(info.slack, p, r, t, math.inf)
    if m < best[1]:
        best = (a, m)
    return best


_UNREDUCED_LOW = (InequalityId.MIXED_BY_SUM_LOW, InequalityId.MIXED_BY_SUM_RADIAL)
_UNREDUCED_MIXED = _UNREDUCED_LOW + (
    InequalityId.MIXED_BY_SUM_MID,
    InequalityId.MIXED_BY_SUM_HIGH,
)
_UNREDUCED_SUM = (
    InequalityId.SUM_BY_MIXED_HIGH,
    InequalityId.SUM_BY_MIXED_RADIAL,
    InequalityId.SUM_BY_MIXED_LOW,
)


def unreduced_slack(tag: InequalityId, p: float, z: complex, w: complex) -> float:
    """Slack evaluated directly on complex (z, w) through the two-variable
    minorants, bypassing the (r, t) reduction; used to validate the reduction."""
    tag = InequalityId(tag)
    p = _check_tag_p(tag, p)
    z, w = complex(z), complex(w)
    mod_sum = abs(z + w.conjugate()) ** p
    mixed = (abs(z) ** 2 + abs(w) ** 2) ** (0.5 * p)
    if tag in _UNREDUCED_MIXED:
        low = tag in _UNREDUCED_LOW
        a = sharp_constant(SC.A_LOW_P if low else SC.A_HIGH_P, p)
        b = sharp_constant(SC.B_LOW_P if low else SC.B_HIGH_P, p)
        t1 = a * mod_sum
        t2 = b * minorant_F(z, w, p)
        t3 = mixed
    elif tag in _UNREDUCED_SUM:
        low = tag is InequalityId.SUM_BY_MIXED_LOW
        c = sharp_constant(SC.C_LOW_P if low else SC.C_HIGH_P, p)
        d = sharp_constant(SC.D_LOW_P if low else SC.D_HIGH_P, p)
        t1 = c * mixed
        t2 = d * minorant_G(z, w, p)
        t3 = mod_sum
    else:
        raise ValueError(f"{tag.value} has no two-variable form")
    return float(_normalized(t1, t2, t3))


# ------------------------------ subharmonicity ------------------------------


# circles per evaluation in the sub-mean checks: a block of 64 circles at the
# default 1024 angles is 1 MB of complex nodes
CIRCLE_BLOCK = 64


def _check_angles(angles: int) -> None:
    # the two-grid estimate averages every second node, so the count is even
    if angles < 256 or angles % 2:
        raise ValueError(f"angles must be an even number >= 256, got {angles}")


def _check_seed_and_tolerance(seed: int, tolerance: float) -> None:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")


def _circle_means(values, centers, rhos, angles: int):
    """Trapezoid means over the circles |z - centers[k]| = rhos[k], plus
    their two-grid discretization-error estimates |mean - mean over every
    second node|.  values(rows, z) evaluates the circles in the slice rows
    at their nodes z, a (k, angles) array; k is at most CIRCLE_BLOCK."""
    nodes = np.exp(1j * (np.arange(angles) * (TWO_PI / angles)))
    centers = np.asarray(centers, dtype=complex)
    rhos = np.asarray(rhos, dtype=float)
    means = np.empty(len(rhos))
    errs = np.empty(len(rhos))
    _keep_heap(8 * nodes.nbytes * min(CIRCLE_BLOCK, len(rhos)))  # eight node blocks
    for k0 in range(0, len(rhos), CIRCLE_BLOCK):
        rows = slice(k0, k0 + CIRCLE_BLOCK)
        z = centers[rows, None] + rhos[rows, None] * nodes
        vals = np.asarray(values(rows, z), dtype=float)
        means[rows] = vals.mean(axis=1)
        errs[rows] = np.abs(means[rows] - vals[:, ::2].mean(axis=1))
    return means, errs


def _minorant_fn(mid: Minorant, p: float) -> Callable:
    mid = Minorant(mid)
    if mid in (Minorant.F_PAIR, Minorant.G_PAIR):
        raise ValueError(
            f"{mid.value} is a two-variable minorant; use check_pluri_lines"
        )
    return lambda z: minorant_value(mid, z, p)


def origin_circle_mean(mid: Minorant, p: float, rho: float) -> float:
    """Circle average over |z| = rho of a single-variable minorant, by an
    independent route: closed form for the cosine-family profiles,

        mean = +/- 2 sin(p pi / 2) / (p pi) * rho^{p/2},

    adaptive quadrature of the angular profile for the theta-based ones.
    """
    mid = Minorant(mid)
    scale = rho ** (0.5 * p)
    if mid is Minorant.RE_BRANCH:
        return 2.0 * math.sin(0.5 * p * math.pi) / (p * math.pi) * scale
    if mid is Minorant.PHI_MID:
        return -2.0 * math.sin(0.5 * p * math.pi) / (p * math.pi) * scale
    if mid is Minorant.PSI and p < 2.0:
        return 2.0 * math.sin(0.5 * p * math.pi) / (p * math.pi) * scale

    fn = _minorant_fn(mid, p)

    def profile(theta: float) -> float:
        return float(fn(np.exp(1j * theta)))

    val, _ = integrate.quad(profile, -math.pi, math.pi, limit=400, epsabs=1e-12)
    return val / TWO_PI * scale


def check_submean(
    minorant_or_fn,
    p: float,
    centers: int = 64,
    radii: int = 16,
    angles: int = 1024,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> VerificationReport:
    """Sub-mean-value test: circle averages must dominate the center value.

    Random centers in the disk of radius 2 with random circle radii
    rho <= |z0| (plus z0 = 0 explicitly, where the trapezoid average is also
    compared against origin_circle_mean; that mean is rho^{p/2} times its
    value at rho = 1, so its profile integral runs once per call).  The
    deficit is cushioned by twice the two-grid discretization estimate, so
    exact-equality (harmonic) cases are not flagged by trapezoid noise while
    genuine violations, which are O(1), still surface; a non-finite deficit
    is a violation.  The circles are evaluated in blocks of CIRCLE_BLOCK, so
    a custom callable must act elementwise on a (k, angles) array.  seed must
    be >= 0 and tolerance finite and > 0.
    """
    _check_angles(angles)
    if centers < 1 or radii < 1:
        raise ValueError("centers and radii must be >= 1")
    _check_seed_and_tolerance(seed, tolerance)
    acc = SlackAccumulator()
    if callable(minorant_or_fn):
        fn = minorant_or_fn
        tag = getattr(minorant_or_fn, "__name__", "custom")
        origin_reference = None
    else:
        mid = Minorant(minorant_or_fn)
        fn = _minorant_fn(mid, p)
        tag = mid.value
        # the origin mean scales as rho^{p/2}, so one profile integral serves
        # every radius: unit * rho^{p/2} is origin_circle_mean(mid, p, rho)
        unit = origin_circle_mean(mid, p, 1.0)
        origin_reference = lambda rho: unit * rho ** (0.5 * p)  # noqa: E731

    rng = np.random.default_rng(seed)
    groups = []  # (center, its circle radii), drawn centers first, the origin last
    for _ in range(centers):
        z0 = complex(2.0 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, TWO_PI)))
        groups.append((z0, [abs(z0) * rng.uniform(1e-3, 1.0) for _ in range(radii)]))
    # explicit origin pass with the independent mean comparison
    groups.append((0.0 + 0.0j, [2.0 * rng.uniform(1e-3, 1.0) for _ in range(radii)]))
    means, errs = _circle_means(
        lambda rows, z: fn(z),
        [center for center, rhos in groups for _ in rhos],
        [rho for _, rhos in groups for rho in rhos],
        angles,
    )

    k = 0
    for g, (center, rhos) in enumerate(groups):
        value = float(np.real(fn(np.asarray(center))))
        for rho in rhos:
            mean, err = float(means[k]), float(errs[k])
            k += 1
            deficit = mean - value + 2.0 * err
            acc.add((center.real, center.imag, rho), deficit, _violated(deficit, tolerance))
            if g == centers and origin_reference is not None:
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


def check_pluri_lines(
    mid: Minorant,
    p: float,
    n_lines: int = 64,
    seed: int = 0,
    centers: int = 6,
    radii: int = 4,
    angles: int = 1024,
    tolerance: float = 1e-8,
) -> VerificationReport:
    """Plurisubharmonicity probe: restrict the two-variable minorant to random
    complex lines tau -> (z0 + tau w1, w0 + tau w2) and run the sub-mean test
    on the restriction.  Constant lines give deficit 0 by construction.  The
    circles of all lines are evaluated in blocks of CIRCLE_BLOCK."""
    mid = Minorant(mid)
    if mid not in (Minorant.F_PAIR, Minorant.G_PAIR):
        raise ValueError("check_pluri_lines applies to the two-variable minorants")
    if n_lines < 16:
        raise ValueError("n_lines must be >= 16")
    if centers < 1 or radii < 1:
        raise ValueError("centers and radii must be >= 1")
    _check_angles(angles)
    _check_seed_and_tolerance(seed, tolerance)
    two_var = minorant_F if mid is Minorant.F_PAIR else minorant_G
    acc = SlackAccumulator()
    rng = np.random.default_rng(seed)
    groups = []  # (line, (z0, w0, w1, w2), center, its circle radii)
    for line in range(n_lines):
        coeffs = tuple(
            complex(math.sqrt(rng.uniform()) * 1.25 * np.exp(1j * rng.uniform(0, TWO_PI)))
            for _ in range(4)
        )
        for _ in range(centers):
            c = complex(math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, TWO_PI)))
            groups.append((line, coeffs, c, [0.75 * rng.uniform(1e-3, 1.0) for _ in range(radii)]))

    # each circle's line coefficients, as (circles, 1) columns
    z0s, w0s, w1s, w2s = np.array([cs for _, cs, _, rhos in groups for _ in rhos]).T[:, :, None]
    means, errs = _circle_means(
        lambda rows, tau: two_var(z0s[rows] + tau * w1s[rows], w0s[rows] + tau * w2s[rows], p),
        [c for _, _, c, rhos in groups for _ in rhos],
        [rho for *_, rhos in groups for rho in rhos],
        angles,
    )

    k = 0
    for line, (z0, w0, w1, w2), c, rhos in groups:
        tau = np.asarray(c)
        value = float(np.real(two_var(z0 + tau * w1, w0 + tau * w2, p)))
        for rho in rhos:
            deficit = float(means[k]) - value + 2.0 * float(errs[k])
            k += 1
            acc.add((line, c.real, c.imag, rho), deficit, _violated(deficit, tolerance))
    return acc.report(
        id=mid.value,
        p=p,
        grid={"n_lines": n_lines, "centers": centers, "radii": radii, "angles": angles},
        seed=seed,
        tolerance=tolerance,
    )

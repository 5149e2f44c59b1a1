"""Brute-force grid verification of the pointwise scalar inequalities,
sub-mean-value subharmonicity testing, and equality-locus location.

Every inequality is wired to a slack function (RHS minus LHS) whose
nonnegativity is the claim.  Two-variable inequalities in (z, w) are scanned
in reduced coordinates (r, t) = (|z|/|w|, arg z + arg w): every slack depends
only on the moduli and the angle sum and is homogeneous of degree p, so
|w| = 1, r in (0, 1] loses nothing (the tests check this reduction against
the slacks taken directly on random complex (z, w)).

One path per job.  A scalar tag is evaluated once; every other tag is
scanned and refined by one path over its axes, (t,) or (r, t), and located by
one zoom loop over the same axes.  A one-variable scan is the one-column case
of the 2-D scan's block fold (_fold_block), so both arities keep one rule for
the minimum and the violations.  The circle checks are sweeps:
submean_sweep and pluri_line_sweep check every (minorant, p) case first,
draw their circles once (the draw depends only on the seed and the sizes)
and hand them to one core (_circle_reports), which takes every case's
circle means in one pass over the circles, then forms each case's cushioned
deficits and adds them; the origin comparison of a sub-mean case is a hook
that runs right after each origin circle's deficit.  check_submean and
check_pluri_lines are one-case sweeps, and the battery's submean_reports and
pluri_line_reports one sweep each.

For the homogeneous two-variable tags the slack is reported relative to the
sum of the absolute values of its three terms: raw terms reach ~1e19 at
p = 64, where an absolute -1e-9 acceptance would be swamped by roundoff,
while the relative slack keeps the tolerance meaningful at every p.  The
scalar tags are O(1) quantities and stay absolute.

Evaluation.  The six two-variable slacks share one form (see _Form), so they
are given as data in one table and evaluated by one routine.  A 2-D scan
evaluates that form in rectangles of t-nodes by r-nodes, each at most a
block of SCAN_COLUMNS t-nodes by the whole r row, laid out (t, r) so that
every broadcast runs along a row: the terms in r and the angle profile are
computed once per scan, and each rectangle writes into its worker's three
buffers, reused across rectangles.  The sub-mean and complex-line sweeps
draw their centers and radii one circle at a time, then evaluate blocks of
CIRCLE_BLOCK circles as (k, angles) arrays: a block's points zeta (z, or z w
on a line) are decomposed once into arg zeta and |zeta|
(constants._polar_parts), and each case in turn gets |zeta|^{p/2}
profile(arg zeta, p) (constants._polar_product, the formula of every
minorant), or fn(z) for a callable, whose means along each row are taken
before the next case runs.  Both are per-block functions mapped over the
block starts on every usable CPU by maps._share_blocks (see its module
docstring for the workers, the scratch buffers, np.errstate and exceptions).
A scan folds each rectangle into its own minimum and violation list, and the
rectangles are merged once: argmin is the first minimal node in row-major
order (r outer), and the violations are the first MAX_VIOLATIONS in
row-major order, as if the grid were one array.  A circle block returns each
case's means and estimates, joined in block order.  So every result keeps
its bits whichever worker took which block.

A 2-D scan evaluates only the cells that could hold its minimum or a
violation.  Before the scan, each cell of R_CHUNK r-nodes by SCAN_COLUMNS
t-nodes gets a floor, a lower bound on its computed slacks
(_Form._block_floors): interval arithmetic over the cell, from the minimum
and maximum of the terms the scan has already made, then the slack at the
cell's worst corner, lowered by a margin of 1e-12 (1 + |floor|) for
roundoff and pow's ulp error.  A floor is -inf where a node could be NaN,
infinite or divide by zero.  The probe, the block with the least finite
floor, is folded first on the calling thread, so its minimum is a slack of
the grid.  A cell whose floor is above that minimum and at least -tol has
every node strictly above the grid's minimum and no violation, and it is
skipped.  Every other block is evaluated over the r-span from its first to
its last kept cell, and consecutive blocks are joined into one rectangle
while it fits one worker's buffers, so that a job stays large enough to be
worth a thread.  Each rectangle is folded with its r and t offsets, and the
probe's fold is merged with the rest.  So the minimum, the first minimal
node and the first violations are those of the scan of every block, bit for
bit.  A callable that is not a _Form has no floors, and every block of its
grid is evaluated whole.

Which thread allocates what.  glibc gives each thread that allocates an
arena of its own, and a freed block's pages stay in that arena for its
next blocks.  A scan's buffers for all its workers are one array made on
the calling thread (its scratch), so they come from its heap; a scan's
helpers allocate little.  A circle helper evaluates its blocks' nodes,
their polar parts and each case's temporaries itself, one case at a time,
since the profiles allocate their own, so its arena keeps about one block's
nodes, parts and one case's temporaries.  An arena is handed on when its
thread exits, and a helper that starts before the last one has fully
exited gets a second arena, which then keeps as much.  So a circle block is
small, CIRCLE_BLOCK circles; and the first block of each sweep is preceded
by one large allocation (see _keep_heap), so that the blocks reuse their
temporaries' pages instead of faulting in new ones.

lemma_grid_reports scans each distinct (slack, p, domain) once, so
SUM_BY_MIXED_RADIAL, which shares SUM_BY_MIXED_HIGH's slack, p grid and
ranges, reuses its scans.  A slack that is NaN or infinite is a violation,
in the scans and in the sub-mean checks alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from .constants import (
    _MINORANTS,
    Minorant,
    PRange,
    SharpConstant as SC,
    _polar_parts,
    _polar_product,
    minorant_value,
    phi_high_angle,
    phi_mid_angle,
    psi_angle,
    re_branch_angle,
    sharp_constant,
    theta_upper,
)
from .maps import _share_blocks
from .reporting import (
    MAX_VIOLATIONS,
    GridSpec,
    SlackAccumulator,
    VerificationReport,
    _check_integer,
)

__all__ = [
    "InequalityId",
    "inequality_range",
    "default_p_values",
    "equality_loci",
    "stated_equality_loci",
    "slack_function",
    "scan_ranges",
    "cell_diagonal",
    "verify_pointwise",
    "locate_equality",
    "check_submean",
    "check_pluri_lines",
    "submean_sweep",
    "pluri_line_sweep",
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
    SUM_BY_MIXED_RADIAL = "SUM_BY_MIXED_RADIAL"  # a copy of SUM_BY_MIXED_HIGH, p>2
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


def _radial_profile(t, p):
    # the single-radius form keeps the principal-band cosine unreduced
    return np.cos(0.5 * p * t)


@dataclass(frozen=True)
class _Form:
    """A two-variable slack, given as data.  With e = p/2,

        S  = (1 + r^2) + 2 r cos t             = |1 + r e^{it}|^2,
        P  = k_s (S / q)^e,    M = k_m (1 + r^2)^e,
        t2 = ((k_2 r^e) profile(t)) w,
        slack = ((t1 - t2) - t3) / ((|t1| + |t2|) + |t3|),

    with (t1, t3) = (P, M) for the mixed-by-sum tags and (M, P) for the
    sum-by-mixed tags.  consts(p) gives (k_s, q, k_m, k_2, w); a constant of
    1.0 is skipped, which is exact.  The denominator never vanishes on the
    scanned domains (t3 > 0 whenever t1 = 0).

    A form is called elementwise as slack(p, r, t), 0-d inputs included.  The
    2-D scan instead evaluates its terms in r once per scan, its terms in t
    once per scan, and each block into its worker's three reused buffers (see
    block_evaluator); both run _evaluate, so they give the same bits.
    """

    mixed: bool
    consts: Callable[[float], tuple]
    profile: Callable

    def _terms(self, p, r, t):
        """consts(p), the terms in r (2r, 1 + r^2, M, |M|, k_2 r^e) and the
        terms in t (cos t, profile(t))."""
        consts = k_s, q, k_m, k_2, w = self.consts(p)
        e = 0.5 * p
        one_r2 = 1.0 + r * r
        m = one_r2**e
        if k_m != 1.0:
            m = k_m * m
        r_e = r**e
        k2_re = k_2 * r_e if k_2 != 1.0 else r_e
        return consts, (2.0 * r, one_r2, m, np.abs(m), k2_re), (np.cos(t), self.profile(t, p))

    def _evaluate(self, p, consts, r_terms, t_terms, a_buf=None, b_buf=None, out=None):
        """The slack from the r and t terms, written into out.  a_buf, b_buf
        and out are buffers of the broadcast shape, or None to allocate.  The
        augmented assignments work in place on arrays and rebind numpy
        scalars, so a 0-d input is evaluated with scalar arithmetic."""
        k_s, q, _, _, w = consts
        two_r, one_r2, m, abs_m, k2_re = r_terms
        cos_t, prof = t_terms
        a = np.multiply(two_r, cos_t, out=a_buf)
        a += one_r2
        if q != 1.0:
            a /= q
        a **= 0.5 * p
        if k_s != 1.0:
            a *= k_s  # a = P
        b = np.multiply(k2_re, prof, out=b_buf)
        if w != 1.0:
            b *= w  # b = t2
        t1, t3 = (a, m) if self.mixed else (m, a)
        s = np.subtract(t1, b, out=out)
        s -= t3
        b = np.abs(b, out=b_buf)
        a = np.abs(a, out=a_buf)
        abs_t1, abs_t3 = (a, abs_m) if self.mixed else (abs_m, a)
        b = np.add(abs_t1, b, out=b_buf)
        b += abs_t3
        s /= b
        return s

    def __call__(self, p, r, t):
        return self._evaluate(p, *self._terms(p, r, t))

    def _block_floors(self, p, consts, r_terms, t_terms):
        """One lower bound per cell on the slacks _evaluate computes from
        these terms, or -inf: floors[b, c] bounds the cell of the block of
        SCAN_COLUMNS t-nodes b and the R_CHUNK r-nodes c (the last cell of a
        row takes what is left).

        Over a cell, every
        term lies between its computed minimum and maximum (the r terms over
        the cell's r-nodes, the t terms over the block's t-nodes), so the
        bound covers the computed node values themselves, not a continuum,
        and no Lipschitz constant enters.  The intervals of P and t2 follow
        _evaluate's op sequence: + - * / are correctly rounded, so they are
        monotone in floating point and the ends bound every node, and pow is
        monotone up to its ulp error.  For t1, t3 >= 0 the exact slack
        (t1 - t2 - t3)/(t1 + |t2| + t3) does not fall as t1 rises or as t2
        or t3 falls, so over the cell it is least at the corner (t1 low, t2
        high, t3 high).  A computed slack lies within a few ulps of the exact
        slack of its computed terms (it lies in [-1, 1]), and so does the
        corner's; the corner is lowered by 1e-12 (1 + |corner|), which
        absorbs these errors and pow's.

        A cell gets -inf where the base of its power reaches below 0, t1 or
        t3 below 0, or its denominator 0 (1e-300, where underflow could
        matter), or where an end of its denominator is not finite: a term
        that is not finite, or a node that overflows (where inf/inf gives
        NaN), makes that end infinite or NaN.  So a finite floor means that
        every node of its cell is finite.  The cells are formed FLOOR_GROUP
        blocks at a time, so the arrays stay small.
        """
        k_s, q, _, _, w = consts
        e = 0.5 * p

        def spans(x, step):
            starts = np.arange(0, len(x), step)
            return np.minimum.reduceat(x, starts), np.maximum.reduceat(x, starts)

        two_r, one_r2, m, _, k2_re = (spans(x, R_CHUNK) for x in r_terms)
        cos_t, prof = (spans(x, SCAN_COLUMNS) for x in t_terms)
        floors = []
        with np.errstate(all="ignore"):
            for g0 in range(0, len(cos_t[0]), FLOOR_GROUP):
                group = slice(g0, g0 + FLOOR_GROUP)
                cos_g, prof_g = ([x[group, None] for x in iv] for iv in (cos_t, prof))
                a = _iv([x * y for x in two_r for y in cos_g])
                base = _iv([(x + y) / q for x, y in zip(a, one_r2)])
                big_p = _iv([x**e * k_s for x in base])
                b = _iv([x * y * w for x in k2_re for y in prof_g])
                t1, t3 = (big_p, m) if self.mixed else (m, big_p)
                den = [(x1 + xb) + x3 for x1, xb, x3 in zip(t1, _iv_abs(b), t3)]
                # the slack's least value over the cell, at its corner
                floor = ((t1[0] - b[1]) - t3[1]) / ((t1[0] + np.abs(b[1])) + t3[1])
                ok = (base[0] >= 0.0) & (t1[0] >= 0.0) & (t3[0] >= 0.0)
                ok &= (den[0] > 1e-300) & np.isfinite(den[1])
                floor = np.where(ok, floor - 1e-12 * (1.0 + np.abs(floor)), -math.inf)
                floors.append(floor)
        return np.concatenate(floors)

    def block_evaluator(self, p, r_vals, t_vals):
        """(evaluate, scratch, floors) for maps._share_blocks and _scan_2d:
        evaluate(bufs, cols, rows) is the slack s on the rectangle of the
        t-nodes t_vals[cols] and the r-nodes r_vals[rows], at most
        min(SCAN_COLUMNS, len(t_vals)) x len(r_vals) nodes, s[j, i] at
        (r_vals[rows][i], t_vals[cols][j]), written into one worker's three
        buffers bufs and valid until its next call; scratch(workers) makes
        every worker's buffers as one array; floors are _block_floors.  The
        terms are made here, on the calling thread."""
        consts, r_terms, t_terms = self._terms(p, r_vals, t_vals)
        cos_t, prof = t_terms

        def scratch(workers):
            return np.empty((workers, 3, min(SCAN_COLUMNS, len(t_vals)), len(r_vals)))

        def evaluate(bufs, cols, rows):
            t_cols = (cos_t[cols, None], prof[cols, None])
            r_rows = tuple(x[rows] for x in r_terms)
            shape = (len(t_cols[0]), len(r_rows[0]))
            views = (buf.reshape(-1)[: shape[0] * shape[1]].reshape(shape) for buf in bufs)
            return self._evaluate(p, consts, r_rows, t_cols, *views)

        return evaluate, scratch, self._block_floors(p, consts, r_terms, t_terms)


def _iv(ends):
    """The interval (lo, hi) spanned by the arrays ends, NaN kept."""
    return functools.reduce(np.minimum, ends), functools.reduce(np.maximum, ends)


def _iv_abs(iv):
    """The interval of |x| over the interval iv."""
    lo, hi = iv
    return np.maximum(np.maximum(lo, -hi), 0.0), np.maximum(-lo, hi)


def _mixed_consts(k_s, k_2):
    return lambda p: (sharp_constant(k_s, p), 1.0, 1.0, sharp_constant(k_2, p), 1.0)


def _sum_consts(k_m, k_2):
    return lambda p: (1.0, 1.0, sharp_constant(k_m, p), sharp_constant(k_2, p), 1.0)


def _mid_consts(p):
    # the constants extend continuously to the p = 2 endpoint (a -> 1, b -> 2),
    # where the slack vanishes identically
    if p > 2.0:
        return _mixed_consts(SC.A_HIGH_P, SC.B_HIGH_P)(p)
    return 1.0, 1.0, 1.0, 2.0, 1.0


def _radial_consts(p):
    # the literal single-radius form: the same inequality with the angle
    # restricted to the principal band, stated with the tangent factor spelled out
    return 1.0, 1.0 + math.cos(math.pi / p), 1.0, 2.0 ** (0.5 * p), math.tan(math.pi / (2.0 * p))


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
    p_range: PRange
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


def _pi_pm_pi_over_p(p):
    """Verified locus of three lemmas: r = 1, t = pi -+ pi/p modulo 2 pi."""
    return [(1.0, t) for t in _pm_mod_2pi([math.pi - math.pi / p, math.pi + math.pi / p], _EXT)]


def _stated_pi_over_p_and_shift(p):
    """Stated locus of two lemmas: r = 1, t = +-pi/p and +-(pi/p + pi) modulo 2 pi."""
    return [
        (1.0, t) for v in (math.pi / p, math.pi / p + math.pi) for t in _pm_mod_2pi([v], _EXT)
    ]


_REGISTRY: dict[InequalityId, _TagInfo] = {
    InequalityId.MIXED_BY_SUM_LOW: _TagInfo(
        2, PRange(1.0, 2.0, False, True),
        _Form(True, _mixed_consts(SC.A_LOW_P, SC.B_LOW_P), re_branch_angle), _lin(1.1, 2.0),
        r_range=(0.0, 1.0), t_range=_EXT,
        loci=lambda p: [(1.0, t) for t in _pm_mod_2pi([math.pi / p], _EXT)],
        stated_loci=_stated_pi_over_p_and_shift,
    ),
    InequalityId.MIXED_BY_SUM_RADIAL: _TagInfo(
        2, PRange(1.0, 2.0, False, False),
        _Form(True, _radial_consts, _radial_profile), _lin(1.1, 1.9),
        r_range=(0.0, 1.0), t_range=(-math.pi, math.pi),
        loci=lambda p: [(1.0, math.pi / p), (1.0, -math.pi / p)],
        stated_loci=lambda p: [(1.0, math.pi / p), (1.0, -math.pi / p)],
    ),
    InequalityId.MIXED_BY_SUM_MID: _TagInfo(
        2, PRange(2.0, 4.0, True, True), _Form(True, _mid_consts, phi_mid_angle), _lin(2.0, 4.0),
        r_range=(0.0, 1.0), t_range=_EXT,
        loci=_pi_pm_pi_over_p,
        stated_loci=lambda p: [(1.0, math.pi / p), (1.0, -math.pi / p)],
    ),
    InequalityId.MIXED_BY_SUM_HIGH: _TagInfo(
        2, PRange(4.0, 64.0, True, True),
        _Form(True, _mixed_consts(SC.A_HIGH_P, SC.B_HIGH_P), phi_high_angle), _geom(4.0, 64.0),
        r_range=(0.0, 1.0), t_range=_EXT,
        loci=_pi_pm_pi_over_p,
        stated_loci=lambda p: [
            (1.0, 0.5 * math.pi + math.pi / p),
            (1.0, -(0.5 * math.pi + math.pi / p)),
        ],
    ),
    InequalityId.SUM_BY_MIXED_HIGH: _TagInfo(
        2, PRange(2.0, 64.0, False, True),
        _Form(False, _sum_consts(SC.C_HIGH_P, SC.D_HIGH_P), theta_upper), _geom(2.25, 64.0),
        r_range=(0.0, 1.0), t_range=_EXT,
        loci=lambda p: [
            (1.0, t)
            for t in _pm_mod_2pi([math.pi / p, TWO_PI - math.pi / p], _EXT)
        ],
        stated_loci=_stated_pi_over_p_and_shift,
    ),
    InequalityId.SUM_BY_MIXED_LOW: _TagInfo(
        2, PRange(1.0, 2.0, False, False),
        _Form(False, _sum_consts(SC.C_LOW_P, SC.D_LOW_P), psi_angle), _lin(1.1, 1.9),
        r_range=(0.0, 1.0), t_range=_EXT,
        loci=_pi_pm_pi_over_p,
        stated_loci=lambda p: [
            (1.0, math.pi - math.pi / p),
            (1.0, -(math.pi - math.pi / p)),
        ],
    ),
    InequalityId.VERBITSKY_COS: _TagInfo(
        1, PRange(1.0, 2.0, False, True), _slack_verbitsky_cos, _lin(1.1, 2.0),
        t_range=(-0.5 * math.pi, 0.5 * math.pi),
        loci=lambda p: [(math.pi / (2.0 * p),), (-math.pi / (2.0 * p),)],
        stated_loci=lambda p: [(math.pi / (2.0 * p),), (-math.pi / (2.0 * p),)],
    ),
    InequalityId.CSC_GAP: _TagInfo(
        1, PRange(1.0, 64.0, False, True), _slack_csc_gap, _lin(1.5, 8.0),
        t_range=(1e-4, 0.25 * math.pi),
    ),
    InequalityId.COT_GAP: _TagInfo(
        1, PRange(1.0, 64.0, False, True), _slack_cot_gap, _lin(1.5, 8.0),
        t_range=(1e-4, 0.25 * math.pi),
    ),
    InequalityId.FACTOR_X: _TagInfo(
        0, PRange(1.0, 2.0, False, False), _slack_factor_x, _lin(1.05, 1.95)
    ),
    InequalityId.FACTOR_Y: _TagInfo(
        0, PRange(1.0, 2.0, False, False), _slack_factor_y, _lin(1.05, 1.95)
    ),
    InequalityId.ROOT_GAP_COS: _TagInfo(
        0, PRange(4.0, 64.0, True, True), _slack_root_gap_cos, _geom(4.0, 64.0)
    ),
    InequalityId.ROOT_GAP_SIN: _TagInfo(
        0, PRange(4.0, 64.0, True, True), _slack_root_gap_sin, _geom(4.0, 64.0)
    ),
    InequalityId.ROOT_GAP_PRODUCT: _TagInfo(
        0, PRange(4.0, 64.0, True, True), _slack_root_gap_product, _geom(4.0, 64.0)
    ),
    InequalityId.ROOT_GAP_ANGLE: _TagInfo(
        0, PRange(4.0, 64.0, True, True), _slack_root_gap_angle, _geom(4.0, 64.0)
    ),
}
# SUM_BY_MIXED_RADIAL is the same inequality as SUM_BY_MIXED_HIGH, under its own id
_REGISTRY[InequalityId.SUM_BY_MIXED_RADIAL] = _REGISTRY[InequalityId.SUM_BY_MIXED_HIGH]


def inequality_range(tag: InequalityId) -> tuple[float, float, bool, bool]:
    r = _REGISTRY[InequalityId(tag)].p_range
    return r.lo, r.hi, r.lo_closed, r.hi_closed


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


def scan_ranges(tag: InequalityId) -> tuple:
    """(r_range, t_range), the tag's domain, which verify_pointwise,
    locate_equality and cell_diagonal scan.  None where the tag has no such
    axis."""
    info = _REGISTRY[InequalityId(tag)]
    return info.r_range, info.t_range


def cell_diagonal(tag: InequalityId, grid: GridSpec) -> float:
    """Diagonal of one cell of the grid over the tag's domain (the cell
    width for one-variable tags); a scalar tag has no cell."""
    tag = InequalityId(tag)
    cells = zip(scan_ranges(tag), (grid.r_nodes, grid.t_nodes))
    widths = [(axis[1] - axis[0]) / (n - 1) for axis, n in cells if axis]
    if not widths:
        raise ValueError(f"{tag.value} is a scalar inequality with no grid cell")
    return math.hypot(*widths)


# t-nodes per block of the 2-D scan: a block is (SCAN_COLUMNS, whole r row),
# 256 KB per buffer against the default 2000 r-nodes, so a form's three
# buffers stay in a 2 MB L2 cache and every broadcast runs along a full r row
SCAN_COLUMNS = 16

# r-nodes per cell of _Form._block_floors, and t-blocks per group of cells
# formed at a time: a group's arrays are (FLOOR_GROUP, r_nodes / R_CHUNK),
# 20 KB at the default grid
R_CHUNK = 25
FLOOR_GROUP = 32


def _keep_heap(nbytes: int) -> None:
    """Allocate and free nbytes once, so that later temporaries of a block
    reuse heap pages instead of faulting in fresh ones.

    glibc serves a large request from its own mapping; freeing it raises the
    mmap threshold to its size and the heap trim threshold to twice that.
    Below those thresholds a block's freed temporaries stay on the heap for
    the next block, where otherwise every block returns them to the kernel
    and faults them in again.  Other allocators ignore it.

    Measured on the swept circle stages (battery.submean_reports, then
    pluri_line_reports, at their defaults, first in a fresh process; 6
    alternating pairs, 2 CPUs): without it they took 14.8k-42.9k and
    9.0k-24.5k minor page faults instead of 724-803 and 33-70, and
    submean_reports was slower in 6 of 6 pairs (0.23-0.37 s against
    0.22-0.36 s), pluri_line_reports in 5 of 6; ru_maxrss stayed at about
    87.5 MB either way.  Run after lemma_grid_reports, as in the suite, the
    faults and times are level with or without it: the scans' freed buffers
    have already raised both thresholds.
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


def _fold_block(i0, j0, s, tol):
    """(best, bad) of the rectangle s, where s[j, i] is the slack at grid
    node (i0 + i, j0 + j): best is its smallest (value, row, col) and bad its
    first MAX_VIOLATIONS (row, col, slack) violations in row-major order (r
    outer).

    The first minimum is the first r with the smallest per-r minimum, then
    the first t in that column with that value; NaN never sets it.  A
    rectangle whose minimum is at least -tol and whose maximum is finite
    holds no violation and is not searched.
    """
    i, v = _first_min(np.fmin.reduce(s, axis=0))
    j = int(np.argmax(s[:, i] == v))  # 0 when the rectangle is all NaN
    if v < math.inf:
        v = float(s[j, i])  # fmin may return either zero; keep this node's sign
    if v >= -tol and math.isfinite(v) and math.isfinite(s.max()):
        return (v, i0 + i, j0 + j), []
    nodes = np.argwhere(_violated(s.T, tol))[:MAX_VIOLATIONS]
    return (v, i0 + i, j0 + j), [
        (i0 + int(bi), j0 + int(bj), float(s[bj, bi])) for bi, bj in nodes
    ]


def _rectangles(kept, n_r, n_t):
    """The (j0, j1, i0, i1) rectangles, t-nodes j0:j1 by r-nodes i0:i1, that
    cover the kept cells of the (blocks, cells) mask kept: each block's r-span
    from its first to its last kept cell, with consecutive blocks joined
    into one rectangle while it fits one worker's buffers of
    min(SCAN_COLUMNS, n_t) x n_r nodes.  Cell c is r-nodes c R_CHUNK up to
    the next cell, the last cell up to n_r."""
    edges = np.minimum(np.arange(kept.shape[1] + 1) * R_CHUNK, n_r)
    edges[-1] = n_r
    room = min(SCAN_COLUMNS, n_t) * n_r
    rects = []
    for b in np.flatnonzero(kept.any(axis=1)):
        cells = np.flatnonzero(kept[b])
        j0, j1 = int(b) * SCAN_COLUMNS, min((int(b) + 1) * SCAN_COLUMNS, n_t)
        i0, i1 = int(edges[cells[0]]), int(edges[cells[-1] + 1])
        if rects:
            a0, a1, c0, c1 = rects[-1]
            lo, hi = min(c0, i0), max(c1, i1)
            if a1 == j0 and (j1 - a0) * (hi - lo) <= room:
                rects[-1] = (a0, j1, lo, hi)
                continue
        rects.append((j0, j1, i0, i1))
    return rects


def _scan_2d(slack_fn, p, r_vals, t_vals, tol):
    """Minimum, first minimal node and violations of the slack on the r x t
    grid, all in row-major order (r outer), as if the grid were one array.

    The grid is evaluated in rectangles of at most SCAN_COLUMNS t-nodes by
    the whole r row: a _Form's buffered blocks, or column blocks of any other
    elementwise callable.  Each rectangle is evaluated and folded on its own
    (_fold_block, mapped by maps._share_blocks), and the rectangles are
    merged once: the smallest (value, row, col), and the first
    MAX_VIOLATIONS of their violations.

    A cell of a block is skipped when it provably holds neither the minimum
    nor a violation: its floor (_Form._block_floors; -inf for any other
    callable) is at least -tol and above the probe's minimum.  The probe is
    the block with the least finite floor, folded first, whole, on the
    calling thread; its minimum is a slack of the grid, so every node of a
    skipped cell lies strictly above the grid's minimum.  Every other block
    is evaluated over the r-span from its first to its last kept cell (see
    _rectangles), and the probe's fold is merged with the rest.  So the
    skipped cells change no result.
    """
    n_r, n_t = len(r_vals), len(t_vals)
    if isinstance(slack_fn, _Form):
        evaluate, scratch, floors = slack_fn.block_evaluator(p, r_vals, t_vals)
    else:
        scratch, floors = None, np.full((-(-n_t // SCAN_COLUMNS), 1), -math.inf)

        def evaluate(_, cols, rows):
            return slack_fn(p, r_vals[None, rows], t_vals[cols, None])

    def fold(bufs, rect):
        j0, j1, i0, i1 = rect
        return _fold_block(i0, j0, evaluate(bufs, slice(j0, j1), slice(i0, i1)), tol)

    blocks = []
    skip = np.isfinite(floors) & (floors >= -tol)
    if skip.any():
        k = int(np.argmin(np.where(np.isfinite(floors), floors, math.inf).min(axis=1)))
        j0 = k * SCAN_COLUMNS
        # one rectangle: the probe runs on the calling thread, so a scan
        # starts its helper threads once, as a scan of every block does
        blocks = _share_blocks([(j0, min(j0 + SCAN_COLUMNS, n_t), 0, n_r)], fold, scratch)
        skip &= floors > blocks[0][0][0]
        skip[k] = True
    blocks += _share_blocks(_rectangles(~skip, n_r, n_t), fold, scratch)
    # a grid without a finite minimum reports its first node
    min_slack, i, j = min([(math.inf, 0, 0)] + [best for best, _ in blocks])
    bad = sorted(v for _, part in blocks for v in part)[:MAX_VIOLATIONS]
    violations = [((float(r_vals[bi]), float(t_vals[bj])), sv) for bi, bj, sv in bad]
    return min_slack, (float(r_vals[i]), float(t_vals[j])), violations


def _scan_1d(slack_fn, p, x_vals, tol):
    """_scan_2d's result for a one-variable slack: the one-column block."""
    (min_slack, _, j), bad = _fold_block(0, 0, slack_fn(p, x_vals)[:, None], tol)
    return min_slack, (float(x_vals[j]),), [((float(x_vals[k]),), s) for _, k, s in bad]


def _axis(lo, hi, n, open_lo=False):
    if open_lo:
        lo = lo + (hi - lo) / n
    return np.linspace(lo, hi, n)


def _scan_axes(ranges, nodes):
    """The scan axes over ranges, (t,) or (r, t), and the scanner for them.
    nodes gives the (r, t) node counts; an r axis from 0 leaves r = 0 out."""
    axes = [
        _axis(lo, hi, n, open_lo=(k < len(ranges) - 1 and lo == 0.0))
        for k, ((lo, hi), n) in enumerate(zip(ranges, nodes[-len(ranges) :]))
    ]
    return axes, (_scan_1d if len(axes) == 1 else _scan_2d)


def verify_pointwise(
    tag: InequalityId, p: float, grid: GridSpec | None = None
) -> VerificationReport:
    """Scan the tag's slack on the full grid plus one local refinement pass
    around the minimum; report min_slack, argmin, and any violations.

    A scalar tag is evaluated once.  Otherwise the scan and its refinement
    are one path over the tag's axes, (t,) or (r, t): the refinement takes
    2 refine_factor + 1 nodes per axis within one cell of the minimum,
    clamped to the axis."""
    tag = InequalityId(tag)
    info = _REGISTRY[tag]
    p = info.p_range.check(tag.value, p)
    grid = grid or GridSpec()
    acc = SlackAccumulator()

    if info.arity == 0:
        s = float(info.slack(p))
        acc.add((p,), s, bool(_violated(s, grid.tolerance)))
        return acc.report(id=tag.value, p=p, grid={"kind": "scalar"}, tolerance=grid.tolerance)

    ranges = [axis for axis in scan_ranges(tag) if axis]
    axes, scan = _scan_axes(ranges, (grid.r_nodes, grid.t_nodes))
    names = "rt"[-len(axes) :]
    scan_grid = {f"{x}_nodes": len(v) for x, v in zip(names, axes)}
    for x, (_, hi), v in zip(names, ranges, axes):
        scan_grid[f"{x}_range"] = [float(v[0]), float(hi)]
    # the full-grid scan sets the minimum; the refinement pass can only lower it
    acc.min_slack, acc.argmin, acc.violations = scan(info.slack, p, *axes, grid.tolerance)
    refined = []
    for v, a in zip(axes, acc.argmin):
        d = (v[-1] - v[0]) / (len(v) - 1)
        refined.append(np.linspace(max(v[0], a - d), min(v[-1], a + d), 2 * grid.refine_factor + 1))
    m2, a2, v2 = scan(info.slack, p, *refined, grid.tolerance)
    acc.add(a2, m2)
    for label, s in v2:
        acc.flag(label, s)
    return acc.report(id=tag.value, p=p, grid=scan_grid, tolerance=grid.tolerance)


def locate_equality(tag: InequalityId, p: float) -> tuple[tuple, float]:
    """Coarse-to-fine minimization of the slack over the tag's default
    domain: a 1024-node (t) or 512 x 1024 (r, t) grid, then three zoom
    passes of 129 (t) or 65 x 65 nodes within two cells of the last minimum.

    Returns (minimizer, slack at minimizer) of the last pass.
    """
    tag = InequalityId(tag)
    info = _REGISTRY[tag]
    p = info.p_range.check(tag.value, p)
    if info.arity == 0:
        return (p,), float(info.slack(p))

    ranges = [axis for axis in scan_ranges(tag) if axis]
    axes, scan = _scan_axes(ranges, (512, 1024))
    zoom = 129 if len(axes) == 1 else 65
    for _ in range(3):
        _, a, _ = scan(info.slack, p, *axes, math.inf)
        axes = [
            np.linspace(max(lo, x - 2 * (v[1] - v[0])), min(hi, x + 2 * (v[1] - v[0])), zoom)
            for (lo, hi), v, x in zip(ranges, axes, a)
        ]
    m, a, _ = scan(info.slack, p, *axes, math.inf)
    return a, m


# ------------------------------ subharmonicity ------------------------------


# circles per block of the sub-mean checks: a 16-circle block at the default
# 1024 angles is 256 KB of complex nodes, and a circle helper's allocator
# arena keeps about 2 MB.  On the sweeps (3 fresh processes each), 8 circles
# took submean_reports 0.27-0.41 s against 0.23-0.36 s, and 32 or 64 were no
# faster beyond that spread but raised ru_maxrss from 87 MB to 90 and 96-99 MB
CIRCLE_BLOCK = 16

# the deficit tolerances of the sub-mean and the complex-line checks
SUBMEAN_TOLERANCE = 1e-9
PLURI_TOLERANCE = 1e-8


def _check_circles(centers: int, radii: int, angles: int, seed: int, tolerance: float) -> None:
    """The arguments both circle checks share, checked in this order."""
    _check_integer("centers", centers, 1)
    _check_integer("radii", radii, 1)
    _check_integer("angles", angles)
    # the two-grid estimate averages every second node, so the count is even
    if angles < 256 or angles % 2:
        raise ValueError(f"angles must be an even number >= 256, got {angles}")
    _check_integer("seed", seed, 0)
    if not (math.isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")


def _mean_and_estimate(vals):
    """Row means of (k, angles) circle values, and their two-grid
    discretization-error estimates |mean - mean over every second node|."""
    vals = np.asarray(vals, dtype=float)
    means = vals.mean(axis=1)
    return means, np.abs(means - vals[:, ::2].mean(axis=1))


def _circle_means(points, cases, centers, rhos, angles: int):
    """Trapezoid means of every case over the circles |z - centers[k]| =
    rhos[k], and their two-grid estimates: one (means, errs) pair per case.

    A block of CIRCLE_BLOCK circles is a (k, angles) array z of nodes, and
    points(rows, z) the points zeta of the circles in the slice rows.  zeta
    is decomposed once per block into theta = arg zeta and modulus = |zeta|;
    then each case(z, theta, modulus) gives its values, reduced to their
    means and estimates before the next case runs, so one case's values are
    alive at a time.  The blocks are mapped by maps._share_blocks, and each
    case's results are joined in block order."""
    nodes = np.exp(1j * (np.arange(angles) * (TWO_PI / angles)))
    centers = np.asarray(centers, dtype=complex)
    rhos = np.asarray(rhos, dtype=float)
    _keep_heap(8 * nodes.nbytes * min(CIRCLE_BLOCK, len(rhos)))  # eight node blocks

    def block(_, k0):
        rows = slice(k0, k0 + CIRCLE_BLOCK)
        z = centers[rows, None] + rhos[rows, None] * nodes
        theta, modulus = _polar_parts(points(rows, z))
        return [_mean_and_estimate(case(z, theta, modulus)) for case in cases]

    blocks = _share_blocks(range(0, len(rhos), CIRCLE_BLOCK), block)
    return [[np.concatenate(part) for part in zip(*per_case)] for per_case in zip(*blocks)]


def _circle_reports(cases, groups, zetas, points, angles, tolerance, **fields):
    """One report per case, in case order, of the sub-mean deficits over the
    circles of groups.

    cases are (id, p, values, on_circle).  groups are (label, center, radii):
    circle k of a group has the label label + (radii[k],), and zetas holds
    the point zeta at each group's center.  values(z, theta, modulus)
    evaluates a case at circle points z whose zeta has the polar parts
    (theta, modulus): at a center as a 0-d call, on the blocks of
    _circle_means (with points).  A deficit is mean - center value + 2 err,
    cushioned by twice the two-grid estimate err; below -tolerance or not
    finite, it is a violation.  on_circle(acc, g, rho, mean, err), if given,
    runs right after the deficit of each circle of group g.  Every report's
    elapsed_ms counts from the start of the shared circle means."""
    accs = [SlackAccumulator() for _ in cases]
    # one 0-d call per center: an array call need not give the same bits
    parts = [_polar_parts(zeta) for zeta in zetas]
    results = _circle_means(
        points,
        [values for _, _, values, _ in cases],
        [center for _, center, rhos in groups for _ in rhos],
        [rho for *_, rhos in groups for rho in rhos],
        angles,
    )
    reports = []
    for acc, (tag, p, values, on_circle), (means, errs) in zip(accs, cases, results):
        center_values = [
            float(np.real(values(np.asarray(center), *part)))
            for (_, center, _), part in zip(groups, parts)
        ]
        deficits = means - np.repeat(center_values, [len(rhos) for *_, rhos in groups]) + 2.0 * errs
        violated = _violated(deficits, tolerance)
        k = 0
        for g, (label, _, rhos) in enumerate(groups):
            for rho in rhos:
                acc.add(label + (rho,), float(deficits[k]), violated[k])
                if on_circle is not None:
                    on_circle(acc, g, rho, float(means[k]), float(errs[k]))
                k += 1
        reports.append(acc.report(id=tag, p=p, tolerance=tolerance, **fields))
    return reports


def _minorant_fn(mid: Minorant, p: float) -> Callable:
    """z -> minorant_value(mid, z, p), for a single-variable minorant and a p
    in its range (ValueError otherwise)."""
    mid = Minorant(mid)
    if mid in (Minorant.F_PAIR, Minorant.G_PAIR):
        raise ValueError(
            f"{mid.value} is a two-variable minorant; use check_pluri_lines"
        )
    _MINORANTS[mid][1].check(mid.value, p)
    return lambda z: minorant_value(mid, z, p)


def _minorant_values(mid: Minorant, p: float) -> Callable:
    """values(z, theta, modulus) of the minorant mid at a p in its range
    (ValueError otherwise): |zeta|^{p/2} profile(theta, p) from the polar
    parts of zeta, the formula and the bits of minorant_value and of the
    pairs' minorant_F and minorant_G."""
    profile, p_range = _MINORANTS[mid]
    p = p_range.check(mid.value, p)
    return lambda z, theta, modulus: _polar_product(theta, modulus, profile, p)


def _line_zeta(z0, w0, w1, w2, tau):
    """zeta = z w at the points (z, w) = (z0 + tau w1, w0 + tau w2) of a
    complex line, with the bits of constants._pair."""
    return np.asarray(z0 + tau * w1, dtype=complex) * np.asarray(w0 + tau * w2, dtype=complex)


def origin_circle_mean(mid: Minorant, p: float, rho: float) -> float:
    """Circle average over |z| = rho of a single-variable minorant, by an
    independent route: closed form for the cosine-family profiles,

        mean = +/- 2 sin(p pi / 2) / (p pi) * rho^{p/2},

    adaptive quadrature of the angular profile for the theta-based ones.
    p must lie in the minorant's range and rho must be >= 0.
    """
    mid = Minorant(mid)
    fn = _minorant_fn(mid, p)
    if not rho >= 0.0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    scale = rho ** (0.5 * p)
    if mid is Minorant.RE_BRANCH:
        return 2.0 * math.sin(0.5 * p * math.pi) / (p * math.pi) * scale
    if mid is Minorant.PHI_MID:
        return -2.0 * math.sin(0.5 * p * math.pi) / (p * math.pi) * scale
    if mid is Minorant.PSI and p < 2.0:
        return 2.0 * math.sin(0.5 * p * math.pi) / (p * math.pi) * scale

    def profile(theta: float) -> float:
        return float(fn(np.exp(1j * theta)))

    val, _ = integrate.quad(profile, -math.pi, math.pi, limit=400, epsabs=1e-12)
    return val / TWO_PI * scale


def _submean_case(minorant_or_fn, p, centers: int, angles: int) -> tuple:
    """(id, p, values, on_circle) of one sub-mean case for _circle_reports.
    A minorant's origin circles (group centers) are compared with
    origin_circle_mean; that mean is rho^{p/2} times its value at rho = 1,
    so its profile integral runs once per case."""
    if callable(minorant_or_fn):
        fn = minorant_or_fn
        return getattr(fn, "__name__", "custom"), p, lambda z, theta, modulus: fn(z), None
    mid = Minorant(minorant_or_fn)
    unit = origin_circle_mean(mid, p, 1.0)  # ValueError for a pair or a p out of range

    def on_circle(acc, g, rho, mean, err):
        if g == centers:  # the origin, compared with its independent mean
            ref = unit * rho ** (0.5 * p)
            allowance = 64.0 * max(1.0, abs(ref)) / angles**2 + 4.0 * err + 1e-10
            if abs(mean - ref) > allowance:
                acc.flag((0.0, 0.0, rho), float(mean - ref))

    return mid.value, p, _minorant_values(mid, p), on_circle


def submean_sweep(cases, centers: int, radii: int, angles: int, seed: int, tolerance: float):
    """check_submean of every (minorant_or_fn, p) in cases, on one draw of
    circles: one report per case, in case order, each with the payload of
    its own check_submean call (elapsed_ms aside).

    Every case is checked before any circle is drawn.  The circles depend
    only on seed, centers and radii, so they are drawn once, and each block
    of circles is decomposed once into arg z and |z| for every minorant
    case; a callable case gets fn(z) at the block's nodes z."""
    _check_circles(centers, radii, angles, seed, tolerance)
    cases = [_submean_case(case, p, centers, angles) for case, p in cases]
    rng = np.random.default_rng(seed)
    groups = []  # (label, center, its circle radii), drawn centers first, the origin last
    for _ in range(centers):
        z0 = complex(2.0 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, TWO_PI)))
        rhos = [abs(z0) * rng.uniform(1e-3, 1.0) for _ in range(radii)]
        groups.append(((z0.real, z0.imag), z0, rhos))
    # explicit origin pass with the independent mean comparison
    groups.append(((0.0, 0.0), 0.0 + 0.0j, [2.0 * rng.uniform(1e-3, 1.0) for _ in range(radii)]))
    return _circle_reports(
        cases,
        groups,
        [center for _, center, _ in groups],
        lambda rows, z: z,
        angles,
        tolerance,
        grid={"centers": centers, "radii": radii, "angles": angles},
        seed=seed,
    )


def pluri_line_sweep(
    cases, n_lines: int, seed: int, centers: int, radii: int, angles: int, tolerance: float
):
    """check_pluri_lines of every (minorant, p) in cases, on one draw of
    lines and circles: one report per case, in case order, each with the
    payload of its own check_pluri_lines call (elapsed_ms aside).  Every
    case is checked before anything is drawn, and each block of circles is
    decomposed once for every case: zeta = z w on the line."""
    checked = []
    for mid, p in cases:
        mid = Minorant(mid)
        if mid not in (Minorant.F_PAIR, Minorant.G_PAIR):
            raise ValueError("check_pluri_lines applies to the two-variable minorants")
        checked.append((mid.value, p, _minorant_values(mid, p), None))
    _check_integer("n_lines", n_lines, 16)
    _check_circles(centers, radii, angles, seed, tolerance)
    rng = np.random.default_rng(seed)
    groups, lines = [], []  # (label, center, its circle radii), and each group's line
    for line in range(n_lines):
        coeffs = tuple(
            complex(math.sqrt(rng.uniform()) * 1.25 * np.exp(1j * rng.uniform(0, TWO_PI)))
            for _ in range(4)
        )
        for _ in range(centers):
            c = complex(math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, TWO_PI)))
            rhos = [0.75 * rng.uniform(1e-3, 1.0) for _ in range(radii)]
            groups.append(((line, c.real, c.imag), c, rhos))
            lines.append(coeffs)
    # each circle's line coefficients, as (circles, 1) columns
    z0s, w0s, w1s, w2s = np.repeat(lines, radii, axis=0).T[:, :, None]
    return _circle_reports(
        checked,
        groups,
        [_line_zeta(*coeffs, np.asarray(c)) for coeffs, (_, c, _) in zip(lines, groups)],
        lambda rows, tau: _line_zeta(z0s[rows], w0s[rows], w1s[rows], w2s[rows], tau),
        angles,
        tolerance,
        grid={"n_lines": n_lines, "centers": centers, "radii": radii, "angles": angles},
        seed=seed,
    )


def check_submean(
    minorant_or_fn,
    p: float,
    centers: int = 64,
    radii: int = 16,
    angles: int = 1024,
    seed: int = 0,
    tolerance: float = SUBMEAN_TOLERANCE,
) -> VerificationReport:
    """Sub-mean-value test: circle averages must dominate the center value.

    Random centers in the disk of radius 2 with random circle radii
    rho <= |z0| (plus z0 = 0 explicitly, where the trapezoid average is also
    compared against origin_circle_mean; that mean is rho^{p/2} times its
    value at rho = 1, so its profile integral runs once per call).  The
    deficit is cushioned by twice the two-grid discretization estimate, so
    exact-equality (harmonic) cases are not flagged by trapezoid noise while
    genuine violations, which are O(1), still surface; a non-finite deficit
    is a violation.  This is the one-case submean_sweep.  The circles are
    evaluated in blocks on every usable CPU (see maps._share_blocks), so a
    custom callable must act elementwise on a (k, angles) array and be safe
    to call from several threads at once.  angles must be even and >= 256,
    and tolerance finite and > 0.
    """
    return submean_sweep([(minorant_or_fn, p)], centers, radii, angles, seed, tolerance)[0]


def check_pluri_lines(
    mid: Minorant,
    p: float,
    n_lines: int = 64,
    seed: int = 0,
    centers: int = 6,
    radii: int = 4,
    angles: int = 1024,
    tolerance: float = PLURI_TOLERANCE,
) -> VerificationReport:
    """Plurisubharmonicity probe: restrict the two-variable minorant to random
    complex lines tau -> (z0 + tau w1, w0 + tau w2) and run the sub-mean test
    on the restriction.  Constant lines give deficit 0 by construction.  This
    is the one-case pluri_line_sweep: the circles of all lines are evaluated
    in blocks on every usable CPU (see maps._share_blocks)."""
    return pluri_line_sweep([(mid, p)], n_lines, seed, centers, radii, angles, tolerance)[0]

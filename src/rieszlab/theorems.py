"""End-to-end verification of the function-space theorems on sampled
harmonic polynomials, closed-form line pairs, and the Calderon family.

Each tag binds a hypothesis class (a constraint on g(0)h(0), or a structural
form like holomorphic h = 0), a left- and right-hand side computed through
the norm machinery, and the sharp constant.  Sharpness is reported as a
statistic (max observed ratio LHS/RHS), never asserted as attained: the
extremizers lie outside the polynomial class.  Only the Calderon probes make
a quantitative approach claim, and only for p < 2, where the family's
boundary ratios (sec, sin, tan of gamma) converge to the constants from
below.

Two tables hold the catalogs, one row per entry.  A row of _TAGS holds a
tag's exponent range, its constant, the class of g(0)h(0) its maps are drawn
from and, for a mixed-norm tag, its layout (disk norms?, mixed norm on the
left?).  MIXED_BY_HARDY_RELAXED is the row of MIXED_BY_HARDY with the
hypothesis Re(g(0)h(0)) >= 0, under which the bound holds for p <= 3 only.
A row of _PROBES holds the two components of the Calderon family's trace
whose norms a probe tag compares.

Every tag's two sides come from one function, _block_sides, which takes a
tuple of exponents.  A battery call draws its whole seed range once as
coefficient arrays (maps.random_coefficients, one numpy generator per seed),
and theorem_sweep evaluates every exponent of a tag on that one draw:
verify_theorem is its one-exponent call.  Each exponent of a sampled tag is
a list of terms, each the rings it evaluates on one rule (spec, radius), and
_shared_sides hands the terms of every exponent that share a rule to
quadrature._means in one call, the one rule behind every polynomial norm,
which decides how the rows are blocked.  So each factor row of a draw is
transformed once per rule, however many exponents and rings read its
traces; no per-sample map objects are built.  isoperimetric_sweep runs the
isoperimetric application on two such passes: STREBEL and
PAIR_ISOPERIMETRIC on the rows (a, b), and BERGMAN_EMBEDDING with the
isoperimetric chain on the normalized rows (g, h), the chain's rings on
its first rows only.  isoperimetric_chain is the chain's one-map call.
Only the line tag evaluates one case at a time.  Every LHS and RHS is
bit-identical to drawing one sample at a time and evaluating it through
the public norms.

Every sampled bound LHS <= c * RHS, the links of the isoperimetric chain
included, is judged by one function, _judge: a case's slack is the relative
slack (c*RHS - LHS)/(c*RHS), and a slack below -REL_TOL (or the caller's
rel_tol) is a violation.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .constants import RIESZ_P, PRange, SharpConstant as SC, sharp_constant
from .hilbert import LineKind, LinePair, line_lp_norm
from .maps import (
    CalderonFamily,
    Constraint,
    HarmonicMap,
    TaylorPoly,
    _normalized_rows,
    random_coefficients,
)
from .quadrature import (
    P_MAX,
    _map_ring,
    _means,
    _modulus_ring,
    _pair_ring,
    _product_ring,
    auto_spec,
    calderon_norm,
)
from .reporting import SlackAccumulator, VerificationReport, _check_integer

__all__ = [
    "TheoremId",
    "theorem_constant",
    "theorem_sides",
    "theorem_sweep",
    "verify_theorem",
    "isoperimetric_sweep",
    "isoperimetric_chain",
    "verify_pair_isoperimetric",
    "sharpness_probe",
]


class TheoremId(Enum):
    MIXED_BY_HARDY = "MIXED_BY_HARDY"            # |||f|||_p <= A_p ||f||_p, Re(g0 h0) = 0
    MIXED_BY_HARDY_RELAXED = "MIXED_BY_HARDY_RELAXED"  # the same for Re(g0 h0) >= 0, p <= 3
    HARDY_BY_MIXED = "HARDY_BY_MIXED"            # ||f||_p <= B_p |||f|||_p, Re(g0 h0) <= 0
    CONJUGATE_NORM = "CONJUGATE_NORM"            # ||f~||_p <= cot(pi/2pbar) ||f||_p
    ANALYTIC_BY_RE = "ANALYTIC_BY_RE"            # ||g||_p <= csc(pi/2pbar) ||Re g||_p, Im g(0)=0
    IM_BY_ANALYTIC = "IM_BY_ANALYTIC"            # ||Im g||_p <= cos(pi/2pbar) ||g||_p, Im g(0)=0
    BERGMAN_MIXED_BY_NORM = "BERGMAN_MIXED_BY_NORM"  # Bergman version of MIXED_BY_HARDY
    BERGMAN_NORM_BY_MIXED = "BERGMAN_NORM_BY_MIXED"  # Bergman version of HARDY_BY_MIXED
    LINE_PAIRS = "LINE_PAIRS"                    # ||phi~||_p <= cot(pi/2pbar) ||phi||_p, catalog
    BERGMAN_EMBEDDING = "BERGMAN_EMBEDDING"      # ||f||_{b^{2n}} <= (1/2)csc(pi/4n) ||f||_{h^n}
    STREBEL = "STREBEL"                          # int_U |f|^2 <= (int_T |f|)^2, holomorphic f
    PAIR_ISOPERIMETRIC = "PAIR_ISOPERIMETRIC"    # int_U S^{2p} <= (int_T S^p)^2


# relative slack tolerance of every sampled bound (_judge)
REL_TOL = 1e-9
# PAIR_ISOPERIMETRIC's b of seed s is the g of seed s + _PAIR_SHIFT
_PAIR_SHIFT = 10_000_019

# the exponent of each tag: the norms are defined up to P_MAX, and the disk
# sides of BERGMAN_EMBEDDING and PAIR_ISOPERIMETRIC are means of the 2n-th and
# 2p-th powers; STREBEL compares |f|^2 with |f|, at p = 1
_NORM_TAG = PRange(1.0, P_MAX, False, True)
_A, _B = partial(sharp_constant, SC.A), partial(sharp_constant, SC.B)
_COT = partial(sharp_constant, SC.HILBERT_NORM)

# tag -> (range of p, or of the integer n; constant at the checked p or n;
# class of g(0)h(0) of the sampled maps; (disk norms?, mixed norm on the
# left?) for the mixed-norm tags, else None)
_TAGS: dict[TheoremId, tuple[PRange, Callable, Constraint, tuple[bool, bool] | None]] = {
    TheoremId.MIXED_BY_HARDY: (_NORM_TAG, _A, Constraint.RE_ZERO, (False, True)),
    # the relaxed hypothesis holds for p <= 3 only
    TheoremId.MIXED_BY_HARDY_RELAXED: (
        PRange(1.0, 3.0, False, True), _A, Constraint.RE_NONNEG, (False, True)
    ),
    TheoremId.HARDY_BY_MIXED: (_NORM_TAG, _B, Constraint.RE_NONPOS, (False, False)),
    TheoremId.CONJUGATE_NORM: (_NORM_TAG, _COT, Constraint.NONE, None),
    # csc(pi/(2 pbar)); the sec variant fails numerically for p != 2
    TheoremId.ANALYTIC_BY_RE: (
        _NORM_TAG, partial(sharp_constant, SC.VERBITSKY_CSC), Constraint.NONE, None
    ),
    # cos(pi/(2 pbar)) (= 1/VERBITSKY_SEC); the sin variant is falsified
    TheoremId.IM_BY_ANALYTIC: (
        _NORM_TAG, lambda p: 1.0 / sharp_constant(SC.VERBITSKY_SEC, p), Constraint.NONE, None
    ),
    TheoremId.BERGMAN_MIXED_BY_NORM: (_NORM_TAG, _A, Constraint.RE_ZERO, (True, True)),
    # sqrt(2) cos(pi/(2 pbar)); the sqrt(2) sin variant is falsified by f = z
    # at p = 4 (regression-locked in the tests)
    TheoremId.BERGMAN_NORM_BY_MIXED: (_NORM_TAG, _B, Constraint.RE_NONPOS, (True, False)),
    TheoremId.LINE_PAIRS: (RIESZ_P, _COT, Constraint.NONE, None),
    TheoremId.BERGMAN_EMBEDDING: (
        PRange(2, int(P_MAX / 2), True, True, integer=True),
        lambda n: sharp_constant(SC.ISOP, n=n),
        Constraint.NONE,
        None,
    ),
    TheoremId.STREBEL: (PRange(1.0, 1.0, True, True), lambda p: 1.0, Constraint.NONE, None),
    TheoremId.PAIR_ISOPERIMETRIC: (
        PRange(0.0, P_MAX / 2, False, True), lambda p: 1.0, Constraint.NONE, None
    ),
}

# the Calderon probes approach their constants from below for p < 2 only
_PROBE_P = PRange(1.0, 2.0, False, False)
# probe tag -> (numerator, denominator): the components of the family's trace
# whose p-norms the ratio compares (calderon_norm's part)
_PROBES = {
    TheoremId.CONJUGATE_NORM: ("im", "re"),
    TheoremId.ANALYTIC_BY_RE: ("analytic", "re"),
    TheoremId.IM_BY_ANALYTIC: ("im", "analytic"),
}

_LINE_CATALOG = (
    LinePair(LineKind.POISSON_KERNEL, 1.0),
    LinePair(LineKind.POISSON_KERNEL, 0.5),
    LinePair(LineKind.LORENTZIAN),
    LinePair(LineKind.INDICATOR),
)


def theorem_constant(tag: TheoremId, p: float | None = None, n: int | None = None) -> float:
    """The constant appearing on the right-hand side of a tag's bound.  p
    (n for BERGMAN_EMBEDDING) must lie in the tag's range (_TAGS)."""
    tag = TheoremId(tag)
    p_range, constant, _, _ = _TAGS[tag]
    return constant(p_range.check(tag.value, n if p_range.integer else p))


def _check_exponents(tag: TheoremId, exponents: tuple) -> list[float]:
    """The constant of tag at each of exponents, every exponent checked
    against the tag's range (_TAGS) before anything is drawn; ValueError
    names an empty or repeated tuple."""
    if not exponents:
        raise ValueError(f"exponents must be a nonempty tuple, got {exponents}")
    # p_or_n is the n of BERGMAN_EMBEDDING
    constants = [theorem_constant(tag, p=e, n=e) for e in exponents]
    if len(set(exponents)) < len(exponents):
        raise ValueError(f"exponents must not repeat, got {exponents}")
    return constants


def _check_draw(samples: int, degree: int, seed: int) -> None:
    """ValueError naming the field unless samples >= 1, degree >= 0 and seed
    are integers (a bool is none)."""
    for name, value in (("samples", samples), ("degree", degree), ("seed", seed)):
        _check_integer(name, value)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")


def _norms(p: float, *rings: Sequence[float]) -> tuple[list[float], ...]:
    """(mean)^(1/p) of each row mean of each ring: the rings' p-norms."""
    return tuple([mean ** (1.0 / p) for mean in means] for means in rings)


def _squared_rhs(lhs: list[float], rhs: list[float]) -> tuple[list[float], list[float]]:
    """The sides of a bound int_U ... <= (int_T ...)^2 from its two means."""
    return lhs, [mean**2 for mean in rhs]


# A term is (spec, r, rings): rings whose means quadrature._means takes on the
# rule (spec, r), the disk for r=None, over a call's factor rows.


def _terms(tag: TheoremId, p_or_n, degree: int):
    """(terms, finish) of a sampled tag at one exponent: finish takes the
    means of the terms' rings, in term and ring order (the LHS ring first),
    and returns (LHS values, RHS-without-constant values), one per row.
    The rings take the tag's factors (_factors)."""
    if tag is TheoremId.PAIR_ISOPERIMETRIC:
        p = float(p_or_n)
        twice = 2.0 * p
        return [
            (auto_spec(degree, 2.0 * twice), None, [partial(_pair_ring, twice)]),
            (auto_spec(degree, 2.0 * p), 1.0, [partial(_pair_ring, p)]),
        ], _squared_rhs
    if tag is TheoremId.BERGMAN_EMBEDDING:
        n, p = float(p_or_n), 2.0 * p_or_n
        return [
            (auto_spec(degree, p), None, [partial(_map_ring, p)]),
            (auto_spec(degree, n), 1.0, [partial(_map_ring, n)]),
        ], lambda bergman, hardy: _norms(p, bergman) + _norms(n, hardy)
    if tag is TheoremId.STREBEL:
        # the map g + conj(0) has modulus |g|
        return [
            (auto_spec(degree, 2.0), None, [partial(_modulus_ring, 2.0)]),
            (auto_spec(degree, 1.0), 1.0, [partial(_modulus_ring, 1.0)]),
        ], _squared_rhs
    p = float(p_or_n)
    layout = _TAGS[tag][3]
    if layout:
        disk, mixed_lhs = layout
        rings = [partial(_map_ring, p), partial(_pair_ring, p / 2.0)]
        r = None if disk else 1.0
        return [(auto_spec(degree, p), r, rings[::-1] if mixed_lhs else rings)], partial(_norms, p)
    if tag is TheoremId.CONJUGATE_NORM:
        # the conjugate of the normalized map is (-i g, -i h) (conjugate_map),
        # of modulus |g - conj(h)|: multiplying by -i is exact, so the ring
        # has the bits of the ring of (-i g, -i h)
        rings = [lambda g, h: np.abs(g - np.conj(h)) ** p, partial(_map_ring, p)]
    elif tag is TheoremId.ANALYTIC_BY_RE:
        # the map g + conj(0) has modulus |g|, and the ring of Re g (Im g) has
        # the bits of the map t + conj(t) with t = g/2 (t = -i g/2): halving
        # and multiplying by -i are exact
        rings = [partial(_modulus_ring, p), lambda g: np.abs(g.real) ** p]
    else:
        rings = [lambda g: np.abs(g.imag) ** p, partial(_modulus_ring, p)]
    return [(auto_spec(degree, p), 1.0, rings)], partial(_norms, p)


def _factors(tag: TheoremId, cases) -> tuple:
    """The coefficient rows that a sampled tag's rings take, from the arrays
    (g, h) of its maps (PAIR_ISOPERIMETRIC's (a, b))."""
    g, h = cases
    if tag in (TheoremId.CONJUGATE_NORM, TheoremId.BERGMAN_EMBEDDING):
        return _normalized_rows(g, h)
    if tag is TheoremId.STREBEL:
        return (g,)
    if tag in (TheoremId.ANALYTIC_BY_RE, TheoremId.IM_BY_ANALYTIC):
        g = np.array(g, dtype=complex)
        g.imag[:, 0] = 0.0  # analytic samples have Im g(0) = 0
        return (g,)
    return g, h


def _shared_sides(factors, parts) -> list:
    """finish(*means) of each part (rows, terms, finish), where means are
    the row means of its terms' rings, in term and ring order, over the
    traces of the first rows rows of factors (None: every row).

    The terms of all parts that share a rule (spec, r) make one pass: one
    quadrature._means call per span of rows between two of their row
    counts, each with the rings of every part that covers the span.  So
    each factor row is transformed once per rule, whatever the number of
    parts and rings; and since a row's means do not depend on the rows
    beside it, each has the bits of its part's own call.
    """
    factors = [np.atleast_2d(np.asarray(c, dtype=complex)) for c in factors]
    total = min(len(c) for c in factors)
    means = [[] for _ in parts]
    passes: dict = {}  # (spec, r) -> [(rows, ring, its row means)]
    for (rows, terms, _), ring_means in zip(parts, means):
        for spec, r, rings in terms:
            for ring in rings:
                ring_means.append([])
                passes.setdefault((spec, r), []).append((rows or total, ring, ring_means[-1]))
    for (spec, r), entries in passes.items():
        start = 0
        for stop in sorted({rows for rows, _, _ in entries}):
            active = [(ring, row_means) for rows, ring, row_means in entries if rows >= stop]
            span = [c[start:stop] for c in factors]
            values = _means([ring for ring, _ in active], span, spec, r)
            for (_, row_means), ring_values in zip(active, values):
                row_means.extend(ring_values)
            start = stop
    return [finish(*ring_means) for (_, _, finish), ring_means in zip(parts, means)]


def _block_sides(
    tag: TheoremId, exponents: Sequence, degree: int, cases
) -> list[tuple[Sequence[float], Sequence[float]]]:
    """(LHS values, RHS-without-constant values) of a tag at each of
    exponents, one value per case.

    The cases are the line catalog for LINE_PAIRS, and otherwise the
    coefficient arrays (g, h) of the call's maps, one row per seed, drawn
    once per call; PAIR_ISOPERIMETRIC's are the g of its seeds s and the g
    of s + _PAIR_SHIFT.  The exponents' terms share one pass per rule
    (_shared_sides).
    """
    if tag is TheoremId.LINE_PAIRS:
        return [
            (
                [line_lp_norm(pair, p, transformed=True) for pair in cases],
                [line_lp_norm(pair, p, transformed=False) for pair in cases],
            )
            for p in exponents
        ]
    parts = [(None, *_terms(tag, p_or_n, degree)) for p_or_n in exponents]
    return _shared_sides(_factors(tag, cases), parts)


def theorem_sides(
    tag: TheoremId, exponents: Sequence, degree: int, cases
) -> list[tuple[Sequence[float], Sequence[float]]]:
    """(LHS values, RHS-without-constant values) of a tag at each of
    exponents, one value per case: its rings over the coefficient arrays
    (g, h) of degree-degree maps, one map per row (PAIR_ISOPERIMETRIC's
    (a, b); the line pairs for LINE_PAIRS).  The maps are taken as given:
    the tag's hypothesis on g(0)h(0) is the caller's to meet.  Every
    exponent and degree is checked before any transform."""
    tag, exponents = TheoremId(tag), tuple(exponents)
    _check_exponents(tag, exponents)
    _check_integer("degree", degree)
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    return _block_sides(tag, exponents, degree, cases)


def _judge(acc: SlackAccumulator, labels, lhs, rhs, rel_tol: float = REL_TOL) -> float:
    """Judge LHS <= RHS case by case, adding each labelled case to acc.

    A case's slack is the relative slack (RHS - LHS)/RHS, and a slack below
    -rel_tol is a violation.  A case with RHS = 0 is skipped when its LHS is
    0 too, and is otherwise a violation with slack -inf.  Returns the
    largest LHS/RHS of the judged cases (a sharpness statistic; 0.0 when
    none is judged).
    """
    ratio_max = 0.0
    for label, lo, hi in zip(labels, lhs, rhs):
        if hi == 0.0:
            if lo != 0.0:
                ratio_max = math.inf
                acc.add(label, -math.inf, True)
            continue
        slack = (hi - lo) / hi
        ratio_max = max(ratio_max, lo / hi)
        acc.add(label, float(slack), slack < -rel_tol)
    return ratio_max


def _theorem_report(
    acc: SlackAccumulator,
    tag: TheoremId,
    p_or_n,
    constant: float,
    labels,
    sides,
    degree: int,
    seed: int,
    rel_tol: float,
) -> VerificationReport:
    """The report of verify_theorem from a tag's sides at one exponent."""
    lhs, rhs = sides
    ratio_max = _judge(acc, labels, lhs, [constant * base for base in rhs], rel_tol)
    return acc.report(
        id=tag.value,
        p=p_or_n,
        grid={"samples": len(labels), "degree": degree},
        constant=constant,
        ratio_max=ratio_max,
        seed=seed,
        tolerance=rel_tol,
    )


def theorem_sweep(
    tag: TheoremId, exponents: Sequence, samples: int, degree: int, seed: int, rel_tol: float
) -> list[VerificationReport]:
    """verify_theorem of a tag at each of exponents, on one draw: one report
    per exponent, in order, each with the payload of its own verify_theorem
    call (elapsed_ms, which counts from the start of the shared evaluation,
    aside).

    Every exponent and argument is checked before the draw.  The draw is
    evaluated once for all exponents (_block_sides): each factor row is
    transformed once per rule that the exponents' rings use.
    """
    tag, exponents = TheoremId(tag), tuple(exponents)
    constants = _check_exponents(tag, exponents)
    _check_draw(samples, degree, seed)
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError(f"rel_tol must be finite and > 0, got {rel_tol}")

    if tag is TheoremId.LINE_PAIRS:
        labels = [(pair.kind.value, pair.parameter) for pair in _LINE_CATALOG]
        cases = _LINE_CATALOG
    else:
        seeds = range(seed, seed + samples)
        labels = [(s,) for s in seeds]
        cases = random_coefficients(degree, seeds, _TAGS[tag][2])
        if tag is TheoremId.PAIR_ISOPERIMETRIC:
            cases = (cases[0], random_coefficients(degree, [s + _PAIR_SHIFT for s in seeds])[0])
    accs = [SlackAccumulator() for _ in constants]
    sides = _block_sides(tag, exponents, degree, cases)
    return [
        _theorem_report(acc, tag, p_or_n, constant, labels, pair, degree, seed, rel_tol)
        for acc, p_or_n, constant, pair in zip(accs, exponents, constants, sides)
    ]


def verify_theorem(
    tag: TheoremId,
    p_or_n,
    samples: int = 200,
    degree: int = 8,
    seed: int = 0,
    rel_tol: float = REL_TOL,
) -> VerificationReport:
    """Check LHS <= constant * RHS over the sample battery, each case
    judged by _judge with rel_tol: its sides are evaluated once, for the
    whole draw.  This is the one-exponent call of theorem_sweep.

    min_slack is the worst relative slack (RHS_total - LHS)/RHS_total;
    ratio_max the largest observed LHS/RHS_total (a sharpness statistic).
    p_or_n must lie in the tag's range (_TAGS), checked before any draw;
    samples, degree and seed must be integers.
    """
    return theorem_sweep(tag, (p_or_n,), samples, degree, seed, rel_tol)[0]


def verify_pair_isoperimetric(a: TaylorPoly, b: TaylorPoly, p: float) -> VerificationReport:
    """int_U (|a|^2+|b|^2)^{2p} <= (int_T (|a|^2+|b|^2)^p)^2 for p > 0,
    judged by _judge (so a = b = 0, where both sides vanish, is skipped).
    Both sides share the traces of a and b (one circle transform per
    factor, and one disk transform per factor)."""
    tag = TheoremId.PAIR_ISOPERIMETRIC
    _TAGS[tag][0].check("verify_pair_isoperimetric", p)
    acc = SlackAccumulator()
    [(lhs, rhs)] = _block_sides(tag, (p,), max(a.degree, b.degree), (a.coeffs, b.coeffs))
    ratio_max = _judge(acc, [("pair",)], lhs, rhs)
    return acc.report(
        id="PAIR_ISOPERIMETRIC", p=p, ratio_max=ratio_max, constant=1.0, tolerance=REL_TOL
    )


def _chain_terms(n: int, degree: int):
    """(terms, finish) of the isoperimetric chain at n over the normalized
    rows (g, h): finish returns the links of each row, one list of (name,
    value) per row.  Every disk mean is sized for |f|^{2n} and every circle
    mean for |f|^n, so one disk and one circle rule serve all seven means."""
    e_n = math.cos(math.pi / (2.0 * n))
    disk_rings = [
        partial(_map_ring, 2.0 * n),
        partial(_pair_ring, float(n)),
        partial(_product_ring, float(n), real_part=True),
        partial(_product_ring, float(n), real_part=False),
    ]
    circle_rings = [
        partial(_pair_ring, 0.5 * n),
        partial(_product_ring, 0.5 * n, real_part=False),
        partial(_map_ring, float(n)),
    ]

    def binomial_sum(x: float, y: float) -> float:
        total = 0.0
        for k in range(n + 1):
            total += math.comb(n, k) * x ** (k / n) * y ** ((n - k) / n)
        return total

    def links(*means):
        return [
            [
                ("L", big_l),
                ("holder", binomial_sum(disk_s, disk_re)),
                ("cosine", binomial_sum(disk_s, e_n**n * disk_abs)),
                ("square", binomial_sum(circ_s**2, e_n**n * circ_abs**2)),
                ("am_gm", (1.0 + e_n) ** n * circ_s**2),
                ("final", (1.0 + e_n) ** n * (1.0 - math.cos(math.pi / n)) ** (-n) * circ_f**2),
            ]
            for big_l, disk_s, disk_re, disk_abs, circ_s, circ_abs, circ_f in zip(*means)
        ]

    return [
        (auto_spec(degree, 2.0 * n), None, disk_rings),
        (auto_spec(degree, float(n)), 1.0, circle_rings),
    ], links


def _chain_links(g, h, n: int) -> list[list[tuple[str, float]]]:
    """The links of isoperimetric_chain(m, n) for the map of each row pair of
    coefficient arrays (g, h), unchecked: one list of (name, value) per row,
    from one disk and one circle _means call of g and h."""
    g, h = _normalized_rows(np.atleast_2d(g), np.atleast_2d(h))
    degree = max(g.shape[-1], h.shape[-1]) - 1
    [links] = _shared_sides((g, h), [(None, *_chain_terms(n, degree))])
    return links


def _chain_report(acc: SlackAccumulator, n: int, chains, degree: int, seed: int):
    """The ISOPERIMETRIC_CHAIN report of the chains of the maps of seeds
    seed, seed + 1, ...: a link that _judge flags is a violation."""
    for k, chain in enumerate(chains):
        names, values = zip(*chain)
        labels = [(seed + k, lo, hi) for lo, hi in zip(names, names[1:])]
        _judge(acc, labels, values[:-1], values[1:])
    return acc.report(
        id="ISOPERIMETRIC_CHAIN",
        p=n,
        grid={"samples": len(chains), "degree": degree},
        seed=seed,
        tolerance=REL_TOL,
    )


def isoperimetric_sweep(
    pair_exponents: Sequence,
    orders: Sequence,
    samples: int,
    chain_samples: int,
    degree: int,
    seed: int,
) -> list[VerificationReport]:
    """The sampled isoperimetric reports on the maps of seeds seed, seed + 1,
    ...: STREBEL, then PAIR_ISOPERIMETRIC at each of pair_exponents, then
    for each n of orders BERGMAN_EMBEDDING and ISOPERIMETRIC_CHAIN, the
    chain of isoperimetric_chain on the first chain_samples maps.  Each
    theorem report has the payload of its own verify_theorem call
    (elapsed_ms aside).

    Every argument is checked before the draw.  The reports share two
    passes (_shared_sides): STREBEL's g is PAIR_ISOPERIMETRIC's a, so both
    tags' rings take one pass over the rows (a, b); the embedding and the
    chain take one pass over the normalized rows (g, h), the chain's rings
    on its first chain_samples rows only.
    """
    strebel, pair, embedding = (
        TheoremId.STREBEL, TheoremId.PAIR_ISOPERIMETRIC, TheoremId.BERGMAN_EMBEDDING
    )
    pair_exponents, orders = tuple(pair_exponents), tuple(orders)
    pair_constants = _check_exponents(pair, pair_exponents)
    embedding_constants = _check_exponents(embedding, orders)
    _check_draw(samples, degree, seed)
    _check_integer("chain_samples", chain_samples)
    if chain_samples < 1:
        raise ValueError(f"chain_samples must be >= 1, got {chain_samples}")

    seeds = range(seed, seed + samples)
    labels = [(s,) for s in seeds]
    g, h = random_coefficients(degree, range(seed, seed + max(samples, chain_samples)))
    b = random_coefficients(degree, [s + _PAIR_SHIFT for s in seeds])[0]
    # (tag, exponent, constant) of each report on the rows (a, b)
    iso = [(strebel, 1.0, theorem_constant(strebel, p=1.0))]
    iso += [(pair, p, c) for p, c in zip(pair_exponents, pair_constants)]
    accs = iter([SlackAccumulator() for _ in range(len(iso) + 2 * len(orders))])
    parts = [(None, *_terms(tag, p, degree)) for tag, p, _ in iso]
    out = [
        _theorem_report(next(accs), tag, p, c, labels, sides, degree, seed, REL_TOL)
        for (tag, p, c), sides in zip(iso, _shared_sides((g[:samples], b), parts))
    ]
    parts = [(samples, *_terms(embedding, n, degree)) for n in orders]
    parts += [(chain_samples, *_chain_terms(n, degree)) for n in orders]
    sides = _shared_sides(_normalized_rows(g, h), parts)
    for n, c, bound, links in zip(orders, embedding_constants, sides, sides[len(orders) :]):
        out += [
            _theorem_report(next(accs), embedding, n, c, labels, bound, degree, seed, REL_TOL),
            _chain_report(next(accs), n, links, degree, seed),
        ]
    return out


def isoperimetric_chain(m: HarmonicMap, n: int) -> list[tuple[str, float]]:
    """The inequality chain behind the Bergman embedding, link by link.

    Returns the ordered quantities

      L      = int_U |f|^{2n}
      holder = sum_k C(n,k) (int_U S^n)^{k/n} (int_U |2 Re gh|^n)^{(n-k)/n}
      cosine = same with int_U |2 Re gh|^n replaced by E_n^n int_U (2|gh|)^n
      square = boundary squares via the pair isoperimetric inequality
      am_gm  = (1+E_n)^n (int_T S^{n/2})^2
      final  = (1+E_n)^n (1-cos(pi/n))^{-n} (int_T |f|^n)^2

    with S = |g|^2 + |h|^2, E_n = cos(pi/(2n)), after normalizing h(0) = 0
    (the cosine link needs Re((2gh)(0)) = 0).  Each link must dominate the
    previous one; a link that _judge flags raises ValueError.  final equals
    ((1/2) csc(pi/(4n)))^{2n} (int_T |f|^n)^2 by the half-angle identity.
    This is the one-map call of _chain_links; isoperimetric_sweep evaluates
    the battery's chains on its shared pass.
    """
    n = _TAGS[TheoremId.BERGMAN_EMBEDDING][0].check("isoperimetric_chain", n)
    [chain] = _chain_links(m.g.coeffs, m.h.coeffs, n)
    acc = SlackAccumulator()
    values = [value for _, value in chain]
    _judge(acc, range(len(chain) - 1), values[:-1], values[1:])
    if acc.violations:
        k = acc.violations[0][0]
        (name_lo, lo), (name_hi, hi) = chain[k : k + 2]
        raise ValueError(f"chain link broken: {name_lo} = {lo:.12g} > {name_hi} = {hi:.12g}")
    return chain


def sharpness_probe(
    tag: TheoremId,
    p: float,
    gamma_fractions: Sequence[float],
) -> list[float]:
    """Calderon-family ratios approaching a tag's constant from below (p < 2).

    For each fraction, gamma = fraction * pi/(2p) and the ratio is

      CONJUGATE_NORM : ||v||_p / ||u||_p   (-> tan(pi/2p) = cot(pi/(2 pbar)))
      ANALYTIC_BY_RE : ||g||_p / ||u||_p   (-> sec(pi/2p) = csc(pi/(2 pbar)))
      IM_BY_ANALYTIC : ||v||_p / ||g||_p   (-> sin(pi/2p) = cos(pi/(2 pbar)))

    where u, v are the real and imaginary parts of the family's trace (v is
    the mean-normalized conjugate of u).  The returned sequence is increasing.
    """
    tag = TheoremId(tag)
    if tag not in _PROBES:
        raise ValueError(f"no Calderon probe for {tag.value}")
    _PROBE_P.check("sharpness_probe", p)
    families = []  # every fraction is checked before the first quadrature
    for frac in gamma_fractions:
        if not 0.0 < frac < 1.0:
            raise ValueError(f"gamma fractions must lie in (0, 1), got {frac}")
        families.append(CalderonFamily(gamma=frac * math.pi / (2.0 * p), p=p))
    num, den = _PROBES[tag]
    return [calderon_norm(fam, p, num) / calderon_norm(fam, p, den) for fam in families]

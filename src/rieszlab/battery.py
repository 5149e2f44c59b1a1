"""The full verification battery, as library functions.

Each check returns a VerificationReport so the CLI `suite` subcommand and the
acceptance tests exercise exactly the same code paths with the same
tolerances.  Seeds are derived deterministically from the master seed, so a
fixed seed reproduces every report byte for byte (elapsed fields aside).
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from functools import partial

import numpy as np

from .constants import SharpConstant as SC, conjugate_exponent_bar, sharp_constant
from .gridlab import (
    PLURI_TOLERANCE,
    SUBMEAN_TOLERANCE,
    InequalityId,
    Minorant,
    cell_diagonal,
    default_p_values,
    equality_loci,
    locate_equality,
    pluri_line_sweep,
    scan_ranges,
    slack_function,
    stated_equality_loci,
    submean_sweep,
    verify_pointwise,
)
from .hilbert import periodic_hilbert, singular_hilbert_at
from .maps import (
    Constraint,
    FourierSeries,
    HarmonicMap,
    TaylorPoly,
    random_coefficients,
)
from .quadrature import (
    QuadratureSpec,
    _map_ring,
    _pair_ring,
    auto_spec,
    circle_power_mean,
    disk_power_mean,
    hardy_norm,
)
from .reporting import GridSpec, SlackAccumulator, VerificationReport
from .theorems import REL_TOL, TheoremId, _chain_links, _judge, _norms
from .theorems import sharpness_probe, verify_theorem

__all__ = [
    "constant_identity_report",
    "parseval_bridge_report",
    "hilbert_multiplier_report",
    "hilbert_singular_report",
    "conjugate_bound_reports",
    "calderon_probe_report",
    "calderon_monotone_report",
    "lemma_grid_reports",
    "equality_location_reports",
    "stated_locus_reports",
    "submean_reports",
    "pluri_line_reports",
    "theorem_reports",
    "isoperimetric_reports",
    "typo_adjudication_report",
    "full_suite",
]

THEOREM_P_VALUES = (1.25, 1.5, 2.0, 3.0, 4.0, 6.0)
SUBMEAN_P = {
    Minorant.RE_BRANCH: (1.25, 1.5, 2.0),
    Minorant.PHI_MID: (2.0, 3.0, 4.0),
    Minorant.PHI_HIGH: (4.0, 6.0, 8.0),
    Minorant.PSI: (1.5, 3.0, 5.0),
    Minorant.THETA_LOWER: (3.0, 6.0),
    Minorant.THETA_UPPER: (3.0, 6.0),
}
PLURI_P = {Minorant.F_PAIR: (1.5, 3.0, 6.0), Minorant.G_PAIR: (1.5, 3.0, 6.0)}
LOCUS_CASES = (
    (InequalityId.MIXED_BY_SUM_LOW, 1.5),
    (InequalityId.SUM_BY_MIXED_RADIAL, 3.0),
    (InequalityId.SUM_BY_MIXED_HIGH, 3.0),
    (InequalityId.MIXED_BY_SUM_MID, 3.0),
    (InequalityId.MIXED_BY_SUM_HIGH, 6.0),
    (InequalityId.SUM_BY_MIXED_LOW, 1.5),
)


def constant_identity_report() -> VerificationReport:
    """A_p B_p = cot(pi/(2 pbar)), sqrt(2) A_p = csc(pi/(2 pbar)), and the
    duality symmetry of the conjugation norm, at 70 exponents from 1.1 to 8;
    an error above 1e-12 is a violation."""
    n_points, lo, hi, tol = 70, 1.1, 8.0, 1e-12
    acc = SlackAccumulator(-0.0)  # error-style: min_slack is minus the largest error
    for p in np.linspace(lo, hi, n_points):
        p = float(p)
        pbar = conjugate_exponent_bar(p)
        a = sharp_constant(SC.A, p)
        b = sharp_constant(SC.B, p)
        errs = {
            "product": abs(a * b - math.cos(math.pi / (2 * pbar)) / math.sin(math.pi / (2 * pbar))),
            "csc": abs(math.sqrt(2.0) * a - 1.0 / math.sin(math.pi / (2 * pbar))),
            "duality": abs(
                sharp_constant(SC.HILBERT_NORM, p)
                - sharp_constant(SC.HILBERT_NORM, p / (p - 1.0))
            ),
        }
        for name, err in errs.items():
            acc.add((p, name), -err, err > tol)
    return acc.report(
        id="CONSTANT_IDENTITIES",
        p=None,
        grid={"n_points": n_points, "range": [lo, hi]},
        tolerance=tol,
    )


def parseval_bridge_report(
    samples: int = 100, degree: int = 8, seed: int = 11
) -> VerificationReport:
    """||f||_2^2 = |||f|||_2^2 + 2 Re(g(0) h(0)), and equality of the two
    norms for the RE_ZERO class; an error above 1e-10 is a violation."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    tol = 1e-10
    acc = SlackAccumulator(-0.0)
    # seeds seed + k for the maps, seed + samples + k for the RE_ZERO maps
    plain = random_coefficients(degree, range(seed, seed + samples))
    zeros = random_coefficients(
        degree, range(seed + samples, seed + 2 * samples), Constraint.RE_ZERO
    )
    rings = [partial(_map_ring, 2.0), partial(_pair_ring, 1.0)]
    spec = auto_spec(degree, 2.0)
    hardy, mixed = _norms(2.0, rings, plain, spec)
    hardy_z, mixed_z = _norms(2.0, rings, zeros, spec)
    g0, h0 = (rows[:, 0].tolist() for rows in plain)
    for k, (g0_k, h0_k, a, b, az, bz) in enumerate(zip(g0, h0, hardy, mixed, hardy_z, mixed_z)):
        cross = 2.0 * (g0_k * h0_k).real
        err = max(abs(a**2 - b**2 - cross), abs(az - bz))
        acc.add((seed + k,), -err, err > tol)
    return acc.report(
        id="PARSEVAL_BRIDGE",
        p=2.0,
        grid={"samples": samples, "degree": degree},
        seed=seed,
        tolerance=tol,
    )


def _random_series(
    degree: int, seed: int, zero_mean: bool = False, derivative_scale: float | None = None
) -> FourierSeries:
    rng = np.random.default_rng(seed)
    ks = range(-degree, degree + 1)
    coeffs = {
        k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        for k in ks
        if not (zero_mean and k == 0)
    }
    if derivative_scale is not None:
        # the truncated singular integral misses ~2|chi'(tau)| eps, so the
        # eps-level comparison needs traces with bounded derivative
        total = sum(abs(k) * abs(c) for k, c in coeffs.items())
        factor = derivative_scale / max(total, 1e-12)
        coeffs = {k: c * factor for k, c in coeffs.items()}
    return FourierSeries(coeffs)


def hilbert_multiplier_report(seed: int = 23) -> VerificationReport:
    """H[cos] = sin exactly on coefficients and H^2 = -Id under sign(0) = 1,
    the latter on 50 random series.

    Any nonzero involution error is a violation.  The cosine error seeds the
    minimum but is not itself flagged."""
    n_series = 50
    cos_series = FourierSeries({-1: 0.5, 1: 0.5})
    sin_series = FourierSeries({-1: 0.5j, 1: -0.5j})
    cos_err = max(
        abs(periodic_hilbert(cos_series).coeffs[k] - sin_series.coeffs[k])
        for k in (-1, 1)
    )
    acc = SlackAccumulator(-cos_err, ("cos",))
    for k in range(n_series):
        s = _random_series(16, seed + k)
        twice = periodic_hilbert(periodic_hilbert(s))
        err = max(abs(twice.coeffs[j] + s.coeffs[j]) for j in s.coeffs)
        acc.add((seed + k,), -err, err > 0.0)
    return acc.report(
        id="HILBERT_MULTIPLIER",
        p=None,
        grid={"n_series": n_series},
        seed=seed,
        tolerance=1e-15,
    )


def hilbert_singular_report(n_series: int = 10, seed: int = 37) -> VerificationReport:
    """Truncated singular integral, at epsilon = 1e-6, vs multiplier form on
    zero-mean traces of degree 16; an error above 1e-6 is a violation."""
    if n_series < 1:
        raise ValueError(f"n_series must be >= 1, got {n_series}")
    degree, epsilon, tol = 16, 1e-6, 1e-6
    acc = SlackAccumulator(-0.0)
    taus = (0.3, 2.2)
    for k in range(n_series):
        s = _random_series(degree, seed + k, zero_mean=True, derivative_scale=0.25)
        hs = periodic_hilbert(s)
        for tau in taus:
            err = abs(singular_hilbert_at(s, tau, epsilon) - hs(tau))
            acc.add((seed + k, tau), -err, err > tol)
    return acc.report(
        id="HILBERT_SINGULAR",
        p=None,
        grid={"n_series": n_series, "degree": degree, "epsilon": epsilon},
        seed=seed,
        tolerance=tol,
    )


def conjugate_bound_reports(
    samples: int = 200, degree: int = 8, seed: int = 41
) -> list[VerificationReport]:
    return [
        verify_theorem(TheoremId.CONJUGATE_NORM, p, samples, degree, seed)
        for p in THEOREM_P_VALUES
    ]


def calderon_probe_report() -> VerificationReport:
    """The conjugate-ratio probe at p = 1.5 and gamma fraction 0.995 must
    clear the floor 0.9 sqrt(3) (nine tenths of its limit tan(pi/3))."""
    p, fraction, floor = 1.5, 0.995, 0.9 * math.sqrt(3.0)
    acc = SlackAccumulator()
    ratio = sharpness_probe(TheoremId.CONJUGATE_NORM, p, [fraction])[0]
    slack = ratio - floor
    acc.add((fraction,), slack, slack < 0)
    return acc.report(id="CALDERON_PROBE", p=p, ratio_max=ratio, constant=floor, tolerance=1e-12)


def calderon_monotone_report() -> VerificationReport:
    """Probe ratios at p = 1.5 must increase with gamma over the fractions
    0.5, 0.9 and 0.99, for all three probe tags; a gap <= 0 is a violation."""
    p, fractions = 1.5, (0.5, 0.9, 0.99)
    acc = SlackAccumulator()
    for tag in (TheoremId.CONJUGATE_NORM, TheoremId.ANALYTIC_BY_RE, TheoremId.IM_BY_ANALYTIC):
        ratios = sharpness_probe(tag, p, fractions)
        for (f0, r0), (f1, r1) in zip(
            zip(fractions, ratios), zip(fractions[1:], ratios[1:])
        ):
            gap = r1 - r0
            acc.add((tag.value, f0, f1), gap, gap <= 0)
    return acc.report(id="CALDERON_MONOTONE", p=p, tolerance=1e-12)


def lemma_grid_reports(grid: GridSpec | None = None) -> list[VerificationReport]:
    """Every inequality tag at its eight default exponents.  Each distinct
    (slack, p, domain) is scanned once: a tag that repeats one
    (SUM_BY_MIXED_RADIAL repeats SUM_BY_MIXED_HIGH) gets a copy of the first
    report, elapsed_ms included, under its own id."""
    grid = grid or GridSpec()
    out = []
    scanned: dict = {}
    for tag in InequalityId:
        for p in default_p_values(tag):
            key = (slack_function(tag), p, scan_ranges(tag))
            if key not in scanned:
                scanned[key] = verify_pointwise(tag, p, grid)
                out.append(scanned[key])
                continue
            first = scanned[key]  # copied so that no two reports share a mutable field
            grid_copy, violations = dict(first.grid), list(first.violations)
            out.append(replace(first, id=tag.value, grid=grid_copy, violations=violations))
    return out


def _locus_distance(point: tuple, loci: list) -> float:
    best = math.inf
    for locus in loci:
        best = min(best, math.hypot(*(a - b for a, b in zip(point, locus))))
    return best


def equality_location_reports(grid: GridSpec | None = None) -> list[VerificationReport]:
    """Located minima must sit within one grid cell of the verified equality
    loci with |slack| <= 1e-7."""
    grid = grid or GridSpec()
    out = []
    for tag, p in LOCUS_CASES:
        acc = SlackAccumulator()
        point, slack = locate_equality(tag, p)
        dist = _locus_distance(point, equality_loci(tag, p))
        cell = cell_diagonal(tag, grid)
        acc.add(point, min(1e-7 - abs(slack), cell - dist))
        if abs(slack) > 1e-7:
            acc.flag(point, -abs(slack))
        if dist > cell:
            acc.flag(point, cell - dist)
        out.append(
            acc.report(
                id=f"EQUALITY_LOCUS_{tag.value}",
                p=p,
                grid={"cell": cell, "distance": dist},
                tolerance=1e-12,
            )
        )
    return out


def stated_locus_reports() -> list[VerificationReport]:
    """Regression locks for the falsified claimed equality angles: the claims
    put them at arg(wz) = pi/p (mid range) and pi/2 + pi/p (high range), but
    the slack there is strictly positive; the true locus is pi - pi/p."""
    out = []
    for tag, p in ((InequalityId.MIXED_BY_SUM_MID, 3.0), (InequalityId.MIXED_BY_SUM_HIGH, 6.0)):
        acc = SlackAccumulator()
        slack_fn = slack_function(tag)
        # pass means: no stated point is an equality point
        for (r, t) in stated_equality_loci(tag, p):
            acc.add((r, t), float(slack_fn(p, np.asarray(r), np.asarray(t))) - 1e-6)
        if acc.min_slack < 0:
            acc.flag(acc.argmin, acc.min_slack)
        out.append(acc.report(id=f"STATED_LOCUS_FALSIFIED_{tag.value}", p=p, tolerance=1e-12))
    return out


def submean_reports(
    centers: int = 64, radii: int = 16, angles: int = 1024, seed: int = 53
) -> list[VerificationReport]:
    """check_submean of every SUBMEAN_P case, on one sweep of shared circles."""
    cases = [(mid, p) for mid, ps in SUBMEAN_P.items() for p in ps]
    return submean_sweep(cases, centers, radii, angles, seed, SUBMEAN_TOLERANCE)


def pluri_line_reports(n_lines: int = 64, seed: int = 67) -> list[VerificationReport]:
    """check_pluri_lines of every PLURI_P case, on one sweep of shared lines."""
    cases = [(mid, p) for mid, ps in PLURI_P.items() for p in ps]
    return pluri_line_sweep(
        cases, n_lines, seed, centers=6, radii=4, angles=1024, tolerance=PLURI_TOLERANCE
    )


def theorem_reports(
    samples: int = 200, degree: int = 8, seed: int = 71
) -> list[VerificationReport]:
    """The full sample battery over every theorem tag."""
    out = []
    for tag in (
        TheoremId.MIXED_BY_HARDY,
        TheoremId.HARDY_BY_MIXED,
        TheoremId.ANALYTIC_BY_RE,
        TheoremId.IM_BY_ANALYTIC,
        TheoremId.BERGMAN_MIXED_BY_NORM,
        TheoremId.BERGMAN_NORM_BY_MIXED,
    ):
        for p in THEOREM_P_VALUES:
            out.append(verify_theorem(tag, p, samples, degree, seed))
    for p in (1.5, 2.0, 2.5, 3.0):
        out.append(verify_theorem(TheoremId.MIXED_BY_HARDY_RELAXED, p, samples, degree, seed))
    for p in THEOREM_P_VALUES:
        out.append(verify_theorem(TheoremId.LINE_PAIRS, p))
    return out


def isoperimetric_reports(
    samples: int = 100, degree: int = 4, seed: int = 83
) -> list[VerificationReport]:
    out = []
    # closed-form instance f = 1 + z: int_U |f|^2 = 3/2 <= (4/pi)^2.
    # |1 + e^{it}| has a corner at t = pi, so the boundary mean needs a dense
    # trapezoid rule to reproduce 4/pi to 1e-6
    acc = SlackAccumulator()
    m = HarmonicMap(TaylorPoly([1.0, 1.0]), TaylorPoly([0.0]))
    lhs = disk_power_mean(m, 2.0)
    rhs = circle_power_mean(m, 1.0, 1.0, QuadratureSpec(n_angle=1 << 16)) ** 2
    err = max(abs(lhs - 1.5), abs(rhs - 16.0 / math.pi**2))
    slack = (rhs - lhs) / rhs
    acc.add(("1+z",), min(slack, 1e-6 - err))
    if not (slack > 0 and err < 1e-6):
        acc.flag(("1+z",), slack)
    out.append(acc.report(id="STREBEL_INSTANCE", p=1.0, ratio_max=lhs / rhs, tolerance=1e-12))
    out.append(verify_theorem(TheoremId.STREBEL, 1.0, samples, degree, seed))
    for p in (0.5, 1.0, 2.0):
        out.append(verify_theorem(TheoremId.PAIR_ISOPERIMETRIC, p, samples, degree, seed))
    for n in (2, 3, 4):
        out.append(verify_theorem(TheoremId.BERGMAN_EMBEDDING, n, samples, degree, seed))
        out.append(_chain_report(n, samples=max(10, samples // 4), degree=degree, seed=seed))
    return out


def _chain_report(n: int, samples: int, degree: int, seed: int) -> VerificationReport:
    """isoperimetric_chain(random_harmonic(degree, s), n) for each seed s,
    evaluated as one draw; a link that theorems._judge flags is a violation."""
    acc = SlackAccumulator()
    g, h = random_coefficients(degree, range(seed, seed + samples))
    for k, chain in enumerate(_chain_links(g, h, n)):
        names, values = zip(*chain)
        labels = [(seed + k, lo, hi) for lo, hi in zip(names, names[1:])]
        _judge(acc, labels, values[:-1], values[1:])
    return acc.report(
        id="ISOPERIMETRIC_CHAIN",
        p=n,
        grid={"samples": samples, "degree": degree},
        seed=seed,
        tolerance=REL_TOL,
    )


def typo_adjudication_report() -> VerificationReport:
    """Witness f = z at p = 4: ||sin t||_4 = (3/8)^{1/4} violates the
    sin(pi/(2 pbar)) form of the imaginary-part bound and satisfies the
    cos(pi/(2 pbar)) form, pinning down which trigonometric variant is the
    actual constant."""
    acc = SlackAccumulator()
    p = 4.0
    g = TaylorPoly([0.0, 1.0])
    v_map = HarmonicMap(g.scaled(-0.5j), g.scaled(-0.5j))  # Im z
    g_map = HarmonicMap(g, TaylorPoly([0.0]))
    v_norm = hardy_norm(v_map, p)
    g_norm = hardy_norm(g_map, p)
    pbar = conjugate_exponent_bar(p)
    sin_bound = math.sin(math.pi / (2.0 * pbar)) * g_norm
    cos_bound = math.cos(math.pi / (2.0 * pbar)) * g_norm
    closed_form_err = abs(v_norm - (3.0 / 8.0) ** 0.25)
    # pass needs: sin form violated AND cos form satisfied
    margin_violated = v_norm - sin_bound      # must be positive
    margin_satisfied = cos_bound - v_norm     # must be positive
    slack = min(margin_violated, margin_satisfied, 1e-10 - closed_form_err)
    acc.add(("f=z",), slack, not slack > 0)
    return acc.report(
        id="TYPO_ADJUDICATION",
        p=p,
        grid={
            "v_norm": v_norm,
            "sin_form_bound": sin_bound,
            "cos_form_bound": cos_bound,
        },
        tolerance=1e-12,
    )


def full_suite(
    seed: int = 0,
    grid: GridSpec | None = None,
    samples: int = 200,
    degree: int = 8,
    timings: dict | None = None,
) -> list[VerificationReport]:
    """Every acceptance check, in a deterministic order.  degree applies to the
    Parseval, conjugate and theorem batteries; the isoperimetric ones keep 4.
    When timings is a dict, each stage's wall seconds are stored in it under
    the stage's function name, in suite order."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    grid = grid or GridSpec()
    stages = (
        partial(constant_identity_report),
        partial(parseval_bridge_report, min(samples, 100), degree, seed + 11),
        partial(hilbert_multiplier_report, seed=seed + 23),
        partial(hilbert_singular_report, seed=seed + 37),
        partial(conjugate_bound_reports, samples=samples, degree=degree, seed=seed + 41),
        partial(calderon_probe_report),
        partial(calderon_monotone_report),
        partial(lemma_grid_reports, grid),
        partial(equality_location_reports, grid),
        partial(stated_locus_reports),
        partial(submean_reports, seed=seed + 53),
        partial(pluri_line_reports, seed=seed + 67),
        partial(theorem_reports, samples=samples, degree=degree, seed=seed + 71),
        partial(isoperimetric_reports, samples=min(samples, 100), seed=seed + 83),
        partial(typo_adjudication_report),
    )
    reports: list[VerificationReport] = []
    for stage in stages:
        start = time.perf_counter()
        out = stage()
        reports.extend(out if isinstance(out, list) else [out])
        if timings is not None:
            timings[stage.func.__name__] = time.perf_counter() - start
    return reports

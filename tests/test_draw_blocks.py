"""Pin tests for block drawing and array series evaluation: the coefficient
blocks of random_coefficients, the array-valued FourierSeries, the singular
integral with one integrand evaluation per node, and the sub-mean check with
one origin profile integral per call must give exactly what the per-seed,
term-by-term and per-radius implementations in legacy_reference give.  The
memo of drawn seed ranges (maps._draws) must be read-only and must not change
a report or a draw, whatever was drawn before.
Every value comparison is on the bits (`view(np.uint64)`) or on the report
payload with `==`."""

import itertools
import math
import re

import numpy as np
import pytest

from rieszlab import battery, gridlab, hilbert, maps
from rieszlab.battery import SUBMEAN_P
from rieszlab.constants import Minorant
from rieszlab.gridlab import check_pluri_lines, check_submean, origin_circle_mean
from rieszlab.hilbert import singular_hilbert_at
from rieszlab.maps import (
    Constraint,
    FourierSeries,
    TaylorPoly,
    random_coefficients,
    random_harmonic,
    random_poly,
)
from rieszlab.reporting import SlackAccumulator
from rieszlab.theorems import TheoremId, verify_theorem

import legacy_reference as legacy

DEGREES = (0, 1, 8, 40)
# seeds around the word boundaries of SeedSequence: 1-4 words enter the pool
# zero-padded, 5 words take the extra mixing pass
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32 + 1, 2**63, 2**64 - 1, 2**64, 2**100, 2**128, 2**130)
SEEDS = (7, 10**9, *EDGE_SEEDS)


def bits(values) -> list:
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64).tolist()


def payload(report) -> dict:
    out = report.to_dict()
    out.pop("elapsed_ms")
    return out


# ------------------------------- drawing -------------------------------


@pytest.mark.parametrize("constraint", list(Constraint))
@pytest.mark.parametrize("degree", DEGREES)
def test_block_draw_matches_per_seed_draw(constraint, degree):
    g, h = random_coefficients(degree, SEEDS, constraint)
    assert g.shape == h.shape == (len(SEEDS), degree + 1)
    for row, seed in enumerate(SEEDS):
        ref = legacy.random_harmonic(degree, seed, constraint)
        assert bits(g[row]) == bits(ref.g.coeffs), (seed, "g")
        assert bits(h[row]) == bits(ref.h.coeffs), (seed, "h")
        one = random_harmonic(degree, seed, constraint)
        assert bits(one.g.coeffs) == bits(ref.g.coeffs)
        assert bits(one.h.coeffs) == bits(ref.h.coeffs)
    if constraint is Constraint.NONE:
        # random_poly's coefficients are the prefix of the same stream
        for row, seed in enumerate(SEEDS):
            ref = bits(legacy.random_poly(degree, seed).coeffs)
            assert bits(random_poly(degree, seed).coeffs) == ref
            assert bits(g[row]) == ref


def test_one_sided_constraints_match_on_a_thousand_seeds():
    # the sign test Re(g(0) h(0)) < 0 decides a flip; a roundoff difference
    # would show as a flipped h(0) on some seed
    seeds = range(5000, 6000)
    for constraint in (Constraint.RE_NONNEG, Constraint.RE_NONPOS, Constraint.RE_ZERO):
        h0 = random_coefficients(3, seeds, constraint)[1][:, 0]
        ref = [legacy.random_harmonic(3, s, constraint).h.coeffs[0] for s in seeds]
        assert bits(h0) == bits(ref), constraint


def test_block_draw_rejects_bad_seed_and_degree():
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        random_coefficients(4, [2, -3, 5])
    with pytest.raises(TypeError, match="seed must be an integer, got 1.5"):
        random_coefficients(4, [2, 1.5, 5])
    for bad, error in ((1.5, TypeError), (-3, ValueError)):
        with pytest.raises(error):
            random_poly(4, bad)
        with pytest.raises(error):
            random_harmonic(4, bad, Constraint.RE_ZERO)
        with pytest.raises(error):
            verify_theorem(TheoremId.PAIR_ISOPERIMETRIC, 1.0, samples=3, seed=bad)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        random_harmonic(4, -1)
    with pytest.raises(ValueError, match="degree must be >= 0"):
        random_coefficients(-1, [0])
    g, h = random_coefficients(5, [])
    assert g.shape == h.shape == (0, 6)


MEMO_TAGS = (
    TheoremId.ANALYTIC_BY_RE,
    TheoremId.IM_BY_ANALYTIC,
    TheoremId.MIXED_BY_HARDY,
    TheoremId.HARDY_BY_MIXED,
    TheoremId.CONJUGATE_NORM,
)


def test_draw_memo_is_read_only():
    u, scale = maps._draws(3, (4, 5))
    assert u.shape == (2, 16) and scale.shape == (2,)
    assert not u.flags.writeable and not scale.flags.writeable
    # the memo hands out the same arrays, and random_coefficients new ones
    assert maps._draws(3, (4, 5))[0] is u
    g, h = random_coefficients(3, [4, 5], Constraint.RE_ZERO)
    g[:] = h[:] = 0.0
    assert bits(random_coefficients(3, [4, 5])[0][:, 0]) != bits(g[:, 0])


@pytest.mark.parametrize("tag", MEMO_TAGS)
def test_reports_do_not_depend_on_the_memo(tag):
    # the analytic tags zero Im g(0) and the constrained ones flip or set
    # h(0): neither may reach the memo and change a later tag's samples
    kwargs = dict(samples=40, degree=8, seed=0)
    maps._draws.cache_clear()
    fresh = payload(verify_theorem(tag, 3.0, **kwargs))
    for other in MEMO_TAGS:
        if other is not tag:
            verify_theorem(other, 3.0, **kwargs)
    assert payload(verify_theorem(tag, 3.0, **kwargs)) == fresh
    # and the draws, of the memo's seeds and of others, are still numpy's
    for seeds, constraint in itertools.product((range(40), SEEDS), Constraint):
        g, h = random_coefficients(8, seeds, constraint)
        for row, seed in enumerate(seeds):
            ref = legacy.random_harmonic(8, seed, constraint)
            assert bits(g[row]) == bits(ref.g.coeffs), (seed, constraint)
            assert bits(h[row]) == bits(ref.h.coeffs), (seed, constraint)


def test_sample_batteries_build_no_per_sample_objects(monkeypatch):
    built = []
    init = TaylorPoly.__init__

    def counting(self, coeffs):
        built.append(len(coeffs))
        init(self, coeffs)

    monkeypatch.setattr(TaylorPoly, "__init__", counting)
    for tag in (
        TheoremId.MIXED_BY_HARDY,
        TheoremId.HARDY_BY_MIXED,
        TheoremId.CONJUGATE_NORM,
        TheoremId.ANALYTIC_BY_RE,
        TheoremId.IM_BY_ANALYTIC,
        TheoremId.BERGMAN_MIXED_BY_NORM,
        TheoremId.BERGMAN_NORM_BY_MIXED,
        TheoremId.STREBEL,
    ):
        verify_theorem(tag, 2.0 if tag is not TheoremId.STREBEL else 1.0, samples=40)
    verify_theorem(TheoremId.BERGMAN_EMBEDDING, 2, samples=40)
    battery.parseval_bridge_report(samples=40)
    assert built == []


# ------------------------------- series -------------------------------


def random_series(rng) -> FourierSeries:
    top = int(rng.integers(0, 40))
    ks = rng.permutation(np.arange(-top, top + 1))[: max(1, top)]
    return FourierSeries(
        {int(k): complex(*rng.uniform(-1.0, 1.0, 2)) * 10.0 ** rng.uniform(-3, 3) for k in ks}
    )


def test_scalar_series_values_match_term_by_term_sum():
    rng = np.random.default_rng(2024)
    for case in range(200):
        s = random_series(rng)
        taus = rng.uniform(-10.0, 10.0, 50)
        new = [s(float(t)) for t in taus]
        assert all(isinstance(v, complex) for v in new)
        assert bits(new) == bits([legacy.series_value(s, float(t)) for t in taus]), case
        # an array call gives the scalar values, and moves the old array
        # values by roundoff only
        values = s(taus)
        assert bits(values) == bits(new), case
        old = legacy.series_value(s, taus)
        assert np.max(np.abs(values - old)) <= 1e-15 * np.max(np.abs(old)), case


def test_series_shapes_and_empty_series():
    s = FourierSeries({1: 0.3 + 0.2j, -2: 0.25})
    assert s(np.zeros((3, 4))).shape == (3, 4)
    assert s(np.zeros((3, 4))).flags.c_contiguous
    assert FourierSeries({})(0.7) == 0j
    assert np.array_equal(FourierSeries({})(np.ones(3)), np.zeros(3))


def test_singular_integral_matches_separate_evaluations():
    rng = np.random.default_rng(37)
    for _ in range(3):
        s = battery._random_series(8, int(rng.integers(0, 1000)), zero_mean=True,
                                   derivative_scale=0.25)
        for tau in (0.3, 2.2):
            new = singular_hilbert_at(s, tau, 1e-6)
            assert bits([new]) == bits([legacy.singular_hilbert_at(s, tau, 1e-6)])


def test_singular_integral_evaluates_each_node_once(monkeypatch):
    s = battery._random_series(16, 40, zero_mean=True, derivative_scale=0.25)
    nodes = []

    def counting(series_values):
        nodes.append(float(series_values[0]))  # tau + t
        return s(series_values)

    quad = hilbert.integrate.quad
    visits = []

    def recording_quad(f, *args, **kwargs):
        return quad(lambda t: (visits.append(t), f(t))[1], *args, **kwargs)

    monkeypatch.setattr(hilbert.integrate, "quad", recording_quad)
    value = singular_hilbert_at(counting, 0.3, 1e-6)
    assert len(nodes) == len(set(visits)) < len(visits)
    assert bits([value]) == bits([legacy.singular_hilbert_at(s, 0.3, 1e-6)])


def test_hilbert_singular_report_is_unchanged(monkeypatch):
    for n_series, seed in ((10, 37), (4, 1000)):
        new = battery.hilbert_singular_report(n_series=n_series, seed=seed)
        monkeypatch.setattr(battery, "singular_hilbert_at", legacy.singular_hilbert_at)
        ref = battery.hilbert_singular_report(n_series=n_series, seed=seed)
        monkeypatch.undo()
        assert payload(new) == payload(ref), seed


# ------------------------------- sub-mean -------------------------------


@pytest.mark.parametrize("mid,p", [(mid, p) for mid, ps in SUBMEAN_P.items() for p in ps])
def test_origin_profile_integral_runs_once_per_check(monkeypatch, mid, p):
    kwargs = dict(centers=8, radii=6, angles=512, seed=53)
    quads = []
    quad = gridlab.integrate.quad
    monkeypatch.setattr(
        gridlab.integrate, "quad", lambda *a, **k: (quads.append(1), quad(*a, **k))[1]
    )
    report = check_submean(mid, p, **kwargs)
    monkeypatch.undo()
    closed_form = mid in (Minorant.RE_BRANCH, Minorant.PHI_MID) or (mid is Minorant.PSI and p < 2)
    assert len(quads) == (0 if closed_form else 1)
    # the per-radius origin mean is unit * rho^{p/2} bit for bit
    unit = origin_circle_mean(mid, p, 1.0)
    for rho in np.random.default_rng(3).uniform(1e-3, 2.0, 20).tolist():
        assert unit * rho ** (0.5 * p) == origin_circle_mean(mid, p, rho)
    # and the report equals the one with an origin mean (and quad) per radius
    per_radius = []

    def one_per_radius(mid_, p_, rho):
        per_radius.append(rho)
        return origin_circle_mean(mid_, p_, rho)

    ref = _per_radius_submean(mid, p, one_per_radius, **kwargs)
    assert len(per_radius) == kwargs["radii"]
    assert payload(report) == payload(ref)


def _per_radius_submean(mid, p, origin_mean, centers, radii, angles, seed, tolerance=1e-9):
    """check_submean's case loop, with origin_mean(mid, p, rho) per origin radius."""
    fn = gridlab._minorant_fn(mid, p)
    rng = np.random.default_rng(seed)
    groups = []
    for _ in range(centers):
        z0 = complex(2.0 * math.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0.0, 2 * math.pi)))
        groups.append((z0, [abs(z0) * rng.uniform(1e-3, 1.0) for _ in range(radii)]))
    groups.append((0.0 + 0.0j, [2.0 * rng.uniform(1e-3, 1.0) for _ in range(radii)]))
    [(means, errs)] = gridlab._circle_means(
        lambda rows, z: z,
        [lambda z, theta, modulus: fn(z)],
        [center for center, rhos in groups for _ in rhos],
        [rho for _, rhos in groups for rho in rhos],
        angles,
    )
    acc = SlackAccumulator()
    k = 0
    for g, (center, rhos) in enumerate(groups):
        value = float(np.real(fn(np.asarray(center))))
        for rho in rhos:
            mean, err = float(means[k]), float(errs[k])
            k += 1
            deficit = mean - value + 2.0 * err
            acc.add((center.real, center.imag, rho), deficit, gridlab._violated(deficit, tolerance))
            if g == centers:
                ref = origin_mean(mid, p, rho)
                allowance = 64.0 * max(1.0, abs(ref)) / angles**2 + 4.0 * err + 1e-10
                if abs(mean - ref) > allowance:
                    acc.flag((0.0, 0.0, rho), float(mean - ref))
    return acc.report(
        id=Minorant(mid).value,
        p=p,
        grid={"centers": centers, "radii": radii, "angles": angles},
        seed=seed,
        tolerance=tolerance,
    )


# --------------------------- tolerances and seeds ---------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_tolerances_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError, match="rel_tol must be finite and > 0"):
        verify_theorem(TheoremId.CONJUGATE_NORM, 3.0, samples=2, rel_tol=bad)
    with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
        check_submean(Minorant.PSI, 3.0, centers=1, radii=1, tolerance=bad)
    with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
        check_pluri_lines(Minorant.F_PAIR, 3.0, n_lines=16, tolerance=bad)


@pytest.mark.parametrize(
    "name, bad",
    [("centers", 2.5), ("centers", True), ("radii", 3.0), ("angles", 300.0), ("angles", "256"),
     ("seed", 1.5), ("seed", False)],
)
def test_circle_check_counts_must_be_integers(name, bad):
    # the message names the field, as GridSpec's does, before any count is used
    message = re.escape(f"{name} must be an integer, got {bad!r}")
    with pytest.raises(ValueError, match=message):
        check_submean(Minorant.PSI, 3.0, **{"centers": 1, "radii": 1, name: bad})
    with pytest.raises(ValueError, match=message):
        check_pluri_lines(Minorant.G_PAIR, 3.0, n_lines=16, **{"centers": 1, "radii": 1, name: bad})


@pytest.mark.parametrize("bad", [20.5, 16.0, True])
def test_line_count_must_be_an_integer(bad):
    with pytest.raises(ValueError, match=re.escape(f"n_lines must be an integer, got {bad!r}")):
        check_pluri_lines(Minorant.G_PAIR, 3.0, n_lines=bad, centers=1, radii=1)


def test_negative_seeds_are_rejected_up_front(monkeypatch):
    ran = []
    monkeypatch.setattr(battery, "constant_identity_report", lambda: ran.append(1))
    with pytest.raises(ValueError, match="seed must be >= 0, got -100"):
        battery.full_suite(seed=-100)
    assert ran == []
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        check_submean(Minorant.PSI, 3.0, centers=1, radii=1, seed=-3)
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        check_pluri_lines(Minorant.G_PAIR, 3.0, n_lines=16, seed=-3)
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        verify_theorem(TheoremId.MIXED_BY_HARDY, 2.0, samples=5, seed=-3)

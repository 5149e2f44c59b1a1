"""Tests for the theorem batteries, the isoperimetric chain, and the probes."""

import ast
import inspect
import math
import re
from functools import partial

import numpy as np
import pytest

from rieszlab import battery, quadrature, theorems
from rieszlab.constants import SharpConstant, sharp_constant
from rieszlab.hilbert import conjugate_map, line_lp_norm
from rieszlab.maps import (
    Constraint,
    HarmonicMap,
    TaylorPoly,
    random_coefficients,
    random_harmonic,
    random_poly,
)
from rieszlab.quadrature import (
    ROW_BLOCK,
    QuadratureSpec,
    _map_ring,
    _means,
    _pair_ring,
    auto_spec,
    bergman_norm,
    bergman_triple_norm,
    circle_power_mean,
    disk_power_mean,
    hardy_norm,
    pair_circle_power_mean,
    pair_disk_power_mean,
    triple_norm,
)
from rieszlab.reporting import SlackAccumulator
from rieszlab.theorems import (
    TheoremId,
    isoperimetric_chain,
    sharpness_probe,
    theorem_constant,
    theorem_sides,
    verify_pair_isoperimetric,
    verify_theorem,
)

import legacy_reference as legacy
from test_constants import SWEEP_N, SWEEP_P, outcome

Z_MAP = HarmonicMap(TaylorPoly([0, 1]), TaylorPoly([0]))


def test_theorem_constants():
    assert theorem_constant(TheoremId.MIXED_BY_HARDY, p=2.0) == pytest.approx(1.0)
    assert theorem_constant(TheoremId.HARDY_BY_MIXED, p=2.0) == pytest.approx(1.0)
    assert theorem_constant(TheoremId.CONJUGATE_NORM, p=4.0) == pytest.approx(1 + math.sqrt(2))
    # csc for the analytic-vs-real bound, cos for the imaginary-part bound
    # (the sec/sin variants fail numerically)
    assert theorem_constant(TheoremId.ANALYTIC_BY_RE, p=4.0) == pytest.approx(
        1.0 / math.sin(math.pi / 8.0)
    )
    assert theorem_constant(TheoremId.IM_BY_ANALYTIC, p=4.0) == pytest.approx(
        math.cos(math.pi / 8.0)
    )
    assert theorem_constant(TheoremId.BERGMAN_EMBEDDING, n=2) == pytest.approx(
        sharp_constant(SharpConstant.ISOP, n=2)
    )


def test_mixed_by_hardy_is_equality_at_p2():
    report = verify_theorem(TheoremId.MIXED_BY_HARDY, 2.0, samples=50, degree=8, seed=1)
    assert report.passed
    assert abs(report.ratio_max - 1.0) < 1e-12


def test_conjugate_norm_ratio_is_one_at_p2():
    report = verify_theorem(TheoremId.CONJUGATE_NORM, 2.0, samples=50, degree=8, seed=2)
    assert report.passed
    assert abs(report.ratio_max - 1.0) < 1e-10


@pytest.mark.parametrize(
    "tag",
    [
        TheoremId.MIXED_BY_HARDY,
        TheoremId.HARDY_BY_MIXED,
        TheoremId.CONJUGATE_NORM,
        TheoremId.ANALYTIC_BY_RE,
        TheoremId.IM_BY_ANALYTIC,
    ],
)
def test_hardy_side_batteries_reduced(tag):
    for p in (1.25, 2.0, 4.0):
        report = verify_theorem(tag, p, samples=40, degree=8, seed=3)
        assert report.passed, (tag, p, report.min_slack)


@pytest.mark.parametrize(
    "tag", [TheoremId.BERGMAN_MIXED_BY_NORM, TheoremId.BERGMAN_NORM_BY_MIXED]
)
def test_bergman_batteries_reduced(tag):
    for p in (1.5, 3.0):
        report = verify_theorem(tag, p, samples=20, degree=6, seed=4)
        assert report.passed, (tag, p, report.min_slack)


def test_relaxed_mixed_hypothesis_holds_up_to_three():
    # the mixed bound also holds with Re(g(0)h(0)) >= 0 for p <= 3
    for p in (1.5, 2.0, 2.5, 3.0):
        constant = sharp_constant(SharpConstant.A, p)
        for seed in range(40):
            m = random_harmonic(8, 1000 + seed, Constraint.RE_NONNEG)
            assert triple_norm(m, p) <= constant * hardy_norm(m, p) * (1 + 1e-9)


def test_relaxed_bergman_mixed_hypothesis_below_three():
    # the Bergman version of the mixed bound also tolerates Re(g(0)h(0)) >= 0
    # for p < 3
    for p in (1.5, 2.5):
        constant = sharp_constant(SharpConstant.A, p)
        for seed in range(20):
            m = random_harmonic(6, 1500 + seed, Constraint.RE_NONNEG)
            assert bergman_triple_norm(m, p) <= constant * bergman_norm(m, p) * (1 + 1e-9)


def test_bergman_embedding_on_z():
    # f = z, n = 2: ||f||_{b^4} = 3^{-1/4} <= (1/2) csc(pi/8) * ||f||_{h^2} = 1.3066
    lhs = bergman_norm(Z_MAP, 4.0)
    rhs = sharp_constant(SharpConstant.ISOP, n=2) * hardy_norm(Z_MAP, 2.0)
    assert lhs == pytest.approx(3.0 ** (-0.25))
    assert rhs == pytest.approx(1.3065629648763766)
    assert lhs <= rhs
    report = verify_theorem(TheoremId.BERGMAN_EMBEDDING, 2, samples=20, degree=4, seed=5)
    assert report.passed


def test_bergman_embedding_validation():
    with pytest.raises(ValueError):
        verify_theorem(TheoremId.BERGMAN_EMBEDDING, 1, samples=5)
    with pytest.raises(ValueError):
        verify_theorem(TheoremId.BERGMAN_EMBEDDING, 2.5, samples=5)


def test_chain_for_constant_function():
    m = HarmonicMap(TaylorPoly([1.0]), TaylorPoly([0.0]))
    chain = isoperimetric_chain(m, 2)
    values = [v for _, v in chain]
    assert values[0] == pytest.approx(1.0)
    assert all(b >= a * (1 - 1e-12) for a, b in zip(values, values[1:]))
    # final link: ((1 + cos(pi/4))/(1 - cos(pi/2)))^2 = (1 + cos(pi/4))^2
    assert values[-1] == pytest.approx((1.0 + math.cos(math.pi / 4.0)) ** 2)


def test_chain_for_z_and_random_maps():
    chain = isoperimetric_chain(Z_MAP, 2)
    assert chain[0][1] == pytest.approx(1.0 / 3.0)
    for n in (2, 3):
        for seed in range(10):
            chain = isoperimetric_chain(random_harmonic(4, 2000 + seed), n)
            for (_, lo), (_, hi) in zip(chain, chain[1:]):
                assert lo <= hi * (1 + 1e-9)


def test_chain_final_equals_embedding_constant_power():
    # final = ((1/2) csc(pi/(4n)))^{2n} (int_T |f|^n)^2 by the half-angle identity
    m = random_harmonic(4, 77)
    n = 3
    chain = dict(isoperimetric_chain(m, n))
    circ = circle_power_mean(m, float(n), 1.0)
    expected = sharp_constant(SharpConstant.ISOP, n=n) ** (2 * n) * circ**2
    assert chain["final"] == pytest.approx(expected, rel=1e-12)


def test_chain_validation():
    with pytest.raises(ValueError):
        isoperimetric_chain(Z_MAP, 1)


def test_chain_is_bit_identical_to_seven_public_means():
    maps = [random_harmonic(4, 2100 + seed) for seed in range(5)]
    # factors of different degrees, and an h(0) that normalization moves into g
    maps.append(HarmonicMap(TaylorPoly([0.3, 0.5, -0.2j, 0.1]), TaylorPoly([0.4j, 0.25])))
    for m in maps:
        for n in (2, 3, 4):
            assert isoperimetric_chain(m, n) == legacy.isoperimetric_chain(m, n)


def per_sample_chain_report(n, samples, degree, seed):
    """battery._chain_report as one isoperimetric_chain call per sample."""
    acc = SlackAccumulator()
    for k in range(samples):
        chain = isoperimetric_chain(random_harmonic(degree, seed + k), n)
        for (name_lo, lo), (name_hi, hi) in zip(chain, chain[1:]):
            gap = (hi - lo) / max(hi, 1e-300)
            acc.add((seed + k, name_lo, name_hi), gap, gap < -1e-9)
    return acc.report(
        id="ISOPERIMETRIC_CHAIN",
        p=n,
        grid={"samples": samples, "degree": degree},
        seed=seed,
        tolerance=1e-9,
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_chain_block_equals_per_sample_chains(monkeypatch, n):
    # the battery's block of 25 samples: every link of every row is the
    # per-sample isoperimetric_chain value, from one circle transform per
    # factor and one disk transform per factor and sample
    samples, degree, seed = 25, 4, 83
    g, h = random_coefficients(degree, range(seed, seed + samples))
    chains = [isoperimetric_chain(random_harmonic(degree, seed + k), n) for k in range(samples)]
    calls = count_transforms(monkeypatch)
    assert theorems._chain_links(g, h, n) == chains
    assert len(calls) == 2 + 2 * samples
    expected = per_sample_chain_report(n, samples, degree, seed)
    # the chain report of the isoperimetric sweep, on fewer and on more
    # rows than the embedding's
    for embedding_samples in (samples - 15, samples, 4 * samples):
        reports = theorems.isoperimetric_sweep(
            (1.0,), (n,), embedding_samples, samples, degree, seed
        )
        assert payload(reports[-1]) == payload(expected), embedding_samples


def count_transforms(monkeypatch):
    """Count the calls of np.fft.ifft, the transform behind every trace."""
    calls = []
    ifft = np.fft.ifft

    def counted(*args, **kwargs):
        calls.append(1)
        return ifft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counted)
    return calls


def test_transform_counts(monkeypatch):
    calls = count_transforms(monkeypatch)
    # one circle and one disk transform of g and h serve all seven chain means
    isoperimetric_chain(random_harmonic(4, 5), 3)
    assert len(calls) == 4
    # a block of 32 samples: one circle transform per factor, and one disk
    # transform per factor and sample (STREBEL has the one factor g); both
    # rings of CONJUGATE_NORM share the traces of g and h, and both of the
    # analytic tags the traces of g
    for tag, p_or_n, expected in (
        (TheoremId.CONJUGATE_NORM, 1.5, 2),
        (TheoremId.ANALYTIC_BY_RE, 1.5, 1),
        (TheoremId.IM_BY_ANALYTIC, 3.0, 1),
        (TheoremId.PAIR_ISOPERIMETRIC, 1.0, 2 + 2 * ROW_BLOCK),
        (TheoremId.STREBEL, 1.0, 1 + ROW_BLOCK),
        (TheoremId.BERGMAN_EMBEDDING, 2, 2 + 2 * ROW_BLOCK),
    ):
        calls.clear()
        verify_theorem(tag, p_or_n, samples=ROW_BLOCK, degree=4)
        assert len(calls) == expected, tag


def test_out_of_range_exponents_name_the_callers_value(monkeypatch):
    # the doubled inner exponent would exceed 64; each call is rejected
    # before any transform, with the value the caller gave
    calls = count_transforms(monkeypatch)
    one, zero = TaylorPoly([1.0]), TaylorPoly([0.0])
    for call, given in (
        (lambda: verify_theorem(TheoremId.PAIR_ISOPERIMETRIC, 40, samples=5), "40"),
        (lambda: verify_theorem(TheoremId.PAIR_ISOPERIMETRIC, 32.5, samples=5), "32.5"),
        (lambda: verify_theorem(TheoremId.BERGMAN_EMBEDDING, 40, samples=5), "40"),
        (lambda: verify_theorem(TheoremId.BERGMAN_EMBEDDING, 33, samples=5), "33"),
        (lambda: isoperimetric_chain(Z_MAP, 33), "33"),
        (lambda: isoperimetric_chain(Z_MAP, 40), "40"),
        (lambda: verify_pair_isoperimetric(one, zero, 40), "40"),
    ):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value).endswith(f"got {given}"), str(exc.value)
    assert calls == []
    # the largest accepted values still run
    assert verify_theorem(TheoremId.PAIR_ISOPERIMETRIC, 32, samples=1, degree=1).passed
    assert verify_theorem(TheoremId.BERGMAN_EMBEDDING, 32, samples=1, degree=1).passed
    isoperimetric_chain(HarmonicMap(TaylorPoly([1.0, 0.5]), TaylorPoly([0.0])), 32)


def test_theorem_exponents_are_checked_before_any_draw(monkeypatch):
    # each tag's range is checked once, at the top of verify_theorem, so an
    # exponent that no rule can take draws no seed and runs no transform
    calls = count_transforms(monkeypatch)
    draws = []
    monkeypatch.setattr(theorems, "random_coefficients", lambda *a, **k: draws.append(a))
    for tag, given, interval in (
        (TheoremId.CONJUGATE_NORM, 100, "(1.0, 64.0]"),
        (TheoremId.MIXED_BY_HARDY, 64.5, "(1.0, 64.0]"),
        (TheoremId.BERGMAN_MIXED_BY_NORM, 1, "(1.0, 64.0]"),
        (TheoremId.LINE_PAIRS, math.inf, "(1.0, inf)"),
        (TheoremId.STREBEL, 2.0, "[1.0, 1.0]"),
    ):
        with pytest.raises(ValueError) as exc:
            verify_theorem(tag, given, samples=5)
        assert str(exc.value) == f"{tag.value} requires p in {interval}, got {given}"
    assert calls == [] and draws == []


def test_strebel_holds_at_p_one_only():
    assert verify_theorem(TheoremId.STREBEL, 1.0, samples=2, degree=2).passed
    assert verify_theorem(TheoremId.STREBEL, 1, samples=2, degree=2).p == 1
    for p in (0.5, 2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="STREBEL requires p in"):
            verify_theorem(TheoremId.STREBEL, p, samples=2)


def test_pair_isoperimetric_examples():
    # a = 1, b = 0: both sides equal 1
    one, zero = np.array([[1.0 + 0j]]), np.array([[0j]])
    [(lhs, rhs)] = theorem_sides(TheoremId.PAIR_ISOPERIMETRIC, (1.0,), 0, (one, zero))
    assert lhs == pytest.approx([1.0]) and rhs == pytest.approx([1.0])
    # a = z, b = 0, p = 1/2: int_U |z|^2 = 1/2 <= (int_T |z|)^2 = 1
    [(lhs, rhs)] = theorem_sides(
        TheoremId.PAIR_ISOPERIMETRIC, (0.5,), 1, (np.array([[0j, 1.0]]), zero)
    )
    assert lhs == pytest.approx([0.5]) and rhs == pytest.approx([1.0])
    assert verify_pair_isoperimetric(TaylorPoly([0.0, 1.0]), TaylorPoly([0.0]), 0.5).passed
    # a = b = 0: both sides vanish, so no case is judged
    report = verify_pair_isoperimetric(TaylorPoly([0]), TaylorPoly([0]), 1.0)
    assert report.passed and report.argmin is None
    assert report.min_slack == math.inf and report.ratio_max == 0.0


def test_pair_isoperimetric_random_battery():
    for p in (0.5, 1.0, 2.0):
        for seed in range(30):
            a = random_poly(6, 3000 + seed)
            b = random_poly(6, 4000 + seed)
            assert verify_pair_isoperimetric(a, b, p).passed


def test_strebel_battery():
    report = verify_theorem(TheoremId.STREBEL, 1.0, samples=40, degree=6, seed=6)
    assert report.passed


def test_line_pairs_battery():
    for p in (1.25, 2.0, 4.0):
        report = verify_theorem(TheoremId.LINE_PAIRS, p)
        assert report.passed, (p, report.min_slack)
        assert report.ratio_max <= 1.0 + 1e-9


def test_sharpness_probe_closed_form_values():
    fractions = [0.5, 0.9]
    p = 1.5
    gammas = [f * math.pi / (2 * p) for f in fractions]
    conj = sharpness_probe(TheoremId.CONJUGATE_NORM, p, fractions)
    assert np.allclose(conj, [math.tan(g) for g in gammas], atol=1e-8)
    analytic = sharpness_probe(TheoremId.ANALYTIC_BY_RE, p, fractions)
    assert np.allclose(analytic, [1.0 / math.cos(g) for g in gammas], atol=1e-8)
    imag = sharpness_probe(TheoremId.IM_BY_ANALYTIC, p, fractions)
    assert np.allclose(imag, [math.sin(g) for g in gammas], atol=1e-8)


def test_sharpness_probe_monotone_and_below_constant():
    for tag in (TheoremId.CONJUGATE_NORM, TheoremId.ANALYTIC_BY_RE, TheoremId.IM_BY_ANALYTIC):
        ratios = sharpness_probe(tag, 1.5, [0.5, 0.9, 0.99])
        assert ratios[0] < ratios[1] < ratios[2] < theorem_constant(tag, p=1.5)


def test_sharpness_probe_small_gamma_degenerates():
    ratio = sharpness_probe(TheoremId.CONJUGATE_NORM, 1.5, [1e-4])[0]
    assert ratio < 1e-3  # constants conjugate away to (almost) nothing


def test_sharpness_probe_validation():
    with pytest.raises(ValueError):
        sharpness_probe(TheoremId.CONJUGATE_NORM, 1.5, [1.0])
    with pytest.raises(ValueError):
        sharpness_probe(TheoremId.CONJUGATE_NORM, 3.0, [0.5])
    with pytest.raises(ValueError):
        sharpness_probe(TheoremId.STREBEL, 1.5, [0.5])


@pytest.mark.parametrize("fractions", [[0.5, 1.5], [0.5, 0.9, math.nan]])
def test_sharpness_probe_checks_every_fraction_before_any_quadrature(fractions, monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("ran a quadrature before checking the fractions")

    monkeypatch.setattr(theorems, "calderon_norm", no_quadrature)
    message = rf"^gamma fractions must lie in \(0, 1\), got {re.escape(str(fractions[-1]))}$"
    with pytest.raises(ValueError, match=message):
        sharpness_probe(TheoremId.CONJUGATE_NORM, 1.5, fractions)


def test_tag_tables_hold_every_tag():
    assert set(theorems._TAGS) == set(TheoremId)
    assert set(theorems._PROBES) == {
        TheoremId.CONJUGATE_NORM,
        TheoremId.ANALYTIC_BY_RE,
        TheoremId.IM_BY_ANALYTIC,
    }


def test_tag_table_gives_the_bits_and_messages_of_the_chain():
    for tag in legacy.CHAIN_TAGS:
        for value in SWEEP_P + SWEEP_N:
            for kwargs in ({"p": value}, {"n": value}, {"p": value, "n": value}):
                new = outcome(theorem_constant, tag, **kwargs)
                assert new == outcome(legacy.chain_theorem_constant, tag, **kwargs), (tag, kwargs)
    # the relaxed tag: MIXED_BY_HARDY's constant on (1, 3], its own message outside
    for p in SWEEP_P:
        try:
            inside = 1.0 < float(p) <= 3.0
        except (TypeError, ValueError):
            inside = False
        expected = (
            outcome(legacy.chain_theorem_constant, TheoremId.MIXED_BY_HARDY, p=p)
            if inside
            else ("ValueError", f"MIXED_BY_HARDY_RELAXED requires p in (1.0, 3.0], got {p}")
        )
        assert outcome(theorem_constant, TheoremId.MIXED_BY_HARDY_RELAXED, p=p) == expected, p


def test_battery_builds_no_sample_battery_of_its_own():
    # sample batteries are built and judged in theorems only; battery calls
    # the sweeps and verify_theorem, and reads sides through theorem_sides
    tree = ast.parse(inspect.getsource(battery))
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    from_theorems = {name for module, name in imported if module == "theorems"}
    assert {"verify_theorem", "theorem_sweep", "isoperimetric_sweep", "REL_TOL"} <= from_theorems
    assert not {name for name in from_theorems if name.startswith("_")}
    # no ring or mean of its own either
    assert not {name for module, name in imported if module == "quadrature" and name[0] == "_"}
    assert not hasattr(battery, "_relaxed_mixed_report")
    # rows are blocked in quadrature._means, and every sampled bound is
    # judged by theorems._judge: battery states no block size, no RHS floor
    # and no relative slack tolerance of its own
    text = inspect.getsource(battery)
    for phrase in ("SAMPLE_BLOCK", "ROW_BLOCK", "1e-300", "1e-9"):
        assert phrase not in text, phrase


def test_verify_theorem_validation():
    with pytest.raises(ValueError):
        verify_theorem(TheoremId.MIXED_BY_HARDY, 1.0, samples=5)
    with pytest.raises(ValueError):
        verify_theorem(TheoremId.PAIR_ISOPERIMETRIC, 0.0, samples=5)
    with pytest.raises(ValueError, match="samples"):
        verify_theorem(TheoremId.MIXED_BY_HARDY, 2.0, samples=0)
    with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
        verify_theorem(TheoremId.MIXED_BY_HARDY, 2.0, samples=5, degree=-1)


def test_judge_states_the_relative_slack_rule():
    acc = SlackAccumulator()
    labels = [("a",), ("b",), ("c",), ("d",), ("e",)]
    # slacks 0.5, -2^-30 (inside REL_TOL = 1e-9), -2^-29, skipped, -inf
    lhs = [1.0, 1.0 + 2.0**-30, 1.0 + 2.0**-29, 0.0, 3.0]
    rhs = [2.0, 1.0, 1.0, 0.0, 0.0]
    assert theorems._judge(acc, labels, lhs, rhs) == math.inf
    assert acc.min_slack == -math.inf and acc.argmin == ("e",)
    assert [label for label, _ in acc.violations] == [("c",), ("e",)]
    # a caller's rel_tol replaces REL_TOL; no judged case gives ratio_max 0
    acc = SlackAccumulator()
    assert theorems._judge(acc, labels[:3], lhs[:3], rhs[:3], rel_tol=1e-8) == 1.0 + 2.0**-29
    assert not acc.violations
    assert theorems._judge(SlackAccumulator(), labels[3:4], [0.0], [0.0]) == 0.0


def test_a_zero_rhs_does_not_hide_a_violation(monkeypatch):
    monkeypatch.setattr(theorems, "_block_sides", lambda *args: [([1.0], [0.0])])
    report = verify_theorem(TheoremId.MIXED_BY_HARDY, 2.0, samples=1, seed=3)
    assert not report.passed
    assert report.violations == [((3,), -math.inf)]
    assert report.argmin == (3,) and report.ratio_max == math.inf
    # both sides zero: the case is skipped
    monkeypatch.setattr(theorems, "_block_sides", lambda *args: [([0.0], [0.0])])
    report = verify_theorem(TheoremId.MIXED_BY_HARDY, 2.0, samples=1, seed=3)
    assert report.passed and report.argmin is None and report.ratio_max == 0.0


def test_a_broken_chain_link_raises_with_its_values(monkeypatch):
    m = random_harmonic(4, 5)
    for chain, message in (
        ([("L", 1.0), ("holder", 2.0), ("cosine", 1.5)], "holder = 2 > cosine = 1.5"),
        (
            [("L", 0.5), ("holder", 1.0 + 2e-9), ("cosine", 1.0)],
            "holder = 1.000000002 > cosine = 1",
        ),
        ([("L", 1.0), ("holder", 0.0)], "L = 1 > holder = 0"),
    ):
        monkeypatch.setattr(theorems, "_chain_links", lambda g, h, n, chain=chain: [chain])
        with pytest.raises(ValueError, match=re.escape(f"chain link broken: {message}") + "$"):
            isoperimetric_chain(m, 2)
    # a link within REL_TOL of the next one holds
    chain = [("L", 1.0 + 1e-10), ("holder", 1.0)]
    monkeypatch.setattr(theorems, "_chain_links", lambda g, h, n: [chain])
    assert isoperimetric_chain(m, 2) == chain


def test_empty_batteries_are_rejected():
    # a battery that checks no case would pass vacuously
    with pytest.raises(ValueError, match=r"^samples must be >= 1, got 0$"):
        battery.parseval_bridge_report(samples=0)
    with pytest.raises(ValueError, match=r"^n_series must be >= 1, got 0$"):
        battery.hilbert_singular_report(n_series=0)


# ---------------- per-sample reference for the batched circle batteries ----------------

CIRCLE_TAGS = (
    TheoremId.MIXED_BY_HARDY,
    TheoremId.HARDY_BY_MIXED,
    TheoremId.CONJUGATE_NORM,
    TheoremId.ANALYTIC_BY_RE,
    TheoremId.IM_BY_ANALYTIC,
)
RELAXED = TheoremId.MIXED_BY_HARDY_RELAXED
RELAXED_P_VALUES = (1.25, 1.5, 2.0, 2.5, 3.0)


def reference_sample_sides(tag, p, degree, seed):
    """(LHS, RHS-without-constant) of one sample, one map and two norms at a time."""
    if tag is TheoremId.MIXED_BY_HARDY:
        m = legacy.random_harmonic(degree, seed, Constraint.RE_ZERO)
        return triple_norm(m, p), hardy_norm(m, p)
    if tag is TheoremId.HARDY_BY_MIXED:
        m = legacy.random_harmonic(degree, seed, Constraint.RE_NONPOS)
        return hardy_norm(m, p), triple_norm(m, p)
    if tag is RELAXED:
        m = legacy.random_harmonic(degree, seed, Constraint.RE_NONNEG)
        return triple_norm(m, p), hardy_norm(m, p)
    if tag is TheoremId.CONJUGATE_NORM:
        m = legacy.random_harmonic(degree, seed, Constraint.NONE).normalized()
        return hardy_norm(conjugate_map(m), p), hardy_norm(m, p)
    g = legacy.analytic_sample(degree, seed)
    analytic = hardy_norm(HarmonicMap(g, TaylorPoly([0])), p)
    if tag is TheoremId.ANALYTIC_BY_RE:
        half = g.scaled(0.5)
        return analytic, hardy_norm(HarmonicMap(half, half), p)
    half = g.scaled(-0.5j)
    return hardy_norm(HarmonicMap(half, half), p), analytic


def reference_report(report_id, p, constant, labels, pairs, degree, seed, rel_tol=1e-9):
    """The per-case sample loop over precomputed (LHS, RHS-without-constant) pairs."""
    acc = SlackAccumulator()
    ratio_max = 0.0
    for label, (lhs, rhs_base) in zip(labels, pairs):
        rhs = constant * rhs_base
        if rhs == 0.0:
            continue
        slack = (rhs - lhs) / rhs
        ratio_max = max(ratio_max, lhs / rhs)
        acc.add(label, float(slack), slack < -rel_tol)
    return acc.report(
        id=report_id,
        p=p,
        grid={"samples": len(labels), "degree": degree},
        constant=constant,
        ratio_max=ratio_max,
        seed=seed,
        tolerance=rel_tol,
    )


def payload(report):
    out = report.to_dict()
    out.pop("elapsed_ms")
    return out


def recording_block_sides(calls):
    """theorems._block_sides that records the (LHS, RHS) pairs of each
    exponent of each call in calls."""
    block_sides = theorems._block_sides

    def recorded(*args):
        sides = block_sides(*args)
        calls.extend(list(zip(lhs, rhs)) for lhs, rhs in sides)
        return sides

    return recorded


# sample counts below, at and above one circle block of _means (ROW_BLOCK)
COUNTS = (1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 100)


def test_batched_battery_is_bit_identical_to_sample_loop(monkeypatch):
    degree = 8
    calls = []
    monkeypatch.setattr(theorems, "_block_sides", recording_block_sides(calls))
    for tag in (*CIRCLE_TAGS, RELAXED):
        # the relaxed tag at every battery exponent inside its range (1, 3]
        ps = RELAXED_P_VALUES if tag is RELAXED else battery.THEOREM_P_VALUES
        for p in ps:
            for seed in (0, 7, 1000):
                ref = [reference_sample_sides(tag, p, degree, seed + k) for k in range(100)]
                for count in COUNTS:
                    calls.clear()
                    report = verify_theorem(tag, p, count, degree, seed)
                    if tag is RELAXED:
                        constant = sharp_constant(SharpConstant.A, p)
                    else:
                        constant = theorem_constant(tag, p=p)
                    case = (tag, p, seed, count)
                    # the sides of the whole draw, from one call
                    assert calls == [ref[:count]], case
                    expected = reference_report(
                        report.id, p, constant, [(s,) for s in range(seed, seed + count)],
                        ref[:count], degree, seed,
                    )
                    assert payload(report) == payload(expected), case


def reference_parseval_report(samples, degree, seed, tol=1e-10):
    """parseval_bridge_report with four single-map norms per sample."""
    acc = SlackAccumulator(-0.0)
    for k in range(samples):
        m = legacy.random_harmonic(degree, seed + k, Constraint.NONE)
        cross = 2.0 * (m.g.coeffs[0] * m.h.coeffs[0]).real
        err = abs(hardy_norm(m, 2.0) ** 2 - triple_norm(m, 2.0) ** 2 - cross)
        mz = legacy.random_harmonic(degree, seed + samples + k, Constraint.RE_ZERO)
        err = max(err, abs(hardy_norm(mz, 2.0) - triple_norm(mz, 2.0)))
        acc.add((seed + k,), -err, err > tol)
    return acc.report(
        id="PARSEVAL_BRIDGE",
        p=2.0,
        grid={"samples": samples, "degree": degree},
        seed=seed,
        tolerance=tol,
    )


def test_batched_parseval_is_bit_identical_to_sample_loop():
    for seed in (0, 7, 1000):
        for c in Constraint:
            g, h = random_coefficients(8, range(seed, seed + 40), c)
            rings = [partial(_map_ring, 2.0), partial(_pair_ring, 1.0)]
            hardy, mixed = (
                [mean**0.5 for mean in means]
                for means in _means(rings, (g, h), auto_spec(8, 2.0), 1.0)
            )
            maps = [legacy.random_harmonic(8, seed + k, c) for k in range(40)]
            assert hardy == [hardy_norm(m, 2.0) for m in maps]
            assert mixed == [triple_norm(m, 2.0) for m in maps]
        for count in COUNTS:
            report = battery.parseval_bridge_report(count, 8, seed)
            assert payload(report) == payload(reference_parseval_report(count, 8, seed))


def test_full_suite_passes_degree_to_the_sampled_stages(monkeypatch):
    received = {}
    stages = [name for name in battery.__all__ if name != "full_suite"]
    for name in stages:
        signature = inspect.signature(getattr(battery, name))

        def stage(*args, _name=name, _signature=signature, **kwargs):
            bound = _signature.bind(*args, **kwargs)
            bound.apply_defaults()
            received[_name] = bound.arguments.get("degree")
            return []

        monkeypatch.setattr(battery, name, stage)
    battery.full_suite(degree=5)
    assert sorted(received) == sorted(stages)
    # the isoperimetric batteries keep their own degree
    assert {name: d for name, d in received.items() if d is not None} == {
        "parseval_bridge_report": 5,
        "conjugate_bound_reports": 5,
        "theorem_reports": 5,
        "isoperimetric_reports": 4,
    }


# ------------- per-case reference for the disk, isoperimetric and line batteries -------------


def reference_case_sides(tag, p_or_n, degree, seed, spec=None):
    """(LHS, RHS-without-constant) for one sample of a tag with a disk-rule side."""
    if tag is TheoremId.BERGMAN_MIXED_BY_NORM:
        m = legacy.random_harmonic(degree, seed, Constraint.RE_ZERO)
        return bergman_triple_norm(m, p_or_n, spec), bergman_norm(m, p_or_n, spec)
    if tag is TheoremId.BERGMAN_NORM_BY_MIXED:
        m = legacy.random_harmonic(degree, seed, Constraint.RE_NONPOS)
        return bergman_norm(m, p_or_n, spec), bergman_triple_norm(m, p_or_n, spec)
    if tag is TheoremId.BERGMAN_EMBEDDING:
        n = int(p_or_n)
        m = legacy.random_harmonic(degree, seed, Constraint.NONE).normalized()
        return bergman_norm(m, 2 * n, spec), hardy_norm(m, n, spec)
    if tag is TheoremId.STREBEL:
        f = legacy.random_poly(degree, seed)
        m = HarmonicMap(f, TaylorPoly([0]))
        return disk_power_mean(m, 2.0, spec), circle_power_mean(m, 1.0, 1.0, spec) ** 2
    if tag is TheoremId.PAIR_ISOPERIMETRIC:
        a = legacy.random_poly(degree, seed)
        b = legacy.random_poly(degree, seed + 10_000_019)
        return (
            pair_disk_power_mean(a, b, 2.0 * p_or_n, spec),
            pair_circle_power_mean(a, b, p_or_n, 1.0, spec) ** 2,
        )
    raise AssertionError(tag)


CASE_TAGS = (
    *[(TheoremId.BERGMAN_MIXED_BY_NORM, p) for p in battery.THEOREM_P_VALUES],
    *[(TheoremId.BERGMAN_NORM_BY_MIXED, p) for p in battery.THEOREM_P_VALUES],
    *[(TheoremId.BERGMAN_EMBEDDING, n) for n in (2, 3, 4)],
    (TheoremId.STREBEL, 1.0),
    *[(TheoremId.PAIR_ISOPERIMETRIC, p) for p in (0.5, 1.0, 2.0)],
)


def test_block_sides_are_bit_identical_to_case_loop(monkeypatch):
    calls = []
    monkeypatch.setattr(theorems, "_block_sides", recording_block_sides(calls))
    for tag, p_or_n in CASE_TAGS:
        constant = theorem_constant(tag, p=p_or_n, n=p_or_n)
        for degree in (8, 4):
            for seed in (0, 1000):
                ref = [
                    reference_case_sides(tag, p_or_n, degree, seed + k)
                    for k in range(ROW_BLOCK + 1)
                ]
                for count in (1, ROW_BLOCK + 1):
                    calls.clear()
                    report = verify_theorem(tag, p_or_n, count, degree, seed)
                    case = (tag, p_or_n, degree, seed, count)
                    assert calls == [ref[:count]], case
                    expected = reference_report(
                        report.id, p_or_n, constant, [(s,) for s in range(seed, seed + count)],
                        ref[:count], degree, seed,
                    )
                    assert payload(report) == payload(expected), case
    for p in battery.THEOREM_P_VALUES:
        calls.clear()
        report = verify_theorem(TheoremId.LINE_PAIRS, p)
        catalog = theorems._LINE_CATALOG
        ref = [(line_lp_norm(pair, p, True), line_lp_norm(pair, p, False)) for pair in catalog]
        assert calls == [ref], p
        labels = [(pair.kind.value, pair.parameter) for pair in catalog]
        expected = reference_report(
            report.id, p, theorem_constant(TheoremId.LINE_PAIRS, p), labels, ref, 8, 0
        )
        assert payload(report) == payload(expected), p


# ------------------------- sweeps over a tag's exponents -------------------------

# every sampled tag across its range: the battery exponents, the relaxed tag up
# to 3, every integer n of the embedding, and exponents whose rules differ
# (degree 8 at p = 64 takes 514 circle nodes, at p <= 63 256)
SWEEPS = (
    *[(tag, battery.THEOREM_P_VALUES) for tag in CIRCLE_TAGS],
    (TheoremId.BERGMAN_MIXED_BY_NORM, battery.THEOREM_P_VALUES),
    (TheoremId.BERGMAN_NORM_BY_MIXED, battery.THEOREM_P_VALUES),
    (RELAXED, RELAXED_P_VALUES),
    (TheoremId.BERGMAN_EMBEDDING, (2, 3, 4)),
    (TheoremId.STREBEL, (1.0,)),
    (TheoremId.PAIR_ISOPERIMETRIC, (0.5, 1.0, 2.0)),
    (TheoremId.LINE_PAIRS, battery.THEOREM_P_VALUES),
)
WIDE_SWEEPS = (
    (TheoremId.CONJUGATE_NORM, (1.25, 64.0, 2.0, 63.5)),
    (TheoremId.MIXED_BY_HARDY, (64.0, 3.0)),
    (TheoremId.BERGMAN_MIXED_BY_NORM, (2.0, 64.0)),
    (TheoremId.BERGMAN_EMBEDDING, tuple(range(2, 33))),
    (TheoremId.PAIR_ISOPERIMETRIC, (0.25, 32.0, 1.0, 16)),
)


def sweep_matches_one_exponent_calls(tag, exponents, samples, degree, seed):
    reports = theorems.theorem_sweep(tag, exponents, samples, degree, seed, 1e-9)
    assert [r.p for r in reports] == list(exponents)
    for report, p_or_n in zip(reports, exponents):
        expected = verify_theorem(tag, p_or_n, samples, degree, seed)
        assert payload(report) == payload(expected), (tag, p_or_n, samples, degree, seed)


@pytest.mark.parametrize("tag, exponents", SWEEPS)
def test_sweep_is_bit_identical_to_one_exponent_calls(tag, exponents):
    for samples, degree, seed in ((1, 8, 0), (ROW_BLOCK + 1, 8, 7), (ROW_BLOCK + 1, 4, 1000)):
        sweep_matches_one_exponent_calls(tag, exponents, samples, degree, seed)


@pytest.mark.parametrize("tag, exponents", WIDE_SWEEPS)
def test_sweep_groups_exponents_by_rule(monkeypatch, tag, exponents):
    degree = 8
    rules = {(auto_spec(degree, p), r) for p in exponents for r in (None, 1.0)}
    assert len({spec for spec, _ in rules}) > 1  # the exponents' rules differ
    sweep_matches_one_exponent_calls(tag, exponents, 2, degree, 5)
    calls = []
    means = theorems._means

    def counted(rings, factors, spec, r):
        calls.append((spec, r))
        return means(rings, factors, spec, r)

    monkeypatch.setattr(theorems, "_means", counted)
    theorems.theorem_sweep(tag, exponents, 2, degree, 5, 1e-9)
    # one _means call per rule, however many exponents share it
    swept = list(calls)
    calls.clear()
    for p_or_n in exponents:
        verify_theorem(tag, p_or_n, 2, degree, 5)
    assert sorted(swept, key=repr) == sorted(set(calls), key=repr)


def transformed_rows(monkeypatch):
    """Wrap quadrature._boundary_rows; return the list of keys it records,
    one per (factor row, rule): (disk?, circle nodes, the coefficients the
    row hands over).  A disk call hands over one row at all radii."""
    keys = []
    transform = quadrature._boundary_rows

    def counted(coeffs, n, out=None):
        if out is not None:
            keys.append((True, n, coeffs.tobytes()))
        else:
            keys.extend((False, n, row.tobytes()) for row in np.atleast_2d(coeffs))
        return transform(coeffs, n, out=out)

    monkeypatch.setattr(quadrature, "_boundary_rows", counted)
    return keys


@pytest.mark.parametrize("samples", [8, 40])
def test_isoperimetric_stage_transforms_each_row_once_per_rule(monkeypatch, samples):
    keys = transformed_rows(monkeypatch)
    reports = battery.isoperimetric_reports(samples=samples, degree=4, seed=83)
    assert len(reports) == 11 and all(r.passed for r in reports)
    assert len(keys) == len(set(keys))
    # (a, b) of the samples, the normalized (g, h) of the samples or of the
    # chain's max(10, samples // 4) maps, and g = 1 + z, h = 0 of the
    # closed-form instance, each on one disk and one circle rule
    rows = 2 * samples + 2 * max(samples, 10) + 2
    assert sum(disk for disk, _, _ in keys) == rows
    assert sum(not disk for disk, _, _ in keys) == rows


def test_conjugate_stage_transforms_each_row_once(monkeypatch):
    keys = transformed_rows(monkeypatch)
    reports = battery.conjugate_bound_reports(samples=40, degree=8, seed=41)
    assert len(reports) == len(battery.THEOREM_P_VALUES)
    # the normalized g and h of each map, on the one circle rule of every p
    assert len(keys) == len(set(keys)) == 2 * 40
    assert not any(disk for disk, _, _ in keys)


@pytest.mark.parametrize("field, bad", [("samples", 2.5), ("samples", True), ("degree", 2.5),
                                        ("degree", False), ("seed", 1.5), ("seed", True)])
def test_sampled_batteries_name_a_count_that_is_no_integer(monkeypatch, field, bad):
    draws = []
    monkeypatch.setattr(theorems, "random_coefficients", lambda *a, **k: draws.append(a))
    message = f"^{field} must be an integer, got {re.escape(repr(bad))}$"
    good = {"samples": 3, "degree": 4, "seed": 0}
    args = {**good, field: bad}
    calls = [
        lambda: verify_theorem(TheoremId.PAIR_ISOPERIMETRIC, 1.0, **args),
        lambda: verify_theorem(TheoremId.LINE_PAIRS, 2.0, **args),
        lambda: theorems.theorem_sweep(
            TheoremId.CONJUGATE_NORM, (2.0, 3.0), args["samples"], args["degree"],
            args["seed"], 1e-9,
        ),
        lambda: theorems.isoperimetric_sweep(
            (1.0,), (2,), args["samples"], 10, args["degree"], args["seed"]
        ),
        lambda: battery.conjugate_bound_reports(**args),
        lambda: battery.theorem_reports(**args),
        lambda: battery.isoperimetric_reports(**args),
        lambda: battery.parseval_bridge_report(**args),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()
    assert draws == []
    with pytest.raises(ValueError, match=message):
        battery.full_suite(**{field: bad})


def test_sweeps_check_every_exponent_before_any_draw(monkeypatch):
    calls = count_transforms(monkeypatch)
    draws = []
    monkeypatch.setattr(theorems, "random_coefficients", lambda *a, **k: draws.append(a))
    sweep = partial(theorems.theorem_sweep, samples=3, degree=4, seed=0, rel_tol=1e-9)
    for tag, exponents, message in (
        (TheoremId.CONJUGATE_NORM, (2.0, 3.0, 100), "requires p in (1.0, 64.0], got 100"),
        (TheoremId.BERGMAN_EMBEDDING, (2, 3, 2.5), "requires an integer n in [2, 32], got 2.5"),
        (TheoremId.CONJUGATE_NORM, (), "exponents must be a nonempty tuple, got ()"),
        (TheoremId.CONJUGATE_NORM, (2.0, 3.0, 2.0), "must not repeat, got (2.0, 3.0, 2.0)"),
        (TheoremId.BERGMAN_EMBEDDING, (2, 3, 2), "exponents must not repeat, got (2, 3, 2)"),
    ):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            sweep(tag, exponents)
    for pair_exponents, orders in (((0.5, 40), (2,)), ((0.5,), (2, 40)), ((), (2,)), ((1.0,), ())):
        with pytest.raises(ValueError):
            theorems.isoperimetric_sweep(pair_exponents, orders, 3, 10, 4, 0)
    with pytest.raises(ValueError, match=r"^chain_samples must be >= 1, got 0$"):
        theorems.isoperimetric_sweep((1.0,), (2,), 3, 0, 4, 0)
    with pytest.raises(ValueError, match=r"^exponents must not repeat"):
        theorem_sides(TheoremId.MIXED_BY_HARDY, (2.0, 2.0), 4, random_coefficients(4, [0]))
    with pytest.raises(ValueError, match=r"^degree must be an integer, got 4.0$"):
        theorem_sides(TheoremId.MIXED_BY_HARDY, (2.0,), 4.0, random_coefficients(4, [0]))
    assert calls == [] and draws == []


def test_isoperimetric_sweep_matches_its_one_tag_calls():
    for samples, chain_samples in ((5, 10), (12, 3)):
        reports = theorems.isoperimetric_sweep((0.5, 2.0), (2, 4), samples, chain_samples, 4, 9)
        expected = [
            verify_theorem(TheoremId.STREBEL, 1.0, samples, 4, 9),
            verify_theorem(TheoremId.PAIR_ISOPERIMETRIC, 0.5, samples, 4, 9),
            verify_theorem(TheoremId.PAIR_ISOPERIMETRIC, 2.0, samples, 4, 9),
        ]
        for n in (2, 4):
            expected += [
                verify_theorem(TheoremId.BERGMAN_EMBEDDING, n, samples, 4, 9),
                per_sample_chain_report(n, chain_samples, 4, 9),
            ]
        assert reports[0].id == "STREBEL_INSTANCE"
        assert [payload(r) for r in reports[1:]] == [payload(r) for r in expected]


def test_strebel_instance_is_judged_by_the_one_judge():
    # f = 1 + z: int_U |f|^2 = 3/2 <= (int_T |f|)^2 = 16/pi^2, both sides
    # within 1e-6 of their closed forms
    instance = theorems.isoperimetric_sweep((1.0,), (2,), 2, 1, 4, 0)[0]
    m = HarmonicMap(TaylorPoly([1.0, 1.0]), TaylorPoly([0.0]))
    lhs = disk_power_mean(m, 2.0)
    rhs = circle_power_mean(m, 1.0, 1.0, QuadratureSpec(n_angle=1 << 16)) ** 2
    err = max(abs(lhs - 1.5), abs(rhs - 16.0 / math.pi**2))
    assert payload(instance) == {
        "id": "STREBEL_INSTANCE",
        "p": 1.0,
        "min_slack": min((rhs - lhs) / rhs, 1e-6 - err),
        "argmin": ["1+z"],
        "violations": [],
        "ratio_max": lhs / rhs,
        "tolerance": 1e-12,
        "passed": True,
    }

"""Acceptance battery: every criterion at its stated tolerance.

Each criterion is one test (plus the strict-xfail regression locks for the
two stated equality angles that the scans falsify), and each prints its own
pass/fail line, so `pytest -v -s` shows the full scoreboard.
"""

import io
import json
import math

import numpy as np
import pytest

from rieszlab import battery
from rieszlab.cli import run
from rieszlab.constants import Minorant, SharpConstant, conjugate_exponent_bar, sharp_constant
from rieszlab.gridlab import (
    InequalityId,
    check_pluri_lines,
    check_submean,
    default_p_values,
    equality_loci,
    locate_equality,
    origin_circle_mean,
    slack_function,
    stated_equality_loci,
    verify_pointwise,
)
from rieszlab.hilbert import periodic_hilbert, singular_hilbert_at
from rieszlab.maps import Constraint, FourierSeries, random_harmonic
from rieszlab.quadrature import hardy_norm, triple_norm
from rieszlab.reporting import GridSpec
from rieszlab.theorems import TheoremId, sharpness_probe, verify_theorem

FULL_GRID = GridSpec(r_nodes=2000, t_nodes=4000)


def _line(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_1_constant_identities():
    worst = 0.0
    for p in np.linspace(1.1, 8.0, 70):
        p = float(p)
        pbar = conjugate_exponent_bar(p)
        a = sharp_constant(SharpConstant.A, p)
        b = sharp_constant(SharpConstant.B, p)
        cot = math.cos(math.pi / (2 * pbar)) / math.sin(math.pi / (2 * pbar))
        worst = max(worst, abs(a * b - cot))
        worst = max(worst, abs(math.sqrt(2.0) * a - 1.0 / math.sin(math.pi / (2 * pbar))))
    ok = worst < 1e-12
    _line("1 (constant identities)", ok, f"max |error| = {worst:.3e} < 1e-12")
    assert ok


def test_criterion_2_p2_bridge():
    worst_bridge = 0.0
    worst_equality = 0.0
    for k in range(100):
        m = random_harmonic(k % 9, 5000 + k, Constraint.NONE)
        cross = 2.0 * (m.g.coeffs[0] * m.h.coeffs[0]).real
        worst_bridge = max(
            worst_bridge, abs(hardy_norm(m, 2.0) ** 2 - triple_norm(m, 2.0) ** 2 - cross)
        )
        mz = random_harmonic(k % 9, 6000 + k, Constraint.RE_ZERO)
        worst_equality = max(worst_equality, abs(hardy_norm(mz, 2.0) - triple_norm(mz, 2.0)))
    ok = worst_bridge < 1e-10 and worst_equality < 1e-10
    _line(
        "2 (p=2 bridge)",
        ok,
        f"bridge err {worst_bridge:.3e}, RE_ZERO equality err {worst_equality:.3e} < 1e-10",
    )
    assert ok


def test_criterion_3_hilbert_transform():
    cos_series = FourierSeries({-1: 0.5, 1: 0.5})
    sin_series = FourierSeries({-1: 0.5j, 1: -0.5j})
    hc = periodic_hilbert(cos_series)
    cos_exact = all(hc.coeffs[k] == sin_series.coeffs[k] for k in (-1, 1))

    involution_exact = True
    rng = np.random.default_rng(31)
    for _ in range(50):
        coeffs = {
            int(k): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for k in rng.integers(-16, 17, size=12)
        }
        s = FourierSeries(coeffs)
        twice = periodic_hilbert(periodic_hilbert(s))
        involution_exact &= all(twice.coeffs[k] == -s.coeffs[k] for k in s.coeffs)

    worst_singular = 0.0
    for k in range(5):
        rng2 = np.random.default_rng(800 + k)
        coeffs = {
            j: complex(rng2.uniform(-1, 1), rng2.uniform(-1, 1))
            for j in range(-16, 17)
            if j != 0
        }
        scale = 0.25 / sum(abs(j) * abs(c) for j, c in coeffs.items())
        s = FourierSeries({j: c * scale for j, c in coeffs.items()})
        hs = periodic_hilbert(s)
        for tau in (0.4, 2.1):
            worst_singular = max(
                worst_singular, abs(singular_hilbert_at(s, tau, 1e-6) - hs(tau))
            )
    ok = cos_exact and involution_exact and worst_singular < 1e-6
    _line(
        "3 (Hilbert transform)",
        ok,
        f"H[cos]=sin exact: {cos_exact}, H^2=-Id exact: {involution_exact}, "
        f"singular vs multiplier err {worst_singular:.3e} < 1e-6",
    )
    assert ok


def test_criterion_4_conjugate_norm_and_calderon_probe():
    worst = math.inf
    for p in (1.25, 1.5, 2.0, 3.0, 4.0, 6.0):
        report = verify_theorem(TheoremId.CONJUGATE_NORM, p, samples=200, degree=8, seed=41)
        worst = min(worst, report.min_slack)
        assert report.passed, (p, report.min_slack)
    ratio = sharpness_probe(TheoremId.CONJUGATE_NORM, 1.5, [0.995])[0]
    floor = 0.9 * math.sqrt(3.0)
    ok = worst >= -1e-9 and ratio >= floor
    _line(
        "4 (conjugate-norm bound + Calderon probe)",
        ok,
        f"worst relative slack {worst:.3e}; probe ratio {ratio:.6f} >= {floor:.6f}",
    )
    assert ok


def test_criterion_5_lemma_grids():
    worst = math.inf
    for tag in InequalityId:
        for p in default_p_values(tag):
            report = verify_pointwise(tag, p, FULL_GRID)
            worst = min(worst, report.min_slack)
            assert report.min_slack >= -1e-9, (tag.value, p, report.min_slack)
    _line("5 (lemma grids 2000x4000, 8 p-values per tag)", True, f"worst min_slack {worst:.3e}")


def _cell_diag(tag):
    from rieszlab.gridlab import cell_diagonal

    return cell_diagonal(tag, FULL_GRID)


@pytest.mark.parametrize(
    "tag,p",
    [
        (InequalityId.MIXED_BY_SUM_LOW, 1.5),
        (InequalityId.SUM_BY_MIXED_RADIAL, 3.0),
        (InequalityId.SUM_BY_MIXED_HIGH, 3.0),
    ],
)
def test_criterion_5_equality_loci_as_stated(tag, p):
    """Stated loci for the low-range lemma and the normalized upper bound are
    genuine equality points: the located minimizer falls within one cell."""
    point, slack = locate_equality(tag, p)
    dist = min(
        math.hypot(*(a - b for a, b in zip(point, locus)))
        for locus in stated_equality_loci(tag, p)
    )
    ok = abs(slack) <= 1e-7 and dist <= _cell_diag(tag)
    _line(f"5 (equality locus {tag.value})", ok, f"|slack|={abs(slack):.2e}, dist={dist:.2e}")
    assert ok


@pytest.mark.parametrize(
    "tag,p",
    [(InequalityId.MIXED_BY_SUM_MID, 3.0), (InequalityId.MIXED_BY_SUM_HIGH, 6.0)],
)
@pytest.mark.xfail(
    strict=True,
    reason="stated equality angles (pi/p resp. pi/2 + pi/p) are falsified by the "
    "scan: the actual equality angle is pi - pi/p (they agree only at p = 4); "
    "see the derived-locus test below and the decisions ledger",
)
def test_criterion_5_equality_loci_as_stated_high_range(tag, p):
    point, slack = locate_equality(tag, p)
    dist = min(
        math.hypot(*(a - b for a, b in zip(point, locus)))
        for locus in stated_equality_loci(tag, p)
    )
    _line(
        f"5 (stated equality locus {tag.value})",
        dist <= _cell_diag(tag),
        f"dist to stated locus {dist:.3f} (expected failure: stated angle falsified)",
    )
    assert abs(slack) <= 1e-7 and dist <= _cell_diag(tag)


@pytest.mark.parametrize(
    "tag,p",
    [(InequalityId.MIXED_BY_SUM_MID, 3.0), (InequalityId.MIXED_BY_SUM_HIGH, 6.0)],
)
def test_criterion_5_high_range_derived_loci_and_falsification_lock(tag, p):
    point, slack = locate_equality(tag, p)
    dist = min(
        math.hypot(*(a - b for a, b in zip(point, locus)))
        for locus in equality_loci(tag, p)
    )
    slack_fn = slack_function(tag)
    stated_slacks = [
        float(slack_fn(p, np.asarray(r), np.asarray(t)))
        for r, t in stated_equality_loci(tag, p)
    ]
    ok = abs(slack) <= 1e-7 and dist <= _cell_diag(tag) and min(stated_slacks) > 1e-3
    _line(
        f"5 (derived equality locus {tag.value})",
        ok,
        f"|slack|={abs(slack):.2e}, dist={dist:.2e}; slack at stated angle "
        f"{min(stated_slacks):.3f} > 0 (falsification locked)",
    )
    assert ok


def test_criterion_6_subharmonicity():
    worst = math.inf
    for mid, ps in (
        (Minorant.RE_BRANCH, (1.25, 1.5, 2.0)),
        (Minorant.PHI_MID, (2.0, 3.0, 4.0)),
        (Minorant.PHI_HIGH, (4.0, 6.0, 8.0)),
        (Minorant.PSI, (1.5, 3.0, 5.0)),
    ):
        for p in ps:
            report = check_submean(mid, p, centers=64, radii=16, angles=1024, seed=53)
            worst = min(worst, report.min_slack)
            assert report.passed and report.min_slack >= -1e-9, (mid, p)

    origin = origin_circle_mean(Minorant.PHI_MID, 3.0, 1.0)
    origin_ok = abs(origin - 2.0 / (3.0 * math.pi)) < 1e-10
    # independent dense-trapezoid cross-check of the same average
    n = 1 << 21
    theta = np.arange(n) * (2.0 * math.pi / n)
    from rieszlab.constants import minorant_value

    trap = float(np.mean(minorant_value(Minorant.PHI_MID, np.exp(1j * theta), 3.0)))
    origin_ok &= abs(trap - 2.0 / (3.0 * math.pi)) < 1e-10

    pluri_worst = math.inf
    for mid in (Minorant.F_PAIR, Minorant.G_PAIR):
        for p in (1.5, 3.0, 6.0):
            report = check_pluri_lines(mid, p, n_lines=64, seed=67)
            pluri_worst = min(pluri_worst, report.min_slack)
            assert report.passed, (mid, p)

    ok = worst >= -1e-9 and origin_ok and pluri_worst >= -1e-8
    _line(
        "6 (subharmonicity)",
        ok,
        f"worst submean deficit {worst:.3e}; PHI_MID origin mean = 2/(3 pi) "
        f"within 1e-10: {origin_ok}; worst line deficit {pluri_worst:.3e}",
    )
    assert ok


def test_criterion_7_isoperimetric():
    reports = battery.isoperimetric_reports(samples=100, degree=4, seed=83)
    instance = next(r for r in reports if r.id == "STREBEL_INSTANCE")
    assert instance.passed
    for r in reports:
        assert r.passed, (r.id, r.p, r.min_slack)
    chains = [r for r in reports if r.id == "ISOPERIMETRIC_CHAIN"]
    ok = instance.passed and all(r.passed for r in reports) and len(chains) == 3
    _line(
        "7 (isoperimetric)",
        ok,
        "3/2 <= 16/pi^2 closed form; pair inequality at p in {1/2, 1, 2}; "
        "embedding and monotone chains for n in {2, 3, 4}",
    )
    assert ok


def test_criterion_8_typo_adjudication():
    report = battery.typo_adjudication_report()
    v_norm = report.grid["v_norm"]
    sin_bound = report.grid["sin_form_bound"]
    cos_bound = report.grid["cos_form_bound"]
    ok = (
        report.passed
        and abs(v_norm - (3.0 / 8.0) ** 0.25) < 1e-10
        and v_norm > sin_bound
        and v_norm <= cos_bound
    )
    _line(
        "8 (typo adjudication)",
        ok,
        f"||sin||_4 = {v_norm:.6f} violates the sin-form bound {sin_bound:.6f} "
        f"and satisfies the cos-form bound {cos_bound:.6f}",
    )
    assert ok


def test_criterion_9_suite_determinism():
    def run_suite() -> str:
        buf = io.StringIO()
        code = run(["suite", "--seed", "0", "--format", "json"], buf)
        assert code == 0, "suite reported a verification failure"
        payload = json.loads(buf.getvalue())
        for entry in payload:
            entry.pop("elapsed_ms", None)
        return json.dumps(payload, sort_keys=True)

    first = run_suite()
    second = run_suite()
    ok = first == second
    _line("9 (suite determinism)", ok, f"{len(json.loads(first))} reports identical across runs")
    assert ok

"""Tests for the grid verification lab: scans, equality location, submean."""

import math

import numpy as np
import pytest

import legacy_reference as legacy
from rieszlab.constants import Minorant, SharpConstant as SC, minorant_F, minorant_G, sharp_constant
from rieszlab.gridlab import (
    InequalityId,
    cell_diagonal,
    check_pluri_lines,
    check_submean,
    default_p_values,
    equality_loci,
    inequality_range,
    locate_equality,
    origin_circle_mean,
    scan_ranges,
    slack_function,
    stated_equality_loci,
    verify_pointwise,
)
from rieszlab.reporting import GridSpec

SMALL = GridSpec(r_nodes=256, t_nodes=512)
TWO_PI = 2.0 * math.pi


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(r_nodes=8)
    with pytest.raises(ValueError):
        GridSpec(tolerance=0.0)
    with pytest.raises(ValueError):
        GridSpec(refine_factor=1)


@pytest.mark.parametrize("field", ["r_nodes", "t_nodes", "refine_factor"])
@pytest.mark.parametrize("value", [16.5, 32.0, True, np.True_, "32", np.float64(32.0)])
def test_gridspec_counts_must_be_integers(field, value):
    # a float count used to pass and then fail in np.linspace with TypeError
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        GridSpec(**{field: value})


def test_gridspec_accepts_numpy_integer_counts():
    grid = GridSpec(r_nodes=np.int64(32), t_nodes=np.uint16(64), refine_factor=np.int32(4))
    assert verify_pointwise(InequalityId.SUM_BY_MIXED_HIGH, 3.0, grid).passed


def test_scan_cell_and_zoom_share_the_tag_domain():
    # GridSpec took range overrides that verify_pointwise honoured but
    # cell_diagonal and locate_equality ignored; now all three take the
    # tag's domain from scan_ranges
    tag, grid = InequalityId.SUM_BY_MIXED_HIGH, GridSpec(r_nodes=64, t_nodes=128)
    (r_lo, r_hi), (t_lo, t_hi) = scan_ranges(tag)
    report = verify_pointwise(tag, 3.0, grid)
    assert report.grid["t_range"] == [t_lo, t_hi] and report.grid["r_range"][1] == r_hi
    assert cell_diagonal(tag, grid) == math.hypot((r_hi - r_lo) / 63, (t_hi - t_lo) / 127)
    (r, t), _ = locate_equality(tag, 3.0)
    assert r_lo <= r <= r_hi and t_lo <= t <= t_hi


@pytest.mark.parametrize("tag", list(InequalityId), ids=lambda tag: tag.value)
def test_cell_diagonal_spans_the_tag_axes(tag):
    grid = GridSpec(r_nodes=17, t_nodes=33)
    r, t = scan_ranges(tag)
    if t is None:
        # a scalar tag used to raise TypeError
        with pytest.raises(ValueError, match=f"^{tag.value} is a scalar inequality"):
            cell_diagonal(tag, grid)
        return
    dt = (t[1] - t[0]) / 32
    expected = dt if r is None else math.hypot((r[1] - r[0]) / 16, dt)
    assert cell_diagonal(tag, grid) == expected


def test_out_of_range_p_rejected():
    with pytest.raises(ValueError):
        verify_pointwise(InequalityId.MIXED_BY_SUM_LOW, 3.0, SMALL)
    with pytest.raises(ValueError):
        verify_pointwise(InequalityId.MIXED_BY_SUM_HIGH, 3.0, SMALL)
    with pytest.raises(ValueError):
        verify_pointwise(InequalityId.SUM_BY_MIXED_HIGH, 2.0, SMALL)


def test_every_tag_has_eight_default_exponents_in_range():
    for tag in InequalityId:
        ps = default_p_values(tag)
        assert len(ps) == 8
        lo, hi, lo_closed, hi_closed = inequality_range(tag)
        for p in ps:
            assert (lo <= p if lo_closed else lo < p)
            assert (p <= hi if hi_closed else p < hi)


def test_verbitsky_slack_vanishes_identically_at_p2():
    slack = slack_function(InequalityId.VERBITSKY_COS)
    x = np.linspace(-math.pi / 2, math.pi / 2, 1001)
    assert np.max(np.abs(slack(2.0, x))) < 1e-14


def test_verbitsky_equality_at_half_angle_over_p():
    slack = slack_function(InequalityId.VERBITSKY_COS)
    for p in np.linspace(1.05, 2.0, 12):
        assert abs(float(slack(float(p), np.asarray(math.pi / (2 * p))))) < 1e-12


def test_all_tags_scan_clean_on_reduced_grids():
    for tag in InequalityId:
        for p in default_p_values(tag):
            report = verify_pointwise(tag, p, SMALL)
            assert report.min_slack >= -1e-9, (tag, p, report.min_slack)
            assert report.passed


def test_report_fields_and_violation_invariant():
    report = verify_pointwise(InequalityId.MIXED_BY_SUM_LOW, 1.5, SMALL)
    assert report.id == "MIXED_BY_SUM_LOW"
    assert report.grid["r_nodes"] == 256
    assert (report.min_slack < -report.tolerance) == bool(report.violations)
    d = report.to_dict()
    assert "argmin" in d and "min_slack" in d and "violations" in d
    assert None not in d.values()


def test_locate_equality_examples():
    # the (sharp1)-style normalized upper bound: equality at (1, +/- pi/p)
    point, slack = locate_equality(InequalityId.SUM_BY_MIXED_RADIAL, 3.0)
    assert abs(slack) < 1e-8
    assert min(
        math.hypot(point[0] - r, point[1] - t)
        for r, t in equality_loci(InequalityId.SUM_BY_MIXED_RADIAL, 3.0)
    ) < 1e-4
    # the low-p lower bound: |w| = |z| and arg(wz) = pi/p (mod 2 pi)
    point, slack = locate_equality(InequalityId.MIXED_BY_SUM_LOW, 1.5)
    assert abs(slack) < 1e-8
    assert point[0] == pytest.approx(1.0, abs=1e-6)
    assert min(abs(abs(point[1]) - v) for v in (math.pi / 1.5, TWO_PI - math.pi / 1.5)) < 1e-4


def test_locate_equality_high_range_lands_on_derived_locus():
    point, slack = locate_equality(InequalityId.MIXED_BY_SUM_HIGH, 6.0)
    assert abs(slack) < 1e-8
    derived = equality_loci(InequalityId.MIXED_BY_SUM_HIGH, 6.0)
    assert min(math.hypot(point[0] - r, point[1] - t) for r, t in derived) < 1e-4


def test_stated_high_range_loci_are_not_minima():
    # the stated equality angles pi/p (mid) and pi/2 + pi/p (high) carry
    # strictly positive slack; the actual equality angle is pi - pi/p
    for tag, p in (
        (InequalityId.MIXED_BY_SUM_MID, 3.0),
        (InequalityId.MIXED_BY_SUM_HIGH, 6.0),
    ):
        slack_fn = slack_function(tag)
        for r, t in stated_equality_loci(tag, p):
            assert float(slack_fn(p, np.asarray(r), np.asarray(t))) > 1e-2
        for r, t in equality_loci(tag, p):
            assert abs(float(slack_fn(p, np.asarray(r), np.asarray(t)))) < 1e-13


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
    minorants, bypassing the (r, t) reduction: the reference for the reduction."""
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
    return float((t1 - t2 - t3) / (abs(t1) + abs(t2) + abs(t3)))


def test_homogeneity_reduction_matches_full_scan():
    rng = np.random.default_rng(7)
    cases = {
        InequalityId.MIXED_BY_SUM_LOW: 1.5,
        InequalityId.MIXED_BY_SUM_MID: 3.0,
        InequalityId.MIXED_BY_SUM_HIGH: 6.0,
        InequalityId.SUM_BY_MIXED_HIGH: 4.0,
        InequalityId.SUM_BY_MIXED_LOW: 1.5,
    }
    for tag, p in cases.items():
        fn = slack_function(tag)
        for _ in range(200):
            z = math.sqrt(rng.uniform()) * 2.0 * np.exp(1j * rng.uniform(0, TWO_PI))
            w = math.sqrt(rng.uniform()) * 2.0 * np.exp(1j * rng.uniform(0, TWO_PI))
            if min(abs(z), abs(w)) < 1e-3:
                continue
            big, small = (z, w) if abs(z) >= abs(w) else (w, z)
            reduced = float(
                fn(p, np.asarray(abs(small) / abs(big)), np.asarray(np.angle(z) + np.angle(w)))
            )
            assert abs(unreduced_slack(tag, p, z, w) - reduced) < 1e-12


def test_unreduced_slack_rejects_scalar_tags():
    with pytest.raises(ValueError):
        unreduced_slack(InequalityId.CSC_GAP, 2.0, 1.0, 1.0)


def test_minorant_weights_are_pinned_by_tangency():
    """The d (resp. b) weights are the unique tangent values: scaling them by
    +/-5% in either direction breaks the inequality near the equality angle,
    while the exact values keep the slack nonnegative.  This is the
    operational meaning of sharpness for the weight constants."""
    from rieszlab.constants import (
        SharpConstant as SC,
        psi_angle,
        re_branch_angle,
        sharp_constant,
        theta_upper,
    )

    t = np.linspace(-TWO_PI, TWO_PI, 200001)

    def upper_min_slack(p, profile, c_kind, d_kind, d_scale):
        c = sharp_constant(c_kind, p)
        d = sharp_constant(d_kind, p) * d_scale
        t1 = c * 2.0 ** (p / 2)
        t2 = d * profile(t, p)
        t3 = (2.0 + 2.0 * np.cos(t)) ** (p / 2)
        return float(np.min((t1 - t2 - t3) / (np.abs(t1) + np.abs(t2) + np.abs(t3))))

    for p, profile, ck, dk in (
        (3.0, theta_upper, SC.C_HIGH_P, SC.D_HIGH_P),
        (6.0, theta_upper, SC.C_HIGH_P, SC.D_HIGH_P),
        (1.3, psi_angle, SC.C_LOW_P, SC.D_LOW_P),
        (1.7, psi_angle, SC.C_LOW_P, SC.D_LOW_P),
    ):
        assert upper_min_slack(p, profile, ck, dk, 1.0) >= -1e-9
        assert upper_min_slack(p, profile, ck, dk, 1.05) < -1e-5
        assert upper_min_slack(p, profile, ck, dk, 0.95) < -1e-5

    def lower_min_slack(p, b_scale):
        a = sharp_constant(SC.A_LOW_P, p)
        b = sharp_constant(SC.B_LOW_P, p) * b_scale
        t1 = a * (2.0 + 2.0 * np.cos(t)) ** (p / 2)
        t2 = b * re_branch_angle(t, p)
        t3 = 2.0 ** (p / 2)
        return float(np.min((t1 - t2 - t3) / (np.abs(t1) + np.abs(t2) + np.abs(t3))))

    for p in (1.3, 1.7):
        assert lower_min_slack(p, 1.0) >= -1e-9
        assert lower_min_slack(p, 1.05) < -1e-5
        assert lower_min_slack(p, 0.95) < -1e-5


# ------------------------------ subharmonicity ------------------------------


def test_submean_passes_harmonic_function():
    report = check_submean(lambda z: np.real(z), 2.0, centers=16, radii=4, angles=1024)
    assert report.passed and report.min_slack > -1e-12


def test_submean_flags_superharmonic_function():
    report = check_submean(
        lambda z: -np.abs(z) ** 2, 2.0, centers=16, radii=4, angles=1024
    )
    assert not report.passed
    assert report.min_slack < -1e-3


def test_submean_minorant_battery_reduced():
    for mid, p in (
        (Minorant.RE_BRANCH, 1.5),
        (Minorant.PHI_MID, 3.0),
        (Minorant.PHI_HIGH, 6.0),
        (Minorant.PSI, 1.5),
        (Minorant.PSI, 3.0),
        (Minorant.THETA_LOWER, 6.0),
        (Minorant.THETA_UPPER, 3.0),
    ):
        report = check_submean(mid, p, centers=16, radii=8, angles=1024, seed=5)
        assert report.passed, (mid, p, report.min_slack)
        assert report.min_slack >= -1e-9


def test_submean_parameter_validation():
    with pytest.raises(ValueError, match="angles"):
        check_submean(Minorant.PHI_MID, 3.0, angles=128)
    with pytest.raises(ValueError, match="angles"):
        check_submean(Minorant.PHI_MID, 3.0, angles=1023)
    with pytest.raises(ValueError):
        check_submean(Minorant.PHI_MID, 3.0, centers=0)
    with pytest.raises(ValueError):
        check_submean(Minorant.F_PAIR, 3.0)


def test_origin_circle_mean_closed_forms():
    # RE_BRANCH and PHI_MID have the +/- 2 sin(p pi/2)/(p pi) closed form
    assert origin_circle_mean(Minorant.PHI_MID, 3.0, 1.0) == pytest.approx(
        2.0 / (3.0 * math.pi), abs=1e-15
    )
    p, rho = 1.5, 0.7
    expected = 2.0 * math.sin(p * math.pi / 2) / (p * math.pi) * rho ** (p / 2)
    assert origin_circle_mean(Minorant.RE_BRANCH, p, rho) == pytest.approx(expected)
    assert origin_circle_mean(Minorant.PSI, p, rho) == pytest.approx(expected)


@pytest.mark.parametrize(
    "mid, p, rho, match",
    [
        (Minorant.RE_BRANCH, 3.0, 1.0, "RE_BRANCH requires p"),
        (Minorant.PHI_MID, 5.0, 1.0, "PHI_MID requires p"),
        (Minorant.PSI, 1.5, -1.0, "rho must be >= 0"),
        (Minorant.PSI, 1.5, math.nan, "rho must be >= 0"),
    ],
)
def test_origin_circle_mean_rejects_what_the_minorant_does_not_cover(mid, p, rho, match):
    # checked before any closed form, as the quadrature branch does
    with pytest.raises(ValueError, match=match):
        origin_circle_mean(mid, p, rho)


def test_origin_circle_mean_matches_dense_trapezoid():
    from rieszlab.constants import minorant_value

    for mid, p in ((Minorant.PHI_MID, 3.0), (Minorant.PHI_HIGH, 6.0), (Minorant.THETA_UPPER, 3.0)):
        n = 1 << 21
        theta = np.arange(n) * (TWO_PI / n)
        trap = float(np.mean(minorant_value(mid, np.exp(1j * theta), p)))
        assert abs(trap - origin_circle_mean(mid, p, 1.0)) < 1e-10


def test_origin_means_are_nonnegative():
    for mid, ps in (
        (Minorant.RE_BRANCH, (1.25, 1.5, 2.0)),
        (Minorant.PHI_MID, (2.0, 3.0, 4.0)),
        (Minorant.PHI_HIGH, (4.0, 6.0, 8.0)),
        (Minorant.PSI, (1.5, 3.0, 5.0)),
    ):
        for p in ps:
            assert origin_circle_mean(mid, p, 1.0) >= -1e-12


def test_pluri_lines_pass_and_constant_line_is_flat():
    report = check_pluri_lines(Minorant.G_PAIR, 3.0, n_lines=16, seed=2)
    assert report.passed and report.min_slack >= -1e-8
    # a constant line: restriction is constant, deficit exactly 0
    from rieszlab.constants import minorant_F
    from rieszlab.gridlab import _circle_means

    fn = lambda tau: minorant_F(0.4 + 0.1j + 0.0 * tau, 0.2j + 0.0 * tau, 3.0)  # noqa: E731
    [((mean,), (err,))] = _circle_means(
        lambda rows, tau: tau, [lambda tau, theta, modulus: fn(tau)], [0.3 + 0.2j], [0.5], 512
    )
    assert abs(mean - fn(np.asarray(0.3 + 0.2j))) < 1e-14 and err < 1e-14


def test_pluri_lines_validation():
    with pytest.raises(ValueError):
        check_pluri_lines(Minorant.RE_BRANCH, 1.5)
    with pytest.raises(ValueError):
        check_pluri_lines(Minorant.F_PAIR, 1.5, n_lines=8)
    with pytest.raises(ValueError, match="angles"):
        check_pluri_lines(Minorant.F_PAIR, 1.5, angles=128)
    with pytest.raises(ValueError, match="angles"):
        check_pluri_lines(Minorant.F_PAIR, 1.5, angles=1023)
    with pytest.raises(ValueError, match="centers and radii"):
        check_pluri_lines(Minorant.F_PAIR, 1.5, centers=0)


def test_radial_low_scan_examples():
    # the single-radius low-p reduction at the named exponents: clean scans
    # with the minimum at (1, +/- pi/p)
    for p in (1.1, 1.5, 1.9):
        report = verify_pointwise(
            InequalityId.MIXED_BY_SUM_RADIAL, p, GridSpec(r_nodes=512, t_nodes=1024)
        )
        assert report.min_slack >= -1e-9
        assert report.argmin[0] > 0.99
        assert abs(abs(report.argmin[1]) - math.pi / p) < 0.02


@pytest.mark.parametrize("tag", list(InequalityId), ids=lambda tag: tag.value)
def test_equality_loci_match_the_loci_written_out_per_tag(tag):
    # the registry names each repeated locus once; every list stays element for element
    for p in default_p_values(tag):
        for loci, written_out in (
            (equality_loci, legacy.LOCI),
            (stated_equality_loci, legacy.STATED_LOCI),
        ):
            if tag in written_out:
                assert loci(tag, p) == written_out[tag](p), (tag, p)
            else:
                with pytest.raises(ValueError, match="equality locus"):
                    loci(tag, p)

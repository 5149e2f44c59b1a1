"""Tests for the sharp constants and the minorant zoo."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import legacy_reference as legacy
from rieszlab.constants import (
    _CONSTANTS,
    _fold_pi,
    Minorant,
    SharpConstant as SC,
    conjugate_exponent_bar,
    minorant_F,
    minorant_G,
    minorant_value,
    psi_angle,
    re_branch_angle,
    sharp_constant,
    theta_lower,
    theta_lower_reflected,
    theta_upper,
)

TWO_PI = 2.0 * math.pi


def test_pbar():
    assert conjugate_exponent_bar(2.0) == 2.0
    assert conjugate_exponent_bar(4.0) == 4.0
    assert abs(conjugate_exponent_bar(1.25) - 5.0) < 1e-14
    with pytest.raises(ValueError):
        conjugate_exponent_bar(1.0)


def test_constant_values():
    assert abs(sharp_constant(SC.A, 2.0) - 1.0) < 1e-14
    assert abs(sharp_constant(SC.B, 2.0) - 1.0) < 1e-14
    assert abs(sharp_constant(SC.HILBERT_NORM, 4.0) - (1.0 + math.sqrt(2.0))) < 1e-13
    assert abs(sharp_constant(SC.PICHORIDES, 4.0) - (1.0 + math.sqrt(2.0))) < 1e-13
    assert abs(sharp_constant(SC.ISOP, n=2) - 1.3065629648763766) < 1e-12
    assert abs(sharp_constant(SC.ISOP, n=3) - 0.5 / math.sin(math.pi / 12.0)) < 1e-13
    # the small-p / large-p pair of lower-bound constants
    assert abs(sharp_constant(SC.A_LOW_P, 1.5) - (1.0 + math.cos(math.pi / 1.5)) ** -0.75) < 1e-13
    assert abs(sharp_constant(SC.A_HIGH_P, 3.0) - (1.0 - math.cos(math.pi / 3.0)) ** -1.5) < 1e-13
    assert abs(sharp_constant(SC.B_LOW_P, 1.5) - 2.0**0.75 * math.tan(math.pi / 3.0)) < 1e-13
    assert abs(sharp_constant(SC.B_HIGH_P, 3.0) - 2.0**1.5 / math.tan(math.pi / 6.0)) < 1e-13
    # d constants in their two equivalent closed forms
    p = 3.0
    d = sharp_constant(SC.D_HIGH_P, p)
    assert abs(d - 2.0**p * math.cos(math.pi / (2 * p)) ** (p - 1) * math.sin(math.pi / (2 * p))) < 1e-12
    p = 1.5
    d = sharp_constant(SC.D_LOW_P, p)
    alt = (2.0 - 2.0 * math.cos(math.pi / p)) ** (p / 2.0) / math.tan(math.pi / (2.0 * p))
    assert abs(d - alt) < 1e-13


def test_constant_identities_across_range():
    for p in np.linspace(1.05, 16.0, 120):
        p = float(p)
        pbar = conjugate_exponent_bar(p)
        a = sharp_constant(SC.A, p)
        b = sharp_constant(SC.B, p)
        cot = math.cos(math.pi / (2 * pbar)) / math.sin(math.pi / (2 * pbar))
        assert abs(a * b - cot) < 1e-12
        assert abs(math.sqrt(2.0) * a - 1.0 / math.sin(math.pi / (2 * pbar))) < 1e-12
        assert abs(sharp_constant(SC.HILBERT_NORM, p) - sharp_constant(SC.HILBERT_NORM, p / (p - 1))) < 1e-12


def test_verbitsky_pair():
    for p in (1.2, 1.7, 2.0):
        assert abs(sharp_constant(SC.VERBITSKY_A, p) - math.cos(math.pi / (2 * p)) ** -p) < 1e-13
        assert abs(sharp_constant(SC.VERBITSKY_B, p) - math.tan(math.pi / (2 * p))) < 1e-13


def test_constant_validity_ranges():
    with pytest.raises(ValueError):
        sharp_constant(SC.A_LOW_P, 2.5)
    with pytest.raises(ValueError):
        sharp_constant(SC.C_HIGH_P, 2.0)
    with pytest.raises(ValueError):
        sharp_constant(SC.C_LOW_P, 2.0)
    with pytest.raises(ValueError):
        sharp_constant(SC.VERBITSKY_A, 2.1)
    with pytest.raises(ValueError):
        sharp_constant(SC.ISOP, n=1)
    with pytest.raises(ValueError):
        sharp_constant(SC.A, 1.0)
    with pytest.raises(ValueError):
        sharp_constant(SC.A)


# a dense p sweep: (1, 64] in steps of 1/64 (so every integer and half
# integer, where formulas and ranges meet), 1000 random exponents, the floats
# next to the range ends, and values outside every range
SWEEP_P = [
    *np.linspace(1.0, 64.0, 63 * 64 + 1).tolist(),
    *np.random.default_rng(0).uniform(1.0, 64.0, 1000).tolist(),
    *(float(np.nextafter(end, side)) for end in (1.0, 2.0, 4.0) for side in (0.0, 8.0)),
    -1.0, 0.0, 0.5, 64.5, 100.0, 1e6, math.inf, -math.inf, math.nan, 2, 3, None, "2.5",
]
SWEEP_N = [*range(1, 41), 2.0, 2.5, math.inf, math.nan, None]


def outcome(fn, *args, **kwargs):
    """The bits of fn's value, or the type and message of what it raised."""
    try:
        return float(fn(*args, **kwargs)).hex()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def test_constant_table_holds_every_constant():
    assert set(_CONSTANTS) == set(SC)


def test_constant_table_gives_the_bits_and_messages_of_the_chain():
    for kind in SC:
        for p in SWEEP_P:
            new = outcome(sharp_constant, kind, p)
            assert new == outcome(legacy.chain_sharp_constant, kind, p), (kind, p)
        for n in SWEEP_N:
            new = outcome(sharp_constant, kind, n=n)
            assert new == outcome(legacy.chain_sharp_constant, kind, n=n), (kind, n)


# ------------------------------- re branch -------------------------------


def test_re_branch_point_values():
    assert minorant_value(Minorant.RE_BRANCH, 1.0, 1.5) == pytest.approx(1.0)
    for p in (1.2, 1.5, 2.0):
        zeta = np.exp(1j * math.pi / p)
        assert abs(minorant_value(Minorant.RE_BRANCH, zeta, p)) < 1e-13
    assert minorant_value(Minorant.RE_BRANCH, 0.0, 1.5) == 0.0


def test_re_branch_rejects_out_of_range():
    with pytest.raises(ValueError):
        minorant_value(Minorant.RE_BRANCH, 1.0, 2.5)


@given(
    st.floats(min_value=0.01, max_value=5.0),
    st.floats(min_value=1.01, max_value=2.0),
)
@settings(max_examples=50, deadline=None)
def test_re_branch_seam_continuity(rho, p):
    eps = 1e-9
    left = rho ** (p / 2) * re_branch_angle(math.pi - eps, p)
    right = rho ** (p / 2) * re_branch_angle(math.pi + eps, p)
    assert abs(left - right) < 1e-7 * max(1.0, rho ** (p / 2))
    # and exactly at the seam the two closed forms agree
    assert abs(re_branch_angle(math.pi, p) - math.cos(p * math.pi / 2.0)) < 1e-14


def test_re_branch_angle_is_two_pi_periodic():
    p = 1.7
    t = np.linspace(-math.pi, 0.0, 100)
    assert np.max(np.abs(re_branch_angle(t, p) - re_branch_angle(t + TWO_PI, p))) < 1e-13


# ------------------------------ theta profiles ------------------------------


def test_theta_lower_examples():
    assert abs(theta_lower(0.0, 3.0) - (-math.cos(1.5 * math.pi))) < 1e-14  # = 0
    assert abs(theta_lower(math.pi / 2.0, 6.0) - (-1.0)) < 1e-14
    assert abs(theta_lower(0.0, 6.0)) < 1e-14  # both max-branch cosines vanish
    with pytest.raises(ValueError):
        theta_lower(0.3, 2.0)
    with pytest.raises(ValueError):
        theta_lower_reflected(0.3, 3.9)


def test_theta_lower_pi_shift_extension_matches_for_p_above_4():
    # for p > 4 the pi-shift extension rule coincides with the even
    # 2 pi-periodic one (the profile is symmetric about pi/2)
    for p in (4.0, 5.0, 6.5, 12.0):
        t = np.linspace(math.pi, TWO_PI, 301)
        shifted = theta_lower_reflected(np.abs(t) - math.pi, p)
        ours = theta_lower_reflected(t, p)
        assert np.max(np.abs(shifted - ours)) < 1e-13


def test_theta_lower_conj_extension_is_two_pi_periodic_not_pi_shift():
    # for 2 < p <= 4 the pi-shift extension would break the inequality beyond
    # |theta| = pi; the implementation uses the even 2 pi-periodic extension
    p = 3.0
    t = math.pi + 0.1
    ours = theta_lower(t, p)
    two_pi_ext = -math.cos(0.5 * p * (math.pi - (TWO_PI - t)))
    pi_shift = -math.cos(0.5 * p * (math.pi - (t - math.pi)))
    assert abs(ours - two_pi_ext) < 1e-14
    assert abs(ours - pi_shift) > 0.4


def test_theta_discrepancy_at_p4():
    # the two closed forms at p = 4 differ by a global sign...
    t = np.linspace(-math.pi, math.pi, 64)
    conj_form = theta_lower(t, 4.0)
    reflected = theta_lower_reflected(t, 4.0)
    assert np.max(np.abs(conj_form + reflected)) < 1e-13
    # ...but the -pi/2 shift used by the p >= 4 inequality restores agreement
    shifted = theta_lower_reflected(t - math.pi / 2.0, 4.0)
    assert np.max(np.abs(shifted - conj_form)) < 1e-13


def test_theta_upper_examples():
    assert theta_upper(0.0, 3.0) == pytest.approx(-1.0)
    for p in (2.5, 3.0, 6.0):
        assert abs(theta_upper(math.pi / p, p)) < 1e-13
    t = np.linspace(0.0, TWO_PI, 1000)
    assert np.max(np.abs(theta_upper(-t, 3.0) - theta_upper(t, 3.0))) == 0.0
    with pytest.raises(ValueError):
        theta_upper(0.2, 1.5)


def test_theta_upper_matches_literal_band_definition():
    # the mod-reduction implementation agrees with the literal three-band
    # definition on [0, 2 pi] and its even extension on [-2 pi, 0]
    for p in (2.4, 3.0, 7.0):
        band = TWO_PI / p
        m = np.linspace(0.0, TWO_PI, 5001)
        literal = np.where(
            m <= band,
            -np.cos(0.5 * p * m),
            np.where(
                m >= TWO_PI - band,
                -np.cos(0.5 * p * (TWO_PI - m)),
                np.maximum(
                    np.abs(np.cos(0.5 * p * m)), np.abs(np.cos(0.5 * p * (TWO_PI - m)))
                ),
            ),
        )
        assert np.max(np.abs(theta_upper(m, p) - literal)) < 1e-13
        assert np.max(np.abs(theta_upper(-m, p) - literal)) < 1e-13


def test_theta_upper_matches_doubled_exponent_reflection():
    # the upper profile at exponent p is the reflected lower profile at
    # exponent 2p evaluated at the half-angle (t + pi)/2
    for p in (2.5, 3.0, 5.0):
        t = np.linspace(0.0, TWO_PI, 2001)
        lhs = theta_upper(t, p)
        rhs = theta_lower_reflected((t + math.pi) / 2.0, 2.0 * p)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_psi_angle_low_p_and_p2_rejection():
    assert psi_angle(math.pi, 1.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        psi_angle(0.3, 2.0)


# ------------------------------ minorants ------------------------------


def test_minorant_F_vanishes_on_axes():
    for p in (1.5, 3.0, 6.0):
        assert minorant_F(0.0, 0.3 + 0.4j, p) == 0.0
        assert minorant_F(0.5 - 0.2j, 0.0, p) == 0.0


def test_minorant_F_equality_locus_low_p():
    p = 1.5
    z = w = np.exp(1j * math.pi / 3.0)  # arg(zw) = 2 pi/3 = pi/p
    assert abs(minorant_F(z, w, p)) < 1e-13


def test_minorant_F_homogeneity():
    rng = np.random.default_rng(8)
    for _ in range(100):
        p = float(rng.uniform(1.1, 6.0))
        z = complex(rng.normal(), rng.normal())
        w = complex(rng.normal(), rng.normal())
        t = float(rng.uniform(0.1, 3.0))
        lhs = minorant_F(t * z, t * w, p)
        rhs = t**p * minorant_F(z, w, p)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))


def test_minorant_F_continuous_at_p4():
    rng = np.random.default_rng(12)
    for _ in range(30):
        z = complex(rng.normal(), rng.normal())
        w = complex(rng.normal(), rng.normal())
        assert abs(minorant_F(z, w, 4.0) - minorant_F(z, w, 4.0 + 1e-9)) < 1e-6


def test_minorant_G_homogeneity():
    rng = np.random.default_rng(21)
    for _ in range(100):
        p = float(rng.uniform(1.1, 6.0))
        if abs(p - 2.0) < 1e-3:
            continue
        z = complex(rng.normal(), rng.normal())
        w = complex(rng.normal(), rng.normal())
        t = float(rng.uniform(0.1, 3.0))
        lhs = minorant_G(t * z, t * w, p)
        rhs = t**p * minorant_G(z, w, p)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))


def test_minorant_G_examples():
    assert minorant_G(0.3 + 0.1j, 0.0, 1.5) == 0.0
    # negative real product of unit moduli: cos((p/2)(pi - pi)) = 1
    val = minorant_G(np.exp(0.25j * math.pi), np.exp(0.75j * math.pi), 1.5)
    assert val == pytest.approx(1.0)
    # upper profile zero at arg(zw) = pi/p
    val = minorant_G(np.exp(1j * math.pi / 6.0), np.exp(1j * math.pi / 6.0), 3.0)
    assert abs(val) < 1e-13
    with pytest.raises(ValueError):
        minorant_G(1.0, 1.0, 2.0)


def test_minorant_value_ranges():
    assert minorant_value(Minorant.PHI_MID, 1.0 + 0j, 2.0) == pytest.approx(
        -math.cos(math.pi)
    )
    with pytest.raises(ValueError):
        minorant_value(Minorant.RE_BRANCH, 1.0, 2.5)
    with pytest.raises(ValueError):
        minorant_value(Minorant.PHI_MID, 1.0, 5.0)
    with pytest.raises(ValueError):
        minorant_value(Minorant.PSI, 1.0, 2.0)
    with pytest.raises(ValueError):
        minorant_value(Minorant.F_PAIR, 1.0, 1.5)


@pytest.mark.parametrize("mid", [Minorant.PHI_HIGH, Minorant.PSI, Minorant.THETA_UPPER])
@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_minorant_value_rejects_an_infinite_or_nan_p(mid, p):
    # the table's upper end at infinity is open: a NaN profile is no value
    with pytest.raises(ValueError, match=rf"{mid.value} requires p in .*, inf\)"):
        minorant_value(mid, 0.5 + 0.5j, p)


@pytest.mark.parametrize("two_var", [minorant_F, minorant_G])
@pytest.mark.parametrize("p", [math.inf, math.nan])
def test_two_variable_minorants_reject_an_infinite_or_nan_p(two_var, p):
    with pytest.raises(ValueError, match=r"requires p in \(1.0, inf\)"):
        two_var(0.5 + 0.1j, 0.3j, p)


def test_minorant_seam_continuity_across_negative_axis():
    rng = np.random.default_rng(5)
    for mid, p in (
        (Minorant.RE_BRANCH, 1.5),
        (Minorant.PHI_MID, 3.0),
        (Minorant.PHI_HIGH, 6.0),
        (Minorant.PSI, 1.5),
        (Minorant.PSI, 3.0),
        (Minorant.THETA_LOWER, 6.0),
        (Minorant.THETA_UPPER, 3.0),
    ):
        for _ in range(20):
            rho = float(rng.uniform(0.1, 2.0))
            up = minorant_value(mid, rho * np.exp(1j * (math.pi - 1e-9)), p)
            dn = minorant_value(mid, rho * np.exp(-1j * (math.pi - 1e-9)), p)
            assert abs(up - dn) < 1e-7 * max(1.0, rho ** (p / 2))


# ------------------------------ fold fast paths ------------------------------


def _np_mod_theta_upper(theta, p):
    """theta_upper with np.mod taken on every input: the formula whose bits
    its fast path must keep."""
    theta = np.asarray(theta, dtype=float)
    m = np.mod(np.abs(theta), TWO_PI)
    band = TWO_PI / p
    lo = -np.cos(0.5 * p * m)
    hi = -np.cos(0.5 * p * (TWO_PI - m))
    mid = np.maximum(np.abs(lo), np.abs(hi))
    out = np.where(m <= band, lo, np.where(m >= TWO_PI - band, hi, mid))
    return out if out.shape else float(out)


def _u64(x):
    return np.asarray(x, dtype=float).view(np.uint64)


_FOLD_EDGES = [0.0, -0.0, math.pi, -math.pi, TWO_PI, -TWO_PI, math.nan, math.inf, -math.inf]
_FOLD_EDGES += [
    float(np.nextafter(x, d)) for x in (math.pi, -math.pi, TWO_PI, -TWO_PI) for d in (-math.inf, math.inf)
]
_ANGLE_LISTS = st.one_of(
    st.lists(st.floats(-math.pi, math.pi), max_size=40),  # np.angle's range
    st.lists(st.floats(-TWO_PI, TWO_PI), max_size=40),
    st.lists(st.sampled_from(_FOLD_EDGES), max_size=40),
    st.lists(st.floats(), max_size=40),  # NaN and +-inf included
)


@given(_ANGLE_LISTS, st.floats(min_value=2.0, max_value=64.0, exclude_min=True))
@settings(max_examples=300, deadline=None)
def test_fold_fast_paths_keep_the_bits_of_np_mod(values, p):
    # on arrays, and on each value as a 0-d array: whichever path a fold takes
    # (|theta| <= pi, < 2 pi or beyond, NaN), it gives the np.mod formula's bits
    theta = np.array(values, dtype=float)
    with np.errstate(invalid="ignore"):
        for x in [theta, theta.reshape(1, -1)] + [np.asarray(v) for v in values]:
            assert np.array_equal(_u64(_fold_pi(x)), _u64(legacy._fold_pi(x))), x
            new, old = theta_upper(x, p), _np_mod_theta_upper(x, p)
            assert type(new) is type(old) and np.array_equal(_u64(new), _u64(old)), x


def test_principal_angles_skip_the_reduction(monkeypatch):
    # np.angle's values, +-pi and +-0 included, never reach np.mod
    rng = np.random.default_rng(3)
    zeta = rng.normal(size=4096) + 1j * rng.normal(size=4096)
    zeta[:6] = [-1.0, complex(-1.0, -0.0), 0.0, complex(-0.0, 0.0), complex(-0.0, -0.0), 1j]
    theta = np.angle(zeta)
    fold, upper = legacy._fold_pi(theta), _np_mod_theta_upper(theta, 3.0)

    def no_mod(*args, **kwargs):
        raise AssertionError("np.mod was called")

    monkeypatch.setattr(np, "mod", no_mod)
    assert np.array_equal(_u64(_fold_pi(theta)), _u64(fold))
    assert np.array_equal(_u64(theta_upper(theta, 3.0)), _u64(upper))

"""Tests for the periodic Hilbert transform, conjugation, and line pairs."""

import ast
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import gamma as gamma_fn

from rieszlab import hilbert
from rieszlab.hilbert import (
    LineKind,
    LinePair,
    conjugate_map,
    line_lp_norm,
    line_pair_values,
    periodic_hilbert,
    singular_hilbert_at,
)
from rieszlab.maps import (
    FourierSeries,
    HarmonicMap,
    TaylorPoly,
    boundary_series,
    calderon_taylor,
    eval_harmonic,
    random_harmonic,
)
from rieszlab.quadrature import hardy_norm, triple_norm
from rieszlab.constants import SharpConstant, sharp_constant
from rieszlab.theorems import TheoremId, verify_theorem

TWO_PI = 2.0 * math.pi
COS_SERIES = FourierSeries({-1: 0.5, 1: 0.5})
SIN_SERIES = FourierSeries({-1: 0.5j, 1: -0.5j})


def random_series(degree, seed, zero_mean=False):
    rng = np.random.default_rng(seed)
    return FourierSeries(
        {
            k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for k in range(-degree, degree + 1)
            if not (zero_mean and k == 0)
        }
    )


def test_multiplier_cos_to_sin():
    out = periodic_hilbert(COS_SERIES)
    assert out.coeffs == SIN_SERIES.coeffs


def test_multiplier_positive_mode():
    out = periodic_hilbert(FourierSeries({3: 1.0}))
    assert out.coeffs == {3: -1j}


def test_multiplier_constant_maps_to_minus_i():
    out = periodic_hilbert(FourierSeries({0: 1.0}))
    assert out.coeffs == {0: -1j}
    # and applying it again gives -1: the involution holds at k = 0 too
    assert periodic_hilbert(out).coeffs == {0: -1.0}


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_involution_is_exact(seed):
    s = random_series(8, seed)
    twice = periodic_hilbert(periodic_hilbert(s))
    assert all(twice.coeffs[k] == -s.coeffs[k] for k in s.coeffs)


def test_conjugate_of_identity_map():
    m = HarmonicMap(TaylorPoly([0, 1]), TaylorPoly([0]))
    conj = conjugate_map(m)
    assert conj.g.coeffs == (0j, -1j) and conj.h.coeffs == (0j,)


def test_conjugate_of_cosine_is_sine():
    half = TaylorPoly([0, 0.5])
    conj = conjugate_map(HarmonicMap(half, half))
    t = np.linspace(0, TWO_PI, 33, endpoint=False)
    vals = eval_harmonic(conj, np.exp(1j * t))
    assert np.max(np.abs(vals - np.sin(t))) < 1e-14


def test_conjugate_coefficients_match_multiplier():
    # boundary_series(conjugate_map(m)) == periodic_hilbert(boundary_series(m))
    # exactly on coefficients, including k = 0
    for seed in range(10):
        m = random_harmonic(8, seed)
        lhs = boundary_series(conjugate_map(m)).coeffs
        rhs = periodic_hilbert(boundary_series(m)).coeffs
        assert set(lhs) == set(rhs)
        assert all(lhs[k] == rhs[k] for k in rhs)


def test_conjugate_twice_negates_normalized_map():
    m = random_harmonic(6, 3).normalized()
    twice = conjugate_map(conjugate_map(m))
    z = 0.8 * np.exp(1j * np.linspace(0, TWO_PI, 17))
    assert np.max(np.abs(eval_harmonic(twice, z) + eval_harmonic(m, z))) < 1e-14


def test_real_map_conjugate_identity():
    # for real-valued f with h(0) != 0: |f~ - f~(0)|^2 = |f~|^2 - |f~(0)|^2
    rng = np.random.default_rng(19)
    w = TaylorPoly(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    m = HarmonicMap(w, w)  # f = w + conj(w) is real, h(0) = w(0) != 0
    conj = conjugate_map(m)
    center = eval_harmonic(conj, 0.0)
    pts = 0.9 * np.sqrt(rng.uniform(size=50)) * np.exp(1j * rng.uniform(0, TWO_PI, 50))
    for z in pts:
        tf = eval_harmonic(conj, z)
        hat = tf - center
        assert abs(abs(hat) ** 2 - (abs(tf) ** 2 - abs(center) ** 2)) < 1e-12


def test_triple_norm_preserved_by_conjugation():
    for seed in range(5):
        m = random_harmonic(7, 40 + seed).normalized()
        for p in (1.25, 2.0, 4.0):
            assert abs(triple_norm(conjugate_map(m), p) - triple_norm(m, p)) < 1e-12


def test_conjugate_norm_bound_on_every_tested_map():
    for seed in range(20):
        m = random_harmonic(8, 60 + seed).normalized()
        for p in (1.25, 1.5, 2.0, 3.0, 6.0):
            bound = sharp_constant(SharpConstant.HILBERT_NORM, p) * hardy_norm(m, p)
            assert hardy_norm(conjugate_map(m), p) <= bound + 1e-9


# ---------------------------- singular integral ----------------------------


def test_singular_integral_of_cosine_at_zero():
    val = singular_hilbert_at(COS_SERIES, 0.0, 1e-6)
    assert abs(val) < 1e-6  # sin(0) = 0


def test_singular_integral_annihilates_constants():
    const = FourierSeries({0: 2.3 - 0.7j})
    for tau in (0.0, 1.1, 4.0):
        assert abs(singular_hilbert_at(const, tau, 1e-3)) < 1e-12


def test_singular_matches_multiplier_on_zero_mean_traces():
    for seed in range(3):
        s = random_series(16, 90 + seed, zero_mean=True)
        scale = 0.25 / sum(abs(k) * abs(c) for k, c in s.coeffs.items())
        s = FourierSeries({k: c * scale for k, c in s.coeffs.items()})
        hs = periodic_hilbert(s)
        for tau in (0.4, 2.0):
            assert abs(singular_hilbert_at(s, tau, 1e-6) - hs(tau)) < 1e-6


def test_singular_truncation_error_is_linear_in_epsilon():
    s = FourierSeries({1: 0.3 + 0.2j, 2: -0.4j, 3: 0.1, -2: 0.25})
    hs = periodic_hilbert(s)
    c_bound = 2.0 * sum(abs(k) * abs(c) for k, c in s.coeffs.items()) + 1.0
    for eps in (1e-2, 1e-3, 1e-4):
        err = abs(singular_hilbert_at(s, 0.7, eps) - hs(0.7))
        assert err <= c_bound * eps


def test_singular_epsilon_validation():
    with pytest.raises(ValueError):
        singular_hilbert_at(COS_SERIES, 0.0, 0.0)
    with pytest.raises(ValueError):
        singular_hilbert_at(COS_SERIES, 0.0, 4.0)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
def test_singular_tau_must_be_finite(tau):
    # a NaN tau returned nan+nanj after two scipy IntegrationWarnings; the
    # check now comes before any quad, so no warning is emitted
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^tau must be finite, got {tau}$"):
            singular_hilbert_at(COS_SERIES, tau, 1e-6)


# -------------------------------- line pairs --------------------------------


def test_line_pair_values_lorentzian_origin():
    assert line_pair_values(LinePair(LineKind.LORENTZIAN), 0.0) == (1.0, 0.0)


def test_line_pair_values_poisson():
    phi, phit = line_pair_values(LinePair(LineKind.POISSON_KERNEL, 1.0), 1.0)
    assert phi == pytest.approx(1.0 / (2.0 * math.pi))
    assert phit == pytest.approx(1.0 / (2.0 * math.pi))


def test_line_pair_values_indicator():
    phi, phit = line_pair_values(LinePair(LineKind.INDICATOR), 3.0)
    assert phi == 0.0
    assert phit == pytest.approx(math.log(2.0) / math.pi)
    with pytest.raises(ValueError):
        line_pair_values(LinePair(LineKind.INDICATOR), 1.0)


def test_line_pair_parameter_validation():
    with pytest.raises(ValueError):
        LinePair(LineKind.POISSON_KERNEL, -1.0)


def line_hilbert_pv(pair: LinePair, x: float) -> float:
    """Principal-value quadrature of (1/pi) int phi(t)/(x-t) dt, the reference
    for the closed-form catalog.

    Uses the odd-difference form -(1/pi) int_0^inf (phi(x+t) - phi(x-t))/t dt,
    whose integrand is bounded at t = 0.
    """
    x = float(x)

    def phi(t: float) -> float:
        return line_pair_values(pair, t)[0] if pair.kind is not LineKind.INDICATOR \
            else (1.0 if abs(t) <= 1.0 else 0.0)

    def integrand(t: float) -> float:
        return (phi(x + t) - phi(x - t)) / t

    if pair.kind is LineKind.INDICATOR:
        # integrand jumps where x +/- t crosses +/-1; beyond both supports it is 0
        breaks = sorted({abs(x - 1.0), abs(x + 1.0)})
        upper = abs(x) + 2.0
        val, _ = integrate.quad(
            integrand, 1e-12, upper, points=breaks, limit=400, epsabs=1e-10
        )
    else:
        val, _ = integrate.quad(integrand, 0.0, np.inf, limit=400, epsabs=1e-10)
    return -val / math.pi


@pytest.mark.parametrize(
    "pair",
    [
        LinePair(LineKind.POISSON_KERNEL, 1.0),
        LinePair(LineKind.POISSON_KERNEL, 0.5),
        LinePair(LineKind.LORENTZIAN),
        LinePair(LineKind.INDICATOR),
    ],
)
def test_principal_value_quadrature_matches_catalog(pair):
    xs = np.linspace(-4.7, 4.7, 20)
    for x in xs:
        if pair.kind is LineKind.INDICATOR and min(abs(x - 1), abs(x + 1)) < 1e-6:
            continue
        _, phit = line_pair_values(pair, float(x))
        assert abs(line_hilbert_pv(pair, float(x)) - phit) < 1e-6


def test_line_lp_norm_closed_forms():
    # ||phi||_p^p for the Poisson kernel: (y/pi)^p y^{1-2p} sqrt(pi)
    # Gamma(p - 1/2)/Gamma(p)
    p, y = 2.0, 1.0
    expected = (y / math.pi) ** p * y ** (1 - 2 * p) * math.sqrt(math.pi) * gamma_fn(
        p - 0.5
    ) / gamma_fn(p)
    got = line_lp_norm(LinePair(LineKind.POISSON_KERNEL, y), p) ** p
    assert abs(got - expected) < 1e-10
    assert line_lp_norm(LinePair(LineKind.INDICATOR), 1.5) == pytest.approx(2.0 ** (1 / 1.5))


# ------------------------------ empirical ratios ------------------------------


def test_empirical_ratio_is_one_at_p2():
    report = verify_theorem(TheoremId.CONJUGATE_NORM, 2.0, 20, 8, 700)
    assert abs(report.ratio_max - 1.0) < 1e-10


def test_empirical_ratio_cosine_p4():
    half = TaylorPoly([0, 0.5])
    m = HarmonicMap(half, half)
    assert hardy_norm(conjugate_map(m), 4.0) / hardy_norm(m, 4.0) == pytest.approx(1.0)


def test_empirical_ratio_calderon_truncations_increase_toward_limit():
    # truncations of the extremal family: ratios increase with the truncation
    # order and stay below tan(gamma); the spike carries its mass at scales
    # ~K^{-(1-a)}, so the full limit is far beyond any sane order
    gamma = 0.995 * math.pi / 3.0
    ratios = []
    for order in (1024, 4096, 16384):
        g = calderon_taylor(gamma, order)
        half = g.scaled(0.5)
        m = HarmonicMap(half, half)
        ratios.append(hardy_norm(conjugate_map(m), 1.5) / hardy_norm(m, 1.5))
    assert ratios[0] < ratios[1] < ratios[2] < math.tan(gamma)
    assert ratios[1] >= 1.40  # frozen from the measured convergence profile


def test_hilbert_depends_only_on_constants_and_maps():
    # the conjugate-function bound is measured by the CONJUGATE_NORM battery,
    # so the transforms need no quadrature of their own
    tree = ast.parse(inspect.getsource(hilbert))
    package_modules = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
    }
    assert package_modules == {"constants", "maps"}

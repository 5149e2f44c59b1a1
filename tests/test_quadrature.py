"""Tests for the norm quadrature: closed forms, exactness, the disk rows
shared among workers, and the Calderon rules."""

import math
import re
import sys
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszlab import battery, maps, quadrature
from rieszlab.maps import (
    CalderonFamily,
    Constraint,
    HarmonicMap,
    TaylorPoly,
    boundary_series,
    random_coefficients,
    random_harmonic,
)
from rieszlab.quadrature import (
    ROW_BLOCK,
    QuadratureConvergenceError,
    QuadratureSpec,
    _gl01,
    _map_ring,
    _means,
    _pair_ring,
    _product_ring,
    auto_spec,
    bergman_norm,
    bergman_triple_norm,
    calderon_norm,
    calderon_power_mean,
    circle_power_mean,
    disk_power_mean,
    hardy_norm,
    mp_radius,
    pair_circle_power_mean,
    pair_disk_power_mean,
    product_circle_power_mean,
    product_disk_power_mean,
    triple_norm,
)
from rieszlab.theorems import TheoremId, verify_theorem
from test_gridlab_blocks import _spread_blocks

Z_MAP = HarmonicMap(TaylorPoly([0, 1]), TaylorPoly([0]))
ONE_PLUS_Z = HarmonicMap(TaylorPoly([1, 1]), TaylorPoly([0]))
COS_MAP = HarmonicMap(TaylorPoly([0, 0.5]), TaylorPoly([0, 0.5]))


def bilateral_coeffs(m, width):
    out = np.zeros(2 * width + 1, dtype=complex)
    for k, c in boundary_series(m).coeffs.items():
        out[k + width] = c
    return out


def exact_even_power_mean(m, half_power):
    """int_T |f|^{2*half_power} by coefficient convolutions (Parseval oracle)."""
    width = m.degree
    c = bilateral_coeffs(m, width)
    sq = np.convolve(c, np.conj(c[::-1]))  # coefficients of |f|^2
    acc = sq
    for _ in range(half_power - 1):
        acc = np.convolve(acc, sq)
    return float(acc[len(acc) // 2].real)


def test_mp_radius_of_z_is_r():
    for p in (1.5, 2.0, 7.0):
        assert abs(mp_radius(Z_MAP, p, 0.5) - 0.5) < 1e-14


def test_norms_of_constant_one():
    one = HarmonicMap(TaylorPoly([1]), TaylorPoly([0]))
    for p in (1.0, 2.0, 5.0):
        assert abs(hardy_norm(one, p) - 1.0) < 1e-14
        assert abs(bergman_norm(one, p) - 1.0) < 1e-13
        assert abs(mp_radius(one, p, 0.3) - 1.0) < 1e-14


def test_hardy_one_plus_z():
    assert abs(hardy_norm(ONE_PLUS_Z, 2.0) - math.sqrt(2.0)) < 1e-13
    # |1 + e^{it}| = 2|cos(t/2)| integrates to 4/pi; the corner needs a dense rule
    val = hardy_norm(ONE_PLUS_Z, 1.0, QuadratureSpec(n_angle=1 << 17))
    assert abs(val - 4.0 / math.pi) < 1e-8


def test_hardy_of_z_is_one_every_p():
    for p in (1.0, 1.5, 2.0, 4.0, 8.0):
        assert abs(hardy_norm(Z_MAP, p) - 1.0) < 1e-13


def test_bergman_closed_forms():
    assert abs(bergman_norm(Z_MAP, 2.0) - 1.0 / math.sqrt(2.0)) < 1e-13
    assert abs(bergman_norm(Z_MAP, 4.0) - 3.0 ** (-0.25)) < 1e-13


def test_triple_norm_examples():
    for p in (1.5, 2.0, 6.0):
        assert abs(triple_norm(Z_MAP, p) - 1.0) < 1e-13
        assert abs(triple_norm(COS_MAP, p) - 1.0 / math.sqrt(2.0)) < 1e-13


def test_triple_norm_parseval_p2():
    m = random_harmonic(8, 31)
    expected = math.sqrt(
        sum(abs(c) ** 2 for c in m.g.coeffs) + sum(abs(c) ** 2 for c in m.h.coeffs)
    )
    assert abs(triple_norm(m, 2.0) - expected) < 1e-12


@pytest.mark.parametrize("half_power", [1, 2, 3])
def test_even_power_exactness_against_convolution_oracle(half_power):
    for seed in (0, 1, 2):
        m = random_harmonic(6, seed)
        exact = exact_even_power_mean(m, half_power)
        quad = circle_power_mean(m, 2.0 * half_power, 1.0)
        assert abs(quad - exact) < 1e-12 * max(1.0, exact)


def loop_disk_mean(ring, spec):
    """Reference disk rule: one scalar-radius ring per Gauss-Legendre node."""
    nodes, weights = _gl01(spec.n_radial)
    total = 0.0
    for r, w in zip(nodes, weights):
        total += w * 2.0 * r * float(np.mean(ring(r)))
    return total


def loop_product_ring(m, p, real_part, n):
    def ring(r):
        prod = 2.0 * m.g.boundary_values(n, r) * m.h.boundary_values(n, r)
        return (np.abs(prod.real) if real_part else np.abs(prod)) ** p

    return ring


@pytest.mark.parametrize("n_radial", [64, 128])
@pytest.mark.parametrize("p", [1.25, 2.0, 6.0])
def test_batched_disk_rule_is_bit_identical_to_radius_loop(p, n_radial):
    # p = 2 with RE_ZERO maps is an equality case of the Bergman theorems, where
    # roundoff decides the reported argmin, so equality here is exact, not approx
    spec = QuadratureSpec(n_angle=256, n_radial=n_radial)
    n = spec.n_angle
    for seed in (0, 1, 7, 42):
        for constraint in (Constraint.NONE, Constraint.RE_ZERO):
            m = random_harmonic(8, seed, constraint)
            assert disk_power_mean(m, p, spec) == loop_disk_mean(
                lambda r: np.abs(m.boundary_values(n, r)) ** p, spec
            )
            assert pair_disk_power_mean(m.g, m.h, p, spec) == loop_disk_mean(
                lambda r: (
                    np.abs(m.g.boundary_values(n, r)) ** 2
                    + np.abs(m.h.boundary_values(n, r)) ** 2
                )
                ** p,
                spec,
            )
            for real_part in (False, True):
                assert product_disk_power_mean(
                    m.g, m.h, p, real_part, spec
                ) == loop_disk_mean(loop_product_ring(m, p, real_part, n), spec)


@pytest.mark.parametrize("r", [1.0, 0.5, 0.0])
@pytest.mark.parametrize("p", [1.25, 2.0, 6.0])
def test_circle_means_are_bit_identical_to_object_traces(p, r):
    # the one-row primitive against each map's own traces, one mean per call
    n = 256
    for seed in (0, 1, 7, 42):
        m = random_harmonic(8, seed, Constraint.RE_ZERO)
        g, h = m.g.boundary_values(n, r), m.h.boundary_values(n, r)
        assert circle_power_mean(m, p, r) == float(np.mean(np.abs(g + np.conj(h)) ** p))
        assert pair_circle_power_mean(m.g, m.h, p, r) == float(
            np.mean((np.abs(g) ** 2 + np.abs(h) ** 2) ** p)
        )
        for real_part in (False, True):
            prod = 2.0 * g * h
            base = np.abs(prod.real) if real_part else np.abs(prod)
            assert product_circle_power_mean(m.g, m.h, p, real_part, r) == float(
                np.mean(base**p)
            )


@pytest.mark.parametrize("r", [1.0, 0.6, None])
def test_means_blocks_whole_draws_bit_identically_to_one_row_calls(monkeypatch, r):
    # a whole draw goes to _means, which decides the blocking: the circle
    # rule transforms ROW_BLOCK rows of each factor at a time, the disk rule
    # one row at all radii, and every row's means are its one-row means
    monkeypatch.setattr(maps, "_usable_cpus", lambda: 1)
    g, h = random_coefficients(6, range(500, 600), Constraint.RE_ZERO)
    rings = [
        partial(_map_ring, 1.25),
        partial(_pair_ring, 3.0),
        partial(_product_ring, 2.0, real_part=False),
    ]
    spec = QuadratureSpec(n_angle=64, n_radial=16)
    one_row = [_means(rings, (g[k], h[k]), spec, r) for k in range(len(g))]
    shapes = []
    ifft = np.fft.ifft

    def recorded(values, *args, **kwargs):
        shapes.append(np.shape(values))
        return ifft(values, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", recorded)
    for rows in (1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 100):
        shapes.clear()
        means = _means(rings, (g[:rows], h[:rows]), spec, r)
        assert means == [[one_row[k][j][0] for k in range(rows)] for j in range(len(rings))]
        if r is None:
            expected = [(spec.n_radial, 7)] * (2 * rows)
        else:
            starts = range(0, rows, ROW_BLOCK)
            expected = [(min(ROW_BLOCK, rows - start), 7) for start in starts for _ in "gh"]
        assert shapes == expected, rows


def test_auto_spec_checks_its_arguments():
    for degree, p, message in (
        (8, math.nan, "auto_spec requires p in (0.0, inf), got nan"),
        (8, math.inf, "auto_spec requires p in (0.0, inf), got inf"),
        (8, 0.0, "auto_spec requires p in (0.0, inf), got 0.0"),
        (-3, 2.0, "degree must be >= 0, got -3"),
        (2.5, 2.0, "degree must be an integer, got 2.5"),
        (True, 2.0, "degree must be an integer, got True"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            auto_spec(degree, p)
    assert auto_spec(np.int64(8), 2) == auto_spec(8, 2.0) == QuadratureSpec(256, 64)
    assert auto_spec(0, 128.0) == QuadratureSpec(256, 64)


# ------------------------ disk rows on every usable CPU ------------------------


DISK_RINGS = [
    partial(_map_ring, 1.25),
    partial(_pair_ring, 3.0),
    partial(_product_ring, 2.0, real_part=True),
]


@pytest.mark.parametrize("rows", [1, 3, 9])
def test_disk_rows_are_bit_identical_for_any_worker_count(monkeypatch, rows):
    # 3 rows with 4 or 8 workers: no more workers than rows
    g, h = random_coefficients(8, range(40, 40 + rows), Constraint.RE_ZERO)
    spec = QuadratureSpec(n_angle=256, n_radial=48)
    monkeypatch.setattr(maps, "_usable_cpus", lambda: 1)
    one = _means(DISK_RINGS, (g, h), spec, None)
    # each row's means are those of the row alone
    assert [_means(DISK_RINGS, (g[k], h[k]), spec, None) for k in range(rows)] == [
        [[means[k]] for means in one] for k in range(rows)
    ]
    baseline = threading.active_count()
    # more workers than cores, switching threads often: a row lost, taken
    # twice or returned out of order would change the means
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (2, 4, 8):
            monkeypatch.setattr(maps, "_usable_cpus", lambda: workers)
            first, taken = _spread_blocks(DISK_RINGS[0], min(workers, rows))
            assert _means([first, *DISK_RINGS[1:]], (g, h), spec, None) == one, workers
            assert len(taken) == min(workers, rows)
            assert threading.active_count() == baseline
    finally:
        sys.setswitchinterval(interval)


def test_one_disk_row_starts_no_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-row disk rule started a helper")

    monkeypatch.setattr(maps, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(maps, "ThreadPoolExecutor", no_pool)
    m = random_harmonic(8, 3)
    caller = threading.get_ident()
    seen = set()

    def ring(g, h):
        seen.add(threading.get_ident())
        return _map_ring(1.5, g, h)

    assert _means([ring], (m.g.coeffs, m.h.coeffs), auto_spec(8, 1.5), None) == [
        [disk_power_mean(m, 1.5)]
    ]
    assert bergman_triple_norm(m, 3.0) > 0.0
    assert seen == {caller}


def test_disk_ring_exception_reaches_the_caller(monkeypatch):
    # a ring that raises in a helper's row, or on the calling thread while
    # the helper holds a row: the exception reaches the caller, and the
    # helper is joined before it does
    monkeypatch.setattr(maps, "_usable_cpus", lambda: 2)
    g, h = random_coefficients(4, range(6))
    baseline = threading.active_count()
    caller = threading.get_ident()
    for raising_on_helper in (True, False):
        def ring(g, h):
            if (threading.get_ident() != caller) == raising_on_helper:
                raise RuntimeError("ring failed")
            return _map_ring(2.0, g, h)

        spread, taken = _spread_blocks(ring, 2)
        with pytest.raises(RuntimeError, match="ring failed"):
            _means([spread], (g, h), QuadratureSpec(), None)
        assert len(taken) == 2
        assert threading.active_count() == baseline


@pytest.mark.parametrize("p", battery.THEOREM_P_VALUES)
def test_bergman_payloads_do_not_depend_on_the_worker_count(monkeypatch, p):
    payloads = []
    for workers in (1, 2, 4):
        monkeypatch.setattr(maps, "_usable_cpus", lambda: workers)
        report = verify_theorem(TheoremId.BERGMAN_MIXED_BY_NORM, p, 100, 8, 71)
        payloads.append({k: v for k, v in report.to_dict().items() if k != "elapsed_ms"})
    assert payloads[1] == payloads[0] and payloads[2] == payloads[0]


def test_bergman_radial_resolution_consistency():
    m = random_harmonic(8, 5)
    a = bergman_norm(m, 4.0, QuadratureSpec(n_angle=256, n_radial=64))
    b = bergman_norm(m, 4.0, QuadratureSpec(n_angle=256, n_radial=128))
    assert abs(a - b) < 1e-13


@given(
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0, allow_infinity=False, allow_nan=False),
    st.integers(min_value=0, max_value=400),
)
@settings(max_examples=60, deadline=None)
def test_norm_homogeneity(c, seed):
    m = random_harmonic(5, seed)
    p = 1.0 + (seed % 50) / 16.0
    base = hardy_norm(m, p)
    assert abs(hardy_norm(m.scaled(c), p) - abs(c) * base) < 1e-12 * max(1.0, abs(c) * base)
    baset = triple_norm(m, p)
    assert abs(triple_norm(m.scaled(c), p) - abs(c) * baset) < 1e-12 * max(1.0, abs(c) * baset)
    baseb = bergman_norm(m, p)
    assert abs(bergman_norm(m.scaled(c), p) - abs(c) * baseb) < 1e-12 * max(1.0, abs(c) * baseb)


def test_mp_radius_monotone_in_r():
    for seed in range(5):
        m = random_harmonic(6, 200 + seed)
        vals = [mp_radius(m, 2.5, r) for r in np.linspace(0.0, 1.0, 21)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_hardy_monotone_in_p():
    for seed in range(5):
        m = random_harmonic(6, 300 + seed)
        vals = [hardy_norm(m, p) for p in np.linspace(1.0, 8.0, 15)]
        assert all(b >= a - 1e-11 for a, b in zip(vals, vals[1:]))


def test_p_validation():
    with pytest.raises(ValueError):
        hardy_norm(Z_MAP, 0.9)
    with pytest.raises(ValueError):
        triple_norm(Z_MAP, 65.0)
    with pytest.raises(ValueError):
        mp_radius(Z_MAP, 2.0, 1.5)
    assert hardy_norm(Z_MAP, 1.0) == pytest.approx(1.0)


@pytest.mark.parametrize("r", [math.nan, 2.0])
@pytest.mark.parametrize(
    "mean",
    [
        lambda r: circle_power_mean(Z_MAP, 2.0, r),
        lambda r: pair_circle_power_mean(Z_MAP.g, Z_MAP.h, 2.0, r),
        lambda r: product_circle_power_mean(Z_MAP.g, Z_MAP.h, 2.0, False, r),
    ],
    ids=["circle_power_mean", "pair_circle_power_mean", "product_circle_power_mean"],
)
def test_circle_means_reject_a_radius_outside_the_disk(mean, r):
    with pytest.raises(ValueError, match=rf"^r must lie in \[0, 1\], got {r}$"):
        mean(r)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(n_angle=2)
    m = random_harmonic(64, 4)
    spec = QuadratureSpec(n_angle=128)
    # every norm rejects a spec too coarse for the traces, not only the
    # single-map ones
    for norm in (
        lambda: hardy_norm(m, 2.0, spec),
        lambda: bergman_norm(m, 2.0, spec),
        lambda: triple_norm(m, 2.0, spec),
        lambda: bergman_triple_norm(m, 2.0, spec),
        lambda: pair_circle_power_mean(m.g, m.h, 1.0, 1.0, spec),
        lambda: pair_disk_power_mean(m.g, m.h, 1.0, spec),
        lambda: product_circle_power_mean(m.g, m.h, 1.0, False, 1.0, spec),
        lambda: product_disk_power_mean(m.g, m.h, 1.0, False, spec),
    ):
        with pytest.raises(ValueError, match="4\\*degree"):
            norm()



@pytest.mark.parametrize("field", ["n_angle", "n_radial"])
@pytest.mark.parametrize("bad", [256.5, 64.0, True, "64", None])
def test_spec_fields_must_be_integers(field, bad):
    # a float count would otherwise fail later, inside a norm, as TypeError
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {bad!r}"):
        QuadratureSpec(**{field: bad})
    assert QuadratureSpec(**{field: np.int64(300)}) == QuadratureSpec(**{field: 300})


def test_overflowing_norms_raise_naming_the_mean():
    # the traces of 1e308 + 1e308 z overflow; every norm and mean says so
    # instead of returning inf or nan
    big = HarmonicMap(TaylorPoly([1e308, 1e308]), TaylorPoly([0.0]))
    for call, name in (
        (lambda: hardy_norm(big, 2.0), "circle_power_mean"),
        (lambda: mp_radius(big, 3.0, 1.0), "circle_power_mean"),
        (lambda: triple_norm(big, 2.0), "pair_circle_power_mean"),
        (lambda: bergman_norm(big, 2.0), "disk_power_mean"),
        (lambda: bergman_triple_norm(big, 2.0), "pair_disk_power_mean"),
        (lambda: product_circle_power_mean(big.g, big.g, 1.0), "product_circle_power_mean"),
        (lambda: product_disk_power_mean(big.g, big.g, 1.0), "product_disk_power_mean"),
    ):
        with pytest.raises(ValueError, match=f"^{name}\\(p=.*\\) is not finite"):
            call()
    # a map whose powers stay in range still has finite norms
    assert math.isfinite(hardy_norm(HarmonicMap(TaylorPoly([1e150]), TaylorPoly([0.0])), 2.0))


def test_pair_and_product_default_spec_is_auto_spec_at_twice_p():
    # (|a|^2 + |b|^2)^p and |2ab|^p are trigonometric polynomials of degree
    # 2p*degree, so spec=None sizes the rules as auto_spec(degree, 2p); at
    # degree 40 and p = 4 that is 322 angles and 162 radii, above the defaults
    a, b = random_harmonic(40, 9).g, random_harmonic(30, 10).h
    for p in (1.25, 4.0):
        spec = auto_spec(40, 2.0 * p)
        assert pair_circle_power_mean(a, b, p) == pair_circle_power_mean(a, b, p, 1.0, spec)
        assert pair_disk_power_mean(a, b, p) == pair_disk_power_mean(a, b, p, spec)
        for real_part in (False, True):
            assert product_circle_power_mean(a, b, p, real_part) == product_circle_power_mean(
                a, b, p, real_part, 1.0, spec
            )
            assert product_disk_power_mean(a, b, p, real_part) == product_disk_power_mean(
                a, b, p, real_part, spec
            )


def test_calderon_mean_matches_secant_closed_form():
    # int_T |cot(t/2)|^a dsigma = sec(pi a / 2) for 0 < a < 1
    for gamma, p in ((0.2, 1.5), (0.45, 2.5), (0.995 * math.pi / 3.0, 1.5)):
        fam = CalderonFamily(gamma=gamma, p=p)
        a = 2.0 * gamma * p / math.pi
        mean = calderon_power_mean(fam, 1.0, 0.0)
        assert abs(mean - 1.0 / math.cos(math.pi * a / 2.0)) < 1e-8 / math.cos(
            math.pi * a / 2.0
        )


def test_calderon_component_relations():
    fam = CalderonFamily(gamma=0.35, p=1.5)
    u = calderon_norm(fam, component="re")
    v = calderon_norm(fam, component="im")
    g = calderon_norm(fam, component="analytic")
    conj = calderon_norm(fam, component="conjugate")
    assert abs(v / u - math.tan(0.35)) < 1e-9
    assert abs(g / u - 1.0 / math.cos(0.35)) < 1e-9
    assert conj >= v  # |v - i| >= |v| pointwise


def test_calderon_errors(monkeypatch):
    fam = CalderonFamily(gamma=0.3, p=1.5)
    with pytest.raises(ValueError):
        calderon_power_mean(fam, 1.0, 0.0, p=6.0)  # a >= 1: not integrable
    with pytest.raises(ValueError):
        calderon_norm(fam, component="nope")
    monkeypatch.setattr(quadrature, "CALDERON_REL_TOL", 1e-15)
    monkeypatch.setattr(quadrature, "CALDERON_MAX_REFINEMENTS", 0)
    with pytest.raises(QuadratureConvergenceError) as exc:
        calderon_power_mean(fam, 1.0, 0.0)
    assert exc.value.achieved > 0.0

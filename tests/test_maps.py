"""Tests for polynomials, harmonic maps, boundary series, and the extremal family."""

import json
import math
import sys
import threading
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszlab import maps
from rieszlab.constants import Minorant
from rieszlab.gridlab import (
    SCAN_COLUMNS,
    InequalityId,
    check_pluri_lines,
    check_submean,
    verify_pointwise,
)
from rieszlab.maps import (
    CalderonFamily,
    Constraint,
    FourierSeries,
    HarmonicMap,
    TaylorPoly,
    boundary_series,
    calderon_taylor,
    eval_harmonic,
    map_from_dict,
    map_to_dict,
    random_coefficients,
    random_harmonic,
)
from rieszlab.quadrature import QuadratureSpec, _map_ring, _means
from rieszlab.reporting import GridSpec

TWO_PI = 2.0 * math.pi


def power_sum_eval(coeffs, z):
    """Independent evaluation route: explicit power sum, no Horner."""
    return sum(c * z**k for k, c in enumerate(coeffs))


def test_eval_identity_map():
    m = HarmonicMap(TaylorPoly([0, 1]), TaylorPoly([0]))
    assert eval_harmonic(m, 1j) == 1j


def test_eval_cosine_map_on_circle():
    half = TaylorPoly([0, 0.5])
    m = HarmonicMap(half, half)
    for t in np.linspace(0, TWO_PI, 17):
        val = eval_harmonic(m, np.exp(1j * t))
        assert abs(val - math.cos(t)) < 1e-14


def test_eval_matches_independent_power_sum():
    rng = np.random.default_rng(1)
    g = TaylorPoly(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    h = TaylorPoly(rng.standard_normal(9) + 1j * rng.standard_normal(9))
    m = HarmonicMap(g, h)
    pts = 0.9 * np.sqrt(rng.uniform(size=100)) * np.exp(1j * rng.uniform(0, TWO_PI, 100))
    for z in pts:
        expected = power_sum_eval(g.coeffs, z) + np.conj(power_sum_eval(h.coeffs, z))
        assert abs(eval_harmonic(m, z) - expected) < 1e-12


def test_boundary_series_layout():
    assert boundary_series(HarmonicMap(TaylorPoly([1, 1]), TaylorPoly([0]))).coeffs == {
        0: 1.0,
        1: 1.0,
    }
    assert boundary_series(HarmonicMap(TaylorPoly([0]), TaylorPoly([0, 1]))).coeffs == {
        0: 0.0,
        -1: 1.0,
    }
    half = TaylorPoly([0, 0.5])
    cos_coeffs = boundary_series(HarmonicMap(half, half)).coeffs
    assert cos_coeffs == {0: 0.0, 1: 0.5, -1: 0.5}


def test_eval_agrees_with_series_on_circle_degree_64():
    m = random_harmonic(64, 3)
    series = boundary_series(m)
    t = np.linspace(0.0, TWO_PI, 40, endpoint=False)
    direct = eval_harmonic(m, np.exp(1j * t))
    trig = series(t)
    assert np.max(np.abs(direct - trig)) < 1e-12


def reference_boundary_values(poly, n, r):
    """Independent scalar-radius ring evaluation, kept as a bit-for-bit reference."""
    padded = np.zeros(n, dtype=complex)
    c = np.asarray(poly.coeffs, dtype=complex)
    if r != 1.0:
        c = c * (float(r) ** np.arange(len(c)))
    padded[: len(c)] = c
    return np.fft.ifft(padded) * n


def test_boundary_values_array_radius_rows_match_scalar_calls():
    m = random_harmonic(8, 11)
    radii = np.array([0.0, 0.25, 0.5, 0.9, 1.0])
    for f in (m.g, m.h, m):
        rows = f.boundary_values(64, radii)
        assert rows.shape == (len(radii), 64)
        for row, r in zip(rows, radii):
            assert np.array_equal(row, f.boundary_values(64, float(r)))
    for poly in (m.g, m.h):
        for r in (1.0, 0.5, 0.0):
            vals = poly.boundary_values(64, r)
            assert vals.shape == (64,)
            assert np.array_equal(vals, reference_boundary_values(poly, 64, r))
        assert poly.boundary_values(64).shape == (64,)
    assert m.boundary_values(64, 0.5).shape == (64,)
    with pytest.raises(ValueError):
        m.g.boundary_values(8, radii)
    with pytest.raises(ValueError):
        m.boundary_values(8, radii)


def test_coefficient_conversion_keeps_bit_patterns():
    # the ndarray path converts exactly as complex(c) per entry, signed zeros
    # included
    def reference(coeffs):
        out = tuple(complex(c) for c in coeffs)
        return out if out else (0j,)

    def bits(coeffs):
        return np.asarray(coeffs, dtype=complex).view(np.uint64)

    rng = np.random.default_rng(3)
    for coeffs in (
        rng.normal(size=9) + 1j * rng.normal(size=9),
        np.array([complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 1.0)]),
        np.array([0.0, -0.0, 1.5, -2.25]),
        np.array([3, -1, 0]),
        np.array([], dtype=complex),
        [1, 2.5, -0.0, 1j, complex(-0.0, 0.0)],
        (0, -0.0),
        [],
    ):
        got = TaylorPoly(coeffs).coeffs
        assert np.array_equal(bits(got), bits(reference(coeffs))), coeffs
        assert all(type(c) is complex for c in got)
    with pytest.raises(TypeError):
        TaylorPoly(np.ones((2, 2)))


def test_trailing_zeros_count_in_the_degree():
    assert TaylorPoly([1.0, 2.0, 0.0, 0.0]).degree == 3


def test_normalized_preserves_values():
    m = random_harmonic(6, 9)
    n = m.normalized()
    assert n.h.coeffs[0] == 0
    z = 0.7 * np.exp(1j * np.linspace(0, TWO_PI, 13))
    assert np.max(np.abs(eval_harmonic(m, z) - eval_harmonic(n, z))) < 1e-15


def test_random_harmonic_re_zero_exact():
    for seed in range(50):
        m = random_harmonic(5, seed, Constraint.RE_ZERO)
        assert (m.g.coeffs[0] * m.h.coeffs[0]).real == 0.0


def test_random_harmonic_deterministic():
    a = random_harmonic(7, 42, Constraint.NONE)
    b = random_harmonic(7, 42, Constraint.NONE)
    assert a.g.coeffs == b.g.coeffs and a.h.coeffs == b.h.coeffs


def test_random_harmonic_re_nonpos_thousand_samples():
    for seed in range(1000):
        m = random_harmonic(3, seed, Constraint.RE_NONPOS)
        assert (m.g.coeffs[0] * m.h.coeffs[0]).real <= 0.0


def test_random_harmonic_re_nonneg():
    for seed in range(200):
        m = random_harmonic(3, seed, Constraint.RE_NONNEG)
        assert (m.g.coeffs[0] * m.h.coeffs[0]).real >= 0.0


def test_calderon_family_validation():
    with pytest.raises(ValueError):
        CalderonFamily(gamma=1.2, p=1.5)  # gamma >= pi/(2p)
    with pytest.raises(ValueError):
        CalderonFamily(gamma=0.1, p=0.9)


def test_calderon_taylor_matches_principal_power_inside():
    gamma = 0.4
    c = 2.0 * gamma / math.pi
    poly = calderon_taylor(gamma, 400)
    z = 0.8 * np.exp(1j * np.linspace(0.1, TWO_PI - 0.1, 23))
    w = (1.0 + z) / (1.0 - z)  # Re w > 0 inside the disk: principal power
    expected = w**c
    assert np.max(np.abs(poly(z) - expected)) < 1e-10


@pytest.mark.parametrize(
    "gamma, degree, name",
    [(5.0, 3, "gamma"), (math.nan, 3, "gamma"), (0.0, 3, "gamma"),
     (0.3, 2.5, "degree"), (0.3, -1, "degree"), (0.3, True, "degree")],
)
def test_calderon_taylor_checks_its_arguments(gamma, degree, name):
    # gamma = 5 gave the coefficients 1, 6.37, 20.3, ..., a NaN gamma NaN
    # ones, and degree 2.5 raised numpy's TypeError
    with pytest.raises(ValueError, match=f"^{name} must"):
        calderon_taylor(gamma, degree)


@pytest.mark.parametrize("key", [0.5, 1.0, "1", True])
def test_fourier_series_rejects_a_non_integer_frequency(key):
    # {0.5: 1} used to become {0: 1}
    with pytest.raises(ValueError, match=f"^frequency {key!r} is not an integer$"):
        FourierSeries({3: 0.5, key: 1.0})
    assert FourierSeries({np.int64(2): 1.0}).coeffs == {2: 1.0}


def test_map_json_roundtrip():
    m = random_harmonic(4, 77)
    data = json.loads(json.dumps(map_to_dict(m)))
    back = map_from_dict(data)
    assert back.g.coeffs == m.g.coeffs and back.h.coeffs == m.h.coeffs


@pytest.mark.parametrize(
    "payload,field",
    [
        ({"g": [[0, 0]]}, "h"),
        ({"g": "nope", "h": [[0, 0]]}, "g"),
        ({"g": [[0, 0, 0]], "h": [[0, 0]]}, "g"),
        ([1, 2], "g"),
        # non-finite numbers, booleans and integers beyond the float range
        (json.loads('{"g": [[0, 0], [NaN, 0]], "h": [[0, 0]]}'), "field 'g' entry 1"),
        (json.loads('{"g": [[0, 0]], "h": [[0, Infinity]]}'), "field 'h' entry 0"),
        (json.loads('{"g": [[0, 0]], "h": [[0, 0], [0, -Infinity]]}'), "field 'h' entry 1"),
        (json.loads('{"g": [[1e400, 0]], "h": [[0, 0]]}'), "field 'g' entry 0"),
        (json.loads('{"g": [[true, 0]], "h": [[0, 0]]}'), "field 'g' entry 0"),
        ({"g": [[0, 0]], "h": [[0, 0], [0, 0], [1, False]]}, "field 'h' entry 2"),
        ({"g": [[0, 0], [10**400, 0]], "h": [[0, 0]]}, "field 'g' entry 1"),
        ({"g": [[0, 0]], "h": [[0, -(10**400)]]}, "field 'h' entry 0"),
    ],
)
def test_map_json_malformed(payload, field):
    with pytest.raises(ValueError, match=field if field else ""):
        map_from_dict(payload)


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_random_harmonic_degree_and_disk(degree, seed):
    m = random_harmonic(degree, seed)
    assert m.g.degree == degree and m.h.degree == degree
    assert all(abs(c) <= 1.0 + 1e-12 for c in m.g.coeffs + m.h.coeffs)


# ------------------------- the one parallel map of blocks -------------------------


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_share_blocks_returns_results_in_start_order(monkeypatch, workers):
    # each worker's first block waits until `workers` workers hold one, and the
    # threads switch often, so the blocks finish out of order
    monkeypatch.setattr(maps, "_usable_cpus", lambda: workers)
    baseline = threading.active_count()
    starts = range(5, 500, 7)
    barrier = threading.Barrier(workers, timeout=10)
    taken: dict = {}
    lock = threading.Lock()

    def work(own, start):
        with lock:
            first = threading.get_ident() not in taken
            taken.setdefault(threading.get_ident(), []).append(start)
        if first:
            barrier.wait()
        return own, start * start

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = maps._share_blocks(starts, work)
    finally:
        sys.setswitchinterval(interval)
    assert results == [(None, start * start) for start in starts]
    assert len(taken) == workers and threading.get_ident() in taken
    assert sorted(start for own in taken.values() for start in own) == list(starts)
    assert threading.active_count() == baseline


@pytest.mark.parametrize("usable, starts", [(1, 5), (2, 5), (4, 3), (8, 1), (2, 0)])
def test_share_blocks_makes_scratch_once_on_the_calling_thread(monkeypatch, usable, starts):
    monkeypatch.setattr(maps, "_usable_cpus", lambda: usable)
    workers = min(usable, starts)
    made, owns = [], []

    def scratch(count):
        made.append((count, threading.get_ident()))
        owns.extend([] for _ in range(count))
        return owns

    def work(own, start):
        own.append(start)
        return start + 1

    assert maps._share_blocks(range(starts), work, scratch) == list(range(1, starts + 1))
    assert made == [(workers, threading.get_ident())]
    assert sorted(start for own in owns for start in own) == list(range(starts))


def test_share_blocks_of_no_starts_is_empty(monkeypatch):
    monkeypatch.setattr(maps, "_usable_cpus", lambda: 4)
    assert maps._share_blocks([], lambda own, start: start) == []
    assert maps._share_blocks(range(0), lambda own, start: start, lambda workers: []) == []


def test_one_usable_cpu_starts_no_thread_in_any_loop(monkeypatch):
    # maps._usable_cpus is the one worker count of the scan, circle and disk
    # loops: pinning it to 1 keeps every block on the calling thread
    def no_pool(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(maps, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(maps, "ThreadPoolExecutor", no_pool)
    baseline = threading.active_count()
    grid = GridSpec(r_nodes=40, t_nodes=5 * SCAN_COLUMNS)
    verify_pointwise(InequalityId.MIXED_BY_SUM_MID, 3.0, grid)
    check_submean(Minorant.PHI_MID, 3.0, centers=20, radii=4, angles=256)
    check_pluri_lines(Minorant.G_PAIR, 3.0, n_lines=16, centers=2, radii=3, angles=256)
    g, h = random_coefficients(8, range(9))
    [means] = _means([partial(_map_ring, 1.5)], (g, h), QuadratureSpec(), None)
    assert len(means) == 9
    assert threading.active_count() == baseline


def test_only_maps_starts_threads_or_counts_cpus():
    # the worker count and the threads stay behind maps._share_blocks
    for path in sorted(Path(maps.__file__).parent.glob("*.py")):
        text = path.read_text()
        for name in ("ThreadPoolExecutor", "threading", "_usable_cpus"):
            assert (name in text) == (path.name == "maps.py"), (path.name, name)

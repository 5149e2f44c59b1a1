"""Holomorphic polynomials, harmonic mappings f = g + conj(h), and boundary data.

A harmonic mapping on the unit disk is represented by a pair of finite Taylor
polynomials (g, h) with f(z) = g(z) + conj(h(z)).  Boundary traces live on the
unit circle as bilateral Fourier series: the g-coefficients occupy the
nonnegative frequencies and the conjugated h-coefficients the negative ones,
with k = 0 receiving g_0 + conj(h_0).

Random maps are drawn in blocks: random_coefficients turns a sequence of
seeds into (k, degree + 1) coefficient arrays of g and h, one row per seed,
and random_harmonic and random_poly are its one-seed calls.  Each seed has
one numpy generator, default_rng(seed).  A battery call draws its whole seed
range once and evaluates every exponent of its tag on that draw (the sweeps
of theorems); a two-entry memo (_draws) lets consecutive calls over the
same seeds (the tags of one stage, each with its own constraint on g(0)h(0),
or one-exponent calls) share the generator draws.  Batteries feed the
arrays straight to _boundary_rows, so no per-sample polynomial objects are
built; every row
is bit-identical to the map drawn from its seed alone.  Fourier
series are evaluated as arrays: every term at once, summed left to right in
the order of the coefficients.

Block work is shared among threads by one ordered parallel map,
_share_blocks(starts, work, scratch): it returns [work(own, start) for start
in starts] in start order.  It alone decides the worker count,
min(_usable_cpus(), len(starts)): the calling thread and one helper thread
per further worker take the starts from one shared iterator, so the blocks
are handed out as workers free up.  scratch(workers), called once on the
calling thread, gives each worker its own buffers (own), so they come from
the caller's heap, not from per-thread allocator arenas.  Helpers start and
are joined within each call, run under the caller's np.errstate, and an
exception raised in one reaches the caller.  Since each block's result is
kept apart and returned in start order, whatever the blocks compute has the
same bits whichever worker took which block.  gridlab's scans and circle
checks and quadrature's disk rule use it, and no other module starts a
thread or counts CPUs.  It lives here because both of those modules import
this one, and this one imports neither.

The Calderon extremal family g(z) = ((1+z)/(1-z))^(2*gamma/pi) (principal
branch, |arg (1+z)/(1-z)| <= pi/2) is the sharpness witness for the conjugate
function constants; on the boundary (1+e^{it})/(1-e^{it}) = i*cot(t/2), so the
trace has constant argument +/- gamma and modulus |cot(t/2)|^(2*gamma/pi).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .constants import RIESZ_P
from .reporting import _check_integer

__all__ = [
    "TaylorPoly",
    "HarmonicMap",
    "FourierSeries",
    "CalderonFamily",
    "Constraint",
    "eval_harmonic",
    "boundary_series",
    "random_coefficients",
    "random_harmonic",
    "random_poly",
    "calderon_taylor",
    "map_to_dict",
    "map_from_dict",
]


def _as_complex_tuple(coeffs: Iterable[complex]) -> tuple[complex, ...]:
    out = tuple(complex(c) for c in coeffs)
    return out if out else (0j,)


def _boundary_rows(coeffs: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Values at the n uniform circle nodes exp(2*pi*i*j/n) of the polynomial
    in each row of coeffs, from a single transform along the last axis.

    f(e^{i t_j}) = sum_k a_k e^{i k t_j} is n * ifft of the coefficients
    zero-padded to length n; each row is bit-identical to its own transform.
    With out, a complex array of the result's shape, the values are written
    there and out is returned.
    """
    values = np.fft.ifft(coeffs, n, axis=-1, out=out)
    values *= n
    return values


def _radius_powers(r, length: int) -> np.ndarray:
    """r^k for k < length, one row per radius of a 1-D array r."""
    return np.asarray(r, dtype=float)[..., None] ** np.arange(length)


def _usable_cpus() -> int:
    """CPUs this process may run on: the most workers _share_blocks starts
    (os.sched_getaffinity, else os.cpu_count)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _taken(shared, lock):
    """The items of the shared iterator that this worker takes."""
    while True:
        with lock:
            item = next(shared, None)
        if item is None:
            return
        yield item


def _share_blocks(starts, work, scratch=None):
    """[work(own, start) for start in starts], in start order, run by
    min(_usable_cpus(), len(starts)) workers: the calling thread and one
    helper thread per further worker (none for one worker).  own is the
    worker's item of scratch(workers), which runs once, on the calling
    thread; None for every worker without scratch.  See the module
    docstring."""
    workers = min(_usable_cpus(), len(starts))
    owns = [None] * workers if scratch is None else scratch(workers)
    if workers <= 1:
        return [work(owns[0], start) for start in starts]
    results = [None] * len(starts)
    shared, lock = iter(enumerate(starts)), threading.Lock()
    settings = np.geterr()

    def run(own):
        with np.errstate(**settings):
            for k, start in _taken(shared, lock):
                results[k] = work(own, start)

    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(run, own) for own in owns[1:]]
        run(owns[0])
        for helper in helpers:
            helper.result()
    return results


@dataclass(frozen=True)
class TaylorPoly:
    """Finite ascending Taylor coefficients a_0..a_N of a holomorphic polynomial."""

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs: Iterable[complex]):
        object.__setattr__(self, "coeffs", _as_complex_tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z):
        """Horner evaluation; accepts scalars or numpy arrays."""
        z = np.asarray(z, dtype=complex)
        acc = np.full(z.shape, self.coeffs[-1], dtype=complex)
        for c in self.coeffs[-2::-1]:
            acc = acc * z + c
        return acc if acc.shape else complex(acc)

    def scaled(self, c: complex) -> "TaylorPoly":
        return TaylorPoly(tuple(c * a for a in self.coeffs))

    def shifted_constant(self, c: complex) -> "TaylorPoly":
        return TaylorPoly((self.coeffs[0] + c,) + self.coeffs[1:])

    def boundary_values(self, n: int, r: float | np.ndarray = 1.0) -> np.ndarray:
        """Values at the n uniform circle nodes r*exp(2*pi*i*j/n), via FFT.

        A scalar r gives shape (n,); a 1-D array of k radii gives shape (k, n),
        one row per radius, from a single transform along the last axis.
        Requires n > degree so that no aliasing folds coefficients together.
        """
        if n <= self.degree:
            raise ValueError(f"n={n} must exceed the polynomial degree {self.degree}")
        c = np.asarray(self.coeffs, dtype=complex)
        if isinstance(r, np.ndarray) or r != 1.0:
            c = c * _radius_powers(r, len(c))
        return _boundary_rows(c, n)


@dataclass(frozen=True)
class HarmonicMap:
    """f = g + conj(h) with holomorphic polynomial factors g, h."""

    g: TaylorPoly
    h: TaylorPoly

    @property
    def degree(self) -> int:
        return max(self.g.degree, self.h.degree)

    def normalized(self) -> "HarmonicMap":
        """Shift h(0) into g, producing h(0) = 0 without changing f."""
        h0 = self.h.coeffs[0]
        if h0 == 0:
            return self
        return HarmonicMap(
            self.g.shifted_constant(h0.conjugate()),
            self.h.shifted_constant(-h0),
        )

    def scaled(self, c: complex) -> "HarmonicMap":
        """c*f = (c*g) + conj(conj(c)*h)."""
        return HarmonicMap(self.g.scaled(c), self.h.scaled(complex(c).conjugate()))

    def boundary_values(self, n: int, r: float | np.ndarray = 1.0) -> np.ndarray:
        return self.g.boundary_values(n, r) + np.conj(self.h.boundary_values(n, r))


def eval_harmonic(m: HarmonicMap, z):
    """f(z) = g(z) + conj(h(z)); exact polynomial evaluation, |z| <= 1 intended."""
    return m.g(z) + np.conj(m.h(z))


@dataclass(frozen=True)
class FourierSeries:
    """Bilateral Fourier coefficients {k: c_k} of a boundary trace on the circle."""

    coeffs: dict

    def __init__(self, coeffs: Mapping[int, complex]):
        for k in coeffs:
            _check_integer("frequency", k)
        object.__setattr__(
            self, "coeffs", {int(k): complex(v) for k, v in coeffs.items()}
        )
        c = np.array(list(self.coeffs.values()), dtype=complex)
        object.__setattr__(self, "_k", np.array(list(self.coeffs), dtype=float))
        object.__setattr__(self, "_re", c.real.copy())
        object.__setattr__(self, "_im", c.imag.copy())

    def __call__(self, tau):
        """sum_k c_k exp(i k tau), elementwise in tau.

        All terms are computed at once, each product c_k * exp(i k tau) in
        real arithmetic, and summed left to right from a zero start in the
        order of the coefficients; so a value does not depend on the shape
        of tau, and a scalar tau gives exactly what adding one term at a time
        to a complex zero gives.
        """
        tau = np.asarray(tau, dtype=float)
        e = np.exp(1j * (tau[..., None] * self._k))
        terms = np.zeros(tau.shape + (len(self._k) + 1,), dtype=complex)
        terms.real[..., 1:] = self._re * e.real - self._im * e.imag
        terms.imag[..., 1:] = self._re * e.imag + self._im * e.real
        acc = np.add.accumulate(terms, axis=-1)[..., -1]
        return acc.copy() if acc.shape else complex(acc)


def boundary_series(m: HarmonicMap) -> FourierSeries:
    """Boundary trace coefficients: g_k at k >= 0, conj(h_k) at -k, merged at 0."""
    coeffs: dict[int, complex] = {}
    for k, c in enumerate(m.g.coeffs):
        coeffs[k] = coeffs.get(k, 0j) + c
    for k, c in enumerate(m.h.coeffs):
        coeffs[-k] = coeffs.get(-k, 0j) + c.conjugate()
    return FourierSeries(coeffs)


class Constraint(Enum):
    """Constraint imposed on g(0)*h(0) when sampling random maps."""

    NONE = "NONE"
    RE_ZERO = "RE_ZERO"
    RE_NONNEG = "RE_NONNEG"
    RE_NONPOS = "RE_NONPOS"


@lru_cache(maxsize=2)
def _draws(degree: int, seeds: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each seed's draws from numpy's default_rng(seed), one row per seed:
    4*(degree+1) uniforms on [0, 1), then RE_ZERO's signed power of two.

    The arrays are read-only, so the memo cannot be changed by a caller.  It
    holds the last two seed ranges: consecutive battery calls over one seed
    range (the sweeps of one stage's tags, which differ only in how the
    constraint is applied, or one-exponent calls), and the two seed ranges
    of PAIR_ISOPERIMETRIC, draw their seeds once.
    """
    u = np.empty((len(seeds), 4 * (degree + 1)))
    scale = np.empty(len(seeds))
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        u[k] = rng.random(4 * (degree + 1))
        scale[k] = rng.choice([-1.0, 1.0]) * 2.0 ** -rng.integers(0, 5)
    u.flags.writeable = scale.flags.writeable = False
    return u, scale


def random_coefficients(
    degree: int, seeds: Sequence[int], constraint: Constraint = Constraint.NONE
) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients of g and h of random_harmonic(degree, s, constraint)
    for each seed s, as two (len(seeds), degree + 1) arrays, one row per seed.

    Each seed has its own generator, numpy's default_rng(s), and one draw of
    4*(degree+1) uniforms on [0, 1), read as the squared moduli and the
    angles / (2 pi) of g's coefficients, then of h's.  uniform(lo, hi, n) is
    lo + (hi - lo) * random(n) on the same stream, so these are the values of
    four uniform calls, and each coefficient is uniform on the closed unit
    disk.  RE_ZERO then draws its sign and power of two from the same stream.
    The draws come from _draws, so a seed range is drawn once for consecutive
    calls; g and h are new arrays on every call.
    """
    _check_integer("degree", degree, 0)
    constraint = Constraint(constraint)
    # every seed is checked; a plain int >= 0 passes without a call
    checked = [s if type(s) is int and s >= 0 else _check_integer("seed", s, 0) for s in seeds]
    u, scale = _draws(degree, tuple(checked))
    n = degree + 1
    g = np.sqrt(u[:, :n]) * np.exp(1j * (2.0 * math.pi * u[:, n : 2 * n]))
    h = np.sqrt(u[:, 2 * n : 3 * n]) * np.exp(1j * (2.0 * math.pi * u[:, 3 * n :]))
    a, b = g[:, 0].real, g[:, 0].imag
    if constraint is Constraint.RE_ZERO:
        h.real[:, 0] = scale * b  # h(0) = i * s * conj(g(0))
        h.imag[:, 0] = scale * a
    elif constraint is not Constraint.NONE:
        re = a * h[:, 0].real - b * h[:, 0].imag  # Re(g(0) h(0))
        flip = (re < 0) == (constraint is Constraint.RE_NONNEG)
        h[flip, 0] = -h[flip, 0]
    return g, h


def _normalized_rows(g: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """HarmonicMap.normalized of every row pair of coefficient arrays (g, h):
    h(0) is shifted into g(0), leaving h(0) = 0."""
    g, h = g.copy(), h.copy()
    moved = h[:, 0] != 0
    g[moved, 0] += np.conj(h[moved, 0])
    h[moved, 0] = 0.0
    return g, h


def random_poly(degree: int, seed: int) -> TaylorPoly:
    """Polynomial with coefficients i.i.d. uniform on the unit disk."""
    return TaylorPoly(random_coefficients(degree, [seed])[0][0])


def random_harmonic(
    degree: int, seed: int, constraint: Constraint = Constraint.NONE
) -> HarmonicMap:
    """Random map with the requested sign constraint on Re(g(0)h(0)).

    Deterministic for a fixed seed.  RE_ZERO is enforced constructively by
    h(0) = i*s*conj(g(0)), so g(0)h(0) = i*s*|g(0)|^2 is purely imaginary;
    s is a random signed power of two, which makes the cancellation in
    Re(g(0)h(0)) = a*(s*b) - b*(s*a) exact in floating point, not just up to
    roundoff.  The one-sided constraints flip the sign of h(0) when it lands
    on the wrong side (no rejection, so measure-zero sets cannot stall).
    """
    g, h = random_coefficients(degree, [seed], constraint)
    return HarmonicMap(TaylorPoly(g[0]), TaylorPoly(h[0]))


@dataclass(frozen=True)
class CalderonFamily:
    """Extremal family parameters: angle gamma in (0, pi/(2p)), exponent p > 1.

    The strict upper bound gamma < pi/(2p) is what keeps the boundary trace
    p-integrable (the trace grows like |t|^(-2*gamma/pi) near t = 0).
    """

    gamma: float
    p: float

    def __post_init__(self):
        RIESZ_P.check("CalderonFamily", self.p)
        if not 0.0 < self.gamma < math.pi / (2.0 * self.p):
            raise ValueError(
                f"gamma must lie in (0, pi/(2p)) = (0, {math.pi / (2 * self.p):.6g}), "
                f"got {self.gamma}"
            )


def calderon_taylor(gamma: float, degree: int) -> TaylorPoly:
    """Taylor truncation of ((1+z)/(1-z))^(2*gamma/pi).

    From g'/g = 2c/(1-z^2) with c = 2*gamma/pi the coefficients satisfy
    (k+1) a_{k+1} = (k-1) a_{k-1} + 2c a_k, a_0 = 1, a_1 = 2c.  gamma must
    be finite with 0 < gamma < pi/2.
    """
    if not 0.0 < gamma < 0.5 * math.pi:
        raise ValueError(f"gamma must lie in (0, pi/2), got {gamma!r}")
    _check_integer("degree", degree, 0)
    c = 2.0 * gamma / math.pi
    a = np.zeros(degree + 1)
    a[0] = 1.0
    if degree >= 1:
        a[1] = 2.0 * c
    for k in range(1, degree):
        a[k + 1] = ((k - 1) * a[k - 1] + 2.0 * c * a[k]) / (k + 1)
    return TaylorPoly(a)


def map_to_dict(m: HarmonicMap) -> dict:
    """JSON form {"g": [[re,im],...], "h": [[re,im],...]}, ascending coefficients."""
    return {
        "g": [[c.real, c.imag] for c in m.g.coeffs],
        "h": [[c.real, c.imag] for c in m.h.coeffs],
    }


def map_from_dict(data: dict) -> HarmonicMap:
    """Parse the JSON form; raises ValueError naming the offending field."""
    if not isinstance(data, dict):
        raise ValueError("harmonic map JSON must be an object with keys 'g' and 'h'")
    polys = {}
    for key in ("g", "h"):
        if key not in data:
            raise ValueError(f"harmonic map JSON is missing the '{key}' field")
        raw = data[key]
        if not isinstance(raw, list) or not raw:
            raise ValueError(f"field '{key}' must be a nonempty list of [re, im] pairs")
        coeffs = []
        for i, pair in enumerate(raw):
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
            ):
                raise ValueError(f"field '{key}' entry {i} is not a [re, im] pair")
            try:
                c = complex(pair[0], pair[1])
            except OverflowError:  # an integer beyond the float range
                c = complex(math.inf)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(
                    f"field '{key}' entry {i} is not finite (NaN, infinite or too large)"
                )
            coeffs.append(c)
        polys[key] = TaylorPoly(coeffs)
    return HarmonicMap(polys["g"], polys["h"])

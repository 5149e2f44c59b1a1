"""Spectrally accurate quadrature for Hardy, Bergman and mixed norms.

Circle averages use the uniform trapezoid rule with respect to the probability
measure on the unit circle.  Disk integrals use the normalized area measure
dxdy/pi in polar form, int_0^1 2r * (circle average at radius r) dr, with
Gauss-Legendre nodes in r; all radii of a disk rule are evaluated in one
batched transform per polynomial factor.  _means, the one rule behind
every polynomial norm, decides how rows are blocked: the circle rule
transforms ROW_BLOCK = 32 rows at a time, and the rows of a disk rule are
mapped over every usable CPU by maps._share_blocks, each transformed into
its worker's trace buffers.  For a polynomial map, |f|^p is a
trigonometric (and radial) polynomial only at even integer p, and the
rules are exact there once the node counts exceed its degree (auto_spec).
At other p, |f|^p is not smooth at the zeros of f, and wherever f has zeros
the rules converge only algebraically in the node count (Trefethen &
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review
2014).

Boundary traces of the Calderon extremal family behave like t^(-a) near t = 0
with a = 2*gamma*p/pi < 1; a shrinking-arc exclusion cannot converge there
(the arc [0, eps] holds an O(eps^(1-a)) share of the integral, which is O(1)
for a near 1).  Those integrals instead use the exact substitution
t = pi * u^(1/(1-a)), which absorbs the singularity, followed by panel
refinement until the relative change drops below the requested tolerance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .constants import RIESZ_P, PRange
from .maps import (
    CalderonFamily,
    HarmonicMap,
    TaylorPoly,
    _boundary_rows,
    _radius_powers,
    _share_blocks,
)

__all__ = [
    "QuadratureSpec",
    "QuadratureConvergenceError",
    "auto_spec",
    "mp_radius",
    "hardy_norm",
    "triple_norm",
    "bergman_norm",
    "bergman_triple_norm",
    "circle_power_mean",
    "disk_power_mean",
    "pair_circle_power_mean",
    "pair_disk_power_mean",
    "product_circle_power_mean",
    "product_disk_power_mean",
    "calderon_norm",
    "calderon_power_mean",
]

P_MAX = 64.0
# the exponents of the norms and of the means (a mean is a norm's p-th power)
_NORM_P = PRange(1.0, P_MAX, True, True)
_MEAN_P = PRange(0.0, P_MAX, False, True)
# the exponents a rule can be sized for (a pair or product mean doubles p)
_SPEC_P = PRange(0.0, math.inf, False, False)


class QuadratureConvergenceError(RuntimeError):
    """Adaptive refinement stopped before reaching the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved relative change {achieved:.3e})")
        self.achieved = achieved


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts for the circle/disk rules.

    n_angle uniform circle nodes, n_radial Gauss-Legendre nodes on [0, 1].
    """

    n_angle: int = 256
    n_radial: int = 64

    def __post_init__(self):
        for name, least in (("n_angle", 4), ("n_radial", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")


def auto_spec(degree: int, p: float) -> QuadratureSpec:
    """Spec sized so the rules are exact on |f|^p for even integer p.

    The trapezoid rule needs n_angle > p*degree (the trigonometric degree of
    |f|^p); the radial rule needs 2*n_radial - 1 >= p*degree + 1.  degree
    must be an integer >= 0 and p finite and > 0, or ValueError names them.
    """
    if isinstance(degree, bool) or not isinstance(degree, numbers.Integral) or degree < 0:
        raise ValueError(f"degree must be an integer >= 0, got {degree!r}")
    p = _SPEC_P.check("auto_spec", p)
    need_angle = max(4 * degree + 1, int(math.ceil(p)) * degree + 2)
    n_angle = max(256, need_angle)
    n_radial = max(64, (int(math.ceil(p)) * degree) // 2 + 2)
    return QuadratureSpec(n_angle=n_angle, n_radial=n_radial)


@lru_cache(maxsize=32)
def _gl01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped from [-1, 1] to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# ----------------------------- polynomial norms -----------------------------
#
# Every polynomial norm is the mean of one ring integrand over the circle or
# disk traces of its factors.  _means is the one rule that evaluates them: the
# public means below are its one-row calls, and the sample batteries
# (theorems) call it on whole draws of coefficient rows, sharing each
# factor's traces among the rings of every exponent that uses the rule.  A
# ring takes p first, then one trace array per factor.


def _modulus_ring(p: float, f: np.ndarray, *others: np.ndarray) -> np.ndarray:
    """|f|^p of the first factor; the traces of any further factors are not
    read, so the ring can ride a pass over more factors."""
    return np.abs(f) ** p


def _map_ring(p: float, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """|g + conj(h)|^p, the modulus ring of the map g + conj(h)."""
    return np.abs(g + np.conj(h)) ** p


def _pair_ring(p: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (np.abs(a) ** 2 + np.abs(b) ** 2) ** p


def _product_ring(p: float, g: np.ndarray, h: np.ndarray, real_part: bool) -> np.ndarray:
    prod = 2.0 * g * h
    base = np.abs(prod.real) if real_part else np.abs(prod)
    return base**p


# rows of a factor transformed at a time by the circle rule of _means
ROW_BLOCK = 32


def _means(
    rings: Sequence[Callable[..., np.ndarray]],
    factors: Sequence[np.ndarray],
    spec: QuadratureSpec,
    r: float | None,
) -> list[list[float]]:
    """The mean of each ring over the traces of factors, one float per row.

    factors are coefficient arrays with one polynomial per row (a 1-D
    sequence is one row; the rows are those that every factor has), and a
    ring gets one trace array per factor.  The callers hand over whole
    draws, and the blocking is decided here.  With a radius r the means are
    over the circle of radius r: each factor is transformed ROW_BLOCK rows
    at a time, so a block's traces stay small, and every ring is evaluated
    on the block's traces.  With r=None they are over the disk,
    int_0^1 2r * (circle mean at radius r) dr, and each factor is transformed
    once per row at all radii (all rows at once would hold rows x radii x
    angles values).  Each disk row returns its ring means, mapped over the
    rows by maps._share_blocks (so one row starts no thread), and each
    worker transforms its rows into its own (n_radial, n_angle) trace
    buffers, one per factor (the scratch).  Each mean is finished as a
    Python float, and the disk rule sums its weighted radii left to right
    (cumsum, not a pairwise sum), so a row's mean is bit-identical to
    evaluating that row alone, one radius at a time, on any worker.
    """
    n = spec.n_angle
    factors = [np.atleast_2d(np.asarray(c, dtype=complex)) for c in factors]
    rows = min(len(c) for c in factors)
    if r is not None:
        if r != 1.0:
            factors = [c * _radius_powers(r, c.shape[-1]) for c in factors]
        out = [[] for _ in rings]
        for start in range(0, rows, ROW_BLOCK):
            traces = [_boundary_rows(c[start : start + ROW_BLOCK], n) for c in factors]
            for means, ring in zip(out, rings):
                means.extend(np.mean(ring(*traces), axis=-1).tolist())
        return out
    nodes, weights = _gl01(spec.n_radial)
    weights = weights * 2.0 * nodes
    powers = [_radius_powers(nodes, c.shape[-1]) for c in factors]

    def row_means(traces, k):
        for c, pw, trace in zip(factors, powers, traces):
            _boundary_rows(c[k] * pw, n, out=trace)
        return [float(np.cumsum(weights * np.mean(ring(*traces), axis=-1))[-1]) for ring in rings]

    def scratch(workers):
        shape = (spec.n_radial, n)
        return [[np.empty(shape, dtype=complex) for _ in factors] for _ in range(workers)]

    per_row = _share_blocks(range(rows), row_means, scratch)
    return [[means[j] for means in per_row] for j in range(len(rings))]


def _mean(
    name: str,
    ring: Callable[..., np.ndarray],
    p: float,
    polys: Sequence[TaylorPoly],
    spec: QuadratureSpec | None,
    r: float | None,
    size: float = 1.0,
) -> float:
    """The mean of ring(p, ...) over the traces of polys, by spec or else
    the rule sized for |f|^(size * p): _means of one row.  Every public mean
    and norm is one of these; a circle radius r outside [0, 1], a spec with
    n_angle below 4*degree+1 and a mean that overflows raise ValueError."""
    p = _MEAN_P.check(name, p)
    if r is not None and not 0.0 <= r <= 1.0:
        raise ValueError(f"r must lie in [0, 1], got {r}")
    degree = max(q.degree for q in polys)
    if spec is None:
        spec = auto_spec(degree, size * p)
    elif spec.n_angle < 4 * degree + 1:
        raise ValueError(
            f"n_angle={spec.n_angle} is below 4*degree+1 = {4 * degree + 1} "
            "required for polynomial boundary traces"
        )
    with np.errstate(all="ignore"):
        mean = _means([partial(ring, p)], [q.coeffs for q in polys], spec, r)[0][0]
    if not math.isfinite(mean):
        raise ValueError(f"{name}(p={p:g}) is not finite ({mean}): the map's values overflow")
    return mean


def circle_power_mean(
    m: HarmonicMap, p: float, r: float = 1.0, spec: QuadratureSpec | None = None
) -> float:
    """int_T |f(r z)|^p dsigma(z); accepts any p > 0."""
    return _mean("circle_power_mean", _map_ring, p, (m.g, m.h), spec, r)


def disk_power_mean(
    m: HarmonicMap, p: float, spec: QuadratureSpec | None = None
) -> float:
    """int_U |f|^p dxdy/pi; accepts any p > 0."""
    return _mean("disk_power_mean", _map_ring, p, (m.g, m.h), spec, None)


def pair_circle_power_mean(
    a: TaylorPoly,
    b: TaylorPoly,
    p: float,
    r: float = 1.0,
    spec: QuadratureSpec | None = None,
) -> float:
    """int_T (|a|^2 + |b|^2)^p dsigma; accepts any p > 0."""
    return _mean("pair_circle_power_mean", _pair_ring, p, (a, b), spec, r, size=2.0)


def pair_disk_power_mean(
    a: TaylorPoly, b: TaylorPoly, p: float, spec: QuadratureSpec | None = None
) -> float:
    """int_U (|a|^2 + |b|^2)^p dxdy/pi; accepts any p > 0."""
    return _mean("pair_disk_power_mean", _pair_ring, p, (a, b), spec, None, size=2.0)


def product_circle_power_mean(
    g: TaylorPoly,
    h: TaylorPoly,
    p: float,
    real_part: bool = False,
    r: float = 1.0,
    spec: QuadratureSpec | None = None,
) -> float:
    """int_T (2|gh|)^p dsigma, or int_T |2 Re(gh)|^p with real_part=True."""
    ring = partial(_product_ring, real_part=real_part)
    return _mean("product_circle_power_mean", ring, p, (g, h), spec, r, size=2.0)


def product_disk_power_mean(
    g: TaylorPoly,
    h: TaylorPoly,
    p: float,
    real_part: bool = False,
    spec: QuadratureSpec | None = None,
) -> float:
    """int_U (2|gh|)^p dxdy/pi, or int_U |2 Re(gh)|^p with real_part=True."""
    ring = partial(_product_ring, real_part=real_part)
    return _mean("product_disk_power_mean", ring, p, (g, h), spec, None, size=2.0)


def mp_radius(
    m: HarmonicMap, p: float, r: float, spec: QuadratureSpec | None = None
) -> float:
    """M_p(f, r) = (int_T |f(r zeta)|^p dsigma)^{1/p} for 0 <= r <= 1."""
    p = _NORM_P.check("mp_radius", p)
    return circle_power_mean(m, p, r, spec) ** (1.0 / p)


def hardy_norm(m: HarmonicMap, p: float, spec: QuadratureSpec | None = None) -> float:
    """Hardy norm ||f||_p.

    Polynomial boundary traces are continuous, so the supremum over radii is
    the boundary value M_p(f, 1).  The Calderon family's trace is singular at
    t = 0; its norm is calderon_norm's.
    """
    return mp_radius(m, _NORM_P.check("hardy_norm", p), 1.0, spec)


def triple_norm(
    m: HarmonicMap, p: float, spec: QuadratureSpec | None = None
) -> float:
    """Mixed norm (int_T (|g|^2 + |h|^2)^{p/2} dsigma)^{1/p}."""
    p = _NORM_P.check("triple_norm", p)
    return pair_circle_power_mean(m.g, m.h, p / 2.0, 1.0, spec) ** (1.0 / p)


def bergman_norm(
    m: HarmonicMap, p: float, spec: QuadratureSpec | None = None
) -> float:
    """Bergman norm (int_U |f|^p dxdy/pi)^{1/p}."""
    p = _NORM_P.check("bergman_norm", p)
    return disk_power_mean(m, p, spec) ** (1.0 / p)


def bergman_triple_norm(
    m: HarmonicMap, p: float, spec: QuadratureSpec | None = None
) -> float:
    """(int_U (|g|^2 + |h|^2)^{p/2} dxdy/pi)^{1/p}."""
    p = _NORM_P.check("bergman_triple_norm", p)
    return pair_disk_power_mean(m.g, m.h, p / 2.0, spec) ** (1.0 / p)


# --------------------------- Calderon family norms ---------------------------


def calderon_power_mean(
    params: CalderonFamily,
    coeff_sq: float,
    offset: float,
    p: float | None = None,
    rel_tol: float = 1e-8,
    max_refinements: int = 14,
) -> float:
    """int_T (coeff_sq * cot(t/2)^{4 gamma/pi} + offset)^{p/2} dsigma.

    Covers every boundary norm of the family: the analytic trace
    (coeff_sq=1, offset=0), its real part (cos^2 gamma, 0), imaginary part
    (sin^2 gamma, 0) and the conjugate of the real part (sin^2 gamma, 1).

    With a = 2*gamma*p/pi < 1 and b = 1/(1-a), the substitution t = pi*u^b
    turns the t^(-a) singularity into a bounded integrand:

        mean = b * pi^(-a) * int_0^1 psi(pi u^b) du,
        psi(t) = (coeff_sq * (t cot(t/2))^{4 gamma/pi} + offset * t^{4 gamma/pi})^{p/2} ,

    because the Jacobian satisfies t^(-a) dt = pi^(1-a) b du exactly
    (b*(1-a) = 1) and psi = t^a * integrand is smooth at t = 0.  Panels are
    halved until the refinement estimates agree within rel_tol; failure to
    converge raises QuadratureConvergenceError carrying the achieved
    tolerance.
    """
    p = RIESZ_P.check("calderon_power_mean", params.p if p is None else p)
    a = 2.0 * params.gamma * p / math.pi
    if a >= 1.0:
        raise ValueError(
            f"boundary exponent 2*gamma*p/pi = {a:.6g} >= 1: the trace is not p-integrable"
        )
    b = 1.0 / (1.0 - a)
    c2 = 2.0 * 2.0 * params.gamma / math.pi  # 4*gamma/pi, exponent of cot(t/2)^2

    def psi(u: np.ndarray) -> np.ndarray:
        t = math.pi * u**b
        tcot = np.full_like(t, 2.0)
        mask = t > 0.0
        tcot[mask] = t[mask] / np.tan(0.5 * t[mask])
        tpow = t**c2
        return (coeff_sq * tcot**c2 + offset * tpow) ** (0.5 * p)

    integral, achieved = _adaptive_gl(psi, 0.0, 1.0, rel_tol, 4 * max_refinements)
    if achieved > rel_tol * max(abs(integral), 1e-300):
        raise QuadratureConvergenceError(
            "Calderon boundary quadrature did not converge",
            achieved / max(abs(integral), 1e-300),
        )
    return b * math.pi ** (-a) * integral


def _adaptive_gl(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rel_tol: float,
    max_depth: int,
) -> tuple[float, float]:
    """Adaptive bisection with 16-point Gauss panels.

    A panel is accepted when the whole-panel estimate and the sum of its two
    half-panel estimates agree within the panel's share of the error budget
    (successive-refinement comparison); returns (integral, accumulated error
    estimate).
    """
    gl_x, gl_w = _gl01(16)

    def panel(lo_: float, hi_: float) -> float:
        w = hi_ - lo_
        return w * float(np.dot(gl_w, f(lo_ + w * gl_x)))

    whole0 = panel(lo, hi)
    budget = rel_tol * max(abs(whole0), 1e-300)
    stack = [(lo, hi, whole0, budget, 0)]
    total = 0.0
    achieved = 0.0
    while stack:
        a_, b_, whole, tol, depth = stack.pop()
        mid = 0.5 * (a_ + b_)
        left, right = panel(a_, mid), panel(mid, b_)
        err = abs(left + right - whole)
        if err <= tol or depth >= max_depth or mid in (a_, b_):
            total += left + right
            achieved += err
        else:
            stack.append((a_, mid, left, 0.5 * tol, depth + 1))
            stack.append((mid, b_, right, 0.5 * tol, depth + 1))
    return total, achieved


def calderon_norm(
    params: CalderonFamily,
    p: float | None = None,
    component: str = "analytic",
) -> float:
    """L^p boundary norm of a component of the Calderon family.

    component: 'analytic' for the holomorphic trace g, 're' / 'im' for its
    real and imaginary parts, 'conjugate' for the harmonic conjugate of the
    real part (whose square modulus is v^2 + 1 under this normalization).
    """
    p = RIESZ_P.check("calderon_norm", params.p if p is None else p)
    cg, sg = math.cos(params.gamma), math.sin(params.gamma)
    table = {
        "analytic": (1.0, 0.0),
        "re": (cg * cg, 0.0),
        "im": (sg * sg, 0.0),
        "conjugate": (sg * sg, 1.0),
    }
    if component not in table:
        raise ValueError(f"unknown component {component!r}; expected one of {sorted(table)}")
    coeff_sq, offset = table[component]
    return calderon_power_mean(params, coeff_sq, offset, p) ** (1.0 / p)

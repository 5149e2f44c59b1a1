"""Periodic Hilbert transform, harmonic conjugation, and line-transform pairs.

The periodic transform acts on boundary Fourier coefficients as the
multiplier -i*sign(k) with the convention sign(0) = 1, so the constant 1 maps
to -i and the transform squares to minus the identity on every coefficient.
On harmonic maps the matching conjugation is f~ = -i (g - conj(h)) after the
h(0) = 0 normalization, i.e. both factors are multiplied by -i; the boundary
series of the conjugate then equals the multiplier transform of the boundary
series coefficient by coefficient.

The line transform H[phi](x) = (1/pi) p.v. int phi(t)/(x-t) dt is exercised
through a catalog of closed-form pairs (conjugate Poisson kernel, Lorentzian,
interval indicator); the tests check the catalog against a direct
principal-value quadrature.

Series values come from FourierSeries.__call__, which sums the terms left to
right as arrays; the singular integral evaluates its complex integrand once
per quadrature node and shares it between the real and imaginary quads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import integrate

from .constants import RIESZ_P
from .maps import FourierSeries, HarmonicMap

__all__ = [
    "periodic_hilbert",
    "singular_hilbert_at",
    "conjugate_map",
    "LineKind",
    "LinePair",
    "line_pair_values",
    "line_lp_norm",
]


def _sign_with_one_at_zero(k: int) -> int:
    return 1 if k >= 0 else -1


def periodic_hilbert(series: FourierSeries) -> FourierSeries:
    """Multiplier form: coefficient k maps to -i*sign(k)*c_k, sign(0) = 1."""
    return FourierSeries(
        {k: -1j * _sign_with_one_at_zero(k) * c for k, c in series.coeffs.items()}
    )


def singular_hilbert_at(series: FourierSeries, tau: float, epsilon: float) -> complex:
    """Truncated singular integral

        -(1/pi) int_eps^pi (chi(tau+t) - chi(tau-t)) / (2 tan(t/2)) dt

    evaluated by adaptive quadrature.  The difference quotient annihilates
    constants, so this recovers the multiplier form minus its k = 0 term as
    epsilon -> 0 (at rate O(epsilon) for smooth traces).

    The real and imaginary parts are separate quads over the same nodes; the
    complex integrand is evaluated once per node (both series values in one
    array call) and kept for the other part until this call returns.
    """
    if not 0.0 < epsilon < math.pi:
        raise ValueError(f"epsilon must lie in (0, pi), got {epsilon}")
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    values: dict[float, complex] = {}

    def integrand(t: float) -> complex:
        value = values.get(t)
        if value is None:
            ahead, behind = series(np.array([tau + t, tau - t])).tolist()
            value = values[t] = (ahead - behind) / (2.0 * math.tan(0.5 * t))
        return value

    re, _ = integrate.quad(
        lambda t: integrand(t).real, epsilon, math.pi, limit=200, epsabs=1e-11
    )
    im, _ = integrate.quad(
        lambda t: integrand(t).imag, epsilon, math.pi, limit=200, epsabs=1e-11
    )
    return complex(-(re + 1j * im) / math.pi)


def conjugate_map(m: HarmonicMap) -> HarmonicMap:
    """Harmonic conjugate f~ = -i (g - conj(h)) after normalizing h(0) = 0.

    Represented as the pair (-i*g, -i*h): indeed (-i g) + conj(-i h)
    = -i g + i conj(h) = -i (g - conj(h)).  Boundary coefficients then match
    periodic_hilbert exactly, including k = 0 (this is what sign(0) = 1 is
    for).
    """
    n = m.normalized()
    return HarmonicMap(n.g.scaled(-1j), n.h.scaled(-1j))


class LineKind(Enum):
    POISSON_KERNEL = "POISSON_KERNEL"
    INDICATOR = "INDICATOR"
    LORENTZIAN = "LORENTZIAN"


@dataclass(frozen=True)
class LinePair:
    """A function on the real line together with its closed-form transform.

    POISSON_KERNEL carries the half-plane height y > 0 as parameter; the
    other pairs ignore it.
    """

    kind: LineKind
    parameter: float = 1.0

    def __post_init__(self):
        if self.kind is LineKind.POISSON_KERNEL and not self.parameter > 0.0:
            raise ValueError("POISSON_KERNEL requires height y > 0")


def line_pair_values(pair: LinePair, x):
    """(phi(x), phi~(x)) from the closed-form catalog.

    POISSON_KERNEL: (y/(pi(x^2+y^2)), x/(pi(x^2+y^2)));
    LORENTZIAN:     (1/(1+x^2), x/(1+x^2));
    INDICATOR of [-1, 1]: (1_{[-1,1]}(x), (1/pi) log|x+1|/|x-1|), undefined
    at x = +/-1.
    """
    x = np.asarray(x, dtype=float)
    if pair.kind is LineKind.POISSON_KERNEL:
        y = pair.parameter
        denom = math.pi * (x * x + y * y)
        phi, phit = y / denom, x / denom
    elif pair.kind is LineKind.LORENTZIAN:
        denom = 1.0 + x * x
        phi, phit = 1.0 / denom, x / denom
    elif pair.kind is LineKind.INDICATOR:
        if np.any(np.isclose(np.abs(x), 1.0, atol=1e-14)):
            raise ValueError("the indicator transform is undefined at x = +/-1")
        phi = np.where(np.abs(x) <= 1.0, 1.0, 0.0)
        phit = np.log(np.abs(x + 1.0) / np.abs(x - 1.0)) / math.pi
    else:  # pragma: no cover
        raise ValueError(f"unknown pair {pair.kind}")
    if x.shape:
        return phi, phit
    return float(phi), float(phit)


def line_lp_norm(pair: LinePair, p: float, transformed: bool = False) -> float:
    """||phi||_{L^p(R)} or ||phi~||_{L^p(R)} by adaptive quadrature.

    The integrands decay polynomially, so the infinite tails are handled by
    quad's variable transformation; the indicator transform has integrable
    logarithmic singularities at +/-1, passed as breakpoints.
    """
    p = RIESZ_P.check("line_lp_norm", p)
    idx = 1 if transformed else 0

    def f(t: float) -> float:
        return abs(line_pair_values(pair, t)[idx]) ** p

    if pair.kind is LineKind.INDICATOR:
        if not transformed:
            return 2.0 ** (1.0 / p)

        def f_log(t: float) -> float:
            # integrable log singularities at +/-1; the quadrature may land
            # exactly on them, where the integrand is set to 0 (measure zero)
            num, den = abs(t + 1.0), abs(t - 1.0)
            if num == 0.0 or den == 0.0:
                return 0.0
            return abs(math.log(num / den) / math.pi) ** p

        inner, _ = integrate.quad(
            f_log, -8.0, 8.0, points=[-1.0, 1.0], limit=500, epsabs=1e-12
        )
        left, _ = integrate.quad(f_log, -np.inf, -8.0, limit=200, epsabs=1e-12)
        right, _ = integrate.quad(f_log, 8.0, np.inf, limit=200, epsabs=1e-12)
        return (inner + left + right) ** (1.0 / p)
    val, _ = integrate.quad(f, -np.inf, np.inf, limit=500, epsabs=1e-12)
    return val ** (1.0 / p)


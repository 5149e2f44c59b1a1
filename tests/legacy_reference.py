"""Earlier one-object-at-a-time implementations, kept only as oracles for the
pin tests: the per-seed map drawing, the term-by-term Fourier series, and the
singular integral that evaluates its integrand once per quadrature visit."""

import math

import numpy as np
from scipy import integrate

from rieszlab.maps import Constraint, HarmonicMap, TaylorPoly


def _disk_samples(rng, n):
    radius = np.sqrt(rng.uniform(0.0, 1.0, n))
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    return radius * np.exp(1j * angle)


def random_poly(degree, seed):
    if degree < 0:
        raise ValueError("degree must be >= 0")
    rng = np.random.default_rng(seed)
    return TaylorPoly(_disk_samples(rng, degree + 1))


def random_harmonic(degree, seed, constraint=Constraint.NONE):
    if degree < 0:
        raise ValueError("degree must be >= 0")
    constraint = Constraint(constraint)
    rng = np.random.default_rng(seed)
    g = _disk_samples(rng, degree + 1)
    h = _disk_samples(rng, degree + 1)
    if constraint is Constraint.RE_ZERO:
        s = float(rng.choice([-1.0, 1.0])) * 2.0 ** -float(rng.integers(0, 5))
        a, b = g[0].real, g[0].imag
        h[0] = complex(s * b, s * a)
    elif constraint is not Constraint.NONE:
        re = (g[0] * h[0]).real
        want_nonneg = constraint is Constraint.RE_NONNEG
        if (re < 0) == want_nonneg:
            h[0] = -h[0]
    return HarmonicMap(TaylorPoly(g), TaylorPoly(h))


def analytic_sample(degree, seed):
    """Random analytic g with real g(0)."""
    coeffs = list(random_poly(degree, seed).coeffs)
    coeffs[0] = complex(coeffs[0].real, 0.0)
    return TaylorPoly(coeffs)


def series_value(series, tau):
    """FourierSeries.__call__ one term at a time."""
    tau = np.asarray(tau, dtype=float)
    acc = np.zeros(tau.shape, dtype=complex)
    for k, c in series.coeffs.items():
        acc = acc + c * np.exp(1j * k * tau)
    return acc if acc.shape else complex(acc)


def singular_hilbert_at(series, tau, epsilon):
    """The truncated singular integral with separate real and imaginary quads,
    each evaluating the term-by-term series twice per node."""

    def integrand(t):
        return (series_value(series, tau + t) - series_value(series, tau - t)) / (
            2.0 * math.tan(0.5 * t)
        )

    re, _ = integrate.quad(
        lambda t: integrand(t).real, epsilon, math.pi, limit=200, epsabs=1e-11
    )
    im, _ = integrate.quad(
        lambda t: integrand(t).imag, epsilon, math.pi, limit=200, epsabs=1e-11
    )
    return complex(-(re + 1j * im) / math.pi)

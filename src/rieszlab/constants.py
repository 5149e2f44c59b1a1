"""Closed-form sharp constants and (pluri)subharmonic minorant functions.

Every constant is expressed through pbar = max{p, p/(p-1)} in a
cancellation-safe form: 1 - |cos(pi/p)| is 2 sin^2(pi/(2 pbar)) exactly, so
the A constant is evaluated as 1/(sqrt(2) sin(pi/(2 pbar))) rather than by
subtracting nearly-equal quantities.

Angle-minorant zoo (theta arguments accepted on [-2 pi, 2 pi], and reduced by
the even 2 pi-periodic extension, since the minorants are composed with sums
of principal arguments):

* re_branch_angle: the angular factor of Re(zeta^{p/2}) with the branch
  that keeps the power continuous across the negative real axis, whose
  minorant (Minorant.RE_BRANCH) is subharmonic for 1 < p <= 2;
* phi_mid_angle / phi_high_angle: the cosine form and the pi/2-shifted
  reflected two-band construction;
* theta_lower(theta, p): the angular factor of the lower-bound minorant for
  p > 2 (phi_mid_angle for 2 < p <= 4, the unshifted reflected form above);
* theta_upper(theta, p): the angular factor of the upper-bound minorant for
  p > 2 (three cosine bands on [0, 2 pi], even);
* minorant_F / minorant_G: the two-variable plurisubharmonic minorants built
  from these profiles, vanishing when either argument is zero and positively
  homogeneous of degree p/2 in |z w|.

Two tables hold the catalogs, one row per entry.  Each SharpConstant is a row
of _CONSTANTS, its range and its formula: sharp_constant checks p (n for
ISOP) against the range and calls the formula.  Each Minorant is
|zeta|^{p/2} times one of these profiles at arg zeta (with zeta = z w for
the pairs); a row of _MINORANTS holds its profile and its p-range.

Exponent ranges.  PRange is the one range type of the package: the ranges of
the constants and minorants here, of the lemma tags (gridlab), the norms and
means (quadrature), the theorem tags and probes (theorems), the Calderon
family (maps) and the line pairs (hilbert) are all PRange values, and
PRange.check is the one place where an exponent is compared with its bounds.
Its message is the one range message:

    <what> requires <p | an integer n> in <interval>, got <value as given>
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

__all__ = [
    "PRange",
    "SharpConstant",
    "Minorant",
    "conjugate_exponent_bar",
    "sharp_constant",
    "re_branch_angle",
    "phi_mid_angle",
    "phi_high_angle",
    "theta_lower",
    "theta_lower_reflected",
    "theta_upper",
    "psi_angle",
    "minorant_F",
    "minorant_G",
    "minorant_value",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PRange:
    """The exponents from lo to hi, each end closed or open; integer ranges
    hold the integers n in it, and excludes is one exponent left out."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool
    integer: bool = False
    excludes: float | None = None

    def __str__(self) -> str:
        lo, hi = "[" if self.lo_closed else "(", "]" if self.hi_closed else ")"
        text = f"{lo}{self.lo}, {self.hi}{hi}"
        return text if self.excludes is None else f"{text}, p != {self.excludes:g}"

    def check(self, what: str, value):
        """value as a float (an int for an integer range), or ValueError with
        the one range message, naming what and the value as given.  NaN, and
        anything float() rejects (None included), is outside every range."""
        try:
            x = float(value)
        except (TypeError, ValueError):
            x = math.nan
        ok = (x >= self.lo if self.lo_closed else x > self.lo) and (
            x <= self.hi if self.hi_closed else x < self.hi
        )
        if self.integer:
            ok = ok and math.isfinite(x) and x == int(x)
        if not ok or x == self.excludes:
            kind = "an integer n" if self.integer else "p"
            raise ValueError(f"{what} requires {kind} in {self}, got {value}")
        return int(x) if self.integer else x


RIESZ_P = PRange(1.0, math.inf, False, False)  # 1 < p < inf
_LOW_P = PRange(1.0, 2.0, False, True)  # 1 < p <= 2
_HIGH_P = PRange(2.0, math.inf, False, False)  # p > 2
_REFLECTED_P = PRange(4.0, math.inf, True, False)  # p >= 4
_PSI_P = PRange(1.0, math.inf, False, False, excludes=2.0)  # p > 1, p != 2


def conjugate_exponent_bar(p: float) -> float:
    """pbar = max{p, p/(p-1)} for p > 1."""
    p = RIESZ_P.check("conjugate_exponent_bar", p)
    return max(p, p / (p - 1.0))


class SharpConstant(Enum):
    """Catalog of the closed-form sharp constants."""

    A = "A"                        # mixed norm <= A * Hardy norm
    B = "B"                        # Hardy norm <= B * mixed norm
    HILBERT_NORM = "HILBERT_NORM"  # cot(pi/(2 pbar)), norm of the conjugation operator
    PICHORIDES = "PICHORIDES"      # cot(pi/(2 pbar)), conjugate-of-real-part constant
    VERBITSKY_CSC = "VERBITSKY_CSC"  # csc(pi/(2 pbar)), analytic vs real part
    VERBITSKY_SEC = "VERBITSKY_SEC"  # sec(pi/(2 pbar)), analytic vs imaginary part
    A_LOW_P = "A_LOW_P"            # (1 + cos(pi/p))^{-p/2}, 1 < p <= 2
    B_LOW_P = "B_LOW_P"            # 2^{p/2} tan(pi/(2p)), 1 < p <= 2
    A_HIGH_P = "A_HIGH_P"          # (1 - cos(pi/p))^{-p/2}, p > 2
    B_HIGH_P = "B_HIGH_P"          # 2^{p/2} cot(pi/(2p)), p > 2
    C_HIGH_P = "C_HIGH_P"          # (sqrt(2) cos(pi/(2p)))^p, p > 2
    D_HIGH_P = "D_HIGH_P"          # 2^p cos^{p-1}(pi/(2p)) sin(pi/(2p)), p > 2
    C_LOW_P = "C_LOW_P"            # (sqrt(2) sin(pi/(2p)))^p, 1 < p < 2
    D_LOW_P = "D_LOW_P"            # 2^p sin^{p-1}(pi/(2p)) cos(pi/(2p)), 1 < p < 2
    VERBITSKY_A = "VERBITSKY_A"    # sec^p(pi/(2p)), 1 < p <= 2
    VERBITSKY_B = "VERBITSKY_B"    # tan(pi/(2p)), 1 < p <= 2
    ISOP = "ISOP"                  # (1/2) csc(pi/(4n)), integer n >= 2


def _bar(p: float) -> float:
    """pi/(2 pbar), the angle of the constants stated through pbar."""
    return math.pi / (2.0 * conjugate_exponent_bar(p))


def _half(p: float) -> float:
    """pi/(2p), the angle of the constants stated through p."""
    return math.pi / (2.0 * p)


def _cot_bar(p: float) -> float:
    """cot(pi/(2 pbar)), as cos over sin."""
    x = _bar(p)
    return math.cos(x) / math.sin(x)


# constant -> (range of p, or of the integer n for ISOP; formula at the
# checked p or n)
_CONSTANTS: dict[SharpConstant, tuple[PRange, Callable[[float], float]]] = {
    SharpConstant.A: (RIESZ_P, lambda p: 1.0 / (math.sqrt(2.0) * math.sin(_bar(p)))),
    SharpConstant.B: (RIESZ_P, lambda p: math.sqrt(2.0) * math.cos(_bar(p))),
    SharpConstant.HILBERT_NORM: (RIESZ_P, _cot_bar),
    SharpConstant.PICHORIDES: (RIESZ_P, _cot_bar),
    SharpConstant.VERBITSKY_CSC: (RIESZ_P, lambda p: 1.0 / math.sin(_bar(p))),
    SharpConstant.VERBITSKY_SEC: (RIESZ_P, lambda p: 1.0 / math.cos(_bar(p))),
    # (1 + cos(pi/p))^{-p/2} = (2 cos^2(pi/(2p)))^{-p/2}
    SharpConstant.A_LOW_P: (_LOW_P, lambda p: (2.0 * math.cos(_half(p)) ** 2) ** (-0.5 * p)),
    SharpConstant.B_LOW_P: (_LOW_P, lambda p: 2.0 ** (0.5 * p) * math.tan(_half(p))),
    # (1 - cos(pi/p))^{-p/2} = (2 sin^2(pi/(2p)))^{-p/2}
    SharpConstant.A_HIGH_P: (_HIGH_P, lambda p: (2.0 * math.sin(_half(p)) ** 2) ** (-0.5 * p)),
    SharpConstant.B_HIGH_P: (_HIGH_P, lambda p: 2.0 ** (0.5 * p) / math.tan(_half(p))),
    SharpConstant.C_HIGH_P: (_HIGH_P, lambda p: (math.sqrt(2.0) * math.cos(_half(p))) ** p),
    # tangent to 2^p cos^p(t/2) at t = pi/p; the 2^p factor restores the
    # scaling of the unscaled |sin s|^p bound
    SharpConstant.D_HIGH_P: (
        _HIGH_P,
        lambda p: 2.0**p * math.cos(_half(p)) ** (p - 1.0) * math.sin(_half(p)),
    ),
    SharpConstant.C_LOW_P: (
        PRange(1.0, 2.0, False, False),
        lambda p: (math.sqrt(2.0) * math.sin(_half(p))) ** p,
    ),
    # (2 - 2 cos(pi/p))^{p/2} cot(pi/(2p)) = 2^p sin^{p-1}(pi/(2p)) cos(pi/(2p))
    SharpConstant.D_LOW_P: (
        PRange(1.0, 2.0, False, False),
        lambda p: 2.0**p * math.sin(_half(p)) ** (p - 1.0) * math.cos(_half(p)),
    ),
    SharpConstant.VERBITSKY_A: (_LOW_P, lambda p: math.cos(_half(p)) ** (-p)),
    SharpConstant.VERBITSKY_B: (_LOW_P, lambda p: math.tan(_half(p))),
    SharpConstant.ISOP: (
        PRange(2, math.inf, True, False, integer=True),
        lambda n: 0.5 / math.sin(math.pi / (4.0 * n)),
    ),
}


def sharp_constant(kind: SharpConstant, p: float | None = None, n: int | None = None) -> float:
    """Evaluate a named constant at exponent p (or order n for ISOP)."""
    kind = SharpConstant(kind)
    p_range, formula = _CONSTANTS[kind]
    return formula(p_range.check(kind.value, n if p_range.integer else p))


# ------------------------------ angle profiles ------------------------------


def _mod_2pi(m: np.ndarray) -> np.ndarray:
    """np.mod(m, 2 pi) for m >= 0, skipped when every m is below 2 pi, where
    it is the identity (fmod(x, 2 pi) == x for 0 <= x < 2 pi); a NaN or an
    infinite m takes np.mod as before."""
    return m if m.max(initial=0.0) < TWO_PI else np.mod(m, TWO_PI)


def _fold_pi(theta: np.ndarray) -> np.ndarray:
    """Reduce by the even 2 pi-periodic extension onto [0, pi].  The
    principal angles of np.angle are folded by |theta| alone: the reduction
    and the reflection are skipped where they are the identity."""
    m = _mod_2pi(np.abs(theta))
    if m.max(initial=0.0) <= math.pi:
        return m
    return np.where(m > math.pi, TWO_PI - m, m)


def re_branch_angle(theta, p: float):
    """Angular factor of Re(zeta^{p/2}) for theta in [-2 pi, 2 pi].

    cos(p theta/2) on |theta| <= pi, cos(p theta/2 -+ p pi) on the outer
    bands; the three formulas assemble the even 2 pi-periodic profile, and the
    seams at |theta| = pi are continuous because cosine is even.  Each point's
    argument is shifted onto its band first, so one cosine is taken.
    """
    theta = np.asarray(theta, dtype=float)
    arg = np.multiply(0.5 * p, theta, out=np.empty(theta.shape))
    np.subtract(arg, p * math.pi, out=arg, where=theta > math.pi)
    np.add(arg, p * math.pi, out=arg, where=theta < -math.pi)
    out = np.cos(arg, out=arg)
    return out if out.shape else float(out)


def _phi_reflected(x: np.ndarray, p: float) -> np.ndarray:
    """Two-band profile on [0, pi/2] for p >= 4.

    -cos((p/2)(pi/2 - x)) on [pi/2 - 2 pi/p, pi/2]; the maximum of the two
    reflected cosine moduli below that band.
    """
    knee = 0.5 * math.pi - TWO_PI / p
    outer = -np.cos(0.5 * p * (0.5 * math.pi - x))
    inner = np.maximum(np.abs(outer), np.abs(np.cos(0.5 * p * (0.5 * math.pi + x))))
    return np.where(x >= knee, outer, inner)


def theta_lower_reflected(theta, p: float):
    """Reflected-construction angular minorant, valid for p >= 4.

    Even, symmetric about pi/2, hence pi-periodic; used with the -pi/2 angle
    shift in the p >= 4 lower bound and in the PHI_HIGH minorant.
    """
    p = _REFLECTED_P.check("theta_lower_reflected", p)
    m = _fold_pi(np.asarray(theta, dtype=float))
    m = np.minimum(m, math.pi - m)  # symmetry about pi/2
    out = _phi_reflected(m, p)
    return out if out.shape else float(out)


def phi_mid_angle(theta, p: float):
    """-cos((p/2)(pi - |theta|)), extended evenly and 2 pi-periodically: the
    angular factor of PHI_MID (2 <= p <= 4) and of theta_lower for p <= 4."""
    m = _fold_pi(np.asarray(theta, dtype=float))
    out = -np.cos(0.5 * p * (math.pi - m))
    return out if out.shape else float(out)


def phi_high_angle(theta, p: float):
    """The reflected profile at theta - pi/2: the angular factor of PHI_HIGH
    (p >= 4)."""
    return theta_lower_reflected(np.asarray(theta, dtype=float) - 0.5 * math.pi, p)


def theta_lower(theta, p: float):
    """Angular minorant for the p > 2 lower bound.

    phi_mid_angle for 2 < p <= 4; the reflected construction for p > 4.
    Extended evenly and 2 pi-periodically: the even 2 pi-periodic extension
    is what composing with principal arguments requires, and for p > 4 it
    coincides with reflecting about pi (the profile is symmetric about pi/2),
    while for 2 < p <= 4 a pi-shift extension would break the lower bound
    beyond |theta| = pi.
    """
    p = _HIGH_P.check("theta_lower", p)
    return phi_mid_angle(theta, p) if p <= 4.0 else theta_lower_reflected(theta, p)


def theta_upper(theta, p: float):
    """Angular minorant for the p > 2 upper bound: even extension of the
    three-band profile on [0, 2 pi].

    -cos(p theta/2) on [0, 2 pi/p]; the mirrored cosine on
    [2 pi - 2 pi/p, 2 pi]; the max of the two cosine moduli between.
    """
    p = _HIGH_P.check("theta_upper", p)
    theta = np.asarray(theta, dtype=float)
    m = _mod_2pi(np.abs(theta))
    band = TWO_PI / p
    lo = -np.cos(0.5 * p * m)
    hi = -np.cos(0.5 * p * (TWO_PI - m))
    mid = np.maximum(np.abs(lo), np.abs(hi))
    out = np.where(m <= band, lo, np.where(m >= TWO_PI - band, hi, mid))
    return out if out.shape else float(out)


def psi_angle(theta, p: float):
    """Angular factor of the upper-bound minorant: cos((p/2)(pi - |theta|))
    for p < 2, theta_upper for p > 2.  Undefined at p = 2."""
    p = _PSI_P.check("psi_angle", p)
    theta = np.asarray(theta, dtype=float)
    if p > 2.0:
        return theta_upper(theta, p)
    m = _fold_pi(theta)
    out = np.cos(0.5 * p * (math.pi - m))
    return out if out.shape else float(out)


# --------------------------- composite minorants ---------------------------


class Minorant(Enum):
    """Catalog keys for the subharmonicity tests."""

    RE_BRANCH = "RE_BRANCH"      # Re(zeta^{p/2}), 1 < p <= 2
    PHI_MID = "PHI_MID"          # -|z|^{p/2} cos((p/2)(pi-|theta|)), 2 <= p <= 4
    PHI_HIGH = "PHI_HIGH"        # |z|^{p/2} * reflected profile at theta - pi/2, p >= 4
    THETA_LOWER = "THETA_LOWER"  # |z|^{p/2} theta_lower(theta), p > 2
    THETA_UPPER = "THETA_UPPER"  # |z|^{p/2} theta_upper(theta), p > 2
    PSI = "PSI"                  # Psi_p, p > 1 and p != 2
    F_PAIR = "F_PAIR"            # two-variable minorant_F, p > 1
    G_PAIR = "G_PAIR"            # two-variable minorant_G, p > 1, p != 2


def _f_angle(theta, p: float):
    """minorant_F's profile: RE_BRANCH's for p <= 2, PHI_MID's for p <= 4 and
    PHI_HIGH's above (the two agree at p = 4)."""
    if p <= 2.0:
        return re_branch_angle(theta, p)
    return phi_mid_angle(theta, p) if p <= 4.0 else phi_high_angle(theta, p)


# minorant -> (profile, p-range); the minorant is |zeta|^{p/2} profile(arg
# zeta, p), with zeta = z w for the pairs
_MINORANTS: dict[Minorant, tuple[Callable, PRange]] = {
    Minorant.RE_BRANCH: (re_branch_angle, _LOW_P),
    Minorant.PHI_MID: (phi_mid_angle, PRange(2.0, 4.0, True, True)),
    Minorant.PHI_HIGH: (phi_high_angle, _REFLECTED_P),
    Minorant.THETA_LOWER: (theta_lower, _HIGH_P),
    Minorant.THETA_UPPER: (theta_upper, _HIGH_P),
    Minorant.PSI: (psi_angle, _PSI_P),
    Minorant.F_PAIR: (_f_angle, RIESZ_P),
    Minorant.G_PAIR: (psi_angle, _PSI_P),
}


def _polar_parts(zeta):
    """(arg zeta, |zeta|) of complex zeta, scalars or arrays: the polar
    decomposition that every minorant of zeta shares."""
    zeta = np.asarray(zeta, dtype=complex)
    return np.angle(zeta), np.abs(zeta)


def _polar_product(theta, modulus, profile, p: float):
    """|zeta|^{p/2} profile(arg zeta, p) from theta = arg zeta and modulus =
    |zeta|, 0 at zeta = 0.  The profile first, so that |zeta|^{p/2} is not
    held through its temporaries."""
    prof = profile(theta, p)
    out = modulus ** (0.5 * p) * prof
    return out if out.shape else float(out)


def _polar(profile, zeta, p: float):
    """|zeta|^{p/2} profile(arg zeta, p); scalars or arrays."""
    return _polar_product(*_polar_parts(zeta), profile, p)


def _pair(mid: Minorant, z, w, p: float):
    profile, p_range = _MINORANTS[mid]
    p = p_range.check(mid.value, p)
    return _polar(profile, np.asarray(z, dtype=complex) * np.asarray(w, dtype=complex), p)


def minorant_F(z, w, p: float):
    """Plurisubharmonic minorant of the lower bound: Re((z w)^{p/2}) for
    1 < p <= 2, Phi_p(z w) for p > 2.  Vanishes when z = 0 or w = 0."""
    return _pair(Minorant.F_PAIR, z, w, p)


def minorant_G(z, w, p: float):
    """Plurisubharmonic minorant of the upper bound: Psi_p(z w), p != 2."""
    return _pair(Minorant.G_PAIR, z, w, p)


def minorant_value(mid: Minorant, zeta, p: float):
    """Evaluate a single-variable minorant at complex zeta.

    F_PAIR / G_PAIR are two-variable; use minorant_F / minorant_G (or the
    complex-line restriction tests) for those.
    """
    mid = Minorant(mid)
    profile, p_range = _MINORANTS[mid]
    p = p_range.check(mid.value, p)
    if mid in (Minorant.F_PAIR, Minorant.G_PAIR):
        raise ValueError(f"{mid.value} is a two-variable minorant; use minorant_F/minorant_G")
    return _polar(profile, zeta, p)

"""Earlier implementations, kept only as oracles for the pin tests: the
per-seed map drawing with numpy's own generator, the term-by-term Fourier
series, the singular integral that evaluates its integrand once per
quadrature visit, the three-cosine RE_BRANCH angle profile, the minorants
with each angle profile written out where it is used, the six two-variable
slack functions written out one by one, the equality loci written out per
tag, the 2-D scan over (r, t) column blocks of 32 t-nodes with a fresh array
per temporary, verify_pointwise and locate_equality with a branch of their
own per arity (and a one-variable scan with its own minimum and violation
code), the isoperimetric chain from seven public power means (two
transforms each), and sharp_constant and theorem_constant as a range table
and an if-chain each (the theorem tags before MIXED_BY_HARDY_RELAXED)."""

import math

import numpy as np
from scipy import integrate

from rieszlab.constants import (
    RIESZ_P,
    Minorant,
    PRange,
    SharpConstant as SC,
    conjugate_exponent_bar,
    psi_angle,
    re_branch_angle,
    sharp_constant,
    theta_lower_reflected,
    theta_upper,
)
from rieszlab.gridlab import (
    _REGISTRY,
    InequalityId,
    _axis,
    _first_min,
    _pm_mod_2pi,
    _violated,
    scan_ranges,
)
from rieszlab.maps import Constraint, HarmonicMap, TaylorPoly
from rieszlab.quadrature import (
    P_MAX,
    circle_power_mean,
    disk_power_mean,
    pair_circle_power_mean,
    pair_disk_power_mean,
    product_circle_power_mean,
    product_disk_power_mean,
)
from rieszlab.reporting import MAX_VIOLATIONS, GridSpec, SlackAccumulator
from rieszlab.theorems import TheoremId


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
    return harmonic_from(np.random.default_rng(seed), degree, constraint)


def harmonic_from(rng, degree, constraint=Constraint.NONE):
    """random_harmonic's draw from the generator rng, in any state."""
    constraint = Constraint(constraint)
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


def three_cosine_re_branch_angle(theta, p):
    """constants.re_branch_angle with all three band cosines at every point."""
    theta = np.asarray(theta, dtype=float)
    out = np.where(
        np.abs(theta) <= math.pi,
        np.cos(0.5 * p * theta),
        np.where(
            theta > math.pi,
            np.cos(0.5 * p * theta - p * math.pi),
            np.cos(0.5 * p * theta + p * math.pi),
        ),
    )
    return out if out.shape else float(out)


# -------------------------------- minorants --------------------------------


def _fold_pi(theta):
    m = np.mod(np.abs(theta), 2.0 * math.pi)
    return np.where(m > math.pi, 2.0 * math.pi - m, m)


def _conj_profile(t, p):
    """-cos((p/2)(pi - |t|)) with the even 2 pi-periodic extension."""
    return -np.cos(0.5 * p * (math.pi - _fold_pi(np.asarray(t, dtype=float))))


def theta_lower(theta, p):
    theta = np.asarray(theta, dtype=float)
    if p > 4.0:
        return theta_lower_reflected(theta, p)
    out = -np.cos(0.5 * p * (math.pi - _fold_pi(theta)))
    return out if out.shape else float(out)


def _polar_power(profile, zeta, p):
    """The RE_BRANCH and PSI minorants of minorant_value without their p checks."""
    zeta = np.asarray(zeta, dtype=complex)
    prof = profile(np.angle(zeta), p)
    out = np.abs(zeta) ** (0.5 * p) * prof
    return out if out.shape else float(out)


def _phi_single(zeta, p):
    zeta = np.asarray(zeta, dtype=complex)
    if p <= 4.0:
        prof = -np.cos(0.5 * p * (math.pi - np.abs(np.angle(zeta))))
    else:
        prof = theta_lower_reflected(np.angle(zeta) - 0.5 * math.pi, p)
    return np.abs(zeta) ** (0.5 * p) * prof


def minorant_value(mid, zeta, p):
    """constants.minorant_value's per-minorant branches, without its p check."""
    zeta = np.asarray(zeta, dtype=complex)
    if mid is Minorant.RE_BRANCH:
        return _polar_power(re_branch_angle, zeta, p)
    if mid is Minorant.PSI:
        return _polar_power(psi_angle, zeta, p)
    rho = np.abs(zeta) ** (0.5 * p)
    ang = np.angle(zeta)
    if mid is Minorant.PHI_MID:
        out = rho * -np.cos(0.5 * p * (math.pi - np.abs(ang)))
    elif mid is Minorant.PHI_HIGH:
        out = rho * theta_lower_reflected(ang - 0.5 * math.pi, p)
    elif mid is Minorant.THETA_LOWER:
        out = rho * theta_lower(ang, p)
    else:
        out = rho * theta_upper(ang, p)
    return out if out.shape else float(out)


def minorant_F(z, w, p):
    zw = np.asarray(z, dtype=complex) * np.asarray(w, dtype=complex)
    if p <= 2.0:
        return _polar_power(re_branch_angle, zw, p)
    out = _phi_single(zw, p)
    return out if np.asarray(out).shape else float(out)


def minorant_G(z, w, p):
    zw = np.asarray(z, dtype=complex) * np.asarray(w, dtype=complex)
    return _polar_power(psi_angle, zw, p)


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


# --------------------------- two-variable slacks ---------------------------


def _normalized(t1, t2, t3):
    num = t1 - t2
    num -= t3
    den = np.abs(t1) + np.abs(t2)
    den += np.abs(t3)
    num /= den
    return num


def _sum_sq(r, t):
    out = 2.0 * r * np.cos(t)
    out += 1.0 + r * r
    return out


def _slack_mixed_low(p, r, t):
    a = sharp_constant(SC.A_LOW_P, p)
    b = sharp_constant(SC.B_LOW_P, p)
    t1 = a * _sum_sq(r, t) ** (0.5 * p)
    t2 = b * r ** (0.5 * p) * re_branch_angle(t, p)
    t3 = (1.0 + r * r) ** (0.5 * p)
    return _normalized(t1, t2, t3)


def _slack_mixed_radial(p, r, t):
    t1 = (_sum_sq(r, t) / (1.0 + math.cos(math.pi / p))) ** (0.5 * p)
    t2 = 2.0 ** (0.5 * p) * r ** (0.5 * p) * np.cos(0.5 * p * t) * math.tan(math.pi / (2.0 * p))
    t3 = (1.0 + r * r) ** (0.5 * p)
    return _normalized(t1, t2, t3)


def _slack_mixed_mid(p, r, t):
    a = sharp_constant(SC.A_HIGH_P, p) if p > 2.0 else 1.0
    b = sharp_constant(SC.B_HIGH_P, p) if p > 2.0 else 2.0
    t1 = a * _sum_sq(r, t) ** (0.5 * p)
    t2 = b * r ** (0.5 * p) * _conj_profile(t, p)
    t3 = (1.0 + r * r) ** (0.5 * p)
    return _normalized(t1, t2, t3)


def _slack_mixed_high(p, r, t):
    a = sharp_constant(SC.A_HIGH_P, p)
    b = sharp_constant(SC.B_HIGH_P, p)
    t1 = a * _sum_sq(r, t) ** (0.5 * p)
    t2 = b * r ** (0.5 * p) * theta_lower_reflected(t - 0.5 * math.pi, p)
    t3 = (1.0 + r * r) ** (0.5 * p)
    return _normalized(t1, t2, t3)


def _slack_sum_by_mixed_high(p, r, t):
    c = sharp_constant(SC.C_HIGH_P, p)
    d = sharp_constant(SC.D_HIGH_P, p)
    t1 = c * (1.0 + r * r) ** (0.5 * p)
    t2 = d * r ** (0.5 * p) * theta_upper(t, p)
    t3 = _sum_sq(r, t) ** (0.5 * p)
    return _normalized(t1, t2, t3)


def _slack_sum_by_mixed_low(p, r, t):
    c = sharp_constant(SC.C_LOW_P, p)
    d = sharp_constant(SC.D_LOW_P, p)
    t1 = c * (1.0 + r * r) ** (0.5 * p)
    t2 = d * r ** (0.5 * p) * psi_angle(t, p)
    t3 = _sum_sq(r, t) ** (0.5 * p)
    return _normalized(t1, t2, t3)


SLACKS = {
    InequalityId.MIXED_BY_SUM_LOW: _slack_mixed_low,
    InequalityId.MIXED_BY_SUM_RADIAL: _slack_mixed_radial,
    InequalityId.MIXED_BY_SUM_MID: _slack_mixed_mid,
    InequalityId.MIXED_BY_SUM_HIGH: _slack_mixed_high,
    InequalityId.SUM_BY_MIXED_HIGH: _slack_sum_by_mixed_high,
    InequalityId.SUM_BY_MIXED_RADIAL: _slack_sum_by_mixed_high,
    InequalityId.SUM_BY_MIXED_LOW: _slack_sum_by_mixed_low,
}

# the equality loci with each repeated locus written out per tag: verified
# (LOCI) and as stated alongside each bound (STATED_LOCI)
TWO_PI = 2.0 * math.pi
EXT = (-TWO_PI, TWO_PI)
LOCI = {
    InequalityId.MIXED_BY_SUM_LOW: lambda p: [
        (1.0, t) for t in _pm_mod_2pi([math.pi / p], EXT)
    ],
    InequalityId.MIXED_BY_SUM_RADIAL: lambda p: [(1.0, math.pi / p), (1.0, -math.pi / p)],
    InequalityId.MIXED_BY_SUM_MID: lambda p: [
        (1.0, t) for t in _pm_mod_2pi([math.pi - math.pi / p, math.pi + math.pi / p], EXT)
    ],
    InequalityId.MIXED_BY_SUM_HIGH: lambda p: [
        (1.0, t) for t in _pm_mod_2pi([math.pi - math.pi / p, math.pi + math.pi / p], EXT)
    ],
    InequalityId.SUM_BY_MIXED_HIGH: lambda p: [
        (1.0, t) for t in _pm_mod_2pi([math.pi / p, TWO_PI - math.pi / p], EXT)
    ],
    InequalityId.SUM_BY_MIXED_LOW: lambda p: [
        (1.0, t) for t in _pm_mod_2pi([math.pi - math.pi / p, math.pi + math.pi / p], EXT)
    ],
    InequalityId.VERBITSKY_COS: lambda p: [(math.pi / (2.0 * p),), (-math.pi / (2.0 * p),)],
}
LOCI[InequalityId.SUM_BY_MIXED_RADIAL] = LOCI[InequalityId.SUM_BY_MIXED_HIGH]
STATED_LOCI = {
    InequalityId.MIXED_BY_SUM_LOW: lambda p: [
        (1.0, t) for v in (math.pi / p, math.pi / p + math.pi) for t in _pm_mod_2pi([v], EXT)
    ],
    InequalityId.MIXED_BY_SUM_RADIAL: lambda p: [(1.0, math.pi / p), (1.0, -math.pi / p)],
    InequalityId.MIXED_BY_SUM_MID: lambda p: [(1.0, math.pi / p), (1.0, -math.pi / p)],
    InequalityId.MIXED_BY_SUM_HIGH: lambda p: [
        (1.0, 0.5 * math.pi + math.pi / p),
        (1.0, -(0.5 * math.pi + math.pi / p)),
    ],
    InequalityId.SUM_BY_MIXED_HIGH: lambda p: [
        (1.0, t) for v in (math.pi / p, math.pi / p + math.pi) for t in _pm_mod_2pi([v], EXT)
    ],
    InequalityId.SUM_BY_MIXED_LOW: lambda p: [
        (1.0, math.pi - math.pi / p),
        (1.0, -(math.pi - math.pi / p)),
    ],
    InequalityId.VERBITSKY_COS: lambda p: [(math.pi / (2.0 * p),), (-math.pi / (2.0 * p),)],
}
STATED_LOCI[InequalityId.SUM_BY_MIXED_RADIAL] = STATED_LOCI[InequalityId.SUM_BY_MIXED_HIGH]

SCAN_COLUMNS = 32


def _scan_2d(slack_fn, p, r_vals, t_vals, tol):
    """Column blocks of 32 t-nodes against the whole r column, r outer."""
    r_col = r_vals[:, None]
    best = (math.inf, 0, 0)
    bad: list = []
    for j0 in range(0, len(t_vals), SCAN_COLUMNS):
        s = slack_fn(p, r_col, t_vals[None, j0 : j0 + SCAN_COLUMNS])
        k, v = _first_min(s)
        i, j = divmod(k, s.shape[1])
        best = min(best, (v, i, j0 + j))
        if v >= -tol and math.isfinite(v) and math.isfinite(s.max()):
            continue
        for bi, bj in np.argwhere(_violated(s, tol))[:MAX_VIOLATIONS]:
            bad.append((int(bi), j0 + int(bj), float(s[bi, bj])))
        bad.sort()
        del bad[MAX_VIOLATIONS:]
    min_slack, i, j = best
    violations = [((float(r_vals[bi]), float(t_vals[bj])), sv) for bi, bj, sv in bad]
    return min_slack, (float(r_vals[i]), float(t_vals[j])), violations


def _scan_1d(slack_fn, p, x_vals, tol):
    s = slack_fn(p, x_vals)
    j, v = _first_min(s)
    violations = [
        ((float(x_vals[k]),), float(s[k]))
        for k in np.flatnonzero(_violated(s, tol))[:MAX_VIOLATIONS]
    ]
    return v, (float(x_vals[j]),), violations


def verify_pointwise(tag, p, grid=None):
    """gridlab.verify_pointwise with one branch per arity."""
    tag = InequalityId(tag)
    info = _REGISTRY[tag]
    p = info.p_range.check(tag.value, p)
    grid = grid or GridSpec()
    acc = SlackAccumulator()

    if info.arity == 0:
        s = float(info.slack(p))
        acc.add((p,), s, bool(_violated(s, grid.tolerance)))
        return acc.report(id=tag.value, p=p, grid={"kind": "scalar"}, tolerance=grid.tolerance)

    if info.arity == 1:
        _, (lo, hi) = scan_ranges(tag)
        x_vals = _axis(lo, hi, grid.t_nodes)
        acc.min_slack, acc.argmin, acc.violations = _scan_1d(
            info.slack, p, x_vals, grid.tolerance
        )
        dx = (hi - lo) / (grid.t_nodes - 1)
        x_ref = np.linspace(
            max(lo, acc.argmin[0] - dx), min(hi, acc.argmin[0] + dx), 2 * grid.refine_factor + 1
        )
        refined = _scan_1d(info.slack, p, x_ref, grid.tolerance)
        scan_grid = {"t_nodes": grid.t_nodes, "t_range": [lo, hi]}
    else:
        (r_lo, r_hi), (t_lo, t_hi) = scan_ranges(tag)
        r_vals = _axis(r_lo, r_hi, grid.r_nodes, open_lo=(r_lo == 0.0))
        t_vals = _axis(t_lo, t_hi, grid.t_nodes)
        acc.min_slack, acc.argmin, acc.violations = _scan_2d(
            info.slack, p, r_vals, t_vals, grid.tolerance
        )
        r0, t0 = acc.argmin
        dr = (r_vals[-1] - r_vals[0]) / (grid.r_nodes - 1)
        dt = (t_hi - t_lo) / (grid.t_nodes - 1)
        r_ref = np.linspace(
            max(r_vals[0], r0 - dr), min(r_hi, r0 + dr), 2 * grid.refine_factor + 1
        )
        t_ref = np.linspace(max(t_lo, t0 - dt), min(t_hi, t0 + dt), 2 * grid.refine_factor + 1)
        refined = _scan_2d(info.slack, p, r_ref, t_ref, grid.tolerance)
        scan_grid = {
            "r_nodes": grid.r_nodes,
            "t_nodes": grid.t_nodes,
            "r_range": [float(r_vals[0]), float(r_hi)],
            "t_range": [t_lo, t_hi],
        }
    m2, a2, v2 = refined
    acc.add(a2, m2)
    for label, s in v2:
        acc.flag(label, s)
    return acc.report(id=tag.value, p=p, grid=scan_grid, tolerance=grid.tolerance)


def locate_equality(tag, p):
    """gridlab.locate_equality with one branch per arity; the two-variable
    branch returns the better of its last two passes."""
    tag = InequalityId(tag)
    info = _REGISTRY[tag]
    p = info.p_range.check(tag.value, p)
    if info.arity == 0:
        return (p,), float(info.slack(p))

    if info.arity == 1:
        lo, hi = info.t_range
        x = _axis(lo, hi, 1024)
        for _ in range(3):
            s = info.slack(p, x)
            j = int(np.argmin(s))
            dx = x[1] - x[0]
            x = np.linspace(max(lo, x[j] - 2 * dx), min(hi, x[j] + 2 * dx), 129)
        s = info.slack(p, x)
        j = int(np.argmin(s))
        return (float(x[j]),), float(s[j])

    r_lo, r_hi = info.r_range
    t_lo, t_hi = info.t_range
    r = _axis(r_lo, r_hi, 512, open_lo=(r_lo == 0.0))
    t = _axis(t_lo, t_hi, 1024)
    best = ((float(r[-1]), float(t[0])), math.inf)
    for _ in range(3):
        m, a, _v = _scan_2d(info.slack, p, r, t, math.inf)
        best = (a, m)
        dr, dt = r[1] - r[0], t[1] - t[0]
        r = np.linspace(max(r_lo, a[0] - 2 * dr), min(r_hi, a[0] + 2 * dr), 65)
        t = np.linspace(max(t_lo, a[1] - 2 * dt), min(t_hi, a[1] + 2 * dt), 65)
    m, a, _v = _scan_2d(info.slack, p, r, t, math.inf)
    if m < best[1]:
        best = (a, m)
    return best


def isoperimetric_chain(m, n, spec=None, rel_tol=1e-9):
    """theorems.isoperimetric_chain with each of its seven means from its own
    public call."""
    if n != int(n) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    n = int(n)
    m = m.normalized()
    g, h = m.g, m.h
    e_n = math.cos(math.pi / (2.0 * n))

    big_l = disk_power_mean(m, 2.0 * n, spec)
    disk_s = pair_disk_power_mean(g, h, float(n), spec)
    disk_re = product_disk_power_mean(g, h, float(n), real_part=True, spec=spec)
    disk_abs = product_disk_power_mean(g, h, float(n), real_part=False, spec=spec)
    circ_s = pair_circle_power_mean(g, h, 0.5 * n, 1.0, spec)
    circ_abs = product_circle_power_mean(g, h, 0.5 * n, False, 1.0, spec)
    circ_f = circle_power_mean(m, float(n), 1.0, spec)

    def binomial_sum(x_disk, y_disk):
        total = 0.0
        for k in range(n + 1):
            total += (
                math.comb(n, k)
                * x_disk ** (k / n)
                * (e_n**n * y_disk) ** ((n - k) / n)
            )
        return total

    holder = 0.0
    for k in range(n + 1):
        holder += math.comb(n, k) * disk_s ** (k / n) * disk_re ** ((n - k) / n)
    cosine = binomial_sum(disk_s, disk_abs)
    square = binomial_sum(circ_s**2, circ_abs**2)
    am_gm = (1.0 + e_n) ** n * circ_s**2
    final = (1.0 + e_n) ** n * (1.0 - math.cos(math.pi / n)) ** (-n) * circ_f**2

    chain = [
        ("L", big_l),
        ("holder", holder),
        ("cosine", cosine),
        ("square", square),
        ("am_gm", am_gm),
        ("final", final),
    ]
    for (name_lo, lo), (name_hi, hi) in zip(chain, chain[1:]):
        if lo > hi * (1.0 + rel_tol):
            raise ValueError(
                f"chain link broken: {name_lo} = {lo:.12g} > {name_hi} = {hi:.12g}"
            )
    return chain


_LOW_P = PRange(1.0, 2.0, False, True)
_HIGH_P = PRange(2.0, math.inf, False, False)
CHAIN_P_RANGES = {
    SC.A: RIESZ_P,
    SC.B: RIESZ_P,
    SC.HILBERT_NORM: RIESZ_P,
    SC.PICHORIDES: RIESZ_P,
    SC.VERBITSKY_CSC: RIESZ_P,
    SC.VERBITSKY_SEC: RIESZ_P,
    SC.A_LOW_P: _LOW_P,
    SC.B_LOW_P: _LOW_P,
    SC.A_HIGH_P: _HIGH_P,
    SC.B_HIGH_P: _HIGH_P,
    SC.C_HIGH_P: _HIGH_P,
    SC.D_HIGH_P: _HIGH_P,
    SC.C_LOW_P: PRange(1.0, 2.0, False, False),
    SC.D_LOW_P: PRange(1.0, 2.0, False, False),
    SC.VERBITSKY_A: _LOW_P,
    SC.VERBITSKY_B: _LOW_P,
    SC.ISOP: PRange(2, math.inf, True, False, integer=True),
}


def chain_sharp_constant(kind, p=None, n=None):
    """constants.sharp_constant as a range table and one branch per constant."""
    kind = SC(kind)
    if kind is SC.ISOP:
        return 0.5 / math.sin(math.pi / (4.0 * CHAIN_P_RANGES[kind].check(kind.value, n)))
    p = CHAIN_P_RANGES[kind].check(kind.value, p)
    half = math.pi / (2.0 * p)
    if kind is SC.A:
        return 1.0 / (math.sqrt(2.0) * math.sin(math.pi / (2.0 * conjugate_exponent_bar(p))))
    if kind is SC.B:
        return math.sqrt(2.0) * math.cos(math.pi / (2.0 * conjugate_exponent_bar(p)))
    if kind in (SC.HILBERT_NORM, SC.PICHORIDES):
        x = math.pi / (2.0 * conjugate_exponent_bar(p))
        return math.cos(x) / math.sin(x)
    if kind is SC.VERBITSKY_CSC:
        return 1.0 / math.sin(math.pi / (2.0 * conjugate_exponent_bar(p)))
    if kind is SC.VERBITSKY_SEC:
        return 1.0 / math.cos(math.pi / (2.0 * conjugate_exponent_bar(p)))
    if kind is SC.A_LOW_P:
        return (2.0 * math.cos(half) ** 2) ** (-0.5 * p)
    if kind is SC.B_LOW_P:
        return 2.0 ** (0.5 * p) * math.tan(half)
    if kind is SC.A_HIGH_P:
        return (2.0 * math.sin(half) ** 2) ** (-0.5 * p)
    if kind is SC.B_HIGH_P:
        return 2.0 ** (0.5 * p) / math.tan(half)
    if kind is SC.C_HIGH_P:
        return (math.sqrt(2.0) * math.cos(half)) ** p
    if kind is SC.D_HIGH_P:
        return 2.0**p * math.cos(half) ** (p - 1.0) * math.sin(half)
    if kind is SC.C_LOW_P:
        return (math.sqrt(2.0) * math.sin(half)) ** p
    if kind is SC.D_LOW_P:
        return 2.0**p * math.sin(half) ** (p - 1.0) * math.cos(half)
    if kind is SC.VERBITSKY_A:
        return math.cos(half) ** (-p)
    if kind is SC.VERBITSKY_B:
        return math.tan(half)
    raise AssertionError(f"unhandled constant {kind}")


_NORM_TAG = PRange(1.0, P_MAX, False, True)
CHAIN_TAGS = [tag for tag in TheoremId if tag is not TheoremId.MIXED_BY_HARDY_RELAXED]
CHAIN_TAG_RANGES = {tag: _NORM_TAG for tag in CHAIN_TAGS} | {
    TheoremId.LINE_PAIRS: RIESZ_P,
    TheoremId.BERGMAN_EMBEDDING: PRange(2, int(P_MAX / 2), True, True, integer=True),
    TheoremId.STREBEL: PRange(1.0, 1.0, True, True),
    TheoremId.PAIR_ISOPERIMETRIC: PRange(0.0, P_MAX / 2, False, True),
}


def chain_theorem_constant(tag, p=None, n=None):
    """theorems.theorem_constant as a range table and one branch per tag,
    for the tags of CHAIN_TAGS."""
    tag = TheoremId(tag)
    CHAIN_TAG_RANGES[tag].check(tag.value, n if tag is TheoremId.BERGMAN_EMBEDDING else p)
    if tag in (TheoremId.MIXED_BY_HARDY, TheoremId.BERGMAN_MIXED_BY_NORM):
        return chain_sharp_constant(SC.A, p)
    if tag is TheoremId.HARDY_BY_MIXED:
        return chain_sharp_constant(SC.B, p)
    if tag is TheoremId.BERGMAN_NORM_BY_MIXED:
        return chain_sharp_constant(SC.B, p)
    if tag in (TheoremId.CONJUGATE_NORM, TheoremId.LINE_PAIRS):
        return chain_sharp_constant(SC.HILBERT_NORM, p)
    if tag is TheoremId.ANALYTIC_BY_RE:
        return chain_sharp_constant(SC.VERBITSKY_CSC, p)
    if tag is TheoremId.IM_BY_ANALYTIC:
        return 1.0 / chain_sharp_constant(SC.VERBITSKY_SEC, p)
    if tag is TheoremId.BERGMAN_EMBEDDING:
        return chain_sharp_constant(SC.ISOP, n=n)
    if tag in (TheoremId.STREBEL, TheoremId.PAIR_ISOPERIMETRIC):
        return 1.0
    raise AssertionError(tag)

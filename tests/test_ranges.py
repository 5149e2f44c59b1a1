"""Exponent ranges: every public entry point that takes p (or n) rejects a
value below its range, above it, inf and NaN with the one range message."""

import math
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import rieszlab
from rieszlab.constants import (
    Minorant,
    PRange,
    SharpConstant as SC,
    conjugate_exponent_bar,
    minorant_F,
    minorant_G,
    minorant_value,
    psi_angle,
    sharp_constant,
    theta_lower,
    theta_lower_reflected,
    theta_upper,
)
from rieszlab.gridlab import (
    InequalityId,
    check_pluri_lines,
    check_submean,
    inequality_range,
    locate_equality,
    origin_circle_mean,
    verify_pointwise,
)
from rieszlab.hilbert import LineKind, LinePair, line_lp_norm
from rieszlab.maps import CalderonFamily, HarmonicMap, TaylorPoly
from rieszlab.quadrature import (
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
from rieszlab.theorems import (
    TheoremId,
    isoperimetric_chain,
    sharpness_probe,
    theorem_constant,
    verify_pair_isoperimetric,
    verify_theorem,
)

Z_MAP = HarmonicMap(TaylorPoly([0, 1]), TaylorPoly([0]))
Z, ONE = TaylorPoly([0, 1]), TaylorPoly([1.0])
FAMILY = CalderonFamily(gamma=0.3, p=1.5)

# (what the message names, call of the exponent, a value below the range, a
# value above it or None when the range reaches infinity); each also takes inf
# and NaN, so an integer range must test finiteness before int(), where inf
# raised OverflowError and NaN a message naming no field.  A case's id is what
# and the value, or a row's optional fifth field, the name of its call, where
# what alone would not tell two rows apart; no row's position enters an id.
CASES = [
    ("conjugate_exponent_bar", conjugate_exponent_bar, 1.0, None),
    ("A", lambda p: sharp_constant(SC.A, p), 1.0, None, "sharp_constant[A]"),
    ("A_LOW_P", lambda p: sharp_constant(SC.A_LOW_P, p), 1.0, 2.5, "sharp_constant[A_LOW_P]"),
    ("C_LOW_P", lambda p: sharp_constant(SC.C_LOW_P, p), 1.0, 2.0, "sharp_constant[C_LOW_P]"),
    ("C_HIGH_P", lambda p: sharp_constant(SC.C_HIGH_P, p), 2.0, None, "sharp_constant[C_HIGH_P]"),
    ("VERBITSKY_A", lambda p: sharp_constant(SC.VERBITSKY_A, p), 0.5, 2.1,
     "sharp_constant[VERBITSKY_A]"),
    ("ISOP", lambda n: sharp_constant(SC.ISOP, n=n), 1, None, "sharp_constant[ISOP]"),
    ("BERGMAN_EMBEDDING", lambda n: theorem_constant(TheoremId.BERGMAN_EMBEDDING, n=n), 1, 33,
     "theorem_constant[BERGMAN_EMBEDDING]"),
    ("theta_lower_reflected", lambda p: theta_lower_reflected(0.3, p), 3.9, None),
    ("theta_lower", lambda p: theta_lower(0.3, p), 2.0, None),
    ("theta_upper", lambda p: theta_upper(0.3, p), 2.0, None),
    ("psi_angle", lambda p: psi_angle(0.3, p), 1.0, None),
    ("F_PAIR", lambda p: minorant_F(0.5, 0.3j, p), 1.0, None, "minorant_F"),
    ("G_PAIR", lambda p: minorant_G(0.5, 0.3j, p), 1.0, None, "minorant_G"),
]
# every single-variable minorant through minorant_value
MINORANT_BOUNDS = {
    Minorant.RE_BRANCH: (1.0, 2.5),
    Minorant.PHI_MID: (1.5, 4.5),
    Minorant.PHI_HIGH: (3.5, None),
    Minorant.THETA_LOWER: (2.0, None),
    Minorant.THETA_UPPER: (2.0, None),
    Minorant.PSI: (1.0, None),
}
for mid, (below, above) in MINORANT_BOUNDS.items():
    call = partial(minorant_value, mid, 0.5j)
    CASES.append((mid.value, call, below, above, f"minorant_value[{mid.value}]"))
CASES += [
    ("PHI_MID", lambda p: origin_circle_mean(Minorant.PHI_MID, p, 1.0), 1.5, 4.5,
     "origin_circle_mean[PHI_MID]"),
    ("PHI_MID", lambda p: check_submean(Minorant.PHI_MID, p, centers=1, radii=1), 1.5, 4.5,
     "check_submean[PHI_MID]"),
    ("G_PAIR", lambda p: check_pluri_lines(Minorant.G_PAIR, p, n_lines=16, centers=1, radii=1),
     1.0, None, "check_pluri_lines[G_PAIR]"),
    ("MIXED_BY_SUM_MID", lambda p: locate_equality(InequalityId.MIXED_BY_SUM_MID, p), 1.5, 4.5,
     "locate_equality[MIXED_BY_SUM_MID]"),
    ("hardy_norm", lambda p: hardy_norm(Z_MAP, p), 0.5, 65.0),
    ("triple_norm", lambda p: triple_norm(Z_MAP, p), 0.5, 65.0),
    ("bergman_norm", lambda p: bergman_norm(Z_MAP, p), 0.5, 65.0),
    ("bergman_triple_norm", lambda p: bergman_triple_norm(Z_MAP, p), 0.5, 65.0),
    ("mp_radius", lambda p: mp_radius(Z_MAP, p, 0.5), 0.5, 65.0),
    ("circle_power_mean", lambda p: circle_power_mean(Z_MAP, p), 0.0, 65.0),
    ("disk_power_mean", lambda p: disk_power_mean(Z_MAP, p), -1.0, 65.0),
    ("pair_circle_power_mean", lambda p: pair_circle_power_mean(Z, ONE, p), 0.0, 65.0),
    ("pair_disk_power_mean", lambda p: pair_disk_power_mean(Z, ONE, p), 0.0, 65.0),
    ("product_circle_power_mean", lambda p: product_circle_power_mean(Z, ONE, p), 0.0, 65.0),
    ("product_disk_power_mean", lambda p: product_disk_power_mean(Z, ONE, p), 0.0, 65.0),
    ("calderon_power_mean", lambda p: calderon_power_mean(FAMILY, 1.0, 0.0, p), 1.0, None),
    ("calderon_norm", lambda p: calderon_norm(FAMILY, p), 1.0, None),
    ("CalderonFamily", lambda p: CalderonFamily(gamma=0.1, p=p), 1.0, None),
    ("line_lp_norm", lambda p: line_lp_norm(LinePair(LineKind.LORENTZIAN), p), 1.0, None),
    ("isoperimetric_chain", lambda n: isoperimetric_chain(Z_MAP, n), 1, 33),
    ("verify_pair_isoperimetric", lambda p: verify_pair_isoperimetric(Z, ONE, p), 0.0, 32.5),
    ("sharpness_probe", lambda p: sharpness_probe(TheoremId.CONJUGATE_NORM, p, [0.5]), 1.0, 2.0),
]
# every theorem tag, at the top of verify_theorem
THEOREM_BOUNDS = {
    TheoremId.MIXED_BY_HARDY_RELAXED: (1.0, 3.5),
    TheoremId.LINE_PAIRS: (1.0, None),
    TheoremId.BERGMAN_EMBEDDING: (1, 33),
    TheoremId.STREBEL: (0.5, 1.5),
    TheoremId.PAIR_ISOPERIMETRIC: (0.0, 32.5),
}
for tag in TheoremId:
    below, above = THEOREM_BOUNDS.get(tag, (1.0, 65.0))
    call = partial(verify_theorem, tag, samples=2)
    CASES.append((tag.value, call, below, above, f"verify_theorem[{tag.value}]"))
# every lemma tag, through its public range
for tag in InequalityId:
    lo, hi, lo_closed, hi_closed = inequality_range(tag)
    below, above = lo - 0.5 if lo_closed else lo, hi + 1.0 if hi_closed else hi
    call = partial(verify_pointwise, tag)
    CASES.append((tag.value, call, below, above, f"verify_pointwise[{tag.value}]"))
# every other theorem tag's constant, in the range verify_theorem checks
for tag in TheoremId:
    if tag is not TheoremId.BERGMAN_EMBEDDING:
        below, above = THEOREM_BOUNDS.get(tag, (1.0, 65.0))
        call = partial(theorem_constant, tag)
        CASES.append((tag.value, call, below, above, f"theorem_constant[{tag.value}]"))

PARAMS = [
    pytest.param(what, call, value, id=f"{name[0] if name else what}-{value}")
    for what, call, below, above, *name in CASES
    for value in dict.fromkeys(v for v in (below, above, math.inf, math.nan) if v is not None)
]


def test_range_case_ids_are_unique():
    ids = [param.id for param in PARAMS]
    assert len(set(ids)) == len(ids)
    assert "verify_theorem[MIXED_BY_HARDY]-65.0" in ids
    assert "theorem_constant[MIXED_BY_HARDY]-65.0" in ids


def assert_range_message(message: str, what: str, value) -> None:
    interval = r"[\[(]\S+, \S+[\])](, p != \S+)?"
    pattern = rf"{re.escape(what)} requires (p|an integer n) in {interval}, got {value}"
    assert re.fullmatch(pattern, message), message


@pytest.mark.parametrize("what, call, value", PARAMS)
def test_out_of_range_exponents_raise_the_one_message(what, call, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert_range_message(str(exc.value), what, value)


@pytest.mark.parametrize(
    "call, what, value",
    [
        (lambda n: sharp_constant(SC.ISOP, n=n), "ISOP", 2.5),
        (
            lambda n: verify_theorem(TheoremId.BERGMAN_EMBEDDING, n, samples=2),
            "BERGMAN_EMBEDDING",
            2.5,
        ),
        (lambda p: psi_angle(0.3, p), "psi_angle", 2.0),
        (lambda p: minorant_G(0.5, 0.3j, p), "G_PAIR", 2.0),
        (lambda p: sharp_constant(SC.A, p), "A", None),
    ],
)
def test_excluded_and_non_integer_values_raise_the_one_message(call, what, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert_range_message(str(exc.value), what, value)


def test_a_range_names_its_interval():
    assert str(PRange(1.0, math.inf, False, False)) == "(1.0, inf)"
    assert str(PRange(2, 32, True, True, integer=True)) == "[2, 32]"
    assert str(PRange(1.0, math.inf, False, False, excludes=2.0)) == "(1.0, inf), p != 2"
    # the ends are inclusive or not as stated, and the value comes back as a
    # float, or an int for an integer range
    assert PRange(1.0, 2.0, True, True).check("x", 1) == 1.0
    assert PRange(2, 32, True, True, integer=True).check("x", 32.0) == 32
    assert isinstance(PRange(2, 32, True, True, integer=True).check("x", 32.0), int)
    with pytest.raises(ValueError, match=r"^x requires p in \(1.0, 2.0\], got 1.0$"):
        PRange(1.0, 2.0, False, True).check("x", 1.0)


@pytest.mark.parametrize(
    "check",
    [
        lambda: check_submean(Minorant.PSI, 2.0),
        lambda: check_pluri_lines(Minorant.G_PAIR, 2.0),
        lambda: check_pluri_lines(Minorant.F_PAIR, math.nan),
    ],
)
def test_circle_checks_reject_p_before_any_draw(check, monkeypatch):
    def no_draw(seed):
        raise AssertionError("drew before checking p")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match="_PAIR requires p in|PSI requires p in"):
        check()


def test_range_checks_and_messages_are_stated_once():
    # the old per-module checkers and their phrasings are gone from the package
    for path in sorted(Path(rieszlab.__file__).parent.glob("*.py")):
        text = path.read_text()
        for phrase in ("is defined for p", "is valid for p", "must lie in [1", "must be > 1",
                       "regime"):
            assert phrase not in text, (path.name, phrase)

"""Grid configuration, verification report records, the slack accumulator
shared by the verifiers, and the one check of every count.

A count is any integer the caller sizes: a sample, series, grid, circle or
line count, a polynomial degree, a seed.  _check_integer is the one place
where a count is checked, as PRange.check is for an exponent.  It raises
ValueError with one of two messages:

    <name> must be an integer, got <value!r>     (a bool is not an integer)
    <name> must be >= <least>, got <value>

Every entry point checks its counts this way before it computes anything;
_check_draw checks the three counts of a sample battery.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field

__all__ = ["GridSpec", "VerificationReport", "SlackAccumulator", "MAX_VIOLATIONS"]

# violations kept per report; min_slack and argmin still cover every case
MAX_VIOLATIONS = 100


def _check_integer(name: str, value, least: int | None = None) -> int:
    """value as an int; ValueError naming the field unless value is an
    integer (a bool is not) and, when least is given, value >= least."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and number < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return number


def _check_draw(samples: int, degree: int, seed: int) -> None:
    """The counts of a sample battery: samples >= 1, degree >= 0, seed >= 0."""
    for name, value, least in (("samples", samples, 1), ("degree", degree, 0), ("seed", seed, 0)):
        _check_integer(name, value, least)


@dataclass(frozen=True)
class GridSpec:
    """Scan resolution for pointwise inequality verification.

    r_nodes x t_nodes grid over the tag's domain, one local refinement pass
    that zooms refine_factor-fold into the cell neighborhood of the minimum,
    and the slack acceptance tolerance (min_slack >= -tolerance passes).
    """

    r_nodes: int = 2000
    t_nodes: int = 4000
    refine_factor: int = 16
    tolerance: float = 1e-9

    def __post_init__(self):
        for name, least in (("r_nodes", 16), ("t_nodes", 16), ("refine_factor", 2)):
            _check_integer(name, getattr(self, name), least)
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")


@dataclass
class VerificationReport:
    """Outcome of a grid scan, sample battery, or theorem check.

    min_slack is the minimum slack over the check's cases and argmin the
    first case that reaches it; violations lists the first MAX_VIOLATIONS
    (100) cases whose slack is below the check's threshold, each as
    (params, slack), and the check passes when it is empty.  The threshold
    is mostly -tolerance; a few exact checks flag any nonzero error or any
    slack <= 0.  Fields that do not apply to a given check stay None and are
    omitted from the serialized form (never emitted as null).
    """

    id: str
    p: float | int | None
    min_slack: float
    argmin: tuple | None = None
    grid: dict | None = None
    violations: list = field(default_factory=list)
    constant: float | None = None
    ratio_max: float | None = None
    seed: int | None = None
    tolerance: float = 1e-9
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "p": self.p,
            "grid": self.grid,
            "min_slack": self.min_slack,
            "argmin": None if self.argmin is None else list(self.argmin),
            "violations": [{"params": list(c), "slack": s} for c, s in self.violations],
            "constant": self.constant,
            "ratio_max": self.ratio_max,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "elapsed_ms": self.elapsed_ms,
            "passed": self.passed,
        }
        return {k: v for k, v in out.items() if v is not None}

    # flat projection used by the CSV output
    CSV_FIELDS = (
        "id",
        "p",
        "min_slack",
        "argmin",
        "n_violations",
        "constant",
        "ratio_max",
        "seed",
        "tolerance",
        "elapsed_ms",
        "passed",
    )

    def to_csv_row(self) -> list:
        """to_dict() projected on CSV_FIELDS: argmin joined by ';', the
        violation count, and '' for each omitted field."""
        out = self.to_dict()
        out["argmin"] = ";".join(repr(x) for x in out.get("argmin", ()))
        out["n_violations"] = len(self.violations)
        return [out.get(name, "") for name in self.CSV_FIELDS]


class SlackAccumulator:
    """The worst slack of one check, where it occurs, and its violations.

    add() keeps the smallest slack seen and the first case that reaches it
    (strict <, so a tie keeps the earlier case) and records the case as a
    violation when the caller's predicate says so; flag() records a violation
    without moving the minimum.  At most MAX_VIOLATIONS are kept.  The start
    values stand when no smaller slack is added: error-style checks, which
    report minus their largest error, start from -0.0 with argmin None.
    The clock starts at construction and report() stamps elapsed_ms.
    """

    def __init__(self, min_slack: float = math.inf, argmin: tuple | None = None):
        self.min_slack = min_slack
        self.argmin = argmin
        self.violations: list = []
        self._start = time.perf_counter()

    def add(self, label: tuple, slack: float, violated: bool = False) -> None:
        if slack < self.min_slack:
            self.min_slack = slack
            self.argmin = label
        if violated:
            self.flag(label, slack)

    def flag(self, label: tuple, slack: float) -> None:
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append((label, slack))

    def report(self, **fields) -> VerificationReport:
        """The accumulated report; fields fill the remaining report fields."""
        return VerificationReport(
            min_slack=self.min_slack,
            argmin=self.argmin,
            violations=self.violations,
            elapsed_ms=(time.perf_counter() - self._start) * 1e3,
            **fields,
        )

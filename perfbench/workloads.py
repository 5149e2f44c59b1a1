"""Workload plans: which public rieszlab functions a workload calls, with
which arguments, derived from the benchmark seed.

A plan is plain data (a tuple of Check records), so two plans built from one
seed compare equal and the program only ever receives the generated inputs.
Functions are looked up on their module at call time, which is what lets the
traced run substitute wrappers without rebuilding the plan.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from enum import Enum

from rieszlab.battery import THEOREM_P_VALUES
from rieszlab.reporting import GridSpec
from rieszlab.theorems import TheoremId

WORKLOADS = ("hardy", "bergman", "pointwise")

# Every battery draws consecutive per-sample seeds from its base, so the bases
# of consecutive benchmark seeds are spaced wider than the largest battery,
# and distinct seeds draw distinct samples.  Seed 0 reproduces the per-stage
# seeds of `battery.full_suite(seed=0)`.
SEED_STRIDE = 100_003

HARDY_TAGS = (
    TheoremId.MIXED_BY_HARDY,
    TheoremId.HARDY_BY_MIXED,
    TheoremId.ANALYTIC_BY_RE,
    TheoremId.IM_BY_ANALYTIC,
)
BERGMAN_TAGS = (TheoremId.BERGMAN_MIXED_BY_NORM, TheoremId.BERGMAN_NORM_BY_MIXED)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the three workloads; FULL is what the benchmark runs."""

    hardy_samples: int = 1000
    parseval_samples: int = 100
    singular_series: int = 10
    bergman_samples: int = 100
    iso_samples: int = 100
    grid: GridSpec = GridSpec()
    submean_centers: int = 64
    submean_radii: int = 16
    pluri_lines: int = 64


FULL = Sizes()
# small enough for the self-tests to run a workload in a second or two
TINY = Sizes(
    hardy_samples=3,
    parseval_samples=3,
    singular_series=1,
    bergman_samples=2,
    iso_samples=2,
    grid=GridSpec(r_nodes=32, t_nodes=64),
    submean_centers=2,
    submean_radii=2,
    pluri_lines=16,
)


@dataclass(frozen=True)
class Check:
    """One call of a public function that returns one report or a list.

    A check is either a `battery` stage function, called once as
    `battery.full_suite` calls it, or one `verify_theorem` call of the
    `theorem_reports` stage, whose tags the hardy and bergman workloads share.
    """

    module: str
    func: str
    args: tuple = ()
    kwargs: tuple = ()  # sorted (name, value) pairs, so the record stays hashable

    @property
    def key(self) -> str:
        """Identifies the check within its workload (stable across seeds)."""
        parts = [self.module, self.func]
        if self.args and isinstance(self.args[0], Enum):
            parts += [self.args[0].value, str(self.args[1])]
        return ":".join(parts)

    def run(self) -> list:
        fn = getattr(importlib.import_module(f"rieszlab.{self.module}"), self.func)
        out = fn(*self.args, **dict(self.kwargs))
        return out if isinstance(out, list) else [out]


def _battery(stage: str, **kwargs) -> Check:
    return Check("battery", stage, (), tuple(sorted(kwargs.items())))


def _theorem(tag: TheoremId, p: float, *args) -> Check:
    return Check("theorems", "verify_theorem", (tag, p, *args))


def stage_seed(seed: int, offset: int) -> int:
    """Base seed of one battery stage; offsets are those of full_suite."""
    return seed * SEED_STRIDE + offset


def build_plan(workload: str, seed: int, sizes: Sizes = FULL) -> tuple[Check, ...]:
    """The checks of one workload, in the order of full_suite."""
    if workload == "hardy":
        n = sizes.hardy_samples
        return (
            _battery("constant_identity_report"),
            _battery(
                "parseval_bridge_report", samples=sizes.parseval_samples, seed=stage_seed(seed, 11)
            ),
            _battery("hilbert_multiplier_report", seed=stage_seed(seed, 23)),
            _battery(
                "hilbert_singular_report",
                n_series=sizes.singular_series,
                seed=stage_seed(seed, 37),
            ),
            _battery("conjugate_bound_reports", samples=n, degree=8, seed=stage_seed(seed, 41)),
            _battery("calderon_probe_report"),
            _battery("calderon_monotone_report"),
            *(
                _theorem(tag, p, n, 8, stage_seed(seed, 71))
                for tag in HARDY_TAGS
                for p in THEOREM_P_VALUES
            ),
            *(_theorem(TheoremId.LINE_PAIRS, p) for p in THEOREM_P_VALUES),
            _battery("typo_adjudication_report"),
        )
    if workload == "bergman":
        return (
            *(
                _theorem(tag, p, sizes.bergman_samples, 8, stage_seed(seed, 71))
                for tag in BERGMAN_TAGS
                for p in THEOREM_P_VALUES
            ),
            _battery(
                "isoperimetric_reports",
                samples=sizes.iso_samples,
                degree=4,
                seed=stage_seed(seed, 83),
            ),
        )
    if workload == "pointwise":
        return (
            _battery("lemma_grid_reports", grid=sizes.grid),
            _battery("equality_location_reports", grid=sizes.grid),
            _battery("stated_locus_reports"),
            _battery(
                "submean_reports",
                centers=sizes.submean_centers,
                radii=sizes.submean_radii,
                angles=1024,
                seed=stage_seed(seed, 53),
            ),
            _battery("pluri_line_reports", n_lines=sizes.pluri_lines, seed=stage_seed(seed, 67)),
        )
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")

"""Benchmark worker: one single-threaded process that imports rieszlab from
the checkout, warms it up, runs one workload and gates every report.

run.py starts it with BLAS/OpenMP thread counts set to 1 and reads its
standard output: a `ready` line once set-up is done, then one JSON result
line.  With --setup-only it exits after the `ready` line.

To rewrite the stored references after a change that alters reports on
purpose:  PYTHONPATH=src python3 perfbench/worker.py --write-reference
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from run import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"
DEFAULT_SEED = 0
REL_TOL = 1e-13
ABS_TOL = 1e-15  # roundoff floor for values that are themselves ~0 (slacks at equality)


def import_rieszlab():
    """Import the package from this checkout's src/, never from elsewhere."""
    import rieszlab

    src = (ROOT / "src").resolve()
    if src not in Path(rieszlab.__file__).resolve().parents:
        raise ImportError(f"rieszlab was imported from {rieszlab.__file__}, not from {src}")
    return rieszlab


def warm_up() -> None:
    """First calls that fill the Gauss-Legendre caches and FFT plans, so that
    no workload pays for them."""
    from rieszlab import gridlab, quadrature
    from rieszlab.constants import Minorant
    from rieszlab.maps import CalderonFamily, random_harmonic
    from rieszlab.reporting import GridSpec

    m = random_harmonic(8, 0)
    quadrature.hardy_norm(m, 1.5)
    quadrature.bergman_norm(m, 1.5)
    quadrature.calderon_norm(CalderonFamily(gamma=0.5, p=1.5))
    tag = next(iter(gridlab.InequalityId))
    gridlab.verify_pointwise(tag, gridlab.default_p_values(tag)[0], GridSpec(16, 16))
    gridlab.check_submean(Minorant.PSI, 3.0, centers=1, radii=1, angles=256)


def env_record() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ------------------------------ correctness gate ------------------------------


def _jsonable(obj):
    if hasattr(obj, "item"):  # numpy scalar
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def payload(report) -> dict:
    """The deterministic part of a report: to_dict() without elapsed_ms."""
    data = {k: v for k, v in report.to_dict().items() if k != "elapsed_ms"}
    return json.loads(json.dumps(data, default=_jsonable))


def drift(ref, got, where: str = "") -> str | None:
    """First difference beyond roundoff between two payloads, or None."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return f"{where}: keys {sorted(ref)} != {sorted(got)}"
        for k in ref:
            found = drift(ref[k], got[k], f"{where}.{k}")
            if found:
                return found
        return None
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return f"{where}: length {len(ref)} != {len(got)}"
        for i, (a, b) in enumerate(zip(ref, got)):
            found = drift(a, b, f"{where}[{i}]")
            if found:
                return found
        return None
    numbers = (int, float)  # by exact type: a verdict (bool) must match exactly
    if type(ref) in numbers and type(got) in numbers:
        if ref == got or abs(ref - got) <= REL_TOL * max(abs(ref), abs(got)) + ABS_TOL:
            return None
    elif ref == got:
        return None
    return f"{where}: {ref!r} != {got!r}"


def load_reference(workload: str) -> dict[str, list]:
    with open(REFERENCE_DIR / f"{workload}.json") as f:
        return json.load(f)


def gate(check, outcome, expected: list, compare: bool) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one check's reports.

    A check that raised fails every report it should have produced; a report
    fails when its verdict is FAIL or, with compare, when its payload drifts
    from the reference beyond roundoff.  Missing or extra reports fail too.
    """
    if isinstance(outcome, BaseException):
        n = max(len(expected), 1)
        return n, n, [f"{check.key}: raised {outcome!r}"]
    attempted = max(len(outcome), len(expected))
    problems = []
    if len(outcome) != len(expected):
        problems.append(f"{check.key}: {len(outcome)} reports, reference has {len(expected)}")
    failed = abs(len(outcome) - len(expected))
    for i, report in enumerate(outcome):
        bad = None if report.passed else f"{check.key}: {report.id} p={report.p} FAIL"
        if bad is None and compare and i < len(expected):
            found = drift(expected[i], payload(report))
            bad = f"{check.key}[{i}] drifted from the reference{found}" if found else None
        if bad:
            failed += 1
            problems.append(bad)
    return attempted, failed, problems


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def run_pass(plan, reference: dict, compare: bool, tally: Tally) -> float:
    """Run every check once, gate its reports after the timed region, and
    return the wall seconds the checks took."""
    outcomes = []
    start = time.perf_counter()
    for check in plan:
        try:
            outcomes.append(check.run())
        except Exception as exc:  # a failing check is counted, the run goes on
            outcomes.append(exc)
    seconds = time.perf_counter() - start
    for check, outcome in zip(plan, outcomes):
        if isinstance(outcome, Exception):
            traceback.print_exception(outcome)
        attempted, failed, problems = gate(check, outcome, reference.get(check.key, []), compare)
        tally.attempted += attempted
        tally.failed += failed
        tally.problems += problems
    return seconds


# ---------------------------------- modes ----------------------------------


def measure(
    plan, reference: dict, compare: bool, seconds: float, tally: Tally
) -> tuple[dict, dict]:
    """Repeat whole passes while the next one still fits in `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(plan, reference, compare, tally))
        if time.perf_counter() - start + statistics.median(passes) > seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": statistics.median(passes),
        "peak_rss_mb": peak_kb / 1024.0,
        "pass_ratio": 1.0 - tally.failed / max(tally.attempted, 1),
    }, {"passes": len(passes), "fastest_pass_s": min(passes)}


def traced(
    workload: str, plan, reference: dict, compare: bool, tally: Tally, env: dict
) -> tuple[dict, dict]:
    """Per-layer values of a traced pass.  Each check runs untraced and then
    traced, back to back, so that both runs of a check meet about the same
    machine speed and their difference is the tracing overhead."""
    from metrics import per_layer_values
    from tracing import Tracer, instrument
    from workloads import FULL

    tracer = Tracer()
    untraced_s = traced_s = 0.0
    for check in plan:
        untraced_s += run_pass((check,), reference, compare, tally)
        with instrument(tracer):
            traced_s += run_pass((check,), reference, compare, tally)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"trace-{workload}.npz", env)
    values = per_layer_values(tracer, FULL.grid.refine_factor, traced_s - untraced_s)
    return values, {"untraced_s": untraced_s, "traced_s": traced_s}


def write_reference() -> None:
    from workloads import WORKLOADS, build_plan

    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        ref = {}
        for check in build_plan(workload, DEFAULT_SEED):
            reports = check.run()
            failing = [r.id for r in reports if not r.passed]
            if failing:
                raise SystemExit(f"{check.key}: FAIL {failing}; no reference written")
            ref[check.key] = [payload(r) for r in reports]
        with open(REFERENCE_DIR / f"{workload}.json", "w") as f:
            json.dump(ref, f, indent=1)
            f.write("\n")
        print(f"wrote {workload}: {sum(map(len, ref.values()))} reports")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_rieszlab()
    if args.write_reference:
        write_reference()
        return 0
    warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    from workloads import build_plan

    env = env_record()
    plan = build_plan(args.workload, args.seed)
    reference = load_reference(args.workload)
    compare = args.seed == DEFAULT_SEED
    tally = Tally()
    if args.trace:
        metrics, extra = traced(args.workload, plan, reference, compare, tally, env)
    else:
        metrics, extra = measure(plan, reference, compare, args.seconds, tally)
    for problem in tally.problems[:20]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "env": env,
        "extra": extra,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

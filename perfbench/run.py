"""rieszlab benchmark: one workload per run, every verdict checked.

    python3 perfbench/run.py --workload hardy --seed 0 --seconds 36 --trace 0

Runs from the root of a checkout.  Each run starts a worker process
(perfbench/worker.py) with BLAS/OpenMP threads pinned to 1, which imports
rieszlab from the checkout's src/, so all load comes from one
single-threaded process.  --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics of a traced pass.  The last line of standard output is
the JSON result; a failing set-up or worker exits non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-ups per run: the measuring worker's, and four set-up-only workers, half
# before it and half after, so that they sample the machine's speed at both
# ends of the run
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def load_benchmark() -> dict:
    """BENCHMARK.json: the workload names and the metrics each mode reports."""
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Start a worker; return (seconds from start to its `ready` line, the
    lines it printed after that line).  The worker is always waited for."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=worker_env(),
        cwd=ROOT,
    )
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read().splitlines()
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return setup_s, rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    bench = load_benchmark()
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "rieszlab" / "__init__.py").is_file():
        print(f"no rieszlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    extra_setups = 0 if args.trace else SETUP_SAMPLES - 1

    def setup_only(count: int) -> list[float]:
        return [run_worker(["--setup-only"], deadline)[0] for _ in range(count)]

    try:
        setups = setup_only(extra_setups // 2)
        setup_s, lines = run_worker(
            [
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            deadline,
        )
        setups += [setup_s, *setup_only(extra_setups - extra_setups // 2)]
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    if not lines:
        print("worker printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    metrics = dict(result["metrics"])
    extra = result["extra"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    spec = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if metrics.keys() != units.keys():
        print(f"metric set mismatch: {sorted(metrics.keys() ^ units.keys())}", file=sys.stderr)
        return 1

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"# env {json.dumps(result['env'])}")
    print(f"# {' '.join(f'{k}={v:.6g}' for k, v in extra.items())}")
    print(f"# checks attempted={result['attempted']} failed={result['failed']}")
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:>16.6g} {unit}")
    out = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

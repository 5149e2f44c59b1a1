"""Count the polynomial transforms that each stage of the suite runs.

    PYTHONPATH=src python3 tools/transforms.py [--json]

Runs battery.full_suite(seed=0) and, for each of its stages, prints the
calls of maps._boundary_rows (the one transform behind every polynomial
trace), the factor rows those calls transformed, split into circle rows and
disk rows, the trace points they computed, and the stage's in-process
seconds, then the totals.  A circle call transforms a block of coefficient
rows at one radius; a disk call (one that writes into a trace buffer,
out=) transforms one row at every radius of its rule, and counts as one
disk row.  The counts are deterministic; the seconds are not.  With --json
the same numbers are printed as one JSON object.  The transforms are
counted where quadrature and maps call _boundary_rows, so pointing
PYTHONPATH at another checkout's src/ counts that tree.
"""

import argparse
import functools
import json
import sys

from rieszlab import battery, maps, quadrature

KEYS = ("calls", "circle_rows", "disk_rows", "points")


def count_transforms() -> list[dict]:
    """One dict per stage of full_suite(seed=0), in suite order: stage,
    calls, circle_rows, disk_rows, points and seconds."""
    transform = maps._boundary_rows
    stage_names = [name for name in battery.__all__ if name != "full_suite"]
    stages = {name: getattr(battery, name) for name in stage_names}
    seen: dict[str, list] = {name: [] for name in stage_names}
    current = [None]

    def counted(coeffs, n, out=None):
        values = transform(coeffs, n, out=out)
        rows = 1 if out is not None or values.ndim == 1 else values.shape[0]
        # list.append is atomic, so the disk rule's helper threads may call it
        seen[current[0]].append((rows, out is not None, values.size))
        return values

    def entered(name, fn):
        @functools.wraps(fn)
        def stage(*args, **kwargs):
            current[0] = name
            return fn(*args, **kwargs)

        return stage

    timings: dict[str, float] = {}
    maps._boundary_rows = quadrature._boundary_rows = counted
    for name, fn in stages.items():
        setattr(battery, name, entered(name, fn))
    try:
        battery.full_suite(seed=0, timings=timings)
    finally:
        maps._boundary_rows = quadrature._boundary_rows = transform
        for name, fn in stages.items():
            setattr(battery, name, fn)
    out = []
    for name, seconds in timings.items():
        calls = seen[name]
        out.append(
            {
                "stage": name,
                "calls": len(calls),
                "circle_rows": sum(rows for rows, disk, _ in calls if not disk),
                "disk_rows": sum(rows for rows, disk, _ in calls if disk),
                "points": sum(points for _, _, points in calls),
                "seconds": round(seconds, 4),
            }
        )
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", action="store_true", help="print one JSON object")
    args = ap.parse_args(argv[1:])
    stages = count_transforms()
    totals = {key: sum(stage[key] for stage in stages) for key in KEYS}
    totals["seconds"] = round(sum(stage["seconds"] for stage in stages), 4)
    if args.json:
        print(json.dumps({"stages": stages, **totals}, indent=1))
        return 0
    print(f"{'stage':28s} {'calls':>6s} {'circle rows':>12s} {'disk rows':>10s} {'points':>11s}")
    for row in stages + [{"stage": "total", **totals}]:
        print(
            f"{row['stage']:28s} {row['calls']:6d} {row['circle_rows']:12d} {row['disk_rows']:10d}"
            f" {row['points']:11d}  {row['seconds']:.4f} s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Count the grid nodes that the lemma-grid scans evaluate.

    PYTHONPATH=src python3 tools/scan_blocks.py [--json]

Runs battery.lemma_grid_reports at the default grid and, for each case it
scans on the (r, t) grid (a two-variable tag at one default p), prints the
nodes that its scans (the full grid and the refinement pass) evaluated, the
nodes those scans hold, the jobs they handed to maps._share_blocks (the probe
block and the rectangles), and the in-process seconds of the case's
verify_pointwise call, then the totals.  The counts are deterministic; the
seconds are not.  With --json the same numbers are printed as one JSON
object.  The nodes are counted where the form is evaluated and the jobs
where they are handed out, so pointing PYTHONPATH at another checkout's src/
counts that tree, whatever it skips.
"""

import argparse
import json
import sys
import time

from rieszlab import battery, gridlab

KEYS = ("evaluated", "held", "jobs")


def count_nodes() -> list[dict]:
    """One dict per (r, t) case of lemma_grid_reports: tag, p, evaluated,
    held, jobs and seconds."""
    counts, cases = {key: [] for key in KEYS}, []
    evaluate, share, scan_2d = gridlab._Form._evaluate, gridlab._share_blocks, gridlab._scan_2d
    verify = battery.verify_pointwise

    def counted_evaluate(self, *args):
        s = evaluate(self, *args)
        counts["evaluated"].append(s.size)  # list.append is atomic, so helper threads may call it
        return s

    def counted_share(starts, work, scratch=None):
        counts["jobs"].append(len(starts))
        return share(starts, work, scratch)

    def counted_scan(slack_fn, p, r_vals, t_vals, tol):
        counts["held"].append(len(r_vals) * len(t_vals))
        gridlab._Form._evaluate, gridlab._share_blocks = counted_evaluate, counted_share
        try:
            return scan_2d(slack_fn, p, r_vals, t_vals, tol)
        finally:
            gridlab._Form._evaluate, gridlab._share_blocks = evaluate, share

    def timed(tag, p, grid=None):
        for part in counts.values():
            part.clear()
        start = time.perf_counter()
        report = verify(tag, p, grid)
        seconds = time.perf_counter() - start
        if counts["held"]:
            case = {key: sum(counts[key]) for key in KEYS}
            cases.append({"tag": tag.value, "p": p, **case, "seconds": round(seconds, 4)})
        return report

    gridlab._scan_2d, battery.verify_pointwise = counted_scan, timed
    try:
        battery.lemma_grid_reports()
    finally:
        gridlab._scan_2d, battery.verify_pointwise = scan_2d, verify
    return cases


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", action="store_true", help="print one JSON object")
    args = ap.parse_args(argv[1:])
    cases = count_nodes()
    totals = {key: sum(case[key] for case in cases) for key in KEYS}
    totals["seconds"] = round(sum(case["seconds"] for case in cases), 4)
    if args.json:
        print(json.dumps({"cases": cases, **totals}, indent=1))
        return 0
    for case in cases:
        print(
            f"{case['tag']:22s} p={case['p']:<9.4g} {case['evaluated']:9d} / {case['held']:9d}"
            f" nodes {case['jobs']:4d} jobs  {case['seconds']:.4f} s"
        )
    share = totals["evaluated"] / totals["held"]
    print(
        f"{'total':32s} {totals['evaluated']:9d} / {totals['held']:9d} nodes {totals['jobs']:4d}"
        f" jobs  {totals['seconds']:.4f} s  ({100 * share:.1f} % evaluated)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

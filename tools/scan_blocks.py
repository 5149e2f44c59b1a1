"""Count the blocks that the lemma-grid scans evaluate.

    PYTHONPATH=src python3 tools/scan_blocks.py [--json]

Runs battery.lemma_grid_reports at the default grid and, for each case it
scans on the (r, t) grid (a two-variable tag at one default p), prints the
blocks of SCAN_COLUMNS t-nodes that its scans (the full grid and the
refinement pass) evaluated, the blocks those scans hold, and the in-process
seconds of the case's verify_pointwise call, then the totals.  The counts are
deterministic; the seconds are not.  With --json the same numbers are printed
as one JSON object.  Point PYTHONPATH at another checkout's src/ to count
that tree.
"""

import argparse
import json
import sys
import time

from rieszlab import battery, gridlab


def count_blocks() -> list[dict]:
    """One dict per (r, t) case of lemma_grid_reports: tag, p, evaluated,
    total and seconds."""
    folds, totals, cases = [], [], []
    fold_block, scan_2d, verify = gridlab._fold_block, gridlab._scan_2d, battery.verify_pointwise

    def counted_fold(j0, s, tol):
        folds.append(j0)  # list.append is atomic, so helper threads may call it
        return fold_block(j0, s, tol)

    def counted_scan(slack_fn, p, r_vals, t_vals, tol):
        totals.append(-(-len(t_vals) // gridlab.SCAN_COLUMNS))
        gridlab._fold_block = counted_fold
        try:
            return scan_2d(slack_fn, p, r_vals, t_vals, tol)
        finally:
            gridlab._fold_block = fold_block

    def timed(tag, p, grid=None):
        folds.clear()
        totals.clear()
        start = time.perf_counter()
        report = verify(tag, p, grid)
        seconds = time.perf_counter() - start
        if totals:
            cases.append(
                {"tag": tag.value, "p": p, "evaluated": len(folds), "total": sum(totals),
                 "seconds": round(seconds, 4)}
            )
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
    cases = count_blocks()
    totals = {key: sum(case[key] for case in cases) for key in ("evaluated", "total")}
    totals["seconds"] = round(sum(case["seconds"] for case in cases), 4)
    if args.json:
        print(json.dumps({"cases": cases, **totals}, indent=1))
        return 0
    for case in cases:
        print(
            f"{case['tag']:22s} p={case['p']:<9.4g} {case['evaluated']:5d} / {case['total']:5d}"
            f"  {case['seconds']:.4f} s"
        )
    share = totals["evaluated"] / totals["total"]
    print(
        f"{'total':32s} {totals['evaluated']:5d} / {totals['total']:5d}"
        f"  {totals['seconds']:.4f} s  ({100 * share:.1f} % evaluated)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Command-line driver: constants, norms, transforms, and the verifiers.

Every command writes through one writer, _write: JSON (sorted keys, indent
2, trailing newline), CSV (a header row, then rows) or human lines, chosen by
--format; hilbert writes a map, so it writes JSON only.  Map files are read
by _load_map alone and --output files are opened by _output alone.

Exit codes: 0 when every asserted bound passes, 1 on a verification failure
(the violating parameters are printed), 2 on bad arguments, malformed input
files, an input file that cannot be read or an output file that cannot be
written.  Handlers raise ValueError on bad input (file errors included), and
only run() turns it into "error: <message>" on stderr and exit code 2.
Seeded reports carry their seed, and every report its effective parameters;
with a fixed seed the JSON output is reproducible byte for byte except for
the elapsed_ms fields.  suite --timings prints each stage's wall seconds to
stderr after the reports, outside the deterministic stream.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

from . import battery
from .constants import Minorant, SharpConstant, sharp_constant
from .gridlab import InequalityId, check_pluri_lines, check_submean, verify_pointwise
from .hilbert import conjugate_map
from .maps import map_from_dict, map_to_dict
from .quadrature import bergman_norm, bergman_triple_norm, hardy_norm, mp_radius, triple_norm
from .reporting import GridSpec, VerificationReport
from .theorems import REL_TOL, TheoremId, sharpness_probe, verify_theorem

__all__ = ["main", "run"]


def _write(fmt: str, stream, payload, header, rows, lines) -> None:
    """The one writer: payload as JSON, header then rows as CSV, or the
    human lines (each ending in a newline)."""
    if fmt == "json":
        json.dump(payload, stream, sort_keys=True, indent=2)
        stream.write("\n")
    elif fmt == "csv":
        writer = csv.writer(stream)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        stream.writelines(lines)


def _report_lines(reports: list[VerificationReport]):
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        p_part = "" if r.p is None else f" p={r.p:g}"
        extra = ""
        if r.constant is not None:
            extra += f" constant={r.constant:.6g}"
        if r.ratio_max is not None:
            extra += f" ratio_max={r.ratio_max:.6g}"
        yield f"[{status}] {r.id}{p_part} min_slack={r.min_slack:.3e} argmin={r.argmin}{extra}\n"
        for params, slack in r.violations[:5]:
            yield f"    violation at {params}: slack={slack:.3e}\n"


def _emit_reports(reports: list[VerificationReport], fmt: str, stream) -> int:
    """Write the reports; the exit code is 0 when all pass, else 1."""
    _write(fmt, stream, [r.to_dict() for r in reports], VerificationReport.CSV_FIELDS,
           (r.to_csv_row() for r in reports), _report_lines(reports))
    return 0 if all(r.passed for r in reports) else 1


def _member(enum, value: str, what: str):
    """enum(value), or a ValueError that lists the choices."""
    try:
        return enum(value)
    except ValueError:
        raise ValueError(
            f"unknown {what} id {value!r}; choose from " + ", ".join(e.value for e in enum)
        ) from None


def _load_map(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"input file not found: {path}") from None
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text (byte {exc.start})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno})"
        ) from None
    try:
        return map_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@contextlib.contextmanager
def _output(path: str | None, stream):
    """The file at path, opened for writing, or stream when path is None."""
    if not path:
        yield stream
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _cmd_constants(args, stream) -> int:
    rows = []
    for kind in SharpConstant:
        if kind is SharpConstant.ISOP or args.p is None:
            continue
        try:
            rows.append((kind.value, sharp_constant(kind, p=args.p)))
        except ValueError:
            continue
    if args.n is not None:
        rows.append(("ISOP", sharp_constant(SharpConstant.ISOP, n=args.n)))
    if not rows:
        raise ValueError("provide --p (and/or --n) inside a validity range")
    _write(args.format, stream, {"p": args.p, "n": args.n, "constants": dict(rows)},
           ("constant", "value"), rows, (f"{k:>14s} = {v:.6f}\n" for k, v in rows))
    return 0


def _cmd_norms(args, stream) -> int:
    m = _load_map(args.input)
    norms = {"hardy": hardy_norm, "triple": triple_norm, "bergman": bergman_norm,
             "bergman_triple": bergman_triple_norm}
    rows = [(name, norm(m, args.p)) for name, norm in norms.items()]
    if args.r is not None:
        rows.append((f"mp(r={args.r:g})", mp_radius(m, args.p, args.r)))
    _write(args.format, stream, {"p": args.p, "norms": dict(rows)},
           ("norm", "value"), rows, (f"{k:>16s} = {v:.12g}\n" for k, v in rows))
    return 0


def _cmd_hilbert(args, stream) -> int:
    payload = map_to_dict(conjugate_map(_load_map(args.input)))
    with _output(args.output, stream) as out:
        _write("json", out, payload, (), (), ())
    return 0


def _cmd_verify_lemma(args, stream) -> int:
    tag = _member(InequalityId, args.id, "inequality")
    grid = GridSpec(r_nodes=args.grid_r, t_nodes=args.grid_t, tolerance=args.tol)
    return _emit_reports([verify_pointwise(tag, args.p, grid)], args.format, stream)


def _cmd_subharmonic(args, stream) -> int:
    mid = _member(Minorant, args.id, "minorant")
    kwargs = {} if args.tol is None else {"tolerance": args.tol}
    if mid in (Minorant.F_PAIR, Minorant.G_PAIR):
        report = check_pluri_lines(mid, args.p, n_lines=args.samples, seed=args.seed, **kwargs)
    else:
        report = check_submean(mid, args.p, centers=args.samples, seed=args.seed, **kwargs)
    return _emit_reports([report], args.format, stream)


def _cmd_verify_theorem(args, stream) -> int:
    tag = _member(TheoremId, args.id, "theorem")
    p_or_n = args.n if args.n is not None else args.p
    if p_or_n is None:
        raise ValueError("provide --p (or --n for BERGMAN_EMBEDDING)")
    report = verify_theorem(
        tag, p_or_n, samples=args.samples, degree=args.degree, seed=args.seed, rel_tol=args.tol
    )
    return _emit_reports([report], args.format, stream)


def _cmd_probe(args, stream) -> int:
    tag = _member(TheoremId, args.id, "theorem")
    fractions = args.gamma_frac or [0.5, 0.9, 0.99]
    ratios = sharpness_probe(tag, args.p, fractions)
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    payload = {"id": tag.value, "p": args.p, "gamma_fractions": list(fractions),
               "ratios": ratios, "increasing": increasing}
    lines = [f"gamma = {f:g} * pi/(2p)  ->  ratio = {r:.9f}\n" for f, r in zip(fractions, ratios)]
    _write(args.format, stream, payload, ("gamma_fraction", "ratio"), zip(fractions, ratios),
           lines + [f"increasing: {increasing}\n"])
    return 0 if increasing else 1


def _cmd_suite(args, stream) -> int:
    grid = GridSpec(r_nodes=args.grid_r, t_nodes=args.grid_t)
    timings = {} if args.timings else None
    reports = battery.full_suite(
        seed=args.seed, grid=grid, samples=args.samples, degree=args.degree, timings=timings
    )
    with _output(args.output, stream) as out:
        code = _emit_reports(reports, args.format, out)
        if args.format == "human":
            n_pass = sum(r.passed for r in reports)
            out.write(f"suite: {n_pass}/{len(reports)} checks passed\n")
    if timings is not None:
        stream.flush()
        for name, seconds in timings.items():
            print(f"{name:>28s} {seconds:8.3f} s", file=sys.stderr)
        print(f"{'total':>28s} {sum(timings.values()):8.3f} s", file=sys.stderr)
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rieszlab",
        description="Verification laboratory for sharp inequalities for harmonic "
        "mappings f = g + conj(h) on the unit disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, *, seed=True, tol=None):
        sp.add_argument("--format", choices=("human", "json", "csv"), default="human")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if tol is not None:
            sp.add_argument("--tol", type=float, default=tol)

    sp = sub.add_parser("constants", help="print the closed-form constants at p (and n)")
    sp.add_argument("--p", type=float)
    sp.add_argument("--n", type=int)
    add_common(sp, seed=False)
    sp.set_defaults(handler=_cmd_constants)

    sp = sub.add_parser("norms", help="Hardy/mixed/Bergman norms of a map file")
    sp.add_argument("--input", required=True, help="harmonic map JSON file")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--r", type=float, help="also print M_p(f, r)")
    add_common(sp, seed=False)
    sp.set_defaults(handler=_cmd_norms)

    sp = sub.add_parser("hilbert", help="harmonic conjugate of a map file")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", help="write the conjugate map JSON here")
    sp.set_defaults(handler=_cmd_hilbert)

    sp = sub.add_parser("verify-lemma", help="grid-verify a pointwise inequality")
    sp.add_argument("--id", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--grid-r", type=int, default=2000)
    sp.add_argument("--grid-t", type=int, default=4000)
    add_common(sp, seed=False, tol=1e-9)
    sp.set_defaults(handler=_cmd_verify_lemma)

    sp = sub.add_parser("subharmonic", help="sub-mean-value test of a minorant")
    sp.add_argument("--id", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--samples", type=int, default=64, help="centers (or lines)")
    sp.add_argument("--tol", type=float, default=None, help="deficit tolerance")
    add_common(sp)
    sp.set_defaults(handler=_cmd_subharmonic)

    sp = sub.add_parser("verify-theorem", help="sample battery for a theorem tag")
    sp.add_argument("--id", required=True)
    sp.add_argument("--p", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--degree", type=int, default=8)
    add_common(sp, tol=REL_TOL)
    sp.set_defaults(handler=_cmd_verify_theorem)

    sp = sub.add_parser("probe-sharpness", help="Calderon family sharpness probe")
    sp.add_argument("--id", required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--gamma-frac", type=float, action="append")
    add_common(sp, seed=False)
    sp.set_defaults(handler=_cmd_probe)

    sp = sub.add_parser("suite", help="run the full verification battery")
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument(
        "--degree",
        type=int,
        default=8,
        help="degree of the sampled maps in the Parseval, conjugate and theorem "
        "batteries (the isoperimetric batteries keep degree 4)",
    )
    sp.add_argument("--grid-r", type=int, default=2000)
    sp.add_argument("--grid-t", type=int, default=4000)
    sp.add_argument("--output", help="write the report stream to a file")
    sp.add_argument(
        "--timings",
        action="store_true",
        help="after the reports, print each stage's wall seconds to stderr",
    )
    add_common(sp)
    sp.set_defaults(handler=_cmd_suite)

    return parser


def run(argv: list[str] | None = None, stream=None) -> int:
    """Parse argv and dispatch; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the message; normalize bad-args exits to 2
        return 2 if exc.code not in (0,) else 0
    stream = stream if stream is not None else sys.stdout
    try:
        return args.handler(args, stream)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

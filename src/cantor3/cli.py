"""Command line front end: build, inspect, export, scan, and check.

Exit codes: 0 success, 1 usage or parse error, 2 computational refusal
(vertex cap, enumeration cap), 3 check or verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from time import perf_counter

from .automaton import (
    DEFAULT_MAX_VERTICES,
    build_multi,
    to_dot,
    to_json,
    usable_cpus,
)
from .checks import SUITES, run_suite
from .errors import ParseError, RefusalError
from .families import Y_graph, expect_L, expect_N
from .langops import is_subset, pointed_isomorphic
from .oracle import brute_count, brute_count_extendable, checked_blocks
from .spectral import hausdorff_dim
from .ternary import family_value, parse_decimal, parse_family, parse_multiplier, parse_multiplier_list

# Every row of a scan is listed before the first one runs, so larger scans
# are refused up front: 100 000 single rows take about 0.7 s and 50 MB to
# list (2-vCPU Xeon).
SCAN_ROW_LIMIT = 100_000

# `family` reports ok when the computed dimension is within this of the
# closed form (and the vertex and SCC counts match).
FAMILY_DIM_TOL = 1e-6

CSV_HEADER = ("multipliers", "vertices", "sccs", "beta", "dim", "error_bound", "elapsed_ms", "error")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; we reserve 2 for refusals."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# A rejected option value is echoed up to this many characters, then its length.
_ECHO_CHARS = 20


def _decimal_option(lo: int, hi: float, expected: str):
    """argparse type of a number option: a decimal integer in lo..hi. A number
    too long to read is out of range too: argparse would not catch a RefusalError."""
    def parse(text: str) -> int:
        shown = repr(text) if len(text) <= _ECHO_CHARS else (
            f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)")
        message = f"expected {expected}, got {shown}"
        try:
            value = parse_decimal(text, message)
        except (ParseError, RefusalError):
            value = lo - 1
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(message)
        return value

    return parse


_positive_int = _decimal_option(1, float("inf"), "a positive integer")
_precision = _decimal_option(1, 12, "decimal places 1..12")


def _graph_spec(text: str, max_vertices: int):
    """A multiplier list, or the literal 'Y' for the two-vertex witness graph."""
    if text.strip() in ("Y", "y"):
        return Y_graph()
    return build_multi(parse_multiplier_list(text), max_vertices=max_vertices)


def _echo(ms) -> str:
    return ",".join(str(m.normalized_from) for m in ms)


def _singles(prefix: str, lo: int, hi: int):
    """The rows of the range prefix+lo .. prefix+hi, one single multiplier each."""
    for k in range(lo, hi + 1):
        label = f"{prefix}{k}"
        yield [parse_multiplier(label)], label


def _expand_scan_specs(tokens):
    """Each token is a tuple spec or a range of singles: '4..40', 'L:1..9'.

    A range's rows are counted from its ends, and a scan of more than
    SCAN_ROW_LIMIT rows is refused before any row is built.
    """
    parts = []  # (row count, rows) per token; a range's rows are made once all are counted
    for tok in tokens:
        tok = tok.strip()
        if ".." not in tok:
            ms = parse_multiplier_list(tok)
            parts.append((1, [(ms, _echo(ms))]))
            continue
        head, _, tail = tok.partition("..")
        bad = f"bad range {tok!r}"
        if ":" in head:
            fam = parse_family(head)
            prefix, lo = f"{fam.kind}:", fam.k
        else:
            prefix, lo = "", parse_decimal(head, bad)
        hi = parse_decimal(tail, bad)
        if lo < 1 or hi < lo:
            raise ParseError(bad)
        parts.append((hi - lo + 1, _singles(prefix, lo, hi)))
    count = sum(c for c, _ in parts)
    if count > SCAN_ROW_LIMIT:
        raise RefusalError(f"scan limited to {SCAN_ROW_LIMIT} rows, got {count}")
    return [row for _, rows in parts for row in rows]


def _scan_row(task):
    """One scan row; a refusal (the vertex cap, the power-iteration product
    cap) becomes the row's error column, and any other exception propagates."""
    label, values, max_vertices = task
    t0 = perf_counter()
    try:
        g = build_multi(values, max_vertices=max_vertices)
        r = hausdorff_dim(g)
        elapsed = int((perf_counter() - t0) * 1000)
        return (label, g.n, r.scc_count, r.beta, r.dim, r.error_bound, elapsed, "")
    except RefusalError as e:
        elapsed = int((perf_counter() - t0) * 1000)
        return (label, "", "", "", "", "", elapsed, str(e))


def cmd_dim(args) -> int:
    ms = parse_multiplier_list(args.spec)
    g = build_multi(ms, max_vertices=args.max_vertices)
    r = hausdorff_dim(g)
    if args.json:
        print(json.dumps({
            "vertices": g.n, "edges": g.edge_count, "sccs": r.scc_count,
            "method": r.method, "beta": r.beta, "beta_bracket": [list(e) for e in r.beta_bracket],
            "dim": r.dim, "error_bound": r.error_bound, "iterations": r.iterations}))
        return 0
    p = args.precision
    print(
        f"beta={r.beta:.{p}f} dim={r.dim:.{p}f} vertices={g.n}"
        f" sccs={r.scc_count} error_bound={r.error_bound:.1e}"
    )
    return 0


def cmd_scan(args) -> int:
    tasks = [
        (label, tuple(m.value for m in ms), args.max_vertices)
        for ms, label in _expand_scan_specs(args.specs)
    ]
    # the pool forks every worker up front, so never ask for more than can run
    jobs = min(args.jobs, usable_cpus(), len(tasks))
    if jobs > 1:
        # imported here: the pool pulls in multiprocessing, which serial runs never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_scan_row, tasks))
    else:
        rows = [_scan_row(t) for t in tasks]
    p = args.precision

    def _render(row):
        label, n, s, beta, dim, eb, elapsed, err = row
        if err:
            return (label, n, s, beta, dim, eb, elapsed, err)
        return (label, n, s, f"{beta:.{p}f}", f"{dim:.{p}f}", f"{eb:.1e}", elapsed, err)

    if args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(_render(row))
    else:
        for row in rows:
            label, n, s, beta, dim, eb, elapsed, err = _render(row)
            if err:
                print(f"{label} error: {err}")
            else:
                print(
                    f"{label} vertices={n} sccs={s} beta={beta} dim={dim}"
                    f" error_bound={eb} elapsed_ms={elapsed}"
                )
    return 0


def cmd_export(args) -> int:
    g = _graph_spec(args.spec, args.max_vertices)
    print(to_dot(g) if args.dot else to_json(g))
    return 0


def cmd_blocks(args) -> int:
    ms = parse_multiplier_list(args.spec)
    count = brute_count_extendable if args.extendable else brute_count
    checked_blocks(ms, args.n)  # a refusal comes before the first line, not after the last
    for n in range(1, args.n + 1):
        print(f"n={n} blocks={count(ms, n)}")
    return 0


def cmd_contain(args) -> int:
    g1 = _graph_spec(args.spec1, args.max_vertices)
    g2 = _graph_spec(args.spec2, args.max_vertices)
    res = is_subset(g1, g2)
    if res.holds:
        print("subset: yes")
    else:
        word = "".join(str(d) for d in res.witness)
        print(f"subset: no witness={word}")
    return 0


def cmd_iso(args) -> int:
    g1 = _graph_spec(args.spec1, args.max_vertices)
    g2 = _graph_spec(args.spec2, args.max_vertices)
    print("isomorphic: yes" if pointed_isomorphic(g1, g2) else "isomorphic: no")
    return 0


def cmd_family(args) -> int:
    fam = parse_family(args.family)
    value = family_value(fam)
    g = build_multi([value], max_vertices=args.max_vertices)
    r = hausdorff_dim(g)
    p = args.precision
    if fam.kind == "P":
        print(f"{fam} value={value} dim={r.dim:.{p}f} vertices={g.n} (no closed form)")
        return 0
    exp = expect_L(fam.k) if fam.kind == "L" else expect_N(fam.k)
    dim_ok = abs(r.dim - exp.expected_dim) <= FAMILY_DIM_TOL
    shape_ok = g.n == exp.expected_vertices and r.scc_count == exp.expected_scc_count
    status = "ok" if dim_ok and shape_ok else "MISMATCH"
    print(
        f"{fam} value={value} dim={r.dim:.{p}f} expected={exp.expected_dim:.{p}f}"
        f" vertices={g.n}/{exp.expected_vertices} sccs={r.scc_count}"
        f"/{exp.expected_scc_count} {status}"
    )
    return 0 if status == "ok" else 3


def cmd_check(args) -> int:
    results = run_suite(args.suite)
    for res in results:
        print(res.line())
    failed = sum(1 for r in results if not r.ok)
    print(f"{len(results) - failed} passed, {failed} failed")
    return 3 if failed else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="cantor3", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def vertex_cap(sp):
        sp.add_argument("--max-vertices", type=_positive_int, default=DEFAULT_MAX_VERTICES,
                        help="refuse constructions larger than this many product states")

    def reporting(sp):
        sp.add_argument("--precision", type=_precision, default=6,
                        metavar="P", help="decimal places in reports (1..12, default 6)")
        vertex_cap(sp)

    sp = sub.add_parser("dim", help="Hausdorff dimension of an intersection")
    sp.add_argument("spec", help="multiplier list, e.g. '7', '7,19', 'L:4', 't:201'")
    sp.add_argument("--json", action="store_true",
                    help="print one JSON object with the graph's size, the method, the exact"
                         " bracket of beta as [[num, den], [num, den]] and the iterations")
    reporting(sp)
    sp.set_defaults(func=cmd_dim)

    sp = sub.add_parser("scan", help="batch dimensions, optionally as CSV")
    sp.add_argument("specs", nargs="+",
                    help="tuple specs or ranges of singles: '7,19' '4..40' 'L:1..9'")
    sp.add_argument("--csv", action="store_true", help="emit CSV with a header row")
    sp.add_argument("--jobs", type=_positive_int, default=1,
                    help="parallel workers (output order fixed)")
    reporting(sp)
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("export", help="emit a presentation as DOT or JSON")
    sp.add_argument("spec", help="multiplier list, or Y for the two-vertex witness graph")
    fmt = sp.add_mutually_exclusive_group(required=True)
    fmt.add_argument("--dot", action="store_true")
    fmt.add_argument("--json", action="store_true")
    vertex_cap(sp)
    sp.set_defaults(func=cmd_export)

    sp = sub.add_parser("blocks", help="brute-force block counts (oracle, no automaton)")
    sp.add_argument("spec", help="multiplier list")
    sp.add_argument("--n", type=_positive_int, default=8, help="count blocks of lengths 1..n")
    sp.add_argument("--extendable", action="store_true",
                    help="count only blocks that extend to arbitrarily long blocks")
    sp.set_defaults(func=cmd_blocks)

    sp = sub.add_parser("contain", help="path-set containment of two presentations")
    sp.add_argument("spec1")
    sp.add_argument("spec2")
    vertex_cap(sp)
    sp.set_defaults(func=cmd_contain)

    sp = sub.add_parser("iso", help="pointed isomorphism of two presentations")
    sp.add_argument("spec1")
    sp.add_argument("spec2")
    vertex_cap(sp)
    sp.set_defaults(func=cmd_iso)

    sp = sub.add_parser("family", help="compare a family member against its closed form")
    sp.add_argument("family", help="'L:4', 'N:3', or 'P:2'")
    reporting(sp)
    sp.set_defaults(func=cmd_family)

    sp = sub.add_parser("check", help="run a named acceptance suite")
    sp.add_argument("suite", help=f"one of {', '.join(sorted(SUITES))}")
    sp.set_defaults(func=cmd_check)

    return parser


def _discard_stdout() -> None:
    """Point stdout at the null device, so that flushing it at exit cannot raise again.

    A stream without a file descriptor is dropped instead: print() writes
    nothing and the exit flush skips a stdout of None.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):  # a stream without a file descriptor
        sys.stdout = None
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        _discard_stdout()  # the reader has gone, as with `| head`: stop quietly
        return 0
    except RefusalError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    except (ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

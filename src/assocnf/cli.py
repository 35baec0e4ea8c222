"""Command-line interface: normalize, trace, measure, enumerate, verify, graph.

Exit codes: 0 on success (and all checks passing), 1 when ``verify`` finds a
failing report, 2 on usage, term-syntax and file errors, with one ``error:``
line and no traceback.  Stdout carries data only; diagnostics go to stderr.
Identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .oracle import (
    ENUMERATION_CAP,
    GRAPH_CAP,
    _shapes,
    build_graph,
    enumerate_shapes,
    export_dot,
    records_jsonl,
    report_table,
    verify_all,
)
from .rewrite import STRATEGIES, format_position, normalize
from .terms import ParseError, measure, parse, render

__all__ = ["main"]


def _cmd_nf(args: argparse.Namespace) -> int:
    if args.file is None:
        terms = [parse(args.term)]
    else:
        try:
            with open(args.file, encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{args.file} is not UTF-8 text: {exc.reason}") from None
        # Every line is parsed before any result is printed, so a bad line
        # leaves stdout empty.
        terms = []
        for number, line in enumerate(lines, 1):
            if text := line.strip():
                try:
                    terms.append(parse(text))
                except ParseError as exc:
                    raise ValueError(f"{args.file} line {number}: {exc}") from None
    for term in terms:
        trace = normalize(term, "shortest")
        print(f"{render(trace.final)}\tsteps={trace.step_count}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    trace = normalize(parse(args.term), args.strategy)
    if not args.quiet:
        print(f"start {render(trace.start)}")
        for step in trace.steps:
            print(f"{format_position(step.position)} ⊳ {render(step.term_after)}")
        print(f"final {render(trace.final)}")
    print(f"steps={trace.step_count}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    m = measure(parse(args.term))
    nf = "true" if m.is_nf else "false"
    print(f"n={m.size} sigma={m.sigma} d_rm={m.d_rm} nf={nf}")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.count_only:
        print(len(_shapes(args.n, args.cap)))
    else:
        for t in enumerate_shapes(args.n, cap=args.cap):
            print(render(t))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = verify_all(args.max_n, cap=args.cap)
    sys.stdout.write(report_table(reports))
    if args.records is not None:
        with open(args.records, "w", encoding="utf-8") as fh:
            fh.write(records_jsonl(reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_graph(args: argparse.Namespace) -> int:
    dot = export_dot(build_graph(args.n, cap=args.cap))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot)
    else:
        sys.stdout.write(dot)
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser unchanged, and
    # building it costs more than a small command.
    parser = argparse.ArgumentParser(
        prog="assocnf",
        description=(
            "Rewrite binary terms with (x*y)*z -> x*(y*z): compute normal "
            "forms, step-by-step traces, measures, and exhaustive "
            "verification over all small shapes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="print the normal form and step count")
    p.add_argument("term", nargs="?", help="term text, e.g. '(((a*b)*c)*d)'")
    p.add_argument("--file", help="read one term per line instead")
    p.set_defaults(func=_cmd_nf)

    p = sub.add_parser("trace", help="print every rewrite step to normal form")
    p.add_argument("term", help="term text")
    p.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="shortest",
        help="rewrite order (default: shortest)",
    )
    p.add_argument(
        "--quiet", action="store_true", help="print the step count only"
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("metrics", help="print n, sigma, d_rm and NF status")
    p.add_argument("term", help="term text")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("enumerate", help="list all shapes of a given size")
    p.add_argument("n", type=int, help="number of internal nodes")
    p.add_argument(
        "--count-only", action="store_true", help="print only the shape count"
    )
    p.add_argument(
        "--cap",
        type=int,
        default=ENUMERATION_CAP,
        help=f"resource cap on n (default {ENUMERATION_CAP})",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "verify", help="check all rewrite properties for every size up to a bound"
    )
    p.add_argument("--max-n", type=int, required=True, help="largest size checked")
    p.add_argument(
        "--cap",
        type=int,
        default=GRAPH_CAP,
        help=f"resource cap on n (default {GRAPH_CAP})",
    )
    p.add_argument(
        "--records", help="also write per-shape records as JSON lines to this path"
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("graph", help="export the rewrite graph of one size as DOT")
    p.add_argument("n", type=int, help="number of internal nodes")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument(
        "--cap",
        type=int,
        default=GRAPH_CAP,
        help=f"resource cap on n (default {GRAPH_CAP})",
    )
    p.set_defaults(func=_cmd_graph)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "nf" and (args.term is None) == (args.file is None):
        parser.error("nf needs a term argument or --file, not both")
    if args.command == "verify" and args.max_n < 0:
        parser.error("--max-n must be nonnegative")
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # ParseError, CapExceeded, a negative size and undecodable --file
        # text are all ValueErrors; OSError is a file that cannot be opened.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

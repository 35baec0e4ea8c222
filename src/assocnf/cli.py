"""Command-line interface: normalize, trace, measure, enumerate, verify, graph.

Exit codes: 0 on success (and all checks passing), 1 when ``verify`` finds a
failing report, 2 on every error, never with a traceback.  Argparse's syntax
errors (an unknown flag, a bad choice, a missing ``--max-n``) print its usage
line and an error line.  Every other refusal is a command's own ``ValueError``
or ``OSError`` (a malformed term, a size below zero or above its cap, ``nf``
with no term or with both a term and ``--file``, a file that cannot be read
or written) and prints one ``error:`` line.  Stdout carries data only;
diagnostics go to stderr.  Identical invocations print identical bytes.

The commands are declared once, in ``_COMMANDS``.  ``_read`` takes argv of
the plain form: a command name, then that command's exact long flags, each
its own token, and values that do not start with ``-``.  It builds the
namespace itself, without importing argparse.  Anything else (``--help``,
an abbreviated flag, ``--flag=value``, a negative number, a usage error)
goes to an argparse parser built from the same table, so help text, usage
errors and their exit code 2 are argparse's own.
"""

from __future__ import annotations

import sys
from functools import cache
from types import SimpleNamespace

# enumerate_shapes is unused here, but perfbench/tracing.py wraps it in
# this module's namespace.
from .oracle import (
    ENUMERATION_CAP,
    GRAPH_CAP,
    _count,
    _texts,
    build_graph,
    enumerate_shapes,
    export_dot,
    records_jsonl,
    report_table,
    verify_all,
)
from .rewrite import STRATEGIES, _step_texts, format_position, normalize
from .terms import ParseError, measure, parse, render

__all__ = ["main"]


def _cmd_nf(args: SimpleNamespace) -> int:
    # Checked before any file is opened.
    if (args.term is None) == (args.file is None):
        raise ValueError("nf needs a term argument or --file, not both")
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


def _cmd_trace(args: SimpleNamespace) -> int:
    trace = normalize(parse(args.term), args.strategy)
    # One write per line: print makes two.
    write = sys.stdout.write
    if not args.quiet:
        encoding = getattr(sys.stdout, "encoding", None)
        if trace.step_count and encoding is not None:
            # A stream that cannot encode the step lines' markers is refused
            # before the start line, so the refusal leaves stdout empty.
            "ε⊳".encode(encoding, sys.stdout.errors)
        # The last step's text is the normal form's, so the start is the
        # only term rendered.
        text = render(trace.start)
        write(f"start {text}\n")
        for position, text in _step_texts(trace.strategy, text):
            write(f"{format_position(position)} ⊳ {text}\n")
        write(f"final {text}\n")
    write(f"steps={trace.step_count}\n")
    return 0


def _cmd_metrics(args: SimpleNamespace) -> int:
    m = measure(parse(args.term))
    nf = "true" if m.is_nf else "false"
    print(f"n={m.size} sigma={m.sigma} d_rm={m.d_rm} nf={nf}")
    return 0


def _cmd_enumerate(args: SimpleNamespace) -> int:
    if args.count_only:
        # Imported here: only a count needs it.  An int past 4,300 digits
        # (n >= 7153) refuses str(); a Decimal has no such limit.
        from decimal import Decimal

        print(Decimal(_count(args.n, args.cap)))
    else:
        # One line at a time, so no shape is held.
        sys.stdout.writelines(_texts(args.n, args.cap))
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    reports = verify_all(args.max_n, cap=args.cap)
    # Records first, so a bad path leaves stdout empty, as in nf --file.
    if args.records is not None:
        with open(args.records, "w", encoding="utf-8") as fh:
            fh.writelines(records_jsonl(reports))
    sys.stdout.write(report_table(reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_graph(args: SimpleNamespace) -> int:
    # Imported here: no other command needs it at start-up.
    from contextlib import nullcontext

    # The graph is built before the file is opened, so a cap or size error
    # creates no file.  Each line is far below the output buffer, so a
    # closed pipe raises BrokenPipeError at a buffer flush.
    lines = export_dot(build_graph(args.n, cap=args.cap))
    stdout = nullcontext(sys.stdout)  # left open on exit
    with stdout if args.out is None else open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return 0


def _cap(default: int) -> tuple[str, dict]:
    """Declare ``--cap``, the resource cap of the shape commands."""
    text = f"resource cap on n (default {default})"
    return "--cap", dict(type=int, default=default, help=text)


# Each command's handler, help line and arguments.  An argument is a name
# and the keywords argparse's ``add_argument`` takes; a name that starts
# with ``--`` is an option.  _build_parser hands them to argparse as they
# are, and _read understands the few keywords used here.
_COMMANDS = {
    "nf": (
        _cmd_nf,
        "print the normal form and step count",
        (
            ("term", dict(nargs="?", help="term text, e.g. '(((a*b)*c)*d)'")),
            ("--file", dict(help="read one term per line instead")),
        ),
    ),
    "trace": (
        _cmd_trace,
        "print every rewrite step to normal form",
        (
            ("term", dict(help="term text")),
            (
                "--strategy",
                dict(
                    choices=STRATEGIES,
                    default="shortest",
                    help="rewrite order (default: shortest)",
                ),
            ),
            ("--quiet", dict(action="store_true", help="print the step count only")),
        ),
    ),
    "metrics": (
        _cmd_metrics,
        "print n, sigma, d_rm and NF status",
        (("term", dict(help="term text")),),
    ),
    "enumerate": (
        _cmd_enumerate,
        "list all shapes of a given size",
        (
            ("n", dict(type=int, help="number of internal nodes")),
            ("--count-only", dict(action="store_true", help="print only the shape count")),
            _cap(ENUMERATION_CAP),
        ),
    ),
    "verify": (
        _cmd_verify,
        "check all rewrite properties for every size up to a bound",
        (
            ("--max-n", dict(type=int, required=True, help="largest size checked")),
            _cap(GRAPH_CAP),
            (
                "--records",
                dict(help="also write per-shape records as JSON lines to this path"),
            ),
        ),
    ),
    "graph": (
        _cmd_graph,
        "export the rewrite graph of one size as DOT",
        (
            ("n", dict(type=int, help="number of internal nodes")),
            ("--out", dict(help="output path (default: stdout)")),
            _cap(GRAPH_CAP),
        ),
    ),
}


def _dest(name: str) -> str:
    """The attribute argparse stores an argument in: ``--max-n`` -> ``max_n``."""
    return name.lstrip("-").replace("-", "_")


def _value(spec: dict, text: str):
    """``text`` converted as argparse would, or ``ValueError``."""
    if text.startswith("-"):
        raise ValueError(text)
    value = spec.get("type", str)(text)
    if value not in spec.get("choices", (value,)):
        raise ValueError(text)
    return value


def _read(argv: list[str]) -> SimpleNamespace | None:
    """Read plain ``argv`` (see the module docstring), or return ``None``.

    The namespace holds what argparse's would.  ``None`` leaves the argv to
    argparse, which may still take it, as it takes a negative number.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, arguments = _COMMANDS[argv[0]]
    specs = dict(arguments)
    unfilled = [name for name, _ in arguments if not name.startswith("-")]
    values = {"command": argv[0], "func": func}
    tokens = iter(argv[1:])
    try:
        for token in tokens:
            if not token.startswith("-"):
                name = unfilled.pop(0)
                values[name] = _value(specs[name], token)
            elif specs[token].get("action") == "store_true":
                values[_dest(token)] = True
            else:
                values[_dest(token)] = _value(specs[token], next(tokens))
    except (KeyError, IndexError, StopIteration, ValueError):
        # An unknown or abbreviated flag, one positional too many, or a
        # missing or malformed value.
        return None
    for name, spec in arguments:
        if _dest(name) in values:
            continue
        if spec.get("required") or (name in unfilled and spec.get("nargs") != "?"):
            return None
        flag = spec.get("action") == "store_true"
        values[_dest(name)] = spec.get("default", False if flag else None)
    return SimpleNamespace(**values)


@cache
def _build_parser():
    """The ``argparse.ArgumentParser`` of ``_COMMANDS``, for help and usage errors."""
    # Imported here: a well-formed command never needs it.  Built once per
    # process, since parsing leaves the parser unchanged.
    import argparse

    parser = argparse.ArgumentParser(
        prog="assocnf",
        description=(
            "Rewrite binary terms with (x*y)*z -> x*(y*z): compute normal "
            "forms, step-by-step traces, measures, and exhaustive "
            "verification over all small shapes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, spec in arguments:
            p.add_argument(name, **spec)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:
        # Argparse exits 2 itself, with its usage line, on a syntax error.
        args = _build_parser().parse_args(argv, SimpleNamespace())
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # Every refusal after parsing, each one line: ParseError,
        # CapExceeded, a negative size, nf's inputs and undecodable --file
        # text are ValueErrors; OSError is a file that cannot be opened or
        # written.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""CLI behavior: output formats, exit codes, determinism."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import assocnf.cli as cli
import assocnf.rewrite as rewrite
from assocnf.oracle import VerificationReport, build_graph, enumerate_shapes, export_dot
from assocnf.rewrite import STRATEGIES, format_position, normalize
from assocnf.terms import parse, render
from helpers import comb_shape, remy_shape, with_indexed_leaves


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf_example(capsys):
    code, out, err = run(capsys, "nf", "(((a*b)*c)*d)")
    assert code == 0
    assert out == "(a*(b*(c*d)))\tsteps=2\n"
    assert err == ""


def test_nf_leaf(capsys):
    code, out, _ = run(capsys, "nf", "a")
    assert code == 0
    assert out == "a\tsteps=0\n"


def test_nf_unlabeled(capsys):
    code, out, _ = run(capsys, "nf", "(((.*.)*.)*.)")
    assert code == 0
    assert out == "(.*(.*(.*.)))\tsteps=2\n"


def test_nf_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "nf", "((a*b")
    assert code == 2
    assert out == ""
    assert "byte" in err


def test_nf_batch_file(tmp_path, capsys):
    path = tmp_path / "terms.txt"
    path.write_text("(((a*b)*c)*d)\n\n(a*b)\n", encoding="utf-8")
    code, out, _ = run(capsys, "nf", "--file", str(path))
    assert code == 0
    assert out == "(a*(b*(c*d)))\tsteps=2\n(a*b)\tsteps=0\n"


def test_nf_batch_file_bad_line_prints_nothing(tmp_path, capsys):
    path = tmp_path / "terms.txt"
    path.write_text("(((a*b)*c)*d)\n\n((a*b)\n(a*b)\n", encoding="utf-8")
    code, out, err = run(capsys, "nf", "--file", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: {path} line 3: unexpected end of input, expected '*' at byte 6\n"


def test_nf_missing_file_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "nf", "--file", str(tmp_path / "missing.txt"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "missing.txt" in err


def test_nf_undecodable_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes("(caf\xe9*b)\n".encode("latin-1"))
    code, out, err = run(capsys, "nf", "--file", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not UTF-8" in err


def test_nf_requires_exactly_one_input(tmp_path, capsys):
    # The missing path shows that the rule runs before the file is opened.
    for argv in (["nf"], ["nf", "a", "--file", str(tmp_path / "missing.txt")]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: nf needs a term argument or --file, not both\n"


def test_usage_error_leaves_the_parser_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["trace", "--strategy", "fastest", "a"])
    assert exc.value.code == 2
    capsys.readouterr()
    after_error = run(capsys, "trace", "--strategy", "longest", "(((a*b)*c)*d)")
    assert cli._build_parser() is cli._build_parser()
    cli._build_parser.cache_clear()
    assert run(capsys, "trace", "--strategy", "longest", "(((a*b)*c)*d)") == after_error


def test_trace_longest(capsys):
    code, out, _ = run(capsys, "trace", "--strategy", "longest", "(((a*b)*c)*d)")
    assert code == 0
    lines = out.splitlines()
    step_lines = [line for line in lines if "⊳" in line]
    assert len(step_lines) == 3
    assert step_lines[-1].endswith("(a*(b*(c*d)))")
    assert lines[0] == "start (((a*b)*c)*d)"
    assert lines[-2] == "final (a*(b*(c*d)))"
    assert lines[-1] == "steps=3"


def test_trace_shortest_default(capsys):
    code, out, _ = run(capsys, "trace", "(((a*b)*c)*d)")
    assert code == 0
    step_lines = [line for line in out.splitlines() if "⊳" in line]
    assert len(step_lines) == 2
    assert step_lines[0] == "ε ⊳ ((a*b)*(c*d))"


# Eight nodes; the right spine (a*(b*...)) holds a node with a non-leaf left
# subtree, so steps fire below the root on both sides of the spine.
SPINE_TERM = "(a*(b*(((c*d)*(e*f))*((g*h)*i))))"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_trace_prints_every_step(capsys, strategy):
    trace = normalize(parse(SPINE_TERM), strategy)
    expected = [f"start {SPINE_TERM}"]
    expected += [
        f"{format_position(s.position)} ⊳ {render(s.term_after)}" for s in trace.steps
    ]
    expected += [f"final {render(trace.final)}", f"steps={trace.step_count}"]
    code, out, err = run(capsys, "trace", "--strategy", strategy, SPINE_TERM)
    assert code == 0 and err == ""
    assert out == "\n".join(expected) + "\n"
    assert trace.step_count >= 4


def test_trace_leaf_has_no_steps(capsys):
    code, out, _ = run(capsys, "trace", "--strategy", "shortest", "a")
    assert code == 0
    assert out == "start a\nfinal a\nsteps=0\n"


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("term", [SPINE_TERM, "(a*(b*(c*d)))"])
def test_printed_trace_renders_once(capsys, monkeypatch, strategy, term):
    # the start's text is the only one rendered: the steps edit it, and
    # final is the last step's text, or the start's for a normal form
    calls = []

    def counted(t):
        calls.append(t)
        return render(t)

    for module in (cli, rewrite):
        monkeypatch.setattr(module, "render", counted)
    code, out, _ = run(capsys, "trace", "--strategy", strategy, term)
    assert code == 0 and len(calls) == 1
    trace = normalize(parse(term), strategy)
    assert out.splitlines()[-2] == f"final {render(trace.final)}"
    calls.clear()
    assert run(capsys, "trace", "--quiet", "--strategy", strategy, term)[0] == 0
    assert calls == []


def test_trace_quiet(capsys):
    code, out, _ = run(capsys, "trace", "--quiet", "--strategy", "longest", "(((a*b)*c)*d)")
    assert code == 0
    assert out == "steps=3\n"


def test_metrics_example(capsys):
    code, out, _ = run(capsys, "metrics", "(((a*b)*c)*d)")
    assert code == 0
    assert out == "n=3 sigma=3 d_rm=1 nf=false\n"


def test_metrics_leaf(capsys):
    code, out, _ = run(capsys, "metrics", ".")
    assert code == 0
    assert out == "n=0 sigma=0 d_rm=0 nf=true\n"


def test_metrics_balanced(capsys):
    code, out, _ = run(capsys, "metrics", "((a*b)*(c*d))")
    assert code == 0
    assert out == "n=3 sigma=1 d_rm=2 nf=false\n"


def test_enumerate_lists_shapes(capsys):
    # the streamed texts against the library's shapes, rendered
    for n in range(11):
        code, out, _ = run(capsys, "enumerate", str(n))
        assert code == 0
        assert out == "".join(render(t) + "\n" for t in enumerate_shapes(n)), n


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "3", "--count-only")
    assert code == 0
    assert out == "5\n"


def test_enumerate_count_only_past_the_int_digit_limit(capsys):
    # C(8000) has 4,811 digits, past the 4,300 that str() of an int allows
    code, out, _ = run(capsys, "enumerate", "8000", "--count-only", "--cap", "8000")
    assert code == 0
    assert Decimal(out) == comb(16000, 8000) // 8001


def test_enumerate_cap_exceeded(capsys):
    code, out, err = run(capsys, "enumerate", "15")
    assert code == 2
    assert out == ""
    assert "cap" in err


def test_enumerate_negative_size_exits_2(capsys):
    # the sign is checked before the cap, whatever the cap
    for cap in ((), ("--cap", "-5")):
        code, out, err = run(capsys, "enumerate", "-1", *cap)
        assert code == 2
        assert out == ""
        assert err == "error: shape size must be nonnegative\n"


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "4")
    assert code == 0
    rows = [line for line in out.splitlines() if line.strip().endswith("PASS")]
    assert len(rows) == 5


def test_verify_single_size(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "0")
    assert code == 0
    assert out.count("PASS") == 1


def test_verify_full_range(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "9")
    assert code == 0
    rows = [line for line in out.splitlines() if line.strip().endswith("PASS")]
    assert len(rows) == 10
    n9 = next(line for line in rows if line.strip().startswith("9"))
    assert " 36 " in f"{n9} "  # max longest path at n=9 is 9*8/2


def test_verify_is_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--max-n", "3")
    _, second, _ = run(capsys, "verify", "--max-n", "3")
    assert first == second


def test_verify_writes_records(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    code, _, _ = run(capsys, "verify", "--max-n", "2", "--records", str(path))
    assert code == 0
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert {r["term"] for r in records} >= {"((.*.)*.)", "(.*(.*.))"}
    assert all(set(r) == {"term", "n", "sigma", "d_rm", "longest", "shortest"} for r in records)


def test_verify_bad_records_path_prints_nothing(tmp_path, capsys):
    # the records file is written before the table, so a path that cannot
    # be opened leaves stdout empty, as a bad nf --file line does
    code, out, err = run(capsys, "verify", "--max-n", "1", "--records", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_verify_and_graph_output_bytes_are_pinned(tmp_path, capsys):
    # Output bytes are part of the CLI contract: any change to a report,
    # record or DOT byte changes one of these SHA-256 digests.
    path = tmp_path / "F"
    code, out, _ = run(capsys, "verify", "--max-n", "8", "--records", str(path))
    assert code == 0
    assert _sha256(out) == "35802a3663e2bd173d217664e971d867a6e7dec2e569f63f37a0f997f0138a72"
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest()
        == "34c61b6ebe77fdf05ebf38e90a3af7c2e62c07a254cafd27cea569ceb08c87aa"
    )
    code, out, _ = run(capsys, "graph", "7")
    assert code == 0
    assert _sha256(out) == "ce6df50d574b5ca4406be1c7708fed0de97b0095c961d80fb64a627cc3323103"


def test_benchmark_sizes_output_bytes_are_pinned(tmp_path, capsys):
    # The largest graph, verify and count-only sizes the benchmark runs.
    path = tmp_path / "F"
    code, out, _ = run(capsys, "graph", "9")
    assert code == 0
    assert _sha256(out) == "5f33b79969854f18ef9b977d352e7d140e413f5995ae9ec5c81ec54ed45a92ea"
    code, out, _ = run(capsys, "verify", "--max-n", "9", "--records", str(path))
    assert code == 0
    assert _sha256(out) == "7d6aaa84ffafa2e03f87207e501207086287a2b3878bd7774fbc7ab9ccde3db0"
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest()
        == "34ce1d615fae0cf5d4691fabad55869ed1525611507d18a915e28ae4a827c676"
    )
    code, out, _ = run(capsys, "enumerate", "11", "--count-only")
    assert code == 0
    assert _sha256(out) == "59324156bbf218d59b80046e9ab7e5fe3c0cc393870a45d47a3b3e24adbbf680"


def _labeled_left_chain_text(n, labels=("a", "b", "c0", "x_1", "zz")):
    """Canonical text of the n-node left chain whose labels cycle over ``labels``."""
    tail = "".join(f"*{labels[i % len(labels)]})" for i in range(1, n + 1))
    return "(" * n + labels[0] + tail


# Remy shape with 60 nodes, seed 60, leaves x0..x60.
PINNED_TRACE_TERM = (
    "((x0*x1)*((x2*x3)*(x4*((((x5*(x6*((x7*((x8*(((x9*((((((x10*x11)*(x12*"
    "(x13*(((x14*((x15*x16)*(x17*(x18*x19))))*x20)*((((x21*x22)*x23)*x24)*"
    "(x25*x26))))))*(x27*x28))*x29)*x30)*((x31*x32)*x33)))*(x34*x35))*x36))*"
    "x37))*((x38*x39)*x40))))*x41)*((((x42*x43)*x44)*x45)*x46))*(x47*((x48*"
    "(x49*x50))*((x51*((x52*(((x53*x54)*x55)*(x56*x57)))*(x58*x59)))*x60)))))))"
)


def test_nf_and_trace_output_bytes_are_pinned(capsys):
    # nf and trace print the same bytes whatever the kernels beneath them
    # do; one chain, one comb and one Remy shape cover the three families.
    inputs = {
        "chain": _labeled_left_chain_text(10_000),
        "comb": render(comb_shape(5000, 5000)),
        "remy": render(with_indexed_leaves(remy_shape(10_000, random.Random(7)))),
    }
    pins = {
        "chain": (
            "fbbea78605a842059ba5f7cb990320e48d30b93f9f165e788802fea9ec6d4afa",
            "b29e43fda4b4d26bff1a088fca702c52a59cc20f8764a0a6b4f4e05dbc78c0ec",
        ),
        "comb": (
            "b6048105c0919e4829f6cbecc6876285cb2ea4d8b335ff274a19d789dfbdf47a",
            "e2a0c6df9877008071ab21153d08e2d53500a8dfe290fc952de2bc7125d7d6ef",
        ),
        "remy": (
            "8c2cd5f45ff7d9eff09e3f4e6528287f7dbf488b2bc765924b2c51f4e4f9428f",
            "66e5207cfbbaf3a4ce7b08fe00f1d8ece68b835a4c2c6a6e729442b93a9a0da8",
        ),
    }
    assert render(with_indexed_leaves(remy_shape(60, random.Random(60)))) == PINNED_TRACE_TERM
    for name, text in inputs.items():
        code, out, _ = run(capsys, "nf", text)
        assert code == 0
        assert _sha256(out) == pins[name][0], name
        code, out, _ = run(capsys, "trace", "--quiet", "--strategy", "longest", text)
        assert code == 0
        assert _sha256(out) == pins[name][1], name
    full = {
        "shortest": "8695c5e14458626073ade6bf1cbed6817aa45107165bf73eed443f3490373b2b",
        "longest": "bf82ff9647fb3b90e02530d52b1f6b41239a690c11af7d0ae267f249fe426b3a",
    }
    for strategy, digest in full.items():
        code, out, _ = run(capsys, "trace", "--strategy", strategy, PINNED_TRACE_TERM)
        assert code == 0
        assert _sha256(out) == digest, strategy


def test_verify_negative_max_n_is_one_error_line(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: shape size must be nonnegative\n"


def test_verify_failure_exits_1(capsys, monkeypatch):
    failing = VerificationReport(
        n=1,
        records=(),
        sn_ok=False,
        wcr_ok=True,
        unique_nf_ok=True,
        longest_matches_sigma=True,
        shortest_matches_formula=True,
        max_longest=0,
        max_attained_by=("(.*.)",),
    )
    monkeypatch.setattr(cli, "verify_all", lambda n_max, cap: [failing])
    code, out, _ = run(capsys, "verify", "--max-n", "1")
    assert code == 1
    assert "FAIL" in out


def test_verify_on_a_descending_edge_is_an_error_not_a_fail_row(tmp_path, capsys, monkeypatch):
    # verify_all reads every path length off the sweep that checks the edges,
    # so such a graph raises before any report is built; build_graph cannot
    # make one, so a stand-in turns size 2's one edge around
    def descending(n, cap):
        g = build_graph(n, cap=cap)
        return g._replace(targets=((), (0,))) if n == 2 else g

    monkeypatch.setattr("assocnf.oracle.build_graph", descending)
    records = tmp_path / "r.jsonl"
    code, out, err = run(capsys, "verify", "--max-n", "3", "--records", str(records))
    assert code == 2
    assert out == ""
    assert err == "error: the rewrite graph has an edge that does not ascend\n"
    assert not records.exists()


def test_graph_to_stdout(capsys):
    code, out, _ = run(capsys, "graph", "2")
    assert code == 0
    assert out == "".join(export_dot(build_graph(2)))


def test_graph_to_file(tmp_path, capsys):
    path = tmp_path / "g.dot"
    code, out, _ = run(capsys, "graph", "3", "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text(encoding="utf-8") == "".join(export_dot(build_graph(3)))


def test_graph_cap_exceeded(capsys):
    code, _, err = run(capsys, "graph", "13")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize(
    "args, named, cap",
    [(("--max-n", "13"), 13, 12), (("--max-n", "20"), 13, 12), (("--max-n", "3", "--cap", "-1"), 0, -1)],
)
def test_verify_cap_exceeded(capsys, args, named, cap):
    code, out, err = run(capsys, "verify", *args)
    assert code == 2
    assert out == ""
    assert err == f"error: n={named} exceeds graph cap {cap}\n"


def test_graph_negative_size_exits_2(capsys):
    # the sign is checked before the cap, whatever the cap
    for cap in ((), ("--cap", "-5")):
        code, out, err = run(capsys, "graph", "-1", *cap)
        assert code == 2
        assert out == ""
        assert err == "error: shape size must be nonnegative\n"


_NO_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
_HUGE = "1" + "0" * 19  # 20 digits


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--max-n", "-1"), "shape size must be nonnegative"),
        (("nf",), "nf needs a term argument or --file, not both"),
        (("nf", "a", "--file", "{tmp}/missing.txt"), "nf needs a term argument or --file, not both"),
        pytest.param(("graph", "9", "--out", "/dev/full"), "[Errno 28]", marks=_NO_DEV_FULL),
        pytest.param(
            ("verify", "--max-n", "5", "--records", "/dev/full"), "[Errno 28]", marks=_NO_DEV_FULL
        ),
        (("nf", "--file", "{tmp}"), "[Errno 21]"),
        (("enumerate", _HUGE), f"n={_HUGE} exceeds enumeration cap 14"),
        (("graph", _HUGE), f"n={_HUGE} exceeds graph cap 12"),
        (("verify", "--max-n", _HUGE), "n=13 exceeds graph cap 12"),
        (("enumerate", "3", "--cap", "-1"), "n=3 exceeds enumeration cap -1"),
        (("nf", "(A*b)"), "expected a term, found 'A' at byte 1"),
    ],
)
def test_every_refusal_is_one_error_line(tmp_path, capsys, argv, message):
    # Exit 2, nothing on stdout, one stderr line, no traceback.
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert message in err


def test_argparse_syntax_error_is_usage_and_one_error_line(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["trace", "--strategy", "fastest", "a"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: assocnf trace ")
    assert error.startswith("assocnf trace: error: argument --strategy: invalid choice")


def _env():
    """The environment of a fresh ``python -m assocnf.cli`` on this checkout."""
    return {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}


@pytest.mark.parametrize(
    "argv, head",
    [
        (("enumerate", "10"), b"(((((((((("),
        (("enumerate", "3000", "--cap", "3000"), b"(((((((((("),
        (("graph", "10"), b"digraph re"),
        (("graph", "10", "--out", "/dev/stdout"), b"digraph re"),
        (("verify", "--max-n", "10", "--records", "/dev/stdout"), b'{"term": '),
        (("trace", "--strategy", "longest", "(" * 200 + "." + "*.)" * 200), b"start (((("),
    ],
    ids=["enumerate", "enumerate-deep", "graph", "graph-out", "verify-records", "trace"],
)
def test_closed_pipe_exits_2_with_one_error_line(argv, head):
    # Each prints megabytes, well over a pipe buffer, so the process is
    # still writing when the reader goes away: enumerate 10 about 700 KB,
    # enumerate 3000 far more shapes than could ever be printed, 12 KB each,
    # graph 10 about 7.9 MB a line at a time, its records about 2.7 MB, the
    # 19,900-step trace more.  --out and --records write the pipe through
    # a file of their own, not through sys.stdout.
    proc = subprocess.Popen(
        [sys.executable, "-m", "assocnf.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_env(),
    )
    assert proc.stdout.read(len(head)) == head
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == b"error: [Errno 32] Broken pipe\n"


def _trace_under(encoding, *argv):
    """A fresh ``trace`` process whose stdout has ``encoding``."""
    env = {**_env(), "PYTHONIOENCODING": encoding}
    argv = [sys.executable, "-m", "assocnf.cli", "trace", *argv]
    return subprocess.run(argv, env=env, capture_output=True, timeout=60)


def test_trace_is_refused_whole_on_a_stdout_without_its_markers():
    # The step lines' markers are encoded before the start line is written,
    # so a stream that cannot take them gets no partial trace.
    done = _trace_under("ascii", "((a*b)*c)")
    assert (done.returncode, done.stdout) == (2, b"")
    (line,) = done.stderr.splitlines()
    assert line.startswith(b"error: 'ascii' codec can't encode")
    # With no step line to print, nothing is checked.
    for argv, out in [
        (("--quiet", "((a*b)*c)"), b"steps=1\n"),
        (("(a*(b*c))",), b"start (a*(b*c))\nfinal (a*(b*c))\nsteps=0\n"),
    ]:
        done = _trace_under("ascii", *argv)
        assert (done.returncode, done.stdout, done.stderr) == (0, out, b"")
    done = _trace_under("ascii:replace", "((a*b)*c)")
    out = b"start ((a*b)*c)\n? ? (a*(b*c))\nfinal (a*(b*c))\nsteps=1\n"
    assert (done.returncode, done.stdout, done.stderr) == (0, out, b"")


def test_well_formed_command_loads_no_argparse():
    # -S: no site hooks, so only the program's own imports count.
    code = (
        "import sys; from assocnf.cli import main; main(['nf', 'a']); "
        "print('argparse' in sys.modules)"
    )
    argv = [sys.executable, "-S", "-c", code]
    done = subprocess.run(argv, env=_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "a\tsteps=0\nFalse\n", "")


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["assocnf", "nf", "(((a*b)*c)*d)"])
    assert cli.main() == 0
    assert capsys.readouterr().out == "(a*(b*(c*d)))\tsteps=2\n"
    monkeypatch.setattr(sys, "argv", ["assocnf", "metrics"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    assert "required: term" in capsys.readouterr().err


# The usage line of each --help, as argparse printed it before the commands
# moved into one table; the same on Python 3.10 to 3.12.
USAGE_LINES = {
    (): "usage: assocnf [-h] {nf,trace,metrics,enumerate,verify,graph} ...",
    ("nf",): "usage: assocnf nf [-h] [--file FILE] [term]",
    ("trace",): "usage: assocnf trace [-h] [--strategy {shortest,longest}] [--quiet] term",
    ("metrics",): "usage: assocnf metrics [-h] term",
    ("enumerate",): "usage: assocnf enumerate [-h] [--count-only] [--cap CAP] n",
    ("verify",): "usage: assocnf verify [-h] --max-n MAX_N [--cap CAP] [--records RECORDS]",
    ("graph",): "usage: assocnf graph [-h] [--out OUT] [--cap CAP] n",
}


@pytest.mark.parametrize("command", USAGE_LINES, ids=lambda c: c[0] if c else "top")
def test_help_usage_lines_are_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == USAGE_LINES[command]


# Plain argv, the form of every command the README and the benchmark show.
WELL_FORMED = [
    ["nf", "(((a*b)*c)*d)"],
    ["nf", "--file", "terms.txt"],
    ["nf", "a", "--file", "terms.txt"],
    ["nf"],
    ["trace", "--quiet", "--strategy", "longest", "((a*b)*c)"],
    ["trace", "((a*b)*c)", "--strategy", "shortest", "--strategy", "longest"],
    ["metrics", ""],
    ["enumerate", "11", "--count-only", "--cap", "12"],
    ["verify", "--max-n", "3", "--records", "F"],
    ["verify", "--records", "F", "--max-n", "1_0"],
    ["graph", " 9", "--out", "F"],
]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_reader_takes_plain_argv(argv):
    args = cli._read(argv)
    assert args is not None
    assert vars(args) == vars(cli._build_parser().parse_args(argv))


# Help, or plain argv with one thing wrong: the reader leaves each to argparse.
NOT_PLAIN = [
    [],
    ["bogus"],
    ["nf", "a", "-h"],
    ["trace", "--help", "a"],
    ["trace", "--str", "longest", "a"],
    ["trace", "--strategy=longest", "a"],
    ["trace", "--strategy", "middle", "a"],
    ["metrics", "--", "a"],
    ["metrics", "-"],
    ["metrics"],
    ["metrics", "a", "b"],
    ["nf", "--cap", "3", "a"],
    ["enumerate", "-1"],
    ["enumerate", "1e3"],
    ["graph", "3", "--cap", "-1"],
    ["verify"],
    ["verify", "--max-n"],
]


@pytest.mark.parametrize("argv", NOT_PLAIN, ids=lambda argv: " ".join(argv) or "empty")
def test_reader_leaves_the_rest_to_argparse(argv):
    assert cli._read(argv) is None


# argv for the reader-argparse agreement: each command's own flags, values,
# and tokens of every other kind the reader must leave to argparse.
FLAGS = {
    "nf": ["--file"],
    "trace": ["--strategy", "--quiet"],
    "metrics": [],
    "enumerate": ["--count-only", "--cap"],
    "verify": ["--max-n", "--cap", "--records"],
    "graph": ["--out", "--cap"],
    "bogus": [],
}
INTS = ["0", "3", "-1", "1e3", " 3", "1_0"]
VALUES = st.sampled_from(INTS + ["shortest", "longest", "middle", "a", "((a*b)*c)", ""])
TOKENS = st.one_of(
    VALUES,
    st.sampled_from([flag for flags in FLAGS.values() for flag in flags] + list(FLAGS)),
    st.sampled_from(["--fi", "--str", "--max", "--count", "--file=x", "--cap=3"]),
    st.sampled_from(["-h", "--help", "--", "-"]),
)


def _argv(command, pieces, positionals, extra, at):
    """``command``, then ``pieces`` joined with ``positionals`` and ``extra`` at ``at``."""
    tokens = [token for piece in pieces for token in piece]
    tokens[at[0] : at[0]] = positionals
    tokens[at[1] : at[1]] = extra
    return [command, *tokens]


def _command_argv(command):
    # Mostly plain argv: the command's own flags, each alone or with a value,
    # up to two bare values, and sometimes one token of any kind.
    pieces = st.just([])
    if FLAGS[command]:
        flag = st.sampled_from(FLAGS[command])
        piece = st.one_of(flag.map(lambda f: [f]), st.tuples(flag, VALUES).map(list))
        pieces = st.lists(piece, max_size=3)
    return st.builds(
        _argv,
        st.just(command),
        pieces,
        st.lists(VALUES, max_size=2),
        st.lists(TOKENS, max_size=1),
        st.tuples(st.integers(0, 6), st.integers(0, 8)),
    )


ARGV = st.one_of(st.lists(TOKENS, max_size=4), *map(_command_argv, FLAGS))


@settings(max_examples=1000, deadline=None)
@given(argv=ARGV)
def test_reader_agrees_with_argparse(argv):
    read = cli._read(argv)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            expected = cli._build_parser().parse_args(argv)
    except SystemExit:
        assert read is None
    else:
        assert read is None or vars(read) == vars(expected)

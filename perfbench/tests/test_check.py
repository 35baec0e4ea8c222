import io
from contextlib import redirect_stdout

import pytest

from assocnf.cli import main
from check import check_enumerate, check_graph, check_nf, check_quiet, check_trace, check_verify
from run import Runner, timed_metrics
from workloads import Op


def cli(*argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


TERM = "(((a*.)*(b*c))*d)"


def test_real_outputs_pass():
    assert check_nf(TERM, cli("nf", TERM)) is None
    for strategy in ("shortest", "longest"):
        assert check_quiet(TERM, strategy, cli("trace", "--quiet", "--strategy", strategy, TERM)) is None
        assert check_trace(TERM, strategy, cli("trace", "--strategy", strategy, TERM)) is None
    assert check_enumerate(7, cli("enumerate", "7", "--count-only")) is None


def test_real_verify_and_graph_files_pass(tmp_path):
    records, dot = tmp_path / "r.jsonl", tmp_path / "g.dot"
    out = cli("verify", "--max-n", "5", "--records", str(records))
    assert check_verify(5, out, records.read_text()) is None
    assert check_graph(5, cli("graph", "5", "--out", str(dot)), dot.read_text()) is None


def test_swapped_leaves_and_off_by_one_counts_fail():
    good = cli("nf", TERM)
    assert good == "(a*(.*(b*(c*d))))\tsteps=3\n"
    assert check_nf(TERM, good.replace("a", "#").replace("b", "a").replace("#", "b")) is not None
    assert check_nf(TERM, good.replace("steps=3", "steps=4")) is not None
    quiet = cli("trace", "--quiet", "--strategy", "longest", TERM)
    assert check_quiet(TERM, "longest", quiet.replace("=", "=1")) is not None


def test_a_broken_printed_trace_fails():
    lines = cli("trace", "--strategy", "longest", TERM).split("\n")
    dropped = "\n".join(lines[:2] + lines[3:])
    assert check_trace(TERM, "longest", dropped) is not None
    # Right count and final, but the first step fires at the wrong place.
    lines[1] = "R" + lines[1]
    assert check_trace(TERM, "longest", "\n".join(lines)) is not None


def test_broken_verify_and_graph_outputs_fail(tmp_path):
    records, dot = tmp_path / "r.jsonl", tmp_path / "g.dot"
    out = cli("verify", "--max-n", "4", "--records", str(records))
    text = records.read_text()
    assert check_verify(4, out.replace("PASS", "FAIL", 1), text) is not None
    assert check_verify(4, out, text.split("\n", 1)[1]) is not None
    assert check_verify(4, out, text.replace('"longest": 0', '"longest": 1', 1)) is not None
    cli("graph", "4", "--out", str(dot))
    lines = dot.read_text().split("\n")
    edge = next(i for i, line in enumerate(lines) if "->" in line)
    assert check_graph(4, "", "\n".join(lines[:edge] + lines[edge + 1 :])) is not None
    assert check_graph(4, "", dot.read_text().replace('";', '" [peripheries=2];', 1)) is not None
    assert check_enumerate(12, "208011\n") is not None


@pytest.mark.parametrize(
    "fake",
    [
        lambda argv: print("(b*(a*c))\tsteps=1") or 0,  # swapped leaves
        lambda argv: print("(a*(b*c))\tsteps=2") or 0,  # off-by-one count
        lambda argv: print("(a*(b*c))\tsteps=1") or 1,  # wrong exit code
        lambda argv: 1 // 0,  # exception
    ],
)
def test_error_rate_counts_every_wrong_op(fake):
    term = "((a*b)*c)"
    ops = [Op(("nf", term), "nf", "shortest_nodes_per_s", 2, term)]
    runner = Runner(ops)
    passes = [runner.run_pass(fake) for _ in range(3)]
    metrics, _ = timed_metrics(runner, passes)
    assert (runner.attempted, runner.failed, metrics["error_rate"]) == (3, 3, 1.0)
    runner = Runner(ops)
    metrics, _ = timed_metrics(runner, [runner.run_pass(main) for _ in range(3)])
    assert (runner.failed, metrics["error_rate"]) == (0, 0.0)

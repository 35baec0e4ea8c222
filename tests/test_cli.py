"""CLI behavior: output formats, exit codes, determinism."""

import hashlib
import json

import pytest

import assocnf.cli as cli
from assocnf.oracle import VerificationReport, build_graph, enumerate_shapes, export_dot
from assocnf.rewrite import STRATEGIES, format_position, normalize
from assocnf.terms import parse, render


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


def test_nf_requires_exactly_one_input(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["nf"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["nf", "a", "--file", "x"])
    assert exc.value.code == 2


def test_usage_error_leaves_the_parser_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--max-n", "-1"])
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
    code, out, _ = run(capsys, "enumerate", "3")
    assert code == 0
    assert out.splitlines() == [render(t) for t in enumerate_shapes(3)]


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "3", "--count-only")
    assert code == 0
    assert out == "5\n"


def test_enumerate_cap_exceeded(capsys):
    code, out, err = run(capsys, "enumerate", "15")
    assert code == 2
    assert out == ""
    assert "cap" in err


def test_enumerate_negative_size_exits_2(capsys):
    code, out, err = run(capsys, "enumerate", "-1")
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


def test_verify_negative_max_n_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--max-n", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --max-n must be nonnegative" in captured.err


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


def test_graph_to_stdout(capsys):
    code, out, _ = run(capsys, "graph", "2")
    assert code == 0
    assert out == export_dot(build_graph(2))


def test_graph_to_file(tmp_path, capsys):
    path = tmp_path / "g.dot"
    code, out, _ = run(capsys, "graph", "3", "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text(encoding="utf-8") == export_dot(build_graph(3))


def test_graph_cap_exceeded(capsys):
    code, _, err = run(capsys, "graph", "13")
    assert code == 2
    assert "cap" in err


def test_graph_negative_size_exits_2(capsys):
    code, out, err = run(capsys, "graph", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: shape size must be nonnegative\n"

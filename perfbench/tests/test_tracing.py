import json
import shutil
import subprocess
import sys
from pathlib import Path

from check import catalan, shape
from run import ROOT, Runner, load_cli, traced_metrics
from workloads import WORKLOADS


def small_ops(tmp: str):
    ops = [op for op in WORKLOADS["normalize"](1, tmp) if op.work < 300]
    ops += [op for op in WORKLOADS["trace-print"](1, tmp) if shape(op.term).size <= 20]
    return ops + [op for op in WORKLOADS["verify"](1, tmp) if op.n <= 5]


def test_traced_runs_keep_outputs_and_repeat_counts(tmp_path):
    cli = load_cli()
    originals = (cli.parse, cli.main, sys.modules["assocnf.rewrite"].apply_at)
    ops = small_ops(str(tmp_path))
    counts = []
    for _ in range(2):
        runner = Runner(ops)
        metrics = traced_metrics(runner, cli, 0)
        # Traced passes must print the bytes of the untraced pass.
        assert (runner.attempted, runner.failed) == (3 * len(ops), 0), runner.failures
        assert metrics["rewrite.normalize_longest.peak_kib"] > 0
        counts.append({k: v for k, v in metrics.items() if k.endswith((".calls", ".steps", ".edges"))})
    assert counts[0] == counts[1]
    assert originals == (cli.parse, cli.main, sys.modules["assocnf.rewrite"].apply_at)

    c = counts[0]
    assert c["cli.main.calls"] == len(ops)
    longest = [shape(op.term) for op in ops if op.strategy == "longest"]
    assert c["rewrite.normalize_longest.calls"] == len(longest)
    assert c["rewrite.normalize_longest.steps"] == sum(s.sigma for s in longest)
    shortest = [shape(op.term) for op in ops if op.kind == "nf" or op.strategy == "shortest"]
    assert c["rewrite.normalize_shortest.steps"] == sum(s.size - s.d_rm for s in shortest)
    sizes = [op.n for op in ops if op.kind == "graph"]
    sizes += [n for op in ops if op.kind == "verify" for n in range(op.n + 1)]
    assert c["oracle.build_graph.edges"] == sum((n - 1) * catalan(n) // 2 for n in sizes if n)


def _bench(root: Path, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", "trace-print"]
    argv += ["--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


def test_result_line_names_exactly_the_declared_metrics(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    alone = _bench(tmp_path, 0)  # no program next to the benchmark
    assert alone.returncode != 0 and alone.stdout == ""

    shutil.copytree(ROOT / "src" / "assocnf", tmp_path / "src" / "assocnf")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = _bench(tmp_path, trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        want = {m["name"]: m["unit"] for m in declared[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want

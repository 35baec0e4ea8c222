"""Run one workload of the assocnf benchmark and print its metrics.

    python3 perfbench/run.py --workload normalize --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: the program is imported from
``src/``.  Each op is one ``assocnf.cli.main(argv)`` call made in this
process with stdout captured: one closed-loop caller on one thread, with GC
enabled during an op and a full collection, untimed, before each op.  Passes
over the workload's fixed inputs repeat until ``--seconds`` have gone by, and
each op's latency is its best time over the passes.
Every output is checked by ``check.py``, which does not import ``assocnf``.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` it starts with one pass that takes tracemalloc peaks, then
alternates untraced passes with passes that put spans around each layer's
public functions, and carries the per-layer metrics.  Metric names come from ``BENCHMARK.json``.  The report
lines print every metric with its unit; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, and a fuller record
goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tracing import Tracer, layer_metrics
from workloads import RATE_UNITS, WARMUP, WORKLOADS, check_op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_PROCESSES = 41  # fresh processes timed for setup_s, this one included
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many samples above

# Metrics printed and recorded but not in BENCHMARK.json: error_rate is 0 on
# a correct program, and each rate applies to one workload only.
REPORT_ONLY = {"error_rate": ("ratio", "lower", 0.0)} | {
    name: (unit, "higher", 0.25) for name, unit in RATE_UNITS.items()
}


def load_cli():
    """Import the checkout's own ``assocnf.cli``, never another copy."""
    sys.path.insert(0, str(SRC))
    import assocnf.cli

    if Path(assocnf.cli.__file__).resolve().parent != (SRC / "assocnf").resolve():
        raise SystemExit("error: imported assocnf from outside the checkout")
    return assocnf.cli


def call(main, argv) -> tuple[float, object, str]:
    """One op: ``(seconds, exit code or exception text, captured stdout)``."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an op that raises is a failed op, not a crash
        rc = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, out.getvalue()


def reference_ms() -> float:
    """Best of three runs of a fixed pure-Python loop, in ms.

    Recorded in the run's metadata, not as a metric: it tells a run made
    while the host was slow from a run of slower code.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def setup(workload: str):
    """Import the program and run one untimed warm-up op.

    Returns the seconds both took and the imported ``assocnf.cli``.
    """
    t0 = time.perf_counter()
    cli = load_cli()
    call(cli.main, WARMUP[workload])
    return time.perf_counter() - t0, cli


def setup_in_fresh_process(workload: str) -> float:
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


class Runner:
    """Runs passes over the ops and checks every output.

    The first pass's outputs are checked in full; every later pass, traced
    or not, must print the same bytes.
    """

    def __init__(self, ops):
        self.ops = ops
        self.first: list[tuple[object, str, str]] = []
        self.reasons: list[str | None] = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def run_pass(self, main) -> list[float]:
        times = []
        for i, op in enumerate(self.ops):
            if op.out_file and os.path.exists(op.out_file):
                os.remove(op.out_file)
            gc.collect()
            seconds, rc, out = call(main, op.argv)
            times.append(seconds)
            file_text = ""
            if op.out_file and os.path.exists(op.out_file):
                file_text = Path(op.out_file).read_text(encoding="utf-8")
            if i == len(self.first):
                self.first.append((rc, out, file_text))
                self.reasons.append(check_op(op, rc, out, file_text))
            if self.first[i] == (rc, out, file_text):
                reason = self.reasons[i]
            else:
                reason = "output differs from the first pass"
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                self.failures[reason] = self.failures.get(reason, 0) + 1
        return times

    def work(self, i: int) -> int:
        """Units of op ``i``'s rate: its declared work, else printed bytes."""
        return self.ops[i].work or len(self.first[i][1].encode("utf-8"))


def timed_metrics(runner: Runner, passes: list[list[float]]) -> tuple[dict, dict]:
    """End-to-end metrics from the timed passes, plus how the tail was taken.

    An op's latency is its best time over the passes: the ops are
    deterministic, so slower repeats measure interference from the rest of
    the machine, not the program.  ``wall_s`` is one pass at those latencies.
    """
    best = [min(p[i] for p in passes) for i in range(len(runner.ops))]
    ranked = sorted(best)
    at_or_below = max(1, len(ranked) - TAIL_BEYOND)
    metrics = {
        "wall_s": sum(best),
        "op_p50_ms": statistics.median(ranked) * 1e3,
        "op_tail_ms": ranked[at_or_below - 1] * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": runner.failed / runner.attempted,
    }
    for rate in RATE_UNITS:
        idx = [i for i, op in enumerate(runner.ops) if op.rate == rate]
        if idx:
            metrics[rate] = sum(runner.work(i) for i in idx) / sum(best[i] for i in idx)
    tail = {
        "percentile": 100 * at_or_below / len(ranked),
        "samples": len(ranked),
        "beyond": len(ranked) - at_or_below,
        "sample": "per-op best latency over passes",
        "passes": len(passes),
    }
    return metrics, tail


def traced_metrics(runner: Runner, cli, seconds: float) -> dict:
    """Per-layer metrics from traced passes, alternated with untraced ones.

    A first pass takes tracemalloc peaks; then rounds of one untraced and
    one traced pass repeat until ``seconds`` have gone by since the start
    (at least one round).  A span's self time is its best over the traced
    passes, and ``tracing_overhead_s`` compares one pass at the ops' best
    latencies traced and untraced.
    """
    modules = {"cli": cli, "oracle": sys.modules["assocnf.oracle"], "rewrite": sys.modules["assocnf.rewrite"]}
    untraced, traced, rounds = [], [], []
    t0 = time.perf_counter()
    with Tracer(modules, peaks=True) as peaks:
        runner.run_pass(cli.main)
    while not rounds or time.perf_counter() - t0 < seconds:
        untraced.append(runner.run_pass(cli.main))
        with Tracer(modules) as spans:
            traced.append(runner.run_pass(spans.span("cli.main", cli.main)))
        rounds.append(spans.totals)
    totals = {
        name: t | {"self_s": min(r[name]["self_s"] for r in rounds), "peak_kib": peaks.totals[name]["peak_kib"]}
        for name, t in rounds[0].items()
    }
    metrics = layer_metrics(totals)
    metrics["tracing_overhead_s"] = sum(map(min, zip(*traced))) - sum(map(min, zip(*untraced)))
    return metrics


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "assocnf" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'assocnf'}; run from a checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        print(setup(args.workload)[0])
        return 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    load_start = os.getloadavg()
    tmp = OUT / "tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        ops = WORKLOADS[args.workload](args.seed, str(tmp))
        own_setup, cli = setup(args.workload)
        setup_times = [own_setup]
        runner = Runner(ops)
        tail, passes, reference = {}, [], []
        if args.trace:
            metrics = traced_metrics(runner, cli, args.seconds)
        else:
            # Fresh-process setups run between passes, spread over the run,
            # so that they meet the same machine load as the timed ops.
            t0 = time.perf_counter()
            while not passes or time.perf_counter() - t0 < args.seconds:
                passes.append(runner.run_pass(cli.main))
                reference.append(reference_ms())
                share = min(1.0, (time.perf_counter() - t0) / args.seconds)
                while len(setup_times) < SETUP_PROCESSES * share:
                    setup_times.append(setup_in_fresh_process(args.workload))
            while len(setup_times) < SETUP_PROCESSES:
                setup_times.append(setup_in_fresh_process(args.workload))
            metrics, tail = timed_metrics(runner, passes)
            metrics["setup_s"] = statistics.median(setup_times)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "gc": f"enabled during ops, collected untimed before each op, thresholds {gc.get_threshold()}",
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "setup_samples_s": setup_times,
        "op_tail": tail,
        "failures": runner.failures,
        "host_reference_ms": reference,
        "pass_op_s": passes,
    }
    units = {m["name"]: m["unit"] for m in wanted} | {k: v[0] for k, v in REPORT_ONLY.items()}
    print(f"meta {json.dumps(meta)}")
    for name, value in metrics.items():
        unit = units.get(name) or "?"
        note = ""
        if name == "error_rate":
            note = f"  ({runner.failed} failed of {runner.attempted} attempted)"
        elif name == "op_tail_ms":
            note = f"  (p{tail['percentile']:.1f} of {tail['samples']} per-op best latencies, {tail['beyond']} beyond)"
        print(f"{name:<40} {value!r:>24} {unit}{note}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: BENCHMARK.json names metrics this run does not make: {missing}", file=sys.stderr)
        return 2
    record = {"meta": meta, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics, "units": units}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

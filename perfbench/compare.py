"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 perfbench/compare.py BASE_RESULTS CHANGE_RESULTS

Each argument is a ``.perfbench/results`` directory that ``run.py`` filled
with untraced runs (``--trace 0``), for example one per seed on the parent
commit and one per seed on the change.  Each row gives both sides' median
and quartiles, the change of the median, and a verdict against the bound in
``BENCHMARK.json`` (report-only metrics use ``run.REPORT_ONLY``):

* ``unresolved`` when either side's spread (quartile distance over median)
  is wider than the bound, unless every change run beats every base run;
* ``worse`` when the median is worse by more than the bound;
* ``better`` when it is better by more than the base's own spread;
* ``same`` otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import REPORT_ONLY, ROOT


def load(directory: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` over the untraced runs."""
    runs: dict[str, dict[str, list[float]]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record["meta"]["trace"]:
            continue
        per_metric = runs.setdefault(record["meta"]["workload"], {})
        for name, value in record["metrics"].items():
            per_metric.setdefault(name, []).append(value)
    return runs


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    b_med, _, _, b_spread = summary(base)
    c_med, _, _, c_spread = summary(change)
    if max(b_spread, c_spread) > bound:
        every_run_better = max(sign * v for v in change) < min(sign * v for v in base)
        return "better" if every_run_better else "unresolved"
    worse_by = sign * (c_med - b_med) / b_med if b_med else sign * c_med
    if worse_by > bound:
        return "worse"
    if -worse_by > b_spread:
        return "better"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rules = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in declared} | REPORT_ONLY
    base, change = load(argv[0]), load(argv[1])
    print(
        f"{'workload':<12} {'metric':<24} {'unit':<12} {'base median [q1, q3]':<36} "
        f"{'change median [q1, q3]':<36} {'change':>8}  verdict"
    )
    for workload in sorted(base.keys() & change.keys()):
        for name in base[workload]:
            if name not in change[workload] or name not in rules:
                continue
            unit, better, bound = rules[name]
            b, c = base[workload][name], change[workload][name]
            (bm, b1, b3, _), (cm, c1, c3, _) = summary(b), summary(c)
            rel = f"{(cm - bm) / bm:+.1%}" if bm else "n/a"
            print(
                f"{workload:<12} {name:<24} {unit:<12} {f'{bm:.6g} [{b1:.6g}, {b3:.6g}]':<36} "
                f"{f'{cm:.6g} [{c1:.6g}, {c3:.6g}]':<36} {rel:>8}  "
                f"{verdict(b, c, better, bound)} (bound {bound:.0%}, n={len(b)}/{len(c)})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

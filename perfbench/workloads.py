"""The three workloads: their ops, warm-up op, rate metrics and output checks.

Each op is one ``assocnf.cli.main(argv)`` call.  Sizes sit on fixed log
grids so that every seed asks for nearly the same amount of work; the seed
picks the shapes, the comb splits, the leaf labels and the op order.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

from check import (
    catalan,
    check_enumerate,
    check_graph,
    check_nf,
    check_quiet,
    check_trace,
    check_verify,
    shape,
)
from gen import chain_term, comb_term, log_sizes, random_term, typical_random_term

# Label shares cycle over each size grid, so every seed gets the same mix of
# unlabeled, half-labeled and labeled terms and the text lengths stay steady.
_SHARES = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    kind: str  # nf | quiet | trace | verify | graph | enumerate
    rate: str = ""  # the rate metric this op counts towards
    work: int = 0  # units of that rate per call; 0 means printed bytes
    term: str = ""
    strategy: str = ""
    n: int = 0
    out_file: str = ""


RATE_UNITS = {
    "shortest_nodes_per_s": "nodes/s",
    "longest_rotations_per_s": "rotations/s",
    "trace_bytes_per_s": "B/s",
    "shapes_per_s": "shapes/s",
}

WARMUP = {
    "normalize": ("nf", "((a*b)*c)"),
    "trace-print": ("trace", "--strategy", "longest", "((a*b)*c)"),
    "verify": ("verify", "--max-n", "3"),
}


def _nf(term: str) -> Op:
    return Op(("nf", term), "nf", "shortest_nodes_per_s", shape(term).size, term)


def _longest_quiet(term: str) -> Op:
    argv = ("trace", "--quiet", "--strategy", "longest", term)
    return Op(argv, "quiet", "longest_rotations_per_s", shape(term).sigma, term, "longest")


def _chain_for_sigma(s: int) -> int:
    """Smallest chain length ``m`` with ``m(m-1)/2 >= s``."""
    return math.ceil((1 + math.sqrt(1 + 8 * s)) / 2)


def _random_with_sigma(s: int, share: float, rng: random.Random) -> str:
    """A uniform random shape whose sigma is within 3% of ``s``.

    Rémy shapes of size n have mean sigma near 0.88·n^1.5; drawing at that
    size and keeping the first draw in the window fixes each op's rotation
    count, so the work per seed stays steady while the shape stays random.
    """
    n = max(2, round((s / 0.88) ** (2 / 3)))
    best, best_gap = "", math.inf
    for _ in range(64):
        term = random_term(n, share, rng)
        gap = abs(shape(term).sigma - s)
        if gap < best_gap:
            best, best_gap = term, gap
        if gap <= s * 0.03:
            break
    return best


def normalize_ops(seed: int, tmp: str) -> list[Op]:
    """Count-only use: ``nf`` and ``trace --quiet --strategy longest``.

    No op takes much over 0.1 s.  On a shared host whose speed swings within
    a second, an op's best time over a run is steady only when the op is
    short and sampled often: with ops of up to 0.7 s (``nf`` at 1200 nodes
    and on a 10^5-node chain, sigma up to 4000) a pass took 3-4 s and the
    run-to-run spread of ``op_tail_ms`` and ``op_p50_ms`` passed 25%.
    Random shapes keep ``nf`` superlinear at these sizes: 460 nodes cost
    more than a 10^4-node chain.
    """
    rng = random.Random(f"normalize:{seed}")
    ops = []
    for i, n in enumerate(log_sizes(16, 600, 10)):
        ops.append(_nf(typical_random_term(n, _SHARES[i % 3], rng)))
    for i, n in enumerate(log_sizes(16, 600, 10)):
        k = round(n * rng.uniform(0.4, 0.6))
        ops.append(_nf(comb_term(k, n - k, _SHARES[i % 3], rng)))
    for i, m in enumerate((10_000, 20_000)):
        ops.append(_nf(chain_term(m, _SHARES[i % 3], rng)))
    for i, s in enumerate(log_sizes(10, 1000, 7)):
        ops.append(_longest_quiet(_random_with_sigma(s, _SHARES[i % 3], rng)))
    for i, s in enumerate(log_sizes(10, 1000, 7)):
        m = _chain_for_sigma(s)
        k = rng.randint(m * 2 // 3, m * 5 // 6)
        ops.append(_longest_quiet(comb_term(k, m, _SHARES[i % 3], rng)))
    for i, s in enumerate(log_sizes(10, 1500, 7)):
        ops.append(_longest_quiet(chain_term(_chain_for_sigma(s), _SHARES[i % 3], rng)))
    rng.shuffle(ops)
    return ops


def trace_print_ops(seed: int, tmp: str) -> list[Op]:
    """Full printed traces for both strategies at n = 10..60."""
    rng = random.Random(f"trace-print:{seed}")
    terms = []
    for i, n in enumerate(log_sizes(10, 60, 6)):
        share = _SHARES[i % 3]
        k = round(n * rng.uniform(0.4, 0.6))
        terms += [
            random_term(n, share, rng),
            comb_term(k, n - k, share, rng),
            chain_term(n, share, rng),
        ]
    ops = [
        Op(("trace", "--strategy", st, t), "trace", "trace_bytes_per_s", 0, t, st)
        for t in terms
        for st in ("shortest", "longest")
    ]
    rng.shuffle(ops)
    return ops


def verify_ops(seed: int, tmp: str) -> list[Op]:
    """Exhaustive checks over every size up to ``verify 9``, ``graph 9`` and
    ``enumerate 11``; the seed only orders the ops.

    ``verify 10`` and ``enumerate 12`` (about 2 s each) are left out: a pass
    of about 1.5 s gives each op some 20 samples in a 40-second run, and the
    per-op best of that many samples stays steady on a shared host.
    """
    ops = []
    for n in range(10):
        path = os.path.join(tmp, f"records{n}.jsonl")
        argv = ("verify", "--max-n", str(n), "--records", path)
        work = sum(catalan(m) for m in range(n + 1))
        ops.append(Op(argv, "verify", "shapes_per_s", work, n=n, out_file=path))
    for n in range(10):
        path = os.path.join(tmp, f"graph{n}.dot")
        ops.append(Op(("graph", str(n), "--out", path), "graph", n=n, out_file=path))
    for n in range(12):
        ops.append(Op(("enumerate", str(n), "--count-only"), "enumerate", n=n))
    random.Random(f"verify:{seed}").shuffle(ops)
    return ops


WORKLOADS = {
    "normalize": normalize_ops,
    "trace-print": trace_print_ops,
    "verify": verify_ops,
}


def check_op(op: Op, rc: object, out: str, file_text: str) -> str | None:
    """``None`` when the op's exit code and output are right, else a reason."""
    if rc != 0:
        return f"exit code {rc!r}"
    try:
        if op.kind == "nf":
            return check_nf(op.term, out)
        if op.kind == "quiet":
            return check_quiet(op.term, op.strategy, out)
        if op.kind == "trace":
            return check_trace(op.term, op.strategy, out)
        if op.kind == "verify":
            return check_verify(op.n, out, file_text)
        if op.kind == "graph":
            return check_graph(op.n, out, file_text)
        return check_enumerate(op.n, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc}"

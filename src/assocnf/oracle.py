"""Exhaustive enumeration and graph-based verification of rewrite properties.

For a fixed size ``n`` the universe of unlabeled shapes is Catalan-sized, so
every quantitative claim about rewriting can be checked outright: build the
directed graph of single rewrite steps over all shapes, then read termination
off acyclicity, confluence off sink uniqueness, and exact sequence lengths off
longest/shortest path searches.  The path searches are deliberately
independent of the strategy implementations they are used to check.

The graph is built on preorder words: a shape of size ``n`` is ``2n+1``
bits, most significant first, 0 for a node and 1 for a leaf.  Two facts:

* word order is canonical order: two canonical texts first differ where a
  subterm starts, ``(`` against ``.``, so words sort as texts do;
* a rotation is one addition: ``(x*y)*z -> x*(y*z)`` turns ``0 0 X ...``
  into ``0 X 0 ...``, that is, adds the bits of ``X``, in place, to the word.

Node ``i`` is the ``i``-th word; edges are index tuples, and searches and
checks run on indices.  Strings are made once per shape, for output: nodes
are canonical term strings (see :func:`assocnf.terms.render`), sorted, so
reports and DOT exports are byte-stable.  Confluence is decided on acyclic
graphs only, since a cycle already fails termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

# parse, measure, find_redexes and apply_at are unused here, but
# perfbench/tracing.py wraps them in this module's namespace.
from .rewrite import apply_at, find_redexes
from .terms import Leaf, Node, Term, left_chain, measure, parse, render

__all__ = [
    "ENUMERATION_CAP",
    "GRAPH_CAP",
    "CapExceeded",
    "RewriteGraph",
    "TermRecord",
    "VerificationReport",
    "enumerate_shapes",
    "build_graph",
    "verify_sn",
    "verify_wcr",
    "verify_unique_nf",
    "longest_paths",
    "shortest_paths",
    "longest_path_from",
    "shortest_path_from",
    "verify_all",
    "report_table",
    "records_jsonl",
    "export_dot",
]

# Universe sizes are Catalan numbers; these caps keep accidental
# exponential blowups out of interactive use.  Both are overridable.
ENUMERATION_CAP = 14
GRAPH_CAP = 12


class CapExceeded(ValueError):
    """Requested size is above the resource cap; pass ``cap=`` to override."""


def _shapes(n: int, cap: int, leaf=None, node=lambda left, right: None) -> list[tuple]:
    """Every shape of size ``n`` as a ``(word, value)`` pair, in word order.

    Built from the split recurrence (left subtree of size ``i``, right of
    size ``n-1-i``), so the count follows the Catalan recurrence.  A value
    is ``leaf`` for a leaf and ``node(left, right)`` for a node, shared by
    equal subtrees; by default only the words are built.
    """
    if n < 0:
        raise ValueError("shape size must be nonnegative")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds enumeration cap {cap}")
    by_size: list[list[tuple]] = [[(1, leaf)]]
    for m in range(1, n + 1):
        shapes = []
        for i in range(m):
            rights = by_size[m - 1 - i]
            # The root's 0 bit leads the word, so it adds nothing to its value.
            shift = 2 * (m - 1 - i) + 1
            for lw, lv in by_size[i]:
                high = lw << shift
                shapes += [(high | rw, node(lv, rv)) for rw, rv in rights]
        by_size.append(shapes)
    shapes = by_size[n]
    shapes.sort(key=itemgetter(0))
    return shapes


def enumerate_shapes(n: int, cap: int = ENUMERATION_CAP) -> list[Term]:
    """All unlabeled shapes with ``n`` internal nodes, sorted by canonical text."""
    return [t for _, t in _shapes(n, cap, Leaf(None), Node)]


def _successors(w: int, nbits: int) -> list[int]:
    """Words one rotation away from the ``nbits``-bit word ``w``.

    One scan from the least significant bit reads the word backwards: a leaf
    pushes its offset, a node pops its left child's lowest offset.  A node
    at ``k`` whose left child is the node at ``k-1`` is a redex; that child's
    left child ``X`` spans offsets ``prev..k-2``, and the rotation adds
    ``w``'s bits there to ``w``.
    """
    lows: list[int] = []  # lowest bit offset of each pending subtree
    out = []
    prev = -1  # lowest offset of the left child of a node at k-1, else -1
    for k in range(nbits):
        if w >> k & 1:
            lows.append(k)
            prev = -1
        else:
            if prev >= 0:
                out.append(w + (w & ((1 << (k - 1)) - (1 << prev))))
            prev = lows.pop()
    return out


@dataclass(eq=False)
class RewriteGraph:
    """Single-step rewrite graph over canonical term strings.

    ``targets[i]`` holds the indices into ``nodes`` of node ``i``'s
    successors, ascending.  ``succ`` is a view derived from it that maps
    each node to ``{successor: 1}``.  Graphs are not changed once built, so
    searches are computed once.
    """

    n: int
    nodes: tuple[str, ...]
    targets: tuple[tuple[int, ...], ...]

    @cached_property
    def succ(self) -> dict[str, dict[str, int]]:
        nodes = self.nodes
        return {
            u: dict.fromkeys([nodes[v] for v in vs], 1)
            for u, vs in zip(nodes, self.targets)
        }

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.targets))

    def sinks(self) -> list[str]:
        return [u for u, vs in zip(self.nodes, self.targets) if not vs]

    @cached_property
    def _topo_order(self) -> list[int] | None:
        """Topological order (Kahn), or ``None`` if the graph has a cycle."""
        targets = self.targets
        indegree = [0] * len(targets)
        for vs in targets:
            for v in vs:
                indegree[v] += 1
        order = [u for u, d in enumerate(indegree) if not d]
        for u in order:
            for v in targets[u]:
                indegree[v] -= 1
                if not indegree[v]:
                    order.append(v)
        return order if len(order) == len(targets) else None

    @cached_property
    def _sink_distance(self) -> list[int | None]:
        """Shortest distance to a sink by reverse BFS; ``None`` if none."""
        pred: list[list[int]] = [[] for _ in self.targets]
        for u, vs in enumerate(self.targets):
            for v in vs:
                pred[v].append(u)
        dist: list[int | None] = [None] * len(pred)
        queue = [u for u, vs in enumerate(self.targets) if not vs]
        for u in queue:
            dist[u] = 0
        for u in queue:
            d = dist[u] + 1
            for w in pred[u]:
                if dist[w] is None:
                    dist[w] = d
                    queue.append(w)
        return dist


def build_graph(n: int, cap: int = GRAPH_CAP) -> RewriteGraph:
    """Materialize the rewrite graph over every shape of size ``n``."""
    if n > cap:
        raise CapExceeded(f"n={n} exceeds graph cap {cap}")
    shapes = _shapes(n, max(cap, ENUMERATION_CAP), ".", "({}*{})".format)
    index = {w: i for i, (w, _) in enumerate(shapes)}.__getitem__
    nbits = 2 * n + 1
    targets = tuple(
        [tuple(sorted(map(index, _successors(w, nbits)))) for w, _ in shapes]
    )
    return RewriteGraph(n=n, nodes=tuple([t for _, t in shapes]), targets=targets)


def verify_sn(g: RewriteGraph) -> bool:
    """Strong normalization over a finite graph: no cycles."""
    return g._topo_order is not None


def verify_wcr(g: RewriteGraph) -> bool:
    """Local confluence: every one-step divergence is joinable.

    On an acyclic graph two nodes are joinable iff they share a reachable
    sink, so one pass computes reachable-sink bitmasks (one bit per sink)
    and each divergence is one ``&``.  Raises ``ValueError`` on a cycle.
    """
    order = g._topo_order
    if order is None:
        raise ValueError("local confluence is checked on acyclic graphs only")
    targets = g.targets
    sinks = [0] * len(targets)
    bit = 1
    for u in reversed(order):
        if targets[u]:
            mask = 0
            for v in targets[u]:
                mask |= sinks[v]
            sinks[u] = mask
        else:
            sinks[u] = bit
            bit <<= 1
    return all(
        sinks[x] & sinks[y] for vs in targets for x, y in combinations(vs, 2)
    )


def verify_unique_nf(g: RewriteGraph) -> bool:
    """Exactly one sink, and every node reaches it."""
    return len(g.sinks()) == 1 and None not in g._sink_distance


def longest_paths(g: RewriteGraph) -> dict[str, int]:
    """Longest path length from each node to a sink, by topological order."""
    order = g._topo_order
    if order is None:
        raise ValueError("longest paths are undefined on a cyclic graph")
    targets = g.targets
    dist = [0] * len(targets)
    for u in reversed(order):
        if targets[u]:
            dist[u] = 1 + max(map(dist.__getitem__, targets[u]))
    return dict(zip(g.nodes, dist))


def shortest_paths(g: RewriteGraph) -> dict[str, int]:
    """Shortest path length from each node to a sink, by reverse BFS.

    Nodes that cannot reach a sink (possible only in cyclic graphs) are
    absent from the result.
    """
    return {u: d for u, d in zip(g.nodes, g._sink_distance) if d is not None}


def _graph_key(g: RewriteGraph, t: Term | str) -> str:
    key = t if isinstance(t, str) else render(t)
    if key not in g.nodes:
        raise ValueError(f"term not in graph: {key}")
    return key


def longest_path_from(g: RewriteGraph, t: Term | str) -> int:
    """Exact longest rewrite distance from ``t`` to the normal-form sink."""
    return longest_paths(g)[_graph_key(g, t)]


def shortest_path_from(g: RewriteGraph, t: Term | str) -> int:
    """Exact shortest rewrite distance from ``t`` to the normal-form sink."""
    return shortest_paths(g)[_graph_key(g, t)]


@dataclass(frozen=True)
class TermRecord:
    """Measures and oracle path lengths for one shape."""

    term: str
    size: int
    sigma: int
    d_rm: int
    longest: int
    shortest: int


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of all checks over every shape of one size."""

    n: int
    records: tuple[TermRecord, ...]
    sn_ok: bool
    wcr_ok: bool
    unique_nf_ok: bool
    longest_matches_sigma: bool
    shortest_matches_formula: bool
    max_longest: int
    max_attained_by: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return (
            self.sn_ok
            and self.wcr_ok
            and self.unique_nf_ok
            and self.longest_matches_sigma
            and self.shortest_matches_formula
            and self.max_longest == self.n * (self.n - 1) // 2
            and render(left_chain(self.n)) in self.max_attained_by
        )


def _measures(left: tuple, right: tuple) -> tuple[int, int, int]:
    """``(size, sigma, d_rm)`` of a node from those of its children."""
    return left[0] + right[0] + 1, left[1] + right[1] + left[0], right[2] + 1


def verify_all(n_max: int, cap: int = GRAPH_CAP) -> list[VerificationReport]:
    """Run every check for each size ``0..n_max`` and report per size.

    A report passes iff termination, local confluence and sink uniqueness
    hold, the path oracles match ``sigma`` and ``size - d_rm`` on every
    shape, and the maximal longest path is ``n(n-1)/2``, attained by the
    left chain.
    """
    reports = []
    for n in range(n_max + 1):
        g = build_graph(n, cap=cap)
        longest = longest_paths(g)
        shortest = shortest_paths(g)
        # Both lists are in word order, so each shape meets its own key.
        shapes = _shapes(n, max(cap, ENUMERATION_CAP), (0, 0, 0), _measures)
        records = [
            TermRecord(key, size, sig, d_rm, longest[key], shortest[key])
            for key, (_, (size, sig, d_rm)) in zip(g.nodes, shapes)
        ]
        max_longest = max(r.longest for r in records)
        reports.append(
            VerificationReport(
                n=n,
                records=tuple(records),
                sn_ok=verify_sn(g),
                wcr_ok=verify_wcr(g),
                unique_nf_ok=verify_unique_nf(g),
                longest_matches_sigma=all(r.longest == r.sigma for r in records),
                shortest_matches_formula=all(
                    r.shortest == r.size - r.d_rm for r in records
                ),
                max_longest=max_longest,
                max_attained_by=tuple(
                    r.term for r in records if r.longest == max_longest
                ),
            )
        )
    return reports


def _flag(ok: bool) -> str:
    return "ok" if ok else "FAIL"


def report_table(reports: list[VerificationReport]) -> str:
    """Human-readable per-size table, one row per report."""
    header = (
        f"{'n':>3} {'shapes':>8} {'sn':>4} {'wcr':>4} {'unique_nf':>9} "
        f"{'longest':>7} {'shortest':>8} {'max_longest':>11} {'result':>6}"
    )
    lines = [header]
    for r in reports:
        lines.append(
            f"{r.n:>3} {len(r.records):>8} {_flag(r.sn_ok):>4} "
            f"{_flag(r.wcr_ok):>4} {_flag(r.unique_nf_ok):>9} "
            f"{_flag(r.longest_matches_sigma):>7} "
            f"{_flag(r.shortest_matches_formula):>8} "
            f"{r.max_longest:>11} {'PASS' if r.passed else 'FAIL':>6}"
        )
    return "\n".join(lines) + "\n"


def records_jsonl(reports: list[VerificationReport]) -> str:
    """Machine-readable form: one JSON object per shape per line.

    Lines are formatted directly, quoting with ``json.dumps``'s escaper.
    """
    lines = [
        f'{{"term": {_quote(rec.term)}, "n": {rec.size}, "sigma": {rec.sigma}, '
        f'"d_rm": {rec.d_rm}, "longest": {rec.longest}, "shortest": {rec.shortest}}}'
        for r in reports
        for rec in r.records
    ]
    return "\n".join(lines) + "\n"


def export_dot(g: RewriteGraph) -> str:
    """DOT text for ``g``: sorted nodes and edges, sinks double-bordered."""
    nodes = g.nodes
    lines = ["digraph rewrites {"]
    lines += [
        f'  "{u}";' if vs else f'  "{u}" [peripheries=2];'
        for u, vs in zip(nodes, g.targets)
    ]
    for u, vs in zip(nodes, g.targets):
        lines += [f'  "{u}" -> "{nodes[v]}";' for v in vs]
    lines.append("}")
    return "\n".join(lines) + "\n"

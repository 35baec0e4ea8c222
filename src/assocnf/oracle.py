"""Exhaustive enumeration and graph-based verification of rewrite properties.

For a fixed size ``n`` the universe of unlabeled shapes is Catalan-sized, so
every quantitative claim about rewriting can be checked outright: build the
directed graph of single rewrite steps over all shapes, then read termination
off edges that all ascend in node order, confluence off sink uniqueness, and
exact sequence lengths off longest/shortest path searches.  The path searches
are deliberately independent of the strategy implementations they are used to
check.

The graph is built on preorder words: a shape of size ``n`` is ``2n+1``
bits, most significant first, 0 for a node and 1 for a leaf.  Two facts:

* word order is canonical order: two canonical texts first differ where a
  subterm starts, ``(`` against ``.``, so words sort as texts do;
* a rotation is one addition: ``(x*y)*z -> x*(y*z)`` turns ``0 0 X ...``
  into ``0 X 0 ...``, that is, adds the bits of ``X``, in place, to the word.
  That value is the rotation's amount, and each shape's amounts are built
  from its children's, so no word is scanned for them.

Every shape list comes from one split recurrence, ``_split``, with a join
per caller: ``_shapes`` builds words and values, :func:`build_graph` words,
texts and amounts, and ``_count`` nothing at all, so the count that
``enumerate --count-only`` prints holds one shared reference per shape.

Node ``i`` is the ``i``-th word; edges are index tuples, and searches and
checks run on indices.  Strings are made once per shape, for output: nodes
are canonical term strings (see :func:`assocnf.terms.render`), sorted, so
reports and DOT exports are byte-stable.  Every edge goes to a larger word,
that is, a larger index, so index order is a topological order and no
search needs to find one.  :func:`verify_sn` checks that every edge ascends;
every other search and check relies on it and raises ``ValueError`` on an
edge that does not ascend.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import combinations
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
# build_graph keeps the rotation amounts of all smaller shapes: a process
# peaks near 45 MiB at n = 11 and 130 MiB at n = 12 (37 and 97 without).
ENUMERATION_CAP = 14
GRAPH_CAP = 12


class CapExceeded(ValueError):
    """Requested size is above the resource cap; pass ``cap=`` to override."""


def _split(n: int, cap: int, leaf, join) -> list:
    """Every shape of size ``n`` as an item, in split order.

    Left subtree of size ``i``, right of size ``n-1-i``, so the count follows
    the Catalan recurrence.  ``join(left, rights, shift, m)`` gives the size-m
    items over ``left``, one per item of ``rights`` (words ``shift`` bits).
    """
    if n < 0:
        raise ValueError("shape size must be nonnegative")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds enumeration cap {cap}")
    by_size = [[leaf]]
    for m in range(1, n + 1):
        items = []
        for i in range(m):
            rights = by_size[m - 1 - i]
            # The root's 0 bit leads the word, so it adds nothing to its value.
            shift = 2 * (m - 1 - i) + 1
            for left in by_size[i]:
                items += join(left, rights, shift, m)
        by_size.append(items)
    return by_size[n]


def _shapes(n: int, cap: int, leaf, node) -> list[tuple]:
    """Every shape of size ``n`` as a ``(word, value)`` pair, in word order.

    A value is ``leaf`` for a leaf and ``node(left, right)`` for a node,
    shared by equal subtrees.
    """

    def join(left, rights, shift, m):
        high, lv = left[0] << shift, left[1]
        return [(high | rw, node(lv, rv)) for rw, rv in rights]

    shapes = _split(n, cap, (1, leaf), join)
    shapes.sort(key=itemgetter(0))
    return shapes


def _count(n: int, cap: int) -> int:
    """The number of shapes of size ``n``, with no word or value built.

    Each item is one shared reference to a right-hand item, so a size's list
    holds one slot per shape.
    """
    return len(_split(n, cap, None, lambda left, rights, shift, m: rights))


def enumerate_shapes(n: int, cap: int = ENUMERATION_CAP) -> list[Term]:
    """All unlabeled shapes with ``n`` internal nodes, sorted by canonical text."""
    return [t for _, t in _shapes(n, cap, Leaf(None), Node)]


class RewriteGraph(namedtuple("RewriteGraph", "n nodes targets")):
    """Single-step rewrite graph over canonical term strings.

    ``targets[i]`` holds the indices into ``nodes`` of node ``i``'s
    successors, ascending, and every one is larger than ``i``: the searches
    run over the nodes in reverse index order, and raise ``ValueError`` on
    a graph that breaks this.  ``succ`` is a view derived from it that maps
    each node to ``{successor: 1}``.  Graphs are not changed once built, so
    searches are computed once.  No ``__slots__``: the cached searches live
    in the instance ``__dict__``.
    """

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
    def _ascends(self) -> bool:
        """Every edge goes to a larger index, so index order is topological.

        Reads every edge: a hand-built graph's target tuples need not be
        sorted.
        """
        return all(u < v for u, vs in enumerate(self.targets) for v in vs)

    @property
    def _reverse_order(self) -> range:
        """Each node after its successors; the one place a bad edge raises."""
        if not self._ascends:
            raise ValueError("the rewrite graph has an edge that does not ascend")
        return range(len(self.targets) - 1, -1, -1)

    def _fold(self, pick) -> list[int]:
        """Distance to a sink: 0 at sinks, else 1 + ``pick`` of the successors'."""
        targets = self.targets
        dist = [0] * len(targets)
        for u in self._reverse_order:
            if targets[u]:
                dist[u] = 1 + pick(map(dist.__getitem__, targets[u]))
        return dist

    @cached_property
    def _longest_distance(self) -> list[int]:
        """Longest distance to a sink."""
        return self._fold(max)

    @cached_property
    def _sink_distance(self) -> list[int]:
        """Shortest distance to a sink."""
        return self._fold(min)


def build_graph(n: int, cap: int = GRAPH_CAP) -> RewriteGraph:
    """Materialize the rewrite graph over every shape of size ``n``.

    The amounts of ``l*r`` are those of ``r``, then those of ``l`` shifted by
    ``bits(r)``, then, if ``l = x*y``, the root's ``word(x) << (bits(y) +
    bits(r))``.  They ascend, so targets need no sort: ``r``'s are below
    ``2**bits(r)``, and one inside ``l`` adds a left-left subtree, which never
    holds the last leaf of its ``x`` or ``y``, so it is below the root's.
    """
    if n > cap:
        raise CapExceeded(f"n={n} exceeds graph cap {cap}")

    # Below n a shape is (word, text, amounts, root amount as a left child,
    # unshifted; () for the leaf); at n, amounts stay as r's and l's shifted.
    def join(left, rights, shift, m):
        lw, lt, la, root = left
        high = lw << shift
        ls = tuple([a << shift for a in la] + [root << shift]) if root else ()
        if m < n:
            return [(high | rw, f"({lt}*{rt})", ra + ls, high) for rw, rt, ra, _ in rights]
        return [(high | rw, f"({lt}*{rt})", ra, ls) for rw, rt, ra, _ in rights]

    shapes = _split(n, cap, (1, ".", (), ()), join)
    shapes.sort(key=itemgetter(0))
    index = {s[0]: i for i, s in enumerate(shapes)}
    targets = tuple(
        [tuple([index[w + a] for a in ra + ls]) for w, _, ra, ls in shapes]
    )
    return RewriteGraph(n=n, nodes=tuple([s[1] for s in shapes]), targets=targets)


def verify_sn(g: RewriteGraph) -> bool:
    """Strong normalization: the node index rises along every edge.

    No rewrite sequence can then be longer than the node count, which is the
    termination proof.  A graph with an edge to a smaller index gives False,
    even without a cycle.
    """
    return g._ascends


def verify_wcr(g: RewriteGraph) -> bool:
    """Local confluence: every one-step divergence is joinable.

    On an acyclic graph two nodes are joinable iff they share a reachable
    sink, so one pass computes reachable-sink bitmasks (one bit per sink)
    and each divergence is one ``&``.  Raises ``ValueError`` on an edge that
    does not ascend.
    """
    targets = g.targets
    sinks = [0] * len(targets)
    bit = 1
    for u in g._reverse_order:
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
    """Exactly one sink, which every node of an acyclic graph then reaches.

    Raises ``ValueError`` on an edge that does not ascend.
    """
    g._reverse_order  # raises on an edge that does not ascend
    return len(g.sinks()) == 1


def longest_paths(g: RewriteGraph) -> dict[str, int]:
    """Longest path length from each node to a sink."""
    return dict(zip(g.nodes, g._longest_distance))


def shortest_paths(g: RewriteGraph) -> dict[str, int]:
    """Shortest path length from each node to a sink."""
    return dict(zip(g.nodes, g._sink_distance))


def _graph_index(g: RewriteGraph, t: Term | str) -> int:
    key = t if isinstance(t, str) else render(t)
    try:
        return g.nodes.index(key)
    except ValueError:
        raise ValueError(f"term not in graph: {key}") from None


def longest_path_from(g: RewriteGraph, t: Term | str) -> int:
    """Exact longest rewrite distance from ``t`` to the normal-form sink."""
    return g._longest_distance[_graph_index(g, t)]


def shortest_path_from(g: RewriteGraph, t: Term | str) -> int:
    """Exact shortest rewrite distance from ``t`` to the normal-form sink."""
    return g._sink_distance[_graph_index(g, t)]


class TermRecord(namedtuple("TermRecord", "term size sigma d_rm longest shortest")):
    """Measures and oracle path lengths for one shape."""

    __slots__ = ()


class VerificationReport(
    namedtuple(
        "VerificationReport",
        "n records sn_ok wcr_ok unique_nf_ok longest_matches_sigma"
        " shortest_matches_formula max_longest max_attained_by",
    )
):
    """Outcome of all checks over every shape of one size."""

    __slots__ = ()

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
    left chain.  Raises ``ValueError`` if ``n_max`` is negative, and
    :class:`CapExceeded` before building any graph if a size above ``cap``
    is asked for.
    """
    if n_max < 0:
        raise ValueError("shape size must be nonnegative")
    # The first size over the cap, as build_graph would name it.
    if (over := max(cap + 1, 0)) <= n_max:
        raise CapExceeded(f"n={over} exceeds graph cap {cap}")
    reports = []
    for n in range(n_max + 1):
        g = build_graph(n, cap=cap)
        # All four lists are in word order, so each shape meets its own node.
        shapes = _shapes(n, cap, (0, 0, 0), _measures)
        records = [
            TermRecord(key, size, sig, d_rm, longest, shortest)
            for key, longest, shortest, (_, (size, sig, d_rm)) in zip(
                g.nodes, g._longest_distance, g._sink_distance, shapes
            )
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
    # Imported here, not at the top: json costs every CLI start-up a few ms.
    from json.encoder import encode_basestring_ascii as quote

    lines = [
        f'{{"term": {quote(rec.term)}, "n": {rec.size}, "sigma": {rec.sigma}, '
        f'"d_rm": {rec.d_rm}, "longest": {rec.longest}, "shortest": {rec.shortest}}}'
        for r in reports
        for rec in r.records
    ]
    return "\n".join([*lines, ""])


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
    lines += ("}", "")  # the text ends with a newline
    return "\n".join(lines)

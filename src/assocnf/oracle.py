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
per caller: :func:`enumerate_shapes` builds words and terms,
:func:`build_graph` words, texts and amounts, and :func:`verify_all` words
and measures.  The recurrence yields each size in word order as it
completes it, so no caller sorts, and ``verify_all`` runs it once for every
size.  It checks no cap; each caller checks its own.  The ``enumerate``
command holds no shape: ``_count`` is the Catalan number's closed form, and
``_texts`` steps from each text to the next in text order.

Node ``i`` is the ``i``-th word; edges are index tuples, and searches and
checks run on indices.  Strings are made once per shape, for output: nodes
are canonical term strings (see :func:`assocnf.terms.render`), sorted, so
reports and DOT exports are byte-stable.  Every edge goes to a larger word,
that is, a larger index, so index order is a topological order and no
search needs to find one.  One sweep over the nodes in reverse order reads
each edge once and gives every search and check: the longest and shortest
distances, the sink count, and local confluence, which one sink label per
node and one compare per edge decide, so no pair of successors is compared.
The sweep takes O(nodes + edges) time and O(nodes) memory on every graph.
:func:`verify_sn` checks that every edge goes to a larger index in range;
every other search and check relies on it and raises ``ValueError`` on an
edge that does not.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterator
from functools import cached_property
from math import comb
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


def _check_size(n: int, cap: int, kind: str) -> None:
    """Refuse a negative ``n`` whatever the cap, then an ``n`` above ``cap``."""
    if n < 0:
        raise ValueError("shape size must be nonnegative")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds {kind} cap {cap}")


def _split(n: int, leaf, join) -> Iterator[list]:
    """Every shape of each size ``0..n`` as an item, in word order.

    Left subtree of size ``i``, right of size ``n-1-i``, so the count follows
    the Catalan recurrence.  ``join(left, rights, shift, m)`` gives the size-m
    items over ``left``, one per item of ``rights`` (words ``shift`` bits).
    Items are ``(word, ...)`` tuples.  Each size's list is sorted by word as
    the recurrence completes it, before it is yielded and before larger sizes
    read it: with every smaller size in word order it arrives as one sorted
    run per left-subtree size, which the sort merges.  One run serves every
    size.  It checks no size: each caller checks its own cap first.
    """
    by_size = [[leaf]]
    yield by_size[0]
    for m in range(1, n + 1):
        items = []
        for i in range(m):
            rights = by_size[m - 1 - i]
            # The root's 0 bit leads the word, so it adds nothing to its value.
            shift = 2 * (m - 1 - i) + 1
            for left in by_size[i]:
                items += join(left, rights, shift, m)
        items.sort(key=itemgetter(0))
        by_size.append(items)
        yield items


def _count(n: int, cap: int) -> int:
    """The number of shapes of size ``n``, the Catalan number in closed form."""
    _check_size(n, cap, "enumeration")
    return comb(2 * n, n) // (n + 1)


def _texts(n: int, cap: int) -> Iterator[str]:
    """Every shape of size ``n`` as a line of canonical text, in text order.

    ``(`` sorts before ``.``, so text order runs from the left chain to the
    right chain, and each line's successor turns the last ``(`` that can
    become a leaf into ``.``, then completes the text as early as it can.
    Walking the text back from its end keeps the nodes open there: a node is
    pushed at its ``)``, waits at its ``*`` and is popped at its ``(``.  The
    first ``(`` whose pop still leaves a waiting node open is the one to cut;
    a walk that reaches the start was over the right chain, the last line.
    The cut text takes a ``.``, then one piece per open node, innermost
    first: ``)`` for a node whose ``*`` is behind, ``*.)`` for a waiting one,
    except that the innermost waiting node takes as its right subtree a left
    chain of every node from the cut on.  Only the last text is kept, so the
    memory is O(n) characters, whatever the shape count.
    """
    _check_size(n, cap, "enumeration")
    text = "(" * n + "." + "*.)" * n
    while True:
        yield text + "\n"
        # The pieces that close the nodes open at p, outermost first;
        # stars - freed of them wait, their ( behind p and their * ahead.
        stack, stars, freed = [], 0, 0
        for p in range(len(text) - 1, -1, -1):
            c = text[p]
            if c == ")":
                stack.append(")")
            elif c == "*":
                stack[-1] = "*.)"
                stars += 1
            elif c == "(":
                stack.pop()
                freed += 1
                if stars > freed:
                    break
        else:
            return
        # Innermost first, the first "*." is the innermost waiting node's.
        chain = "*" + "(" * freed + "." + "*.)" * freed
        text = text[:p] + "." + "".join(reversed(stack)).replace("*.", chain, 1)


def enumerate_shapes(n: int, cap: int = ENUMERATION_CAP) -> list[Term]:
    """All unlabeled shapes with ``n`` internal nodes, sorted by canonical text.

    Equal subtrees are one object: each child is taken from one list of every
    smaller size's shapes, and every leaf is one ``Leaf``.
    """
    _check_size(n, cap, "enumeration")

    def join(left, rights, shift, m):
        high, lt = left[0] << shift, left[1]
        return [(high | rw, Node(lt, rt)) for rw, rt in rights]

    shapes = deque(_split(n, (1, Leaf(None)), join), maxlen=1).pop()
    return [t for _, t in shapes]


# The sweep's results: the sink count, whether every one-step divergence is
# joinable, and each node's longest and shortest distance to a sink.
_Sweep = namedtuple("_Sweep", "sink_count joinable longest shortest")


class RewriteGraph(namedtuple("RewriteGraph", "n nodes targets")):
    """Single-step rewrite graph over canonical term strings.

    ``targets[i]`` holds the indices into ``nodes`` of node ``i``'s
    successors, ascending, and every one is larger than ``i``.  One sweep
    over the nodes in reverse index order, each after its successors, reads
    every edge once and gives every search and check, with one sink label
    per node: O(nodes + edges) time and O(nodes) memory on every graph.  It
    raises ``ValueError`` at the first edge that does not go to a larger
    index in range, so every search and check does too, except
    :func:`verify_sn`, which answers False.  A node's successors as texts
    are ``[nodes[v] for v in targets[i]]``.  Graphs are not changed once
    built, so a sweep that finishes runs once.  No ``__slots__``: the cached
    sweep lives in the instance ``__dict__``.
    """

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.targets))

    @cached_property
    def _sweep(self) -> _Sweep:
        """Every search and check in one reverse pass.

        Each node carries one sink label: a sink its own, any other node its
        first successor's.  The graph is locally confluent iff every
        successor of every node carries the node's label.  If they do, each
        node reaches only its label's sink, by induction from the sinks, and
        every one-step divergence joins there.  On an acyclic graph that is
        also necessary: were every divergence joinable, each node would reach
        one sink only (Newman's lemma), the one its label names.  So no pair
        of successors is ever compared, and the pass takes O(nodes + edges)
        time and O(nodes) memory.  A hand-built graph's target tuples need
        not be sorted, so each edge is checked before its target's label is
        read: a negative index would read one without an error.  Raises
        ``ValueError`` at the first edge that does not go to a larger index
        in range; nothing is cached then, so every read raises.
        """
        targets = self.targets
        count = len(targets)
        label, longest, shortest = [0] * count, [0] * count, [0] * count
        sinks, joinable = 0, True
        for u in range(count - 1, -1, -1):
            vs = targets[u]
            if not vs:
                label[u] = sinks
                sinks += 1
                continue
            for v in vs:
                if not u < v < count:
                    raise ValueError("the rewrite graph has an edge that does not ascend")
                if label[v] != label[vs[0]]:
                    joinable = False
            label[u] = label[vs[0]]
            longest[u] = 1 + max(map(longest.__getitem__, vs))
            shortest[u] = 1 + min(map(shortest.__getitem__, vs))
        return _Sweep(sinks, joinable, longest, shortest)


def build_graph(n: int, cap: int = GRAPH_CAP) -> RewriteGraph:
    """Materialize the rewrite graph over every shape of size ``n``.

    The amounts of ``l*r`` are those of ``r``, then those of ``l`` shifted by
    ``bits(r)``, then, if ``l = x*y``, the root's ``word(x) << (bits(y) +
    bits(r))``.  They ascend, so targets need no sort: ``r``'s are below
    ``2**bits(r)``, and one inside ``l`` adds a left-left subtree, which never
    holds the last leaf of its ``x`` or ``y``, so it is below the root's.
    """
    _check_size(n, cap, "graph")

    # Below n a shape is (word, text, amounts, root amount as a left child,
    # unshifted; () for the leaf); at n, amounts stay as r's and l's shifted.
    def join(left, rights, shift, m):
        lw, lt, la, root = left
        high = lw << shift
        ls = tuple([a << shift for a in la] + [root << shift]) if root else ()
        if m < n:
            return [(high | rw, f"({lt}*{rt})", ra + ls, high) for rw, rt, ra, _ in rights]
        return [(high | rw, f"({lt}*{rt})", ra, ls) for rw, rt, ra, _ in rights]

    shapes = deque(_split(n, (1, ".", (), ()), join), maxlen=1).pop()
    index = {s[0]: i for i, s in enumerate(shapes)}
    targets = tuple(
        [tuple([index[w + a] for a in ra + ls]) for w, _, ra, ls in shapes]
    )
    return RewriteGraph(n=n, nodes=tuple([s[1] for s in shapes]), targets=targets)


def verify_sn(g: RewriteGraph) -> bool:
    """Strong normalization: the node index rises along every edge.

    No rewrite sequence can then be longer than the node count, which is the
    termination proof.  A graph with an edge to a smaller index, or to no
    node at all, gives False, even without a cycle.  This is the one reader
    of the sweep that turns its ``ValueError`` into an answer.
    """
    try:
        g._sweep
    except ValueError:
        return False
    return True


def verify_wcr(g: RewriteGraph) -> bool:
    """Local confluence: every one-step divergence is joinable.

    On an acyclic graph that holds iff every node reaches exactly one sink,
    which the sweep reads off one sink label per node and one compare per
    edge, in O(nodes + edges) time and O(nodes) memory.  Raises
    ``ValueError`` on an edge that does not ascend.
    """
    return g._sweep.joinable


def verify_unique_nf(g: RewriteGraph) -> bool:
    """Exactly one sink, which every node of an acyclic graph then reaches.

    Raises ``ValueError`` on an edge that does not ascend.
    """
    return g._sweep.sink_count == 1


def longest_paths(g: RewriteGraph) -> dict[str, int]:
    """Longest path length from each node to a sink."""
    return dict(zip(g.nodes, g._sweep.longest))


def shortest_paths(g: RewriteGraph) -> dict[str, int]:
    """Shortest path length from each node to a sink."""
    return dict(zip(g.nodes, g._sweep.shortest))


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
    def _checks(self) -> tuple[bool, ...]:
        """The five check flags, in the table's column order."""
        return (
            self.sn_ok,
            self.wcr_ok,
            self.unique_nf_ok,
            self.longest_matches_sigma,
            self.shortest_matches_formula,
        )

    @property
    def passed(self) -> bool:
        return (
            all(self._checks)
            and self.max_longest == self.n * (self.n - 1) // 2
            and render(left_chain(self.n)) in self.max_attained_by
        )


def _join_measures(left, rights, shift, m):
    """``_split``'s join for ``(word, size, sigma, d_rm)`` items."""
    lw, size, sigma, _ = left
    high, base = lw << shift, sigma + size
    return [(high | rw, m, base + rs, rd + 1) for rw, _, rs, rd in rights]


def verify_all(n_max: int, cap: int = GRAPH_CAP) -> list[VerificationReport]:
    """Run every check for each size ``0..n_max`` and report per size.

    A report passes iff termination, local confluence and sink uniqueness
    hold, the path oracles match ``sigma`` and ``size - d_rm`` on every
    shape, and the maximal longest path is ``n(n-1)/2``, attained by the
    left chain.  A graph with an edge that does not ascend gets no report:
    the path lengths are read off the sweep that checks the edges, so it
    raises ``ValueError`` first, and ``sn_ok`` is true in every report
    returned.  Raises ``ValueError`` if ``n_max`` is negative, and
    :class:`CapExceeded` before building any graph if a size above ``cap``
    is asked for.
    """
    # Sizes 0..n_max hold one over the cap iff the first one over it,
    # the size build_graph would name, is at most n_max.
    _check_size(min(n_max, max(cap + 1, 0)), cap, "graph")
    # One recurrence gives every size's measures, in word order, as the
    # graph's nodes are.
    measures = _split(n_max, (1, 0, 0, 0), _join_measures)
    reports = []
    for n in range(n_max + 1):
        # The graph first: size n's measures are made after build_graph(n)
        # returns, so they stay out of its peak.  The other order raised
        # verify_all(10)'s peak from 1.35x to 1.59x build_graph(10)'s.
        g = build_graph(n, cap=cap)
        shapes = next(measures)
        sweep = g._sweep
        records = [
            TermRecord(key, size, sig, d_rm, longest, shortest)
            for key, longest, shortest, (_, size, sig, d_rm) in zip(
                g.nodes, sweep.longest, sweep.shortest, shapes
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


# One line of verify's table, the header's and every report's.
_ROW = "{:>3} {:>8} {:>4} {:>4} {:>9} {:>7} {:>8} {:>11} {:>6}\n"


def report_table(reports: list[VerificationReport]) -> str:
    """Human-readable per-size table, one row per report."""
    rows = [_ROW.format(*"n shapes sn wcr unique_nf longest shortest max_longest result".split())]
    for r in reports:
        flags = ["ok" if ok else "FAIL" for ok in r._checks]
        result = "PASS" if r.passed else "FAIL"
        rows.append(_ROW.format(r.n, len(r.records), *flags, r.max_longest, result))
    return "".join(rows)


def records_jsonl(reports: list[VerificationReport]) -> Iterator[str]:
    """Machine-readable form: one JSON object per shape, one line each.

    Yields the lines one at a time, each ending in ``"\\n"``, so a writer
    never holds them all.  Lines are formatted directly, quoting with
    ``json.dumps``'s escaper.
    """
    # Imported here, not at the top: json costs every CLI start-up a few ms.
    from json.encoder import encode_basestring_ascii as quote

    return (
        f'{{"term": {quote(rec.term)}, "n": {rec.size}, "sigma": {rec.sigma}, '
        f'"d_rm": {rec.d_rm}, "longest": {rec.longest}, "shortest": {rec.shortest}}}\n'
        for r in reports
        for rec in r.records
    )


def export_dot(g: RewriteGraph) -> Iterator[str]:
    """DOT text for ``g``: sorted nodes and edges, sinks double-bordered.

    Yields the text one line at a time, each ending in ``"\\n"``: the header,
    the nodes, the edges, then ``"}"``.
    """
    nodes, targets = g.nodes, g.targets
    yield "digraph rewrites {\n"
    for u, vs in zip(nodes, targets):
        yield f'  "{u}";\n' if vs else f'  "{u}" [peripheries=2];\n'
    for u, vs in zip(nodes, targets):
        for v in vs:
            yield f'  "{u}" -> "{nodes[v]}";\n'
    yield "}\n"

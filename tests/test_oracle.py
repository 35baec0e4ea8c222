"""Enumeration, rewrite graphs, and the graph-based verification oracles."""

import itertools
import json
import random
from collections import Counter
from functools import cache
from math import comb, factorial, prod
from operator import le

import pytest
from hypothesis import given, strategies as st

from assocnf.oracle import (
    ENUMERATION_CAP,
    CapExceeded,
    RewriteGraph,
    TermRecord,
    VerificationReport,
    build_graph,
    enumerate_shapes,
    export_dot,
    longest_paths,
    records_jsonl,
    report_table,
    shortest_paths,
    verify_all,
    verify_sn,
    verify_unique_nf,
    verify_wcr,
    _count,
    _join_measures,
    _shapes,
    _split,
)
from assocnf.rewrite import apply_at, find_redexes
from assocnf.terms import (
    depth_rightmost,
    left_chain,
    measure,
    parse,
    render,
    right_chain,
    sigma,
    size,
)

from helpers import (
    ballot_counts,
    catalan_counts,
    first_leaves,
    preorder_word,
    q_catalan,
    random_shape,
    scan_successors,
    sigma_counts,
)


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts_follow_catalan_recurrence():
    counts = catalan_counts(10)
    for n in range(11):
        assert len(enumerate_shapes(n)) == _count(n, ENUMERATION_CAP) == counts[n]


def test_count_is_the_closed_form_catalan_number():
    # independent of the split recurrence that _count and catalan_counts share
    for n in range(61):
        assert _count(n, 60) == comb(2 * n, n) // (n + 1), n


def test_enumeration_is_unique_and_sorted():
    for n in range(7):
        keys = [render(t) for t in enumerate_shapes(n)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert all(size(t) == n for t in enumerate_shapes(n))


def test_enumeration_base_case():
    assert [render(t) for t in enumerate_shapes(0)] == ["."]


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_shapes(15)
    with pytest.raises(CapExceeded):
        enumerate_shapes(6, cap=5)
    assert len(enumerate_shapes(5, cap=5)) == 42


# ---------------------------------------------------------------------------
# preorder words

def test_word_order_is_canonical_order():
    counts = catalan_counts(10)
    for n in range(11):
        texts = [render(t) for t in enumerate_shapes(n)]
        assert len(set(texts)) == len(texts) == counts[n]
        assert texts == sorted(texts) == sorted(texts, key=preorder_word)
        words = [w for w, _ in _shapes(n, ENUMERATION_CAP, None, lambda left, right: None)]
        assert words == [preorder_word(x) for x in texts]


def test_word_kernel_matches_the_rewrite_rule():
    for n in range(9):
        shapes = enumerate_shapes(n)
        text_of = {preorder_word(render(t)): render(t) for t in shapes}
        successors = _successors(build_graph(n))
        for t in shapes:
            key = render(t)
            rotated = [text_of[v] for v in scan_successors(preorder_word(key), 2 * n + 1)]
            expected = {render(apply_at(t, p)) for p in find_redexes(t)}
            assert len(rotated) == len(find_redexes(t)), key
            assert set(rotated) == expected, key
            assert successors[key] == sorted(expected), key
    # and on random shapes at the size criterion 4 searches with this kernel
    counts = catalan_counts(12)
    rng = random.Random(1212)
    for _ in range(200):
        t = random_shape(12, rng, counts)
        key = render(t)
        rotated = scan_successors(preorder_word(key), 25)
        expected = {render(apply_at(t, p)) for p in find_redexes(t)}
        assert len(rotated) == len(find_redexes(t)), key
        assert set(rotated) == {preorder_word(text) for text in expected}, key


# ---------------------------------------------------------------------------
# graph construction


def _successors(g):
    """Each node's successors as texts: its targets mapped to ``g.nodes``."""
    return {u: [g.nodes[v] for v in vs] for u, vs in zip(g.nodes, g.targets)}


def test_graph_n1():
    g = build_graph(1)
    assert g.nodes == ("(.*.)",)
    assert g.edge_count == 0
    assert g.sinks() == ["(.*.)"]


def test_graph_n2():
    g = build_graph(2)
    assert g.nodes == ("((.*.)*.)", "(.*(.*.))")
    assert _successors(g) == {"((.*.)*.)": ["(.*(.*.))"], "(.*(.*.))": []}


def test_graph_n3_pentagon():
    g = build_graph(3)
    assert len(g.nodes) == 5
    assert _successors(g) == {
        "(((.*.)*.)*.)": ["((.*(.*.))*.)", "((.*.)*(.*.))"],
        "((.*(.*.))*.)": ["(.*((.*.)*.))"],
        "((.*.)*(.*.))": ["(.*(.*(.*.)))"],
        "(.*((.*.)*.))": ["(.*(.*(.*.)))"],
        "(.*(.*(.*.)))": [],
    }
    assert g.sinks() == [render(right_chain(3))]


@pytest.fixture(scope="module")
def tamari_graphs():
    """The rewrite graphs for n = 1..11, built once for the lattice gates."""
    return {n: build_graph(n) for n in range(1, 12)}


def test_edge_count_is_the_tamari_cover_count(tamari_graphs):
    # the rewrite graph is the Hasse diagram of the Tamari lattice
    counts = catalan_counts(11)
    for n in range(1, 12):
        assert tamari_graphs[n].edge_count == (n - 1) * counts[n] // 2, n


def test_recurrence_edges_match_the_scan_kernel(tamari_graphs):
    # build_graph folds rotation amounts through the split recurrence and
    # sorts no target tuple; the bit scan reads each word on its own
    for n, g in tamari_graphs.items():
        words = [preorder_word(text) for text in g.nodes]
        index = {w: i for i, w in enumerate(words)}
        for i, (text, w, vs) in enumerate(zip(g.nodes, words, g.targets)):
            assert vs == tuple(sorted(index[v] for v in scan_successors(w, 2 * n + 1))), text
            # ascending from the node's own index: every edge goes to a
            # larger word, so no graph built here can have a cycle
            assert all(a < b for a, b in zip((i,) + vs, vs)), text


def test_out_degrees_are_the_narayana_numbers(tamari_graphs):
    # shapes with k redexes: N(n, k+1) = C(n, k+1) C(n, k) / n
    for n, g in tamari_graphs.items():
        expected = {k: comb(n, k + 1) * comb(n, k) // n for k in range(n)}
        assert Counter(map(len, g.targets)) == expected, n


def test_shortest_distances_are_the_ballot_numbers(tamari_graphs):
    # shapes at distance n-d from the sink: d/(2n-d) C(2n-d, n)
    for n, g in tamari_graphs.items():
        expected = {n - d: count for d, count in ballot_counts(n).items()}
        assert Counter(shortest_paths(g).values()) == expected, n


def test_longest_distances_are_the_q_catalan_numbers(tamari_graphs):
    # shapes at longest distance k: the coefficient of q^(n(n-1)/2 - k) in
    # C_n(q), a closed form the sweep does not compute
    rows = q_catalan(11)
    assert rows[3] == [1, 1, 2, 1]
    assert [sum(row) for row in rows] == catalan_counts(11)
    graphs = {0: build_graph(0)} | tamari_graphs
    for n, g in graphs.items():
        assert Counter(longest_paths(g).values()) == sigma_counts(n), n


def test_measures_past_the_graph_cap_are_the_closed_forms():
    # the measures recurrence verify_all runs, to one size past the graph
    # cap; CI checks n = 14, the enumeration cap
    assert [ballot_counts(n) for n in range(3)] == [{0: 1}, {1: 1}, {1: 1, 2: 1}]
    assert sigma_counts(3) == {3: 1, 2: 1, 1: 2, 0: 1}
    for n, shapes in enumerate(_split(13, ENUMERATION_CAP, (1, 0, 0, 0), _join_measures)):
        assert Counter(sig for _, _, sig, _ in shapes) == sigma_counts(n), n
        assert Counter(d_rm for _, _, _, d_rm in shapes) == ballot_counts(n), n


def _shifted_staircase_tableaux(n):
    """Fishel-Nelson: C(n,2)! prod_{k<n} (k-1)!/(2k-1)! (OEIS A003121)."""
    num = factorial(n * (n - 1) // 2) * prod(factorial(k - 1) for k in range(1, n))
    den = prod(factorial(2 * k - 1) for k in range(1, n))
    assert num % den == 0
    return num // den


def test_longest_chains_from_the_left_chain_are_fishel_nelson(tamari_graphs):
    # maximal chains of the Tamari lattice (Fishel & Nelson, Proc. AMS 2014)
    expected = [1, 1, 1, 2, 12, 286, 33592, 23178480, 108995910720,
                3973186258569120]
    assert [_shifted_staircase_tableaux(n) for n in range(1, 11)] == expected
    for n, g in tamari_graphs.items():
        # a rotation adds to the word, so every edge goes to a later index
        best = [0] * len(g.nodes)
        ways = [1] * len(g.nodes)
        for u in reversed(range(len(g.nodes))):
            vs = g.targets[u]
            if vs:
                assert min(vs) > u
                best[u] = 1 + max(best[v] for v in vs)
                ways[u] = sum(ways[v] for v in vs if best[v] == best[u] - 1)
        start = g.nodes.index(render(left_chain(n)))
        assert best[start] == n * (n - 1) // 2, n
        assert ways[start] == _shifted_staircase_tableaux(n), n


def _tamari_intervals(n):
    """Chapoton's count of intervals in the Tamari lattice of size ``n``."""
    return 2 * factorial(4 * n + 1) // (factorial(n + 1) * factorial(3 * n + 2))


def _reach_bitsets(g):
    """Bit ``v`` of entry ``u`` is set iff node ``u`` reaches node ``v``, itself
    included.

    A rotation adds to the word, so targets come later and a reverse sweep
    is reverse-topological.
    """
    below = [0] * len(g.targets)
    for u in reversed(range(len(g.targets))):
        r = 1 << u
        for v in g.targets[u]:
            assert v > u
            r |= below[v]
        below[u] = r
    return below


def test_reachable_pairs_are_the_tamari_intervals(tamari_graphs):
    expected = [1, 1, 3, 13, 68, 399, 2530, 16965, 118668, 857956, 6369883]
    assert [_tamari_intervals(n) for n in range(11)] == expected
    graphs = {0: build_graph(0)} | {n: tamari_graphs[n] for n in range(1, 11)}
    for n, g in graphs.items():
        assert sum(r.bit_count() for r in _reach_bitsets(g)) == expected[n], n


def test_the_rewrite_order_is_the_first_leaf_order(tamari_graphs):
    # s rewrites to t iff lo_s[i] <= lo_t[i] for every in-order node i, where
    # lo[i] is the index of node i's first leaf; checked on every ordered pair
    graphs = {0: build_graph(0)} | {n: tamari_graphs[n] for n in range(1, 8)}
    for g in graphs.values():
        los = [first_leaves(parse(text)) for text in g.nodes]
        for text, lo_s, reach in zip(g.nodes, los, _reach_bitsets(g)):
            by_lo = sum(1 << t for t, lo_t in enumerate(los) if all(map(le, lo_s, lo_t)))
            assert by_lo == reach, text


def test_every_length_between_the_two_exact_answers(tamari_graphs):
    # bit k of lengths[u] is set iff some rewrite sequence from u to the
    # normal form takes exactly k steps
    for n in range(1, 11):
        g = tamari_graphs[n]
        lengths = [0] * len(g.targets)
        for u in reversed(range(len(g.targets))):
            bits = 0 if g.targets[u] else 1
            for v in g.targets[u]:
                assert v > u
                bits |= lengths[v] << 1
            lengths[u] = bits
        for text, bits in zip(g.nodes, lengths):
            m = measure(parse(text))
            assert bits == (1 << (m.sigma + 1)) - (1 << (n - m.d_rm)), text


def test_graph_cap():
    with pytest.raises(CapExceeded):
        build_graph(13)
    with pytest.raises(CapExceeded):
        build_graph(4, cap=3)


@pytest.mark.parametrize("n_max, cap, named", [(13, 12, 13), (20, 12, 13), (3, -1, 0)])
def test_verify_all_checks_the_cap_before_building(monkeypatch, n_max, cap, named):
    # the error names the first size over the cap, as build_graph does
    built = []
    monkeypatch.setattr(
        "assocnf.oracle.build_graph", lambda n, cap: built.append(n) or build_graph(n, cap)
    )
    with pytest.raises(CapExceeded) as exc:
        verify_all(n_max, cap=cap)
    assert str(exc.value) == f"n={named} exceeds graph cap {cap}"
    assert built == []


@pytest.mark.parametrize("build", [enumerate_shapes, build_graph, verify_all])
def test_negative_sizes_are_rejected(build):
    # an empty report list for verify_all would pass vacuously
    # the sign is checked before the cap, whatever the cap
    for kwargs in ({}, {"cap": -5}):
        with pytest.raises(ValueError, match="shape size must be nonnegative"):
            build(-2, **kwargs)


# ---------------------------------------------------------------------------
# verification oracles


def test_sn_holds_on_rewrite_graphs():
    for n in range(7):
        assert verify_sn(build_graph(n))


def test_sn_rejects_a_cycle():
    g = RewriteGraph(n=-1, nodes=("a", "b"), targets=((1,), (0,)))
    assert not verify_sn(g)


def test_wcr_holds_on_rewrite_graphs():
    for n in range(7):
        assert verify_wcr(build_graph(n))


def test_wcr_divergence_joins_at_the_sink():
    # the two one-step successors of the 3-left-chain rejoin in one step each
    g = build_graph(3)
    w = render(left_chain(3))
    x, y = sorted(_successors(g)[w])
    assert x == "((.*(.*.))*.)" and y == "((.*.)*(.*.))"
    nf = render(right_chain(3))
    assert shortest_paths(g)[x] >= 1 and shortest_paths(g)[y] >= 1
    assert longest_paths(g)[x] >= 1
    # both reach the unique sink
    assert nf in _reachable(g, x) and nf in _reachable(g, y)


def _reachable(g, start):
    successors = _successors(g)
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in successors[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def test_wcr_rejects_unjoinable_divergence():
    g = RewriteGraph(
        n=-1,
        nodes=("w", "x", "y"),
        targets=((1, 2), (), ()),
    )
    assert not verify_wcr(g)


def _pairwise_wcr(targets):
    """Local confluence by definition: every pair of a node's successors
    reaches a common sink."""
    sinks = {}
    for u in reversed(range(len(targets))):
        sinks[u] = set().union(*(sinks[v] for v in targets[u])) or {u}
    return all(
        sinks[x] & sinks[y]
        for vs in targets
        for i, x in enumerate(vs)
        for y in vs[i + 1 :]
    )


def _ascending_graphs(count):
    """Every graph on ``count`` nodes whose edges all go to larger indices."""

    def subsets(u):
        later = range(u + 1, count)
        return [vs for k in range(len(later) + 1) for vs in itertools.combinations(later, k)]

    return itertools.product(*map(subsets, range(count)))


def test_wcr_matches_the_pairwise_definition_on_every_small_graph():
    # the check never compares a pair: on an acyclic graph a node whose
    # successors share no sink always has some divergence that cannot join
    seen = Counter()
    for count in range(1, 6):
        for targets in _ascending_graphs(count):
            g = RewriteGraph(n=-1, nodes=tuple("abcde"[:count]), targets=targets)
            assert verify_sn(g)
            seen[verify_wcr(g)] += 1
            assert verify_wcr(g) == _pairwise_wcr(targets), targets
    assert seen[True] and seen[False]


@st.composite
def multi_sink_graphs(draw):
    """Hand-built targets for 1 to 40 nodes whose edges all ascend: up to
    four successors per node, in any order, as a tuple or a list, so most
    graphs have several sinks."""
    count = draw(st.integers(1, 40))
    targets = [
        draw(st.sampled_from([tuple, list]))(
            draw(st.lists(st.integers(u + 1, count - 1), unique=True, max_size=4))
        )
        for u in range(count - 1)
    ]
    return tuple(targets) + ((),)


def _distances(targets, pick):
    """Each node's distance to a sink by definition: 0 at a sink, else one
    more than ``pick`` of its successors' distances."""

    @cache
    def distance(u):
        return 1 + pick(map(distance, targets[u])) if targets[u] else 0

    return [distance(u) for u in range(len(targets))]


@given(multi_sink_graphs())
def test_oracles_match_their_definitions_on_random_graphs(targets):
    g = RewriteGraph(n=-1, nodes=tuple(map(str, range(len(targets)))), targets=targets)
    assert verify_sn(g)
    assert verify_wcr(g) == _pairwise_wcr(targets)
    assert verify_unique_nf(g) == (sum(not vs for vs in targets) == 1)
    assert list(longest_paths(g).values()) == _distances(targets, max)
    assert list(shortest_paths(g).values()) == _distances(targets, min)


# Three successors b, c, d of a, reaching the sinks {e, f}, {f, g} and
# {e, g}: every pair of them shares a sink, though no sink is common to all
# three.  Yet b, c and d each diverge to two sinks, so the graph is not
# locally confluent.
PAIRWISE_TARGETS = ((1, 2, 3), (4, 5), (5, 6), (4, 6), (), (), ())


@pytest.mark.parametrize("d", [(4, 6), (6,)])
def test_wcr_rejects_successors_that_share_sinks_only_pairwise(d):
    # with d -> g only, b and d share no sink either
    targets = PAIRWISE_TARGETS[:3] + (d,) + PAIRWISE_TARGETS[4:]
    g = RewriteGraph(n=-1, nodes=tuple("abcdefg"), targets=targets)
    assert verify_sn(g)
    assert not verify_wcr(g)
    assert not _pairwise_wcr(targets)


def test_wcr_rejects_cyclic_graphs():
    # cyclic, though the one divergence (b, c from a) is joinable at d
    g = RewriteGraph(
        n=-1,
        nodes=("a", "b", "c", "d"),
        targets=((1, 2), (0, 3), (3,), ()),
    )
    assert not verify_sn(g)
    with pytest.raises(ValueError):
        verify_wcr(g)


def test_unique_nf_holds_on_rewrite_graphs():
    for n in range(7):
        g = build_graph(n)
        assert verify_unique_nf(g)
        assert g.sinks() == [render(right_chain(n))]


def test_unique_nf_base_case():
    g = build_graph(0)
    assert g.nodes == (".",)
    assert verify_unique_nf(g)


def test_unique_nf_rejects_two_sinks():
    g = RewriteGraph(
        n=-1,
        nodes=("w", "x", "y"),
        targets=((1, 2), (), ()),
    )
    assert not verify_unique_nf(g)


def test_unique_nf_rejects_sinkless_cycle():
    g = RewriteGraph(n=-1, nodes=("a", "b"), targets=((1,), (0,)))
    with pytest.raises(ValueError):
        verify_unique_nf(g)


def test_unique_nf_rejects_a_cycle_that_misses_the_sink():
    g = RewriteGraph(n=-1, nodes=("a", "b", "c"), targets=((1,), (0,), ()))
    assert g.sinks() == ["c"]
    with pytest.raises(ValueError):
        verify_unique_nf(g)


def test_longest_paths_reject_cycles():
    g = RewriteGraph(n=-1, nodes=("a", "b"), targets=((1,), (0,)))
    with pytest.raises(ValueError):
        longest_paths(g)


@pytest.mark.parametrize("targets", [((), (0,)), ((2,), (2, 0), ()), ((5,), ())])
def test_acyclic_graphs_with_a_descending_edge_are_rejected(targets):
    # no cycle, but an edge to a smaller index, first in its tuple or not, or
    # a dangling edge to no node at all
    g = RewriteGraph(n=-1, nodes=("a", "b", "c")[: len(targets)], targets=targets)
    assert not verify_sn(g)
    for check in (longest_paths, shortest_paths, verify_wcr, verify_unique_nf):
        with pytest.raises(ValueError):
            check(g)


# ---------------------------------------------------------------------------
# path oracles


def test_paths_of_left_chain():
    g = build_graph(4)
    assert longest_paths(g)[render(left_chain(4))] == 6
    assert shortest_paths(g)[render(left_chain(4))] == 3


def test_paths_of_right_chain():
    g = build_graph(5)
    assert longest_paths(g)[render(right_chain(5))] == 0
    assert shortest_paths(g)[render(right_chain(5))] == 0


def test_path_lookups_on_cyclic_graphs():
    # a cycle away from the sink still fails both tables
    g = RewriteGraph(n=-1, nodes=("a", "b", "c"), targets=((1,), (0,), ()))
    with pytest.raises(ValueError):
        shortest_paths(g)
    with pytest.raises(ValueError):
        longest_paths(g)


def test_path_oracles_match_measures_on_small_sizes():
    for n in range(7):
        g = build_graph(n)
        longest = longest_paths(g)
        shortest = shortest_paths(g)
        for key in g.nodes:
            t = parse(key)
            assert longest[key] == sigma(t)
            assert shortest[key] == size(t) - depth_rightmost(t)


# ---------------------------------------------------------------------------
# reports


def test_verify_all_small():
    reports = verify_all(4)
    assert len(reports) == 5
    assert all(r.passed for r in reports)


def test_verify_all_base_case():
    reports = verify_all(0)
    assert len(reports) == 1
    assert reports[0].passed
    assert reports[0].max_longest == 0


def test_verify_all_reports_maximizers():
    report = verify_all(5)[5]
    assert report.max_longest == 10
    assert render(left_chain(5)) in report.max_attained_by


def test_report_table_has_one_pass_row_per_size():
    reports = verify_all(3)
    table = report_table(reports)
    assert table.count("PASS") == 4
    assert "FAIL" not in table
    assert table == report_table(reports)


def test_records_jsonl_round_trips():
    reports = verify_all(2)
    lines = "".join(records_jsonl(reports)).strip().split("\n")
    records = [json.loads(line) for line in lines]
    assert len(records) == 4  # C(0) + C(1) + C(2)
    by_term = {r["term"]: r for r in records}
    lc2 = by_term[render(left_chain(2))]
    assert lc2 == {
        "term": "((.*.)*.)",
        "n": 2,
        "sigma": 1,
        "d_rm": 1,
        "longest": 1,
        "shortest": 1,
    }


def test_records_jsonl_escapes_like_json_dumps():
    terms = ['(a*"b")', "(\\*c)", "(caf\u00e9*\\\"x)"]
    records = tuple(
        TermRecord(term, size=1, sigma=i, d_rm=1, longest=i, shortest=0)
        for i, term in enumerate(terms)
    )
    report = VerificationReport(
        n=1,
        records=records,
        sn_ok=True,
        wcr_ok=True,
        unique_nf_ok=True,
        longest_matches_sigma=True,
        shortest_matches_formula=True,
        max_longest=2,
        max_attained_by=(terms[2],),
    )
    expected = [
        json.dumps(
            {
                "term": r.term,
                "n": r.size,
                "sigma": r.sigma,
                "d_rm": r.d_rm,
                "longest": r.longest,
                "shortest": r.shortest,
            }
        )
        + "\n"
        for r in records
    ]
    # one newline-terminated line per record, yielded one at a time
    assert list(records_jsonl([report, report])) == expected + expected
    assert list(records_jsonl([])) == []


def test_verify_all_measures_match_terms_measure():
    records = [r for report in verify_all(9) for r in report.records]
    assert len(records) == sum(catalan_counts(9))
    for r in records:
        m = measure(parse(r.term))
        assert (r.size, r.sigma, r.d_rm) == (m.size, m.sigma, m.d_rm), r.term


# ---------------------------------------------------------------------------
# DOT export


def test_export_dot_n1():
    # one newline-terminated line per item: header, node, closing brace
    lines = list(export_dot(build_graph(1)))
    assert lines == ["digraph rewrites {\n", '  "(.*.)" [peripheries=2];\n', "}\n"]


def test_export_dot_n2():
    dot = "".join(export_dot(build_graph(2)))
    assert dot.count("->") == 1
    assert '"(.*(.*.))" [peripheries=2];' in dot


def test_export_dot_edge_count_matches_graph():
    g = build_graph(3)
    dot = "".join(export_dot(g))
    assert dot.count("->") == g.edge_count
    assert dot == "".join(export_dot(build_graph(3)))

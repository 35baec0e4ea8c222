"""Enumeration, rewrite graphs, and the graph-based verification oracles."""

import json
import random
from collections import Counter
from math import comb, factorial, prod

import pytest

from assocnf.oracle import (
    ENUMERATION_CAP,
    CapExceeded,
    RewriteGraph,
    TermRecord,
    VerificationReport,
    build_graph,
    enumerate_shapes,
    export_dot,
    longest_path_from,
    longest_paths,
    records_jsonl,
    report_table,
    shortest_path_from,
    shortest_paths,
    verify_all,
    verify_sn,
    verify_unique_nf,
    verify_wcr,
    _count,
    _shapes,
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

from helpers import catalan_counts, preorder_word, random_shape, scan_successors


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts_follow_catalan_recurrence():
    counts = catalan_counts(10)
    for n in range(11):
        assert len(enumerate_shapes(n)) == _count(n, ENUMERATION_CAP) == counts[n]


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
        g = build_graph(n)
        for t in shapes:
            key = render(t)
            rotated = [text_of[v] for v in scan_successors(preorder_word(key), 2 * n + 1)]
            expected = {render(apply_at(t, p)) for p in find_redexes(t)}
            assert len(rotated) == len(find_redexes(t)), key
            assert set(rotated) == expected, key
            assert list(g.succ[key]) == sorted(expected), key
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


def test_graph_n1():
    g = build_graph(1)
    assert g.nodes == ("(.*.)",)
    assert g.edge_count == 0
    assert g.sinks() == ["(.*.)"]


def test_graph_n2():
    g = build_graph(2)
    assert g.nodes == ("((.*.)*.)", "(.*(.*.))")
    assert g.succ["((.*.)*.)"] == {"(.*(.*.))": 1}
    assert g.succ["(.*(.*.))"] == {}


def test_graph_n3_pentagon():
    g = build_graph(3)
    assert len(g.nodes) == 5
    assert g.succ == {
        "(((.*.)*.)*.)": {"((.*(.*.))*.)": 1, "((.*.)*(.*.))": 1},
        "((.*(.*.))*.)": {"(.*((.*.)*.))": 1},
        "((.*.)*(.*.))": {"(.*(.*(.*.)))": 1},
        "(.*((.*.)*.))": {"(.*(.*(.*.)))": 1},
        "(.*(.*(.*.)))": {},
    }
    assert g.sinks() == [render(right_chain(3))]


def test_graph_multiplicities_are_positive():
    for n in range(7):
        g = build_graph(n)
        for targets in g.succ.values():
            assert all(m >= 1 for m in targets.values())


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
    # shapes at distance n-k from the sink: k/(2n-k) C(2n-k, n)
    for n, g in tamari_graphs.items():
        expected = {}
        for k in range(1, n + 1):
            count, rem = divmod(k * comb(2 * n - k, n), 2 * n - k)
            assert rem == 0
            expected[n - k] = count
        assert Counter(shortest_paths(g).values()) == expected, n


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


def test_reachable_pairs_are_the_tamari_intervals(tamari_graphs):
    expected = [1, 1, 3, 13, 68, 399, 2530, 16965, 118668, 857956, 6369883]
    assert [_tamari_intervals(n) for n in range(11)] == expected
    graphs = {0: build_graph(0)} | {n: tamari_graphs[n] for n in range(1, 11)}
    for n, g in graphs.items():
        # a rotation adds to the word, so targets come later and a reverse
        # sweep is reverse-topological; below[u] is the bitset of the nodes
        # u reaches, itself included
        below = [0] * len(g.targets)
        for u in reversed(range(len(g.targets))):
            r = 1 << u
            for v in g.targets[u]:
                assert v > u
                r |= below[v]
            below[u] = r
        assert sum(r.bit_count() for r in below) == expected[n], n


def test_every_length_between_the_two_exact_answers(tamari_graphs):
    # bit k of lengths[u] is set iff some rewrite sequence from u to the
    # normal form takes exactly k steps
    for n in range(1, 11):
        g = tamari_graphs[n]
        lengths = [0] * len(g.targets)
        for u in g._reverse_order:
            bits = 0 if g.targets[u] else 1
            for v in g.targets[u]:
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
    with pytest.raises(ValueError, match="shape size must be nonnegative"):
        build(-2)


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
    x, y = sorted(g.succ[w])
    assert x == "((.*(.*.))*.)" and y == "((.*.)*(.*.))"
    nf = render(right_chain(3))
    assert shortest_paths(g)[x] >= 1 and shortest_paths(g)[y] >= 1
    assert longest_paths(g)[x] >= 1
    # both reach the unique sink
    assert nf in _reachable(g, x) and nf in _reachable(g, y)


def _reachable(g, start):
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in g.succ.get(u, {}):
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


@pytest.mark.parametrize("targets", [((), (0,)), ((2,), (2, 0), ())])
def test_acyclic_graphs_with_a_descending_edge_are_rejected(targets):
    # no cycle, but an edge to a smaller index, first in its tuple or not
    g = RewriteGraph(n=-1, nodes=("a", "b", "c")[: len(targets)], targets=targets)
    assert not verify_sn(g)
    for check in (longest_paths, verify_wcr, verify_unique_nf):
        with pytest.raises(ValueError):
            check(g)


# ---------------------------------------------------------------------------
# path oracles


def test_paths_of_left_chain():
    g = build_graph(4)
    assert longest_path_from(g, left_chain(4)) == 6
    assert shortest_path_from(g, left_chain(4)) == 3


def test_paths_of_right_chain():
    g = build_graph(5)
    assert longest_path_from(g, right_chain(5)) == 0
    assert shortest_path_from(g, right_chain(5)) == 0


def test_paths_accept_canonical_strings():
    g = build_graph(3)
    assert longest_path_from(g, "(((.*.)*.)*.)") == 3
    assert shortest_path_from(g, "(((.*.)*.)*.)") == 2


def test_paths_reject_unknown_terms():
    g = build_graph(2)
    with pytest.raises(ValueError):
        longest_path_from(g, parse("(a*b)"))


def test_path_lookups_on_cyclic_graphs():
    g = RewriteGraph(n=-1, nodes=("a", "b", "c"), targets=((1,), (0,), ()))
    with pytest.raises(ValueError):
        shortest_path_from(g, "a")
    with pytest.raises(ValueError):
        shortest_path_from(g, "c")
    with pytest.raises(ValueError):
        longest_path_from(g, "c")


def test_path_lookups_match_the_path_tables():
    for n in range(8):
        g = build_graph(n)
        longest = longest_paths(g)
        shortest = shortest_paths(g)
        for key in g.nodes:
            assert longest_path_from(g, key) == longest[key]
            assert shortest_path_from(g, key) == shortest[key]


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
    lines = records_jsonl(reports).strip().split("\n")
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
    expected = "\n".join(
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
        for r in records
    )
    assert records_jsonl([report, report]) == expected + "\n" + expected + "\n"
    assert records_jsonl([]) == ""


def test_verify_all_measures_match_terms_measure():
    records = [r for report in verify_all(9) for r in report.records]
    assert len(records) == sum(catalan_counts(9))
    for r in records:
        m = measure(parse(r.term))
        assert (r.size, r.sigma, r.d_rm) == (m.size, m.sigma, m.d_rm), r.term


# ---------------------------------------------------------------------------
# DOT export


def test_export_dot_n1():
    dot = export_dot(build_graph(1))
    assert dot == 'digraph rewrites {\n  "(.*.)" [peripheries=2];\n}\n'


def test_export_dot_n2():
    dot = export_dot(build_graph(2))
    assert dot.count("->") == 1
    assert '"(.*(.*.))" [peripheries=2];' in dot


def test_export_dot_edge_count_matches_graph():
    g = build_graph(3)
    dot = export_dot(g)
    assert dot.count("->") == g.edge_count
    assert dot == export_dot(build_graph(3))

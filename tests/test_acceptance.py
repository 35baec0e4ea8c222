"""Acceptance suite: every exact quantitative claim, checked at full scale.

One test per criterion; each prints a PASS line with what was covered, so a
verbose run reads as a checklist.  All comparisons are exact (the only
tolerance anywhere is the generous wall-clock allowance in the scaling
check, since absolute constants depend on the machine).
"""

import gc
import os
import random
import time
import tracemalloc
from collections import Counter, deque
from contextlib import redirect_stdout
from itertools import islice

import pytest

from assocnf.cli import main
from assocnf.oracle import (
    RewriteGraph,
    build_graph,
    enumerate_shapes,
    longest_paths,
    shortest_paths,
    verify_all,
    verify_sn,
    verify_unique_nf,
    verify_wcr,
    _texts,
)
from assocnf.rewrite import (
    _step_texts,
    apply_at,
    find_redexes,
    normalize,
    normalize_longest,
    normalize_shortest,
)
from assocnf.terms import (
    Leaf,
    Node,
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
    catalan_counts,
    comb_shape,
    leaves_in_order,
    preorder_word,
    random_shape,
    remy_shape,
    right_chain_over,
    scan_successors,
    sinks,
    spine_over_chains,
    subterm_at,
    with_indexed_leaves,
)

N_EXHAUSTIVE = 9
RANDOM_SIZE = 12
RANDOM_TERMS = 1000
SEED = 20260808


@pytest.fixture(scope="module")
def universe():
    """Rewrite graph plus both path oracles for every size up to 9."""
    data = {}
    for n in range(N_EXHAUSTIVE + 1):
        g = build_graph(n)
        data[n] = (g, longest_paths(g), shortest_paths(g))
    return data


def test_criterion_1_path_oracles_match_measures(universe):
    total = 0
    for n in range(N_EXHAUSTIVE + 1):
        g, longest, shortest = universe[n]
        for key in g.nodes:
            t = parse(key)
            assert longest[key] == sigma(t), key
            assert shortest[key] == n - depth_rightmost(t), key
            total += 1
    print(
        f"PASS criterion 1: longest path == sigma and shortest path == "
        f"n - d_rm on all {total} shapes with n <= {N_EXHAUSTIVE}"
    )


def test_criterion_2_longest_bound_is_tight(universe):
    for n in range(N_EXHAUSTIVE + 1):
        g, longest, _ = universe[n]
        bound = n * (n - 1) // 2
        assert max(longest.values()) == bound, n
        assert longest[render(left_chain(n))] == bound, n
    print(
        f"PASS criterion 2: max longest path == n(n-1)/2, attained by the "
        f"left chain, for every n <= {N_EXHAUSTIVE}"
    )


def test_criterion_3_confluence_suite(universe):
    for n in range(N_EXHAUSTIVE + 1):
        g, _, _ = universe[n]
        assert verify_sn(g), n
        assert verify_wcr(g), n
        assert verify_unique_nf(g), n
        assert sinks(g) == [render(right_chain(n))], n
    print(
        f"PASS criterion 3: SN, WCR and unique-NF hold with sink == "
        f"right chain for every n <= {N_EXHAUSTIVE}"
    )


def test_criterion_4_strategies_match_oracles(universe):
    # exhaustive half: every shape up to size 9 against the full-graph oracles
    for n in range(N_EXHAUSTIVE + 1):
        g, longest, shortest = universe[n]
        nf = right_chain(n)
        for key in g.nodes:
            t = parse(key)
            short_trace = normalize_shortest(t)
            long_trace = normalize_longest(t)
            assert len(short_trace.steps) == shortest[key], key
            assert len(long_trace.steps) == longest[key], key
            assert short_trace.final == nf and long_trace.final == nf, key

    # random half: labeled terms at size 12, checked against a graph search
    # over each term's reachable set of preorder words, one rotation being
    # one word addition (memo shared across terms; the reachable sets
    # overlap heavily near the normal form)
    counts = catalan_counts(RANDOM_SIZE)
    rng = random.Random(SEED)
    nbits = 2 * RANDOM_SIZE + 1
    succ_memo: dict[int, list[int]] = {}
    longest_memo: dict[int, int] = {}
    shortest_memo: dict[int, int] = {}

    def successors(key):
        found = succ_memo.get(key)
        if found is None:
            found = succ_memo[key] = scan_successors(key, nbits)
        return found

    def longest_to_nf(key):
        value = longest_memo.get(key)
        if value is None:
            value = max((1 + longest_to_nf(s) for s in successors(key)), default=0)
            longest_memo[key] = value
        return value

    def shortest_to_nf(key):
        value = shortest_memo.get(key)
        if value is None:
            value = min((1 + shortest_to_nf(s) for s in successors(key)), default=0)
            shortest_memo[key] = value
        return value

    for _ in range(RANDOM_TERMS):
        shape = random_shape(RANDOM_SIZE, rng, counts)
        t = with_indexed_leaves(shape)
        text = render(shape)
        key = preorder_word(text)
        short_trace = normalize_shortest(t)
        long_trace = normalize_longest(t)
        assert len(short_trace.steps) == shortest_to_nf(key), text
        assert len(long_trace.steps) == longest_to_nf(key), text
        expected_nf = right_chain_over(leaves_in_order(t))
        assert short_trace.final == expected_nf, text
        assert long_trace.final == expected_nf, text

    print(
        f"PASS criterion 4: both strategies match the path oracles on all "
        f"shapes with n <= {N_EXHAUSTIVE} and on {RANDOM_TERMS} random "
        f"labeled terms at n = {RANDOM_SIZE} "
        f"({len(succ_memo)} reachable shapes searched)"
    )


def test_criterion_5_sigma_step_law():
    checked = 0
    for n in range(9):
        for t in enumerate_shapes(n):
            before = sigma(t)
            for p in find_redexes(t):
                drop = size(subterm_at(t, p).left.left) + 1
                assert sigma(apply_at(t, p)) == before - drop, (render(t), p)
                checked += 1
    print(
        f"PASS criterion 5: sigma(after) == sigma(before) - size(left-left) - 1 "
        f"for all {checked} redexes over shapes with n <= 8"
    )


def test_criterion_6_single_step_depth_gain():
    fired = 0
    for n in range(9):
        for t in enumerate_shapes(n):
            before = depth_rightmost(t)
            for step in normalize_shortest(t).steps:
                after = depth_rightmost(step.term_after)
                assert after == before + 1, (render(t), step.position)
                before = after
                fired += 1
    print(
        f"PASS criterion 6: every near-root step raises d_rm by exactly 1, "
        f"all {fired} shortest steps over shapes with n <= 8"
    )


def _timed_normalize(t, gc_enabled=False):
    # best of three, GC paused unless asked for, so the ratio reflects the
    # algorithm
    best = None
    trace = None
    for _ in range(3):
        gc.collect()
        if not gc_enabled:
            gc.disable()
        try:
            t0 = time.perf_counter()
            trace = normalize_shortest(t)
            elapsed = time.perf_counter() - t0
        finally:
            gc.enable()
        best = elapsed if best is None else min(best, elapsed)
    return trace, best


def test_criterion_7_linear_time_on_huge_chains():
    trace1, t1 = _timed_normalize(left_chain(100_000))
    assert len(trace1.steps) == 99_999
    assert trace1.final == right_chain(100_000)

    trace2, t2 = _timed_normalize(left_chain(200_000))
    assert len(trace2.steps) == 199_999
    assert trace2.final == right_chain(200_000)

    assert t1 < 2.0, f"normalization took {t1:.2f}s at n=100000"
    # linear scaling, with an absolute allowance for timer noise
    assert t2 <= 2.5 * t1 + 0.3, f"t1={t1:.3f}s t2={t2:.3f}s"
    print(
        f"PASS criterion 7: left_chain(100000) -> right chain in 99999 steps "
        f"({t1:.2f}s); doubling n scaled by {t2 / t1:.2f}x"
    )


SHAPE_FAMILIES = {
    "remy": lambda n: remy_shape(n, random.Random(SEED + n)),
    "comb": lambda n: comb_shape(n // 2, n - n // 2),
}


@pytest.mark.parametrize("family", sorted(SHAPE_FAMILIES))
def test_criterion_7_linear_time_on_random_shapes_and_combs(family):
    # the left chain's bounds, on shapes with many nodes that have a leaf
    # left child: a uniform random shape, and a right spine over a left
    # chain of the same size
    times = {False: [], True: []}
    for n in (100_000, 200_000):
        t = SHAPE_FAMILIES[family](n)
        for gc_enabled, timed in times.items():
            trace, elapsed = _timed_normalize(t, gc_enabled)
            timed.append(elapsed)
        assert trace.step_count == size(t) - depth_rightmost(t)
        assert trace.final == right_chain(n)
    for gc_enabled, (t1, t2) in times.items():
        gc_mode = "on" if gc_enabled else "off"
        assert t1 < 2.0, f"GC {gc_mode}: normalization took {t1:.2f}s at n=100000"
        assert t2 <= 2.5 * t1 + 0.3, f"GC {gc_mode}: t1={t1:.3f}s t2={t2:.3f}s"
        print(
            f"PASS criterion 7: {family} shape of 100000 nodes -> right chain "
            f"with GC {gc_mode} ({t1:.2f}s); doubling n scaled by {t2 / t1:.2f}x"
        )


ALLOCATION_FAMILIES = {
    "comb": SHAPE_FAMILIES["comb"],
    "left_chain": left_chain,
    "remy": SHAPE_FAMILIES["remy"],
    "right_chain": right_chain,
    "spine_over_chains": spine_over_chains,
}


@pytest.fixture
def constructions(monkeypatch):
    """Counts of ``Node`` and ``Leaf`` constructions while the test runs."""
    counts = Counter()
    for cls in (Node, Leaf):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__):
            counts[_name] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


@pytest.mark.parametrize("n", [1_000, 10_000])
@pytest.mark.parametrize("family", sorted(ALLOCATION_FAMILIES))
def test_allocation_counts_are_linear(family, n, constructions):
    # counts, not clocks: exact on every host, so the bounds can be tight
    t = ALLOCATION_FAMILIES[family](n)
    text = render(t)
    pieces = text.split(".")
    labeled = pieces[0] + "".join(f"x{i % 7}{p}" for i, p in enumerate(pieces[1:]))
    for source, labels in ((text, 1), (labeled, 7)):
        constructions.clear()
        t = parse(source)
        assert constructions == {"Node": n, "Leaf": labels}, source[:40]
    # a strategy only counts, so it builds nothing; reading final builds
    # the normal form, one new node per node over t's own leaves, and a
    # term already in normal form is returned as it is
    built = {} if family == "right_chain" else {"Node": n}
    for normalize in (normalize_shortest, normalize_longest):
        constructions.clear()
        trace = normalize(t)
        assert constructions == {}, normalize.__name__
        final = trace.final
        assert constructions == built and size(final) == n, normalize.__name__
    print(
        f"PASS allocation gate: {family} of {n} nodes parses with {n} nodes "
        f"and one leaf per label, normalizes with none, and its final has "
        f"{built.get('Node', 0)} new nodes"
    )


# Peak bytes per node, the larger reading of n = 1e3 and 1e4, of parse and of
# render.  parse, left_chain and spine_over_chains are Python 3.11 readings,
# the last two of the render that kept its pending '*' and ')' as strings on
# its stack; comb, remy and right_chain are the largest readings over Python
# 3.10 to 3.12 of the render that prints a right-spine node as three shared
# strings.  The gate allows 15% over them, for hash as well, which hashes
# render's text; measure and == have no reference, since their stacks stay
# small on every family here, and neither have the strategies, which only
# count with measure.  The references of reading a trace's final are
# Python 3.11 readings: the normal form's own nodes, 48 bytes each, or on
# right_chain, which is its own normal form, only the list of left
# subtrees owed along the root's right spine.
PARSE_PEAK_REFERENCE = 48.3
RENDER_PEAK_REFERENCE = {
    "comb": 31.7,
    "left_chain": 38.4,
    "remy": 51.2,
    "right_chain": 31.7,
    "spine_over_chains": 34.1,
}
NORMALIZE_PEAK_REFERENCE = {
    "comb": 48.2,
    "left_chain": 48.2,
    "remy": 48.3,
    "right_chain": 9.2,
    "spine_over_chains": 48.4,
}


def _read_final(trace):
    return trace.final


def _peak_bytes(fn, arg):
    """tracemalloc peak of ``fn(arg)``, after one untraced call warms the
    interpreter's free lists, with GC paused so no collection empties them."""
    gc.disable()
    try:
        fn(arg)
        tracemalloc.start()
        try:
            fn(arg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [1_000, 10_000])
@pytest.mark.parametrize("family", sorted(ALLOCATION_FAMILIES))
def test_term_walk_peaks_are_linear(family, n):
    # counts, not clocks: a peak is the same on every run of one Python
    t = ALLOCATION_FAMILIES[family](n)
    text = render(t)
    bounds = {
        parse: (text, 1.15 * PARSE_PEAK_REFERENCE),
        render: (t, 1.15 * RENDER_PEAK_REFERENCE[family]),
        measure: (t, 1.0),
        hash: (t, 1.15 * RENDER_PEAK_REFERENCE[family]),
        t.__eq__: (parse(text), 2.0),
        normalize_shortest: (t, 1.0),
        normalize_longest: (t, 1.0),
        _read_final: (normalize_shortest(t), 1.15 * NORMALIZE_PEAK_REFERENCE[family]),
    }
    peaks = {}
    for fn, (arg, bound) in bounds.items():
        peaks[fn.__name__] = per_node = _peak_bytes(fn, arg) / n
        assert per_node <= bound, (fn.__name__, round(per_node, 2), bound)
    print(
        f"PASS peak gate: {family} of {n} nodes peaks at "
        + ", ".join(f"{name} {b:.1f}" for name, b in peaks.items())
        + " B/node"
    )


# Replaying a trace is output-bound: every step is a whole text or term, so
# a replay takes Θ(steps × n) time, and the sizes here keep tier-1 short.
# Streamed, a replay holds one text or term at a time besides the start's
# fixed arrays, so its peak per node stays under a constant.  The
# references are peak bytes per node on Python 3.11, the larger reading
# where two sizes run; the gate allows 15% over them.
REPLAY_SIZES = {"shortest": 200, "longest": 60}
REPLAY_PEAK_CASES = [
    ("_step_texts", "shortest", 300),
    ("_step_texts", "shortest", 3000),
    ("_step_texts", "longest", 200),
    ("trace.steps", "shortest", 200),
    ("trace.steps", "longest", 60),
]
REPLAY_PEAK_REFERENCE = {
    ("_step_texts", "shortest"): {
        "comb": 176.8,
        "left_chain": 172.6,
        "remy": 172.6,
        "right_chain": 181.2,
        "spine_over_chains": 172.7,
    },
    ("_step_texts", "longest"): {
        "comb": 196.7,
        "left_chain": 196.2,
        "remy": 150.1,
        "right_chain": 182.7,
        "spine_over_chains": 150.3,
    },
    ("trace.steps", "shortest"): {
        "comb": 110.1,
        "left_chain": 89.3,
        "remy": 132.9,
        "right_chain": 98.4,
        "spine_over_chains": 130.5,
    },
    ("trace.steps", "longest"): {
        "comb": 216.7,
        "left_chain": 216.2,
        "remy": 164.8,
        "right_chain": 120.5,
        "spine_over_chains": 144.0,
    },
}
REPLAYS = {
    "_step_texts": lambda trace: deque(
        _step_texts(trace.strategy, render(trace.start)), maxlen=0
    ),
    "trace.steps": lambda trace: deque(trace.steps, maxlen=0),
}


@pytest.mark.parametrize("strategy", sorted(REPLAY_SIZES))
@pytest.mark.parametrize("family", sorted(ALLOCATION_FAMILIES))
def test_trace_replay_allocation_counts(family, strategy, constructions):
    # printing builds no term; trace.steps builds only apply_at's nodes
    n = REPLAY_SIZES[strategy]
    trace = normalize(ALLOCATION_FAMILIES[family](n), strategy)
    constructions.clear()
    deque(_step_texts(trace.strategy, render(trace.start)), maxlen=0)
    assert constructions == {}
    positions = [step.position for step in trace.steps]
    assert constructions["Leaf"] == 0
    assert constructions["Node"] == sum(len(p) + 2 for p in positions)
    print(
        f"PASS replay count gate: {strategy} trace of {family}({n}) prints with "
        f"no term and replays {len(positions)} steps with "
        f"{constructions['Node']} nodes"
    )


@pytest.mark.parametrize("replay, strategy, n", REPLAY_PEAK_CASES)
@pytest.mark.parametrize("family", sorted(ALLOCATION_FAMILIES))
def test_trace_replay_peaks_are_linear(family, replay, strategy, n):
    trace = normalize(ALLOCATION_FAMILIES[family](n), strategy)
    per_node = _peak_bytes(REPLAYS[replay], trace) / n
    bound = 1.15 * REPLAY_PEAK_REFERENCE[replay, strategy][family]
    assert per_node <= bound, (round(per_node, 2), bound)
    print(
        f"PASS replay peak gate: {replay} of a {strategy} trace of "
        f"{family}({n}) peaks at {per_node:.1f} B/node"
    )


def test_shape_count_peak_is_independent_of_n(capsys):
    # enumerate --count-only computes a closed form and holds no shape, so
    # its peak at n = 14, 2,674,440 shapes, is that at n = 3, 5 shapes,
    # within 1 KiB
    peaks = {n: _peak_bytes(main, ["enumerate", str(n), "--count-only"]) for n in (3, 14)}
    assert capsys.readouterr().out == "5\n" * 2 + "2674440\n" * 2
    assert abs(peaks[14] - peaks[3]) <= 1024, peaks
    print(
        f"PASS count peak gate: enumerate --count-only peaks at {peaks[3]} B "
        f"at n = 3 and {peaks[14]} B at n = 14"
    )


def test_shape_print_peak_is_independent_of_the_shape_count():
    # enumerate writes one line at a time and holds no shape: C(11)/C(9) is
    # 12.1, and the peak at n = 11 stays within twice that at n = 9
    with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
        peaks = {n: _peak_bytes(main, ["enumerate", str(n)]) for n in (9, 11)}
    assert peaks[11] <= 2 * peaks[9], peaks
    print(
        f"PASS print peak gate: enumerate peaks at {peaks[9]} B at n = 9 "
        f"and {peaks[11]} B at n = 11"
    )


def test_text_print_peak_is_linear_in_n():
    # enumerate keeps only the text it last printed, so the peak over its
    # first 50 lines grows with n, not with n squared: ten times the size
    # stays within 11 times the peak
    def first_lines(n):
        deque(islice(_texts(n, n), 50), maxlen=0)

    peaks = {n: _peak_bytes(first_lines, n) for n in (300, 3000)}
    assert peaks[3000] <= 11 * peaks[300], peaks
    print(
        f"PASS text peak gate: enumerate's first 50 lines peak at {peaks[300]} B "
        f"at n = 300 and {peaks[3000]} B at n = 3000"
    )


# The writers hand the file one line at a time, so writing the output adds
# next to nothing to the peak of what it is made from: no whole text, no list
# of its lines and no encoded copy is ever alive.


def test_graph_file_peak_holds_one_copy_of_the_text(tmp_path, capsys):
    path = tmp_path / "g.dot"
    peak = _peak_bytes(main, ["graph", "10", "--out", str(path)])
    ratio = peak / _peak_bytes(build_graph, 10)
    assert capsys.readouterr().out == ""
    assert ratio <= 1.10, round(ratio, 3)
    print(f"PASS graph peak gate: graph 10 --out peaks at {ratio:.2f}x build_graph(10)")


def test_verify_records_peak_is_the_verify_peak(tmp_path, capsys):
    path = tmp_path / "r.jsonl"
    peak = _peak_bytes(main, ["verify", "--max-n", "10", "--records", str(path)])
    ratio = peak / _peak_bytes(main, ["verify", "--max-n", "10"])
    assert capsys.readouterr().out.count("PASS") == 4 * 11
    assert ratio <= 1.05, round(ratio, 3)
    print(
        f"PASS records peak gate: verify --max-n 10 --records peaks at "
        f"{ratio:.2f}x verify --max-n 10"
    )


# verify_all takes the measures of every size from one recurrence, so their
# lists for sizes 0..n stay alive until it returns.  Its peak, relative to
# build_graph(10)'s, was 1.364 to 1.366 on Python 3.10 to 3.12 when every
# size reran the recurrence and dropped it; the gate allows 5% over that.
VERIFY_ALL_PEAK_REFERENCE = 1.366


def test_verify_all_peak_keeps_no_pile_of_measures():
    ratio = _peak_bytes(verify_all, 10) / _peak_bytes(build_graph, 10)
    assert ratio <= 1.05 * VERIFY_ALL_PEAK_REFERENCE, round(ratio, 3)
    print(f"PASS verify peak gate: verify_all(10) peaks at {ratio:.2f}x build_graph(10)")


def _comb_graph(s):
    """``s`` spine nodes, each with an edge to the next (the last one's to a
    final sink) and one to a sink of its own: ``2s + 1`` nodes, ``s + 1``
    sinks, and every spine node reaches all the sinks after it."""
    targets = []
    for i in range(s):
        targets += [(2 * i + 1, 2 * i + 2), ()]
    targets.append(())
    return RewriteGraph(n=-1, nodes=tuple(map(str, range(2 * s + 1))), targets=tuple(targets))


@pytest.mark.parametrize("s", [2_000, 8_000])
def test_sweep_peak_is_linear_with_many_sinks(s):
    # one sink label per node, not one bit per reachable sink: a set of
    # sinks per node would cost O(nodes * sinks) here; each call sweeps a
    # fresh copy, since a graph caches its sweep
    g = _comb_graph(s)
    sweep = g._sweep
    assert (sweep.sink_count, sweep.joinable, sweep.longest[0]) == (s + 1, False, s)
    per_node = _peak_bytes(lambda g: RewriteGraph(*g)._sweep, g) / len(g.nodes)
    assert per_node <= 64, round(per_node, 1)
    print(
        f"PASS sweep peak gate: a comb of {s} spine nodes and {s + 1} sinks "
        f"sweeps at {per_node:.1f} B/node"
    )


def test_criterion_8_enumeration_matches_catalan_recurrence():
    counts = catalan_counts(12)
    for n in range(13):
        assert len(enumerate_shapes(n)) == counts[n], n
    print(
        f"PASS criterion 8: shape counts for n = 0..12 equal the Catalan "
        f"recurrence values (C(12) = {counts[12]})"
    )

"""Single steps, redex order, and the two normalization strategies."""

import random
import time

import pytest

from assocnf.oracle import enumerate_shapes
from assocnf.rewrite import (
    InvalidPosition,
    NotARedex,
    Step,
    Trace,
    _rotations,
    _step_texts,
    apply_at,
    find_redexes,
    format_position,
    normalize,
    normalize_longest,
    normalize_shortest,
    step_shortest,
)
from assocnf.terms import (
    Leaf,
    depth_rightmost,
    is_normal_form,
    left_chain,
    parse,
    render,
    right_chain,
    sigma,
    size,
)

from helpers import (
    catalan_counts,
    comb_shape,
    naive_size,
    off_spine_first_leaves,
    random_shape,
    reference_longest,
    reference_shortest,
    subterm_at,
    with_indexed_leaves,
)

EXAMPLE = "(((a*b)*c)*d)"


def all_shapes_upto(n_max):
    for n in range(n_max + 1):
        yield from enumerate_shapes(n)


# ---------------------------------------------------------------------------
# find_redexes / apply_at


def test_find_redexes_nf_is_empty():
    assert find_redexes(parse("(a*(b*(c*d)))")) == []


def test_find_redexes_orders_deepest_first():
    assert find_redexes(parse(EXAMPLE)) == ["L", ""]


def test_find_redexes_root_only():
    assert find_redexes(parse("((a*b)*(c*d))")) == [""]


def test_find_redexes_tie_breaks_left_to_right():
    # both children of the root are redexes at depth 1
    t = parse("(((a*b)*c)*((d*e)*f))")
    assert find_redexes(t) == ["L", "R", ""]


def test_find_redexes_matches_every_subterm_check():
    def redex_paths(t, path):
        if isinstance(t, Leaf):
            return []
        here = [path] if not isinstance(t.left, Leaf) else []
        return here + redex_paths(t.left, path + "L") + redex_paths(t.right, path + "R")

    for t in all_shapes_upto(8):
        expected = sorted(redex_paths(t, ""), key=lambda p: (-len(p), p))
        assert find_redexes(t) == expected


def test_find_redexes_is_linear_on_deep_spines():
    # Paths are built only at redexes: a long right spine costs O(size).
    n = 200_000
    for t, expected in [(right_chain(n), []), (comb_shape(n, 2), ["R" * n])]:
        start = time.perf_counter()
        assert find_redexes(t) == expected
        assert time.perf_counter() - start < 2.0


def test_apply_at_root():
    assert render(apply_at(parse(EXAMPLE), "")) == "((a*b)*(c*d))"


def test_apply_at_inner():
    assert render(apply_at(parse(EXAMPLE), "L")) == "((a*(b*c))*d)"


def test_apply_at_drops_sigma_to_zero():
    t = parse("((a*b)*(c*d))")
    assert sigma(t) == 1
    result = apply_at(t, "")
    assert render(result) == "(a*(b*(c*d)))"
    assert sigma(result) == 0


def test_apply_at_preserves_labels_and_size():
    t = parse("((one*two)*(three*.))")
    out = apply_at(t, "")
    assert render(out) == "(one*(two*(three*.)))"
    assert size(out) == size(t)


def test_apply_at_rejects_non_redex():
    with pytest.raises(NotARedex) as exc:
        apply_at(parse("(a*(b*c))"), "")
    assert exc.value.position == ""
    with pytest.raises(NotARedex):
        apply_at(parse("(a*b)"), "R")
    with pytest.raises(NotARedex):
        apply_at(Leaf("a"), "")


def test_apply_at_rejects_positions_leaving_the_term():
    with pytest.raises(InvalidPosition) as exc:
        apply_at(parse("(a*b)"), "LL")
    assert exc.value.position == "LL"
    with pytest.raises(InvalidPosition):
        apply_at(parse("(a*b)"), "X")


def test_sigma_step_law_on_small_shapes():
    # sigma falls by exactly (size of the left-left subtree) + 1
    for t in all_shapes_upto(6):
        before = sigma(t)
        for p in find_redexes(t):
            redex = subterm_at(t, p)
            expected_drop = size(redex.left.left) + 1
            assert sigma(apply_at(t, p)) == before - expected_drop
            assert size(apply_at(t, p)) == size(t)


# ---------------------------------------------------------------------------
# single shortest-strategy step


def test_step_shortest_fires_at_root():
    result = step_shortest(parse(EXAMPLE))
    assert result is not None
    out, pos = result
    assert render(out) == "((a*b)*(c*d))"
    assert pos == ""


def test_step_shortest_none_on_nf():
    assert step_shortest(parse("(a*(b*(c*d)))")) is None
    assert step_shortest(Leaf("a")) is None


def test_step_shortest_descends_past_leaf_lefts():
    result = step_shortest(parse("(a*((b*c)*d))"))
    assert result is not None
    out, pos = result
    assert render(out) == "(a*(b*(c*d)))"
    assert pos == "R"


def test_step_shortest_increments_rightmost_depth():
    for t in all_shapes_upto(6):
        result = step_shortest(t)
        if result is None:
            assert is_normal_form(t)
        else:
            out, _ = result
            assert depth_rightmost(out) == depth_rightmost(t) + 1


# ---------------------------------------------------------------------------
# full strategies


def test_normalize_shortest_example():
    trace = normalize_shortest(parse(EXAMPLE))
    assert [(s.position, render(s.term_after)) for s in trace.steps] == [
        ("", "((a*b)*(c*d))"),
        ("", "(a*(b*(c*d)))"),
    ]
    assert render(trace.final) == "(a*(b*(c*d)))"
    assert len(trace.steps) == size(trace.start) - depth_rightmost(trace.start)


def test_normalize_shortest_leaf():
    trace = normalize_shortest(Leaf("a"))
    assert trace.steps == ()
    assert trace.final == Leaf("a")


def test_normalize_shortest_left_chain():
    trace = normalize_shortest(left_chain(5))
    assert len(trace.steps) == 4
    assert trace.final == right_chain(5)


def test_normalize_shortest_step_count_formula():
    for t in all_shapes_upto(7):
        trace = normalize_shortest(t)
        assert len(trace.steps) == size(t) - depth_rightmost(t)
        assert is_normal_form(trace.final)


def test_normalize_shortest_equals_iterated_single_steps():
    for t in all_shapes_upto(6):
        trace = normalize_shortest(t)
        cur = t
        expected = []
        while True:
            result = step_shortest(cur)
            if result is None:
                break
            cur, pos = result
            expected.append((pos, cur))
        assert [(s.position, s.term_after) for s in trace.steps] == expected
        assert trace.final == cur


def test_normalize_longest_example():
    trace = normalize_longest(parse(EXAMPLE))
    assert [render(s.term_after) for s in trace.steps] == [
        "((a*(b*c))*d)",
        "(a*((b*c)*d))",
        "(a*(b*(c*d)))",
    ]
    assert len(trace.steps) == 3 == sigma(trace.start)


def test_normalize_longest_nf_is_empty_trace():
    trace = normalize_longest(right_chain(4))
    assert trace.steps == ()
    assert trace.final == right_chain(4)


def test_normalize_longest_left_chain():
    assert len(normalize_longest(left_chain(4)).steps) == 6


def test_normalize_longest_decrements_sigma_by_one():
    for t in all_shapes_upto(6):
        trace = normalize_longest(t)
        values = [sigma(t)] + [sigma(s.term_after) for s in trace.steps]
        assert values == list(range(sigma(t), -1, -1))


def test_trace_replay_reproduces_every_term():
    for t in all_shapes_upto(6):
        for strategy in ("shortest", "longest"):
            trace = normalize(t, strategy)
            cur = trace.start
            for step in trace.steps:
                cur = apply_at(cur, step.position)
                assert cur == step.term_after
            assert cur == trace.final
            assert is_normal_form(trace.final)


def test_strategies_match_reference_step_by_step():
    # every shape with n <= 9: same positions, same terms, same count, same NF
    for t in all_shapes_upto(9):
        for trace, expected in (
            (normalize_shortest(t), reference_shortest(t)),
            (normalize_longest(t), reference_longest(t)),
        ):
            assert [(s.position, s.term_after) for s in trace.steps] == expected
            assert trace.step_count == len(expected)
            assert trace.final == (expected[-1][1] if expected else t)


def test_step_texts_match_rendered_steps():
    # every shape with n <= 9; enumerate_shapes shares equal subtrees, so
    # numbering nodes by identity instead of position would fail here
    for t in all_shapes_upto(9):
        for strategy in ("shortest", "longest"):
            trace = normalize(t, strategy)
            expected = [(s.position, render(s.term_after)) for s in trace.steps]
            texts = _step_texts(trace.strategy, render(trace.start))
            assert list(texts) == expected, (render(t), strategy)


def _positions(strategy, t):
    return [step[0] for step in _rotations(strategy, render(t))]


def test_shortest_positions_match_the_first_leaf_counts():
    # R^k once per node off the spine whose first leaf is k, k ascending
    rng = random.Random(30)
    counts = catalan_counts(30)
    labeled = [with_indexed_leaves(random_shape(30, rng, counts)) for _ in range(200)]
    for t in [*all_shapes_upto(9), *labeled]:
        expected = [
            "R" * k for k, count in enumerate(off_spine_first_leaves(t)) for _ in range(count)
        ]
        assert _positions("shortest", t) == expected, render(t)


def test_longest_positions_fire_each_redex_down_its_right_spine():
    # each redex p, deepest first, at p, pR, ... once per node of its left child
    for t in all_shapes_upto(8):
        expected = [
            p + "R" * e
            for p in find_redexes(t)
            for e in range(naive_size(subterm_at(t, p).left))
        ]
        assert _positions("longest", t) == expected, render(t)


def test_steps_view_is_a_read_only_sequence():
    trace = normalize_longest(parse(EXAMPLE))
    steps = trace.steps
    replayed = tuple(steps)
    assert steps == replayed and steps == list(replayed) and steps == trace.steps
    assert steps != replayed[:2]
    assert steps[0] == replayed[0] and steps[-1] == replayed[-1]
    assert steps[1:] == replayed[1:]
    assert list(reversed(steps)) == list(reversed(replayed))
    assert (steps == 3) is False
    with pytest.raises(IndexError):
        steps[3]
    with pytest.raises(AttributeError):
        trace.step_count = 0


@pytest.mark.parametrize("index", [1.5, "x", None])
def test_steps_index_must_be_an_integer(index):
    # the same TypeError as a tuple gives, not islice's ValueError
    steps = normalize(left_chain(4), "longest").steps
    with pytest.raises(TypeError):
        steps[index]
    with pytest.raises(TypeError):
        tuple(steps)[index]
    assert steps[True] == steps[1] == tuple(steps)[1]


def test_steps_reversed_and_index_replay_once(monkeypatch):
    # Sequence's own reversed and index call __getitem__ per index, and each
    # call replays from the start: 18,145 apply_at calls here
    steps = normalize(left_chain(20), "longest").steps
    replayed = tuple(steps)
    calls = []

    def counting(t, p):
        calls.append(p)
        return apply_at(t, p)

    monkeypatch.setattr("assocnf.rewrite.apply_at", counting)
    assert len(steps) == 190
    assert list(reversed(steps)) == list(reversed(replayed))
    assert len(calls) == 190
    for value, args, calls_made in [
        (replayed[-1], (), 190),
        (replayed[0], (), 1),
        (replayed[5], (-185, -1), 6),
        (replayed[7], (3, 8), 8),
    ]:
        calls.clear()
        assert steps.index(value, *args) == replayed.index(value, *args)
        assert len(calls) == calls_made
    for args in [(6,), (-3, 200), (0, -190), (150, 10)]:
        with pytest.raises(ValueError):
            replayed.index(replayed[5], *args)
        with pytest.raises(ValueError):
            steps.index(replayed[5], *args)


def test_steps_of_an_unknown_strategy_raise():
    trace = Trace(parse(EXAMPLE), parse("(a*(b*(c*d)))"), "fastest", 3)
    with pytest.raises(ValueError, match="unknown strategy 'fastest'"):
        list(trace.steps)


def test_normalize_dispatch():
    t = parse(EXAMPLE)
    short = normalize(t, "shortest")
    long = normalize(t, "longest")
    assert short.final == long.final == parse("(a*(b*(c*d)))")
    assert normalize(Leaf("a"), "shortest").steps == ()
    assert normalize(Leaf("a"), "longest").steps == ()
    with pytest.raises(ValueError):
        normalize(t, "fastest")


def test_strategies_agree_on_random_terms():
    counts = catalan_counts(8)
    rng = random.Random(1184)
    for _ in range(100):
        t = random_shape(8, rng, counts)
        short = normalize(t, "shortest")
        long = normalize(t, "longest")
        assert short.final == long.final
        assert len(short.steps) == size(t) - depth_rightmost(t)
        assert len(long.steps) == sigma(t)


def test_format_position():
    assert format_position("") == "ε"
    assert format_position("RL") == "RL"


def test_step_is_immutable_record():
    step = Step("R", Leaf("a"))
    with pytest.raises(AttributeError):
        step.position = "L"

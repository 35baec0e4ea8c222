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
)
from assocnf.terms import (
    Leaf,
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
# the first step of the shortest strategy


def _first_shortest_step(t):
    return next(iter(normalize_shortest(t).steps), None)


def test_step_shortest_fires_at_root():
    step = _first_shortest_step(parse(EXAMPLE))
    assert step is not None
    assert render(step.term_after) == "((a*b)*(c*d))"
    assert step.position == ""


def test_step_shortest_none_on_nf():
    assert _first_shortest_step(parse("(a*(b*(c*d)))")) is None
    assert _first_shortest_step(Leaf("a")) is None


def test_step_shortest_descends_past_leaf_lefts():
    step = _first_shortest_step(parse("(a*((b*c)*d))"))
    assert step is not None
    assert render(step.term_after) == "(a*(b*(c*d)))"
    assert step.position == "R"


def test_step_shortest_increments_rightmost_depth():
    for t in all_shapes_upto(6):
        step = _first_shortest_step(t)
        if step is None:
            assert measure(t).is_nf
        else:
            assert depth_rightmost(step.term_after) == depth_rightmost(t) + 1


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
    assert tuple(trace.steps) == ()
    assert trace.final == Leaf("a")


def test_normalize_shortest_left_chain():
    trace = normalize_shortest(left_chain(5))
    assert len(trace.steps) == 4
    assert trace.final == right_chain(5)


def test_normalize_shortest_step_count_formula():
    for t in all_shapes_upto(7):
        trace = normalize_shortest(t)
        assert len(trace.steps) == size(t) - depth_rightmost(t)
        assert measure(trace.final).is_nf


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
    assert tuple(trace.steps) == ()
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
            assert measure(trace.final).is_nf


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
    # a read-only view with a length that replays the same steps each time;
    # it has no indexing or reversed of its own, so callers take a tuple
    trace = normalize_longest(parse(EXAMPLE))
    steps = trace.steps
    replayed = tuple(steps)
    assert len(steps) == len(replayed) == trace.step_count == 3
    assert tuple(steps) == replayed == tuple(trace.steps)
    assert [render(s.term_after) for s in steps] == [
        render(s.term_after) for s in replayed
    ]
    with pytest.raises(TypeError):
        steps[0]
    with pytest.raises(TypeError):
        reversed(steps)
    with pytest.raises(AttributeError):
        trace.step_count = 0
    with pytest.raises(AttributeError):
        trace.steps = replayed


def test_steps_reversed_and_index_replay_once(monkeypatch):
    # len replays nothing, and each iteration replays the trace exactly once,
    # so a reversed or indexed copy costs one replay, not one per index
    trace = normalize(left_chain(20), "longest")
    steps = trace.steps
    calls = []

    def counting(t, p):
        calls.append(p)
        return apply_at(t, p)

    monkeypatch.setattr("assocnf.rewrite.apply_at", counting)
    assert len(steps) == 190
    assert calls == []
    first = list(steps)
    assert len(calls) == 190
    calls.clear()
    replayed = tuple(steps)
    assert list(replayed) == first
    assert len(calls) == 190
    calls.clear()
    assert list(reversed(replayed)) == first[::-1]
    assert replayed.index(first[-1]) == 189
    assert replayed.index(first[5], -185, -1) == 5
    assert calls == []


def test_steps_of_an_unknown_strategy_raise():
    trace = Trace(parse(EXAMPLE), "fastest", 3)
    with pytest.raises(ValueError, match="unknown strategy 'fastest'"):
        list(trace.steps)


def test_normalize_dispatch():
    t = parse(EXAMPLE)
    short = normalize(t, "shortest")
    long = normalize(t, "longest")
    assert short.final == long.final == parse("(a*(b*(c*d)))")
    assert tuple(normalize(Leaf("a"), "shortest").steps) == ()
    assert tuple(normalize(Leaf("a"), "longest").steps) == ()
    with pytest.raises(ValueError):
        normalize(t, "fastest")


@pytest.mark.parametrize(
    "value", ["((a*b)*c)", None, ("a", "b")], ids=["text", "None", "tuple"]
)
@pytest.mark.parametrize(
    "function",
    [
        measure,
        size,
        sigma,
        depth_rightmost,
        find_redexes,
        normalize_shortest,
        normalize_longest,
        normalize,
    ],
    ids=lambda f: f.__name__,
)
def test_a_value_that_is_not_a_term_is_refused(function, value):
    # every walk takes a non-term for a leaf, so each entry checks once
    with pytest.raises(TypeError, match=f"expected a Term, got {type(value).__name__}$"):
        function(value)


@pytest.mark.parametrize("position", ["", "L"], ids=["root", "L"])
@pytest.mark.parametrize(
    "value", ["((a*b)*c)", None, ("a", "b")], ids=["text", "None", "tuple"]
)
def test_apply_at_refuses_a_value_that_is_not_a_term(value, position):
    # not NotARedex or InvalidPosition, as if a term had no redex there
    with pytest.raises(TypeError, match=f"expected a Term, got {type(value).__name__}$"):
        apply_at(value, position)


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

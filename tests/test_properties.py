"""Hypothesis-based invariants over randomly generated terms."""

import re

from hypothesis import given, strategies as st

from assocnf.rewrite import (
    _step_texts,
    apply_at,
    find_redexes,
    normalize_longest,
    normalize_shortest,
)
from assocnf.terms import (
    Leaf,
    Node,
    depth_rightmost,
    is_normal_form,
    measure,
    parse,
    render,
    sigma,
    size,
)

from helpers import (
    naive_sigma,
    naive_size,
    reference_longest,
    reference_shortest,
    subterm_at,
)

labels = st.one_of(st.none(), st.from_regex(r"[a-z0-9_]{1,3}", fullmatch=True))
leaves = st.builds(Leaf, labels)
terms = st.recursive(leaves, lambda children: st.builds(Node, children, children), max_leaves=24)


@given(terms)
def test_parse_render_round_trip(t):
    assert parse(render(t)) == t


@given(terms, st.data())
def test_whitespace_at_token_boundaries_is_ignored(t, data):
    # a run of whitespace, maybe empty, before each token and after the last
    tokens = re.findall(r"[a-z0-9_]+|.", render(t))
    gap = st.text(" \t\r\n", max_size=3)
    runs = data.draw(st.lists(gap, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    text = "".join(run + token for run, token in zip(runs, tokens + [""]))
    assert parse(text) == t


@given(terms)
def test_iterative_measures_match_definitions(t):
    assert size(t) == naive_size(t)
    assert sigma(t) == naive_sigma(t)


@given(terms)
def test_sigma_upper_bound(t):
    n = size(t)
    assert 0 <= sigma(t) <= n * (n - 1) // 2


@given(terms)
def test_normal_form_three_way_agreement(t):
    no_redex = find_redexes(t) == []
    assert is_normal_form(t) == no_redex == (depth_rightmost(t) == size(t))


@given(terms)
def test_step_law_at_every_redex(t):
    for p in find_redexes(t):
        after = apply_at(t, p)
        assert size(after) == size(t)
        assert sigma(after) == sigma(t) - size(subterm_at(t, p).left.left) - 1
        # rightmost depth grows by 1 for spine redexes, is untouched elsewhere
        on_spine = set(p) <= {"R"}
        assert depth_rightmost(after) == depth_rightmost(t) + (1 if on_spine else 0)


@given(terms)
def test_single_shortest_step_grows_rightmost_depth(t):
    steps = list(normalize_shortest(t).steps)
    assert (steps == []) == is_normal_form(t)
    before = t
    for step in steps:
        assert step.term_after == apply_at(before, step.position)
        assert depth_rightmost(step.term_after) == depth_rightmost(before) + 1
        before = step.term_after


@given(terms)
def test_strategies_reach_the_same_normal_form(t):
    short = normalize_shortest(t)
    long = normalize_longest(t)
    assert short.final == long.final
    assert is_normal_form(short.final)
    assert len(short.steps) == size(t) - depth_rightmost(t)
    assert len(long.steps) == sigma(t)
    assert len(short.steps) <= len(long.steps)


def _leaf_objects(t):
    return [t] if isinstance(t, Leaf) else _leaf_objects(t.left) + _leaf_objects(t.right)


@given(terms)
def test_normal_form_is_built_from_the_terms_own_leaves(t):
    # the chain hangs t's Leaf objects in order; an NF comes back as itself
    leaf_ids = [id(x) for x in _leaf_objects(t)]
    for trace in (normalize_shortest(t), normalize_longest(t)):
        assert [id(x) for x in _leaf_objects(trace.final)] == leaf_ids
        assert (trace.final is t) == measure(t).is_nf


@given(terms)
def test_shortest_trace_replays(t):
    trace = normalize_shortest(t)
    cur = trace.start
    for step in trace.steps:
        cur = apply_at(cur, step.position)
        assert cur == step.term_after
    assert cur == trace.final


@given(terms)
def test_strategies_match_reference_step_by_step(t):
    for trace, expected in (
        (normalize_shortest(t), reference_shortest(t)),
        (normalize_longest(t), reference_longest(t)),
    ):
        assert [(s.position, s.term_after) for s in trace.steps] == expected
        assert trace.step_count == len(expected)
        assert trace.final == (expected[-1][1] if expected else t)


@given(terms)
def test_step_texts_match_rendered_steps(t):
    for trace in (normalize_shortest(t), normalize_longest(t)):
        expected = [(s.position, render(s.term_after)) for s in trace.steps]
        assert list(_step_texts(trace.strategy, render(trace.start))) == expected

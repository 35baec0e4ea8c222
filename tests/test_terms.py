"""Term construction, text format, and measures."""

import random

import pytest

from assocnf.oracle import enumerate_shapes
from assocnf.terms import (
    Leaf,
    Node,
    ParseError,
    depth_rightmost,
    is_normal_form,
    left_chain,
    measure,
    parse,
    render,
    right_chain,
    sigma,
    size,
)

from helpers import comb_shape, remy_shape, shape_of, spine_over_chains, with_indexed_leaves

# The worked example used throughout: a 3-node left chain with labeled leaves.
EXAMPLE = "(((a*b)*c)*d)"


def test_parse_example_structure():
    expected = Node(
        Node(Node(Leaf("a"), Leaf("b")), Leaf("c")),
        Leaf("d"),
    )
    assert parse(EXAMPLE) == expected


def test_parse_unlabeled_leaf():
    assert parse(".") == Leaf(None)


def test_parse_two_left_chain():
    assert parse("((.*.)*.)") == Node(Node(Leaf(None), Leaf(None)), Leaf(None))


def test_parse_allows_whitespace():
    assert parse("  ( ( a * b )\t* c )\n") == parse("((a*b)*c)")


def test_parse_multichar_labels():
    t = parse("(x1*(long_label*.))")
    assert t == Node(Leaf("x1"), Node(Leaf("long_label"), Leaf(None)))


PARSE_ERRORS = [
    ("", 0, "unexpected end of input"),
    ("(", 1, "unexpected end of input"),
    ("()", 1, "expected a term, found ')'"),
    ("(*a)", 1, "expected a term, found '*'"),
    ("(a", 2, "unexpected end of input, expected '*'"),
    ("(a*b", 4, "unexpected end of input, expected ')'"),
    ("(a%b)", 2, "expected '*', found '%'"),
    ("(A*b)", 1, "expected a term, found 'A'"),
    ("(a*b))", 5, "trailing input ')'"),
    ("a)", 1, "trailing input ')'"),
    ("(.*.)x", 5, "trailing input 'x'"),
    ("a b", 2, "trailing input 'b'"),
    ("(a*b))ß", 5, "trailing input ')'"),
    ("(a*b*c)", 4, "expected ')', found '*'"),
]


@pytest.mark.parametrize(
    "text,offset,message", PARSE_ERRORS, ids=[f"{t}-{o}" for t, o, _ in PARSE_ERRORS]
)
def test_parse_errors_carry_byte_offset(text, offset, message):
    # every form of the three refusals: a term expected, '*' or ')' expected
    # after a term, and trailing input
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.offset == offset
    assert str(exc.value) == f"{message} at byte {offset}"


def test_parse_rejects_non_ascii_at_its_own_offset():
    # non-ASCII is never grammar, so it is always the fault itself and
    # everything before it is ASCII: byte offset == char offset
    with pytest.raises(ParseError) as exc:
        parse("(a*ß)")
    assert exc.value.offset == 3
    with pytest.raises(ParseError) as exc:
        parse("(ß*a)")
    assert exc.value.offset == 1


@pytest.mark.parametrize(
    "term,expected",
    [
        (Leaf("a"), "a"),
        (Node(Node(Leaf(None), Leaf(None)), Leaf(None)), "((.*.)*.)"),
        (
            Node(Node(Leaf("a"), Leaf("b")), Node(Leaf("c"), Leaf("d"))),
            "((a*b)*(c*d))",
        ),
    ],
)
def test_render(term, expected):
    assert render(term) == expected


@pytest.mark.parametrize(
    "text",
    [
        ".",
        "a",
        "(a*b)",
        EXAMPLE,
        "((a*b)*(c*d))",
        "(a*(b*(c*d)))",
        "(.*((.*.)*.))",
        "(x_9*(.*q))",
    ],
)
def test_round_trip(text):
    t = parse(text)
    assert render(t) == text
    assert parse(render(t)) == t


@pytest.mark.parametrize(
    "term",
    [
        Node(parse("(a*b)"), ")"),
        Node(parse("(a*b)"), "c"),
        Node("a", "b"),
        Node(Leaf("a"), 7),
        Node(parse("(a*b)"), None),
        Node(None, Leaf("a")),
    ],
    ids=["paren-str", "label-str", "str-children", "int-right", "none-right", "none-left"],
)
def test_render_rejects_children_that_are_not_terms(term):
    # Node does not check its children, so render must never print a child
    # that is not a term: a str child would read back as a different term
    with pytest.raises(AttributeError):
        render(term)


def test_leaf_label_validation():
    assert Leaf("ab_0").label == "ab_0"
    assert Leaf().label is None
    with pytest.raises(ValueError):
        Leaf("")
    with pytest.raises(ValueError):
        Leaf("A")
    with pytest.raises(ValueError):
        Leaf("a b")
    # not a str: a list or tuple of valid characters would pass the set
    # test and break render, str and hash later
    for label in (["a", "b"], ("a",), 5, b"ab"):
        with pytest.raises(ValueError, match="invalid leaf label"):
            Leaf(label)


def test_size():
    assert size(Leaf()) == 0
    assert size(parse(EXAMPLE)) == 3
    assert size(parse("(a*(b*(c*d)))")) == 3


def test_sigma():
    assert sigma(Leaf()) == 0
    assert sigma(parse("(((.*.)*.)*.)")) == 3
    assert sigma(parse("((a*b)*(c*d))")) == 1


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
def test_sigma_of_chains(n):
    assert sigma(left_chain(n)) == n * (n - 1) // 2
    assert sigma(right_chain(n)) == 0


def test_depth_rightmost():
    assert depth_rightmost(Leaf()) == 0
    assert depth_rightmost(parse(EXAMPLE)) == 1
    assert depth_rightmost(parse("(a*(b*(c*d)))")) == 3


def test_is_normal_form():
    assert is_normal_form(Leaf())
    assert is_normal_form(parse("(a*(b*(c*d)))"))
    assert not is_normal_form(parse("((a*b)*(c*d))"))


def test_chain_constructors():
    assert render(left_chain(0)) == render(right_chain(0)) == "."
    assert render(left_chain(1)) == "(.*.)"
    assert render(left_chain(3)) == "(((.*.)*.)*.)"
    assert render(right_chain(3)) == "(.*(.*(.*.)))"
    assert size(left_chain(7)) == size(right_chain(7)) == 7
    assert is_normal_form(right_chain(7))
    assert not is_normal_form(left_chain(7))
    for chain in (left_chain, right_chain):
        with pytest.raises(ValueError, match="chain size must be nonnegative"):
            chain(-1)


def test_measure_matches_components():
    terms = [parse(text) for text in [".", "a", EXAMPLE, "((a*b)*(c*d))", "(a*(b*(c*d)))"]]
    terms += [t for n in range(8) for t in enumerate_shapes(n)]
    # the five families of the allocation and peak-memory gates
    terms += [
        comb_shape(500, 500),
        left_chain(1000),
        remy_shape(1000, random.Random(1000)),
        right_chain(1000),
        spine_over_chains(1000),
    ]
    for t in terms:
        m = measure(t)
        assert m.size == size(t)
        assert m.sigma == sigma(t)
        assert m.d_rm == depth_rightmost(t)
        assert m.is_nf == is_normal_form(t)
        assert 0 <= m.d_rm <= m.size
        assert m.sigma <= m.size * (m.size - 1) // 2


def test_equality_and_hash():
    a = parse("((a*b)*c)")
    b = parse("((a*b)*c)")
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse("((a*b)*d)")
    assert a != parse("(a*(b*c))")
    assert Leaf("a") != Leaf()
    assert parse("(.*.)") != Leaf()


def test_equal_terms_hash_equal_across_sharing():
    # enumerate_shapes shares subtrees between shapes; the parsed copies
    # share nothing but their leaves.
    for n in range(8):
        for t in enumerate_shapes(n):
            copy = parse(render(t))
            assert copy == t
            assert hash(copy) == hash(t)
            assert copy in {t} and t in {copy}
    assert hash(Leaf()) == hash(parse("."))
    assert Leaf("a") != "a"


def test_shape_equality_ignores_nothing():
    # structural equality includes labels; same shape, different labels differ
    assert parse("((a*b)*c)") != parse("((.*.)*.)")


def test_deep_chains_are_stack_safe():
    n = 1_000_000
    lc = left_chain(n)
    rc = right_chain(n)
    assert size(lc) == n
    assert sigma(lc) == n * (n - 1) // 2
    assert depth_rightmost(lc) == 1
    assert not is_normal_form(lc)
    assert size(rc) == n
    assert sigma(rc) == 0
    assert depth_rightmost(rc) == n
    assert is_normal_form(rc)


def test_deep_round_trip_is_stack_safe():
    n = 1_000_000
    lc = left_chain(n)
    text = render(lc)
    assert len(text) == 4 * n + 1
    back = parse(text)
    assert back == lc
    assert hash(back) == hash(lc)


def test_deep_helper_copies_are_stack_safe():
    n = 20_000
    t = with_indexed_leaves(left_chain(n))
    labels = render(t).replace("(", "").replace(")", "").split("*")
    assert labels == [f"x{i}" for i in range(n + 1)]
    assert shape_of(t) == left_chain(n)

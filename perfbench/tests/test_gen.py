import random
from collections import Counter

from check import catalan, shape
from gen import chain_term, comb_term, remy, spine_work, tree_text, typical_random_term
from workloads import WORKLOADS


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for build in WORKLOADS.values():
        first = [op.argv for op in build(7, str(tmp_path))]
        assert first == [op.argv for op in build(7, str(tmp_path))]
    assert [op.argv for op in WORKLOADS["normalize"](8, str(tmp_path))] != [
        op.argv for op in WORKLOADS["normalize"](7, str(tmp_path))
    ]


def test_remy_covers_all_14_shapes_evenly():
    rng = random.Random(0)
    counts = Counter(tree_text(*remy(4, rng), ["."] * 5) for _ in range(14_000))
    assert len(counts) == catalan(4) == 14
    # 1000 expected per shape; the standard deviation is about 31.
    assert all(850 < c < 1150 for c in counts.values()), counts


def test_remy_builds_a_1e5_node_term_without_recursion():
    text = tree_text(*remy(100_000, random.Random(1)), ["."] * 100_001)
    assert shape(text).size == 100_000


def test_family_shapes_have_their_closed_form_measures():
    rng = random.Random(2)
    comb = shape(comb_term(5, 7, 0.5, rng))
    assert (comb.size, comb.sigma, comb.d_rm) == (12, 21, 6)
    chain = shape(chain_term(30, 1.0, rng))
    assert (chain.size, chain.sigma, chain.d_rm) == (30, 435, 1)
    assert all(x != "." for x in chain.leaves)


def test_spine_work_matches_a_direct_count():
    # Left chain: the spine stays empty.  Comb (k, m): m - 1 steps, each
    # under a spine of k nodes.
    assert spine_work(*remy(0, random.Random(0))) == 0
    for k, m in ((0, 9), (4, 6), (10, 3)):
        text = comb_term(k, m, 0.0, random.Random(0))
        left, right, stack = [], [], []
        for c in text:  # arrays from text, leaves are -1 children
            if c == ".":
                left.append(-1), right.append(-1)
                stack.append(len(left) - 1)
            elif c == ")":
                r, l = stack.pop(), stack.pop()
                left.append(l), right.append(r)
                stack.append(len(left) - 1)
        assert spine_work(stack[0], left, right) == k * (m - 1)


def test_typical_random_term_has_the_requested_size():
    assert shape(typical_random_term(50, 0.5, random.Random(3))).size == 50

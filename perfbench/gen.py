"""Seeded input generators: uniform random shapes, combs and left chains.

Every generator returns canonical term text (no whitespace, ``.`` for an
unlabeled leaf), so the program under test receives only generated text and
the checker can compare outputs byte for byte.  The same ``random.Random``
state always yields the same text.
"""

from __future__ import annotations

import math
import random

_LABELS = ("a", "b", "c", "x", "y", "z", "k1", "k2", "v_0", "w9")


def remy(n: int, rng: random.Random) -> tuple[int, list[int], list[int]]:
    """A uniform random binary tree with ``n`` internal nodes (Rémy 1985).

    Iterative: grows the tree one internal node at a time by picking one of
    the ``2i+1`` existing nodes uniformly and a side uniformly, so a 10^5-node
    tree never recurses.  Returns ``(root, left, right)``; ``left[x] == -1``
    marks a leaf.  Leaves are the even ids, internal nodes the odd ids.
    """
    left = [-1] * (2 * n + 1)
    right = [-1] * (2 * n + 1)
    parent = [-1] * (2 * n + 1)
    root = 0
    for i in range(n):
        x = rng.randrange(2 * i + 1)
        node, leaf = 2 * i + 1, 2 * i + 2
        p = parent[x]
        if p == -1:
            root = node
        elif left[p] == x:
            left[p] = node
        else:
            right[p] = node
        parent[node] = p
        if rng.random() < 0.5:
            left[node], right[node] = x, leaf
        else:
            left[node], right[node] = leaf, x
        parent[x] = parent[leaf] = node
    return root, left, right


def leaf_labels(count: int, share: float, rng: random.Random) -> list[str]:
    """``count`` leaf tokens, each labeled with probability ``share``."""
    return [
        rng.choice(_LABELS) if rng.random() < share else "." for _ in range(count)
    ]


def tree_text(root: int, left: list[int], right: list[int], labels: list[str]) -> str:
    """Canonical text of an array tree; leaves take ``labels`` left to right."""
    out: list[str] = []
    stack: list = [root]
    leaves = iter(labels)
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
        elif left[x] == -1:
            out.append(next(leaves))
        else:
            stack += (")", right[x], "*", left[x], "(")
    return "".join(out)


def random_term(n: int, share: float, rng: random.Random) -> str:
    """Uniform random shape with ``n`` internal nodes."""
    root, left, right = remy(n, rng)
    return tree_text(root, left, right, leaf_labels(n + 1, share, rng))


def typical_random_term(n: int, share: float, rng: random.Random) -> str:
    """Of five uniform random shapes, the one with the median
    :func:`spine_work`, so that one op's cost varies little between seeds."""
    trees = sorted((remy(n, rng) for _ in range(5)), key=lambda t: spine_work(*t))
    return tree_text(*trees[2], leaf_labels(n + 1, share, rng))


def comb_term(k: int, m: int, share: float, rng: random.Random) -> str:
    """A right spine of ``k`` nodes over a left chain of ``m`` nodes."""
    ls = leaf_labels(k + m + 1, share, rng)
    spine = "".join(f"({leaf}*" for leaf in ls[:k])
    chain = "(" * m + ls[k] + "".join(f"*{leaf})" for leaf in ls[k + 1 :])
    return spine + chain + ")" * k


def chain_term(m: int, share: float, rng: random.Random) -> str:
    """Left chain of ``m`` nodes: ``sigma = m(m-1)/2``, the worst case."""
    return comb_term(0, m, share, rng)


def spine_work(root: int, left: list[int], right: list[int]) -> int:
    """Sum over the shortest strategy's steps of the validated spine length.

    Replays the shortest strategy in place on copies of the arrays: rotate
    at the first right-spine node whose left child is internal.  This is the
    part of the strategy's cost that varies between shapes of one size.
    """
    left, right = left[:], right[:]
    focus, spine, work = root, 0, 0
    while left[focus] != -1:
        inner = left[focus]
        if left[inner] == -1:
            spine += 1
            focus = right[focus]
            continue
        x, y, z = left[inner], right[inner], right[focus]
        left[inner], right[inner] = y, z
        left[focus], right[focus] = x, inner
        work += spine
    return work


def log_sizes(lo: int, hi: int, count: int) -> list[int]:
    """``count >= 2`` integers spread evenly on a log scale from ``lo`` to ``hi``."""
    step = math.log(hi / lo) / (count - 1)
    return [round(lo * math.exp(i * step)) for i in range(count)]

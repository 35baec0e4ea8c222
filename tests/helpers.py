"""Small self-contained oracles and input generators for the tests.

The measures and shapes here are written as the plainest possible recursion
or recurrence, independent of the library's iterative implementations, so
tests can compare the two sides; they are only meant for small terms.
``sigma_counts`` and ``ballot_counts`` count shapes by ``sigma`` and by
``d_rm`` with closed forms that the library does not compute.
``scan_successors`` reads each word's rotations bit by bit, the reference for
the oracle's recurrence, and ``texts_in_order`` lists the shapes of one size
by plain recursion, the reference for the ``enumerate`` command's successor.
The reference strategies replay each step the slow, obvious way.  The
relabelling copies and the large shape generators at the end are iterative.
"""

from itertools import count
from math import comb, isqrt

from assocnf.rewrite import apply_at, find_redexes
from assocnf.terms import Leaf, Node, left_chain


def catalan_counts(n_max):
    """Catalan numbers C(0)..C(n_max) straight from the split recurrence."""
    counts = [1]
    for n in range(1, n_max + 1):
        counts.append(sum(counts[i] * counts[n - 1 - i] for i in range(n)))
    return counts


def q_catalan(n_max):
    """The q-Catalan polynomials C_0..C_n_max as coefficient lists, by their
    own recurrence: C_0 = 1, C_(m+1)(q) = sum_k q^((k+1)(m-k)) C_k(q) C_(m-k)(q).
    """
    rows = [[1]]
    for m in range(n_max):
        row = [0] * (m * (m + 1) // 2 + 1)
        for k in range(m + 1):
            shift = (k + 1) * (m - k)
            for i, a in enumerate(rows[k]):
                for j, b in enumerate(rows[m - k]):
                    row[shift + i + j] += a * b
        rows.append(row)
    return rows


def sigma_counts(n):
    """The number of shapes of size ``n`` with ``sigma = k``, as ``{k: count}``:
    the coefficient of q^(n(n-1)/2 - k) in the q-Catalan polynomial C_n(q)."""
    top = n * (n - 1) // 2
    return {top - e: count for e, count in enumerate(q_catalan(n)[n]) if count}


def ballot_counts(n):
    """The number of shapes of size ``n`` with ``d_rm = d``, as ``{d: count}``.

    For n >= 1 they are the ballot numbers d/(2n-d) C(2n-d, n), d = 1..n; the
    leaf is the one shape of size 0.
    """
    if n == 0:
        return {0: 1}
    counts = {}
    for d in range(1, n + 1):
        counts[d], rem = divmod(d * comb(2 * n - d, n), 2 * n - d)
        assert rem == 0
    return counts


# A canonical unlabeled text read as its preorder word: '(' opens a node (0),
# '.' is a leaf (1), and '*' and ')' carry no bits.
_WORD_BITS = str.maketrans({"(": "0", ".": "1", "*": None, ")": None})


def preorder_word(text):
    """The preorder word of a canonical unlabeled text, as an integer."""
    return int(text.translate(_WORD_BITS), 2)


def scan_successors(w: int, nbits: int) -> list[int]:
    """Words one rotation away from the ``nbits``-bit word ``w``.

    One scan from the least significant bit reads the word backwards: a leaf
    pushes its offset, a node pops its left child's lowest offset.  A node
    at ``k`` whose left child is the node at ``k-1`` is a redex; that child's
    left child ``X`` spans offsets ``prev..k-2``, and the rotation adds
    ``w``'s bits there to ``w``.
    """
    lows: list[int] = []  # lowest bit offset of each pending subtree
    out = []
    prev = -1  # lowest offset of the left child of a node at k-1, else -1
    for k in range(nbits):
        if w >> k & 1:
            lows.append(k)
            prev = -1
        else:
            if prev >= 0:
                out.append(w + (w & ((1 << (k - 1)) - (1 << prev))))
            prev = lows.pop()
    return out


def shapes_up_to(m):
    """Every shape of size at most ``m`` as ``(text, size)``, in text order.

    A node's text is ``(left*right)``, and no text is a prefix of another, so
    nodes sort by left subtree, of any smaller size, then by right subtree;
    ``(`` sorts before ``.``, so the leaf comes last.  Lazy: each text is made
    as it is yielded.
    """
    if m:
        for left, i in shapes_up_to(m - 1):
            for right, j in shapes_up_to(m - 1 - i):
                yield f"({left}*{right})", i + j + 1
    yield ".", 0


def texts_in_order(n):
    """Every shape of size ``n`` as its text, in text order, one at a time."""
    return (text for text, size in shapes_up_to(n) if size == n)


def sinks(g):
    """The texts of a rewrite graph's nodes that have no successor."""
    return [u for u, vs in zip(g.nodes, g.targets) if not vs]


def naive_size(t):
    if isinstance(t, Leaf):
        return 0
    return 1 + naive_size(t.left) + naive_size(t.right)


def naive_sigma(t):
    if isinstance(t, Leaf):
        return 0
    return naive_sigma(t.left) + naive_sigma(t.right) + naive_size(t.left)


def off_spine_first_leaves(t):
    """For each leaf, left to right, how many nodes off the root's right
    spine have it as their first leaf."""
    counts = [0] * (naive_size(t) + 1)

    def walk(x, first, on_spine):
        if isinstance(x, Leaf):
            return
        if not on_spine:
            counts[first] += 1
        walk(x.left, first, False)
        walk(x.right, first + naive_size(x.left) + 1, on_spine)

    walk(t, 0, True)
    return counts


def first_leaves(t):
    """``lo`` of ``t``: for each node in in-order, the index of the first leaf
    of its subtree, leaves counted from 0 left to right."""
    lo = []

    def walk(x, first):
        """Append ``lo`` of ``x``'s nodes; return its leaf count."""
        if isinstance(x, Leaf):
            return 1
        leaves = walk(x.left, first)
        lo.append(first)
        return leaves + walk(x.right, first + leaves)

    walk(t, 0)
    return lo


def subterm_at(t, path):
    for ch in path:
        t = t.left if ch == "L" else t.right
    return t


def leaves_in_order(t):
    if isinstance(t, Leaf):
        return [t.label]
    return leaves_in_order(t.left) + leaves_in_order(t.right)


def right_chain_over(labels):
    """The right-nested term whose leaves are ``labels`` in order."""
    t = Leaf(labels[-1])
    for label in reversed(labels[:-1]):
        t = Node(Leaf(label), t)
    return t


def _copy_with_leaves(t, new_leaf):
    """Copy of ``t`` whose leaves, left to right, are ``new_leaf()`` calls.

    Iterative, so any depth works: a ``None`` marker on the stack joins the
    last two finished subtrees.
    """
    done = []
    stack = [t]
    while stack:
        x = stack.pop()
        if x is None:
            right = done.pop()
            done[-1] = Node(done[-1], right)
        elif isinstance(x, Leaf):
            done.append(new_leaf())
        else:
            stack += [None, x.right, x.left]
    return done[0]


def shape_of(t):
    """Copy of ``t`` with labels stripped."""
    return _copy_with_leaves(t, Leaf)


def random_shape(n, rng, counts):
    """Uniformly random shape of size ``n``; splits weighted by Catalan products."""
    if n == 0:
        return Leaf(None)
    weights = [counts[i] * counts[n - 1 - i] for i in range(n)]
    i = rng.choices(range(n), weights=weights)[0]
    return Node(random_shape(i, rng, counts), random_shape(n - 1 - i, rng, counts))


def with_indexed_leaves(t, prefix="x"):
    """Relabel leaves ``x0, x1, ...`` left to right (labels stay distinct)."""
    counter = count()
    return _copy_with_leaves(t, lambda: Leaf(f"{prefix}{next(counter)}"))


def reference_shortest(t):
    """The shortest strategy one snapshot at a time: ``[(position, term_after)]``.

    Keeps a cursor down the right spine and rebuilds the whole spine above it
    after every rotation, so it costs O(size * depth) on deep spines.
    """
    spine = []
    focus = t
    steps = []
    while True:
        while isinstance(focus, Node) and isinstance(focus.left, Leaf):
            spine.append(focus)
            focus = focus.right
        if not isinstance(focus, Node):
            return steps
        inner = focus.left
        focus = Node(inner.left, Node(inner.right, focus.right))
        snapshot = focus
        for parent in reversed(spine):
            snapshot = Node(parent.left, snapshot)
        steps.append(("R" * len(spine), snapshot))


def reference_longest(t):
    """The longest strategy by search: ``[(position, term_after)]``.

    Every step lists all redexes and fires at the first one (deepest, then
    leftmost), so it costs O(size log size) per step.
    """
    steps = []
    while True:
        redexes = find_redexes(t)
        if not redexes:
            return steps
        t = apply_at(t, redexes[0])
        steps.append((redexes[0], t))


def remy_shape(n, rng):
    """Uniformly random shape with ``n`` internal nodes (Rémy 1985), iteratively.

    Grows a tree one internal node at a time: pick one of the ``2i+1``
    existing nodes uniformly, put a new node in its place and hang the
    picked node and a new leaf under it, on a random side.
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
    # Preorder puts parents before children; build terms in reverse of it.
    order = []
    stack = [root]
    while stack:
        x = stack.pop()
        order.append(x)
        if left[x] != -1:
            stack.append(left[x])
            stack.append(right[x])
    built = [None] * (2 * n + 1)
    for x in reversed(order):
        built[x] = Leaf(None) if left[x] == -1 else Node(built[left[x]], built[right[x]])
    return built[root]


def comb_shape(k, m):
    """A right spine of ``k`` nodes with leaf left children over ``left_chain(m)``."""
    t = left_chain(m)
    for _ in range(k):
        t = Node(Leaf(None), t)
    return t


def spine_over_chains(n):
    """A right spine of ``isqrt(n)`` nodes whose left children are left chains.

    The ``n - isqrt(n)`` chain nodes are shared out as evenly as they go, so
    a walk switches between a right spine and a left chain about √n times.
    """
    k = isqrt(n)
    per, extra = divmod(n - k, k)
    t = Leaf(None)
    for i in range(k):
        t = Node(left_chain(per + (i < extra)), t)
    return t

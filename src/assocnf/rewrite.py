"""Single-step rewriting and normalization strategies for ``(x*y)*z -> x*(y*z)``.

A redex is any node whose left child is itself a node; rewriting replaces
``(x*y)*z`` at that position with ``x*(y*z)``.  Every step preserves term size
and strictly decreases ``sigma``, so every rewrite sequence terminates at the
unique normal form (the right chain over the term's leaves in order).

Two strategies are provided with exact step counts:

* :func:`normalize_shortest` rotates as close to the root as possible and
  reaches the normal form in ``size(t) - depth_rightmost(t)`` steps, in O(size)
  time and memory for every shape.
* :func:`normalize_longest` rotates at the deepest redex (leftmost on ties)
  and takes exactly ``sigma(t)`` steps, each lowering ``sigma`` by 1.  It also
  runs in O(size) time and memory: the step count is ``sigma(t)`` and the
  normal form is unique, so neither needs the steps themselves.

Both return a :class:`Trace` that holds the start term, the normal form and
the step count, never the intermediate terms.  Its ``steps`` view replays the
steps as terms with :func:`apply_at` each time it is iterated, deriving the
positions from the start term: O(size) per step.  The CLI prints a trace
from in-order leaf chunks instead (``_step_texts``), the pieces of
``render(start)`` split at ``*``: a rotation moves one ``(`` and one ``)``
of the text, so each step costs O(depth of the step) plus one join, and no
term is built or rendered after the start.

:func:`apply_at` is the only single-step rotation; :func:`step_shortest`
finds its position and calls it.  The cursor loop behind both strategies'
normal forms peels each run of rotations at one position as a whole
instead, building one node per rotation (``_normalize_spine``).

Positions are strings over ``L``/``R`` read from the root; the empty string
is the root and prints as ``ε``.  When redexes are listed or chosen, deeper
positions come first and ties break lexicographically with ``L < R``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import islice, repeat

from .terms import Leaf, Node, Term, render, sigma

__all__ = [
    "Position",
    "RewriteError",
    "InvalidPosition",
    "NotARedex",
    "Step",
    "Trace",
    "format_position",
    "find_redexes",
    "apply_at",
    "step_shortest",
    "normalize_shortest",
    "normalize_longest",
    "normalize",
    "STRATEGIES",
]

Position = str


def format_position(p: Position) -> str:
    """Printable form of a position; the root shows as ``ε``."""
    return p if p else "ε"


class RewriteError(Exception):
    """Base class for position errors; carries the offending position."""

    def __init__(self, message: str, position: Position):
        super().__init__(message)
        self.position = position


class InvalidPosition(RewriteError):
    """The position walks out of the term (or contains junk characters)."""

    def __init__(self, position: Position):
        super().__init__(
            f"position {format_position(position)} leaves the term", position
        )


class NotARedex(RewriteError):
    """The addressed subterm is a leaf or has a leaf left child."""

    def __init__(self, position: Position):
        super().__init__(
            f"no redex at position {format_position(position)}", position
        )


class Step(namedtuple("Step", "position term_after")):
    """One rewrite application: where it fired and the whole term after."""

    __slots__ = ()


class Trace(namedtuple("Trace", "start final strategy step_count")):
    """A rewrite sequence from ``start`` to its normal form ``final``.

    Holds no intermediate term and no position: ``step_count`` is stored,
    and :attr:`steps` is a read-only view that replays the sequence from
    ``start`` with :func:`apply_at` each time it is iterated, so keeping a
    trace costs nothing beyond ``start`` and ``final``.
    """

    __slots__ = ()

    @property
    def steps(self) -> Steps:
        """The steps in order, rebuilt on demand; ``len`` is O(1)."""
        return Steps(self)


class Steps(Sequence):
    """Read-only view of a :class:`Trace`'s steps, replayed from its start.

    Iterating streams one :class:`Step` at a time, so only the current term
    is alive.  Indexing replays up to the index.  Compares equal to any
    tuple, list or view holding the same steps.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: Trace):
        self._trace = trace

    def __len__(self) -> int:
        return self._trace.step_count

    def __iter__(self) -> Iterator[Step]:
        cur = self._trace.start
        for p in _POSITIONS[self._trace.strategy](cur):
            cur = apply_at(cur, p)
            yield Step(p, cur)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("step index out of range")
        return next(islice(self, index, None))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Steps, tuple, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<{len(self)} {self._trace.strategy} steps>"


def find_redexes(t: Term) -> list[Position]:
    """All redex positions, deepest first, ties left-to-right (``L < R``).

    Empty exactly when ``t`` is in normal form.  Walks down right spines,
    counting ``R`` steps, and builds a path string only at a redex, whose
    left child is the only node it stacks.  Θ(size + sum of redex depths)
    time plus the sort; the output is Θ(sum of redex depths) characters.
    """
    found: list[Position] = []
    stack: list[tuple[Term, str]] = [(t, "")]
    while stack:
        x, head = stack.pop()
        r = 0
        while isinstance(x, Node):
            if isinstance(x.left, Node):
                found.append(head + "R" * r)
                stack.append((x.left, found[-1] + "L"))
            x, r = x.right, r + 1
    found.sort(key=lambda p: (-len(p), p))
    return found


def apply_at(t: Term, p: Position) -> Term:
    """Rewrite ``(x*y)*z -> x*(y*z)`` at position ``p`` of ``t``.

    The result has the same size; its ``sigma`` drops by
    ``size(x) + 1`` where ``x`` is the left-left subtree at ``p``.
    Raises :class:`InvalidPosition` if ``p`` exits the tree and
    :class:`NotARedex` if the subterm there does not match the rule.
    """
    spine: list[Node] = []
    cur = t
    for ch in p:
        if ch not in ("L", "R") or not isinstance(cur, Node):
            raise InvalidPosition(p)
        spine.append(cur)
        cur = cur.left if ch == "L" else cur.right
    if not isinstance(cur, Node) or not isinstance(cur.left, Node):
        raise NotARedex(p)
    inner = cur.left
    result: Term = Node(inner.left, Node(inner.right, cur.right))
    while spine:
        parent = spine.pop()
        if p[len(spine)] == "L":
            result = Node(result, parent.right)
        else:
            result = Node(parent.left, result)
    return result


def step_shortest(t: Term) -> tuple[Term, Position] | None:
    """Apply one rewrite at the shallowest redex on the rightmost path.

    Scans down the right spine past nodes whose left child is a leaf, to
    depth ``k``, and fires there with :func:`apply_at` at ``R^k``.  Returns
    ``None`` iff ``t`` is already in normal form; otherwise ``(rewritten,
    position)``, and the rewrite is guaranteed to push the rightmost leaf
    exactly one edge deeper.  This is one step of the loop in
    :func:`normalize_shortest`.
    """
    focus, k = t, 0
    while isinstance(focus, Node) and isinstance(focus.left, Leaf):
        focus, k = focus.right, k + 1
    if not isinstance(focus, Node):
        return None
    p = "R" * k
    return apply_at(t, p), p


def _normalize_spine(t: Term) -> tuple[Term, list[tuple[int, int]]]:
    """The shortest strategy in O(size(t)): its normal form and its steps.

    A cursor walks down the right spine.  Its focus stays at the same depth
    ``k`` while it rotates and moves down only past a leaf left child.  The
    steps come back as runs ``(k, count)``: ``count`` consecutive rotations
    at position ``R^k``, with ``k`` increasing.

    A run peels the focus's left spine with one new ``Node`` per rotation
    and no intermediate focus: each spine node's right child is hung on top
    of the focus's right subtree, and the spine's leftmost leaf ends up as
    the left child at depth ``k``.  The cursor then walks the subtree the
    run built, and records the leaves it passed (a second walk) only if a
    redex lies below.  So the subtree the last run built is final and is
    reused whole, and only the ``k + 1`` spine nodes above it are rebuilt,
    for the ``k`` of the last run.  No node is passed more than twice.
    """
    lefts: list[Term] = []
    runs: list[tuple[int, int]] = []
    top = t
    while True:
        # Below the last run's subtree there is no redex, and its leaves
        # need not be kept: walk first, record only when a run follows.
        focus = top
        while isinstance(focus, Node) and isinstance(focus.left, Leaf):
            focus = focus.right
        if not isinstance(focus, Node):
            for left in reversed(lefts):
                top = Node(left, top)
            return top, runs
        while top is not focus:
            lefts.append(top.left)
            top = top.right
        acc, inner = focus.right, focus.left
        count = 0
        while isinstance(inner, Node):
            acc = Node(inner.right, acc)
            inner = inner.left
            count += 1
        runs.append((len(lefts), count))
        lefts.append(inner)
        top = acc


def _shortest_positions(t: Term) -> Iterator[Position]:
    """Positions of the shortest strategy, replayed by its cursor loop."""
    for k, count in _normalize_spine(t)[1]:
        yield from repeat("R" * k, count)


def _longest_positions(t: Term) -> Iterator[Position]:
    """Positions of the deepest-leftmost strategy, from ``t`` alone.

    Take the redexes of ``t`` deepest level first, left to right within a
    level.  Each redex ``p`` then fires at ``p, pR, ..., pR^(size(p.left)-1)``:
    when ``p`` is reached, the subterms below it are already right chains,
    so each rotation there has a leaf left-left subtree and the only redex
    it creates is one step further down the right spine.  Rotations inside
    ``p`` move no node outside it, so the later redexes keep their positions
    and their left subtrees keep their sizes.  O(size(t)) work besides the
    positions themselves.
    """
    # Internal nodes in level order, with parent index and side; levels[d]
    # is the index range of depth d.
    nodes = [t] if isinstance(t, Node) else []
    parent, went_left = [-1], [False]
    levels = []
    lo = 0
    while lo < len(nodes):
        levels.append(range(lo, len(nodes)))
        for i in levels[-1]:
            x = nodes[i]
            for child, is_left in ((x.left, True), (x.right, False)):
                if isinstance(child, Node):
                    nodes.append(child)
                    parent.append(i)
                    went_left.append(is_left)
        lo = levels[-1].stop
    # Children follow their parents, so a reverse sweep totals subtree sizes.
    sizes = [1] * len(nodes)
    left_size = [0] * len(nodes)
    for i in range(len(nodes) - 1, 0, -1):
        sizes[parent[i]] += sizes[i]
        if went_left[i]:
            left_size[parent[i]] = sizes[i]
    for level in reversed(levels):
        for i in level:
            if left_size[i]:
                path = []
                j = i
                while j:
                    path.append("L" if went_left[j] else "R")
                    j = parent[j]
                p = "".join(reversed(path))
                for extra in range(left_size[i]):
                    yield p + "R" * extra


_POSITIONS = {"shortest": _shortest_positions, "longest": _longest_positions}


def _step_texts(trace: Trace) -> Iterator[tuple[Position, str]]:
    """``(position, render(term_after))`` for each step of ``trace``.

    A rotation keeps the in-order order of leaves and nodes, so nothing is
    ever renumbered: leaf ``j`` is the j-th leaf and node ``i`` the i-th
    ``*`` of the text, whose left subtree ends at leaf ``i``.  Labels hold
    no ``*``, so ``render(start).split("*")`` gives one chunk per leaf: the
    leaf with its ``(`` before and its ``)`` after.  A rotation at ``b``
    with left child ``a`` moves one ``(`` from the subtree's first leaf to
    leaf ``a+1`` and one ``)`` from leaf ``b`` to the subtree's last leaf,
    so a step costs one walk down its position and one join; no term is
    built.  Nodes are numbered by position, not by identity, since terms
    share subtrees.
    """
    chunks = render(trace.start).split("*")
    # Rebuild the links: a '*' comes before every chunk but the first, and
    # each ')' closes the latest open node.  done holds the numbers of
    # finished subtrees (-1 for a leaf).
    left: list[int] = []  # child node numbers, -1 for a leaf
    right: list[int] = []
    done: list[int] = []
    for c in chunks:
        if done:
            left.append(done.pop())
            right.append(-1)
            done.append(len(left) - 1)
        done.append(-1)
        for _ in range(len(c) - len(c.rstrip(")"))):
            child = done.pop()
            right[done[-1]] = child
    root = done[0]
    last = len(chunks) - 1
    for p in _POSITIONS[trace.strategy](trace.start):
        b, lo, hi, up, side = root, 0, last, -1, ""
        for side in p:
            up = b
            if side == "L":
                b, hi = left[b], b
            else:
                b, lo = right[b], b + 1
        a = left[b]
        left[b] = right[a]
        right[a] = b
        if up < 0:
            root = a
        elif side == "L":
            left[up] = a
        else:
            right[up] = a
        chunks[lo] = chunks[lo][1:]
        chunks[a + 1] = "(" + chunks[a + 1]
        chunks[b] = chunks[b][:-1]
        chunks[hi] += ")"
        yield p, "*".join(chunks)


def normalize_shortest(t: Term) -> Trace:
    """Normalize by rotating as close to the root as possible.

    Takes exactly ``size(t) - depth_rightmost(t)`` steps.  Equivalent to
    iterating :func:`step_shortest` to a fixpoint, but keeps a cursor into
    the term so the already-validated prefix of the rightmost path is not
    rescanned after each step, and builds the normal form once: O(size(t))
    time and memory.
    """
    final, runs = _normalize_spine(t)
    return Trace(t, final, "shortest", sum(count for _, count in runs))


def normalize_longest(t: Term) -> Trace:
    """Normalize by always rewriting the deepest redex (leftmost on ties).

    The chosen redex always has a leaf as its left-left subtree, so every
    step lowers ``sigma`` by exactly 1 and the trace has exactly
    ``sigma(t)`` steps: the longest rewrite sequence that exists for ``t``.
    The normal form is unique, so it is built by the same cursor loop as
    the shortest strategy's: O(size(t)) time and memory.
    """
    return Trace(t, _normalize_spine(t)[0], "longest", sigma(t))


STRATEGIES = ("shortest", "longest")


def normalize(t: Term, strategy: str = "shortest") -> Trace:
    """Dispatch to one of the two strategies; both end at the same NF."""
    if strategy == "shortest":
        return normalize_shortest(t)
    if strategy == "longest":
        return normalize_longest(t)
    raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")

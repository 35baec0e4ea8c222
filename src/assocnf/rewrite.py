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
the step count, never the intermediate terms.  Replaying a trace reads
``render(start)`` once (``_rotations``): a rotation keeps the in-order order
of leaves and nodes, so each step is a fixed set of in-order numbers of the
start, and both strategies' steps come in closed form from arrays built in
one pass over that text; nothing is rotated, rebuilt or walked down per
step.  The ``steps`` view turns those positions into terms with
:func:`apply_at` each time it is iterated, O(size) per step.  The CLI prints
a trace from the pieces of ``render(start)`` split at ``*`` instead
(``_step_texts``): a rotation moves one ``(`` and one ``)`` of the text, so
each step costs four chunk edits and one join, and printing the steps
builds no term at all.

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
from itertools import islice

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
    is alive.  Indexing replays up to the index; ``reversed`` and ``index``
    replay once.  Compares equal to any tuple, list or view holding the same
    steps.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: Trace):
        self._trace = trace

    def __len__(self) -> int:
        return self._trace.step_count

    def __iter__(self) -> Iterator[Step]:
        cur = self._trace.start
        for p, _, _, _, _ in _rotations(self._trace.strategy, render(cur)):
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

    def __reversed__(self) -> Iterator[Step]:
        """One replay, kept whole.

        Steps share subtrees, so the tuple holds only the nodes
        :func:`apply_at` built, ``len(position) + 2`` per step.
        """
        return reversed(tuple(self))

    def index(self, value: object, start: int = 0, stop: int | None = None) -> int:
        """``Sequence.index`` from one replay, not one replay per index."""
        indices = range(len(self))[start:stop]
        for i, step in zip(indices, islice(self, indices.start, indices.stop)):
            if step == value:
                return i
        raise ValueError("step not in trace")

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
    Output-bound, so its memory may exceed O(size): that sum is up to
    size²/2, and on ``left_chain(10**4)`` the list peaks at 49 MiB.
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


def _normalize_spine(t: Term) -> tuple[Term, int]:
    """The shortest strategy in O(size(t)): its normal form and step count.

    A cursor walks down the right spine.  Its focus stays at the same depth
    ``k`` while it rotates and moves down only past a leaf left child, so
    the rotations come in runs at one position ``R^k``, with ``k``
    increasing.

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
    steps = 0
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
            return top, steps
        while top is not focus:
            lefts.append(top.left)
            top = top.right
        acc, inner = focus.right, focus.left
        while isinstance(inner, Node):
            acc = Node(inner.right, acc)
            inner = inner.left
            steps += 1
        lefts.append(inner)
        top = acc


def _rotations(strategy: str, text: str) -> Iterator[tuple[Position, int, int, int, int]]:
    """Each step of ``strategy`` from the term whose canonical text is ``text``.

    A step ``(position, lo, a, b, hi)`` rotates node ``b``, whose left child
    is node ``a``, over leaves ``lo..hi``.  Leaf ``j`` is the j-th leaf and
    node ``i`` the i-th ``*`` of the text, so node ``i``'s left subtree ends
    at leaf ``i``.  A rotation keeps the in-order order of leaves and nodes,
    so these numbers hold in every term of the trace, and every step is read
    off fixed arrays of the start: ``left``, ``right``, the last leaf
    ``hi`` and, for the longest strategy, the first leaf ``lo`` of each
    node.  The nodes with ``hi == n`` are the root's right spine.  Nodes are
    numbered by their place in the text, not by identity, since terms share
    subtrees.

    * Shortest: a rotation at ``R^k`` moves onto the spine one node whose
      first leaf is ``k``, and changes no other off-spine node's first leaf
      or subtree.  So for ``k`` ascending it turns, top-down, each node off
      the spine whose first leaf is ``k``.  They are node ``k``, when leaf
      ``k`` is its left child, and the chain of nodes above it that each
      have the one before as left child; the chain is climbed to its top
      and turned on the way back down.
    * Longest: take the start's redexes deepest level first, left to right.
      When redex ``j`` at ``p`` is reached, the subterms below it are
      already right chains, so it fires at ``p, pR, ...``, once per node of
      its left subtree, each time with a leaf left-left subtree.  Rotations
      inside ``p`` move no node outside it, so the later redexes keep their
      positions and numbers.

    O(size) work besides the positions themselves.
    """
    left: list[int] = []  # child node numbers, -1 for a leaf
    right: list[int] = []
    # A '*' comes before every chunk but the first, and each ')' closes the
    # latest open node.  done holds the numbers of finished subtrees (-1 for
    # a leaf).
    done: list[int] = []
    for chunk in text.split("*"):
        if done:
            left.append(done.pop())
            right.append(-1)
            done.append(len(left) - 1)
        done.append(-1)
        for _ in range(len(chunk) - len(chunk.rstrip(")"))):
            child = done.pop()
            right[done[-1]] = child
    # Built after the loop frees its chunk list, which lowers the peak; a
    # right child comes after its parent.
    n = len(left)
    hi = [0] * n
    for i in reversed(range(n)):
        hi[i] = hi[right[i]] if right[i] >= 0 else i + 1
    if strategy == "shortest":
        for k in range(n):
            if left[k] >= 0:
                continue  # leaf k is a right child: no node starts there
            top = k  # a left child's parent is the node after its last leaf
            while hi[top] < n and left[hi[top]] == top:
                top = hi[top]
            a = top if hi[top] < n else left[top]
            p = "R" * k
            while a >= 0:
                yield p, k, a, hi[a], n
                a = left[a]
        return
    if strategy != "longest":
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    lo: list[int] = []
    for i, child in enumerate(left):  # a left child comes before its parent
        lo.append(lo[child] if child >= 0 else i)
    root = done[0]
    levels = []
    level = [root] if n else []
    while level:
        levels.append(level)
        level = [c for i in level for c in (left[i], right[i]) if c >= 0]
    for level in reversed(levels):
        for j in level:
            if left[j] < 0:
                continue
            # In-order numbers are below a node on its left, above on its right.
            path, i = [], root
            while i != j:
                path.append("L" if j < i else "R")
                i = left[i] if j < i else right[i]
            p = "".join(path)
            for e in range(lo[j], j):
                yield p + "R" * (e - lo[j]), e, e, j, hi[j]


def _step_texts(trace: Trace) -> Iterator[tuple[Position, str]]:
    """``(position, render(term_after))`` for each step of ``trace``.

    Labels hold no ``*``, so ``render(start).split("*")`` gives one chunk
    per leaf: the leaf with its ``(`` before and its ``)`` after.  A
    rotation at ``b`` with left child ``a`` over leaves ``lo..hi`` moves one
    ``(`` from leaf ``lo`` to leaf ``a+1`` and one ``)`` from leaf ``b`` to
    leaf ``hi`` (see :func:`_rotations`), so a step costs four chunk edits
    and one join, and no term is built.

    Output-bound: every step yields a whole text, so the steps take
    Θ(steps × size) time and characters in all, up to Θ(size³) for the
    longest strategy.  Streamed, only the current text is alive; a caller
    that keeps them all holds that many characters.
    """
    text = render(trace.start)
    chunks = text.split("*")
    for p, lo, a, b, hi in _rotations(trace.strategy, text):
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
    final, step_count = _normalize_spine(t)
    return Trace(t, final, "shortest", step_count)


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

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

Neither rotates to reach the normal form: it is unique, so
``_normal_form`` builds it straight from the leaves, and both step counts
are closed forms.  Both return a :class:`Trace` that holds the start term,
the normal form and the step count, never the intermediate terms.
Replaying a trace reads ``render(start)`` once (``_rotations``): a rotation
keeps the in-order order of leaves and nodes, so each step is a fixed set
of in-order numbers of the start, and both strategies' steps come in closed
form from arrays built in one pass over that text; nothing is rotated,
rebuilt or walked down per step.  The shortest steps are the preorder of
the nodes off the root's right spine, each turned at ``R^(its first
leaf)``.  The ``steps`` view turns those positions into terms with
:func:`apply_at` each time it is iterated, O(size) per step.  The CLI
renders the start once and prints the trace from the pieces of that text
split at ``*`` (``_step_texts``): a rotation moves one ``(`` and one ``)``
of the text, so each step costs four chunk edits and one join, and
printing the steps builds no term at all.

:func:`apply_at` is the only code that rotates a term; the ``steps`` view
calls it.

Positions are strings over ``L``/``R`` read from the root; the empty string
is the root and prints as ``ε``.  When redexes are listed or chosen, deeper
positions come first and ties break lexicographically with ``L < R``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .terms import Leaf, Node, Term, _check_term, render, sigma

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


class Steps:
    """Read-only view of a :class:`Trace`'s steps, replayed from its start.

    ``len`` reads ``step_count`` and replays nothing.  Each iteration
    replays the trace once and streams one :class:`Step` at a time, so only
    the current term is alive.
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
    _check_term(t)
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
    :class:`NotARedex` if the subterm there does not match the rule, and
    ``TypeError`` if ``t`` is not a term.
    """
    _check_term(t)
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


def _normal_form(t: Term) -> tuple[Term, int]:
    """The normal form of ``t`` and ``size(t) - depth_rightmost(t)``.

    The normal form is the right chain over ``t``'s own ``Leaf`` objects in
    order, so it is built from the last leaf up, one ``Node`` per leaf
    before it.  The walk down the root's right spine owes the left subtree
    of each node it passes; if none of them is a node, ``t`` is its own
    normal form and is returned as it is.  Otherwise each owed subtree, the
    last owed first, is walked down its right spine in the same way, and
    the leaf where that walk ends is the next leaf to hang on the chain.
    These walks pass every node off the root's right spine once, so they
    count ``size - d_rm``.  O(size(t)) time and memory at any depth.
    """
    _check_term(t)
    owed: list[Term] = []
    x = t
    while isinstance(x, Node):
        owed.append(x.left)
        x = x.right
    if all(isinstance(y, Leaf) for y in owed):
        return t, 0
    chain, off_spine = x, 0
    while owed:
        y = owed.pop()
        while isinstance(y, Node):
            owed.append(y.left)
            y = y.right
            off_spine += 1
        chain = Node(y, chain)
    return chain, off_spine


def _rotations(strategy: str, text: str) -> Iterator[tuple[Position, int, int, int, int]]:
    """Each step of ``strategy`` from the term whose canonical text is ``text``.

    A step ``(position, lo, a, b, hi)`` rotates node ``b``, whose left child
    is node ``a``, over leaves ``lo..hi``.  Leaf ``j`` is the j-th leaf and
    node ``i`` the i-th ``*`` of the text, so node ``i``'s left subtree ends
    at leaf ``i``.  A rotation keeps the in-order order of leaves and nodes,
    so these numbers hold in every term of the trace, and every step is read
    off fixed arrays of the start: ``left``, ``right``, and the first leaf
    ``lo`` and last leaf ``hi`` of each node.  The nodes with ``hi == n``
    are the root's right spine.  Nodes are numbered by their place in the
    text, not by identity, since terms share subtrees.

    * Shortest: a rotation at ``R^k`` moves onto the spine one node whose
      first leaf is ``k``, and changes no other off-spine node's first leaf
      or subtree.  So it turns each node off the spine once, each at
      ``R^(its first leaf)``, by first leaf ascending and, for one first
      leaf, top-down.  That is the preorder of the off-spine nodes: a
      node's left child has the node's first leaf, and its right subtree
      starts after its left subtree.  One preorder walk from the root
      yields them.
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
    lo: list[int] = []
    for i, child in enumerate(left):  # a left child comes before its parent
        lo.append(lo[child] if child >= 0 else i)
    root = done[0]
    if strategy == "shortest":
        # An off-spine node is the left child of the spine node after its
        # last leaf.
        stack = [root]
        while stack:
            a = stack.pop()
            if a < 0:
                continue
            if hi[a] < n:
                yield "R" * lo[a], lo[a], a, hi[a], n
            stack.append(right[a])
            stack.append(left[a])
        return
    if strategy != "longest":
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
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


def _step_texts(strategy: str, text: str) -> Iterator[tuple[Position, str]]:
    """``(position, render(term_after))`` for each step of ``strategy``
    from the term whose canonical text is ``text``.

    Labels hold no ``*``, so ``text.split("*")`` gives one chunk per leaf:
    the leaf with its ``(`` before and its ``)`` after.  A rotation at ``b``
    with left child ``a`` over leaves ``lo..hi`` moves one ``(`` from leaf
    ``lo`` to leaf ``a+1`` and one ``)`` from leaf ``b`` to leaf ``hi`` (see
    :func:`_rotations`), so a step costs four chunk edits and one join, and
    no term is built or rendered.

    Output-bound: every step yields a whole text, so the steps take
    Θ(steps × size) time and characters in all, up to Θ(size³) for the
    longest strategy.  Streamed, only the current text is alive; a caller
    that keeps them all holds that many characters.
    """
    chunks = text.split("*")
    for p, lo, a, b, hi in _rotations(strategy, text):
        chunks[lo] = chunks[lo][1:]
        chunks[a + 1] = "(" + chunks[a + 1]
        chunks[b] = chunks[b][:-1]
        chunks[hi] += ")"
        yield p, "*".join(chunks)


def normalize_shortest(t: Term) -> Trace:
    """Normalize by rotating as close to the root as possible.

    Takes exactly ``size(t) - depth_rightmost(t)`` steps, each fired at the
    shallowest redex on the root's right spine, and each pushing the
    rightmost leaf one edge deeper.  The normal form and that count come
    from one walk (``_normal_form``) with no rotation: O(size(t)) time and
    memory.
    """
    final, step_count = _normal_form(t)
    return Trace(t, final, "shortest", step_count)


def normalize_longest(t: Term) -> Trace:
    """Normalize by always rewriting the deepest redex (leftmost on ties).

    The chosen redex always has a leaf as its left-left subtree, so every
    step lowers ``sigma`` by exactly 1 and the trace has exactly
    ``sigma(t)`` steps: the longest rewrite sequence that exists for ``t``.
    The normal form is unique, so it is built from the leaves as for the
    shortest strategy, with no rotation: O(size(t)) time and memory.
    """
    return Trace(t, _normal_form(t)[0], "longest", sigma(t))


STRATEGIES = ("shortest", "longest")


def normalize(t: Term, strategy: str = "shortest") -> Trace:
    """Dispatch to one of the two strategies; both end at the same NF."""
    if strategy == "shortest":
        return normalize_shortest(t)
    if strategy == "longest":
        return normalize_longest(t)
    raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")

"""Binary terms over a single `*` connective, their text format, and measures.

A term is either a leaf (optionally labeled) or a node with two children.
The canonical text form is fully parenthesized: every node prints as
``(left*right)`` and an unlabeled leaf prints as ``.``, so for example the
three-node left chain is ``(((.*.)*.)*.)``.

Terms are immutable values: share them freely, never mutate ``left``/``right``.
Terms compare by structure, labels included, and hash as their canonical text.
Every operation here walks trees with explicit stacks so that chains nested
a million deep are handled without touching the interpreter recursion limit.
Each is one walk: :func:`render` prints in text order and stacks only the
right children it still owes, and :func:`measure` reads size, sigma and
``d_rm`` from a single pass over the nodes.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = [
    "Term",
    "Leaf",
    "Node",
    "Metrics",
    "ParseError",
    "parse",
    "render",
    "size",
    "sigma",
    "depth_rightmost",
    "left_chain",
    "right_chain",
    "measure",
]

_LABEL_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")


class Term:
    """Base class for :class:`Leaf` and :class:`Node`; defines term identity.

    ``==`` compares structure and labels; ``hash`` is the hash of the
    canonical text, which :func:`render` gives only to equal terms.  Hashing
    caches nothing, so each call costs O(size), even on a term hashed before.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        # A pair of leaf children is compared in place and the walk goes on
        # down the other pair, so a right pair waits on the stack only when
        # both pairs of children are nodes: never on chains and combs.
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            while a is not b:
                if type(a) is not type(b):
                    return False
                if isinstance(a, Leaf):
                    if a.label != b.label:
                        return False
                    break
                if isinstance(a.left, Leaf):
                    x, y, a, b = a.left, b.left, a.right, b.right
                elif isinstance(a.right, Leaf):
                    x, y, a, b = a.right, b.right, a.left, b.left
                else:
                    stack.append((a.right, b.right))
                    a, b = a.left, b.left
                    continue
                if x is not y and (type(x) is not type(y) or x.label != y.label):
                    return False
        return True

    def __hash__(self) -> int:
        return hash(render(self))


def _check_term(t: object) -> None:
    """Refuse a non-term, which every walk would take for a leaf."""
    if not isinstance(t, Term):
        raise TypeError(f"expected a Term, got {type(t).__name__}")


class Leaf(Term):
    """A leaf, carrying an optional label over ``[a-z0-9_]``."""

    __slots__ = ("label",)

    def __init__(self, label: str | None = None):
        if label is not None and (
            not isinstance(label, str) or not label or not set(label) <= _LABEL_CHARS
        ):
            raise ValueError(f"invalid leaf label: {label!r}")
        self.label = label

    def __repr__(self) -> str:
        return f"Leaf({self.label!r})" if self.label is not None else "Leaf()"


class Node(Term):
    """An internal node; rewriting never inspects anything but the shape.

    Both children must be terms.  That is not checked here, since
    parsing and rewriting build one node per node or per rotation; a child
    of another type makes :func:`render` raise ``AttributeError``.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        self.left = left
        self.right = right

    def __repr__(self) -> str:
        return f"parse({render(self)!r})"


class Metrics(namedtuple("Metrics", "size sigma d_rm is_nf")):
    """Size, left-weight, rightmost-leaf depth, and NF status of one term.

    ``size`` counts internal nodes.  ``sigma`` is the sum over internal nodes
    of the size of each node's left subtree; it equals the length of the
    longest rewrite sequence to normal form and is bounded by
    ``size*(size-1)/2``.  ``d_rm`` counts edges from the root to the rightmost
    leaf; ``size - d_rm`` is the length of the shortest rewrite sequence.
    A term is in normal form exactly when ``d_rm == size``.
    """

    __slots__ = ()


class ParseError(ValueError):
    """Malformed term text; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte {offset}")
        self.offset = offset


_WS = frozenset(" \t\r\n")

# Sentinel marking an open '(' whose left child has not been parsed yet.
_OPEN = object()


def parse(text: str) -> Term:
    """Parse canonical term text: ``T ::= LEAF | "(" T "*" T ")"``.

    Leaves are ``.`` (unlabeled) or a nonempty run of ``[a-z0-9_]``.
    Whitespace between tokens is ignored.  Nesting depth is unbounded.
    Malformed input raises :class:`ParseError` for one of three faults: a
    term was expected, ``*`` or ``)`` was expected after a term, or input
    trails a whole term.  Its offset is that of the first character that
    cannot continue the text, or ``len(text)`` when the text ends too soon.
    """
    n = len(text)
    # Canonical text has no whitespace, so most calls never look for it.
    ws = any(c in text for c in _WS)
    # i is also the byte offset: i only ever passes ASCII characters, and
    # the first non-ASCII one is a fault.
    i = 0
    # Stack entries: _OPEN for an open paren awaiting its left child, or the
    # completed left child Term awaiting '*' right ')'.
    stack: list = []
    # One Leaf per distinct leaf text: terms are immutable, so equal leaves
    # can be one object, and a chain over one label builds one.
    leaves: dict[str, Leaf] = {}
    while True:
        if ws:
            while i < n and text[i] in _WS:
                i += 1
        c = text[i] if i < n else ""
        if c == "(":
            stack.append(_OPEN)
            i += 1
            continue
        j = i + 1
        if c != ".":
            if c not in _LABEL_CHARS:
                end = "unexpected end of input"
                raise ParseError(f"expected a term, found {c!r}" if c else end, i)
            while j < n and text[j] in _LABEL_CHARS:
                j += 1
        label = text[i:j]
        i = j
        term: Term | None = leaves.get(label)
        if term is None:
            term = leaves[label] = Leaf(None if label == "." else label)
        # Attach the completed term upward, closing parens as they finish.
        while True:
            if ws:
                while i < n and text[i] in _WS:
                    i += 1
            c = text[i] if i < n else ""
            if not stack:
                if c:
                    raise ParseError(f"trailing input {c!r}", i)
                return term
            top = stack[-1]
            want = "*" if top is _OPEN else ")"
            if c != want:
                end = f"unexpected end of input, expected {want!r}"
                raise ParseError(f"expected {want!r}, found {c!r}" if c else end, i)
            i += 1
            if top is _OPEN:
                stack[-1] = term
                break
            stack.pop()
            term = Node(top, term)


def render(t: Term) -> str:
    """Canonical text of ``t``; injective, and ``parse(render(t)) == t``.

    One walk, in text order.  A node with a leaf left child prints as
    ``(label*`` and owes one ``)``; the walk goes on right, so a right spine
    prints inline and ends in one run of ``)``.  At a node left child the
    walk goes down that left spine to its first node with a leaf left child,
    prints one ``(`` per node passed and stacks each passed node's right
    child with the ``)``s owed after it.  At a leaf, the leaf and its run of
    ``)`` print, then ``*`` and the next stacked right child.  The stack
    holds only terms and counts, so a child that is not a term raises
    ``AttributeError`` and is never printed.
    """
    out: list[str] = []
    # Flat pairs, a pending right child then the ')'s owed after it: a tuple
    # per pair would double the peak on a left chain.
    stack: list = []
    x, closes = t, 0
    while True:
        while isinstance(x, Node):
            left = x.left
            if isinstance(left, Leaf):
                out += ("(", left.label or ".", "*")
                closes += 1
                x = x.right
                continue
            opens = 0
            while not isinstance(left, Leaf):
                stack.append(x.right)
                stack.append(closes + 1)
                x, left, closes = left, left.left, 0
                opens += 1
            out.append("(" * opens)
        out.append(x.label or ".")
        if closes:
            out.append(")" * closes)
        if not stack:
            return "".join(out)
        closes = stack.pop()
        x = stack.pop()
        out.append("*")


def measure(t: Term) -> Metrics:
    """All measures of ``t`` in one record, from one walk.

    Every internal node is credited once per ancestor that holds it in a
    left subtree.  The walk runs down right spines, where that count is
    constant, and stacks only left children that are nodes, so the stack
    stays small on both chains.  The root's right spine is walked first, so
    the node count when it ends is ``d_rm``.
    """
    _check_term(t)
    count = total = 0
    d_rm = -1
    stack = [(t, 0)]
    while stack:
        x, left_ancestors = stack.pop()
        while isinstance(x, Node):
            count += 1
            total += left_ancestors
            if isinstance(x.left, Node):
                stack.append((x.left, left_ancestors + 1))
            x = x.right
        if d_rm < 0:
            d_rm = count
    return Metrics(size=count, sigma=total, d_rm=d_rm, is_nf=d_rm == count)


def size(t: Term) -> int:
    """Number of internal nodes."""
    return measure(t).size


def sigma(t: Term) -> int:
    """Sum over internal nodes of the size of each node's left subtree.

    Equivalently: 0 for a leaf, else ``sigma(left) + sigma(right) +
    size(left)``.
    """
    return measure(t).sigma


def depth_rightmost(t: Term) -> int:
    """Edge count from the root to the rightmost leaf (0 for a leaf)."""
    _check_term(t)
    d = 0
    while isinstance(t, Node):
        t = t.right
        d += 1
    return d


def left_chain(n: int) -> Term:
    """Fully left-nested term with ``n`` internal nodes and unlabeled leaves.

    The worst input for rewriting: ``sigma(left_chain(n)) == n*(n-1)//2``
    for every ``n >= 0`` (both ``n = 0`` and ``n = 1`` give 0).
    """
    if n < 0:
        raise ValueError("chain size must be nonnegative")
    leaf = Leaf(None)
    t: Term = leaf
    for _ in range(n):
        t = Node(t, leaf)
    return t


def right_chain(n: int) -> Term:
    """Fully right-nested term with ``n`` internal nodes: the normal form."""
    if n < 0:
        raise ValueError("chain size must be nonnegative")
    leaf = Leaf(None)
    t: Term = leaf
    for _ in range(n):
        t = Node(leaf, t)
    return t

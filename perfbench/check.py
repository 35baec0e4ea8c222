"""Independent output checks, written without importing ``assocnf``.

Expected values come from this module's own walks over the text and from
closed forms of the Tamari lattice (Huang & Tamari 1972): Catalan counts,
``(n-1)·C(n)/2`` cover relations, one sink that is the right chain, and
rewrite lengths ``sigma`` (longest) and ``n - d_rm`` (shortest).  Each
``check_*`` function returns ``None`` when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import json
from math import comb
from typing import NamedTuple


class Shape(NamedTuple):
    size: int
    sigma: int
    d_rm: int
    leaves: list[str]


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _leaf_end(text: str, i: int) -> int:
    j = i + 1
    if text[i] != ".":
        while j < len(text) and (text[j].isalnum() or text[j] == "_"):
            j += 1
    return j


def shape(text: str) -> Shape:
    """Size, sigma, rightmost-leaf depth and leaf tokens of canonical text.

    One left-to-right scan with a stack of finished subterms, each kept as
    ``(size, sigma, d_rm)``; a node combines its children as
    ``(ls + rs + 1, lsig + rsig + ls, 1 + r_drm)``.  Raises ``ValueError``
    on text that is not canonical.
    """
    done: list[tuple[int, int, int]] = []
    leaves: list[str] = []
    opened = 0
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "(":
            opened += 1
            i += 1
        elif c == "*":
            i += 1
        elif c == ")":
            if len(done) < 2 or opened == 0:
                raise ValueError(f"unbalanced ')' at {i}")
            rs, rsig, rd = done.pop()
            ls, lsig, _ = done.pop()
            done.append((ls + rs + 1, lsig + rsig + ls, rd + 1))
            opened -= 1
            i += 1
        else:
            if c != "." and not (c.isalnum() or c == "_"):
                raise ValueError(f"bad character {c!r} at {i}")
            j = _leaf_end(text, i)
            leaves.append(text[i:j])
            done.append((0, 0, 0))
            i = j
    if len(done) != 1 or opened:
        raise ValueError("not a single term")
    size, sig, d_rm = done[0]
    return Shape(size, sig, d_rm, leaves)


def right_chain_text(leaves: list[str]) -> str:
    """The normal form: the right chain over ``leaves`` in order."""
    return "".join(f"({x}*" for x in leaves[:-1]) + leaves[-1] + ")" * (len(leaves) - 1)


def check_nf(term: str, out: str) -> str | None:
    s = shape(term)
    want = f"{right_chain_text(s.leaves)}\tsteps={s.size - s.d_rm}\n"
    return None if out == want else "nf output differs from right chain / size - d_rm"


def check_quiet(term: str, strategy: str, out: str) -> str | None:
    s = shape(term)
    steps = s.sigma if strategy == "longest" else s.size - s.d_rm
    return None if out == f"steps={steps}\n" else f"quiet {strategy}: want steps={steps}"


# Trees for replaying printed traces: a leaf is its token, a node a 2-tuple.


def _tree(text: str):
    done: list = []
    i = 0
    while i < len(text):
        c = text[i]
        if c in "(*":
            i += 1
        elif c == ")":
            r = done.pop()
            done.append((done.pop(), r))
            i += 1
        else:
            j = _leaf_end(text, i)
            done.append(text[i:j])
            i = j
    return done[0]


def _text(t) -> str:
    out: list[str] = []
    stack = [t]
    while stack:
        x = stack.pop()
        if type(x) is tuple:
            stack += (")", x[1], "*", x[0], "(")
        else:
            out.append(x)
    return "".join(out)


def _rotate(t, path: str):
    """``(x*y)*z -> x*(y*z)`` at ``path``; ``None`` if there is no redex."""
    spine = []
    for ch in path:
        if type(t) is not tuple:
            return None
        spine.append(t)
        t = t[0] if ch == "L" else t[1]
    if type(t) is not tuple or type(t[0]) is not tuple:
        return None
    (x, y), z = t
    t = (x, (y, z))
    for parent, ch in zip(reversed(spine), reversed(path)):
        t = (t, parent[1]) if ch == "L" else (parent[0], t)
    return t


def check_trace(term: str, strategy: str, out: str) -> str | None:
    """Replay a printed trace step by step with this module's own rotation.

    Also checks the strategy's law per step: longest lowers sigma by exactly
    1, shortest rotates on the right spine and pushes the rightmost leaf one
    edge deeper.  The step total must be ``sigma`` or ``size - d_rm``.
    """
    s = shape(term)
    lines = out.split("\n")
    if lines[0] != f"start {term}" or lines[-1] != "":
        return "trace: bad start line or missing final newline"
    steps = lines[1:-3]
    want = s.sigma if strategy == "longest" else s.size - s.d_rm
    if lines[-2] != f"steps={want}" or len(steps) != want:
        return f"trace {strategy}: want {want} steps"
    if lines[-3] != f"final {right_chain_text(s.leaves)}":
        return "trace: final is not the right chain"
    tree, prev = _tree(term), s
    for line in steps:
        pos, sep, printed = line.partition(" ⊳ ")
        path = "" if pos == "ε" else pos
        tree = _rotate(tree, path) if sep and set(path) <= {"L", "R"} else None
        if tree is None or _text(tree) != printed:
            return f"trace: step {line[:40]!r} is not one rotation"
        cur = shape(printed)
        if strategy == "longest":
            ok = cur.sigma == prev.sigma - 1
        else:
            ok = path == "R" * len(path) and cur.d_rm == prev.d_rm + 1
        if not ok:
            return f"trace {strategy}: step {line[:40]!r} breaks the strategy law"
        prev = cur
    return None


def check_verify(max_n: int, out: str, records: str) -> str | None:
    """Table rows all PASS with Catalan counts; JSONL records match own walks."""
    rows = out.split("\n")
    if len(rows) != max_n + 3 or rows[-1] != "" or rows[0].split()[0] != "n":
        return "verify: wrong table shape"
    for n, row in enumerate(rows[1:-1]):
        f = row.split()
        ok = (
            len(f) == 9
            and f[0] == str(n)
            and f[1] == str(catalan(n))
            and f[2:7] == ["ok"] * 5
            and f[7] == str(n * (n - 1) // 2)
            and f[8] == "PASS"
        )
        if not ok:
            return f"verify: bad row {row.strip()!r}"
    lines = records.split("\n")
    if lines[-1] != "" or len(lines) - 1 != sum(catalan(n) for n in range(max_n + 1)):
        return "verify: JSONL line count is not the Catalan sum"
    per_n = [0] * (max_n + 1)
    seen = set()
    for line in lines[:-1]:
        rec = json.loads(line)
        s = shape(rec["term"])
        ok = (
            rec["n"] == s.size
            and rec["sigma"] == s.sigma
            and rec["d_rm"] == s.d_rm
            and rec["longest"] == s.sigma
            and rec["shortest"] == s.size - s.d_rm
            and set(s.leaves) == {"."}
            and rec["term"] not in seen
        )
        if not ok or s.size > max_n:
            return f"verify: bad record {line[:60]!r}"
        seen.add(rec["term"])
        per_n[s.size] += 1
    if per_n != [catalan(n) for n in range(max_n + 1)]:
        return "verify: per-size record counts are not Catalan"
    return None


def check_graph(n: int, out: str, dot: str) -> str | None:
    """C(n) nodes, (n-1)·C(n)/2 edges that each lower sigma, one sink."""
    lines = dot.split("\n")
    if out or lines[0] != "digraph rewrites {" or lines[-2:] != ["}", ""]:
        return "graph: bad DOT framing or stdout not empty"
    nodes, sinks, edges = set(), [], 0
    for line in lines[1:-2]:
        parts = line.strip().rstrip(";").split(" -> ")
        if len(parts) == 2:
            u, v = (shape(p.strip('"')) for p in parts)
            if not (u.size == v.size == n and u.sigma > v.sigma):
                return f"graph: bad edge {line[:60]!r}"
            edges += 1
            continue
        name, _, attr = parts[0].partition(" ")
        nodes.add(name)
        if attr == "[peripheries=2]":
            sinks.append(name.strip('"'))
    want_edges = (n - 1) * catalan(n) // 2 if n else 0
    if len(nodes) != catalan(n) or edges != want_edges:
        return f"graph: want {catalan(n)} nodes and {want_edges} edges"
    if sinks != [right_chain_text(["."] * (n + 1))]:
        return "graph: the single sink is not the right chain"
    return None


def check_enumerate(n: int, out: str) -> str | None:
    return None if out == f"{catalan(n)}\n" else f"enumerate: want {catalan(n)}"

"""Reference semantics for checking conwon's outputs, written apart from it.

Nothing here imports ``conwon``.  Formulas are nested tuples built with
the helpers below; they keep the surface sugar (``|``, ``->``, ``<->``,
``<a>``, ``E``, ``A``, ``true``) so that rendering them exercises the
program's parser, and the evaluator gives each sugar its meaning from the
paper's definitions rather than from the program's desugaring.

Semantics, from the paper:

* a model is a finite world set with a valuation; here worlds are bit
  positions and every set of worlds is an int bitmask;
* a context is a sequence of defaults (world sets), first entry highest
  priority, or a set of named defaults under a strict priority order,
  which stratifies into levels;
* updating a context with a default prepends it (sequence form) or puts
  it above every other default (set form);
* the expected states are the intersection of the longest prefix of the
  priority chain whose intersection is nonempty; when even the top entry
  is empty there is no consistent prefix and no expected state, so
  ``[a]f`` with ``a`` true nowhere holds vacuously, as axiom 3a demands
  for ``a = false``;
* ``[a]f`` holds (at every world alike) iff ``f`` holds at every expected
  state of the context updated with the worlds where ``a`` holds.

For the comparative-possibility side a pseudo-sphere model is an ordered
sequence of world sets, most plausible first; ``a |> b`` holds iff the
first sphere meeting ``a`` has all its ``a``-worlds inside ``b``, or no
sphere meets ``a``.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

Tree = tuple

# ---------------------------------------------------------------------------
# Formula trees
# ---------------------------------------------------------------------------

FALSE: Tree = ("false",)
TRUE: Tree = ("true",)


def atom(name: str) -> Tree:
    return ("atom", name)


def neg(f: Tree) -> Tree:
    return ("not", f)


def conj(f: Tree, g: Tree) -> Tree:
    return ("and", f, g)


def disj(f: Tree, g: Tree) -> Tree:
    return ("or", f, g)


def imp(f: Tree, g: Tree) -> Tree:
    return ("imp", f, g)


def iff(f: Tree, g: Tree) -> Tree:
    return ("iff", f, g)


def box(a: Tree, f: Tree) -> Tree:
    return ("box", a, f)


def dia(a: Tree, f: Tree) -> Tree:
    return ("dia", a, f)


def some(a: Tree) -> Tree:
    return ("E", a)


def every(a: Tree) -> Tree:
    return ("A", a)


_CHILDREN = {"atom": 0, "false": 0, "true": 0, "not": 1, "E": 1, "A": 1,
             "and": 2, "or": 2, "imp": 2, "iff": 2, "box": 2, "dia": 2}


def children(f: Tree) -> Tuple[Tree, ...]:
    return f[1:] if _CHILDREN[f[0]] else ()


def atoms_of(f: Tree) -> frozenset:
    if f[0] == "atom":
        return frozenset([f[1]])
    out = frozenset()
    for c in children(f):
        out |= atoms_of(c)
    return out


def depth(f: Tree) -> int:
    sub = max((depth(c) for c in children(f)), default=0)
    return sub + 1 if f[0] in ("box", "dia", "E", "A") else sub


def rename(f: Tree, mapping: Dict[str, str]) -> Tree:
    if f[0] == "atom":
        return ("atom", mapping.get(f[1], f[1]))
    return (f[0],) + tuple(rename(c, mapping) for c in children(f))


def to_text(f: Tree) -> str:
    """Surface syntax, fully parenthesized, using every sugar the tree holds."""
    op = f[0]
    if op == "atom":
        return f[1]
    if op in ("false", "true"):
        return op
    if op == "not":
        return "~" + to_text(f[1])
    if op in ("E", "A"):
        return f"{op} ({to_text(f[1])})"
    if op == "box":
        return f"[{to_text(f[1])}]({to_text(f[2])})"
    if op == "dia":
        return f"<{to_text(f[1])}>({to_text(f[2])})"
    sym = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}[op]
    return f"({to_text(f[1])} {sym} {to_text(f[2])})"


def parse_core(text: str) -> Tree:
    """Parse the program's core output syntax: atoms, false, ~, &, [a] f.

    Grammar (as the program's printer emits it)::

        conj  := unary ("&" unary)*        left associative
        unary := "~" unary | "[" conj "]" unary | "(" conj ")" | "false" | ident
    """
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "~&[]()":
            tokens.append(c)
            i += 1
        elif c.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ValueError(f"unexpected {c!r} at {i} in core syntax")
    tokens.append("")
    pos = 0

    def take(expected: Optional[str] = None) -> str:
        nonlocal pos
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        pos += 1
        return tok

    def conj_() -> Tree:
        f = unary()
        while tokens[pos] == "&":
            take()
            f = ("and", f, unary())
        return f

    def unary() -> Tree:
        tok = take()
        if tok == "~":
            return ("not", unary())
        if tok == "[":
            a = conj_()
            take("]")
            return ("box", a, unary())
        if tok == "(":
            f = conj_()
            take(")")
            return f
        if tok == "false":
            return FALSE
        if tok and (tok[0].isalpha()):
            return ("atom", tok)
        raise ValueError(f"unexpected token {tok!r}")

    f = conj_()
    take("")
    return f


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------

# A context is ("seq", (mask, ...)) or ("set", frozenset(masks), frozenset(pairs))
# where a pair (hi, lo) says default ``hi`` outranks default ``lo``.  Defaults
# are identified by their extension, as the update operation requires.


def seq_context(masks: Sequence[int]) -> tuple:
    return ("seq", tuple(masks))


def set_context(defaults: Sequence[int], order: Sequence[Tuple[int, int]]) -> tuple:
    ds = frozenset(defaults)
    pairs = set(order)
    changed = True
    while changed:  # transitive closure
        changed = False
        for (a, b) in list(pairs):
            for (c, d) in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return ("set", ds, frozenset(pairs))


def levels(ctx: tuple) -> List[frozenset]:
    """Priority levels of a set context: repeatedly strip the maximal defaults."""
    remaining = set(ctx[1])
    out = []
    while remaining:
        top = frozenset(d for d in remaining
                        if not any((o, d) in ctx[2] for o in remaining if o != d))
        out.append(top)
        remaining -= top
    return out or [frozenset()]


def chain(ctx: tuple, full: int) -> List[int]:
    if ctx[0] == "seq":
        return list(ctx[1])
    out = []
    for level in levels(ctx):
        m = full
        for d in level:
            m &= d
        out.append(m)
    return out


def expected(ctx: tuple, full: int) -> int:
    entries = chain(ctx, full)
    current = entries[0]
    if not current:
        return 0
    for e in entries[1:]:
        if not current & e:
            break
        current &= e
    return current


def update(ctx: tuple, default: int) -> tuple:
    if ctx[0] == "seq":
        return ("seq", (default,) + ctx[1])
    rest = ctx[1] - {default}
    pairs = {(a, b) for (a, b) in ctx[2] if a in rest and b in rest}
    pairs |= {(default, d) for d in rest}
    return ("set", rest | {default}, frozenset(pairs))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


class Point:
    """A model (n worlds, valuation by bitmask) against which trees are read.

    ``spheres`` switches the reading of ``box`` to the comparative
    possibility conditional over a pseudo-sphere system.
    """

    def __init__(self, n_worlds: int, valuation: Dict[str, int], spheres: Optional[Sequence[int]] = None):
        self.n = n_worlds
        self.full = (1 << n_worlds) - 1
        self.val = valuation
        self.spheres = spheres
        self.memo: Dict[tuple, int] = {}

    def mask(self, f: Tree, ctx: tuple) -> int:
        """Worlds where ``f`` holds under ``ctx``."""
        key = (id(f), ctx)
        hit = self.memo.get(key)
        if hit is not None and hit[0] is f:
            return hit[1]
        m = self._mask(f, ctx)
        self.memo[key] = (f, m)
        return m

    def _mask(self, f: Tree, ctx: tuple) -> int:
        op, full = f[0], self.full
        if op == "atom":
            return self.val.get(f[1], 0)
        if op == "false":
            return 0
        if op == "true":
            return full
        if op == "not":
            return full & ~self.mask(f[1], ctx)
        if op == "and":
            return self.mask(f[1], ctx) & self.mask(f[2], ctx)
        if op == "or":
            return self.mask(f[1], ctx) | self.mask(f[2], ctx)
        if op == "imp":
            return (full & ~self.mask(f[1], ctx)) | self.mask(f[2], ctx)
        if op == "iff":
            return full & ~(self.mask(f[1], ctx) ^ self.mask(f[2], ctx))
        if op == "box":
            return full if self._box(f[1], f[2], ctx, False) else 0
        if op == "dia":  # <a>f  =  ~[a]~f
            return 0 if self._box(f[1], f[2], ctx, True) else full
        if op == "E":  # E a  =  <a>true
            return 0 if self._box(f[1], TRUE, ctx, True) else full
        if op == "A":  # A a  =  ~E~a  =  [~a]false
            return full if self._box(f[1], FALSE, ctx, False, negate_antecedent=True) else 0
        raise ValueError(f"unknown operator {op!r}")

    def _box(self, a: Tree, f: Tree, ctx: tuple, negate: bool, negate_antecedent: bool = False) -> bool:
        """Truth of [a]f, or of [a]~f when ``negate``."""
        ext = self.mask(a, ctx)
        if negate_antecedent:
            ext = self.full & ~ext
        if self.spheres is not None:
            first = next((s & ext for s in self.spheres if s & ext), 0)
            target = first
        else:
            ctx = update(ctx, ext)
            target = expected(ctx, self.full)
        holds = self.mask(f, ctx)
        if negate:
            holds = self.full & ~holds
        return target & ~holds == 0

    def holds(self, f: Tree, ctx: tuple, world: int) -> bool:
        return bool(self.mask(f, ctx) >> world & 1)


# ---------------------------------------------------------------------------
# Bounded exhaustive search
# ---------------------------------------------------------------------------


def valuations(names: Sequence[str], n_worlds: int) -> Iterator[Dict[str, int]]:
    for masks in itertools.product(range(1 << n_worlds), repeat=len(names)):
        yield dict(zip(names, masks))


def sequence_contexts(n_worlds: int, max_len: int) -> Iterator[tuple]:
    subsets = range(1 << n_worlds)
    for length in range(1, max_len + 1):
        for seq in itertools.permutations(subsets, length):
            yield ("seq", seq)


def countermodel(f: Tree, max_worlds: int, max_len: int):
    """First (n, valuation, context, world) falsifying ``f``, or None.

    Ranges over every model on ``f``'s atoms with at most ``max_worlds``
    worlds and every duplicate-free sequence context up to ``max_len``.
    """
    names = sorted(atoms_of(f)) or ["p"]
    for n in range(1, max_worlds + 1):
        contexts = list(sequence_contexts(n, max_len))
        full = (1 << n) - 1
        for val in valuations(names, n):
            point = Point(n, val)
            for ctx in contexts:
                m = point.mask(f, ctx)
                if m != full:
                    world = next(i for i in range(n) if not m >> i & 1)
                    return n, val, ctx, world
    return None


def satisfying_point(f: Tree, max_worlds: int, max_len: int):
    return countermodel(neg(f), max_worlds, max_len)


# ---------------------------------------------------------------------------
# Reading the program's JSON model and context shapes
# ---------------------------------------------------------------------------


def world_index(worlds: Sequence[str]) -> Dict[str, int]:
    return {w: i for i, w in enumerate(worlds)}


def to_mask(ws, index: Dict[str, int]) -> int:
    m = 0
    for w in ws:
        m |= 1 << index[w]
    return m


def point_from_json(model: dict, spheres: Optional[Sequence] = None) -> Tuple[Point, Dict[str, int]]:
    index = world_index(model["worlds"])
    val = {a: to_mask(ws, index) for a, ws in model["valuation"].items()}
    sph = None if spheres is None else [to_mask(s, index) for s in spheres]
    return Point(len(index), val, sph), index


def context_from_json(data: dict, index: Dict[str, int]) -> tuple:
    if data["kind"] == "sequence":
        return seq_context([to_mask(ws, index) for ws in data["sequence"]])
    names = {n: to_mask(ws, index) for n, ws in data["defaults"].items()}
    return set_context(list(names.values()), [(names[a], names[b]) for a, b in data.get("order", [])])

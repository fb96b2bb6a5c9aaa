"""Formula ASTs, concrete syntax, and syntactic classification.

Two dialects are supported:

* ``conwon`` -- the conditional-box dialect.  ``[a] f`` reads "if ``a``,
  then ``f`` should be the case"; antecedents must be propositional.
* ``v`` -- the variably-strict conditional dialect with the infix
  corner ``a |> b``; both arguments may be arbitrary formulas.

All sugar (``true``, ``|``, ``->``, ``<->``, ``<a>``, ``box``, ``dia``,
``E``, ``A``) expands at parse time, so every downstream consumer only
sees the five core node kinds of each dialect.

Formulas are hash-consed.  Equal means identical: each constructor
returns the one live node of its kind with identical children, so ``==``
and ``hash`` are identity and cost O(1) at any depth.  Nodes are
immutable (assignment raises; copies and pickle round trips return the
node itself).  The intern table holds its nodes weakly: a node's entry
goes when the node dies.  Each node records, from its children in O(1)
at construction, its modal ``depth``, whether it is ``closed`` (see
:func:`is_closed`) and its ``size``, the number of nodes :func:`render`
prints; the classifiers read these.

Parsing is one ``re.findall`` and one operator-precedence loop (Pratt
1973), printing one loop over a stack, so nesting is bounded by memory
only.  Binding strength, loosest first:

    1. ``<->``  non-associative
    2. ``->``   right-associative
    3. ``|>``   non-associative, dialect ``v`` only
    4. ``|``    left-associative
    5. ``&``    left-associative

and the prefixes ``~ [a] <a> box dia E A`` bind tighter still: the grammar
``iff ::= imp [<-> imp]``, ``imp ::= corner [-> imp]``, ``corner ::= disj
[|> disj]``, ``disj ::= conj {| conj}``, ``conj ::= prefix {& prefix}``,
``prefix ::= op prefix | atom | (iff)``.  The loop holds the finished
operands, the pending binary operators (a 0 opens each group ``( [ <``)
and the prefixes waiting for the next operand.  An operator of strength
``s`` first applies every pending one stronger than ``s``, and an equal
one if ``s`` groups left, so within a group the pending strengths rise
strictly but for runs of ``->``.  Hence an operator, when applied, joins
the maximal spans beside it whose operators bind more strongly, or as
strongly on the side it groups to: the subtree its grammar rule builds.
A complete operand takes its prefixes innermost first, as ``prefix``
nests.

Errors are raised at the token where a left-to-right descent of that
grammar detects them, with the same class, message and position: a
second ``<->`` or ``|>`` in one span; ``|>`` in ``conwon`` and
``box``/``dia`` in ``v`` at once; ``[``/``<`` in ``v`` and a modal
antecedent in ``conwon`` at the closing bracket; a modal argument of
``E``/``A`` in ``conwon`` once that argument is complete.  A character
that begins no token, anywhere in the text, is reported before all these.
"""

from __future__ import annotations

import itertools
import re
import weakref
from typing import Callable, Dict, Iterator, NamedTuple

from .errors import InputError

CONWON = "conwon"
V = "v"
DIALECTS = (CONWON, V)


class ParseError(InputError):
    """Syntax error in formula text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class DialectError(ParseError):
    """Construct not available in the requested dialect."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class _Ref(weakref.ref):
    """Weak reference to an interned node that knows the node's key."""

    __slots__ = ("key",)


_INTERNED: Dict[tuple, _Ref] = {}  # (class, *fields) -> the live node


def _forget(ref: _Ref) -> None:
    if _INTERNED.get(ref.key) is ref:  # a newer node may hold the key by now
        del _INTERNED[ref.key]


def _make(key: tuple, depth: int, closed: bool, size: int) -> "Formula":
    """A new node for ``key``, entered in the intern table."""
    node = object.__new__(key[0])
    stores = _STORES[key[0]]  # at most two; unrolled, as every new node comes here
    if stores:
        stores[0](node, key[1])
        if len(stores) > 1:
            stores[1](node, key[2])
    _store_depth(node, depth)
    _store_closed(node, closed)
    _store_size(node, size)
    ref = _INTERNED[key] = _Ref(node, _forget)
    ref.key = key
    return node


class Formula:
    """An interned, immutable formula node."""

    __slots__ = ("depth", "closed", "size", "__weakref__")

    def __setattr__(self, name, value=None):  # also __delattr__
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy.copy and pickle rebuild the interned node
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __deepcopy__(self, memo) -> "Formula":
        return self

    def children(self) -> tuple:
        """The subformulas this node is built from, in order."""
        return self.__reduce__()[1]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self.__reduce__()[1]))})"

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


class Atom(Formula):
    __slots__ = ("name",)

    def children(self) -> tuple:
        return ()

    def __new__(cls, name: str):
        key = (cls, name)
        ref = _INTERNED.get(key)
        return ref and ref() or _make(key, 0, False, 1)


class Falsum(Formula):
    __slots__ = ()

    def __new__(cls):
        ref = _INTERNED.get((cls,))
        return ref and ref() or _make((cls,), 0, False, 1)


class Not(Formula):
    __slots__ = ("child",)

    def __new__(cls, child: Formula):
        key = (cls, child)
        ref = _INTERNED.get(key)
        return ref and ref() or _make(key, child.depth, child.closed, 1 + child.size)


class And(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        key = (cls, left, right)
        ref = _INTERNED.get(key)
        return ref and ref() or _make(key, max(left.depth, right.depth), left.closed and right.closed,
                                      1 + left.size + right.size)


class CondBox(Formula):
    """Conditional box of the ``conwon`` dialect; antecedent propositional."""

    __slots__ = ("antecedent", "consequent")

    def __new__(cls, antecedent: Formula, consequent: Formula):
        key = (cls, antecedent, consequent)
        ref = _INTERNED.get(key)
        node = ref and ref()
        if node is None:
            if antecedent.depth:
                raise ValueError("conditional antecedent must be propositional")
            node = _make(key, 1 + consequent.depth, True, 1 + antecedent.size + consequent.size)
        return node


class CondCorner(Formula):
    """Variably-strict conditional of the ``v`` dialect."""

    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        key = (cls, left, right)
        ref = _INTERNED.get(key)
        return ref and ref() or _make(key, 1 + max(left.depth, right.depth), True,
                                      1 + left.size + right.size)


# The slot descriptors' own stores: they bypass Formula.__setattr__, which refuses every write.
_STORES = {cls: tuple(getattr(cls, name).__set__ for name in cls.__slots__)
           for cls in (Atom, Falsum, Not, And, CondBox, CondCorner)}
_store_depth, _store_closed, _store_size = (getattr(Formula, name).__set__
                                            for name in ("depth", "closed", "size"))

FALSUM = Falsum()
TRUE = Not(FALSUM)


# Sugar helpers; all return desugared core formulas.


def Or(a: Formula, b: Formula) -> Formula:
    return Not(And(Not(a), Not(b)))


def Implies(a: Formula, b: Formula) -> Formula:
    return Not(And(a, Not(b)))


def Iff(a: Formula, b: Formula) -> Formula:
    return And(Implies(a, b), Implies(b, a))


def CondDia(antecedent: Formula, consequent: Formula) -> Formula:
    """Dual conditional: ``<a> f`` is ``~[a]~f``."""
    return Not(CondBox(antecedent, Not(consequent)))


def SomeWorld(alpha: Formula) -> Formula:
    """``E a``: the proposition ``a`` holds somewhere (``<a> true``)."""
    return CondDia(alpha, TRUE)


def EveryWorld(alpha: Formula) -> Formula:
    """``A a``: the proposition ``a`` holds everywhere (``~E~a``)."""
    return Not(SomeWorld(Not(alpha)))


def NecessarilyV(phi: Formula) -> Formula:
    """``A f`` in dialect v: ``~f |> false``."""
    return CondCorner(Not(phi), FALSUM)


def PossiblyV(phi: Formula) -> Formula:
    """``E f`` in dialect v: ``~A~f``."""
    return Not(NecessarilyV(Not(phi)))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


class Classification(NamedTuple):
    is_propositional: bool
    is_closed: bool
    is_flat: bool
    modal_depth: int


def is_propositional(f: Formula) -> bool:
    return f.depth == 0


def modal_depth(f: Formula) -> int:
    return f.depth


def is_closed(f: Formula) -> bool:
    """Whether ``f`` is generated by ``x ::= [a]f | ~x | (x & x)``."""
    return f.closed


def is_flat(f: Formula) -> bool:
    return f.depth <= 1


def classify(f: Formula) -> Classification:
    return Classification(f.depth == 0, f.closed, f.depth <= 1, f.depth)


def subformulas(f: Formula) -> Iterator[Formula]:
    """Each distinct node of ``f``'s DAG once, ``f`` first: linear in DAG nodes, no recursion."""
    seen, stack = {f}, [f]
    while stack:
        g = stack.pop()
        yield g
        for child in g.children():
            if child not in seen:
                seen.add(child)
                stack.append(child)


def atoms(f: Formula) -> frozenset:
    return frozenset(g.name for g in subformulas(f) if type(g) is Atom)


def set_walk(world_set, extent: Callable, conditional: Callable) -> Callable[[Formula], object]:
    """A walk giving each formula's world set, memoised per node.

    Atoms take ``extent``, ``~`` and ``&`` act on sets, and any other node
    takes ``conditional(node, walk)``, left to right.  A world set is a
    frozenset of worlds or an int bitmask with ``world_set`` all its bits:
    the walk uses ``world_set - x`` and ``x & y`` only.
    """
    memo: Dict[Formula, object] = {}

    def walk(f: Formula):
        stack = [f]  # a ~ or & waits under a None until its children are done: no recursion through them
        while stack:
            g = stack.pop()
            if g is None:  # the next one's children are done
                g = stack.pop()
                memo[g] = world_set - memo[g.child] if type(g) is Not else memo[g.left] & memo[g.right]
            elif g not in memo and (type(g) is Not or type(g) is And):
                stack += (g, None, g.child) if type(g) is Not else (g, None, g.right, g.left)
            elif g not in memo:
                cls = type(g)
                memo[g] = (extent(g.name) if cls is Atom else world_set - world_set if cls is Falsum
                           else conditional(g, walk))
        return memo[f]

    return walk


def dialect_of(f: Formula) -> str:
    """The dialect a core formula belongs to; boolean formulas fit both."""
    kinds = set(map(type, subformulas(f)))
    if CondBox in kinds and CondCorner in kinds:
        raise ValueError("formula mixes both dialects")
    return V if CondCorner in kinds else CONWON


def translate_flat(f: Formula, target: str) -> Formula:
    """Swap the two conditional kinds on a flat formula.

    Both arguments of every conditional are propositional (the formula
    is flat); the boolean skeleton is preserved verbatim.  One pass over
    the DAG, children first, without recursion.
    """
    if target not in DIALECTS:
        raise ValueError(f"unknown dialect: {target}")
    if not is_flat(f):
        raise ValueError("translate_flat requires a flat formula")
    cond = CondBox if target == CONWON else CondCorner
    done: Dict[Formula, Formula] = {}
    todo = [f]
    while todo:
        g = todo[-1]
        if not g.depth:
            done[g] = g
        elif type(g) is Not or type(g) is And:
            parts = g.children()
            missing = [c for c in parts if c not in done]
            if missing:
                todo += missing
                continue
            done[g] = type(g)(*(done[c] for c in parts))
        else:
            done[g] = cond(*g.children())
        todo.pop()
    return done[f]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# One match per token: a word (identifier, keyword or a run of E/A), an
# arrow, the corner, or any other non-space character.  ``\w`` is
# ``isalnum()`` or "_"; U+0345 and U+24D0-U+24E9 are the lowercase code
# points outside it.
_TOKEN = re.compile(r"[\w\u0345\u24d0-\u24e9]\w*|<?->|\|>|\S")
_BINARY = {"<->": 1, "->": 2, "|>": 3, "|": 4, "&": 5}  # binding strength, loosest first
_BUILD = (None, Iff, Implies, CondCorner, Or, And)
# A prefix is (constructor, antecedent or None, None or where an argument check fails).
_NOT = (Not, None, None)
# What may start an operand, beside identifiers and E/A: prefixes, groups (by their
# closing token) and constants.
_OPERAND = {"~": _NOT, "box": (CondBox, TRUE, None), "dia": (CondDia, TRUE, None),
            "(": ")", "[": "]", "<": ">", "false": FALSUM, "⊥": FALSUM, "true": TRUE}
_WORLD = {CONWON: {"E": SomeWorld, "A": EveryWorld}, V: {"E": PossiblyV, "A": NecessarilyV}}
_SYMBOLS = {*_BINARY, *_OPERAND, ")", "]", ">"}  # every token but identifiers and E/A runs


def _unreadable(text: str) -> Iterator[int]:
    """Positions of the characters that begin no token, in order."""
    for match in _TOKEN.finditer(text):
        word = match.group()
        rest = word.lstrip("EA")
        if rest and not rest[0].islower() and word not in _SYMBOLS:
            yield match.end() - len(rest)


def _fail(text: str, message: str, index: int, offset: int = 0, error: type = ParseError):
    """Raise ``error(message)`` at token ``index`` (``offset`` characters in).

    A character that begins no token means the text has no token sequence
    at all, so the first one, wherever it is, is reported instead.
    """
    for at in _unreadable(text):
        raise ParseError(f"unexpected character {text[at]!r}", at)
    match = next(itertools.islice(_TOKEN.finditer(text), index, None), None)
    raise error(message, match.start() + offset if match else len(text))


def _reduce(args: list, ops: list, floor: int) -> None:
    """Apply the pending binary operators that bind more strongly than ``floor``."""
    while ops[-1] > floor:
        right = args.pop()
        args[-1] = _BUILD[ops.pop()](args[-1], right)


def _prefixed(pre: list, f: Formula, text: str, words: list) -> Formula:
    """``f`` under the pending prefixes ``pre``, innermost (last) first; ``pre`` ends empty."""
    while pre:
        build, antecedent, where = pre.pop()
        if antecedent is not None:
            f = build(antecedent, f)
        elif where is None or not f.depth:
            f = build(f)
        else:
            i, k = where
            _fail(text, f"argument of {words[i][k]!r} must be propositional", i, k, DialectError)
    return f


def parse_formula(text: str, dialect: str = CONWON) -> Formula:
    """Parse ``text`` into a desugared core formula of ``dialect``."""
    if dialect not in DIALECTS:
        raise ValueError(f"unknown dialect: {dialect}")
    v = dialect == V
    world = _WORLD[dialect]
    words = _TOKEN.findall(text)
    args: list = []  # finished operands
    ops = [0]  # pending binary operators by binding strength; a 0 opens each group
    groups: list = []  # per open group: (its closing token, the prefixes before it, its index)
    pre: list = []  # prefixes waiting for the next operand
    operand = True  # whether an operand comes next
    for i, s in enumerate(words):
        if operand:
            item = _OPERAND.get(s)
            if item is None and s[0] in "EA":  # E and A are one-character tokens: "EAp" is E A p
                rest = s.lstrip("EA")
                for k in range(len(s) - len(rest)):
                    pre.append((world[s[k]], None, None if v else (i, k)))
                if not rest:
                    continue
                s = rest
                item = _OPERAND.get(s)
            if item is None:
                if not s[0].islower():
                    _fail(text, f"expected a formula, found {s!r}", i)
                item = Atom(s)
            elif type(item) is str:
                groups.append((item, pre, i))
                ops.append(0)
                pre = []
                continue
            elif type(item) is tuple:
                if v and item is not _NOT:
                    _fail(text, f"{s!r} is not part of the v dialect", i, len(words[i]) - len(s), DialectError)
                pre.append(item)
                continue
            args.append(_prefixed(pre, item, text, words) if pre else item)
            operand = False
            continue
        p = _BINARY.get(s)
        if p:
            if p == 3 and not v:
                _fail(text, "'|>' is not part of the conwon dialect", i, 0, DialectError)
            _reduce(args, ops, p - 1 if p > 3 else p)  # "|" and "&" group to the left
            if ops[-1] == p != 2:  # "->" groups to the right, "<->" and "|>" not at all
                _fail(text, f"{s!r} is non-associative; parenthesize", i)
            ops.append(p)
            operand = True
            continue
        if not groups or groups[-1][0] != s:
            found = s[0] if s[0] in "EA" else s
            _fail(text, f"expected {groups[-1][0]!r}, found {found!r}" if groups
                  else f"unexpected {found!r}", i)
        _reduce(args, ops, 0)
        ops.pop()
        _, pre, j = groups.pop()
        if s == ")":
            if pre:
                args[-1] = _prefixed(pre, args[-1], text, words)
            continue
        antecedent = args.pop()
        if v:
            _fail(text, f"{words[j]!r} is not part of the v dialect", j, 0, DialectError)
        if antecedent.depth:
            _fail(text, "conditional antecedent must be propositional", j, 0, DialectError)
        pre.append((CondBox if s == "]" else CondDia, antecedent, None))
        operand = True
    if operand:
        _fail(text, "expected a formula, found 'end of input'", len(words))
    if groups:
        _fail(text, f"expected {groups[-1][0]!r}, found 'end of input'", len(words))
    _reduce(args, ops, 0)
    return args[0]


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

# Binding strength of each node kind as printed: a child weaker than its
# slot needs is parenthesised.
_PREC = {Atom: 4, Falsum: 4, Not: 3, CondBox: 3, And: 2, CondCorner: 1}


def render(f: Formula) -> str:
    """Core-syntax text for ``f``; ``parse_formula(render(f))`` equals ``f``.

    One loop over a stack of what is still to print, nodes and text
    pieces (operators, closing parentheses), next on top.
    """
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    out: list = []
    todo = [f]
    while todo:
        g = todo.pop()
        kind = type(g)
        if kind is str:
            out.append(g)
        elif kind is Atom:
            out.append(g.name)
        elif kind is Falsum:
            out.append("false")
        elif kind is Not:
            out.append("~")
            g = g.child
            todo += (")", g, "(") if _PREC[type(g)] < 3 else (g,)
        elif kind is CondBox:
            out.append("[")
            g, antecedent = g.consequent, g.antecedent
            todo += (")", g, "(") if _PREC[type(g)] < 3 else (g,)
            todo += ("] ", antecedent)
        else:  # And or CondCorner; the right operand goes on first, to come off last
            right = g.right
            todo += (")", right, "(") if _PREC[type(right)] < (3 if kind is And else 2) else (right,)
            todo.append(" & " if kind is And else " |> ")
            g = g.left
            todo += (")", g, "(") if _PREC[type(g)] < 2 else (g,)
    return "".join(out)

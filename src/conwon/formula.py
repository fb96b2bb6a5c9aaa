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
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterator, NamedTuple

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
_set = object.__setattr__


def _forget(ref: _Ref) -> None:
    if _INTERNED.get(ref.key) is ref:  # a newer node may hold the key by now
        del _INTERNED[ref.key]


def _make(key: tuple, depth: int, closed: bool, size: int) -> "Formula":
    """A new node for ``key``, entered in the intern table."""
    node = object.__new__(key[0])
    fields = key[0].__slots__  # at most two; unrolled, as every new node comes here
    if fields:
        _set(node, fields[0], key[1])
        if len(fields) > 1:
            _set(node, fields[1], key[2])
    _set(node, "depth", depth)
    _set(node, "closed", closed)
    _set(node, "size", size)
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


def dialect_of(f: Formula) -> str:
    """The dialect a core formula belongs to; boolean formulas fit both."""
    kinds = set(map(type, subformulas(f)))
    if CondBox in kinds and CondCorner in kinds:
        raise ValueError("formula mixes both dialects")
    return V if CondCorner in kinds else CONWON


def translate_flat(f: Formula, target: str) -> Formula:
    """Swap the two conditional kinds on a flat formula.

    Both arguments of every conditional must be propositional; the
    boolean skeleton is preserved verbatim.
    """
    if target not in DIALECTS:
        raise ValueError(f"unknown dialect: {target}")
    if not is_flat(f):
        raise ValueError("translate_flat requires a flat formula")

    def go(g: Formula) -> Formula:
        if isinstance(g, (Atom, Falsum)):
            return g
        if isinstance(g, Not):
            return Not(go(g.child))
        if isinstance(g, And):
            return And(go(g.left), go(g.right))
        if isinstance(g, CondBox):
            if target == CONWON:
                return g
            return CondCorner(g.antecedent, g.consequent)
        if isinstance(g, CondCorner):
            if not is_propositional(g.left) or not is_propositional(g.right):
                raise ValueError("conditional arguments must be propositional")
            if target == V:
                return g
            return CondBox(g.left, g.right)
        raise TypeError(f"not a formula: {g!r}")

    return go(f)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_KEYWORDS = {"false", "true", "box", "dia"}


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> Iterator[_Token]:
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("<->", i):
            yield _Token("<->", "<->", i)
            i += 3
        elif text.startswith("->", i):
            yield _Token("->", "->", i)
            i += 2
        elif text.startswith("|>", i):
            yield _Token("|>", "|>", i)
            i += 2
        elif c in "~&|[]<>()":
            yield _Token(c, c, i)
            i += 1
        elif c == "⊥":  # the falsum glyph, alias for "false"
            yield _Token("false", c, i)
            i += 1
        elif c in ("E", "A"):
            yield _Token(c, c, i)
            i += 1
        elif c.islower():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = word if word in _KEYWORDS else "ident"
            yield _Token(kind, word, i)
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    yield _Token("eof", "", n)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, dialect: str):
        if dialect not in DIALECTS:
            raise ValueError(f"unknown dialect: {dialect}")
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.dialect = dialect

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.next()

    def parse(self) -> Formula:
        f = self.iff()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return f

    def iff(self) -> Formula:
        left = self.imp()
        if self.peek().kind == "<->":
            self.next()
            right = self.imp()
            if self.peek().kind == "<->":
                tok = self.peek()
                raise ParseError("'<->' is non-associative; parenthesize", tok.pos)
            return Iff(left, right)
        return left

    def imp(self) -> Formula:
        left = self.corner()
        if self.peek().kind == "->":
            self.next()
            return Implies(left, self.imp())
        return left

    def corner(self) -> Formula:
        left = self.disj()
        if self.peek().kind == "|>":
            tok = self.next()
            if self.dialect != V:
                raise DialectError("'|>' is not part of the conwon dialect", tok.pos)
            right = self.disj()
            if self.peek().kind == "|>":
                raise ParseError("'|>' is non-associative; parenthesize", self.peek().pos)
            return CondCorner(left, right)
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek().kind == "|":
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.prefix()
        while self.peek().kind == "&":
            self.next()
            f = And(f, self.prefix())
        return f

    def _cond(self, antecedent: Formula, tok: _Token) -> Formula:
        if self.dialect != CONWON:
            raise DialectError(f"{tok.text!r} is not part of the v dialect", tok.pos)
        if not is_propositional(antecedent):
            raise DialectError("conditional antecedent must be propositional", tok.pos)
        return antecedent

    def prefix(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.next()
            return Not(self.prefix())
        if tok.kind == "[":
            self.next()
            antecedent = self.iff()
            self.expect("]")
            return CondBox(self._cond(antecedent, tok), self.prefix())
        if tok.kind == "<":
            self.next()
            antecedent = self.iff()
            self.expect(">")
            return CondDia(self._cond(antecedent, tok), self.prefix())
        if tok.kind == "box":
            self.next()
            self._cond(TRUE, tok)
            return CondBox(TRUE, self.prefix())
        if tok.kind == "dia":
            self.next()
            self._cond(TRUE, tok)
            return CondDia(TRUE, self.prefix())
        if tok.kind == "E":
            self.next()
            arg = self.prefix()
            if self.dialect == V:
                return PossiblyV(arg)
            if not is_propositional(arg):
                raise DialectError("argument of 'E' must be propositional", tok.pos)
            return SomeWorld(arg)
        if tok.kind == "A":
            self.next()
            arg = self.prefix()
            if self.dialect == V:
                return NecessarilyV(arg)
            if not is_propositional(arg):
                raise DialectError("argument of 'A' must be propositional", tok.pos)
            return EveryWorld(arg)
        return self.atom()

    def atom(self) -> Formula:
        tok = self.next()
        if tok.kind == "ident":
            return Atom(tok.text)
        if tok.kind == "false":
            return FALSUM
        if tok.kind == "true":
            return TRUE
        if tok.kind == "(":
            f = self.iff()
            self.expect(")")
            return f
        raise ParseError(f"expected a formula, found {tok.text or 'end of input'!r}", tok.pos)


def parse_formula(text: str, dialect: str = CONWON) -> Formula:
    """Parse ``text`` into a desugared core formula of ``dialect``."""
    return _Parser(text, dialect).parse()


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

# Precedence levels for the core printer: 4 atoms, 3 prefix, 2 "&", 1 "|>".
_PREC_ATOM = 4
_PREC_PREFIX = 3
_PREC_AND = 2
_PREC_CORNER = 1
_PREC = {Atom: _PREC_ATOM, Falsum: _PREC_ATOM, Not: _PREC_PREFIX, CondBox: _PREC_PREFIX,
         And: _PREC_AND, CondCorner: _PREC_CORNER}


def _render(f: Formula, need: int) -> str:
    if isinstance(f, Atom):
        s = f.name
    elif isinstance(f, Falsum):
        s = "false"
    elif isinstance(f, Not):
        s = "~" + _render(f.child, _PREC_PREFIX)
    elif isinstance(f, CondBox):
        s = f"[{_render(f.antecedent, 0)}] " + _render(f.consequent, _PREC_PREFIX)
    elif isinstance(f, And):
        s = _render(f.left, _PREC_AND) + " & " + _render(f.right, _PREC_AND + 1)
    elif isinstance(f, CondCorner):
        s = _render(f.left, _PREC_CORNER + 1) + " |> " + _render(f.right, _PREC_CORNER + 1)
    else:
        raise TypeError(f"not a formula: {f!r}")
    if _PREC[type(f)] < need:
        return f"({s})"
    return s


def render(f: Formula) -> str:
    """Core-syntax text for ``f``; ``parse_formula(render(f))`` equals ``f``."""
    return _render(f, 0)

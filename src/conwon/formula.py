"""Formula ASTs, concrete syntax, and syntactic classification.

Two dialects are supported:

* ``conwon`` -- the conditional-box dialect.  ``[a] f`` reads "if ``a``,
  then ``f`` should be the case"; antecedents must be propositional.
* ``v`` -- the variably-strict conditional dialect with the infix
  corner ``a |> b``; both arguments may be arbitrary formulas.

All sugar (``true``, ``|``, ``->``, ``<->``, ``<a>``, ``box``, ``dia``,
``E``, ``A``) expands at parse time, so every downstream consumer only
sees the five core node kinds of each dialect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

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


@dataclass(frozen=True)
class Formula:
    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Falsum(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class CondBox(Formula):
    """Conditional box of the ``conwon`` dialect; antecedent propositional."""

    antecedent: Formula
    consequent: Formula

    def __post_init__(self):
        if not is_propositional(self.antecedent):
            raise ValueError("conditional antecedent must be propositional")


@dataclass(frozen=True)
class CondCorner(Formula):
    """Variably-strict conditional of the ``v`` dialect."""

    left: Formula
    right: Formula


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


@dataclass(frozen=True)
class Classification:
    is_propositional: bool
    is_closed: bool
    is_flat: bool
    modal_depth: int


def is_propositional(f: Formula) -> bool:
    if isinstance(f, (Atom, Falsum)):
        return True
    if isinstance(f, Not):
        return is_propositional(f.child)
    if isinstance(f, And):
        return is_propositional(f.left) and is_propositional(f.right)
    return False


def modal_depth(f: Formula) -> int:
    if isinstance(f, (Atom, Falsum)):
        return 0
    if isinstance(f, Not):
        return modal_depth(f.child)
    if isinstance(f, And):
        return max(modal_depth(f.left), modal_depth(f.right))
    if isinstance(f, CondBox):
        return 1 + max(modal_depth(f.antecedent), modal_depth(f.consequent))
    if isinstance(f, CondCorner):
        return 1 + max(modal_depth(f.left), modal_depth(f.right))
    raise TypeError(f"not a formula: {f!r}")


def is_closed(f: Formula) -> bool:
    """Whether ``f`` is generated by ``x ::= [a]f | ~x | (x & x)``."""
    if isinstance(f, (CondBox, CondCorner)):
        return True
    if isinstance(f, Not):
        return is_closed(f.child)
    if isinstance(f, And):
        return is_closed(f.left) and is_closed(f.right)
    return False


def is_flat(f: Formula) -> bool:
    return modal_depth(f) <= 1


def classify(f: Formula) -> Classification:
    depth = modal_depth(f)
    return Classification(
        is_propositional=depth == 0,
        is_closed=is_closed(f),
        is_flat=depth <= 1,
        modal_depth=depth,
    )


def atoms(f: Formula) -> frozenset:
    if isinstance(f, Atom):
        return frozenset([f.name])
    if isinstance(f, Falsum):
        return frozenset()
    if isinstance(f, Not):
        return atoms(f.child)
    if isinstance(f, And):
        return atoms(f.left) | atoms(f.right)
    if isinstance(f, CondBox):
        return atoms(f.antecedent) | atoms(f.consequent)
    if isinstance(f, CondCorner):
        return atoms(f.left) | atoms(f.right)
    raise TypeError(f"not a formula: {f!r}")


def dialect_of(f: Formula) -> str:
    """The dialect a core formula belongs to; boolean formulas fit both."""

    def kinds(g: Formula) -> frozenset:
        if isinstance(g, CondBox):
            return frozenset(["box"]) | kinds(g.antecedent) | kinds(g.consequent)
        if isinstance(g, CondCorner):
            return frozenset(["corner"]) | kinds(g.left) | kinds(g.right)
        if isinstance(g, Not):
            return kinds(g.child)
        if isinstance(g, And):
            return kinds(g.left) | kinds(g.right)
        return frozenset()

    seen = kinds(f)
    if "box" in seen and "corner" in seen:
        raise ValueError("formula mixes both dialects")
    return V if "corner" in seen else CONWON


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


def _prec(f: Formula) -> int:
    if isinstance(f, (Atom, Falsum)):
        return _PREC_ATOM
    if isinstance(f, (Not, CondBox)):
        return _PREC_PREFIX
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, CondCorner):
        return _PREC_CORNER
    raise TypeError(f"not a formula: {f!r}")


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
    if _prec(f) < need:
        return f"({s})"
    return s


def render(f: Formula) -> str:
    """Core-syntax text for ``f``; ``parse_formula(render(f))`` equals ``f``."""
    return _render(f, 0)

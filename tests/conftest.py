"""Shared generators and helpers for the test suite.

Random formula generation is deterministic (callers pass a seeded
``random.Random``) so failures reproduce. The exhaustive model and
context enumerators, and the bitmask forms of the expected set
(:func:`e_mask`) and of a context's chain (:func:`context_chain`), serve
only as brute-force references; :func:`reference_parse` and
:func:`reference_render` are the recursive parser and printer that
``conwon.formula`` replaced with loops, kept to compare against;
:class:`RelationalModelV` and :func:`truth_set_relational` are Lewis's
relational semantics for ``|>``, the reference that the pseudo-sphere
clause of ``conwon.lewis`` is checked against; :func:`disagreement` is
the bounded equivalence check; and :func:`invoke` runs the CLI in this
process.
"""

import contextlib
import io
import itertools
import random
from typing import FrozenSet, Iterator, List, Mapping, NamedTuple, Sequence, Tuple

from conwon.cli import main
from conwon.errors import FrozenRecord
from conwon.formula import (
    CONWON,
    DIALECTS,
    FALSUM,
    TRUE,
    V,
    And,
    Atom,
    CondBox,
    CondCorner,
    CondDia,
    DialectError,
    EveryWorld,
    Falsum,
    Formula,
    Iff,
    Implies,
    NecessarilyV,
    Not,
    Or,
    ParseError,
    PossiblyV,
    SomeWorld,
    atoms,
    is_propositional,
    set_walk,
)
from conwon.lewis import PseudoSphereModelV
from conwon.models import Model, SchemaError, WorldSet
from conwon.semantics import Chain, SearchBounds, find_countermodel, update_chain


def random_prop(rng: random.Random, atom_names, depth: int) -> Formula:
    if depth <= 0:
        choices = [Atom(a) for a in atom_names] + [FALSUM]
        return rng.choice(choices)
    kind = rng.randrange(4)
    if kind == 0:
        return Atom(rng.choice(atom_names))
    if kind == 1:
        return Not(random_prop(rng, atom_names, depth - 1))
    if kind == 2:
        return And(random_prop(rng, atom_names, depth - 1),
                   random_prop(rng, atom_names, depth - 1))
    return Or(random_prop(rng, atom_names, depth - 1),
              random_prop(rng, atom_names, depth - 1))


def random_formula(rng: random.Random, atom_names, modal_budget: int,
                   size: int = 3, dialect: str = "conwon") -> Formula:
    """A core formula with modal depth at most ``modal_budget``."""
    if size <= 0 or (modal_budget <= 0 and rng.random() < 0.5):
        return random_prop(rng, atom_names, 1)
    kind = rng.randrange(4 if modal_budget > 0 else 3)
    if kind == 0:
        return Not(random_formula(rng, atom_names, modal_budget, size - 1, dialect))
    if kind == 1:
        return And(
            random_formula(rng, atom_names, modal_budget, size - 1, dialect),
            random_formula(rng, atom_names, modal_budget, size - 1, dialect),
        )
    if kind == 2:
        return random_prop(rng, atom_names, 1)
    body = random_formula(rng, atom_names, modal_budget - 1, size - 1, dialect)
    antecedent = random_prop(rng, atom_names, 1)
    if dialect == "v":
        return CondCorner(antecedent, body)
    return CondBox(antecedent, body)


def formula_battery(seed: int, count: int, atom_names, max_depth: int,
                    dialect: str = "conwon") -> List[Formula]:
    """Deterministic battery with a controlled modal-depth mix."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        budget = rng.choice([1] * 3 + [2] * 2 + [max_depth])
        f = random_formula(rng, atom_names, budget, size=4, dialect=dialect)
        out.append(f)
    return out


def disagreement(f: Formula, g: Formula, max_worlds: int, max_len: int):
    """The first enumerated point where ``f`` and ``g`` differ, or ``None``: ``f <-> g`` is false there."""
    return find_countermodel(Iff(f, g), SearchBounds(max_worlds, max_len))


def nested_boxes(depth: int) -> str:
    """``[p](p & [q]...p)`` nested ``depth`` deep: 2 * depth conditionals in a chain."""
    return "[p](p & [q]" * depth + "p" + ")" * depth


# --- brute-force enumerators ------------------------------------------------


def iter_models(atom_names: Tuple[str, ...], n_worlds: int):
    """All valuations of the given atoms over a fixed n-world set."""
    masks = range(1 << n_worlds)
    for assignment in itertools.product(masks, repeat=len(atom_names)):
        yield dict(zip(atom_names, assignment))


def iter_contexts(n_worlds: int, max_len: int):
    """Duplicate-free sequence contexts over subsets of the world set."""
    subsets = range(1 << n_worlds)
    for length in range(1, max_len + 1):
        yield from itertools.permutations(subsets, length)


def e_mask(chain: Tuple[int, ...]) -> int:
    """Expected states of a sequence context given as bitmasks."""
    current = chain[0]
    if not current:
        return 0
    for entry in chain[1:]:
        narrowed = current & entry
        if not narrowed:
            break
        current = narrowed
    return current


def context_chain(context: Sequence[int], n_worlds: int) -> Chain:
    """Chain normal form of a sequence context given as bitmasks."""
    chain: Chain = ()
    for entry in reversed(context):
        chain = update_chain(entry, chain, (1 << n_worlds) - 1)
    return chain


def ordered_partitions(items: Tuple[str, ...]) -> Iterator[Tuple[FrozenSet[str], ...]]:
    """All sequences of disjoint nonempty blocks covering ``items``."""
    if not items:
        yield ()
        return
    pool = list(items)
    for r in range(1, len(pool) + 1):
        for block in itertools.combinations(pool, r):
            chosen = frozenset(block)
            remainder = tuple(x for x in pool if x not in chosen)
            for tail in ordered_partitions(remainder):
                yield (chosen,) + tail


def canonical_partitions(items: Tuple[str, ...]) -> Iterator[Tuple[FrozenSet[str], ...]]:
    """Ordered partitions with blocks in min-element order.

    Every ordered partition can be relabelled into this form, and the
    model enumeration ranges over all valuations independently, so
    restricting to these loses nothing up to world renaming.
    """
    if not items:
        yield ()
        return
    pool = list(items)
    first = pool[0]
    rest = pool[1:]
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            block = frozenset((first,) + extra)
            remainder = tuple(x for x in rest if x not in block)
            for tail in canonical_partitions(remainder):
                yield (block,) + tail


def iter_pseudo_sphere_models(atom_names: Sequence[str], max_worlds: int) -> Iterator[PseudoSphereModelV]:
    """Canonical enumeration; empty blocks omitted per the removal lemma."""
    for n in range(1, max_worlds + 1):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        extents = list(itertools.product(*[range(2)] * n))
        for choice in itertools.product(extents, repeat=len(atom_names)):
            valuation = {
                a: frozenset(w for w, bit in zip(worlds, bits) if bit)
                for a, bits in zip(atom_names, choice)
            }
            model = Model(worlds, valuation)
            for spheres in canonical_partitions(worlds):
                yield PseudoSphereModelV(model, spheres)


# --- reference relational semantics for |> -------------------------------------
# Lewis (Counterfactuals, 1973): each world w has a frame (W_w, <_w), a domain
# and an almost connected strict order on it, and phi |> psi holds at w by
# the limit-free forall/exists/forall clause.


OrderPairs = FrozenSet[Tuple[str, str]]


def _check_strict_order(pairs: OrderPairs, domain: WorldSet, what: str) -> None:
    for (a, b) in pairs:
        if a not in domain or b not in domain:
            raise SchemaError(f"{what}: pair ({a!r},{b!r}) leaves the domain")
        if a == b:
            raise SchemaError(f"{what}: not irreflexive at {a!r}")
    for (a, b) in pairs:
        for (c, d) in pairs:
            if b == c and (a, d) not in pairs:
                raise SchemaError(f"{what}: not transitive at ({a!r},{d!r})")
    # almost connected: a < b implies a < v or v < b for every v
    for (a, b) in pairs:
        for v in domain:
            if v in (a, b):
                continue
            if (a, v) not in pairs and (v, b) not in pairs:
                raise SchemaError(f"{what}: not almost connected at ({a!r},{b!r}) via {v!r}")


class RelationalModelV(FrozenRecord):
    """Per-world frames: gamma[w] = (W_w, <_w)."""

    __slots__ = ("model", "gamma")

    def __init__(self, model: Model, gamma: Mapping[str, Tuple[WorldSet, OrderPairs]]):
        frames = {}
        for w in model.worlds:
            if w not in gamma:
                raise SchemaError(f"no frame for world {w!r}")
            domain, pairs = gamma[w]
            domain = frozenset(domain)
            pairs = frozenset(pairs)
            if not domain <= model.world_set:
                raise SchemaError(f"frame of {w!r} leaves the world set")
            _check_strict_order(pairs, domain, f"order at {w!r}")
            frames[w] = (domain, pairs)
        self._assign(model, frames)


def universal_order(model: Model, order) -> RelationalModelV:
    """The relational model whose every world has the whole world set under ``order``."""
    return RelationalModelV(model, {w: (model.world_set, order) for w in model.worlds})


def _conditional_relational(frame: Tuple[WorldSet, OrderPairs], phi: WorldSet, psi: WorldSet) -> bool:
    # every antecedent world sees, at or below itself, an antecedent world
    # below which the antecedent forces the consequent
    domain, pairs = frame

    def at_or_below(a: str, b: str) -> bool:
        return a == b or (a, b) in pairs

    for u in domain:
        if u not in phi:
            continue
        witnessed = any(
            v in phi
            and at_or_below(v, u)
            and all(z not in phi or z in psi for z in domain if at_or_below(z, v))
            for v in domain
        )
        if not witnessed:
            return False
    return True


def truth_set_relational(m: RelationalModelV, f: Formula) -> WorldSet:
    """The worlds where a ``|>``-dialect formula holds, ``phi |> psi`` decided per world from its frame."""

    def corner(g: Formula, walk) -> WorldSet:
        if type(g) is not CondCorner:
            raise ValueError(f"not a |>-dialect formula: {g!r}")
        phi, psi = walk(g.left), walk(g.right)
        return frozenset(w for w in m.model.worlds if _conditional_relational(m.gamma[w], phi, psi))

    return set_walk(m.model.world_set, m.model.extent, corner)(f)


# --- the CLI in this process ------------------------------------------------


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # both streams, interleaved as written


class _Stream(io.StringIO):
    """One output stream that also copies every write into ``both``."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


def invoke(argv: Sequence[str]) -> Result:
    """Run ``conwon <argv>`` in this process and return what a shell would see.

    Exceptions other than ``SystemExit`` propagate: the CLI must turn
    every failure into an exit code.
    """
    both = io.StringIO()
    out, err = _Stream(both), _Stream(both)
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(argv))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return Result(code, out.getvalue(), err.getvalue(), both.getvalue())


# --- reference parser and printer ---------------------------------------------
# A character-by-character tokenizer, a recursive descent with one method
# per precedence level, and a recursive printer.


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


class _ReferenceParser:
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


def reference_parse(text: str, dialect: str = CONWON) -> Formula:
    return _ReferenceParser(text, dialect).parse()


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


def reference_render(f: Formula) -> str:
    return _render(f, 0)


# --- reference tautology oracle -------------------------------------------------
# Maximal conditionals become shared opaque atoms, and every truth-table row
# is walked recursively.


def _skeleton(f: Formula, table: dict) -> Formula:
    if isinstance(f, (CondBox, CondCorner)):
        if f not in table:
            table[f] = f"_c{len(table)}"
        return Atom(table[f])
    if isinstance(f, Not):
        return Not(_skeleton(f.child, table))
    if isinstance(f, And):
        return And(_skeleton(f.left, table), _skeleton(f.right, table))
    return f


def _truth(f: Formula, row: dict) -> bool:
    if isinstance(f, Atom):
        return row.get(f.name, False)
    if isinstance(f, Falsum):
        return False
    if isinstance(f, Not):
        return not _truth(f.child, row)
    return _truth(f.left, row) and _truth(f.right, row)


def reference_tautological_consequence(premises: Sequence[Formula], conclusion: Formula) -> bool:
    table: dict = {}
    skel_premises = [_skeleton(p, table) for p in premises]
    skel_conclusion = _skeleton(conclusion, table)
    names = sorted(set().union(*(atoms(s) for s in skel_premises + [skel_conclusion])))
    for bits in itertools.product([False, True], repeat=len(names)):
        row = dict(zip(names, bits))
        if all(_truth(p, row) for p in skel_premises) and not _truth(skel_conclusion, row):
            return False
    return True

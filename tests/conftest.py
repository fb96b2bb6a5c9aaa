"""Shared generators and helpers for the test suite.

Random formula generation is deterministic (callers pass a seeded
``random.Random``) so failures reproduce. The exhaustive model and
context enumerators serve only as brute-force references, and
:func:`invoke` runs the CLI in this process.
"""

import contextlib
import io
import itertools
import random
from typing import FrozenSet, Iterator, List, NamedTuple, Sequence, Tuple

from conwon.cli import main
from conwon.formula import (
    And,
    Atom,
    CondBox,
    CondCorner,
    FALSUM,
    Formula,
    Not,
    Or,
    is_propositional,
)
from conwon.lewis import PseudoSphereModelV
from conwon.models import Model


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

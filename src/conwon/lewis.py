"""Comparative-possibility conditional logic V: pseudo-sphere models, truth and equivalence harness.

:class:`PseudoSphereModelV` is the one model class for the dialect with
the binary conditional ``|>``: an ordered partition of the worlds into
blocks, least first, empty blocks allowed.  These are the chains of the
contextual search read as spheres.  :func:`truth_set_v` evaluates a
formula on one as a walk over world sets, each subformula once, and
:func:`eval_v` reads one world off it.

The module also hosts the constructive transformations between block
sequences and sequence contexts, and a harness that checks flat formulas
for satisfiability agreement between the two semantics, transporting
witnesses across the transformations for single conditionals.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import FrozenRecord, Record
from .formula import (
    CondBox,
    CondCorner,
    Formula,
    Not,
    dialect_of,
    is_flat,
    is_propositional,
    render,
    set_walk,
    translate_flat,
)
from .models import Model, SchemaError, SequenceContext, WorldSet
from .semantics import (
    ContextualizedPointedModel,
    EvaluationError,
    SearchBounds,
    evaluate,
    recheck_countermodel,
    search_points,
)


def _check_blocks(blocks: Sequence[WorldSet], world_set: WorldSet, allow_empty: bool) -> Tuple[WorldSet, ...]:
    blocks = tuple(frozenset(b) for b in blocks)
    seen: set = set()
    for i, b in enumerate(blocks):
        if not b and not allow_empty:
            raise SchemaError(f"block {i} is empty")
        if b & seen:
            raise SchemaError(f"block {i} overlaps an earlier block")
        seen |= b
    if seen != set(world_set):
        raise SchemaError("blocks do not cover the world set exactly")
    return blocks


class PseudoSphereModelV(FrozenRecord):
    """Ordered partition allowing empty blocks; index 0 is the least block."""

    __slots__ = ("model", "spheres")

    def __init__(self, model: Model, spheres: Sequence[WorldSet]):
        self._assign(model, _check_blocks(spheres, model.world_set, True))

    def to_json(self) -> dict:
        data = self.model.to_json()
        data["spheres"] = [sorted(b) for b in self.spheres]
        return data


# ---------------------------------------------------------------------------
# Truth
# ---------------------------------------------------------------------------


def _conditional_blocks(blocks: Sequence[WorldSet], phi: WorldSet, psi: WorldSet) -> bool:
    for block in blocks:
        hit = block & phi
        if hit:
            return hit <= psi
    return True


def truth_set_v(m: PseudoSphereModelV, f: Formula) -> WorldSet:
    """The worlds where a ``|>``-dialect formula holds, each node walked once.

    ``phi |> psi`` holds at every world or at none: in the least sphere
    that meets phi, every phi-world is a psi-world.
    """
    worlds = m.model.world_set

    def corner(g: Formula, walk) -> WorldSet:
        if type(g) is not CondCorner:
            raise ValueError(f"not a |>-dialect formula: {g!r}")
        return worlds if _conditional_blocks(m.spheres, walk(g.left), walk(g.right)) else frozenset()

    return set_walk(worlds, m.model.extent, corner)(f)


def eval_v(m: PseudoSphereModelV, w: str, f: Formula) -> bool:
    """Truth of a ``|>``-dialect formula at world ``w``."""
    if w not in m.model.world_set:
        raise EvaluationError(f"unknown world {w!r}")
    return w in truth_set_v(m, f)


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------


def partition_to_context(blocks: Sequence[WorldSet]) -> Tuple[WorldSet, ...]:
    """Suffix unions: X_j = Y_j + ... + Y_k for disjoint nonempty Y covering W."""
    blocks = tuple(frozenset(b) for b in blocks)
    union: WorldSet = frozenset().union(*blocks) if blocks else frozenset()
    _check_blocks(blocks, union, False)
    xs = []
    running: WorldSet = frozenset()
    for b in reversed(blocks):
        running |= b
        xs.append(running)
    return tuple(reversed(xs))


def context_to_partition(entries: Sequence[WorldSet], world_set: WorldSet) -> Tuple[WorldSet, ...]:
    """Running-intersection differences: Y_i = X_0 & ... & X_i - X_{i+1}."""
    entries = tuple(frozenset(x) for x in entries)
    if not entries:
        raise SchemaError("context must be nonempty")
    if entries[0] != frozenset(world_set):
        raise SchemaError("first entry must be the full world set")
    ys = []
    running = entries[0]
    for i, x in enumerate(entries):
        running = running & x if i else entries[0]
        nxt = entries[i + 1] if i + 1 < len(entries) else None
        ys.append(running - nxt if nxt is not None else running)
    return tuple(ys)


# ---------------------------------------------------------------------------
# Pseudo-sphere witnesses
# ---------------------------------------------------------------------------


def satisfying_witness_v(f: Formula, bounds: SearchBounds) -> Optional[Tuple[PseudoSphereModelV, str]]:
    """First pseudo-sphere point satisfying ``f`` within ``bounds``, if any.

    ``search_points``'s first point falsifying ``~f``, its chain read as
    spheres: chains of length at most ``bounds.max_context_len``, so a
    bound >= |W| - 1 covers every ordered partition.  The witness is
    re-checked with :func:`eval_v`.
    """
    return v_witness(f, search_points(Not(f), bounds))


def v_witness(f: Formula, witness: Optional[ContextualizedPointedModel]):
    """A kernel point satisfying ``f`` as a pseudo-sphere point once :func:`eval_v` confirms it."""
    if witness is None:
        return None
    m, w = _transport_conwon_to_v(witness)
    if not eval_v(m, w, f):
        raise RuntimeError(f"kernel witness for {render(f)} does not hold up: {m.to_json()} at {w}")
    return m, w


# ---------------------------------------------------------------------------
# Flat-fragment equivalence harness
# ---------------------------------------------------------------------------


class EquivalenceReport(Record):
    __slots__ = ("formula", "conwon_satisfiable", "v_satisfiable", "conwon_witness", "v_witness",
                 "transport_checks")

    def __init__(self, formula: str, conwon_satisfiable: bool, v_satisfiable: bool,
                 conwon_witness: Optional[ContextualizedPointedModel] = None,
                 v_witness: Optional[Tuple[PseudoSphereModelV, str]] = None,
                 transport_checks: Optional[List[str]] = None):
        self._assign(formula, conwon_satisfiable, v_satisfiable, conwon_witness, v_witness,
                     [] if transport_checks is None else transport_checks)

    @property
    def agrees(self) -> bool:
        return self.conwon_satisfiable == self.v_satisfiable


def _transport_v_to_conwon(m: PseudoSphereModelV, f_conwon: CondBox) -> ContextualizedPointedModel:
    """Satisfying context from a pseudo-sphere witness of a conditional."""
    alpha_ext = truth_set_v(m, f_conwon.antecedent)
    if not alpha_ext:
        context = SequenceContext((m.model.world_set,))
    else:
        # spheres are least-first, the suffix-union construction wants
        # highest subscript last, so reverse before taking unions
        blocks = tuple(b for b in reversed(m.spheres) if b)
        context = SequenceContext(partition_to_context(blocks))
    return ContextualizedPointedModel(m.model, context, m.model.worlds[0])


def _transport_conwon_to_v(witness: ContextualizedPointedModel) -> Tuple[PseudoSphereModelV, str]:
    """Pseudo-sphere model from a sequence-context witness of a conditional."""
    model = witness.model
    entries = (model.world_set,) + witness.context.sequence
    ys = context_to_partition(entries, model.world_set)
    spheres = tuple(y for y in reversed(ys) if y)
    return PseudoSphereModelV(model, spheres), witness.world


def flat_equivalence_check(f: Formula, bounds: SearchBounds) -> EquivalenceReport:
    """Bounded satisfiability agreement between the two semantics, from one search.

    For flat f, ``~f`` in the conwon dialect and ``~translate_flat(f, "v")``
    lower to the same kernel nodes (a box over a propositional consequent
    lowers as a corner), so one ``search_points`` call within ``bounds`` is
    both sides' search.  Its point is re-checked twice: as a context with
    :func:`evaluate`, and read as pseudo-spheres with :func:`eval_v`; a
    kernel fault raises ``RuntimeError`` from either.  For a bare
    conditional the V witness is also transported back to a context and
    re-verified there.
    """
    if not is_flat(f):
        raise EvaluationError("equivalence harness expects a flat formula")
    f_conwon = translate_flat(f, "conwon") if dialect_of(f) == "v" else f
    f_v = translate_flat(f_conwon, "v")

    point = search_points(Not(f_conwon), bounds)
    conwon_wit = recheck_countermodel(Not(f_conwon), point)
    v_wit = v_witness(f_v, point)
    report = EquivalenceReport(
        formula=render(f_conwon),
        conwon_satisfiable=conwon_wit is not None,
        v_satisfiable=v_wit is not None,
        conwon_witness=conwon_wit,
        v_witness=v_wit,
    )

    if isinstance(f_conwon, CondBox) and is_propositional(f_conwon.consequent) and v_wit is not None:
        cpm = _transport_v_to_conwon(v_wit[0], f_conwon)
        ok = evaluate(cpm.model, cpm.context, cpm.world, f_conwon)
        report.transport_checks += [
            f"V witness transported to a context: {'verified' if ok else 'FAILED'}",
            # v_witness has transported conwon_wit, the same point, and raised unless eval_v holds there
            "context witness transported to pseudo-spheres: verified",
        ]
    return report

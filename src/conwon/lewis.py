"""Comparative-possibility conditional logic V: models, truth and equivalence harness.

:func:`truth_set_v` evaluates a formula as one walk over world sets,
each subformula once, and :func:`eval_v` reads one world off it.  Four
model classes for the dialect with the binary conditional ``|>``:

* :class:`RelationalModelV` -- a per-world frame (W_w, <_w);
* :class:`UniversalRelationalModelV` -- one global strict order;
* :class:`SphereModelV` -- an ordered partition into nonempty blocks;
* :class:`PseudoSphereModelV` -- an ordered partition allowing empty blocks.

The module also hosts the constructive transformations between block
sequences and sequence contexts, and a harness that checks flat formulas
for satisfiability agreement between the two semantics, transporting
witnesses across the transformations for single conditionals.
"""

from __future__ import annotations

from typing import FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

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


class UniversalRelationalModelV(FrozenRecord):
    """One global strict order on all worlds; finiteness gives well-foundedness."""

    __slots__ = ("model", "order")

    def __init__(self, model: Model, order: OrderPairs):
        pairs = frozenset(order)
        _check_strict_order(pairs, model.world_set, "global order")
        self._assign(model, pairs)


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


class SphereModelV(FrozenRecord):
    """Ordered partition into nonempty blocks; index 0 is the least block."""

    __slots__ = ("model", "blocks")

    def __init__(self, model: Model, blocks: Sequence[WorldSet]):
        self._assign(model, _check_blocks(blocks, model.world_set, False))


class PseudoSphereModelV(FrozenRecord):
    """Ordered partition allowing empty blocks; index 0 is the least block."""

    __slots__ = ("model", "spheres")

    def __init__(self, model: Model, spheres: Sequence[WorldSet]):
        self._assign(model, _check_blocks(spheres, model.world_set, True))

    def to_json(self) -> dict:
        data = self.model.to_json()
        data["spheres"] = [sorted(b) for b in self.spheres]
        return data


ModelV = Union[RelationalModelV, UniversalRelationalModelV, SphereModelV, PseudoSphereModelV]


# ---------------------------------------------------------------------------
# Truth
# ---------------------------------------------------------------------------


def _conditional_relational(frame: Tuple[WorldSet, OrderPairs], phi: WorldSet, psi: WorldSet) -> bool:
    # the limit-free forall/exists/forall clause: every antecedent world
    # sees, at or below itself, an antecedent world below which the
    # antecedent forces the consequent
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


def _conditional_blocks(blocks: Sequence[WorldSet], phi: WorldSet, psi: WorldSet) -> bool:
    for block in blocks:
        hit = block & phi
        if hit:
            return hit <= psi
    return True


def truth_set_v(m: ModelV, f: Formula) -> WorldSet:
    """The worlds where a ``|>``-dialect formula holds, each node walked once.

    A relational model decides ``phi |> psi`` per world, from its frame;
    in the other three it holds at every world or at none.
    """
    worlds = m.model.world_set

    def corner(g: Formula, walk) -> WorldSet:
        if type(g) is not CondCorner:
            raise ValueError(f"not a |>-dialect formula: {g!r}")
        phi, psi = walk(g.left), walk(g.right)
        if isinstance(m, RelationalModelV):
            return frozenset(w for w in m.model.worlds if _conditional_relational(m.gamma[w], phi, psi))
        if isinstance(m, UniversalRelationalModelV):  # psi at every minimal phi-world
            holds = all(u in psi for u in phi if not any((z, u) in m.order for z in phi))
        else:
            holds = _conditional_blocks(m.blocks if isinstance(m, SphereModelV) else m.spheres, phi, psi)
        return worlds if holds else frozenset()

    return set_walk(worlds, m.model.extent, corner)(f)


def eval_v(m: ModelV, w: str, f: Formula) -> bool:
    """Truth of a ``|>``-dialect formula at world ``w``."""
    if w not in m.model.world_set:
        raise EvaluationError(f"unknown world {w!r}")
    return w in truth_set_v(m, f)


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------


def universal_to_sphere(m: UniversalRelationalModelV) -> SphereModelV:
    """Quotient a global order into its ordered partition of incomparables."""
    worlds = list(m.model.worlds)
    blocks: List[set] = []
    for w in worlds:
        for block in blocks:
            rep = next(iter(block))
            if (w, rep) not in m.order and (rep, w) not in m.order:
                block.add(w)
                break
        else:
            blocks.append({w})
    # sort blockwise: X before Y iff members of X sit below members of Y
    def below(x: set, y: set) -> bool:
        return all((a, b) in m.order for a in x for b in y)

    ordered: List[set] = []
    remaining = blocks[:]
    while remaining:
        least = next(b for b in remaining if all(b is o or below(b, o) for o in remaining))
        ordered.append(least)
        remaining.remove(least)
    return SphereModelV(m.model, tuple(frozenset(b) for b in ordered))


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


def context_to_partition(entries: Sequence[WorldSet], world_set: Optional[WorldSet] = None) -> Tuple[WorldSet, ...]:
    """Running-intersection differences: Y_i = X_0 & ... & X_i - X_{i+1}."""
    entries = tuple(frozenset(x) for x in entries)
    if not entries:
        raise SchemaError("context must be nonempty")
    if world_set is not None and entries[0] != frozenset(world_set):
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

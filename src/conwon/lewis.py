"""Comparative-possibility conditional logic V: models and equivalence harness.

Four model classes for the dialect with the binary conditional ``|>``:

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

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .formula import (
    And,
    Atom,
    CondBox,
    CondCorner,
    Falsum,
    Formula,
    Not,
    dialect_of,
    is_flat,
    is_propositional,
    render,
    translate_flat,
)
from .models import Model, SchemaError, SequenceContext, WorldSet
from .semantics import (
    CompiledFormula,
    ContextualizedPointedModel,
    EvaluationError,
    SearchBounds,
    evaluate,
    satisfying_witness,
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


@dataclass(frozen=True)
class RelationalModelV:
    """Per-world frames: gamma[w] = (W_w, <_w)."""

    model: Model
    gamma: Mapping[str, Tuple[WorldSet, OrderPairs]]

    def __post_init__(self):
        gamma = {}
        for w in self.model.worlds:
            if w not in self.gamma:
                raise SchemaError(f"no frame for world {w!r}")
            domain, pairs = self.gamma[w]
            domain = frozenset(domain)
            pairs = frozenset(pairs)
            if not domain <= self.model.world_set:
                raise SchemaError(f"frame of {w!r} leaves the world set")
            _check_strict_order(pairs, domain, f"order at {w!r}")
            gamma[w] = (domain, pairs)
        object.__setattr__(self, "gamma", gamma)


@dataclass(frozen=True)
class UniversalRelationalModelV:
    """One global strict order on all worlds; finiteness gives well-foundedness."""

    model: Model
    order: OrderPairs

    def __post_init__(self):
        pairs = frozenset(self.order)
        _check_strict_order(pairs, self.model.world_set, "global order")
        object.__setattr__(self, "order", pairs)


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


@dataclass(frozen=True)
class SphereModelV:
    """Ordered partition into nonempty blocks; index 0 is the least block."""

    model: Model
    blocks: Tuple[WorldSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", _check_blocks(self.blocks, self.model.world_set, False))


@dataclass(frozen=True)
class PseudoSphereModelV:
    """Ordered partition allowing empty blocks; index 0 is the least block."""

    model: Model
    spheres: Tuple[WorldSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "spheres", _check_blocks(self.spheres, self.model.world_set, True))

    def to_json(self) -> dict:
        data = self.model.to_json()
        data["spheres"] = [sorted(b) for b in self.spheres]
        return data


ModelV = Union[RelationalModelV, UniversalRelationalModelV, SphereModelV, PseudoSphereModelV]


def load_pseudo_sphere(source) -> PseudoSphereModelV:
    from .models import _load_json, _string_list, load_model

    data = _load_json(source)
    if "spheres" not in data:
        raise SchemaError("pseudo-sphere file needs 'spheres'")
    model = load_model({"worlds": data.get("worlds"), "valuation": data.get("valuation")})
    spheres = data["spheres"]
    if not isinstance(spheres, list):
        raise SchemaError("'spheres' must be a list of world lists")
    return PseudoSphereModelV(model, tuple(frozenset(_string_list(b, "sphere block")) for b in spheres))


# ---------------------------------------------------------------------------
# Truth
# ---------------------------------------------------------------------------


def _extension(m: ModelV, f: Formula) -> WorldSet:
    return frozenset(w for w in m.model.worlds if eval_v(m, w, f))


def _conditional_relational(m: RelationalModelV, w: str, phi: Formula, psi: Formula) -> bool:
    # the limit-free forall/exists/forall clause: every antecedent world
    # sees, at or below itself, an antecedent world below which the
    # antecedent forces the consequent
    domain, pairs = m.gamma[w]
    phi_ext = _extension(m, phi)
    psi_ext = _extension(m, psi)

    def at_or_below(a: str, b: str) -> bool:
        return a == b or (a, b) in pairs

    for u in domain:
        if u not in phi_ext:
            continue
        witnessed = any(
            v in phi_ext
            and at_or_below(v, u)
            and all(z not in phi_ext or z in psi_ext for z in domain if at_or_below(z, v))
            for v in domain
        )
        if not witnessed:
            return False
    return True


def _conditional_universal(m: UniversalRelationalModelV, phi: Formula, psi: Formula) -> bool:
    phi_ext = _extension(m, phi)
    psi_ext = _extension(m, psi)
    minimal = [u for u in phi_ext if not any((z, u) in m.order for z in phi_ext)]
    return all(u in psi_ext for u in minimal)


def _conditional_blocks(m: ModelV, blocks: Sequence[WorldSet], phi: Formula, psi: Formula) -> bool:
    phi_ext = _extension(m, phi)
    psi_ext = _extension(m, psi)
    for block in blocks:
        hit = block & phi_ext
        if hit:
            return hit <= psi_ext
    return True


def eval_v(m: ModelV, w: str, f: Formula) -> bool:
    """Truth of a ``|>``-dialect formula at world ``w``."""
    if isinstance(f, Atom):
        return w in m.model.extent(f.name)
    if isinstance(f, Falsum):
        return False
    if isinstance(f, Not):
        return not eval_v(m, w, f.child)
    if isinstance(f, And):
        return eval_v(m, w, f.left) and eval_v(m, w, f.right)
    if isinstance(f, CondCorner):
        if isinstance(m, RelationalModelV):
            return _conditional_relational(m, w, f.left, f.right)
        if isinstance(m, UniversalRelationalModelV):
            return _conditional_universal(m, f.left, f.right)
        if isinstance(m, SphereModelV):
            return _conditional_blocks(m, m.blocks, f.left, f.right)
        return _conditional_blocks(m, m.spheres, f.left, f.right)
    raise ValueError(f"not a |>-dialect formula: {f!r}")


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
# Ordered partitions and pseudo-sphere witnesses
# ---------------------------------------------------------------------------


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


def satisfying_witness_v(f: Formula, max_worlds: int) -> Optional[Tuple[PseudoSphereModelV, str]]:
    """First pseudo-sphere point satisfying ``f``, if any.

    The chain kernel over every chain, i.e. every ordered partition read as
    spheres; the witness is re-checked with :func:`eval_v`.
    """
    compiled = CompiledFormula(f)
    bounds = SearchBounds(max_worlds, max_worlds)
    [witness] = search_points(compiled, [(compiled.root,)], bounds, lambda masks, full: masks[0])
    return v_witness(f, witness)


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


@dataclass
class EquivalenceReport:
    formula: str
    conwon_satisfiable: bool
    v_satisfiable: bool
    conwon_witness: Optional[ContextualizedPointedModel] = None
    v_witness: Optional[Tuple[PseudoSphereModelV, str]] = None
    transport_checks: List[str] = field(default_factory=list)

    @property
    def agrees(self) -> bool:
        return self.conwon_satisfiable == self.v_satisfiable


def _transport_v_to_conwon(m: PseudoSphereModelV, f_conwon: CondBox) -> ContextualizedPointedModel:
    """Satisfying context from a pseudo-sphere witness of a conditional."""
    alpha_ext = frozenset(w for w in m.model.worlds if eval_v(m, w, f_conwon.antecedent))
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
    seq = witness.context.sequence if isinstance(witness.context, SequenceContext) else None
    if seq is None:
        raise ValueError("transport expects a sequence context")
    entries = (model.world_set,) + tuple(seq)
    ys = context_to_partition(entries, model.world_set)
    spheres = tuple(y for y in reversed(ys) if y)
    return PseudoSphereModelV(model, spheres), witness.world


def flat_equivalence_check(f: Formula, bounds: SearchBounds) -> EquivalenceReport:
    """Bounded satisfiability agreement between the two semantics.

    For a bare conditional the found witness is also transported to the
    other side and re-verified there.
    """
    if not is_flat(f):
        raise EvaluationError("equivalence harness expects a flat formula")
    f_conwon = translate_flat(f, "conwon") if dialect_of(f) == "v" else f
    f_v = translate_flat(f_conwon, "v")

    conwon_wit = satisfying_witness(f_conwon, bounds)
    v_wit = satisfying_witness_v(f_v, bounds.max_worlds)
    report = EquivalenceReport(
        formula=render(f_conwon),
        conwon_satisfiable=conwon_wit is not None,
        v_satisfiable=v_wit is not None,
        conwon_witness=conwon_wit,
        v_witness=v_wit,
    )

    bare = isinstance(f_conwon, CondBox) and is_propositional(f_conwon.consequent)
    if bare and v_wit is not None:
        m, _w = v_wit
        cpm = _transport_v_to_conwon(m, f_conwon)
        ok = evaluate(cpm.model, cpm.context, cpm.world, f_conwon)
        report.transport_checks.append(
            f"V witness transported to a context: {'verified' if ok else 'FAILED'}"
        )
    if bare and conwon_wit is not None and isinstance(conwon_wit.context, SequenceContext):
        mv, wv = _transport_conwon_to_v(conwon_wit)
        ok = eval_v(mv, wv, f_v)
        report.transport_checks.append(
            f"context witness transported to pseudo-spheres: {'verified' if ok else 'FAILED'}"
        )
    return report


"""Finite models, ordered-default and sequence contexts, and their files.

A model pairs a finite world set with a valuation.  Two context
representations exist:

* :class:`OrderedDefaultSet` -- named defaults under a strict partial
  priority order; stratified into a hierarchy of priority levels.
* :class:`SequenceContext` -- a nonempty sequence of world sets, leftmost
  highest priority.

Both support the expected-state computation and prepend-style update.
World identifiers are strings and all serialized output is ordered
lexicographically for reproducibility.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Mapping, Set, Tuple, Union

from .errors import FrozenRecord, InputError, read_json

WorldSet = FrozenSet[str]


class SchemaError(InputError):
    """Invalid model/context data with a human-readable diagnostic."""


class Model(FrozenRecord):
    """A world set and a valuation; ``world_set`` is the worlds as a frozenset."""

    __slots__ = ("worlds", "valuation", "_world_set")

    def __init__(self, worlds: Tuple[str, ...], valuation: Mapping[str, WorldSet]):
        if not worlds:
            raise SchemaError("world set must be nonempty")
        wset = frozenset(worlds)
        if len(wset) != len(worlds):
            raise SchemaError("duplicate world identifier")
        val = {}
        for atom, extent in valuation.items():
            extent = frozenset(extent)
            unknown = extent - wset
            if unknown:
                raise SchemaError(f"valuation of {atom!r} mentions unknown worlds {sorted(unknown)}")
            val[atom] = extent
        self._assign(tuple(sorted(worlds)), val, wset)

    @property
    def world_set(self) -> WorldSet:
        return self._world_set

    def extent(self, atom: str) -> WorldSet:
        return self.valuation.get(atom, frozenset())

    def to_json(self) -> dict:
        return {
            "worlds": list(self.worlds),
            "valuation": {a: sorted(ws) for a, ws in sorted(self.valuation.items())},
        }


def _transitive_closure(pairs: Iterable[Tuple[str, str]]) -> FrozenSet[Tuple[str, str]]:
    """Warshall's algorithm over successor sets."""
    succ: Dict[str, Set[str]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    for k in succ:
        for targets in succ.values():
            if k in targets:
                targets |= succ[k]
    return frozenset((a, b) for a, targets in succ.items() for b in targets)


class OrderedDefaultSet(FrozenRecord):
    """Named defaults with a strict partial priority order.

    ``order`` may be any finite relation; the constructor takes its
    transitive closure and rejects reflexive pairs in the closure.
    Distinct names must denote distinct world sets, since defaults are
    identified extensionally by the update operation.
    """

    __slots__ = ("defaults", "order")

    def __init__(self, defaults: Mapping[str, WorldSet], order: Iterable[Tuple[str, str]] = frozenset()):
        defaults = {name: frozenset(ws) for name, ws in defaults.items()}
        extents = list(defaults.values())
        if len(set(extents)) != len(extents):
            raise SchemaError("two default names denote the same world set")
        for (hi, lo) in order:
            for name in (hi, lo):
                if name not in defaults:
                    raise SchemaError(f"priority mentions unknown default {name!r}")
        closure = _transitive_closure(order)
        for (a, b) in closure:
            if a == b:
                raise SchemaError(f"priority on {a!r} violates irreflexivity")
        self._assign(defaults, closure)

    def check_against(self, model: Model) -> None:
        for name, extent in self.defaults.items():
            unknown = extent - model.world_set
            if unknown:
                raise SchemaError(f"default {name!r} mentions unknown worlds {sorted(unknown)}")

    def prefers(self, hi: str, lo: str) -> bool:
        return (hi, lo) in self.order

    def to_json(self) -> dict:
        return {
            "kind": "ordered-set",
            "defaults": {n: sorted(ws) for n, ws in sorted(self.defaults.items())},
            "order": sorted([list(p) for p in self.order]),
        }


class SequenceContext(FrozenRecord):
    """Nonempty sequence of defaults; index 0 has highest priority."""

    __slots__ = ("sequence",)

    def __init__(self, sequence: Iterable[Iterable[str]]):
        seq = tuple(frozenset(ws) for ws in sequence)
        if not seq:
            raise SchemaError("sequence context must be nonempty")
        self._assign(seq)

    def check_against(self, model: Model) -> None:
        for i, extent in enumerate(self.sequence):
            unknown = extent - model.world_set
            if unknown:
                raise SchemaError(f"sequence entry {i} mentions unknown worlds {sorted(unknown)}")

    def to_json(self) -> dict:
        return {"kind": "sequence", "sequence": [sorted(ws) for ws in self.sequence]}


Context = Union[OrderedDefaultSet, SequenceContext]


def theta(model: Model) -> SequenceContext:
    """The trivial context: the single-element sequence (W)."""
    return SequenceContext((model.world_set,))


# ---------------------------------------------------------------------------
# Hierarchy and expected states
# ---------------------------------------------------------------------------


def hierarchy(context: OrderedDefaultSet) -> Tuple[FrozenSet[str], ...]:
    """Stratify defaults by repeatedly removing the maximal elements.

    An empty default set yields the one-level hierarchy ``(frozenset(),)``.
    """
    remaining = set(context.defaults)
    if not remaining:
        return (frozenset(),)
    levels = []
    while remaining:
        level = frozenset(
            d for d in remaining
            if not any(context.prefers(other, d) for other in remaining if other != d)
        )
        levels.append(level)
        remaining -= level
    return tuple(levels)


def _level_intersection(context: OrderedDefaultSet, level: FrozenSet[str], full: WorldSet) -> WorldSet:
    # The intersection over the empty level is W.
    result = full
    for name in level:
        result &= context.defaults[name]
    return result


def expected(model: Model, context: Context) -> WorldSet:
    """Worlds satisfying the longest consistent top-priority prefix."""
    if isinstance(context, OrderedDefaultSet):
        chain = [
            _level_intersection(context, level, model.world_set)
            for level in hierarchy(context)
        ]
    else:
        chain = list(context.sequence)
    if not chain[0]:
        return frozenset()
    current = chain[0]
    for entry in chain[1:]:
        narrowed = current & entry
        if not narrowed:
            break
        current = narrowed
    return current


# ---------------------------------------------------------------------------
# Update and cores
# ---------------------------------------------------------------------------


def update(context: Context, extent: Iterable[str], name: str = None) -> Context:
    """Insert ``extent`` as the highest-priority default.

    Set form: the new default outranks every other; priority pairs not
    involving it survive, old pairs involving it (identified by extent)
    are dropped.  Its ``name`` gets primes (``|p|'``, ``|p|''``, ...) while
    it names another default that stays.  Sequence form: prepend.
    """
    extent = frozenset(extent)
    if isinstance(context, SequenceContext):
        prepended = object.__new__(SequenceContext)  # entries are frozensets: skip __init__
        object.__setattr__(prepended, "sequence", (extent,) + context.sequence)
        return prepended
    if name is None:
        name = "|" + ",".join(sorted(extent)) + "|"
    defaults = {n: ws for n, ws in context.defaults.items() if ws != extent}
    order = {(a, b) for (a, b) in context.order if a in defaults and b in defaults}
    while name in defaults:
        name += "'"
    order |= {(name, other) for other in defaults}
    defaults[name] = extent
    return OrderedDefaultSet(defaults, frozenset(order))


def core(context: SequenceContext) -> SequenceContext:
    """Keep only the first occurrence of each default."""
    seen = []
    for entry in context.sequence:
        if entry not in seen:
            seen.append(entry)
    return SequenceContext(tuple(seen))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _load_json(source) -> dict:
    if isinstance(source, (str, Path)):
        return read_json(source, SchemaError)
    if not isinstance(source, dict):
        raise SchemaError("expected a JSON object")
    return source


def _string_list(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SchemaError(f"{what} must be a list of strings")
    return value


def load_model(source) -> Model:
    data = _load_json(source)
    if "worlds" not in data or "valuation" not in data:
        raise SchemaError("model file needs 'worlds' and 'valuation'")
    worlds = _string_list(data["worlds"], "'worlds'")
    valuation = data["valuation"]
    if not isinstance(valuation, dict):
        raise SchemaError("'valuation' must be an object")
    return Model(
        worlds=tuple(worlds),
        valuation={a: frozenset(_string_list(ws, f"valuation of {a!r}")) for a, ws in valuation.items()},
    )


def load_context(source, model: Model = None) -> Context:
    data = _load_json(source)
    kind = data.get("kind")
    if kind == "ordered-set":
        defaults = data.get("defaults")
        if not isinstance(defaults, dict):
            raise SchemaError("'defaults' must be an object")
        order_raw = data.get("order", [])
        if not isinstance(order_raw, list):
            raise SchemaError("'order' must be a list of pairs")
        order = set()
        for pair in order_raw:
            if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)):
                raise SchemaError(f"bad priority pair: {pair!r}")
            order.add((pair[0], pair[1]))
        ctx = OrderedDefaultSet(
            {n: frozenset(_string_list(ws, f"default {n!r}")) for n, ws in defaults.items()},
            frozenset(order),
        )
    elif kind == "sequence":
        seq = data.get("sequence")
        if not isinstance(seq, list) or not seq:
            raise SchemaError("'sequence' must be a nonempty list")
        ctx = SequenceContext(tuple(frozenset(_string_list(ws, "sequence entry")) for ws in seq))
    else:
        raise SchemaError(f"unknown context kind: {kind!r}")
    if model is not None:
        ctx.check_against(model)
    return ctx


def save(value, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value.to_json(), fh, indent=2, sort_keys=False)
        fh.write("\n")

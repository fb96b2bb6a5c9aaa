"""Truth evaluation over contextualized pointed models and bounded search.

:func:`truth_set`, the set-based reference evaluator, gives each
subformula's world set once per context; a conditional, which does not
depend on the world, holds at all worlds or none.  Its optional trace
lists each conditional once per context, outer steps first.  A bitmask
kernel (:class:`ModelEvaluator`) in one enumeration loop,
:func:`search_points`, serves the bounded searches and, for ``|>``,
``lewis.satisfying_witness_v``.

Chain normal form.  A sequence context X1...Xk matters to truth only
through its chain of running intersections S_j = X1 & ... & X_j, kept
while nonempty, repeats and a leading W dropped: W > S1 > ... > Sm > {}.
The expected states of the update a.X are the last nonempty set among
a, a & S1, a & S2, ..., and the chain of a.X is that sequence normalized
(:func:`update_chain`), so by induction on formulas contexts with one
chain satisfy the same formulas.  Every chain S1...Sm is the chain of the
duplicate-free context (S1, ..., Sm), or (W) when empty, so chains of
length <= L stand exactly for contexts of length <= L; chains have length
<= |W| - 1, so a larger context bound saturates.  Chains are the ordered
partitions W - S1, S1 - S2, ..., Sm of W (Fubini numbers 1, 3, 13, 75),
the paper's pseudo-sphere systems: with spheres Sm, S(m-1) - Sm, ...,
W - S1, the least sphere meeting ext(phi) meets it in the expected set
of phi under the chain, so ``phi |> psi`` is the box clause with the
chain held fixed.

Valuations as sets of world types.  A world's type is the bitmask of the
atoms true at it.  Every truth mask is a union of types (atoms are,
conditionals give all worlds or none), and so is every default an update
adds; hence whether a meets S_j, and which types a & S_j holds, depend on
S_j only through its types.  By induction on formulas a point is then
equivalent to the point on one world per type present, with the chain of
the entries' type sets: no more worlds, no longer chain.  So searching
sets of distinct types, in increasing order, with every chain finds a
falsifying point whenever one exists, and 2^k worlds saturate.

Straight-line evaluation.  At a chain, a conditional's truth depends only
on its antecedent's mask, the chain, and its consequent's mask at the
chain the consequent sees: the same one for ``|>`` and ``[a]`` with an
unchanged chain, the updated one for any other box.  A propositional
mask sees no chain.  By induction a node's mask depends on the valuation
and the chain alone, whatever root led there: one table per chain, shared
by all roots, each entry filled once, is exact.  A node's sub-DAG runs
children first into its chain's table, box consequents into their updated
chains' tables; those are smaller nodes, so the recursion ends even where
chains cycle.  The expected set of a is the last nonempty a & S_j.  In a
flat formula every consequent is propositional: one pass per chain.

Valuations side by side.  The valuations of one |W| = n share their
chains, so a block of them runs as one valuation (bit-slicing, Knuth,
TAOCP 4A, 7.1.3): segment s of every mask holds worlds s*n ... s*n+n-1
of the s-th, and a chain entry S enters as S * low, low the lowest bit
of each segment.  ``~`` and ``&`` act world by world, so on each segment
alone.  A conditional takes its expected set per segment: x = a & S_j
replaces the running set in the segments where x is nonempty, and it
holds in a segment iff that set misses no consequent world there.  A
box's updated chain, :func:`update_chain` of the packed entries, drops a
repeat or stops at an empty entry only when every segment agrees, so a
segment may keep a repeat, a leading W or an empty tail; read in one
segment it is still a decreasing sequence with that segment's updated
chain as normal form, and none of those entries changes a last nonempty
a & S_j.  By induction each segment's masks are its valuation's alone.
The order stays |W|, valuation, chain: a block's pick is its lowest
segment that any chain picks, at the first chain that picks it.  A block
holds at most ``BLOCK_BITS // |W|`` type sets (at least one), so no mask
exceeds max(BLOCK_BITS, |W|).
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from math import comb
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from .errors import FrozenRecord, InputError, Record
from .formula import (
    And,
    Atom,
    CondBox,
    CondCorner,
    Falsum,
    Formula,
    Not,
    render,
    set_walk,
)
from .models import (
    Context,
    Model,
    OrderedDefaultSet,
    SequenceContext,
    expected,
    hierarchy,
    update,
)


class EvaluationError(InputError):
    pass


class ContextualizedPointedModel(FrozenRecord):
    __slots__ = ("model", "context", "world")

    def __init__(self, model: Model, context: Context, world: str):
        if world not in model.world_set:
            raise EvaluationError(f"unknown world {world!r}")
        context.check_against(model)
        self._assign(model, context, world)

    def to_json(self) -> dict:
        return {
            "model": self.model.to_json(),
            "context": self.context.to_json(),
            "world": self.world,
        }


# ---------------------------------------------------------------------------
# Reference evaluator with traces
# ---------------------------------------------------------------------------


class ConditionalStep(Record):
    """One conditional evaluation: what was generated, updated, expected."""

    __slots__ = ("antecedent", "generated", "levels", "sequence", "expected", "verdicts")

    def __init__(self, antecedent: str, generated: FrozenSet[str],
                 levels: Optional[Tuple[Tuple[str, ...], ...]],  # set-form hierarchy by names
                 sequence: Optional[Tuple[FrozenSet[str], ...]], expected: FrozenSet[str],
                 verdicts: Optional[Dict[str, bool]] = None):
        self._assign(antecedent, generated, levels, sequence, expected, {} if verdicts is None else verdicts)

    def to_json(self) -> dict:
        """The step as traces print it in JSON; ``verdicts`` is left out."""
        out = {"antecedent": self.antecedent, "generated": sorted(self.generated),
               "expected": sorted(self.expected)}
        if self.levels is not None:
            out["hierarchy"] = [sorted(level) for level in self.levels]
        if self.sequence is not None:
            out["sequence"] = [sorted(d) for d in self.sequence]
        return out


EvalTrace = List[ConditionalStep]


def truth_set(model: Model, context: Optional[Context], f: Formula,
              trace: Optional[EvalTrace] = None) -> FrozenSet[str]:
    """The worlds where a desugared conwon formula holds at ``context``, each node walked once.

    ``[a]phi`` updates the context with a's extension once and holds at
    every world or at none: iff phi's set under the updated context covers
    its expected states.  A trace gets its step before its consequent's.
    """
    def box(g: Formula, walk) -> FrozenSet[str]:
        if type(g) is not CondBox:
            raise TypeError(f"not a conwon formula: {g!r}")
        generated = walk(g.antecedent)
        # only the set form and traces use the default's name
        named = trace is not None or isinstance(context, OrderedDefaultSet)
        label = render(g.antecedent) if named else None
        updated = update(context, generated, name=None if label is None else f"|{label}|")
        exp = expected(model, updated)
        if trace is not None:
            ordered = isinstance(updated, OrderedDefaultSet)
            levels = tuple(tuple(sorted(level)) for level in hierarchy(updated)) if ordered else None
            step = ConditionalStep(label, generated, levels, None if ordered else updated.sequence, exp)
            trace.append(step)
        sub = truth_set(model, updated, g.consequent, trace)
        if trace is not None:
            step.verdicts.update((u, u in sub) for u in sorted(exp))
        return model.world_set if exp <= sub else frozenset()

    return set_walk(model.world_set, model.extent, box)(f)


def extension(model: Model, alpha: Formula) -> FrozenSet[str]:
    """The default generated by a propositional formula; conditionals are rejected."""
    if alpha.depth:
        raise EvaluationError("extension requires a propositional formula")
    return truth_set(model, None, alpha)


def evaluate(model: Model, context: Context, world: str, f: Formula,
             trace: Optional[EvalTrace] = None) -> bool:
    """Truth of a desugared conwon formula at (model, context, world)."""
    if world not in model.world_set:
        raise EvaluationError(f"unknown world {world!r}")
    return world in truth_set(model, context, f, trace)


def eval_cpm(cpm: ContextualizedPointedModel, f: Formula, trace: Optional[EvalTrace] = None) -> bool:
    return evaluate(cpm.model, cpm.context, cpm.world, f, trace)


# ---------------------------------------------------------------------------
# Bitmask kernel over chains
# ---------------------------------------------------------------------------

Chain = Tuple[int, ...]

# Most bits a block of valuations packs into one mask (at least one
# valuation).  It bounds each table entry, a mask, to about BLOCK_BITS / 8
# bytes plus an int's header; a block keeps one table per chain it meets.
BLOCK_BITS = 512

MAX_ENUMERATION = 50_000_000  # the default cap on the (valuation, chain) pairs of one search


def update_chain(alpha: int, chain: Chain, full: int) -> Chain:
    """Chain of alpha.X for X with chain S1...Sm: normalize(alpha, alpha & S1, ...).

    Stops at the first empty entry and drops repeats and a leading W.  For
    nonempty alpha the last entry (W if none) is the expected set of alpha.X.
    """
    if not alpha:
        return ()
    entries = [] if alpha == full else [alpha]
    current = alpha
    for s in chain:
        narrowed = alpha & s
        if not narrowed:
            break
        if narrowed != current:
            entries.append(narrowed)
            current = narrowed
    return tuple(entries)


class CompiledFormula:
    """Formulas lowered into one shared node array, children first.

    Nodes are hash-consed on (op, child nodes), shared across all formulas
    added, and so are results.  Node ops: ("atom", name), ("false",),
    ("not", i), ("and", i, j), ("box", i, j), ("corner", i, j).  Each node
    records its modal depth (``depths``, 0 iff propositional) and atoms
    (``atom_bits``).  ``CompiledFormula(f)`` adds ``f`` as ``root``.
    """

    def __init__(self, f: Optional[Formula] = None):
        self.nodes: List[tuple] = []
        self.depths: List[int] = []
        self.atom_bits: List[int] = []
        self.atom_bit: Dict[str, int] = {}  # atom name -> its bit in atom_bits
        self.bases: List[int] = []  # of each node: itself, or ~b for ~ over non-propositional b
        self.prop_plan: List[tuple] = []  # (index, op, i, j) of each propositional node
        self._index: Dict[tuple, int] = {}
        self._lowered: Dict[Formula, int] = {}  # each formula added, and its subformulas -> node
        self._plans: Dict[int, List[tuple]] = {}
        if f is not None:
            self.root = self.add(f)

    def add(self, f: Formula) -> int:
        """Lower ``f`` and return its node: each new subformula once, children first, left to right."""
        seen, index, nodes, depths, bits, bases = (self._lowered, self._index, self.nodes, self.depths,
                                                   self.atom_bits, self.bases)
        stack = [f]
        while stack:
            g = stack.pop()
            if g is not None:  # met first: it waits under a None, in seen as None, until its children are lowered
                if g not in seen:
                    cls = type(g)
                    if cls is And or cls is CondCorner:
                        stack += g, None, g.right, g.left
                    elif cls is Not:
                        stack += g, None, g.child
                    elif cls is CondBox:
                        stack += g, None, g.consequent, g.antecedent
                    elif cls is Atom or cls is Falsum:
                        stack += g, None
                    else:  # only f can be one, as constructors read their children's depth: seen is unchanged
                        raise TypeError(f"not a formula: {g!r}")
                    seen[g] = None
                continue
            g = stack.pop()
            cls = type(g)
            if cls is And or cls is CondCorner:
                a, b = seen[g.left], seen[g.right]
                key = ("and" if cls is And else "corner", a, b)
                depth = (depths[a] if depths[a] > depths[b] else depths[b]) + (cls is CondCorner)
            elif cls is Not:
                a = b = seen[g.child]
                key, depth = ("not", a), depths[a]
            elif cls is CondBox:
                a, b = seen[g.antecedent], seen[g.consequent]
                key, depth = ("box", a, b), 1 + depths[b]
            else:  # an atom's operand is its name
                a, b, depth, key = (g.name, 0, 0, ("atom", g.name)) if cls is Atom else (0, 0, 0, ("false",))
            idx = index.get(key)
            if idx is None:
                idx = index[key] = len(nodes)
                nodes.append(key)
                depths.append(depth)
                bits.append(self.atom_bit.setdefault(a, 1 << len(self.atom_bit)) if cls is Atom
                            else 0 if cls is Falsum else bits[a] | bits[b])
                bases.append(~bases[a] if depth and cls is Not else idx)
                if not depth:
                    self.prop_plan.append((idx, key[0], a, b if cls is And else 0))
            seen[g] = idx
        return seen[f]

    def _step(self, i: int) -> tuple:
        op, a, b = self.nodes[i]
        kind, a, b = "corner" if op == "box" and not self.depths[b] else op, self.bases[a], self.bases[b]
        return i, kind, a if a >= 0 else ~a, -(a < 0), b if b >= 0 else ~b, -(b < 0)

    def plan(self, node: int) -> List[tuple]:
        """What one pass at ``node``'s chain evaluates: (index, op, a, na, b, nb), children first.

        The non-propositional nodes of ``node``'s sub-DAG but ``~``, without
        box consequents, which see updated chains.  Operand a has the value
        ``values[a] ^ na``, na -1 where ``bases`` folds a ``~`` into it.  A
        box whose consequent is propositional becomes "corner": its mask
        holds under every chain, so [a]phi and a |> phi are the same test.
        """
        steps = self._plans.get(node)
        if steps is None:
            found, stack, depths, nodes = set(), [node], self.depths, self.nodes
            while stack:
                i = stack.pop()
                if i not in found and depths[i]:
                    found.add(i)
                    op = nodes[i]
                    stack += op[1:2] if op[0] == "box" else op[1:]
            steps = self._plans[node] = [self._step(i) for i in sorted(found) if nodes[i][0] != "not"]
        return steps


class ModelEvaluator:
    """Evaluates compiled formulas on valuations of one |W| = n, side by side.

    ``valuation`` maps atoms to bitmasks over ``segments`` segments of n
    bits, segment s holding worlds s*n ... s*n+n-1 of the s-th valuation;
    a chain comes with each entry S replicated as ``S * low`` (itself for
    one segment).  ``truth_mask(node, chain)`` returns the set of worlds,
    in every segment, satisfying the node under contexts with that chain,
    from one table per chain shared by every root; a miss runs ``node``'s
    plan at the chain.  ``[a]phi`` checks phi at the expected set of a
    under the updated chain, ``phi |> psi`` checks psi at the expected
    set of phi under the same chain; both are world-independent: all of
    a segment or none of it.
    """

    def __init__(self, compiled: CompiledFormula, n_worlds: int, valuation: Dict[str, int],
                 segments: int = 1):
        self.compiled = compiled
        self.full = full = (1 << n_worlds * segments) - 1
        ones, shift = (1 << n_worlds) - 1, n_worlds - 1
        self.low = full // ones
        high = self.low << shift  # the top bit of each segment
        rest = full ^ high
        # fills each segment where x is nonempty: adding rest carries any of its
        # lower bits into the segment's top bit, and never past it
        self.spread = lambda x: ((((x & rest) + rest | x) & high) >> shift) * ones
        self.prop = prop = [None] * len(compiled.nodes)  # a mask per propositional node
        self.tables: Dict[Chain, List[Optional[int]]] = defaultdict(prop.copy)  # a table per chain
        for i, op, a, b in compiled.prop_plan:
            if op == "atom":
                prop[i] = valuation.get(a, 0)
            elif op == "not":
                prop[i] = full ^ prop[a]
            elif op == "and":
                prop[i] = prop[a] & prop[b]
            else:
                prop[i] = 0

    def truth_mask(self, node: int, chain: Chain) -> int:
        mask = self.prop[node]
        if mask is None:
            values, base = self.tables[chain], self.compiled.bases[node]
            b = base if base >= 0 else ~base
            if values[b] is None:
                self._run(b, chain, values)
            mask = values[b] if base >= 0 else self.full ^ values[b]
        return mask

    def _run(self, node: int, chain: Chain, values: List[Optional[int]]) -> None:
        """Fill ``node``'s plan into ``values``, the table of ``chain``; box consequents into theirs."""
        full, spread, tables, one = self.full, self.spread, self.tables, self.low == 1
        for i, op, a, na, b, nb in self.compiled.plan(node):
            if values[i] is not None:
                continue
            if op == "and":
                values[i] = (values[a] ^ na) & (values[b] ^ nb) & full
                continue
            alpha = (values[a] ^ na) & full
            if not alpha:
                values[i] = full
                continue
            exp = alpha  # in each segment, the last nonempty alpha & S_j
            for s in chain:
                x = alpha & s
                if not x:
                    break
                exp = x if one else x | exp & ~spread(x)  # one segment: x is nonempty there
            if op == "corner":
                consequent = values[b] ^ nb
            else:
                updated = update_chain(alpha, chain, full)
                table = tables[updated]
                if table[b] is None:
                    self._run(b, updated, table)
                consequent = table[b] ^ nb
            bad = exp & ~consequent  # segments where the box fails
            values[i] = full ^ spread(bad) if bad else full


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def chains(n_worlds: int, max_len: int) -> Tuple[Chain, ...]:
    """The empty chain, then every chain of length <= max_len, shortest first.

    A chain is a strictly decreasing sequence of nonempty proper subsets
    of the n-world set.
    """
    found: List[Chain] = [()]
    for chain in found:  # breadth first: the list grows as it is walked
        if len(chain) < max_len:
            top = chain[-1] if chain else (1 << n_worlds) - 1
            found += [chain + (s,) for s in range(1, top) if s & top == s]
    return tuple(found)


def chain_count(n_worlds: int, max_len: int) -> int:
    """``len(chains(n_worlds, max_len))`` without enumerating them.

    A chain of length m is an ordered partition of the worlds into m + 1
    blocks, i.e. a surjection onto m + 1 labels (inclusion-exclusion).
    """
    return sum(
        (-1) ** i * comb(blocks, i) * (blocks - i) ** n_worlds
        for blocks in range(1, min(max_len, n_worlds - 1) + 2)
        for i in range(blocks + 1)
    )


def mask_to_worlds(mask: int, worlds: Tuple[str, ...]) -> FrozenSet[str]:
    return frozenset(w for i, w in enumerate(worlds) if mask >> i & 1)


class SearchBounds(FrozenRecord):
    __slots__ = ("max_worlds", "max_context_len", "max_enumeration")

    def __init__(self, max_worlds: int, max_context_len: int, max_enumeration: int = MAX_ENUMERATION):
        if max_worlds < 1 or max_context_len < 1:
            raise EvaluationError("bounds must be at least 1")
        self._assign(max_worlds, max_context_len, max_enumeration)


def search_points(
    compiled: CompiledFormula,
    roots: Tuple[int, ...],
    bounds: SearchBounds,
    select: Callable[[List[int], int], int],
) -> Optional[ContextualizedPointedModel]:
    """The one enumeration loop: the first point ``select`` picks for ``roots``, or ``None``.

    Goes over |W| (at most the 2^k types of the roots' k atoms), canonical
    valuations, a block of them side by side, and chains of length <= the
    context bound (only the empty chain without conditionals), and stops
    after the block that holds the first pick.  ``select(masks, full)``
    maps the roots' truth masks to the worlds to report (the lowest is);
    the chain is the witness context, (W) if empty.  ``select`` must act
    world by world, each bit of its result read off the same bit of the
    masks and of ``full``: it runs on a block side by side.  Raises
    EvaluationError when the (valuation, chain) pairs exceed
    ``bounds.max_enumeration``.
    """
    names = tuple(sorted(a for a, bit in compiled.atom_bit.items()
                         if any(compiled.atom_bits[r] & bit for r in roots))) or ("p",)
    max_len = bounds.max_context_len if max(compiled.depths[r] for r in roots) else 0
    total = 0
    for n in range(1, min(bounds.max_worlds, 1 << len(names)) + 1):
        total += comb(1 << len(names), n) * chain_count(n, max_len)
        if total > bounds.max_enumeration:
            raise EvaluationError(f"enumeration of at least {total} (valuation, chain) pairs "
                                  f"exceeds the cap of {bounds.max_enumeration}")
    for n, valuation, ev, candidates in _valuations(compiled, names, max_len, bounds.max_worlds):
        truth_mask, full, low = ev.truth_mask, ev.full, ev.low
        limit, pick = full, None  # limit: the segments below the pick
        for chain in candidates:
            packed = chain if low == 1 else tuple(s * low for s in chain)  # one segment: no new key
            picked = select([truth_mask(roots[0], packed)] if len(roots) == 1  # one root: no comprehension
                            else [truth_mask(r, packed) for r in roots], full) & limit
            if picked:  # its lowest bit: a later chain may still pick an earlier segment
                bit = (picked & -picked).bit_length() - 1
                pick, limit = (bit // n, bit % n, chain), (1 << bit - bit % n) - 1
                if not limit:
                    break
        if pick:
            segment, world, chain = pick
            worlds = tuple(f"w{i + 1}" for i in range(n))
            model = Model(worlds, {a: mask_to_worlds(valuation[a] >> segment * n, worlds) for a in names})
            context = tuple(mask_to_worlds(s, worlds) for s in chain) or (model.world_set,)
            return ContextualizedPointedModel(model, SequenceContext(context), worlds[world])
    return None


def _valuations(compiled: CompiledFormula, names: Tuple[str, ...], max_len: int, max_worlds: int):
    """(|W|, valuation, evaluator, the chains to try) of each block, in search order.

    A block packs up to ``BLOCK_BITS // |W|`` consecutive type sets, at
    least one: segment s holds the s-th.
    """
    for n in range(1, min(max_worlds, 1 << len(names)) + 1):
        combinations = itertools.combinations(range(1 << len(names)), n)
        candidates = chains(n, min(max_len, n - 1))  # only once the search reaches n: larger |W| cost more
        while run := tuple(itertools.islice(combinations, max(1, BLOCK_BITS // n))):
            valuation = {a: sum(1 << s * n + w for s, types in enumerate(run) for w, t in enumerate(types)
                                if t >> i & 1) for i, a in enumerate(names)}
            yield n, valuation, ModelEvaluator(compiled, n, valuation, len(run)), candidates


def falsified(masks: List[int], full: int) -> int:
    """``select`` for countermodels: the worlds where the query's formula is false."""
    return full & ~masks[0]


def recheck_countermodel(f: Formula, witness: Optional[ContextualizedPointedModel]):
    """``witness`` once :func:`evaluate` confirms it falsifies ``f``; else ``RuntimeError``."""
    if witness is not None and eval_cpm(witness, f):
        raise RuntimeError(f"kernel countermodel to {render(f)} does not hold up: {witness.to_json()}")
    return witness


def find_countermodel(f: Formula, bounds: SearchBounds) -> Optional[ContextualizedPointedModel]:
    """First contextualized pointed model falsifying ``f``, if any.

    Exact for all models over the atoms of ``f`` with at most
    ``bounds.max_worlds`` worlds and all sequence contexts of length at
    most ``bounds.max_context_len``.  ``None`` means "valid up to
    bound", not validity.  The witness is re-checked with
    :func:`evaluate`.
    """
    compiled = CompiledFormula(f)
    return recheck_countermodel(f, search_points(compiled, (compiled.root,), bounds, falsified))


def is_valid_up_to(f: Formula, bounds: SearchBounds) -> bool:
    return find_countermodel(f, bounds) is None


def is_satisfiable_up_to(f: Formula, bounds: SearchBounds) -> bool:
    return find_countermodel(Not(f), bounds) is not None


def satisfying_witness(f: Formula, bounds: SearchBounds) -> Optional[ContextualizedPointedModel]:
    """A contextualized pointed model where ``f`` is true, if one exists."""
    return find_countermodel(Not(f), bounds)


def truth_masks_agree(
    f: Formula,
    g: Formula,
    max_worlds: int,
    max_context_len: int,
) -> Optional[ContextualizedPointedModel]:
    """First enumerated point where ``f`` and ``g`` disagree, or ``None``.

    Compares world-by-world truth of the two formulas over the same
    points as :func:`find_countermodel`; the witness is re-checked with
    :func:`evaluate`.
    """
    compiled = CompiledFormula()
    query = (compiled.add(f), compiled.add(g))
    bounds = SearchBounds(max_worlds, max_context_len)
    witness = search_points(compiled, query, bounds, lambda masks, full: masks[0] ^ masks[1])
    if witness is not None and eval_cpm(witness, f) == eval_cpm(witness, g):
        raise RuntimeError(
            f"kernel disagreement of {render(f)} and {render(g)} does not hold up: {witness.to_json()}"
        )
    return witness

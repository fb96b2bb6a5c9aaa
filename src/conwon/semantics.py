"""Truth evaluation over contextualized pointed models and bounded search.

:func:`evaluate` is the set-based reference evaluator, with optional traces
of every conditional step.  A bitmask kernel (:class:`ModelEvaluator`) in
one enumeration loop, :func:`search_points`, serves the bounded searches
and, for ``|>``, ``lewis.satisfying_witness_v``.

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

Many queries, one search.  A query's points (|W| up to 2^k, valuations of
its k atoms, chains up to its context bound) depend only on its atoms and
on whether it has conditionals, so queries alike in both walk the same
points in the same order and, searched together, each gets its own witness.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .errors import InputError
from .formula import (
    And,
    Atom,
    CondBox,
    CondCorner,
    Falsum,
    Formula,
    Not,
    render,
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


@dataclass(frozen=True)
class ContextualizedPointedModel:
    model: Model
    context: Context
    world: str

    def __post_init__(self):
        if self.world not in self.model.world_set:
            raise EvaluationError(f"unknown world {self.world!r}")
        self.context.check_against(self.model)

    def to_json(self) -> dict:
        return {
            "model": self.model.to_json(),
            "context": self.context.to_json(),
            "world": self.world,
        }


# ---------------------------------------------------------------------------
# Reference evaluator with traces
# ---------------------------------------------------------------------------


@dataclass
class ConditionalStep:
    """One conditional evaluation: what was generated, updated, expected."""

    antecedent: str
    generated: FrozenSet[str]
    levels: Optional[Tuple[Tuple[str, ...], ...]]  # set-form hierarchy by names
    sequence: Optional[Tuple[FrozenSet[str], ...]]
    expected: FrozenSet[str]
    verdicts: Dict[str, bool] = field(default_factory=dict)

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


def extension(model: Model, alpha: Formula) -> FrozenSet[str]:
    """The default generated by a propositional formula; conditionals are rejected."""
    if isinstance(alpha, Atom):
        return model.extent(alpha.name)
    if isinstance(alpha, Falsum):
        return frozenset()
    if isinstance(alpha, Not):
        return model.world_set - extension(model, alpha.child)
    if isinstance(alpha, And):
        return extension(model, alpha.left) & extension(model, alpha.right)
    if isinstance(alpha, (CondBox, CondCorner)):
        raise EvaluationError("extension requires a propositional formula")
    raise TypeError(f"not a formula: {alpha!r}")


def evaluate(
    model: Model,
    context: Context,
    world: str,
    f: Formula,
    trace: Optional[EvalTrace] = None,
) -> bool:
    """Truth of a desugared conwon formula at (model, context, world)."""
    if isinstance(f, Atom):
        return world in model.extent(f.name)
    if isinstance(f, Falsum):
        return False
    if isinstance(f, Not):
        return not evaluate(model, context, world, f.child, trace)
    if isinstance(f, And):
        return evaluate(model, context, world, f.left, trace) and evaluate(
            model, context, world, f.right, trace
        )
    if isinstance(f, CondBox):
        generated = extension(model, f.antecedent)
        # only the set form and traces use the default's name
        named = trace is not None or isinstance(context, OrderedDefaultSet)
        label = render(f.antecedent) if named else None
        updated = update(context, generated, name=None if label is None else f"|{label}|")
        exp = expected(model, updated)
        step = None
        if trace is not None:
            if isinstance(updated, OrderedDefaultSet):
                levels = tuple(tuple(sorted(level)) for level in hierarchy(updated))
                seq = None
            else:
                levels = None
                seq = updated.sequence
            step = ConditionalStep(
                antecedent=label,
                generated=generated,
                levels=levels,
                sequence=seq,
                expected=exp,
            )
            trace.append(step)
        verdict = True
        for u in sorted(exp):
            sub = evaluate(model, updated, u, f.consequent, trace)
            if step is not None:
                step.verdicts[u] = sub
            if not sub:
                verdict = False
                if step is None:
                    break
        return verdict
    raise TypeError(f"not a conwon formula: {f!r}")


def eval_cpm(cpm: ContextualizedPointedModel, f: Formula, trace: Optional[EvalTrace] = None) -> bool:
    return evaluate(cpm.model, cpm.context, cpm.world, f, trace)


# ---------------------------------------------------------------------------
# Bitmask kernel over chains
# ---------------------------------------------------------------------------

Chain = Tuple[int, ...]


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


def context_chain(context: Sequence[int], n_worlds: int) -> Chain:
    """Chain normal form of a sequence context given as bitmasks."""
    chain: Chain = ()
    for entry in reversed(context):
        chain = update_chain(entry, chain, (1 << n_worlds) - 1)
    return chain


class CompiledFormula:
    """Formulas lowered into one shared node array, children first.

    Structurally identical subterms share a node, across all formulas
    added, so results are shared too.  Node ops: ("atom", name), ("false",),
    ("not", i), ("and", i, j), ("box", i, j), ("corner", i, j).  The same
    pass records each node's modal depth (``depths``, 0 iff propositional)
    and atoms (``atom_bits``).  ``CompiledFormula(f)`` adds ``f`` as ``root``.
    """

    def __init__(self, f: Optional[Formula] = None):
        self.nodes: List[tuple] = []
        self.depths: List[int] = []
        self.atom_bits: List[int] = []
        self.atom_bit: Dict[str, int] = {}  # atom name -> its bit in atom_bits
        self.bases: List[int] = []  # of each node: itself, or ~b for ~ over non-propositional b
        self.prop_plan: List[tuple] = []  # (index, op, i, j) of each propositional node
        self._index: Dict[tuple, int] = {}
        self._plans: Dict[int, List[tuple]] = {}
        if f is not None:
            self.root = self.add(f)

    def add(self, f: Formula, subst: Optional[Mapping[str, Formula]] = None) -> int:
        """Lower ``f`` and return its node; no reference to a formula is kept.

        Atoms named in ``subst`` stand for their formulas, all at once, as
        in ``proofs.instantiate``; the instance itself is never built.
        """
        leaves = {name: self.add(g) for name, g in (subst or {}).items()}
        self._seen: Dict[Formula, int] = {}  # subformula of f -> node
        self._leaves = leaves  # atom name -> the node it stands for
        root = self._add(f)
        del self._seen, self._leaves
        return root

    def _add(self, f: Formula) -> int:
        idx = self._seen.get(f)  # a shared subformula is lowered once
        if idx is not None:
            return idx
        cls, depths = type(f), self.depths
        if cls is And:
            key = ("and", self._add(f.left), self._add(f.right))
            depth = max(depths[key[1]], depths[key[2]])
        elif cls is Not:
            key = ("not", self._add(f.child))
            depth = depths[key[1]]
        elif cls is Atom:
            key, depth = ("atom", f.name), 0
            idx = self._leaves.get(f.name)
        elif cls is CondBox:
            key = ("box", self._add(f.antecedent), self._add(f.consequent))
            depth = 1 + max(depths[key[1]], depths[key[2]])
        elif cls is CondCorner:
            key = ("corner", self._add(f.left), self._add(f.right))
            depth = 1 + max(depths[key[1]], depths[key[2]])
        elif cls is Falsum:
            key, depth = ("false",), 0
        else:
            raise TypeError(f"not a formula: {f!r}")
        if idx is None:
            idx = self._index.get(key)
        if idx is None:
            idx = self._index[key] = len(self.nodes)
            self.nodes.append(key)
            depths.append(depth)
            bits, bases = self.atom_bits, self.bases
            bits.append(self.atom_bit.setdefault(f.name, 1 << len(self.atom_bit)) if cls is Atom
                        else bits[key[1]] | bits[key[-1]] if len(key) > 1 else 0)
            bases.append(~bases[key[1]] if depth and cls is Not else idx)
            if not depth:
                self.prop_plan.append((idx, *(key + (0, 0))[:3]))
        self._seen[f] = idx
        return idx

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
            found, stack = set(), [node]
            while stack:
                i = stack.pop()
                if i not in found and self.depths[i]:
                    found.add(i)
                    op = self.nodes[i]
                    stack += op[1:2] if op[0] == "box" else op[1:]
            steps = self._plans[node] = []
            for i in sorted(found):
                op = self.nodes[i]
                if op[0] != "not":
                    kind = "corner" if op[0] == "box" and not self.depths[op[2]] else op[0]
                    a, b = self.bases[op[1]], self.bases[op[2]]
                    steps.append((i, kind, max(a, ~a), -(a < 0), max(b, ~b), -(b < 0)))
        return steps


class ModelEvaluator:
    """Evaluates compiled formulas on one bitmask model.

    ``truth_mask(node, chain)`` returns the set of worlds (as a bitmask)
    satisfying the node under contexts with that chain, from one table per
    chain shared by every root; a miss runs ``node``'s plan at the chain.
    ``[a]phi`` checks phi at the expected set of a under the updated chain,
    ``phi |> psi`` checks psi at the expected set of phi under the same
    chain; both are world-independent: the full mask or 0.
    """

    def __init__(self, compiled: CompiledFormula, n_worlds: int, valuation: Dict[str, int]):
        self.compiled = compiled
        self.full = full = (1 << n_worlds) - 1
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
        full, tables = self.full, self.tables
        for i, op, a, na, b, nb in self.compiled.plan(node):
            if values[i] is not None:
                continue
            if op == "and":
                values[i] = (values[a] ^ na) & (values[b] ^ nb) & full
                continue
            alpha = (values[a] ^ na) & full
            if not alpha:
                values[i] = full
            elif op == "corner":
                exp = alpha
                for s in chain:
                    if not alpha & s:
                        break
                    exp = alpha & s
                values[i] = 0 if exp & ~(values[b] ^ nb) else full
            else:
                updated = update_chain(alpha, chain, full)
                table = tables[updated]
                if table[b] is None:
                    self._run(b, updated, table)
                values[i] = 0 if (updated[-1] if updated else full) & ~(table[b] ^ nb) else full


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


@dataclass(frozen=True)
class SearchBounds:
    max_worlds: int
    max_context_len: int
    max_enumeration: int = 50_000_000

    def __post_init__(self):
        if self.max_worlds < 1 or self.max_context_len < 1:
            raise EvaluationError("bounds must be at least 1")


def search_points(
    compiled: CompiledFormula,
    queries: Sequence[Tuple[int, ...]],
    bounds: SearchBounds,
    select: Callable[[List[int], int], int],
) -> List[Optional[ContextualizedPointedModel]]:
    """The one enumeration loop: for each query, the first point ``select`` picks, or ``None``.

    A query is a tuple of roots in ``compiled``.  Goes over |W| (at most the
    2^k types), canonical valuations and chains of length <= the context
    bound (only the empty chain without conditionals), for each group of
    queries with the same atoms and context bound in turn; a query leaves
    its group at its first pick.  ``select(masks, full)`` maps the
    query's truth masks to the worlds to report (the lowest is); the chain
    is the witness context, (W) if empty.  Raises EvaluationError when a
    group's (valuation, chain) pairs exceed ``bounds.max_enumeration``.
    """
    groups: Dict[Tuple[Tuple[str, ...], int], List[int]] = {}
    for k, roots in enumerate(queries):
        names = tuple(sorted(a for a, bit in compiled.atom_bit.items()
                             if any(compiled.atom_bits[r] & bit for r in roots))) or ("p",)
        max_len = bounds.max_context_len if max(compiled.depths[r] for r in roots) else 0
        groups.setdefault((names, max_len), []).append(k)
    for names, max_len in groups:
        total = 0
        for n in range(1, min(bounds.max_worlds, 1 << len(names)) + 1):
            total += comb(1 << len(names), n) * chain_count(n, max_len)
            if total > bounds.max_enumeration:
                raise EvaluationError(f"enumeration of at least {total} (valuation, chain) pairs "
                                      f"exceeds the cap of {bounds.max_enumeration}")

    found: List[Optional[ContextualizedPointedModel]] = [None] * len(queries)
    for (names, max_len), active in groups.items():
        for n, valuation, ev, candidates in _valuations(compiled, names, max_len, bounds.max_worlds):
            truth_mask, full = ev.truth_mask, ev.full
            for chain in candidates:
                for k in active:
                    roots = queries[k]  # one root, the common case, costs no comprehension
                    masks = ([truth_mask(roots[0], chain)] if len(roots) == 1
                             else [truth_mask(r, chain) for r in roots])
                    picked = select(masks, full)
                    if picked:  # k leaves its group; this pass goes on over the old list
                        worlds = tuple(f"w{i + 1}" for i in range(n))
                        model = Model(worlds, {a: mask_to_worlds(m, worlds) for a, m in valuation.items()})
                        context = tuple(mask_to_worlds(s, worlds) for s in chain) or (model.world_set,)
                        world = worlds[(picked & -picked).bit_length() - 1]
                        found[k] = ContextualizedPointedModel(model, SequenceContext(context), world)
                        active = [j for j in active if j != k]
                if not active:
                    break
            if not active:
                break
    return found


def _valuations(compiled: CompiledFormula, names: Tuple[str, ...], max_len: int, max_worlds: int):
    """(|W|, valuation, its evaluator, the chains to try) in search order, a valuation per type set."""
    for n in range(1, min(max_worlds, 1 << len(names)) + 1):
        candidates = chains(n, min(max_len, n - 1))
        for types in itertools.combinations(range(1 << len(names)), n):
            valuation = {a: sum(1 << w for w, t in enumerate(types) if t >> i & 1)
                         for i, a in enumerate(names)}
            yield n, valuation, ModelEvaluator(compiled, n, valuation), candidates


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
    [witness] = search_points(compiled, [(compiled.root,)], bounds, falsified)
    return recheck_countermodel(f, witness)


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
    [witness] = search_points(compiled, [query], bounds, lambda masks, full: masks[0] ^ masks[1])
    if witness is not None and eval_cpm(witness, f) == eval_cpm(witness, g):
        raise RuntimeError(
            f"kernel disagreement of {render(f)} and {render(g)} does not hold up: {witness.to_json()}"
        )
    return witness

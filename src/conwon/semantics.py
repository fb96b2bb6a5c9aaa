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
chain the consequent sees: the same one for ``|>``, the updated one for
``[a]``.  A propositional mask sees no chain, so a box over one is tested
as ``|>`` is: it lowers as a corner.  By induction a node's mask depends
on the valuation and the chain alone, whatever path led there: one table
per chain, shared by the nodes of the formula searched, each entry filled
once, is exact.  A node's sub-DAG runs children first into its chain's
table, one plain step per node (``~x`` is full ^ x), box consequents into
their updated chains' tables; those are smaller nodes, so the recursion
ends even where chains cycle.  The expected set of a is the last nonempty
a & S_j.  In a flat formula every consequent is propositional: one pass
per block, and ``f`` and its ``|>`` translation lower to the same nodes.

Pairs side by side.  The (type set, chain) pairs of one |W| = n run as
one (bit-slicing, Knuth, TAOCP 4A, 7.1.3): segment s of every mask holds
worlds s*n ... s*n+n-1 of the s-th pair, and packed chain entry j holds
there the j-th set of its chain, empty past its end.  ``~`` and ``&`` act
on each segment alone; a conditional's x = a & S_j replaces the running
set where x is nonempty, and it holds in a segment iff that set misses no
consequent world there.  Padding: read in one segment, the packed chain
and a box's updated chain (:func:`update_chain` of packed entries drops a
repeat or stops at an empty entry only when every segment agrees) are
decreasing: the segment's own chains up to a repeat, a leading W or an
empty tail, none of which changes a last nonempty a & S_j.  By induction
each segment's masks are its pair's alone.  Order: segments follow the
search order, type set then chain, and blocks cut it into consecutive
runs, so a block's lowest set bit is its first pick.  A block holds at
most ``BLOCK_BITS // |W|`` pairs (at least one), all chains of whole type
sets when they fit, so no mask exceeds max(BLOCK_BITS, |W|).
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections import OrderedDict, defaultdict
from math import comb
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .errors import FrozenRecord, InputError
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


class ConditionalStep(FrozenRecord):
    """One conditional evaluation: what was generated, updated, expected."""

    __slots__ = ("antecedent", "generated", "levels", "sequence", "expected")

    def __init__(self, antecedent: str, generated: FrozenSet[str],
                 levels: Optional[Tuple[Tuple[str, ...], ...]],  # set-form hierarchy by names
                 sequence: Optional[Tuple[FrozenSet[str], ...]], expected: FrozenSet[str]):
        self._assign(antecedent, generated, levels, sequence, expected)

    def to_json(self) -> dict:
        """The step as traces print it in JSON."""
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
            trace.append(ConditionalStep(label, generated, levels, None if ordered else updated.sequence, exp))
        sub = truth_set(model, updated, g.consequent, trace)
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

# Most bits a block of pairs packs into a mask (2 kB).  A search holds one block, with a table
# (a mask per node) per chain it meets, at most one per box of the formula's tree plus one.
BLOCK_BITS = 2 ** 14

# Most bytes the search scaffolding keeps between searches, in one least-recently-used cache
# (:func:`_kept`): per (|W|, bound, block bits) the packed chains, and per (atom count, |W|,
# bound, block bits) every block's segment count, masks per atom index and packed chain
# entries, all independent of the formula.  An entry is kept when a bound on its ints and
# tuples fits, older entries dropped first; blocks, cheap to rebuild next to the chain walk,
# only when they fit an eighth.  One that cannot fit is built again by each search, block by
# block, and dropped.  Over three atoms at (8, 7) all is kept, the |W| = 8 chains (3 MB)
# included; over four atoms at (6, 2) neither the |W| = 5 blocks (2 MB) nor the |W| = 6 ones
# (16 MB) are.
CACHE_BYTES = 2 ** 23

MAX_ENUMERATION = 50_000_000  # the cap on the (valuation, chain) pairs of one search


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
    """``f`` lowered into a node array, children first, one node per distinct subformula.

    Formulas are interned, so a subformula that occurs twice is one node.
    Node ops: ("atom", name), ("false",), ("not", i, i), ("and", i, j),
    ("box", i, j), ("corner", i, j), a box over a propositional consequent
    lowering as "corner" (see Straight-line evaluation).  Each node records
    its modal depth (``depths``, 0 iff propositional); ``root`` is f's node
    and ``atoms`` its atom names, sorted.
    """

    def __init__(self, f: Formula):
        self.nodes: List[tuple] = []
        self.depths: List[int] = []
        self.prop_plan: List[tuple] = []  # (index, op, a, b) of each propositional node
        self._plans: Dict[int, List[tuple]] = {}
        nodes, depths = self.nodes, self.depths
        seen: Dict[Formula, Optional[int]] = {}  # each subformula lowered -> its node
        stack = [f]
        while stack:  # each subformula once, children first, left to right
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
                    else:  # only f can be one, as constructors read their children's depth
                        raise TypeError(f"not a formula: {g!r}")
                    seen[g] = None
                continue
            g = stack.pop()
            cls = type(g)
            if cls is And or cls is CondCorner:
                a, b = seen[g.left], seen[g.right]
                key = ("and" if cls is And else "corner", a, b)
            elif cls is Not:
                a = b = seen[g.child]
                key = ("not", a, b)
            elif cls is CondBox:
                a, b = seen[g.antecedent], seen[g.consequent]
                key = ("box" if g.depth > 1 else "corner", a, b)
            else:  # an atom's operand is its name
                a, b, key = (g.name, 0, ("atom", g.name)) if cls is Atom else (0, 0, ("false",))
            idx = seen[g] = len(nodes)
            nodes.append(key)
            depths.append(g.depth)
            if not g.depth:
                self.prop_plan.append((idx, key[0], a, b))
        self.root = seen[f]
        self.atoms = tuple(sorted(op[1] for op in nodes if op[0] == "atom"))

    def plan(self, node: int) -> List[tuple]:
        """What one pass at ``node``'s chain evaluates: (index, op, a, b), children first.

        Every non-propositional node of ``node``'s sub-DAG, ``~`` included,
        but box consequents, which see updated chains.
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
            steps = self._plans[node] = [(i, *nodes[i]) for i in sorted(found)]
        return steps


class ModelEvaluator:
    """Evaluates a compiled formula's nodes on valuations of one |W| = n, side by side.

    ``valuation`` maps atoms to bitmasks over ``segments`` segments of n
    bits, segment s holding worlds s*n ... s*n+n-1 of the s-th valuation;
    a chain comes packed, segment s of each entry holding the s-th chain's.
    ``truth_mask(node, chain)`` returns the set of worlds, in every
    segment, satisfying the node under contexts with that chain, from one
    table per chain shared by every node of the formula; a miss runs
    ``node``'s plan at the chain.  ``[a]phi`` checks phi at the expected set of a
    under the updated chain, ``phi |> psi`` checks psi at the expected
    set of phi under the same chain; both are world-independent: all of
    a segment or none of it.
    """

    def __init__(self, compiled: CompiledFormula, n_worlds: int, valuation: Dict[str, int],
                 segments: int = 1):
        self.compiled, self.valuation = compiled, valuation
        self.full = full = (1 << n_worlds * segments) - 1
        ones, shift = (1 << n_worlds) - 1, n_worlds - 1
        high = full // ones << shift  # the top bit of each segment
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
            values = self.tables[chain]
            if values[node] is None:
                self._run(node, chain, values)
            mask = values[node]
        return mask

    def _run(self, node: int, chain: Chain, values: List[Optional[int]]) -> None:
        """Fill ``node``'s plan into ``values``, the table of ``chain``; box consequents into theirs."""
        full, spread, tables = self.full, self.spread, self.tables
        for i, op, a, b in self.compiled.plan(node):
            if values[i] is not None:
                continue
            if op == "not":
                values[i] = full ^ values[a]
                continue
            if op == "and":
                values[i] = values[a] & values[b]
                continue
            alpha = values[a]
            if not alpha:
                values[i] = full
                continue
            exp = alpha  # in each segment, the last nonempty alpha & S_j
            for s in chain:
                x = alpha & s
                if not x:
                    break
                exp = x | exp & ~spread(x)
            if op == "corner":
                consequent = values[b]
            else:
                updated = update_chain(alpha, chain, full)
                table = tables[updated]
                if table[b] is None:
                    self._run(b, updated, table)
                consequent = table[b]
            bad = exp & ~consequent  # segments where the box fails
            values[i] = full ^ spread(bad) if bad else full


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def chains(n_worlds: int, max_len: int) -> Iterator[Chain]:
    """The empty chain, then every chain of length <= max_len, shortest first, lazily.

    A chain is a strictly decreasing sequence of nonempty proper subsets of the
    n-world set.  Each length is one depth-first walk (lexicographic) keeping only its stack.
    """
    full = (1 << n_worlds) - 1
    for length in range(min(max_len, n_worlds - 1) + 1):
        stack: List[Chain] = [()]
        while stack:
            chain = stack.pop()
            top = s = chain[-1] if chain else full
            if len(chain) == length:
                yield chain
            while len(chain) < length and (s := (s - 1) & top):  # top's proper nonempty subsets, largest first
                stack.append(chain + (s,))


_cache: "OrderedDict[tuple, Tuple[tuple, int]]" = OrderedDict()  # key -> (value, size bound), oldest use first


def _kept(key: tuple, size: Callable[[], int], build: Callable[[], Iterator], share: int = 1) -> Iterable:
    """What ``build()`` yields, kept as a tuple under ``key`` when ``size()`` bytes fit CACHE_BYTES // share.

    Keeping it drops the least recently used entries until the sizes fit
    CACHE_BYTES.  An entry that does not fit is never kept: ``build()``
    itself comes back, to be walked once.
    """
    hit = _cache.get(key)
    if hit is not None:
        _cache.move_to_end(key)
        return hit[0]
    bound = size()
    if bound > CACHE_BYTES // share:
        return build()
    value = tuple(build())
    while _cache and sum(kept for _, kept in _cache.values()) + bound > CACHE_BYTES:
        _cache.popitem(last=False)
    _cache[key] = value, bound
    return value


def _layout(n_worlds: int, max_len: int, block_bits: int) -> Tuple[int, int, int]:
    """(segments per block, copies, runs) of the chains of length <= max_len at |W| = n_worlds.

    A run is one block's chains; ``copies`` type sets share a block when
    one run holds all the chains.
    """
    segments, count = max(1, block_bits // n_worlds), chain_count(n_worlds, max_len)
    return segments, segments // count if count < segments else 1, -(-count // segments)


def _chain_bytes(n_worlds: int, max_len: int, block_bits: int) -> int:
    """A bound on the bytes of ``_packed_chains``'s runs: max_len entries per run, each a block wide."""
    segments, _, runs = _layout(n_worlds, max_len, block_bits)
    word = sys.getsizeof((1 << max(block_bits, n_worlds)) - 1)
    return sys.getsizeof((0,) * runs) + runs * (sys.getsizeof((0, 0)) + sys.getsizeof(segments)
                                                + sys.getsizeof((0,) * max_len) + max_len * word)


def _packed_chains(n_worlds: int, max_len: int, block_bits: int) -> Tuple[int, Tuple[Tuple[int, Chain], ...]]:
    """``chains(n_worlds, max_len)`` cut into runs of one block: (copies, ((length, entries) of each run)).

    Entry j of a run holds in segment c the j-th set of its c-th chain, empty
    past its end, repeated for ``copies`` type sets if one run holds all.
    """
    segments, copies, _ = _layout(n_worlds, max_len, block_bits)

    def pack():
        width = f"0{n_worlds}b"
        digits = [format(s, width) for s in range(1 << n_worlds)]
        walk = chains(n_worlds, max_len)
        while run := tuple(itertools.islice(walk, segments)):  # one run's chains at a time
            yield len(run), tuple(int("".join(map(digits.__getitem__, reversed(level))) * copies, 2)
                                  for level in itertools.zip_longest(*run, fillvalue=0))

    return copies, tuple(_kept(("chains", n_worlds, max_len, block_bits),
                               lambda: _chain_bytes(n_worlds, max_len, block_bits), pack))


def _type_blocks(n_atoms: int, n_worlds: int, max_len: int, block_bits: int) -> Iterable[Tuple[int, tuple, Chain]]:
    """(segments, masks, packed chain) of each block of the pairs at |W| = n_worlds, in search order.

    ``masks[i]`` holds, in every segment, the worlds of that segment's type
    set whose type has bit i; the blocks of one type set that have as many
    segments share one masks tuple.  Nothing here depends on the formula.
    """
    n_types = 1 << n_atoms

    def build():
        copies, packed = _packed_chains(n_worlds, max_len, block_bits)
        stride = packed[0][0] * n_worlds  # the bits of one type set in the first run
        type_sets = itertools.combinations(range(n_types), n_worlds)
        while group := tuple(itertools.islice(type_sets, copies)):
            at = [0] * n_types  # each type's worlds in each type set's first segment, then OR-ed per atom
            for g, types in enumerate(group):
                for w, t in enumerate(types, g * stride):
                    at[t] |= 1 << w
            base = [sum(m for t, m in enumerate(at) if t >> i & 1) for i in range(n_atoms)]
            shared: Dict[int, tuple] = {}  # per run length, the masks repeated over that many chains
            for length, entries in packed:
                if length not in shared:
                    low = ((1 << length * n_worlds) - 1) // ((1 << n_worlds) - 1)
                    shared[length] = tuple(m * low for m in base)
                segments = len(group) * length
                yield segments, shared[length], entries if len(group) == copies else tuple(
                    s & (1 << segments * n_worlds) - 1 for s in entries)

    def size():  # the chains, then per block, per masks tuple, and a partial last group's entries
        segments, copies, runs = _layout(n_worlds, max_len, block_bits)
        groups = -(-comb(n_types, n_worlds) // copies)
        word = sys.getsizeof((1 << max(block_bits, n_worlds)) - 1)
        return (_chain_bytes(n_worlds, max_len, block_bits)
                + groups * runs * (sys.getsizeof((0, 0, 0)) + sys.getsizeof(segments))
                + groups * min(runs, 2) * (sys.getsizeof((0,) * n_atoms) + n_atoms * word)
                + sys.getsizeof((0,) * max_len) + max_len * word)

    return _kept(("blocks", n_atoms, n_worlds, max_len, block_bits), size, build, share=8)


@functools.lru_cache(maxsize=1024)
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
    __slots__ = ("max_worlds", "max_context_len")

    def __init__(self, max_worlds: int, max_context_len: int):
        if max_worlds < 1 or max_context_len < 1:
            raise EvaluationError("bounds must be at least 1")
        self._assign(max_worlds, max_context_len)


def search_points(f: Formula, bounds: SearchBounds) -> Optional[ContextualizedPointedModel]:
    """The one enumeration loop: the first enumerated point where ``f`` is false, or ``None``.

    Goes over |W| (at most the 2^k types of f's k atoms), then (canonical
    valuation, chain of length <= the context bound) pairs, a block side by
    side, up to the block where ``f`` first fails; only the empty chain
    without conditionals.  The witness is that block's first pair, at its
    lowest world where ``f`` is false, with the chain as its context, (W) if
    empty.  Satisfying g is falsifying ``~g``, and f agrees with g iff
    ``f <-> g`` is never false.  The witness is not re-checked: callers go
    through :func:`find_countermodel` or ``lewis.v_witness``.
    Raises EvaluationError when the pairs exceed :data:`MAX_ENUMERATION`.
    """
    compiled = CompiledFormula(f)
    names = compiled.atoms or ("p",)
    max_len = bounds.max_context_len if f.depth else 0
    total = 0
    for n in range(1, min(bounds.max_worlds, 1 << len(names)) + 1):
        total += comb(1 << len(names), n) * chain_count(n, max_len)
        if total > MAX_ENUMERATION:
            raise EvaluationError(f"enumeration of at least {total} (valuation, chain) pairs "
                                  f"exceeds the cap of {MAX_ENUMERATION}")
    for n, ev, chain in _blocks(compiled, names, max_len, bounds.max_worlds):
        false_at = ev.full & ~ev.truth_mask(compiled.root, chain)
        if false_at:  # its lowest bit: the block's first pair in search order, at its lowest world
            segment, world = divmod((false_at & -false_at).bit_length() - 1, n)
            worlds, ones = tuple(f"w{i + 1}" for i in range(n)), (1 << n) - 1
            model = Model(worlds, {a: mask_to_worlds(ev.valuation[a] >> segment * n, worlds) for a in names})
            chain = itertools.takewhile(bool, (s >> segment * n & ones for s in chain))  # to the first empty entry
            context = tuple(mask_to_worlds(s, worlds) for s in chain) or (model.world_set,)
            return ContextualizedPointedModel(model, SequenceContext(context), worlds[world])
    return None


def _blocks(compiled: CompiledFormula, names: Tuple[str, ...], max_len: int, max_worlds: int):
    """(|W|, evaluator, packed chain) of each block in search order, segment s holding its s-th pair."""
    for n in range(1, min(max_worlds, 1 << len(names)) + 1):  # only once the search reaches n
        for segments, masks, entries in _type_blocks(len(names), n, min(max_len, n - 1), BLOCK_BITS):
            yield n, ModelEvaluator(compiled, n, dict(zip(names, masks)), segments), entries


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
    bound", not validity.  The witness is :func:`search_points`'s, re-checked
    with :func:`evaluate`.
    """
    return recheck_countermodel(f, search_points(f, bounds))

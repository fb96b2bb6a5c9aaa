import itertools
import random

import pytest

from conwon.fixtures import (
    NONMONO_CONTEXT,
    NONMONO_MODEL,
    REAGAN_CONTEXT,
    REAGAN_MODEL,
    TIGER_CONTEXT,
    TIGER_MODEL,
)
from conwon.formula import And, Atom, CondBox, Not, atoms, parse_formula, render
from conwon.models import (
    Model,
    OrderedDefaultSet,
    SequenceContext,
    core,
    expected,
    hierarchy,
    load_context,
    load_model,
    theta,
    update,
)
from conwon import semantics
from conwon.lewis import PseudoSphereModelV, truth_set_v
from conwon.semantics import (
    CompiledFormula,
    ContextualizedPointedModel,
    EvaluationError,
    ModelEvaluator,
    SearchBounds,
    chain_count,
    chains,
    eval_cpm,
    evaluate,
    extension,
    falsified,
    find_countermodel,
    is_satisfiable_up_to,
    is_valid_up_to,
    mask_to_worlds,
    satisfying_witness,
    search_points,
    truth_masks_agree,
    truth_set,
    _valuations,
)
from conftest import context_chain, iter_contexts, iter_models, nested_boxes, random_formula, random_prop


def fs(*worlds):
    return frozenset(worlds)


# --- worked examples ------------------------------------------------------


def test_tiger_trace():
    model = load_model(TIGER_MODEL)
    context = load_context(TIGER_CONTEXT, model)
    trace = []
    value = evaluate(model, context, "w3", parse_formula("[a_g]~a_d"), trace)
    assert value is True
    assert len(trace) == 1
    step = trace[0]
    assert step.generated == fs("w1", "w2", "w4", "w6")
    assert step.levels == (("|a_g|",), ("D2",), ("D1", "D3"))
    assert step.expected == fs("w1")
    assert step.verdicts == {"w1": True}


def test_reagan_trace():
    model = load_model(REAGAN_MODEL)
    context = load_context(REAGAN_CONTEXT, model)
    trace = []
    value = evaluate(model, context, "w1", parse_formula("[~r][r | a]r"), trace)
    assert value is False
    assert [step.expected for step in trace] == [fs("w3"), fs("w2")]
    assert trace[1].verdicts == {"w2": False}


def test_nonmonotonicity():
    model = load_model(NONMONO_MODEL)
    context = load_context(NONMONO_CONTEXT, model)
    assert evaluate(model, context, "w1", parse_formula("[p]q"))
    assert not evaluate(model, context, "w1", parse_formula("[p & ~q]q"))


# --- structural properties of the clause ----------------------------------


def _small_instances(seed, count, max_len=3):
    rng = random.Random(seed)
    worlds = ("w1", "w2", "w3")
    subsets = [frozenset(c) for k in range(4) for c in itertools.combinations(worlds, k)]
    for _ in range(count):
        valuation = {a: rng.choice(subsets) for a in ("p", "q")}
        model = Model(worlds, valuation)
        seq = tuple(rng.choice(subsets) for _ in range(rng.randint(1, max_len)))
        yield rng, model, SequenceContext(seq)


def test_conditionals_are_world_independent():
    for rng, model, ctx in _small_instances(13, 120):
        f = CondBox(random_prop(rng, ("p", "q"), 1),
                    random_formula(rng, ("p", "q"), modal_budget=1, size=2))
        values = {evaluate(model, ctx, w, f) for w in model.worlds}
        assert len(values) == 1


def test_closed_formulas_are_world_independent():
    for rng, model, ctx in _small_instances(17, 120):
        f = Not(And(CondBox(Atom("p"), random_prop(rng, ("p", "q"), 1)),
                    Not(CondBox(random_prop(rng, ("p", "q"), 1), Atom("q")))))
        values = {evaluate(model, ctx, w, f) for w in model.worlds}
        assert len(values) == 1


def test_derived_operators_match_direct_computation():
    for rng, model, ctx in _small_instances(19, 150):
        alpha = random_prop(rng, ("p", "q"), 1)
        phi = random_prop(rng, ("p", "q"), 1)
        w = rng.choice(model.worlds)
        ext = extension(model, alpha)
        updated = update(ctx, ext)
        exp = expected(model, updated)
        # [a]phi: phi at every expected state under the updated context
        assert evaluate(model, ctx, w, CondBox(alpha, phi)) == all(
            evaluate(model, updated, u, phi) for u in exp
        )
        # <a>phi: phi at some expected state
        assert evaluate(model, ctx, w, Not(CondBox(alpha, Not(phi)))) == any(
            evaluate(model, updated, u, phi) for u in exp
        )
        # E a: the antecedent has a nonempty extension
        assert evaluate(
            model, ctx, w, Not(CondBox(alpha, parse_formula("false")))
        ) == bool(ext)
        # A a: the extension covers every world
        assert evaluate(
            model, ctx, w, CondBox(Not(alpha), parse_formula("false"))
        ) == (ext == model.world_set)


def test_expected_update_identities():
    # four identities tying expected states to updates
    for rng, model, ctx in _small_instances(23, 200):
        alpha = random_prop(rng, ("p", "q"), 1)
        beta = random_prop(rng, ("p", "q"), 1)
        a, b = extension(model, alpha), extension(model, beta)
        # (1) the update has no expected states exactly when the
        #     generated default is empty
        assert (expected(model, update(ctx, a)) == fs()) == (not a)
        # (4) expected states of the update fall inside the default
        assert expected(model, update(ctx, a)) <= a
        both = a & b
        double = update(update(ctx, a), b)
        if both:
            # (2) consecutive updates collapse to the conjunction
            assert expected(model, double) == expected(model, update(ctx, both))
        else:
            # (3) incompatible consecutive updates reset to the base context
            assert expected(model, double) == expected(model, update(theta(model), b))


def test_core_invariance_of_truth():
    for rng, model, ctx in _small_instances(29, 120, max_len=4):
        f = random_formula(rng, ("p", "q"), modal_budget=2, size=3)
        cored = core(ctx)
        for w in model.worlds:
            assert evaluate(model, ctx, w, f) == evaluate(model, cored, w, f)


def test_set_and_sequence_contexts_agree():
    # an ordered default set and the sequence of its level intersections
    # have the same expected states, and satisfy the same formulas while
    # no update re-adds an existing default's extent (the next test); the
    # draws here never do
    worlds = ("w1", "w2", "w3")
    subsets = [frozenset(c) for k in range(4) for c in itertools.combinations(worlds, k)]
    rng = random.Random(31)
    for _ in range(120):
        model = Model(worlds, {a: rng.choice(subsets) for a in ("p", "q")})
        n_defaults = rng.randint(0, 3)
        extents = rng.sample(subsets, n_defaults)
        defaults = {f"D{i}": ext for i, ext in enumerate(extents)}
        names = list(defaults)
        pairs = set()
        for i, j in itertools.combinations(range(len(names)), 2):
            if rng.random() < 0.5:
                pairs.add((names[i], names[j]))
        try:
            ctx = OrderedDefaultSet(defaults, frozenset(pairs))
        except Exception:
            continue
        levels = hierarchy(ctx)
        seq = tuple(
            frozenset.intersection(*(defaults[n] for n in level))
            if level else frozenset(worlds)
            for level in levels
        )
        seq_ctx = SequenceContext(seq)
        assert expected(model, ctx) == expected(model, seq_ctx)
        f = random_formula(rng, ("p", "q"), modal_budget=2, size=3)
        for w in model.worlds:
            assert evaluate(model, ctx, w, f) == evaluate(model, seq_ctx, w, f)


def test_set_and_sequence_contexts_part_where_an_update_repeats_a_default():
    # the set form drops the default whose extent the update adds again, and
    # its hierarchy restratifies; the sequence of level intersections keeps it
    model = Model(("w1", "w2", "w3"), {"p": fs("w1", "w2"), "q": fs("w1")})
    ctx = OrderedDefaultSet({"d": fs("w1", "w2"), "e": fs("w2"), "f": fs("w1", "w3")}, {("d", "e")})
    assert hierarchy(ctx) == (fs("d", "f"), fs("e"))
    seq_ctx = SequenceContext((fs("w1"), fs("w2")))
    assert expected(model, ctx) == expected(model, seq_ctx) == fs("w1")
    f = parse_formula("[p]q")
    assert evaluate(model, ctx, "w1", f) is False
    assert evaluate(model, seq_ctx, "w1", f) is True


def _nesting_model():
    worlds = tuple(f"w{i + 1}" for i in range(8))
    return Model(worlds, {"p": frozenset(worlds[:6]), "q": frozenset(worlds[:4])})


@pytest.mark.parametrize("kind", ["sequence", "ordered-set"])
def test_trace_lists_each_conditional_once_per_context(kind):
    # every expected set below has at least three worlds, so re-walking
    # each consequent per expected world would list over 3^15 steps
    depth, model = 8, _nesting_model()
    context = (theta(model) if kind == "sequence"
               else OrderedDefaultSet({"D": frozenset(model.worlds[1:])}))
    trace = []
    evaluate(model, context, "w1", parse_formula(nested_boxes(depth)), trace)
    assert len(trace) == 2 * depth
    assert [step.antecedent for step in trace] == ["p", "q"] * depth  # outer steps first
    assert all(len(step.expected) >= 3 for step in trace)
    assert all(list(step.verdicts) == sorted(step.expected) for step in trace)


# --- bounded search -------------------------------------------------------


def test_find_countermodel_reports_genuine_countermodels():
    bounds = SearchBounds(2, 3)
    for text in ["[p]q -> [p & ~q]q", "q -> [p]q", "p -> box p"]:
        f = parse_formula(text)
        witness = find_countermodel(f, bounds)
        assert witness is not None
        assert eval_cpm(witness, f) is False


def test_validities_have_no_countermodel():
    bounds = SearchBounds(2, 3)
    for text in ["[p](q -> q)", "[p]q -> ~[p]~q | ~E p", "box (p | ~p)"]:
        assert is_valid_up_to(parse_formula(text), bounds)


# Old search batteries plus depth-4 chains; pairs share an atom set.
CROSS_CHECK = [
    "[p]q -> [p & ~q]q",
    "[p][q]r",
    "E p -> <p> true",
    "[p](q | r) -> ([p]q | [p]r)",
    "~[p]q",
    "[p & q]r",
    "[p & q]q",
    "[p][q][r][p]p",
    "[p][q][p][q]q",
    "[p][q][q][p]p",
    "[p][q][r][p]q",
    "[p | ~p][q]r",  # the update keeps the chain
    "[p]q & [q][p]q",  # one subterm under two chains
    "[p](q | [q]~q)",  # a consequent with a propositional and a closed part
]
CROSS_PAIRS = [
    ("[p][q]r", "[p & q]r"),
    ("[p][q][p][q]q", "[p & q]q"),
    ("~[p]q", "[p]q -> [p & ~q]q"),
]


def _oracle_masks(f, max_worlds, max_len):
    """``truth_set``'s mask of ``f`` at every valuation and duplicate-free context.

    Also checks the kernel's mask at the context's chain against it.
    """
    names = tuple(sorted(atoms(f))) or ("p",)
    compiled = CompiledFormula(f)
    table = {}
    for n in range(1, max_worlds + 1):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        contexts = [(ctx, SequenceContext(tuple(mask_to_worlds(d, worlds) for d in ctx)), context_chain(ctx, n))
                    for ctx in iter_contexts(n, max_len)]
        for valuation in iter_models(names, n):
            model = Model(worlds, {a: mask_to_worlds(m, worlds) for a, m in valuation.items()})
            kernel = ModelEvaluator(compiled, n, valuation)
            for ctx, context, chain in contexts:
                holds = truth_set(model, context, f)
                mask = sum(1 << i for i, w in enumerate(worlds) if w in holds)
                assert kernel.truth_mask(compiled.root, chain) == mask, (render(f), valuation, ctx)
                table[n, tuple(valuation.values()), ctx] = mask
    return table


def test_chain_search_agrees_with_brute_force():
    # brute force: truth_set over every valuation and every duplicate-free
    # context, against the chain kernel, its verdicts and truth_masks_agree
    for max_worlds, max_len in [(2, 3), (3, 2)]:
        bounds = SearchBounds(max_worlds, max_len)
        tables = {}
        for text in CROSS_CHECK:
            f = parse_formula(text)
            tables[text] = table = _oracle_masks(f, max_worlds, max_len)
            falsified = any(mask != (1 << key[0]) - 1 for key, mask in table.items())
            witness = find_countermodel(f, bounds)
            assert (witness is not None) == falsified, (text, max_worlds, max_len)
        for a, b in CROSS_PAIRS:
            witness = truth_masks_agree(parse_formula(a), parse_formula(b), max_worlds, max_len)
            assert (witness is not None) == (tables[a] != tables[b]), (a, b, max_worlds, max_len)


# Nested |> formulas: a consequent under |> sees the chain of its conditional.
CROSS_CHECK_V = [
    "p |> (q |> p)",
    "~(p |> ~(q |> r))",
    "(p |> q) |> (q |> r)",
    "(p | q) |> (~(p |> ~q) -> q)",
    "p |> ((q |> r) & ~(r |> ~p))",
    "((p |> q) & (q |> p)) -> ((p |> r) <-> (q |> r))",
]


def test_v_kernel_masks_agree_with_pseudo_spheres():
    # brute force: the kernel's mask of each formula under every chain, at
    # every valuation, against truth_set_v on the chain's pseudo-sphere model
    # Sm, S(m-1) - Sm, ..., W - S1
    for text in CROSS_CHECK_V:
        f = parse_formula(text, dialect="v")
        names = tuple(sorted(atoms(f)))
        compiled = CompiledFormula(f)
        for n in range(1, 4):
            worlds, full = tuple(f"w{i + 1}" for i in range(n)), (1 << n) - 1
            for valuation in iter_models(names, n):
                model = Model(worlds, {a: mask_to_worlds(m, worlds) for a, m in valuation.items()})
                kernel = ModelEvaluator(compiled, n, valuation)
                for chain in chains(n, n - 1):
                    entries = (full,) + chain
                    spheres = [entries[-1]] + [entries[j - 1] & ~entries[j] for j in range(len(chain), 0, -1)]
                    m = PseudoSphereModelV(model, [mask_to_worlds(s, worlds) for s in spheres])
                    holds = truth_set_v(m, f)
                    mask = sum(1 << i for i, w in enumerate(worlds) if w in holds)
                    assert kernel.truth_mask(compiled.root, chain) == mask, (text, valuation, chain)


def test_deep_propositional_formula_goes_through_the_search():
    # 5,000 nested ~ and & are lowered, searched and re-checked by the
    # set-based evaluator without one stack frame per level
    f = Atom("p")
    for i in range(5000):
        f = And(Not(f), Atom("q")) if i % 2 else Not(f)
    witness = find_countermodel(f, SearchBounds(2, 2))
    assert witness is not None and not eval_cpm(witness, f)
    assert find_countermodel(Not(And(f, Not(f))), SearchBounds(2, 2)) is None


def test_chains_count_ordered_partitions():
    # the empty chain plus strictly decreasing chains: Fubini numbers
    # once the length bound saturates at |W| - 1
    for n, fubini in [(1, 1), (2, 3), (3, 13), (4, 75)]:
        assert len(chains(n, n)) == chain_count(n, n) == fubini
    assert len(chains(4, 2)) == chain_count(4, 2) == 51
    assert chains(3, 0) == ((),)
    # a context and its core share a chain; W and a leading empty set vanish
    assert context_chain((0b011, 0b110, 0b011), 3) == (0b011, 0b010)
    assert context_chain((0b111, 0b001), 3) == (0b001,)
    assert context_chain((0b000, 0b001), 3) == ()


def test_kernel_witnesses_are_rechecked(monkeypatch):
    # a kernel reporting wrong masks is caught by the independent
    # evaluators before any verdict is returned
    from conwon.lewis import satisfying_witness_v

    monkeypatch.setattr(ModelEvaluator, "truth_mask", lambda self, node, chain: 0)
    with pytest.raises(RuntimeError):
        find_countermodel(parse_formula("p | ~p"), SearchBounds(2, 2))
    monkeypatch.setattr(ModelEvaluator, "truth_mask",
                        lambda self, node, chain: self.full if self.compiled.nodes[node][0] == "not" else 0)
    with pytest.raises(RuntimeError):
        truth_masks_agree(parse_formula("p"), parse_formula("~~p"), 2, 2)
    monkeypatch.setattr(ModelEvaluator, "truth_mask", lambda self, node, chain: self.full)
    with pytest.raises(RuntimeError):
        satisfying_witness_v(parse_formula("p & ~p", dialect="v"), 2)


BATCH_CONWON = ["p | ~p", "p & ~q", "p", "[p]p", "[p]q", "[p][q]r", "[p](q -> q)",
                "[p]q -> [p & ~q]q", "~[p]q", "[p][q][p]q", "[p][q]r <-> [p & q]r"]
BATCH_V = ["p | ~p", "p & ~p", "q", "p |> p", "p |> q", "~(p |> q) & E p",
           "(p |> q) & ~(p |> (q | r))", "p |> (q |> p)", "~(p |> ~(q |> r))"]


def _type_set_valuations(names, n):
    """The valuations of ``names`` on n worlds of distinct types, in search order."""
    for types in itertools.combinations(range(1 << len(names)), n):
        yield {a: sum(1 << w for w, t in enumerate(types) if t >> i & 1) for i, a in enumerate(names)}


def _packed_batteries():
    # nested boxes, |>, and closed bodies that send segments down different
    # updated chains; the last of each list is first falsified at valuation
    # (0, 1) under chain ({w2}), after (1, 2) is under the earlier ({w1})
    rng = random.Random(20261019)
    conwon = BATCH_CONWON + ["[p](q | [q]~q)", "[p][q][r][p]q", "[p | ~p][q]r", "[p]([q]r | ~[r]p)",
                             "[q | ~q]p -> p"]
    for dialect, fixed in (("conwon", conwon), ("v", BATCH_V + ["((q | ~q) |> p) -> p"])):
        yield [parse_formula(t, dialect=dialect) for t in fixed] + [
            random_formula(rng, ["p", "q", "r"], rng.randint(1, 3), size=5, dialect=dialect) for _ in range(8)]


@pytest.mark.parametrize("block_bits", [semantics.BLOCK_BITS, 10])
def test_packed_segments_match_single_valuations(monkeypatch, block_bits):
    # each segment of a block, under every chain, has the masks its valuation
    # has alone; the blocks cut the search order into consecutive runs that
    # stay under the cap (10 bits: blocks of 5, 3 and 2 valuations)
    monkeypatch.setattr(semantics, "BLOCK_BITS", block_bits)
    for formulas in _packed_batteries():
        compiled = CompiledFormula()
        roots = [compiled.add(f) for f in formulas]
        names = tuple(sorted(compiled.atom_bit))
        for max_worlds, max_len in [(3, 3), (4, 2)]:
            seen = []
            for n, valuation, ev, candidates in _valuations(compiled, names, max_len, max_worlds):
                assert ev.full.bit_length() <= max(block_bits, n)
                ones = (1 << n) - 1
                for segment in range(ev.full.bit_length() // n):
                    alone = {a: m >> segment * n & ones for a, m in valuation.items()}
                    seen.append((n, alone))
                    single = ModelEvaluator(compiled, n, alone)
                    for chain in candidates:
                        packed = tuple(s * ev.low for s in chain)
                        for f, r in zip(formulas, roots):
                            assert ev.truth_mask(r, packed) >> segment * n & ones == single.truth_mask(r, chain), (
                                render(f), n, alone, chain)
            assert seen == [(n, v) for n in range(1, max_worlds + 1) for v in _type_set_valuations(names, n)]


def _first_falsifying_point(compiled, root, max_worlds, max_len):
    """The first point falsifying ``root``, one valuation at a time: |W|, then valuation, then chain."""
    names = tuple(sorted(a for a, bit in compiled.atom_bit.items() if compiled.atom_bits[root] & bit)) or ("p",)
    for n in range(1, min(max_worlds, 1 << len(names)) + 1):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        for valuation in _type_set_valuations(names, n):
            single = ModelEvaluator(compiled, n, valuation)
            for chain in chains(n, min(max_len if compiled.depths[root] else 0, n - 1)):
                false_at = single.full & ~single.truth_mask(root, chain)
                if false_at:
                    model = Model(worlds, {a: mask_to_worlds(m, worlds) for a, m in valuation.items()})
                    context = tuple(mask_to_worlds(s, worlds) for s in chain) or (model.world_set,)
                    world = worlds[(false_at & -false_at).bit_length() - 1]
                    return ContextualizedPointedModel(model, SequenceContext(context), world)
    return None


@pytest.mark.parametrize("block_bits", [semantics.BLOCK_BITS, 10])
def test_packed_search_keeps_the_single_valuation_order(monkeypatch, block_bits):
    # a block's pick is its lowest segment with any chain picking, at the
    # first such chain: the point a search one valuation at a time meets first
    monkeypatch.setattr(semantics, "BLOCK_BITS", block_bits)
    for formulas in _packed_batteries():
        for max_worlds, max_len in [(3, 3), (4, 2)]:
            compiled = CompiledFormula()
            roots = [compiled.add(f) for f in formulas]
            for f, r in zip(formulas, roots):
                witness = search_points(compiled, (r,), SearchBounds(max_worlds, max_len), falsified)
                first = _first_falsifying_point(compiled, r, max_worlds, max_len)
                assert (witness and witness.to_json()) == (first and first.to_json()), (render(f), block_bits)


def test_satisfiability_helpers():
    bounds = SearchBounds(2, 3)
    assert is_satisfiable_up_to(parse_formula("p & ~q"), bounds)
    assert not is_satisfiable_up_to(parse_formula("p & ~p"), bounds)
    witness = satisfying_witness(parse_formula("[p]q & ~q"), bounds)
    assert witness is not None
    assert eval_cpm(witness, parse_formula("[p]q & ~q"))


def test_search_is_deterministic():
    f = parse_formula("[p]q -> [p & ~q]q")
    w1 = find_countermodel(f, SearchBounds(2, 3))
    w2 = find_countermodel(f, SearchBounds(2, 3))
    assert w1 == w2


# --- errors ---------------------------------------------------------------


def test_extension_requires_propositional():
    model = load_model(NONMONO_MODEL)
    with pytest.raises(EvaluationError):
        extension(model, parse_formula("[p]q"))


def test_unknown_world_rejected():
    model = load_model(NONMONO_MODEL)
    context = load_context(NONMONO_CONTEXT, model)
    with pytest.raises(EvaluationError):
        ContextualizedPointedModel(model, context, "w9")
    for text in ["~p", "[p]q"]:
        with pytest.raises(EvaluationError, match="unknown world 'w9'"):
            evaluate(model, context, "w9", parse_formula(text))

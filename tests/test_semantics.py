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
    load_context,
    load_model,
    theta,
    update,
)
from conwon.semantics import (
    CompiledFormula,
    ContextualizedPointedModel,
    EvaluationError,
    ModelEvaluator,
    SearchBounds,
    chain_count,
    chains,
    context_chain,
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
)
from conftest import iter_contexts, iter_models, random_formula, random_prop


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
    # an ordered default set behaves like the sequence of its level
    # intersections
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
        from conwon.models import hierarchy

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
    """``evaluate``'s truth mask of ``f`` at every valuation and duplicate-free context.

    Also checks the kernel's mask at the context's chain against it.
    """
    names = tuple(sorted(atoms(f))) or ("p",)
    compiled = CompiledFormula(f)
    table = {}
    for n in range(1, max_worlds + 1):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        for valuation in iter_models(names, n):
            model = Model(worlds, {a: mask_to_worlds(m, worlds) for a, m in valuation.items()})
            kernel = ModelEvaluator(compiled, n, valuation)
            for ctx in iter_contexts(n, max_len):
                context = SequenceContext(tuple(mask_to_worlds(d, worlds) for d in ctx))
                mask = sum(1 << i for i, w in enumerate(worlds) if evaluate(model, context, w, f))
                assert kernel.truth_mask(compiled.root, context_chain(ctx, n)) == mask, (
                    render(f), valuation, ctx)
                table[n, tuple(valuation.values()), ctx] = mask
    return table


def test_chain_search_agrees_with_brute_force():
    # brute force: evaluate over every valuation and every duplicate-free
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


def _batched(compiled, formulas, bounds, select):
    # roots are added one at a time, as the soundness sweep adds its instances
    return search_points(compiled, [(compiled.add(f),) for f in formulas], bounds, select)


def test_batched_search_matches_single_searches():
    # one multi-query search over a shared DAG gives each query the witness
    # it gets alone: the same points in the same order, dropped at its pick
    from conwon.lewis import satisfying_witness_v, v_witness

    rng = random.Random(20261018)
    for max_worlds, max_len in [(2, 3), (3, 2)]:
        bounds = SearchBounds(max_worlds, max_len)
        formulas = [parse_formula(t) for t in BATCH_CONWON] + [
            random_formula(rng, ["p", "q", "r"][:rng.randint(1, 3)], rng.randint(0, 3), size=5)
            for _ in range(30)]
        found = _batched(CompiledFormula(), formulas, bounds, falsified)
        singles = [find_countermodel(f, bounds) for f in formulas]
        assert {w is None for w in singles} == {True, False}
        for f, batched, single in zip(formulas, found, singles):
            assert (batched is None) == (single is None), render(f)
            assert batched is None or batched.to_json() == single.to_json(), render(f)
            if single is not None and len(single.model.worlds) > 1:
                # the first pick is on the fewest worlds
                assert find_countermodel(f, SearchBounds(len(single.model.worlds) - 1, max_len)) is None

        formulas = [parse_formula(t, dialect="v") for t in BATCH_V] + [
            random_formula(rng, ["p", "q", "r"][:rng.randint(1, 3)], rng.randint(0, 3), size=5, dialect="v")
            for _ in range(30)]
        found = _batched(CompiledFormula(), formulas, SearchBounds(max_worlds, max_worlds),
                         lambda masks, full: masks[0])
        singles = [satisfying_witness_v(f, max_worlds) for f in formulas]
        assert {w is None for w in singles} == {True, False}
        for f, batched, single in zip(formulas, found, singles):
            batched = v_witness(f, batched)
            assert (batched is None) == (single is None), render(f)
            if batched is not None:
                assert (batched[0].to_json(), batched[1]) == (single[0].to_json(), single[1]), render(f)


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

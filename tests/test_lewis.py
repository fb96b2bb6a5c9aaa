import itertools
import random

import pytest

from conwon import lewis
from conwon.formula import (And, Atom, CondBox, CondCorner, Not, atoms, dialect_of, is_flat, is_propositional,
                            modal_depth, parse_formula, render, translate_flat)
from conwon.lewis import (
    PseudoSphereModelV,
    context_to_partition,
    eval_v,
    flat_equivalence_check,
    partition_to_context,
    satisfying_witness_v,
    truth_set_v,
)
from conwon.models import Model, SchemaError
from conwon.semantics import CompiledFormula, EvaluationError, SearchBounds, eval_cpm, find_countermodel
from conftest import (RelationalModelV, formula_battery, iter_pseudo_sphere_models, ordered_partitions,
                      random_formula, truth_set_relational, universal_order)


def pv(text):
    return parse_formula(text, dialect="v")


def fs(*worlds):
    return frozenset(worlds)


def _subsets(worlds):
    return [frozenset(c) for k in range(len(worlds) + 1)
            for c in itertools.combinations(worlds, k)]


# --- the divergence between the two conditionals --------------------------


def test_divergence_fact():
    # the conwon side is valid in bounds, the v side fails on a
    # two-world relational model
    conwon_side = parse_formula("E (p & q) -> [p][q](p & q)")
    assert find_countermodel(conwon_side, SearchBounds(2, 3)) is None
    model = Model(("w1", "w2"), {"p": fs("w1"), "q": fs("w1", "w2")})
    relational = universal_order(model, {("w2", "w1")})
    v_side = pv("E (p & q) -> (p |> (q |> (p & q)))")
    assert "w1" not in truth_set_relational(relational, v_side)
    # the antecedent of the implication does hold there
    assert "w1" in truth_set_relational(relational, pv("E (p & q)"))


# --- the pseudo-sphere clause against the relational reference -------------


def _order_from_blocks(blocks):
    pairs = set()
    for i, a in enumerate(blocks):
        for b in blocks[i + 1:]:
            pairs.update((x, y) for x in a for y in b)
    return frozenset(pairs)


def test_four_semantics_agree_exhaustively():
    # every ordered partition of 1-3 worlds, read as pseudo-spheres and as
    # the relational model of its order, gives every formula the same truth set
    formulas = [
        pv("p |> q"),
        pv("~(p |> ~q) & (true |> p)"),
        pv("(p |> q) -> ((p & q) |> q)"),
        pv("(p |> q) |> (q |> p)"),
    ]
    for n in (1, 2, 3):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        subsets = _subsets(worlds)
        rng = random.Random(41)
        valuations = [{"p": rng.choice(subsets), "q": rng.choice(subsets)} for _ in range(12)]
        for blocks in ordered_partitions(worlds):
            for valuation in valuations:
                model = Model(worlds, valuation)
                pseudo = PseudoSphereModelV(model, blocks)
                relational = universal_order(model, _order_from_blocks(blocks))
                for f in formulas:
                    assert truth_set_v(pseudo, f) == truth_set_relational(relational, f), (blocks, valuation, f)


def test_empty_blocks_do_not_matter():
    worlds = ("w1", "w2", "w3")
    model = Model(worlds, {"p": fs("w2"), "q": fs("w1", "w2")})
    f = pv("p |> q")
    g = pv("~(q |> ~p)")
    for blocks in ordered_partitions(worlds):
        base = PseudoSphereModelV(model, blocks)
        for pos in range(len(blocks) + 1):
            padded = PseudoSphereModelV(
                model, blocks[:pos] + (frozenset(),) + blocks[pos:]
            )
            for w in worlds:
                assert eval_v(base, w, f) == eval_v(padded, w, f)
                assert eval_v(base, w, g) == eval_v(padded, w, g)


# --- transformations ------------------------------------------------------


def test_partition_to_context_suffix_unions():
    for n in range(1, 5):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        full = frozenset(worlds)
        for blocks in ordered_partitions(worlds):
            xs = partition_to_context(blocks)
            assert len(xs) == len(blocks)
            assert xs[0] == full
            for j in range(len(blocks)):
                assert xs[j] == frozenset().union(*blocks[j:])
            # entries shrink, and the round trip recovers the partition
            for a, b in zip(xs, xs[1:]):
                assert b < a
            assert context_to_partition(xs, full) == blocks


def test_context_to_partition_properties():
    # arbitrary shrinking-free sequences starting at the full set
    for n in (2, 3):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        full = frozenset(worlds)
        subsets = _subsets(worlds)
        for tail in itertools.product(subsets, repeat=2):
            xs = (full,) + tail
            ys = context_to_partition(xs, full)
            # disjoint blocks covering the world set
            assert sum(len(y) for y in ys) == len(frozenset().union(*ys))
            assert frozenset().union(*ys) == full
            # greedy-intersection correspondence for every test set
            runnings = []
            running = full
            for i, x in enumerate(xs):
                running = running & x if i else full
                runnings.append(running)
            for z in subsets:
                if not z:
                    continue
                hits = [l for l in range(len(xs)) if z & runnings[l]]
                l = max(hits)  # index 0 always hits since X_0 = W
                assert z & runnings[l] == z & ys[l]
                assert max(j for j in range(len(ys)) if z & ys[j]) == l


def test_context_to_partition_requires_full_first_entry():
    with pytest.raises(SchemaError):
        context_to_partition((fs("w1"),), fs("w1", "w2"))


# --- validation -----------------------------------------------------------


def test_block_validation():
    model = Model(("w1", "w2"), {})
    with pytest.raises(SchemaError, match="empty"):
        partition_to_context((fs("w1"), fs(), fs("w2")))
    with pytest.raises(SchemaError, match="overlap"):
        PseudoSphereModelV(model, (fs("w1"), fs("w1", "w2")))
    with pytest.raises(SchemaError, match="cover"):
        PseudoSphereModelV(model, (fs("w1"),))


def test_relational_order_validation():
    model = Model(("w1", "w2", "w3"), {})
    bad = frozenset({("w1", "w2"), ("w2", "w3")})  # not transitive
    with pytest.raises(SchemaError, match="not transitive"):
        universal_order(model, bad)
    with pytest.raises(SchemaError, match="not irreflexive"):
        universal_order(model, {("w1", "w1")})
    with pytest.raises(SchemaError, match="not almost connected"):
        universal_order(model, {("w1", "w2")})
    with pytest.raises(SchemaError, match="leaves the world set"):
        RelationalModelV(model, {w: (fs("w1", "w9"), frozenset()) for w in model.worlds})


def test_eval_v_rejects_unknown_world():
    model = Model(("w1", "w2"), {"p": fs("w1")})
    m = PseudoSphereModelV(model, (fs("w1"), fs("w2")))
    with pytest.raises(EvaluationError, match="unknown world 'w9'"):
        eval_v(m, "w9", pv("~p"))


def test_eval_v_decides_each_corner_once(monkeypatch):
    # one sphere-clause call per |> node, however many worlds each
    # antecedent and consequent hold
    calls = []
    clause = lewis._conditional_blocks
    monkeypatch.setattr(lewis, "_conditional_blocks", lambda *args: calls.append(1) or clause(*args))
    worlds = tuple(f"w{i + 1}" for i in range(8))
    model = Model(worlds, {"p": frozenset(worlds[:6]), "q": frozenset(worlds[:4])})
    m = PseudoSphereModelV(model, (frozenset(worlds[4:]), frozenset(worlds[:4])))
    f = pv("p")
    for _ in range(8):
        f = CondCorner(Atom("p"), And(Atom("q"), f))
    eval_v(m, "w1", f)
    assert len(calls) == 8


# --- enumeration and the equivalence harness ------------------------------


EVERY_CHAIN_3 = SearchBounds(3, 2)  # up to 3 worlds, chains of length <= |W| - 1: every pseudo-sphere order


def test_v_validities_on_pseudo_spheres():
    for text in [
        "p |> p",
        "((p |> q) & (p |> r)) -> (p |> (q & r))",
        "(p & q) |> (p | r)",
    ]:
        assert satisfying_witness_v(pv(f"~({text})"), EVERY_CHAIN_3) is None, text


def test_v_satisfiable_both_ways():
    m, w = satisfying_witness_v(pv("~(p |> q) & E p"), EVERY_CHAIN_3)
    assert eval_v(m, w, pv("~(p |> q)"))
    assert satisfying_witness_v(pv("p & ~p"), EVERY_CHAIN_3) is None


def _satisfiable_both_ways(f, models):
    """(f holds somewhere, f fails somewhere) over every point of ``models``."""
    holds = fails = False
    for m in models:
        truth = truth_set_v(m, f)
        holds, fails = holds or bool(truth), fails or truth != m.model.world_set
        if holds and fails:
            break
    return holds, fails


def test_v_kernel_agrees_with_pseudo_sphere_enumeration():
    # brute force: truth_set_v over every enumerated pseudo-sphere point at
    # |W| <= 3, for nested |> formulas, a 2-atom battery and a 3-atom flat
    # battery, each formula and its negation
    fixed = [pv(t) for t in [
        "(p |> q) |> r",
        "~((p |> q) |> (q |> p))",
        "((p |> q) & (q |> p)) -> ((p |> r) <-> (q |> r))",
        "(p | q) |> (~(p |> ~q) -> q)",
        "E (p & q) -> (p |> (q |> (p & q)))",
        "((p |> q) & (p |> r)) -> (p |> (q & r))",
        "(p |> r) & (q |> r) & ~((p | q) |> r)",
    ]]
    battery = formula_battery(41, 100, ("p", "q"), 3, dialect="v")
    rng = random.Random(20261020)
    flat = []
    while len(flat) < 60:
        f = random_formula(rng, ("p", "q", "r"), 1, size=4, dialect="v")
        flat += [f] if is_flat(f) and modal_depth(f) == 1 and atoms(f) == {"p", "q", "r"} else []
    models = {}
    for f in fixed + [f for f in battery if modal_depth(f) > 0] + flat:
        names = tuple(sorted(atoms(f))) or ("p",)
        if names not in models:
            models[names] = list(iter_pseudo_sphere_models(names, 3))
        for g, brute in zip((f, Not(f)), _satisfiable_both_ways(f, models[names])):
            assert (satisfying_witness_v(g, EVERY_CHAIN_3) is not None) == brute, render(g)


def test_pseudo_sphere_json():
    # as sweep failure lines print a V witness: the model, then the blocks, least first, empty ones kept
    model = Model(("w1", "w2", "w3"), {"p": fs("w2")})
    m = PseudoSphereModelV(model, (fs("w2"), fs(), fs("w1", "w3")))
    assert m.to_json() == {"worlds": ["w1", "w2", "w3"], "valuation": {"p": ["w2"]},
                           "spheres": [["w2"], [], ["w1", "w3"]]}


def test_flat_equivalence_harness():
    bounds = SearchBounds(3, 3)
    for text in ["[p]q", "[p]q & ~q", "p -> p", "p & ~p"]:
        report = flat_equivalence_check(parse_formula(text), bounds)
        assert report.agrees, text
        assert "FAILED" not in " ".join(report.transport_checks)
    # corner-dialect input goes through the flat translation
    report = flat_equivalence_check(pv("p |> q"), bounds)
    assert report.agrees
    assert len(report.transport_checks) == 2
    assert all(check.endswith("verified") for check in report.transport_checks)


def test_flat_equivalence_keeps_the_enumeration_cap(monkeypatch):
    # [p]q at (3, 1): 50 (valuation, chain) pairs, searched once for both sides
    from conwon import semantics

    f = parse_formula("[p]q")
    monkeypatch.setattr(semantics, "MAX_ENUMERATION", 50)
    assert flat_equivalence_check(f, SearchBounds(3, 1)).agrees
    monkeypatch.setattr(semantics, "MAX_ENUMERATION", 49)
    with pytest.raises(EvaluationError, match="at least 50 .* exceeds the cap of 49"):
        flat_equivalence_check(f, SearchBounds(3, 1))
    with pytest.raises(EvaluationError, match="at least 50 .* exceeds the cap of 49"):
        satisfying_witness_v(parse_formula("p |> q", dialect="v"), SearchBounds(3, 1))


def _two_search_report(f, bounds):
    """The report as one search per dialect gave it, each transport check run, as a tuple."""
    f_conwon = translate_flat(f, "conwon") if dialect_of(f) == "v" else f
    f_v = translate_flat(f_conwon, "v")
    conwon_wit, v_wit = find_countermodel(Not(f_conwon), bounds), satisfying_witness_v(f_v, bounds)
    checks = []
    if isinstance(f_conwon, CondBox) and is_propositional(f_conwon.consequent):
        if v_wit is not None:
            cpm = lewis._transport_v_to_conwon(v_wit[0], f_conwon)
            checks.append(f"V witness transported to a context: {'verified' if eval_cpm(cpm, f_conwon) else 'FAILED'}")
        if conwon_wit is not None:
            ok = eval_v(*lewis._transport_conwon_to_v(conwon_wit), f_v)
            checks.append(f"context witness transported to pseudo-spheres: {'verified' if ok else 'FAILED'}")
    return (render(f_conwon), conwon_wit is not None, v_wit is not None, conwon_wit and conwon_wit.to_json(),
            v_wit and (v_wit[0].to_json(), v_wit[1]), checks)


def test_flat_equivalence_searches_once(monkeypatch):
    # a flat formula's negation and its |> translation's lower to the same
    # nodes, so one search serves both sides and the report is the one two
    # searches, one per dialect, gave
    calls = []
    search_points = lewis.search_points
    monkeypatch.setattr(lewis, "search_points", lambda f, bounds: calls.append(f) or search_points(f, bounds))
    rng = random.Random(20261025)
    for dialect in ("conwon", "v"):
        battery = [parse_formula(t, dialect=dialect) for t in
                   (["[p]q", "[p]q & ~q", "~[p | q]~p", "p & ~p"] if dialect == "conwon" else ["p |> q", "~(p |> q) & q"])]
        while len(battery) < 100:
            f = random_formula(rng, ("p", "q", "r"), 1, size=4, dialect=dialect)
            battery += [f] if is_flat(f) else []
        for f in battery:
            f_conwon = translate_flat(f, "conwon") if dialect == "v" else f
            assert CompiledFormula(Not(f_conwon)).nodes == CompiledFormula(Not(translate_flat(f_conwon, "v"))).nodes
            for bounds in (SearchBounds(2, 1), SearchBounds(3, 2)):
                calls.clear()
                report = flat_equivalence_check(f, bounds)
                assert len(calls) == 1, render(f)
                assert (report.formula, report.conwon_satisfiable, report.v_satisfiable,
                        report.conwon_witness and report.conwon_witness.to_json(),
                        report.v_witness and (report.v_witness[0].to_json(), report.v_witness[1]),
                        report.transport_checks) == _two_search_report(f, bounds), render(f)


def test_flat_equivalence_rejects_nested():
    with pytest.raises(EvaluationError, match="expects a flat formula"):
        flat_equivalence_check(parse_formula("[p][q]r"), SearchBounds(2, 2))


def test_enumeration_counts():
    # ordered set partitions of n items: Fubini numbers 1, 3, 13
    for n, count in [(1, 1), (2, 3), (3, 13)]:
        worlds = tuple(f"w{i + 1}" for i in range(n))
        assert sum(1 for _ in ordered_partitions(worlds)) == count
    models = list(iter_pseudo_sphere_models(("p",), 2))
    # model search keeps one partition per relabelling class:
    # n=1: 2 valuations x 1 partition; n=2: 4 valuations x 2 partitions
    assert len(models) == 2 + 8

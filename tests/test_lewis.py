import itertools
import random

import pytest

from conwon import lewis
from conwon.formula import And, Atom, CondCorner, Not, atoms, modal_depth, parse_formula, render
from conwon.lewis import (
    PseudoSphereModelV,
    RelationalModelV,
    SphereModelV,
    UniversalRelationalModelV,
    context_to_partition,
    eval_v,
    flat_equivalence_check,
    load_pseudo_sphere,
    ordered_partitions,
    partition_to_context,
    satisfying_witness_v,
    universal_to_sphere,
)
from conwon.models import Model, SchemaError
from conwon.semantics import EvaluationError, SearchBounds
from conftest import formula_battery, iter_pseudo_sphere_models


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
    from conwon.semantics import find_countermodel

    assert find_countermodel(conwon_side, SearchBounds(2, 3)) is None
    model = Model(("w1", "w2"), {"p": fs("w1"), "q": fs("w1", "w2")})
    order = frozenset({("w2", "w1")})
    relational = RelationalModelV(model, {w: (model.world_set, order) for w in model.worlds})
    v_side = pv("E (p & q) -> (p |> (q |> (p & q)))")
    assert eval_v(relational, "w1", v_side) is False
    # the antecedent of the implication does hold there
    assert eval_v(relational, "w1", pv("E (p & q)"))


# --- the four model classes agree ------------------------------------------


def _order_from_blocks(blocks):
    pairs = set()
    for i, a in enumerate(blocks):
        for b in blocks[i + 1:]:
            pairs.update((x, y) for x in a for y in b)
    return frozenset(pairs)


def test_four_semantics_agree_exhaustively():
    worlds = ("w1", "w2", "w3")
    subsets = _subsets(worlds)
    formulas = [
        pv("p |> q"),
        pv("~(p |> ~q) & (true |> p)"),
        pv("(p |> q) -> ((p & q) |> q)"),
    ]
    rng = random.Random(41)
    valuations = [
        {"p": rng.choice(subsets), "q": rng.choice(subsets)} for _ in range(12)
    ]
    for blocks in ordered_partitions(worlds):
        order = _order_from_blocks(blocks)
        for valuation in valuations:
            model = Model(worlds, valuation)
            sphere = SphereModelV(model, blocks)
            pseudo = PseudoSphereModelV(model, blocks)
            universal = UniversalRelationalModelV(model, order)
            relational = RelationalModelV(
                model, {w: (model.world_set, order) for w in worlds}
            )
            for f in formulas:
                for w in worlds:
                    vals = {
                        eval_v(sphere, w, f),
                        eval_v(pseudo, w, f),
                        eval_v(universal, w, f),
                        eval_v(relational, w, f),
                    }
                    assert len(vals) == 1, (blocks, valuation, f, w)


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


def test_universal_to_sphere_example():
    model = Model(("w1", "w2"), {"p": fs("w1"), "q": fs("w1", "w2")})
    m = UniversalRelationalModelV(model, frozenset({("w2", "w1")}))
    assert universal_to_sphere(m).blocks == (fs("w2"), fs("w1"))


def test_universal_to_sphere_round_trip():
    for n in range(1, 5):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        model = Model(worlds, {})
        for blocks in ordered_partitions(worlds):
            m = UniversalRelationalModelV(model, _order_from_blocks(blocks))
            assert universal_to_sphere(m).blocks == blocks


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
        SphereModelV(model, (fs("w1"), fs(), fs("w2")))
    with pytest.raises(SchemaError, match="overlap"):
        PseudoSphereModelV(model, (fs("w1"), fs("w1", "w2")))
    with pytest.raises(SchemaError, match="cover"):
        PseudoSphereModelV(model, (fs("w1"),))


def test_relational_order_validation():
    model = Model(("w1", "w2", "w3"), {})
    bad = frozenset({("w1", "w2"), ("w2", "w3")})  # not transitive
    with pytest.raises(SchemaError):
        RelationalModelV(model, {w: (model.world_set, bad) for w in model.worlds})
    with pytest.raises(SchemaError):
        UniversalRelationalModelV(model, frozenset({("w1", "w1")}))


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


def test_v_validities_on_pseudo_spheres():
    for text in [
        "p |> p",
        "((p |> q) & (p |> r)) -> (p |> (q & r))",
        "(p & q) |> (p | r)",
    ]:
        assert satisfying_witness_v(pv(f"~({text})"), 3) is None, text


def test_v_satisfiable_both_ways():
    m, w = satisfying_witness_v(pv("~(p |> q) & E p"), 3)
    assert eval_v(m, w, pv("~(p |> q)"))
    assert satisfying_witness_v(pv("p & ~p"), 3) is None


def test_v_kernel_agrees_with_pseudo_sphere_enumeration():
    # brute force: eval_v over every enumerated pseudo-sphere point at
    # |W| <= 3, for nested |> formulas and their negations
    fixed = [pv(t) for t in [
        "(p |> q) |> r",
        "~((p |> q) |> (q |> p))",
        "((p |> q) & (q |> p)) -> ((p |> r) <-> (q |> r))",
        "(p | q) |> (~(p |> ~q) -> q)",
        "E (p & q) -> (p |> (q |> (p & q)))",
    ]]
    battery = formula_battery(41, 100, ("p", "q"), 3, dialect="v")
    formulas = fixed + [f for f in battery if modal_depth(f) > 0]
    for f in formulas:
        for g in (f, Not(f)):
            names = tuple(sorted(atoms(g))) or ("p",)
            brute = any(
                eval_v(m, w, g)
                for m in iter_pseudo_sphere_models(names, 3)
                for w in m.model.worlds
            )
            assert (satisfying_witness_v(g, 3) is not None) == brute, render(g)


def test_pseudo_sphere_json_round_trip():
    model = Model(("w1", "w2", "w3"), {"p": fs("w2")})
    m = PseudoSphereModelV(model, (fs("w2"), fs(), fs("w1", "w3")))
    again = load_pseudo_sphere(m.to_json())
    assert again == m


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


def test_flat_equivalence_keeps_the_enumeration_cap():
    # [p]q at (3, 1): 50 (valuation, chain) pairs on the conwon side, 74 on
    # the V side, which searches every chain
    f = parse_formula("[p]q")
    assert flat_equivalence_check(f, SearchBounds(3, 1, max_enumeration=74)).agrees
    with pytest.raises(EvaluationError, match="at least 74 .* exceeds the cap of 60"):
        flat_equivalence_check(f, SearchBounds(3, 1, max_enumeration=60))
    with pytest.raises(EvaluationError, match="exceeds the cap of 60"):
        satisfying_witness_v(parse_formula("p |> q", dialect="v"), 3, max_enumeration=60)


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

import itertools
import json
import random

import pytest

from conwon.models import (
    _transitive_closure,
    Model,
    OrderedDefaultSet,
    SchemaError,
    SequenceContext,
    core,
    expected,
    hierarchy,
    load_context,
    load_model,
    save,
    theta,
    update,
)

W4 = ("w1", "w2", "w3", "w4")


def fs(*worlds):
    return frozenset(worlds)


# --- hierarchy ------------------------------------------------------------


def test_hierarchy_empty_default_set():
    ctx = OrderedDefaultSet({}, frozenset())
    assert hierarchy(ctx) == (frozenset(),)


def test_hierarchy_two_levels():
    ctx = OrderedDefaultSet(
        {"D1": fs("w1"), "D2": fs("w2"), "D3": fs("w3")},
        frozenset({("D1", "D2"), ("D1", "D3")}),
    )
    assert hierarchy(ctx) == (frozenset({"D1"}), frozenset({"D2", "D3"}))


def test_hierarchy_chain_takes_transitive_closure():
    ctx = OrderedDefaultSet(
        {"D1": fs("w1"), "D2": fs("w2"), "D3": fs("w3")},
        frozenset({("D1", "D2"), ("D2", "D3")}),
    )
    assert hierarchy(ctx) == (fs("D1"), fs("D2"), fs("D3"))
    assert ctx.prefers("D1", "D3")


def test_order_must_be_strict():
    with pytest.raises(SchemaError):
        OrderedDefaultSet({"D1": fs("w1"), "D2": fs("w2")},
                          frozenset({("D1", "D2"), ("D2", "D1")}))
    with pytest.raises(SchemaError):
        OrderedDefaultSet({"D1": fs("w1")}, frozenset({("D1", "D1")}))


def test_transitive_closure_matches_reachability():
    rng = random.Random(7)
    names = ["D1", "D2", "D3", "D4", "D5"]
    for _ in range(200):
        pairs = {(a, b) for a in names for b in names if rng.random() < 0.2}
        reach = set(pairs)
        for _ in names:  # paths have at most len(names) edges
            reach |= {(a, d) for (a, b) in reach for (c, d) in reach if b == c}
        assert _transitive_closure(pairs) == reach


def test_duplicate_extents_rejected():
    with pytest.raises(SchemaError):
        OrderedDefaultSet({"D1": fs("w1"), "D2": fs("w1")}, frozenset())


# --- expected states ------------------------------------------------------


def test_expected_worked_cases():
    model = Model(W4, {})
    # no defaults: intersection over the empty level is W
    assert expected(model, OrderedDefaultSet({}, frozenset())) == fs(*W4)
    # top level contains the empty default: no expected states
    ctx = OrderedDefaultSet(
        {"Dempty": fs(), "Dall": fs(*W4)}, frozenset({("Dempty", "Dall")})
    )
    assert expected(model, ctx) == fs()
    # two-level case from the worked example
    ctx = OrderedDefaultSet(
        {"D1": fs("w1", "w2"), "D2": fs("w2", "w3"), "D3": fs("w3", "w4")},
        frozenset({("D1", "D3"), ("D2", "D3")}),
    )
    assert hierarchy(ctx) == (fs("D1", "D2"), fs("D3"))
    assert expected(model, ctx) == fs("w2")


def test_expected_sequence_cases():
    model = Model(W4, {})
    assert expected(model, SequenceContext((fs(),))) == fs()
    assert expected(model, SequenceContext((fs(), fs(*W4)))) == fs()
    assert expected(model, SequenceContext((fs("w1", "w2"), fs("w2", "w3")))) == fs("w2")
    # stop before an entry that would empty the intersection
    assert expected(model, SequenceContext((fs("w1"), fs("w2"), fs("w1")))) == fs("w1")


def _subsets(worlds):
    out = []
    for k in range(len(worlds) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(worlds, k))
    return out


def test_expected_is_a_prefix_intersection_exhaustive():
    worlds = ("w1", "w2", "w3")
    model = Model(worlds, {})
    subsets = _subsets(worlds)
    rng = random.Random(3)
    for _ in range(300):
        seq = tuple(rng.choice(subsets) for _ in range(rng.randint(1, 4)))
        e = expected(model, SequenceContext(seq))
        if not seq[0]:
            assert e == fs()
            continue
        # e equals the longest nonempty running intersection
        best = seq[0]
        running = seq[0]
        for entry in seq[1:]:
            running = running & entry
            if not running:
                break
            best = running
        assert e == best


# --- update ---------------------------------------------------------------


def test_update_sequence_prepends():
    ctx = SequenceContext((fs("w1"),))
    assert update(ctx, fs("w2")).sequence == (fs("w2"), fs("w1"))


def test_update_set_form_new_default_on_top():
    ctx = OrderedDefaultSet({"D1": fs("w1"), "D2": fs("w2")},
                            frozenset({("D1", "D2")}))
    updated = update(ctx, fs("w3"), name="D3")
    assert hierarchy(updated)[0] == fs("D3")
    assert updated.prefers("D3", "D1") and updated.prefers("D3", "D2")
    assert updated.prefers("D1", "D2")


def test_update_set_form_replaces_equal_extent():
    # re-adding an existing default moves it to the top and drops its
    # old priority pairs
    ctx = OrderedDefaultSet({"D1": fs("w1"), "D2": fs("w2")},
                            frozenset({("D1", "D2")}))
    updated = update(ctx, fs("w2"), name="D2new")
    assert set(updated.defaults) == {"D1", "D2new"}
    assert updated.prefers("D2new", "D1")
    assert not updated.prefers("D1", "D2new")



def test_update_set_form_primes_a_name_taken_by_another_default():
    # the generated name |p| already names {w2}, which stays: the new default is |p|'
    ctx = OrderedDefaultSet({"|p|": fs("w2"), "|p|'": fs("w3")})
    updated = update(ctx, fs("w1"), name="|p|")
    assert updated.defaults == {"|p|": fs("w2"), "|p|'": fs("w3"), "|p|''": fs("w1")}
    assert hierarchy(updated)[0] == fs("|p|''")
    # a name whose own default is replaced is free again
    assert set(update(ctx, fs("w2"), name="|p|").defaults) == {"|p|", "|p|'"}

# --- cores ----------------------------------------------------------------


def test_core_keeps_first_occurrences():
    seq = SequenceContext((fs("w1"), fs("w2"), fs("w1"), fs("w3"), fs("w2")))
    assert core(seq).sequence == (fs("w1"), fs("w2"), fs("w3"))


def test_core_laws_exhaustive_small():
    worlds = ("w1", "w2", "w3")
    model = Model(worlds, {})
    subsets = _subsets(worlds)
    rng = random.Random(5)
    for _ in range(400):
        seq = SequenceContext(tuple(rng.choice(subsets) for _ in range(rng.randint(1, 5))))
        d = rng.choice(subsets)
        assert expected(model, seq) == expected(model, core(seq))
        lhs = core(update(seq, d))
        rhs = core(update(core(seq), d))
        assert lhs == rhs


def test_theta():
    model = Model(("w1", "w2"), {})
    assert theta(model).sequence == (fs("w1", "w2"),)


# --- serialization --------------------------------------------------------


def test_model_round_trip(tmp_path):
    model = load_model({"worlds": ["w2", "w1"], "valuation": {"p": ["w1"]}})
    assert model.worlds == ("w1", "w2")
    path = tmp_path / "model.json"
    save(model, path)
    assert load_model(path) == model


def test_context_round_trip(tmp_path):
    data = {
        "kind": "ordered-set",
        "defaults": {"D1": ["w1"], "D2": ["w2"]},
        "order": [["D1", "D2"]],
    }
    ctx = load_context(data)
    path = tmp_path / "ctx.json"
    save(ctx, path)
    assert load_context(path) == ctx
    seq = load_context({"kind": "sequence", "sequence": [["w1"], []]})
    path2 = tmp_path / "seq.json"
    save(seq, path2)
    assert load_context(path2) == seq


def test_schema_diagnostics():
    with pytest.raises(SchemaError, match="worlds"):
        load_model({"valuation": {}})
    with pytest.raises(SchemaError, match="unknown worlds"):
        load_model({"worlds": ["w1"], "valuation": {"p": ["w9"]}})
    with pytest.raises(SchemaError, match="nonempty"):
        load_model({"worlds": [], "valuation": {}})
    with pytest.raises(SchemaError, match="kind"):
        load_context({"defaults": {}})
    with pytest.raises(SchemaError, match="pair"):
        load_context({"kind": "ordered-set", "defaults": {"D1": ["w1"]}, "order": [["D1"]]})
    with pytest.raises(SchemaError, match="nonempty"):
        load_context({"kind": "sequence", "sequence": []})
    model = load_model({"worlds": ["w1"], "valuation": {}})
    with pytest.raises(SchemaError, match="unknown worlds"):
        load_context({"kind": "sequence", "sequence": [["w2"]]}, model)

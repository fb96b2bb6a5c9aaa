"""The record classes: construction, equality, hashing, immutability, validation,
copying and pickling, as the ``conwon.errors.Record`` base gives them."""

import copy
import pickle

import pytest

from conwon.errors import FrozenRecord, Record
from conwon.formula import parse_formula
from conwon.lewis import EquivalenceReport, PseudoSphereModelV, partition_to_context
from conwon.models import Model, OrderedDefaultSet, SchemaError, SequenceContext, update
from conwon.proofs import ProofStep, Schema, SweepReport, Verdict
from conwon.semantics import (
    ConditionalStep,
    ContextualizedPointedModel,
    EvaluationError,
    SearchBounds,
)
from conftest import RelationalModelV


def fs(*xs):
    return frozenset(xs)


MODEL = Model(("w2", "w1"), {"p": ["w1"]})
BLOCKS = (fs("w1"), fs("w2"))
P = parse_formula("p")

# class -> (positional arguments, the same as keywords)
RECORDS = {
    Model: ((("w1", "w2"), {"p": fs("w1")}), {"worlds": ("w1", "w2"), "valuation": {"p": fs("w1")}}),
    OrderedDefaultSet: (({"D1": fs("w1")}, frozenset()), {"defaults": {"D1": fs("w1")}}),
    SequenceContext: (((fs("w1"),),), {"sequence": (fs("w1"),)}),
    ContextualizedPointedModel: ((MODEL, SequenceContext([["w1"]]), "w2"),
                                 {"model": MODEL, "context": SequenceContext([["w1"]]), "world": "w2"}),
    ConditionalStep: (("p", fs("w1"), None, (fs("w1"),), fs("w1")),
                      {"antecedent": "p", "generated": fs("w1"), "levels": None,
                       "sequence": (fs("w1"),), "expected": fs("w1")}),
    SearchBounds: ((2, 3), {"max_worlds": 2, "max_context_len": 3}),
    RelationalModelV: ((MODEL, {w: (MODEL.world_set, frozenset()) for w in MODEL.worlds}),
                       {"model": MODEL, "gamma": {w: (MODEL.world_set, frozenset()) for w in MODEL.worlds}}),
    PseudoSphereModelV: ((MODEL, BLOCKS), {"model": MODEL, "spheres": BLOCKS}),
    EquivalenceReport: (("p", True, True, None, None, []),
                        {"formula": "p", "conwon_satisfiable": True, "v_satisfiable": True}),
    Schema: (("x.1", P, {"p": "propositional"}),
             {"identifier": "x.1", "template": P, "conditions": {"p": "propositional"}}),
    ProofStep: ((P, {"rule": "taut", "from": []}), {"formula": P, "by": {"rule": "taut", "from": []}}),
    Verdict: ((True, "conwon", []), {"ok": True, "system": "conwon"}),
    SweepReport: (("conwon", 0, []), {"system": "conwon"}),
}
MUTABLE = {ConditionalStep, EquivalenceReport, Verdict, SweepReport}
HASHABLE = {SequenceContext, SearchBounds}
ids = [cls.__name__ for cls in RECORDS]


def build(cls):
    args, kwargs = RECORDS[cls]
    return cls(*args), cls(**kwargs)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_positional_and_keyword_construction_agree(cls):
    by_position, by_keyword = build(cls)
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert repr(by_position) == repr(by_keyword)
    assert repr(by_position).startswith(f"{cls.__name__}({cls.__slots__[0]}=")
    assert isinstance(by_position, FrozenRecord) == (cls not in MUTABLE)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_copy_and_pickle_round_trip(cls):
    record, _ = build(cls)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls
        assert twin == record


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_hashable_exactly_where_it_was(cls):
    a, b = build(cls)
    if cls in HASHABLE:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls", RECORDS, ids=ids)
def test_frozen_records_refuse_writes(cls):
    record, _ = build(cls)
    name = cls.__slots__[0]
    value = getattr(record, name)
    if cls in MUTABLE:
        setattr(record, name, value)
        return
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is value


def test_equality_by_class_and_fields():
    assert SequenceContext([["w1"]]) == SequenceContext((fs("w1"),))
    assert SequenceContext([["w1"]]) != SequenceContext([["w2"]])
    assert SearchBounds(2, 3) != SearchBounds(3, 2)
    # equal fields, different classes
    pseudo, twin = PseudoSphereModelV(MODEL, BLOCKS), type("Twin", (PseudoSphereModelV,), {})(MODEL, BLOCKS)
    assert twin._fields() == pseudo._fields()
    assert twin != pseudo and pseudo != twin
    assert SearchBounds(2, 3) != (2, 3)
    assert Record.__eq__(SearchBounds(2, 3), (2, 3)) is NotImplemented


def test_mutable_reports_get_fresh_lists():
    a, b = Verdict(True, "conwon"), Verdict(True, "conwon")
    a.errors.append("x")
    a.ok = False
    assert b.errors == [] and a != b
    assert SweepReport("v1").failures is not SweepReport("v1").failures
    assert EquivalenceReport("p", True, True).transport_checks == []


def test_model_world_set_is_computed_once_and_not_a_field():
    model = Model(["w2", "w1"], {"p": {"w1"}})
    assert model.worlds == ("w1", "w2")
    assert model.world_set == fs("w1", "w2")
    assert model.world_set is model.world_set
    assert model == Model(("w1", "w2"), {"p": fs("w1")})
    assert repr(model) == "Model(worlds=('w1', 'w2'), valuation={'p': frozenset({'w1'})})"
    assert pickle.loads(pickle.dumps(model)).world_set == model.world_set


def test_update_prepend_equals_a_validated_context():
    context = SequenceContext([["w1", "w2"], ["w2"]])
    prepended = update(context, ["w1"])
    validated = SequenceContext([["w1"], ["w1", "w2"], ["w2"]])
    assert type(prepended) is SequenceContext
    assert prepended == validated and validated == prepended
    assert hash(prepended) == hash(validated)
    assert repr(prepended) == repr(validated)
    assert pickle.loads(pickle.dumps(prepended)) == validated
    with pytest.raises(AttributeError):
        prepended.sequence = ()


@pytest.mark.parametrize("build_bad, error, message", [
    (lambda: Model((), {}), SchemaError, "world set must be nonempty"),
    (lambda: Model(("w1", "w1"), {}), SchemaError, "duplicate world identifier"),
    (lambda: Model(("w1",), {"p": ["w2"]}), SchemaError, "valuation of 'p' mentions unknown worlds"),
    (lambda: OrderedDefaultSet({"D1": ["w1"], "D2": ["w1"]}), SchemaError, "same world set"),
    (lambda: OrderedDefaultSet({"D1": ["w1"]}, {("D1", "D2")}), SchemaError, "unknown default 'D2'"),
    (lambda: OrderedDefaultSet({"D1": ["w1"]}, {("D1", "D1")}), SchemaError, "irreflexivity"),
    (lambda: SequenceContext(()), SchemaError, "sequence context must be nonempty"),
    (lambda: ContextualizedPointedModel(MODEL, SequenceContext([["w1"]]), "w9"), EvaluationError,
     "unknown world 'w9'"),
    (lambda: ContextualizedPointedModel(MODEL, SequenceContext([["w9"]]), "w1"), SchemaError,
     "sequence entry 0 mentions unknown worlds"),
    (lambda: SearchBounds(0, 3), EvaluationError, "bounds must be at least 1"),
    (lambda: SearchBounds(3, 0), EvaluationError, "bounds must be at least 1"),
    (lambda: RelationalModelV(MODEL, {"w1": (MODEL.world_set, frozenset())}), SchemaError,
     "no frame for world 'w2'"),
    (lambda: RelationalModelV(MODEL, {w: (MODEL.world_set, {("w1", "w1")}) for w in MODEL.worlds}), SchemaError,
     "not irreflexive"),
    (lambda: partition_to_context((fs("w1"), fs(), fs("w2"))), SchemaError, "block 1 is empty"),
    (lambda: PseudoSphereModelV(MODEL, (fs("w1"),)), SchemaError, "do not cover"),
])
def test_validation_errors(build_bad, error, message):
    with pytest.raises(error, match=message):
        build_bad()

"""Differential tests against perfbench's reference semantics, an evaluator written apart from conwon.

``perfbench/oracle.py`` is read and run from its source, so nothing under
``perfbench/`` is imported as a package or written (no bytecode cache).
Formulas are built as oracle trees with every surface sugar, printed by
the oracle and parsed by conwon, so both sides read the same text.
"""

import random
import types
from pathlib import Path

from conwon.formula import parse_formula
from conwon.models import load_context, load_model
from conwon.semantics import SearchBounds, evaluate, find_countermodel

ORACLE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"


def _load_oracle() -> types.ModuleType:
    module = types.ModuleType("oracle")
    exec(compile(ORACLE_PATH.read_text(), str(ORACLE_PATH), "exec"), module.__dict__)
    return module


O = _load_oracle()


def _prop(rng, names, size):
    if size <= 0 or rng.random() < 0.3:
        return O.atom(rng.choice(names)) if rng.random() < 0.9 else rng.choice([O.TRUE, O.FALSE])
    op = rng.choice(["not", "and", "or", "imp", "iff"])
    if op == "not":
        return O.neg(_prop(rng, names, size - 1))
    return (op, _prop(rng, names, size - 1), _prop(rng, names, size - 1))


def _tree(rng, names, depth, size):
    """An oracle tree in the conwon dialect: antecedents and E/A arguments propositional."""
    if depth <= 0 or size <= 0:
        return _prop(rng, names, min(size, 2))
    op = rng.choice(["not", "and", "or", "imp", "iff", "box", "box", "dia", "E", "A", "prop"])
    if op == "prop":
        return _prop(rng, names, 2)
    if op == "not":
        return O.neg(_tree(rng, names, depth, size - 1))
    if op in ("E", "A"):
        return (op, _prop(rng, names, 2))
    if op in ("box", "dia"):
        return (op, _prop(rng, names, 2), _tree(rng, names, depth - 1, size - 1))
    return (op, _tree(rng, names, depth, size - 1), _tree(rng, names, depth, size - 1))


def _worlds(mask, worlds):
    return [w for i, w in enumerate(worlds) if mask >> i & 1]


def _random_context(rng, worlds):
    """A sequence or ordered-set context in the program's JSON shape."""
    full = (1 << len(worlds)) - 1
    if rng.random() < 0.5:
        return {"kind": "sequence",
                "sequence": [_worlds(rng.randint(0, full), worlds) for _ in range(rng.randint(1, 3))]}
    extents = rng.sample(range(full + 1), min(full + 1, rng.randint(1, 3)))  # distinct, as the set form needs
    rank = list(range(len(extents)))
    rng.shuffle(rank)  # an order that follows one ranking is acyclic
    order = [[f"d{i}", f"d{j}"] for i in range(len(extents)) for j in range(len(extents))
             if rank[i] < rank[j] and rng.random() < 0.5]
    return {"kind": "ordered-set", "defaults": {f"d{i}": _worlds(m, worlds) for i, m in enumerate(extents)},
            "order": order}


def test_evaluate_agrees_with_the_oracle():
    # every world of random models of 1-3 worlds, under sequence and ordered-set contexts
    rng = random.Random(20261020)
    kinds = {"sequence": 0, "ordered-set": 0}
    for _ in range(300):
        tree = _tree(rng, ["p", "q", "r"], rng.randint(0, 3), 5)
        f = parse_formula(O.to_text(tree))
        n = rng.randint(1, 3)
        worlds = [f"w{i + 1}" for i in range(n)]
        model_json = {"worlds": worlds,
                      "valuation": {a: _worlds(rng.randint(0, (1 << n) - 1), worlds) for a in "pqr"}}
        model = load_model(model_json)
        point, index = O.point_from_json(model_json)
        for _ in range(3):
            context_json = _random_context(rng, worlds)
            kinds[context_json["kind"]] += 1
            context = load_context(context_json, model)
            octx = O.context_from_json(context_json, index)
            for w in worlds:
                assert evaluate(model, context, w, f) == point.holds(tree, octx, index[w]), (
                    O.to_text(tree), model_json, context_json, w)
    assert min(kinds.values()) > 400


def _valid_trees(rng, names):
    """Instances of axioms 2c, 3b, 3c, 3d and 3e over random propositional formulas: valid trees."""
    a, b, c, d = (_prop(rng, names, 1) for _ in range(4))
    ab = O.conj(a, b)
    return [
        O.iff(O.box(a, O.box(b, c)),
              O.imp(O.some(a), O.disj(O.conj(O.some(ab), O.box(ab, c)),
                                      O.conj(O.neg(O.some(ab)), O.every(O.imp(b, c)))))),
        O.imp(O.box(a, c), O.box(a, O.disj(c, d))),
        O.imp(O.conj(O.box(a, b), O.box(a, c)), O.box(ab, c)),
        O.imp(O.conj(O.box(a, c), O.box(b, c)), O.box(O.disj(a, b), c)),
        O.imp(O.conj(O.dia(a, b), O.box(a, c)), O.box(ab, c)),
    ]


def _strict_trees():
    """Trees valid when ``[a]`` reads "every a-world" (the first nonempty a & S_j) but falsifiable here."""
    p, q, r = map(O.atom, "pqr")
    return [
        O.imp(O.box(p, q), O.every(O.imp(p, q))),
        O.imp(O.box(p, r), O.box(O.conj(p, q), r)),
        O.imp(O.conj(O.box(p, q), O.box(q, r)), O.box(p, r)),
        O.imp(O.conj(O.some(O.conj(p, q)), O.box(p, r)), O.box(O.conj(p, q), r)),
    ]


def _three_ranks():
    """False only where p, q, r are disjoint, each somewhere, and ranked in three levels: a chain of two entries."""
    p, q, r = map(O.atom, "pqr")
    disjoint = O.conj(O.every(O.neg(O.conj(p, q))), O.conj(O.every(O.neg(O.conj(q, r))), O.every(O.neg(O.conj(p, r)))))
    return O.neg(O.conj(O.conj(disjoint, O.conj(O.some(q), O.some(r))),
                        O.conj(O.box(O.disj(p, q), O.neg(q)), O.box(O.disj(q, r), O.neg(r)))))


def _verdicts(trees, max_worlds, max_len):
    """Whether each tree is valid, once conwon and the oracle agree on it and the oracle confirms each witness."""
    verdicts = []
    for tree in trees:
        text = O.to_text(tree)
        witness = find_countermodel(parse_formula(text), SearchBounds(max_worlds, max_len))
        assert (witness is None) == (O.countermodel(tree, max_worlds, max_len) is None), (text, max_worlds)
        if witness is not None:
            shown = witness.to_json()
            point, index = O.point_from_json(shown["model"])
            assert not point.holds(tree, O.context_from_json(shown["context"], index), index[shown["world"]]), text
        verdicts.append(witness is None)
    return verdicts


def test_countermodel_verdicts_agree_with_the_oracle():
    # find_countermodel finds a countermodel iff the oracle's search over
    # every valuation and duplicate-free context finds one: at (2, 3), and
    # at (3, 2), where chains of two entries first occur
    rng = random.Random(20261021)
    trees = [tree for _ in range(4) for tree in _valid_trees(rng, ["p", "q"])] + _strict_trees()
    verdicts = _verdicts(trees + [_tree(rng, ["p", "q"], rng.randint(1, 2), 4) for _ in range(60)], 2, 3)
    assert verdicts[:20] == [True] * 20 and not any(verdicts[20:24])
    assert 0 < sum(verdicts[24:]) < 60
    assert _verdicts(_valid_trees(rng, ["p", "q"]) + [_three_ranks()], 3, 2) == [True] * 5 + [False]

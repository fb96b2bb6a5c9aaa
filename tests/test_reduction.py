import random

import pytest

from conwon.formula import (
    And,
    Iff,
    Not,
    Or,
    is_flat,
    modal_depth,
    parse_formula,
    render,
    subformulas,
)
from conwon import reduction
from conwon.reduction import RewriteError, rewrite_step, sigma
from conwon.semantics import SearchBounds, is_valid_up_to, truth_masks_agree
from conftest import formula_battery, random_formula


def pf(text):
    return parse_formula(text)


# --- the four partial-reduction equivalences ------------------------------


def test_rewrite_conjunction_splits():
    out = rewrite_step(pf("[p](q & r)"))
    assert out == And(pf("[p]q"), pf("[p]r"))


def test_rewrite_disjunction_with_closed_disjunct():
    out = rewrite_step(pf("[p](q | [q]r)"))
    assert out == Or(pf("[p]q"), pf("[p][q]r"))
    out = rewrite_step(pf("[p]([q]r | q)"))
    assert out == Or(pf("[p][q]r"), pf("[p]q"))
    with pytest.raises(RewriteError):
        rewrite_step(pf("[p](q | r)"))


def test_rewrite_nested_box():
    out = rewrite_step(pf("[p][q]r"))
    expected = pf("E p -> ((E (p & q) & [p & q]r) | (~E (p & q) & A (q -> r)))")
    assert out == expected


def test_rewrite_nested_dual():
    out = rewrite_step(pf("[p]<q>r"))
    expected = pf("E p -> ((E (p & q) & <p & q>r) | (~E (p & q) & E (q & r)))")
    assert out == expected


def test_rewrite_steps_preserve_truth():
    for text in ["[p](q & r)", "[p](q | [q]r)", "[p][q]r", "[p]<q>r"]:
        f = pf(text)
        g = rewrite_step(f)
        assert truth_masks_agree(f, g, 2, 3) is None


def test_rewrite_errors():
    with pytest.raises(RewriteError, match="expects a conditional"):
        rewrite_step(pf("p & q"))
    with pytest.raises(RewriteError, match="depth"):
        rewrite_step(pf("[p][q][r]s"))
    with pytest.raises(RewriteError, match="no applicable rewrite"):
        rewrite_step(pf("[p]q"))


def test_four_equivalences_are_valid():
    bounds = SearchBounds(3, 5)
    pairs = [
        ("[p](q & r)", "[p]q & [p]r"),
        ("[p](q | [q]r)", "[p]q | [p][q]r"),
        ("[p][q]r", "E p -> ((E (p & q) & [p & q]r) | (~E (p & q) & A (q -> r)))"),
        ("[p]<q>r", "E p -> ((E (p & q) & <p & q>r) | (~E (p & q) & E (q & r)))"),
    ]
    for lhs, rhs in pairs:
        assert is_valid_up_to(Iff(pf(lhs), pf(rhs)), bounds), (lhs, rhs)


# --- the full translation -------------------------------------------------


def test_sigma_identity_on_flat():
    for text in ["p & ~q", "[p]q -> r", "~[p]q & <q>p", "~~[p]q", "~~(p & [q]r)"]:
        f = pf(text)
        assert sigma(f) == f


def test_sigma_output_is_flat():
    for text in ["[p][q]r", "[p][q][r]s", "~[p](q & <q>[r]s)", "[p]([q]r | <r>q)"]:
        out = sigma(pf(text))
        assert is_flat(out), text
        assert modal_depth(out) <= 1


def test_sigma_is_deterministic():
    f = pf("[p](q & [q](r | [r]s))")
    assert render(sigma(f)) == render(sigma(f))
    assert sigma(f) == sigma(f)


def test_sigma_rejects_corner_dialect():
    with pytest.raises(RewriteError):
        sigma(parse_formula("p |> q", dialect="v"))


def test_sigma_battery_preserves_truth():
    battery = formula_battery(seed=101, count=80, atom_names=("p", "q"), max_depth=3)
    failures = []
    for f in battery:
        g = sigma(f)
        assert is_flat(g)
        witness = truth_masks_agree(f, g, 2, 3)
        if witness is not None:
            failures.append((render(f), witness.to_json()))
    assert failures == []


def test_sigma_chains_and_shapes_preserve_truth():
    for text in [
        "[p]q",
        "[p][q]r",
        "[p][q][r]s",
        "[p][q][r][s]t",
        "[p][q][r][s][t]u",
        # bodies mixing propositional and closed parts under disjunctions
        "[p]((q & [q]r) | (r & ~[r]s))",
        "[p]~(q <-> [q]r)",
        "[p]((q | [r]s) & ~(r & <s>q))",
        # one closed body under two antecedents
        "[p][r]s & ~[q][r]s",
    ]:
        f = pf(text)
        g = sigma(f)
        assert modal_depth(g) <= 1, text
        bounds = (2, 3) if modal_depth(f) == 5 else (3, 3)
        assert truth_masks_agree(f, g, *bounds) is None, text


def test_sigma_depth4_battery_preserves_truth():
    # formula_battery rarely reaches depth 4 (its formulas have size 4)
    rng = random.Random(404)
    battery = []
    while len(battery) < 20:
        f = random_formula(rng, ("p", "q", "r"), 4, size=8)
        if modal_depth(f) == 4:
            battery.append(f)
    for f in battery:
        g = sigma(f)
        assert modal_depth(g) <= 1
        assert truth_masks_agree(f, g, 3, 3) is None, render(f)


def test_sigma_lifted_2c_body_preserves_truth():
    # the lifted body [a&b]g & ([a&b]false -> A(b->g)) leans on [a&b]g holding where a&b holds nowhere
    for text in ["[p][q]false", "[p]~[q]false", "[p]E q", "[p]A q", "[p](E q & [q]false)",
                 "[p][q][p]q", "[p][q]~[r]false", "[p][q][r]false"]:
        assert truth_masks_agree(pf(text), sigma(pf(text)), 3, 3) is None, text
    rng = random.Random(303)
    battery = []
    while len(battery) < 20:
        f = random_formula(rng, ("p", "q", "r"), 3, size=6)
        if modal_depth(f) == 3:
            battery.append(f)
    for f in battery:
        assert truth_masks_agree(f, sigma(f), 3, 3) is None, render(f)


def test_sigma_lifted_body_equals_the_2c_body():
    # equal at every point, not only under E a: where a&b holds nowhere both sides are A(b->g)
    pool = ["q", "~q", "p & ~q", "p | q", "false"]
    for b in pool:
        for g in pool:
            lifted = reduction._Flattener().lift(pf("p"), pf(f"[{b}]({g})"))
            body = pf(f"(E (p & ({b})) & [p & ({b})]({g})) | (~E (p & ({b})) & A (({b}) -> ({g})))")
            assert truth_masks_agree(lifted, body, 4, 3) is None, (b, g)


def test_sigma_output_size_regression():
    assert sigma(pf("[p][q][r][s]t")).size <= 375


def test_sigma_builds_no_double_negation():
    # every ~~x in sigma's output is one the input already had
    rng = random.Random(404)
    battery = formula_battery(seed=101, count=80, atom_names=("p", "q"), max_depth=3)
    battery += [random_formula(rng, ("p", "q", "r"), 4, size=8) for _ in range(40)]
    battery += [pf("~~[p](~~q & [~~q]~~r)"), pf("[p]~~[q]~r"), pf("~[p]~[q]~~r")]
    for f in battery:
        kept = set(subformulas(f))
        built = [g for g in subformulas(sigma(f)) if type(g) is Not and type(g.child) is Not and g not in kept]
        assert built == [], render(f)


def test_sigma_output_cap(monkeypatch):
    monkeypatch.setattr(reduction, "MAX_SIGMA_NODES", 500)
    assert sigma(pf("[p][q][r][s]t")).size == 375
    with pytest.raises(RewriteError, match="exceeds the cap of 500 nodes"):
        sigma(pf("[p][q][r][s][t]u"))
    # a mixed body whose clause product is over the cap
    mixed = " | ".join(f"(a{i} & [b{i}]c{i})" for i in range(10))
    with pytest.raises(RewriteError, match="exceeds the cap"):
        sigma(pf(f"[p]({mixed})"))

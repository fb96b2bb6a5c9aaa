"""Bundled worked examples and proof files.

Each example carries its model and context data plus a ``run_example``
entry that recomputes the advertised verdicts from scratch and returns
what a CLI report function returns: an exit code (0 = everything came out
as advertised and the headline formula is true or valid; 1 = the headline
formula is false or a countermodel exists), a JSON-able payload and
human-readable lines.  tiger and reagan are ``conwon eval --trace`` and
figure1 is ``conwon expected``, run through those report functions on the
bundled data; nonmono and fact16 have runners of their own.  Every
runner imports the library when it runs, so listing the examples loads
none of it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

TIGER_MODEL = {
    "worlds": ["w1", "w2", "w3", "w4", "w5", "w6"],
    "valuation": {
        "f_t": ["w1", "w2", "w3", "w4"],
        "f_d": ["w1", "w2", "w5", "w6"],
        "f_g": ["w3", "w4", "w5", "w6"],
        "a_t": ["w1", "w3", "w5", "w6"],
        "a_d": ["w2", "w3", "w4", "w5"],
        "a_g": ["w1", "w2", "w4", "w6"],
    },
}

TIGER_CONTEXT = {
    "kind": "ordered-set",
    "defaults": {
        "D1": ["w1", "w3", "w4", "w5", "w6"],
        "D2": ["w1", "w2", "w3", "w5", "w6"],
        "D3": ["w1", "w2", "w3", "w4", "w5"],
    },
    "order": [["D2", "D1"], ["D2", "D3"]],
}

REAGAN_MODEL = {
    "worlds": ["w1", "w2", "w3", "w4"],
    "valuation": {"r": ["w1"], "a": ["w2"], "c": ["w3"]},
}

REAGAN_CONTEXT = {
    "kind": "ordered-set",
    "defaults": {"D1": ["w1", "w3"], "D2": ["w1"]},
    "order": [["D1", "D2"]],
}

NONMONO_MODEL = {
    "worlds": ["w1", "w2"],
    "valuation": {"p": ["w1", "w2"], "q": ["w2"]},
}

NONMONO_CONTEXT = {
    "kind": "ordered-set",
    "defaults": {"D1": ["w2"]},
    "order": [],
}

FIGURE1_MODEL = {
    "worlds": ["w1", "w2", "w3", "w4"],
    "valuation": {"p": ["w1"], "q": ["w4"]},
}

FIGURE1_CONTEXT = {
    "kind": "ordered-set",
    "defaults": {"D1": ["w1", "w2"], "D2": ["w1", "w2", "w3"], "D3": ["w4"]},
    "order": [["D1", "D2"], ["D2", "D3"]],
}

FACT16_CONWON = "E (p & q) -> [p][q](p & q)"
FACT16_V = "E (p & q) -> (p |> (q |> (p & q)))"
MONOTONICITY = "([p]q) -> ([p & ~q]q)"


def _run_nonmono() -> Tuple[int, dict, List[str]]:
    from .formula import parse_formula, render
    from .models import load_context, load_model
    from .semantics import SearchBounds, evaluate, find_countermodel

    model = load_model(NONMONO_MODEL)
    context = load_context(NONMONO_CONTEXT, model)
    weak = parse_formula("[p]q")
    strengthened = parse_formula("[p & ~q]q")
    v1 = evaluate(model, context, "w1", weak)
    v2 = evaluate(model, context, "w1", strengthened)
    witness = find_countermodel(parse_formula(MONOTONICITY), SearchBounds(2, 3))
    lines = [
        f"{render(weak)} at w1: {'true' if v1 else 'false'}",
        f"{render(strengthened)} at w1: {'true' if v2 else 'false'}",
        f"countermodel for {MONOTONICITY}: "
        + ("found" if witness is not None else "none within bounds (2,3)"),
    ]
    payload = {
        "weak": {"formula": render(weak), "value": v1},
        "strengthened": {"formula": render(strengthened), "value": v2},
        "monotonicity_countermodel": witness.to_json() if witness is not None else None,
    }
    code = 1 if (v1 and not v2 and witness is not None) else 0
    return code, payload, lines


def _run_fact16() -> Tuple[int, dict, List[str]]:
    from .formula import parse_formula, render
    from .lewis import PseudoSphereModelV, eval_v
    from .models import Model
    from .semantics import SearchBounds, find_countermodel

    conwon_side = parse_formula(FACT16_CONWON)
    witness = find_countermodel(conwon_side, SearchBounds(3, 5))
    model = Model(("w1", "w2"), {"p": frozenset({"w1"}), "q": frozenset({"w1", "w2"})})
    spheres = PseudoSphereModelV(model, (frozenset({"w2"}), frozenset({"w1"})))  # the order w2 < w1
    v_side = parse_formula(FACT16_V, dialect="v")
    v_value = eval_v(spheres, "w1", v_side)
    lines = [
        f"{render(conwon_side)}: "
        + ("no countermodel at bounds (3,5)" if witness is None else "FALSIFIED"),
        f"{render(v_side)} at w1 of the two-sphere model: "
        + ("true" if v_value else "false"),
    ]
    payload = {
        "conwon_formula": render(conwon_side),
        "conwon_countermodel": witness.to_json() if witness is not None else None,
        "v_formula": render(v_side),
        "v_value_at_w1": v_value,
    }
    ok = witness is None and not v_value
    return (0 if ok else 1), payload, lines


def _report(name: str, *args):
    """An example that is the CLI report function ``cli.<name>`` on bundled data."""
    def run() -> Tuple[int, dict, List[str]]:
        from . import cli

        return getattr(cli, name)(*args)

    return run


EXAMPLES = {
    "tiger": _report("eval_cmd", TIGER_MODEL, TIGER_CONTEXT, "w3", "[a_g]~a_d", True),
    "reagan": _report("eval_cmd", REAGAN_MODEL, REAGAN_CONTEXT, "w1", "[~r][r | a]r", True),
    "nonmono": _run_nonmono,
    "fact16": _run_fact16,
    "figure1": _report("expected_cmd", FIGURE1_MODEL, FIGURE1_CONTEXT),
}


def run_example(name: str) -> Tuple[int, dict, List[str]]:
    return EXAMPLES[name]()


# ---------------------------------------------------------------------------
# Bundled proofs
# ---------------------------------------------------------------------------


VALID_PROOF = {
    "system": "conwon",
    "steps": [
        {"formula": "[p]p", "by": {"axiom": "conwon.3a", "subst": {"alpha": "p"}}},
        {
            "formula": "[p]p -> [p](p | q)",
            "by": {"axiom": "conwon.3b", "subst": {"alpha": "p", "gamma": "p", "delta": "q"}},
        },
        {"formula": "[p](p | q)", "by": {"rule": "mp", "from": [1, 2]}},
    ],
}

# name -> (proof, substring expected in the checker's diagnostics)
INVALID_PROOFS: Dict[str, Tuple[dict, str]] = {
    "nonprop-gamma": (
        {
            "system": "conwon",
            "steps": [
                {
                    "formula": "[p][r]s -> [p]([r]s | q)",
                    "by": {"axiom": "conwon.3b",
                           "subst": {"alpha": "p", "gamma": "[r]s", "delta": "q"}},
                }
            ],
        },
        "side condition violated for gamma",
    ),
    "chi-not-closed": (
        {
            "system": "conwon",
            "steps": [
                {
                    "formula": "[p](q | r) <-> ([p]q | [p]r)",
                    "by": {"axiom": "conwon.2b",
                           "subst": {"alpha": "p", "phi": "q", "chi": "r"}},
                }
            ],
        },
        "side condition violated for chi",
    ),
    "subst-mismatch": (
        {
            "system": "conwon",
            "steps": [
                {"formula": "[p]q", "by": {"axiom": "conwon.3a", "subst": {"alpha": "p"}}}
            ],
        },
        "substitution does not yield the step formula",
    ),
    "not-an-instance": (
        {
            "system": "conwon",
            "steps": [{"formula": "[p]q", "by": {"axiom": "conwon.3a"}}],
        },
        "not an instance of conwon.3a",
    ),
    "unknown-axiom": (
        {
            "system": "conwon",
            "steps": [{"formula": "[p]p", "by": {"axiom": "conwon.9z"}}],
        },
        "not part of system",
    ),
    "mp-wrong-shape": (
        {
            "system": "conwon",
            "steps": [
                {"formula": "[p]p", "by": {"axiom": "conwon.3a", "subst": {"alpha": "p"}}},
                {"formula": "[q]q", "by": {"axiom": "conwon.3a", "subst": {"alpha": "q"}}},
                {"formula": "[p](p | q)", "by": {"rule": "mp", "from": [1, 2]}},
            ],
        },
        "do not fit modus ponens",
    ),
    "mp-wrong-arity": (
        {
            "system": "conwon",
            "steps": [
                {"formula": "[p]p", "by": {"axiom": "conwon.3a", "subst": {"alpha": "p"}}},
                {"formula": "[p](p | q)", "by": {"rule": "mp", "from": [1]}},
            ],
        },
        "needs exactly two premises",
    ),
    "forward-reference": (
        {
            "system": "conwon",
            "steps": [
                {"formula": "[p]p", "by": {"rule": "mp", "from": [1, 2]}},
            ],
        },
        "must reference earlier steps",
    ),
    "rcea-nonprop": (
        {
            "system": "conwon",
            "steps": [
                {"formula": "(p & q) <-> (q & p)", "by": {"rule": "taut", "from": []}},
                {
                    "formula": "[p & q][r]s <-> [q & p][r]s",
                    "by": {"rule": "rcea", "from": [1]},
                },
            ],
        },
        "requires propositional arguments",
    ),
    "rcea-bad-premise": (
        {
            "system": "conwon",
            "steps": [
                {"formula": "[p]p", "by": {"axiom": "conwon.3a", "subst": {"alpha": "p"}}},
                {"formula": "[p]q <-> [p]q", "by": {"rule": "rcea", "from": [1]}},
            ],
        },
        "premise is not a biconditional",
    ),
    "taut-non-consequence": (
        {
            "system": "conwon",
            "steps": [
                {"formula": "[p]q -> [p]q", "by": {"rule": "taut", "from": []}},
                {"formula": "[p]q", "by": {"rule": "taut", "from": [1]}},
            ],
        },
        "not a tautological consequence",
    ),
    "v1-not-flat": (
        {
            "system": "v1",
            "steps": [
                {"formula": "(p |> (q |> p)) |> (p |> (q |> p))",
                 "by": {"axiom": "v.rhd.1", "subst": {"phi": "p |> (q |> p)"}}},
            ],
        },
        "not flat",
    ),
}

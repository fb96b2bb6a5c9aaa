import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conwon.fixtures import INVALID_PROOFS, VALID_PROOF
from conwon.formula import And, Atom, CondBox, Implies, Not, Or, atoms, parse_formula, render, subformulas
from conwon.lewis import satisfying_witness_v
from conwon.proofs import (
    CLOSED,
    CONWON_AXIOMS,
    PROP,
    RULES,
    SCHEMAS,
    SYSTEMS,
    V_AXIOMS,
    ProofError,
    ProofStep,
    Schema,
    check_proof,
    generic_substitution,
    instantiate,
    is_tautology,
    load_proof,
    match_schema,
    soundness_sweep,
    tautological_consequence,
)
from conwon.semantics import CompiledFormula, EvaluationError, SearchBounds, find_countermodel
from conftest import invoke, random_formula, reference_tautological_consequence


def pf(text):
    return parse_formula(text)


# --- inventory ------------------------------------------------------------


def test_axiom_inventory():
    names = [s.identifier for s in CONWON_AXIOMS]
    assert names == [
        "conwon.2a", "conwon.2b", "conwon.2c", "conwon.2d",
        "conwon.3a", "conwon.3b", "conwon.3c", "conwon.3d", "conwon.3e",
    ]
    assert [s.identifier for s in V_AXIOMS] == [f"v.rhd.{i}" for i in range(1, 7)]
    assert RULES == ("taut", "mp", "rcea", "rcec")
    assert set(SYSTEMS) == {"conwon", "v1"}
    assert SYSTEMS["v1"]["flat_only"] and not SYSTEMS["conwon"]["flat_only"]


def test_side_conditions_recorded():
    by_name = {s.identifier: s.conditions for s in CONWON_AXIOMS}
    assert by_name["conwon.2a"] == {"alpha": "propositional"}
    assert by_name["conwon.2b"] == {"alpha": "propositional", "chi": "closed"}
    for name in ("conwon.2c", "conwon.2d"):
        assert by_name[name] == {v: "propositional" for v in ("alpha", "beta", "gamma")}
    for name in ("conwon.3b", "conwon.3c", "conwon.3d", "conwon.3e"):
        assert all(c == "propositional" for c in by_name[name].values())
    assert all(not s.conditions for s in V_AXIOMS)


# --- matching and instantiation -------------------------------------------


def test_match_schema_positive():
    ax3b = next(s for s in CONWON_AXIOMS if s.identifier == "conwon.3b")
    binding = match_schema(ax3b, pf("[p]q -> [p](q | r)"))
    assert binding == {"alpha": Atom("p"), "gamma": Atom("q"), "delta": Atom("r")}
    assert instantiate(ax3b, binding) == pf("[p]q -> [p](q | r)")


def test_match_schema_side_condition():
    ax3a = next(s for s in CONWON_AXIOMS if s.identifier == "conwon.3a")
    assert match_schema(ax3a, pf("[p]p")) is not None
    # the bound antecedent must stay propositional
    assert match_schema(ax3a, pf("[p]q")) is None  # alpha would bind twice
    ax2b = next(s for s in CONWON_AXIOMS if s.identifier == "conwon.2b")
    assert match_schema(ax2b, pf("[p](q | [q]r) <-> ([p]q | [p][q]r)")) is not None
    assert match_schema(ax2b, pf("[p](q | r) <-> ([p]q | [p]r)")) is None


def test_v_axioms_match_with_modal_instances():
    ax1 = V_AXIOMS[0]
    f = parse_formula("(p |> q) |> (p |> q)", dialect="v")
    assert match_schema(ax1, f) is not None  # no side condition in system V


# --- tautology oracle -----------------------------------------------------


def test_tautology_oracle_treats_conditionals_opaquely():
    assert is_tautology(pf("[p]q | ~[p]q"))
    assert not is_tautology(pf("[p](q | ~q)"))  # not a propositional tautology
    assert is_tautology(pf("(p -> q) -> (~q -> ~p)"))
    assert tautological_consequence([pf("[p]q"), pf("[p]q -> r")], pf("r"))
    assert not tautological_consequence([pf("[p]q")], pf("[p]r"))
    # identical conditionals share one opaque atom
    assert tautological_consequence([], pf("[p]q -> [p]q"))


def taut_battery(seed: int, count: int):
    """(premises, conclusion) over at most 8 atoms and conditionals: random
    conclusions, and ones built from the premises, so that both verdicts occur."""
    rng = random.Random(seed)
    names = ("p", "q", "r", "s")
    while count:
        premises = [random_formula(rng, names, 1, size=3) for _ in range(rng.randrange(4))]
        pool = premises + [random_formula(rng, names, 1, size=3)]
        a, b = rng.choice(pool), rng.choice(pool)
        conclusion = rng.choice([pool[-1], Or(a, b), Implies(a, a), Or(a, Not(b)), And(a, b), Not(And(a, Not(a)))])
        parts = {g for f in [*premises, conclusion] for g in subformulas(f) if type(g) in (Atom, CondBox)}
        if len(parts) <= 8:
            count -= 1
            yield premises, conclusion


def test_taut_agrees_with_the_reference():
    verdicts = []
    for premises, conclusion in taut_battery(20, 400):
        verdict = tautological_consequence(premises, conclusion)
        assert verdict == reference_tautological_consequence(premises, conclusion), (premises, conclusion)
        verdicts.append(verdict)
    assert 50 < sum(verdicts) < 350


def taut_proof(tmp_path, formula: str) -> str:
    path = tmp_path / "proof.json"
    path.write_text(json.dumps({"system": "conwon", "steps": [{"formula": formula, "by": {"rule": "taut"}}]}))
    return str(path)


def test_taut_step_nested_1200_deep_exit_0(tmp_path):
    result = invoke(["check-proof", taut_proof(tmp_path, "~" * 1200 + "[p]q <-> [p]q")])
    assert result.exit_code == 0, result.output
    assert result.stdout == "accepted\n"


def test_taut_step_over_the_cap_exit_2(tmp_path):
    ors = " | ".join(f"a{i}" for i in range(40))
    start = time.monotonic()
    result = invoke(["check-proof", taut_proof(tmp_path, f"({ors}) -> ({ors})")])
    assert time.monotonic() - start < 1.0
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: taut step over 40 atoms") and result.stderr.count("\n") == 1

# --- checking proofs ------------------------------------------------------


def test_valid_proof_accepted():
    system, steps = load_proof(VALID_PROOF)
    verdict = check_proof(steps, system)
    assert verdict.ok, verdict.errors
    assert verdict.message == "accepted"


def test_invalid_proofs_rejected_with_diagnostics():
    assert len(INVALID_PROOFS) >= 10
    for name, (proof, expected) in INVALID_PROOFS.items():
        system, steps = load_proof(proof)
        verdict = check_proof(steps, system)
        assert not verdict.ok, name
        assert expected in " ".join(verdict.errors), (name, verdict.errors)
        # diagnostics carry 1-based step numbers
        assert verdict.errors[0].startswith("step ")


def test_rcea_and_rcec_accepted():
    proof = {
        "system": "conwon",
        "steps": [
            {"formula": "(p & q) <-> (q & p)", "by": {"rule": "taut", "from": []}},
            {"formula": "[p & q]r <-> [q & p]r", "by": {"rule": "rcea", "from": [1]}},
            {"formula": "[r](p & q) <-> [r](q & p)", "by": {"rule": "rcec", "from": [1]}},
        ],
    }
    system, steps = load_proof(proof)
    verdict = check_proof(steps, system)
    assert verdict.ok, verdict.errors


def test_checker_keeps_reporting_after_a_failure():
    proof = {
        "system": "conwon",
        "steps": [
            {"formula": "[p]q", "by": {"axiom": "conwon.3a"}},
            {"formula": "[q]r", "by": {"axiom": "conwon.3a"}},
        ],
    }
    system, steps = load_proof(proof)
    verdict = check_proof(steps, system)
    assert len(verdict.errors) == 2


def test_appending_steps_preserves_earlier_diagnostics():
    system, steps = load_proof(VALID_PROOF)
    extended = steps + [ProofStep(pf("[p]q"), {"rule": "taut", "from": []})]
    verdict = check_proof(extended, system)
    assert not verdict.ok
    assert all("step 4" in e for e in verdict.errors)


def test_load_proof_errors():
    with pytest.raises(ProofError, match="unknown system"):
        load_proof({"system": "nope", "steps": []})
    with pytest.raises(ProofError, match="'formula' and 'by'"):
        load_proof({"system": "conwon", "steps": [{"formula": "p"}]})
    with pytest.raises(ProofError, match="'steps' must be a list"):
        load_proof({"system": "conwon", "steps": 5})
    with pytest.raises(ProofError, match="step 1: 'formula' must be a string"):
        load_proof({"system": "conwon", "steps": [{"formula": 5, "by": {"axiom": "conwon.3a"}}]})
    with pytest.raises(ProofError, match="step 1"):
        load_proof({"system": "conwon",
                    "steps": [{"formula": "p &", "by": {"rule": "taut", "from": []}}]})
    for by, message in [
        ("axiom", "'by' must be an object"),
        ({"axiom": ["conwon.3a"]}, "'axiom' and 'rule' must be names"),
        ({"axiom": "conwon.3a", "subst": {"alpha": "p", "zeta": "q"}}, "zeta not a metavariable of conwon.3a"),
        ({"rule": "taut", "from": [True]}, "'from' must be a list of step numbers"),
    ]:
        with pytest.raises(ProofError, match=message):
            load_proof({"system": "conwon", "steps": [{"formula": "[p]p", "by": by}]})
    # True is an int to isinstance; the checker does not take it for step 1
    steps = [ProofStep(pf("[p]p"), {"axiom": "conwon.3a"}), ProofStep(pf("[p]p"), {"rule": "taut", "from": [True]})]
    assert check_proof(steps, "conwon").errors == ["step 2: rule premises must reference earlier steps (1-based)"]


def test_load_proof_from_file(tmp_path):
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(VALID_PROOF))
    system, steps = load_proof(path)
    assert system == "conwon" and len(steps) == 3


# --- proved formulas hold semantically ------------------------------------


def test_accepted_conclusions_are_valid_in_bounds():
    _system, steps = load_proof(VALID_PROOF)
    bounds = SearchBounds(2, 3)
    for step in steps:
        assert find_countermodel(step.formula, bounds) is None


def test_soundness_sweep_smoke():
    report = soundness_sweep("conwon", SearchBounds(2, 2))
    assert report.instances > 0
    assert report.failures == []
    report_v = soundness_sweep("v1", SearchBounds(2, 2))
    assert report_v.instances > 0
    assert report_v.failures == []


def test_soundness_sweep_instance_counts():
    # every real schema meets the occurrence condition: one search, on its generic instance
    conwon = soundness_sweep("conwon", SearchBounds(2, 5))
    v1 = soundness_sweep("v1", SearchBounds(2, 5))
    assert (conwon.instances, v1.instances) == (9, 6)
    assert conwon.ok and v1.ok


@pytest.mark.parametrize("bounds", [(3, 5), (4, 3)])
def test_generic_instances_hold(bounds):
    # each real schema's generic instance is an instance of it and has no
    # countermodel; 2b without its closed condition has one, so the E c
    # stand-in for chi is what keeps 2b's generic instance valid
    for system, spec in SYSTEMS.items():
        for schema in spec["axioms"]:
            subst = generic_substitution(schema)
            assert match_schema(schema, instantiate(schema, subst)) == subst
        report = soundness_sweep(system, SearchBounds(*bounds))
        assert report.ok and report.instances == len(spec["axioms"])
    two_b = SCHEMAS["conwon.2b"]
    assert render(instantiate(two_b, generic_substitution(two_b))) == render(
        pf("[x_alpha](x_phi | E c_chi) <-> ([x_alpha]x_phi | [x_alpha]E c_chi)"))
    assert find_countermodel(pf("[a](x | y) <-> ([a]x | [a]y)"), SearchBounds(*bounds)) is not None


def test_sweeps_keep_the_enumeration_cap(monkeypatch):
    # the V side searches the caller's bounds, under its cap as the conwon side does
    from conwon import semantics

    monkeypatch.setattr(semantics, "MAX_ENUMERATION", 10)
    for system in ("conwon", "v1"):
        with pytest.raises(EvaluationError, match="exceeds the cap of 10"):
            soundness_sweep(system, SearchBounds(2, 5))


def _reference_plan(compiled, node):
    """The non-propositional nodes of ``node``'s sub-DAG, ``~`` included, box consequents left out."""
    found, stack = set(), [node]
    while stack:
        i = stack.pop()
        if i not in found and compiled.depths[i]:
            found.add(i)
            op = compiled.nodes[i]
            stack += op[1:2] if op[0] == "box" else op[1:]
    return found


def _plan_roots(compiled, root):
    """The root and every box consequent below it, as the kernel runs them."""
    found, stack = set(), [root]
    while stack:
        i = stack.pop()
        if i not in found:
            found.add(i)
            stack += [j for j in compiled.nodes[i][1:] if type(j) is int]
    return {root} | {compiled.nodes[i][2] for i in found if compiled.nodes[i][0] == "box"}


def test_sweeps_walk_each_template_once(monkeypatch):
    # one DAG per schema, its generic instance lowered once; a box over a
    # propositional consequent lowers as a corner; every plan a pass there
    # runs has the steps a search of the DAG finds, ~ included, each once,
    # children first
    import conwon.semantics

    made = []

    class Recorded(CompiledFormula):
        def __init__(self, f):
            super().__init__(f)
            made.append(self)

    monkeypatch.setattr(conwon.semantics, "CompiledFormula", Recorded)
    searches = sum(soundness_sweep(system, SearchBounds(1, 1)).instances for system in ("conwon", "v1"))
    assert (len(made), searches) == (15, 15)
    kinds = set()
    for compiled in made:
        assert all(compiled.depths[op[2]] for op in compiled.nodes if op[0] == "box")
        for node in _plan_roots(compiled, compiled.root):
            kinds.update(step[1] for step in compiled.plan(node))
            steps = [step[0] for step in compiled.plan(node)]
            assert set(steps) == _reference_plan(compiled, node) and len(set(steps)) == len(steps)
            order = {i: k for k, i in enumerate(steps)}
            assert all(order.get(a, -1) < order[i] and (op == "box" or order.get(b, -1) < order[i])
                       for i, op, a, b in compiled.plan(node))
    assert kinds == {"not", "and", "box", "corner"}


def test_v1_sweep_searches_each_instance_itself(monkeypatch):
    # a v1 witness falsifies the instance, so the search lowers the instance, not ~~instance
    import conwon.semantics

    searched, real_search = [], conwon.semantics.search_points
    monkeypatch.setattr(conwon.semantics, "search_points",
                        lambda f, bounds: searched.append(f) or real_search(f, bounds))
    assert soundness_sweep("v1", SearchBounds(2, 5)).ok
    assert searched == [instantiate(schema, generic_substitution(schema)) for schema in V_AXIOMS]
    assert [len(CompiledFormula(f).nodes) for f in searched[:3]] == [2, 11, 12]


@pytest.mark.parametrize("system", ["conwon", "v1"])
def test_generic_instances_hold_at_the_saturating_bound(system):
    # with m atoms, 2^m worlds and chains of length 2^m - 1 saturate (the
    # semantics docstring), so no witness here means the instance is valid
    spec = SYSTEMS[system]
    for schema in spec["axioms"]:
        instance = instantiate(schema, generic_substitution(schema))
        m = len(atoms(instance))
        bounds = SearchBounds(1 << m, (1 << m) - 1)
        if spec["dialect"] == "conwon":
            assert find_countermodel(instance, bounds) is None, schema.identifier
        else:
            assert satisfying_witness_v(Not(instance), bounds) is None, schema.identifier


def _random_schemas(rng, dialect, count):
    """Templates over three metavariables; a box antecedent's metavariable is propositional."""
    names, made = ["alpha", "phi", "chi"], 0
    while made < count:
        template = Implies(*(random_formula(rng, names, 2, size=5, dialect=dialect) for _ in "ab"))
        if len(atoms(template)) < 2 or not template.depth:
            continue
        made += 1
        antecedents = set().union(*(atoms(g.antecedent) for g in subformulas(template) if type(g) is CondBox))
        conditions = {} if dialect == "v" else {
            v: PROP if v in antecedents else rng.choice([PROP, CLOSED, None]) for v in atoms(template)}
        yield Schema(f"random.{dialect}.{made}", template, {v: c for v, c in conditions.items() if c})


_PROP_POOL = ("p", "q", "~p", "p & q", "p | q")
_WIDE_POOL = _PROP_POOL + ("[p]q",)
_CLOSED_POOL = ("[p]q", "~[p]q", "E p")


def _instance_pool(schema, dialect):
    """The substitutions of ``schema`` over small formula pools, each metavariable's pool fitting its condition."""
    pools = {
        PROP: [parse_formula(t, dialect=dialect) for t in _PROP_POOL],
        CLOSED: [parse_formula(t) for t in _CLOSED_POOL],
        None: [parse_formula(t, dialect=dialect) for t in (_WIDE_POOL if dialect == "conwon" else _PROP_POOL)],
    }
    variables = tuple(sorted(atoms(schema.template)))
    return [dict(zip(variables, combo))
            for combo in itertools.product(*(pools[schema.conditions.get(v)] for v in variables))]


def _sweep_one_at_a_time(system, bounds):
    """The failure lines of a soundness sweep that searches each instance of each schema's pool on its own."""
    import conwon.proofs

    spec, lines = conwon.proofs.SYSTEMS[system], []  # the systems as a test patches them
    for schema in spec["axioms"]:
        for subst in _instance_pool(schema, spec["dialect"]):
            instance = instantiate(schema, subst)
            if spec["dialect"] == "conwon":
                witness = find_countermodel(instance, bounds)
                lines += [f"{schema.identifier}: falsified by {witness.to_json()}"] if witness else []
            elif found := satisfying_witness_v(Not(instance), bounds):
                lines.append(f"{schema.identifier}: false at {found[1]} of {found[0].to_json()}")
    return lines


def _has_generic_instance(schema):
    try:
        generic_substitution(schema)
    except ValueError:
        return False
    return True


BAD_SCHEMAS = {
    "conwon": (Schema("bad.box", parse_formula("[alpha]gamma -> gamma"), {"alpha": PROP, "gamma": PROP}),),
    "v1": (Schema("bad.rhd", parse_formula("(phi |> chi) -> chi", dialect="v"), {}),
           Schema("bad.swap", parse_formula("(phi |> chi) -> (chi |> phi)", dialect="v"), {})),
}
BAD_CLOSED = Schema("bad.closed", parse_formula("chi -> [alpha]chi"), {"alpha": PROP, "chi": CLOSED})


@pytest.mark.parametrize("bounds, block_bits", [((2, 3), None), ((3, 2), None), ((3, 2), 16)])
def test_generic_sweep_covers_the_pool_sweep(monkeypatch, bounds, block_bits):
    # over the real systems with the unsound schemas added, and over seeded
    # random schemas that have a generic instance: every schema that a
    # search per pool instance reports is reported, each witness re-checked
    # against an instance of its schema first
    import conwon.lewis
    import conwon.proofs
    from conwon import semantics

    rng = random.Random(20261019)
    random_schemas = {"conwon": tuple(_random_schemas(rng, "conwon", 6)), "v1": tuple(_random_schemas(rng, "v", 6))}
    random_schemas = {name: tuple(filter(_has_generic_instance, schemas)) for name, schemas in random_schemas.items()}
    assert all(len(schemas) >= 4 for schemas in random_schemas.values())
    if block_bits:  # 16 bits: type sets are cut across blocks
        monkeypatch.setattr(semantics, "BLOCK_BITS", block_bits)
    rechecked = []
    real_recheck, real_v_witness = semantics.recheck_countermodel, conwon.lewis.v_witness
    monkeypatch.setattr(semantics, "recheck_countermodel",
                        lambda f, w: rechecked.extend([f] * (w is not None)) or real_recheck(f, w))
    monkeypatch.setattr(conwon.lewis, "v_witness",
                        lambda f, w: rechecked.extend([f.child] * (w is not None)) or real_v_witness(f, w))
    outcomes = set()
    for extra in (BAD_SCHEMAS, random_schemas):
        systems = {name: dict(spec, axioms=spec["axioms"] * (extra is BAD_SCHEMAS) + extra[name])
                   for name, spec in SYSTEMS.items()}
        monkeypatch.setattr(conwon.proofs, "SYSTEMS", systems)
        for system, spec in systems.items():
            rechecked.clear()
            report = soundness_sweep(system, SearchBounds(*bounds))
            witnessed, reference = list(rechecked), _sweep_one_at_a_time(system, SearchBounds(*bounds))
            schemas = {s.identifier: s for s in spec["axioms"]}
            reported = [line.partition(": ")[0] for line in report.failures]
            assert {line.partition(": ")[0] for line in reference} <= set(reported), system
            assert len(witnessed) == len(reported) and reported
            assert all(match_schema(schemas[name], f) is not None for name, f in zip(reported, witnessed))
            assert report.instances == len(schemas)
            outcomes.update(name in reported for name in schemas)
    assert outcomes == {True, False}  # some schemas are reported, some are not


def test_schema_without_a_generic_instance_is_refused(monkeypatch):
    # chi must be closed and sits under () and under (alpha): no one atom stands for its instances
    import conwon.proofs

    with pytest.raises(ValueError, match=r"bad\.closed: metavariable chi "):
        generic_substitution(BAD_CLOSED)
    systems = dict(SYSTEMS, conwon=dict(SYSTEMS["conwon"], axioms=SYSTEMS["conwon"]["axioms"] + (BAD_CLOSED,)))
    monkeypatch.setattr(conwon.proofs, "SYSTEMS", systems)
    with pytest.raises(ValueError, match="bad.closed"):
        soundness_sweep("conwon", SearchBounds(2, 2))


def test_sweep_failure_lines_do_not_depend_on_the_string_hash():
    # a witness prints as its JSON, whose lists are sorted, so no set's iteration order shows;
    # this schema's countermodels have two-world extents
    code = ("from conwon import proofs\nfrom conwon.formula import parse_formula\n"
            "from conwon.semantics import SearchBounds\n"
            "bad = proofs.Schema('bad.mono', parse_formula('[alpha]gamma -> [alpha & beta]gamma'), "
            "dict.fromkeys(('alpha', 'beta', 'gamma'), proofs.PROP))\n"
            "proofs.SYSTEMS['conwon'] = dict(proofs.SYSTEMS['conwon'], axioms=(bad,))\n"
            "print(*proofs.soundness_sweep('conwon', SearchBounds(3, 2)).failures, sep='\\n')\n")
    path = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                                         os.environ.get("PYTHONPATH")]))
    lines = [subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
                            capture_output=True, text=True, timeout=60, check=True).stdout.splitlines()
             for seed in ("0", "2")]
    assert lines[0] == lines[1]
    assert lines[0] and all(line.startswith("bad.mono: falsified by {") for line in lines[0])


def test_soundness_sweep_reports_unsound_schemas(monkeypatch):
    # an unsound schema among the sound ones is reported under its own id,
    # each countermodel confirmed by the independent evaluator first
    import conwon.lewis
    import conwon.proofs
    import conwon.semantics

    bad = {
        "conwon": Schema("bad.box", parse_formula("[alpha]gamma -> gamma"), {"alpha": PROP, "gamma": PROP}),
        "v1": Schema("bad.rhd", parse_formula("(phi |> chi) -> chi", dialect="v"), {}),
    }
    systems = {name: dict(spec, axioms=spec["axioms"] + (bad[name],)) for name, spec in SYSTEMS.items()}
    monkeypatch.setattr(conwon.proofs, "SYSTEMS", systems)
    rechecked = []
    real_recheck, real_v_witness = conwon.semantics.recheck_countermodel, conwon.lewis.v_witness
    monkeypatch.setattr(conwon.semantics, "recheck_countermodel",
                        lambda f, w: rechecked.extend([f] * (w is not None)) or real_recheck(f, w))
    monkeypatch.setattr(conwon.lewis, "v_witness",
                        lambda f, w: rechecked.extend([f.child] * (w is not None)) or real_v_witness(f, w))
    for system in ("conwon", "v1"):
        rechecked.clear()
        report = soundness_sweep(system, SearchBounds(2, 5))
        assert report.failures, system
        assert all(line.startswith(f"{bad[system].identifier}: ") for line in report.failures)
        assert len(rechecked) == len(report.failures)
        assert all(match_schema(bad[system], f) is not None for f in rechecked)

    # a kernel that calls every instance false is caught by that re-check
    monkeypatch.setattr(conwon.semantics.ModelEvaluator, "truth_mask", lambda self, node, chain: 0)
    for system in ("conwon", "v1"):
        with pytest.raises(RuntimeError):
            soundness_sweep(system, SearchBounds(2, 5))

import argparse
import json

import pytest
from hypothesis import given, settings, strategies as st

from conwon import cli, fixtures
from conwon.cli import build_parser
from conwon.errors import InputError
from conwon.fixtures import (
    NONMONO_CONTEXT,
    NONMONO_MODEL,
    TIGER_CONTEXT,
    TIGER_MODEL,
    VALID_PROOF,
)
from conwon.formula import ParseError, parse_formula, subformulas
from conwon.models import SchemaError, load_context, load_model
from conwon.proofs import ProofError
from conwon.reduction import RewriteError, sigma
from conwon.semantics import EvaluationError, evaluate
from conftest import invoke, nested_boxes


@pytest.fixture
def tiger_files(tmp_path):
    model = tmp_path / "model.json"
    context = tmp_path / "context.json"
    model.write_text(json.dumps(TIGER_MODEL))
    context.write_text(json.dumps(TIGER_CONTEXT))
    return str(model), str(context)


@pytest.fixture
def nonmono_files(tmp_path):
    model = tmp_path / "model.json"
    context = tmp_path / "context.json"
    model.write_text(json.dumps(NONMONO_MODEL))
    context.write_text(json.dumps(NONMONO_CONTEXT))
    return str(model), str(context)


# --- error boundary -------------------------------------------------------


def subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            yield from sorted(action.choices.items())


def command_paths(parser, prefix=()):
    for name, sub in subparsers(parser):
        yield [*prefix, name]
        yield from command_paths(sub, (*prefix, name))


@pytest.mark.parametrize("path", list(command_paths(build_parser())), ids=" ".join)
def test_help_exit_0(path):
    result = invoke([*path, "--help"])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("usage:")


@pytest.mark.parametrize("error", [ParseError, SchemaError, ProofError, RewriteError, EvaluationError])
def test_input_errors_share_one_base(error):
    # main maps exactly these to exit 2 by catching their base class
    assert issubclass(error, InputError)


# --- parse ----------------------------------------------------------------


def test_parse_human():
    result = invoke(["parse", "[p](q -> r)"])
    assert result.exit_code == 0
    assert "modal depth 1" in result.output


def test_parse_json_round_trips():
    result = invoke(["parse", "E p -> [p]q", "--output", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    f = parse_formula(payload["canonical"])
    assert f == parse_formula("E p -> [p]q")
    assert payload["flat"] is True and payload["closed"] is True


def test_parse_error_exit_2_with_position():
    result = invoke(["parse", "p & ("])
    assert result.exit_code == 2
    assert "error:" in result.output
    assert "position" in result.output


def test_dialect_error_exit_2():
    result = invoke(["parse", "p |> q"])
    assert result.exit_code == 2


# --- eval -----------------------------------------------------------------


def test_eval_true_exit_0(tiger_files):
    model, context = tiger_files
    result = invoke([
        "eval", "--model", model, "--context", context,
        "--world", "w3", "--formula", "[a_g]~a_d", "--trace",
    ])
    assert result.exit_code == 0
    assert "true" in result.output
    assert "hierarchy" in result.output


def test_eval_and_example_share_the_trace_schema(tiger_files):
    model, context = tiger_files
    step = {"antecedent": "a_g", "generated": ["w1", "w2", "w4", "w6"], "expected": ["w1"],
            "hierarchy": [["|a_g|"], ["D2"], ["D1", "D3"]]}
    result = invoke([
        "eval", "--model", model, "--context", context,
        "--world", "w3", "--formula", "[a_g]~a_d", "--trace", "--output", "json",
    ])
    assert json.loads(result.output)["trace"] == [step]
    result = invoke(["examples", "run", "tiger", "--output", "json"])
    assert json.loads(result.output)["trace"] == [step]


def test_eval_trace_lists_each_conditional_once_per_context(tmp_path):
    worlds = [f"w{i + 1}" for i in range(8)]
    model, context = tmp_path / "model.json", tmp_path / "context.json"
    model.write_text(json.dumps({"worlds": worlds, "valuation": {"p": worlds[:6], "q": worlds[:4]}}))
    context.write_text(json.dumps({"kind": "sequence", "sequence": [worlds]}))
    result = invoke([
        "eval", "--model", str(model), "--context", str(context), "--world", "w1",
        "--formula", nested_boxes(8), "--trace", "--output", "json",
    ])
    assert result.exit_code in (0, 1), result.output
    assert len(json.loads(result.output)["trace"]) == 16


def test_eval_false_exit_1(nonmono_files):
    model, context = nonmono_files
    result = invoke([
        "eval", "--model", model, "--context", context,
        "--world", "w1", "--formula", "[p & ~q]q",
    ])
    assert result.exit_code == 1
    assert "false" in result.output


def test_eval_missing_file_exit_2(tmp_path):
    result = invoke([
        "eval", "--model", str(tmp_path / "nope.json"),
        "--context", str(tmp_path / "nope.json"),
        "--world", "w1", "--formula", "p",
    ])
    assert result.exit_code == 2


def test_eval_bad_schema_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"worlds": []}))
    result = invoke([
        "eval", "--model", str(bad), "--context", str(bad),
        "--world", "w1", "--formula", "p",
    ])
    assert result.exit_code == 2


def test_eval_unknown_world_exit_2(tiger_files):
    model, context = tiger_files
    result = invoke([
        "eval", "--model", model, "--context", context, "--world", "w9", "--formula", "p",
    ])
    assert result.exit_code == 2
    assert result.stderr == "error: unknown world 'w9'\n"
    assert "Traceback" not in result.output


# --- expected / update ----------------------------------------------------


@pytest.mark.parametrize("argv", [["eval", "--formula", "[p]q", "--world", "w1"], ["update", "--alpha", "p"]],
                         ids=lambda argv: argv[0])
def test_generated_default_name_taken_by_another_default(tmp_path, argv):
    # the context's own |p| names {w2}; updating with p generates {w1}, named |p|'
    model, context = tmp_path / "model.json", tmp_path / "context.json"
    model.write_text(json.dumps({"worlds": ["w1", "w2"], "valuation": {"p": ["w1"], "q": ["w1"]}}))
    context.write_text(json.dumps({"kind": "ordered-set", "defaults": {"|p|": ["w2"]}, "order": []}))
    result = invoke([*argv, "--model", str(model), "--context", str(context), "--output", "json"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    if argv[0] == "eval":
        assert payload["value"] is True
    else:
        assert payload["context"]["defaults"] == {"|p|": ["w2"], "|p|'": ["w1"]}


def test_expected_json(tiger_files):
    model, context = tiger_files
    result = invoke([
        "expected", "--model", model, "--context", context, "--output", "json",
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["expected"] == ["w1", "w3", "w5"]
    assert payload["hierarchy"] == [["D2"], ["D1", "D3"]]


def test_update_json_round_trips_through_loader(tiger_files):
    model_path, context_path = tiger_files
    result = invoke([
        "update", "--model", model_path, "--context", context_path,
        "--alpha", "a_g", "--output", "json",
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    model = load_model(TIGER_MODEL)
    updated = load_context(payload["context"], model)
    assert payload["generated"] == ["w1", "w2", "w4", "w6"]
    assert payload["expected"] == ["w1"]
    assert updated.check_against(model) is None


# --- reduce / falsify -----------------------------------------------------


def test_reduce():
    result = invoke(["reduce", "--formula", "[p][q]r", "--output", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["modal_depth"] <= 1
    # output parses back in the conwon dialect
    parse_formula(payload["flat"])


def test_reduce_reports_output_sizes():
    result = invoke(["reduce", "--formula", "[p][q][r][s]t", "--output", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    flat = parse_formula(payload["flat"])
    assert payload["printed_nodes"] == flat.size == 83
    assert payload["dag_nodes"] == len(set(subformulas(flat))) < flat.size


def test_reduce_depth5_chain():
    result = invoke(["reduce", "--formula", "[p][q][r][s][t]u", "--output", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["modal_depth"] <= 1


def test_reduce_renders_sigma_output_once(monkeypatch):
    from conwon import formula

    flat = sigma(parse_formula("[p][q][r]s"))
    calls = []
    real = formula.render
    monkeypatch.setattr(formula, "render", lambda f: calls.append(f) or real(f))
    result = invoke(["reduce", "--formula", "[p][q][r]s"])
    assert result.exit_code == 0
    assert result.output == real(flat) + "\n"
    assert calls.count(flat) == 1


def test_reduce_depth9_chain_exit_0():
    result = invoke(["reduce", "--formula", "[p][q][r][s][t][u][v][w][x]y", "--output", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["modal_depth"] <= 1


def test_reduce_depth11_chain_exit_0():
    result = invoke(["reduce", "--formula", "[p][q][r][s][t][u][v][w][x][y][z]a", "--output", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["modal_depth"] == 1
    assert payload["printed_nodes"] == 405


def test_reduce_over_the_cap_exit_2():
    # a mixed body whose clause product is over the cap: 2^16 clauses of 16 disjuncts each
    mixed = " | ".join(f"(a{i} & [b{i}]c{i})" for i in range(16))
    result = invoke(["reduce", "--formula", f"[p]({mixed})"])
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1
    assert "exceeds the cap" in result.stderr
    assert "Traceback" not in result.output


def test_falsify_finds_countermodel():
    result = invoke([
        "falsify", "--formula", "([p]q) -> ([p & ~q]q)",
        "--max-worlds", "2", "--max-context-len", "3", "--output", "json",
    ])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    witness = payload["countermodel"]
    model = load_model(witness["model"])
    assert load_context(witness["context"], model) is not None


def test_falsify_validity_exit_0():
    result = invoke([
        "falsify", "--formula", "[p](q -> q)", "--max-worlds", "2",
    ])
    assert result.exit_code == 0
    assert "no countermodel" in result.output


def test_falsify_propositional_needs_one_context():
    # the cap counts canonical valuations times chains, one chain here
    result = invoke([
        "falsify", "--formula", "p|q|r|s|t|u", "--max-worlds", "4",
        "--max-context-len", "2", "--output", "json",
    ])
    assert result.exit_code == 1
    witness = json.loads(result.stdout)["countermodel"]
    model = load_model(witness["model"])
    context = load_context(witness["context"], model)
    f = parse_formula("p|q|r|s|t|u")
    assert evaluate(model, context, witness["world"], f) is False


def test_falsify_over_the_cap_exit_2():
    result = invoke([
        "falsify", "--formula", "[p](q|r|s|t|u|v)", "--max-worlds", "6",
        "--max-context-len", "5",
    ])
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1
    assert "exceeds the cap" in result.stderr


def test_falsify_zero_bounds_exit_2():
    for flag in ("--max-worlds", "--max-context-len"):
        result = invoke(["falsify", "--formula", "p", flag, "0"])
        assert result.exit_code == 2
        assert result.stderr == "error: bounds must be at least 1\n"
        assert "Traceback" not in result.output


def test_internal_fault_exit_3(monkeypatch):
    # a fault of conwon itself, such as a kernel witness that fails its
    # re-check, is neither a verdict nor an input error
    import conwon.semantics

    def broken(f, bounds):
        raise RuntimeError("kernel countermodel to p does not hold up")

    monkeypatch.setattr(conwon.semantics, "find_countermodel", broken)
    result = invoke(["falsify", "--formula", "p", "--max-worlds", "2"])
    assert result.exit_code == 3
    assert result.stderr == "internal error: RuntimeError: kernel countermodel to p does not hold up\n"
    assert "Traceback" not in result.output


# --- compare-v ------------------------------------------------------------


def test_compare_v_agrees():
    result = invoke([
        "compare-v", "--formula", "[p]q", "--max-worlds", "2", "--output", "json",
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["agrees"] is True
    assert all("verified" in c for c in payload["transport_checks"])


def test_compare_v_corner_dialect():
    result = invoke([
        "compare-v", "--formula", "p |> q", "--dialect", "v", "--max-worlds", "2",
    ])
    assert result.exit_code == 0


def test_compare_v_searches_the_same_bounds_on_both_sides():
    # at |W| = 3 with chains of length 1 the formula is unsatisfiable under
    # both semantics; it needs a chain of length 2, the bound both sides take next
    formula = "[~q]p & ~[~p]q & [p]q"
    for length, satisfiable in (("1", False), ("2", True)):
        result = invoke(["compare-v", "--formula", formula, "--max-worlds", "3", "--max-context-len", length,
                         "--output", "json"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert (payload["conwon_satisfiable"], payload["v_satisfiable"], payload["agrees"]) == (
            satisfiable, satisfiable, True), length


def test_compare_v_rejects_nested():
    result = invoke(["compare-v", "--formula", "[p][q]r"])
    assert result.exit_code == 2
    assert result.stderr == "error: equivalence harness expects a flat formula\n"
    assert "Traceback" not in result.output


def test_deep_flat_formulas_exit_0():
    # the parser and the printer are loops: nesting is bounded by memory only
    for count in (1_500, 100_000):
        formula = " & ".join(["p"] * count)
        for command in (["parse", formula], ["reduce", "--formula", formula]):
            result = invoke(command)
            assert result.exit_code == 0, (command[0], count)
            assert result.stdout.splitlines()[0] == formula  # the canonical form: it round-trips


def test_deep_flat_disjunction_of_conditionals_exit_0():
    # sigma walks ~ and & with a stack: a deep disjunction of conditionals comes back as it went in
    formula = " | ".join(["[p]q"] * 3000)
    result = invoke(["reduce", "--formula", formula])
    assert result.exit_code == 0
    assert parse_formula(result.stdout.splitlines()[0]) is parse_formula(formula)


def test_deep_nesting_exit_2():
    # sigma still recurses once per nested conditional
    result = invoke(["reduce", "--formula", "[p]" * 1000 + "q"])
    assert result.exit_code == 2
    assert result.stderr == "error: formula is nested too deeply\n"
    assert "Traceback" not in result.output


# --- check-proof ----------------------------------------------------------


def test_check_proof_accept(tmp_path):
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(VALID_PROOF))
    result = invoke(["check-proof", str(path)])
    assert result.exit_code == 0
    assert "accepted" in result.output


def test_check_proof_reject(tmp_path):
    bad = {
        "system": "conwon",
        "steps": [{"formula": "[p]q", "by": {"axiom": "conwon.3a"}}],
    }
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(bad))
    result = invoke(["check-proof", str(path), "--output", "json"])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["accepted"] is False
    assert payload["errors"]


def test_check_proof_rejects_a_substitution_that_breaks_a_side_condition(tmp_path):
    # the side condition is checked before the instance is built: [[q]q]p
    # has a non-propositional box antecedent, which no formula may have
    proof = {"system": "conwon",
             "steps": [{"formula": "[p]p", "by": {"axiom": "conwon.3a", "subst": {"alpha": "[q]q"}}}]}
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(proof))
    result = invoke(["check-proof", str(path), "--output", "json"])
    assert result.exit_code == 1
    assert json.loads(result.output)["errors"] == ["step 1: conwon.3a: side condition violated for alpha"]


def test_check_proof_malformed_exit_2(tmp_path):
    path = tmp_path / "proof.json"
    path.write_text("{not json")
    result = invoke(["check-proof", str(path)])
    assert result.exit_code == 2
    path.write_text(json.dumps({"system": "conwon", "steps": [{"formula": "[p]p", "by": "axiom"}]}))
    result = invoke(["check-proof", str(path)])
    assert result.exit_code == 2
    assert result.stderr == "error: step 1: 'by' must be an object\n"
    assert "Traceback" not in result.output
    for proof, message in [
        ({"system": "conwon", "steps": 5}, "'steps' must be a list"),
        ({"system": "conwon", "steps": [{"formula": 5, "by": {"axiom": "conwon.3a"}}]},
         "step 1: 'formula' must be a string"),
    ]:
        path.write_text(json.dumps(proof))
        result = invoke(["check-proof", str(path)])
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"


def test_non_utf8_input_exit_2(tiger_files, tmp_path):
    model, context = tiger_files
    binary = tmp_path / "bin.json"
    binary.write_bytes(b"\xff\xfe")
    for argv in (["expected", "--model", str(binary), "--context", context],
                 ["eval", "--model", model, "--context", str(binary), "--world", "w1", "--formula", "p"],
                 ["check-proof", str(binary)]):
        result = invoke(argv)
        assert result.exit_code == 2, (argv, result.output)
        assert result.stdout == ""
        assert result.stderr == f"error: {binary}: not UTF-8 text (invalid start byte at byte 0)\n"


def test_malformed_json_names_its_file(tiger_files, tmp_path):
    # with two file options the message says which file is at fault
    model, context = tiger_files
    broken, listed = tmp_path / "broken.json", tmp_path / "listed.json"
    broken.write_text("{nope")
    listed.write_text("[]")
    decode = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    for argv, message in (
            (["expected", "--model", str(broken), "--context", context], f"{broken}: {decode}"),
            (["expected", "--model", model, "--context", str(broken)], f"{broken}: {decode}"),
            (["expected", "--model", str(listed), "--context", context], f"{listed}: expected a JSON object"),
            (["eval", "--model", model, "--context", str(listed), "--world", "w1", "--formula", "p"],
             f"{listed}: expected a JSON object"),
            (["check-proof", str(broken)], f"{broken}: {decode}"),
            (["check-proof", str(listed)], f"{listed}: expected a JSON object")):
        result = invoke(argv)
        assert result.exit_code == 2, (argv, result.output)
        assert result.stdout == ""
        assert result.stderr == f"error: {message}\n", argv


# --- examples -------------------------------------------------------------


def test_examples_run_all():
    expected_codes = {"tiger": 0, "reagan": 1, "nonmono": 1, "fact16": 0, "figure1": 0}
    for name, code in expected_codes.items():
        result = invoke(["examples", "run", name])
        assert result.exit_code == code, (name, result.output)


def test_examples_unknown_name():
    result = invoke(["examples", "run", "nope"])
    assert result.exit_code == 2


@pytest.mark.parametrize("output", ["human", "json"])
@pytest.mark.parametrize("name, argv", [
    ("tiger", ["eval", "--world", "w3", "--formula", "[a_g]~a_d", "--trace"]),
    ("reagan", ["eval", "--world", "w1", "--formula", "[~r][r | a]r", "--trace"]),
    ("figure1", ["expected"]),
])
def test_example_prints_what_its_command_prints(tmp_path, name, argv, output):
    model, context = tmp_path / "model.json", tmp_path / "context.json"
    model.write_text(json.dumps(getattr(fixtures, f"{name.upper()}_MODEL")))
    context.write_text(json.dumps(getattr(fixtures, f"{name.upper()}_CONTEXT")))
    command = invoke([*argv, "--model", str(model), "--context", str(context), "--output", output])
    assert command.exit_code in (0, 1)
    assert invoke(["examples", "run", name, "--output", output]) == command


def test_report_functions_return_and_print_nothing(tiger_files, tmp_path, capsys):
    model, context = tiger_files
    proof = tmp_path / "proof.json"
    proof.write_text(json.dumps(VALID_PROOF))
    reports = [
        cli.parse_cmd("[p]q", "conwon"),
        cli.eval_cmd(model, context, "w3", "[a_g]~a_d", True),
        cli.expected_cmd(model, context),
        cli.update_cmd(model, context, "a_g"),
        cli.reduce_cmd("[p][q]r"),
        cli.falsify_cmd("[p]q -> [p & ~q]q", 2, 3),
        cli.compare_v_cmd("[p]q", 2, 3, "conwon"),
        cli.check_proof_cmd(str(proof), None),
        *(cli.examples_run(name) for name in cli.EXAMPLE_NAMES),
    ]
    assert capsys.readouterr() == ("", "")
    for code, payload, lines in reports:
        assert code in (0, 1) and isinstance(payload, dict)
        assert lines and all(isinstance(line, str) for line in lines)


# --- fuzzing the front end ------------------------------------------------

FUZZ_FILES = {
    "not_json.json": "{not json",
    "list.json": "[]",
    "null.json": "null",
    "worlds_int.json": {"worlds": 5, "valuation": {}},
    "valuation_int.json": {"worlds": ["w1"], "valuation": {"p": 3}},
    "kind.json": {"kind": "nope"},
    "sequence_unknown_world.json": {"kind": "sequence", "sequence": [["w9"]]},
    "sequence_int.json": {"kind": "sequence", "sequence": [5]},
    "defaults_int.json": {"kind": "ordered-set", "defaults": {"D1": 3}, "order": [["D1", "D2"]]},
    "steps_string.json": {"system": "conwon", "steps": "x"},
    "rule_refs.json": {"system": "conwon", "steps": [{"formula": "p", "by": {"rule": "MP", "from": [1, 2]}}]},
    "subst_int.json": {"system": "conwon",
                       "steps": [{"formula": "[p]p", "by": {"axiom": "conwon.3a", "subst": {"p": 5}}}]},
    "tiger_model.json": TIGER_MODEL,
    "tiger_context.json": TIGER_CONTEXT,
    "valid_proof.json": VALID_PROOF,
}

FORMULAS = ["p", "a_g", "[p]q", "[a_g]~a_d", "([p]q) -> ([p & ~q]q)", "p |> q", "[p][q]r",
            "E (p & q)", "p &", "~", ""]
JUNK = ["w1", "w3", "w9", "0", "-1", "--", "-", "--nope", "@", "tiger"]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, data in FUZZ_FILES.items():
        (root / name).write_text(data if isinstance(data, str) else json.dumps(data))
    (root / "not_utf8.json").write_bytes(b'{"worlds": ["w\xe9"]}')
    return (sorted(str(root / name) for name in FUZZ_FILES)
            + [str(root / "not_utf8.json"), str(root / "missing.json"), str(root)])


def parser_words(parser):
    """Every option flag and choice of ``parser`` and its subparsers."""
    words = set()
    for action in parser._actions:
        words.update(action.option_strings)
        words.update(action.choices or ())
    for _, sub in subparsers(parser):
        words.update(parser_words(sub))
    return sorted(words)


def leaves(parser, prefix=()):
    """(command path, its parser) for every command that runs a handler."""
    subs = list(subparsers(parser))
    if not subs:
        yield list(prefix), parser
    for name, sub in subs:
        yield from leaves(sub, (*prefix, name))


LEAVES = list(leaves(build_parser()))
WORDS = parser_words(build_parser())


def draw_argv(data, paths):
    """A command path and most of its own arguments, mostly with fitting
    values and some with any value, plus up to two loose tokens anywhere."""
    values = st.sampled_from(FORMULAS + JUNK + paths)
    fitting = {"formula": FORMULAS, "alpha": FORMULAS, "world": ["w1", "w3", "w9"],
               "model_path": paths, "context_path": paths, "proof_file": paths}
    path, parser = data.draw(st.sampled_from(LEAVES))
    argv = []
    for action in parser._actions:
        if action.option_strings == ["-h", "--help"] or not data.draw(st.sampled_from([1, 1, 1, 0])):
            continue
        fits = st.sampled_from(action.choices or fitting.get(action.dest) or ["0", "1", "2"])
        junk = data.draw(st.sampled_from([False] * 5 + [True]))
        value = [] if action.nargs == 0 else [data.draw(values if junk else fits)]
        argv += [*action.option_strings[-1:], *value]
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):
        argv.insert(data.draw(st.integers(0, len(argv))), data.draw(st.one_of(values, st.sampled_from(WORDS))))
    return path + argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_fuzz_exits_cleanly(fuzz_paths, data):
    argv = draw_argv(data, fuzz_paths)
    if argv[0] in ("falsify", "compare-v"):  # at most 2 worlds, so that every run stays fast
        argv += ["--max-worlds", data.draw(st.sampled_from(["0", "1", "2"]))]
    result = invoke(argv)
    assert result.exit_code in (0, 1, 2), (argv, result.output)
    assert "Traceback" not in result.output


def draw_wellformed_argv(data, paths):
    """A command path with each required argument and nothing else: values
    the parser accepts and formulas that parse, so that the handler runs and
    its loaders read whichever of ``paths`` is drawn (the well-formed file
    of each option a third of the time, so that verdicts are reached too)."""
    fitting = {"formula": FORMULAS[:5], "alpha": ["p", "a_g", "~a_d", "p & q"], "world": ["w1", "w3", "w9"]}
    for dest, name in (("model_path", "tiger_model.json"), ("context_path", "tiger_context.json"),
                       ("proof_file", "valid_proof.json")):
        fitting[dest] = paths + [p for p in paths if p.endswith(name)] * (len(paths) // 2)
    path, parser = data.draw(st.sampled_from(LEAVES))
    argv = []
    for action in parser._actions:
        if action.required:
            value = data.draw(st.sampled_from(action.choices or fitting[action.dest]))
            argv += [*action.option_strings[-1:], value]
    if path[0] in ("falsify", "compare-v"):  # at most 2 worlds, so that every run stays fast
        argv += ["--max-worlds", data.draw(st.sampled_from(["1", "2"]))]
    return path + argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_fuzz_wellformed_exits_cleanly(fuzz_paths, data):
    argv = draw_wellformed_argv(data, fuzz_paths)
    result = invoke(argv)
    assert result.exit_code in (0, 1, 2), (argv, result.output)
    assert "Traceback" not in result.output

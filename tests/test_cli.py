import json

import click
import pytest
from click.testing import CliRunner

from conwon.cli import main
from conwon.errors import InputError
from conwon.fixtures import (
    NONMONO_CONTEXT,
    NONMONO_MODEL,
    TIGER_CONTEXT,
    TIGER_MODEL,
    VALID_PROOF,
)
from conwon.formula import ParseError, parse_formula
from conwon.models import SchemaError, load_context, load_model
from conwon.proofs import ProofError
from conwon.reduction import RewriteError
from conwon.semantics import EvaluationError, evaluate


@pytest.fixture
def runner():
    return CliRunner()


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


def command_paths(group, prefix=()):
    for name, command in sorted(group.commands.items()):
        yield [*prefix, name]
        if isinstance(command, click.Group):
            yield from command_paths(command, (*prefix, name))


@pytest.mark.parametrize("path", list(command_paths(main)), ids=" ".join)
def test_help_exit_0(runner, path):
    result = runner.invoke(main, [*path, "--help"])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("Usage:")


@pytest.mark.parametrize("error", [ParseError, SchemaError, ProofError, RewriteError, EvaluationError])
def test_input_errors_share_one_base(error):
    # guarded maps exactly these to exit 2 by catching their base class
    assert issubclass(error, InputError)


# --- parse ----------------------------------------------------------------


def test_parse_human(runner):
    result = runner.invoke(main, ["parse", "[p](q -> r)"])
    assert result.exit_code == 0
    assert "modal depth 1" in result.output


def test_parse_json_round_trips(runner):
    result = runner.invoke(main, ["parse", "E p -> [p]q", "--output", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    f = parse_formula(payload["canonical"])
    assert f == parse_formula("E p -> [p]q")
    assert payload["flat"] is True and payload["closed"] is True


def test_parse_error_exit_2_with_position(runner):
    result = runner.invoke(main, ["parse", "p & ("])
    assert result.exit_code == 2
    assert "error:" in result.output
    assert "position" in result.output


def test_dialect_error_exit_2(runner):
    result = runner.invoke(main, ["parse", "p |> q"])
    assert result.exit_code == 2


# --- eval -----------------------------------------------------------------


def test_eval_true_exit_0(runner, tiger_files):
    model, context = tiger_files
    result = runner.invoke(main, [
        "eval", "--model", model, "--context", context,
        "--world", "w3", "--formula", "[a_g]~a_d", "--trace",
    ])
    assert result.exit_code == 0
    assert "true" in result.output
    assert "hierarchy" in result.output


def test_eval_and_example_share_the_trace_schema(runner, tiger_files):
    model, context = tiger_files
    step = {"antecedent": "a_g", "generated": ["w1", "w2", "w4", "w6"], "expected": ["w1"],
            "hierarchy": [["|a_g|"], ["D2"], ["D1", "D3"]]}
    result = runner.invoke(main, [
        "eval", "--model", model, "--context", context,
        "--world", "w3", "--formula", "[a_g]~a_d", "--trace", "--output", "json",
    ])
    assert json.loads(result.output)["trace"] == [step]
    result = runner.invoke(main, ["examples", "run", "tiger", "--output", "json"])
    assert json.loads(result.output)["trace"] == [step]


def test_eval_false_exit_1(runner, nonmono_files):
    model, context = nonmono_files
    result = runner.invoke(main, [
        "eval", "--model", model, "--context", context,
        "--world", "w1", "--formula", "[p & ~q]q",
    ])
    assert result.exit_code == 1
    assert "false" in result.output


def test_eval_missing_file_exit_2(runner, tmp_path):
    result = runner.invoke(main, [
        "eval", "--model", str(tmp_path / "nope.json"),
        "--context", str(tmp_path / "nope.json"),
        "--world", "w1", "--formula", "p",
    ])
    assert result.exit_code == 2


def test_eval_bad_schema_exit_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"worlds": []}))
    result = runner.invoke(main, [
        "eval", "--model", str(bad), "--context", str(bad),
        "--world", "w1", "--formula", "p",
    ])
    assert result.exit_code == 2


def test_eval_unknown_world_exit_2(runner, tiger_files):
    model, context = tiger_files
    result = runner.invoke(main, [
        "eval", "--model", model, "--context", context, "--world", "w9", "--formula", "p",
    ])
    assert result.exit_code == 2
    assert result.stderr == "error: unknown world 'w9'\n"
    assert "Traceback" not in result.output


# --- expected / update ----------------------------------------------------


def test_expected_json(runner, tiger_files):
    model, context = tiger_files
    result = runner.invoke(main, [
        "expected", "--model", model, "--context", context, "--output", "json",
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["expected"] == ["w1", "w3", "w5"]
    assert payload["hierarchy"] == [["D2"], ["D1", "D3"]]


def test_update_json_round_trips_through_loader(runner, tiger_files):
    model_path, context_path = tiger_files
    result = runner.invoke(main, [
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


def test_reduce(runner):
    result = runner.invoke(main, ["reduce", "--formula", "[p][q]r", "--output", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["modal_depth"] <= 1
    # output parses back in the conwon dialect
    parse_formula(payload["flat"])


def test_reduce_depth5_chain(runner):
    result = runner.invoke(main, ["reduce", "--formula", "[p][q][r][s][t]u", "--output", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["modal_depth"] <= 1


def test_reduce_over_the_cap_exit_2(runner):
    result = runner.invoke(main, ["reduce", "--formula", "[p][q][r][s][t][u][v][w][x]y"])
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1
    assert "exceeds the cap" in result.stderr
    assert "Traceback" not in result.output


def test_falsify_finds_countermodel(runner):
    result = runner.invoke(main, [
        "falsify", "--formula", "([p]q) -> ([p & ~q]q)",
        "--max-worlds", "2", "--max-context-len", "3", "--output", "json",
    ])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    witness = payload["countermodel"]
    model = load_model(witness["model"])
    assert load_context(witness["context"], model) is not None


def test_falsify_validity_exit_0(runner):
    result = runner.invoke(main, [
        "falsify", "--formula", "[p](q -> q)", "--max-worlds", "2",
    ])
    assert result.exit_code == 0
    assert "no countermodel" in result.output


def test_falsify_propositional_needs_one_context(runner):
    # the cap counts canonical valuations times chains, one chain here
    result = runner.invoke(main, [
        "falsify", "--formula", "p|q|r|s|t|u", "--max-worlds", "4",
        "--max-context-len", "2", "--output", "json",
    ])
    assert result.exit_code == 1
    witness = json.loads(result.stdout)["countermodel"]
    model = load_model(witness["model"])
    context = load_context(witness["context"], model)
    f = parse_formula("p|q|r|s|t|u")
    assert evaluate(model, context, witness["world"], f) is False


def test_falsify_over_the_cap_exit_2(runner):
    result = runner.invoke(main, [
        "falsify", "--formula", "[p](q|r|s|t|u|v)", "--max-worlds", "6",
        "--max-context-len", "5",
    ])
    assert result.exit_code == 2
    assert result.stderr.count("\n") == 1
    assert "exceeds the cap" in result.stderr


def test_falsify_zero_bounds_exit_2(runner):
    for flag in ("--max-worlds", "--max-context-len"):
        result = runner.invoke(main, ["falsify", "--formula", "p", flag, "0"])
        assert result.exit_code == 2
        assert result.stderr == "error: bounds must be at least 1\n"
        assert "Traceback" not in result.output


def test_internal_fault_exit_3(runner, monkeypatch):
    # a fault of conwon itself, such as a kernel witness that fails its
    # re-check, is neither a verdict nor an input error
    import conwon.semantics

    def broken(f, bounds):
        raise RuntimeError("kernel countermodel to p does not hold up")

    monkeypatch.setattr(conwon.semantics, "find_countermodel", broken)
    result = runner.invoke(main, ["falsify", "--formula", "p", "--max-worlds", "2"])
    assert result.exit_code == 3
    assert result.stderr == "internal error: RuntimeError: kernel countermodel to p does not hold up\n"
    assert "Traceback" not in result.output


# --- compare-v ------------------------------------------------------------


def test_compare_v_agrees(runner):
    result = runner.invoke(main, [
        "compare-v", "--formula", "[p]q", "--max-worlds", "2", "--output", "json",
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["agrees"] is True
    assert all("verified" in c for c in payload["transport_checks"])


def test_compare_v_corner_dialect(runner):
    result = runner.invoke(main, [
        "compare-v", "--formula", "p |> q", "--dialect", "v", "--max-worlds", "2",
    ])
    assert result.exit_code == 0


def test_compare_v_rejects_nested(runner):
    result = runner.invoke(main, ["compare-v", "--formula", "[p][q]r"])
    assert result.exit_code == 2
    assert result.stderr == "error: equivalence harness expects a flat formula\n"
    assert "Traceback" not in result.output


def test_deep_nesting_exit_2(runner):
    formula = " & ".join(["p"] * 1500)
    for command in (["parse", formula], ["reduce", "--formula", formula]):
        result = runner.invoke(main, command)
        assert result.exit_code == 2, command[0]
        assert result.stderr == "error: formula is nested too deeply\n"
        assert "Traceback" not in result.output


# --- check-proof ----------------------------------------------------------


def test_check_proof_accept(runner, tmp_path):
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(VALID_PROOF))
    result = runner.invoke(main, ["check-proof", str(path)])
    assert result.exit_code == 0
    assert "accepted" in result.output


def test_check_proof_reject(runner, tmp_path):
    bad = {
        "system": "conwon",
        "steps": [{"formula": "[p]q", "by": {"axiom": "conwon.3a"}}],
    }
    path = tmp_path / "proof.json"
    path.write_text(json.dumps(bad))
    result = runner.invoke(main, ["check-proof", str(path), "--output", "json"])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["accepted"] is False
    assert payload["errors"]


def test_check_proof_malformed_exit_2(runner, tmp_path):
    path = tmp_path / "proof.json"
    path.write_text("{not json")
    result = runner.invoke(main, ["check-proof", str(path)])
    assert result.exit_code == 2
    path.write_text(json.dumps({"system": "conwon", "steps": [{"formula": "[p]p", "by": "axiom"}]}))
    result = runner.invoke(main, ["check-proof", str(path)])
    assert result.exit_code == 2
    assert result.stderr == "error: step 1: 'by' must be an object\n"
    assert "Traceback" not in result.output
    for proof, message in [
        ({"system": "conwon", "steps": 5}, "'steps' must be a list"),
        ({"system": "conwon", "steps": [{"formula": 5, "by": {"axiom": "conwon.3a"}}]},
         "step 1: 'formula' must be a string"),
    ]:
        path.write_text(json.dumps(proof))
        result = runner.invoke(main, ["check-proof", str(path)])
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"


# --- examples -------------------------------------------------------------


def test_examples_run_all(runner):
    expected_codes = {"tiger": 0, "reagan": 1, "nonmono": 1, "fact16": 0, "figure1": 0}
    for name, code in expected_codes.items():
        result = runner.invoke(main, ["examples", "run", name])
        assert result.exit_code == code, (name, result.output)


def test_examples_unknown_name(runner):
    result = runner.invoke(main, ["examples", "run", "nope"])
    assert result.exit_code == 2

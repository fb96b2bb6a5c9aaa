"""Command-line front end.

Exit codes: 0 for success (true / valid up to bounds / proof accepted),
1 for a negative verdict (false / countermodel found / proof rejected),
2 for usage or input errors, 3 for an internal fault.

Each subcommand imports what it uses when it runs; input errors subclass
:class:`conwon.errors.InputError` and exit 2.
"""

import functools
import json
import sys

import click

from .errors import InputError
from .fixtures import EXAMPLES, run_example


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (InputError, OSError, json.JSONDecodeError) as exc:
            _fail(str(exc))
        except RecursionError:
            _fail("formula is nested too deeply")
        except click.ClickException:
            raise
        except Exception as exc:  # a fault of conwon itself, never a verdict
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(3)

    return wrapper


output_option = click.option(
    "--output", type=click.Choice(["human", "json"]), default="human", show_default=True
)


def emit(output: str, payload: dict, lines) -> None:
    if output == "json":
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            click.echo(line)


@click.group()
def main() -> None:
    """Tools for conditional weak ontic necessity."""


@main.command("parse")
@click.argument("formula")
@click.option("--dialect", type=click.Choice(["conwon", "v"]), default="conwon", show_default=True)
@output_option
@guarded
def parse_cmd(formula: str, dialect: str, output: str) -> None:
    """Parse FORMULA and print its canonical desugared form."""
    from .formula import classify, modal_depth, parse_formula, render

    f = parse_formula(formula, dialect=dialect)
    info = classify(f)
    payload = {
        "canonical": render(f),
        "dialect": dialect,
        "modal_depth": modal_depth(f),
        "propositional": info.is_propositional,
        "flat": info.is_flat,
        "closed": info.is_closed,
    }
    lines = [render(f), f"modal depth {payload['modal_depth']}"
             + (", propositional" if info.is_propositional else "")
             + (", flat" if info.is_flat else "")
             + (", closed" if info.is_closed else "")]
    emit(output, payload, lines)


def _trace_lines(trace):
    lines = []
    for step in trace:
        lines.append(f"update with {step.antecedent}: generated {sorted(step.generated)}")
        if step.levels is not None:
            lines.append(f"  hierarchy: {[sorted(level) for level in step.levels]}")
        if step.sequence is not None:
            lines.append(f"  sequence: {[sorted(d) for d in step.sequence]}")
        lines.append(f"  expected: {sorted(step.expected)}")
    return lines


@main.command("eval")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--context", "context_path", required=True, type=click.Path())
@click.option("--world", required=True)
@click.option("--formula", required=True)
@click.option("--trace", is_flag=True)
@output_option
@guarded
def eval_cmd(model_path, context_path, world, formula, trace, output) -> None:
    """Evaluate a formula at (model, context, world)."""
    from .formula import parse_formula, render
    from .models import load_context, load_model
    from .semantics import ContextualizedPointedModel, eval_cpm

    model = load_model(model_path)
    context = load_context(context_path, model)
    point = ContextualizedPointedModel(model, context, world)
    f = parse_formula(formula)
    steps = []
    value = eval_cpm(point, f, trace=steps if trace else None)
    payload = {"formula": render(f), "world": world, "value": value}
    lines = ["true" if value else "false"]
    if trace:
        payload["trace"] = [step.to_json() for step in steps]
        lines += _trace_lines(steps)
    emit(output, payload, lines)
    sys.exit(0 if value else 1)


@main.command("expected")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--context", "context_path", required=True, type=click.Path())
@output_option
@guarded
def expected_cmd(model_path, context_path, output) -> None:
    """Print the expected states of a context."""
    from .models import OrderedDefaultSet, expected, hierarchy, load_context, load_model

    model = load_model(model_path)
    context = load_context(context_path, model)
    e = expected(model, context)
    payload = {"expected": sorted(e)}
    lines = []
    if isinstance(context, OrderedDefaultSet):
        levels = [sorted(level) for level in hierarchy(context)]
        payload["hierarchy"] = levels
        lines.append(f"hierarchy: {levels}")
    lines.append(f"expected states: {sorted(e)}")
    emit(output, payload, lines)


@main.command("update")
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--context", "context_path", required=True, type=click.Path())
@click.option("--alpha", required=True, help="propositional formula generating the new default")
@output_option
@guarded
def update_cmd(model_path, context_path, alpha, output) -> None:
    """Update a context with the default generated by a formula."""
    from .formula import parse_formula, render
    from .models import expected, load_context, load_model, update
    from .semantics import extension

    model = load_model(model_path)
    context = load_context(context_path, model)
    f = parse_formula(alpha)
    generated = extension(model, f)
    updated = update(context, generated, name=f"|{render(f)}|")
    e = expected(model, updated)
    payload = {
        "generated": sorted(generated),
        "context": updated.to_json(),
        "expected": sorted(e),
    }
    lines = [
        f"generated default: {sorted(generated)}",
        json.dumps(updated.to_json(), indent=2, sort_keys=True),
        f"expected states: {sorted(e)}",
    ]
    emit(output, payload, lines)


@main.command("reduce")
@click.option("--formula", required=True)
@output_option
@guarded
def reduce_cmd(formula, output) -> None:
    """Translate a formula into the flat fragment."""
    from .formula import modal_depth, parse_formula, render
    from .reduction import sigma

    f = parse_formula(formula)
    flat = sigma(f)
    payload = {"input": render(f), "flat": render(flat), "modal_depth": modal_depth(flat)}
    emit(output, payload, [render(flat)])


@main.command("falsify")
@click.option("--formula", required=True)
@click.option("--max-worlds", default=3, show_default=True)
@click.option("--max-context-len", default=3, show_default=True)
@output_option
@guarded
def falsify_cmd(formula, max_worlds, max_context_len, output) -> None:
    """Search for a countermodel within the given bounds."""
    from .formula import parse_formula
    from .semantics import SearchBounds, find_countermodel

    f = parse_formula(formula)
    witness = find_countermodel(f, SearchBounds(max_worlds, max_context_len))
    if witness is None:
        emit(output, {"countermodel": None},
             [f"no countermodel with at most {max_worlds} worlds, context length {max_context_len}"])
        sys.exit(0)
    payload = {"countermodel": witness.to_json()}
    lines = ["countermodel found:", json.dumps(witness.to_json(), indent=2, sort_keys=True)]
    emit(output, payload, lines)
    sys.exit(1)


@main.command("compare-v")
@click.option("--formula", required=True)
@click.option("--max-worlds", default=3, show_default=True)
@click.option("--max-context-len", default=3, show_default=True)
@click.option("--dialect", type=click.Choice(["conwon", "v"]), default="conwon", show_default=True)
@output_option
@guarded
def compare_v_cmd(formula, max_worlds, max_context_len, dialect, output) -> None:
    """Compare bounded satisfiability against the comparative-possibility logic."""
    from .formula import parse_formula
    from .lewis import flat_equivalence_check
    from .semantics import SearchBounds

    f = parse_formula(formula, dialect=dialect)
    report = flat_equivalence_check(f, SearchBounds(max_worlds, max_context_len))
    payload = {
        "formula": report.formula,
        "conwon_satisfiable": report.conwon_satisfiable,
        "v_satisfiable": report.v_satisfiable,
        "agrees": report.agrees,
        "transport_checks": report.transport_checks,
    }
    lines = [
        f"contextual semantics: {'satisfiable' if report.conwon_satisfiable else 'unsatisfiable'} up to bounds",
        f"sphere semantics: {'satisfiable' if report.v_satisfiable else 'unsatisfiable'} up to bounds",
        f"verdicts {'agree' if report.agrees else 'DISAGREE'}",
        *report.transport_checks,
    ]
    emit(output, payload, lines)
    ok = report.agrees and not any("FAILED" in c for c in report.transport_checks)
    sys.exit(0 if ok else 1)


@main.command("check-proof")
@click.argument("proof_file", type=click.Path())
@click.option("--system", "system_override", type=click.Choice(["conwon", "v1"]), default=None)
@output_option
@guarded
def check_proof_cmd(proof_file, system_override, output) -> None:
    """Check a Hilbert-style proof file."""
    from .proofs import check_proof, load_proof

    system, steps = load_proof(proof_file)
    if system_override is not None:
        system = system_override
    verdict = check_proof(steps, system)
    payload = {"system": system, "accepted": verdict.ok, "errors": verdict.errors}
    lines = [("accepted" if verdict.ok else "rejected")] + verdict.errors
    emit(output, payload, lines)
    sys.exit(0 if verdict.ok else 1)


@main.group("examples")
def examples_group() -> None:
    """Bundled worked examples."""


@examples_group.command("run")
@click.argument("name", type=click.Choice(sorted(EXAMPLES)))
@output_option
@guarded
def examples_run(name, output) -> None:
    """Re-derive a bundled example's verdicts from its fixture."""
    code, lines, payload = run_example(name)
    emit(output, payload, lines)
    sys.exit(code)


if __name__ == "__main__":
    main()

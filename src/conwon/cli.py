"""Command-line front end.

Exit codes: 0 for success (true / valid up to bounds / proof accepted),
1 for a negative verdict (false / countermodel found / proof rejected),
2 for usage or input errors, 3 for an internal fault.

The parser is the standard library's :mod:`argparse`, whose usage errors
also exit 2. Each subcommand imports what it uses when it runs; input
errors subclass :class:`conwon.errors.InputError` and exit 2.
"""

import argparse
import functools
import json
import sys

from .errors import InputError

# ``sorted(fixtures.EXAMPLES)``, spelled out so that building the parser loads no fixture
EXAMPLE_NAMES = ("fact16", "figure1", "nonmono", "reagan", "tiger")
SHOW_DEFAULT = "(default: %(default)s)"


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
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
        except Exception as exc:  # a fault of conwon itself, never a verdict
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            sys.exit(3)

    return wrapper


def emit(output: str, payload: dict, lines) -> None:
    if output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


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


@guarded
def reduce_cmd(formula, output) -> None:
    """Translate a formula into the flat fragment."""
    from .formula import modal_depth, parse_formula, render
    from .reduction import sigma

    f = parse_formula(formula)
    flat = sigma(f)
    payload = {"input": render(f), "flat": render(flat), "modal_depth": modal_depth(flat)}
    emit(output, payload, [render(flat)])


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


@guarded
def examples_run(name, output) -> None:
    """Re-derive a bundled example's verdicts from its fixture."""
    from .fixtures import run_example

    code, lines, payload = run_example(name)
    emit(output, payload, lines)
    sys.exit(code)


def build_parser() -> argparse.ArgumentParser:
    """One parser: a subparser per subcommand, and ``examples run`` nested."""
    parser = argparse.ArgumentParser(
        prog="conwon", description=main.__doc__, allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(name, handler, group=commands):
        sub = group.add_parser(name, help=handler.__doc__, description=handler.__doc__,
                               allow_abbrev=False)
        sub.set_defaults(handler=handler)
        sub.add_argument("--output", choices=["human", "json"], default="human", help=SHOW_DEFAULT)
        return sub

    def model_files(sub):
        sub.add_argument("--model", dest="model_path", required=True)
        sub.add_argument("--context", dest="context_path", required=True)
        return sub

    def bounds(sub):
        sub.add_argument("--formula", required=True)
        sub.add_argument("--max-worlds", type=int, default=3, help=SHOW_DEFAULT)
        sub.add_argument("--max-context-len", type=int, default=3, help=SHOW_DEFAULT)
        return sub

    sub = command("parse", parse_cmd)
    sub.add_argument("formula")
    sub.add_argument("--dialect", choices=["conwon", "v"], default="conwon", help=SHOW_DEFAULT)
    sub = model_files(command("eval", eval_cmd))
    sub.add_argument("--world", required=True)
    sub.add_argument("--formula", required=True)
    sub.add_argument("--trace", action="store_true")
    model_files(command("expected", expected_cmd))
    model_files(command("update", update_cmd)).add_argument(
        "--alpha", required=True, help="propositional formula generating the new default")
    command("reduce", reduce_cmd).add_argument("--formula", required=True)
    bounds(command("falsify", falsify_cmd))
    bounds(command("compare-v", compare_v_cmd)).add_argument(
        "--dialect", choices=["conwon", "v"], default="conwon", help=SHOW_DEFAULT)
    sub = command("check-proof", check_proof_cmd)
    sub.add_argument("proof_file")
    sub.add_argument("--system", dest="system_override", choices=["conwon", "v1"])
    examples = commands.add_parser("examples", help="Bundled worked examples.",
                                   description="Bundled worked examples.", allow_abbrev=False)
    runs = examples.add_subparsers(dest="command", metavar="COMMAND", required=True)
    command("run", examples_run, runs).add_argument("name", choices=EXAMPLE_NAMES)
    return parser


def main(argv=None) -> None:
    """Tools for conditional weak ontic necessity."""
    args = vars(build_parser().parse_args(argv))
    del args["command"]
    args.pop("handler")(**args)


if __name__ == "__main__":
    main()

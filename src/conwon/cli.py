"""Command-line front end.

Exit codes: 0 for success (true / valid up to bounds / proof accepted),
1 for a negative verdict (false / countermodel found / proof rejected),
2 for usage or input errors, 3 for an internal fault.

The parser is the standard library's :mod:`argparse`, whose usage errors
also exit 2. Each subcommand is a report function: it imports what it
uses when it runs and returns ``(exit code, JSON payload, human lines)``,
printing nothing. :func:`main` alone catches errors, prints and exits;
input errors subclass :class:`conwon.errors.InputError` and exit 2, with
one line on stderr and nothing on stdout. ``fixtures`` runs the tiger,
reagan and figure1 examples through :func:`eval_cmd` and
:func:`expected_cmd` on its bundled data.
"""

import argparse
import json
import sys

from .errors import InputError

# ``sorted(fixtures.EXAMPLES)``, spelled out so that building the parser loads no fixture
EXAMPLE_NAMES = ("fact16", "figure1", "nonmono", "reagan", "tiger")
SHOW_DEFAULT = "(default: %(default)s)"


def parse_cmd(formula: str, dialect: str):
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
    return 0, payload, lines


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


def eval_cmd(model_path, context_path, world, formula, trace):
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
    return (0 if value else 1), payload, lines


def expected_cmd(model_path, context_path):
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
    return 0, payload, lines


def update_cmd(model_path, context_path, alpha):
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
    return 0, payload, lines


def reduce_cmd(formula):
    """Translate a formula into the flat fragment."""
    from .formula import modal_depth, parse_formula, render, subformulas
    from .reduction import sigma

    f = parse_formula(formula)
    flat = sigma(f)
    text = render(flat)
    payload = {"input": render(f), "flat": text, "modal_depth": modal_depth(flat),
               "printed_nodes": flat.size, "dag_nodes": sum(1 for _ in subformulas(flat))}
    return 0, payload, [text]


def falsify_cmd(formula, max_worlds, max_context_len):
    """Search for a countermodel within the given bounds."""
    from .formula import parse_formula
    from .semantics import SearchBounds, find_countermodel

    f = parse_formula(formula)
    witness = find_countermodel(f, SearchBounds(max_worlds, max_context_len))
    if witness is None:
        return 0, {"countermodel": None}, [
            f"no countermodel with at most {max_worlds} worlds, context length {max_context_len}"]
    payload = {"countermodel": witness.to_json()}
    return 1, payload, ["countermodel found:", json.dumps(witness.to_json(), indent=2, sort_keys=True)]


def compare_v_cmd(formula, max_worlds, max_context_len, dialect):
    """Compare bounded satisfiability against the comparative-possibility logic, both at the same bounds."""
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
    ok = report.agrees and not any("FAILED" in c for c in report.transport_checks)
    return (0 if ok else 1), payload, lines


def check_proof_cmd(proof_file, system_override):
    """Check a Hilbert-style proof file."""
    from .proofs import check_proof, load_proof

    system, steps = load_proof(proof_file)
    if system_override is not None:
        system = system_override
    verdict = check_proof(steps, system)
    payload = {"system": system, "accepted": verdict.ok, "errors": verdict.errors}
    return (0 if verdict.ok else 1), payload, [("accepted" if verdict.ok else "rejected")] + verdict.errors


def examples_run(name):
    """Re-derive a bundled example's verdicts from its fixture."""
    from .fixtures import run_example

    return run_example(name)


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
    handler, output = args.pop("handler"), args.pop("output")
    try:
        code, payload, lines = handler(**args)
        print(json.dumps(payload, indent=2, sort_keys=True) if output == "json" else "\n".join(lines))
        sys.exit(code)
    except (InputError, OSError) as exc:
        code, message = 2, f"error: {exc}"
    except RecursionError:
        code, message = 2, "error: formula is nested too deeply"
    except Exception as exc:  # a fault of conwon itself, never a verdict
        code, message = 3, f"internal error: {type(exc).__name__}: {exc}"
    print(message, file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])  # so `from . import cli` reuses this module
    main()

"""The import graph: each CLI subcommand loads only the modules it uses, and nothing
outside the standard library.

Every check runs in a fresh interpreter with bytecode caching off, so that
``sys.modules`` starts empty and the import cost is what a user pays.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conwon import fixtures
from conwon.cli import EXAMPLE_NAMES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# ``conwon.__all__`` as it was when the package imported every module eagerly
PUBLIC_NAMES = [
    "And", "Atom", "CondBox", "CondCorner", "ContextualizedPointedModel", "DialectError",
    "Falsum", "Formula", "Model", "Not", "OrderedDefaultSet", "ParseError",
    "PseudoSphereModelV", "RelationalModelV", "RewriteError", "SchemaError", "SearchBounds",
    "SequenceContext", "SphereModelV", "UniversalRelationalModelV", "check_proof", "classify",
    "context_to_partition", "core", "eval_v", "evaluate", "expected", "extension",
    "find_countermodel", "flat_equivalence_check", "formula", "hierarchy", "is_closed",
    "is_flat", "is_propositional", "is_satisfiable_up_to", "is_valid_up_to", "lewis",
    "load_context", "load_model", "load_proof", "match_schema", "modal_depth", "models",
    "parse_formula", "partition_to_context", "proofs", "reduction", "render", "rewrite_step",
    "satisfying_witness", "semantics", "sigma", "soundness_sweep", "theta", "translate_flat",
    "universal_to_sphere", "update",
]


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it may set ``result``.

    Returns ``result``, the ``conwon`` submodules loaded by the end, and
    ``foreign``: the top-level modules ``code`` loaded from outside the
    standard library and conwon (modules that start-up hooks load before
    ``code`` runs do not count).
    """
    script = (
        "import json, sys\nbefore = set(sys.modules)\nresult = None\n" + code
        + "\nloaded = sorted(m[7:] for m in sys.modules if m.startswith('conwon.'))"
        + "\nforeign = sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
        + " - set(sys.stdlib_module_names) - {'conwon'})"
        + "\nprint(json.dumps({'result': result, 'loaded': loaded, 'foreign': foreign}))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli(*argv: str) -> dict:
    """``run_fresh`` of ``conwon <argv>``; ``result`` is its exit code."""
    code = ("from conwon.cli import main\n"
            f"try:\n    main({list(argv)!r})\nexcept SystemExit as exc:\n    result = exc.code")
    return run_fresh(code)


def test_import_conwon_loads_no_submodule():
    assert run_fresh("import conwon")["loaded"] == []


def test_import_cli_loads_no_library_module():
    # building the parser needs the example names, but not the fixtures
    out = run_fresh("from conwon import cli\n"
                    "result = cli.build_parser().parse_args(['examples', 'run', 'tiger']).name")
    assert out["result"] == "tiger"
    assert out["loaded"] == ["cli", "errors"]
    assert out["foreign"] == []
    assert list(EXAMPLE_NAMES) == sorted(fixtures.EXAMPLES)


def test_parse_loads_only_the_parser():
    loaded = set(run_cli("parse", "p")["loaded"])
    assert "formula" in loaded
    assert not loaded & {"semantics", "lewis", "proofs", "reduction"}


def test_reduce_loads_no_search():
    loaded = set(run_cli("reduce", "--formula", "[p][q]r")["loaded"])
    assert "reduction" in loaded
    assert not loaded & {"semantics", "lewis", "proofs"}


def test_cli_batch_loads_neither_dataclasses_nor_inspect(tmp_path):
    """perfbench's ``cli`` batch, run in one fresh interpreter: each subcommand is
    checked after it returns, so the first one to load either module is named."""
    files = {"model": fixtures.TIGER_MODEL, "oset": fixtures.TIGER_CONTEXT,
             "seq": {"kind": "sequence", "sequence": [["w1", "w3"], ["w3"]]},
             "valid": fixtures.VALID_PROOF, "invalid": fixtures.INVALID_PROOFS["nonprop-gamma"][0]}
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    model, seq, oset, valid, invalid = (str(tmp_path / f"{name}.json")
                                        for name in ("model", "seq", "oset", "valid", "invalid"))
    batch = [
        ["eval", "--model", model, "--context", seq, "--world", "w1", "--formula", "[a_t]f_t"],
        ["eval", "--model", model, "--context", oset, "--world", "w1", "--formula", "[a_g]f_d", "--trace"],
        ["expected", "--model", model, "--context", oset],
        ["update", "--model", model, "--context", seq, "--alpha", "a_t | ~a_t"],
        ["falsify", "--formula", "E (p & q) -> [p][q](p & q)", "--max-worlds", "2"],
        ["falsify", "--formula", "[p]q -> [p & ~q]q", "--max-worlds", "2"],
        ["compare-v", "--formula", "[p]q", "--max-worlds", "2"],
        ["check-proof", valid],
        ["check-proof", invalid],
    ] + [["examples", "run", name] for name in EXAMPLE_NAMES]
    code = ("import io, contextlib\nfrom conwon.cli import main\nresult = []\n"
            f"for argv in {batch!r}:\n"
            "    code = 0\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        try:\n            main(argv)\n"
            "        except SystemExit as exc:\n            code = exc.code\n"
            "    result.append([argv[0], code, [m for m in ('dataclasses', 'inspect') if m in sys.modules]])")
    result = run_fresh(code)["result"]
    assert [command for command, code, _ in result] == [argv[0] for argv in batch]
    assert all(code in (0, 1) for _, code, _ in result), result
    assert [loaded for _, _, loaded in result] == [[]] * len(batch), result


EVALUATOR = ["cli", "errors", "formula", "models", "semantics"]


@pytest.mark.parametrize("argv, loaded", [
    pytest.param(["eval", "--model", "MODEL", "--context", "CONTEXT", "--world", "w3",
                  "--formula", "[a_g]~a_d", "--trace"], EVALUATOR, id="eval-trace"),
    pytest.param(["update", "--model", "MODEL", "--context", "CONTEXT", "--alpha", "a_g"], EVALUATOR,
                 id="update"),
    pytest.param(["examples", "run", "tiger"], sorted(EVALUATOR + ["fixtures"]), id="examples-run-tiger"),
    pytest.param(["check-proof", "PROOF"], None, id="check-proof"),
])
def test_evaluator_subcommands_load_only_what_they_use(tmp_path, argv, loaded):
    files = {"MODEL": fixtures.TIGER_MODEL, "CONTEXT": fixtures.TIGER_CONTEXT, "PROOF": fixtures.VALID_PROOF}
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    out = run_cli(*(str(tmp_path / f"{arg}.json") if arg in files else arg for arg in argv))
    assert out["result"] in (0, 1, None)
    if loaded is None:  # the proof checker needs no evaluator
        assert "semantics" not in out["loaded"]
    else:
        assert out["loaded"] == loaded


@pytest.mark.parametrize("argv", [["parse", "p"], ["reduce", "--formula", "[p][q]r"],
                                  ["falsify", "--formula", "[p]q", "--max-worlds", "2"]],
                         ids=lambda argv: argv[0])
def test_cli_loads_only_the_standard_library(argv):
    assert run_cli(*argv)["foreign"] == []


def test_public_names_resolve_lazily():
    out = run_fresh("import conwon\n"
                    "result = [sorted(conwon.__all__), "
                    "[n for n in conwon.__all__ if getattr(conwon, n, None) is None]]")
    names, unresolved = out["result"]
    assert names == PUBLIC_NAMES
    assert unresolved == []
    assert set(out["loaded"]) == {"errors", "formula", "models", "semantics", "reduction",
                                  "lewis", "proofs"}


def unused_imports(source: str):
    """(line, name) of each name ``source`` imports and never reads.

    A name is read if it occurs as an ``ast.Name`` (``x`` in ``x.y``
    included) or as a string in the value of ``__all__`` or
    ``_MODULE_OF``; ``from __future__`` imports are skipped.
    """
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in ("__all__", "_MODULE_OF")
                                                for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return [(node.lineno, name) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for name in (alias.asname or alias.name.partition(".")[0] for alias in node.names)
            if name not in used]


def test_no_unused_imports():
    assert unused_imports("import os, json as j\nfrom a import b, c\nfrom __future__ import annotations\n"
                          "__all__ = ['c']\nos.sep\n") == [(1, "j"), (2, "b")]
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted([*SRC.rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
             for line, name in unused_imports(path.read_text())]
    assert found == []

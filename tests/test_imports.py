"""The import graph: each CLI subcommand loads only the modules it uses.

Every check runs in a fresh interpreter with bytecode caching off, so that
``sys.modules`` starts empty and the import cost is what a user pays.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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

    Returns ``result`` and the ``conwon`` submodules loaded by the end.
    """
    script = (
        "import json, sys\nresult = None\n" + code
        + "\nloaded = sorted(m[7:] for m in sys.modules if m.startswith('conwon.'))"
        + "\nprint(json.dumps({'result': result, 'loaded': loaded}))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli(*argv: str) -> set:
    code = ("from conwon.cli import main\n"
            f"try:\n    main({list(argv)!r})\nexcept SystemExit:\n    pass")
    return set(run_fresh(code)["loaded"])


def test_import_conwon_loads_no_submodule():
    assert run_fresh("import conwon")["loaded"] == []


def test_import_cli_loads_no_library_module():
    out = run_fresh("from conwon import cli, fixtures\n"
                    "result = [cli.examples_run.params[0].type.choices, sorted(fixtures.EXAMPLES)]")
    choices, examples = out["result"]
    assert choices == examples
    assert out["loaded"] == ["cli", "errors", "fixtures"]


def test_parse_loads_only_the_parser():
    loaded = run_cli("parse", "p")
    assert "formula" in loaded
    assert not loaded & {"semantics", "lewis", "proofs", "reduction"}


def test_reduce_loads_no_search():
    loaded = run_cli("reduce", "--formula", "[p][q]r")
    assert "reduction" in loaded
    assert not loaded & {"semantics", "lewis", "proofs"}


def test_public_names_resolve_lazily():
    out = run_fresh("import conwon\n"
                    "result = [sorted(conwon.__all__), "
                    "[n for n in conwon.__all__ if getattr(conwon, n, None) is None]]")
    names, unresolved = out["result"]
    assert names == PUBLIC_NAMES
    assert unresolved == []
    assert set(out["loaded"]) == {"errors", "formula", "models", "semantics", "reduction",
                                  "lewis", "proofs"}

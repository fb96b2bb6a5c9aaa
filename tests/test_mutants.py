"""The mutants of ``scripts/mutants.py`` still name code that exists; the mutants themselves are not run here."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "mutants.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutants = _load_script()


def test_each_old_text_occurs_once():
    # a refactor that moves or rewrites a mutated line updates the list with the code
    assert mutants.misplaced(mutants.MUTANTS) == []
    names = [name for name, *_ in mutants.MUTANTS]
    assert len(set(names)) == len(names) >= 14
    assert all(old != new for _, _, old, new in mutants.MUTANTS)

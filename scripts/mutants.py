"""A standing mutation gate: every listed mutant must make the tier-1 suite fail.

    python3 scripts/mutants.py                          # every mutant
    python3 scripts/mutants.py kernel.not-identity ...  # the named ones

A mutant is one exact text replacement (name, file, old text, new text).
The script first checks that each old text occurs exactly once in its
file.  It then copies the files of the working tree that git tracks or
does not ignore into a temporary directory, runs tier-1 there unmutated,
and then once per mutant with that one replacement applied:
``python -m pytest -x -q`` with ``PYTHONPATH=src``, without the test
of the list itself.  A mutant is killed
when the suite fails.  The script exits 1 if an old text does not occur
exactly once, if the unmutated suite fails, or if a mutant survives.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEMANTICS, MODELS, PROOFS = "src/conwon/semantics.py", "src/conwon/models.py", "src/conwon/proofs.py"
LEWIS, REDUCTION = "src/conwon/lewis.py", "src/conwon/reduction.py"

MUTANTS = [
    ("kernel.expected-is-antecedent", SEMANTICS,
     "                exp = x | exp & ~spread(x)\n",
     "                exp = alpha\n"),
    ("kernel.expected-from-first-entry", SEMANTICS,
     "                exp = x | exp & ~spread(x)\n",
     "                exp = x | exp & ~spread(x)\n                break\n"),
    ("models.expected-one-entry", MODELS,
     "    for entry in chain[1:]:\n",
     "    for entry in chain[1:1]:\n"),
    ("kernel.corner-updates-chain", SEMANTICS,
     "                consequent = values[b]\n",
     "                consequent = self.truth_mask(b, update_chain(alpha, chain, full))\n"),
    ("kernel.not-identity", SEMANTICS,
     "                values[i] = full ^ values[a]\n",
     "                values[i] = values[a]\n"),
    ("lowering.corner-swapped", SEMANTICS,
     '                key = ("and" if cls is And else "corner", a, b)\n',
     '                key = ("and", a, b) if cls is And else ("corner", b, a)\n'),
    ("lowering.box-as-corner", SEMANTICS,
     '                key = ("box" if g.depth > 1 else "corner", a, b)\n',
     '                key = ("corner", a, b)\n'),
    ("proofs.3e-weakened", PROOFS,
     '"(<alpha>beta & [alpha]gamma) -> [alpha & beta]gamma"',
     '"[alpha]gamma -> [alpha & beta]gamma"'),
    ("blocks.names-reversed", SEMANTICS,
     "dict(zip(names, masks))",
     "dict(zip(names[::-1], masks))"),
    ("blocks.key-without-atom-count", SEMANTICS,
     '("blocks", n_atoms, n_worlds, max_len, block_bits)',
     '("blocks", n_worlds, max_len, block_bits)'),
    ("lewis.sphere-last-hit", LEWIS,
     "    for block in blocks:\n        hit = block & phi\n",
     "    for block in reversed(blocks):\n        hit = block & phi\n"),
    ("proofs.unify-rebinds", PROOFS,
     "if binding.setdefault(t.name, g) is not g:",
     "if binding.setdefault(t.name, g) is None:"),
    ("reduction.rewrite-unconditioned", REDUCTION,
     '["a"], f, schema.conditions)',
     '["a"], f)'),
    ("reduction.lift-unguarded", REDUCTION,
     "out = And(CondBox(ab, gamma), _implies(CondBox(ab, FALSUM), CondBox(b_not_g, FALSUM)))",
     "out = CondBox(ab, gamma)"),
    ("reduction.lift-constant-any-negation", REDUCTION,
     "    while type(g) is Not:\n        g = g.child\n    return g is FALSUM\n",
     "    return type(g) is Not or g is FALSUM\n"),
]


def misplaced(mutants) -> list:
    """(name, file, count) of each mutant whose old text does not occur exactly once in its file."""
    counts = [(name, path, (ROOT / path).read_text().count(old)) for name, path, old, _ in mutants]
    return [entry for entry in counts if entry[2] != 1]


def copy_tree(target: Path) -> None:
    """The working tree's files that git tracks or does not ignore, copied under ``target``."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, check=True, capture_output=True, text=True).stdout
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target / name)


def run_suite(tree: Path) -> tuple:
    """(exit code, first failing test or None) of tier-1 in ``tree``, stopping at the first failure.

    ``tests/test_mutants.py`` is left out: it fails on any mutated copy,
    as the old text is gone, and would kill every mutant.
    """
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           "--ignore=tests/test_mutants.py"], cwd=tree, env=env, capture_output=True, text=True)
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode, failed[0] if failed else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="the mutants to run (default: all)")
    args = ap.parse_args()
    unknown = set(args.names) - {m[0] for m in MUTANTS}
    if unknown:
        ap.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    mutants = [m for m in MUTANTS if not args.names or m[0] in args.names]
    bad = misplaced(mutants)
    for name, path, count in bad:
        print(f"{name}: old text occurs {count} times in {path}, not once")
    if bad:
        return 1
    start, survivors = time.perf_counter(), []
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch)
        copy_tree(tree)
        code, failed = run_suite(tree)
        if code:
            print(f"the unmutated suite fails (exit {code}, {failed}); no mutant can be judged")
            return 1
        for name, path, old, new in mutants:
            original = (tree / path).read_text()
            (tree / path).write_text(original.replace(old, new))
            code, failed = run_suite(tree)
            (tree / path).write_text(original)
            killed = code in (1, 2)  # tests failed, or collection failed
            survivors += [] if killed else [name]
            print(f"{name}: {'killed by ' + str(failed) if killed else f'SURVIVED (exit {code})'}", flush=True)
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

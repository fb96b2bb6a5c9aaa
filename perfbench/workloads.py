"""The four benchmark workloads: search, sweep, reduce and cli.

Each workload builds its inputs from the seed, sets the program up, runs
one fixed batch per ``round`` and checks a round's outputs against the
reference semantics in :mod:`oracle`.  Only names in ``conwon.__all__``,
``conwon.fixtures`` and the ``python -m conwon.cli`` entry point are used.

The seed renames atoms (keeping their sorted order, so every seed asks
for the same amount of search) and orders each batch; in ``reduce`` it
also fills the propositional slots of fixed formula shapes.  The shapes
are fixed so that run-to-run differences come from the program and the
machine, not from the inputs.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import oracle as O

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

NAME_POOL = [a + d for a in "abcdfghjkmnpqrstuvwxyz" for d in "0123456789"]
TEMPLATE_ATOMS = ("p", "q", "r", "s", "t")


def seeded_names(rng: random.Random, k: int = 5) -> Dict[str, str]:
    """Map p, q, r, ... to k seed-chosen names of equal length, order kept."""
    names = sorted(rng.sample(NAME_POOL, k))
    return dict(zip(TEMPLATE_ATOMS[:k], names))


def now() -> float:
    return time.perf_counter()


p, q, r, s, t = (O.atom(a) for a in TEMPLATE_ATOMS)
NOT, AND, OR, IMP, IFF = O.neg, O.conj, O.disj, O.imp, O.iff
BOX, DIA, E, A = O.box, O.dia, O.some, O.every


def pairs_covered(n_atoms: int, max_worlds: int, max_len: int) -> int:
    """Raw (model, context) pairs of a bounded search over n_atoms atoms."""
    total = 0
    for n in range(1, max_worlds + 1):
        subsets, contexts, term = 1 << n, 0, 1
        for k in range(1, min(max_len, subsets) + 1):
            term *= subsets - (k - 1)
            contexts += term
        total += (1 << (n * max(n_atoms, 1))) * contexts
    return total


# ---------------------------------------------------------------------------
# Converting the program's formulas into oracle trees
# ---------------------------------------------------------------------------


def from_conwon(f, cw) -> O.Tree:
    """Oracle tree for a conwon AST; shared subterms stay shared."""
    memo: Dict[int, O.Tree] = {}
    stack = [(f, False)]
    while stack:
        g, ready = stack.pop()
        if id(g) in memo:
            continue
        if isinstance(g, cw.Atom):
            memo[id(g)] = ("atom", g.name)
            continue
        if isinstance(g, cw.Falsum):
            memo[id(g)] = O.FALSE
            continue
        if isinstance(g, cw.Not):
            kids = (g.child,)
            op = "not"
        elif isinstance(g, cw.And):
            kids, op = (g.left, g.right), "and"
        elif isinstance(g, cw.CondBox):
            kids, op = (g.antecedent, g.consequent), "box"
        else:
            raise TypeError(f"unexpected node {type(g).__name__}")
        if ready:
            memo[id(g)] = (op,) + tuple(memo[id(k)] for k in kids)
        else:
            stack.append((g, True))
            stack.extend((k, False) for k in kids if id(k) not in memo)
    return memo[id(f)]


def distinct_subtrees(tree: O.Tree) -> int:
    """Distinct subformulas of an oracle tree, up to structural equality."""
    seen, stack = set(), [tree]
    while stack:
        g = stack.pop()
        if g not in seen:
            seen.add(g)
            stack.extend(O.children(g))
    return len(seen)


def random_points(rng: random.Random, names, count: int, max_worlds: int = 3, max_len: int = 3):
    """Seeded sample of (point, context) pairs for semantic comparisons."""
    out = []
    for _ in range(count):
        n = rng.randint(2, max_worlds)
        full = (1 << n) - 1
        val = {a: rng.randint(0, full) for a in names}
        ctx = O.seq_context([rng.randint(0, full) for _ in range(rng.randint(1, max_len))])
        out.append((O.Point(n, val), ctx))
    return out


def agree_on(f: O.Tree, g: O.Tree, points) -> Optional[str]:
    for point, ctx in points:
        point.memo.clear()
        a, b = point.mask(f, ctx), point.mask(g, ctx)
        if a != b:
            return f"disagree at |W|={point.n} valuation={point.val} context={ctx[1]}"
    return None


def witness_falsifies(f: O.Tree, witness: dict) -> Optional[str]:
    """Re-check a countermodel given in the program's JSON shape."""
    point, index = O.point_from_json(witness["model"])
    ctx = O.context_from_json(witness["context"], index)
    if witness["world"] not in index:
        return f"witness world {witness['world']!r} is not in the model"
    if point.holds(f, ctx, index[witness["world"]]):
        return "formula holds at the reported countermodel"
    return None


def valid_at_small_bounds(f: O.Tree, max_len: int) -> Optional[str]:
    found = O.countermodel(f, 2, min(max_len, 4))
    return None if found is None else f"oracle countermodel at |W|={found[0]}: {found[1:]}"


class Workload:
    """A fixed batch of operations, ``ops``, each run by ``run_op``.

    ``run_op`` returns a small JSON-able record of the operation's output;
    ``check`` gets the (op, record) pairs of one round, without the
    operations that raised, and returns the problems it finds.
    """

    name = ""
    ops: list = []
    out_nodes = 0

    def failed(self, pairs) -> int:
        """Operations that completed but count as failed (none but in cli)."""
        return 0

    def probe(self, tr) -> dict:
        """Extra per-layer figures for the traced run."""
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

# (label, tree, bounds, expected verdict, why it is expected)
SEARCH_BATTERY = [
    ("fact16", IMP(E(AND(p, q)), BOX(p, BOX(q, AND(p, q)))), (4, 2), "valid", "paper: Fact 16"),
    ("ax3a", BOX(p, p), (4, 2), "valid", "axiom 3a"),
    ("ax3b", IMP(BOX(p, q), BOX(p, OR(q, r))), (4, 2), "valid", "axiom 3b"),
    ("ax3c", IMP(AND(BOX(p, q), BOX(p, r)), BOX(AND(p, q), r)), (4, 2), "valid", "axiom 3c"),
    ("ax3d", IMP(AND(BOX(p, q), BOX(NOT(p), q)), BOX(OR(p, NOT(p)), q)), (4, 2), "valid", "axiom 3d"),
    ("ax3e", IMP(AND(DIA(p, q), BOX(p, NOT(p))), BOX(AND(p, q), NOT(p))), (4, 2), "valid", "axiom 3e"),
    ("ax2a", IFF(BOX(p, AND(q, BOX(q, p))), AND(BOX(p, q), BOX(p, BOX(q, p)))), (4, 2), "valid", "axiom 2a"),
    ("ax2b", IFF(BOX(p, OR(q, BOX(q, p))), OR(BOX(p, q), BOX(p, BOX(q, p)))), (4, 2), "valid", "axiom 2b"),
    ("ax2c", IFF(BOX(p, BOX(q, p)),
                 IMP(E(p), OR(AND(E(AND(p, q)), BOX(AND(p, q), p)),
                              AND(NOT(E(AND(p, q))), A(IMP(q, p)))))), (4, 2), "valid", "axiom 2c"),
    ("ax2d", IFF(BOX(p, DIA(q, p)),
                 IMP(E(p), OR(AND(E(AND(p, q)), DIA(AND(p, q), p)),
                              AND(NOT(E(AND(p, q))), E(AND(q, p)))))), (4, 2), "valid", "axiom 2d"),
    ("chain-pqrp", BOX(p, BOX(q, BOX(r, BOX(p, p)))), (3, 3), "valid", "axiom 3a under three conditionals"),
    ("chain-pqpq", BOX(p, BOX(q, BOX(p, BOX(q, q)))), (3, 4), "valid", "axiom 3a under three conditionals"),
    ("chain-pqqp", BOX(p, BOX(q, BOX(q, BOX(p, p)))), (3, 4), "valid", "axiom 3a under three conditionals"),
    ("monotonicity", IMP(BOX(p, q), BOX(AND(p, NOT(q)), q)), (4, 2), "falsifiable", "paper: non-monotonicity"),
    ("strengthening", IMP(BOX(p, q), BOX(AND(p, r), q)), (4, 2), "falsifiable", "antecedent strengthening fails"),
    ("cem", OR(BOX(p, q), BOX(p, NOT(q))), (4, 2), "falsifiable", "conditional excluded middle fails"),
    ("weak-necessity", IMP(BOX(p, q), q), (4, 2), "falsifiable", "weak necessity does not imply truth"),
    ("chain-pqrq", BOX(p, BOX(q, BOX(r, BOX(p, q)))), (3, 4), "falsifiable", "depth-4 chain, first witness"),
]

# Formulas of each modal depth used, at each bound, filling the context-class cache.
SEARCH_WARMUP = [(BOX(p, p), (4, 2)), (BOX(p, BOX(p, p)), (4, 2)),
                 (BOX(p, BOX(p, BOX(p, BOX(p, p)))), (3, 3)), (BOX(p, BOX(p, BOX(p, BOX(p, p)))), (3, 4))]

TINY_SEARCH = {"fact16", "ax3a", "ax3d", "chain-pqpq", "monotonicity", "cem"}
TINY_BOUNDS = {(4, 2): (3, 2), (3, 3): (2, 2), (3, 4): (2, 3)}


def warm(cw, warmups) -> float:
    t0 = now()
    for tree, (w, c) in warmups:
        cw.find_countermodel(cw.parse_formula(O.to_text(tree)), cw.SearchBounds(w, c))
    return now() - t0


class Search(Workload):
    name = "search"

    def setup(self, seed: int, tiny: bool) -> dict:
        import conwon as cw
        self.cw = cw
        rng = random.Random(seed)
        names = seeded_names(rng)
        items = []
        for label, tree, bounds, verdict, why in SEARCH_BATTERY:
            if tiny and label not in TINY_SEARCH:
                continue
            if tiny:
                bounds = TINY_BOUNDS[bounds]
            tree = O.rename(tree, names)
            items.append({"label": label, "tree": tree, "text": O.to_text(tree),
                          "bounds": bounds, "expect": verdict, "why": why,
                          "n_atoms": len(O.atoms_of(tree))})
        rng.shuffle(items)
        self.ops = items
        warmups = [(tree, TINY_BOUNDS[b] if tiny else b) for tree, b in SEARCH_WARMUP]
        return {"warmup_s": warm(cw, warmups)}

    def run_op(self, item: dict, tr) -> dict:
        cw = self.cw
        t0 = now()
        f = cw.parse_formula(item["text"])
        t1 = now()
        witness = cw.find_countermodel(f, cw.SearchBounds(*item["bounds"]))
        t2 = now()
        tr.add("formula.parse_formula", t0, t1, item["label"], chars=len(item["text"]))
        if witness is None:
            tr.add("semantics.find_countermodel.valid", t1, t2, item["label"],
                   pairs=pairs_covered(item["n_atoms"], *item["bounds"]))
        else:
            tr.add("semantics.find_countermodel.falsified", t1, t2, item["label"])
        return {"label": item["label"], "witness": None if witness is None else witness.to_json()}

    def check(self, pairs) -> List[str]:
        problems = []
        for item, rec in pairs:
            label = item["label"]
            if rec["witness"] is None:
                if item["expect"] != "valid":
                    problems.append(f"{label}: reported valid, expected falsifiable ({item['why']})")
                    continue
                # valid by the paper; confirm independently at |W| <= 2 as well
                bad = valid_at_small_bounds(item["tree"], item["bounds"][1])
                if bad:
                    problems.append(f"{label}: reported valid but {bad}")
            else:
                bad = witness_falsifies(item["tree"], rec["witness"])
                if bad:
                    problems.append(f"{label}: {bad}")
                elif item["expect"] == "valid":
                    problems.append(f"{label}: countermodel to a formula valid by {item['why']}")
        return problems


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

FLAT_BATTERY = [
    BOX(p, q),
    AND(BOX(p, q), NOT(BOX(p, q))),
    AND(BOX(p, q), BOX(p, NOT(q))),
    IMP(BOX(p, q), BOX(AND(p, r), q)),
    AND(NOT(BOX(p, q)), BOX(AND(p, q), r)),
    AND(AND(BOX(p, q), BOX(q, p)), NOT(BOX(AND(p, q), r))),
    AND(E(p), NOT(E(q))),
    AND(BOX(p, O.FALSE), E(p)),
    AND(DIA(p, q), BOX(p, NOT(q))),
    AND(A(p), NOT(BOX(q, p))),
    BOX(OR(p, q), AND(p, NOT(r))),
    AND(DIA(p, q), AND(DIA(p, NOT(q)), NOT(BOX(p, r)))),
]

SWEEP_BOUNDS = (2, 5)
FLAT_BOUNDS = (3, 3)
SWEEP_WARMUP = [(BOX(p, p), SWEEP_BOUNDS), (BOX(p, BOX(p, p)), SWEEP_BOUNDS), (BOX(p, p), FLAT_BOUNDS)]


class Sweep(Workload):
    name = "sweep"

    def setup(self, seed: int, tiny: bool) -> dict:
        import conwon as cw
        from conwon import fixtures
        self.cw = cw
        rng = random.Random(seed)
        names = seeded_names(rng)
        self.sweep_bounds = (1, 3) if tiny else SWEEP_BOUNDS
        self.flat_bounds = (2, 2) if tiny else FLAT_BOUNDS
        battery = FLAT_BATTERY[:4] if tiny else FLAT_BATTERY
        flat = [O.rename(f, names) for f in battery]
        rng.shuffle(flat)
        proofs = [("valid", fixtures.VALID_PROOF, None)] + [
            (name, proof, message) for name, (proof, message) in sorted(fixtures.INVALID_PROOFS.items())]
        if tiny:
            proofs = proofs[:3]
        self.ops = ([{"kind": "sweep", "system": system} for system in ("conwon", "v1")]
                    + [{"kind": "flat", "tree": f, "text": O.to_text(f)} for f in flat]
                    + [{"kind": "proof", "name": name, "proof": proof, "message": message}
                       for name, proof, message in proofs])
        warmups = [(tree, self.sweep_bounds if b == SWEEP_BOUNDS else self.flat_bounds)
                   for tree, b in SWEEP_WARMUP]
        return {"warmup_s": warm(cw, warmups)}

    def run_op(self, op: dict, tr) -> dict:
        cw = self.cw
        if op["kind"] == "sweep":
            t0 = now()
            rep = cw.soundness_sweep(op["system"], cw.SearchBounds(*self.sweep_bounds))
            t1 = now()
            tr.add(f"proofs.soundness_sweep.{op['system']}", t0, t1, op["system"], instances=rep.instances)
            return {"instances": rep.instances, "failures": list(rep.failures)}
        if op["kind"] == "flat":
            t0 = now()
            f = cw.parse_formula(op["text"])
            t1 = now()
            rep = cw.flat_equivalence_check(f, cw.SearchBounds(*self.flat_bounds))
            t2 = now()
            tr.add("formula.parse_formula", t0, t1, op["text"], chars=len(op["text"]))
            tr.add("lewis.flat_equivalence_check", t1, t2, op["text"])
            cwit, vwit = rep.conwon_witness, rep.v_witness
            return {
                "agrees": rep.agrees,
                "conwon_satisfiable": rep.conwon_satisfiable,
                "v_satisfiable": rep.v_satisfiable,
                "transport_checks": list(rep.transport_checks),
                "conwon_witness": None if cwit is None else cwit.to_json(),
                "v_witness": None if vwit is None else {
                    "model": vwit[0].model.to_json(),
                    "spheres": [sorted(b) for b in vwit[0].spheres],
                    "world": vwit[1]},
            }
        t0 = now()
        system, steps = cw.load_proof(op["proof"])
        verdict = cw.check_proof(steps, system)
        tr.add("proofs.check_proof", t0, now(), op["name"])
        return {"ok": verdict.ok, "errors": list(verdict.errors)}

    def check(self, pairs) -> List[str]:
        problems = []
        max_worlds, max_len = self.flat_bounds
        for op, rec in pairs:
            if op["kind"] == "sweep":
                if rec["failures"]:
                    problems.append(f"{op['system']} sweep reports {len(rec['failures'])} failures: "
                                    f"{rec['failures'][0]}")
                if rec["instances"] < 1:
                    problems.append(f"{op['system']} sweep checked no instances")
            elif op["kind"] == "flat":
                problems += self.check_flat(op["tree"], rec, max_worlds, max_len)
            else:
                name, message = op["name"], op["message"]
                if message is None:
                    if not rec["ok"]:
                        problems.append(f"proof {name}: rejected: {rec['errors']}")
                elif rec["ok"]:
                    problems.append(f"proof {name}: accepted, expected '{message}'")
                elif not any(message in e for e in rec["errors"]):
                    problems.append(f"proof {name}: rejected without '{message}': {rec['errors']}")
        return problems

    @staticmethod
    def check_flat(tree: O.Tree, rep: dict, max_worlds: int, max_len: int) -> List[str]:
        problems, text = [], O.to_text(tree)
        if not rep["agrees"]:
            problems.append(f"flat {text}: semantics disagree")
        if any("verified" not in c for c in rep["transport_checks"]):
            problems.append(f"flat {text}: transport not verified: {rep['transport_checks']}")
        cwit, vwit = rep["conwon_witness"], rep["v_witness"]
        if rep["conwon_satisfiable"] != (cwit is not None) or rep["v_satisfiable"] != (vwit is not None):
            problems.append(f"flat {text}: verdict without matching witness")
        if cwit is not None and witness_falsifies(O.neg(tree), cwit) is not None:
            problems.append(f"flat {text}: contextual witness does not satisfy the formula")
        if vwit is not None:
            point, index = O.point_from_json(vwit["model"], vwit["spheres"])
            if not point.holds(tree, ("seq", ()), index[vwit["world"]]):
                problems.append(f"flat {text}: sphere witness does not satisfy the formula")
        if cwit is None:
            found = O.satisfying_point(tree, min(2, max_worlds), max_len)
            if found is not None:
                problems.append(f"flat {text}: reported unsatisfiable, oracle satisfies it at {found}")
        return problems


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

X = ("slot",)
REDUCE_SHAPES = [
    BOX(X, BOX(X, X)),
    BOX(X, OR(X, BOX(X, X))),
    BOX(X, AND(BOX(X, X), DIA(X, X))),
    NOT(BOX(X, IMP(X, BOX(X, OR(X, NOT(X)))))),
    BOX(X, OR(BOX(X, BOX(X, X)), X)),
    AND(DIA(X, BOX(X, X)), BOX(X, DIA(X, BOX(X, X)))),
    BOX(X, IFF(X, BOX(X, X))),
    BOX(X, BOX(X, OR(BOX(X, X), X))),
    IMP(BOX(X, X), BOX(X, BOX(X, BOX(X, X)))),
    BOX(X, AND(A(X), E(X))),
]
REDUCE_CHAINS = [BOX(p, BOX(q, r)), BOX(p, BOX(q, BOX(r, s))), BOX(p, BOX(q, BOX(r, BOX(s, t))))]
FILLS_PER_SHAPE = 4


def fill(shape: O.Tree, rng: random.Random, names: List[str]) -> O.Tree:
    if shape == X:
        return O.atom(rng.choice(names))
    if shape[0] in ("atom", "false", "true"):
        return shape
    return (shape[0],) + tuple(fill(c, rng, names) for c in O.children(shape))


class Reduce(Workload):
    name = "reduce"

    def setup(self, seed: int, tiny: bool) -> dict:
        import conwon as cw
        self.cw = cw
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))
        rng = random.Random(seed)
        names = seeded_names(rng)
        pool = [names[a] for a in TEMPLATE_ATOMS[:4]]
        trees = [O.rename(c, names) for c in (REDUCE_CHAINS[:2] if tiny else REDUCE_CHAINS)]
        for shape in (REDUCE_SHAPES[:3] if tiny else REDUCE_SHAPES):
            trees += [fill(shape, rng, pool) for _ in range(1 if tiny else FILLS_PER_SHAPE)]
        rng.shuffle(trees)
        self.ops = [{"tree": f, "text": O.to_text(f)} for f in trees]
        self.sample_seed = rng.randrange(1 << 30)
        return {"warmup_s": 0.0}

    def run_op(self, op: dict, tr) -> dict:
        cw, text = self.cw, op["text"]
        t0 = now()
        f = cw.parse_formula(text)
        t1 = now()
        flat = cw.sigma(f)
        t2 = now()
        rendered = cw.render(flat)
        t3 = now()
        cw.parse_formula(rendered)
        t4 = now()
        tr.add("formula.parse_formula", t0, t1, text, chars=len(text))
        tr.add("reduction.sigma", t1, t2, text)
        tr.add("formula.render", t2, t3, text, chars=len(rendered))
        tr.add("formula.parse_formula", t3, t4, text, chars=len(rendered))
        return {"text": rendered}

    def check(self, pairs) -> List[str]:
        cw, problems = self.cw, []
        rng = random.Random(self.sample_seed)
        self.out_nodes = 0
        for op, rec in pairs:
            tree, text = op["tree"], op["text"]
            label = text[:60]
            # outside the timed rounds: the program's own output again, for the round trip
            flat = cw.sigma(cw.parse_formula(text))
            if cw.parse_formula(rec["text"]) != flat or cw.render(flat) != rec["text"]:
                problems.append(f"{label}: rendered output does not parse back to itself")
                continue
            out = from_conwon(flat, cw)
            self.out_nodes += distinct_subtrees(out)
            if O.depth(out) > 1:
                problems.append(f"{label}: output has modal depth {O.depth(out)}")
                continue
            names = sorted(O.atoms_of(tree) | O.atoms_of(out))
            count = 4 if len(rec["text"]) > 100_000 else 12
            bad = agree_on(tree, out, random_points(rng, names, count))
            if bad:
                problems.append(f"{label}: output not equivalent: {bad}")
        return problems


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    label: str
    sub: str                    # subcommand name used for per-layer grouping
    args: List[str]
    ref: Optional[tuple] = None  # what the reference needs to judge the output
    kept_fault: Optional[str] = None  # a known fault: counted as failed while it does not exit 2


KEPT_FAULTS = [
    ("bounds-zero", "falsify", ["falsify", "--formula", "p", "--max-worlds", "0"],
     "SearchBounds raises ValueError; traceback and exit 1"),
    ("compare-v-nested", "compare-v", ["compare-v", "--formula", "[p][q]r"],
     "flat_equivalence_check raises ValueError on a non-flat formula; traceback and exit 1"),
    ("proof-by-string", "check-proof", ["check-proof", "{bad_proof}"],
     "load_proof calls dict() on a string justification; traceback and exit 1"),
    ("eval-unknown-world", "eval", ["eval", "--model", "{fixed_model}", "--context", "{fixed_context}",
                                    "--world", "w9", "--formula", "p"],
     "evaluate never checks the world; prints a verdict instead of exit 2"),
]

FIXED_MODEL = {"worlds": ["w1", "w2"], "valuation": {"p": ["w1"]}}
FIXED_CONTEXT = {"kind": "sequence", "sequence": [["w1", "w2"]]}
BAD_PROOF = {"system": "conwon", "steps": [{"formula": "[p]p", "by": "axiom"}]}

EVAL_SHAPES = [BOX(X, OR(X, BOX(X, NOT(X)))), IMP(BOX(X, X), DIA(AND(X, X), X))]


def random_model(rng: random.Random, names: List[str], n: int = 4):
    worlds = [f"w{i + 1}" for i in range(n)]
    valuation = {a: sorted(rng.sample(worlds, rng.randint(0, n))) for a in names}
    return {"worlds": worlds, "valuation": valuation}


def random_sequence(rng: random.Random, worlds: List[str], length: int) -> dict:
    return {"kind": "sequence",
            "sequence": [sorted(rng.sample(worlds, rng.randint(1, len(worlds)))) for _ in range(length)]}


def random_ordered_set(rng: random.Random, worlds: List[str]) -> dict:
    extents = set()
    while len(extents) < 3:
        extents.add(tuple(sorted(rng.sample(worlds, rng.randint(1, len(worlds))))))
    names = ["D1", "D2", "D3"]
    defaults = dict(zip(names, (list(e) for e in sorted(extents))))
    ranking = names[:]
    rng.shuffle(ranking)
    order = [[ranking[0], ranking[1]], [ranking[0], ranking[2]]]
    return {"kind": "ordered-set", "defaults": defaults, "order": order}


class Cli(Workload):
    name = "cli"

    def setup(self, seed: int, tiny: bool) -> dict:
        self.seed, self.tiny = seed, tiny
        self.work = OUT / f"cli_work_{os.getpid()}"
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.ops = self._build(random.Random(seed))
        # one throw-away invocation compiles bytecode and warms the file cache
        self.run_cli(["parse", "p"])
        return {"warmup_s": 0.0}

    def path(self, name: str, data) -> str:
        target = self.work / name
        target.write_text(json.dumps(data, indent=1), encoding="utf-8")
        return str(target)

    def run_cli(self, args: List[str]) -> Tuple[int, str, str]:
        proc = subprocess.run([sys.executable, "-m", "conwon.cli", *args], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def _build(self, rng: random.Random) -> List[Invocation]:
        names = seeded_names(rng)
        pool = [names[a] for a in TEMPLATE_ATOMS[:3]]
        model = random_model(rng, pool)
        worlds = model["worlds"]
        seq = random_sequence(rng, worlds, 3)
        oset = random_ordered_set(rng, worlds)
        files = {"model": self.path("model.json", model), "seq": self.path("seq.json", seq),
                 "oset": self.path("oset.json", oset),
                 "fixed_model": self.path("fixed_model.json", FIXED_MODEL),
                 "fixed_context": self.path("fixed_context.json", FIXED_CONTEXT),
                 "bad_proof": self.path("bad_proof.json", BAD_PROOF)}
        self.data = {"model": model, "seq": seq, "oset": oset}
        from conwon import fixtures  # bundled proofs; the program itself runs in subprocesses
        self.valid_proof = self.path("valid_proof.json", fixtures.VALID_PROOF)
        invalid_name = sorted(fixtures.INVALID_PROOFS)[rng.randrange(len(fixtures.INVALID_PROOFS))]
        invalid, message = fixtures.INVALID_PROOFS[invalid_name]
        self.invalid_proof = self.path("invalid_proof.json", invalid)
        self.fixture_data = {"tiger": (fixtures.TIGER_MODEL, fixtures.TIGER_CONTEXT),
                             "reagan": (fixtures.REAGAN_MODEL, fixtures.REAGAN_CONTEXT),
                             "nonmono": (fixtures.NONMONO_MODEL, fixtures.NONMONO_CONTEXT),
                             "figure1": (fixtures.FIGURE1_MODEL, fixtures.FIGURE1_CONTEXT)}

        f_parse = fill(REDUCE_SHAPES[2], rng, pool)
        f_eval = [fill(shape, rng, pool) for shape in EVAL_SHAPES]
        alpha = fill(OR(X, NOT(X)) if rng.random() < 0.5 else AND(X, NOT(X)), rng, pool)
        f_reduce = O.rename(BOX(p, BOX(q, r)), names)
        f_valid = O.rename(IMP(E(AND(p, q)), BOX(p, BOX(q, AND(p, q)))), names)
        f_falsifiable = O.rename(IMP(BOX(p, q), BOX(AND(p, NOT(q)), q)), names)
        f_flat = O.rename(BOX(p, q), names)
        world = rng.choice(worlds)
        js = ["--output", "json"]

        inv = [
            Invocation("parse", "parse", ["parse", O.to_text(f_parse), *js], ("parse", f_parse)),
            Invocation("eval-seq", "eval", ["eval", "--model", files["model"], "--context", files["seq"],
                                            "--world", world, "--formula", O.to_text(f_eval[0]), *js],
                       ("eval", f_eval[0], "seq", world)),
            Invocation("eval-set", "eval", ["eval", "--model", files["model"], "--context", files["oset"],
                                            "--world", world, "--formula", O.to_text(f_eval[1]), "--trace", *js],
                       ("eval", f_eval[1], "oset", world)),
            Invocation("expected", "expected", ["expected", "--model", files["model"], "--context", files["oset"], *js],
                       ("expected", "oset")),
            Invocation("update", "update", ["update", "--model", files["model"], "--context", files["seq"],
                                            "--alpha", O.to_text(alpha), *js], ("update", alpha, "seq")),
            Invocation("reduce", "reduce", ["reduce", "--formula", O.to_text(f_reduce), *js], ("reduce", f_reduce)),
            Invocation("falsify-valid", "falsify", ["falsify", "--formula", O.to_text(f_valid), "--max-worlds", "2",
                                                    "--max-context-len", "3", *js], ("falsify", f_valid, 2, 3)),
            Invocation("falsify-countermodel", "falsify",
                       ["falsify", "--formula", O.to_text(f_falsifiable), "--max-worlds", "2",
                        "--max-context-len", "3", *js], ("falsify", f_falsifiable, 2, 3)),
            Invocation("compare-v", "compare-v", ["compare-v", "--formula", O.to_text(f_flat), "--max-worlds", "2", *js],
                       ("compare-v", f_flat)),
            Invocation("check-proof-valid", "check-proof", ["check-proof", self.valid_proof, *js],
                       ("proof", None)),
            Invocation("check-proof-invalid", "check-proof", ["check-proof", self.invalid_proof, *js],
                       ("proof", message)),
        ]
        for example in ("tiger", "reagan", "nonmono", "fact16", "figure1"):
            inv.append(Invocation(f"example-{example}", "examples-run", ["examples", "run", example, *js],
                                  ("example", example)))
        if self.tiny:
            inv = [i for i in inv if i.label in ("parse", "eval-seq", "falsify-countermodel", "example-tiger")]
        for label, sub, args, fault in KEPT_FAULTS:
            args = [a.format(**files) for a in args]
            inv.append(Invocation(label, sub, args, kept_fault=fault))
        return inv

    def run_op(self, inv: Invocation, tr) -> dict:
        t0 = now()
        code, stdout, stderr = self.run_cli(inv.args)
        tr.add(f"cli.{inv.sub}", t0, now(), inv.label)
        return {"label": inv.label, "code": code, "stdout": stdout, "traceback": "Traceback" in stderr}

    def failed(self, pairs) -> int:
        return sum(1 for inv, rec in pairs if inv.kept_fault is not None and rec["code"] != 2)

    def check(self, pairs) -> List[str]:
        problems = []
        for inv, rec in pairs:
            if inv.kept_fault is not None:
                continue  # counted in failed() when it still misbehaves
            if rec["code"] not in (0, 1, 2) or rec["traceback"]:
                problems.append(f"{inv.label}: exit {rec['code']}, traceback={rec['traceback']}")
                continue
            try:
                payload = json.loads(rec["stdout"])
            except ValueError:
                problems.append(f"{inv.label}: --output json did not parse")
                continue
            try:
                want = self._expected_code(inv, payload)
            except (KeyError, TypeError, ValueError) as exc:
                problems.append(f"{inv.label}: payload unreadable: {exc!r}")
                continue
            if isinstance(want, str):
                problems.append(f"{inv.label}: {want}")
            elif rec["code"] != want:
                problems.append(f"{inv.label}: exit {rec['code']}, expected {want}")
        return problems

    def _context(self, which: str, index):
        return O.context_from_json(self.data[which], index)

    def _expected_code(self, inv: Invocation, payload: dict):
        """The exit code the reference semantics calls for, or a problem string."""
        kind = inv.ref[0]
        if kind == "parse":
            got = O.parse_core(payload["canonical"])
            if payload["modal_depth"] != O.depth(inv.ref[1]):
                return "wrong modal depth"
            bad = agree_on(inv.ref[1], got, random_points(random.Random(self.seed), sorted(O.atoms_of(got)), 12))
            return 0 if bad is None else f"canonical form not equivalent: {bad}"
        if kind == "eval":
            _, f, which, world = inv.ref
            point, index = O.point_from_json(self.data["model"])
            value = point.holds(f, self._context(which, index), index[world])
            if payload["value"] != value:
                return f"value {payload['value']}, oracle says {value}"
            return 0 if value else 1
        if kind == "expected":
            point, index = O.point_from_json(self.data["model"])
            want = O.expected(self._context(inv.ref[1], index), point.full)
            return 0 if O.to_mask(payload["expected"], index) == want else "wrong expected states"
        if kind == "update":
            _, alpha, which = inv.ref
            point, index = O.point_from_json(self.data["model"])
            generated = point.mask(alpha, ("seq", ()))
            updated = O.update(self._context(which, index), generated)
            if O.to_mask(payload["generated"], index) != generated:
                return "wrong generated default"
            if O.to_mask(payload["expected"], index) != O.expected(updated, point.full):
                return "wrong expected states after update"
            return 0 if O.context_from_json(payload["context"], index) == updated else "wrong updated context"
        if kind == "reduce":
            got = O.parse_core(payload["flat"])
            if O.depth(got) > 1:
                return "reduce output is not flat"
            bad = agree_on(inv.ref[1], got, random_points(random.Random(self.seed), sorted(O.atoms_of(got)), 12))
            return 0 if bad is None else f"reduce output not equivalent: {bad}"
        if kind == "falsify":
            _, f, worlds, length = inv.ref
            if payload["countermodel"] is None:
                found = O.countermodel(f, worlds, length)
                return 0 if found is None else f"no countermodel reported, oracle finds {found}"
            bad = witness_falsifies(f, payload["countermodel"])
            return 1 if bad is None else bad
        if kind == "compare-v":
            if not payload["agrees"] or any("verified" not in c for c in payload["transport_checks"]):
                return "verdicts disagree or a transport failed"
            sat = O.satisfying_point(inv.ref[1], 2, 3) is not None
            return 0 if payload["conwon_satisfiable"] == sat else "wrong satisfiability"
        if kind == "proof":
            message = inv.ref[1]
            if message is None:
                return 0 if payload["accepted"] else "valid proof rejected"
            if payload["accepted"] or not any(message in e for e in payload["errors"]):
                return f"invalid proof not rejected with '{message}'"
            return 1
        if kind == "example":
            return self._example_code(inv.ref[1], payload)
        raise ValueError(kind)

    def _example_code(self, name: str, payload: dict):
        if name in ("tiger", "reagan"):
            text, world = ("[a_g]~a_d", "w3") if name == "tiger" else ("[~r][r | a]r", "w1")
            tree = (BOX(O.atom("a_g"), NOT(O.atom("a_d"))) if name == "tiger"
                    else BOX(NOT(O.atom("r")), BOX(OR(O.atom("r"), O.atom("a")), O.atom("r"))))
            value = self._fixture_value(name, tree, world)
            if payload["value"] != value:
                return f"{text} at {world}: program {payload['value']}, oracle {value}"
            return 0 if value else 1
        if name == "nonmono":
            weak = self._fixture_value(name, BOX(p, q), "w1")
            strong = self._fixture_value(name, BOX(AND(p, NOT(q)), q), "w1")
            mono = IMP(BOX(p, q), BOX(AND(p, NOT(q)), q))
            wit = payload["monotonicity_countermodel"]
            if payload["weak"]["value"] != weak or payload["strengthened"]["value"] != strong:
                return "fixture values differ from the oracle"
            if wit is None or witness_falsifies(mono, wit) is not None:
                return "monotonicity countermodel missing or wrong"
            return 1 if (weak and not strong) else 0
        if name == "fact16":
            # Paper, Fact 16: valid for conwon; its |> reading fails in the relational model.
            if payload["conwon_countermodel"] is not None:
                return "countermodel reported for a validity"
            if payload["v_value_at_w1"] is not False:
                return "V reading reported true"
            return 0
        if name == "figure1":
            model, context = self.fixture_data["figure1"]
            point, index = O.point_from_json(model)
            want = O.expected(O.context_from_json(context, index), point.full)
            return 0 if O.to_mask(payload["expected"], index) == want else "wrong expected states"
        raise ValueError(name)

    def _fixture_value(self, name: str, tree: O.Tree, world: str) -> bool:
        model, context = self.fixture_data[name]
        point, index = O.point_from_json(model)
        return point.holds(tree, O.context_from_json(context, index), index[world])

    def probe(self, tr) -> dict:
        """In-process replay of what the subprocesses do, for per-layer figures."""
        import conwon as cw
        from conwon import fixtures
        for inv in self.ops:
            if inv.ref is not None and inv.ref[0] == "eval":
                t0 = now()
                model = cw.load_model(self.data["model"])
                context = cw.load_context(self.data[inv.ref[2]], model)
                t1 = now()
                f = cw.parse_formula(O.to_text(inv.ref[1]))
                t2 = now()
                cw.evaluate(model, context, inv.ref[3], f)
                t3 = now()
                tr.add("models.load", t0, t1, inv.label)
                tr.add("formula.parse_formula", t1, t2, inv.label, chars=len(O.to_text(inv.ref[1])))
                tr.add("semantics.evaluate", t2, t3, inv.label)
        for name in sorted(fixtures.EXAMPLES):
            t0 = now()
            fixtures.run_example(name)
            tr.add("fixtures.run_example", t0, now(), name)
        code = "import time; t = time.perf_counter(); import conwon.cli; print(time.perf_counter() - t)"
        imports, interp = [], []
        for _ in range(5):
            t0 = now()
            subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=self.env, check=True)
            interp.append(now() - t0)
            out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env, check=True,
                                 capture_output=True, text=True).stdout
            imports.append(float(out))
        return {"cli.import_ms": 1000 * median(imports), "cli.interpreter_ms": 1000 * median(interp)}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    return xs[n // 2] if n % 2 else (xs[n // 2 - 1] + xs[n // 2]) / 2


WORKLOADS = {"search": Search, "sweep": Sweep, "reduce": Reduce, "cli": Cli}

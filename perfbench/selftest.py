"""Self-test of the benchmark: every workload at a tiny size, and its checks.

    python3 perfbench/selftest.py

Part one runs ``run.py --tiny`` for every workload, untraced and traced,
and requires a correct result whose metric names and units are exactly
those in ``BENCHMARK.json``.  Part two feeds each output check a
deliberately corrupted output and requires it to complain: a flipped
verdict, an altered witness, a flat formula that is not equivalent to its
input, a wrong verdict in a sweep and a wrong exit code; and it makes
``find_countermodel`` raise on the depth-4 chains, which must fail those
operations alone.  It takes about two minutes and exits 1 if any check
failed.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle as O  # noqa: E402
from run import Tracer, one_round  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def tiny_runs() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            proc = subprocess.run([*bench["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
                                   "--trace", str(trace), "--tiny"], cwd=ROOT, capture_output=True, text=True,
                                  timeout=170)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                expect(False, f"{workload} trace={trace}: no result (exit {proc.returncode}) {proc.stderr[-500:]}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(proc.returncode == 0 and result["correct"] and result["attempted"] >= 1
                   and got == units[trace] and set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace={trace}: correct, {result['attempted']} attempted, "
                   f"{result['failed']} failed, metrics as in BENCHMARK.json")


def patched(cw, **replacements):
    """A stand-in for the conwon module with some entry points replaced."""
    ns = types.SimpleNamespace(**{n: getattr(cw, n) for n in cw.__all__})
    for name, fn in replacements.items():
        setattr(ns, name, fn)
    return ns


def set_up(name: str):
    workload = WORKLOADS[name]()
    workload.setup(3, True)
    return workload


def outputs(wl) -> list:
    """One untraced round, as the (op, record) pairs that ``check`` reads."""
    return list(zip(wl.ops, one_round(wl, Tracer(False))))


def with_records(pairs, records) -> list:
    return [(op, rec) for (op, _), rec in zip(pairs, records)]


def corrupted_search() -> None:
    wl = set_up("search")
    cw = wl.cw
    pairs = outputs(wl)
    good = [rec for _, rec in pairs]
    expect(not wl.check(pairs), "search: unmodified outputs pass")

    wl.cw = patched(cw, find_countermodel=lambda f, b: None)
    expect(any("expected falsifiable" in pr for pr in wl.check(outputs(wl))),
           "search: flipped verdict (falsifiable reported valid) is rejected")

    falsified = [(i, rec) for i, rec in enumerate(good) if rec["witness"] is not None]
    valid = [i for i, rec in enumerate(good) if rec["witness"] is None]
    flipped = copy.deepcopy(good)
    flipped[valid[0]]["witness"] = falsified[0][1]["witness"]
    expect(bool(wl.check(with_records(pairs, flipped))),
           "search: flipped verdict (countermodel to a validity) is rejected")

    i, rec = falsified[0]
    altered = copy.deepcopy(good)
    altered[i]["witness"] = make_hold(wl.ops[i]["tree"], rec["witness"])
    expect(any("holds at the reported countermodel" in pr for pr in wl.check(with_records(pairs, altered))),
           "search: altered witness is rejected")

    def fails_on_chains(f, bounds):
        if cw.modal_depth(f) > 3:
            raise RecursionError("maximum recursion depth exceeded")
        return cw.find_countermodel(f, bounds)

    wl.cw = patched(cw, find_countermodel=fails_on_chains)
    records = one_round(wl, Tracer(False))
    raised = sum("error" in rec for rec in records)
    expect(raised == sum(O.depth(op["tree"]) > 3 for op in wl.ops) > 0
           and all("witness" in rec for rec in records if "error" not in rec),
           f"search: an operation that raises fails alone and the round goes on ({raised} raised)")


def make_hold(tree, witness: dict) -> dict:
    """Change one atom's extent in a witness until the formula holds there."""
    worlds = witness["model"]["worlds"]
    for atom in sorted(O.atoms_of(tree)):
        for mask in range(1 << len(worlds)):
            changed = copy.deepcopy(witness)
            changed["model"]["valuation"][atom] = [w for k, w in enumerate(worlds) if mask >> k & 1]
            point, index = O.point_from_json(changed["model"])
            if point.holds(tree, O.context_from_json(changed["context"], index), index[changed["world"]]):
                return changed
    raise AssertionError("no single-atom change makes the formula hold")


def corrupted_sweep() -> None:
    wl = set_up("sweep")
    pairs = outputs(wl)
    good = [rec for _, rec in pairs]
    kinds = [op["kind"] for op, _ in pairs]
    expect(not wl.check(pairs), "sweep: unmodified outputs pass")
    bad = copy.deepcopy(good)
    bad[[i for i, k in enumerate(kinds) if k == "proof"][1]]["ok"] = True
    expect(bool(wl.check(with_records(pairs, bad))), "sweep: flipped proof verdict is rejected")
    bad = copy.deepcopy(good)
    bad[kinds.index("sweep") + 1]["failures"] = ["v.rhd.1: false at w1"]
    expect(bool(wl.check(with_records(pairs, bad))), "sweep: a reported soundness failure is rejected")
    bad = copy.deepcopy(good)
    k = next(i for i, rec in enumerate(good) if kinds[i] == "flat" and rec["conwon_witness"] is not None)
    bad[k]["conwon_satisfiable"] = bad[k]["v_satisfiable"] = False
    bad[k]["conwon_witness"] = bad[k]["v_witness"] = None
    expect(bool(wl.check(with_records(pairs, bad))), "sweep: flipped satisfiability verdict is rejected")


def corrupted_reduce() -> None:
    wl = set_up("reduce")
    cw = wl.cw
    expect(not wl.check(outputs(wl)), "reduce: unmodified outputs pass")
    target = wl.ops[0]["text"]

    def wrong_sigma(f):
        flat = cw.sigma(f)
        if cw.render(f) == cw.render(cw.parse_formula(target)):
            return cw.Not(flat)  # flat, parses back to itself, but not equivalent
        return flat

    wl.cw = patched(cw, sigma=wrong_sigma)
    expect(any("not equivalent" in pr for pr in wl.check(outputs(wl))),
           "reduce: a non-equivalent flat output is rejected")


def corrupted_cli() -> None:
    wl = set_up("cli")
    try:
        pairs = outputs(wl)
        good = [rec for _, rec in pairs]
        expect(not wl.check(pairs), "cli: unmodified outputs pass")
        expect(wl.failed(pairs) == 4, f"cli: the four kept faults count as failed ({wl.failed(pairs)})")
        bad = copy.deepcopy(good)
        i = next(k for k, inv in enumerate(wl.ops) if inv.kept_fault is None)
        bad[i]["code"] = 1 - bad[i]["code"] if bad[i]["code"] in (0, 1) else 0
        expect(any("expected" in pr for pr in wl.check(with_records(pairs, bad))), "cli: wrong exit code is rejected")
        bad = copy.deepcopy(good)
        bad[i]["stdout"] = "not json"
        expect(bool(wl.check(with_records(pairs, bad))), "cli: unparsable --output json is rejected")
    finally:
        wl.close()


def main() -> int:
    tiny_runs()
    corrupted_search()
    corrupted_sweep()
    corrupted_reduce()
    corrupted_cli()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

"""Paired benchmark runs of a parent commit and the working tree, written as BENCH_<pr>.json.

    python3 scripts/bench_pairs.py --pr 22 --claim "wall_s on search is lower: ..."
    python3 scripts/bench_pairs.py --pr 22 --workloads search sweep --seeds 10 --first-seed 301

For each workload of ``BENCHMARK.json`` (or of ``--workloads``) and each
seed, one pair runs ``perfbench/run.py --trace 0`` for the benchmark's
``run_seconds`` once on each side with that seed.  The parent is a
``git archive`` of ``--parent`` (default ``HEAD``), the change a copy of
the working tree's files that git tracks or does not ignore; both sit side
by side in one scratch directory, so the two checkouts have the same
layout.  The side that runs first alternates from pair to pair, starting
with the change.  Every run gets ``PYTHONDONTWRITEBYTECODE=1``, so each process
compiles the sources it imports.

The output has the schema of the earlier ``BENCH_*.json`` files: per
workload the seeds, the side run first, each run's ``attempted`` and
``failed``, and per end-to-end metric both sides' values with their
medians, the change/parent ratio of the medians, the number of pairs in
which the change is lower, and the parent's quartiles
(``statistics.quantiles``, n=4, inclusive).  Each metric also gets the
no-regression verdict: its ``bound`` from ``BENCHMARK.json``; ``shift``,
how much worse the change's median is than the parent's as a fraction of
the parent's (negative when better, by the metric's ``better``); and
``verdict``, "over bound" if the shift exceeds the bound, else
"unresolved" if the parent's own spread, (Q3 - Q1) / median, exceeds it
and not every run of the change reads better than every run of the
parent, else "within bound".  ``claim`` is null unless ``--claim`` names
one.  The file is rewritten after every pair, so an interrupted run keeps
what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def checkouts(parent: str, scratch: Path) -> dict:
    """The parent's archive and a copy of the working tree, side by side under ``scratch``."""
    sides = {"parent": scratch / "parent", "change": scratch / "change"}
    sides["parent"].mkdir()
    archive = subprocess.run(["git", "archive", parent], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(sides["parent"])], input=archive, check=True)
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        source = ROOT / name
        if name and source.is_file():
            target = sides["change"] / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return sides


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its last line of standard output, parsed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(runs: dict) -> dict:
    """Per-metric figures of one workload's runs, in the BENCH schema."""
    out = {}
    for metric, spec in METRICS.items():
        values = {side: [round(r["metrics"][metric]["value"], 6) for r in runs[side]] for side in runs}
        parent, change = values["parent"], values["change"]
        lower = sum(c < p for p, c in zip(parent, change))
        entry = {**values, "parent_median": round(statistics.median(parent), 6),
                 "change_median": round(statistics.median(change), 6)}
        entry["ratio"] = round(entry["change_median"] / entry["parent_median"], 4)
        entry["change_lower_in"] = f"{lower} of {len(parent)}"
        sign = 1 if spec["better"] == "lower" else -1
        entry["bound"], entry["shift"] = spec["bound"], round(sign * (entry["ratio"] - 1), 4)
        spread = 0.0
        if len(parent) > 1:
            q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
            entry["parent_q1_q3"] = [round(q1, 6), round(q3, 6)]
            spread = (q3 - q1) / statistics.median(parent)
        all_better = max(sign * c for c in change) < min(sign * p for p in parent)  # sign * x: higher is worse
        entry["verdict"] = ("over bound" if entry["shift"] > spec["bound"]
                            else "unresolved" if spread > spec["bound"] and not all_better else "within bound")
        out[metric] = entry
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", required=True, help="the number in the output's name, BENCH_<pr>.json")
    ap.add_argument("--claim", help="the gain claimed, if any (default: none, written as null)")
    ap.add_argument("--parent", default="HEAD", help="the commit to compare against (default HEAD)")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    ap.add_argument("--seeds", type=int, default=10, help="pairs per workload, at least 10")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--scratch", type=Path, help="where the two checkouts go (default: a temporary directory)")
    args = ap.parse_args(argv)
    if args.seeds < 10:
        ap.error("--seeds must be at least 10")
    out_path, seconds = ROOT / f"BENCH_{args.pr}.json", BENCHMARK["run_seconds"]
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.scratch))
    try:
        sides = checkouts(args.parent, scratch)
        report = {
            "what": "End-to-end metrics of perfbench/run.py, paired runs of the parent commit and this change",
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
            "pairing": "each pair runs the parent (an archive of the parent commit) and the change (a copy of the "
                       "working tree) once with the same seed on one machine; the side that runs first alternates "
                       "from pair to pair ('first' gives the side per pair); medians and quartiles "
                       "(statistics.quantiles, n=4, inclusive) are over the runs of one side",
            "parent_commit": git("rev-parse", args.parent).strip(),
            "change": {"commit": "the commit that adds this file",
                       "benchmarked_src": "the working tree when scripts/bench_pairs.py ran"},
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "environment": "PYTHONDONTWRITEBYTECODE=1 for every run",
            "claim": args.claim,
            "workloads": {},
        }
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
        for workload in args.workloads:
            runs, first = {"parent": [], "change": []}, []
            for i, seed in enumerate(seeds):
                order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
                for side in order:
                    print(f"{workload} seed {seed}: {side}", file=sys.stderr, flush=True)
                    runs[side].append(run_once(sides[side], workload, seed, seconds))
                first.append(order[0])
                report["workloads"][workload] = {
                    "pairs": len(first), "seeds": seeds[:len(first)], "first": first,
                    "all_correct": all(r["correct"] for side in runs for r in runs[side]),
                    "failed_per_run": {side: [r["failed"] for r in runs[side]] for side in runs},
                    "attempted_per_run": {side: [r["attempted"] for r in runs[side]] for side in runs},
                    "metrics": summary(runs),
                }
                out_path.write_text(json.dumps(report, indent=1) + "\n")
    finally:
        if args.scratch is None:
            shutil.rmtree(scratch, ignore_errors=True)
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

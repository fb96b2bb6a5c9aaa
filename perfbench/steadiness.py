"""Run-to-run steadiness of the end-to-end metrics, on unchanged code.

    python3 perfbench/steadiness.py

Runs the benchmark command from ``BENCHMARK.json`` ten times per set and
workload, at its ``run_seconds``, each run with another seed: set A uses
seeds 1..10 and set B seeds 1001..1010, and the two sets interleave
(A, B, B, A, ...) so that slow phases of the machine fall on both.  For
every workload and end-to-end metric it prints each set's median and
quartiles, the spread (Q3 - Q1) / median, the shift of set B's median
against set A's, and the metric's bound.  A row fails when either spread
or the shift, in either direction, exceeds the bound; a workload fails
when a run is not correct or the share of failed operations is not the
same in every run.  The exit code is 1 if anything failed.  Raw results
go to ``.perfbench_out/steadiness-<time>.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
RUNS = 10  # per set and workload


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def one_run(bench: dict, workload: str, seed: int, seconds: int) -> dict:
    args = [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = took
    return result


def report(bench: dict, runs: dict) -> bool:
    ok = True
    head = f"{'workload':8} {'metric':12} {'bound':>6}"
    for name in "AB":
        head += f" | {name} median {'Q1':>10} {'Q3':>10} {'spread':>7}"
    print(head + f" | {'shift':>7}")
    for workload, by_set in runs.items():
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = f"{workload:8} {name:12} {bound:6.3f}"
            medians = []
            flags = []
            for label in "AB":
                values = [r["metrics"][name]["value"] for r in by_set[label]]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                medians.append(med)
                line += f" | {med:14.5g} {q1:10.5g} {q3:10.5g} {spread:7.3f}"
                if spread > bound:
                    flags.append(f"spread {label}")
            shift = (medians[1] - medians[0]) / medians[0]
            line += f" | {shift:+7.3f}"
            if abs(shift) > bound:
                flags.append("shift")
            if flags:
                ok = False
                line += "   FAIL: " + ", ".join(flags)
            print(line)
        shares = {label: (sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs))
                  for label, rs in by_set.items()}
        ratios = {label: f / a for label, (f, a) in shares.items()}
        each = [r["failed"] / r["attempted"] for rs in by_set.values() for r in rs]
        note = "same" if len(set(each)) == 1 else "DIFFERS"
        if note != "same":
            ok = False
        correct = all(r["correct"] for rs in by_set.values() for r in rs)
        if not correct:
            ok = False
        print(f"{workload:8} failed share {', '.join(f'{k}={v:.6f}' for k, v in ratios.items())} "
              f"({note} in every run); all correct: {correct}; "
              f"run time median {statistics.median(r['run_s'] for rs in by_set.values() for r in rs):.1f} s")
    return ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = {"A": 1, "B": 1001}
    runs = {w: {"A": [], "B": []} for w in workloads}
    for i in range(RUNS):
        order = "AB" if i % 2 == 0 else "BA"
        for workload in workloads:
            for label in order:
                result = one_run(bench, workload, seeds[label] + i, seconds)
                runs[workload][label].append(result)
                m = result["metrics"]
                print(f"# {label} {workload} seed {seeds[label] + i}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items())
                      + f" attempted={result['attempted']} failed={result['failed']}"
                      + f" correct={result['correct']} run={result['run_s']:.1f}s", flush=True)
    OUT.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (OUT / f"steadiness-{stamp}.json").write_text(json.dumps(runs, indent=1))
    return 0 if report(bench, runs) else 1


if __name__ == "__main__":
    sys.exit(main())

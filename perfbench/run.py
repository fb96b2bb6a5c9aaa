"""Run one benchmark workload against the conwon sources in this checkout.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

The run sets the workload up (imports, inputs, cache warm-up), then runs
its fixed batch in whole rounds for about ``--seconds`` seconds, checks
the outputs against the reference semantics in ``oracle.py`` and prints
one JSON object as the last line of standard output::

    {"correct": true, "attempted": 48, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``wall_s``, ``peak_rss_mb``); with ``--trace 1`` rounds alternate between
untraced and traced, and the metrics are the per-layer ones, taken from
spans recorded around the calls into each layer.  Details of every run
(round times, set-up times, spans, problems found) are written to
``.perfbench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle as O  # noqa: E402
from workloads import OUT, SRC, WORKLOADS, median  # noqa: E402

SETUP_REPEATS = 9
# Reference work for the machine's momentary speed: a fixed exhaustive check
# by the benchmark's own evaluator, Python work of the same kind as conwon's.
REF_FORMULA = O.box(O.atom("p"), O.box(O.atom("q"), O.disj(O.atom("p"), O.dia(O.atom("q"), O.atom("p")))))
REF_NOMINAL_S = 0.002  # the reference's time at the speed all corrected times are stated for
REF_LOOPS = 5
CLI_SUBCOMMANDS = ("parse", "eval", "expected", "update", "reduce", "falsify",
                   "compare-v", "check-proof", "examples-run")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "formula.parse_formula.busy_s": "s",
    "formula.parse_formula.calls": "count",
    "formula.parse_formula.kchars_per_s": "kchar/s",
    "formula.render.busy_s": "s",
    "formula.render.calls": "count",
    "formula.render.out_chars": "count",
    "reduction.sigma.busy_s": "s",
    "reduction.sigma.calls": "count",
    "reduction.sigma.max_ms": "ms",
    "reduction.sigma.out_nodes": "count",
    "semantics.warmup_s": "s",
    "semantics.find_countermodel.valid_busy_s": "s",
    "semantics.find_countermodel.valid_calls": "count",
    "semantics.find_countermodel.falsified_busy_s": "s",
    "semantics.find_countermodel.falsified_calls": "count",
    "semantics.find_countermodel.pairs_per_s": "1/s",
    "semantics.evaluate.busy_s": "s",
    "semantics.evaluate.calls": "count",
    "lewis.flat_equivalence_check.busy_s": "s",
    "lewis.flat_equivalence_check.calls": "count",
    "proofs.soundness_sweep.conwon_s": "s",
    "proofs.soundness_sweep.v1_s": "s",
    "proofs.soundness_sweep.calls": "count",
    "proofs.soundness_sweep.instances": "count",
    "proofs.check_proof.busy_s": "s",
    "proofs.check_proof.calls": "count",
    "fixtures.run_example.busy_s": "s",
    "fixtures.run_example.calls": "count",
    "models.load.busy_s": "s",
    "models.load.calls": "count",
    "cli.import_ms": "ms",
    "cli.interpreter_ms": "ms",
    **{f"cli.{sub}.p50_ms": "ms" for sub in CLI_SUBCOMMANDS},
    "machine.ref_loop_ms": "ms",
    "machine.ref_work_ms": "ms",
    "machine.uncorrected_wall_s": "s",
    "trace.overhead_s": "s",
}


class Reference:
    """Times the reference work in a child process of its own, so that the
    heap and garbage-collector state that the program leaves in the
    measuring process do not enter the divisor."""

    def __init__(self):
        code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; run.serve_reference()"
        self.proc = subprocess.Popen([sys.executable, "-c", code], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def __call__(self, reps: int = 1) -> float:
        """Median time of ``reps`` runs of the reference work, in seconds."""
        self.proc.stdin.write(f"{reps}\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def reference_s() -> float:
    t0 = time.perf_counter()
    O.countermodel(REF_FORMULA, 2, 3)
    return time.perf_counter() - t0


def serve_reference() -> None:
    for line in sys.stdin:
        print(median([reference_s() for _ in range(int(line))]), flush=True)


class Tracer:
    """Spans kept in memory: layer name, start, end, the item that caused it.

    Every round also times each item of the batch, traced or not, and reads
    the reference at its start and between items (after at least 20 ms of
    item time), so that the readings sample the machine across the round.
    """

    def __init__(self, on: bool, reference=None):
        self.on = on
        self.spans: list = []
        self.items: list = []  # duration of every item of the batch
        self.reference = reference
        self.readings: list = [reference(3)] if reference else []
        self.pending = 0.0

    def item(self, start: float, end: float) -> None:
        self.items.append(end - start)
        if self.reference:
            self.pending += end - start
            if self.pending >= 0.02:
                # longer items get a steadier reading, at a few per cent of their time
                self.readings.append(self.reference(1 + min(9, int((end - start) / 0.05))))
                self.pending = 0.0

    def corrected(self) -> list:
        """Item times at nominal machine speed.

        Every item is scaled by the median of the round's readings: a
        reading next to an item samples a moment, which a long item does
        not run in alone, while the round's median follows the phase the
        whole round ran in.
        """
        if self.pending:
            self.readings.append(self.reference(1))
            self.pending = 0.0
        scale = REF_NOMINAL_S / median(self.readings)
        return [t * scale for t in self.items]

    def add(self, name: str, start: float, end: float, cause, **counts) -> None:
        if self.on:
            self.spans.append({"name": name, "start": start, "end": end, "cause": cause, **counts})


def ref_loop_ms() -> float:
    """A fixed pure-Python loop; it moves only when the machine does."""
    times = []
    for _ in range(REF_LOOPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(1000 * (time.perf_counter() - t0))
    return median(times)


def batch_time(rounds: list) -> float:
    """Time of one batch: the sum over its items of each item's median round."""
    return sum(median(times) for times in zip(*rounds)) if rounds else 0.0


def one_round(workload, tracer: Tracer) -> list:
    """Run every operation of the batch once; an exception fails only its operation.

    Each operation starts from a collected heap, so that the garbage
    collections it triggers do not depend on the operations before it,
    whose order the seed shuffles.
    """
    records = []
    for op in workload.ops:
        gc.collect()
        t0 = time.perf_counter()
        try:
            record = workload.run_op(op, tracer)
        except Exception as exc:  # noqa: BLE001 - any fault of the program fails the operation
            record = {"error": f"{type(exc).__name__}: {str(exc)[:300]}"}
        tracer.item(t0, time.perf_counter())
        records.append(record)
    return records


def set_up(name: str, seed: int, tiny: bool):
    workload = WORKLOADS[name]()
    t0 = time.perf_counter()
    info = workload.setup(seed, tiny)
    return workload, time.perf_counter() - t0, info["warmup_s"]


def setup_probe(name: str, seed: int, tiny: bool) -> tuple:
    """Set-up time of a fresh process, so that no in-process cache is warm."""
    args = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"]
    if tiny:
        args.append("--tiny")
    proc = subprocess.run(args, capture_output=True, text=True, timeout=150, check=True)
    data = json.loads(proc.stdout.strip().splitlines()[-1])
    return data["raw_setup_s"], data["warmup_s"]


def layer_metrics(spans: list, rounds: int, probe_spans: list, extra: dict) -> dict:
    """Per-layer figures per traced round (probe spans are counted once)."""
    busy, calls, chars, top, pairs, instances = {}, {}, {}, {}, {}, {}
    for group, per in ((spans, max(rounds, 1)), (probe_spans, 1)):
        totals = {}
        for sp in group:
            n, d = sp["name"], sp["end"] - sp["start"]
            t = totals.setdefault(n, [0.0, 0, 0, 0, 0])
            t[0] += d
            t[1] += 1
            t[2] += sp.get("chars", 0)
            t[3] += sp.get("pairs", 0)
            t[4] += sp.get("instances", 0)
            top[n] = max(top.get(n, 0.0), d)
        for n, (d, k, ch, pa, ins) in totals.items():
            busy[n], calls[n], chars[n], pairs[n], instances[n] = d / per, k / per, ch / per, pa / per, ins / per

    def b(n):
        return busy.get(n, 0.0)

    def c(n):
        return calls.get(n, 0.0)

    fc = "semantics.find_countermodel"
    m = {
        "formula.parse_formula.busy_s": b("formula.parse_formula"),
        "formula.parse_formula.calls": c("formula.parse_formula"),
        "formula.parse_formula.kchars_per_s":
            chars.get("formula.parse_formula", 0.0) / 1000 / b("formula.parse_formula")
            if b("formula.parse_formula") else 0.0,
        "formula.render.busy_s": b("formula.render"),
        "formula.render.calls": c("formula.render"),
        "formula.render.out_chars": chars.get("formula.render", 0.0),
        "reduction.sigma.busy_s": b("reduction.sigma"),
        "reduction.sigma.calls": c("reduction.sigma"),
        "reduction.sigma.max_ms": 1000 * top.get("reduction.sigma", 0.0),
        "reduction.sigma.out_nodes": extra.get("out_nodes", 0),
        "semantics.warmup_s": extra["warmup_s"],
        f"{fc}.valid_busy_s": b(f"{fc}.valid"),
        f"{fc}.valid_calls": c(f"{fc}.valid"),
        f"{fc}.falsified_busy_s": b(f"{fc}.falsified"),
        f"{fc}.falsified_calls": c(f"{fc}.falsified"),
        f"{fc}.pairs_per_s": pairs.get(f"{fc}.valid", 0.0) / b(f"{fc}.valid") if b(f"{fc}.valid") else 0.0,
        "semantics.evaluate.busy_s": b("semantics.evaluate"),
        "semantics.evaluate.calls": c("semantics.evaluate"),
        "lewis.flat_equivalence_check.busy_s": b("lewis.flat_equivalence_check"),
        "lewis.flat_equivalence_check.calls": c("lewis.flat_equivalence_check"),
        "proofs.soundness_sweep.conwon_s": b("proofs.soundness_sweep.conwon"),
        "proofs.soundness_sweep.v1_s": b("proofs.soundness_sweep.v1"),
        "proofs.soundness_sweep.calls": c("proofs.soundness_sweep.conwon") + c("proofs.soundness_sweep.v1"),
        "proofs.soundness_sweep.instances":
            instances.get("proofs.soundness_sweep.conwon", 0.0) + instances.get("proofs.soundness_sweep.v1", 0.0),
        "proofs.check_proof.busy_s": b("proofs.check_proof"),
        "proofs.check_proof.calls": c("proofs.check_proof"),
        "fixtures.run_example.busy_s": b("fixtures.run_example"),
        "fixtures.run_example.calls": c("fixtures.run_example"),
        "models.load.busy_s": b("models.load"),
        "models.load.calls": c("models.load"),
        "cli.import_ms": extra.get("cli.import_ms", 0.0),
        "cli.interpreter_ms": extra.get("cli.interpreter_ms", 0.0),
        "machine.ref_loop_ms": extra["ref_loop_ms"],
        "machine.ref_work_ms": extra["ref_work_ms"],
        "machine.uncorrected_wall_s": extra["uncorrected_wall_s"],
        "trace.overhead_s": extra["overhead_s"],
    }
    for sub in CLI_SUBCOMMANDS:
        durations = [sp["end"] - sp["start"] for sp in spans if sp["name"] == f"cli.{sub}"]
        m[f"cli.{sub}.p50_ms"] = 1000 * median(durations) if durations else 0.0
    return m


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    reference = Reference()
    try:
        return measure(name, seed, seconds, trace, tiny, reference)
    finally:
        reference.close()


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool, reference: Reference) -> dict:
    # Set up several times and keep the median: in-process for cli, whose
    # set-up runs subprocesses anyway, in fresh processes for the rest.
    # Each set-up lies between two readings of the reference.
    setups, warmups, raw_setups = [], [], []
    workload = None
    for k in range(SETUP_REPEATS):
        before = reference(5)
        if name == "cli" or k == 0:
            if workload is not None:
                workload.close()
            workload, raw_s, warmup_s = set_up(name, seed, tiny)
        else:
            raw_s, warmup_s = setup_probe(name, seed, tiny)
        setups.append(raw_s * 2 * REF_NOMINAL_S / (before + reference(5)))
        warmups.append(warmup_s)
        raw_setups.append(raw_s)
    ref_ms = ref_loop_ms()

    walls = {False: [], True: []}
    items = {False: [], True: []}  # item times at nominal machine speed
    raw_items = {False: [], True: []}
    refs = []
    spans, first, failed, rounds, problems, round_log = [], None, 0, 0, [], []
    start = time.perf_counter()
    while True:
        traced = trace and rounds % 2 == 1
        tracer = Tracer(traced, reference)
        t0 = time.perf_counter()
        records = one_round(workload, tracer)
        t1 = time.perf_counter()
        walls[traced].append(t1 - t0)
        items[traced].append(tracer.corrected())
        raw_items[traced].append(tracer.items)
        refs += tracer.readings
        round_log.append({"traced": traced, "items_s": tracer.items, "readings_s": tracer.readings})
        spans += tracer.spans
        done = [(op, rec) for op, rec in zip(workload.ops, records) if "error" not in rec]
        failed += len(records) - len(done) + workload.failed(done)
        rounds += 1
        dump = json.dumps(records, sort_keys=True, default=str)
        if first is None:
            first, first_dump = records, dump
            problems += [f"operation {i} raised {rec['error']}" for i, rec in enumerate(records) if "error" in rec]
        elif dump != first_dump:
            problems.append(f"round {rounds} gave other outputs than round 1")
        if rounds >= (2 if trace else 1) and (t1 - start) + median(walls[False] + walls[True]) > seconds:
            break

    usage = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024
    problems += workload.check([(op, rec) for op, rec in zip(workload.ops, first) if "error" not in rec])

    wall_s, raw_wall_s = batch_time(items[False]), batch_time(raw_items[False])
    extra = {"warmup_s": median(warmups), "ref_loop_ms": ref_ms, "ref_work_ms": 1000 * median(refs),
             "uncorrected_wall_s": raw_wall_s, "out_nodes": workload.out_nodes,
             "overhead_s": batch_time(items[True]) - wall_s if walls[True] else 0.0}
    probe = Tracer(True)
    if trace:
        extra.update(workload.probe(probe))
    workload.close()

    if trace:
        metrics = layer_metrics(spans, len(walls[True]), probe.spans, extra)
        units = PER_LAYER
    else:
        metrics = {"setup_s": median(setups), "wall_s": wall_s, "peak_rss_mb": peak_mb}
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": rounds * len(workload.ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    OUT.mkdir(exist_ok=True)
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
              "setups_s": setups, "raw_setups_s": raw_setups, "warmups_s": warmups, "ref_loop_ms": ref_ms,
              "ref_work_ms": extra["ref_work_ms"], "raw_wall_s": raw_wall_s,
              "untraced_walls_s": walls[False], "traced_walls_s": walls[True], "peak_rss_mb": peak_mb,
              "untraced_items_s": items[False], "traced_items_s": items[True], "rounds": round_log,
              "problems": problems, "spans": spans + probe.spans, "result": result}
    suffix = "-tiny" if tiny else ""
    (OUT / f"{name}-seed{seed}-trace{int(trace)}{suffix}.json").write_text(json.dumps(detail, indent=1))
    print(f"{name}: {rounds} rounds; batch {wall_s:.4f} s at nominal speed, {raw_wall_s:.4f} s as measured; "
          f"reference {1000 * median(refs):.3f} ms (nominal {1000 * REF_NOMINAL_S:g} ms)", file=sys.stderr)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "conwon" / "__init__.py").is_file():
        print(f"error: no conwon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.setrecursionlimit(20000)

    if args.setup_probe:
        workload, raw_s, warmup_s = set_up(args.workload, args.seed, args.tiny)
        workload.close()
        print(json.dumps({"raw_setup_s": raw_s, "warmup_s": warmup_s}))
        return 0

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    import conwon
    if Path(conwon.__file__).resolve().parent != (SRC / "conwon").resolve():
        print(f"error: imported conwon from {conwon.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance suite: one printed pass/fail line per criterion.

The lines are written through the terminal reporter so they appear in
the live test output even with capture enabled.
"""

import itertools
import random
import time

import pytest

from conwon.fixtures import (
    INVALID_PROOFS,
    REAGAN_CONTEXT,
    REAGAN_MODEL,
    TIGER_CONTEXT,
    TIGER_MODEL,
    NONMONO_CONTEXT,
    NONMONO_MODEL,
    VALID_PROOF,
)
from conwon.formula import Iff, is_flat, parse_formula, render
from conwon.lewis import context_to_partition, flat_equivalence_check, partition_to_context
from conwon.models import Model, SequenceContext, core, load_context, load_model
from conwon.proofs import check_proof, load_proof, soundness_sweep
from conwon.reduction import sigma
from conwon.semantics import SearchBounds, evaluate, find_countermodel
from conftest import (disagreement, e_mask, formula_battery, invoke, iter_contexts, ordered_partitions,
                      random_formula, truth_set_relational, universal_order)


@pytest.fixture
def announce(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _announce(number: int, description: str, ok: bool) -> None:
        verdict = "PASS" if ok else "FAIL"
        line = f"criterion {number}: {verdict} - {description}"
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)
        assert ok, line

    return _announce


def fs(*worlds):
    return frozenset(worlds)


def test_criterion_1_tiger(announce):
    model = load_model(TIGER_MODEL)
    context = load_context(TIGER_CONTEXT, model)
    trace = []
    value = evaluate(model, context, "w3", parse_formula("[a_g]~a_d"), trace)
    ok = (
        value is True
        and len(trace) == 1
        and trace[0].levels == (("|a_g|",), ("D2",), ("D1", "D3"))
        and trace[0].expected == fs("w1")
    )
    announce(1, "tiger: [a_g]~a_d true at w3 with exact hierarchy and expected {w1}", ok)


def test_criterion_2_reagan(announce):
    model = load_model(REAGAN_MODEL)
    context = load_context(REAGAN_CONTEXT, model)
    trace = []
    value = evaluate(model, context, "w1", parse_formula("[~r][r | a]r"), trace)
    ok = value is False and [s.expected for s in trace] == [fs("w3"), fs("w2")]
    announce(2, "reagan: [~r][r|a]r false at w1 with expected sets {w3} then {w2}", ok)


def test_criterion_3_nonmonotonicity(announce):
    model = load_model(NONMONO_MODEL)
    context = load_context(NONMONO_CONTEXT, model)
    weak = evaluate(model, context, "w1", parse_formula("[p]q"))
    strong = evaluate(model, context, "w1", parse_formula("[p & ~q]q"))
    start = time.monotonic()
    witness = find_countermodel(parse_formula("([p]q) -> ([p & ~q]q)"), SearchBounds(2, 3))
    elapsed = time.monotonic() - start
    ok = (
        weak is True
        and strong is False
        and witness is not None
        and elapsed < 1.0
        and not evaluate(witness.model, witness.context, witness.world,
                         parse_formula("([p]q) -> ([p & ~q]q)"))
    )
    announce(3, f"non-monotonicity fixture plus countermodel at (2,3) in {elapsed:.3f}s", ok)


def test_criterion_4_divergence(announce):
    conwon_side = parse_formula("E (p & q) -> [p][q](p & q)")
    no_counter = find_countermodel(conwon_side, SearchBounds(3, 5)) is None
    model = Model(("w1", "w2"), {"p": fs("w1"), "q": fs("w1", "w2")})
    relational = universal_order(model, {("w2", "w1")})
    v_false = "w1" not in truth_set_relational(
        relational, parse_formula("E (p & q) -> (p |> (q |> (p & q)))", dialect="v")
    )
    announce(4, "divergence: conwon side valid at (3,5), v side false on the 2-world order",
             no_counter and v_false)


def test_criterion_5_reduction_battery(announce):
    battery = formula_battery(seed=501, count=200, atom_names=("p", "q"), max_depth=3)
    assert len(battery) >= 200
    discrepancies = []
    for f in battery:
        flat = sigma(f)
        if not is_flat(flat):
            discrepancies.append((render(f), "not flat"))
            continue
        witness = disagreement(f, flat, 3, 3)
        if witness is not None:
            discrepancies.append((render(f), witness.to_json()))
    announce(5, f"sigma on {len(battery)} formulas: flat output, zero discrepancies at |W|<=3",
             discrepancies == [])


def test_criterion_6_lemma_suites(announce):
    bounds = SearchBounds(3, 5)
    validity_pairs = [
        ("[p](q & r)", "[p]q & [p]r"),
        ("[p](q | [q]r)", "[p]q | [p][q]r"),
        ("[p][q]r", "E p -> ((E (p & q) & [p & q]r) | (~E (p & q) & A (q -> r)))"),
        ("[p]<q>r", "E p -> ((E (p & q) & <p & q>r) | (~E (p & q) & E (q & r)))"),
    ]
    validities_ok = all(
        find_countermodel(Iff(parse_formula(l), parse_formula(r)), bounds) is None
        for l, r in validity_pairs
    )

    # basic-lemma items 1-4 and core laws, exhaustively in bitmask form
    lemma_ok = True
    core_ok = True
    for n in range(1, 4):
        full = (1 << n) - 1
        subsets = range(1 << n)
        for ctx in iter_contexts(n, 5):
            for a in subsets:
                updated = (a,) + ctx
                if (e_mask(updated) == 0) != (a == 0):
                    lemma_ok = False  # item 1
                if e_mask(updated) & ~a:
                    lemma_ok = False  # item 4
                for b in subsets:
                    double = (b,) + updated
                    if a & b:
                        if e_mask(double) != e_mask(((a & b),) + ctx):
                            lemma_ok = False  # item 2
                    elif e_mask(double) != e_mask((b, full)):
                        lemma_ok = False  # item 3

            def cored(chain):
                seen, out = set(), []
                for d in chain:
                    if d not in seen:
                        seen.add(d)
                        out.append(d)
                return tuple(out)

            if e_mask(ctx) != e_mask(cored(ctx)):
                core_ok = False
            for d in subsets:
                if cored((d,) + ctx) != cored((d,) + cored(ctx)):
                    core_ok = False

    # core-invariance of truth on a fixed model family
    invariance_ok = True
    model = Model(("w1", "w2", "w3"), {"p": fs("w1", "w2"), "q": fs("w2")})
    formulas = [parse_formula("[p][q](p & q)"), parse_formula("~[p]q & <q>p")]
    subsets3 = [frozenset(c) for k in range(4)
                for c in itertools.combinations(("w1", "w2", "w3"), k)]
    rng = random.Random(61)
    for _ in range(400):
        seq = SequenceContext(tuple(rng.choice(subsets3) for _ in range(rng.randint(1, 5))))
        for f in formulas:
            if evaluate(model, seq, "w1", f) != evaluate(model, core(seq), "w1", f):
                invariance_ok = False
    announce(6, "four validities, basic-lemma items 1-4, core laws, core-invariance at (3,5)",
             validities_ok and lemma_ok and core_ok and invariance_ok)


def test_criterion_7_flat_equivalence(announce):
    rng = random.Random(71)
    battery = []
    while len(battery) < 100:
        f = random_formula(rng, ("p", "q"), modal_budget=1, size=3)
        if is_flat(f):
            battery.append(f)
    bounds = SearchBounds(3, 3)
    disagreements = []
    transport_failures = []
    transports = 0
    for f in battery:
        report = flat_equivalence_check(f, bounds)
        if not report.agrees:
            disagreements.append(report.formula)
        for check in report.transport_checks:
            transports += 1
            if "FAILED" in check:
                transport_failures.append((report.formula, check))
    announce(
        7,
        f"flat equivalence on {len(battery)} formulas at |W|<=3 "
        f"({transports} transports re-verified)",
        disagreements == [] and transport_failures == [],
    )


def test_criterion_8_transformation_lemmas(announce):
    ok = True
    for n in range(1, 5):
        worlds = tuple(f"w{i + 1}" for i in range(n))
        full = frozenset(worlds)
        subsets = [frozenset(c) for k in range(n + 1)
                   for c in itertools.combinations(worlds, k)]
        # partition -> suffix unions -> partition, for every ordered partition
        for blocks in ordered_partitions(worlds):
            xs = partition_to_context(blocks)
            if xs[0] != full:
                ok = False
            for j in range(len(blocks)):
                if xs[j] != frozenset().union(*blocks[j:]):
                    ok = False
            if context_to_partition(xs, full) != blocks:
                ok = False
        # arbitrary W-headed sequences -> difference partition
        tail_len = 2 if n == 4 else 3
        for tail in itertools.product(subsets, repeat=tail_len):
            xs = (full,) + tail
            ys = context_to_partition(xs, full)
            if sum(len(y) for y in ys) != n or frozenset().union(*ys) != full:
                ok = False  # disjointness and coverage
            runnings = []
            running = full
            for i, x in enumerate(xs):
                running = running & x if i else full
                runnings.append(running)
            for z in subsets:
                if not z:
                    continue
                l = max(i for i in range(len(xs)) if z & runnings[i])
                if z & runnings[l] != z & ys[l]:
                    ok = False  # prefix-intersection equality
                if max(j for j in range(len(ys)) if z & ys[j]) != l:
                    ok = False  # greatest-index correspondence
    announce(8, "both transformation lemmas exhaustively at |W|<=4", ok)


def test_criterion_9_proof_checking(announce):
    system, steps = load_proof(VALID_PROOF)
    accepted = check_proof(steps, system).ok

    rejected = len(INVALID_PROOFS) >= 10
    for name, (proof, expected_msg) in INVALID_PROOFS.items():
        sys_name, bad_steps = load_proof(proof)
        verdict = check_proof(bad_steps, sys_name)
        if verdict.ok or expected_msg not in " ".join(verdict.errors):
            rejected = False

    sweep_conwon = soundness_sweep("conwon", SearchBounds(3, 5))
    sweep_v = soundness_sweep("v1", SearchBounds(3, 5))
    announce(
        9,
        f"bundled proof accepted, {len(INVALID_PROOFS)} invalid proofs rejected, "
        f"soundness sweeps clean ({sweep_conwon.instances}+{sweep_v.instances} instances)",
        accepted and rejected and sweep_conwon.ok and sweep_v.ok,
    )


def test_criterion_10_parser(announce):
    ok = True
    count = 0
    for dialect in ("conwon", "v"):
        rng = random.Random(103 if dialect == "conwon" else 107)
        for _ in range(500):
            f = random_formula(rng, ("p", "q", "r"), modal_budget=3, size=4,
                               dialect=dialect)
            count += 1
            if parse_formula(render(f), dialect=dialect) != f:
                ok = False
    for bad in ["p &", "(p | q", "p q", "[p q", "p <-> q <-> r", "@", "p ->"]:
        result = invoke(["parse", bad])
        if result.exit_code != 2 or "position" not in result.output:
            ok = False
    announce(10, f"round-trip identity on {count} formulas; grammar errors exit 2 with position",
             ok)

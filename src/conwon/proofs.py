"""Hilbert-style proof checking for the systems conwon and v1.

Axiom schemas are stored as parsed template formulas whose atoms are
metavariables; instantiation is structural unification plus per-variable
side conditions (propositional, closed).  Propositional reasoning is
handled by a tautology rule: a step may be justified as a tautological
consequence of earlier steps, decided by truth tables over skeletons in
which maximal conditional subformulas are opaque atoms.  The table is
bit-parallel: a formula's column of 2**n rows is one int, so a row costs
a bit, not a walk, and a step whose rows x skeleton nodes exceed
``MAX_TAUT_BITS`` (2**28) is refused with :class:`ProofError`.  v1 is the
flat restriction of the comparative-possibility system: every step
formula must be flat.
"""

from __future__ import annotations

import functools
import itertools
import operator
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import FrozenRecord, InputError, Record, read_json
from .formula import (
    And,
    Atom,
    CondBox,
    CondCorner,
    Falsum,
    Formula,
    Not,
    ParseError,
    SomeWorld,
    atoms,
    parse_formula,
    render,
    set_walk,
)


class ProofError(InputError):
    """Malformed proof file."""


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------


class Schema(FrozenRecord):
    __slots__ = ("identifier", "template", "conditions")  # metavariable -> "propositional" | "closed"

    def __init__(self, identifier: str, template: Formula, conditions: Mapping[str, str]):
        self._assign(identifier, template, conditions)


def _schema(identifier: str, text: str, dialect: str, **conditions: str) -> Schema:
    return Schema(identifier, parse_formula(text, dialect=dialect), dict(conditions))


PROP = "propositional"
CLOSED = "closed"

CONWON_AXIOMS: Tuple[Schema, ...] = (
    _schema("conwon.2a", "[alpha](phi & psi) <-> ([alpha]phi & [alpha]psi)", "conwon",
            alpha=PROP),
    _schema("conwon.2b", "[alpha](phi | chi) <-> ([alpha]phi | [alpha]chi)", "conwon",
            alpha=PROP, chi=CLOSED),
    _schema("conwon.2c",
            "[alpha][beta]gamma <-> "
            "(E alpha -> ((E (alpha & beta) & [alpha & beta]gamma)"
            " | (~E (alpha & beta) & A (beta -> gamma))))",
            "conwon", alpha=PROP, beta=PROP, gamma=PROP),
    _schema("conwon.2d",
            "[alpha]<beta>gamma <-> "
            "(E alpha -> ((E (alpha & beta) & <alpha & beta>gamma)"
            " | (~E (alpha & beta) & E (beta & gamma))))",
            "conwon", alpha=PROP, beta=PROP, gamma=PROP),
    _schema("conwon.3a", "[alpha]alpha", "conwon", alpha=PROP),
    _schema("conwon.3b", "[alpha]gamma -> [alpha](gamma | delta)", "conwon",
            alpha=PROP, gamma=PROP, delta=PROP),
    _schema("conwon.3c", "([alpha]beta & [alpha]gamma) -> [alpha & beta]gamma", "conwon",
            alpha=PROP, beta=PROP, gamma=PROP),
    _schema("conwon.3d", "([alpha]gamma & [beta]gamma) -> [alpha | beta]gamma", "conwon",
            alpha=PROP, beta=PROP, gamma=PROP),
    _schema("conwon.3e", "(<alpha>beta & [alpha]gamma) -> [alpha & beta]gamma", "conwon",
            alpha=PROP, beta=PROP, gamma=PROP),
)

V_AXIOMS: Tuple[Schema, ...] = (
    _schema("v.rhd.1", "phi |> phi", "v"),
    _schema("v.rhd.2", "((phi |> chi) & (phi |> xi)) -> (phi |> (chi & xi))", "v"),
    _schema("v.rhd.3", "(phi |> chi) -> (phi |> (chi | xi))", "v"),
    _schema("v.rhd.4", "((phi |> psi) & (phi |> chi)) -> ((phi & psi) |> chi)", "v"),
    _schema("v.rhd.5", "((phi |> chi) & (psi |> chi)) -> ((phi | psi) |> chi)", "v"),
    _schema("v.rhd.6", "(~(phi |> ~psi) & (phi |> chi)) -> ((phi & psi) |> chi)", "v"),
)

SCHEMAS: Dict[str, Schema] = {s.identifier: s for s in CONWON_AXIOMS + V_AXIOMS}

RULES: Tuple[str, ...] = ("taut", "mp", "rcea", "rcec")

SYSTEMS: Dict[str, Dict] = {
    "conwon": {"axioms": CONWON_AXIOMS, "dialect": "conwon", "flat_only": False},
    "v1": {"axioms": V_AXIOMS, "dialect": "v", "flat_only": True},
}


def _meets(f: Formula, condition: str) -> bool:
    return not f.depth if condition == PROP else f.closed


def match_schema(schema: Schema, f: Formula) -> Optional[Dict[str, Formula]]:
    """Substitution instantiating the template to ``f``, or ``None``."""
    binding: Dict[str, Formula] = {}

    def unify(t: Formula, g: Formula) -> bool:
        if isinstance(t, Atom):
            if t.name in binding:
                return binding[t.name] is g
            binding[t.name] = g
            return True
        return type(t) is type(g) and all(map(unify, t.children(), g.children()))

    if not unify(schema.template, f):
        return None
    for var, condition in schema.conditions.items():
        if var in binding and not _meets(binding[var], condition):
            return None
    return binding


def instantiate(schema: Schema, subst: Mapping[str, Formula]) -> Formula:
    def walk(t: Formula) -> Formula:
        if isinstance(t, Atom):
            if t.name not in subst:
                raise ProofError(f"substitution misses metavariable {t.name!r}")
            return subst[t.name]
        return type(t)(*map(walk, t.children()))

    return walk(schema.template)


# ---------------------------------------------------------------------------
# Tautology rule, bit-parallel over conditional-opaque skeletons
# ---------------------------------------------------------------------------


MAX_TAUT_BITS = 1 << 28  # truth-table rows x skeleton nodes: the columns held at once, 32 MiB


def tautological_consequence(premises: Sequence[Formula], conclusion: Formula) -> bool:
    """Whether ``conclusion`` is true at every truth-table row where all ``premises`` are.

    The opaque parts are the atoms and the maximal conditionals; n of them
    give 2**n rows.  A formula's column is an int whose bit r is its value
    at row r: part i's column sets the rows whose bit i is set, and ``~``
    and ``&`` act on whole columns (``formula.set_walk``).  The step holds
    iff (AND of the premises' columns) & ~conclusion's column is 0.  Every
    skeleton node's column is kept, so rows x nodes is capped at
    ``MAX_TAUT_BITS``; a larger step raises :class:`ProofError`.
    """
    parts: Dict[Formula, int] = {}  # opaque part -> its column number
    nodes, stack = set(), [*premises, conclusion]
    while stack:
        g = stack.pop()
        if g not in nodes:
            nodes.add(g)
            if type(g) is Not:
                stack.append(g.child)
            elif type(g) is And:
                stack += (g.left, g.right)
            elif type(g) is not Falsum:
                parts.setdefault(g, len(parts))
    if len(nodes) << len(parts) > MAX_TAUT_BITS:
        raise ProofError(f"taut step over {len(parts)} atoms and conditionals has 2**{len(parts)} rows "
                         f"x {len(nodes)} nodes, over the cap of {MAX_TAUT_BITS} bits")
    rows = 1 << len(parts)
    full = (1 << rows) - 1

    def column(g: Formula, walk=None) -> int:
        half = 1 << parts[g]
        mask, width = ((1 << half) - 1) << half, 2 * half  # the rows < width with bit parts[g] set
        while width < rows:
            mask, width = mask | mask << width, 2 * width
        return mask

    walk = set_walk(full, lambda name: column(Atom(name)), column)
    held = functools.reduce(operator.and_, map(walk, premises), full)
    return not held & (full - walk(conclusion))


def is_tautology(f: Formula) -> bool:
    return tautological_consequence([], f)


# ---------------------------------------------------------------------------
# Proof steps and checking
# ---------------------------------------------------------------------------


class ProofStep(FrozenRecord):
    __slots__ = ("formula", "by")  # by: {"axiom": id, "subst": {...}} or {"rule": name, "from": [...]}

    def __init__(self, formula: Formula, by: Mapping):
        self._assign(formula, by)


class Verdict(Record):
    __slots__ = ("ok", "system", "errors")

    def __init__(self, ok: bool, system: str, errors: Optional[List[str]] = None):
        self._assign(ok, system, [] if errors is None else errors)

    @property
    def message(self) -> str:
        return "accepted" if self.ok else "; ".join(self.errors)


def _match_iff(f: Formula) -> Optional[Tuple[Formula, Formula]]:
    # desugared a <-> b is ~(a & ~b) & ~(b & ~a)
    if not isinstance(f, And):
        return None
    halves = []
    for part in (f.left, f.right):
        if not (isinstance(part, Not) and isinstance(part.child, And)
                and isinstance(part.child.right, Not)):
            return None
        halves.append((part.child.left, part.child.right.child))
    (a, b), (b2, a2) = halves
    if a == a2 and b == b2:
        return a, b
    return None


def _match_implies(f: Formula) -> Optional[Tuple[Formula, Formula]]:
    if isinstance(f, Not) and isinstance(f.child, And) and isinstance(f.child.right, Not):
        return f.child.left, f.child.right.child
    return None


def _conditional_parts(f: Formula) -> Optional[Tuple[Formula, Formula]]:
    if isinstance(f, CondBox):
        return f.antecedent, f.consequent
    if isinstance(f, CondCorner):
        return f.left, f.right
    return None


def _check_replacement(step: ProofStep, premise: Formula, rule: str, dialect: str) -> Optional[str]:
    """Validate an rcea/rcec application; returns an error or None."""
    prem = _match_iff(premise)
    if prem is None:
        return f"{rule} premise is not a biconditional"
    concl = _match_iff(step.formula)
    if concl is None:
        return f"{rule} conclusion is not a biconditional"
    left = _conditional_parts(concl[0])
    right = _conditional_parts(concl[1])
    if left is None or right is None or type(concl[0]) is not type(concl[1]):
        return f"{rule} conclusion must relate two conditionals"
    a, b = prem
    if rule == "rcea":
        shape_ok = left[0] == a and right[0] == b and left[1] == right[1]
    else:
        shape_ok = left[1] == a and right[1] == b and left[0] == right[0]
    if not shape_ok:
        return f"{rule} conclusion does not replace the equivalent parts"
    if dialect == "conwon":
        # the rules restrict every displayed formula to the propositional base
        parts = (a, b, left[1]) if rule == "rcea" else (a, b, left[0])
        for g in parts:
            if g.depth:
                return f"{rule} requires propositional arguments, got {render(g)!r}"
    return None


def check_proof(steps: Sequence[ProofStep], system: str) -> Verdict:
    if system not in SYSTEMS:
        return Verdict(False, system, [f"unknown system {system!r}"])
    spec = SYSTEMS[system]
    axioms = {s.identifier: s for s in spec["axioms"]}
    verdict = Verdict(True, system)

    def fail(i: int, msg: str) -> None:
        verdict.ok = False
        verdict.errors.append(f"step {i + 1}: {msg}")

    for i, step in enumerate(steps):
        if spec["flat_only"] and step.formula.depth > 1:
            fail(i, "formula is not flat")
            continue
        by = step.by
        if "axiom" in by:
            name = by["axiom"]
            if name not in axioms:
                fail(i, f"axiom {name!r} is not part of system {system!r}")
                continue
            schema = axioms[name]
            if "subst" in by:
                subst = by["subst"]
                try:
                    if instantiate(schema, subst) != step.formula:
                        fail(i, f"substitution does not yield the step formula for {name}")
                        continue
                except ProofError as exc:
                    fail(i, str(exc))
                    continue
                bad = [
                    v for v, cond in schema.conditions.items()
                    if v in subst and not _meets(subst[v], cond)
                ]
                if bad:
                    fail(i, f"{name}: side condition violated for {', '.join(sorted(bad))}")
                    continue
            elif match_schema(schema, step.formula) is None:
                fail(i, f"formula is not an instance of {name}")
                continue
        elif "rule" in by:
            rule = by["rule"]
            refs = by.get("from", [])
            if rule not in RULES:
                fail(i, f"unknown rule {rule!r}")
                continue
            if any(type(r) is not int or not 1 <= r <= i for r in refs):
                fail(i, "rule premises must reference earlier steps (1-based)")
                continue
            premises = [steps[r - 1].formula for r in refs]
            if rule == "taut":
                if not tautological_consequence(premises, step.formula):
                    fail(i, "not a tautological consequence of the cited steps")
            elif rule == "mp":
                if len(premises) != 2:
                    fail(i, "modus ponens needs exactly two premises")
                    continue
                minor, major = premises
                parts = _match_implies(major)
                if parts is None or parts[0] != minor or parts[1] != step.formula:
                    fail(i, "premises do not fit modus ponens")
            else:
                if len(premises) != 1:
                    fail(i, f"{rule} needs exactly one premise")
                    continue
                err = _check_replacement(step, premises[0], rule, spec["dialect"])
                if err is not None:
                    fail(i, err)
        else:
            fail(i, "justification needs 'axiom' or 'rule'")
    return verdict


# ---------------------------------------------------------------------------
# Proof files
# ---------------------------------------------------------------------------


def load_proof(source) -> Tuple[str, List[ProofStep]]:
    data = read_json(source, ProofError) if isinstance(source, (str, Path)) else source
    if not isinstance(data, dict) or "steps" not in data:
        raise ProofError("proof file needs 'system' and 'steps'")
    system = data.get("system")
    if system not in SYSTEMS:
        raise ProofError(f"unknown system {system!r}")
    dialect = SYSTEMS[system]["dialect"]
    if not isinstance(data["steps"], list):
        raise ProofError("'steps' must be a list")
    steps = []
    for i, raw in enumerate(data["steps"]):
        if not isinstance(raw, dict) or "formula" not in raw or "by" not in raw:
            raise ProofError(f"step {i + 1}: needs 'formula' and 'by'")
        if not isinstance(raw["formula"], str):
            raise ProofError(f"step {i + 1}: 'formula' must be a string")
        try:
            formula = parse_formula(raw["formula"], dialect=dialect)
        except ParseError as exc:
            raise ProofError(f"step {i + 1}: {exc}") from exc
        if not isinstance(raw["by"], dict):
            raise ProofError(f"step {i + 1}: 'by' must be an object")
        by = dict(raw["by"])
        if not all(isinstance(by.get(key, ""), str) for key in ("axiom", "rule")):
            raise ProofError(f"step {i + 1}: 'axiom' and 'rule' must be names")
        refs = by.get("from", [])
        if not isinstance(refs, list) or any(type(r) is not int for r in refs):
            raise ProofError(f"step {i + 1}: 'from' must be a list of step numbers")
        if "subst" in by:
            subst = by["subst"]
            if not isinstance(subst, dict) or not all(isinstance(t, str) for t in subst.values()):
                raise ProofError(f"step {i + 1}: 'subst' must map metavariables to formulas")
            schema = SCHEMAS.get(by.get("axiom"))
            unknown = sorted(set(subst) - atoms(schema.template)) if schema else []
            if unknown:
                raise ProofError(f"step {i + 1}: {', '.join(unknown)} not a metavariable of {schema.identifier}")
            by["subst"] = {var: parse_formula(text, dialect=dialect) for var, text in subst.items()}
        steps.append(ProofStep(formula, by))
    return system, steps


# ---------------------------------------------------------------------------
# Soundness sweep
# ---------------------------------------------------------------------------


_PROP_POOL = ("p", "q", "~p", "p & q", "p | q")
_WIDE_POOL = _PROP_POOL + ("[p]q",)
_CLOSED_POOL = ("[p]q", "~[p]q", "E p")


class SweepReport(Record):
    __slots__ = ("system", "instances", "failures")  # instances: the searches run

    def __init__(self, system: str, instances: int = 0, failures: Optional[List[str]] = None):
        self._assign(system, instances, [] if failures is None else failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def instance_pool(schema: Schema, dialect: str) -> List[Dict[str, Formula]]:
    """The substitutions of ``schema`` over small formula pools, each metavariable's pool fitting its condition."""
    pools = {
        PROP: [parse_formula(t, dialect=dialect) for t in _PROP_POOL],
        CLOSED: [parse_formula(t, dialect="conwon") for t in _CLOSED_POOL],
        None: [parse_formula(t, dialect=dialect) for t in (_WIDE_POOL if dialect == "conwon" else _PROP_POOL)],
    }
    variables = tuple(sorted(atoms(schema.template)))
    return [dict(zip(variables, combo))
            for combo in itertools.product(*(pools[schema.conditions.get(v)] for v in variables))]


def generic_substitution(schema: Schema) -> Optional[Dict[str, Formula]]:
    """x_v for each metavariable v, ``E c_v`` where v must be closed; ``None`` if one fails the occurrence condition.

    The condition: v is propositional, or all its occurrences sit under the
    same sequence of box antecedents.
    """
    paths: Dict[str, set] = {}  # metavariable -> the antecedent sequences above its occurrences
    seen, stack = set(), [(schema.template, ())]
    while stack:
        t, path = stack.pop()
        if (t, path) not in seen:
            seen.add((t, path))
            if type(t) is Atom:
                paths.setdefault(t.name, set()).add(path)
            elif type(t) is CondBox:
                stack += (t.antecedent, path), (t.consequent, path + (t.antecedent,))
            else:
                stack += ((child, path) for child in t.children())
    if any(len(found) > 1 and schema.conditions.get(v) != PROP for v, found in paths.items()):
        return None
    return {v: SomeWorld(Atom(f"c_{v}")) if schema.conditions.get(v) == CLOSED else Atom(f"x_{v}")
            for v in paths}


def sweep_substitutions(system: str) -> Iterator[Tuple[Schema, List[Dict[str, Formula]]]]:
    """Each axiom schema of ``system`` with the substitutions its soundness sweep tries.

    The generic one where every metavariable meets the occurrence
    condition, else every substitution of :func:`instance_pool`.
    """
    for schema in SYSTEMS[system]["axioms"]:
        generic = generic_substitution(schema)
        yield schema, [generic] if generic is not None else instance_pool(schema, SYSTEMS[system]["dialect"])


def soundness_sweep(system: str, bounds) -> SweepReport:
    """Search for countermodels to each axiom schema of ``system``; failures falsify soundness.

    One search per substitution of :func:`sweep_substitutions`: for every
    real schema that is one search, on the generic instance.  Each witness
    is re-checked by an independent evaluator, ``semantics.evaluate`` or
    ``lewis.eval_v``, before it is reported.

    Lemma (uniform substitution; Blackburn, de Rijke & Venema, *Modal
    Logic*, 2001, 1.6).  Let every metavariable of the template t be
    propositional or have all its occurrences under one sequence P_v of box
    antecedents.  If an instance s(t) is false at (M, X, w), the generic
    instance g(t), x_v for v and ``E c_v`` for a closed v, is false at
    (M', X, w), where M' has M's worlds and values x_v, c_v at s(v)'s
    extension in M at the context X_v that P_v leads to (any context, v
    propositional).  For c_v that extension is all worlds or none, as s(v)
    is closed, and ``E c_v`` holds everywhere iff c_v is nonempty, so it
    has that same extension.  Induction on template paths: a subterm u at
    antecedent path P is evaluated in both at the context X updated by
    P's antecedents, which by induction have equal extensions, so the
    contexts are equal; atoms agree by the choice of M', and ``~``, ``&``
    and a box then agree at equal contexts.  ``|>`` does not update the
    chain, so every metavariable of a V schema meets the condition.  g(t)
    is itself an instance: x_v is propositional and ``E c_v`` closed.  So
    "g(t) valid up to bounds B" means every instance is, not just a
    pool's, and a countermodel to g(t) refutes the schema.  A closed v
    needs a closed stand-in: with an atom y for chi, 2b's
    ``[a](x | y) <-> ([a]x | [a]y)`` is falsified where y splits a's
    expected worlds, though no instance of 2b is.  A schema that fails the
    condition, such as ``chi -> [alpha]chi``, has its pool's instances
    searched one at a time.
    """
    from .semantics import CompiledFormula, SearchBounds, falsified, recheck_countermodel, search_points
    from .lewis import v_witness

    dialect = SYSTEMS[system]["dialect"]
    bounds = SearchBounds(bounds.max_worlds, bounds.max_worlds, bounds.max_enumeration) if dialect == "v" else bounds
    report = SweepReport(system)
    for schema, substs in sweep_substitutions(system):
        for subst in substs:
            instance = instantiate(schema, subst)
            compiled = CompiledFormula(instance)
            witness = search_points(compiled, (compiled.root,), bounds, falsified)
            report.instances += 1
            if witness is None:
                continue
            if dialect == "conwon":
                recheck_countermodel(instance, witness)
                report.failures.append(f"{schema.identifier}: falsified by {witness.to_json()}")
            else:
                m, w = v_witness(Not(instance), witness)
                report.failures.append(f"{schema.identifier}: false at {w} of {m.to_json()}")
    return report

"""Flattening of nested conditionals down to the flat fragment.

:func:`sigma` is one bottom-up pass: atoms and falsum stay, ``~`` and
``&`` map over their children, and ``[a]phi`` first flattens ``phi`` to a
body B of modal depth <= 1, then removes the nesting in ``[a]B`` with the
rewrites below.  :func:`rewrite_step` applies one of axioms 2a-2d on its
own, as the schemas of ``proofs.CONWON_AXIOMS`` write them.

Proof sketches.  ``[a]f`` holds at (M, X, w) iff f holds at (M, a.X, u)
for every expected state u of a.X; the expected set of a context is its
last nonempty running intersection.  A closed formula (conditionals under
``~`` and ``&``) has one truth value at all worlds of a point's context.

* Propositional B: ``[a]B`` is already flat and stays.
* 2a, ``[a](f & g) <-> [a]f & [a]g``: both sides quantify over the same
  expected set.
* 2b, ``[a](P | K) <-> [a]P | [a]K`` for closed K: K has one value at
  a.X; if true both sides hold, if false both reduce to ``[a]P``.
  The axiom's K is the right disjunct, so :func:`rewrite_step` refuses
  ``[a](K | P)`` where P is not closed.
* Closed body, ``[a]K <-> (E a -> K[C := [a]C])`` for closed K, C ranging
  over K's top conditionals.  a.X begins with the default |a|, so its
  expected set is empty iff a holds nowhere, i.e. iff ``~E a``; then both
  sides hold vacuously.  Under ``E a`` the expected set is nonempty and K
  has one value on it, so ``[a]K`` is K at a.X; that is K's boolean
  skeleton over the values of its conditionals C at a.X, and by the same
  argument each equals ``[a]C`` at X.
* 2c, ``[a][b]g <-> E a -> ((E(a&b) & [a&b]g) | (~E(a&b) & A(b -> g)))``
  for propositional g: by the closed-body case ``[a][b]g`` under ``E a``
  is ``[b]g`` at a.X, whose update b.a.X has running intersections |b|,
  |a&b|, |a&b| & X1, ....  If a&b holds somewhere these continue as the
  running intersections of (a&b).X, so the expected set is that of
  ``[a&b]g``; otherwise they stop at |b| and ``[b]g`` says ``A(b -> g)``.
  Inside a closed body, each ``[a]C`` is replaced by this guarded body,
  since the closed-body rewrite already supplies the guard ``E a``.
  :func:`sigma` writes the body as ``[a&b]g & ([a&b]false -> A(b -> g))``:
  (1) where a&b holds nowhere the expected set of (a&b).X is empty, so
  ``[a&b]g`` holds vacuously and the body is ``[a&b]g & (E(a&b) | A(b -> g))``;
  (2) ``~E x`` is ``[x]false`` once ``~~`` cancels; (3) ``A(b -> g)`` is
  ``[b & ~g]false``.
* Context-free conditional, ``[b]g`` with g ``false`` under n ``~``: the
  update b.X begins with |b|, so its expected set is empty iff b holds
  nowhere, at every context X.  For even n g is false and ``[b]g`` holds
  iff b holds nowhere; for odd n g is true and ``[b]g`` holds everywhere.
  Either way its value at a.X is its value at X, so inside a closed body
  ``[a]C`` is C itself under ``E a``, and :func:`sigma` keeps it as it is
  (2c's body, with g constant, equals it at every point).  This covers the
  ``[x]false`` of 2c's own body and of ``E``/``A``, which would otherwise be
  lifted again at each level above, about 3.3x the printed size per level.
* 2d, the dual of 2c for ``[a]<b>g``, that is ``[a]~[b]~g``, is used by
  :func:`rewrite_step` only; :func:`sigma` meets duals as negated
  conditionals of a closed body.  ``[a]~[b]h`` with h not a negation is
  no instance of it, so :func:`rewrite_step` refuses it.

Any other body is a boolean mix of propositional and closed parts.  It
is grouped into clauses P | K (P propositional, K closed, either absent),
distributing only where a disjunction has a mixed side, and each clause
is rewritten by 2b and the closed-body case.

:func:`sigma` builds these shapes, 2c in the form above, with a negation
that cancels ``~~x`` to x (:func:`rewrite_step` returns the axioms'
right sides exactly).  Both hold at the same points, in bodies as in
antecedents, so each output is its shape up to ``~~``.  An or,
``~(~a & ~b)`` less its cancelled pairs, still prints at least a's and b's
nodes, so a clause's recorded size stays a lower bound.  A ``~`` whose child
comes back unchanged is kept, so :func:`sigma` is the identity on flat input.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import InputError
from .formula import FALSUM, And, CondBox, Formula, Not

MAX_SIGMA_NODES = 1_000_000
"""Cap on the tree size of any formula :func:`sigma` builds: the number of
nodes ``render`` would print.  Going over it raises :class:`RewriteError`."""


class RewriteError(InputError):
    pass


def _neg(f: Formula) -> Formula:
    """``~f``, or ``f.child`` when ``f`` is a negation: the default ``neg`` of the sugar below."""
    return f.child if type(f) is Not else Not(f)


def _or(a: Formula, b: Formula) -> Formula:
    return _neg(And(_neg(a), _neg(b)))


def _implies(a: Formula, b: Formula) -> Formula:
    return _neg(And(a, _neg(b)))


def _some(alpha: Formula) -> Formula:
    return _neg(CondBox(alpha, FALSUM))


def rewrite_step(f: Formula) -> Formula:
    """Rewrite ``[a] body`` by the first of axioms 2a, 2b, 2c, 2d whose left side it instantiates.

    Each axiom ``L <-> R`` of ``proofs.CONWON_AXIOMS`` is split at its
    ``<->``; ``f`` is matched against L under the axiom's side conditions,
    and R under that substitution is returned.  So ``f <-> rewrite_step(f)``
    is an instance of that axiom, and a one-step proof citing it.
    """
    from .proofs import IFF, SCHEMAS, instantiate, match_template

    if not isinstance(f, CondBox):
        raise RewriteError("rewrite_step expects a conditional")
    if f.consequent.depth > 1:
        raise RewriteError("conditional body must have modal depth at most 1")
    for schema in map(SCHEMAS.get, ("conwon.2a", "conwon.2b", "conwon.2c", "conwon.2d")):
        binding = match_template(match_template(IFF, schema.template)["a"], f, schema.conditions)
        if binding is not None:
            return match_template(IFF, instantiate(schema, binding))["b"]
    raise RewriteError("no applicable rewrite")


# ---------------------------------------------------------------------------
# The full translation
# ---------------------------------------------------------------------------

# Kinds of a formula of modal depth <= 1.
_PROP, _CLOSED, _MIXED = "prop", "closed", "mixed"

# A clause P | K: P propositional, K closed, either absent, and a lower
# bound on the nodes the clause adds to the output.
_Clause = Tuple[Optional[Formula], Optional[Formula], int]


def _over_cap() -> RewriteError:
    return RewriteError(f"sigma output exceeds the cap of {MAX_SIGMA_NODES} nodes")


def _capped(f: Formula) -> Formula:
    """``f``, a node :func:`sigma` built, unless it prints more than the cap."""
    if f.size > MAX_SIGMA_NODES:
        raise _over_cap()
    return f


def _kind(body: Formula) -> str:
    """Kind of a depth-<=1 body; case by case the recursive kind: atom, falsum prop (depth 0),
    conditional closed, ``~b`` as b, ``l & r`` the kind shared by l and r (both depth 0, both
    closed), else mixed."""
    return _PROP if not body.depth else _CLOSED if body.closed else _MIXED


def _context_free(g: Formula) -> bool:
    """Whether ``g`` is ``false`` under some number of ``~``, so that ``[b]g`` reads no context."""
    while type(g) is Not:
        g = g.child
    return g is FALSUM


def _or_opt(a: Optional[Formula], b: Optional[Formula]) -> Optional[Formula]:
    if a is None:
        return b
    return a if b is None else _or(a, b)


class _Flattener:
    """One :func:`sigma` call.

    Formula nodes are interned, so the memos key on the nodes themselves
    and every output is shared wherever it recurs.  Each node built is
    checked against :data:`MAX_SIGMA_NODES` by the size it records.
    """

    def __init__(self) -> None:
        self.flat_memo: Dict[Formula, Formula] = {}
        self.lift_memo: Dict[Tuple[Formula, Formula], Formula] = {}

    def flat(self, f: Formula) -> Formula:
        memo = self.flat_memo
        stack = [f]  # a ~ or & waits under a None until its children are done: no recursion through them
        while stack:
            g = stack.pop()
            if g is None:  # the next one's children are done
                g = stack.pop()
                if type(g) is Not:
                    c = memo[g.child]
                    memo[g] = g if c is g.child else _capped(_neg(c))
                else:
                    memo[g] = _capped(And(memo[g.left], memo[g.right]))
            elif not g.depth or g in memo:  # done, or propositional and so its own flat form
                memo.setdefault(g, g)
            elif type(g) is Not or type(g) is And:
                stack += (g, None, g.child) if type(g) is Not else (g, None, g.right, g.left)
            elif type(g) is CondBox:
                memo[g] = self.box(g.antecedent, self.flat(g.consequent))
            else:
                raise RewriteError("sigma applies to conwon-dialect formulas")
        return memo[f]

    def box(self, alpha: Formula, body: Formula) -> Formula:
        """Flat equivalent of ``[alpha] body`` for a depth-<=1 body."""
        kind = _kind(body)
        if kind == _PROP:
            return _capped(CondBox(alpha, body))
        if isinstance(body, And):
            return _capped(And(self.box(alpha, body.left), self.box(alpha, body.right)))
        if kind == _CLOSED:
            return _capped(_implies(_some(alpha), self.lift(alpha, body)))
        conjuncts = []
        for p, k, _ in self.clauses(body, True):
            prop = None if p is None else CondBox(alpha, p)
            closed = None if k is None else _implies(_some(alpha), self.lift(alpha, _capped(k)))
            conjuncts.append(_capped(_or_opt(prop, closed)))
        out = conjuncts[0]
        for c in conjuncts[1:]:
            out = _capped(And(out, c))
        return out

    def lift(self, alpha: Formula, k: Formula) -> Formula:
        """``k[C := [alpha]C]`` for closed k, each ``[alpha]C`` as its lifted 2c body under ``E alpha``,
        or as C where C reads no context."""
        key = (alpha, k)
        out = self.lift_memo.get(key)
        if out is None:
            if isinstance(k, Not):
                out = _neg(self.lift(alpha, k.child))
            elif isinstance(k, And):
                out = And(self.lift(alpha, k.left), self.lift(alpha, k.right))
            elif _context_free(k.consequent):  # [b]false holds where b holds nowhere, [b]~false everywhere
                out = k
            else:  # a conditional with a propositional consequent: [a&b]g & ([a&b]false -> A(b->g))
                beta, gamma = k.antecedent, k.consequent
                ab, b_not_g = And(alpha, beta), And(beta, _neg(gamma))
                out = And(CondBox(ab, gamma), _implies(CondBox(ab, FALSUM), CondBox(b_not_g, FALSUM)))
            out = self.lift_memo[key] = _capped(out)
        return out

    def clauses(self, b: Formula, positive: bool) -> List[_Clause]:
        """``b`` (or ``~b`` if not positive) as a conjunction of clauses P | K."""
        if isinstance(b, Not):
            return self.clauses(b.child, not positive)
        kind = _kind(b)
        if kind != _MIXED:
            literal = b if positive else Not(b)
            n = b.size + (not positive)
            return [(literal, None, n)] if kind == _PROP else [(None, literal, n)]
        left, right = self.clauses(b.left, positive), self.clauses(b.right, positive)
        if positive:
            return left + right
        # ~(l & r) = ~l | ~r: every pair of clauses becomes one clause
        product = len(right) * sum(c[2] for c in left) + len(left) * sum(c[2] for c in right)
        if product > MAX_SIGMA_NODES:
            raise _over_cap()
        return [(_or_opt(p, q), _or_opt(k, m), s + t) for p, k, s in left for q, m, t in right]


def sigma(f: Formula) -> Formula:
    """Flat formula equivalent to ``f``; identity on flat input.

    Raises :class:`RewriteError` on the v dialect, or when a formula
    built on the way has more than :data:`MAX_SIGMA_NODES` nodes.
    """
    return _Flattener().flat(f)

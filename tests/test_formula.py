import copy
import gc
import pickle
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conwon import formula
from conwon.formula import (
    And,
    Atom,
    CondBox,
    CondCorner,
    DialectError,
    FALSUM,
    Falsum,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    TRUE,
    atoms,
    classify,
    dialect_of,
    is_closed,
    is_flat,
    is_propositional,
    modal_depth,
    parse_formula,
    render,
    translate_flat,
)
from conftest import random_formula, reference_parse, reference_render

p, q, r = Atom("p"), Atom("q"), Atom("r")


# --- desugaring -----------------------------------------------------------


def test_sugar_expansion():
    assert parse_formula("true") == Not(FALSUM)
    assert parse_formula("p | q") == Not(And(Not(p), Not(q)))
    assert parse_formula("p -> q") == Not(And(p, Not(q)))
    assert parse_formula("p <-> q") == And(Implies(p, q), Implies(q, p))
    assert parse_formula("<p> q") == Not(CondBox(p, Not(q)))
    assert parse_formula("box p") == CondBox(TRUE, p)
    assert parse_formula("dia p") == Not(CondBox(TRUE, Not(p)))
    assert parse_formula("E p") == Not(CondBox(p, Not(TRUE)))
    assert parse_formula("A p") == Not(parse_formula("E ~p"))
    assert parse_formula("⊥") == FALSUM


def test_v_dialect_sugar():
    assert parse_formula("p |> q", dialect="v") == CondCorner(p, q)
    assert parse_formula("A p", dialect="v") == CondCorner(Not(p), FALSUM)
    assert parse_formula("E p", dialect="v") == Not(CondCorner(Not(Not(p)), FALSUM))


def test_desugared_output_reparses_to_itself():
    # desugaring is stable: parsing the rendered core text changes nothing
    for text in ["p -> (q <-> r)", "E p & A (q | r)", "[p](dia q -> box r)"]:
        f = parse_formula(text)
        assert parse_formula(render(f)) == f


# --- precedence and associativity -----------------------------------------


def test_precedence():
    assert parse_formula("p & q | r") == Or(And(p, q), r)
    assert parse_formula("p | q -> r") == Implies(Or(p, q), r)
    assert parse_formula("~p & q") == And(Not(p), q)
    assert parse_formula("p -> q -> r") == Implies(p, Implies(q, r))
    assert parse_formula("p & q & r") == And(And(p, q), r)


def test_corner_precedence():
    f = parse_formula("~(p & q |> r)", dialect="v")
    assert f == Not(CondCorner(And(p, q), r))
    g = parse_formula("p |> q -> r", dialect="v")
    assert g == Implies(CondCorner(p, q), r)


def test_iff_non_associative():
    with pytest.raises(ParseError):
        parse_formula("p <-> q <-> r")


def test_corner_non_associative():
    with pytest.raises(ParseError):
        parse_formula("p |> q |> r", dialect="v")


# --- dialect restrictions -------------------------------------------------


def test_dialect_errors():
    with pytest.raises(DialectError):
        parse_formula("[p]q", dialect="v")
    with pytest.raises(DialectError):
        parse_formula("p |> q", dialect="conwon")
    with pytest.raises(DialectError):
        parse_formula("[[p]q]r")  # nested conditional as antecedent
    with pytest.raises(DialectError):
        parse_formula("E [p]q")  # E takes a propositional argument
    # in dialect v the modal defs place no restriction on the argument
    assert parse_formula("E (p |> q)", dialect="v") is not None


def test_parse_error_positions():
    cases = ["p &", "p & (", "(p | q", "p q", "[p q", "@", "p <-> q <-> r"]
    for text in cases:
        with pytest.raises(ParseError) as exc:
            parse_formula(text)
        assert exc.value.position <= len(text)
        assert "position" in str(exc.value)


# --- classification -------------------------------------------------------


def _depth_reference(f):
    # independent straightforward recursion over the node kinds
    if isinstance(f, (Atom, Falsum)):
        return 0
    if isinstance(f, Not):
        return _depth_reference(f.child)
    if isinstance(f, And):
        return max(_depth_reference(f.left), _depth_reference(f.right))
    if isinstance(f, CondBox):
        return 1 + max(_depth_reference(f.antecedent), _depth_reference(f.consequent))
    return 1 + max(_depth_reference(f.left), _depth_reference(f.right))


def _closed_reference(f):
    if isinstance(f, (CondBox, CondCorner)):
        return True
    if isinstance(f, Not):
        return _closed_reference(f.child)
    if isinstance(f, And):
        return _closed_reference(f.left) and _closed_reference(f.right)
    return False


def _size_reference(f):
    # the nodes render prints, counted on the tree
    if isinstance(f, (Atom, Falsum)):
        return 1
    if isinstance(f, Not):
        return 1 + _size_reference(f.child)
    if isinstance(f, CondBox):
        return 1 + _size_reference(f.antecedent) + _size_reference(f.consequent)
    return 1 + _size_reference(f.left) + _size_reference(f.right)


def test_classify_against_reference():
    rng = random.Random(11)
    for _ in range(400):
        f = random_formula(rng, ("p", "q", "r"), modal_budget=3, size=4)
        info = classify(f)
        assert info.modal_depth == _depth_reference(f)
        assert info.is_propositional == (info.modal_depth == 0)
        assert info.is_flat == (info.modal_depth <= 1)
        assert info.is_closed == _closed_reference(f)
        assert f.size == _size_reference(f)


def test_closed_examples():
    assert is_closed(parse_formula("[p]q & ~[q]r"))
    assert not is_closed(parse_formula("p & [q]r"))
    assert not is_closed(parse_formula("p"))


def test_atoms():
    assert atoms(parse_formula("[p](q -> r) & s")) == frozenset("pqrs")


# --- round trips ----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.sampled_from(["conwon", "v"]))
def test_render_parse_round_trip(seed, dialect):
    rng = random.Random(seed)
    f = random_formula(rng, ("p", "q", "r"), modal_budget=3, size=4, dialect=dialect)
    assert parse_formula(render(f), dialect=dialect) == f


def test_and_rendering_keeps_association():
    assert render(And(And(p, q), r)) == "p & q & r"
    assert render(And(p, And(q, r))) == "p & (q & r)"


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.sampled_from(["conwon", "v"]))
def test_render_matches_reference(seed, dialect):
    rng = random.Random(seed)
    f = random_formula(rng, ("p", "q", "r"), modal_budget=3, size=5, dialect=dialect)
    f = And(Not(f), CondCorner(f, f) if dialect == "v" else CondBox(p, f))
    assert render(f) == reference_render(f)


# --- the parser against the recursive-descent reference --------------------


def _outcome(parse, text, dialect):
    """The parsed node, or the exception's class, message and position."""
    try:
        return parse(text, dialect)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def _assert_same_outcome(text):
    for dialect in ("conwon", "v"):
        got, want = _outcome(parse_formula, text, dialect), _outcome(reference_parse, text, dialect)
        assert got is want if isinstance(want, Formula) else got == want, (text, dialect)


# The lowercase code points that regex \w does not match: they start identifiers too.
LOWER_OUTSIDE_W = ["\u0345"] + [chr(c) for c in range(0x24D0, 0x24EA)]
TRAPS = ["Ep", "pE", "EAp", "Etrue", "E_", "<-p", "⊥", "\u00a0", "9", "_a", "B"]
SOUP = (["p", "q", "x_1", "true", "false", "box", "dia", "E", "A", "Ebox", "AE", "-", "@", "ß", "p\u0345"]
        + ["~", "&", "|", "|>", "->", "<->", "(", ")", "[", "]", "<", ">", "<-"]
        + TRAPS + LOWER_OUTSIDE_W)


@pytest.mark.parametrize("text", TRAPS + LOWER_OUTSIDE_W + [
    "", " ", "E", "EA", "E p", "p E", "EE[p]q", "A[p]q", "Edia p", "Ebox p", "p q @", "(p]", "[p",
    "p <-> q <-> r", "p -> q |> r |> s", "p |> q", "[[p]q]r", "<p>q", "~(p & q |> r)", "ⓐb & ⓩ"])
def test_parser_matches_reference_on_traps(text):
    _assert_same_outcome(text)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(SOUP), max_size=12), st.sampled_from(["", " ", "\u00a0"]))
def test_parser_matches_reference_on_token_soups(tokens, separator):
    _assert_same_outcome(separator.join(tokens))


def _sugared(children):
    """Sugared formula text built from smaller formula texts."""
    prefix = st.sampled_from(["~", "E ", "A", "box ", "dia ", "~~"])
    infix = st.sampled_from([" & ", " | ", " -> ", " <-> ", " |> ", "&", "->"])
    return st.one_of(
        st.tuples(prefix, children).map("".join),
        st.tuples(children, infix, children).map("".join),
        st.tuples(children, infix, children).map(lambda t: f"({''.join(t)})"),
        st.tuples(children, children).map(lambda t: f"[{t[0]}] {t[1]}"),
        st.tuples(children, children).map(lambda t: f"<{t[0]}>{t[1]}"),
    )


SUGARED = st.recursive(st.sampled_from(["p", "q", "r1", "true", "false", "⊥", "ⓐ"]), _sugared, max_leaves=12)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(SUGARED, st.integers(min_value=0, max_value=80), st.sampled_from(["", "", "(", ")", "]", "|>", "E", "9", " ~"]))
def test_parser_matches_reference_on_sugared_formulas(text, cut, insert):
    _assert_same_outcome(text)
    _assert_same_outcome(text[:cut] + insert + text[cut + 1:])  # one character replaced or deleted


def test_character_classes_over_all_code_points():
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    space = "".join(c for c in chars if c.isspace())
    lower = [c for c in chars if c.islower()]
    # whitespace: exactly the isspace() characters separate tokens and are dropped
    assert formula._TOKEN.sub("", chars) == space
    assert parse_formula(f"{space}p{space}&{space}q{space}") is And(p, q)
    # identifier start: each lowercase character is an atom on its own; every other
    # character but space, the operators, E, A and ⊥ is rejected
    assert atoms(parse_formula(" & ".join(lower))) == set(lower)
    spaced = " ".join(chars)
    accepted = set(chars).difference(map(spaced.__getitem__, formula._unreadable(spaced)))
    assert accepted == set(lower).union(space, "~&|[]<>()EA⊥")
    # identifier continuation: exactly isalnum() or "_"
    continuing = {c for c in chars if c.isalnum() or c == "_"}
    words = formula._TOKEN.findall("a" + "a".join(chars))
    assert set("".join(word[1:] for word in words)) == continuing
    name = "a" + "".join(sorted(continuing))
    assert parse_formula(name) is Atom(name)


# --- nesting bounded by memory only ------------------------------------------


def test_deep_nesting_parses_and_renders():
    deep = ["~" * 5_000 + "p", "(" * 3_000 + "p" + ")" * 3_000, "[p]" * 2_000 + "q",
            " & ".join(["p"] * 20_000), "p -> " * 3_000 + "q", "(p |> " * 2_000 + "q" + ")" * 2_000]
    for text in deep:
        dialect = "v" if "|>" in text else "conwon"
        f = parse_formula(text, dialect)
        assert parse_formula(render(f), dialect) is f
    assert render(parse_formula("~" * 5_000 + "p")) == "~" * 5_000 + "p"
    assert modal_depth(parse_formula("[p]" * 2_000 + "q")) == 2_000


# --- flat translation -----------------------------------------------------


def test_translate_flat_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        f = random_formula(rng, ("p", "q"), modal_budget=1, size=3)
        if modal_depth(f) > 1:
            continue
        g = translate_flat(f, "v")
        assert dialect_of(g) in ("v", "conwon")
        assert translate_flat(g, "conwon") == f


def test_translate_flat_on_a_long_formula():
    f = parse_formula(" & ".join(["[p]q", "~[q](p | r)", "s"] * 1_700))
    g = translate_flat(f, "v")
    assert dialect_of(g) == "v" and g.size == f.size
    assert translate_flat(g, "conwon") is f
    assert translate_flat(f, "conwon") is f and translate_flat(g, "v") is g


def test_translate_flat_rejects_deep_input():
    with pytest.raises(ValueError):
        translate_flat(parse_formula("[p][q]r"), "v")


def test_dialect_of():
    assert dialect_of(parse_formula("[p]q")) == "conwon"
    assert dialect_of(parse_formula("p |> q", dialect="v")) == "v"
    assert dialect_of(parse_formula("p & q")) == "conwon"
    with pytest.raises(ValueError):
        dialect_of(And(CondBox(p, q), CondCorner(p, q)))


def _leaves_and_kinds(f, memo):
    """Reference for ``atoms`` and ``dialect_of``: atom names and node classes, memoised recursion."""
    if f not in memo:
        parts = [_leaves_and_kinds(child, memo) for child in f.children()]
        names = frozenset([f.name]) if isinstance(f, Atom) else frozenset()
        memo[f] = (names.union(*(n for n, _ in parts)),
                   frozenset([type(f)]).union(*(k for _, k in parts)))
    return memo[f]


def test_atoms_and_dialect_on_a_shared_dag():
    # sigma's output shares subformulas: about 14.6k printed nodes on about 940 DAG nodes
    from conwon.reduction import sigma

    flat = sigma(parse_formula("[p][q][r][s][t][u][v]w"))
    names, kinds = _leaves_and_kinds(flat, {})
    assert atoms(flat) == names == frozenset("pqrstuvw")
    assert CondBox in kinds and CondCorner not in kinds and dialect_of(flat) == "conwon"
    translated = translate_flat(flat, "v")
    assert _leaves_and_kinds(translated, {})[1] >= {CondCorner} and dialect_of(translated) == "v"


def test_atoms_and_dialect_on_deep_input():
    f = CondCorner(p, q)
    for i in range(10_000):
        f = And(Atom(f"x{i}"), f)
    assert len(atoms(f)) == 10_002
    assert dialect_of(f) == "v"
    with pytest.raises(ValueError):
        dialect_of(And(f, CondBox(p, q)))


# --- interning -------------------------------------------------------------


def test_equal_formulas_are_identical():
    for text in ["[p](q -> E r) & ~[q]p", "p <-> q", "false", "A (p | q)"]:
        assert parse_formula(text) is parse_formula(text)
    built = And(CondBox(p, Not(And(q, Not(r)))), Not(CondBox(q, p)))
    assert parse_formula("[p](q -> r) & ~[q]p") is built
    assert CondCorner(p, q) is parse_formula("p |> q", dialect="v")


def test_nodes_are_immutable():
    f = parse_formula("[p]q & r")
    for name in ("left", "depth", "size", "extra"):
        with pytest.raises(AttributeError):
            setattr(f, name, p)
    with pytest.raises(AttributeError):
        del f.left
    assert f.left is CondBox(p, q)


def test_copies_are_the_node_itself():
    f = parse_formula("[p](q | [q]r) -> E p")
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f


def test_intern_table_drops_dead_nodes():
    gc.collect()
    before = len(formula._INTERNED)
    nodes = [And(Atom(f"x{i}"), Not(Atom(f"y{i}"))) for i in range(10_000)]
    assert len(formula._INTERNED) >= before + 10_000
    del nodes
    gc.collect()
    assert len(formula._INTERNED) == before


def test_deep_formula_hash_eq_classify():
    f = parse_formula(" & ".join(["p"] * 10_000))
    assert hash(f) == hash(f) and f == f and f is not f.left
    assert classify(f) == (True, False, True, 0)
    assert f.size == 19_999
    g = parse_formula(" & ".join(["[p]q"] * 10_000))
    assert classify(g) == (False, True, True, 1)
    assert is_closed(g) and modal_depth(g) == 1

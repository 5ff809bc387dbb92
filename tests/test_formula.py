import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from deepflow import formula
from deepflow.formula import (
    AND,
    LIT,
    Formula,
    OR,
    FormulaSyntaxError,
    UndefinedVariableError,
    bot,
    canonicalize,
    canonical_occurrence_map,
    conj,
    disj,
    dual,
    eq_mod,
    evaluate,
    fparse,
    fprint,
    is_tautology,
    lit,
    mirror_dual,
    mirror_dualizer,
    n_occurrences,
    neg,
    replace_occurrences,
    top,
    variables,
)
from reference_fparse import reference_fparse

formulas = st.recursive(
    st.sampled_from([top, bot])
    | st.builds(lit, st.sampled_from(["a", "b", "c", "d"]), st.booleans()),
    lambda kids: st.builds(conj, kids, kids) | st.builds(disj, kids, kids),
    max_leaves=12,
)


def all_assignments(f, extra=()):
    vs = sorted(variables(f) | set(extra))
    for bits in itertools.product([False, True], repeat=len(vs)):
        yield dict(zip(vs, bits))


def test_dual_examples():
    assert dual(top) == bot
    assert dual(lit("a")) == lit("a", True)
    assert dual(conj(disj(lit("a"), neg(lit("b"))), bot)) == disj(
        conj(neg(lit("a")), lit("b")), top
    )


def test_canonicalize_examples():
    assert canonicalize(fparse("(a|F)")) == lit("a")
    assert canonicalize(fparse("((a|b)|c)")) == canonicalize(fparse("(a|(b|c))"))
    assert canonicalize(fparse("(T&T)")) == top


def test_canonicalize_idempotent_units():
    assert canonicalize(fparse("(F|F)")) == bot
    assert canonicalize(fparse("(F&a)")) == canonicalize(fparse("(a&F)"))
    # no absorption: a|T is not T
    assert canonicalize(fparse("(a|T)")) != top


def test_eq_mod_examples():
    assert eq_mod(fparse("(a|b)"), fparse("(b|a)"))
    assert not eq_mod(lit("a"), neg(lit("a")))
    assert eq_mod(fparse("(T|T)"), top)


def test_eval_examples():
    assert evaluate(fparse("(a|~a)"), {"a": True}) is True
    assert evaluate(bot, {}) is False
    with pytest.raises(UndefinedVariableError):
        evaluate(lit("a"), {})


def test_php1_truth_table():
    php1 = fparse("(~a01|(~a11|(a01&a11)))")
    for alpha in all_assignments(php1):
        assert evaluate(php1, alpha)
    assert is_tautology(php1)


def test_parse_print_round_trip():
    assert fprint(fparse("(a & ~a)")) == "(a&~a)"
    assert fparse("T") == top
    text = "((a|b)|c)"
    assert fprint(fparse(text)) == text
    with pytest.raises(FormulaSyntaxError):
        fparse("(a|b")
    with pytest.raises(FormulaSyntaxError):
        fparse("a b")


def _flipped(f, swap):
    """The recursive definition of dual (swap false) and mirror_dual."""
    if f.kind in ("top", "bot"):
        return bot if f is top else top
    if f.kind == "lit":
        return neg(f)
    a, b = _flipped(f.a, swap), _flipped(f.b, swap)
    return Formula(OR if f.kind == AND else AND, *((b, a) if swap else (a, b)))


@given(formulas)
@settings(max_examples=80, deadline=None)
def test_dual_involution(f):
    assert dual(f) is _flipped(f, False)
    assert mirror_dual(f) is _flipped(f, True)
    assert dual(dual(f)) == f
    assert mirror_dual(mirror_dual(f)) == f


def test_dual_deep():
    n = 30000
    f = fparse("(" * n + "a" + "&b)" * n)
    assert fprint(dual(f)) == "(" * n + "~a" + "|~b)" * n
    assert fprint(mirror_dual(f)) == "(~b|" * n + "~a" + ")" * n
    assert dual(dual(f)) is f
    assert mirror_dual(mirror_dual(f)) is f


def test_dual_flips_each_shared_subformula_once():
    # 2**200 occurrences over 201 distinct subformulas
    f = lit("a")
    for _ in range(200):
        f = conj(f, f)
    d = dual(f)
    assert d.kind == OR and d.a is d.b
    assert dual(d) is f
    assert mirror_dual(f) is d and mirror_dual(d) is f
    flip = mirror_dualizer()
    assert flip(f) is d and flip(f.a) is d.a and flip(d) is f


@given(st.lists(formulas, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_mirror_dualizer_matches_mirror_dual(fs):
    flip = mirror_dualizer()
    for f in fs + fs:
        assert flip(f) is mirror_dual(f)


def test_eq_mod_of_a_formula_and_itself_canonicalizes_nothing():
    f = conj(disj(lit("eq_self_p"), bot), lit("eq_self_q"))
    assert eq_mod(f, f) and f._canon is None
    assert eq_mod(f, conj(lit("eq_self_p"), lit("eq_self_q")))
    assert f._canon is not None


@given(formulas)
@settings(max_examples=80, deadline=None)
def test_canonicalize_idempotent_and_sound(f):
    c = canonicalize(f)
    assert canonicalize(c) == c
    assert eq_mod(f, c)
    for alpha in all_assignments(f):
        assert evaluate(f, alpha) == evaluate(c, alpha)


@given(formulas, formulas, formulas)
@settings(max_examples=40, deadline=None)
def test_eq_mod_equivalence(f, g, h):
    assert eq_mod(f, f)
    if eq_mod(f, g):
        assert eq_mod(g, f)
        if eq_mod(g, h):
            assert eq_mod(f, h)


@given(formulas, formulas)
@settings(max_examples=40, deadline=None)
def test_eq_mod_implies_same_semantics(f, g):
    if eq_mod(f, g):
        for alpha in all_assignments(f, variables(g)):
            assert evaluate(f, alpha) == evaluate(g, alpha)


@given(formulas)
@settings(max_examples=60, deadline=None)
def test_dual_flips_semantics(f):
    d = dual(f)
    for alpha in all_assignments(f):
        assert evaluate(d, alpha) == (not evaluate(f, alpha))


@given(formulas)
@settings(max_examples=60, deadline=None)
def test_occurrence_map_is_bijective(f):
    m = canonical_occurrence_map(f)
    assert sorted(m) == list(range(len(m)))


@given(formulas)
@settings(max_examples=80, deadline=None)
def test_formulas_are_interned(f):
    assert fparse(fprint(f)) is f
    assert dual(dual(f)) is f


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except FormulaSyntaxError as exc:
        return str(exc), exc.pos


@given(st.text(alphabet="()&|~ ;TFab_1x\u00b2\t\n", max_size=30))
@settings(max_examples=400, deadline=None)
def test_fparse_matches_the_reference_on_any_text(text):
    assert _parse_outcome(fparse, text) == _parse_outcome(reference_fparse, text)


named = st.recursive(
    st.sampled_from([top, bot])
    | st.builds(lit, st.sampled_from(["a", "x\u00b2", "a_1", "T1", "Fb"]), st.booleans()),
    lambda kids: st.builds(conj, kids, kids) | st.builds(disj, kids, kids),
    max_leaves=12,
)


@given(named, st.lists(st.tuples(st.integers(0, 80), st.sampled_from([" ", "\t", "\n  "])), max_size=6))
@settings(max_examples=200, deadline=None)
def test_fparse_matches_the_reference_on_formulas(f, spaces):
    text = fprint(f)
    assert fparse(text) is f
    for at, space in spaces:
        text = text[:at] + space + text[at:]
    assert _parse_outcome(fparse, text) == _parse_outcome(reference_fparse, text)


@given(named)
@settings(max_examples=200, deadline=None)
def test_dual_reads_back(f):
    assert fparse(fprint(dual(f))) is dual(f)


@given(st.text(alphabet="()&|~ TFab", max_size=16))
@settings(max_examples=300, deadline=None)
def test_dual_of_any_read_formula_reads_back(text):
    try:
        f = fparse(text)
    except FormulaSyntaxError:
        return
    assert fparse(fprint(dual(f))) is dual(f)


@pytest.mark.parametrize("text, pos", [("~T", 1), ("(~T|a)", 2), ("( a | ~ F)", 8)])
def test_units_are_never_variable_names(text, pos):
    from deepflow.derivation import dparse

    with pytest.raises(FormulaSyntaxError) as exc:
        fparse(text)
    assert exc.value.pos == pos
    with pytest.raises(FormulaSyntaxError) as exc:
        dparse(f"(form {text})")
    assert exc.value.pos == pos + len("(form ")
    for name in ("T", "F"):
        for negative in (False, True):
            with pytest.raises(ValueError, match="unit"):
                lit(name, negative)


def test_equal_literals_are_one_node():
    assert lit("x", 0) is lit("x", False)
    assert conj(lit("x"), top) is fparse("(x & T)")


def test_interning_keeps_no_formula_alive():
    f = conj(lit("only_in_this_test"), lit("only_in_this_test", True))
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


@given(formulas, st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_warm_subformula_caches_give_cold_results(f, rnd):
    # equal formulas are one node, so "cold" means every subformula's
    # canonical cache cleared
    subs = []
    stack = [f]
    while stack:
        g = stack.pop()
        subs.append(g)
        if g.kind in (AND, OR):
            stack += [g.a, g.b]

    def clear():
        for g in subs:
            g._canon = g._cmap = None

    clear()
    cold_map, cold = canonical_occurrence_map(f), canonicalize(f)
    clear()
    rnd.shuffle(subs)
    for g in subs[: rnd.randint(0, len(subs))]:
        rnd.choice((canonicalize, canonical_occurrence_map))(g)
    assert canonical_occurrence_map(f) == cold_map
    assert canonicalize(f) == cold


def test_canonicalize_deep_alternation():
    # 6000 alternating levels, about three Python frames each
    def deep():
        f = lit("a")
        for i in range(6000):
            f = conj(top, f) if i % 2 else disj(bot, f)
        return f

    assert canonicalize(deep()) == lit("a")
    assert canonical_occurrence_map(deep()) == (0,)


def test_a_dropped_formula_leaves_the_intern_table():
    before = len(formula._table)
    f = conj(lit("dropped_a"), disj(lit("dropped_b"), top))
    assert len(formula._table) == before + 4
    assert formula._table[(AND, f.a, f.b)]() is f
    del f
    assert len(formula._table) == before
    # the callback of a dead node's entry leaves a newer node's entry alone
    g = lit("dropped_a")
    stale = formula._Entry(g)
    stale.key = (LIT, "dropped_a", False)
    formula._forget(stale)
    assert formula._table[stale.key]() is g


def test_canonicalize_leaves_no_cyclic_garbage():
    f = lit("x0")
    for i in range(1, 201):
        f = (conj if i % 2 else disj)(lit(f"x{i}"), f)
    gc.collect()
    gc.disable()
    try:
        canonicalize(f)
        assert gc.collect() == 0
    finally:
        gc.enable()


def replace_occurrences_reference(f, repl):
    """The recursive rebuild of every subformula, kept as the reference."""
    counter = [0]

    def rec(g):
        if g.kind == "lit":
            i = counter[0]
            counter[0] += 1
            return repl.get(i, g)
        if g.kind in ("top", "bot"):
            return g
        return Formula(g.kind, rec(g.a), rec(g.b))

    return rec(f)


@given(formulas, st.lists(st.tuples(st.integers(-2, 14), formulas), max_size=5))
@settings(max_examples=150, deadline=None)
def test_replace_occurrences_matches_reference(f, pairs):
    repl = dict(pairs)
    assert replace_occurrences(f, repl) is replace_occurrences_reference(f, repl)


def test_replace_occurrences_keeps_untouched_subformulas():
    left = conj(lit("a"), disj(lit("b"), lit("c")))
    right = disj(lit("d"), lit("e"))
    out = replace_occurrences(conj(left, right), {3: top})
    assert out == conj(left, disj(top, lit("e")))
    assert out.a is left


def test_replace_occurrences_deep():
    n = 30000
    f = fparse("(" * n + "a" + "&b)" * n)
    assert n_occurrences(f) == n + 1
    out = replace_occurrences(f, {0: lit("c"), n: top})
    assert out.b is top
    g = out.a
    for _ in range(n - 2):
        assert g.b is lit("b")
        g = g.a
    assert g == conj(lit("c"), lit("b"))
    assert fprint(replace_occurrences(f, {})) == fprint(f)

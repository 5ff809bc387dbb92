import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from deepflow import derivation
from deepflow.derivation import (
    ACD,
    ACU,
    AID,
    AIU,
    AWU,
    EQ,
    GCD,
    GCU,
    GID,
    GIU,
    GWD,
    GWU,
    KS,
    COMP,
    LEAF,
    STEP,
    KS_PLUS,
    M,
    S,
    SKS,
    SksdSyntaxError,
    SubstitutionError,
    check,
    compose,
    conclusion,
    dedupe_disjunction,
    dparse,
    dprint,
    dual_system,
    dualize,
    endpoints,
    expand_generic,
    fan_literal,
    glue,
    in_context,
    iter_nodes,
    leaf,
    premiss,
    rule_census,
    size,
    step,
    step_count,
    substitute_atom,
)
from deepflow.families import demo_proof, random_derivation, random_ks_plus_proof
from deepflow.formula import (
    AND,
    OR,
    Formula,
    FormulaSyntaxError,
    bot,
    conj,
    disj,
    dual,
    eq_mod,
    evaluate,
    lit,
    mirror_dual,
    neg,
    occurrence_literals,
    top,
    variables,
)

a, b, c = lit("a"), lit("b"), lit("c")
ab = neg(a)


def test_endpoints_examples():
    assert endpoints(leaf(conj(a, b))) == (conj(a, b), conj(a, b))
    d = compose("or", leaf(a), step(ACD, leaf(disj(b, b)), leaf(b)))
    assert endpoints(d) == (disj(a, disj(b, b)), disj(a, b))
    assert endpoints(demo_proof()) == (top, disj(conj(a, a), ab))


def test_check_examples():
    assert check(step(AID, leaf(top), leaf(disj(a, ab))), KS).ok
    f = conj(a, b)
    bad = step(ACD, leaf(disj(f, f)), leaf(f))
    report = check(bad, SKS)
    assert not report.ok and report.errors[0].code == "schema-mismatch"
    sw = step(S, leaf(conj(a, disj(b, c))), leaf(disj(conj(a, b), c)))
    assert check(sw, KS).ok


def test_check_rule_not_in_system():
    d = step(ACU, leaf(a), leaf(conj(a, a)))
    assert check(d, SKS).ok
    report = check(d, KS)
    assert not report.ok and report.errors[0].code == "rule-not-in-system"


def test_eq_steps_validated():
    good = step("eq", leaf(disj(a, bot)), leaf(a))
    assert check(good, KS).ok
    bad = step("eq", leaf(a), leaf(b))
    report = check(bad, KS)
    assert not report.ok and report.errors[0].code == "eq-mismatch"


def test_expand_generic_contraction():
    d = expand_generic(GCD, disj(a, b))
    assert endpoints(d) == (disj(disj(a, b), disj(a, b)), disj(a, b))
    assert rule_census(d).get(ACD) == 2
    d2 = expand_generic(GCD, conj(a, b))
    assert rule_census(d2).get(M) == 1 and rule_census(d2).get(ACD) == 2
    assert check(d2, KS).ok
    d3 = expand_generic(GCD, a)
    assert rule_census(d3) == {ACD: 1}


@pytest.mark.parametrize("rule", [GID, GWD, GCD, GIU, GWU, GCU])
def test_expand_generic_endpoints_match_schema(rule):
    rng = random.Random(3)
    from deepflow.families import random_formula

    for _ in range(12):
        f = random_formula(rng, ["a", "b", "c"], max_depth=3)
        d = expand_generic(rule, f)
        want = {
            GID: (top, disj(f, dual(f))),
            GWD: (bot, f),
            GCD: (disj(f, f), f),
            GIU: (conj(f, dual(f)), bot),
            GWU: (f, top),
            GCU: (f, conj(f, f)),
        }[rule]
        assert endpoints(d) == want
        system = KS if rule in (GID, GWD, GCD) else SKS
        assert check(d, system).ok


def test_expand_generic_size_growth_quadratic():
    sizes = []
    for n in range(1, 21):
        f = None
        for i in range(n):
            v = lit(f"x{i}")
            f = v if f is None else disj(f, v)
        sizes.append(size(expand_generic(GCD, f)))
    assert all(s2 > s1 for s1, s2 in zip(sizes, sizes[1:]))
    # measured growth stays under a fixed quadratic
    assert all(s <= 4 * n * n + 8 * n + 4 for n, s in enumerate(sizes, 1))


def test_dualize_examples():
    d = step(AID, leaf(top), leaf(disj(a, ab)))
    dd = dualize(d)
    assert dd.rule == AIU
    assert eq_mod(premiss(dd), conj(ab, a)) and conclusion(dd) == bot
    assert check(dd, dual_system(KS)).ok


def test_dualize_involution_and_mirror():
    rng = random.Random(9)
    for _ in range(10):
        d = random_derivation(rng, steps=8)
        assert dprint(dualize(dualize(d))) == dprint(d)
    comp = compose("and", leaf(a), leaf(b))
    dd = dualize(comp)
    assert dd.rule == "or" and dd.a.a == neg(b) and dd.b.a == neg(a)


def test_dualize_checks_in_dual_system():
    rng = random.Random(31)
    for _ in range(15):
        d = random_derivation(rng, steps=8)
        assert check(dualize(d), dual_system(SKS)).ok
        p, q = endpoints(d)
        assert endpoints(dualize(d)) == (mirror_dual(q), mirror_dual(p))


def test_size_examples():
    assert size(leaf(conj(a, neg(b)))) == 2
    assert size(step(AID, leaf(top), leaf(disj(a, ab)))) == 2
    assert size(demo_proof()) == 32


def _reference_endpoints_and_size(d):
    """The recursive definition of premiss, conclusion and size, evaluated
    children first over iter_nodes so that deep chains need no recursion."""
    val = {}
    for node in iter_nodes(d):
        if node.kind == LEAF:
            v = (node.a, node.a, len(occurrence_literals(node.a)))
        else:
            (pa, ca, sa), (pb, cb, sb) = val[id(node.a)], val[id(node.b)]
            if node.kind == COMP:
                v = (Formula(node.rule, pa, pb), Formula(node.rule, ca, cb), sa + sb)
            else:
                v = (pa, cb, sa + sb)
        val[id(node)] = v
    return val[id(d)]


def _assert_set_at_construction(ds):
    """endpoints and size of each derivation read what its root holds, and
    agree with the reference."""
    refs = [_reference_endpoints_and_size(d) for d in ds]

    def no_walk(*args, **kwargs):
        raise AssertionError("bottom_up called")

    with mock.patch.object(derivation, "bottom_up", no_walk):
        for d, (pr, cn, n) in zip(ds, refs):
            assert endpoints(d) == (pr, cn)
            assert (premiss(d), conclusion(d), size(d)) == (pr, cn, n)


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_endpoints_and_size_are_set_at_construction(rnd):
    ds = [random_ks_plus_proof(rnd, steps=8), random_derivation(rnd, steps=6)]
    _assert_set_at_construction(ds + [dualize(d) for d in ds])


def test_deep_chain_endpoints_and_size():
    chain = dparse("(step eq " * 30000 + "(form a)" + " (form a))" * 30000)
    _assert_set_at_construction([chain])
    assert (premiss(chain), conclusion(chain), size(chain)) == (a, a, 30001)


def test_in_context_and_substitute_atom_on_deep_formulas():
    deep = a
    for _ in range(25000):
        deep = conj(deep, b)
    d = in_context(deep, (0,) * 25000, leaf(a))
    assert (premiss(d), conclusion(d), size(d)) == (deep, deep, 25001)
    g = conclusion(substitute_atom(leaf(deep), b, c))
    for _ in range(25000):
        assert g.b == c
        g = g.a
    assert g == a
    with pytest.raises(derivation.GlueError, match="path leaves the formula"):
        in_context(deep, (0,) * 25001, leaf(a))


def test_step_count_separate_from_size():
    d = demo_proof()
    assert step_count(d) > 0
    assert step_count(glue(leaf(a), leaf(disj(a, bot)))) == 1  # the eq joint


def test_substitute_atom():
    d = leaf(disj(a, b))
    out = substitute_atom(d, a, conj(a, a))
    assert conclusion(out) == disj(conj(a, a), b)
    sw = step(S, leaf(conj(a, disj(b, ab))), leaf(disj(conj(a, b), ab)))
    out2 = substitute_atom(sw, b, disj(b, c))
    assert check(out2, SKS).ok
    with_step = step(ACD, leaf(disj(a, a)), leaf(a))
    with pytest.raises(SubstitutionError):
        substitute_atom(with_step, a, conj(a, a))
    # the dual occurrence is replaced by the dual formula
    out3 = substitute_atom(leaf(conj(a, ab)), a, conj(a, a))
    assert conclusion(out3) == conj(conj(a, a), disj(ab, ab))


def test_substitution_keeps_logical_steps_valid():
    rng = random.Random(17)
    for _ in range(10):
        d = random_ks_plus_proof(rng, steps=6)
        # pick an atom no structural step touches, if any
        for name in ("z",):
            out = substitute_atom(d, lit(name), conj(lit(name), lit(name)))
            assert check(out, KS_PLUS).ok


def test_soundness_spot_check():
    rng = random.Random(101)
    for _ in range(40):
        d = random_derivation(rng, steps=7)
        assert check(d, SKS).ok
        p, q = endpoints(d)
        vs = sorted(variables(p) | variables(q))
        for bits in itertools.product([False, True], repeat=len(vs)):
            alpha = dict(zip(vs, bits))
            if evaluate(p, alpha):
                assert evaluate(q, alpha)


def test_glue_and_in_context():
    d = glue(leaf(disj(a, bot)), leaf(a))
    assert check(d, KS).ok and conclusion(d) == a
    ctx = conj(a, disj(b, b))
    d2 = in_context(ctx, (1,), step(ACD, leaf(disj(b, b)), leaf(b)))
    assert endpoints(d2) == (ctx, conj(a, b))


def test_builders():
    d = dedupe_disjunction([a, b, a])
    assert check(d, KS).ok
    assert eq_mod(conclusion(d), disj(a, b))
    f = fan_literal(a, 3)
    assert check(f, SKS).ok
    assert conclusion(f) == conj(a, conj(a, a))


def test_sksd_round_trip():
    d = demo_proof()
    text = dprint(d)
    assert dprint(dparse(text)) == text
    assert "; comment\n" not in dprint(dparse(text + "; comment\n"))
    assert endpoints(dparse(text)) == endpoints(d)


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_sksd_round_trip_random(rnd):
    d = random_ks_plus_proof(rnd, steps=8)
    text = dprint(d)
    back = dparse(text)
    assert dprint(back) == text
    assert endpoints(back) == endpoints(d)


def test_sksd_errors():
    for text, msg, pos in [
        ("(and (form a)", "incomplete derivation", 13),
        ("(step nosuch (form a) (form a))", "unknown rule token 'nosuch'", 6),
        ("(form x y)", "expected ')' after the formula", 8),
        ("(form (a & b) c)", "expected ')' after the formula", 14),
        ("(or (form a) (form b) (form c))", "(comp ...) needs 2 children", 30),
        ("(form a) ; done\n (form b)", "trailing input after derivation", 17),
        ("(frm a)", "unknown form head 'frm'", 1),
        (")", "unbalanced ')'", 0),
    ]:
        with pytest.raises(SksdSyntaxError) as exc:
            dparse(text)
        assert str(exc.value) == f"{msg} at position {pos}"
    # a formula error gives its position in the file
    with pytest.raises(FormulaSyntaxError) as exc:
        dparse("(and (form a)\n  (form (a | ; b\n b & c)))")
    assert str(exc.value) == "expected ')' at position 34"


SOUP = ["(", ")", "form", "and", "or", "step", "eq", "s", "aid", "nosuch", "a", "b", "~", "&", "|",
        "T", "F", ";", "\n", " ", "x\u00b2", "1", "#", "(form a)", "(form (a|b))"]


@st.composite
def sksd_soup(draw):
    """Token soup, or the text of a proof with tokens inserted and spans cut."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(SOUP), max_size=40)))
    text = dprint(random_ks_plus_proof(draw(st.randoms(use_true_random=False)), steps=3))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(SOUP)) + text[at:]
        else:
            text = text[:at] + text[at + draw(st.integers(1, 6)):]
    return text


@given(sksd_soup())
@settings(max_examples=300, deadline=None)
def test_dparse_raises_only_syntax_errors(text):
    try:
        d = dparse(text)
    except (SksdSyntaxError, FormulaSyntaxError) as exc:
        assert 0 <= exc.pos <= len(text)
    else:
        assert dprint(dparse(dprint(d))) == dprint(d)


def full_walk_errors(d, system):
    """The check report of a walk over every step, with no stored verdicts."""
    errors = []
    for node in iter_nodes(d):
        if node.kind != STEP:
            continue
        if node.rule not in system and node.rule != EQ:
            errors.append(("rule-not-in-system", node.rule, f"{node.rule} not in system"))
            continue
        msg = derivation._match_step(node.rule, conclusion(node.a), premiss(node.b))
        if msg is not None:
            errors.append(("eq-mismatch" if node.rule == EQ else "schema-mismatch", node.rule, msg))
    return errors


def report_errors(report):
    return [(e.code, e.rule, e.detail) for e in report.errors]


def test_checked_subtree_does_not_hide_a_bad_step():
    good = demo_proof()
    assert check(good, SKS).ok
    # a contraction of a non-literal, below and beside the checked proof
    f = conj(a, b)
    bad = step(ACD, leaf(disj(f, f)), leaf(f))
    below = step(EQ, compose(OR, good, bad), leaf(disj(conclusion(good), f)))
    for d in (compose(OR, good, bad), compose(AND, bad, good), below):
        report = check(d, SKS)
        assert not report.ok
        assert report_errors(report) == full_walk_errors(d, SKS)
        assert [e.code for e in report.errors] == ["schema-mismatch"]
        # a failing check stores no verdict, so it fails again
        assert report_errors(check(d, SKS)) == full_walk_errors(d, SKS)
        assert check(good, SKS).ok


def test_checked_ks_plus_subtree_rechecked_as_ks():
    rng = random.Random(5)
    while True:
        d = random_ks_plus_proof(rng, steps=8)
        census = rule_census(d)
        if census.get(AWU, 0) and census.get(ACU, 0):
            break
    assert check(d, KS_PLUS).ok
    report = check(d, KS)
    assert not report.ok
    assert report_errors(report) == full_walk_errors(d, KS)
    ups = [node.rule for node in iter_nodes(d) if node.kind == STEP and node.rule in (AWU, ACU)]
    assert [(e.code, e.rule) for e in report.errors] == [("rule-not-in-system", r) for r in ups]
    assert check(d, KS_PLUS).ok


def test_recheck_matches_only_new_steps(monkeypatch):
    from deepflow.flow import extract
    from deepflow.lift import _rebuild, _surgery_for
    from deepflow.rewrite import NORM, find_redexes
    from deepflow.simulations import php_ksplus

    d = php_ksplus(2, "F")
    assert check(d, KS_PLUS).ok
    ext = extract(d)
    redex = find_redexes(ext.flow, NORM)[0]
    trie = {}
    _surgery_for({id(None): trie}, d, ext, redex, ext.segments([redex.edge])[redex.edge])
    new = _rebuild(d, trie)
    old_nodes = {id(n) for n in iter_nodes(d)}
    new_steps = [n for n in iter_nodes(new) if id(n) not in old_nodes and n.kind == STEP]
    assert 0 < len(new_steps) < len(old_nodes) / 10
    calls = []
    match = derivation._match_step

    def counting(rule, cn_up, pr_lo):
        calls.append(rule)
        return match(rule, cn_up, pr_lo)

    monkeypatch.setattr(derivation, "_match_step", counting)
    assert check(new, SKS).ok
    assert len(calls) == len(new_steps)
    # a repeated check of the same object matches nothing
    calls.clear()
    assert check(new, SKS).ok and check(new, KS_PLUS).ok
    assert calls == []


def test_deep_eq_chain_checks(tmp_path, capsys):
    from deepflow.cli import main

    deep = tmp_path / "chain.sksd"
    deep.write_text("(step eq " * 30000 + "(form a)" + " (form a))" * 30000 + "\n")
    assert main(["check", str(deep)]) == 0
    out, err = capsys.readouterr()
    assert "PASS check" in out
    assert "Traceback" not in out + err

import random

import pytest

from deepflow.derivation import (
    ACD,
    ACU,
    AID,
    AIU,
    AWU,
    GWD,
    KS,
    KS_PLUS,
    SKS,
    check,
    conclusion,
    expand_generic,
    glue,
    in_context,
    is_proof,
    leaf,
    premiss,
    rule_census,
    size,
    step,
)
from deepflow.flow import extract
from deepflow.formula import (
    bot,
    conj,
    disj,
    eq_mod,
    fparse,
    fprint,
    is_tautology,
    lit,
    neg,
    top,
    variables,
)
from deepflow.metrics import dimensions
from deepflow.simulations import (
    SimulationError,
    gamma_of_assignment,
    php_formula,
    php_ks,
    php_ksplus,
    php_var,
    phi_st,
    random_tautology,
    sks_php_proof,
    switch_cut,
    truthtable_ks,
    truthtable_ksplus,
)

a, b = lit("a"), lit("b")


def census_has_no_up_rules(d):
    census = rule_census(d)
    return all(census.get(r, 0) == 0 for r in (AIU, AWU, ACU))


def test_php_formula_examples():
    f1 = php_formula(1)
    assert fprint(f1) == "(~a01|(~a11|(a01&a11)))"
    assert is_tautology(f1)
    ff1 = php_formula(1, "F")
    assert ff1.a == bot and eq_mod(ff1, f1)
    assert is_tautology(php_formula(2, "OF"))
    for n in (1, 2, 3):
        for v in ("plain", "F", "O", "OF"):
            assert is_tautology(php_formula(n, v))
    with pytest.raises(ValueError):
        php_formula(0)


def test_gamma():
    assert gamma_of_assignment({"a": True, "b": False}) == conj(lit("b", True), a)
    assert gamma_of_assignment({}) == top


def test_truthtable_base_case():
    tau = disj(a, neg(a))
    p = truthtable_ksplus(tau)
    assert check(p, KS_PLUS).ok and is_proof(p)
    assert conclusion(p) == tau
    assert extract(p).flow.kind_census().get(AID) == 1
    ks = truthtable_ks(tau)
    assert check(ks, KS).ok and conclusion(ks) == tau


def test_truthtable_two_vars():
    tau = fparse("((~a|~b)|(a&b))")
    p = truthtable_ksplus(tau)
    assert check(p, KS_PLUS).ok and conclusion(p) == tau
    # linear in the table: 4 assignments of a formula with 4 atoms
    assert size(p) <= 4 * size(leaf(tau)) * 20
    length, _, _ = dimensions(extract(p).flow)
    assert length <= 4
    ks = truthtable_ks(tau)
    assert check(ks, KS).ok and conclusion(ks) == tau


def test_truthtable_rejects_non_tautologies():
    with pytest.raises(SimulationError):
        truthtable_ksplus(fparse("(a|b)"))
    with pytest.raises(SimulationError):
        truthtable_ksplus(disj(a, neg(a)), max_vars=0)


def test_truthtable_php1():
    tau = php_formula(1)
    ks = truthtable_ks(tau)
    assert check(ks, KS).ok and conclusion(ks) == tau


def test_truthtable_variable_free():
    p = truthtable_ks(fparse("(T|F)"))
    assert check(p, KS).ok and conclusion(p) == fparse("(T|F)")


def test_switch_cut_without_cuts():
    p = glue(leaf(top), step(AID, leaf(top), leaf(disj(b, neg(b)))))
    out = switch_cut(p)
    assert check(out, KS).ok
    assert conclusion(out) == disj(disj(b, neg(b)), conj(b, neg(b)))
    assert census_has_no_up_rules(out)


def cut_proof_of_b_or_not_b():
    """T -> [b|~b] -> [[b|~b]|(a&~a)] -> cut -> [b|~b], one cut on a."""
    base = step(AID, leaf(top), leaf(disj(b, neg(b))))
    host = disj(disj(b, neg(b)), bot)
    grown = glue(
        base,
        leaf(host),
        in_context(host, (1,), expand_generic(GWD, conj(a, neg(a)))),
    )
    cut = in_context(
        disj(disj(b, neg(b)), conj(a, neg(a))),
        (1,),
        step(AIU, leaf(conj(a, neg(a))), leaf(bot)),
    )
    return glue(grown, cut, leaf(disj(b, neg(b))))


def test_switch_cut_retains_cut_pairs():
    p = cut_proof_of_b_or_not_b()
    assert check(p, SKS).ok and rule_census(p).get(AIU) == 1
    out = switch_cut(p)
    assert check(out, KS).ok
    want = disj(disj(b, neg(b)), disj(conj(a, neg(a)), conj(b, neg(b))))
    assert eq_mod(conclusion(out), want)
    assert census_has_no_up_rules(out)


def test_switch_cut_requires_proof():
    with pytest.raises(SimulationError):
        switch_cut(leaf(a))


def test_sks_php_proof():
    for n in (1, 2):
        p = sks_php_proof(n)
        assert check(p, SKS).ok and is_proof(p)
        assert conclusion(p) == php_formula(n)
        assert rule_census(p).get(AIU, 0) > 0


def test_phi_st():
    d = phi_st(2, 0, 1, "F")
    assert premiss(d) == conj(lit(php_var(0, 1)), neg(lit(php_var(0, 1))))
    assert conclusion(d) == php_formula(2, "F")
    assert check(d, KS_PLUS).ok
    assert rule_census(d).get(ACD, 0) == 0
    d_o = phi_st(2, 0, 1, "O")
    assert conclusion(d_o) == php_formula(2, "O")
    assert rule_census(d_o).get(ACD, 0) == 0
    d1 = phi_st(1, 0, 1, "F")
    assert conclusion(d1) == php_formula(1, "F")
    with pytest.raises(ValueError):
        phi_st(2, 3, 1, "F")


def test_php_ksplus_small():
    p = php_ksplus(1, "F")
    assert check(p, KS_PLUS).ok and is_proof(p)
    assert conclusion(p) == php_formula(1, "F")
    p2 = php_ksplus(2, "F")
    assert conclusion(p2) == php_formula(2, "F")
    length, _, _ = dimensions(extract(p2).flow)
    assert length <= 6
    with pytest.raises(SimulationError):
        php_ksplus(4, "F")  # beyond the default cap


def test_php_ks_small():
    for n, v in [(1, "F"), (1, "O"), (2, "F")]:
        p = php_ks(n, v)
        assert check(p, KS).ok and is_proof(p)
        assert conclusion(p) == php_formula(n, v)
    p_of = php_ks(1, "OF")
    assert check(p_of, KS).ok and conclusion(p_of) == php_formula(1, "OF")


def test_random_tautologies_are_tautologies():
    rng = random.Random(5)
    for _ in range(20):
        t = random_tautology(rng)
        assert is_tautology(t)
        assert len(variables(t)) <= 4

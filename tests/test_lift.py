import pytest

from corpus import ks_plus_proof_flows, ring_layers
from deepflow.derivation import (
    ACD,
    ACU,
    AID,
    AIU,
    AWD,
    AWU,
    KS,
    SKS,
    check,
    conclusion,
    glue,
    in_context,
    leaf,
    premiss,
    rule_census,
    size,
    step,
    step_at,
)
from deepflow.families import demo_reduced_flow, demo_proof
from deepflow.flow import extract, iso
from deepflow.formula import bot, conj, disj, eq_mod, fparse, lit, neg, top
from deepflow.lift import LiftError, _require_same_flow, lift_step, normalize_proof
from deepflow.rewrite import StaleRedexError, apply_redex, find_redexes

a, b = lit("a"), lit("b")
ab = neg(a)


def redex_cases():
    return {
        "wd-cd": glue(
            in_context(disj(a, bot), (1,), step(AWD, leaf(bot), leaf(a))),
            step(ACD, leaf(disj(a, a)), leaf(a)),
        ),
        "id-wu": glue(
            step(AID, leaf(top), leaf(disj(a, ab))),
            step_at(disj(a, ab), (1,), AWU, top),
        ),
        "cu-wu": glue(
            step(ACU, leaf(a), leaf(conj(a, a))),
            step_at(conj(a, a), (1,), AWU, top),
        ),
        "wd-cu": glue(
            in_context(disj(b, bot), (1,), step(AWD, leaf(bot), leaf(a))),
            step_at(disj(b, a), (1,), ACU, conj(a, a)),
        ),
        "wd-wu": glue(
            in_context(disj(b, bot), (1,), step(AWD, leaf(bot), leaf(a))),
            step_at(disj(b, a), (1,), AWU, top),
        ),
        "cd-wu": glue(
            step(ACD, leaf(disj(a, a)), leaf(a)),
            step(AWU, leaf(a), leaf(top)),
        ),
        "cd-cu": glue(
            step(ACD, leaf(disj(a, a)), leaf(a)),
            step(ACU, leaf(a), leaf(conj(a, a))),
        ),
        "id-cu": glue(
            step(AID, leaf(top), leaf(disj(a, ab))),
            step_at(disj(a, ab), (0,), ACU, conj(a, a)),
        ),
    }


@pytest.mark.parametrize("rule", sorted(redex_cases()))
def test_lift_step_per_rule(rule):
    d = redex_cases()[rule]
    assert check(d, SKS).ok
    ext = extract(d)
    matches = [r for r in find_redexes(ext.flow) if r.rule == rule]
    assert matches, f"no {rule} redex found"
    out = lift_step(d, matches[0], ext)  # endpoint/check/iso verification inside
    assert premiss(out) == premiss(d)
    assert conclusion(out) == conclusion(d)
    assert iso(extract(out).flow, apply_redex(ext.flow, matches[0]))


def test_cd_cu_duplicates_through_the_middle():
    # contraction feeding a cocontraction through an intervening switch
    mid = step_at(disj(conj(b, a), b), (0, 1), ACU, conj(a, a))
    d = glue(
        in_context(disj(conj(b, disj(a, a)), b), (0, 1), step(ACD, leaf(disj(a, a)), leaf(a))),
        mid,
    )
    assert check(d, SKS).ok
    ext = extract(d)
    (r,) = [x for x in find_redexes(ext.flow) if x.rule == "cd-cu"]
    out = lift_step(d, r, ext)
    census = rule_census(out)
    assert census.get(ACU, 0) == 2 and census.get(ACD, 0) == 2
    assert premiss(out) == premiss(d) and conclusion(out) == conclusion(d)


def test_lift_stale_redex():
    d = redex_cases()["cd-cu"]
    ext = extract(d)
    (r,) = find_redexes(ext.flow)
    d2 = lift_step(d, r, ext)
    with pytest.raises(StaleRedexError):
        lift_step(d2, r)


def test_normalize_proof_demo():
    p = demo_proof()
    out, report = normalize_proof(p, with_report=True)
    assert check(out, KS).ok
    assert premiss(out) == top
    assert eq_mod(conclusion(out), fparse("((a&a)|~a)"))
    assert iso(extract(out).flow, demo_reduced_flow())
    assert report.wk_steps + report.cont_steps == 4
    census = rule_census(out)
    assert all(census.get(r, 0) == 0 for r in (AIU, AWU, ACU))


def test_normalize_proof_identity_on_normal_input():
    p = step(AID, leaf(top), leaf(disj(a, ab)))
    out = normalize_proof(p)
    assert out is p


def test_normalize_proof_requires_ks_plus_proof():
    from deepflow.derivation import CheckFailure

    with pytest.raises(LiftError):
        normalize_proof(leaf(a))  # not a proof
    bad = step(AIU, leaf(conj(a, ab)), leaf(bot))
    with pytest.raises(CheckFailure):
        normalize_proof(bad)  # cuts are outside KS+


def test_normalize_proof_random_corpus():
    for p, flow in ks_plus_proof_flows(15, max_edges=16, seed=101):
        out = normalize_proof(p)
        assert check(out, KS).ok
        assert premiss(out) == premiss(p) and conclusion(out) == conclusion(p)
        census = rule_census(out)
        assert all(census.get(r, 0) == 0 for r in (AIU, AWU, ACU))


def test_lift_growth_is_moderate():
    for p, flow in ks_plus_proof_flows(8, max_edges=14, seed=55):
        out = normalize_proof(p)
        assert size(out) <= 40 * (size(p) + 1) ** 2


def test_flow_check_is_exact_above_40_nodes():
    # 48 nodes with equal census, edge count and refinement colours
    one, two = ring_layers((24,)), ring_layers((12, 12))
    _require_same_flow(one, ring_layers((24,)), "lifted flow", "the reduct")
    with pytest.raises(LiftError, match="not isomorphic"):
        _require_same_flow(one, two, "lifted flow", "the reduct")

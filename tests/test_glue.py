"""glue strips the re-anchor leaves that face each other at a joint: the
endpoints, check verdicts and flows stay those of the glue that keeps them,
kept in tests/reference_glue.py, and the proofs get no larger."""

import random
from contextlib import ExitStack
from unittest import mock

import deepflow
from deepflow import derivation, families, lift, resolution, simulations
from deepflow.derivation import (
    AID,
    COMP,
    EQ,
    KS,
    KS_PLUS,
    LEAF,
    SKS,
    STEP,
    _strip,
    check,
    compose,
    conclusion,
    endpoints,
    in_context,
    iter_nodes,
    leaf,
    premiss,
    size,
    step,
)
from deepflow.families import _random_step, random_formula, random_ks_plus_proof, res_chain
from deepflow.flow import extract, to_json
from deepflow.formula import AND, OR, Formula, bot, conj, disj, lit, neg, top
from deepflow.lift import normalize_proof
from deepflow.resolution import simulate
from deepflow.simulations import php_ks, php_ksplus
from hypothesis import given, settings, strategies as st
from reference_glue import reference_glue

VARS = ["a", "b"]


def build(make, seed, reference):
    """make(rng) with a fresh rng of this seed, under the reference glue if
    asked; every module that calls glue sees the same one."""
    with ExitStack() as stack:
        if reference:
            for module in (deepflow, derivation, families, lift, resolution, simulations):
                stack.enter_context(mock.patch.object(module, "glue", reference_glue))
        return make(random.Random(seed))


def reshape(rng, f):
    """A random =-equal restatement of f: a swap, a unit or a reassociation
    at a random position."""
    path = []
    g = f
    while g.kind in (AND, OR) and rng.random() < 0.5:
        path.append((g, rng.randrange(2)))
        g = g.b if path[-1][1] else g.a
    r = rng.randrange(4)
    if r == 0 and g.kind in (AND, OR):
        g = Formula(g.kind, g.b, g.a)
    elif r == 1 and g.kind in (AND, OR) and g.a.kind == g.kind:
        g = Formula(g.kind, g.a.a, Formula(g.kind, g.a.b, g.b))
    elif r == 2:
        g = conj(g, top)
    else:
        g = disj(bot, g)
    for host, branch in reversed(path):
        g = Formula(host.kind, host.a, g) if branch else Formula(host.kind, g, host.b)
    return g


def glued_chain(rng, start, parts_wanted=8):
    """A chain from start of rule steps, re-anchor leaves, eq chains of
    leaves and chains nested in a context, glued in random groups."""
    glue = derivation.glue
    parts = [leaf(start)]
    cur = start
    for _ in range(parts_wanted):
        r = rng.random()
        if r < 0.3:
            cur = reshape(rng, cur)
            parts.append(leaf(cur))
        elif r < 0.45:
            g = reshape(rng, cur)
            cur = reshape(rng, g)
            parts.append(glue(leaf(g), leaf(cur)))
        elif r < 0.6:
            host = conj(cur, top)
            inner = glued_chain(rng, cur, 3)
            cur = conj(conclusion(inner), top)
            parts.append(in_context(host, (0,), inner))
        else:
            part = _random_step(rng, leaf(cur), VARS, KS_PLUS)
            cur = conclusion(part)
            parts.append(part)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        j = rng.randrange(i + 1, len(parts)) + 1
        parts[i:j] = [glue(*parts[i:j])]
    return parts[0]


def nested_proof(rng):
    """Two random KS+ proofs side by side in a conjunction, each glued in
    through its own context, with re-anchors around them."""
    glue = derivation.glue
    d1 = random_ks_plus_proof(rng, VARS, rng.randint(1, 6))
    d2 = random_ks_plus_proof(rng, VARS, rng.randint(1, 6))
    c1, c2 = conclusion(d1), conclusion(d2)
    return glue(
        leaf(top),
        leaf(conj(top, top)),
        in_context(conj(top, top), (0,), d1),
        leaf(reshape(rng, conj(c1, top))),
        in_context(conj(c1, top), (1,), glue(d2, leaf(reshape(rng, c2)))),
        leaf(reshape(rng, conj(c1, c2))),
    )


def assert_same_as_reference(make, seed):
    new = build(make, seed, reference=False)
    ref = build(make, seed, reference=True)
    assert endpoints(new) == endpoints(ref)
    for system in (KS, KS_PLUS, SKS):
        assert check(new, system).ok == check(ref, system).ok
    assert to_json(extract(new).flow) == to_json(extract(ref).flow)
    assert size(new) <= size(ref)
    return new


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_glued_chains_match_the_reference(seed):
    d = assert_same_as_reference(lambda rng: glued_chain(rng, random_formula(rng, VARS, 3)), seed)
    assert check(d, SKS).ok
    assert_nothing_left_to_strip(d)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_random_proofs_and_normal_forms_match_the_reference(seed):
    assert_same_as_reference(lambda rng: random_ks_plus_proof(rng, VARS, rng.randint(1, 10)), seed)
    d = assert_same_as_reference(nested_proof, seed)
    assert_nothing_left_to_strip(d)
    n = assert_same_as_reference(lambda rng: normalize_proof(nested_proof(rng)), seed)
    assert_nothing_left_to_strip(n)


def holds_re_anchor(d, side):
    """Whether an eq step with a leaf on that side lies on d's top or bottom
    side, found by a walk that does not read the nodes' _bare bits."""
    stack = [d]
    while stack:
        node = stack.pop()
        if node.kind == COMP:
            stack += (node.a, node.b)
        elif node.kind == STEP:
            near = node.a if side == "top" else node.b
            if node.rule == EQ and near.kind == LEAF:
                return True
            stack.append(near)
    return False


def joints_left_to_strip(d):
    """The eq steps of d whose facing sides still hold a re-anchor."""
    return [
        node
        for node in iter_nodes(d)
        if node.kind == STEP
        and node.rule == EQ
        and (_strip(node.a, "bottom") is not node.a or _strip(node.b, "top") is not node.b)
    ]


def assert_nothing_left_to_strip(d):
    assert joints_left_to_strip(d) == []
    for node in iter_nodes(d):
        for side in ("top", "bottom"):
            assert (_strip(node, side) is not node) == holds_re_anchor(node, side)


def test_emitted_proofs_have_nothing_left_to_strip():
    proofs = [php_ks(2, v) for v in ("F", "O", "OF")]
    proofs += [php_ksplus(2, v) for v in ("F", "O", "OF")]
    proofs.append(simulate(*res_chain(24)))
    rng = random.Random(5)
    proofs += [normalize_proof(random_ks_plus_proof(rng, VARS, 10)) for _ in range(10)]
    for d in proofs:
        assert_nothing_left_to_strip(d)


def test_strip_keeps_rule_instances_and_shares_what_it_keeps():
    a = lit("a")
    body = step(AID, leaf(top), leaf(disj(a, neg(a))))
    d = derivation.glue(leaf(conj(top, top)), body, leaf(disj(neg(a), a)))
    assert d.kind == STEP and d.a.kind == STEP and d.a.a.kind == LEAF
    assert _strip(body, "top") is body and _strip(body, "bottom") is body
    assert _strip(d, "bottom") is d.a
    top_stripped = _strip(d, "top")
    assert top_stripped.a is body and top_stripped.b is d.b
    assert endpoints(top_stripped) == (top, conclusion(d)) and check(top_stripped, KS).ok
    beside = compose(AND, d, leaf(a))
    assert endpoints(_strip(beside, "top")) == (conj(top, a), conclusion(beside))
    assert endpoints(_strip(beside, "bottom")) == (premiss(beside), conj(disj(a, neg(a)), a))


def test_glue_keeps_both_outer_endpoints_of_re_anchors():
    a = derivation.glue(leaf(disj(bot, top)), leaf(top), leaf(conj(top, top)))
    assert endpoints(a) == (disj(bot, top), conj(top, top))
    assert size(a) == 0 and check(a, KS).ok

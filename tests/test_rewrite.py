import random

import pytest
from hypothesis import given, settings, strategies as st

from corpus import ks_plus_proof_flows, small_flows
from deepflow.derivation import ACD, ACU, AID, AWD, AWU
from deepflow.families import (
    critical_pair_flows,
    cubic_flow,
    demo_reduced_flow,
    demo_proof,
    random_ks_plus_proof,
    tower_flow,
)
from deepflow.flow import FlowBuilder, extract, iso
from deepflow.metrics import open_ai_paths_bruteforce
from deepflow.rewrite import (
    CONT,
    NORM,
    WK,
    StaleRedexError,
    TraceStep,
    _d_sequence,
    _MutFlow,
    _order,
    apply_redex,
    d_sequence_less,
    explore_reductions,
    find_redexes,
    measure_less,
    normalize,
    termination_measure,
    wk_first_batches,
)


def wd_cd_flow():
    fb = FlowBuilder()
    w = fb.node(AWD)
    c = fb.node(ACD)
    fb.edge((w, 0), (c, 0))
    fb.edge(None, (c, 1))
    fb.edge((c, 0), None)
    return fb.build()


def test_find_redexes_examples():
    f = wd_cd_flow()
    reds = find_redexes(f)
    assert [r.rule for r in reds] == ["wd-cd"]
    fb = FlowBuilder()
    c = fb.node(ACD)
    u = fb.node(ACU)
    fb.edge(None, (c, 0))
    fb.edge(None, (c, 1))
    fb.edge((c, 0), (u, 0))
    fb.edge((u, 0), None)
    fb.edge((u, 1), None)
    assert [r.rule for r in find_redexes(fb.build())] == ["cd-cu"]
    assert find_redexes(demo_reduced_flow()) == []


def test_apply_redex_deltas():
    fb = FlowBuilder()
    w = fb.node(AWD)
    cw = fb.node(AWU)
    fb.edge((w, 0), (cw, 0))
    f = fb.build()
    (r,) = find_redexes(f)
    assert r.rule == "wd-wu"
    g = apply_redex(f, r)
    assert len(g.nodes) == len(f.nodes) - 2 and len(g.edges) == len(f.edges) - 1

    fb = FlowBuilder()
    c = fb.node(ACD)
    u = fb.node(ACU)
    fb.edge(None, (c, 0))
    fb.edge(None, (c, 1))
    fb.edge((c, 0), (u, 0))
    fb.edge((u, 0), None)
    fb.edge((u, 1), None)
    f = fb.build()
    (r,) = find_redexes(f)
    g = apply_redex(f, r)
    assert len(g.nodes) == len(f.nodes) + 2 and len(g.edges) == len(f.edges) + 3

    fb = FlowBuilder()
    i = fb.node(AID)
    cw = fb.node(AWU)
    fb.edge((i, 0), (cw, 0))
    fb.edge((i, 1), None)
    f = fb.build()
    (r,) = find_redexes(f)
    g = apply_redex(f, r)
    assert g.kind_census() == {AWD: 1}


def test_stale_redex():
    f = wd_cd_flow()
    (r,) = find_redexes(f)
    g = apply_redex(f, r)
    with pytest.raises(StaleRedexError):
        apply_redex(g, r)


def test_normalize_tower():
    for n in (1, 3, 5):
        f = tower_flow(n)
        nf, trace = normalize(f)
        assert nf.kind_census() == {AWD: 1}
        assert len(trace) == 2 * n
        nf2, trace2 = normalize(f, strategy="cont-first")
        assert iso(nf, nf2)
        assert len(trace2) >= 2**n - 1


def reference_normalize(flow, strategy):
    """normalize with measures on, as a rescan-and-recompute loop: a full
    find_redexes picks every step or batch, and a full _d_sequence follows
    every step."""
    m = _MutFlow(flow)
    trace = []

    def run(redexes):
        used = set()
        for r in redexes:
            if r.src in used or r.tgt in used:
                continue
            m.apply(r)
            used |= {r.src, r.tgt}
            d = _d_sequence(m.nodes, m.edges, m.ins)
            trace.append(TraceStep(r.rule, r.anchors(), len(m.edges), d))

    if strategy == "wk-first":
        for sub in (WK, CONT):
            while redexes := find_redexes(m, sub):
                run(redexes)
    else:
        while redexes := find_redexes(m, CONT) or find_redexes(m, WK):
            run(redexes[:1])
    return m.freeze(), trace


def assert_matches_reference(flow):
    for strategy in ("wk-first", "cont-first"):
        nf, trace = normalize(flow, strategy=strategy)
        ref_nf, ref_trace = reference_normalize(flow, strategy)
        assert trace == ref_trace, strategy
        assert (nf.nodes, nf.edges) == (ref_nf.nodes, ref_nf.edges), strategy


@given(st.integers(0, 2**32), st.integers(2, 10))
@settings(max_examples=60, deadline=None)
def test_normalize_matches_rescan_reference_on_random_proof_flows(seed, steps):
    proof = random_ks_plus_proof(random.Random(seed), steps=steps)
    assert_matches_reference(extract(proof).flow)


@given(st.integers(0, 2**32), st.integers(2, 10))
@settings(max_examples=60, deadline=None)
def test_wk_first_batches_are_disjoint_ordered_maximal_and_phased(seed, steps):
    m = _MutFlow(extract(random_ks_plus_proof(random.Random(seed), steps=steps)).flow)
    pending = []  # the batch being applied

    def redexes_of(sub):
        assert not pending, "wk_first_batches scanned before the batch was applied"
        return find_redexes(m, sub)

    phases = []
    for sub, batch in wk_first_batches(redexes_of):
        redexes = find_redexes(m, sub)
        assert batch and batch == sorted(batch, key=_order)
        anchors = [n for r in batch for n in r.anchors()]
        assert len(anchors) == len(set(anchors))
        for r in redexes:
            assert r in batch or not set(r.anchors()).isdisjoint(anchors)
        assert set(batch) <= set(redexes)
        phases.append(sub)
        pending.append(batch)
        for r in batch:
            m.apply(r)
        pending.clear()
    assert phases == sorted(phases, key=lambda sub: sub is CONT)
    assert find_redexes(m, NORM) == []


@pytest.mark.parametrize(
    "flow", [tower_flow(n) for n in range(9)] + [cubic_flow(n) for n in range(1, 7)],
    ids=[f"tower-{n}" for n in range(9)] + [f"cubic-{n}" for n in range(1, 7)],
)
def test_normalize_matches_rescan_reference_on_families(flow):
    assert_matches_reference(flow)


def test_cont_first_tower_scales():
    # 12273 measured steps; a step costs what it touches, so this takes
    # about a second where a rescan per step took minutes
    _, trace = normalize(tower_flow(12), strategy="cont-first")
    assert len(trace) == 12273
    assert trace[-1].d_after == ()


def test_normalize_demo_proof_flow():
    f = extract(demo_proof()).flow
    nf, _ = normalize(f)
    assert iso(nf, demo_reduced_flow())


def test_normalize_no_redexes():
    f = demo_reduced_flow()
    nf, trace = normalize(f)
    assert trace == [] and iso(nf, f)


def test_termination_measure_examples():
    f = demo_reduced_flow()
    d_seq, sz = termination_measure(f)
    assert d_seq == () and sz == f.n_edges
    fb = FlowBuilder()
    w = fb.node(AWD)
    u = fb.node(ACU)
    fb.edge((w, 0), (u, 0))
    fb.edge((u, 0), None)
    fb.edge((u, 1), None)
    d_seq, _ = termination_measure(fb.build())
    assert tuple(d_seq) == (0, 1)


def test_cd_cu_strictly_decreases_measure():
    seen = 0
    for f in small_flows():
        for r in find_redexes(f):
            if r.rule != "cd-cu":
                continue
            before = termination_measure(f)
            after = termination_measure(apply_redex(f, r))
            assert measure_less(after, before)
            seen += 1
    assert seen >= 3


def test_wk_steps_shrink_and_cont_steps_grow():
    for f in small_flows():
        for r in find_redexes(f):
            g = apply_redex(f, r)
            if r.rule in WK:
                assert len(g.edges) < len(f.edges)
            else:
                assert len(g.edges) > len(f.edges)


def test_d_sequence_order():
    assert d_sequence_less((0, 1), (0, 2))
    assert d_sequence_less((5, 1), (0, 2))
    assert not d_sequence_less((0, 2), (0, 2))
    assert not d_sequence_less((0, 0, 1), (0, 2))


def test_random_within_phase_order_is_confluent():
    rng = random.Random(71)
    for _, f in ks_plus_proof_flows(12, max_edges=16, seed=41):
        reference, _ = normalize(f)
        cur = f
        while True:
            reds = [r for r in find_redexes(cur) if r.rule in WK]
            if not reds:
                reds = [r for r in find_redexes(cur) if r.rule in CONT]
            if not reds:
                break
            cur = apply_redex(cur, rng.choice(reds))
        assert iso(cur, reference)


def test_explore_critical_pairs():
    for i, f in enumerate(critical_pair_flows(), 1):
        normals = explore_reductions(f)
        assert len(normals) == 1, f"critical pair {i}"


def test_explore_normal_flow():
    normals = explore_reductions(demo_reduced_flow())
    assert len(normals) == 1 and iso(normals[0], demo_reduced_flow())


def test_norm_steps_preserve_open_paths():
    checked = 0
    for f in small_flows():
        if f.n_edges > 25:
            continue
        base = open_ai_paths_bruteforce(f)
        for r in find_redexes(f):
            g = apply_redex(f, r)
            if g.n_edges <= 25:
                assert open_ai_paths_bruteforce(g) == base
                checked += 1
    assert checked >= 10

import random

import pytest
from hypothesis import given, settings, strategies as st

import reference_metrics
from corpus import ks_plus_proof_flows, small_flows
from deepflow.derivation import ACU, AID, AIU, AWD
from deepflow.families import (
    contraction_loop_flow,
    cubic_flow,
    cubic_topmost_edges,
    demo_reduced_flow,
    demo_proof,
    max_ai_paths_flow,
    random_ks_plus_proof,
    tower_flow,
)
from deepflow.flow import AtomicFlow, FlowBuilder, extract, flip_dual
from deepflow.formula import top
from deepflow.metrics import (
    CapExceeded,
    PathCountDivergence,
    contraction_loops,
    dimensions,
    edge_weight,
    metrics_record,
    node_count,
    open_ai_paths,
    open_ai_paths_bruteforce,
)
from deepflow.rewrite import normalize


def test_max_ai_paths_example():
    f = max_ai_paths_flow()
    assert open_ai_paths(f) == 5
    assert open_ai_paths_bruteforce(f) == 5


def test_empty_and_trivial_flows():
    assert open_ai_paths(AtomicFlow({}, {})) == 0
    single = FlowBuilder()
    i = single.node(AID)
    single.edge((i, 0), None)
    single.edge((i, 1), None)
    f = single.build()
    assert open_ai_paths_bruteforce(f) == 1
    assert open_ai_paths(f) == 1


def test_demo_reduced_flow_paths():
    assert open_ai_paths_bruteforce(demo_reduced_flow()) == 2
    assert open_ai_paths(demo_reduced_flow()) == 2


def test_dp_matches_bruteforce_on_corpus():
    for f in small_flows():
        assert open_ai_paths(f) == open_ai_paths_bruteforce(f)


def test_bruteforce_cap():
    with pytest.raises(CapExceeded):
        open_ai_paths_bruteforce(cubic_flow(5), cap=25)


def test_path_count_equals_identity_count_for_ks_proofs():
    from deepflow.derivation import check
    from deepflow.lift import normalize_proof

    p = normalize_proof(demo_proof())
    f = extract(p).flow
    assert open_ai_paths(f) == node_count(f, AID)


def test_dimensions_examples():
    single = FlowBuilder()
    i = single.node(AID)
    single.edge((i, 0), None)
    single.edge((i, 1), None)
    assert dimensions(single.build()) == (0, 1, 1)
    length3, width3, breadth3 = dimensions(cubic_flow(3))
    assert width3 == 2 and breadth3 == 1
    # tower length grows linearly: fit on n=1,2 and check n=3,4
    l1 = dimensions(tower_flow(1))[0]
    l2 = dimensions(tower_flow(2))[0]
    slope = l2 - l1
    assert slope > 0
    for n in (3, 4):
        assert dimensions(tower_flow(n))[0] == l1 + slope * (n - 1)
    # cubic length is linear in n as well
    lc2 = dimensions(cubic_flow(2))[0]
    lc3 = dimensions(cubic_flow(3))[0]
    assert dimensions(cubic_flow(4))[0] == lc3 + (lc3 - lc2)


def test_cyclic_ai_path_graph_diverges():
    # an identity whose two out-edges both enter one cut: a valid flow whose
    # ai-paths run round the loop for ever
    fb = FlowBuilder()
    i = fb.node(AID)
    c = fb.node(AIU)
    fb.edge((i, 0), (c, 0))
    fb.edge((i, 1), (c, 1))
    f = fb.build()
    for measure in (open_ai_paths, dimensions, metrics_record):
        for impl in (measure, getattr(reference_metrics, measure.__name__)):
            with pytest.raises(PathCountDivergence, match="ai-path state graph is cyclic"):
                impl(f)


def assert_matches_reference(f):
    assert metrics_record(f) == reference_metrics.metrics_record(f)
    assert open_ai_paths(f) == reference_metrics.open_ai_paths(f)
    assert dimensions(f) == reference_metrics.dimensions(f)


@given(st.integers(0, 2**32), st.integers(2, 10))
@settings(max_examples=60, deadline=None)
def test_metrics_match_reference_on_random_proofs(seed, steps):
    f = extract(random_ks_plus_proof(random.Random(seed), steps=steps)).flow
    dual = flip_dual(f)
    # normal forms leave edge ids sparse, so state numbers differ from ids
    for g in (f, dual, normalize(f, measures=False)[0], normalize(dual, measures=False)[0]):
        assert_matches_reference(g)


def test_metrics_match_reference_on_small_cases():
    loose = FlowBuilder()
    loose.edge()  # pending at both ends: a component of its own
    w = loose.node(AWD)
    loose.edge((w, 0), None)
    i = loose.node(AID)
    loose.edge((i, 0), None)
    loose.edge((i, 1), None)
    f = loose.build()
    assert dimensions(f)[2] == 3
    for g in (AtomicFlow({}, {}), AtomicFlow({}, {0: (None, None)}), f, max_ai_paths_flow(), demo_reduced_flow()):
        assert_matches_reference(g)


def test_contraction_loops_example():
    f, names = contraction_loop_flow()
    loops = set(contraction_loops(f))
    assert loops == {(names["u"], names["y"]), (names["v"], names["z"])}
    broken, _ = contraction_loop_flow(star=False)
    assert contraction_loops(broken) == []
    assert contraction_loops(demo_reduced_flow()) == []


def test_edge_weights():
    f = demo_reduced_flow()
    for e in f.pending_bottom():
        assert edge_weight(f, e) == 1
    for n in (2, 3, 4, 5):
        c = cubic_flow(n)
        tops = cubic_topmost_edges(c)
        weights = [edge_weight(c, e) for e in tops]
        assert weights == list(range(1, n + 1)) + list(range(n, 0, -1))
    # above a cocontraction the weight is the sum of the two lower weights
    fb = FlowBuilder()
    u = fb.node(ACU)
    e0 = fb.edge(None, (u, 0))
    e1 = fb.edge((u, 0), None)
    e2 = fb.edge((u, 1), None)
    g = fb.build()
    assert edge_weight(g, e0) == edge_weight(g, e1) + edge_weight(g, e2)
    with pytest.raises(KeyError):
        edge_weight(g, 99)


def test_node_count():
    assert node_count(AtomicFlow({}, {}), AID) == 0
    assert node_count(extract(demo_proof()).flow, AID) == 2
    for n in (2, 4):
        assert node_count(tower_flow(n), ACU) == n


def test_cubic_family_counts():
    for n in (2, 3, 4, 5):
        c = cubic_flow(n)
        expected = sum(i * i for i in range(1, n + 1))
        assert open_ai_paths(c) == expected
        assert open_ai_paths_bruteforce(c, cap=40) == expected
        assert open_ai_paths(c) <= c.n_edges**3
        assert contraction_loops(c) == []
        for e in c.edges:
            assert edge_weight(c, e) <= c.n_edges


def test_loop_free_cube_bound_on_corpus():
    for _, f in ks_plus_proof_flows(20, max_edges=18, seed=77):
        if contraction_loops(f):
            continue
        assert open_ai_paths(f) <= max(1, f.n_edges) ** 3
        for e in f.edges:
            assert edge_weight(f, e) <= f.n_edges


def test_normal_form_size_bound():
    for _, f in ks_plus_proof_flows(25, max_edges=20, seed=3):
        nf, _ = normalize(f)
        assert nf.n_edges <= f.n_edges + 4 * open_ai_paths(f)


def test_metrics_record_schema():
    rec = metrics_record(extract(demo_proof()).flow)
    assert set(rec) == {
        "edges",
        "nodes",
        "length",
        "width",
        "breadth",
        "open_ai_paths",
        "contraction_loops",
    }
    assert rec["nodes"]["aid"] == 2
    assert isinstance(rec["open_ai_paths"], str)
    zero = metrics_record(AtomicFlow({}, {}))
    assert zero["edges"] == 0 and zero["length"] == 0 and zero["breadth"] == 0

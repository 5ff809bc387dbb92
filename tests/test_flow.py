import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from deepflow.derivation import (
    ACD,
    ACU,
    AID,
    AIU,
    AWD,
    AWU,
    S,
    STEP,
    leaf,
    size,
    step,
)
from corpus import ring_layers
from deepflow.derivation import dualize
from deepflow.families import demo_proof, max_ai_paths_flow, php_refutation, random_derivation, random_ks_plus_proof, res_chain
from deepflow.flow import (
    ARITY,
    AtomicFlow,
    FlowBuilder,
    canonical_key,
    extract,
    flip_dual,
    from_json,
    iso,
    path_of,
    to_dot,
    to_json,
    validate,
)
from deepflow.lift import normalize_proof
from deepflow.resolution import simulate
from deepflow.simulations import php_ksplus
from reference_extract import reference_extract
from deepflow.formula import conj, disj, lit, neg, top

a, b = lit("a"), lit("b")
ab = neg(a)


def test_extract_identity_step():
    ext = extract(step(AID, leaf(top), leaf(disj(a, ab))))
    assert ext.flow.kind_census() == {AID: 1}
    assert len(ext.flow.pending_bottom()) == 2
    assert not ext.flow.pending_top()


def test_extract_leaf():
    ext = extract(leaf(conj(a, b)))
    assert ext.flow.kind_census() == {}
    assert ext.flow.n_edges == 2
    assert ext.flow.pending_top() == ext.flow.pending_bottom()


def test_extract_demo_proof_census():
    ext = extract(demo_proof())
    assert ext.flow.kind_census() == {AID: 2, ACD: 2, ACU: 1, AWD: 1, AWU: 1}


def test_extract_requires_checked():
    from deepflow.derivation import CheckFailure

    bad = step(AID, leaf(top), leaf(disj(a, b)))  # not a dual pair
    with pytest.raises(CheckFailure):
        extract(bad)


def test_extract_of_a_checked_proof_does_not_walk_it_again(monkeypatch):
    from deepflow import derivation

    p = php_ksplus(2, "F")  # checked when built

    def walk(*args, **kwargs):
        raise AssertionError("bottom_up walked the derivation")

    monkeypatch.setattr(derivation, "bottom_up", walk)
    assert extract(p).flow.n_edges > 0
    with pytest.raises(AssertionError, match="walked"):
        extract(step(AID, leaf(top), leaf(disj(a, neg(a)))))  # a fresh one is walked


def test_occurrence_map_total():
    d = demo_proof()
    ext = extract(d)
    occs = set()
    for occ in ext.segments(list(ext.flow.edges)).values():
        for p, i in occ:
            ref = (path_of(p), i)
            assert ref not in occs
            occs.add(ref)
    assert len(occs) == size(d)
    # every node's path leads to the step it came from
    for n in ext.flow.nodes:
        node = d
        for branch in path_of(ext.node_path(n)):
            node = node.a if branch == 0 else node.b
        assert node.kind == STEP and node.rule == ext.flow.nodes[n]


def assert_invalid(nodes, edges, code):
    """validate reports code for the graph, and constructing it raises a
    ValueError naming code; returns the codes validate reports."""
    codes = [c for c, _ in validate(nodes, edges).errors]
    assert code in codes
    with pytest.raises(ValueError, match=code):
        AtomicFlow(nodes, edges)
    return codes


def test_validate_errors():
    ok = extract(demo_proof()).flow
    report = validate(ok.nodes, ok.edges)
    assert report.ok and (report.ins, report.outs) == (ok.ins, ok.outs)
    for e, (s, t) in ok.edges.items():
        assert s is None or ok.outs[s[0]][s[1]] == e
        assert t is None or ok.ins[t[0]][t[1]] == e
    # missing second out-edge
    assert assert_invalid({0: AID}, {1: ((0, 0), None)}, "arity-violation")[0] == "arity-violation"
    cyc = (
        {0: ACD, 1: ACU},
        {
            2: ((0, 0), (1, 0)),
            3: ((1, 0), (0, 0)),
            4: ((1, 1), (0, 1)),
        },
    )
    assert_invalid(*cyc, "cycle-found")


def test_validate_reports_dangling_ports_and_unknown_kinds():
    # an identity with one edge to a node that does not exist
    assert_invalid({0: AID}, {1: ((0, 0), (7, 0))}, "dangling-port")
    assert assert_invalid({0: "zzz", 1: AWD}, {2: ((1, 0), (0, 0))}, "unknown-kind") == ["unknown-kind"]


def test_flows_are_validated_once_when_made(monkeypatch):
    import deepflow.flow as flow_module
    from deepflow.metrics import contraction_loops, dimensions, metrics_record, open_ai_paths
    from deepflow.rewrite import _MutFlow, apply_redex, find_redexes, normalize, termination_measure

    proof = demo_proof()
    f = extract(proof).flow
    (redex, *_) = find_redexes(f)
    calls = []
    real_validate = flow_module.validate

    def counted(nodes, edges):
        calls.append(len(edges))
        return real_validate(nodes, edges)

    monkeypatch.setattr(flow_module, "validate", counted)

    def validations(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    for fn in (metrics_record, open_ai_paths, dimensions, contraction_loops, find_redexes, termination_measure):
        assert validations(fn, f) == 0, fn.__name__
    assert validations(normalize, f) == 1
    assert validations(apply_redex, f, redex) == 1
    assert validations(extract, proof) == 1
    assert validations(flip_dual, f) == 1
    m = _MutFlow(f)
    m.del_edge(redex.edge)
    calls.clear()
    with pytest.raises(ValueError, match="invalid flow: .*arity-violation"):
        m.freeze()
    assert calls == [len(f.edges) - 1]


def test_iso_examples():
    f = extract(demo_proof()).flow
    assert iso(f, f)
    fb1 = FlowBuilder()
    i = fb1.node(AID)
    c = fb1.node(ACD)
    fb1.edge((i, 0), (c, 0))
    fb1.edge((i, 1), (c, 1))
    fb1.edge((c, 0), None)
    f1 = fb1.build()
    fb2 = FlowBuilder()
    i = fb2.node(AID)
    c = fb2.node(ACD)
    fb2.edge((i, 0), (c, 1))
    fb2.edge((i, 1), (c, 0))
    fb2.edge((c, 0), None)
    assert iso(f1, fb2.build())  # in-ports are unordered
    fb3 = FlowBuilder()
    w = fb3.node(AWD)
    fb3.edge((w, 0), None)
    fb4 = FlowBuilder()
    w = fb4.node(AWU)
    fb4.edge(None, (w, 0))
    assert not iso(fb3.build(), fb4.build())


def test_iso_decides_large_flows():
    fb = FlowBuilder()
    for _ in range(45):
        w = fb.node(AWD)
        fb.edge((w, 0), None)
    big = fb.build()
    assert iso(big, big)
    fb.edge(None, (fb.node(AWU), 0))
    assert not iso(big, fb.build())


def test_iso_tells_one_ring_from_two():
    # every node of both flows has the same refinement colour
    for k in (6, 24):
        one, two = ring_layers((k,)), ring_layers((k // 2, k // 2))
        assert iso(one, ring_layers((k,))) and iso(two, ring_layers((k // 2, k // 2)))
        assert not iso(one, two)
    assert not iso(ring_layers((12,)), ring_layers((4, 8)))
    # connected, so the components cannot tell them apart either
    for k in (6, 12):
        assert not iso(ring_layers((k,), (k,)), ring_layers((k // 2, k // 2), (k,)))
        assert iso(ring_layers((k // 2, k // 2), (k,)), ring_layers((k // 2, k // 2), (k,)))


def renumbered(f, rng):
    """f with fresh node and edge ids, shuffled dict order and a random half
    of the unordered port pairs swapped."""
    ids = rng.sample(range(10 * (len(f.nodes) + len(f.edges))), len(f.nodes) + len(f.edges))
    node_id = dict(zip(f.nodes, ids))
    edge_id = dict(zip(f.edges, ids[len(f.nodes) :]))
    swapped = {n for n in f.nodes if rng.random() < 0.5}

    def end(x, side):
        if x is None:
            return None
        n, port = x
        if ARITY[f.nodes[n]][side] == 2 and n in swapped:
            port = 1 - port
        return node_id[n], port

    nodes = [(node_id[n], k) for n, k in f.nodes.items()]
    edges = [(edge_id[e], (end(s, 1), end(t, 0))) for e, (s, t) in f.edges.items()]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    g = AtomicFlow(nodes, edges)
    assert g.edges != f.edges
    return g


def test_canonical_key_ignores_ids_and_unordered_ports():
    from deepflow.rewrite import normalize
    from deepflow.simulations import php_ksplus

    php = normalize(extract(php_ksplus(2, "F")).flow, measures=False)[0]
    # refinement leaves cells that mix the two top rings, so the search
    # must not depend on which member it individualises first
    rings = ring_layers((2, 4), (6,))
    rng = random.Random(3)
    for f in (php, rings, rings, rings, rings):
        g = renumbered(f, rng)
        assert canonical_key(g) == canonical_key(f)
        assert hash(canonical_key(g)) == hash(canonical_key(f))


def test_to_dot():
    empty = AtomicFlow({}, {})
    text = to_dot(empty)
    assert text.startswith("digraph") and text.rstrip().endswith("}")
    single = extract(step(AID, leaf(top), leaf(disj(a, ab)))).flow
    dot = to_dot(single)
    assert dot.count("shape=point") == 2 and dot.count("label=\"aid\"") == 1
    demo = to_dot(extract(demo_proof()).flow)
    assert sum(demo.count(f'label="{k}"') for k in (AID, AWD, ACD, AIU, AWU, ACU)) == 7


def test_json_round_trip():
    f = extract(demo_proof()).flow
    g = from_json(to_json(f))
    assert g.nodes == f.nodes and g.edges == f.edges


def test_from_json_rejects_malformed_flows():
    def text(nodes, edges):
        return json.dumps(
            {
                "nodes": [{"id": i, "kind": k} for i, k in nodes],
                "edges": [{"id": i, "from": s, "to": t} for i, s, t in edges],
            }
        )

    with pytest.raises(ValueError, match="unknown-kind"):
        from_json(text([(0, "zzz")], []))
    with pytest.raises(ValueError, match="dangling-port"):
        from_json(text([(0, AWD)], [(1, [0, 0], [7, 0])]))
    with pytest.raises(ValueError, match="duplicate node id 0"):
        from_json(text([(0, AWD), (0, AWU)], [(1, [0, 0], [0, 0])]))
    with pytest.raises(ValueError, match="duplicate edge id 2"):
        from_json(text([(0, AWD), (1, AWU)], [(2, [0, 0], [1, 0]), (2, [0, 0], [1, 0])]))
    with pytest.raises(ValueError, match="malformed"):
        from_json('{"nodes": []}')


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats()
    | st.sampled_from(["pending-top", "pending-bottom", "aid", "acu", "", "0", float("inf"), float("nan")]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(["id", "kind", "from", "to", "nodes", "edges"]), kids, max_size=3),
    max_leaves=6,
)


def _mutate(doc, path, value):
    """doc with value put at path.  Each step of the path picks a key or an
    index modulo the container's size; the path ends early at a value that
    is not a container or is empty."""
    if not path or not isinstance(doc, (dict, list)) or not doc:
        return value
    key = path[0]
    if isinstance(doc, list):
        key %= len(doc)
        out = list(doc)
    else:
        key = sorted(doc)[key % len(doc)]
        out = dict(doc)
    out[key] = _mutate(doc[key], path[1:], value)
    return out


@given(
    st.sampled_from([max_ai_paths_flow(), extract(demo_proof()).flow]),
    st.lists(st.tuples(st.lists(st.integers(0, 40), min_size=1, max_size=4), _JSON), min_size=1, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_from_json_raises_only_value_errors_on_mutated_documents(flow, mutations):
    doc = json.loads(to_json(flow))
    for path, value in mutations:
        doc = _mutate(doc, path, value)
    try:
        from_json(json.dumps(doc))
    except ValueError:
        pass


@pytest.mark.parametrize(
    "text", ["[" * 100000, '{"nodes": [{"id": 1e400, "kind": "aid"}], "edges": []}'], ids=["deep", "infinite-id"]
)
def test_from_json_rejects_deep_nesting_and_infinite_ids(text):
    with pytest.raises(ValueError, match="malformed"):
        from_json(text)


def test_dualize_flips_flow():
    rng = random.Random(13)
    from deepflow.derivation import dualize

    for _ in range(10):
        d = random_derivation(rng, steps=7)
        f = extract(d).flow
        g = extract(dualize(d)).flow
        assert iso(g, flip_dual(f))


def test_proof_flows_have_no_pending_top():
    rng = random.Random(7)
    for _ in range(15):
        p = random_ks_plus_proof(rng, steps=6)
        ext = extract(p)
        assert not ext.flow.pending_top()
        assert AIU not in ext.flow.kind_census()
        assert ext.flow.n_edges <= size(p)


def test_switch_threading():
    # a switch moves occurrences without creating nodes
    d = step(S, leaf(conj(a, disj(b, ab))), leaf(disj(conj(a, b), ab)))
    ext = extract(d)
    assert ext.flow.kind_census() == {}
    assert ext.flow.n_edges == 3


def assert_matches_reference(d):
    """extract gives the reference kernel's flow, node paths and occurrences."""
    ext = extract(d)
    flow, segments, node_paths = reference_extract(d)
    assert to_json(ext.flow) == to_json(flow)
    assert list(ext.flow.nodes) == list(flow.nodes)
    assert list(ext.flow.edges) == list(flow.edges)
    assert {n: path_of(ext.node_path(n)) for n in ext.flow.nodes} == node_paths
    occurrences = ext.segments(list(ext.flow.edges))
    assert {e: {(path_of(p), i) for p, i in occ} for e, occ in occurrences.items()} == segments
    return ext


@given(st.integers(0, 2**32), st.integers(2, 10))
@settings(max_examples=60, deadline=None)
def test_extract_matches_reference_on_random_proofs(seed, steps):
    p = random_ks_plus_proof(random.Random(seed), steps=steps)
    assert_matches_reference(p)
    # upside down, the proof has up steps and cuts
    assert_matches_reference(dualize(p))


def test_extract_matches_reference_below_structural_steps():
    # the demo proof has identity steps whose lower parts hold further
    # structural steps, so post-order differs from step order there
    for d in (demo_proof(), dualize(demo_proof())):
        assert_matches_reference(d)


@pytest.mark.parametrize("variant", ["F", "O", "OF"])
def test_extract_matches_reference_on_php(variant):
    p = php_ksplus(2, variant)
    assert_matches_reference(p)
    assert_matches_reference(normalize_proof(p))


@pytest.mark.parametrize(
    "refutation",
    [lambda: res_chain(3), lambda: res_chain(24), lambda: php_refutation(), lambda: php_refutation(multiset=True)],
    ids=["chain-3", "chain-24", "php", "php-multiset"],
)
def test_extract_matches_reference_on_resolution(refutation):
    ks, ks_plus, r_der = simulate(*refutation(), with_proofs=True)
    for d in (ks, ks_plus, r_der):
        assert_matches_reference(d)

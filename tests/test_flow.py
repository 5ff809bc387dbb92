import json
import random

import pytest

from deepflow.derivation import (
    ACD,
    ACU,
    AID,
    AIU,
    AWD,
    AWU,
    S,
    leaf,
    size,
    step,
)
from deepflow.families import demo_proof, random_derivation, random_ks_plus_proof
from deepflow.flow import (
    AtomicFlow,
    FlowBuilder,
    IsoCapExceeded,
    extract,
    flip_dual,
    from_json,
    iso,
    to_dot,
    to_json,
    validate,
)
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


def test_occurrence_map_total():
    d = demo_proof()
    ext = extract(d)
    occs = set()
    for e in ext.flow.edges:
        for ref in ext.segment(e):
            assert ref not in occs
            occs.add(ref)
    assert len(occs) == size(d)
    # every node has a step path
    for n in ext.flow.nodes:
        assert isinstance(ext.node_path(n), tuple)


def test_validate_errors():
    ok = extract(demo_proof()).flow
    assert validate(ok).ok
    broken = AtomicFlow({0: AID}, {1: ((0, 0), None)})  # missing second out-edge
    report = validate(broken)
    assert not report.ok and report.errors[0][0] == "arity-violation"
    cyc = AtomicFlow(
        {0: ACD, 1: ACU},
        {
            2: ((0, 0), (1, 0)),
            3: ((1, 0), (0, 0)),
            4: ((1, 1), (0, 1)),
        },
    )
    assert any(code == "cycle-found" for code, _ in validate(cyc).errors)


def test_validate_reports_dangling_ports_and_unknown_kinds():
    # an identity with one edge to a node that does not exist
    dangling = AtomicFlow({0: AID}, {1: ((0, 0), (7, 0))})
    assert "dangling-port" in [code for code, _ in validate(dangling).errors]
    unknown = AtomicFlow({0: "zzz", 1: AWD}, {2: ((1, 0), (0, 0))})
    assert [code for code, _ in validate(unknown).errors] == ["unknown-kind"]


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


def test_iso_cap():
    fb = FlowBuilder()
    for _ in range(45):
        w = fb.node(AWD)
        fb.edge((w, 0), None)
    big = fb.build()
    with pytest.raises(IsoCapExceeded):
        iso(big, big)
    assert iso(big, big, cap=100)


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


def test_dualize_flips_flow():
    rng = random.Random(13)
    from deepflow.derivation import dualize

    for _ in range(10):
        d = random_derivation(rng, steps=7)
        f = extract(d).flow
        g = extract(dualize(d)).flow
        assert iso(g, flip_dual(f), cap=80)


def test_proof_flows_have_no_pending_top():
    rng = random.Random(7)
    for _ in range(15):
        p = random_ks_plus_proof(rng, steps=6)
        ext = extract(p, assume_checked=True)
        assert not ext.flow.pending_top()
        assert AIU not in ext.flow.kind_census()
        assert ext.flow.n_edges <= size(p)


def test_switch_threading():
    # a switch moves occurrences without creating nodes
    d = step(S, leaf(conj(a, disj(b, ab))), leaf(disj(conj(a, b), ab)))
    ext = extract(d)
    assert ext.flow.kind_census() == {}
    assert ext.flow.n_edges == 3

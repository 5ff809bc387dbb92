"""Known-answer tests of the benchmark's own checks and input generators.

Run with the repository's test command, or alone:
    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import random

import pytest

import checks
import run
import tracer
import workloads
from checks import FlowGraph
from deepflow.derivation import dprint, size
from deepflow.families import (
    critical_pair_flows,
    cubic_flow,
    demo_proof,
    demo_reduced_flow,
    max_ai_paths_flow,
    tower_flow,
)
from deepflow.flow import to_json
from deepflow.formula import fprint
from deepflow.resolution import check_res, parse_res
from deepflow.simulations import php_formula

# ports (inputs, outputs) of each node kind
PORTS = {"aid": (0, 2), "awd": (0, 1), "acd": (2, 1), "aiu": (2, 0), "awu": (1, 0), "acu": (1, 2)}


def two_node_flow(src_kind, tgt_kind):
    """Flow JSON of two nodes joined by one edge, every other port pending."""
    nodes = [{"id": 0, "kind": src_kind}, {"id": 1, "kind": tgt_kind}]
    edges = [{"id": 0, "from": [0, 0], "to": [1, 0]}]
    for node, kind in enumerate((src_kind, tgt_kind)):
        ins, outs = PORTS[kind]
        for port in range(ins):
            if (node, port) != (1, 0):
                edges.append({"id": len(edges), "from": "pending-top", "to": [node, port]})
        for port in range(outs):
            if (node, port) != (0, 0):
                edges.append({"id": len(edges), "from": [node, port], "to": "pending-bottom"})
    return {"nodes": nodes, "edges": edges}


def test_redex_scanner_knows_the_eight_pairs():
    found = set()
    for src in PORTS:
        for tgt in PORTS:
            if PORTS[src][1] and PORTS[tgt][0]:
                if FlowGraph(two_node_flow(src, tgt)).redexes() == [0]:
                    found.add((src, tgt))
    assert found == checks.REDEX_PAIRS and len(found) == 8


def test_redex_scanner_on_known_flows():
    assert FlowGraph(to_json(demo_reduced_flow())).redexes() == []
    # the first critical pair: two weakenings into one contraction
    assert len(FlowGraph(to_json(critical_pair_flows()[0])).redexes()) == 2
    assert all(FlowGraph(to_json(f)).redexes() for f in critical_pair_flows())


def test_open_ai_path_counter_known_answers():
    assert FlowGraph(to_json(max_ai_paths_flow())).open_ai_paths() == 5
    for n in range(1, 9):
        assert FlowGraph(to_json(cubic_flow(n))).open_ai_paths() == n * (n + 1) * (2 * n + 1) // 6
    assert FlowGraph(to_json(tower_flow(4))).open_ai_paths() == 0


def test_formula_reader_and_truth_table():
    f = checks.parse_formula("((a&~b)|(~a|b))")
    assert f == ("or", ("and", ("lit", "a", False), ("lit", "b", True)), ("or", ("lit", "a", True), ("lit", "b", False)))
    assert checks.valid_by_truth_table(f)
    assert not checks.valid_by_truth_table(checks.parse_formula("(a|b)"))
    assert checks.canon_ac(checks.parse_formula("((a|b)|c)")) == checks.canon_ac(checks.parse_formula("(c|(b|a))"))
    assert checks.canon_ac(checks.parse_formula("(a|b)")) != checks.canon_ac(checks.parse_formula("(a&b)"))


@pytest.mark.parametrize("n,variant", [(1, "O"), (2, "F"), (2, "O"), (2, "OF")])
def test_pigeonhole_is_valid_and_matches_the_program(n, variant):
    own = checks.pigeonhole(n, variant)
    assert checks.valid_by_truth_table(own)
    program = checks.parse_formula(fprint(php_formula(n, variant)))
    assert checks.canon_ac(own) == checks.canon_ac(program)


def test_pigeonhole_without_collisions_is_not_valid():
    parts = []
    todo = [checks.pigeonhole(2, "F")]
    while todo:
        g = todo.pop()
        if g[0] == "or":
            todo += [g[1], g[2]]
        else:
            parts.append(g)
    rows = [p for p in parts if p[1][0] == "lit" and p[1][2]]  # rows start with a negated variable
    assert len(rows) == 3
    assert not checks.valid_by_truth_table(checks.disj_list(rows))


def test_dprint_reader_known_counts():
    text = "(step aid (form T) (form (a|~a)))\n"
    proof = checks.read_proof(text)
    assert proof.premiss == checks.TOP
    assert proof.conclusion == checks.parse_formula("(a|~a)")
    assert dict(proof.steps) == {"aid": 1}
    assert proof.atoms == 2


def test_dprint_reader_on_the_demo_proof():
    d = demo_proof()
    proof = checks.read_proof(dprint(d))
    # two identities, two contractions, one cocontraction, one weakening of each polarity
    census = {k: proof.steps[k] for k in checks.NODE_KINDS if proof.steps[k]}
    assert census == {"aid": 2, "acd": 2, "acu": 1, "awd": 1, "awu": 1}
    assert proof.atoms == size(d)
    assert proof.premiss == checks.TOP


def test_unsatisfiable():
    chain = checks.axioms_of_res(workloads.chain_refutation(6))
    assert checks.unsatisfiable(chain)
    assert not checks.unsatisfiable(chain[:-1])
    assert not checks.unsatisfiable([[("x", False)], [("y", True)]])


def test_chain_refutation_is_a_refutation():
    pi, axioms = parse_res(workloads.chain_refutation(8))
    report = check_res(pi, axioms)
    assert report.ok and report.is_refutation


@pytest.mark.parametrize("seed", range(8))
def test_random_refutations(seed):
    text = workloads.random_refutation(random.Random(seed))
    pi, axioms = parse_res(text)
    report = check_res(pi, axioms)
    assert report.ok and report.is_refutation and pi.tree_like
    assert len(axioms) == 2**workloads.REFUTATION_DEPTH
    assert len({frozenset(t.text() for t in c.elements) for c in axioms}) == len(axioms)
    assert checks.unsatisfiable(checks.axioms_of_res(text))
    # every line but the last is used exactly once
    uses = [tok for line in text.splitlines() if line.startswith("r ") for tok in line.split()[4:6]]
    ids = [line.split()[1].rstrip(":") for line in text.splitlines()[1:]]
    assert sorted(uses) == sorted(ids[:-1])


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)

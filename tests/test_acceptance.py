"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary lines.  The pipelines record every flow they normalize so the final
size-bound criterion covers the whole corpus produced by the run.
"""

import itertools
import math
import random
import time

import pytest

from corpus import ks_plus_proof_flows
from deepflow.derivation import (
    ACD,
    ACU,
    AID,
    KS,
    KS_PLUS,
    SKS,
    check,
    conclusion,
    dualize,
    endpoints,
    is_proof,
    rule_census,
    size,
)
from deepflow.families import (
    contraction_loop_flow,
    critical_pair_flows,
    cubic_flow,
    cubic_topmost_edges,
    demo_reduced_flow,
    demo_proof,
    max_ai_paths_flow,
    php_refutation,
    random_derivation,
    random_ks_plus_proof,
    res_chain,
    tower_flow,
)
from deepflow.flow import extract, iso
from deepflow.formula import evaluate, variables
from deepflow.lift import normalize_proof
from deepflow.metrics import (
    contraction_loops,
    dimensions,
    edge_weight,
    node_count,
    open_ai_paths,
    open_ai_paths_bruteforce,
)
from deepflow.resolution import (
    AndStep,
    Axiom,
    Res,
    ResDerivation,
    clause_of,
    simulate,
    term_of,
)
from deepflow.rewrite import apply_redex, explore_reductions, find_redexes, normalize
from deepflow.simulations import php_formula, php_ksplus, random_tautology, truthtable_ksplus

# flows recorded by the pipeline criteria: (initial KS+ proof flow, normal form)
NORMALIZED = []
# flows of generated KS proofs, for the path = identity-count law
KS_PROOF_FLOWS = []


def _record(proof_ksplus, proof_ks):
    f0 = extract(proof_ksplus).flow
    f1 = extract(proof_ks).flow
    NORMALIZED.append((f0, f1))
    KS_PROOF_FLOWS.append(f1)


def _report(num, detail):
    print(f"\nACCEPTANCE {num}: PASS - {detail}")


def test_criterion_1_kernel_soundness():
    t0 = time.time()
    rng = random.Random(2024)
    pool = ("a", "b", "c", "d", "e", "f")
    checked = 0
    for i in range(500):
        if i % 3 == 2:
            d = dualize(random_ks_plus_proof(rng, variables=pool[: rng.randint(2, 4)], steps=rng.randint(2, 6)))
        else:
            d = random_derivation(rng, variables=pool[: rng.randint(2, 6)], steps=rng.randint(2, 8))
        assert check(d, SKS).ok
        p, q = endpoints(d)
        vs = sorted(variables(p) | variables(q))
        assert len(vs) <= 6
        for bits in itertools.product([False, True], repeat=len(vs)):
            alpha = dict(zip(vs, bits))
            if evaluate(p, alpha):
                assert evaluate(q, alpha), "premiss does not entail conclusion"
        checked += 1
    assert checked == 500
    _report(1, f"500 random SKS derivations sound under exhaustive evaluation ({time.time()-t0:.1f}s)")


def test_criterion_2_confluence_and_termination():
    t0 = time.time()
    for i, f in enumerate(critical_pair_flows(), 1):
        normals = explore_reductions(f)
        assert len(normals) == 1, f"critical pair {i} is not confluent"
    flows = ks_plus_proof_flows(300, max_edges=20, seed=303, steps=8)
    for _, f in flows:
        normals = explore_reductions(f, cap=60000)
        assert len(normals) == 1
    _report(2, f"9 critical pairs and 300 random KS+ proof flows reach a unique normal form ({time.time()-t0:.1f}s)")


def test_criterion_3_strategy_separation():
    for n in range(1, 11):
        f = tower_flow(n)
        _, wk_trace = normalize(f, measures=False)
        assert len(wk_trace) <= 3 * n + 3
        _, cont_trace = normalize(f, strategy="cont-first", measures=False)
        assert len(cont_trace) >= 2**n - 1
    _report(3, "tower 1..10: weakening-first length <= 3n+3, cocontraction-first >= 2^n - 1")


def test_criterion_4_path_count_laws():
    t0 = time.time()
    from corpus import small_flows

    corpus = small_flows()
    corpus.extend(f for _, f in ks_plus_proof_flows(60, max_edges=25, seed=404))
    rng = random.Random(99)
    for _ in range(20):
        d = random_derivation(rng, steps=6)
        f = extract(d).flow
        if f.n_edges <= 25:
            corpus.append(f)
    assert len(corpus) >= 100
    for f in corpus:
        assert open_ai_paths(f) == open_ai_paths_bruteforce(f)

    # one-step reductions preserve the brute-force count
    preserved = 0
    for f in corpus:
        base = open_ai_paths_bruteforce(f)
        for r in find_redexes(f):
            g = apply_redex(f, r)
            if g.n_edges <= 25:
                assert open_ai_paths_bruteforce(g) == base
                preserved += 1
    assert preserved >= 50

    # KS proof flows: open path count equals the identity count
    ks_flows = list(KS_PROOF_FLOWS)
    for p, _ in ks_plus_proof_flows(20, max_edges=18, seed=405):
        ks_flows.append(extract(normalize_proof(p)).flow)
    for f in ks_flows:
        assert open_ai_paths(f) == node_count(f, AID)
    _report(4, f"DP equals brute force on {len(corpus)} flows; reductions preserve counts; "
               f"KS-proof paths equal identity counts ({time.time()-t0:.1f}s)")


def test_criterion_5_worked_examples():
    f = extract(demo_proof()).flow
    nf, _ = normalize(f)
    assert nf.kind_census() == {AID: 2, ACD: 1}
    assert iso(nf, demo_reduced_flow())
    proof = normalize_proof(demo_proof())
    assert iso(extract(proof).flow, demo_reduced_flow())
    assert open_ai_paths(max_ai_paths_flow()) == 5
    loops_flow, names = contraction_loop_flow()
    assert set(contraction_loops(loops_flow)) == {
        (names["u"], names["y"]),
        (names["v"], names["z"]),
    }
    _report(5, "demo proof reduces to {ai-down: 2, ac-down: 1}; path showcase counts 5; loops are (u,y),(v,z)")


def test_criterion_6_cubic_bound():
    for n in range(2, 6):
        c = cubic_flow(n)
        bf = open_ai_paths_bruteforce(c, cap=40)
        assert open_ai_paths(c) == bf == sum(i * i for i in range(1, n + 1))
        assert bf <= c.n_edges**3
        weights = [edge_weight(c, e) for e in cubic_topmost_edges(c)]
        assert weights == list(range(1, n + 1)) + list(range(n, 0, -1))
    # tree-like resolution translations stay loop-free and inside the cube
    for n in (2, 4, 6):
        pi, axioms = res_chain(n)
        proof, ksplus, _ = simulate(pi, axioms, with_proofs=True)
        f = extract(ksplus).flow
        assert contraction_loops(f) == []
        assert open_ai_paths(f) <= f.n_edges**3
    _report(6, "cubic family matches brute force with weights 1..n,n..1; translations obey the cube bound")


def test_criterion_7_end_to_end_simulations():
    t0 = time.time()
    rng = random.Random(777)
    lengths = []
    for _ in range(100):
        tau = random_tautology(rng, max_vars=4)
        p = truthtable_ksplus(tau)
        lengths.append(dimensions(extract(p).flow)[0])
        ks = normalize_proof(p)
        assert check(ks, KS).ok and is_proof(ks)
        assert conclusion(ks) == tau
        _record(p, ks)
    assert max(lengths) <= 4
    ta = time.time()

    # (b) resolution corpora
    sizes = []
    for n in range(2, 13):
        pi, axioms = res_chain(n)
        proof, ksplus, rder = simulate(pi, axioms, with_proofs=True)
        assert check(proof, KS).ok
        assert contraction_loops(extract(ksplus).flow) == []
        in_size = sum(t.size for c in axioms for t in c.elements) + sum(
            1 for _ in pi.lines
        )
        sizes.append((in_size, size(proof)))
        _record(ksplus, proof)
    xs = [math.log(s) for s, _ in sizes]
    ys = [math.log(t) for _, t in sizes]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )
    assert slope <= 4, f"chain family grows with degree {slope:.2f}"

    for multiset in (False, True):
        pi, axioms = php_refutation(multiset=multiset)
        proof, ksplus, rder = simulate(pi, axioms, with_proofs=True)
        assert check(proof, KS).ok and is_proof(proof)
        if multiset:
            assert rule_census(rder).get(ACD, 0) == 0
            assert rule_census(ksplus).get(ACU, 0) == 0
        else:
            assert contraction_loops(extract(ksplus).flow) == []
        _record(ksplus, proof)

    # (c) Resolution(2) with a conjunction step
    pi = ResDerivation(mode="multiset", fmax=2)
    axioms = [clause_of("a"), clause_of("b"), clause_of("~a", "~b")]
    b0 = pi.add(Axiom(0))
    b1 = pi.add(Axiom(1))
    b2 = pi.add(Axiom(2))
    t1 = pi.add(AndStep(b0, b1))
    pi.add(Res(t1, b2, term_of("a*b")))
    proof, ksplus, _ = simulate(pi, axioms, with_proofs=True)
    assert check(proof, KS).ok
    _record(ksplus, proof)
    _report(
        7,
        f"100 table proofs (max flow length {max(lengths)}), chains n=2..12 "
        f"(fit degree {slope:.2f}), multiset/tree-like/Resolution(2) all land in KS "
        f"({ta-t0:.1f}s + {time.time()-ta:.1f}s)",
    )


def test_criterion_8_php_pipeline(monkeypatch):
    import deepflow.lift as lift

    checked = []
    real = lift.ensure_checked

    def counting(d, system):
        checked.append(system)
        return real(d, system)

    monkeypatch.setattr(lift, "ensure_checked", counting)
    t0 = time.time()
    sizes = {}
    lengths = []
    for n in (1, 2, 3):
        for v in ("F", "O"):
            p = php_ksplus(n, v)
            lengths.append(dimensions(extract(p).flow)[0])
            checked.clear()
            ks, report = normalize_proof(p, with_report=True)
            # the input, every pass at every size (n = 3 is above 20000 atoms), the result
            assert checked == [KS_PLUS] + [SKS] * report.passes + [KS]
            assert check(ks, KS).ok and is_proof(ks)
            assert conclusion(ks) == php_formula(n, v)
            sizes[(n, v)] = (size(p), size(ks))
            _record(p, ks)
    assert max(lengths) <= 6
    elapsed = time.time() - t0
    assert elapsed <= 600
    detail = "; ".join(
        f"{v}PHP_{n}: {a}->{b}" for (n, v), (a, b) in sorted(sizes.items())
    )
    _report(8, f"sizes {detail}; flow lengths <= {max(lengths)} ({elapsed:.0f}s)")


def test_criterion_9_normal_form_size_bound():
    corpus = list(NORMALIZED)
    for _, f in ks_plus_proof_flows(40, max_edges=22, seed=909):
        nf, _ = normalize(f, measures=False)
        corpus.append((f, nf))
    assert len(corpus) >= 150
    for f, nf in corpus:
        assert nf.n_edges <= f.n_edges + 4 * open_ai_paths(f)
    _report(9, f"|normal form| <= |flow| + 4*paths on {len(corpus)} normalized proof flows")

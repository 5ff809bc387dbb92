"""Shared corpus builders for the test suite (seeded, deterministic)."""

import random

from deepflow.derivation import ACD, ACU, dualize
from deepflow.families import (
    contraction_loop_flow,
    critical_pair_flows,
    cubic_flow,
    demo_reduced_flow,
    demo_proof,
    max_ai_paths_flow,
    random_derivation,
    random_ks_plus_proof,
    tower_flow,
)
from deepflow.flow import FlowBuilder, extract


def ks_plus_proof_flows(count, max_edges=20, seed=11, steps=7):
    """Random checked KS+ proofs with small flows; returns (proof, flow) pairs."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = random_ks_plus_proof(rng, steps=rng.randint(3, steps))
        ext = extract(p)
        if 0 < ext.flow.n_edges <= max_edges:
            out.append((p, ext.flow))
    return out


def sks_derivations(count, seed=23, steps=9, variables=("a", "b", "c")):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = random_derivation(rng, variables=variables, steps=rng.randint(2, steps))
        out.append(d)
        if len(out) < count:
            # flipping a proof upside down exercises the up fragment and cut
            p = random_ks_plus_proof(rng, steps=rng.randint(2, 6))
            out.append(dualize(p))
    return out[:count]


def small_flows(seed=5):
    """Curated flows plus random proof flows, all within the brute-force cap."""
    flows = [
        max_ai_paths_flow(),
        contraction_loop_flow()[0],
        contraction_loop_flow(star=False)[0],
        tower_flow(2),
        tower_flow(4),
        cubic_flow(2),
        cubic_flow(3),
        demo_reduced_flow(),
        extract(demo_proof()).flow,
    ]
    flows.extend(critical_pair_flows())
    flows.extend(f for _, f in ks_plus_proof_flows(30, max_edges=20, seed=seed))
    return [f for f in flows if f.n_edges <= 25]


def ring_layers(*layers):
    """Layers of rings, each layer a tuple of ring sizes with one total k.

    A ring of size m has m cocontractions and m contractions; cocontraction
    i feeds contractions i and i + 1 (mod m).  Contraction j of one layer
    feeds cocontraction j of the next; the first layer hangs from pending
    top ends and the last ends in pending bottom ends.  Colour refinement
    gives every flow with the same number of layers and the same k the same
    colours, so ring_layers((2 * m,)) and ring_layers((m, m)) differ in the
    number of components only, and ring_layers((2 * m,), (2 * m,)) and
    ring_layers((m, m), (2 * m,)) are connected.
    """
    fb = FlowBuilder()
    above = None
    for sizes in layers:
        ups, downs = [], []
        for m in sizes:
            u = [fb.node(ACU) for _ in range(m)]
            d = [fb.node(ACD) for _ in range(m)]
            for i in range(m):
                fb.edge((u[i], 0), (d[i], 0))
                fb.edge((u[i], 1), (d[(i + 1) % m], 1))
            ups += u
            downs += d
        for j, n in enumerate(ups):
            fb.edge(None if above is None else (above[j], 0), (n, 0))
        above = downs
    for n in above:
        fb.edge((n, 0), None)
    return fb.build()


# A tree-like refutation whose KS+ image had a contraction loop while every
# use of a line took a copy of it: the axiom clause ~x1 x3 was used on two
# branches and both copies of ~x1 merged later.
LOOPING_REFUTATION = """p res set tree
a 0: x1 x2
a 1: x1 ~x2
r 2 = res 0 1 on x2
a 3: ~x1 x3
a 4: x2 ~x3
r 5 = res 3 4 on x3
a 6: ~x1 x3
a 7: ~x2 ~x3
r 8 = res 6 7 on x3
r 9 = res 5 8 on x2
r 10 = res 2 9 on x1
"""

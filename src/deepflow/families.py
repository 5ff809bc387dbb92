"""Curated flow families and random generators for tests and benchmarks.

The tower family exhibits the exponential/linear strategy gap; the cubic
family realizes the worst case for path counts in loop-free flows.  The demo
proof, the maximal-path showcase and the contraction-loop showcase are exact
fixtures with known measurements.
"""

from __future__ import annotations

import random

from .derivation import (
    ACD,
    ACU,
    AID,
    AIU,
    AWD,
    AWU,
    KS_PLUS,
    M,
    S,
    SKS,
    check,
    compose,
    conclusion,
    glue,
    in_context,
    leaf,
    step,
    step_at,
    subformula_at,
)
from .flow import AtomicFlow, FlowBuilder
from .formula import Formula, bot, conj, disj, lit, neg, top
from .resolution import Axiom, Clause, Res, ResDerivation, term_of


def tower_flow(n: int) -> AtomicFlow:
    """A weakening above n cocontraction/contraction diamonds in series."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    fb = FlowBuilder()
    w = fb.node(AWD)
    prev = (w, 0)
    for _ in range(n):
        u = fb.node(ACU)
        d = fb.node(ACD)
        fb.edge(prev, (u, 0))
        fb.edge((u, 0), (d, 0))
        fb.edge((u, 1), (d, 1))
        prev = (d, 0)
    fb.edge(prev, None)
    return fb.build()


def cubic_flow(n: int) -> AtomicFlow:
    """n identities over two mirrored cocontraction ladders.

    The topmost edges have weights 1, 2, ..., n, n, ..., 1 from left to
    right and the open ai-path count is the sum of the first n squares.
    """
    if n < 1:
        raise ValueError("n must be positive")
    fb = FlowBuilder()
    ids = [fb.node(AID) for _ in range(n)]  # ids[0] is the outermost identity

    def ladder(port):
        # descending chain from the innermost identity; every cocontraction
        # drops one pending path and every contraction merges the next
        # identity, so ids[k]'s edge carries weight k+1
        cur = (ids[n - 1], port)
        for k in range(n - 1, 0, -1):
            u = fb.node(ACU)
            d = fb.node(ACD)
            fb.edge(cur, (u, 0))
            fb.edge((u, 1), None)
            fb.edge((u, 0), (d, 0))
            fb.edge((ids[k - 1], port), (d, 1))
            cur = (d, 0)
        fb.edge(cur, None)

    ladder(0)
    ladder(1)
    return fb.build()


def cubic_topmost_edges(flow: AtomicFlow):
    """The identity output edges ordered so weights read 1,2,...,n,n,...,1."""
    ids = sorted(n for n, k in flow.nodes.items() if k == AID)
    left = [flow.outs[n][0] for n in ids]
    right = [flow.outs[n][1] for n in reversed(ids)]
    return left + right


def max_ai_paths_flow() -> AtomicFlow:
    """A maximal-path showcase: five open paths, one blocked by a weakening;
    edge ids run 0..9."""
    na, nb, nc, nu, ni, nw = range(6)
    nodes = {na: AID, nb: AID, nc: ACD, nu: ACU, ni: AIU, nw: AWD}
    edges = {
        0: ((nw, 0), None),
        1: (None, None),
        2: (None, (ni, 1)),
        3: ((nb, 1), (ni, 0)),
        4: ((na, 0), None),
        5: ((na, 1), (nc, 0)),
        6: ((nb, 0), (nc, 1)),
        7: ((nc, 0), (nu, 0)),
        8: ((nu, 0), None),
        9: ((nu, 1), None),
    }
    return AtomicFlow(nodes, edges)


def contraction_loop_flow(star: bool = True):
    """The contraction-loop showcase; returns (flow, labels) where labels maps
    the names u, v, w, x, y, z to node ids.

    With star=False the middle contraction's output is left pending (the
    'broken edge' variant), which removes every loop.
    """
    fb = FlowBuilder()
    u = fb.node(ACU)
    v = fb.node(ACU)
    w = fb.node(ACD)
    x = fb.node(ACU)
    y = fb.node(ACD)
    z = fb.node(ACD)
    fb.edge(None, (u, 0))
    fb.edge(None, (v, 0))
    fb.edge((u, 0), (y, 0))
    fb.edge((u, 1), (w, 0))
    fb.edge((v, 0), (w, 1))
    fb.edge((v, 1), (z, 1))
    if star:
        fb.edge((w, 0), (x, 0))
    else:
        fb.edge((w, 0), None)
        fb.edge(None, (x, 0))
    fb.edge((x, 0), (y, 1))
    fb.edge((x, 1), (z, 0))
    fb.edge((y, 0), None)
    fb.edge((z, 0), None)
    return fb.build(), {"u": u, "v": v, "w": w, "x": x, "y": y, "z": z}


def demo_proof():
    """A small proof exercising every node kind: its flow has two identities,
    two contractions, one cocontraction and one weakening of each polarity."""
    a = lit("a")
    b = neg(a)
    d3 = glue(
        leaf(b),
        compose("and", step(AID, leaf(top), leaf(disj(a, b))), leaf(b)),
        step(S, leaf(conj(b, disj(b, a))), leaf(disj(conj(b, b), a))),
        leaf(disj(a, conj(b, b))),
    )
    d_top = step(AID, leaf(top), compose("or", leaf(a), d3))
    d1 = glue(step(ACD, leaf(disj(a, a)), leaf(a)), step(ACU, leaf(a), leaf(conj(a, a))))
    d2 = glue(
        leaf(disj(conj(b, b), conj(bot, bot))),
        compose("or", leaf(conj(b, b)), compose("and", leaf(bot), step(AWD, leaf(bot), leaf(b)))),
        step(M, leaf(disj(conj(b, b), conj(bot, b))), leaf(conj(disj(b, bot), disj(b, b)))),
        compose(
            "and",
            glue(leaf(disj(b, bot)), leaf(b)),
            glue(step(ACD, leaf(disj(b, b)), leaf(b)), step(AWU, leaf(b), leaf(top))),
        ),
        leaf(b),
    )
    return glue(d_top, compose("or", d1, d2), leaf(disj(conj(a, a), b)))


def demo_reduced_flow() -> AtomicFlow:
    """The demo proof's reduced flow: two identities contracted on the dual side."""
    fb = FlowBuilder()
    i1 = fb.node(AID)
    i2 = fb.node(AID)
    c = fb.node(ACD)
    fb.edge((i1, 0), None)
    fb.edge((i2, 0), None)
    fb.edge((i1, 1), (c, 0))
    fb.edge((i2, 1), (c, 1))
    fb.edge((c, 0), None)
    return fb.build()


def critical_pair_flows():
    """The nine overlapping-redex flows from the confluence proof."""
    flows = []

    fb = FlowBuilder()  # 1: two weakenings into one contraction
    c = fb.node(ACD)
    w1, w2 = fb.node(AWD), fb.node(AWD)
    fb.edge((w1, 0), (c, 0))
    fb.edge((w2, 0), (c, 1))
    fb.edge((c, 0), None)
    flows.append(fb.build())

    fb = FlowBuilder()  # 2: weakening into contraction into coweakening
    c = fb.node(ACD)
    w = fb.node(AWD)
    cw = fb.node(AWU)
    fb.edge((w, 0), (c, 0))
    fb.edge(None, (c, 1))
    fb.edge((c, 0), (cw, 0))
    flows.append(fb.build())

    fb = FlowBuilder()  # 3: weakening into contraction into cocontraction
    c = fb.node(ACD)
    w = fb.node(AWD)
    u = fb.node(ACU)
    fb.edge((w, 0), (c, 0))
    fb.edge(None, (c, 1))
    fb.edge((c, 0), (u, 0))
    fb.edge((u, 0), None)
    fb.edge((u, 1), None)
    flows.append(fb.build())

    fb = FlowBuilder()  # 4: identity into two coweakenings
    i = fb.node(AID)
    w1, w2 = fb.node(AWU), fb.node(AWU)
    fb.edge((i, 0), (w1, 0))
    fb.edge((i, 1), (w2, 0))
    flows.append(fb.build())

    fb = FlowBuilder()  # 5: identity into coweakening and cocontraction
    i = fb.node(AID)
    w = fb.node(AWU)
    u = fb.node(ACU)
    fb.edge((i, 0), (w, 0))
    fb.edge((i, 1), (u, 0))
    fb.edge((u, 0), None)
    fb.edge((u, 1), None)
    flows.append(fb.build())

    fb = FlowBuilder()  # 6: cocontraction into two coweakenings
    u = fb.node(ACU)
    w1, w2 = fb.node(AWU), fb.node(AWU)
    fb.edge(None, (u, 0))
    fb.edge((u, 0), (w1, 0))
    fb.edge((u, 1), (w2, 0))
    flows.append(fb.build())

    fb = FlowBuilder()  # 7: weakening into cocontraction into coweakening
    w = fb.node(AWD)
    u = fb.node(ACU)
    cw = fb.node(AWU)
    fb.edge((w, 0), (u, 0))
    fb.edge((u, 0), (cw, 0))
    fb.edge((u, 1), None)
    flows.append(fb.build())

    fb = FlowBuilder()  # 8: contraction into cocontraction into coweakening
    c = fb.node(ACD)
    u = fb.node(ACU)
    cw = fb.node(AWU)
    fb.edge(None, (c, 0))
    fb.edge(None, (c, 1))
    fb.edge((c, 0), (u, 0))
    fb.edge((u, 0), (cw, 0))
    fb.edge((u, 1), None)
    flows.append(fb.build())

    fb = FlowBuilder()  # 9: identity into cocontraction into coweakening
    i = fb.node(AID)
    u = fb.node(ACU)
    cw = fb.node(AWU)
    fb.edge((i, 0), None)
    fb.edge((i, 1), (u, 0))
    fb.edge((u, 0), (cw, 0))
    fb.edge((u, 1), None)
    flows.append(fb.build())

    return flows


def res_chain(n: int):
    """Tree-like set refutation chaining n resolutions through implications."""
    pi = ResDerivation(mode="set", tree_like=True)
    axioms = [Clause((term_of("x1"),))]
    for i in range(1, n):
        axioms.append(Clause((term_of(f"~x{i}"), term_of(f"x{i+1}"))))
    axioms.append(Clause((term_of(f"~x{n}"),)))
    lines = [pi.add(Axiom(i)) for i in range(len(axioms))]
    cur = lines[0]
    for i in range(1, n):
        cur = pi.add(Res(cur, lines[i], term_of(f"x{i}")))
    pi.add(Res(cur, lines[n], term_of(f"x{n}")))
    return pi, axioms


def php_refutation(multiset: bool = False):
    """A refutation of the three clauses of the one-hole pigeon problem."""
    pi = ResDerivation(mode="multiset" if multiset else "set", tree_like=not multiset)
    axioms = [Clause((term_of("a01"),)), Clause((term_of("a11"),)),
              Clause((term_of("~a01"), term_of("~a11")))]
    l0 = pi.add(Axiom(0))
    l1 = pi.add(Axiom(1))
    l2 = pi.add(Axiom(2))
    r1 = pi.add(Res(l0, l2, term_of("a01")))
    pi.add(Res(l1, r1, term_of("a11")))
    return pi, axioms


# -- random generators ------------------------------------------------------------


def random_formula(rng: random.Random, variables, max_depth=4, unit_p=0.1):
    if max_depth == 0 or rng.random() < 0.35:
        r = rng.random()
        if r < unit_p:
            return top if rng.random() < 0.5 else bot
        return lit(rng.choice(variables), rng.random() < 0.5)
    a = random_formula(rng, variables, max_depth - 1, unit_p)
    b = random_formula(rng, variables, max_depth - 1, unit_p)
    return conj(a, b) if rng.random() < 0.5 else disj(a, b)


def _subformula_positions(f: Formula, path=()):
    yield path, f
    if f.kind in ("and", "or"):
        yield from _subformula_positions(f.a, path + (0,))
        yield from _subformula_positions(f.b, path + (1,))


def random_derivation(rng: random.Random, variables=("a", "b", "c"), steps=8, start=None):
    """A random checked SKS derivation grown downward by rule applications."""
    f = start if start is not None else random_formula(rng, list(variables))
    d = leaf(f)
    for _ in range(steps):
        d = _random_step(rng, d, list(variables), SKS)
    assert check(d, SKS).ok
    return d


def random_ks_plus_proof(rng: random.Random, variables=("a", "b"), steps=8):
    """A random checked KS+ proof grown downward from T."""
    d = leaf(top)
    for _ in range(steps):
        d = _random_step(rng, d, list(variables), KS_PLUS)
    assert check(d, KS_PLUS).ok
    return d


def _random_step(rng, d, variables, system):
    cn = conclusion(d)
    moves = []
    positions = list(_subformula_positions(cn))
    lits = [(p, g) for p, g in positions if g.kind == "lit"]
    moves.append("aid")
    moves.append("awd")
    if lits and (ACU in system):
        moves.append("acu")
    if lits and (AWU in system):
        moves.append("awu")
    for p, g in positions:
        if g.kind == "or" and g.a.kind == "lit" and g.a == g.b:
            moves.append(("acd", p))
        if g.kind == "and" and g.b.kind == "or":
            moves.append(("s", p))
        if g.kind == "or" and g.a.kind == "and" and g.b.kind == "and":
            moves.append(("m", p))
        if (
            AIU in system
            and g.kind == "and"
            and g.a.kind == "lit"
            and g.b == neg(g.a)
        ):
            moves.append(("aiu", p))
    mv = rng.choice(moves)
    if mv == "aid":
        v = lit(rng.choice(variables), rng.random() < 0.5)
        new = disj(v, neg(v))
        host = conj(cn, top)
        return glue(d, in_context(host, (1,), step(AID, leaf(top), leaf(new))))
    if mv == "awd":
        v = lit(rng.choice(variables), rng.random() < 0.5)
        host = disj(cn, bot)
        return glue(d, in_context(host, (1,), step(AWD, leaf(bot), leaf(v))))
    if mv == "acu":
        p, g = rng.choice(lits)
        return glue(d, step_at(cn, p, ACU, conj(g, g)))
    if mv == "awu":
        p, g = rng.choice(lits)
        return glue(d, step_at(cn, p, AWU, top))
    rule, p = mv
    g = subformula_at(cn, p)
    if rule == "acd":
        return glue(d, step_at(cn, p, ACD, g.a))
    if rule == "aiu":
        return glue(d, step_at(cn, p, AIU, bot))
    if rule == "s":
        a, b, c = g.a, g.b.a, g.b.b
        return glue(d, step_at(cn, p, S, disj(conj(a, b), c)))
    a, b = g.a.a, g.a.b
    c, e = g.b.a, g.b.b
    return glue(d, step_at(cn, p, M, conj(disj(a, c), disj(b, e))))

"""The eight-rule flow rewriting system and its normalization strategies.

Every left-hand side is a pair of nodes joined by one edge, so redex
discovery is a single scan over edges.  Normalization exhausts the
size-decreasing weakening rules first and the two cocontraction rules second;
by confluence the normal form does not depend on the order within a phase,
which also licenses applying batches of node-disjoint redexes between
rescans.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .derivation import ACD, ACU, AID, AWD, AWU
from .flow import AtomicFlow, canonical_key, require_valid, topo_sort

WD_CD, ID_WU, CU_WU, WD_CU, WD_WU, CD_WU, CD_CU, ID_CU = (
    "wd-cd",
    "id-wu",
    "cu-wu",
    "wd-cu",
    "wd-wu",
    "cd-wu",
    "cd-cu",
    "id-cu",
)

RULES = (WD_CD, ID_WU, CU_WU, WD_CU, WD_WU, CD_WU, CD_CU, ID_CU)
WK = frozenset({WD_CD, ID_WU, CU_WU, WD_CU, WD_WU, CD_WU})
CONT = frozenset({CD_CU, ID_CU})
NORM = WK | CONT

_RULE_INDEX = {r: i for i, r in enumerate(RULES)}

_PATTERN = {
    (AWD, ACD): WD_CD,
    (AID, AWU): ID_WU,
    (ACU, AWU): CU_WU,
    (AWD, ACU): WD_CU,
    (AWD, AWU): WD_WU,
    (ACD, AWU): CD_WU,
    (ACD, ACU): CD_CU,
    (AID, ACU): ID_CU,
}

# net change in edge count per rule
_SIZE_DELTA = {
    WD_CD: -2,
    ID_WU: -1,
    CU_WU: -2,
    WD_CU: -1,
    WD_WU: -1,
    CD_WU: -1,
    CD_CU: 3,
    ID_CU: 1,
}


@dataclass(frozen=True)
class Redex:
    rule: str
    src: int
    tgt: int
    edge: int

    def anchors(self):
        return (self.src, self.tgt)


class StaleRedexError(ValueError):
    pass


@dataclass
class TraceStep:
    rule: str
    anchors: tuple
    size_after: int
    d_after: tuple | None


def trace_to_json(trace) -> str:
    return (
        json.dumps(
            [
                {
                    "rule": t.rule,
                    "anchors": list(t.anchors),
                    "size_after": t.size_after,
                    "D_after": None if t.d_after is None else list(t.d_after),
                }
                for t in trace
            ],
            indent=1,
        )
        + "\n"
    )


def find_redexes(flow: AtomicFlow, sub=NORM):
    """All redexes of the subsystem in a valid flow, deterministically ordered."""
    require_valid(flow)
    return scan_redexes(flow, sub)


def scan_redexes(flow, sub=NORM):
    """find_redexes without validation, for any object with nodes and edges
    dicts (an AtomicFlow or the mutable flow of normalization)."""
    nodes = flow.nodes
    out = []
    for e, (s, t) in flow.edges.items():
        if s is None or t is None:
            continue
        rule = _PATTERN.get((nodes[s[0]], nodes[t[0]]))
        if rule is not None and rule in sub:
            out.append(Redex(rule, s[0], t[0], e))
    out.sort(key=lambda r: (_RULE_INDEX[r.rule], r.src, r.tgt, r.edge))
    return out


class _MutFlow:
    """Mutable flow with incrementally maintained port adjacency."""

    def __init__(self, flow: AtomicFlow):
        self.nodes = dict(flow.nodes)
        self.edges = dict(flow.edges)
        self.ins = {n: {} for n in self.nodes}
        self.outs = {n: {} for n in self.nodes}
        for e, (s, t) in self.edges.items():
            if s is not None:
                self.outs[s[0]][s[1]] = e
            if t is not None:
                self.ins[t[0]][t[1]] = e
        self.next_id = max([*self.nodes, *self.edges], default=-1) + 1

    def freeze(self) -> AtomicFlow:
        return AtomicFlow(self.nodes, self.edges)

    def add_node(self, kind):
        n = self.next_id
        self.next_id += 1
        self.nodes[n] = kind
        self.ins[n] = {}
        self.outs[n] = {}
        return n

    def add_edge(self, src, tgt):
        e = self.next_id
        self.next_id += 1
        self.edges[e] = (src, tgt)
        if src is not None:
            self.outs[src[0]][src[1]] = e
        if tgt is not None:
            self.ins[tgt[0]][tgt[1]] = e
        return e

    def del_edge(self, e):
        s, t = self.edges.pop(e)
        if s is not None:
            self.outs[s[0]].pop(s[1], None)
        if t is not None:
            self.ins[t[0]].pop(t[1], None)

    def del_node(self, n):
        del self.nodes[n]
        del self.ins[n]
        del self.outs[n]

    def set_src(self, e, src):
        s, t = self.edges[e]
        if s is not None:
            self.outs[s[0]].pop(s[1], None)
        self.edges[e] = (src, t)
        if src is not None:
            self.outs[src[0]][src[1]] = e

    def set_tgt(self, e, tgt):
        s, t = self.edges[e]
        if t is not None:
            self.ins[t[0]].pop(t[1], None)
        self.edges[e] = (s, tgt)
        if tgt is not None:
            self.ins[tgt[0]][tgt[1]] = e

    def in_edge(self, n, port):
        return self.ins[n][port]

    def out_edge(self, n, port):
        return self.outs[n][port]

    def check_redex(self, r: Redex):
        if (
            r.edge not in self.edges
            or r.src not in self.nodes
            or r.tgt not in self.nodes
        ):
            raise StaleRedexError(f"redex {r} no longer present")
        s, t = self.edges[r.edge]
        if s is None or t is None or s[0] != r.src or t[0] != r.tgt:
            raise StaleRedexError(f"redex {r} no longer matches the flow")
        if _PATTERN.get((self.nodes[r.src], self.nodes[r.tgt])) != r.rule:
            raise StaleRedexError(f"redex {r} rule does not match node kinds")

    def apply(self, r: Redex):
        self.check_redex(r)
        rule, n1, n2, e = r.rule, r.src, r.tgt, r.edge
        if rule == WD_CD:
            other = self.in_edge(n2, 1 - self.edges[e][1][1])
            below = self.out_edge(n2, 0)
            tgt = self.edges[below][1]
            self.del_edge(below)
            self.set_tgt(other, tgt)
            self.del_edge(e)
            self.del_node(n1)
            self.del_node(n2)
        elif rule == ID_WU:
            o = self.out_edge(n1, 1 - self.edges[e][0][1])
            w = self.add_node(AWD)
            self.set_src(o, (w, 0))
            self.del_edge(e)
            self.del_node(n1)
            self.del_node(n2)
        elif rule == CU_WU:
            above = self.in_edge(n1, 0)
            o = self.out_edge(n1, 1 - self.edges[e][0][1])
            tgt = self.edges[o][1]
            self.del_edge(o)
            self.set_tgt(above, tgt)
            self.del_edge(e)
            self.del_node(n1)
            self.del_node(n2)
        elif rule == WD_CU:
            f1 = self.out_edge(n2, 0)
            f2 = self.out_edge(n2, 1)
            self.del_edge(e)
            w1 = self.add_node(AWD)
            w2 = self.add_node(AWD)
            self.set_src(f1, (w1, 0))
            self.set_src(f2, (w2, 0))
            self.del_node(n1)
            self.del_node(n2)
        elif rule == WD_WU:
            self.del_edge(e)
            self.del_node(n1)
            self.del_node(n2)
        elif rule == CD_WU:
            g1 = self.in_edge(n1, 0)
            g2 = self.in_edge(n1, 1)
            self.del_edge(e)
            u1 = self.add_node(AWU)
            u2 = self.add_node(AWU)
            self.set_tgt(g1, (u1, 0))
            self.set_tgt(g2, (u2, 0))
            self.del_node(n1)
            self.del_node(n2)
        elif rule == CD_CU:
            g1 = self.in_edge(n1, 0)
            g2 = self.in_edge(n1, 1)
            f1 = self.out_edge(n2, 0)
            f2 = self.out_edge(n2, 1)
            self.del_edge(e)
            u1 = self.add_node(ACU)
            u2 = self.add_node(ACU)
            d1 = self.add_node(ACD)
            d2 = self.add_node(ACD)
            self.set_tgt(g1, (u1, 0))
            self.set_tgt(g2, (u2, 0))
            self.add_edge((u1, 0), (d1, 0))
            self.add_edge((u1, 1), (d2, 0))
            self.add_edge((u2, 0), (d1, 1))
            self.add_edge((u2, 1), (d2, 1))
            self.set_src(f1, (d1, 0))
            self.set_src(f2, (d2, 0))
            self.del_node(n1)
            self.del_node(n2)
        elif rule == ID_CU:
            o = self.out_edge(n1, 1 - self.edges[e][0][1])
            f1 = self.out_edge(n2, 0)
            f2 = self.out_edge(n2, 1)
            self.del_edge(e)
            i1 = self.add_node(AID)
            i2 = self.add_node(AID)
            c = self.add_node(ACD)
            self.set_src(f1, (i1, 0))
            self.set_src(f2, (i2, 0))
            self.add_edge((i1, 1), (c, 0))
            self.add_edge((i2, 1), (c, 1))
            self.set_src(o, (c, 0))
            self.del_node(n1)
            self.del_node(n2)
        else:
            raise ValueError(f"unknown rewrite rule {rule!r}")


def apply_redex(flow: AtomicFlow, r: Redex) -> AtomicFlow:
    """One-step reduction; raises StaleRedexError when r no longer matches."""
    m = _MutFlow(flow)
    m.apply(r)
    return m.freeze()


# -- termination measure -----------------------------------------------------------


def _d_sequence(nodes, edges, ins):
    """Cocontraction counts by distance from the top: entry k counts the
    cocontractions at distance k.

    The distance of a node is the longest hop count up to a creating element;
    a node whose in-edge comes from an identity, a weakening, or a pending
    top end is at distance 1.  ins maps each node to its {port: in-edge}.
    """
    succ = {n: [] for n in nodes}
    for s, t in edges.values():
        if s is not None and t is not None:
            succ[s[0]].append(t[0])
    order = topo_sort(succ)
    if order is None:
        raise ValueError("flow has a cycle")
    d = {}
    counts = {}
    for n in order:
        best = 0
        for e in ins[n].values():
            s = edges[e][0]
            if s is None or nodes[s[0]] in (AID, AWD):
                hop = 1
            else:
                hop = 1 + d[s[0]]
            if hop > best:
                best = hop
        d[n] = best
        if nodes[n] == ACU:
            counts[best] = counts.get(best, 0) + 1
    seq = [0] * ((max(counts) + 1) if counts else 0)
    for i, c in counts.items():
        seq[i] = c
    return tuple(seq)


def termination_measure(flow: AtomicFlow):
    """(D sequence counting cocontractions by distance from the top, size)."""
    require_valid(flow)
    m = _MutFlow(flow)
    return _d_sequence(m.nodes, m.edges, m.ins), len(flow.edges)


def _padded(a, b):
    """a and b as tuples zero-padded to one length."""
    n = max(len(a), len(b))
    return tuple(a) + (0,) * (n - len(a)), tuple(b) + (0,) * (n - len(b))


def d_sequence_less(a, b):
    """a < b when a_k < b_k for some k and a_i <= b_i for every i > k."""
    a, b = _padded(a, b)
    for i in range(len(a) - 1, -1, -1):
        if a[i] != b[i]:
            return a[i] < b[i]
    return False


def _pad_le(a, b):
    pa, pb = _padded(a, b)
    return pa == pb or d_sequence_less(pa, pb)


def measure_less(m1, m2):
    """Strict decrease of the lexicographic product D x size."""
    pa, pb = _padded(m1[0], m2[0])
    if pa == pb:
        return m1[1] < m2[1]
    return d_sequence_less(pa, pb)


# -- normalization -------------------------------------------------------------------


class NormalizationError(AssertionError):
    pass


def normalize(flow: AtomicFlow, strategy: str = "wk-first", measures: bool | None = None):
    """Reduce to the unique normal form; returns (normal flow, trace).

    strategy 'wk-first' exhausts the weakening subsystem before the
    cocontraction one; 'cont-first' greedily prefers cocontraction redexes at
    every step (exponentially long on the tower family).

    With measures on, every applied step is checked against the per-rule
    monotonicity facts: weakening steps shrink the flow without raising the
    cocontraction distance sequence, cd-cu steps strictly decrease the
    lexicographic product, and id-cu steps strictly reduce the cocontraction
    count.  (The full product does not decrease for id-cu in general; see the
    format notes.)
    """
    require_valid(flow)
    if measures is None:
        measures = len(flow.edges) <= 600

    m = _MutFlow(flow)
    trace = []
    initial_size = len(flow.edges)
    wk_steps = 0
    cont_steps = 0
    # D of the current flow; nothing changes the flow between two steps, so
    # one step's D after is the next step's D before
    d_now = _d_sequence(m.nodes, m.edges, m.ins) if measures else None

    def run_batch(redexes):
        nonlocal wk_steps, cont_steps, d_now
        used = set()
        for r in redexes:
            if r.src in used or r.tgt in used:
                continue
            size_before = len(m.edges)
            m.apply(r)
            used.add(r.src)
            used.add(r.tgt)
            size_after = len(m.edges)
            if size_after - size_before != _SIZE_DELTA[r.rule]:
                raise NormalizationError(f"{r.rule} changed size by {size_after - size_before}")
            d_after = None
            if measures:
                d_before = d_now
                d_after = d_now = _d_sequence(m.nodes, m.edges, m.ins)
                if r.rule in WK:
                    if not size_after < size_before:
                        raise NormalizationError(f"wk step {r.rule} did not shrink the flow")
                    if not _pad_le(d_after, d_before):
                        raise NormalizationError(f"wk step {r.rule} raised the distance sequence")
                elif r.rule == CD_CU:
                    if not measure_less((d_after, size_after), (d_before, size_before)):
                        raise NormalizationError("cd-cu did not decrease the measure")
                elif not sum(d_after) < sum(d_before):  # id-cu; sum(D) counts cocontractions
                    raise NormalizationError("id-cu did not remove a cocontraction")
                if r.rule in CONT and not size_after > size_before:
                    raise NormalizationError(f"cont step {r.rule} did not grow the flow")
            trace.append(TraceStep(r.rule, r.anchors(), size_after, d_after))
            if r.rule in WK:
                wk_steps += 1
            else:
                cont_steps += 1

    if strategy == "wk-first":
        for sub in (WK, CONT):
            while True:
                redexes = scan_redexes(m, sub)
                if not redexes:
                    break
                run_batch(redexes)
    elif strategy == "cont-first":
        while True:
            redexes = scan_redexes(m, CONT)
            if redexes:
                run_batch(redexes[:1])
                continue
            redexes = scan_redexes(m, WK)
            if not redexes:
                break
            run_batch(redexes[:1])
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    if scan_redexes(m, NORM):
        raise NormalizationError("normal form still has redexes")
    result = m.freeze()
    if strategy == "wk-first":
        if wk_steps > initial_size:
            raise NormalizationError("weakening phase exceeded the initial size bound")
        if cont_steps > len(result.edges):
            raise NormalizationError("cocontraction phase exceeded the result size bound")
    return result, trace


# -- exhaustive exploration ------------------------------------------------------------


class ExplorationCapExceeded(RuntimeError):
    pass


def explore_reductions(flow: AtomicFlow, cap: int = 20000):
    """Exhaustive set of all normal forms reachable from flow, up to iso,
    each represented by the first flow found depth-first.

    Confluence predicts a singleton; the cap bounds the number of distinct
    states explored.
    """
    require_valid(flow)
    key = canonical_key(flow)
    visited = {key}
    normals = {}
    queue = [(flow, key)]
    while queue:
        current, key = queue.pop()
        redexes = scan_redexes(current)  # apply_redex keeps every state valid
        if not redexes:
            normals.setdefault(key, current)
            continue
        for r in redexes:
            nxt = apply_redex(current, r)
            key = canonical_key(nxt)
            if key not in visited:
                visited.add(key)
                if len(visited) > cap:
                    raise ExplorationCapExceeded(f"more than {cap} states")
                queue.append((nxt, key))
    return list(normals.values())

"""The eight-rule flow rewriting system and its normalization strategies.

Every left-hand side is a pair of nodes joined by one edge, so redex
discovery is a single scan over edges, and after a step only the edges it
touched can gain or lose a redex.  Normalization exhausts the
size-decreasing weakening rules first and the two cocontraction rules second;
by confluence the normal form does not depend on the order within a phase,
which also licenses applying batches of node-disjoint redexes.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
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
    out = []
    for e in flow.edges:
        r = _redex_at(flow, e)
        if r is not None and r.rule in sub:
            out.append(r)
    out.sort(key=_order)
    return out


def _redex_at(flow, e):
    """The redex whose joining edge is e, or None."""
    s, t = flow.edges[e]
    if s is None or t is None:
        return None
    rule = _PATTERN.get((flow.nodes[s[0]], flow.nodes[t[0]]))
    return None if rule is None else Redex(rule, s[0], t[0], e)


def _order(r):
    """The deterministic order of redexes: by rule, then anchors, then edge."""
    return (_RULE_INDEX[r.rule], r.src, r.tgt, r.edge)


class _MutFlow:
    """Mutable flow with incrementally maintained port adjacency.

    The mutators record what they touch until take_changes: the edges added,
    removed or re-ended, the nodes whose in-edges changed (an in-edge added,
    removed or given a new source) together with new nodes, and the removed
    nodes with their kinds.  Node kinds never change in place, so a redex can
    appear or vanish only on a touched edge, and a distance from the top can
    change only at a touched node or below one.
    """

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
        self.touched_edges = set()
        self.touched_nodes = set()
        self.removed = {}

    def take_changes(self):
        """(touched edges, touched nodes, removed node -> kind) since the
        last call."""
        out = self.touched_edges, self.touched_nodes, self.removed
        self.touched_edges, self.touched_nodes, self.removed = set(), set(), {}
        return out

    def freeze(self) -> AtomicFlow:
        return AtomicFlow(self.nodes, self.edges)

    def add_node(self, kind):
        n = self.next_id
        self.next_id += 1
        self.nodes[n] = kind
        self.ins[n] = {}
        self.outs[n] = {}
        self.touched_nodes.add(n)
        return n

    def add_edge(self, src, tgt):
        e = self.next_id
        self.next_id += 1
        self.edges[e] = (src, tgt)
        self.touched_edges.add(e)
        if src is not None:
            self.outs[src[0]][src[1]] = e
        if tgt is not None:
            self.ins[tgt[0]][tgt[1]] = e
            self.touched_nodes.add(tgt[0])
        return e

    def del_edge(self, e):
        s, t = self.edges.pop(e)
        self.touched_edges.add(e)
        if s is not None:
            self.outs[s[0]].pop(s[1], None)
        if t is not None:
            self.ins[t[0]].pop(t[1], None)
            self.touched_nodes.add(t[0])

    def del_node(self, n):
        self.removed[n] = self.nodes.pop(n)
        del self.ins[n]
        del self.outs[n]

    def set_src(self, e, src):
        s, t = self.edges[e]
        self.touched_edges.add(e)
        if s is not None:
            self.outs[s[0]].pop(s[1], None)
        self.edges[e] = (src, t)
        if src is not None:
            self.outs[src[0]][src[1]] = e
        if t is not None:
            self.touched_nodes.add(t[0])

    def set_tgt(self, e, tgt):
        s, t = self.edges[e]
        self.touched_edges.add(e)
        if t is not None:
            self.ins[t[0]].pop(t[1], None)
            self.touched_nodes.add(t[0])
        self.edges[e] = (s, tgt)
        if tgt is not None:
            self.ins[tgt[0]][tgt[1]] = e
            self.touched_nodes.add(tgt[0])

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
    return _profile(_acu_counts(nodes, _distances(nodes, edges, ins)))


def _distances(nodes, edges, ins):
    """Every node's distance, in one pass in topological order."""
    succ = {n: [] for n in nodes}
    for s, t in edges.values():
        if s is not None and t is not None:
            succ[s[0]].append(t[0])
    order = topo_sort(succ)
    if order is None:
        raise ValueError("flow has a cycle")
    d = {}
    for n in order:
        d[n] = _distance(nodes, edges, ins, d, n)
    return d


def _distance(nodes, edges, ins, d, n):
    """n's distance from its in-edges' sources' distances in d; a source
    missing from d counts as distance 0."""
    best = 0
    for e in ins[n].values():
        s = edges[e][0]
        if s is None or nodes[s[0]] in (AID, AWD):
            hop = 1
        else:
            hop = 1 + d.get(s[0], 0)
        if hop > best:
            best = hop
    return best


def _acu_counts(nodes, d):
    return Counter(d[n] for n, k in nodes.items() if k == ACU)


def _profile(counts):
    """The D sequence of {distance: cocontraction count}, zero counts aside."""
    seq = [0] * (max((i for i, c in counts.items() if c), default=-1) + 1)
    for i, c in counts.items():
        if c:
            seq[i] = c
    return tuple(seq)


class _Distances:
    """Every node's distance and the cocontraction count at each distance of
    a _MutFlow, kept up to date step by step.

    After a step only the touched nodes and nodes below them can move.  The
    touched nodes are recomputed from their in-edges, and each node whose
    distance changes queues its successors, until nothing changes (a dynamic
    longest path on a DAG, after Pearce and Kelly, JEA 2006).  Every node
    left out of the queue still satisfies its equation, and a DAG has one
    solution, so the result equals a full pass.  The queue is ordered by
    distance before the change, which is a topological order of the
    untouched part, so most nodes are recomputed once per step.
    """

    def __init__(self, m: _MutFlow):
        self.m = m
        self.dist = _distances(m.nodes, m.edges, m.ins)
        self.counts = _acu_counts(m.nodes, self.dist)

    def update(self, touched, removed):
        m, dist, counts = self.m, self.dist, self.counts
        for n, kind in removed.items():
            old = dist.pop(n)
            if kind == ACU:
                counts[old] -= 1
        queue = [(dist.get(n, 0), n) for n in touched if n in m.nodes]
        heapq.heapify(queue)
        queued = {n for _, n in queue}
        while queue:
            n = heapq.heappop(queue)[1]
            queued.discard(n)
            new = _distance(m.nodes, m.edges, m.ins, dist, n)
            old = dist.get(n)
            if new == old:
                continue
            dist[n] = new
            if m.nodes[n] == ACU:
                if old is not None:
                    counts[old] -= 1
                counts[new] += 1
            for e in m.outs[n].values():
                t = m.edges[e][1]
                if t is not None and t[0] not in queued:
                    queued.add(t[0])
                    heapq.heappush(queue, (dist.get(t[0], 0), t[0]))

    def profile(self):
        return _profile(self.counts)


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


def normalize(flow: AtomicFlow, strategy: str = "wk-first", measures: bool = True):
    """Reduce to the unique normal form; returns (normal flow, trace).

    strategy 'wk-first' exhausts the weakening subsystem before the
    cocontraction one; 'cont-first' greedily prefers cocontraction redexes at
    every step (exponentially long on the tower family).  Either takes the
    least redex in the order of scan_redexes, or the least disjoint batch.

    With measures on, every applied step is checked against the per-rule
    monotonicity facts: weakening steps shrink the flow without raising the
    cocontraction distance sequence, cd-cu steps strictly decrease the
    lexicographic product, and id-cu steps strictly reduce the cocontraction
    count.  (The full product does not decrease for id-cu in general; see the
    format notes.)

    A step costs what it touches: the redexes are kept in an index updated on
    the touched edges, and the distances incrementally.  At the end, a full
    scan must find no redex and a full pass must give the same D.
    """
    require_valid(flow)
    if strategy not in ("wk-first", "cont-first"):
        raise ValueError(f"unknown strategy {strategy!r}")

    m = _MutFlow(flow)
    trace = []
    initial_size = len(flow.edges)
    wk_steps = 0
    cont_steps = 0
    index = {}  # edge -> the redex it joins
    # cont-first: heap of (not a cont rule, *_order(r)) with lazy deletion;
    # the index says which entries are still live
    heap = [] if strategy == "cont-first" else None

    def reindex(edges):
        for e in edges:
            index.pop(e, None)
            if e in m.edges:
                r = _redex_at(m, e)
                if r is not None:
                    index[e] = r
                    if heap is not None:
                        heapq.heappush(heap, (r.rule in WK, *_order(r)))

    reindex(m.edges)
    dist = _Distances(m) if measures else None
    d_now = dist.profile() if measures else None

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
            edges, nodes, removed = m.take_changes()
            reindex(edges)
            d_after = None
            if measures:
                dist.update(nodes, removed)
                d_before = d_now
                d_after = d_now = dist.profile()
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
                redexes = sorted((r for r in index.values() if r.rule in sub), key=_order)
                if not redexes:
                    break
                run_batch(redexes)
    else:
        while heap:
            entry = heapq.heappop(heap)
            r = index.get(entry[-1])
            if r is not None and (r.rule in WK, *_order(r)) == entry:
                run_batch((r,))

    if scan_redexes(m, NORM):
        raise NormalizationError("normal form still has redexes")
    if measures and _d_sequence(m.nodes, m.edges, m.ins) != d_now:
        raise NormalizationError("incremental distance sequence differs from a full pass")
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

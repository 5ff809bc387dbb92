"""Flow measurements: ai-path counting, dimensions, contraction loops, weights.

An ai-path walks edges monotonically up or down and changes vertical
direction only at identity and cut nodes; it is open when both endpoints are
pending edge ends.  Open paths are counted modulo inversion.  The fast
counter is a dynamic program over (edge, direction) states; the brute-force
enumerator is the oracle it is tested against.
"""

from __future__ import annotations

from .derivation import ACD, ACU, AID, AIU, AWD, AWU
from .flow import AtomicFlow, topo_sort

DOWN, UP = 0, 1


class PathCountDivergence(RuntimeError):
    """The state graph has a directed cycle, so path counts are unbounded."""


class CapExceeded(ValueError):
    pass


def _state_graph(flow: AtomicFlow):
    """Successor states of each (edge, direction) traversal.

    Returns (succ, endnode) where succ[(e, dir)] is the list of next
    traversals and endnode[(e, dir)] the node at the far end (None when the
    far end is pending).
    """
    succ = {}
    endnode = {}
    for e, (src, tgt) in flow.edges.items():
        # downward
        nxt = []
        if tgt is None:
            endnode[(e, DOWN)] = None
        else:
            n, port = tgt
            kind = flow.nodes[n]
            endnode[(e, DOWN)] = n
            if kind == ACD:
                nxt = [(flow.outs[n][0], DOWN)]
            elif kind == ACU:
                nxt = [(flow.outs[n][0], DOWN), (flow.outs[n][1], DOWN)]
            elif kind == AIU:
                nxt = [(flow.ins[n][1 - port], UP)]
            elif kind == AWU:
                nxt = []
            else:
                raise AssertionError(f"edge enters {kind} from above")
        succ[(e, DOWN)] = nxt
        # upward
        nxt = []
        if src is None:
            endnode[(e, UP)] = None
        else:
            n, port = src
            kind = flow.nodes[n]
            endnode[(e, UP)] = n
            if kind == AID:
                nxt = [(flow.outs[n][1 - port], DOWN)]
            elif kind == ACD:
                nxt = [(flow.ins[n][0], UP), (flow.ins[n][1], UP)]
            elif kind == ACU:
                nxt = [(flow.ins[n][0], UP)]
            elif kind == AWD:
                nxt = []
            else:
                raise AssertionError(f"edge leaves {kind} from below")
        succ[(e, UP)] = nxt
    return succ, endnode


def _ordered_states(flow: AtomicFlow):
    """The state graph of a valid flow and a topological order of its states."""
    succ, endnode = _state_graph(flow)
    order = topo_sort(succ)
    if order is None:
        raise PathCountDivergence("ai-path state graph is cyclic")
    return succ, endnode, order


def open_ai_paths(flow: AtomicFlow) -> int:
    """Number of open ai-paths modulo inversion, by dynamic programming.

    Each open path is counted once from each pending endpoint, so the total
    is half the sum over pending ends of the continuation counts.
    """
    return _open_ai_paths(flow, _ordered_states(flow))


def _open_ai_paths(flow, states):
    succ, endnode, order = states
    count = {}
    for s in reversed(order):
        if endnode[s] is None:
            count[s] = 1
        else:
            count[s] = sum(count[t] for t in succ[s])
    total = 0
    for e, (src, tgt) in flow.edges.items():
        if src is None:
            total += count[(e, DOWN)]
        if tgt is None:
            total += count[(e, UP)]
    assert total % 2 == 0
    return total // 2


def open_ai_paths_bruteforce(flow: AtomicFlow, cap: int = 25) -> int:
    """Exhaustive DFS enumeration of open ai-paths, deduplicated modulo
    inversion by keeping the lexicographically smaller orientation."""
    if len(flow.edges) > cap:
        raise CapExceeded(f"flow has {len(flow.edges)} > {cap} edges")
    paths = set()

    def continuations(e, direction):
        src, tgt = flow.edges[e]
        end = tgt if direction == DOWN else src
        if end is None:
            return None  # open end reached
        n, port = end
        kind = flow.nodes[n]
        if direction == DOWN:
            if kind == ACD:
                return [(flow.outs[n][0], DOWN)]
            if kind == ACU:
                return [(flow.outs[n][0], DOWN), (flow.outs[n][1], DOWN)]
            if kind == AIU:
                return [(flow.ins[n][1 - port], UP)]
            return []  # awu: dead end, not open
        if kind == AID:
            return [(flow.outs[n][1 - port], DOWN)]
        if kind == ACD:
            return [(flow.ins[n][0], UP), (flow.ins[n][1], UP)]
        if kind == ACU:
            return [(flow.ins[n][0], UP)]
        return []  # awd

    def walk(e, direction, acc, used):
        cont = continuations(e, direction)
        if cont is None:
            t = tuple(acc)
            paths.add(min(t, tuple(reversed(t))))
            return
        for e2, d2 in cont:
            if e2 in used:
                continue
            used.add(e2)
            acc.append(e2)
            walk(e2, d2, acc, used)
            acc.pop()
            used.discard(e2)

    for e, (src, tgt) in flow.edges.items():
        if src is None:
            walk(e, DOWN, [e], {e})
        if tgt is None:
            walk(e, UP, [e], {e})
    return len(paths)


def node_count(flow: AtomicFlow, kind: str) -> int:
    return sum(1 for k in flow.nodes.values() if k == kind)


def edge_weight(flow: AtomicFlow, edge: int) -> int:
    """Number of directed paths from the edge to a coweakening node or a
    pending bottom end."""
    if edge not in flow.edges:
        raise KeyError(f"unknown edge id {edge}")
    return _all_weights(flow)[edge]


def _all_weights(flow: AtomicFlow):
    succ = {}
    for e, (src, tgt) in flow.edges.items():
        if tgt is None:
            succ[e] = None
            continue
        n, _ = tgt
        kind = flow.nodes[n]
        if kind == AWU:
            succ[e] = None
        elif kind == ACD:
            succ[e] = [flow.outs[n][0]]
        elif kind == ACU:
            succ[e] = [flow.outs[n][0], flow.outs[n][1]]
        else:  # aiu: not a bottom element
            succ[e] = []
    order = topo_sort({e: nxt or () for e, nxt in succ.items()})
    if order is None:
        raise PathCountDivergence("weight recursion is cyclic")
    weights = {}
    for e in reversed(order):  # successors first
        nxt = succ[e]
        weights[e] = 1 if nxt is None else sum(weights[t] for t in nxt)
    return weights


def dimensions(flow: AtomicFlow):
    """(length, width, breadth) of a flow.

    Width is the fan size of the largest connected same-kind contraction or
    cocontraction configuration (a block of n-1 connected binary nodes acts
    as one n-ary node).  Length is the maximum number of node-kind changes
    along any ai-path, with connected same-kind runs collapsed by that super
    node convention.  Breadth counts connected components.
    """
    return _dimensions(flow, _ordered_states(flow))


def _dimensions(flow, states):
    if not flow.nodes and not flow.edges:
        return 0, 0, 0

    def find(parent, x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # breadth: components over nodes and edges
    parent = {("n", n): ("n", n) for n in flow.nodes}
    parent.update((("e", e), ("e", e)) for e in flow.edges)
    for e, (src, tgt) in flow.edges.items():
        for end in (src, tgt):
            if end is not None:
                parent[find(parent, ("e", e))] = find(parent, ("n", end[0]))
    breadth = len({find(parent, x) for x in parent})

    # width: connected same-kind contraction blocks; an edge joining two
    # nodes of one kind joins their blocks
    block = {n: n for n, k in flow.nodes.items() if k in (ACD, ACU)}
    for src, tgt in flow.edges.values():
        if src is not None and tgt is not None and src[0] in block and flow.nodes[src[0]] == flow.nodes[tgt[0]]:
            block[find(block, src[0])] = find(block, tgt[0])
    sizes = {}
    for n in block:
        r = find(block, n)
        sizes[r] = sizes.get(r, 0) + 1
    width = max(sizes.values(), default=0) + 1

    # length: max kind changes along any ai-path
    succ, endnode, order = states
    best = {}
    for s in reversed(order):
        n = endnode[s]
        if n is None:
            best[s] = 0
            continue
        kind = flow.nodes[n]
        b = 0
        for t in succ[s]:
            m = endnode[t]
            step = best[t] + (1 if m is not None and flow.nodes[m] != kind else 0)
            if step > b:
                b = step
        best[s] = b
    length = 0
    for s, b in best.items():
        if b > length:
            length = b
        # paths may also start at a node (e.g. at a weakening); count the
        # change between that node and the first far node as well
        e, direction = s
        src, tgt = flow.edges[e]
        near = src if direction == DOWN else tgt
        far = endnode[s]
        if near is not None and far is not None:
            v = b + (1 if flow.nodes[near[0]] != flow.nodes[far] else 0)
            if v > length:
                length = v
    return length, width, breadth


def contraction_loops(flow: AtomicFlow):
    """All (cocontraction, contraction) pairs joined by two edge-disjoint
    directed paths, found by unit-capacity max flow."""
    ups = sorted(n for n, k in flow.nodes.items() if k == ACU)
    downs = sorted(n for n, k in flow.nodes.items() if k == ACD)
    if not ups or not downs:
        return []
    arcs = []  # (src node, tgt node)
    out_arcs = {n: [] for n in flow.nodes}
    in_arcs = {n: [] for n in flow.nodes}
    for e, (src, tgt) in sorted(flow.edges.items()):
        if src is not None and tgt is not None:
            i = len(arcs)
            arcs.append((src[0], tgt[0]))
            out_arcs[src[0]].append(i)
            in_arcs[tgt[0]].append(i)

    # plain reachability prefilter
    reach = {}

    def descendants(u):
        if u in reach:
            return reach[u]
        seen = set()
        stack = [u]
        while stack:
            x = stack.pop()
            for i in out_arcs[x]:
                y = arcs[i][1]
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        reach[u] = seen
        return seen

    def maxflow_at_least_2(u, v):
        cap = [1] * len(arcs)
        flow_val = 0
        for _ in range(2):
            # BFS in the residual graph
            prev = {u: None}
            queue = [u]
            qi = 0
            while qi < len(queue) and v not in prev:
                x = queue[qi]
                qi += 1
                for i in out_arcs[x]:
                    if cap[i] > 0 and arcs[i][1] not in prev:
                        prev[arcs[i][1]] = (i, 1)
                        queue.append(arcs[i][1])
                for i in in_arcs[x]:
                    if cap[i] == 0 and arcs[i][0] not in prev:
                        prev[arcs[i][0]] = (i, -1)
                        queue.append(arcs[i][0])
            if v not in prev:
                break
            x = v
            while prev[x] is not None:
                i, sign = prev[x]
                cap[i] -= sign
                x = arcs[i][0] if sign == 1 else arcs[i][1]
            flow_val += 1
            if flow_val >= 2:
                return True
        return False

    loops = []
    for u in ups:
        desc = descendants(u)
        for v in downs:
            if v in desc and maxflow_at_least_2(u, v):
                loops.append((u, v))
    return loops


def metrics_record(flow: AtomicFlow) -> dict:
    """The JSON-facing metrics summary of a flow."""
    states = _ordered_states(flow)
    length, width, breadth = _dimensions(flow, states)
    census = flow.kind_census()
    return {
        "edges": len(flow.edges),
        "nodes": {k: census.get(k, 0) for k in (AID, AWD, ACD, AIU, AWU, ACU)},
        "length": length,
        "width": width,
        "breadth": breadth,
        "open_ai_paths": str(_open_ai_paths(flow, states)),
        "contraction_loops": [[u, v] for u, v in contraction_loops(flow)],
    }

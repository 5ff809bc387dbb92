"""Flow measurements: ai-path counting, dimensions, contraction loops, weights.

An ai-path walks edges monotonically up or down and changes vertical
direction only at identity and cut nodes; it is open when both endpoints are
pending edge ends.  Open paths are counted modulo inversion.  The fast
counter is a dynamic program over one table of (edge, direction) states,
which the length measure reads as well; the brute-force enumerator is the
oracle it is tested against.
"""

from __future__ import annotations

from .derivation import ACD, ACU, AID, AIU, AWD, AWU
from .flow import AtomicFlow, topo_sort

DOWN, UP = 0, 1


class PathCountDivergence(RuntimeError):
    """The state graph has a directed cycle, so path counts are unbounded."""


class CapExceeded(ValueError):
    pass


def _state_table(flow: AtomicFlow):
    """The ai-path states of a flow and a topological order of them.

    Edge i, counted by its position in flow.edges, has the down state 2i and
    the up state 2i+1.  succ[s] is the tuple of states a path takes after s,
    and far[s] the kind of the node that s runs into, None at a pending end;
    the near end of s is the far end of s ^ 1.
    """
    state = {e: 2 * i for i, e in enumerate(flow.edges)}
    nodes, ins, outs = flow.nodes, flow.ins, flow.outs
    succ = []
    far = []
    for src, tgt in flow.edges.values():
        if tgt is None:
            succ.append(())
            far.append(None)
        else:
            n, port = tgt
            kind = nodes[n]
            if kind == ACD:
                succ.append((state[outs[n][0]],))
            elif kind == ACU:
                succ.append((state[outs[n][0]], state[outs[n][1]]))
            elif kind == AIU:
                succ.append((state[ins[n][1 - port]] + 1,))
            else:  # awu
                succ.append(())
            far.append(kind)
        if src is None:
            succ.append(())
            far.append(None)
        else:
            n, port = src
            kind = nodes[n]
            if kind == AID:
                succ.append((state[outs[n][1 - port]],))
            elif kind == ACD:
                succ.append((state[ins[n][0]] + 1, state[ins[n][1]] + 1))
            elif kind == ACU:
                succ.append((state[ins[n][0]] + 1,))
            else:  # awd
                succ.append(())
            far.append(kind)
    order = topo_sort(dict(enumerate(succ)))
    if order is None:
        raise PathCountDivergence("ai-path state graph is cyclic")
    return succ, far, order


def _paths_and_length(flow: AtomicFlow):
    """(open ai-paths, length) in one reverse sweep of the state table.

    count[s] is the number of paths from s to a pending end, and best[s] the
    most node-kind changes along one of them.  Each open path is counted
    once from each pending endpoint, so the path total is half the sum of
    the counts of the states that leave a pending end.  A path may also
    start at a node (say a weakening), so the length also counts the change
    between a state's near and far node.
    """
    succ, far, order = _state_table(flow)
    count = [1] * len(succ)
    best = [0] * len(succ)
    total = length = 0
    for s in reversed(order):
        kind = far[s]
        near = far[s ^ 1]
        if kind is not None:
            c = b = 0
            for t in succ[s]:
                c += count[t]
                v = best[t] + (far[t] is not None and far[t] != kind)
                if v > b:
                    b = v
            count[s] = c
            best[s] = b
            if near is not None and near != kind:
                b += 1
            if b > length:
                length = b
        if near is None:
            total += count[s]
    assert total % 2 == 0
    return total // 2, length


def open_ai_paths(flow: AtomicFlow) -> int:
    """Number of open ai-paths modulo inversion, by dynamic programming."""
    return _paths_and_length(flow)[0]


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
    length = _paths_and_length(flow)[1]
    return (length, *_width_breadth(flow))


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _width_breadth(flow: AtomicFlow):
    if not flow.nodes and not flow.edges:
        return 0, 0
    nodes = flow.nodes
    # breadth: components over node ids; an edge pending at both ends is a
    # component of its own, and an edge with one end belongs to its node's
    parent = {n: n for n in nodes}
    loose = 0
    for src, tgt in flow.edges.values():
        if src is not None and tgt is not None:
            parent[_find(parent, src[0])] = _find(parent, tgt[0])
        elif src is None and tgt is None:
            loose += 1
    breadth = len({_find(parent, n) for n in parent}) + loose

    # width: connected same-kind contraction blocks; an edge joining two
    # nodes of one kind joins their blocks
    block = {n: n for n, k in nodes.items() if k in (ACD, ACU)}
    for src, tgt in flow.edges.values():
        if src is not None and tgt is not None and src[0] in block and nodes[src[0]] == nodes[tgt[0]]:
            block[_find(block, src[0])] = _find(block, tgt[0])
    sizes = {}
    for n in block:
        r = _find(block, n)
        sizes[r] = sizes.get(r, 0) + 1
    width = max(sizes.values(), default=0) + 1
    return width, breadth



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
    paths, length = _paths_and_length(flow)
    width, breadth = _width_breadth(flow)
    census = flow.kind_census()
    return {
        "edges": len(flow.edges),
        "nodes": {k: census.get(k, 0) for k in (AID, AWD, ACD, AIU, AWU, ACU)},
        "length": length,
        "width": width,
        "breadth": breadth,
        "open_ai_paths": str(paths),
        "contraction_loops": [[u, v] for u, v in contraction_loops(flow)],
    }

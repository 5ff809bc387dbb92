"""The dict-based flow metrics, kept as the reference for deepflow.metrics.

States are (edge id, direction) tuples in dicts, and breadth is a union-find
over ("n", node) and ("e", edge) keys.  open_ai_paths, dimensions and
metrics_record return what the deepflow.metrics functions of the same names
return, and raise the same PathCountDivergence on a cyclic state graph.
"""

from deepflow.derivation import ACD, ACU, AID, AIU, AWD, AWU
from deepflow.flow import AtomicFlow, topo_sort
from deepflow.metrics import PathCountDivergence, contraction_loops

DOWN, UP = 0, 1


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

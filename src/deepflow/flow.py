"""Atomic flows: directed port graphs tracing atom occurrences in a derivation.

A flow has six node kinds with fixed port arities.  Edges run top to bottom
and may be pending at either end.  Extraction walks the derivation tree once,
creating one node per structural step and threading every literal occurrence
onto an edge; switch, medial and eq steps leave no nodes, they only connect
occurrences across the step interface.

The occurrence map produced by extraction is plumbing for proof lifting: it
records which leaf occurrences of the derivation lie on each edge, and which
derivation step each node came from.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .derivation import (
    ACD,
    ACU,
    AID,
    AIU,
    AWD,
    AWU,
    COMP,
    DUAL_RULE,
    EQ,
    LEAF,
    S,
    SKS,
    STRUCTURAL,
    Derivation,
    conclusion,
    ensure_checked,
    premiss,
)
from .formula import canonical_occurrence_map, n_occurrences

NODE_KINDS = (AID, AWD, ACD, AIU, AWU, ACU)

# (in ports, out ports)
ARITY = {
    AID: (0, 2),
    AWD: (0, 1),
    ACD: (2, 1),
    AIU: (2, 0),
    AWU: (1, 0),
    ACU: (1, 2),
}

class AtomicFlow:
    """Port graph, valid by construction and never changed after it
    (tests/test_layout.py keeps the package from storing into one).

    nodes: id -> kind.  edges: id -> (src, tgt) where each end is None
    (pending) or a (node id, port index) pair; src ends sit on out-ports,
    tgt ends on in-ports.  ins and outs map each node to its
    {port: edge}.  A graph that fails validate raises ValueError.
    """

    __slots__ = ("nodes", "edges", "ins", "outs")

    def __init__(self, nodes, edges):
        self.nodes = dict(nodes)
        self.edges = dict(edges)
        report = validate(self.nodes, self.edges)
        if not report.ok:
            raise ValueError(f"invalid flow: {report.errors}")
        self.ins = report.ins
        self.outs = report.outs

    @property
    def n_edges(self):
        return len(self.edges)

    def pending_top(self):
        return sorted(e for e, (s, _) in self.edges.items() if s is None)

    def pending_bottom(self):
        return sorted(e for e, (_, t) in self.edges.items() if t is None)

    def kind_census(self):
        out = {}
        for k in self.nodes.values():
            out[k] = out.get(k, 0) + 1
        return out

    def __repr__(self):
        return f"AtomicFlow(nodes={len(self.nodes)}, edges={len(self.edges)})"


class FlowBuilder:
    """Convenience constructor for hand-built flows in tests and families."""

    def __init__(self):
        self._nodes = {}
        self._edges = {}
        self._next = 0

    def node(self, kind):
        if kind not in ARITY:
            raise ValueError(f"unknown node kind {kind!r}")
        n = self._next
        self._next += 1
        self._nodes[n] = kind
        return n

    def edge(self, src=None, tgt=None):
        e = self._next
        self._next += 1
        self._edges[e] = (src, tgt)
        return e

    def build(self) -> AtomicFlow:
        return AtomicFlow(self._nodes, self._edges)


@dataclass
class FlowReport:
    """validate's verdict: the (code, message) errors, and each node's
    {port: edge} maps of in-edges and out-edges."""

    ok: bool
    errors: list
    ins: dict
    outs: dict


def topo_sort(succ):
    """Kahn's algorithm: an order of succ's keys that puts every key before its
    successors, or None when succ has a cycle.  Every successor is a key."""
    indeg = dict.fromkeys(succ, 0)
    for nxt in succ.values():
        for m in nxt:
            indeg[m] += 1
    queue = [n for n, d in indeg.items() if d == 0]
    order = []
    while queue:
        n = queue.pop()
        order.append(n)
        for m in succ[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                queue.append(m)
    return order if len(order) == len(succ) else None


def validate(nodes, edges) -> FlowReport:
    """Node kind, arity, port typing and acyclicity checks of a node dict
    and an edge dict; the report carries the port maps of the graph."""
    errors = []
    arity = {}
    for n, kind in nodes.items():
        if kind in NODE_KINDS:
            arity[n] = ARITY[kind]
        else:
            errors.append(("unknown-kind", f"node {n} has unknown kind {kind!r}"))
    ins = {n: {} for n in nodes}
    outs = {n: {} for n in nodes}
    succ = {n: [] for n in nodes}
    for e, (src, tgt) in edges.items():
        for end, table, which in ((src, outs, "out"), (tgt, ins, "in")):
            if end is None:
                continue
            n, port = end
            if n not in nodes:
                errors.append(("dangling-port", f"edge {e} references missing node {n}"))
                continue
            if n not in arity:
                continue
            lim = arity[n][0 if which == "in" else 1]
            if not (0 <= port < lim):
                errors.append(("arity-violation", f"edge {e} uses {which}-port {port} of {nodes[n]} node {n}"))
                continue
            if port in table[n]:
                errors.append(("arity-violation", f"{which}-port {port} of node {n} attached twice"))
            table[n][port] = e
        if src is not None and tgt is not None and src[0] in succ and tgt[0] in succ:
            succ[src[0]].append(tgt[0])
    for n, (want_in, want_out) in arity.items():
        kind = nodes[n]
        if len(ins[n]) != want_in:
            errors.append(("arity-violation", f"node {n} ({kind}) has {len(ins[n])}/{want_in} in-edges"))
        if len(outs[n]) != want_out:
            errors.append(("arity-violation", f"node {n} ({kind}) has {len(outs[n])}/{want_out} out-edges"))
    # acyclicity of the node graph, edges oriented downward
    if topo_sort(succ) is None:
        errors.append(("cycle-found", "directed cycle among nodes"))
    return FlowReport(not errors, errors, ins, outs)


# -- extraction -----------------------------------------------------------------


class Extraction:
    """Flow of a derivation plus the edge <-> occurrence bookkeeping.

    Positions in the derivation tree are path nodes: None for the root, and
    the pair (parent path node, branch) below it, with branch 0 for the left
    or upper child and 1 for the right or lower one.  Every position has one
    path node object.
    """

    __slots__ = ("flow", "_leaves", "_ids", "_node_paths")

    def __init__(self, flow, leaves, ids, node_paths):
        self.flow = flow
        self._leaves = leaves  # (path node, edge ids) per leaf, in leaf order
        self._ids = ids  # flow edge -> edge id
        self._node_paths = node_paths

    def segments(self, edges):
        """Occurrences on each of the edges, as a dict from edge to a list of
        (path node, in-order occ index) pairs in leaf order."""
        want = {self._ids[e]: [] for e in edges}
        for pathnode, ids in self._leaves:
            if not want.keys().isdisjoint(ids):
                for i, x in enumerate(ids):
                    if x in want:
                        want[x].append((pathnode, i))
        return {e: want[self._ids[e]] for e in edges}

    def node_path(self, node):
        """The path node of the step a flow node came from."""
        return self._node_paths[node]


def path_of(pathnode):
    """The branches from the root to a path node, as a tuple."""
    out = []
    while pathnode is not None:
        pathnode, branch = pathnode
        out.append(branch)
    out.reverse()
    return tuple(out)


def extract(d: Derivation) -> Extraction:
    """Extract the atomic flow of an SKS derivation, which is checked first
    (in O(1) when it has been checked already).

    One walk in tree order hands each subderivation the edges of its premiss
    occurrences and collects the edges of its conclusion occurrences: a leaf
    passes them through, eq, switch and medial steps permute them, and a
    structural step ends the edges above it at a new node and starts fresh
    edges below it.  Edges are numbered by their first occurrence in
    left-to-right leaf order, nodes in post-order of their steps.
    """
    ensure_checked(d, SKS)

    src = []  # per edge id, in creation order
    tgt = []
    number = []  # edge id -> flow edge, set at the edge's first occurrence
    numbered = 0
    leaves = []
    nodes = {}
    node_paths = {}

    def fresh(n):
        first = len(src)
        src.extend([None] * n)
        tgt.extend([None] * n)
        number.extend([None] * n)
        return [first, list(range(first, first + n)), 0]

    # Leaves take their edges from the top input, a list [id of its first
    # edge if the edges are fresh (else None), edge ids, cursor], and append
    # them to out, the conclusion edges of the part being walked.
    inputs = [fresh(n_occurrences(premiss(d)))]
    out = []
    stack = [(_VISIT, d, None, None)]
    while stack:
        tag, node, pathnode, x = stack.pop()
        if tag is _VISIT:
            # down the left and upper children to a leaf
            while node.kind != LEAF:
                if node.kind == COMP:
                    stack.append((_VISIT, node.b, (pathnode, 1), None))
                else:
                    stack.append((_JOIN, node, pathnode, out))
                    out = []
                node = node.a
                pathnode = (pathnode, 0)
            inp = inputs[-1]
            first, ids, c = inp
            n = n_occurrences(node.a)
            inp[2] = c + n
            mine = ids[c : c + n]
            if first is not None:
                number[first + c : first + c + n] = range(numbered, numbered + n)
                numbered += n
            out += mine
            leaves.append((pathnode, mine))
        elif tag is _JOIN:
            # out holds the conclusion edges of node.a, and x the list that
            # collects the step's conclusion, which is node.b's
            upper = out
            out = x
            rule = node.rule
            if rule in STRUCTURAL:
                inp = fresh(ARITY[rule][1])
                stack.append((_END, node, pathnode, (upper, inp[1])))
            else:
                inp = [None, _permute(rule, node, upper), 0]
                stack.append((_END, node, pathnode, None))
            inputs.append(inp)
            stack.append((_VISIT, node.b, (pathnode, 1), None))
        else:
            # the end of a step, with the ports of its node if it has one
            inputs.pop()
            if x is not None:
                upper, lower = x
                n = len(nodes)
                nodes[n] = node.rule
                node_paths[n] = pathnode
                for port, e in enumerate(upper):
                    tgt[e] = (n, port)
                for port, e in enumerate(lower):
                    src[e] = (n, port)

    ids = sorted(range(len(number)), key=number.__getitem__)
    edges = {i: (src[e], tgt[e]) for i, e in enumerate(ids)}
    return Extraction(AtomicFlow(nodes, edges), leaves, ids, node_paths)


# the actions of extract's walk
_VISIT, _JOIN, _END = "visit", "join", "end"


def _permute(rule, node, upper):
    """The premiss edges of node.b, given the conclusion edges of node.a, of
    an eq, switch or medial step."""
    if rule == EQ:
        mx = canonical_occurrence_map(conclusion(node.a))
        my = canonical_occurrence_map(premiss(node.b))
        if mx == my:
            return upper
        by_canon = [None] * len(upper)
        for i, e in enumerate(upper):
            by_canon[mx[i]] = e
        return [by_canon[j] for j in my]
    if rule == S:
        return upper
    # medial: [(A&B)|(C&D)] over ([A|C]&[B|D])
    x = conclusion(node.a)
    i = n_occurrences(x.a.a)
    j = i + n_occurrences(x.a.b)
    k = j + n_occurrences(x.b.a)
    return upper[:i] + upper[j:k] + upper[i:j] + upper[k:]


def flip_dual(flow: AtomicFlow) -> AtomicFlow:
    """The flow turned upside down with every node kind replaced by its dual."""
    nodes = {n: DUAL_RULE[k] for n, k in flow.nodes.items()}
    edges = {e: (tgt, src) for e, (src, tgt) in flow.edges.items()}
    return AtomicFlow(nodes, edges)


# -- isomorphism -----------------------------------------------------------------


def canonical_key(flow: AtomicFlow):
    """A hashable key that two flows share exactly when they are isomorphic.

    Isomorphism preserves node kinds and edge attachment, with the two
    in-ports of contractions (and cut) and the two out-ports of
    cocontractions (and identity) unordered; pending ends are kept.  The key
    is the number of edges pending at both ends plus the sorted certificates
    of the connected components.
    """
    up = {n: [] for n in flow.nodes}  # the node above each in-edge, None if pending
    down = {n: [] for n in flow.nodes}
    free = 0
    for s, t in flow.edges.values():
        if s is None and t is None:
            free += 1
        if s is not None:
            down[s[0]].append(None if t is None else t[0])
        if t is not None:
            up[t[0]].append(None if s is None else s[0])
    seen = set()
    certs = []
    for root in flow.nodes:
        if root in seen:
            continue
        seen.add(root)
        comp = [root]
        for n in comp:
            for m in up[n] + down[n]:
                if m is not None and m not in seen:
                    seen.add(m)
                    comp.append(m)
        certs.append(_certificate(comp, flow.nodes, up, down))
    return free, tuple(sorted(certs))


def _certificate(comp, kinds, up, down):
    """Canonical form of one connected component by individualisation and
    refinement (McKay and Piperno, Practical graph isomorphism II, 2014).

    A colouring maps each node to the start position of its cell in an
    ordered partition, and None, the far end of a pending edge, to -1.  The
    certificate is the sorted kinds plus the least sorted arc list, by
    position, over the leaves of the search tree.
    """
    arcs = [(n, m) for n in comp for m in down[n]] + [(None, n) for n in comp for m in up[n] if m is None]
    order = sorted(kinds[n] for n in comp)
    start = {kind: order.index(kind) for kind in set(order)}

    def refine(col):
        """The coarsest equitable refinement of col, which splits cells in
        place, and the members of its first non-singleton cell."""
        while True:
            size = Counter(col.values())
            live = [v for v in comp if size[col[v]] > 1]
            if not live:
                return col, []
            sig = {v: (col[v], sorted([col[u] for u in up[v]]), sorted([col[d] for d in down[v]])) for v in live}
            live.sort(key=sig.__getitem__)
            new = dict(col)
            cell_start = {}  # index in live of the first member of each cell
            for j, v in enumerate(live):
                cell_start.setdefault(col[v], j)
                if j == 0 or sig[v] != sig[live[j - 1]]:
                    colour = col[v] + j - cell_start[col[v]]
                new[v] = colour
            if new == col:
                return col, [v for v in live if col[v] == col[live[0]]]
            col = new

    def individualise(col, v):
        new = {u: c + 1 if c == col[v] else c for u, c in col.items()}
        new[v] = col[v]
        return new

    def leaf(col):
        return tuple(sorted((col[n], col[m]) for n, m in arcs))

    def first_leaf(col):
        col, cell = refine(col)
        while cell:
            col, cell = refine(individualise(col, cell[0]))
        return leaf(col)

    def leaves(col):
        """The certificates of the leaves below col.  A child whose first
        leaf is already known is pruned: an automorphism fixing the prefix
        maps it onto an explored sibling, so its subtree repeats theirs."""
        col, cell = refine(col)
        if not cell:
            return {leaf(col)}
        found = set()
        for v in cell:
            child = individualise(col, v)
            if not found or first_leaf(child) not in found:
                found |= leaves(child)
        return found

    col = {n: start[kinds[n]] for n in comp}
    col[None] = -1
    return tuple(order), min(leaves(col))


def iso(f1: AtomicFlow, f2: AtomicFlow) -> bool:
    """Kind- and attachment-preserving graph isomorphism; see canonical_key."""
    return canonical_key(f1) == canonical_key(f2)


# -- export ----------------------------------------------------------------------

PENDING_TOP = "pending-top"
PENDING_BOTTOM = "pending-bottom"

_DOT_SHAPE = {
    AID: "invtriangle",
    AWD: "invhouse",
    ACD: "triangle",
    AIU: "triangle",
    AWU: "house",
    ACU: "invtriangle",
}


def to_dot(flow: AtomicFlow) -> str:
    """Deterministic DOT rendering; pending ends become point nodes."""
    lines = ["digraph flow {", "  rankdir=TB;"]
    for n in sorted(flow.nodes):
        kind = flow.nodes[n]
        lines.append(f'  n{n} [label="{kind}" shape={_DOT_SHAPE[kind]}];')
    for e in sorted(flow.edges):
        s, t = flow.edges[e]
        if s is None:
            lines.append(f"  pt{e} [shape=point];")
        if t is None:
            lines.append(f"  pb{e} [shape=point];")
        a = f"n{s[0]}" if s is not None else f"pt{e}"
        b = f"n{t[0]}" if t is not None else f"pb{e}"
        lines.append(f'  {a} -> {b} [label="{e}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(flow: AtomicFlow) -> str:
    nodes = [{"id": n, "kind": flow.nodes[n]} for n in sorted(flow.nodes)]
    edges = []
    for e in sorted(flow.edges):
        s, t = flow.edges[e]
        edges.append(
            {
                "id": e,
                "from": PENDING_TOP if s is None else [s[0], s[1]],
                "to": PENDING_BOTTOM if t is None else [t[0], t[1]],
            }
        )
    return json.dumps({"nodes": nodes, "edges": edges}, indent=1) + "\n"


def from_json(text: str) -> AtomicFlow:
    """Parse and validate flow JSON.  Every malformed input raises
    ValueError; a graph that fails validate raises the AtomicFlow
    constructor's."""
    try:
        data = json.loads(text)
        nodes = [(int(n["id"]), n["kind"]) for n in data["nodes"]]
        edges = []
        for e in data["edges"]:
            s = None if e["from"] == PENDING_TOP else (int(e["from"][0]), int(e["from"][1]))
            t = None if e["to"] == PENDING_BOTTOM else (int(e["to"][0]), int(e["to"][1]))
            edges.append((int(e["id"]), (s, t)))
    except (KeyError, IndexError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        # ValueError: text that is not JSON, or an id that is not a number;
        # OverflowError: an id of Infinity; RecursionError: json.loads on
        # too deeply nested input
        raise ValueError(f"invalid flow JSON: malformed ({exc!r})") from exc
    for what, items in (("node", nodes), ("edge", edges)):
        seen = set()
        for i, _ in items:
            if i in seen:
                raise ValueError(f"invalid flow JSON: duplicate {what} id {i}")
            seen.add(i)
    return AtomicFlow(nodes, edges)

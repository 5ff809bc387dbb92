"""The union-find extraction kernel, kept as the reference for flow.extract.

It makes one edge per leaf occurrence and merges the edges of occurrences
that an eq, switch or medial step connects; the representative of a class is
its topmost occurrence.  It returns the flow, the occurrences of each edge as
a set of (derivation path, in-order occurrence index) pairs, and the
derivation path of each node's step.
"""

from deepflow.derivation import COMP, EQ, LEAF, M, S, conclusion, premiss
from deepflow.flow import ARITY, AtomicFlow
from deepflow.formula import canonical_occurrence_map, n_occurrences


def _flatten(rope, out):
    stack = [rope]
    while stack:
        r = stack.pop()
        if isinstance(r, list):
            out.extend(r)
        else:
            stack.append(r[1])
            stack.append(r[0])
    return out


def reference_extract(d):
    src = []
    tgt = []
    seg = []
    uf = []

    def new_edge(path, idx):
        e = len(uf)
        uf.append(e)
        src.append(None)
        tgt.append(None)
        seg.append([(path, idx)])
        return e

    def find(e):
        while uf[e] != e:
            uf[e] = uf[uf[e]]
            e = uf[e]
        return e

    def union_vert(e, f):
        # e's bottom end meets f's top end; e stays the representative
        e = find(e)
        f = find(f)
        assert e != f, "occurrence threading collapsed an edge onto itself"
        seg[e].extend(seg[f])
        seg[f] = None
        tgt[e] = tgt[f]
        uf[f] = e

    nodes = {}
    node_paths = {}

    def new_node(kind, path):
        n = len(nodes)
        nodes[n] = kind
        node_paths[n] = path
        return n

    # post-order over tree positions; results are (premiss rope, conclusion rope)
    results = []
    stack = [(d, (), False)]
    while stack:
        node, path, done = stack.pop()
        if not done:
            if node.kind == LEAF:
                ids = [new_edge(path, i) for i in range(n_occurrences(node.a))]
                results.append((ids, ids))
                continue
            stack.append((node, path, True))
            stack.append((node.b, path + (1,), False))
            stack.append((node.a, path + (0,), False))
            continue
        pb, cb = results.pop()
        pa, ca = results.pop()
        if node.kind == COMP:
            results.append(((pa, pb), (ca, cb)))
            continue
        rule = node.rule
        upper = _flatten(ca, [])
        lower = _flatten(pb, [])
        if rule == EQ:
            mx = canonical_occurrence_map(conclusion(node.a))
            my = canonical_occurrence_map(premiss(node.b))
            inv = [0] * len(my)
            for j, pos in enumerate(my):
                inv[pos] = j
            for i, e in enumerate(upper):
                union_vert(e, lower[inv[mx[i]]])
        elif rule == S:
            for e, f in zip(upper, lower):
                union_vert(e, f)
        elif rule == M:
            x = conclusion(node.a)
            na = n_occurrences(x.a.a)
            nb = n_occurrences(x.a.b)
            nc = n_occurrences(x.b.a)
            for i, e in enumerate(upper):
                if i < na:
                    j = i
                elif i < na + nb:
                    j = na + nc + (i - na)
                elif i < na + nb + nc:
                    j = na + (i - na - nb)
                else:
                    j = i
                union_vert(e, lower[j])
        else:
            n = new_node(rule, path)
            assert len(upper) == ARITY[rule][0] and len(lower) == ARITY[rule][1]
            for port, e in enumerate(upper):
                tgt[find(e)] = (n, port)
            for port, f in enumerate(lower):
                src[find(f)] = (n, port)
        results.append((pa, cb))

    roots = [e for e in range(len(uf)) if uf[e] == e]
    edges = {i: (src[e], tgt[e]) for i, e in enumerate(roots)}
    segments = {i: set(seg[e]) for i, e in enumerate(roots)}
    return AtomicFlow(nodes, edges), segments, node_paths

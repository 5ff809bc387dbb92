"""Lifting flow rewrites to sound derivation transformations.

Each rewrite rule acts on a derivation through the same recipe: replace the
literal occurrences threaded along the redex edge by a unit (or by a
duplicated literal for the cocontraction rules), which turns the two anchor
steps into steps on degenerate shapes; those are then repaired locally with
eq steps and small blocks of atomic rules.  Occurrence positions come from
the extraction's occurrence map, so only the touched paths of the derivation
tree are rebuilt.

normalize_proof follows rewrite's one weakenings-then-cocontractions
strategy, wk_first_batches, and lifts each of its batches of node-disjoint
redexes in one rebuild until the flow is normal, turning any KS+ proof into
a KS proof of the same conclusion.  lift_step lifts a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .derivation import (
    ACD,
    AID,
    AWD,
    COMP,
    EQ,
    GCD,
    GWD,
    GWU,
    KS,
    KS_PLUS,
    LEAF,
    S,
    SKS,
    Derivation,
    cocontract_copies,
    compose,
    conclusion,
    endpoints,
    ensure_checked,
    expand_generic,
    glue,
    in_context,
    is_proof,
    leaf,
    premiss,
    size,
    step,
)
from .flow import Extraction, extract, iso, path_of
from .formula import bot, conj, disj, occurrence_literals, replace_occurrences, top
from .rewrite import (
    CD_CU,
    CD_WU,
    CU_WU,
    ID_CU,
    ID_WU,
    WD_CD,
    WD_CU,
    WD_WU,
    WK,
    Redex,
    apply_redex,
    find_redexes,
    normalize,
    wk_first_batches,
)


class LiftError(ValueError):
    pass


# -- tree surgery -----------------------------------------------------------------


def _trie_at(at, pathnode):
    """The trie node of a path node.  at maps id(path node) to trie node and
    starts as {id(None): trie}; each path node is placed once."""
    down = []
    while id(pathnode) not in at:
        down.append(pathnode)
        pathnode = pathnode[0]
    node = at[id(pathnode)]
    for p in reversed(down):
        node = node.setdefault(p[1], {})
        at[id(p)] = node
    return node


def _add_substitutions(at, segment, repl_formula):
    for pathnode, occidx in segment:
        subs = _trie_at(at, pathnode).setdefault("subs", {})
        if occidx in subs:
            raise LiftError("overlapping substitutions on one occurrence")
        subs[occidx] = repl_formula


def _add_replacer(at, pathnode, fn):
    node = _trie_at(at, pathnode)
    if "repl" in node:
        raise LiftError("two step replacements at one path")
    node["repl"] = fn


def _rebuild(root: Derivation, trie) -> Derivation:
    """Apply a surgery trie to the derivation; untouched subtrees are shared."""
    order = []
    stack = [(root, trie)]
    while stack:
        node, tr = stack.pop()
        order.append((node, tr))
        if node.kind != LEAF:
            ta = tr.get(0)
            tb = tr.get(1)
            if tb is not None:
                stack.append((node.b, tb))
            if ta is not None:
                stack.append((node.a, ta))
    done = {}
    for node, tr in reversed(order):
        if node.kind == LEAF:
            subs = tr.get("subs")
            new = leaf(replace_occurrences(node.a, subs)) if subs else node
        else:
            ta = tr.get(0)
            tb = tr.get(1)
            a2 = done[(id(node.a), id(ta))] if ta is not None else node.a
            b2 = done[(id(node.b), id(tb))] if tb is not None else node.b
            if a2 is node.a and b2 is node.b:
                new = node
            elif node.kind == COMP:
                new = compose(node.rule, a2, b2)
            elif node.rule == EQ:
                new = glue(a2, b2)
            else:
                new = step(node.rule, a2, b2)
        fn = tr.get("repl")
        if fn is not None:
            new = fn(new)
        done[(id(node), id(tr))] = new
    return done[(id(root), id(trie))]


# -- per-rule transformers -----------------------------------------------------------


def _join(node: Derivation) -> Derivation:
    """Replace a step whose sides became =-equal by an eq joint."""
    return glue(node.a, node.b)


def _repair_id_wu(node: Derivation) -> Derivation:
    # T over [a|T] (or [T|a]): re-create the survivor with a weakening
    target = premiss(node.b)
    if target.a == top:
        block = compose("or", leaf(top), step(AWD, leaf(bot), leaf(target.b)))
    else:
        block = compose("or", step(AWD, leaf(bot), leaf(target.a)), leaf(top))
    return glue(node.a, block, node.b)


def _repair_wd_cu(node: Derivation) -> Derivation:
    # F over (a&a): two weakenings through (F&F)
    return glue(node.a, expand_generic(GWD, premiss(node.b)), node.b)


def _repair_wd_wu(node: Derivation) -> Derivation:
    # F over T: the unit switch
    return glue(node.a, expand_generic(GWD, top), node.b)


def _repair_cd_wu(node: Derivation) -> Derivation:
    # [a|a] over T: coweaken both copies, then [T|T] = T
    return glue(node.a, expand_generic(GWU, conclusion(node.a)), node.b)


def _repair_cd_cu(node: Derivation) -> Derivation:
    # [a|a] over (a&a): cocontract both copies, medial, contract both sides
    a = conclusion(node.a).a
    copies = compose("or", cocontract_copies(a, 2), cocontract_copies(a, 2))
    return glue(node.a, copies, expand_generic(GCD, conj(a, a)), node.b)


def _repair_id_cu(node: Derivation) -> Derivation:
    # T over [(c&c)|b] (or mirrored): two identities, contract the duals
    target = premiss(node.b)
    if target.a.kind == "and":
        cc, b = target.a, target.b
    else:
        b, cc = target.a, target.b
    c = cc.a
    pair = disj(c, b)
    ids = compose(
        "and",
        step(AID, leaf(top), leaf(pair)),
        step(AID, leaf(top), leaf(pair)),
    )
    s1 = step(S, leaf(conj(pair, pair)), leaf(disj(conj(pair, c), b)))
    inner = glue(
        leaf(conj(pair, c)),
        step(S, leaf(conj(c, pair)), leaf(disj(conj(c, c), b))),
    )
    w1 = in_context(disj(conj(pair, c), b), (0,), inner)
    w2 = in_context(disj(conj(c, c), disj(b, b)), (1,), step(ACD, leaf(disj(b, b)), leaf(b)))
    block = glue(leaf(top), ids, s1, w1, w2)
    return glue(node.a, block, node.b)


# substitution formula and repairs per rewrite rule; None means plain eq joint
_TRANSFORMS = {
    WD_CD: (lambda lit: bot, _join, _join),
    ID_WU: (lambda lit: top, _repair_id_wu, _join),
    CU_WU: (lambda lit: top, _join, _join),
    WD_CU: (lambda lit: bot, _join, _repair_wd_cu),
    WD_WU: (lambda lit: bot, _join, _repair_wd_wu),
    CD_WU: (lambda lit: top, _repair_cd_wu, _join),
    CD_CU: (lambda lit: conj(lit, lit), _repair_cd_cu, _join),
    ID_CU: (lambda lit: conj(lit, lit), _repair_id_cu, _join),
}


def _segment_literal(d: Derivation, segment):
    """The literal carried by an edge, read off its first occurrence."""
    pathnode, occidx = segment[0]
    node = d
    for b in path_of(pathnode):
        node = node.a if b == 0 else node.b
    return occurrence_literals(node.a)[occidx]


def _surgery_for(at, d: Derivation, ext: Extraction, redex: Redex, segment):
    """Add the surgery of one redex, whose edge has the occurrences in
    segment, to the trie that at places path nodes in."""
    subst, repair_src, repair_tgt = _TRANSFORMS[redex.rule]
    _add_substitutions(at, segment, subst(_segment_literal(d, segment)))
    _add_replacer(at, ext.node_path(redex.src), repair_src)
    _add_replacer(at, ext.node_path(redex.tgt), repair_tgt)


def _lift_batch(d: Derivation, ext: Extraction, batch) -> Derivation:
    """Lift node-disjoint redexes of ext.flow, the flow of d, in one rebuild;
    the result is checked in SKS."""
    segments = ext.segments([r.edge for r in batch])
    trie = {}
    at = {id(None): trie}
    for r in batch:
        _surgery_for(at, d, ext, r, segments[r.edge])
    return ensure_checked(_rebuild(d, trie), SKS)


def lift_step(d: Derivation, redex: Redex, ext: Extraction | None = None) -> Derivation:
    """Transform d so that its flow becomes the one-step reduct of redex.

    Premiss and conclusion are preserved exactly; the result is re-checked
    and its flow checked isomorphic to the reduct.
    """
    if ext is None:
        ext = extract(d)
    reduct = apply_redex(ext.flow, redex)  # raises StaleRedexError on mismatch
    result = _lift_batch(d, ext, [redex])
    if endpoints(result) != endpoints(d):
        raise LiftError("lift step changed the endpoints")
    _require_same_flow(extract(result).flow, reduct, "lifted flow", "the reduct")
    return result


def _require_same_flow(got, want, what, target):
    """Raise LiftError unless the two flows are isomorphic."""
    if not iso(got, want):
        raise LiftError(f"{what} is not isomorphic to {target}")


@dataclass
class NormalizeProofReport:
    wk_steps: int
    cont_steps: int
    passes: int
    input_size: int
    output_size: int
    input_flow_edges: int
    output_flow_edges: int


def normalize_proof(d: Derivation, with_report: bool = False):
    """Turn a KS+ proof into a KS proof of the same conclusion.

    Each batch of wk_first_batches is lifted in one pass, from the flow
    extracted after the previous one.  The final flow is checked redex-free
    and against the flow-level normal form.
    """
    ensure_checked(d, KS_PLUS)
    if not is_proof(d):
        raise LiftError("normalize_proof expects a proof (premiss T)")
    ext0 = extract(d)
    target, _ = normalize(ext0.flow, measures=False)

    current = d
    ext = ext0
    wk_steps = cont_steps = passes = 0
    # wk_first_batches asks for redexes only after each pass, so the lambda
    # reads the extraction of the current derivation
    for sub, batch in wk_first_batches(lambda sub: find_redexes(ext.flow, sub)):
        passes += 1
        if sub is WK:
            wk_steps += len(batch)
        else:
            cont_steps += len(batch)
        current = _lift_batch(current, ext, batch)
        ext = extract(current)

    ensure_checked(current, KS)
    if endpoints(current) != endpoints(d):
        raise LiftError("normalization changed the endpoints")
    final = ext.flow
    if find_redexes(final):
        raise LiftError("result flow still has redexes")
    _require_same_flow(final, target, "result flow", "the flow-level normal form")
    if with_report:
        report = NormalizeProofReport(
            wk_steps,
            cont_steps,
            passes,
            size(d),
            size(current),
            len(ext0.flow.edges),
            len(final.edges),
        )
        return current, report
    return current

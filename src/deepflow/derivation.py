"""SKS derivations as inductive objects, with the nine-rule checker.

A derivation is a formula leaf, a horizontal composition of two derivations
under a connective, or a vertical composition of two derivations through an
inference step.  Inference steps are shallow: the step relates the full
conclusion of the upper derivation to the full premiss of the lower one, and
deep application is expressed by horizontal composition.

All traversals are iterative so that very deep proof objects (the generated
pipelines produce chains thousands of steps long) never hit the interpreter
recursion limit.  Subderivations may be shared; sizes and rule censuses count
tree occurrences, not distinct objects.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .formula import (
    AND,
    OR,
    Formula,
    bot,
    conj,
    disj,
    dual,
    eq_mod,
    fprint,
    is_literal,
    mirror_dual,
    n_occurrences,
    neg,
    read_formula,
    token_position,
    top,
)

# rule identifiers
AID, AWD, ACD, AIU, AWU, ACU, S, M, EQ = (
    "aid",
    "awd",
    "acd",
    "aiu",
    "awu",
    "acu",
    "s",
    "m",
    "eq",
)

STRUCTURAL = frozenset({AID, AWD, ACD, AIU, AWU, ACU})

KS = frozenset({AID, AWD, ACD, S, M, EQ})
KS_PLUS = KS | {AWU, ACU}
SKS = KS_PLUS | {AIU}

# each rule's upside-down counterpart; on the structural rules, the dual flow
# node kind
DUAL_RULE = {AID: AIU, AIU: AID, AWD: AWU, AWU: AWD, ACD: ACU, ACU: ACD, S: S, M: M, EQ: EQ}


def dual_system(system):
    return frozenset(DUAL_RULE[r] for r in system)


LEAF, COMP, STEP = "leaf", "comp", "step"

# the bits of Derivation._bare: the sides on which _strip leaves a node as it is
_TOP_BARE, _BOTTOM_BARE = 1, 2


class Derivation:
    """Leaf(formula) | Compose(connective, left, right) | Step(rule, upper, lower).

    Nodes are immutable and built children first, so each node takes its
    premiss, conclusion and size from its children when it is built, and
    the sides on which it holds no eq re-anchor (see _strip).
    """

    __slots__ = ("kind", "rule", "a", "b", "_pr", "_cn", "_size", "_valid", "_bare")

    def __init__(self, kind, rule=None, a=None, b=None):
        self.kind = kind
        self.rule = rule
        self.a = a
        self.b = b
        if kind == LEAF:
            self._pr = self._cn = a
            self._size = n_occurrences(a)
            self._bare = _TOP_BARE | _BOTTOM_BARE
        elif kind == COMP:
            self._pr = Formula(rule, a._pr, b._pr)
            self._cn = Formula(rule, a._cn, b._cn)
            self._size = a._size + b._size
            self._bare = a._bare & b._bare
        else:
            self._pr = a._pr
            self._cn = b._cn
            self._size = a._size + b._size
            if rule == EQ:
                self._bare = (0 if a.kind == LEAF else a._bare & _TOP_BARE) | (
                    0 if b.kind == LEAF else b._bare & _BOTTOM_BARE
                )
            else:
                self._bare = (a._bare & _TOP_BARE) | (b._bare & _BOTTOM_BARE)
        self._valid = None  # see check

    def __repr__(self):
        if self.kind == LEAF:
            return f"Leaf({fprint(self.a)})"
        if self.kind == COMP:
            return f"Compose({self.rule}, ...)"
        return f"Step({self.rule}, ...)"


def leaf(f: Formula) -> Derivation:
    return Derivation(LEAF, a=f)


def compose(conn: str, a: Derivation, b: Derivation) -> Derivation:
    if conn not in (AND, OR):
        raise ValueError(f"bad connective {conn!r}")
    return Derivation(COMP, rule=conn, a=a, b=b)


def step(rule: str, upper: Derivation, lower: Derivation) -> Derivation:
    return Derivation(STEP, rule=rule, a=upper, b=lower)


def bottom_up(d: Derivation, f, cached=None):
    """Evaluate f(node, aval, bval) bottom-up over the derivation DAG.

    When ``cached(node)`` is not None it is taken as the node's value, and the
    walk does not descend below that node.
    """
    vals = {}  # id(node) -> value; every node stays reachable from d
    stack = [d]
    while stack:
        node = stack[-1]
        ni = id(node)
        if ni in vals:
            stack.pop()
            continue
        if cached is not None:
            v = cached(node)
            if v is not None:
                vals[ni] = v
                stack.pop()
                continue
        if node.kind == LEAF:
            vals[ni] = f(node, None, None)
            stack.pop()
            continue
        va = vals.get(id(node.a))
        vb = vals.get(id(node.b))
        if va is None and id(node.a) not in vals:
            stack.append(node.a)
            continue
        if vb is None and id(node.b) not in vals:
            stack.append(node.b)
            continue
        vals[ni] = f(node, vals[id(node.a)], vals[id(node.b)])
        stack.pop()
    return vals[id(d)]


def endpoints(d: Derivation):
    """(premiss, conclusion) of a derivation."""
    return d._pr, d._cn


def premiss(d: Derivation) -> Formula:
    return d._pr


def conclusion(d: Derivation) -> Formula:
    return d._cn


def is_proof(d: Derivation) -> bool:
    return premiss(d) == top


def size(d: Derivation) -> int:
    """Number of atom occurrences over all leaf formulas (tree multiplicity)."""
    return d._size


def step_count(d: Derivation) -> int:
    return bottom_up(d, lambda n, a, b: (0 if n.kind == LEAF else a + b + (1 if n.kind == STEP else 0)))


def rule_census(d: Derivation) -> dict:
    def f(node, va, vb):
        if node.kind == LEAF:
            return {}
        out = dict(va)
        for k, v in vb.items():
            out[k] = out.get(k, 0) + v
        if node.kind == STEP:
            out[node.rule] = out.get(node.rule, 0) + 1
        return out

    return bottom_up(d, f)


def iter_nodes(d: Derivation):
    """All distinct nodes of the derivation DAG, children before parents."""
    seen = set()
    order = []
    stack = [(d, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        ni = id(node)
        if ni in seen:
            continue
        seen.add(ni)
        stack.append((node, True))
        if node.kind != LEAF:
            stack.append((node.b, False))
            stack.append((node.a, False))
    return order


# -- checking -----------------------------------------------------------------


@dataclass
class CheckError:
    code: str
    rule: str
    detail: str


@dataclass
class CheckReport:
    ok: bool
    errors: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


class CheckFailure(Exception):
    def __init__(self, report):
        self.report = report
        msgs = "; ".join(f"{e.code}[{e.rule}]: {e.detail}" for e in report.errors[:5])
        super().__init__(f"derivation check failed: {msgs}")


def _match_step(rule: str, cn_up: Formula, pr_lo: Formula):
    """None when (cn_up, pr_lo) instantiates the rule schema, else a message."""
    if rule == EQ:
        if eq_mod(cn_up, pr_lo):
            return None
        return f"{fprint(cn_up)} is not =-equal to {fprint(pr_lo)}"
    if rule == AID:
        if cn_up == top and pr_lo.kind == OR and is_literal(pr_lo.a) and pr_lo.b == neg(pr_lo.a):
            return None
        return f"expected T over [a|~a], got {fprint(cn_up)} over {fprint(pr_lo)}"
    if rule == AWD:
        if cn_up == bot and is_literal(pr_lo):
            return None
        return f"expected F over literal, got {fprint(cn_up)} over {fprint(pr_lo)}"
    if rule == ACD:
        if (
            cn_up.kind == OR
            and is_literal(cn_up.a)
            and cn_up.a == cn_up.b
            and pr_lo == cn_up.a
        ):
            return None
        return f"expected [a|a] over a, got {fprint(cn_up)} over {fprint(pr_lo)}"
    if rule == AIU:
        if cn_up.kind == AND and is_literal(cn_up.a) and cn_up.b == neg(cn_up.a) and pr_lo == bot:
            return None
        return f"expected (a&~a) over F, got {fprint(cn_up)} over {fprint(pr_lo)}"
    if rule == AWU:
        if is_literal(cn_up) and pr_lo == top:
            return None
        return f"expected literal over T, got {fprint(cn_up)} over {fprint(pr_lo)}"
    if rule == ACU:
        if (
            pr_lo.kind == AND
            and is_literal(pr_lo.a)
            and pr_lo.a == pr_lo.b
            and cn_up == pr_lo.a
        ):
            return None
        return f"expected a over (a&a), got {fprint(cn_up)} over {fprint(pr_lo)}"
    if rule == S:
        if (
            cn_up.kind == AND
            and cn_up.b.kind == OR
            and pr_lo.kind == OR
            and pr_lo.a.kind == AND
            and cn_up.a == pr_lo.a.a
            and cn_up.b.a == pr_lo.a.b
            and cn_up.b.b == pr_lo.b
        ):
            return None
        return f"switch mismatch: {fprint(cn_up)} over {fprint(pr_lo)}"
    if rule == M:
        if (
            cn_up.kind == OR
            and cn_up.a.kind == AND
            and cn_up.b.kind == AND
            and pr_lo.kind == AND
            and pr_lo.a.kind == OR
            and pr_lo.b.kind == OR
            and pr_lo.a.a == cn_up.a.a
            and pr_lo.a.b == cn_up.b.a
            and pr_lo.b.a == cn_up.a.b
            and pr_lo.b.b == cn_up.b.b
        ):
            return None
        return f"medial mismatch: {fprint(cn_up)} over {fprint(pr_lo)}"
    return f"unknown rule {rule!r}"


# one bit per rule; the KS+ rules take the low eight, so every KS+ mask is a
# small int that the interpreter shares
_RULE_BIT = {rule: 1 << i for i, rule in enumerate((EQ, S, M, AID, AWD, ACD, AWU, ACU, AIU))}


def _verdict(node, va, vb):
    """The mask of rules used below node if every step there matches its
    schema, else -1; only masks are stored on the nodes."""
    if node.kind == LEAF:
        mask = 0
    elif va < 0 or vb < 0:
        return -1
    elif node.kind == COMP:
        mask = va | vb
    else:
        bit = _RULE_BIT.get(node.rule)
        if bit is None or _match_step(node.rule, conclusion(node.a), premiss(node.b)) is not None:
            return -1
        mask = va | vb | bit
    node._valid = mask
    return mask


def check(d: Derivation, system=SKS) -> CheckReport:
    """Validate every inference step of d against the system's rule schemas.

    Each node keeps the mask of the rules used in its subtree once every
    step there has matched its schema, so a recheck visits only the nodes
    built since; d passes when its mask lies within the system and eq.  On
    failure a full walk lists the errors.
    """
    mask = d._valid
    if mask is None:
        mask = bottom_up(d, _verdict, lambda n: n._valid)
    allowed = _RULE_BIT[EQ]
    for rule in system:
        allowed |= _RULE_BIT.get(rule, 0)
    if mask >= 0 and not mask & ~allowed:
        return CheckReport(True, [])
    errors = []
    for node in iter_nodes(d):
        if node.kind != STEP:
            continue
        rule = node.rule
        if rule not in system and rule != EQ:
            errors.append(CheckError("rule-not-in-system", rule, f"{rule} not in system"))
            continue
        msg = _match_step(rule, conclusion(node.a), premiss(node.b))
        if msg is not None:
            code = "eq-mismatch" if rule == EQ else "schema-mismatch"
            errors.append(CheckError(code, rule, msg))
    return CheckReport(not errors, errors)


def ensure_checked(d: Derivation, system=SKS) -> Derivation:
    report = check(d, system)
    if not report.ok:
        raise CheckFailure(report)
    return d


def active_literal(node: Derivation) -> Formula:
    """The literal a structural step creates, duplicates or destroys."""
    if node.kind != STEP or node.rule not in STRUCTURAL:
        raise ValueError("not a structural step")
    rule = node.rule
    cn_up = conclusion(node.a)
    pr_lo = premiss(node.b)
    if rule == AID:
        return pr_lo.a
    if rule in (AWD, ACD):
        return pr_lo
    if rule == AIU:
        return cn_up.a
    if rule in (AWU, ACU):
        return cn_up
    raise AssertionError


# -- construction helpers ------------------------------------------------------


class GlueError(ValueError):
    pass


def _strip(d: Derivation, side: str) -> Derivation:
    """d less the eq re-anchor leaves on its "top" or "bottom" side.

    The top side of a derivation touches its premiss and the bottom side its
    conclusion.  An eq step with a leaf on the stripped side becomes the
    strip of its other child, a composition strips both children, and any
    other step strips only its upper child (top) or its lower child
    (bottom), so every rule instance keeps its formulas.  The stripped side
    changes only up to =, the other side not at all, and a node that holds
    no re-anchor on that side (its _bare bit) is returned as the same
    object, so the walk visits only the nodes it rebuilds.
    """
    upper = side == "top"
    bit = _TOP_BARE if upper else _BOTTOM_BARE
    if d._bare & bit:
        return d
    done = {}  # id(node) -> stripped node; every node stays reachable from d
    stack = [d]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        if node.kind == COMP:
            kids = (node.a, node.b)
        else:
            near, far = (node.a, node.b) if upper else (node.b, node.a)
            drop = node.rule == EQ and near.kind == LEAF  # a re-anchor leaf
            kids = (far,) if drop else (near,)
        todo = [k for k in kids if not k._bare & bit and id(k) not in done]
        if todo:
            stack += todo
            continue
        stack.pop()
        new = [k if k._bare & bit else done[id(k)] for k in kids]
        if node.kind == COMP:
            done[id(node)] = compose(node.rule, *new)
        elif drop:
            done[id(node)] = new[0]
        elif upper:
            done[id(node)] = step(node.rule, new[0], node.b)
        else:
            done[id(node)] = step(node.rule, node.a, new[0])
    return done[id(d)]


def glue(*parts) -> Derivation:
    """Vertically compose derivations, inserting eq steps at the joints.

    Leaf arguments act as eq re-anchors: they restate the current conclusion
    in a different =-equal shape.  At each joint the two facing sides are
    stripped of re-anchors (see _strip), since eq is a congruence and one eq
    step spans the joint; the first premiss and the last conclusion stay
    exactly as given.
    """
    parts = [p for p in parts if p is not None]
    if not parts:
        raise GlueError("nothing to glue")
    d = parts[0]
    for p in parts[1:]:
        cn = conclusion(d)
        if p.kind == LEAF and p.a == cn:
            continue
        if d.kind == LEAF and d.a == premiss(p):
            d = p
            continue
        if not eq_mod(cn, premiss(p)):
            raise GlueError(f"cannot glue: {fprint(cn)} vs {fprint(premiss(p))}")
        up = _strip(d, "bottom")
        lo = _strip(p, "top")
        if lo.kind == LEAF and lo.a == conclusion(up):
            d = up
        elif up.kind == LEAF and up.a == premiss(lo):
            d = lo
        else:
            d = step(EQ, up, lo)
    return d


def subformula_at(f: Formula, path) -> Formula:
    for branch in path:
        f = f.a if branch == 0 else f.b
    return f


def in_context(context: Formula, path, sub: Derivation) -> Derivation:
    """Apply sub inside context at path; context|path must equal pr(sub)."""
    spine = []  # the connectives the path passes through, outermost first
    g = context
    for branch in path:
        if g.kind not in (AND, OR):
            raise GlueError("path leaves the formula")
        spine.append(g)
        g = g.a if branch == 0 else g.b
    if g != premiss(sub):
        raise GlueError("context hole does not match the subderivation premiss")
    d = sub
    for g, branch in zip(reversed(spine), reversed(path)):
        d = compose(g.kind, d, leaf(g.b)) if branch == 0 else compose(g.kind, leaf(g.a), d)
    return d


def step_at(context: Formula, path, rule: str, lower: Formula) -> Derivation:
    """One shallow rule application inside a formula context."""
    upper = subformula_at(context, path)
    return in_context(context, path, step(rule, leaf(upper), leaf(lower)))


# -- duality -------------------------------------------------------------------


def dualize(d: Derivation) -> Derivation:
    """Flip a derivation upside down, dualizing formulas and rules.

    Children of compositions are swapped along with the De Morgan dual, which
    makes every switch and medial instance map to a literal instance of the
    same schema; the result is a structural involution.
    """

    def f(node, va, vb):
        if node.kind == LEAF:
            return leaf(mirror_dual(node.a))
        if node.kind == COMP:
            return compose(AND if node.rule == OR else OR, vb, va)
        return step(DUAL_RULE[node.rule], vb, va)

    return bottom_up(d, f)


# -- generic rules --------------------------------------------------------------

GID, GWD, GCD, GIU, GWU, GCU = "gid", "gwd", "gcd", "giu", "gwu", "gcu"


def _bot_to_top() -> Derivation:
    # F = (F & [F|T]) -> s -> [(F&F)|T] = T ; a switch with no atoms at all
    return glue(
        leaf(bot),
        step(S, leaf(conj(bot, disj(bot, top))), leaf(disj(conj(bot, bot), top))),
        leaf(top),
    )


def _gcd(a: Formula) -> Derivation:
    if is_literal(a):
        return step(ACD, leaf(disj(a, a)), leaf(a))
    if a.kind in ("top", "bot"):
        return glue(leaf(disj(a, a)), leaf(a))
    if a.kind == OR:
        return glue(leaf(disj(a, a)), compose(OR, _gcd(a.a), _gcd(a.b)), leaf(a))
    inner = compose(AND, _gcd(a.a), _gcd(a.b))
    return step(M, leaf(disj(a, a)), inner)


def _gwd(a: Formula) -> Derivation:
    if is_literal(a):
        return step(AWD, leaf(bot), leaf(a))
    if a.kind == "bot":
        return leaf(bot)
    if a.kind == "top":
        return _bot_to_top()
    conn = a.kind
    start = conj(bot, bot) if conn == AND else disj(bot, bot)
    return glue(leaf(bot), glue(leaf(start), compose(conn, _gwd(a.a), _gwd(a.b))))


def _gid(a: Formula) -> Derivation:
    if is_literal(a):
        return step(AID, leaf(top), leaf(disj(a, neg(a))))
    if a.kind == "top":
        return glue(leaf(top), leaf(disj(top, bot)))
    if a.kind == "bot":
        return glue(leaf(top), leaf(disj(bot, top)))
    b, c = a.a, a.b
    bd, cd = dual(b), dual(c)
    both = compose(AND, _gid(b), _gid(c))
    if a.kind == AND:
        # ([b|~b] & [c|~c]) -> [([c|~c] & b) | ~b] -> [[(b&c) | ~c] | ~b]
        s1 = step(
            S,
            leaf(conj(disj(c, cd), disj(b, bd))),
            leaf(disj(conj(disj(c, cd), b), bd)),
        )
        inner = glue(
            leaf(conj(disj(c, cd), b)),
            step(S, leaf(conj(b, disj(c, cd))), leaf(disj(conj(b, c), cd))),
        )
        return glue(
            leaf(top),
            glue(leaf(conj(top, top)), both),
            s1,
            in_context(disj(conj(disj(c, cd), b), bd), (0,), inner),
            leaf(disj(a, disj(bd, cd))),
        )
    # a = b | c: ([b|~b] & [c|~c]) -> [([b|~b] & ~c) | c] -> [[(~c&~b) | b] | c]
    s1 = step(
        S,
        leaf(conj(disj(b, bd), disj(cd, c))),
        leaf(disj(conj(disj(b, bd), cd), c)),
    )
    inner = glue(
        leaf(conj(disj(b, bd), cd)),
        step(S, leaf(conj(cd, disj(bd, b))), leaf(disj(conj(cd, bd), b))),
    )
    return glue(
        leaf(top),
        glue(leaf(conj(top, top)), both),
        s1,
        in_context(disj(conj(disj(b, bd), cd), c), (0,), inner),
        leaf(disj(a, conj(bd, cd))),
    )


def expand_generic(rule: str, a: Formula) -> Derivation:
    """Derivation realizing a generic structural rule on formula a.

    Down rules are built by induction on a; the up rules are their flipped
    images under dualize.
    """
    if rule == GCD:
        return _gcd(a)
    if rule == GWD:
        return _gwd(a)
    if rule == GID:
        return _gid(a)
    if rule == GCU:
        return dualize(_gcd(mirror_dual(a)))
    if rule == GWU:
        return dualize(_gwd(mirror_dual(a)))
    if rule == GIU:
        return dualize(_gid(mirror_dual(dual(a))))
    raise ValueError(f"unknown generic rule {rule!r}")


# -- generic proof-building gadgets ----------------------------------------------


def pair_block(left_f: Formula, s_f: Formula, right_f: Formula, t_f: Formula) -> Derivation:
    """From ([G|S] & [D|T]) to [[(T&S)|G] | D] by two switches."""
    gs = disj(left_f, s_f)
    dt = disj(right_f, t_f)
    s1 = step(S, leaf(conj(gs, disj(t_f, right_f))), leaf(disj(conj(gs, t_f), right_f)))
    inner = glue(
        leaf(conj(gs, t_f)),
        step(S, leaf(conj(t_f, disj(s_f, left_f))), leaf(disj(conj(t_f, s_f), left_f))),
    )
    return glue(
        leaf(conj(gs, dt)),
        s1,
        in_context(disj(conj(gs, t_f), right_f), (0,), inner),
    )


def dedupe_disjunction(elements) -> Derivation:
    """Contract duplicated disjuncts: from the balanced disjunction of
    `elements` to that of their first occurrences."""
    from .formula import disj_all

    elements = list(elements)
    start = disj_all(elements)
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            if elements[i] == elements[j]:
                rest = [x for k, x in enumerate(elements) if k not in (i, j)]
                if rest:
                    host = disj(disj(elements[i], elements[i]), disj_all(rest))
                    block = glue(leaf(start), in_context(host, (0,), expand_generic(GCD, elements[i])))
                else:
                    block = glue(leaf(start), expand_generic(GCD, elements[i]))
                return glue(block, dedupe_disjunction([elements[i]] + rest))
    return leaf(start)


def fan_literal(l: Formula, copies: int) -> Derivation:
    """From a literal to a balanced conjunction of `copies` of it."""
    if copies < 1:
        raise ValueError("need at least one copy")
    if copies == 1:
        return leaf(l)
    left = copies // 2
    return glue(
        step(ACU, leaf(l), leaf(conj(l, l))),
        compose(AND, fan_literal(l, left), fan_literal(l, copies - left)),
    )


# -- substitution ---------------------------------------------------------------


class SubstitutionError(ValueError):
    pass


def _subst_var(f: Formula, var: str, pos_repl: Formula, neg_repl: Formula) -> Formula:
    done = []  # the substituted subformulas, left to right
    stack = [f]  # formulas to substitute in, and the connectives that join them
    while stack:
        g = stack.pop()
        if type(g) is str:
            b = done.pop()
            a = done.pop()
            done.append(Formula(g, a, b))
        elif g.kind == "lit" and g.a == var:
            done.append(neg_repl if g.b else pos_repl)
        elif g.kind in (AND, OR):
            stack += (g.kind, g.b, g.a)
        else:
            done.append(g)
    return done[0]


def substitute_atom(d: Derivation, a: Formula, r: Formula) -> Derivation:
    """Replace a by r and its dual by dual(r) throughout the derivation.

    Rejected when any structural step acts on a's variable: such steps would
    stop being atomic-rule instances.
    """
    if not is_literal(a):
        raise SubstitutionError("substitute_atom expects a literal")
    var = a.a
    for node in iter_nodes(d):
        if node.kind == STEP and node.rule in STRUCTURAL:
            if active_literal(node).a == var:
                raise SubstitutionError(
                    f"structural step {node.rule} acts on atom {var!r}"
                )
    pos_repl, neg_repl = (r, dual(r)) if not a.b else (dual(r), r)

    def f(node, va, vb):
        if node.kind == LEAF:
            return leaf(_subst_var(node.a, var, pos_repl, neg_repl))
        if node.kind == COMP:
            return compose(node.rule, va, vb)
        return step(node.rule, va, vb)

    return bottom_up(d, f)


# -- .sksd text format -----------------------------------------------------------

_RULE_TOKENS = {AID, AWD, ACD, S, M, AIU, AWU, ACU, EQ}


class SksdSyntaxError(ValueError):
    def __init__(self, msg, pos):
        super().__init__(f"{msg} at position {pos}")
        self.pos = pos


# the formula tokens of fparse, plus comments from ";" to the end of the line,
# which are skipped; the match at the end of the text is the empty token
_SKSD_TOKEN = re.compile(r"(?:\s+|;[^\n]*)*(\w+|[^\s;]|\Z)")

_CONNECTIVE_HEADS = {"and": AND, "or": OR}


def dparse(text: str) -> Derivation:
    """Parse the S-expression derivation format."""
    tokens = _SKSD_TOKEN.findall(text)

    def locate(j):
        return token_position(_SKSD_TOKEN, text, j)

    stack = []  # per open (and|or|step ...): [kind, connective or rule, children]
    i = 0
    while True:
        t = tokens[i]
        if t == "(":
            head = tokens[i + 1]
            if head == "form":
                f, i = read_formula(tokens, i + 2, locate)
                if tokens[i] != ")":
                    raise SksdSyntaxError("expected ')' after the formula", locate(i))
                i += 1
                node = Derivation(LEAF, a=f)
            elif head == "step":
                rule = tokens[i + 2]
                if rule not in _RULE_TOKENS:
                    raise SksdSyntaxError(f"unknown rule token {rule!r}", locate(i + 2))
                stack.append([STEP, rule, []])
                i += 3
                continue
            elif head in _CONNECTIVE_HEADS:
                stack.append([COMP, _CONNECTIVE_HEADS[head], []])
                i += 2
                continue
            else:
                raise SksdSyntaxError(f"unknown form head {head!r}", locate(i + 1))
        elif t == ")":
            if not stack:
                raise SksdSyntaxError("unbalanced ')'", locate(i))
            kind, rule, kids = stack.pop()
            if len(kids) != 2:
                raise SksdSyntaxError(f"({kind} ...) needs 2 children", locate(i))
            i += 1
            node = Derivation(kind, rule, *kids)
        elif t:
            raise SksdSyntaxError(f"unexpected token {t!r}", locate(i))
        else:
            raise SksdSyntaxError("incomplete derivation", locate(i))
        if not stack:
            if tokens[i]:
                raise SksdSyntaxError("trailing input after derivation", locate(i))
            return node
        stack[-1][2].append(node)


def dprint(d: Derivation) -> str:
    """Serialize to the S-expression format (no sharing; tree expansion)."""
    out = []
    stack = [(d, False)]
    while stack:
        node, done = stack.pop()
        if done:
            out.append(")")
            continue
        if node.kind == LEAF:
            out.append(f"(form {fprint(node.a)})")
            continue
        head = {AND: "and", OR: "or"}[node.rule] if node.kind == COMP else f"step {node.rule}"
        out.append(f"({head}")
        stack.append((node, True))
        stack.append((node.b, False))
        stack.append((node.a, False))
    buf = []
    for tok in out:
        if buf and tok != ")":
            buf.append(" ")
        buf.append(tok)
    return "".join(buf) + "\n"

"""Compilers into KS+ and KS: truth tables, the switch-cut trick, pigeonhole.

The truth-table compiler follows the three-layer construction: a proof of
the disjunction of all assignment conjunctions (identities plus
cocontractions), a bridge per assignment that duplicates or coweakens each
literal to its usage count, a weakening-only derivation from the satisfied
literals to the tautology, and a closing block of generic contractions.  All
cocontractions sit above all contractions, so the flow has bounded length
and normalization stays polynomial.

The pigeonhole pipeline starts from a desk-scale cut proof produced by a
case-splitting generator, retains the cuts as disjoined contradictions via
the switch-cut transformation, extends every contradiction to the functional
or onto variant with a contraction-free derivation, and contracts.
"""

from __future__ import annotations

import random

from .derivation import (
    ACD,
    AID,
    AIU,
    AWD,
    AWU,
    COMP,
    GCD,
    GCU,
    GID,
    GWD,
    KS,
    KS_PLUS,
    LEAF,
    S,
    SKS,
    Derivation,
    bottom_up,
    check,
    compose,
    conclusion,
    dedupe_disjunction,
    ensure_checked,
    expand_generic,
    fan_literal,
    glue,
    in_context,
    is_proof,
    leaf,
    pair_block,
    premiss,
    rule_census,
    step,
)
from .formula import (
    Formula,
    bot,
    conj,
    conj_all,
    disj,
    disj_all,
    dual,
    eq_mod,
    evaluate,
    fprint,
    is_tautology,
    lit,
    neg,
    occurrence_literals,
    top,
    variables,
)
from .lift import normalize_proof

class SimulationError(ValueError):
    pass


# -- truth tables ---------------------------------------------------------------------


def gamma_of_assignment(assignment, order=None) -> Formula:
    """The conjunction of the literals an assignment satisfies, newest first."""
    if order is None:
        order = sorted(assignment)
    g = None
    for v in order:
        l = lit(v) if assignment[v] else lit(v, True)
        g = l if g is None else conj(l, g)
    return g if g is not None else top


def _psi(variables_in_order):
    """Proof of the disjunction of all assignment conjunctions.

    Returns (derivation, tree) where the tree mirrors the conclusion: leaves
    are (gamma formula, assignment dict), inner nodes are (true branch,
    false branch).
    """
    v0 = variables_in_order[0]
    l0, l0n = lit(v0), lit(v0, True)
    d = step(AID, leaf(top), leaf(disj(l0, l0n)))
    tree = ("node", ("leaf", l0, {v0: True}), ("leaf", l0n, {v0: False}))
    for v in variables_in_order[1:]:
        blocks = {}

        def extend(t):
            if t[0] == "leaf":
                _, g, assign = t
                block, g1, g0 = _psi_extension(v, g)
                new = (
                    "node",
                    ("leaf", g1, {**assign, v: True}),
                    ("leaf", g0, {**assign, v: False}),
                )
                blocks[id(t)] = block
                return new
            return ("node", extend(t[1]), extend(t[2]))

        def build(t, old):
            if old[0] == "leaf":
                return blocks[id(old)]
            return compose("or", build(t[1], old[1]), build(t[2], old[2]))

        new_tree = extend(tree)
        d = glue(d, build(new_tree, tree))
        tree = new_tree
    return d, tree


def _psi_extension(v, g):
    """From one assignment conjunction to its two extensions by v."""
    x, xn = lit(v), lit(v, True)
    pair = disj(x, xn)
    d1 = compose("and", step(AID, leaf(top), leaf(pair)), expand_generic(GCU, g))
    f2 = conj(g, conj(g, pair))
    inner = step(S, leaf(conj(g, pair)), leaf(disj(conj(g, x), xn)))
    f3 = conj(g, disj(xn, conj(g, x)))
    s2 = step(S, leaf(f3), leaf(disj(conj(g, xn), conj(g, x))))
    g1, g0 = conj(x, g), conj(xn, g)
    block = glue(
        leaf(g),
        d1,
        leaf(f2),
        in_context(f2, (1,), inner),
        leaf(f3),
        s2,
        leaf(disj(g1, g0)),
    )
    return block, g1, g0


def _phi(part: Formula, assignment) -> Derivation:
    """Weakening-only derivation of a satisfied formula from its used literals."""
    if part.kind == "lit":
        return leaf(part)
    if part.kind == "top":
        return leaf(top)
    if part.kind == "bot":
        raise SimulationError("unsatisfied disjunct chosen")
    if part.kind == "and":
        return compose("and", _phi(part.a, assignment), _phi(part.b, assignment))
    if evaluate(part.a, assignment):
        sub = _phi(part.a, assignment)
        return glue(sub, in_context(disj(part.a, bot), (1,), expand_generic(GWD, part.b)))
    sub = _phi(part.b, assignment)
    return glue(sub, in_context(disj(bot, part.b), (0,), expand_generic(GWD, part.a)))


def _bridge(g: Formula, phi_premiss: Formula) -> Derivation:
    """From the assignment conjunction to the used-literal conjunction."""
    counts = {}
    for l in occurrence_literals(phi_premiss):
        counts[(l.a, l.b)] = counts.get((l.a, l.b), 0) + 1

    def rec(part):
        if part.kind == "lit":
            m = counts.get((part.a, part.b), 0)
            if counts.get((part.a, not part.b), 0):
                raise SimulationError("an unsatisfied literal was used")
            if m == 0:
                return step(AWU, leaf(part), leaf(top))
            return fan_literal(part, m)
        return compose("and", rec(part.a), rec(part.b))

    return glue(rec(g), leaf(phi_premiss))


def truthtable_ksplus(tau: Formula, max_vars: int = 14) -> Derivation:
    """The table-of-assignments proof of a tautology in KS+."""
    vs = sorted(variables(tau))
    if len(vs) > max_vars:
        raise SimulationError(f"{len(vs)} variables exceeds the cap {max_vars}")
    if not is_tautology(tau):
        raise SimulationError(f"{fprint(tau)} is not a tautology")
    if not vs:
        return glue(leaf(top), leaf(tau))

    psi, tree = _psi(vs)

    def per_assignment(t):
        if t[0] == "leaf":
            _, g, assign = t
            phi = _phi(tau, assign)
            return glue(_bridge(g, premiss(phi)), phi)
        return compose("or", per_assignment(t[1]), per_assignment(t[2]))

    def contract(t):
        if t[0] == "leaf":
            return leaf(tau)
        return glue(compose("or", contract(t[1]), contract(t[2])), expand_generic(GCD, tau))

    d = glue(psi, per_assignment(tree), contract(tree))
    return ensure_checked(d, KS_PLUS)


def truthtable_ks(tau: Formula, max_vars: int = 14) -> Derivation:
    """KS proof of a tautology via the truth-table construction.

    The KS+ intermediate has all cocontractions above all contractions; its
    flow length is checked bounded before normalizing.
    """
    from .flow import extract
    from .metrics import dimensions

    p = truthtable_ksplus(tau, max_vars)
    length, _, _ = dimensions(extract(p).flow)
    if length > 4:
        raise AssertionError(f"table proof flow has length {length} > 4")
    return normalize_proof(p)


def random_tautology(rng: random.Random, max_vars: int = 4, max_depth: int = 3):
    """A small random tautology (rejection sampling with a safe fallback)."""
    names = ["a", "b", "c", "d"][:max_vars]

    def rand(depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.06:
                return top if rng.random() < 0.5 else bot
            return lit(rng.choice(names), rng.random() < 0.5)
        a = rand(depth - 1)
        b = rand(depth - 1)
        return conj(a, b) if rng.random() < 0.42 else disj(a, b)

    for _ in range(300):
        f = rand(max_depth)
        if variables(f) and is_tautology(f):
            return f
    f = rand(max_depth)
    while not variables(f):
        f = rand(max_depth)
    return disj(f, dual(f))


# -- the switch-cut trick ----------------------------------------------------------------


def _pairs_formula(varnames) -> Formula:
    return disj_all([conj(lit(v), lit(v, True)) for v in varnames])


def _merge_pairs(d: Derivation, x: Formula, names) -> tuple:
    """Anchor [.. pair junk ..] to [x | sorted unique pairs]; returns (d, names)."""
    names = list(names)
    if not names:
        return glue(d, leaf(disj(x, bot))), ()
    formulas = [conj(lit(v), lit(v, True)) for v in names]
    mid = disj(x, disj_all(formulas))
    d = glue(d, leaf(mid))
    if len(set(names)) != len(names):
        d = glue(d, in_context(mid, (1,), dedupe_disjunction(formulas)))
        seen = []
        for v in names:
            if v not in seen:
                seen.append(v)
        names = seen
    merged = sorted(set(names))
    d = glue(d, leaf(disj(x, _pairs_formula(merged))))
    return d, tuple(merged)


def _retain_cuts(d: Derivation):
    """Rewrite every cut to keep its contradiction as a top-level disjunct.

    Returns (derivation, cut variable names); with no cuts below a node the
    original subderivation object is reused unchanged.
    """

    def wrap(sub, pairs):
        if pairs:
            return sub
        return glue(sub, leaf(disj(conclusion(sub), bot)))

    def f(node, va, vb):
        if node.kind == LEAF:
            return node, ()
        if node.kind == COMP:
            da, pa = va
            db, pb = vb
            if not pa and not pb:
                out = node if (da is node.a and db is node.b) else compose(node.rule, da, db)
                return out, ()
            da = wrap(da, pa)
            db = wrap(db, pb)
            cn_a, cn_b = conclusion(node.a), conclusion(node.b)
            pfa, pfb = _pairs_formula(pa), _pairs_formula(pb)
            d2 = compose(node.rule, da, db)
            if node.rule == "or":
                d2, merged = _merge_pairs(d2, disj(cn_a, cn_b), list(pa) + list(pb))
            else:
                d2 = glue(d2, pair_block(pfa, cn_a, pfb, cn_b))
                d2, merged = _merge_pairs(d2, conj(cn_a, cn_b), list(pa) + list(pb))
            return d2, merged
        # a step
        da, pa = va
        db, pb = vb
        if node.rule != AIU and not pa and not pb:
            out = node if (da is node.a and db is node.b) else step(node.rule, da, db)
            return out, ()
        da = wrap(da, pa)
        db = wrap(db, pb)
        cn_up = conclusion(node.a)
        pr_lo = premiss(node.b)
        pfa = _pairs_formula(pa)
        if node.rule == AIU:
            v = cn_up.a.a
            host = disj(bot, disj(cn_up, pfa))
            d2 = glue(da, leaf(host), in_context(host, (0,), db))
            d2, merged = _merge_pairs(
                d2, conclusion(node.b), list(pb) + list(pa) + [v]
            )
            return d2, merged
        d2 = glue(
            da,
            in_context(disj(cn_up, pfa), (0,), step(node.rule, leaf(cn_up), leaf(pr_lo))),
            in_context(disj(pr_lo, pfa), (0,), db),
        )
        d2, merged = _merge_pairs(d2, conclusion(node.b), list(pb) + list(pa))
        return d2, merged

    return bottom_up(d, f)


def switch_cut(d: Derivation) -> Derivation:
    """KS proof of [conclusion | one (a&~a) per variable] from an SKS proof."""
    ensure_checked(d, SKS)
    if not is_proof(d):
        raise SimulationError("switch_cut expects a proof")
    cn = conclusion(d)
    body, pairs = _retain_cuts(d)
    if not pairs:
        body = glue(body, leaf(disj(cn, bot)))
    targets = sorted(set(variables(cn)) | set(pairs))
    missing = sorted(set(targets) - set(pairs))
    if missing:
        pfp = _pairs_formula(pairs)
        mid = disj(cn, disj(bot, pfp))
        body = glue(
            body,
            leaf(mid),
            in_context(mid, (1, 0), expand_generic(GWD, _pairs_formula(missing))),
        )
    body = glue(body, leaf(disj(cn, _pairs_formula(targets))))
    return normalize_proof(body)


# -- pigeonhole principles ----------------------------------------------------------------


def php_var(i: int, j: int) -> str:
    return f"a{i}{j}" if i <= 9 and j <= 9 else f"a{i}_{j}"


def _php_rows(n):
    return [conj_all([lit(php_var(i, j), True) for j in range(1, n + 1)]) for i in range(n + 1)]


def _php_collisions(n):
    out = []
    for j in range(1, n + 1):
        for i in range(n + 1):
            for i2 in range(i + 1, n + 1):
                out.append(conj(lit(php_var(i, j)), lit(php_var(i2, j))))
    return out


def _php_functional(n):
    out = []
    for i in range(n + 1):
        for j in range(1, n + 1):
            for j2 in range(j + 1, n + 1):
                out.append(conj(lit(php_var(i, j)), lit(php_var(i, j2))))
    return out


def _php_onto(n):
    return [conj_all([lit(php_var(i, j), True) for i in range(n + 1)]) for j in range(1, n + 1)]


def php_formula(n: int, variant: str = "plain") -> Formula:
    """Pigeonhole tautologies: n+1 pigeons into n holes, plus weakenings.

    The plain form says some pigeon misses every hole or some hole hosts two
    pigeons; F adds double placements, O adds empty holes.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    php = disj_all(_php_rows(n) + _php_collisions(n))
    if variant == "plain":
        return php
    f_part = disj_all(_php_functional(n))
    o_part = disj_all(_php_onto(n))
    if variant == "F":
        return disj(f_part, php)
    if variant == "O":
        return disj(o_part, php)
    if variant == "OF":
        return disj(o_part, disj(f_part, php))
    raise ValueError(f"unknown variant {variant!r}")


# -- the desk-scale cut proof of PHP ------------------------------------------------


def _php_satisfied(n, assign):
    """A pigeonhole disjunct already forced by a partial assignment, or None."""
    for i in range(n + 1):
        if all(assign.get(php_var(i, j)) is False for j in range(1, n + 1)):
            return _php_rows(n)[i]
    for j in range(1, n + 1):
        holders = [i for i in range(n + 1) if assign.get(php_var(i, j)) is True]
        if len(holders) >= 2:
            return conj(lit(php_var(holders[0], j)), lit(php_var(holders[1], j)))
    return None


def _leaf_proof(disjunct: Formula):
    """KS proof of [disjunct | its dual literals], one identity per literal."""
    lits = occurrence_literals(disjunct)

    def rec(k):
        if k == 1:
            l = lits[0]
            return step(AID, leaf(top), leaf(disj(l, neg(l)))), lits[0], [neg(lits[0])]
        prev, dform, es = rec(k - 1)
        l = lits[k - 1]
        pair = disj(l, neg(l))
        eform = disj_all(es)
        base = disj(dform, eform)
        d = glue(
            leaf(top),
            compose("and", prev, step(AID, leaf(top), leaf(pair))),
            step(S, leaf(conj(base, pair)), leaf(disj(conj(base, l), neg(l)))),
            in_context(
                disj(conj(base, l), neg(l)),
                (0,),
                glue(
                    leaf(conj(base, l)),
                    step(S, leaf(conj(l, disj(dform, eform))), leaf(disj(conj(l, dform), eform))),
                ),
            ),
            leaf(disj(conj(l, dform), disj_all(es + [neg(l)]))),
        )
        return d, conj(l, dform), es + [neg(l)]

    d, dform, es = rec(len(lits))
    return glue(d, leaf(disj(disjunct, disj_all(es)))), es


def sks_php_proof(n: int) -> Derivation:
    """An SKS proof of the plain pigeonhole formula by semantic case splits.

    Each split cuts on one placement variable; branches stop as soon as the
    partial assignment forces a disjunct.  Exponential in n by nature, fine
    at desk scale.
    """
    order = [php_var(i, j) for i in range(n + 1) for j in range(1, n + 1)]
    php = php_formula(n, "plain")

    def dpll(assign, depth):
        hit = _php_satisfied(n, assign)
        if hit is not None:
            d, es = _leaf_proof(hit)
            us = [hit]
            es = sorted(set(es), key=fprint)
            d = glue(d, leaf(disj_all(us + es)))
            return d, us, es
        if depth >= len(order):
            raise AssertionError("total assignment without a satisfied disjunct")
        v = order[depth]
        x, xn = lit(v), lit(v, True)
        d1, us1, es1 = dpll({**assign, v: True}, depth + 1)
        d0, us0, es0 = dpll({**assign, v: False}, depth + 1)
        d1, es1 = _ensure_escape(d1, us1, es1, xn)
        d0, es0 = _ensure_escape(d0, us0, es0, x)
        c1 = disj_all(us1 + [e for e in es1 if e != xn])
        c0 = disj_all(us0 + [e for e in es0 if e != x])
        d1 = glue(d1, leaf(disj(c1, xn)))
        d0 = glue(d0, leaf(disj(c0, x)))
        d = glue(
            leaf(top),
            compose("and", d1, d0),
            pair_block(c1, xn, c0, x),
            in_context(
                disj(disj(conj(x, xn), c1), c0),
                (0, 0),
                step(AIU, leaf(conj(x, xn)), leaf(bot)),
            ),
        )
        us = []
        for u in us1 + us0:
            if u not in us:
                us.append(u)
        es = []
        for e in [y for y in es1 if y != xn] + [y for y in es0 if y != x]:
            if e not in es:
                es.append(e)
        merged = us1 + [e for e in es1 if e != xn] + us0 + [e for e in es0 if e != x]
        d = glue(d, leaf(disj_all(merged)))
        if len(set(merged)) != len(merged):
            d = glue(d, dedupe_disjunction(merged))
        d = glue(d, leaf(disj_all(us + es)))
        return d, us, es

    d, us, es = dpll({}, 0)
    if es:
        raise AssertionError("escape literals survived to the root")
    missing = [x for x in _php_rows(n) + _php_collisions(n) if x not in us]
    if missing:
        mid = disj(bot, disj_all(us))
        d = glue(
            d,
            leaf(mid),
            in_context(mid, (0,), expand_generic(GWD, disj_all(missing))),
        )
    d = glue(d, leaf(php))
    return ensure_checked(d, SKS)


def _ensure_escape(d, us, es, e):
    if e in es:
        return d, es
    cur = disj_all(us + es)
    mid = disj(cur, bot)
    d = glue(d, leaf(mid), in_context(mid, (1,), step(AWD, leaf(bot), leaf(e))))
    return d, es + [e]


# -- variant derivations from the retained contradictions --------------------------------


def phi_st(n: int, s: int, t: int, variant: str) -> Derivation:
    """Contraction-free derivation from (a_st & ~a_st) to the F or O variant."""
    if not (0 <= s <= n and 1 <= t <= n):
        raise ValueError("pigeon or hole index out of range")
    if variant not in ("F", "O"):
        raise ValueError("variant must be F or O")
    a = lit(php_var(s, t))
    an = neg(a)
    pre = conj(a, an)
    target = php_formula(n, variant)

    if variant == "F":
        others = [lit(php_var(s, j)) for j in range(1, n + 1) if j != t]
        row = _php_rows(n)[s]
        prods = [conj(a, o) for o in others]
    else:
        others = [lit(php_var(i, t)) for i in range(n + 1) if i != s]
        row = _php_onto(n)[t - 1]
        prods = [conj(a, o) for o in others]

    w = conj_all([neg(o) for o in others])
    v = dual(w)

    d = glue(
        leaf(pre),
        leaf(conj(pre, top)),
        in_context(conj(pre, top), (1,), expand_generic(GID, w)),
    )
    f1 = conj(a, conj(an, disj(w, v)))
    inner = step(S, leaf(conj(an, disj(w, v))), leaf(disj(conj(an, w), v)))
    d = glue(d, leaf(f1), in_context(f1, (1,), inner))
    f2 = conj(a, disj(v, conj(an, w)))
    s2 = step(S, leaf(f2), leaf(disj(conj(a, v), conj(an, w))))
    d = glue(d, leaf(f2), s2)

    if others:
        host = disj(conj(a, v), conj(an, w))
        if len(others) > 1:
            d = glue(d, in_context(host, (0, 0), fan_literal(a, len(others))))
            host = disj(conj(conj_all([a] * len(others)), v), conj(an, w))
            d = glue(d, in_context(host, (0,), _distribute(a, others)))
        present = prods + [row]
        d = glue(d, leaf(disj(bot, disj_all(present))))
        mid = disj(bot, disj_all(present))
    else:
        # n = 1: kill the (a & F) disjunct with a coweakening
        host = disj(conj(a, bot), conj(an, top))
        d = glue(d, leaf(host), in_context(host, (0, 0), step(AWU, leaf(a), leaf(top))))
        present = [row]
        mid = disj(bot, disj_all(present))
        d = glue(d, leaf(mid))
    missing = [x for x in _variant_disjuncts(n, variant) if not any(eq_mod(x, p) for p in present)]
    d = glue(d, in_context(mid, (0,), expand_generic(GWD, disj_all(missing))))
    d = glue(d, leaf(target))
    report = check(d, KS_PLUS)
    if not report.ok or ACD in rule_census(d):
        raise AssertionError("phi_st left the contraction-free fragment")
    return d


def _distribute(a: Formula, elems):
    """From (a^m & [e1|...|em]) to [(a&e1)|...|(a&em)] by switches."""
    m = len(elems)
    if m == 1:
        return leaf(conj(a, elems[0]))
    am = conj_all([a] * m)
    am1 = conj_all([a] * (m - 1))
    rest = disj_all(elems[1:])
    prem = conj(am, disj_all(elems))
    mid1 = conj(am1, conj(a, disj(elems[0], rest)))
    s_inner = step(S, leaf(conj(a, disj(elems[0], rest))), leaf(disj(conj(a, elems[0]), rest)))
    d = glue(leaf(prem), leaf(mid1), in_context(mid1, (1,), s_inner))
    mid2 = conj(am1, disj(rest, conj(a, elems[0])))
    s2 = step(S, leaf(mid2), leaf(disj(conj(am1, rest), conj(a, elems[0]))))
    d = glue(d, leaf(mid2), s2)
    d = glue(
        d,
        in_context(disj(conj(am1, rest), conj(a, elems[0])), (0,), _distribute(a, elems[1:])),
    )
    return glue(d, leaf(disj_all([conj(a, e) for e in elems])))


def _variant_disjuncts(n, variant):
    if variant == "F":
        return _php_functional(n) + _php_rows(n) + _php_collisions(n)
    return _php_onto(n) + _php_rows(n) + _php_collisions(n)


def php_ksplus(n: int, variant: str, cap: int = 3) -> Derivation:
    """KS+ proof of a pigeonhole variant, cuts retained then extended."""
    if variant not in ("F", "O", "OF"):
        raise ValueError("variant must be F, O or OF")
    if n > cap:
        raise SimulationError(f"n={n} exceeds the desk-scale cap {cap}")
    if variant == "OF":
        base = php_ksplus(n, "F", cap)
        return _add_onto(n, base, KS_PLUS)
    target = php_formula(n, variant)
    base = switch_cut(sks_php_proof(n))
    php = php_formula(n, "plain")
    # the variables switch_cut pairs, in its order: every variable, by name
    pairs = sorted(((i, j) for i in range(n + 1) for j in range(1, n + 1)), key=lambda ij: php_var(*ij))

    def php_side():
        part = php_formula(n, variant).a
        mid = disj(bot, php)
        return glue(
            leaf(php),
            leaf(mid),
            in_context(mid, (0,), expand_generic(GWD, part)),
            leaf(target),
        )

    def pairs_ext(pairs):
        if len(pairs) == 1:
            i, j = pairs[0]
            return phi_st(n, i, j, "F" if variant != "O" else "O"), ("leaf",)
        mid = len(pairs) // 2
        dl, sl = pairs_ext(pairs[:mid])
        dr, sr = pairs_ext(pairs[mid:])
        return compose("or", dl, dr), ("node", sl, sr)

    ext, shape = pairs_ext(pairs)
    d = glue(base, compose("or", php_side(), ext))

    def contract(sh):
        if sh == ("leaf",):
            return leaf(target)
        return glue(
            compose("or", contract(sh[1]), contract(sh[2])), expand_generic(GCD, target)
        )

    d = glue(d, glue(compose("or", leaf(target), contract(shape)), expand_generic(GCD, target)))
    d = glue(d, leaf(target))
    return ensure_checked(d, KS_PLUS)


def _add_onto(n, base, system):
    fphp = php_formula(n, "F")
    o_part = php_formula(n, "OF").a
    mid = disj(bot, fphp)
    d = glue(
        base,
        leaf(mid),
        in_context(mid, (0,), expand_generic(GWD, o_part)),
        leaf(php_formula(n, "OF")),
    )
    return ensure_checked(d, system)


def php_ks(n: int, variant: str, cap: int = 3) -> Derivation:
    """Checked KS proof of the F, O or OF pigeonhole variant."""
    if variant == "OF":
        return _add_onto(n, php_ks(n, "F", cap), KS)
    p = normalize_proof(php_ksplus(n, variant, cap))
    if conclusion(p) != php_formula(n, variant):
        raise AssertionError("pigeonhole proof concludes the wrong formula")
    return p

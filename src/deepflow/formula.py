"""Negation-normal-form propositional formulas and their equational theory.

Formulas are built from the units T/F, literals, and binary conjunction /
disjunction; negation exists only on literals.  Nodes are interned, so two
formulas are equal exactly when they are the same object, and every cache
on a node is filled once per distinct subformula.  Equality "modulo the
unit, commutativity and associativity laws" is decided by reduction to a
canonical form.
"""

from __future__ import annotations

import re
import weakref
from bisect import bisect_left
from itertools import islice

TOP = "top"
BOT = "bot"
LIT = "lit"
AND = "and"
OR = "or"

# (kind, a, b) -> a weak reference to the one live node with that structure;
# children are interned themselves, so the key hashes and compares them by
# identity
_table = {}


class _Entry(weakref.ref):
    """A table entry: a weak reference that knows its key."""

    __slots__ = ("key",)


def _forget(entry):
    # the callback of a dead node's entry; a newer node of the same
    # structure may have taken the key already
    if _table.get(entry.key) is entry:
        del _table[entry.key]


class Formula:
    """Immutable, interned NNF formula node.

    kind is one of 'top', 'bot', 'lit', 'and', 'or'.  For literals, ``a`` is
    the variable name and ``b`` the negation flag; for connectives ``a`` and
    ``b`` are the children.  Constructing a formula returns the existing
    node of the same structure when there is one, so ``==`` is ``is``.  The
    print string, canonical form, occurrence map and occurrence count are
    cached on the node.
    """

    __slots__ = ("kind", "a", "b", "_s", "_canon", "_cmap", "_nocc", "__weakref__")

    def __new__(cls, kind, a=None, b=None):
        key = (kind, a, b)
        ref = _table.get(key)
        f = None if ref is None else ref()
        if f is None:
            f = object.__new__(cls)
            f.kind = kind
            f.a = a
            f.b = b
            f._s = f._canon = f._cmap = f._nocc = None
            entry = _table[key] = _Entry(f, _forget)
            entry.key = key
        return f

    def __repr__(self):
        return f"Formula({fprint(self)!r})"


top = Formula(TOP)
bot = Formula(BOT)


def lit(name: str, negative: bool = False) -> Formula:
    if not name:
        raise ValueError("literal variable name must be nonempty")
    if name in ("T", "F"):
        raise ValueError(f"{name} is a unit, not a variable name")
    return Formula(LIT, name, bool(negative))


def conj(a: Formula, b: Formula) -> Formula:
    return Formula(AND, a, b)


def disj(a: Formula, b: Formula) -> Formula:
    return Formula(OR, a, b)


def conj_all(items):
    """Balanced conjunction of a list; the empty conjunction is T."""
    return _balanced(AND, list(items), top)


def disj_all(items):
    """Balanced disjunction of a list; the empty disjunction is F."""
    return _balanced(OR, list(items), bot)


def _balanced(kind, items, empty):
    if not items:
        return empty
    if len(items) == 1:
        return items[0]
    mid = len(items) // 2
    return Formula(kind, _balanced(kind, items[:mid], empty), _balanced(kind, items[mid:], empty))


def is_literal(f: Formula) -> bool:
    return f.kind == LIT


def neg(f: Formula) -> Formula:
    """Dual of a literal."""
    if f.kind != LIT:
        raise ValueError("neg expects a literal")
    return Formula(LIT, f.a, not f.b)


def dual(f: Formula) -> Formula:
    """De Morgan dual, applied recursively; an involution."""
    return _flip(f, False, {})


def mirror_dual(f: Formula) -> Formula:
    """De Morgan dual with children swapped; used when flipping derivations."""
    return _flip(f, True, {})


def mirror_dualizer():
    """A mirror_dual that flips each distinct subformula once over all its
    calls, for flipping the many formulas of one derivation."""
    memo = {}
    return lambda f: _flip(f, True, memo)


_DUAL_KIND = {AND: OR, OR: AND}


def _flip(f, swap, memo):
    """The dual of f, or its mirror dual if swap; memo maps the formulas
    flipped so far to their images, and each one is flipped once."""
    done = []  # the flipped subformulas, left to right
    stack = [f]  # formulas to flip, and 1-tuples of those whose children are flipped
    while stack:
        g = stack.pop()
        if type(g) is tuple:
            g = g[0]
            b = done.pop()
            a = done.pop()
            r = memo[g] = Formula(_DUAL_KIND[g.kind], *((b, a) if swap else (a, b)))
        elif g in memo:
            r = memo[g]
        elif g.kind == LIT:
            r = memo[g] = Formula(LIT, g.a, not g.b)
        elif g.kind in (TOP, BOT):
            r = bot if g is top else top
        else:
            stack += ((g,), g.b, g.a)
            continue
        done.append(r)
    return done[0]


def variables(f: Formula):
    """Set of variable names occurring in f."""
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind == LIT:
            out.add(g.a)
        elif g.kind in (AND, OR):
            stack.append(g.a)
            stack.append(g.b)
    return out


def n_occurrences(f: Formula) -> int:
    """Number of literal occurrences (the atom count used for sizes)."""
    n = f._nocc
    if n is not None:
        return n
    stack = [f]
    while stack:
        g = stack[-1]
        if g.kind in (AND, OR):
            na, nb = g.a._nocc, g.b._nocc
            if na is None or nb is None:
                if na is None:
                    stack.append(g.a)
                if nb is None:
                    stack.append(g.b)
                continue
            g._nocc = na + nb
        else:
            g._nocc = 1 if g.kind == LIT else 0
        stack.pop()
    return f._nocc


def occurrence_literals(f: Formula):
    """Literals of f's occurrences, in left-to-right order."""
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind == LIT:
            out.append(g)
        elif g.kind in (AND, OR):
            stack.append(g.b)
            stack.append(g.a)
    return out


def replace_occurrences(f: Formula, repl: dict) -> Formula:
    """Rebuild f with the occurrence at in-order index i replaced by repl[i].

    A subformula whose occurrences have no replacement is kept as it is.
    """
    keys = sorted(repl)
    done = []  # the rebuilt subformulas, left to right
    # (subformula, index of its first occurrence), or (g, -1) to join the
    # rebuilt children of g
    stack = [(f, 0)]
    while stack:
        g, i = stack.pop()
        if i < 0:
            b = done.pop()
            a = done.pop()
            done.append(Formula(g.kind, a, b))
            continue
        k = bisect_left(keys, i)
        if k == len(keys) or keys[k] >= i + n_occurrences(g):
            done.append(g)
        elif g.kind == LIT:
            done.append(repl[i])
        else:
            stack += ((g, -1), (g.b, i + n_occurrences(g.a)), (g.a, i))
    return done[0]


def evaluate(f: Formula, assignment) -> bool:
    """Truth value under a total assignment of f's variables.

    Left to right with short-circuiting, so a variable right of a deciding
    subformula need not be assigned.
    """
    pending = []  # connectives whose left child is being evaluated
    g = f
    while True:
        k = g.kind
        if k in (AND, OR):
            pending.append(g)
            g = g.a
            continue
        if k == LIT:
            try:
                v = assignment[g.a]
            except KeyError:
                raise UndefinedVariableError(g.a) from None
            v = (not v) if g.b else bool(v)
        else:
            v = k == TOP
        # v decides each pending connective it short-circuits; the first one
        # it does not is decided by its right child
        while pending:
            p = pending.pop()
            if v != (p.kind == OR):
                g = p.b
                break
        else:
            return v


class UndefinedVariableError(KeyError):
    def __init__(self, var):
        super().__init__(var)
        self.var = var

    def __str__(self):
        return f"assignment does not cover variable {self.var!r}"


def is_tautology(f: Formula) -> bool:
    """Exhaustive truth-table check."""
    vs = sorted(variables(f))
    for bits in range(1 << len(vs)):
        alpha = {v: bool((bits >> i) & 1) for i, v in enumerate(vs)}
        if not evaluate(f, alpha):
            return False
    return True


# -- canonical form ----------------------------------------------------------
#
# Associativity is flattened, the unit laws [A|F]=A, (A&T)=A, [T|T]=T,
# (F&F)=F are applied to fixpoint, and children are sorted by their canonical
# print.  The result is re-bracketed right-nested, so structural equality of
# canonical forms decides the equational theory.


def canonicalize(f: Formula) -> Formula:
    c = f._canon
    if c is None:
        c = _canon_with_map(f)[0]
    return c


def eq_mod(f: Formula, g: Formula) -> bool:
    """Equality modulo commutativity, associativity and the unit laws."""
    return f is g or canonicalize(f) == canonicalize(g)


def canonical_occurrence_map(f: Formula):
    """Map from f's in-order occurrence index to canonicalize(f)'s index.

    Two eq_mod-equal formulas pair occurrences through their shared canonical
    form; the pairing respects canonical structure, so replacing paired
    occurrences by the same subformula preserves eq_mod.
    """
    m = f._cmap
    if m is None:
        m = _canon_with_map(f)[1]
    return m


def _canon_with_map(f: Formula):
    """Return (canonical form, tuple mapping original occ index -> canon occ index).

    Both are stored in f's ``_canon``/``_cmap`` cache; this is the one place
    that cache is filled.
    """
    k = f.kind
    if k in (TOP, BOT):
        f._canon, f._cmap = f, ()
        return f, ()
    if k == LIT:
        f._canon, f._cmap = f, (0,)
        return f, (0,)
    # children of the same connective, flattened, each with its own map
    parts = []  # (canonical child, original occurrence indexes in order)
    base = 0
    for g in _spine(f, k):
        m = g._cmap
        if m is None:
            c, m = _canon_with_map(g)
        else:
            c = g._canon
        if c.kind == k:
            # child canonicalized into the same connective: flatten its spine
            spine = _spine(c, k)
            sizes = [n_occurrences(s) for s in spine]
            bounds = []
            acc = 0
            for s in sizes:
                bounds.append((acc, acc + s))
                acc += s
            for (lo, hi), s in zip(bounds, spine):
                idxs = [base + i for i, t in enumerate(m) if lo <= t < hi]
                idxs.sort(key=lambda i: m[i - base])
                parts.append((s, [(i, m[i - base] - lo) for i in idxs]))
        else:
            parts.append((c, [(base + i, t) for i, t in enumerate(m)]))
        base += n_occurrences(g)

    # unit laws on the flattened children
    unit_drop = bot if k == OR else top
    unit_keep = top if k == OR else bot
    kept = [p for p in parts if p[0].kind != unit_drop.kind]
    keepers = [p for p in kept if p[0].kind == unit_keep.kind]
    if keepers:
        kept = [p for p in kept if p[0].kind != unit_keep.kind] + keepers[:1]
    if not kept:
        f._canon, f._cmap = unit_drop, ()
        return unit_drop, ()
    kept.sort(key=lambda p: fprint(p[0]))
    canon = _rnest(k, [p[0] for p in kept])
    mapping = [0] * sum(len(p[1]) for p in kept)
    off = 0
    for c, pairs in kept:
        for orig, within in pairs:
            mapping[orig] = off + within
        off += n_occurrences(c)
    mapping = tuple(mapping)
    f._canon, f._cmap = canon, mapping
    return canon, mapping


def _spine(f, kind):
    """The maximal subformulas of f whose kind is not ``kind``, left to right."""
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g.kind == kind:
            stack.append(g.b)
            stack.append(g.a)
        else:
            out.append(g)
    return out


def _rnest(kind, items):
    if len(items) == 1:
        return items[0]
    out = items[-1]
    for x in reversed(items[:-1]):
        out = Formula(kind, x, out)
    return out


# -- text format --------------------------------------------------------------
#
# f ::= "T" | "F" | ident | "~" ident | "(" f "&" f ")" | "(" f "|" f ")"
# where an ident is never T or F


def fprint(f: Formula) -> str:
    """The text of f, cached on f.

    Cached subformula texts are reused, but only f's own text is stored: a
    chain nested n deep would otherwise keep n texts of average length 2n.
    """
    s = f._s
    if s is not None:
        return s
    out = []
    stack = [f]  # formulas still to print, and the text between them
    while stack:
        g = stack.pop()
        if type(g) is str:
            out.append(g)
        elif g._s is not None:
            out.append(g._s)
        elif g.kind == TOP:
            out.append("T")
        elif g.kind == BOT:
            out.append("F")
        elif g.kind == LIT:
            out.append(("~" + g.a) if g.b else g.a)
        else:
            out.append("(")
            stack += (")", g.b, "&" if g.kind == AND else "|", g.a)
    f._s = s = "".join(out)
    return s


class FormulaSyntaxError(ValueError):
    def __init__(self, msg, pos):
        super().__init__(f"{msg} at position {pos}")
        self.pos = pos


# one token per match: a word, or any other single non-space character; the
# match at the end of the text is the empty token, which ends every list
_TOKEN = re.compile(r"\s*(\w+|\S|\Z)")

_CONNECTIVE = {"&": AND, "|": OR}


def token_position(pattern, text, i):
    """Text position of token i of ``pattern.findall(text)``, where the
    pattern's one group is the token.

    The text is scanned again, so call this only to report an error.
    """
    return next(islice(pattern.finditer(text), i, None)).start(1)


def read_formula(tokens, i, locate):
    """Read one formula from tokens[i:]; return it and the index after it.

    The token list ends with the empty token.  ``locate(j)`` gives the text
    position of token j, for the FormulaSyntaxError of a malformed formula.
    """
    # one entry per open "(": None until its left operand is read, then the
    # pair (connective, left operand) while its right operand is read
    stack = []
    while True:
        t = tokens[i]
        i += 1
        if t == "(":
            stack.append(None)
            continue
        if t == "~":
            t = tokens[i]
            i += 1
            if not t[:1].isalpha():
                raise FormulaSyntaxError("expected identifier", locate(i - 1))
            if t in ("T", "F"):
                raise FormulaSyntaxError(f"{t} is a unit, not a variable name", locate(i - 1))
            f = Formula(LIT, t, True)
        elif t[:1].isalpha():
            f = top if t == "T" else bot if t == "F" else Formula(LIT, t, False)
        elif t:
            raise FormulaSyntaxError("expected identifier", locate(i - 1))
        else:
            raise FormulaSyntaxError("unexpected end of input", locate(i - 1))
        while stack and stack[-1] is not None:
            kind, left = stack.pop()
            if tokens[i] != ")":
                raise FormulaSyntaxError("expected ')'", locate(i))
            i += 1
            f = Formula(kind, left, f)
        if not stack:
            return f, i
        kind = _CONNECTIVE.get(tokens[i])
        if kind is None:
            raise FormulaSyntaxError("expected '&' or '|'", locate(i))
        stack[-1] = (kind, f)
        i += 1


def fparse(text: str) -> Formula:
    tokens = _TOKEN.findall(text)

    def locate(j):
        return token_position(_TOKEN, text, j)

    f, i = read_formula(tokens, 0, locate)
    if tokens[i]:
        raise FormulaSyntaxError("trailing input", locate(i))
    return f

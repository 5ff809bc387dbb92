"""Output checks written apart from deepflow.

They read only the program's text formats -- formula text, `.sksd` proof
text and flow JSON -- and recompute what the benchmark asserts about them:
redexes, open ai-paths, node censuses, truth tables and proof endpoints.
Nothing here imports deepflow, so a fault in the program cannot hide in the
check that looks for it.

Formulas are tuples: ("T",), ("F",), ("lit", name, negative) and
(connective, left, right) with connective "and" or "or".
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter, namedtuple

NODE_KINDS = ("aid", "awd", "acd", "aiu", "awu", "acu")
UP_RULES = frozenset({"aiu", "awu", "acu"})
KS_RULES = frozenset({"aid", "awd", "acd", "s", "m", "eq"})
# (source kind, target kind) of the edge joining the two nodes of each redex
REDEX_PAIRS = frozenset(
    {
        ("awd", "acd"),
        ("aid", "awu"),
        ("acu", "awu"),
        ("awd", "acu"),
        ("awd", "awu"),
        ("acd", "awu"),
        ("acd", "acu"),
        ("aid", "acu"),
    }
)

TOP = ("T",)
BOT = ("F",)


class CheckFailed(AssertionError):
    """An output disagrees with the independent computation."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- formulas ------------------------------------------------------------------

_FORMULA_TOKENS = re.compile(r"\s*([()&|~]|[A-Za-z][A-Za-z0-9_]*)")


def parse_formula(text):
    """Parse formula text, iteratively, into the tuple form."""
    stack = []
    pos = 0
    negate = False
    text = text.strip()
    while pos < len(text):
        m = _FORMULA_TOKENS.match(text, pos)
        if m is None:
            raise ValueError(f"bad formula text at {pos}: {text[pos:pos + 20]!r}")
        tok = m.group(1)
        pos = m.end()
        if tok == "~":
            negate = True
            continue
        if tok == "(" or tok in "&|":
            stack.append(tok)
            continue
        if tok == ")":
            b, op, a, opening = stack.pop(), stack.pop(), stack.pop(), stack.pop()
            if opening != "(" or op not in ("&", "|"):
                raise ValueError("unbalanced formula text")
            stack.append(("and" if op == "&" else "or", a, b))
            continue
        if negate:
            stack.append(("lit", tok, True))
            negate = False
        elif tok == "T":
            stack.append(TOP)
        elif tok == "F":
            stack.append(BOT)
        else:
            stack.append(("lit", tok, False))
    if len(stack) != 1:
        raise ValueError("incomplete formula text")
    return stack[0]


def disj_list(items):
    out = items[-1]
    for f in reversed(items[:-1]):
        out = ("or", f, out)
    return out


def conj_list(items):
    out = items[-1]
    for f in reversed(items[:-1]):
        out = ("and", f, out)
    return out


def canon_ac(f):
    """Canonical form modulo associativity and commutativity (no unit laws)."""
    if f[0] not in ("and", "or"):
        return f
    kind = f[0]
    parts = []
    todo = [f]
    while todo:
        g = todo.pop()
        if g[0] == kind:
            todo.append(g[1])
            todo.append(g[2])
        else:
            parts.append(canon_ac(g))
    return (kind, tuple(sorted(parts, key=repr)))


def variables(f):
    out = set()
    todo = [f]
    while todo:
        g = todo.pop()
        if g[0] == "lit":
            out.add(g[1])
        elif g[0] in ("and", "or"):
            todo.append(g[1])
            todo.append(g[2])
    return out


def evaluate(f, assignment):
    kind = f[0]
    if kind == "T":
        return True
    if kind == "F":
        return False
    if kind == "lit":
        return assignment[f[1]] != f[2]
    if kind == "and":
        return evaluate(f[1], assignment) and evaluate(f[2], assignment)
    return evaluate(f[1], assignment) or evaluate(f[2], assignment)


def valid_by_truth_table(f):
    names = sorted(variables(f))
    for bits in itertools.product((False, True), repeat=len(names)):
        if not evaluate(f, dict(zip(names, bits))):
            return False
    return True


def pigeonhole(n, variant):
    """The pigeonhole tautology for n+1 pigeons and n holes, with the
    functional ("F"), onto ("O") or both ("OF") weakenings: some pigeon sits
    in no hole, two pigeons share a hole, a pigeon sits in two holes, or a
    hole stays empty.  Variable a<i><j> says pigeon i sits in hole j."""

    def var(i, j, negative=False):
        return ("lit", f"a{i}{j}", negative)

    pigeons = range(n + 1)
    holes = range(1, n + 1)
    parts = [conj_list([var(i, j, True) for j in holes]) for i in pigeons]
    parts += [("and", var(i, j), var(k, j)) for j in holes for i in pigeons for k in pigeons if i < k]
    if "F" in variant:
        parts += [("and", var(i, j), var(i, k)) for i in pigeons for j in holes for k in holes if j < k]
    if "O" in variant:
        parts += [conj_list([var(i, j, True) for i in pigeons]) for j in holes]
    return disj_list(parts)


def unsatisfiable(clauses):
    """Decide a CNF unsatisfiable by DPLL with unit propagation.

    A clause is a list of (variable, negative) literals."""
    clauses = [frozenset(c) for c in clauses]

    def solve(clauses):
        while True:
            if any(not c for c in clauses):
                return False
            if not clauses:
                return True
            unit = next((next(iter(c)) for c in clauses if len(c) == 1), None)
            if unit is None:
                break
            clauses = _assign(clauses, unit)
        name, neg = next(iter(clauses[0]))
        return solve(_assign(clauses, (name, neg))) or solve(_assign(clauses, (name, not neg)))

    return not solve(clauses)


def _assign(clauses, literal):
    name, neg = literal
    out = []
    for c in clauses:
        if literal in c:
            continue
        out.append(c - {(name, not neg)})
    return out


def axioms_of_res(text):
    """Axiom clauses of a `.res` refutation as lists of (variable, negative)."""
    out = []
    for line in text.splitlines():
        toks = line.split(";")[0].split()
        if toks and toks[0] == "a":
            out.append([(t[1:], True) if t.startswith("~") else (t, False) for t in toks[2:]])
    return out


def dual_of_axioms(clauses):
    """The disjunction over the axioms of the conjunction of dual literals:
    the conclusion a compiled refutation must prove."""
    return disj_list([conj_list([("lit", v, not neg) for v, neg in c]) for c in clauses])


# -- .sksd proof text ----------------------------------------------------------

_SKSD_TOKENS = re.compile(r"\(|\)|[^\s()]+")


# premiss, conclusion, step census and atom count read off proof text
ProofText = namedtuple("ProofText", "premiss conclusion steps atoms")


def read_proof(text):
    """Read `(form F)`, `(and D D)`, `(or D D)` and `(step R D D)` text.

    The derivation is walked with an explicit stack: generated proofs are
    thousands of steps deep."""
    text = re.sub(r";[^\n]*", "", text)
    tokens = _SKSD_TOKENS.findall(text)
    steps = Counter()
    atoms = 0
    frames = []  # [kind, tag, children]
    result = None
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if tok == ")":
            kind, tag, kids = frames.pop()
            if len(kids) != 2:
                raise ValueError(f"({kind} ...) needs two children")
            (pa, ca), (pb, cb) = kids
            value = (pa, cb) if kind == "step" else ((tag, pa, pb), (tag, ca, cb))
            i += 1
        elif tok == "(":
            head = tokens[i + 1]
            if head == "form":
                depth = 0
                j = i + 2
                while tokens[j] != ")" or depth:
                    depth += {"(": 1, ")": -1}.get(tokens[j], 0)
                    j += 1
                f = parse_formula("".join(tokens[i + 2 : j]))
                atoms += _count_literals(f)
                value = (f, f)
                i = j + 1
            elif head in ("and", "or"):
                frames.append(["comp", head, []])
                i += 2
                continue
            elif head == "step":
                steps[tokens[i + 2]] += 1
                frames.append(["step", tokens[i + 2], []])
                i += 3
                continue
            else:
                raise ValueError(f"unknown head {head!r}")
        else:
            raise ValueError(f"unexpected token {tok!r}")
        if frames:
            frames[-1][2].append(value)
        else:
            result = value
    if frames or result is None:
        raise ValueError("incomplete proof text")
    return ProofText(result[0], result[1], steps, atoms)


def _count_literals(f):
    count = 0
    todo = [f]
    while todo:
        g = todo.pop()
        if g[0] == "lit":
            count += 1
        elif g[0] in ("and", "or"):
            todo.append(g[1])
            todo.append(g[2])
    return count


# -- flow JSON -----------------------------------------------------------------


class FlowGraph:
    """A flow read from its JSON text: node kinds and port adjacency."""

    def __init__(self, text):
        data = json.loads(text) if isinstance(text, str) else text
        self.kinds = {n["id"]: n["kind"] for n in data["nodes"]}
        self.edges = {}
        self.ins = {n: {} for n in self.kinds}
        self.outs = {n: {} for n in self.kinds}
        for e in data["edges"]:
            src = None if isinstance(e["from"], str) else tuple(e["from"])
            tgt = None if isinstance(e["to"], str) else tuple(e["to"])
            self.edges[e["id"]] = (src, tgt)
            if src is not None:
                self.outs[src[0]][src[1]] = e["id"]
            if tgt is not None:
                self.ins[tgt[0]][tgt[1]] = e["id"]

    def census(self):
        return Counter(self.kinds.values())

    def pending_ends(self):
        return sum((s is None) + (t is None) for s, t in self.edges.values())

    def redexes(self):
        """Edges joining the two nodes of one of the eight rewrite rules."""
        out = []
        for e, (src, tgt) in sorted(self.edges.items()):
            if src is not None and tgt is not None:
                if (self.kinds[src[0]], self.kinds[tgt[0]]) in REDEX_PAIRS:
                    out.append(e)
        return out

    def _continuations(self, state):
        """Next (edge, going_down) states of an ai-path, or None at a
        pending end."""
        e, down = state
        src, tgt = self.edges[e]
        end = tgt if down else src
        if end is None:
            return None
        node = end[0]
        kind = self.kinds[node]
        ins = list(self.ins[node].values())
        outs = list(self.outs[node].values())
        if down:
            if kind in ("acd", "acu"):
                return [(o, True) for o in outs]
            if kind == "aiu":
                return [(x, False) for x in ins if x != e]
            if kind == "awu":
                return []
        else:
            if kind in ("acd", "acu"):
                return [(x, False) for x in ins]
            if kind == "aid":
                return [(o, True) for o in outs if o != e]
            if kind == "awd":
                return []
        raise ValueError(f"edge {e} meets {kind} on the wrong side")

    def open_ai_paths(self):
        """Open ai-paths modulo inversion: paths from pending end to pending
        end that change direction only at identities and cuts."""
        memo = {}
        for start in list(self.edges):
            for state in ((start, True), (start, False)):
                todo = [state]
                on_stack = set()
                while todo:
                    s = todo[-1]
                    if s in memo:
                        todo.pop()
                        continue
                    nxt = self._continuations(s)
                    if nxt is None:
                        memo[s] = 1
                        todo.pop()
                        continue
                    missing = [t for t in nxt if t not in memo]
                    if missing:
                        if s in on_stack:
                            raise ValueError("ai-path state graph has a cycle")
                        on_stack.add(s)
                        todo.extend(missing)
                        continue
                    memo[s] = sum(memo[t] for t in nxt)
                    on_stack.discard(s)
                    todo.pop()
        total = 0
        for e, (src, tgt) in self.edges.items():
            if src is None:
                total += memo[(e, True)]
            if tgt is None:
                total += memo[(e, False)]
        require(total % 2 == 0, "open ai-paths counted an odd number of times")
        return total // 2

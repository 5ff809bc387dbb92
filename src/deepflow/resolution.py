"""Resolution refutations and their compilation into cut-free proofs.

Clauses are (multi)sets of terms; a term is a conjunction of literals and a
plain literal is a one-literal term.  The translation builds a derivation
from the conjunction of the axioms to the conjunction of all derived lines,
duplicating a line with generic cocontraction whenever a step consumes it;
flipping that derivation upside down yields a cocontraction/coweakening
proof of the dual disjunction, which flow normalization turns into a pure KS
proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .derivation import (
    ACD,
    AIU,
    GCU,
    GIU,
    GWD,
    GWU,
    KS,
    KS_PLUS,
    Derivation,
    compose,
    conclusion,
    dedupe_disjunction,
    dualize,
    ensure_checked,
    expand_generic,
    glue,
    in_context,
    is_proof,
    leaf,
    pair_block,
    premiss,
    rule_census,
    step,
)
from .flow import extract
from .formula import (
    Formula,
    bot,
    conj,
    conj_all,
    disj,
    disj_all,
    dual,
    fparse,
    fprint,
    is_literal,
    neg,
    top,
)
from .lift import normalize_proof
from .metrics import contraction_loops


@dataclass(frozen=True)
class Term:
    """A conjunction of literals; plain literals are one-literal terms."""

    literals: tuple

    def __post_init__(self):
        if not self.literals:
            raise ValueError("terms have at least one literal")

    @property
    def size(self):
        return len(self.literals)

    def formula(self) -> Formula:
        return conj_all(list(self.literals))

    def dual_literals(self):
        return tuple(neg(l) for l in self.literals)

    def text(self) -> str:
        return "*".join(fprint(l) for l in self.literals)


def term_of(text: str) -> Term:
    """The term of literals joined by '*', each read by fparse (which reads
    no variable named T or F)."""
    parts = []
    for part in text.split("*"):
        f = fparse(part)
        if not is_literal(f):
            raise ValueError(f"expected a literal, got {part!r}")
        parts.append(f)
    return Term(tuple(parts))


def literal_term(l: Formula) -> Term:
    return Term((l,))


@dataclass(frozen=True)
class Clause:
    """A clause read as the disjunction of its elements; empty clause is F."""

    elements: tuple  # of Term

    def formula(self) -> Formula:
        return disj_all([t.formula() for t in self.elements])

    def count(self, t: Term) -> int:
        return sum(1 for x in self.elements if x == t)

    def text(self) -> str:
        return " ".join(t.text() for t in self.elements) if self.elements else "<empty>"


def clause_of(*texts) -> Clause:
    return Clause(tuple(term_of(t) for t in texts))


def _sorted_elements(elements):
    return tuple(sorted(elements, key=lambda t: t.text()))


def make_clause(elements, mode: str) -> Clause:
    elements = tuple(elements)
    if mode == "set":
        uniq = []
        for t in elements:
            if t not in uniq:
                uniq.append(t)
        return Clause(_sorted_elements(uniq))
    return Clause(elements)


def _remove_once(elements, t: Term):
    out = list(elements)
    out.remove(t)
    return tuple(out)


# -- derivation lines -----------------------------------------------------------------


@dataclass(frozen=True)
class Axiom:
    index: int


@dataclass(frozen=True)
class Wk:
    source: int
    added: tuple  # of Term


@dataclass(frozen=True)
class Res:
    left: int
    right: int
    pivot: Term


@dataclass(frozen=True)
class AndStep:
    left: int
    right: int


@dataclass
class ResDerivation:
    mode: str = "set"  # or "multiset"
    tree_like: bool = False
    fmax: int | None = None
    lines: list = field(default_factory=list)

    def add(self, line):
        self.lines.append(line)
        return len(self.lines) - 1


@dataclass
class ResError:
    line: int
    code: str
    detail: str


@dataclass
class ResReport:
    ok: bool
    errors: list = field(default_factory=list)
    clauses: list = field(default_factory=list)
    is_refutation: bool = False

    def __bool__(self):
        return self.ok


class ResCheckFailure(Exception):
    def __init__(self, report):
        self.report = report
        msgs = "; ".join(f"line {e.line}: {e.code} ({e.detail})" for e in report.errors[:5])
        super().__init__(f"resolution check failed: {msgs}")


def check_res(pi: ResDerivation, axioms) -> ResReport:
    """Validate every line against the rule schemas and format assumptions."""
    errors = []
    clauses = []
    mode = pi.mode
    if mode not in ("set", "multiset"):
        return ResReport(False, [ResError(-1, "bad-mode", mode)])
    uses = [0] * len(pi.lines)

    def err(i, code, detail=""):
        errors.append(ResError(i, code, detail))

    for i, line in enumerate(pi.lines):
        cl = None
        if isinstance(line, Axiom):
            if not (0 <= line.index < len(axioms)):
                err(i, "bad-axiom-index", str(line.index))
            else:
                raw = axioms[line.index]
                if mode == "set" and len(set(raw.elements)) != len(raw.elements):
                    err(i, "duplicate-in-set", raw.text())
                cl = make_clause(raw.elements, mode)
        elif isinstance(line, (Wk, Res, AndStep)):
            srcs = (
                (line.source,)
                if isinstance(line, Wk)
                else (line.left, line.right)
            )
            bad = False
            for s in srcs:
                if not (0 <= s < i):
                    err(i, "source-after-line", str(s))
                    bad = True
                else:
                    uses[s] += 1
            if bad or any(clauses[s] is None for s in srcs):
                clauses.append(None)
                continue
            if isinstance(line, Wk):
                cl = make_clause(clauses[line.source].elements + tuple(line.added), mode)
            elif isinstance(line, AndStep):
                left, right = clauses[line.left], clauses[line.right]
                if not left.elements or not right.elements:
                    err(i, "bad-and", "premiss has no elements")
                    cl = None
                elif left == right:
                    err(i, "identical-premisses", left.text())
                    cl = None
                else:
                    s = left.elements[-1]
                    t = right.elements[-1]
                    new = Term(s.literals + t.literals)
                    cl = make_clause(
                        _remove_once(left.elements, s) + _remove_once(right.elements, t) + (new,),
                        mode,
                    )
            else:
                left, right = clauses[line.left], clauses[line.right]
                s = line.pivot
                duals = s.dual_literals()
                if len(set(s.literals)) != len(s.literals):
                    err(i, "bad-pivot", "pivot term repeats a literal")
                    cl = None
                elif left.count(s) < 1:
                    err(i, "bad-pivot", f"left premiss lacks {s.text()}")
                    cl = None
                elif any(right.count(literal_term(l)) < 1 for l in duals):
                    err(i, "bad-pivot", "right premiss lacks a dual literal")
                    cl = None
                elif left == right:
                    err(i, "identical-premisses", left.text())
                    cl = None
                else:
                    if s.size == 1:
                        l = s.literals[0]
                        if left.count(literal_term(neg(l))) > 0:
                            err(i, "pathological-premiss", "left premiss has the pivot and its dual")
                        if right.count(literal_term(l)) > 0:
                            err(i, "pathological-premiss", "right premiss has the pivot and its dual")
                    rest = list(_remove_once(left.elements, s))
                    relems = list(right.elements)
                    for l in duals:
                        relems.remove(literal_term(l))
                    cl = make_clause(tuple(rest) + tuple(relems), mode)
                    if mode == "set":
                        for l in s.literals:
                            if cl.count(literal_term(l)) or cl.count(literal_term(neg(l))):
                                err(i, "pathological-premiss", "pivot atom survives the conclusion")
                    if cl is not None and cl.count(s) and s.size > 1 and mode == "set":
                        err(i, "pathological-premiss", "pivot term survives the conclusion")
        else:
            err(i, "unknown-line", repr(line))
        clauses.append(cl)

    if pi.tree_like:
        for i, n in enumerate(uses):
            if n > 1:
                err(i, "tree-like-violation", f"line used {n} times")
    if pi.fmax is not None:
        for i, cl in enumerate(clauses):
            if cl is None:
                continue
            for t in cl.elements:
                if t.size > pi.fmax:
                    err(i, "term-size", f"{t.text()} exceeds bound {pi.fmax}")
    is_refutation = bool(clauses) and clauses[-1] is not None and not clauses[-1].elements
    errors.sort(key=lambda e: e.line)
    return ResReport(not errors, errors, clauses, is_refutation)


# -- the translation into the dual of KS+ ------------------------------------------------


def _conj_lines(formulas):
    if not formulas:
        return top
    out = formulas[0]
    for f in formulas[1:]:
        out = Formula("and", out, f)
    return out


def _line_path(n_lines, index):
    """Path of line `index` inside the left-nested conjunction of n_lines."""
    if n_lines == 1:
        return ()
    if index == n_lines - 1:
        return (1,)
    return (0,) + _line_path(n_lines - 1, index)


def translate_R(pi: ResDerivation, axioms) -> Derivation:
    """The inductive translation of a Resolution derivation.

    Produces a derivation from the conjunction of the axioms to the
    conjunction of all lines; every rule of the image is the dual of a KS+
    rule.
    """
    report = check_res(pi, axioms)
    if not report.ok:
        raise ResCheckFailure(report)
    mode = pi.mode
    axiom_clauses = [make_clause(c.elements, mode) for c in axioms]
    gf = _conj_lines([c.formula() for c in axiom_clauses])

    d = expand_generic(GWU, gf)  # from the axiom conjunction to T
    line_formulas = []
    for idx, line in enumerate(pi.lines):
        cl = report.clauses[idx]
        clf = cl.formula()
        if isinstance(line, Axiom):
            src_f = axiom_clauses[line.index].formula()
            path = _line_path(len(axiom_clauses), line.index)
            dup = in_context(gf, path, expand_generic(GCU, src_f))
            block = glue(leaf(gf), dup, leaf(conj(gf, src_f)))
            d = glue(block, compose("and", d, leaf(src_f)))
        else:
            if isinstance(line, Wk):
                inner = _wk_inner(report.clauses[line.source], line.added, cl, mode)
            elif isinstance(line, Res):
                inner = _res_inner(
                    report.clauses[line.left], report.clauses[line.right], line.pivot, cl, mode
                )
            else:
                inner = _and_inner(report.clauses[line.left], report.clauses[line.right], cl, mode)
            srcs = (line.source,) if isinstance(line, Wk) else (line.left, line.right)
            work = conclusion(d)
            for s_idx in srcs:
                path = _line_path(len(line_formulas), s_idx)
                src_f = line_formulas[s_idx]
                d = glue(d, in_context(work, path, expand_generic(GCU, src_f)))
                work = conclusion(d)
            pulled = _conj_lines(line_formulas + [premiss(inner)])
            d = glue(
                d,
                leaf(pulled),
                in_context(pulled, _line_path(len(line_formulas) + 1, len(line_formulas)), inner),
            )
        line_formulas.append(clf)
        d = glue(d, leaf(_conj_lines(line_formulas)))
    return d


def _wk_inner(src_cl: Clause, added, cl: Clause, mode: str) -> Derivation:
    src_f = src_cl.formula()
    if mode == "set":
        new_terms = []
        seen = list(src_cl.elements)
        for t in added:
            if t not in seen and t not in new_terms:
                new_terms.append(t)
    else:
        new_terms = list(added)
    if not new_terms:
        return glue(leaf(src_f), leaf(cl.formula()))
    add_f = disj_all([t.formula() for t in new_terms])
    host = disj(src_f, bot)
    return glue(
        leaf(src_f),
        in_context(host, (1,), expand_generic(GWD, add_f)),
        leaf(cl.formula()),
    )


def _res_inner(left: Clause, right: Clause, pivot: Term, cl: Clause, mode: str) -> Derivation:
    s_f = pivot.formula()
    t_f = dual(s_f)
    left_rest = _remove_once(left.elements, pivot)
    relems = list(right.elements)
    for l in pivot.dual_literals():
        relems.remove(literal_term(l))
    lf = disj_all([t.formula() for t in left_rest])
    rf = disj_all([t.formula() for t in relems])
    pre = conj(left.formula(), right.formula())
    block = pair_block(lf, s_f, rf, t_f)
    cut = (
        step(AIU, leaf(conj(t_f, s_f)), leaf(bot))
        if pivot.size == 1
        else expand_generic(GIU, t_f)
    )
    after = glue(
        leaf(premiss(block)),
        block,
        in_context(disj(disj(conj(t_f, s_f), lf), rf), (0, 0), cut),
        leaf(disj_all([t.formula() for t in left_rest + tuple(relems)])),
    )
    merged = left_rest + tuple(relems)
    if mode == "set" and len(set(merged)) != len(merged):
        after = glue(after, dedupe_disjunction([t.formula() for t in merged]))
    return glue(leaf(pre), after, leaf(cl.formula()))


def _and_inner(left: Clause, right: Clause, cl: Clause, mode: str) -> Derivation:
    s = left.elements[-1]
    t = right.elements[-1]
    s_f = s.formula()
    t_f = t.formula()
    left_rest = _remove_once(left.elements, s)
    right_rest = _remove_once(right.elements, t)
    lf = disj_all([x.formula() for x in left_rest])
    rf = disj_all([x.formula() for x in right_rest])
    pre = conj(left.formula(), right.formula())
    block = pair_block(lf, s_f, rf, t_f)
    new = Term(s.literals + t.literals)
    merged = left_rest + right_rest + (new,)
    after = glue(
        leaf(premiss(block)),
        block,
        leaf(disj_all([x.formula() for x in merged])),
    )
    if mode == "set" and len(set(merged)) != len(merged):
        after = glue(after, dedupe_disjunction([x.formula() for x in merged]))
    return glue(leaf(pre), after, leaf(cl.formula()))


# -- end-to-end simulation ------------------------------------------------------------


class UnsupportedModeError(ValueError):
    pass


def simulate(pi: ResDerivation, axioms, with_proofs: bool = False):
    """Compile a refutation into a checked KS proof of the dual disjunction."""
    report = check_res(pi, axioms)
    if not report.ok:
        raise ResCheckFailure(report)
    if not report.is_refutation:
        raise ValueError("derivation does not end with the empty clause")
    if pi.mode == "set" and not pi.tree_like:
        raise UnsupportedModeError("set-mode refutations are only supported tree-like")

    r_der = translate_R(pi, axioms)
    census = rule_census(r_der)
    if pi.mode == "multiset" and census.get(ACD, 0) != 0:
        raise AssertionError("multiset translation produced contraction steps")

    # finish at F: coweaken everything except the final empty line
    cn = conclusion(r_der)
    if cn != bot:
        rest = cn.a
        d = glue(
            r_der,
            in_context(conj(rest, bot), (0,), expand_generic(GWU, rest)),
            leaf(bot),
        )
    else:
        d = r_der
    ks_plus_proof = dualize(d)
    target = disj_all([dual(make_clause(c.elements, pi.mode).formula()) for c in axioms])
    ks_plus_proof = glue(ks_plus_proof, leaf(target))
    ensure_checked(ks_plus_proof, KS_PLUS)
    assert is_proof(ks_plus_proof)
    if pi.tree_like:
        loops = contraction_loops(extract(ks_plus_proof).flow)
        if loops:
            raise UnsupportedModeError(f"tree-like image has contraction loops: {loops}")
    ks_proof = normalize_proof(ks_plus_proof)
    ensure_checked(ks_proof, KS)
    if with_proofs:
        return ks_proof, ks_plus_proof, r_der
    return ks_proof


# -- .res text format -------------------------------------------------------------------


class ResSyntaxError(ValueError):
    pass


def parse_res(text: str):
    """Parse the line-oriented refutation format; returns (pi, axioms)."""
    pi = None
    axioms = []
    ids = {}

    def line_ref(tok, lineno):
        if tok not in ids:
            raise ResSyntaxError(f"line {lineno}: unknown id {tok!r}")
        return ids[tok]

    def term(tok, lineno):
        try:
            return term_of(tok)
        except ValueError as exc:
            raise ResSyntaxError(f"line {lineno}: bad term {tok!r}: {exc}") from None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split(";")[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "p":
            if len(toks) < 3 or toks[1] != "res" or toks[2] not in ("set", "multiset"):
                raise ResSyntaxError(f"line {lineno}: bad header")
            pi = ResDerivation(mode=toks[2])
            rest = toks[3:]
            while rest:
                if rest[0] == "tree":
                    pi.tree_like = True
                    rest = rest[1:]
                elif rest[0] == "fmax" and len(rest) > 1:
                    if not rest[1].isdecimal():
                        raise ResSyntaxError(f"line {lineno}: bad fmax {rest[1]!r}")
                    pi.fmax = int(rest[1])
                    rest = rest[2:]
                else:
                    raise ResSyntaxError(f"line {lineno}: bad header flag {rest[0]!r}")
            continue
        if pi is None:
            raise ResSyntaxError(f"line {lineno}: missing 'p res' header")
        kind = toks[0]
        if kind == "a":
            if len(toks) < 2 or not toks[1].endswith(":"):
                raise ResSyntaxError(f"line {lineno}: bad axiom line")
            name = toks[1][:-1]
            clause = Clause(tuple(term(t, lineno) for t in toks[2:]))
            axioms.append(clause)
            ids[name] = pi.add(Axiom(len(axioms) - 1))
        elif kind == "w":
            # w <id> = wk <src> + lit ...
            if len(toks) < 6 or toks[2] != "=" or toks[3] != "wk" or toks[5] != "+":
                raise ResSyntaxError(f"line {lineno}: bad wk line")
            added = tuple(term(t, lineno) for t in toks[6:])
            ids[toks[1]] = pi.add(Wk(line_ref(toks[4], lineno), added))
        elif kind == "r":
            # r <id> = res <l> <r> on <pivot>
            if len(toks) != 8 or toks[2] != "=" or toks[3] != "res" or toks[6] != "on":
                raise ResSyntaxError(f"line {lineno}: bad res line")
            ids[toks[1]] = pi.add(
                Res(line_ref(toks[4], lineno), line_ref(toks[5], lineno), term(toks[7], lineno))
            )
        elif kind == "t":
            # t <id> = and <l> <r>
            if len(toks) != 6 or toks[2] != "=" or toks[3] != "and":
                raise ResSyntaxError(f"line {lineno}: bad and line")
            ids[toks[1]] = pi.add(AndStep(line_ref(toks[4], lineno), line_ref(toks[5], lineno)))
        else:
            raise ResSyntaxError(f"line {lineno}: unknown line kind {kind!r}")
    if pi is None:
        raise ResSyntaxError("empty input")
    return pi, axioms


def print_res(pi: ResDerivation, axioms) -> str:
    head = ["p", "res", pi.mode]
    if pi.tree_like:
        head.append("tree")
    if pi.fmax is not None:
        head.extend(["fmax", str(pi.fmax)])
    out = [" ".join(head)]
    for i, line in enumerate(pi.lines):
        if isinstance(line, Axiom):
            out.append(f"a {i}: {axioms[line.index].text() if axioms[line.index].elements else ''}".rstrip())
        elif isinstance(line, Wk):
            out.append(f"w {i} = wk {line.source} + " + " ".join(t.text() for t in line.added))
        elif isinstance(line, Res):
            out.append(f"r {i} = res {line.left} {line.right} on {line.pivot.text()}")
        else:
            out.append(f"t {i} = and {line.left} {line.right}")
    return "\n".join(out) + "\n"

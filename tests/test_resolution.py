import sys

import pytest
from hypothesis import given, settings, strategies as st

from corpus import LOOPING_REFUTATION
from deepflow import resolution
from deepflow.derivation import (
    ACD,
    ACU,
    AIU,
    AWU,
    KS,
    S,
    SKS,
    check,
    conclusion,
    dparse,
    dprint,
    is_proof,
    premiss,
    rule_census,
    size,
)
from deepflow.families import php_refutation, res_chain
from deepflow.flow import extract
from deepflow.formula import bot, conj_all, disj_all, dual, eq_mod, fparse
from deepflow.metrics import contraction_loops, metrics_record
from deepflow.resolution import (
    AndStep,
    Axiom,
    Clause,
    Res,
    ResCheckFailure,
    ResDerivation,
    ResSyntaxError,
    UnsupportedModeError,
    Wk,
    check_res,
    clause_of,
    make_clause,
    parse_res,
    print_res,
    simulate,
    term_of,
    translate_R,
)


def unit_refutation(mode="multiset"):
    pi = ResDerivation(mode=mode, tree_like=(mode == "set"))
    axioms = [clause_of("a"), clause_of("~a")]
    l0 = pi.add(Axiom(0))
    l1 = pi.add(Axiom(1))
    pi.add(Res(l0, l1, term_of("a")))
    return pi, axioms


def three_clause_tree():
    pi = ResDerivation(mode="set", tree_like=True)
    axioms = [clause_of("a", "b"), clause_of("~a"), clause_of("~b")]
    a0 = pi.add(Axiom(0))
    a1 = pi.add(Axiom(1))
    a2 = pi.add(Axiom(2))
    r1 = pi.add(Res(a0, a1, term_of("a")))
    pi.add(Res(r1, a2, term_of("b")))
    return pi, axioms


def test_check_res_ok():
    pi, axioms = unit_refutation()
    report = check_res(pi, axioms)
    assert report.ok and report.is_refutation
    assert [c.text() for c in report.clauses] == ["a", "~a", "<empty>"]


def test_check_res_pathological_premiss():
    pi = ResDerivation(mode="set")
    axioms = [clause_of("a", "~a"), clause_of("~a")]
    l0 = pi.add(Axiom(0))
    l1 = pi.add(Axiom(1))
    pi.add(Res(l0, l1, term_of("a")))
    report = check_res(pi, axioms)
    assert any(e.code == "pathological-premiss" for e in report.errors)


def test_check_res_tree_violation():
    pi = ResDerivation(mode="set", tree_like=True)
    axioms = [clause_of("a"), clause_of("~a", "b"), clause_of("~a", "~b")]
    y0 = pi.add(Axiom(0))
    y1 = pi.add(Axiom(1))
    y2 = pi.add(Axiom(2))
    z1 = pi.add(Res(y0, y1, term_of("a")))
    z2 = pi.add(Res(y0, y2, term_of("a")))
    pi.add(Res(z1, z2, term_of("b")))
    report = check_res(pi, axioms)
    assert any(e.code == "tree-like-violation" for e in report.errors)


def test_check_res_more_diagnostics():
    pi = ResDerivation(mode="set")
    axioms = [Clause((term_of("a"), term_of("a")))]
    pi.add(Axiom(0))
    assert any(e.code == "duplicate-in-set" for e in check_res(pi, axioms).errors)

    pi2 = ResDerivation(mode="multiset")
    ax2 = [clause_of("a"), clause_of("b")]
    l0 = pi2.add(Axiom(0))
    l1 = pi2.add(Axiom(1))
    pi2.add(Res(l0, l1, term_of("a")))
    assert any(e.code == "bad-pivot" for e in check_res(pi2, ax2).errors)

    pi3 = ResDerivation(mode="multiset", fmax=1)
    ax3 = [clause_of("a"), clause_of("b"), clause_of("~a", "~b")]
    b0 = pi3.add(Axiom(0))
    b1 = pi3.add(Axiom(1))
    pi3.add(Axiom(2))
    pi3.add(AndStep(b0, b1))
    assert any(e.code == "term-size" for e in check_res(pi3, ax3).errors)


def test_translate_endpoints_and_census():
    pi, axioms = unit_refutation()
    r = translate_R(pi, axioms)
    assert check(r, SKS).ok
    assert eq_mod(premiss(r), conj_all([c.formula() for c in axioms]))
    # the last line: keeping every line to the end is what made the image quadratic
    assert conclusion(r) == check_res(pi, axioms).clauses[-1].formula()
    census = rule_census(r)
    assert census.get(AIU) == 1 and census.get(S) == 2
    assert census.get(ACD, 0) == 0  # multiset image is contraction-free


def test_translate_empty_derivation():
    pi = ResDerivation(mode="multiset")
    axioms = [clause_of("a"), clause_of("~a")]
    r = translate_R(pi, axioms)
    assert premiss(r) == conj_all([c.formula() for c in axioms])
    assert conclusion(r).kind == "top"


def test_translate_set_mode_contracts_shared_elements():
    pi = ResDerivation(mode="set", tree_like=True)
    axioms = [clause_of("a", "c"), clause_of("~a", "c")]
    l0 = pi.add(Axiom(0))
    l1 = pi.add(Axiom(1))
    pi.add(Res(l0, l1, term_of("a")))
    report = check_res(pi, axioms)
    assert report.clauses[-1].text() == "c"
    r = translate_R(pi, axioms)
    assert rule_census(r).get(ACD, 0) >= 1


def test_simulate_unit():
    pi, axioms = unit_refutation()
    proof = simulate(pi, axioms)
    assert check(proof, KS).ok and is_proof(proof)
    assert eq_mod(conclusion(proof), fparse("(~a|a)"))


def test_simulate_tree_like():
    pi, axioms = three_clause_tree()
    proof, ksplus, rder = simulate(pi, axioms, with_proofs=True)
    assert check(proof, KS).ok
    assert eq_mod(conclusion(proof), fparse("(((~a&~b)|a)|b)"))
    assert contraction_loops(extract(ksplus).flow) == []


def test_simulate_multiset_census():
    pi, axioms = php_refutation(multiset=True)
    proof, ksplus, rder = simulate(pi, axioms, with_proofs=True)
    assert check(proof, KS).ok
    assert rule_census(rder).get(ACD, 0) == 0
    assert rule_census(ksplus).get(ACU, 0) == 0
    want = disj_all([dual(make_clause(c.elements, "multiset").formula()) for c in axioms])
    assert eq_mod(conclusion(proof), want)


def test_simulate_resolution_f():
    pi = ResDerivation(mode="multiset", fmax=2)
    axioms = [clause_of("a"), clause_of("b"), clause_of("~a", "~b")]
    b0 = pi.add(Axiom(0))
    b1 = pi.add(Axiom(1))
    b2 = pi.add(Axiom(2))
    t1 = pi.add(AndStep(b0, b1))
    pi.add(Res(t1, b2, term_of("a*b")))
    assert check_res(pi, axioms).ok
    proof = simulate(pi, axioms)
    assert check(proof, KS).ok and is_proof(proof)


# a line used by two resolutions (line 4), and a line never used (line 5)
SHARED_LINE = """p res multiset
a 0: a b
a 1: ~b
a 2: ~a c
a 3: ~a ~c
r 4 = res 0 1 on b
r 5 = res 4 2 on a
r 6 = res 4 3 on a
r 7 = res 5 6 on c
"""
UNUSED_LINE = """p res set tree
a 0: x
a 1: ~x y
a 2: ~y
a 3: z w
a 4: ~z
r 5 = res 3 4 on z
r 6 = res 0 1 on x
r 7 = res 6 2 on y
"""


@pytest.mark.parametrize(
    "text, record",
    [
        (
            SHARED_LINE,
            {"breadth": 3, "contraction_loops": [], "edges": 9, "length": 1, "open_ai_paths": "4",
             "nodes": {"acd": 1, "acu": 0, "aid": 4, "aiu": 0, "awd": 0, "awu": 0}, "width": 2},
        ),
        (
            UNUSED_LINE,
            {"breadth": 4, "contraction_loops": [], "edges": 7, "length": 0, "open_ai_paths": "3",
             "nodes": {"acd": 0, "acu": 0, "aid": 3, "aiu": 0, "awd": 1, "awu": 0}, "width": 1},
        ),
    ],
    ids=["shared-line", "unused-line"],
)
def test_simulate_shared_and_unused_lines(text, record):
    pi, axioms = parse_res(text)
    proof = simulate(pi, axioms)
    assert check(proof, KS).ok and is_proof(proof)
    want = disj_all([dual(make_clause(c.elements, pi.mode).formula()) for c in axioms])
    assert eq_mod(conclusion(proof), want)
    # the metrics of the flow that copying every line at each use gave
    assert metrics_record(extract(proof).flow) == record


def test_simulation_grows_linearly_along_a_chain():
    assert size(simulate(*res_chain(96))) <= 2.1 * size(simulate(*res_chain(48)))


def test_tree_like_image_copies_and_discards_nothing():
    census = rule_census(translate_R(*res_chain(24)))
    assert census.get(AWU, 0) == 0 and census.get(ACU, 0) == 0


def test_translate_long_chain_under_the_default_recursion_limit():
    pi, axioms = res_chain(2000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        r = translate_R(pi, axioms)
    finally:
        sys.setrecursionlimit(limit)
    assert conclusion(r) == bot


def test_simulate_refuses_a_looping_tree_like_image():
    pi, axioms = parse_res(LOOPING_REFUTATION)
    pi.lines[6] = Axiom(2)  # axiom 2 is taken twice, axiom 4 not at all
    axioms[4] = clause_of("x9")
    with pytest.raises(UnsupportedModeError, match="contraction loops"):
        simulate(pi, axioms)


def test_simulate_rejects_modes_and_failures():
    pi, axioms = three_clause_tree()
    pi.tree_like = False
    with pytest.raises(UnsupportedModeError):
        simulate(pi, axioms)
    pi2 = ResDerivation(mode="multiset")
    ax2 = [clause_of("a")]
    pi2.add(Axiom(0))
    with pytest.raises(ValueError):
        simulate(pi2, ax2)  # not a refutation
    pi3 = ResDerivation(mode="multiset")
    pi3.add(Axiom(5))
    with pytest.raises(ResCheckFailure):
        translate_R(pi3, ax2)


def test_simulate_checks_the_refutation_once(monkeypatch):
    calls = []

    def counting(pi, axioms):
        calls.append(pi)
        return check_res(pi, axioms)

    monkeypatch.setattr(resolution, "check_res", counting)
    simulate(*three_clause_tree())
    assert len(calls) == 1


def test_wk_lines():
    pi = ResDerivation(mode="set", tree_like=True)
    axioms = [clause_of("a"), clause_of("~a")]
    l0 = pi.add(Axiom(0))
    w = pi.add(Wk(l0, (term_of("b"), term_of("a"))))
    l1 = pi.add(Axiom(1))
    r = pi.add(Res(w, l1, term_of("a")))
    report = check_res(pi, axioms)
    assert report.ok
    assert report.clauses[w].text() == "a b"
    r_der = translate_R(pi, axioms)
    assert check(r_der, SKS).ok


def test_res_chain_family():
    for n in (2, 4):
        pi, axioms = res_chain(n)
        report = check_res(pi, axioms)
        assert report.ok and report.is_refutation
        proof = simulate(pi, axioms)
        assert check(proof, KS).ok


def test_res_format_round_trip():
    pi, axioms = three_clause_tree()
    text = print_res(pi, axioms)
    pi2, ax2 = parse_res(text)
    assert print_res(pi2, ax2) == text
    assert check_res(pi2, ax2).ok
    pi3, ax3 = parse_res(
        "p res multiset fmax 2\n"
        "a 0: a\n"
        "a 1: b\n"
        "a 2: ~a ~b\n"
        "t 3 = and 0 1\n"
        "r 4 = res 3 2 on a*b\n"
    )
    assert pi3.fmax == 2 and check_res(pi3, ax3).ok
    from deepflow.resolution import ResSyntaxError

    with pytest.raises(ResSyntaxError):
        parse_res("r 0 = res 1 2 on a\n")


# words that .res lines are made of, some of them malformed, for the fuzzer
_RES_WORDS = [
    "p", "res", "set", "multiset", "tree", "fmax", "-1",
    "a", "w", "r", "t", "=", "wk", "+", "on", "and", "0", "1", "2", "0:", "1:",
    "x", "~x", "y2", "x*y", "~x*y", "*", "x*", "~", "~~x", "y(", "(x&y)", "T", "~F", "1x", "_",
]


_RES_LINE_STARTS = ["p res set", "p res multiset tree fmax", "a 0:", "a 1:", "w 2 = wk 0 +", "r 3 = res 0 1 on", "t 4 = and 0 1", ""]


@given(
    st.lists(
        st.one_of(
            st.tuples(st.sampled_from(_RES_LINE_STARTS), st.lists(st.sampled_from(_RES_WORDS), max_size=4)).map(
                lambda t: " ".join([t[0], *t[1]])
            ),
            st.text("pawrt =~*x01:;(&|)T\n", max_size=20),
        ),
        max_size=8,
    ),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_parse_res_raises_only_res_syntax_errors(lines, header):
    text = "\n".join((["p res set"] if header else []) + lines)
    try:
        parse_res(text)
    except ResSyntaxError:
        pass


_NAMES = st.one_of(
    st.from_regex(r"[abxTF][a-z0-9_²]{0,2}", fullmatch=True),
    st.text("ab_1²(T~F)&|", min_size=1, max_size=3),
)


@given(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
@settings(max_examples=60, deadline=None)
def test_accepted_chain_refutations_translate_to_readable_proofs(names):
    """A tree-like chain over the variables names: if parse_res accepts it,
    the KS proof translate writes reads back as the same proof."""
    n = len(names)
    lines = ["p res set tree", f"a 0: {names[0]}"]
    lines += [f"a {i}: ~{names[i - 1]} {names[i]}" for i in range(1, n)]
    lines.append(f"a {n}: ~{names[-1]}")
    cur = "0"
    for i in range(1, n + 1):
        lines.append(f"r {n + i} = res {cur} {i} on {names[i - 1]}")
        cur = str(n + i)
    try:
        pi, axioms = parse_res("\n".join(lines) + "\n")
    except ResSyntaxError:
        return
    text = dprint(simulate(pi, axioms))
    d = dparse(text)
    assert dprint(d) == text
    assert is_proof(d) and check(d, KS).ok

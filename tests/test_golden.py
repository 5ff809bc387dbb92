"""Byte identity of emitted proofs and traces: the sha256 (first 16 hex
digits) of outputs that a refactor must leave unchanged."""

import hashlib
import json

import pytest

from deepflow.derivation import dprint
from deepflow.families import cubic_flow, php_refutation, res_chain, tower_flow
from deepflow.flow import extract
from deepflow.formula import fparse
from deepflow.metrics import metrics_record
from deepflow.resolution import Axiom, AndStep, Res, ResDerivation, clause_of, simulate, term_of
from deepflow.rewrite import normalize, trace_to_json
from deepflow.simulations import php_ks, php_ksplus, sks_php_proof, switch_cut, truthtable_ks


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "variant, expected",
    [("F", "aea3d5b6da852e43"), ("O", "10e5a252b1058ba7"), ("OF", "d3661135f311e6bd")],
    ids=["F", "O", "OF"],
)
def test_php_proof_bytes(variant, expected):
    assert digest(dprint(php_ks(2, variant))) == expected


def test_resolution_chain_proof_bytes():
    assert digest(dprint(simulate(*res_chain(24)))) == "1dffc9b856db3542"


def _resolution_f_refutation():
    pi = ResDerivation(mode="multiset", fmax=2)
    axioms = [clause_of("a"), clause_of("b"), clause_of("~a", "~b")]
    b0, b1, b2 = pi.add(Axiom(0)), pi.add(Axiom(1)), pi.add(Axiom(2))
    pi.add(Res(pi.add(AndStep(b0, b1)), b2, term_of("a*b")))
    return pi, axioms


@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: truthtable_ks(fparse("((~a|~b)|(a&b))")), "b41478909d8c7180"),
        (lambda: truthtable_ks(fparse("(((a&b)&c)|((~a|~b)|~c))")), "08cb0c39f8b1255d"),
        (lambda: switch_cut(sks_php_proof(2)), "06fc33a97d369a54"),
        (lambda: simulate(*_resolution_f_refutation()), "262849803b490e8e"),
        (lambda: simulate(*php_refutation(multiset=True)), "c4eda9bc993a8a00"),
    ],
    ids=["truthtable-2", "truthtable-3", "switch-cut-php-2", "resolution-f", "php-refutation-multiset"],
)
def test_compiler_proof_bytes(build, expected):
    assert digest(dprint(build())) == expected


@pytest.mark.parametrize(
    "flow, kwargs, expected",
    [
        (lambda: cubic_flow(10), {}, "5df46b14b2e69771"),
        (lambda: cubic_flow(20), {"measures": False}, "3371160b60b0a4c1"),
        (lambda: cubic_flow(20), {}, "6177bb50396bf732"),
        (lambda: tower_flow(10), {}, "1b14cc30e74013f9"),
        (lambda: tower_flow(10), {"strategy": "cont-first"}, "f5e8fda6c2f6bc27"),
    ],
    ids=["cubic-10", "cubic-20-unmeasured", "cubic-20", "tower-10", "tower-10-cont-first"],
)
def test_normalize_trace_bytes(flow, kwargs, expected):
    _, trace = normalize(flow(), **kwargs)
    assert digest(trace_to_json(trace)) == expected


def test_metrics_record_bytes():
    flows = [cubic_flow(n) for n in range(1, 21)] + [tower_flow(n) for n in range(11)]
    flows += [normalize(f, measures=False)[0] for f in list(flows)]
    for variant in ("F", "O", "OF"):
        flows += [extract(php_ksplus(2, variant)).flow, extract(php_ks(2, variant)).flow]
    records = json.dumps([metrics_record(f) for f in flows], sort_keys=True)
    assert digest(records) == "65a5c228e3eb1596"

"""Byte identity of emitted proofs and traces: the sha256 (first 16 hex
digits) of outputs that a refactor must leave unchanged."""

import hashlib

import pytest

from deepflow.derivation import dprint
from deepflow.families import cubic_flow, res_chain, tower_flow
from deepflow.resolution import simulate
from deepflow.rewrite import normalize, trace_to_json
from deepflow.simulations import php_ks


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "variant, expected",
    [("F", "f1fa75f3207123c8"), ("O", "3a67223b31f3f5a1"), ("OF", "d87d32e48d374eb7")],
    ids=["F", "O", "OF"],
)
def test_php_proof_bytes(variant, expected):
    assert digest(dprint(php_ks(2, variant))) == expected


def test_resolution_chain_proof_bytes():
    assert digest(dprint(simulate(*res_chain(24)))) == "1e85c70d6ba2dcc6"


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

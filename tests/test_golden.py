"""Byte identity of emitted proofs and traces: the sha256 (first 16 hex
digits) of outputs that a refactor must leave unchanged."""

import hashlib
import json

import pytest

from deepflow.derivation import dprint
from deepflow.families import cubic_flow, res_chain, tower_flow
from deepflow.flow import extract
from deepflow.metrics import metrics_record
from deepflow.resolution import simulate
from deepflow.rewrite import normalize, trace_to_json
from deepflow.simulations import php_ks, php_ksplus


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "variant, expected",
    [("F", "85a3098ef18ed120"), ("O", "d3ce0c5414a6a3f0"), ("OF", "3f44a92ce60cd619")],
    ids=["F", "O", "OF"],
)
def test_php_proof_bytes(variant, expected):
    assert digest(dprint(php_ks(2, variant))) == expected


def test_resolution_chain_proof_bytes():
    assert digest(dprint(simulate(*res_chain(24)))) == "d6c80db5578fa87e"


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

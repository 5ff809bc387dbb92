"""Command-line front end: check, flow export, normalize, metrics, translate,
truth-table and pigeonhole generation, benchmarks.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
Every proof-emitting command re-checks its output before writing; a failed
self-check aborts with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from . import families
from .derivation import (
    KS,
    KS_PLUS,
    SKS,
    SksdSyntaxError,
    check,
    conclusion,
    dparse,
    dprint,
    is_proof,
    size,
)
from .flow import extract, from_json, to_dot, to_json
from .formula import FormulaSyntaxError, fparse, fprint
from .lift import normalize_proof
from .metrics import PathCountDivergence, metrics_record, open_ai_paths
from .resolution import ResCheckFailure, ResSyntaxError, parse_res, simulate
from .rewrite import WK, normalize, trace_to_json
from .simulations import php_formula, php_ks, truthtable_ks

SYSTEMS = {"KS": KS, "KS+": KS_PLUS, "SKS": SKS}


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", 2)


def _write(path: str, text: str, report):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", 2)
    report["outputs"].append({"path": path, "sha256": _digest(text.encode())})


def _load_derivation(path: str):
    text = _read(path)
    try:
        return dparse(text), _digest(text.encode())
    except (SksdSyntaxError, FormulaSyntaxError) as exc:
        raise CliError(f"parse error in {path}: {exc}", 2)


def _emit(report, as_json: bool):
    if as_json:
        print(json.dumps(report, indent=1))
    else:
        for key in ("command", "inputs", "outputs", "millis"):
            if report.get(key) not in (None, [], {}):
                print(f"{key}: {report[key]}")
        for name, ok, detail in report.get("assertions", []):
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if "metrics" in report:
            print(json.dumps(report["metrics"], indent=1))


def _run_checked(args, argv):
    report = {
        "command": " ".join(argv),
        "inputs": [],
        "outputs": [],
        "assertions": [],
    }
    t0 = time.time()
    try:
        code = args.fn(args, report)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    report["millis"] = int((time.time() - t0) * 1000)
    _emit(report, getattr(args, "json_out", False))
    return code


def cmd_check(args, report):
    d, digest = _load_derivation(args.path)
    report["inputs"].append({"path": args.path, "sha256": digest})
    result = check(d, SYSTEMS[args.system])
    report["assertions"].append(
        (
            "check",
            result.ok,
            f"{args.system} proof={is_proof(d)} size={size(d)}"
            if result.ok
            else "; ".join(f"{e.code}[{e.rule}]: {e.detail}" for e in result.errors[:5]),
        )
    )
    return 0 if result.ok else 1


def cmd_flow(args, report):
    d, digest = _load_derivation(args.path)
    report["inputs"].append({"path": args.path, "sha256": digest})
    result = check(d, SKS)
    if not result.ok:
        report["assertions"].append(("check", False, "input does not check in SKS"))
        return 1
    ext = extract(d)
    if args.dot:
        _write(args.dot, to_dot(ext.flow), report)
    if args.json_file:
        _write(args.json_file, to_json(ext.flow), report)
    if not args.dot and not args.json_file:
        print(to_dot(ext.flow), end="")
    report["assertions"].append(("flow", True, f"{len(ext.flow.nodes)} nodes, {ext.flow.n_edges} edges"))
    return 0


def cmd_normalize(args, report):
    d, digest = _load_derivation(args.path)
    report["inputs"].append({"path": args.path, "sha256": digest})
    result = check(d, KS_PLUS)
    if not result.ok or not is_proof(d):
        report["assertions"].append(("input", False, "expected a checked KS+ proof"))
        return 1
    out, nrep = normalize_proof(d, with_report=True)
    self_check = check(out, KS).ok and conclusion(out) == conclusion(d)
    report["assertions"].append(
        ("self-check", self_check, f"wk={nrep.wk_steps} cont={nrep.cont_steps} size {nrep.input_size}->{nrep.output_size}")
    )
    if not self_check:
        return 1
    _write(args.out, dprint(out), report)
    if args.trace:
        _, trace = normalize(extract(d).flow)
        _write(args.trace, trace_to_json(trace), report)
    return 0


def cmd_metrics(args, report):
    if args.path.endswith(".json"):
        text = _read(args.path)
        report["inputs"].append({"path": args.path, "sha256": _digest(text.encode())})
        try:
            flow = from_json(text)
        except ValueError as exc:
            raise CliError(f"{args.path}: {exc}", 2)
    else:
        d, digest = _load_derivation(args.path)
        report["inputs"].append({"path": args.path, "sha256": digest})
        result = check(d, SKS)
        if not result.ok:
            report["assertions"].append(("check", False, "input does not check in SKS"))
            return 1
        flow = extract(d).flow
    try:
        report["metrics"] = metrics_record(flow)
    except PathCountDivergence as exc:
        report["assertions"].append(("metrics", False, str(exc)))
        return 1
    return 0


def cmd_translate(args, report):
    text = _read(args.path)
    report["inputs"].append({"path": args.path, "sha256": _digest(text.encode())})
    try:
        pi, axioms = parse_res(text)
    except ResSyntaxError as exc:
        raise CliError(f"parse error: {exc}", 2)
    try:
        proof = simulate(pi, axioms)
    except (ResCheckFailure, ValueError) as exc:
        report["assertions"].append(("translate", False, str(exc)))
        return 1
    ok = check(proof, KS).ok and is_proof(proof)
    report["assertions"].append(("self-check", ok, f"KS proof of {fprint(conclusion(proof))}"))
    if not ok:
        return 1
    _write(args.out, dprint(proof), report)
    return 0


def cmd_tt(args, report):
    try:
        tau = fparse(args.formula)
    except FormulaSyntaxError as exc:
        raise CliError(f"formula parse error: {exc}", 2)
    try:
        proof = truthtable_ks(tau)
    except ValueError as exc:
        report["assertions"].append(("tautology", False, str(exc)))
        return 1
    ok = check(proof, KS).ok and conclusion(proof) == tau
    report["assertions"].append(("self-check", ok, f"size {size(proof)}"))
    if not ok:
        return 1
    if args.out:
        _write(args.out, dprint(proof), report)
    return 0


def cmd_gen_php(args, report):
    try:
        proof = php_ks(args.n, args.variant)
    except ValueError as exc:
        report["assertions"].append(("generate", False, str(exc)))
        return 1
    ok = check(proof, KS).ok and conclusion(proof) == php_formula(args.n, args.variant)
    report["assertions"].append(("self-check", ok, f"size {size(proof)}"))
    if not ok:
        return 1
    if args.out:
        _write(args.out, dprint(proof), report)
    return 0


def _parse_range(text):
    lo, sep, hi = text.partition("..")
    try:
        return range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise CliError(f"bad range {text!r}: expected N or LO..HI", 2)


CSV_HEADER = "family,param,input_size,output_size,steps_wk,steps_cont,open_ai_paths,millis"


def cmd_bench(args, report):
    rows = [CSV_HEADER]
    for n in _parse_range(args.range):
        t0 = time.time()
        if args.family == "tower":
            flow = families.tower_flow(n)
            nf, wk_trace = normalize(flow, measures=False)
            _, cont_trace = normalize(flow, strategy="cont-first", measures=False)
            row = (n, flow.n_edges, nf.n_edges, len(wk_trace), len(cont_trace), open_ai_paths(flow))
        elif args.family == "cubic":
            flow = families.cubic_flow(n)
            nf, trace = normalize(flow, measures=False)
            wk = sum(1 for t in trace if t.rule in WK)
            row = (n, flow.n_edges, nf.n_edges, wk, len(trace) - wk, open_ai_paths(flow))
        elif args.family == "php":
            from .simulations import php_ksplus

            p = php_ksplus(n, args.variant, cap=max(3, n))
            out, nrep = normalize_proof(p, with_report=True)
            row = (n, nrep.input_size, nrep.output_size, nrep.wk_steps, nrep.cont_steps,
                   open_ai_paths(extract(p).flow))
        elif args.family == "res-chain":
            pi, axioms = families.res_chain(n)
            proof = simulate(pi, axioms)
            in_size = sum(t.size for c in axioms for t in c.elements)
            row = (n, in_size, size(proof), "", "", open_ai_paths(extract(proof).flow))
        else:
            raise CliError(f"unknown family {args.family!r}", 2)
        millis = int((time.time() - t0) * 1000)
        rows.append(f"{args.family},{row[0]},{row[1]},{row[2]},{row[3]},{row[4]},{row[5]},{millis}")
    text = "\n".join(rows) + "\n"
    if args.csv:
        _write(args.csv, text, report)
    else:
        print(text, end="")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="deepflow", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="check a .sksd derivation against a system")
    p.add_argument("path")
    p.add_argument("--system", choices=sorted(SYSTEMS), default="SKS")
    p.add_argument("--json", dest="json_out", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("flow", help="extract the atomic flow of a derivation")
    p.add_argument("path")
    p.add_argument("--dot")
    p.add_argument("--json", dest="json_file")
    p.set_defaults(fn=cmd_flow, json_out=False)

    p = sub.add_parser("normalize", help="normalize a KS+ proof to a KS proof")
    p.add_argument("path")
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.add_argument("--json", dest="json_out", action="store_true")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("metrics", help="measure a derivation or flow JSON")
    p.add_argument("path")
    p.add_argument("--json", dest="json_out", action="store_true")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("translate", help="compile a .res refutation to a KS proof")
    p.add_argument("path")
    p.add_argument("--out", required=True)
    p.add_argument("--json", dest="json_out", action="store_true")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("tt", help="truth-table KS proof of a tautology")
    p.add_argument("formula")
    p.add_argument("--out")
    p.add_argument("--json", dest="json_out", action="store_true")
    p.set_defaults(fn=cmd_tt)

    p = sub.add_parser("gen-php", help="KS proof of a pigeonhole variant")
    p.add_argument("n", type=int)
    p.add_argument("variant", choices=["F", "O", "OF"])
    p.add_argument("--out")
    p.add_argument("--json", dest="json_out", action="store_true")
    p.set_defaults(fn=cmd_gen_php)

    p = sub.add_parser("bench", help="benchmark a built-in family")
    p.add_argument("family", choices=["tower", "cubic", "php", "res-chain"])
    p.add_argument("range", help="e.g. 1..10")
    p.add_argument("--variant", choices=["F", "O", "OF"], default="F")
    p.add_argument("--csv")
    p.add_argument("--json", dest="json_out", action="store_true")
    p.set_defaults(fn=cmd_bench)

    return ap


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    return _run_checked(args, argv)


if __name__ == "__main__":
    sys.exit(main())

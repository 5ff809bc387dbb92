"""The four benchmark workloads.

Each workload has three parts:

- ``setup(seed, workdir)`` makes the seeded inputs once per run.  They are
  plain texts and parameters, never program objects.
- ``items(state)`` lists the operations of one round.  Every operation
  rebuilds its program objects from those inputs, so nothing the program
  builds survives into the next round.
- ``check(state, outputs, full)`` checks a round's outputs with the code in
  ``checks``.  ``full`` is set on the first round of a run, which is checked
  in depth.  Every round returns a fingerprint that must equal the first
  round's, because the rounds are identical.

The program is reached only through module attributes (``simulations.php_ksplus``
and so on), so that the traced run sees every call once its wrappers are in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

import checks
from checks import FlowGraph, require
from deepflow import cli, derivation, families, flow, lift, metrics, resolution, rewrite, simulations

PHP_N = 2
CHAIN_N = 24
RANDOM_REFUTATIONS = 4
REFUTATION_DEPTH = 4
REFUTATION_VARS = 8
EXPLORE_FLOWS = 24
EXPLORE_MAX_EDGES = 14
EXPLORE_PENDING = 4


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _flow_graph(f):
    return FlowGraph(flow.to_json(f))


# -- refutation texts ----------------------------------------------------------


def _lit_text(literal):
    v, negative = literal
    return f"~x{v}" if negative else f"x{v}"


def chain_refutation(n):
    """`.res` text of the chain x1, ~x1|x2, ..., ~xn resolved in order."""
    lines = ["p res set tree", "a 0: x1"]
    lines += [f"a {i}: ~x{i} x{i + 1}" for i in range(1, n)]
    lines.append(f"a {n}: ~x{n}")
    cur, nxt = "0", n + 1
    for i in range(1, n + 1):
        lines.append(f"r {nxt} = res {cur} {i} on x{i}")
        cur, nxt = str(nxt), nxt + 1
    return "\n".join(lines) + "\n"


def random_refutation(rng, depth=REFUTATION_DEPTH, nvars=REFUTATION_VARS):
    """`.res` text of a random tree-like set-mode refutation with 2**depth axioms.

    It is built backwards from the empty clause as a complete binary tree: a
    clause C is split on a random variable x outside it into C1|x and C2|~x,
    where a random half of C's literals goes to C1 and the rest to C2.  Every
    axiom is then used once and no literal is ever merged, and the clause
    widths at each depth -- and so the size of the compiled proof -- do not
    depend on the seed; the seed picks the variables and where each literal
    goes.  Refutations that repeat an axiom clause on two branches make
    `simulate` fail, so the generator draws again when two axioms are equal.
    """
    while True:
        clause = {0: ()}
        split = {}
        level = [0]
        for _ in range(depth):
            nxt = []
            for node in level:
                c = list(clause[node])
                v = rng.choice([v for v in range(1, nvars + 1) if all(v != u for u, _ in c)])
                rng.shuffle(c)
                half = (len(c) + rng.randrange(2)) // 2
                a, b = len(clause), len(clause) + 1
                clause[a] = tuple(c[:half]) + ((v, False),)
                clause[b] = tuple(c[half:]) + ((v, True),)
                split[node] = (a, b, v)
                nxt += [a, b]
            level = nxt
        if len({frozenset(clause[n]) for n in level}) == len(level):
            break
    lines = ["p res set tree"]
    name = {}
    stack = [(0, False)]
    while stack:
        node, done = stack.pop()
        if node not in split:
            name[node] = str(len(name))
            lines.append(f"a {name[node]}: " + " ".join(_lit_text(l) for l in clause[node]))
        elif done:
            a, b, v = split[node]
            name[node] = str(len(name))
            lines.append(f"r {name[node]} = res {name[a]} {name[b]} on x{v}")
        else:
            a, b, _ = split[node]
            stack += [(node, True), (b, False), (a, False)]
    return "\n".join(lines) + "\n"


# -- php-ks --------------------------------------------------------------------


class PhpKs:
    """KS proofs of the pigeonhole variants F, O and OF, as `gen-php` makes
    them: `php_ksplus`, then `normalize_proof`, then `dprint`."""

    def setup(self, seed, workdir):
        variants = ["F", "O", "OF"]
        random.Random(seed).shuffle(variants)
        return variants

    def items(self, variants):
        def build(v):
            plus = simulations.php_ksplus(PHP_N, v)
            ks, report = lift.normalize_proof(plus, with_report=True)
            return v, plus, ks, report, derivation.dprint(ks)

        return [(f"php_ksplus({PHP_N}, {v})", lambda v=v: build(v)) for v in variants]

    def check(self, variants, outputs, full):
        fingerprint = []
        atoms = edges = 0
        for v, plus, ks, report, text in outputs:
            fingerprint.append((v, report.passes, report.wk_steps, report.cont_steps, _digest(text)))
            atoms += report.output_size
            edges += report.output_flow_edges
            if not full:
                continue
            target = checks.pigeonhole(PHP_N, v)
            require(checks.valid_by_truth_table(target), f"pigeonhole {v} is not valid")
            proof = checks.read_proof(text)
            require(proof.premiss == checks.TOP, f"{v}: premiss is not T")
            require(checks.canon_ac(proof.conclusion) == checks.canon_ac(target), f"{v}: wrong conclusion")
            require(not set(proof.steps) & checks.UP_RULES, f"{v}: up steps left in {dict(proof.steps)}")
            require(proof.atoms == report.output_size, f"{v}: size {report.output_size} != {proof.atoms} atoms")
            before = _flow_graph(flow.extract(plus).flow)
            after = _flow_graph(flow.extract(ks).flow)
            require(len(after.edges) == report.output_flow_edges, f"{v}: flow edge count disagrees")
            require(not after.redexes(), f"{v}: KS flow still has redexes")
            require(
                before.open_ai_paths() == after.open_ai_paths(),
                f"{v}: normalization changed the open ai-path count",
            )
        return {"fingerprint": fingerprint, "out_atoms": atoms, "out_flow_edges": edges}


# -- res-ks --------------------------------------------------------------------


class ResKs:
    """Refutations compiled to KS proofs, as `deepflow translate` does:
    `parse_res`, `simulate`, `dprint`."""

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        return [chain_refutation(CHAIN_N)] + [random_refutation(rng) for _ in range(RANDOM_REFUTATIONS)]

    def items(self, texts):
        def compile_text(text):
            pi, axioms = resolution.parse_res(text)
            proof = resolution.simulate(pi, axioms)
            return text, proof, derivation.dprint(proof)

        return [(f"refutation {i}", lambda t=t: compile_text(t)) for i, t in enumerate(texts)]

    def check(self, texts, outputs, full):
        fingerprint = []
        atoms = edges = 0
        for res_text, proof, out_text in outputs:
            fingerprint.append(_digest(out_text))
            if not full:
                continue
            axioms = checks.axioms_of_res(res_text)
            require(checks.unsatisfiable(axioms), "refutation axioms are satisfiable")
            reading = checks.read_proof(out_text)
            require(reading.premiss == checks.TOP, "compiled proof does not start from T")
            require(
                checks.canon_ac(reading.conclusion) == checks.canon_ac(checks.dual_of_axioms(axioms)),
                "compiled proof does not conclude the dual of the axioms",
            )
            require(set(reading.steps) <= checks.KS_RULES, f"compiled proof has non-KS steps {dict(reading.steps)}")
            require(reading.atoms == derivation.size(proof), "proof size disagrees with its text")
            graph = _flow_graph(flow.extract(proof).flow)
            require(not graph.redexes(), "compiled proof flow has redexes")
            atoms += reading.atoms
            edges += len(graph.edges)
        return {"fingerprint": fingerprint, "out_atoms": atoms, "out_flow_edges": edges}


# -- flow-rewrite --------------------------------------------------------------


def _small_proof_flows(seed):
    """Flow JSON texts of small random KS+ proofs with at least one redex.

    Every flow has EXPLORE_PENDING pending edge ends -- its proof concludes a
    formula of that many atoms -- and rewriting keeps them, so the boundary
    atoms of the normal forms do not depend on the seed."""
    rng = random.Random(seed)
    out = []
    while len(out) < EXPLORE_FLOWS:
        proof = families.random_ks_plus_proof(rng, steps=rng.randint(3, 7))
        f = flow.extract(proof).flow
        if f.n_edges <= EXPLORE_MAX_EDGES:
            graph = _flow_graph(f)
            if graph.pending_ends() == EXPLORE_PENDING and graph.redexes():
                out.append(flow.to_json(f))
    return out


# normalize inputs of flow-rewrite: (name, family, n, normalize keywords)
NORMALIZE_INPUTS = [
    ("cubic", "cubic_flow", 10, {}),
    ("cubic", "cubic_flow", 20, {"measures": False}),
    ("tower wk-first", "tower_flow", 10, {"measures": False}),
    ("tower cont-first", "tower_flow", 10, {"strategy": "cont-first", "measures": False}),
]


class FlowRewrite:
    """Flow normalization and exploration on flows alone, with no
    derivation: `normalize`, `explore_reductions` and `metrics_record`."""

    def setup(self, seed, workdir):
        return _small_proof_flows(seed)

    def items(self, flow_texts):
        def run_normalize(name, family, n, kwargs):
            f = getattr(families, family)(n)
            nf, trace = rewrite.normalize(f, **kwargs)
            return name, n, f, [nf], len(trace), metrics.metrics_record(f), metrics.metrics_record(nf)

        def run_explore(text):
            f = flow.from_json(text)
            normals = rewrite.explore_reductions(f)
            return "explore", None, f, normals, None, metrics.metrics_record(f), metrics.metrics_record(normals[0])

        ops = [(f"{spec[0]} {spec[2]}", lambda spec=spec: run_normalize(*spec)) for spec in NORMALIZE_INPUTS]
        ops += [(f"explore {i}", lambda t=t: run_explore(t)) for i, t in enumerate(flow_texts)]
        return ops

    def check(self, flow_texts, outputs, full):
        fingerprint = []
        ends = edges = 0
        towers = {}
        for name, n, f, normals, steps, rec_in, rec_out in outputs:
            nf = normals[0]
            fingerprint.append((name, len(normals), steps, nf.n_edges, rec_in["open_ai_paths"], rec_out["open_ai_paths"]))
            if not full:
                continue
            require(len(normals) == 1, f"{name}: {len(normals)} normal forms")
            before, after = _flow_graph(f), _flow_graph(nf)
            require(not after.redexes(), f"{name}: normal form has redexes")
            paths_in, paths_out = before.open_ai_paths(), after.open_ai_paths()
            require(str(paths_in) == rec_in["open_ai_paths"], f"{name}: metrics_record miscounts input paths")
            require(str(paths_out) == rec_out["open_ai_paths"], f"{name}: metrics_record miscounts output paths")
            if name == "cubic":
                expected = n * (n + 1) * (2 * n + 1) // 6
                require(paths_in == expected == paths_out, f"cubic {n}: paths are not {expected}")
            if name.startswith("tower"):
                towers[name] = (n, steps, after.census(), len(after.edges))
            ends += after.pending_ends()
            edges += len(after.edges)
        if full:
            n, wk_steps, *wk_form = towers["tower wk-first"]
            _, cont_steps, *cont_form = towers["tower cont-first"]
            require(wk_steps <= 3 * n + 3, f"wk-first took {wk_steps} steps")
            require(cont_steps >= 2**n - 1, f"cont-first took only {cont_steps} steps")
            require(wk_form == cont_form, "the strategies reach different normal forms")
        return {"fingerprint": fingerprint, "out_atoms": ends, "out_flow_edges": edges}


# -- proof-check ---------------------------------------------------------------


class ProofCheck:
    """One-shot commands on proof files: `check` as KS+ and as KS,
    `metrics --json` and `flow --json`, each through `cli.main`."""

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        proofs = [("php-O.ksplus", simulations.php_ksplus(PHP_N, "O"))]
        pi, axioms = resolution.parse_res(random_refutation(rng))
        ks, plus, _ = resolution.simulate(pi, axioms, with_proofs=True)
        proofs += [("res.ksplus", plus), ("res.ks", ks)]
        files = []
        for name, proof in proofs:
            path = os.path.join(workdir, name + ".sksd")
            with open(path, "w") as fh:
                fh.write(derivation.dprint(proof))
            files.append(path)
        return files

    def items(self, files):
        def command(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return argv, code, out.getvalue()

        ops = []
        for path in files:
            for argv in (
                ["check", path, "--system", "KS+"],
                ["check", path, "--system", "KS"],
                ["metrics", path, "--json"],
                ["flow", path, "--json", path[: -len(".sksd")] + ".flow.json"],
            ):
                ops.append((" ".join(argv), lambda argv=argv: command(argv)))
        return ops

    def check(self, files, outputs, full):
        readings = {}
        for path in files:
            with open(path) as fh:
                readings[path] = checks.read_proof(fh.read())
        fingerprint = []
        edges = 0
        reported = {}  # path -> (open ai-paths, edges) as `metrics --json` prints them
        counted = {}  # path -> the same, counted here from `flow --json` output
        for argv, code, stdout in outputs:
            cmd, path = argv[0], argv[1]
            proof = readings[path]
            if cmd == "check":
                has_up = bool(set(proof.steps) & checks.UP_RULES)
                expected = 1 if argv[3] == "KS" and has_up else 0
                require(code == expected, f"{' '.join(argv)} exited {code}, expected {expected}")
                fingerprint.append(code)
                continue
            require(code == 0, f"{' '.join(argv)} exited {code}")
            if cmd == "metrics":
                record = json.loads(stdout)["metrics"]
                reported[path] = (record["open_ai_paths"], record["edges"])
                fingerprint.append(record["open_ai_paths"])
                continue
            with open(argv[3]) as fh:
                graph = FlowGraph(fh.read())
            census = graph.census()
            for kind in checks.NODE_KINDS:
                require(
                    census.get(kind, 0) == proof.steps.get(kind, 0),
                    f"{path}: {census.get(kind, 0)} {kind} nodes for {proof.steps.get(kind, 0)} steps",
                )
            counted[path] = (str(graph.open_ai_paths()), len(graph.edges))
            edges += len(graph.edges)
            fingerprint.append(len(graph.edges))
        for path in reported.keys() & counted.keys():
            require(reported[path] == counted[path], f"{path}: metrics says {reported[path]}, counted {counted[path]}")
        atoms = sum(r.atoms for r in readings.values())
        return {"fingerprint": fingerprint, "out_atoms": atoms, "out_flow_edges": edges}


WORKLOADS = {
    "php-ks": PhpKs,
    "res-ks": ResKs,
    "flow-rewrite": FlowRewrite,
    "proof-check": ProofCheck,
}

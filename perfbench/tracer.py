"""Span tracing of deepflow's layers from outside the program.

`Tracer.install` wraps the public functions named in `SPANS` and puts each
wrapper in place of the function in every deepflow module that holds it,
including modules that imported it by name.  A wrapper records one span:
its name, start, end and the span it was called under.  Spans are kept in
flat arrays in memory and written out by `write` when the run ends.  A
layer's self time is its spans' time minus the time of their child spans.

Two private functions are wrapped as counters only, with no span, so their
time stays with their caller: `derivation._match_step` counts the steps
`check` matches against a rule schema, and `lift._surgery_for` counts the
redexes `normalize_proof` lifts.

The untraced runs never import this module.
"""

from __future__ import annotations

import functools
import gzip
import os
import statistics
import sys
from array import array
from time import perf_counter

# (module, function) pairs traced as spans; a span is named "module.function"
SPANS = [
    ("derivation", "endpoints"),
    ("derivation", "size"),
    ("derivation", "glue"),
    ("derivation", "check"),
    ("derivation", "dparse"),
    ("derivation", "dprint"),
    ("formula", "eq_mod"),
    ("formula", "canonical_occurrence_map"),
    ("flow", "extract"),
    ("flow", "iso"),
    ("flow", "validate"),
    ("lift", "normalize_proof"),
    ("rewrite", "normalize"),
    ("rewrite", "explore_reductions"),
    ("metrics", "open_ai_paths"),
    ("metrics", "dimensions"),
    ("metrics", "contraction_loops"),
    ("metrics", "metrics_record"),
    ("resolution", "parse_res"),
    ("resolution", "check_res"),
    ("resolution", "translate_R"),
    ("resolution", "simulate"),
    ("simulations", "sks_php_proof"),
    ("simulations", "switch_cut"),
    ("simulations", "php_ksplus"),
    ("cli", "main"),
]

COUNTERS = [("derivation", "_match_step"), ("lift", "_surgery_for")]

# the per-layer metrics a traced run reports, with their units
METRICS = {
    "derivation.endpoints.calls": "count",
    "derivation.endpoints.self_s": "s",
    "derivation.size.self_s": "s",
    "derivation.glue.calls": "count",
    "derivation.glue.self_s": "s",
    "derivation.check.calls": "count",
    "derivation.check.self_s": "s",
    "derivation.check.steps": "count",
    "formula.eq_mod.calls": "count",
    "formula.eq_mod.self_s": "s",
    "formula.canonical_occurrence_map.calls": "count",
    "formula.canonical_occurrence_map.self_s": "s",
    "flow.extract.calls": "count",
    "flow.extract.self_s": "s",
    "flow.extract.edges": "count",
    "lift.normalize_proof.calls": "count",
    "lift.normalize_proof.self_s": "s",
    "lift.normalize_proof.passes": "count",
    "lift.extract_edges_per_redex": "edges/redex",
    "rewrite.normalize.calls": "count",
    "rewrite.normalize.self_s": "s",
    "rewrite.normalize.steps": "count",
    "rewrite.normalize.measured_steps": "count",
    "flow.iso.calls": "count",
    "flow.iso.self_s": "s",
    "flow.validate.self_s": "s",
    "rewrite.explore_reductions.calls": "count",
    "rewrite.explore_reductions.self_s": "s",
    "metrics.open_ai_paths.calls": "count",
    "metrics.open_ai_paths.self_s": "s",
    "metrics.dimensions.calls": "count",
    "metrics.dimensions.self_s": "s",
    "metrics.contraction_loops.calls": "count",
    "metrics.contraction_loops.self_s": "s",
    "metrics.metrics_record.calls": "count",
    "metrics.metrics_record.self_s": "s",
    "resolution.parse_res.self_s": "s",
    "resolution.check_res.self_s": "s",
    "resolution.translate_R.self_s": "s",
    "resolution.simulate.self_s": "s",
    "simulations.sks_php_proof.self_s": "s",
    "simulations.switch_cut.self_s": "s",
    "simulations.php_ksplus.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "derivation.dparse.self_s": "s",
    "derivation.dprint.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in SPANS]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.counts = {}  # counter name -> count, for the round in progress
        self.rounds = []  # (first span, end span, counts) per traced round
        self._round_start = 0
        self._undo = []
        self._np = self.names.index("lift.normalize_proof")

    # -- wrappers --

    def _under_normalize_proof(self):
        names = self.span_name
        return any(names[i] == self._np for i in self.stack)

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _span_wrapper(self, name_id, fn, after):
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counter_wrapper(self, key, fn, only_under_normalize_proof):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not only_under_normalize_proof or self._under_normalize_proof():
                self._count(key)
            return fn(*args, **kwargs)

        return wrapper

    def _after_extract(self, ext):
        self._count("flow.extract.edges", ext.flow.n_edges)
        if self._under_normalize_proof():
            self._count("lift.extract_edges", ext.flow.n_edges)
            self._count("lift.extract_calls")

    def _after_normalize(self, result):
        trace = result[1]
        self._count("rewrite.normalize.steps", len(trace))
        self._count("rewrite.normalize.measured_steps", sum(1 for t in trace if t.d_after is not None))

    def install(self):
        """Put the wrappers in place in every loaded deepflow module."""
        modules = [m for n, m in list(sys.modules.items()) if n == "deepflow" or n.startswith("deepflow.")]
        after = {"flow.extract": self._after_extract, "rewrite.normalize": self._after_normalize}
        replacements = []
        for i, (mod, fn) in enumerate(SPANS):
            orig = getattr(sys.modules[f"deepflow.{mod}"], fn)
            replacements.append((orig, self._span_wrapper(i, orig, after.get(f"{mod}.{fn}"))))
        for mod, fn in COUNTERS:
            orig = getattr(sys.modules[f"deepflow.{mod}"], fn)
            replacements.append((orig, self._counter_wrapper(f"{mod}.{fn}", orig, mod == "lift")))
        for orig, wrapper in replacements:
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo = []

    # -- rounds and metrics --

    def begin_round(self):
        self._round_start = len(self.span_name)
        self.counts = {}

    def end_round(self):
        self.rounds.append((self._round_start, len(self.span_name), self.counts))
        self.counts = {}  # calls made while checking the round count nowhere

    def _round_metrics(self, first, end, counts):
        child = [0.0] * (end - first)
        for i in range(first, end):
            p = self.span_parent[i]
            if p >= first:
                child[p - first] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(first, end):
            k = self.span_name[i]
            calls[k] += 1
            self_s[k] += self.span_end[i] - self.span_start[i] - child[i - first]
        out = {}
        for name in METRICS:
            layer, _, what = name.rpartition(".")
            if layer in self.names:
                k = self.names.index(layer)
                if what == "calls":
                    out[name] = calls[k]
                elif what == "self_s":
                    out[name] = self_s[k]
        np_calls = calls[self._np]
        redexes = counts.get("lift._surgery_for", 0)
        out["derivation.check.steps"] = counts.get("derivation._match_step", 0)
        out["flow.extract.edges"] = counts.get("flow.extract.edges", 0)
        out["lift.normalize_proof.passes"] = counts.get("lift.extract_calls", 0) - np_calls
        out["lift.extract_edges_per_redex"] = counts.get("lift.extract_edges", 0) / redexes if redexes else 0.0
        out["rewrite.normalize.steps"] = counts.get("rewrite.normalize.steps", 0)
        out["rewrite.normalize.measured_steps"] = counts.get("rewrite.normalize.measured_steps", 0)
        out["trace.spans"] = end - first
        return out

    def per_layer(self, traced_round_s, untraced_round_s):
        """Per-layer metrics: the median over traced rounds of each figure."""
        per_round = [self._round_metrics(*r) for r in self.rounds]
        out = {}
        for name in per_round[0]:
            median = statistics.median_low if METRICS[name] == "count" else statistics.median
            out[name] = median(r[name] for r in per_round)
        out["trace.overhead_s"] = statistics.median(traced_round_s) - statistics.median(untraced_round_s)
        return {name: {"value": out[name], "unit": unit} for name, unit in METRICS.items()}

    def write(self, path):
        """Write the spans of the traced rounds as round, index, name, start,
        end and parent index (gzip TSV)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with gzip.open(tmp, "wt", compresslevel=1) as fh:
            fh.write("round\tindex\tname\tstart\tend\tparent\n")
            for r, (first, end, _) in enumerate(self.rounds):
                for i in range(first, end):
                    fh.write(
                        f"{r}\t{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                        f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n"
                    )
        os.replace(tmp, path)

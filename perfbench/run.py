"""Benchmark of deepflow's proof compilation, flow rewriting and checking.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload php-ks --seed 1 --seconds 15 --trace 0

A run imports deepflow from ./src, makes the workload's inputs from the seed
(three times, to time set-up), then repeats rounds -- one pass over the
inputs -- until the given seconds have passed, and checks each round's
outputs.  It prints one JSON object as its last line: correctness, the
operations attempted and failed, and the metrics.  With --trace 1 the run
alternates untraced and traced rounds after an untraced warm-up round, and
prints the per-layer metrics instead of the end-to-end ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
TRACES = os.path.join(HERE, "traces")
WORKLOAD_NAMES = ("php-ks", "res-ks", "flow-rewrite", "proof-check")
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "round_cpu_s": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MB",
    "out_atoms": "atoms",
    "out_flow_edges": "edges",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_deepflow():
    """Import deepflow from this checkout's src; return the seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "deepflow", "__init__.py")):
        raise SystemExit(f"error: no deepflow sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import deepflow
    import deepflow.cli
    import deepflow.families

    seconds = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(deepflow.__file__))) != SRC:
        raise SystemExit(f"error: deepflow was imported from {deepflow.__file__}, not {SRC}")
    return seconds


class Rounds:
    """Timed rounds of one workload, each checked after its clock stops."""

    def __init__(self, workload, state, name="round", hooks=(None, None)):
        self.workload = workload
        self.state = state
        self.name = name
        self.on_start, self.on_stop = hooks  # called around each timed round
        self.wall = []
        self.cpu = []
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.first = None  # the first round's check summary

    def run_one(self):
        outputs = []
        failed = 0
        if self.on_start:
            self.on_start()
        c0 = time.process_time()
        w0 = time.perf_counter()
        ops = self.workload.items(self.state)
        for label, op in ops:
            try:
                outputs.append(op())
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                print(f"operation failed: {label}: {exc!r}", file=sys.stderr)
        w1 = time.perf_counter()
        c1 = time.process_time()
        if self.on_stop:
            self.on_stop()
        self.wall.append(w1 - w0)
        self.cpu.append(c1 - c0)
        print(f"{self.name} {len(self.wall)}: {w1 - w0:.3f} s wall, {c1 - c0:.3f} s cpu, {failed} failed", file=sys.stderr)
        self.attempted += len(ops)
        self.failed += failed
        self.completed += len(ops) - failed
        summary = self.workload.check(self.state, outputs, full=self.first is None)
        if self.first is None:
            self.first = summary
        elif summary["fingerprint"] != self.first["fingerprint"]:
            raise AssertionError("a round's outputs differ from the first round's")


def main(argv=None):
    args = parse_args(argv)
    import_s = import_deepflow()
    import workloads
    from checks import CheckFailed

    workload = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        generate_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            generate_s.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(generate_s)

        correct = True
        untraced = Rounds(workload, state)
        traced = None
        t_end = time.perf_counter() + args.seconds
        try:
            untraced.run_one()
            if args.trace:
                import tracer

                # after the untraced warm-up round, untraced and traced rounds
                # come in pairs, so that each traced round has an untraced twin
                tr = tracer.Tracer()
                traced = Rounds(workload, state, "traced round", (tr.begin_round, tr.end_round))
                traced.first = untraced.first
                while True:
                    untraced.run_one()
                    tr.install()
                    traced.run_one()
                    tr.uninstall()
                    if time.perf_counter() >= t_end:
                        break
            else:
                while time.perf_counter() < t_end:
                    untraced.run_one()
        except (CheckFailed, AssertionError) as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = [r for r in (untraced, traced) if r is not None]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if not correct or untraced.first is None:
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}))
        return 1

    if args.trace:
        tr.write(os.path.join(TRACES, f"{args.workload}.spans.tsv.gz"))
        metrics = tr.per_layer(traced.wall, untraced.wall[1:])
    else:
        values = {
            "setup_s": setup_s,
            "round_s": statistics.median(untraced.wall),
            "round_cpu_s": statistics.median(untraced.cpu),
            "items_per_s": untraced.completed / sum(untraced.wall),
            "peak_rss_mb": peak_rss_mb,
            "out_atoms": untraced.first["out_atoms"],
            "out_flow_edges": untraced.first["out_flow_edges"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

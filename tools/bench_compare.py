"""Compare perfbench runs of a base commit and of the working tree.

Usage, from anywhere inside the repository:

    python3 tools/bench_compare.py --name kernel_caches --base HEAD

Both trees are written to fresh temporary directories: the base commit with
``git archive``, the working tree as its tracked and unignored files.  So the
two sides start alike, with no bytecode or benchmark output left from earlier
runs, and the repository's own state is left alone.  The benchmark command,
its workloads and its run length come from the working tree's BENCHMARK.json.
For each workload and each seed from 1 to 10, the command runs with
``--workload W --seed S --seconds <run_seconds> --trace 0`` once from the
root of each tree, one run at a time: the base goes first on odd seeds and
the working tree first on even seeds.  The result goes to
``BENCH_<name>.json`` at the repository root.  It holds the per-seed metrics
and the medians of both trees, the base commit, the commit the working tree
sits on and whether it has uncommitted changes, the CPU count and the Python
version.  Per workload it also holds, for each metric that BENCHMARK.json
gives a direction (``better``), the number of pairs the working tree wins, a
tie counting as no win (``pairs_won_by_change``), and the interquartile range
of the base runs (``base_iqr``, from ``statistics.quantiles``).  Each
end-to-end metric also gets a ``verdict``, by the first rule that holds:

- ``improved``: the change wins at least 9 in 10 pairs, and its median is
  better than the base median by more than ``base_iqr``;
- ``unresolved``: ``base_iqr`` is wider than the metric's ``bound`` times the
  base median, so a move within the bound cannot be told from noise;
- ``worse``: the change median is worse than the base median by more than
  ``bound`` times the base median;
- ``within bound``: anything else.

The exit status is 1 if any run was incorrect or failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

SEEDS = range(1, 11)


def git(root, *args):
    return subprocess.run(("git", "-C", root) + args, check=True, capture_output=True, text=True).stdout.strip()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--name", required=True, help="the output is BENCH_<name>.json")
    ap.add_argument("--base", default="HEAD", help="the commit to compare against (default HEAD)")
    return ap.parse_args(argv)


def export(root, rev, dest):
    """Write the files of commit ``rev``, or of the working tree if None, to dest."""
    os.makedirs(dest)
    if rev is not None:
        archive = subprocess.run(("git", "-C", root, "archive", rev), check=True, capture_output=True).stdout
        subprocess.run(("tar", "-x", "-C", dest), input=archive, check=True)
        return
    for path in git(root, "ls-files", "--cached", "--others", "--exclude-standard").splitlines():
        src = os.path.join(root, path)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, path)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, path))


def run_once(tree, command, workload, seed, seconds):
    """One untraced benchmark run from the root of ``tree``, flattened."""
    cmd = list(command) + ["--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return {"correct": False, "attempted": 0, "failed": 0}
    out = json.loads(lines[-1])
    metrics = {m: v["value"] for m, v in out.pop("metrics").items()}
    return {**out, **metrics}


def values(runs):
    """Per metric, its values over the runs, in run order."""
    names = dict.fromkeys(m for r in runs for m in r if m not in ("correct", "attempted", "failed"))
    return {m: [r[m] for r in runs if m in r] for m in names}


def medians(runs):
    return {m: statistics.median(v) for m, v in values(runs).items()}


def iqrs(runs):
    out = {}
    for m, v in values(runs).items():
        if len(v) > 1:
            q1, _, q3 = statistics.quantiles(v, n=4)
            out[m] = q3 - q1
    return out


def pairs_won(rows, better):
    """Per metric, the number of pairs in which the change is better."""
    won = {}
    for m, direction in better.items():
        pairs = [(row["base"][m], row["change"][m]) for row in rows if m in row["base"] and m in row["change"]]
        if pairs:
            won[m] = sum(c < b if direction == "lower" else c > b for b, c in pairs)
    return won


def verdicts(rows, end_to_end):
    """Per end-to-end metric, given as {name: (better, bound)}, the verdict
    on the change (see the module docstring)."""
    base = [row["base"] for row in rows]
    base_median, change_median = medians(base), medians([row["change"] for row in rows])
    spread = iqrs(base)
    won = pairs_won(rows, {m: better for m, (better, _) in end_to_end.items()})
    out = {}
    for m, (better, bound) in end_to_end.items():
        if m not in base_median or m not in change_median:
            continue
        b, iqr = base_median[m], spread.get(m, 0)
        gain = b - change_median[m] if better == "lower" else change_median[m] - b
        pairs = sum(m in row["base"] and m in row["change"] for row in rows)
        if won.get(m, 0) * 10 >= 9 * pairs and gain > iqr:
            out[m] = "improved"
        elif iqr > bound * b:
            out[m] = "unresolved"
        elif -gain > bound * b:
            out[m] = "worse"
        else:
            out[m] = "within bound"
    return out


def main(argv=None):
    args = parse_args(argv)
    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    base = git(root, "rev-parse", "--verify", args.base + "^{commit}")
    head = git(root, "rev-parse", "HEAD")
    dirty = bool(git(root, "status", "--porcelain", "--untracked-files=no"))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    command, seconds = bench["command"], bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench.get("per_layer", [])}
    end_to_end = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    report = {
        "command": " ".join(command) + f" --workload W --seed S --seconds {seconds:g} --trace 0",
        "base": {"commit": base},
        "change": {"commit": head, "uncommitted_changes": dirty},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "order": "base first on odd seeds, change first on even seeds",
        "workloads": {},
    }
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        # paths of equal length: the length alone moved flow-rewrite's
        # peak_rss_mb by up to 0.9 MB on one tree
        trees = {"base": os.path.join(tmp, "b"), "change": os.path.join(tmp, "c")}
        export(root, base, trees["base"])
        export(root, None, trees["change"])
        for w in (wl["name"] for wl in bench["workloads"]):
            rows = []
            for s in SEEDS:
                order = ("base", "change") if s % 2 else ("change", "base")
                row = {"seed": s, "first": order[0]}
                for side in order:
                    r = row[side] = run_once(trees[side], command, w, s, seconds)
                    ok = ok and r["correct"] and r["failed"] == 0
                    print(f"{w} seed {s} {side}: correct={r['correct']} failed={r['failed']} round_s={r.get('round_s')}", file=sys.stderr)
                rows.append(row)
            report["workloads"][w] = {
                "seeds": rows,
                "median": {side: medians([row[side] for row in rows]) for side in ("base", "change")},
                "pairs_won_by_change": pairs_won(rows, better),
                "base_iqr": iqrs([row["base"] for row in rows]),
                "verdict": verdicts(rows, end_to_end),
            }
    out = os.path.join(root, f"BENCH_{args.name}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark on a parent and a change tree in alternating pairs.

    python3 tools/bench_pairs.py <parent_tree> <change_tree> \
        --seeds 3201-3210 [--workloads scan,torus,cells] [--seconds 30] \
        --out BENCH_N.json

Each seed makes one pair per workload: for every workload in the order
given it runs ``bench/run.py --workload W --seed S --seconds T --trace 0``
once from the root of each tree, so that each side imports its own
``src/``, the parent first for the first, third, ... seed and the change
first for the others.
The end-to-end metrics, their directions and their bounds come from the
parent tree's ``BENCHMARK.json``.

Per workload and metric the record holds both sides' runs, medians and
quartiles (numpy's linear percentiles), the pairs in which the change is
better (ties count for neither side), and the median change in percent
of the parent's median.  It states two verdicts:

- ``claim_met``: the change is better in at least nine tenths of the
  pairs, and the medians differ in its favour by more than the distance
  between the parent's quartiles;
- ``bound``: ``regression`` when the change's median is worse than the
  parent's by more than the metric's bound (a fraction of the parent's
  median), else ``unresolved`` when the parent's quartile distance exceeds
  the bound and not every change run beats every parent run, else
  ``within``.

Per workload it also counts failed and attempted operations on each side.
Both trees are only read, apart from the ``bench/.work`` scratch directory
that ``bench/run.py`` keeps in each.  Needs the standard library and numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def parse_seeds(text):
    """Seeds from "3201-3210" or "3201,3205,3207" (or both, comma-joined)."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError("no seeds in %r" % text)
    return seeds


def run_once(tree, workload, seed, seconds):
    """The result object that ``bench/run.py`` prints last."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=10 * seconds + 600, check=False)
    if proc.returncode != 0:
        raise RuntimeError("%s in %s exited %d:\n%s" % (
            " ".join(cmd), tree, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(parent_runs, change_runs, better, bound):
    """Statistics and both verdicts of one metric on one workload.
    ``better`` is "lower" or "higher"; ``bound`` a fraction."""
    p, c = np.asarray(parent_runs, float), np.asarray(change_runs, float)
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = float(np.median(p)), float(np.median(c))
    p_q = [float(q) for q in np.percentile(p, [25, 75])]
    wins = int(np.sum(sign * (p - c) > 0))
    gain = sign * (p_med - c_med)              # > 0: change better
    scale = abs(p_med) or 1.0
    all_better = (c.max() < p.min() if better == "lower"
                  else c.min() > p.max())
    if -gain / scale > bound:
        verdict = "regression"
    elif (p_q[1] - p_q[0]) / scale > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within"
    return {
        "parent_runs": [float(x) for x in p],
        "change_runs": [float(x) for x in c],
        "parent_median": p_med,
        "parent_quartiles": p_q,
        "change_median": c_med,
        "change_quartiles": [float(q) for q in np.percentile(c, [25, 75])],
        "change_better_pairs": wins,
        "pairs": len(p),
        "median_change_pct": round(100.0 * (c_med - p_med) / p_med, 2)
        if p_med else None,
        "claim_met": wins >= math.ceil(0.9 * len(p))
        and gain > p_q[1] - p_q[0],
        "bound": bound,
        "bound_verdict": verdict,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_tree")
    ap.add_argument("change_tree")
    ap.add_argument("--seeds", required=True, type=parse_seeds)
    ap.add_argument("--workloads", default="scan,torus,cells")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    trees = {"parent": Path(args.parent_tree).resolve(),
             "change": Path(args.change_tree).resolve()}
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    metrics = spec["end_to_end"]
    workloads = args.workloads.split(",")

    results = {w: {s: [] for s in SIDES} for w in workloads}
    for pair, seed in enumerate(args.seeds):
        for workload in workloads:
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                res = run_once(trees[side], workload, seed, args.seconds)
                results[workload][side].append(res)
                print("pair %d seed %d %s %s: %s" % (
                    pair + 1, seed, workload, side,
                    ", ".join("%s %.6g" % (m["name"],
                                           res["metrics"][m["name"]]["value"])
                              for m in metrics)), file=sys.stderr)

    record = {
        "method": "python3 bench/run.py --workload W --seed S --seconds %g "
                  "--trace 0 from the root of each tree, alternating which "
                  "side runs first (parent first for the first seed), "
                  "workloads %s in that order per seed; tools/bench_pairs.py"
                  % (args.seconds, ", ".join(workloads)),
        "seeds": args.seeds,
        "host": "%s, Python %s, numpy %s" % (
            platform.machine(), platform.python_version(), np.__version__),
        "end_to_end": {},
    }
    for workload in workloads:
        runs = results[workload]
        entry = {m["name"]: summarize(
            [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
            [r["metrics"][m["name"]]["value"] for r in runs["change"]],
            m["better"], m["bound"]) for m in metrics}
        entry["ops"] = {
            **{"failed_" + s: sum(r["failed"] for r in runs[s])
               for s in SIDES},
            **{"attempted_" + s: sum(r["attempted"] for r in runs[s])
               for s in SIDES},
            "all_runs_correct": all(r["correct"] for s in SIDES
                                    for r in runs[s]),
        }
        record["end_to_end"][workload] = entry
        for m in metrics:
            e = entry[m["name"]]
            print("%s %s: parent %.6g [%.6g, %.6g], change %.6g (%+.2f%%), "
                  "better in %d/%d pairs, claim %s, bound %s" % (
                      workload, m["name"], e["parent_median"],
                      *e["parent_quartiles"], e["change_median"],
                      e["median_change_pct"], e["change_better_pairs"],
                      e["pairs"], "met" if e["claim_met"] else "not met",
                      e["bound_verdict"]))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run every workload untraced and traced and print all metrics as a table.

    python3 bench/report.py [--seed 42] [--seconds 30]

Each run is a separate ``bench/run.py`` process.  For each workload and
trace setting it prints a header with the result of the output checks,
then one line per metric: workload, name, value, unit.  Exits non-zero
when any check failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = p.parse_args()
    status = 0
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", w["name"],
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=BENCH.parent, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            status |= not result["correct"]
            print("# %s trace=%d: correct=%s attempted=%d failed=%d"
                  % (w["name"], trace, result["correct"], result["attempted"],
                     result["failed"]))
            for name, m in result["metrics"].items():
                print("%-8s %-30s %14.6g %s" % (w["name"], name, m["value"],
                                                m["unit"]))
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Record and compare the outputs of the benchmark's CLI invocations.

    python3 tools/cli_outputs.py run <tree> <out.json>
    python3 tools/cli_outputs.py diff <a.json> <b.json>

``run`` imports ``graphbands`` from ``<tree>/src`` and the workloads from
``<tree>/bench/workloads.py``, then makes every operation of every
workload in process through ``graphbands.cli.run``, for seeds 42 and 901
at the full and the tiny sizes (44 invocations with the current
workloads).  Each record holds the exit code, stdout, stderr and the
output file, with the temporary input directory masked as ``<tmp>``.
Use one process per tree: a process imports one ``graphbands``.

``diff`` lists the invocations whose records differ, and for an output
file of comma-separated numbers with the same shape on both sides, the
largest absolute difference of each field.  For a ``torus`` output, rows
of the 4 fields value, std_error, samples and seed, it also gives the
largest value shift in units of sqrt(se_a**2 + se_b**2), and its last
line names the largest such shift of all.  It exits 1 when any
invocation differs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as the benchmark runs; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SEEDS = (42, 901)
MASK = "<tmp>"


def run(tree, out_path):
    tree = Path(tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    import graphbands.cli
    import workloads
    records = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for tiny in (False, True):
                with tempfile.TemporaryDirectory() as tmp:
                    out = os.path.join(tmp, "out.csv")
                    files = workloads.write_inputs(workload, seed, tmp)
                    ops = workloads.build_ops(workload, seed, files, out,
                                              workloads.Checker(), tiny)
                    for op in ops:
                        stdout, stderr = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(stdout), \
                                contextlib.redirect_stderr(stderr):
                            code = graphbands.cli.run([op.command] + op.argv)
                        output = None
                        if os.path.exists(out):
                            output = Path(out).read_text(encoding="utf-8")
                            os.remove(out)
                        key = "%s seed=%d %s: %s" % (
                            workload, seed, "tiny" if tiny else "full",
                            op.label)
                        records[key] = {
                            "exit": code,
                            "stdout": stdout.getvalue().replace(tmp, MASK),
                            "stderr": stderr.getvalue().replace(tmp, MASK),
                            "output": output}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
    print("%d invocations recorded in %s" % (len(records), out_path))
    return 0


def _numbers(text):
    """Rows of floats of a CSV text, or None when it is not one."""
    try:
        return [[float(x) for x in line.split(",")]
                for line in text.strip().splitlines()]
    except (AttributeError, ValueError):
        return None


def field_shifts(a, b):
    """Largest |a - b| of each field of two CSV outputs of one shape, or
    None when either is not numeric CSV or the shapes differ."""
    rows_a, rows_b = _numbers(a), _numbers(b)
    if (rows_a is None or rows_b is None
            or [len(r) for r in rows_a] != [len(r) for r in rows_b]
            or len({len(r) for r in rows_a}) > 1):
        return None
    return [max(abs(x[i] - y[i]) for x, y in zip(rows_a, rows_b))
            for i in range(len(rows_a[0]) if rows_a else 0)]


def se_shift(a, b):
    """Largest |value_a - value_b| / sqrt(se_a**2 + se_b**2) over the rows
    of two ``torus`` outputs (value, std_error, samples, seed), or None
    when either is not one or their row counts differ."""
    rows_a, rows_b = _numbers(a), _numbers(b)
    if (not rows_a or rows_b is None or len(rows_a) != len(rows_b)
            or any(len(r) != 4 for r in rows_a + rows_b)):
        return None
    shifts = []
    for (va, sa, _, _), (vb, sb, _, _) in zip(rows_a, rows_b):
        d, se = abs(va - vb), math.hypot(sa, sb)
        shifts.append(d / se if se else 0.0 if d == 0 else math.inf)
    return max(shifts)


def diff(path_a, path_b):
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    differ = 0
    worst = None                        # (SE shift, key) of a torus output
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            print("%s: only in %s" % (key, path_a if key in a else path_b))
            differ += 1
            continue
        if a[key] == b[key]:
            continue
        differ += 1
        fields = [f for f in ("exit", "stdout", "stderr", "output")
                  if a[key][f] != b[key][f]]
        line = "%s: %s differ" % (key, ", ".join(fields))
        if "output" in fields:
            shifts = field_shifts(a[key]["output"], b[key]["output"])
            line += (", not comparable field by field" if shifts is None else
                     "; largest |difference| per field "
                     + ", ".join("%.3g" % s for s in shifts))
            se = se_shift(a[key]["output"], b[key]["output"])
            if se is not None:
                line += "; value shift %.2f SE" % se
                worst = max(worst or (se, key), (se, key))
        print(line)
    print("%d of %d invocations differ" % (differ, len(set(a) | set(b))))
    if worst is not None:
        print("largest torus value shift: %.2f SE (%s)" % worst)
    return 1 if differ else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "run":
        return run(argv[1], argv[2])
    if len(argv) == 3 and argv[0] == "diff":
        return diff(argv[1], argv[2])
    print("usage: cli_outputs.py run <tree> <out.json> | "
          "diff <a.json> <b.json>", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

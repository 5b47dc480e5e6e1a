"""graphbands benchmark: CLI workloads measured end to end and per layer.

    python3 bench/run.py --workload scan|torus|cells --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of
that checkout, never from an installed copy.  Each operation is one
``graphbands`` CLI invocation made in-process through
``graphbands.cli.run(argv)``; inputs are graph files written from the
seed into a temporary directory under ``bench/.work``.

``--trace 0`` times whole passes over the workload's command list with
no tracing and reports the end-to-end metrics.  ``--trace 1`` spends half
the time on untraced passes and half on traced ones, reports the
per-layer metrics derived from the traced spans, the tracing overhead,
and the layer microbenchmarks.  Times are rescaled to a reference host
speed by a calibration timed between passes (see CAL_REF_S).  The last
stdout line is the result object; the line before it holds the run
record and details.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Workload processes are single-threaded; pin BLAS before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
SETUP_PROBES = 3          # fresh processes timing set-up, plus this one
# Host-speed calibration: a fixed batch of 12x12 complex determinants, the
# operation that dominates the package's kernel.  On a shared host the
# speed of this process changes by up to 1.5x for tens of seconds at a
# time, and the calibration slows with it.  Every reported time is
# rescaled by the calibrations taken either side of it to a host on which
# the calibration takes CAL_REF_S (its uncontended time on a 2-core Xeon
# sandbox); raw times stay in the detail record.
CAL_REF_S = 0.040
CAL_BATCH = 4096

COMMAND_KINDS = ("density", "torus", "reference", "validate")


def _import_package():
    """Import graphbands from this checkout's src/, or exit with status 1."""
    if not (SRC / "graphbands" / "__init__.py").is_file():
        sys.exit("bench: %s/graphbands not found; run from a full checkout"
                 % SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import graphbands
    import graphbands.cli
    if Path(graphbands.__file__).resolve().parent != SRC / "graphbands":
        sys.exit("bench: imported graphbands from %s, not from %s"
                 % (graphbands.__file__, SRC))
    return graphbands


class Calibration:
    """Times the calibration batch; keeps every time it measured."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        shape = (CAL_BATCH, 12, 12)
        self._batch = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self._det = np.linalg.det
        self._det(self._batch)
        self.times = []

    def __call__(self):
        t0 = time.perf_counter()
        for _ in range(3):
            self._det(self._batch)
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]

    def scale(self, before, after):
        """Factor taking a time measured between two calibrations to the
        reference host speed."""
        return CAL_REF_S / (0.5 * (before + after))


class Session:
    """Set-up state of one workload process: inputs, checker, ops.

    Set-up imports the package, writes the inputs and runs the command
    list once at tiny size as a warm-up; ``setup_s`` is its duration.
    """

    def __init__(self, workload, seed, workdir, lasso_density=None,
                 tiny=False):
        t0 = time.perf_counter()
        self.gb = _import_package()
        import workloads
        self.cli = self.gb.cli
        self.out_path = os.path.join(workdir, "out.csv")
        files = workloads.write_inputs(workload, seed, workdir)
        self.checker = workloads.Checker(lasso_density or workloads.LASSO_DENSITY)
        self.ops = workloads.build_ops(workload, seed, files, self.out_path,
                                       self.checker, tiny)
        warm = workloads.build_ops(workload, seed, files, self.out_path,
                                   workloads.Checker(), tiny=True)
        for op in warm:
            self._invoke(op)
        self.setup_s = time.perf_counter() - t0
        self.calibrate = Calibration()

    def _invoke(self, op, tracer=None):
        """Run one CLI command; returns (seconds, exit code, stdout, stderr)."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        out, err = io.StringIO(), io.StringIO()
        span = tracer.open("op." + op.command) if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run([op.command] + op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "crash"
            err.write(traceback.format_exc())
        finally:
            dt = time.perf_counter() - t0
            if span is not None:
                tracer.close(span)
        return dt, code, out.getvalue(), err.getvalue()

    def run_pass(self, tracer=None):
        """One pass over the command list; returns (per-kind seconds,
        list of (label, error) for failed checks)."""
        seconds = dict.fromkeys(COMMAND_KINDS, 0.0)
        failures = []
        for op in self.ops:
            dt, code, stdout, stderr = self._invoke(op, tracer)
            seconds[op.command] += dt
            if code != 0:
                failures.append((op.label, "exit %r: %s" % (code, stderr.strip()[-300:])))
                continue
            try:
                text = ""
                if "-o" in op.argv:
                    with open(self.out_path, encoding="utf-8") as fh:
                        text = fh.read()
                error = op.check(text, stdout)
            except (OSError, ValueError) as exc:
                error = "unreadable output: %s" % exc
            if error:
                failures.append((op.label, error))
        return seconds, failures


def _passes(session, seconds, tracer=None):
    """Repeat passes until ``seconds`` of wall time have gone (at least
    one pass), with a calibration between passes.  Returns per pass the
    per-kind seconds rescaled to the reference host speed, the scale
    used, and when traced its spans; and the failed checks."""
    timings, scales, spans, failures = [], [], [], []
    before = session.calibrate()
    start = time.perf_counter()
    while not timings or time.perf_counter() - start < seconds:
        first = len(tracer.spans) if tracer else 0
        t, f = session.run_pass(tracer)
        after = session.calibrate()
        scale = session.calibrate.scale(before, after)
        before = after
        timings.append({k: v * scale for k, v in t.items()})
        scales.append(scale)
        failures += f
        if tracer:
            spans.append(tracer.spans[first:])
    return timings, scales, spans, failures


def _wall(t):
    return sum(t.values())


def _median_of(dicts, key):
    return statistics.median(d[key] for d in dicts)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_times(session, workload, seed, probes):
    """Set-up time of this process and of ``probes`` fresh ones, each
    rescaled by the calibrations around it."""
    first = session.calibrate()
    times = [session.setup_s * session.calibrate.scale(first, first)]
    before = first
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120,
            check=True)
        after = session.calibrate()
        times.append(float(proc.stdout.strip().splitlines()[-1])
                     * session.calibrate.scale(before, after))
        before = after
    return times


def run_record(seed, gb):
    import numpy
    import scipy

    def blas(cfg):
        try:
            return cfg(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (KeyError, TypeError):
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "graphbands").glob("*.py")))
    return {
        "seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy.show_config),
        "openblas_scipy": blas(scipy.show_config),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "graphbands": gb.__version__, "src_lines": src_lines,
    }


def _end_to_end(session, workload, seed, seconds, probes):
    setups = _setup_times(session, workload, seed, probes)
    timings, scales, _, failures = _passes(session, seconds)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(_wall(t) for t in timings),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return metrics, timings, scales, failures, {"setup_runs_s": setups}


def _per_layer(session, workload, seed, seconds):
    from tracer import Tracer, layer_metrics
    import microbench

    plain, plain_scales, _, failures = _passes(session, seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_scales, pass_spans, traced_failures = _passes(
            session, seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    failures += traced_failures

    layers = [layer_metrics(s, k) for s, k in zip(pass_spans, traced_scales)]
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    for name, kind in (("density", "density"), ("torus", "torus"),
                       ("dihedral", "reference")):
        metrics["cmd.%s_s" % name] = _median_of(plain, kind)
    metrics["trace.overhead_s"] = (statistics.median(_wall(t) for t in traced)
                                   - statistics.median(_wall(t) for t in plain))
    metrics["check.density_abs_err"] = max(session.checker.abs_err, default=0.0)
    timings = plain + traced
    metrics["check.fail_rate"] = len(failures) / (len(timings) * len(session.ops))

    before = session.calibrate()
    micro = microbench.run(session.gb)
    scale = session.calibrate.scale(before, session.calibrate())
    for k in micro:
        if k.startswith("secular.dets_per_s."):
            micro[k] /= scale
    metrics.update(micro)
    metrics["host.calibration_s"] = statistics.median(session.calibrate.times)

    spans_file = WORK / ("spans-%s-%d.json" % (workload, seed))
    spans_file.write_text(json.dumps(tracer.spans), encoding="utf-8")
    extra = {"absent": tracer.absent, "spans": len(tracer.spans),
             "spans_file": str(spans_file.relative_to(ROOT))}
    return metrics, timings, plain_scales + traced_scales, failures, extra


def measure(workload, seed, seconds, trace, lasso_density=None, tiny=False):
    """One benchmark run; returns (result object, detail record).

    ``lasso_density`` overrides the reference the checks compare with and
    ``tiny`` shrinks every command; both exist for the smoke test, which
    also skips the set-up probes.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if trace else "end_to_end"]
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (workload, seed), dir=WORK)
    try:
        session = Session(workload, seed, workdir, lasso_density, tiny)
        if trace:
            metrics, timings, scales, failures, extra = _per_layer(
                session, workload, seed, seconds)
        else:
            metrics, timings, scales, failures, extra = _end_to_end(
                session, workload, seed, seconds, 0 if tiny else SETUP_PROBES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {
        "workload": workload, "trace": trace,
        "record": run_record(seed, session.gb),
        "passes": len(timings),
        "pass_wall_s": [_wall(t) for t in timings],
        "pass_raw_wall_s": [_wall(t) / k for t, k in zip(timings, scales)],
        "calibration_s": session.calibrate.times,
        "command_s": {k: _median_of(timings, k) for k in COMMAND_KINDS},
        "density_abs_err": max(session.checker.abs_err, default=None),
        "failures": failures[:20],
    }
    detail.update(extra)
    result = {
        "correct": not failures,
        "attempted": len(timings) * len(session.ops),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    return result, detail


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("scan", "torus", "cells"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        WORK.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="probe-", dir=WORK)
        try:
            print(repr(Session(args.workload, args.seed, workdir).setup_s))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    result, detail = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

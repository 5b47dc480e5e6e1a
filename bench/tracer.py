"""Boundary tracer: spans around the calls one layer makes into another.

The tracer replaces module attributes that callers look up at call time
with timing wrappers, so nothing under ``src/`` changes.  Each wrapper
records a span (name, start, end, parent span id) plus the counts its
arguments and result reveal.  Spans stay in memory until the benchmark
ends; :func:`layer_metrics` turns the spans of one workload pass into
the per-layer metrics.

A name that a later refactor removes is listed in ``Tracer.absent`` and
the metrics it feeds read zero; the tracer never raises for it.
"""

from __future__ import annotations

import functools
import importlib
import time


def _secular_counts(args, kwargs, result):
    bs = args[0]
    return {"rows": int(result.shape[0]), "dets": int(result.size),
            "bonds": int(bs.n_bonds)}


def _membership_counts(args, kwargs, result):
    return {"rows": int(result.size), "members": int(result.sum())}


def _samples_counts(args, kwargs, result):
    return {"samples": int(result.samples)}


def _dihedral_counts(args, kwargs, result):
    samples = args[0] if args else kwargs["samples"]
    return {"samples": int(samples)}


def _bonds_counts(args, kwargs, result):
    return {"bonds": int(result.n_bonds)}


# (module, attribute, counts from (args, kwargs, result) or None).  Each
# entry is the name a caller resolves at call time: ``spectrum`` looks up
# its own globals, ``torus`` and ``cli`` the names they imported.
BOUNDARIES = (
    ("graphbands.spectrum", "secular_values", _secular_counts),
    ("graphbands.spectrum", "membership_from_phases", _membership_counts),
    ("graphbands.spectrum", "momentum_membership", _membership_counts),
    ("graphbands.torus", "membership_from_phases", _membership_counts),
    ("graphbands.cli", "load_graph", None),
    ("graphbands.cli", "validate_cell", None),
    ("graphbands.cli", "bloch_reduce", None),
    ("graphbands.cli", "bind_lengths", None),
    ("graphbands.cli", "bond_matrices", _bonds_counts),
    ("graphbands.cli", "density", None),
    ("graphbands.cli", "mc_volume", _samples_counts),
    ("graphbands.cli", "dihedral_density", _dihedral_counts),
)


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._stack = []
        self._saved = []

    def open(self, name):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "t0": time.perf_counter(), "t1": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span["t1"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result
        return traced

    def install(self):
        for module_name, attr, counts in BOUNDARIES:
            name = "%s.%s" % (module_name.rsplit(".", 1)[-1], attr)
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, counts))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []


def layer_metrics(spans, scale=1.0):
    """Per-layer metrics of one traced pass.

    ``spans`` holds the pass's spans, including the ``op.<command>`` span
    the benchmark opens around each CLI invocation.  Counts are totals
    over the pass; times are seconds of busy (span) time, multiplied by
    ``scale``.
    """
    def dur(span):
        return (span["t1"] - span["t0"]) * scale

    by_id = {s["id"]: s for s in spans}
    child_s = {}
    for s in spans:
        if s["parent"] in by_id:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + dur(s)

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def busy(*names):
        return sum(dur(s) for s in named(*names))

    def self_time(*names):
        return sum(dur(s) - child_s.get(s["id"], 0.0) for s in named(*names))

    def total(key, *names):
        return sum(s.get(key, 0) for s in named(*names))

    m = {}
    sec = named("spectrum.secular_values")
    m["secular.calls"] = len(sec)
    m["secular.dets"] = total("dets", "spectrum.secular_values")
    m["secular.busy_s"] = busy("spectrum.secular_values")
    m["secular.dets_per_s"] = (m["secular.dets"] / m["secular.busy_s"]
                               if m["secular.busy_s"] else 0.0)
    m["secular.rows_per_call"] = (total("rows", "spectrum.secular_values")
                                  / len(sec) if sec else 0.0)
    m["secular.bytes_computed"] = sum(s["dets"] * s["bonds"] ** 2 * 16
                                      for s in sec)

    members = ("spectrum.membership_from_phases", "torus.membership_from_phases")
    m["spectrum.rows"] = total("rows", *members)
    m["spectrum.dets_per_row"] = (m["secular.dets"] / m["spectrum.rows"]
                                  if m["spectrum.rows"] else 0.0)
    m["spectrum.self_s"] = self_time(*members)
    m["spectrum.member_rate"] = (total("members", *members) / m["spectrum.rows"]
                                 if m["spectrum.rows"] else 0.0)

    # band_intervals makes one grid call, then one call per bisection
    # round on all open edges at once.
    grid, bisect = [], []
    for d in named("cli.density"):
        calls = [s for s in spans if s["name"] == "spectrum.momentum_membership"
                 and s["parent"] == d["id"]]
        grid += calls[:1]
        bisect += calls[1:]
    m["spectrum.grid_rows"] = sum(s["rows"] for s in grid)
    m["spectrum.bisect_rounds"] = len(bisect)
    m["spectrum.bisect_rows"] = sum(s["rows"] for s in bisect)
    edges = 0
    for d in named("cli.density"):
        first = next((s for s in bisect if s["parent"] == d["id"]), None)
        edges += first["rows"] if first else 0
    m["spectrum.edges"] = edges
    m["spectrum.rows_per_edge"] = ((m["spectrum.grid_rows"]
                                    + m["spectrum.bisect_rows"]) / edges
                                   if edges else 0.0)
    m["spectrum.scan_s"] = sum(dur(s) for s in grid)
    m["spectrum.bisect_s"] = sum(dur(s) for s in bisect)

    mc = named("cli.mc_volume")
    m["torus.samples"] = total("samples", "cli.mc_volume")
    m["torus.self_s"] = self_time("cli.mc_volume")
    tmem = named("torus.membership_from_phases")
    m["torus.hit_rate"] = (total("members", "torus.membership_from_phases")
                           / m["torus.samples"] if mc and tmem else 0.0)

    m["reference_models.samples"] = total("samples", "cli.dihedral_density")
    m["reference_models.busy_s"] = busy("cli.dihedral_density")

    m["graph_model.busy_s"] = busy("cli.load_graph", "cli.validate_cell",
                                   "cli.bloch_reduce", "cli.bind_lengths")
    m["bond_system.busy_s"] = busy("cli.bond_matrices")
    m["bond_system.n_bonds"] = total("bonds", "cli.bond_matrices")
    ops = [s for s in spans if s["name"].startswith("op.")]
    m["cli.self_s"] = sum(dur(s) - child_s.get(s["id"], 0.0) for s in ops)

    # share of the density/torus/dihedral command time that the kernel
    # layers' busy time accounts for
    routes = busy("op.density", "op.torus", "op.reference")
    kernel = (m["secular.busy_s"] + m["spectrum.self_s"] + m["torus.self_s"]
              + m["reference_models.busy_s"])
    m["trace.kernel_share"] = kernel / routes if routes else 0.0
    return m

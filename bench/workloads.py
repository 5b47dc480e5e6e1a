"""Workload inputs, command lists and output checks.

Every input is a graph JSON file written from the workload seed; the
program under test only ever sees those files and CLI arguments.  Sizes
are given as band counts (k_max = bands * pi / total length) and sample
counts, so the work of a pass does not depend on the lengths a seed
draws.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Band density of the loop-with-pendant class, (2 / pi^2) times the
# integral of arctan(2 cot(kappa / 2)) over [0, pi], by quadrature.
LASSO_DENSITY = 0.6368335201743935
LASSO_TOL = 0.01          # acceptance-suite tolerance for the band route
MC_SIGMAS = 4.0           # torus estimates must lie within 4 SE
DIHEDRAL_ROUNDED = 0.43
CHECKPOINTS = 8
# A band scan over N bands differs from the torus volume by a finite-cutoff
# error.  With the generic lengths of GRAPHS it stayed below
# 0.2/sqrt(N) (ladder, 40 seeds at N = 300); the cross-route check on
# cell files allows ROUTE_SLACK/sqrt(N) on top of MC_SIGMAS torus
# standard errors.
ROUTE_SLACK = 2.0


def edge(i, tail, head, length, flux=None):
    e = {"id": i, "from": tail, "to": head, "length": float(length)}
    if flux is not None:
        e["flux"] = flux
    return e


def lasso(l):
    """Loop with flux 1 plus a pendant edge, pre-reduced (E = 2)."""
    return {"name": "lasso", "generators": 1, "vertices": [0, 1],
            "edges": [edge(1, 0, 0, l[0], [1]), edge(2, 1, 0, l[1], [0])]}


def fig1d(l):
    """Loop with a triangle decoration on a connector edge, pre-reduced
    (the loop split at a marker vertex, E = 6); lasso class."""
    return {"name": "fig1d", "generators": 1, "vertices": [0, 2, 3, 4, 5],
            "edges": [edge(1, 0, 5, l[0], [1]), edge(2, 2, 0, l[1], [0]),
                      edge(3, 2, 3, l[2], [0]), edge(4, 3, 4, l[3], [0]),
                      edge(5, 4, 2, l[4], [0]), edge(6, 5, 0, l[5], [0])]}


def ladder(l):
    """Ladder rung cell: two rails glued by one generator (J = 1, flux
    weight m = 2 after reduction, E = 5)."""
    return {"name": "ladder", "generators": 1, "vertices": [0, 1, 2, 3],
            "edges": [edge(1, 0, 1, l[0]), edge(2, 0, 2, l[1]),
                      edge(3, 1, 3, l[2])],
            "identifications": [{"generator": 1, "plus": 2, "minus": 0},
                                {"generator": 1, "plus": 3, "minus": 1}]}


def flower(l):
    """Flower with pendant cell: two generator loops at one vertex plus a
    pendant edge (J = 2, E = 5 after reduction)."""
    return {"name": "flower", "generators": 2, "vertices": [0, 1, 2, 3],
            "edges": [edge(1, 0, 1, l[0]), edge(2, 0, 2, l[1]),
                      edge(3, 0, 3, l[2])],
            "identifications": [{"generator": 1, "plus": 1, "minus": 0},
                                {"generator": 2, "plus": 2, "minus": 0}]}


# Graph -> (payload function, base lengths).  Bases are 1 + frac(sqrt(p)) for
# primes p: far from any low-order rational relation, where the density
# at a finite cutoff stays near its limit.  Uniform draws from [1, 2] come
# close to such relations now and then (equal ladder rails, l2 = 2 l1 on
# the lasso), and the density at the workload cutoffs is then off its
# limit by up to 0.2 though the program is right, so the checks would
# fail by chance.
GRAPHS = {
    "lasso": (lasso, (2, 3)),
    "fig1d": (fig1d, (5, 7, 11, 13, 17, 19)),
    "ladder": (ladder, (2, 3, 5)),
    "flower": (flower, (2, 3, 5)),
}
JITTER = 0.003            # seeded relative spread around the base lengths


def lengths(graph, rng):
    primes = GRAPHS[graph][1]
    base = np.array([1.0 + math.sqrt(p) % 1.0 for p in primes])
    return base * (1.0 + JITTER * rng.uniform(-1.0, 1.0, len(base)))


def total_length(payload):
    return sum(e["length"] for e in payload["edges"])


@dataclass(frozen=True)
class Op:
    """One CLI invocation plus what its output must satisfy."""

    command: str              # CLI subcommand; also names the op's span
    argv: list                # arguments after the subcommand
    check: Callable           # check(output file text, stdout) -> error or None
    label: str


# Per workload, its command list as (command, graph, size, tiny size).  A
# size is a band count for density and a sample count for torus and
# dihedral; tiny sizes are for the warm-up and the smoke test.
WORKLOADS = {
    "scan": [("density", "lasso", 2_000, 300),
             ("density", "fig1d", 600, 300)],
    "torus": [("torus", "lasso", 60_000, 20_000),
              ("torus", "fig1d", 10_000, 5_000),
              ("dihedral", None, 2_000_000, 200_000)],
    "cells": [("validate", "ladder", None, None),
              ("density", "ladder", 300, 40),
              ("torus", "ladder", 5_000, 2_000),
              ("validate", "flower", None, None),
              ("density", "flower", 24, 10),
              ("torus", "flower", 250, 100)],
}

LASSO_CLASS = ("lasso", "fig1d")


def write_inputs(workload, seed, directory):
    """Write the workload's graph files; returns {graph: (path, payload)}."""
    files = {}
    graphs = dict.fromkeys(g for _, g, _, _ in WORKLOADS[workload] if g)
    for i, name in enumerate(graphs):
        payload = GRAPHS[name][0](lengths(name, np.random.default_rng([seed, i])))
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        files[name] = (path, payload)
    return files


def _csv(text, width):
    rows = []
    for line in text.strip().splitlines():
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError("expected %d CSV fields, got %r" % (width, line))
        rows.append([float(c) for c in cells])
    if not rows:
        raise ValueError("empty output")
    if not all(math.isfinite(x) for r in rows for x in r):
        raise ValueError("non-finite value in output")
    return rows


class Checker:
    """Output checks; keeps the values the cross-op checks need."""

    def __init__(self, lasso_density=LASSO_DENSITY):
        self.lasso_density = lasso_density
        self.density = {}        # graph -> (final band density, bands)
        self.torus = {}          # graph -> (value, standard error)
        self.abs_err = []        # |density - reference| on lasso-class graphs

    def density_check(self, graph, k_max, bands):
        def check(text, _stdout):
            rows = _csv(text, 2)
            ks = [r[0] for r in rows]
            vals = [r[1] for r in rows]
            if len(rows) != CHECKPOINTS:
                return "expected %d checkpoints, got %d" % (CHECKPOINTS, len(rows))
            if any(b <= a for a, b in zip(ks, ks[1:])) or ks[-1] != k_max:
                return "cutoffs not increasing up to k_max"
            if not all(0.0 < v <= 1.0 for v in vals):
                return "density outside (0, 1]"
            self.density[graph] = (vals[-1], bands)
            if graph in LASSO_CLASS:
                err = abs(vals[-1] - self.lasso_density)
                self.abs_err.append(err)
                if err > LASSO_TOL:
                    return "density %.6f off the reference by %.2e" % (vals[-1], err)
            return self._agreement(graph)
        return check

    def torus_check(self, graph, samples, seed):
        def check(text, _stdout):
            (value, se, n, s), = _csv(text, 4)
            if n != samples or s != seed:
                return "samples/seed echo %r/%r" % (n, s)
            if not 0.0 < value <= 1.0:
                return "volume %r outside (0, 1]" % value
            want_se = math.sqrt(value * (1.0 - value) / samples)
            if abs(se - want_se) > 1e-9 * max(want_se, 1e-300):
                return "standard error %r, expected %r" % (se, want_se)
            self.torus[graph] = (value, want_se)
            if graph in LASSO_CLASS:
                ref_se = math.sqrt(self.lasso_density
                                   * (1.0 - self.lasso_density) / samples)
                if abs(value - self.lasso_density) > MC_SIGMAS * ref_se:
                    return "torus %.6f more than %g SE off the reference" % (
                        value, MC_SIGMAS)
            return self._agreement(graph)
        return check

    def _agreement(self, graph):
        """Density and torus routes agree on a cell file once both ran."""
        if graph in LASSO_CLASS or graph not in self.density \
                or graph not in self.torus:
            return None
        (density, bands), (value, se) = self.density[graph], self.torus[graph]
        tol = MC_SIGMAS * se + ROUTE_SLACK / math.sqrt(bands)
        if abs(density - value) > tol:
            return "density %.5f vs torus %.5f differ by more than %.2e" % (
                density, value, tol)
        return None

    @staticmethod
    def dihedral_check(text, _stdout):
        (value, _), = _csv(text, 2)
        if round(value, 2) != DIHEDRAL_ROUNDED:
            return "dihedral %.6f does not round to %.2f" % (value, DIHEDRAL_ROUNDED)
        return None

    @staticmethod
    def validate_check(_text, stdout):
        if not stdout.startswith("OK: cell with"):
            return "validate printed %r" % stdout[:80]
        return None


def build_ops(workload, seed, files, out_path, checker, tiny=False):
    """The workload's command list for one pass."""
    ops = []
    for command, graph, size, tiny_size in WORKLOADS[workload]:
        if tiny:
            size = tiny_size
        path = files[graph][0] if graph else None
        if command == "validate":
            ops.append(Op("validate", [path], checker.validate_check,
                          "validate " + graph))
        elif command == "density":
            k_max = size * math.pi / total_length(files[graph][1])
            argv = [path, "--kmax", repr(k_max), "--checkpoints",
                    str(CHECKPOINTS), "-o", out_path]
            ops.append(Op("density", argv,
                          checker.density_check(graph, k_max, size),
                          "density " + graph))
        elif command == "torus":
            argv = [path, "--samples", str(size), "--seed", str(seed),
                    "-o", out_path]
            ops.append(Op("torus", argv,
                          checker.torus_check(graph, size, seed),
                          "torus " + graph))
        else:
            argv = ["dihedral", "--samples", str(size), "--seed", str(seed),
                    "-o", out_path]
            ops.append(Op("reference", argv, checker.dihedral_check,
                          "reference dihedral"))
    return ops

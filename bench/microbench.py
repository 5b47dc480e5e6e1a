"""Layer microbenchmarks on fixed batches, run in the traced pass.

``secular.dets_per_s.b<2E>`` is the determinant throughput of
``secular.secular_values`` on 2E x 2E bond matrices, with the 8
quasi-momentum samples a one-generator membership test uses.  The two
``threads2_speedup`` figures are single-thread time over ``threads=2``
time for the same call.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import edge, fig1d, lasso, lengths

ROWS = 4096               # rows per throughput batch
THREAD_ROWS = 8192        # b12 rows for the thread comparison: several chunks
ALPHAS = 2.0 * np.pi * np.arange(8) / 8
MC_SAMPLES = 65_536


def _fig1b(l):
    """Loop split at a marker vertex plus a pendant edge (E = 3)."""
    return {"generators": 1, "vertices": [0, 1, 2],
            "edges": [edge(1, 0, 2, l[0], [1]), edge(2, 1, 0, l[1], [0]),
                      edge(3, 2, 0, l[2], [0])]}


def _median_time(fn, repeats=3):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(gb):
    """Microbenchmark metrics; ``gb`` is the imported graphbands package."""
    from graphbands.secular import secular_values

    rng = np.random.default_rng(0)
    systems = {}
    # _fig1b takes any three generic lengths; the ladder's serve
    for bonds, build, graph in ((4, lasso, "lasso"), (6, _fig1b, "ladder"),
                                (12, fig1d, "fig1d")):
        payload = build(lengths(graph, rng))
        systems[bonds] = gb.bond_matrices(gb.from_payload(payload))
    phases = {b: rng.uniform(0.0, 2.0 * np.pi, (ROWS, b)) for b in systems}

    out = {}
    for b, bs in systems.items():
        t = _median_time(lambda: secular_values(bs, phases[b], ALPHAS))
        out["secular.dets_per_s.b%d" % b] = ROWS * len(ALPHAS) / t
    bs12, tall = systems[12], rng.uniform(0.0, 2.0 * np.pi, (THREAD_ROWS, 12))
    one = _median_time(lambda: secular_values(bs12, tall, ALPHAS), 2)
    two = _median_time(lambda: secular_values(bs12, tall, ALPHAS, threads=2), 2)
    out["secular.threads2_speedup.b12"] = one / two

    lasso_bs = systems[4]
    one = _median_time(lambda: gb.mc_volume(lasso_bs, MC_SAMPLES, 0), 2)
    two = _median_time(lambda: gb.mc_volume(lasso_bs, MC_SAMPLES, 0, threads=2), 2)
    out["torus.threads2_speedup"] = one / two
    return out

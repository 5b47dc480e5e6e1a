"""
Band density convergence
========================

The fraction of the momentum axis covered by spectral bands settles to a
limit as the truncation K grows.  For the loop-with-pendant graph that
limit is known in closed form, so we can watch the scan converge to it.
"""

import numpy as np

import graphbands as gb

ref = gb.lasso_reference_density()
print("closed-form reference density: %.10f" % ref.value)
print()

g = gb.with_random_lengths(gb.build_example("lasso"), seed=8)
bs = gb.bond_matrices(g)
print("edge lengths:", np.round(g.lengths, 4), " total", round(bs.total_length, 4))
print()

series = gb.density(bs, k_max=3000.0, checkpoints=12)
print("%10s  %10s  %9s" % ("K", "density", "error"))
for K, val in zip(series.cutoffs, series.values):
    print("%10.1f  %10.6f  %9.2e" % (K, val, abs(val - ref.value)))

print()
print("bands found: %d, spectral measure %.2f"
      % (len(series.bands.lo), series.bands.total_measure))
print("final density %.6f vs reference %.6f" % (series.final, ref.value))

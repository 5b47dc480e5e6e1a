"""
Two routes to the same number
=============================

The band density can be measured directly, by scanning momenta and
adding up band lengths, or statistically, by sampling the torus of edge
phases and counting how often the secular equation is solvable.  The
two computations share nothing but the scattering matrix, yet for
generic (rationally independent) edge lengths the linear flow
equidistributes and both must converge to the same value.
"""

import numpy as np

import graphbands as gb

g = gb.with_random_lengths(gb.build_example("lasso"), seed=21)
bs = gb.bond_matrices(g)
print("graph: loop + pendant, lengths", np.round(g.lengths, 4))

print()

# a random draw admits no integer relations among the lengths with
# probability one; the torus route below relies on that (compare: equal
# lengths would carry the relation (1, -1) and the flow would fill only
# a subtorus)
series = gb.density(bs, k_max=4000.0, checkpoints=1)
print("direct band measurement:   %.6f  (%d bands below K=4000)"
      % (series.final, len(series.bands.lo)))

est = gb.mc_volume(bs, samples=400_000, seed=9)
print("torus Monte Carlo volume:  %.6f  +- %.6f" % (est.value, est.std_error))

gap = abs(series.final - est.value)
print()
print("difference %.6f (%.1f standard errors)" % (gap, gap / est.std_error))

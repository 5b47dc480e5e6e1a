"""
The momentum axis winds around a torus
======================================

Momentum k enters the secular equation only through the edge phases
k * l_e modulo 2 pi, so the half-line [0, inf) is wound onto a torus
with one angle per edge.  Membership of k in the spectrum depends on
the winding image alone, and band density turns into the volume of a
fixed region of the torus.
"""

import numpy as np

import graphbands as gb

g = gb.with_random_lengths(gb.build_example("lasso"), seed=2)
bs = gb.bond_matrices(g)

# follow the flow for a handful of momenta: membership at the phases k * l
# (direct) and at their image on the torus (lifted) agree
print("%8s  %22s  %8s  %8s" % ("k", "torus point", "direct", "lifted"))
rng = np.random.default_rng(0)
for k in np.sort(rng.uniform(0.0, 40.0, 10)):
    phases = k * g.lengths
    kappa = np.mod(phases, 2 * np.pi)
    direct = gb.membership_from_phases(bs, phases[None, :])[0]
    lifted = gb.membership_from_phases(bs, kappa[None, :])[0]
    print("%8.4f  (%8.4f, %8.4f)  %8s  %8s"
          % (k, kappa[0], kappa[1], direct, lifted))

# uniform sampling of the torus measures the same region
print()
for n in (10_000, 100_000, 1_000_000):
    est = gb.mc_volume(bs, samples=n, seed=123)
    print("volume from %8d samples: %.5f +- %.5f"
          % (n, est.value, est.std_error))

print()
print("compare the closed-form value %.5f" % gb.lasso_reference_density().value)

"""
Decorating the graph leaves the band density alone
==================================================

Subdividing the pendant edge, adding interior vertices, or hanging a
triangle on the end changes the spectrum in detail, but the fraction of
the momentum axis covered by bands converges to the same universal
value: it depends only on which graph the decoration was attached to.
"""

import numpy as np

import graphbands as gb

ref = gb.lasso_reference_density().value
print("plain loop + pendant reference: %.6f\n" % ref)

K = 1500.0
print("%14s  %7s  %9s  %10s  %9s" % ("graph", "edges", "measure", "density", "error"))
for name, seed in (("lasso", 11), ("fig1b", 12), ("fig1c", 13), ("fig1d", 14)):
    g = gb.with_random_lengths(gb.build_example(name), seed)
    bs = gb.bond_matrices(g)
    bands = gb.band_intervals(bs, K)
    dens = bands.coverage
    print("%14s  %7d  %9.2f  %10.6f  %9.2e"
          % (name, bs.n_edges, bands.total_measure, dens, abs(dens - ref)))

# the mechanism: a decoration hung at a single vertex acts on the rest
# of the graph through a momentum-dependent reflection factor of
# modulus one, so it shifts band edges without changing their share
print()
l3 = 0.6
pendant = gb.MagneticGraph(vertices=(0, 1), edges=(gb.Edge(1, 0, 1, l3),),
                           generators=0)
ks = np.array([0.7, 1.9, 3.1])
for k, theta in zip(ks, gb.effective_reflection(pendant, 0, ks)):
    print("k=%.1f  reflection %.4f%+.4fi  |theta|=%.12f  exp(2ikl)=%.4f%+.4fi"
          % (k, theta.real, theta.imag, abs(theta),
             np.exp(2j * k * l3).real, np.exp(2j * k * l3).imag))

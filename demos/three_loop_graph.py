"""
A second universal constant
===========================

The theta graph, two vertices joined by three parallel edges with
fluxes (0, 1, 1), gives a genuinely different periodic graph, and a
different band density.  The value is a torus volume: for fixed phases
of two edges, the phases of the third edge where the secular equation
has a real quasi-momentum form arcs of closed-form length.  In the frame
a = (k2 + k3)/2, b = (k3 - k2)/2 that length is one arctangent, and its
mean is a double integral over [0, pi/2]^2 that tanh-sinh quadrature
takes to about 1e-16.  Each row is one step h of the quadrature; the
last column is the step-halving difference |I_h - I_2h|.
"""

import graphbands as gb
from graphbands.reference_models import DIHEDRAL_GRIDS

print("%6s  %8s  %20s  %10s" % ("h", "points", "density", "|I_h - I_2h|"))
for k, n in enumerate(DIHEDRAL_GRIDS, 1):
    ref = gb.dihedral_density(n * n)
    print("%6s  %8d  %20.17f  %10.1e" % ("1/%d" % 2 ** k, n * n, ref.value,
                                         ref.error_bound))

print()
print("the value rounds to 0.43, well separated from the 0.64 of the")
print("loop-with-pendant family: band density distinguishes topologies")

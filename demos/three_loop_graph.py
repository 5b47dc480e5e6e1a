"""
A second universal constant
===========================

Three loops joined at a single vertex give a genuinely different
periodic graph, and a different band density.  The value is a torus
volume: for fixed phases of two loops, the phases of the third loop
where the secular equation has a real quasi-momentum form arcs of
closed-form length, and that length is averaged over randomly shifted
grids of the other two phases.  The error column is the standard error
of the 16 grid means.
"""

import graphbands as gb

print("%10s  %10s  %10s" % ("samples", "density", "grid SE"))
for n in (10_000, 100_000, 1_000_000, 4_000_000):
    ref = gb.dihedral_density(n, seed=1)
    print("%10d  %10.6f  %10.6f" % (n, ref.value, ref.error_bound))

print()
print("the value rounds to 0.43, well separated from the 0.64 of the")
print("loop-with-pendant family: band density distinguishes topologies")

"""
From a drawing of one period to its band structure
==================================================

A periodic network is described by a single fundamental cell: finite
vertices and edges, plus identifications saying which boundary vertex
is glued to which translate.  Reduction turns each identification into
a closed edge carrying a quasi-momentum phase, after which the whole
machinery (bands, densities, torus volumes) applies.
"""

import pathlib

import graphbands as gb

path = pathlib.Path(__file__).parent / "graphs" / "ladder_cell.json"
cell = gb.load_graph(path)
print("loaded cell %r: %d vertices, %d edges, %d identification(s)"
      % (cell.name, len(cell.vertices), len(cell.edges),
         len(cell.identifications)))

problems = gb.validate_cell(cell)
print("validation:", problems if problems else "ok")

g = gb.bloch_reduce(cell)
print()
print("reduced graph: %d vertices, %d edges, flux per edge:" %
      (len(g.vertices), len(g.edges)))
for e in g.edges:
    print("   edge %d: %d -> %d, length %.3f, flux %s"
          % (e.id, e.tail, e.head, e.length, list(e.flux)))

bs = gb.bond_matrices(g)
bands = gb.band_intervals(bs, 60.0)
print()
print("first bands:")
for lo, hi in zip(bands.lo[:6], bands.hi[:6]):
    print("   [%.4f, %.4f]" % (lo, hi))
print("density below K=60: %.4f" % bands.coverage)

# the same steps drive the command line tool:
#    graphbands validate demos/graphs/ladder_cell.json
#    graphbands bands demos/graphs/ladder_cell.json --kmax 60
#    graphbands density demos/graphs/ladder_cell.json --kmax 2000

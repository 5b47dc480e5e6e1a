"""Band structure and band density of periodic quantum graphs.

Workflow: describe one translational cell of the periodic graph (or a
pre-reduced magnetic graph), reduce it with :func:`bloch_reduce`, merge
its degree-2 vertices (:func:`merge_series`; :func:`core_shape` also cuts
flux-free parts at one vertex for the torus route), build the bond
scattering system, and then either scan momentum bands directly
or sample the band set on the torus of edge phases.  For generic edge
lengths both routes estimate the same length-independent band density.
"""

from .graph_model import (Edge, EXAMPLE_NAMES, FundamentalCell, GraphError,
                          Identification, MagneticGraph, bind_lengths,
                          bloch_reduce, build_example, core_shape,
                          from_payload, load_graph, merge_series, save_graph,
                          validate_cell, with_random_lengths)
from .bond_system import BondSystem, bond_matrices
from .secular import secular_values
from .spectrum import (BandList, DensitySeries, band_intervals, density,
                       membership_from_phases)
from .torus import VolumeEstimate, mc_volume
from .reference_models import (InteriorResonanceError, ReferenceValue,
                               dihedral_density, effective_reflection,
                               lasso_reference_density)

__version__ = "0.1.0"

__all__ = [
    "BandList", "BondSystem", "DensitySeries", "EXAMPLE_NAMES",
    "Edge", "FundamentalCell", "GraphError", "Identification",
    "InteriorResonanceError", "MagneticGraph", "ReferenceValue",
    "VolumeEstimate", "band_intervals", "bind_lengths", "bloch_reduce",
    "bond_matrices", "build_example", "core_shape", "density",
    "dihedral_density", "effective_reflection", "from_payload",
    "lasso_reference_density", "load_graph", "mc_volume", "merge_series",
    "membership_from_phases", "save_graph", "secular_values",
    "validate_cell", "with_random_lengths",
]

"""Directed-bond scattering description of a magnetic graph.

Every edge is doubled into a forward and a reverse bond: bond b < E runs
along edge b, bond b + E is its reversal, and rev(b) = (b + E) mod 2E.
Standard (Kirchhoff) vertex matching makes a wave arriving at a vertex
of degree d scatter into every outgoing bond with amplitude 2/d, and
back into its own reversal with 2/d - 1 (Kottos and Smilansky, Ann.
Phys. 274, 1999).  With into[b] and out[b] the vertices where bond b
arrives and leaves, and d[b] the number of bonds arriving at into[b]
(a self-loop's two bonds both count), that is

    S[b', b] = 2/d[b] [out[b'] = into[b]] - [b' = rev(b)].

S is real orthogonal and, together with the bond lengths and fluxes,
fully determines the graph spectrum.  Its determinant is topological,
det S = (-1)^(E - V) = (-1)^(beta - 1) with beta = E - V + 1 the cycle
rank (Berkolaiko and Kuchment, Introduction to Quantum Graphs, 2013).
Let R be the reversal permutation b <-> rev(b), a product of E
transpositions, so det R = (-1)^E.  T = R S is block-diagonal over the
arrival vertices, and the block of a vertex of degree d is (2/d) J - I
(J the all-ones d x d matrix): symmetric and squaring to I, so
orthogonal, with eigenvalue 1 once and -1 d - 1 times.  Hence S = R T is
orthogonal, and with sum d_v = 2E,

    det S = (-1)^E prod_v (-1)^(d_v - 1) = (-1)^(3E - V) = (-1)^(E - V).

The count needs d_v >= 1 at every vertex, which holds on every graph
:func:`bond_matrices` accepts: it is connected and has an edge.  The
lasso (beta = 1) has det S = +1; the merged fig1d, the ladder and the
flower cell (beta = 2) have det S = -1.  ``BondSystem.parity`` is this
sign, read from the edge and vertex counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph_model import GraphError, MagneticGraph


@dataclass(frozen=True)
class BondSystem:
    """Bond-level data of a magnetic graph.

    Bonds are indexed 0..2E-1: bond b < E runs along edge b in its stored
    direction, bond b + E is its reversal.  ``scattering`` is the real
    orthogonal 2E x 2E bond scattering matrix; ``bond_lengths`` and
    ``bond_flux`` repeat the edge data on both bond copies, with flux
    negated on reversals, one column per generator.  ``parity`` is det S
    = (-1)^(E - V), +1 or -1.
    """

    scattering: np.ndarray
    bond_lengths: np.ndarray
    bond_flux: np.ndarray
    parity: int

    @property
    def generators(self) -> int:
        return self.bond_flux.shape[1]

    @property
    def n_bonds(self) -> int:
        return self.scattering.shape[0]

    @property
    def n_edges(self) -> int:
        return self.n_bonds // 2

    @property
    def edge_of_bond(self) -> np.ndarray:
        """Map bond index -> index of the underlying edge."""
        e = np.arange(self.n_edges)
        return np.concatenate([e, e])

    @property
    def total_length(self) -> float:
        return float(self.bond_lengths[:self.n_edges].sum())

    @property
    def flux_weight(self) -> tuple[int, ...]:
        """Per generator, the edge-summed |flux|: a bound on the degree of
        the secular function in that quasi-momentum.  It sizes the grid
        that compiles the real secular function."""
        weights = np.abs(self.bond_flux[:self.n_edges]).sum(axis=0)
        return tuple(int(w) for w in np.rint(weights))

    @cached_property
    def secular_polynomial(self):
        """The real secular function compiled to its coefficients along
        the main generator (:class:`graphbands.spectrum.SecularPolynomial`);
        a :class:`GraphError` when its compile grid has more points, or its
        alpha-series more entries, than ``spectrum.COMPILE_BUDGET``.
        Compiled on first use and kept with the system."""
        from .spectrum import compile_secular   # spectrum imports this module
        return compile_secular(self)


def bond_matrices(g: MagneticGraph) -> BondSystem:
    """Assemble the bond scattering system of a bound magnetic graph.

    Self-loops are supported: a loop contributes two bonds at its vertex
    and counts twice toward the degree, and its two bonds back-scatter
    into each other's reversals like any other pair.  Raises
    :class:`GraphError` on a graph with no edges and on unbound length
    slots.
    """
    E = g.edge_count
    if E == 0:
        raise GraphError("graph has no edges")
    lengths = g.lengths
    n = 2 * E

    tail = np.array([e.tail for e in g.edges])
    head = np.array([e.head for e in g.edges])
    into = np.concatenate([head, tail])
    out = np.concatenate([tail, head])
    d = (into[:, None] == into).sum(axis=0)
    S = np.where(out[:, None] == into, 2.0 / d, 0.0)
    b = np.arange(n)
    S[(b + E) % n, b] -= 1.0

    flux = np.array([e.flux for e in g.edges], dtype=float)
    flux = flux.reshape(E, g.generators)
    return BondSystem(
        scattering=S,
        bond_lengths=np.concatenate([lengths, lengths]),
        bond_flux=np.vstack([flux, -flux]),
        parity=-1 if (E - len(g.vertices)) % 2 else 1,
    )


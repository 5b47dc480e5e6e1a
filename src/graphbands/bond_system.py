"""Directed-bond scattering description of a magnetic graph.

Every edge is doubled into a forward and a reverse bond.  Standard
(Kirchhoff) vertex matching makes a wave arriving at a vertex of degree d
back-scatter with amplitude -1 + 2/d and scatter into every other
outgoing bond with amplitude 2/d.  The resulting bond scattering matrix
is real orthogonal and, together with the bond lengths and fluxes, fully
determines the graph spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph_model import GraphError, MagneticGraph

ORTHOGONALITY_TOL = 1e-12


def vertex_scattering(degree: int) -> tuple[float, float]:
    """Back-scattering and transmission amplitudes at a degree-d vertex.

    Returns ``(-1 + 2/d, 2/d)``.  A pendant vertex (d = 1) reflects with
    amplitude +1; large degrees approach total reflection with amplitude
    -1.
    """
    if not isinstance(degree, (int, np.integer)) or degree < 1:
        raise ValueError("vertex degree must be a positive integer, got %r"
                         % (degree,))
    return -1.0 + 2.0 / degree, 2.0 / degree


@dataclass(frozen=True)
class BondSystem:
    """Bond-level data of a magnetic graph.

    Bonds are indexed 0..2E-1: bond b < E runs along edge b in its stored
    direction, bond b + E is its reversal.  ``scattering`` is the real
    orthogonal 2E x 2E bond scattering matrix; ``bond_lengths`` and
    ``bond_flux`` repeat the edge data on both bond copies, with flux
    negated on reversals.  ``parity`` is det S, +1 or -1.
    """

    scattering: np.ndarray
    bond_lengths: np.ndarray
    bond_flux: np.ndarray
    edge_ids: tuple[int, ...]
    generators: int
    parity: int

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
    :class:`GraphError` on unbound length slots.
    """
    lengths = g.lengths
    E = g.edge_count
    n = 2 * E

    tails = np.empty(n, dtype=object)
    heads = np.empty(n, dtype=object)
    for i, e in enumerate(g.edges):
        tails[i], heads[i] = e.tail, e.head
        tails[i + E], heads[i + E] = e.head, e.tail

    S = np.zeros((n, n))
    for v in g.vertices:
        incoming = [b for b in range(n) if heads[b] == v]
        outgoing = [b for b in range(n) if tails[b] == v]
        d = len(incoming)
        if d == 0:
            continue
        back, fwd = vertex_scattering(d)
        for b in incoming:
            rev = (b + E) % n
            for bp in outgoing:
                S[bp, b] = back if bp == rev else fwd

    # orthogonality is built into the construction; treat failure as a bug
    defect = np.abs(S.T @ S - np.eye(n)).max()
    if defect > ORTHOGONALITY_TOL:
        raise GraphError("scattering matrix failed orthogonality check "
                         "(defect %.3e)" % defect)
    # orthogonal, so |det S| = 1 and its sign is exact
    parity = 1 if np.linalg.det(S) > 0 else -1

    flux = np.array([e.flux for e in g.edges], dtype=float)
    flux = flux.reshape(E, g.generators)
    return BondSystem(
        scattering=S,
        bond_lengths=np.concatenate([lengths, lengths]),
        bond_flux=np.vstack([flux, -flux]),
        edge_ids=tuple(e.id for e in g.edges),
        generators=g.generators,
        parity=parity,
    )


"""Secular determinant of a magnetic graph: the determinant kernel.

The graph spectrum at quasi-momentum alpha is the zero set in k of

    F(k; alpha) = det(I - exp(i(A + k L)) S)

with A the diagonal of bond flux phases, L the diagonal of bond lengths
and S the bond scattering matrix.  The same determinant evaluated with
an arbitrary bond phase row p in place of kL gives the torus secular
function Phi(kappa; alpha) when p repeats the edge phases kappa on both
bonds of each edge; its zero set lifts the spectrum to the torus of
edge phases.

:func:`secular_values` is the one determinant kernel: it samples the
real secular function G on the grid that compiles it, and band scans,
the quasi-momentum sign test and Monte Carlo torus sampling all
evaluate that compiled form.  There is no scalar path; a single point
is a batch of one row.  G and its compiled form live in
:mod:`graphbands.spectrum`.
"""

from __future__ import annotations

import numpy as np

from .bond_system import BondSystem

# target number of scratch matrix entries per chunk of the batched kernel
_CHUNK_BUDGET = 4_000_000


def _secular_block(S, bond_phases, alpha_phases):
    """det(I - exp(i(p + a)) S) for rows p of bond_phases and rows a of
    alpha_phases; returns shape (n, NA)."""
    n2 = S.shape[0]
    expo = bond_phases[:, None, :] + alpha_phases[None, :, :]
    M = np.exp(1j * expo)[..., :, None] * S
    M *= -1.0
    idx = np.arange(n2)
    M[..., idx, idx] += 1.0
    return np.linalg.det(M)


def secular_values(bs: BondSystem, bond_phases, alphas=None,
                   threads: int | None = None) -> np.ndarray:
    """Batched secular determinants.

    Parameters
    ----------
    bond_phases : (n, 2E) array
        Flux-free diagonal phase exponents, one row per evaluation point
        (``k * bond_lengths`` for momentum scans, edge phases repeated
        on both bonds, ``kappa[:, bs.edge_of_bond]``, for torus points).
    alphas : (NA, J) array, optional
        Quasi-momentum rows; flux phases are added internally.  Defaults
        to the single row alpha = 0.  A 1-d array is a column of NA
        values when J = 1 and one row otherwise.
    threads : ignored
        Has no effect: rows are evaluated chunk by chunk, in order.

    Returns
    -------
    (n, NA) complex array of determinant values.
    """
    bond_phases = np.asarray(bond_phases, dtype=float)
    if bond_phases.ndim != 2 or bond_phases.shape[1] != bs.n_bonds:
        raise ValueError("bond_phases must have shape (n, %d)" % bs.n_bonds)
    if alphas is None:
        alphas = np.zeros((1, bs.generators))
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim == 1:
        alphas = alphas[:, None] if bs.generators == 1 else alphas[None, :]
    if alphas.shape[1] != bs.generators:
        raise ValueError("alphas must have shape (NA, %d)" % bs.generators)

    alpha_phases = alphas @ bs.bond_flux.T           # (NA, 2E)
    n = bond_phases.shape[0]
    per_point = alpha_phases.shape[0] * bs.n_bonds ** 2
    chunk = max(1, _CHUNK_BUDGET // max(per_point, 1))

    out = np.empty((n, alpha_phases.shape[0]), dtype=complex)
    for i in range(0, n, chunk):
        out[i:i + chunk] = _secular_block(bs.scattering,
                                          bond_phases[i:i + chunk],
                                          alpha_phases)
    return out

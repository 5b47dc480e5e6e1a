"""Closed-form reference models and decoration machinery.

Two small graphs admit pencil-and-paper band sets on the torus and serve
as ground truth for the numerical pipeline: the loop-with-pendant graph
(band density about 0.64, in closed form through Legendre's chi
function) and a dihedral-symmetric three-edge graph whose band density
(about 0.43) shows the universal constant is shape-dependent, not
literally universal.  The reflection coefficient of a pendant
decoration explains why whole families of graphs share one band set: a
decoration enters the secular equation only through a unimodular phase,
which a change of variables absorbs into one torus coordinate.

The reflection coefficient eliminates the interior bonds of the
:func:`bond_matrices` system of the decoration with its lead attached,
and the dihedral Monte Carlo runs on the torus sampling loop
:func:`torus.mc_fraction`.  The one piece of numerics of its own is the
dihedral indicator's float32 screen: a float32 margin decides the rows
far from the band edge, and the float64 inequality decides the rest, so
the answer is the float64 one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bond_system import bond_matrices
from .graph_model import Edge, GraphError, MagneticGraph
from .torus import TWO_PI, mc_fraction

UNITARITY_TOL = 1e-10
_RESONANCE_RTOL = 1e-10
# float32 margins beyond this decide dihedral membership by their sign;
# see dihedral_membership for the error budget it covers ten times over
_SCREEN = 1e-4


@dataclass(frozen=True)
class ReferenceValue:
    """Reference number with provenance and an error scale.

    ``error_bound`` is a rigorous bound for closed-form values and one
    standard error for Monte Carlo values; ``method`` says which.
    """

    value: float
    method: str
    error_bound: float


# ---------------------------------------------------------------------------
# loop with pendant
# ---------------------------------------------------------------------------

def phi_lasso(kappa1, kappa2, alpha):
    """Secular function of the loop-with-pendant graph on the torus,

        2 cos(kappa2) (cos(kappa1) - cos(alpha)) - sin(kappa1) sin(kappa2)

    with kappa1 the loop phase, kappa2 the pendant phase and alpha the
    quasi-momentum.  Zeros in alpha give the dispersion relation.
    """
    kappa1, kappa2, alpha = np.broadcast_arrays(
        np.asarray(kappa1, float), np.asarray(kappa2, float),
        np.asarray(alpha, float))
    out = (2.0 * np.cos(kappa2) * (np.cos(kappa1) - np.cos(alpha))
           - np.sin(kappa1) * np.sin(kappa2))
    return out if out.ndim else float(out)


def lasso_membership(kappa1, kappa2):
    """Band-set indicator of the loop-with-pendant graph on the torus.

    Solving phi = 0 for cos(alpha) gives a real quasi-momentum exactly
    when

        |2 cos(kappa2) cos(kappa1) - sin(kappa1) sin(kappa2)|
            <= |2 cos(kappa2)|.

    The inequality remains correct in the limit cos(kappa2) = 0, where
    membership degenerates to sin(kappa1) = 0.
    """
    kappa1 = np.asarray(kappa1, dtype=float)
    kappa2 = np.asarray(kappa2, dtype=float)
    lhs = np.abs(2.0 * np.cos(kappa2) * np.cos(kappa1)
                 - np.sin(kappa1) * np.sin(kappa2))
    inside = lhs <= np.abs(2.0 * np.cos(kappa2))
    return inside if inside.ndim else bool(inside)


def lasso_reference_density() -> ReferenceValue:
    """Band density of the loop-with-pendant graph in closed form.

    The torus volume of the band set is (2/pi^2) int_0^pi arctan(2
    cot(kappa/2)) dkappa = (4/pi^2) int_0^(pi/2) arctan(2 cot u) du.  On
    (0, pi/2), arctan(2 cot u) = pi/2 - arctan(tan(u)/2), and
    int_0^(pi/2) arctan(b tan u) du = int_0^b ln s / (s^2 - 1) ds =
    chi2(b) - ln(b) artanh(b) (differentiate in b), with Legendre's chi
    function chi2(x) = sum_k x^(2k+1) / (2k+1)^2.  So at b = 1/2

        p = 1 - (4/pi^2) (ln(2) ln(3) / 2 + chi2(1/2)).

    ``error_bound`` is the tail of the series after n = 24 terms times
    4/pi^2, plus 16 ulps for rounding (a worst-case count gives 5).
    """
    x, n = 0.5, 24
    k = np.arange(n)
    chi2 = np.sum(x ** (2 * k + 1) / (2 * k + 1) ** 2)
    tail = x ** (2 * n + 1) / ((2 * n + 1) ** 2 * (1.0 - x * x))
    scale = 4.0 / np.pi ** 2
    value = 1.0 - scale * (0.5 * np.log(2.0) * np.log(3.0) + chi2)
    return ReferenceValue(value=float(value), method="closed_form",
                          error_bound=scale * tail + 16 * 2.0 ** -52)


# ---------------------------------------------------------------------------
# dihedral three-edge graph
# ---------------------------------------------------------------------------

def dihedral_secular(kappa1, kappa2, kappa3, alpha):
    """Secular function of the dihedral three-edge periodic graph,

        sin(k1 + k2 + k3) - (1/2) sin(k1) sin(k2) sin(k3)
            - sin(k1) - cos(alpha) (sin(k2) + sin(k3)).
    """
    kappa1, kappa2, kappa3, alpha = np.broadcast_arrays(
        np.asarray(kappa1, float), np.asarray(kappa2, float),
        np.asarray(kappa3, float), np.asarray(alpha, float))
    s1, s2, s3 = np.sin(kappa1), np.sin(kappa2), np.sin(kappa3)
    out = (np.sin(kappa1 + kappa2 + kappa3) - 0.5 * s1 * s2 * s3
           - s1 - np.cos(alpha) * (s2 + s3))
    return out if out.ndim else float(out)


def _dihedral_margin(kappa1, kappa2, kappa3):
    """|sin k2 + sin k3| - |sin(k1+k2+k3) - (1/2) sin k1 sin k2 sin k3 - sin k1|
    in the dtype of the phases, each sine taken once.

    The operations run in the order (k1 + k2) + k3 and
    ((0.5 sin k1) sin k2) sin k3, so in float64 ``margin >= 0`` decides
    exactly as ``lhs <= |sin k2 + sin k3|`` does (a rounded difference is
    zero only for equal operands), NaN included.
    """
    s1, s2, s3 = np.sin(kappa1), np.sin(kappa2), np.sin(kappa3)
    return np.abs(s2 + s3) - np.abs(np.sin(kappa1 + kappa2 + kappa3)
                                    - 0.5 * s1 * s2 * s3 - s1)


def dihedral_membership(kappa1, kappa2, kappa3):
    """Band-set indicator of the dihedral graph: a real quasi-momentum
    solves the secular equation iff

        |sin(k1+k2+k3) - (1/2) sin k1 sin k2 sin k3 - sin k1|
            <= |sin k2 + sin k3|.

    The answer is that of the float64 inequality, bit for bit, but most
    rows are decided in float32: the margin (right side minus left side)
    is evaluated on float32 copies of the phases, and its sign decides
    every row where it exceeds ``_SCREEN`` in magnitude.  The float32
    error budget for phases with |k| <= 2 pi: rounding each phase costs
    <= 2 pi 2^-24 (3.7e-7), the sum of three adds <= 2 roundings at
    6 pi (1.9e-6), each sine is within a few ulp, and the margin's
    partial derivatives are <= 2.5, about 1e-5 in all, ten times below
    ``_SCREEN``.  The remaining rows (|margin| <= ``_SCREEN``, a margin
    that is not finite, or any |k| > 2 pi, where the budget does not
    hold) are evaluated again in float64 on the original phases.
    """
    k64 = np.broadcast_arrays(np.asarray(kappa1, dtype=float),
                              np.asarray(kappa2, dtype=float),
                              np.asarray(kappa3, dtype=float))
    m32 = _dihedral_margin(*(k.astype(np.float32) for k in k64))
    inside = np.asarray(m32 > 0)
    redo = ~(np.abs(m32) > _SCREEN)
    for k in k64:
        redo |= np.abs(k) > TWO_PI
    if redo.any():
        inside[redo] = _dihedral_margin(*(k[redo] for k in k64)) >= 0
    return inside if inside.ndim else bool(inside)


def dihedral_density(samples: int, seed: int) -> ReferenceValue:
    """Monte Carlo band density of the dihedral graph.

    Uniform torus sampling of the closed-form indicator by
    :func:`torus.mc_fraction`, so the value is a pure function of
    (samples, seed).
    """
    def member(kappa):
        return dihedral_membership(kappa[:, 0], kappa[:, 1], kappa[:, 2])

    p, se = mc_fraction(member, 3, samples, seed)
    return ReferenceValue(value=p, method="monte_carlo", error_bound=se)


# ---------------------------------------------------------------------------
# decorations
# ---------------------------------------------------------------------------

class InteriorResonanceError(ArithmeticError):
    """The decoration has an internal standing wave at this momentum, so
    its reflection coefficient is not defined."""


def effective_reflection(decoration: MagneticGraph, entry_vertex, k: float):
    """Reflection coefficient of a flux-free decoration seen from outside.

    The decoration hangs off the rest of the graph by a single edge
    arriving at ``entry_vertex``; a wave entering there returns with
    amplitude Theta(k) of modulus one.  In the secular equation the whole
    decoration can be replaced by this phase, so graphs differing by a
    decoration have band sets related by a shift of one torus coordinate;
    that is the mechanism behind their equal band densities.

    The entry vertex is treated with degree one higher than inside the
    decoration (the attachment edge counts).  Raises
    :class:`InteriorResonanceError` at momenta where the interior wave
    system is singular.
    """
    if entry_vertex not in decoration.vertices:
        raise GraphError("entry vertex %r not in decoration" % (entry_vertex,))
    if decoration.generators and any(any(e.flux) for e in decoration.edges):
        raise GraphError("decoration must be flux-free")
    E = decoration.edge_count
    if E == 0:
        return complex(1.0)
    if not decoration.is_bound:
        raise GraphError("decoration has unbound length slots")

    # the lead is one more edge into the entry vertex; its bonds are
    # E (arriving) and 2E + 1 (leaving), the others are the interior
    lead = Edge(max(e.id for e in decoration.edges) + 1,
                max(decoration.vertices) + 1, entry_vertex, 1.0,
                (0,) * decoration.generators)
    bs = bond_matrices(replace(decoration,
                               vertices=decoration.vertices + (lead.tail,),
                               edges=decoration.edges + (lead,)))
    arrive, leave = E, 2 * E + 1
    interior = np.r_[0:E, E + 1:2 * E + 1]
    S = bs.scattering[np.ix_(interior, interior)]
    source = bs.scattering[interior, arrive]

    phases = np.exp(1j * k * bs.bond_lengths[interior])
    M = np.eye(2 * E, dtype=complex) - S * phases[None, :]
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= _RESONANCE_RTOL * sv[0]:
        raise InteriorResonanceError(
            "decoration is resonant at k=%r (singular interior system)" % (k,))
    x = np.linalg.solve(M, source)

    theta = complex(bs.scattering[leave, arrive]
                    + bs.scattering[leave, interior] @ (phases * x))
    if abs(abs(theta) - 1.0) > UNITARITY_TOL:
        raise InteriorResonanceError(
            "reflection lost unitarity at k=%r (|Theta| = %.12f), "
            "momentum is too close to an interior resonance"
            % (k, abs(theta)))
    return theta

"""Closed-form reference models and decoration machinery.

Two small graphs admit pencil-and-paper band sets on the torus and serve
as ground truth for the numerical pipeline: the loop-with-pendant graph
(band density about 0.64, in closed form through Legendre's chi
function) and a dihedral-symmetric three-edge graph whose band density
(about 0.43) shows the universal constant is shape-dependent, not
literally universal.  The reflection coefficient of a pendant
decoration explains why whole families of graphs share one band
density: a flux-free decoration behind a bridge enters the secular
equation only through a unimodular phase exp(2i kappa_c) Theta, which
the shift of the bridge phase kappa_c absorbs on the torus.  That is
the mechanism :func:`graphbands.graph_model.core_shape` applies: it
cuts every such decoration back to a pendant edge, and the torus route
runs on the result.

The reflection coefficient is -B/A of the secular determinant A + B
exp(2ip) of the decoration closed by a lead of phase p.  The dihedral
density samples no indicator: along k1 its band set is a union of arcs
of exact length, and that length is averaged over randomly shifted
grids on (k2, k3).  On a grid the length is a function of one rank-5
matrix product (the squared amplitude R^2 of the left side, a sum of
five products of a function of k2 and a function of k3) and one arccos
per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bond_system import bond_matrices
from .graph_model import Edge, GraphError, MagneticGraph, _cycle_flux
from .secular import secular_values
from .torus import TWO_PI, sample_count

UNITARITY_TOL = 1e-10
_RESONANCE_TOL = 1e-6   # roundoff of F, relative to |A|, of a resonance
_SHIFTS = 16             # randomly shifted grids of the dihedral density
# points per block of grid rows: the kernel's two float64 buffers take 512
# KiB.  On a 2-core Xeon (2 MiB L2 per core) 2M- and 10M-point dihedral
# densities ran 10-20% slower with 16,384 (more blocks, each with a fixed
# cost), as fast with 49,152, and 1.7-1.9x slower with 65,536 or whole
# grids (1 MiB of buffers and more)
_BLOCK_ENTRIES = 32768


@dataclass(frozen=True)
class ReferenceValue:
    """Reference number with provenance and an error scale.

    ``error_bound`` is a rigorous bound for closed-form values and one
    standard error for randomized ones (``"shifted_grid"``); ``method``
    says which.
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


def dihedral_membership(kappa1, kappa2, kappa3):
    """Band-set indicator of the dihedral graph: a real quasi-momentum
    solves the secular equation iff (in float64; NaN phases are outside)

        |sin(k1+k2+k3) - (1/2) sin k1 sin k2 sin k3 - sin k1|
            <= |sin k2 + sin k3|.
    """
    k1, k2, k3 = (np.asarray(k, dtype=float) for k in (kappa1, kappa2, kappa3))
    s1, s2, s3 = np.sin(k1), np.sin(k2), np.sin(k3)
    lhs = np.abs(np.sin(k1 + k2 + k3) - 0.5 * s1 * s2 * s3 - s1)
    inside = lhs <= np.abs(s2 + s3)
    return inside if inside.ndim else bool(inside)


def _k1_measure(s2, c2, s3, c3):
    """pi times the share of k1 in [0, 2 pi) inside the dihedral band set,
    on the grid of k2 rows and k3 columns given by the 1-d sines and
    cosines ``s2, c2`` of the rows and ``s3, c3`` of the columns: a (rows
    x columns) array.  The division by pi is left to the caller, once per
    grid mean.

    With sigma = k2 + k3 and g = 1 + P/2, P = s2 s3, the left side of
    :func:`dihedral_membership` is (cos sigma - g) sin k1 + sin sigma cos
    k1 = R sin(k1 + phi) with R^2 = 1 + g (g - 2 cos sigma).  So the share
    is (2/pi) arcsin(min(1, |s2 + s3| / R)), which is one arccos,
    arccos(max(-1, 1 - x)) / pi with x = (s2 + s3)^2 / (R^2 / 2).  It is 1
    at R = 0, where the left side vanishes for every k1.

    With Q = c2 c3, cos sigma = Q - P, and expanding g gives

        R^2 / 2 = 1 + 1.5 P + 0.625 P^2 - Q - 0.5 P Q,

    a sum of five products of a function of k2 and a function of k3: the
    matrix product of the (rows x 5) factor [1, 1.5 s2, 0.625 s2^2, -c2,
    -0.5 s2 c2] and the (5 x columns) factor [1, s3, s3^2, c3, s3 c3].
    The outer sum s2 + s3 is the product of [s2, 1] and [1, s3]: products
    by 1 are exact, so each entry is s2 + s3 rounded once, as the sum
    itself (the expanded s2^2 + 2P + s3^2 would lose digits where s2 =
    -s3).  The rest is done in place.  Near R = 0 (k2 = k3 in {0, pi}) the
    roundoff of R^2 / 2 is about 1e-16 and can make it negative; it is
    clamped at 0, which gives the share 1 there, as at R = 0.  Near R = 0
    the share carries an error of about 1e-14 / R^2, as in any form that
    builds R^2 from terms of order 1.
    """
    one2, one3 = np.ones_like(s2), np.ones_like(s3)
    half_r2 = (np.array([one2, 1.5 * s2, 0.625 * s2 * s2, -c2,
                         -0.5 * s2 * c2]).T
               @ np.array([one3, s3, s3 * s3, c3, s3 * c3]))
    np.fmax(half_r2, 0.0, out=half_r2)
    x = np.array([s2, one2]).T @ np.array([one3, s3])
    np.multiply(x, x, out=x)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(x, half_r2, out=x)
    np.subtract(1.0, x, out=x)
    # fmax sends the -inf and NaN of R = 0 to -1 as well
    np.fmax(x, -1.0, out=x)
    return np.arccos(x, out=x)


def dihedral_density(samples: int, seed: int) -> ReferenceValue:
    """Band density of the dihedral graph: the share of :func:`_k1_measure`
    averaged over ``_SHIFTS`` grids of n x n points on (k2, k3), n =
    isqrt(samples // shifts), so at most ``samples`` points are evaluated.
    Each grid is moved by a uniform shift from a Philox stream
    (Cranley-Patterson rotation; Sloan-Joe, 1994), so its mean is
    unbiased; ``value`` is the mean of the grid means and ``error_bound``
    their standard error (inf for one grid).  The result depends only on
    (samples, seed).
    """
    samples = sample_count(samples)
    shifts = min(_SHIFTS, samples)
    n = math.isqrt(samples // shifts)
    rows = max(1, _BLOCK_ENTRIES // n)
    offsets = np.random.Generator(np.random.Philox(seed)).random((shifts, 2))
    means = np.empty(shifts)
    for j, (u2, u3) in enumerate(offsets):
        k2 = (np.arange(n) + u2) * (TWO_PI / n)
        k3 = (np.arange(n) + u3) * (TWO_PI / n)
        s2, c2 = np.sin(k2), np.cos(k2)
        s3, c3 = np.sin(k3), np.cos(k3)
        means[j] = sum(float(_k1_measure(s2[i:i + rows], c2[i:i + rows],
                                         s3, c3).sum())
                       for i in range(0, n, rows)) / (n * n * np.pi)
    se = means.std(ddof=1) / math.sqrt(shifts) if shifts > 1 else np.inf
    return ReferenceValue(value=float(means.mean()), method="shifted_grid",
                          error_bound=float(se))


# ---------------------------------------------------------------------------
# decorations
# ---------------------------------------------------------------------------

class InteriorResonanceError(ArithmeticError):
    """The decoration has an internal standing wave at this momentum, so
    its reflection coefficient is not defined."""


def effective_reflection(decoration: MagneticGraph, entry_vertex, k):
    """Reflection coefficient Theta(k) of a flux-free decoration seen from
    outside, for a real momentum ``k`` (returns a complex) or an array of
    them (returns a complex array of the same shape).

    The decoration hangs off the rest of the graph by a single edge
    arriving at ``entry_vertex``; a wave entering there returns with
    amplitude Theta(k) of modulus one, and that phase replaces the
    decoration in the secular equation, as in
    :func:`graphbands.graph_model.core_shape`.  Flux-free means, as
    there, that every cycle carries zero net flux.

    Closed by a lead of phase p at a new leaf, the decoration has the
    secular determinant F(p) = A + B exp(2ip) = A (1 - Theta exp(2ip)),
    A the interior determinant: the leaf reflects with +1, and a closed
    orbit uses both lead bonds or neither.  One batched
    :func:`graphbands.secular.secular_values` pass at p = 0 and pi/2
    gives A and Theta; a third row, at p = pi/4, where F = A + iB, leaves
    the roundoff r of F.  At distance d from an interior resonance of any
    multiplicity |r|/|A| grows like eps/d, so
    :class:`InteriorResonanceError` names the first momentum where |r| >
    _RESONANCE_TOL |A| (within about 1e-10 of the unit triangle's
    resonances) or ||Theta| - 1| > UNITARITY_TOL.
    """
    ks = np.asarray(k, dtype=float)
    if not np.isfinite(ks).all():
        raise ValueError("k must be finite")
    if entry_vertex not in decoration.vertices:
        raise GraphError("entry vertex %r not in decoration" % (entry_vertex,))
    if any(map(any, _cycle_flux(decoration.vertices, decoration.edges,
                                decoration.generators))):
        raise GraphError("decoration must be flux-free")
    lead = Edge(max((e.id for e in decoration.edges), default=0) + 1,
                max(decoration.vertices) + 1, entry_vertex, 1.0,
                (0,) * decoration.generators)
    bs = bond_matrices(replace(decoration,
                               vertices=decoration.vertices + (lead.tail,),
                               edges=decoration.edges + (lead,)))
    lead_bonds = [bs.n_edges - 1, bs.n_bonds - 1]     # the last edge's
    rows = np.repeat(ks.reshape(-1, 1) * bs.bond_lengths, 3, axis=0)
    for j, p in enumerate((0.0, np.pi / 2, np.pi / 4)):
        rows[j::3, lead_bonds] = p
    F = secular_values(bs, rows)[:, 0].reshape(-1, 3)
    A, B = (F[:, 0] + F[:, 1]) / 2, (F[:, 0] - F[:, 1]) / 2
    roundoff = np.abs(F[:, 2] - A - 1j * B)
    with np.errstate(invalid="ignore", divide="ignore"):
        theta = -B / A                  # A = 0 gives NaN, a resonance
    bad = ~((roundoff <= _RESONANCE_TOL * np.abs(A))        # NaN is bad
            & (np.abs(np.abs(theta) - 1.0) <= UNITARITY_TOL))
    if bad.any():
        i = np.argmax(bad)
        raise InteriorResonanceError(
            "decoration is resonant at k=%r (|A| = %.3e, roundoff %.3e, "
            "|Theta| = %.12f)" % (float(ks.flat[i]), abs(A[i]), roundoff[i],
                                  abs(theta[i])))
    theta = theta.reshape(ks.shape)
    return theta if theta.ndim else complex(theta)

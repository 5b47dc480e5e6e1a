"""Closed-form reference models and decoration machinery.

Two small graphs admit pencil-and-paper band sets on the torus and serve
as ground truth for the numerical pipeline: the loop-with-pendant graph
(band density about 0.64, in closed form through Legendre's chi
function) and the dihedral-symmetric theta graph (two vertices joined
by three parallel edges with fluxes (0, 1, 1)), whose band density
(about 0.43) shows the universal constant is shape-dependent, not
literally universal.  This module gives their densities; the hand
formulas of their secular functions and band sets, independent oracles
for the pipeline, live beside the tests in ``tests/conftest.py``.

The reflection coefficient of a decoration explains why whole families
of graphs share one band density: a flux-free part that meets the rest
at one vertex, with a edge ends there, enters the secular equation only
through its unimodular reflection Theta, and on the torus Theta has the
law of the Poisson measure of Theta(0) = (1 - a)/(1 + a), whatever the
part's shape.  That is the mechanism
:func:`graphbands.graph_model.core_shape` applies: it cuts every such
part back to floor(a/2) self-loops and, for odd a, a pendant edge, and
the torus route runs on the result.

The reflection coefficient is -B/A of the secular determinant A + B
exp(2ip) of the decoration closed by a lead of phase p.  The dihedral
density samples no indicator: along k1 its band set is a union of arcs
of exact length, which in the frame alpha = (k2 + k3)/2, beta = (k3 -
k2)/2 is one arctangent, and its mean over (alpha, beta) is a smooth
double integral that tanh-sinh quadrature takes to about 1e-16.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bond_system import bond_matrices
from .graph_model import Edge, GraphError, MagneticGraph, _cycle_flux
from .secular import secular_values
from .spectrum import positive_count

UNITARITY_TOL = 1e-10
_RESONANCE_TOL = 1e-6   # roundoff of F, relative to |A|, of a resonance
# points per axis, 13 to 203, of the dihedral tanh-sinh levels h = 1/2, ...,
# 1/32: nodes t = j h with |t| <= 101/32, where the last node lies 1.6e-16
# inside [0, pi/2] and the weights beyond sum to under 2e-16 at each end
DIHEDRAL_GRIDS = tuple(2 * (101 * 2 ** k // 32) + 1 for k in range(1, 6))


@dataclass(frozen=True)
class ReferenceValue:
    """Reference number with provenance and an error scale.

    ``error_bound`` is a rigorous bound for closed-form values and the
    step-halving difference |I_h - I_2h| for ``"quadrature"`` ones (about
    the error of I_2h, far above that of the value I_h); ``method`` says
    which.
    """

    value: float
    method: str
    error_bound: float


# ---------------------------------------------------------------------------
# loop with pendant
# ---------------------------------------------------------------------------

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

def _k1_angle(a, b):
    """(pi/2) times the share of k1 in [0, 2 pi) inside the dihedral band
    set at (k2, k3) = (a - b, a + b), for arrays ``a`` and ``b`` that
    broadcast (a column and a row give the grid): the angle

        arctan(4 |sin a cos b| / (3 sin^2 a + sin^2 b)).

    The secular function sin(k1 + k2 + k3) - s1 s2 s3 / 2 - s1 - cos(alpha)
    (s2 + s3), s_i = sin k_i, has a real root alpha iff

        |sin(k1 + k2 + k3) - s1 s2 s3 / 2 - s1| <= |s2 + s3|.

    With sigma = k2 + k3 and g = 1 + s2 s3 / 2, its left side is (cos
    sigma - g) sin k1 + sin sigma cos k1 = R sin(k1 + phi), R^2 = 1 + g (g
    - 2 cos sigma), and the right side is |S|, S = s2 + s3, so the share is
    (2/pi) arcsin(min(1, |S| / R)).
    In p = sin^2 a, q = sin^2 b: S = 2 sin a cos b, s2 s3 = p - q and cos
    sigma = 1 - 2p, so R^2 = (g - 1)^2 + 4 g p and

        R^2 - S^2 = (p - q)^2 / 4 + 2 p^2 + 2 p q = (3 p + q)^2 / 4.

    Hence R >= |S|, and arcsin(|S| / R) is the angle above, a quotient of
    products with no cancellation even near R = 0 (k2 = k3 in {0, pi}).
    It is pi/2 - arctan of the inverse quotient, computed in place in one
    buffer; at R = 0 that is 0/0, and the share is 1, since the left side
    vanishes for every k1.
    """
    sa, sb, cb = np.abs(np.sin(a)), np.sin(b), np.abs(np.cos(b))
    f = 3.0 * sa * sa + sb * sb
    with np.errstate(divide="ignore", invalid="ignore"):
        f /= 4.0 * sa
        f /= cb
    np.fmax(f, 0.0, out=f)                      # the NaN of R = 0 to 0
    np.arctan(f, out=f)
    return np.subtract(np.pi / 2, f, out=f)


def dihedral_density(samples: int) -> ReferenceValue:
    """Band density of the dihedral graph by tanh-sinh quadrature, with at
    most ``samples`` (>= 13^2) evaluations of :func:`_k1_angle`.

    The share depends on (k2, k3) only through cos 2a and cos 2b, and the
    map (k2, k3) -> (2a, 2b) (determinant 2) keeps the torus mean, so

        rho = (8/pi^3) int_0^(pi/2) int_0^(pi/2)
                  arctan(4 sin a cos b / (3 sin^2 a + sin^2 b)) da db,

    analytic on the closed square but for the bounded corner (0, 0), R = 0;
    the kinks of the share at S = 0 lie on the edges a = 0 and b = pi/2.
    The tanh-sinh rule (Takahasi-Mori, Publ. RIMS 9, 1974), x = (pi/2) / (1
    + exp(-pi sinh t)), whose error about squares when its step halves,
    runs at the finest h = 1/2, ..., 1/32 whose n x n nodes t = j h (n in
    ``DIHEDRAL_GRIDS``) fit in ``samples``.  Its nodes of even j are those
    of step 2h at half the weight, so one evaluation gives ``value`` = I_h
    and ``error_bound`` = |I_h - I_2h|: 1.3e-13 at h = 1/32, where the
    value is within 1e-16 of the 25-digit integral 0.42993954922940990.
    """
    samples = positive_count(samples, "samples")
    if samples < DIHEDRAL_GRIDS[0] ** 2:
        raise ValueError("samples must be at least %d, got %d"
                         % (DIHEDRAL_GRIDS[0] ** 2, samples))
    k = max(k for k, n in enumerate(DIHEDRAL_GRIDS, 1) if n * n <= samples)
    h, m = 2.0 ** -k, DIHEDRAL_GRIDS[k - 1] // 2
    t = np.arange(-m, m + 1) * h
    e = np.exp(-np.pi * np.sinh(t))
    x = (np.pi / 2) / (1.0 + e)
    w = (h * np.pi ** 2 / 2) * np.cosh(t) * e / (1.0 + e) ** 2
    f = _k1_angle(x[:, None], x)
    even = slice(m % 2, None, 2)    # nodes of even j: step 2h, weights 2w
    fine = 8.0 / np.pi ** 3 * (w @ f @ w)
    coarse = 32.0 / np.pi ** 3 * (w[even] @ f[even, even] @ w[even])
    return ReferenceValue(value=float(fine), method="quadrature",
                          error_bound=float(abs(fine - coarse)))


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

    The decoration meets the rest of the graph at ``entry_vertex`` alone,
    with any number a of edge ends there.  The lead that closes it there
    is the Kirchhoff split of that vertex in
    :func:`graphbands.graph_model.core_shape`, so this is the one-port's
    Theta: a wave entering by the lead returns with amplitude Theta(k) of
    modulus one, and that phase replaces the decoration in the secular
    equation.  Over generic momenta Theta has the moments Theta(0)^n,
    Theta(0) = (1 - a)/(1 + a).  Flux-free means, as there, that every
    cycle carries zero net flux.

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

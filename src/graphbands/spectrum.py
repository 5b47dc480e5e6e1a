"""Momentum spectrum of a periodic graph via a sign change of the real
secular function, plus band-interval scans and band-density series.

A membership row is a point kappa of the torus of edge phases (kappa =
k l mod 2 pi for momentum k).  The bond evolution U = exp(i(A + p)) S is
unitary of even size 2E, so det(I - U) = det(-U) conj(det(I - U)).  The
flux phases A cancel between a bond and its reversal and each edge
phase enters p on both bonds, so det(-U) = det S exp(2i sum(kappa)) and

    G = exp(-i sum(kappa)) F

is real when det S = +1 and purely imaginary when det S = -1, at every
torus point and every quasi-momentum (Kottos-Smilansky, Ann. Phys. 274,
1999); :func:`compile_secular` samples it from LU determinants, the
one place in the package that does.  A point belongs to the
spectrum iff G vanishes for some quasi-momentum, and since G is
continuous on the connected torus of quasi-momenta that holds iff
min G <= 0 <= max G.

The module, in the order of its code:

- :func:`compile_secular` compiles G once per bond system into a
  :class:`SecularPolynomial`, the coefficients of G along one
  generator; ``bs.secular_polynomial`` keeps it.  It is the one source
  of G for membership.
- :func:`_extremes` takes the exact minimum and maximum of G along that
  generator from a row's coefficients: in closed form up to degree 2;
  for a real (one-slice) row of degree m >= 3, as G = P(cos alpha) at
  cos alpha = +-1 and at the roots of P' (:func:`_cosine_critical_values`);
  for a complex row, at the roots of a 2m x 2m complex companion matrix
  (:func:`_critical_values`).
- :func:`_margin` computes the coefficients of a block of rows, with the
  edge phases along the last axis, and turns the extremes into one
  continuous number per row, the margin mu = min(ZERO_TOL - min G, max G
  + ZERO_TOL), with a member iff mu >= 0, optionally screened in float32
  with the sign of the float64 margin on every row;
  :func:`membership_from_phases` is its screened sign on torus rows and
  :func:`_momentum_margin` its value on momentum rows kappa = k l.
- :func:`band_intervals` brackets the roots of mu along kappa = k l on a
  screened grid and refines them in float64 (:func:`_refine_edges`);
  :func:`density` reports the measure of the bands below a series of
  cutoffs.

The one tolerance, ZERO_TOL, absorbs roundoff at touching zeros: band
edges such as k = 0 or kappa = 0, and flat bands, where G vanishes
identically in alpha, evaluate to noise of either sign.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .bond_system import BondSystem
from .graph_model import GraphError
from .secular import secular_values

ZERO_TOL = 1e-12             # |G| at or below which a value counts as zero
GRID_FALLBACK_POINTS = 64    # grid per further generator of nonzero degree,
                             # of which the +-beta half grid is kept
COMPILE_BUDGET = 2_000_000   # most compile grid points, and series entries
SCAN_BUDGET = 10_000_000     # most points of a band-scan grid
_BLOCK_VALUES = 1 << 18      # values per block of membership rows; bounds memory
# float32 screen of torus membership: the error of float32 cos and sin
# that its bound B assumes, in units of 2^-23 (a tier-1 test measures
# it), and the safety factor of B
_TRIG_ULP = 2.0
_SCREEN_SLACK = 16.0
# ITP constants of the band-edge refinement: truncation _ITP_K1 / w0 (w0
# the initial bracket) times the squared bracket width, and _ITP_N0 rounds
# of slack over bisection
_ITP_K1 = 0.1
_ITP_N0 = 1


# ---------------------------------------------------------------------------
# the real secular function G
# ---------------------------------------------------------------------------

def _grid_index(sizes) -> np.ndarray:
    """Integer coordinates of the equispaced torus grid with sizes[i]
    points along axis i, the last axis varying fastest; shape
    (prod(sizes), len(sizes))."""
    return np.indices(sizes).reshape(len(sizes), math.prod(sizes)).T


def _half_grid(sizes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One point of each pair {x, -x mod sizes} of the equispaced torus
    grid, the one of lower flat index, as an array of points (a point
    whose coordinates are each 0 or, along an axis of even size n, n/2 is
    its own pair, so k even axes keep (prod(sizes) + 2^k) / 2 points); for
    every grid point the row of its pair's point in that array; and a
    mask of the grid points that are in it."""
    index = _grid_index(sizes)
    flat = np.arange(len(index))
    pair = np.minimum(flat, np.ravel_multi_index(tuple(-index.T), sizes,
                                                 mode="wrap"))
    own = pair == flat
    points = index[own] * (2.0 * np.pi / np.array(sizes, dtype=float))
    return points, (np.cumsum(own) - 1)[pair], own


def positive_count(value, name: str) -> int:
    """``value`` as a Python int of at least 1.  Any integer is accepted
    (``np.int64`` included); a bool (``np.bool_`` included), or a float
    even when whole, is refused by ``name``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError("%s must be an integer, got %r" % (name, value))
    if value < 1:
        raise ValueError("%s must be at least 1" % name)
    return int(value)


@dataclass(frozen=True)
class SecularPolynomial:
    """The real secular function G as its coefficients along the
    generator of highest degree m, the main one (:func:`compile_secular`).
    At slice b, the b-th point beta that :func:`_half_grid` keeps of the
    grid of GRID_FALLBACK_POINTS points per other generator of nonzero
    degree, J' - 1 of them (the first slowest), G = c_0 + 2 Re
    sum_{j=1..m} c_j exp(i j alpha_main), with

        c_j = sum_r series[r, b, j] t(kappa_freq[r] . kappa),

    t = cos when det S (``BondSystem.parity``) is +1 and t = sin when it
    is -1.  ``kappa_freq`` holds one edge phase frequency n of each
    +-pair with a nonzero coefficient (entries in {-1, 0, 1}, first
    nonzero entry 1).  ``series`` is real exactly when it has one slice
    (J' <= 1), and complex otherwise; the slices at beta and -beta have
    conjugate coefficients and so the same extremes along the main
    generator, and only the first is kept, (64^(J' - 1) + 2^(J' - 1)) / 2
    slices in all.  ``degree`` is the exact degree of G in each
    quasi-momentum, at most its flux weight.  :meth:`screen_bound` is the
    bound B of the float32 membership screen (:func:`_margin`).
    """

    kappa_freq: np.ndarray       # (Rk, E) float, integer valued
    series: np.ndarray           # (Rk, (64^k + 2^k) / 2, m + 1), k = J' - 1
    degree: tuple[int, ...]

    @cached_property
    def _screen_terms(self) -> tuple[float, float]:
        """B_0 and B_1 of :meth:`screen_bound`, derived on first use."""
        u, u64 = 2.0 ** -24, 2.0 ** -53
        w = np.abs(self.kappa_freq).sum(axis=1)
        e = np.stack([2.0 * np.pi * u * w * w + 6.0 * np.pi * w * u64
                      + _TRIG_ULP * 2.0 ** -23 + (len(w) + 4) * u,
                      w * (2.0 + w) * u64])             # e_r = e_0 + R e_1
        size = np.abs(self.series.real) + np.abs(self.series.imag)
        weight = np.where(np.arange(self.series.shape[-1]) > 0, 2.0, 1.0)
        terms = e @ (size @ weight)                     # (2, slices)
        return tuple(_SCREEN_SLACK * terms.max(axis=1, initial=0.0))

    def screen_bound(self, reach: float) -> float:
        """B(R) = B_0 + R B_1 of the float32 membership screen: a bound on
        |mu32 - mu| over rows with every |kappa_e| <= R = ``reach``, mu32
        the screened margin of :func:`_margin` and mu the float64 one.  It
        is _SCREEN_SLACK times the sum of the terms below; B_0 and B_1 are
        derived once per polynomial.

        With u = 2^-24 and u' = 2^-53 the float32 and float64 unit
        roundoffs, a kept row n_r with w_r nonzero entries (each +-1), and
        R below about 1.4e16:

        - reduction: when R > 2 pi a phase becomes r = kappa - 2 pi j, j =
          rint(kappa / 2 pi), in float64.  kappa / 2 pi rounds by at most
          u' R / 2 pi < 1/4, so |j| <= R / 2 pi + 1 and |r| <= 2 pi.  The
          float 2 pi is within 2 pi u' of 2 pi, which j scales to (R + 2
          pi) u'; the product rounds by (R + 2 pi) u' and the difference by
          2 pi u'.  So r is within (2R + 6 pi) u' of a value congruent to
          kappa mod 2 pi.  The float64 margin's own argument n_r . kappa,
          w_r - 1 additions of partial sums up to w_r R, is off by (w_r -
          1) w_r R u'.  The two arguments then differ by at most dr_r = w_r
          (2R + 6 pi + w_r R) u', the only term that grows with R;
        - argument: casting the phases, now in [-2 pi, 2 pi], to float32
          moves n_r . kappa by at most 2 pi u w_r, and summing the w_r
          terms in float32 by at most (w_r - 1) u 2 pi w_r, so da_r <=
          2 pi u w_r^2;
        - trig: cos and sin are 1-Lipschitz, and float32 ``np.cos`` and
          ``np.sin`` are within tau = _TRIG_ULP 2^-23 of the float64 ones
          on |a| <= 2 pi E (a tier-1 test measures this), so the value t_r
          is off by at most dr_r + da_r + tau;
        - product: c_j = sum_r t_r S_rj over Rk terms, with S cast to
          float32 and |t_r| <= 1, adds (Rk + 1) u sum_r |S_rj|; a complex
          S is summed as separate real and imaginary columns, so each S_rj
          counts as |Re S_rj| + |Im S_rj|;
        - extremes and margin: every float32 branch of :func:`_extremes`
          rounds a few times terms whose sizes sum to at most A = |c_0| +
          2 sum_j |c_j| (the m = 2 vertex is taken only when |c_1| < 4
          |c_2|, so |c_1^2 / 4 c_2| < |c_1|), which costs at most 2 u A,
          and the margin adds u A; from degree 3 on, real rows compute
          in float64 and complex ones in complex128.

        So |dc_j| <= sum_r e_r |S_rj| with e_r = dr_r + da_r + tau + (Rk +
        1) u, and G = c_0 + 2 Re sum_j c_j exp(i j alpha) moves by at most
        |dc_0| + 2 sum_j |dc_j| at every alpha, and so do its exact
        extremes and mu, which is 1-Lipschitz in each.  A <= sum_r (|S_r0|
        + 2 sum_j |S_rj|), so 3 u more in e_r adds the rounding of the
        extremes and margin.  The worst slice of the further generators'
        grid counts, for the terms in R^0 and R^1 apart.  The slack covers
        what this leaves out: the terms of order u^2, the float64 roundoff
        of the float64 margin and of the paths of degree >= 3, and the
        critical points of m >= 3 found in float64 from either set of
        coefficients.

        B(R) holds for every R.  From R about 3.8e14 on it exceeds any
        |mu32 - mu| of a finite row, whatever the reduction gives, which
        covers R past 1.4e16, where |r| may exceed 2 pi: a row n_r with
        w_r >= 1 has |t_r| <= 1 in either precision (and n_r = 0 has t_r
        = 1 in both), so mu32 and mu differ by at most 2 A' plus the
        roundings above, A' the part of A from rows with w_r >= 1, while
        R B_1 >= 48 R u' A' >= 2 A' once R >= 2^53 / 24.  The two ranges
        of R overlap.  A NaN phase makes R NaN and an infinite one makes B
        inf or NaN; either way no row of the block passes |mu32| > B(R).
        """
        b0, b1 = self._screen_terms
        return b0 + reach * b1


def compile_secular(bs: BondSystem) -> SecularPolynomial:
    """Compile G of ``bs``; a :class:`GraphError` naming the count when
    the sampling grid has more than COMPILE_BUDGET points or the
    ``series`` more than COMPILE_BUDGET entries.  Five or more generators
    of nonzero flux weight are refused before any determinant: the half
    grid of the other generators alone, (64^4 + 2^4) / 2 slices, would
    have more points than that.  Use ``bs.secular_polynomial``, which
    compiles once and keeps it.

    G is a real trigonometric polynomial: each edge phase kappa_e enters
    with frequency -1, 0 or 1, and generator j with |frequency| at most
    its flux weight m_j (Barra-Gaspard, J. Stat. Phys. 101, 2000).  It
    has two exact symmetries.  S is symmetric under bond reversal, so G
    is even in alpha, G(kappa, -alpha) = G(kappa, alpha); S is real, so
    F(-kappa; -alpha) is conj F(kappa; alpha), which with the first gives
    G(-kappa, alpha) = det S G(kappa, alpha).

    G is sampled on 3 points per edge phase and 2 m_j + 1 per generator,
    which holds every frequency it has exactly once, so the FFT of the
    samples is its coefficient array with no aliasing.  Only one point
    of each +-pair of the edge phase grid and one of each of the
    quasi-momentum grid (:func:`_half_grid`) take a determinant,
    ((3^E + 1) / 2) ((prod(2 m_j + 1) + 1) / 2) in all; the two
    symmetries fill the rest.  They also make the coefficients at edge
    phase frequencies n and -n equal and real when det S = +1, opposite
    and purely imaginary when det S = -1.  So the same mask, applied to
    the frequency grid, keeps one n of each pair, and its row is twice
    the real part, or minus twice the imaginary part, of the pair's
    coefficient; the row n = 0, which only det S = +1 has, is taken once.
    Every coefficient is exact (below), so the nonzero ones give the exact
    degrees d_j <= m_j, and an edge phase row is kept iff it has one.  The
    main generator keeps frequencies 0..m, and the others are summed in one
    product, sum_s exp(i beta . s) c_s over the multi-index s of their
    frequencies, at the points beta of their grid that :func:`_half_grid`
    keeps: a generator of degree 0 has beta = 0 (its one frequency is 0, so
    it takes no grid axis), and a point beta stands for -beta too, since G
    is even in alpha, so the slice at -beta has the conjugate coefficients
    of the slice at beta and the same extremes along the main generator.
    With J' - 1 = k >= 1 further generators of nonzero degree the series is
    complex and has (64^k + 2^k) / 2 slices, 33 at k = 1.  A membership row
    then costs one cosine (or sine) per kept n and one small matrix product
    instead of 2m + 1 determinants.

    The coefficients are rationals with one denominator.  With D = prod_v
    d_v over the vertex degrees, D c is an integer for every coefficient
    c of the grid when det S = +1, and i times one when det S = -1: a
    Gaussian integer either way.  The compile reads D from S, where
    S[rev(b), b] = 2 / d_b - 1 with d_b the degree of the vertex that
    bond b arrives at, a vertex of degree d being where d bonds arrive.
    It scales the raw FFT grid by D, before the choice of real or
    imaginary part, the doubling of the +-n rows and the product over
    beta (whose series are not integral), rounds the real and imaginary
    parts to integers and divides by D.  So a zero coefficient is exactly
    0 and a nonzero one is the float nearest its value.  A grid on which
    some |D c - rint(D c)| exceeds 1/4, or is NaN, is refused with a
    :class:`GraphError` naming that residual and D; on every graph tested
    it stayed below 1e-12.

    Proof.  Let B be the 2E x V incidence of the bonds and the vertices
    they arrive at, Delta = diag(d_v) and R the reversal permutation, so
    that T = R S = -I + 2 B Delta^-1 B^T (its vertex blocks are (2/d) J -
    I, :mod:`graphbands.bond_system`).  Let P be the diagonal of bond
    phases, P_b = w_e z^(f_b) with w_e = exp(i kappa_e) on both bonds of
    edge e and z^(f_b) the monomial of the bond's flux in z_j = exp(i
    alpha_j).  Then I - P S = (I + P R) - 2 P R B Delta^-1 B^T, and
    Sylvester's identity det(I - X Y) = det(I - Y X) gives, as rational
    functions of (w, z),

        D F = det(I + P R) det(Delta - 2 B^T (I + P R)^-1 P R B).

    I + P R is block-diagonal over edges.  The block of edge e on its two
    bonds b, rev(b) is [[1, P_b], [P_rev(b), 1]]; the flux monomials of b
    and rev(b) cancel, so its determinant is 1 - w_e^2, and its inverse
    is [[1, -P_b], [-P_rev(b), 1]] / (1 - w_e^2).  So every entry of the
    V x V matrix is an integer Laurent polynomial in (w, z) over prod_e
    (1 - w_e^2), and the right side times prod_e (1 - w_e^2)^(V - 1) is
    an integer Laurent polynomial.  The left side is a Laurent polynomial
    with rational coefficients, since P is monomial and S rational, and
    prod_e (1 - w_e^2)^(V - 1) is primitive (its constant term is 1).  By
    Gauss's lemma the left side has integer coefficients.  G = exp(-i
    sum(kappa)) F shifts them, and when det S = -1 takes the imaginary
    part of a purely imaginary function, which multiplies them by -i.
    The FFT of the unaliased samples is this coefficient array.
    """
    def refuse_above_budget(count, what):
        if count > COMPILE_BUDGET:
            raise GraphError(what % count + ", above COMPILE_BUDGET = %d"
                             % COMPILE_BUDGET)

    E, J, weights = bs.n_edges, bs.generators, bs.flux_weight
    sizes = [3] * E + [2 * m + 1 for m in weights]
    refuse_above_budget(math.prod(sizes),     # exact; 3**E overflows int64
                        "the grid the secular function is compiled on has "
                        "%d points")
    n = GRID_FALLBACK_POINTS
    k = max(sum(m > 0 for m in weights) - 1, 0)    # further fluxed ones
    refuse_above_budget((n ** k + 2 ** k) // 2,    # slices: entries of a row
                        "the alpha-series of the secular function has at "
                        "least %d entries")
    kappas, k_row, k_own = _half_grid(sizes[:E])
    alphas, a_row, _ = _half_grid(sizes[E:])
    F = secular_values(bs, kappas[:, bs.edge_of_bond], alphas)
    F *= np.exp(-1j * kappas.sum(axis=1))[:, None]
    G = (F.real if bs.parity == 1 else F.imag)[np.ix_(k_row, a_row)]
    G[~k_own] *= bs.parity                    # G(-kappa) = det S G(kappa)
    # D = prod_v d_v.  S[rev(b), b] = 2 / d_b - 1 (the diagonals at offsets
    # -E and E) gives the degree d_b of the vertex that bond b arrives at,
    # and the bonds with d_b = v arrive at count / v vertices
    d = [round(2.0 / (1.0 + s)) for offset in (-E, E)
         for s in bs.scattering.diagonal(offset).tolist()]
    D = math.prod(v ** (d.count(v) // v) for v in set(d))
    c = np.fft.fftn(G.reshape(sizes)) * (D / G.size)
    residual = float(np.abs(c - np.rint(c)).max())
    if not residual <= 0.25:
        raise GraphError("the secular function's coefficients times D = %d "
                         "lie up to %.3g off Gaussian integers" % (D, residual))
    c = np.rint(c.real if bs.parity == 1 else -c.imag).reshape(len(G), -1) / D
    freq = ((_grid_index(sizes[:E]) + 1) % 3 - 1).astype(float)  # 0, 1, -1
    rows = k_own & c.any(axis=1)              # one n of each pair, if nonzero
    c[k_own & freq.any(axis=1)] *= 2.0        # the pair n, -n
    c = c[rows].reshape(-1, *sizes[E:])
    freqs = [np.fft.fftfreq(size, 1.0 / size) for size in sizes[E:]]
    degree = tuple(int(np.abs(f[i]).max(initial=0))
                   for f, i in zip(freqs, np.nonzero(c)[1:]))
    m = max(degree, default=0)
    main = degree.index(m) if J else 0
    rest = [j for j in range(J) if j != main]
    # one beta of each +-pair of the others' grid; degree 0 keeps beta = 0
    beta = _half_grid([n if degree[j] else 1 for j in rest])[0]
    refuse_above_budget(len(c) * len(beta) * (m + 1),
                        "the alpha-series of the secular function has %d "
                        "entries")
    # the multi-index s of the others' frequencies, then 0..m of the main
    # generator (J = 0: one frequency, 0)
    c = np.moveaxis(c[..., None], main + 1, -1)
    c = c.reshape(len(c), -1, c.shape[-1])[..., :m + 1]
    s = np.array(list(itertools.product(*(freqs[j] for j in rest))))
    wave = np.exp(1j * (beta @ s.T))
    series = (wave.real if len(beta) == 1 else wave) @ c      # beta = 0
    return SecularPolynomial(freq[rows], series, degree)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def _companion_roots(P: np.ndarray) -> np.ndarray:
    """Roots of the polynomials sum_k P[:, k] z^k (rows of P, degree d =
    P.shape[1] - 1), the eigenvalues of their companion matrices, complex
    for complex P.  A row whose top nonzero coefficient is P[:, k], k < d,
    is first multiplied by z^(d - k), so that its roots come with d - k at
    z = 0; a row of zeros or NaN gets arbitrary roots."""
    d = P.shape[1] - 1
    # shift by d - k; the indices below 0 wrap onto the zeros above k
    shift = np.argmax(P[:, ::-1] != 0, axis=1)
    P = np.take_along_axis(P, np.arange(d + 1) - shift[:, None], axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        monic = P[:, :-1] / P[:, -1:]
    C = np.zeros((len(P), d, d), dtype=P.dtype)
    idx = np.arange(d - 1)
    C[:, idx + 1, idx] = 1.0
    C[:, :, -1] = -np.where(np.isfinite(monic), monic, 0.0)
    return np.linalg.eigvals(C)


def _critical_values(c: np.ndarray) -> np.ndarray:
    """Values of the real trigonometric polynomials c_0 + 2 Re sum_{j=1..m}
    c_j exp(i j alpha) of degree m = c.shape[1] - 1 >= 2 (rows of c) at
    the 2m + 1 equispaced points and at the arguments of the 2m roots of
    sum_j j c_j z^(j+m), c_{-j} = conj(c_j), their critical points when on
    the unit circle (:func:`_companion_roots`, in complex128).  A row of
    degree d < m has 2(m - d) of its roots at z = 0, which are NaN on the
    circle.  Non-finite entries past the first 2m + 1 mark those and
    failed roots; the equispaced points keep a row with G = 0 exact."""
    m = c.shape[1] - 1
    j = np.arange(1, m + 1)
    P = np.zeros((len(c), 2 * m + 1), dtype=complex)
    P[:, m + 1:] = j * c[:, 1:]
    P[:, m - 1::-1] = -j * np.conj(c[:, 1:])
    roots = _companion_roots(P)
    with np.errstate(divide="ignore", invalid="ignore"):
        roots /= np.abs(roots)
    z = np.exp(2j * np.pi * np.arange(2 * m + 1) / (2 * m + 1))
    z = np.hstack([np.broadcast_to(z, (len(c), 2 * m + 1)), roots])
    return c[:, :1].real + 2.0 * sum((c[:, k:k + 1] * z ** k).real
                                     for k in range(1, m + 1))


def _cosine_critical_values(c: np.ndarray) -> np.ndarray:
    """Values, in float64, of the even trigonometric polynomials G = c_0 +
    2 sum_{j=1..m} c_j cos(j alpha) of degree m = c.shape[1] - 1 >= 3
    (rows of a real c) at x = cos(alpha) = -1 and 1 and at the real parts
    of the m - 1 roots of P', each clipped to [-1, 1], where P(x) = c_0 +
    2 sum_j c_j T_j(x) is G in x (T_j the Chebyshev polynomials).  The
    extremes of P over [-1, 1] lie at +-1 or at a real root of P' there,
    and every point of [-1, 1] is a value of G, so the extra points (real
    parts of complex roots, clipped ones) cannot widen the range.  At m =
    3, P'/2 = 12 c_3 x^2 + 4 c_2 x + c_1 - 3 c_3 is solved by the stable
    quadratic formula, with a negative discriminant taken as 0; above,
    the roots are the eigenvalues of the real companion matrix of P'
    (:func:`_companion_roots`).  A row with c_m = 0 falls to its true
    degree: a root at infinity (clipped) or a spare root at 0.  A NaN
    entry is NaN."""
    c = np.asarray(c, dtype=float)
    n, m = len(c), c.shape[1] - 1
    if m == 3:
        a, b, q = 12.0 * c[:, 3], 4.0 * c[:, 2], c[:, 1] - 3.0 * c[:, 3]
        with np.errstate(divide="ignore", invalid="ignore"):
            h = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * a * q,
                                                           0.0)), b))
            roots = np.stack([h / a, q / h], axis=1)
    else:
        T = np.eye(m + 1)            # row j: T_j in powers of x, by the
        for j in range(1, m):        # recurrence T_(j+1) = 2 x T_j - T_(j-1)
            T[j + 1] = 2.0 * np.roll(T[j], 1) - T[j - 1]
        power = (c * np.where(np.arange(m + 1) > 0, 2.0, 1.0)) @ T
        roots = _companion_roots(power[:, 1:] * np.arange(1, m + 1)).real
    x = np.clip(np.hstack([np.broadcast_to([-1.0, 1.0], (n, 2)), roots]),
                -1.0, 1.0)
    b1 = b2 = 0.0
    for j in range(m, 0, -1):                         # Clenshaw's recurrence
        b1, b2 = 2.0 * (c[:, j:j + 1] + x * b1) - b2, b1
    return c[:, :1] + x * b1 - b2


def _extremes(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimum and maximum over alpha of the real trigonometric
    polynomials c_0 + 2 Re sum_{j=1..m} c_j exp(i j alpha) (rows of c,
    shape (n, m + 1)).  The branch is read from c alone: the degree m is
    c.shape[1] - 1, and a real c has even rows.

    - m = 0 is c_0 and m = 1 is c_0 + 2|c_1| cos(alpha + phase), in
      closed form, so at m = 1 a row touches zero iff |c_0| <= 2|c_1|.
    - A real row is c0 + 2 sum_j c_j cos(j alpha), a polynomial P of
      degree m in x = cos(alpha), whose extremes over [-1, 1] lie at +-1
      and at the real roots of P'.  The compile stores a real series
      exactly when it has one slice, where G is even in alpha
      (:func:`compile_secular`).  At degree 2, P(x) = c0 - 2 c2 + 2 c1 x
      + 4 c2 x^2, and its extremes are P(+-1) and, when |c1| < 4|c2|, the
      vertex value c0 - 2 c2 - c1^2 / (4 c2).  From degree 3 on, P is
      evaluated at +-1 and at the roots of P', found by the quadratic
      formula at m = 3 and by a real (m - 1) x (m - 1) companion matrix
      above (:func:`_cosine_critical_values`).
    - A complex row takes the values at the 2m + 1 equispaced and at the
      critical points (:func:`_critical_values`, from a 2m x 2m complex
      companion matrix), skipping failed roots; a NaN row stays NaN.  A
      complex row that happens to be even takes this path too, which is
      exact as well.

    Extra evaluation points never create a false member.  The extremes
    keep the precision of c, float32 for float32 or complex64 rows,
    except from degree 3 on, where real rows compute in float64 and
    complex ones in complex128."""
    m = c.shape[1] - 1
    if m <= 1:
        mid = c[:, 0].real
        half = 2.0 * np.abs(c[:, 1]) if m else 0.0
        return mid - half, mid + half
    if m == 2 and np.isrealobj(c):
        c0, c1, c2 = c.T
        minus, plus = c0 + 2.0 * (c2 - c1), c0 + 2.0 * (c2 + c1)  # P(-+1)
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = np.where(np.abs(c1) < 4.0 * np.abs(c2),
                              c0 - 2.0 * c2 - c1 * c1 / (4.0 * c2), np.nan)
        return (np.fmin(np.minimum(minus, plus), vertex),
                np.fmax(np.maximum(minus, plus), vertex))
    vals = (_cosine_critical_values(c) if np.isrealobj(c)
            else _critical_values(c))
    return np.fmin.reduce(vals, axis=1), np.fmax.reduce(vals, axis=1)


def _margin(bs: BondSystem, kappas: np.ndarray,
            precision=np.float64) -> np.ndarray:
    """Membership margin mu = min(ZERO_TOL - min G, max G + ZERO_TOL) of
    each row of edge phases (n, E); a row is a member iff mu >= 0, and NaN
    (a failed sample) is not.  mu is continuous in the row, so along
    kappa = k l the band edges are its roots.  The extremes of G along the
    main generator come from its coefficients c_0..c_m, one matrix
    product with the compiled ``series`` (:func:`_extremes`), and are
    taken over every slice, the half grid of the other generators.

    The phases of a block are read along the last axis: ``rows`` is the
    (E, n) transpose of the block, and t = trig(kappa_freq @ rows), shape
    (Rk, n), gives c = t.T @ series, shape (n, W) with W the series width;
    everything from c on is row-major.  E (2-3 on the benchmark graphs),
    Rk (3-9) and W (2-3) are short, and numpy is slow on a short inner
    axis.  For the 16,001 grid rows of the lasso (numpy 2.4, one BLAS
    thread, AVX-512 x86-64 core), the phases took 224 us as an (n, 1)
    (1, E) broadcast against 11 us as an (E, 1) (n,) one, and the two
    float32 matrix products 42 + 24 us against 8 + 11 us transposed; the
    screened margin of that grid went from 633 to 429 us.
    :func:`_momentum_margin` passes the transpose view of (E, n) phases,
    so a momentum block is contiguous; torus rows, (n, E), are read
    through the same view.

    With ``precision`` float32 the margin is a screen.  With numpy 2.4 on
    an AVX-512 x86-64 core a float64 cosine took about 25 ns and a
    float32 one about 1 ns, and the cosines were most of the kernel.
    Every block is screened.  Its reach R = max |kappa_e| comes from the
    block's min and max; when R > 2 pi (momentum rows kappa = k l) the
    phases are first reduced to kappa - 2 pi rint(kappa / 2 pi) in
    float64, which leaves every cosine and sine of the row unchanged; then
    the phases, trig, product, extremes and margin are float32 (complex64
    for a complex series) and only mu is upcast.  A row whose screened
    margin is within B(R) of 0, or not finite, takes the float64 margin
    (under 0.1% of the rows on the lasso, a few percent at most on random
    graphs).  B(R) = B_0 + R B_1 bounds the float32 error of the margin
    at every R (:meth:`SecularPolynomial.screen_bound`), so the sign of
    every returned margin is that of the float64 one, and every other
    value is within B(R) of it.  A block holding a NaN has R NaN, and one
    holding an inf has B(R) inf or NaN, so every row of it is redone."""
    poly = bs.secular_polynomial
    # a complex series as interleaved real and imaginary parts, so that
    # c is one real product, read back as complex
    series = poly.series.reshape(len(poly.series), -1).view(float)
    freq = poly.kappa_freq
    slices, width = poly.series.shape[1:]
    screen = precision == np.float32
    if screen:
        series32, freq32 = series.astype(np.float32), freq.astype(np.float32)
    trig = np.cos if bs.parity == 1 else np.sin
    block = max(1, _BLOCK_VALUES // max(series.shape[1], len(series)))
    margin = np.empty(len(kappas))
    for i in range(0, len(kappas), block):
        rows = kappas[i:i + block].T                          # (E, n)
        if screen:
            reach = max(-rows.min(), rows.max())              # NaN for a NaN
            phases = rows
            if reach > 2 * np.pi:
                phases = np.rint(rows / (2 * np.pi))
                phases *= -2 * np.pi
                phases += rows                # rows - 2 pi rint(rows / 2 pi)
            c = trig(freq32 @ phases.astype(np.float32)).T @ series32
        else:
            c = trig(freq @ rows).T @ series
        if np.iscomplexobj(poly.series):
            c = c.view(np.complex64 if screen else complex)
        lo, hi = _extremes(c.reshape(-1, width))
        if slices > 1:
            lo = lo.reshape(-1, slices).min(axis=1)
            hi = hi.reshape(-1, slices).max(axis=1)
        mu = margin[i:i + block]
        np.minimum(ZERO_TOL - lo, hi + ZERO_TOL, out=mu)
        if screen:
            redo = ~(np.abs(mu) > poly.screen_bound(reach))   # NaN too
            mu[redo] = _margin(bs, kappas[i:i + block][redo])
    return margin


def membership_from_phases(bs: BondSystem, kappas) -> np.ndarray:
    """Spectrum membership for rows of edge phases, shape (n, E).

    This is the kernel shared by momentum scans (kappa = k l) and torus
    sampling.  A row is a member iff the real secular function G changes
    sign or touches zero over the quasi-momenta: min G <= ZERO_TOL and
    max G >= -ZERO_TOL along the generator of highest degree, for every
    point of the GRID_FALLBACK_POINTS grid over the other generators of
    nonzero degree together (its +-beta half, which has the same
    extremes).  ZERO_TOL is absolute; it lets the noise of touching
    zeros (band edges, flat bands) count as zero.
    The test is the sign of the margin min(ZERO_TOL - min G, max G +
    ZERO_TOL) (:func:`_margin`): in IEEE arithmetic a - b >= 0 holds
    exactly when a >= b, so it decides as the two comparisons do.  Rows
    are screened in float32, and the result is the sign of the float64
    margin on every row.

    G and its exact degrees come from the compiled polynomial
    ``bs.secular_polynomial``, which raises :class:`GraphError` for a
    graph past COMPILE_BUDGET (always from 5 generators of nonzero flux
    weight on).
    """
    kappas = np.asarray(kappas, dtype=float)
    if kappas.ndim != 2 or kappas.shape[1] != bs.n_edges:
        raise ValueError("kappas must have shape (n, %d)" % bs.n_edges)
    return _margin(bs, kappas, np.float32) >= 0


def _momentum_margin(bs: BondSystem, ks, precision=np.float64) -> np.ndarray:
    """Membership margin (see :func:`_margin`, also for ``precision``)
    over an array of momenta."""
    ks = np.asarray(ks, dtype=float)
    kappas = bs.bond_lengths[:bs.n_edges, None] * ks.ravel()    # (E, n)
    return _margin(bs, kappas.T, precision).reshape(ks.shape)


def momentum_membership(bs: BondSystem, ks) -> np.ndarray:
    """Vectorized spectrum indicator over an array of momenta."""
    return _momentum_margin(bs, ks) >= 0


# ---------------------------------------------------------------------------
# bands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandList:
    """Ordered pairwise-disjoint bands [lo[i], hi[i]] found in [0, k_max]."""

    lo: np.ndarray               # (n,) float
    hi: np.ndarray               # (n,) float
    k_max: float
    grid_step: float
    bisect_tol: float

    def __post_init__(self):
        lo, hi, tol = self.lo, self.hi, self.bisect_tol
        if np.ndim(lo) != 1 or np.shape(lo) != np.shape(hi):
            raise ValueError("lo and hi must be 1-d arrays of one length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("band endpoints must be finite")
        if np.any(hi < lo):
            raise ValueError("band with hi < lo")
        if (np.any(lo[1:] < hi[:-1] - tol) or np.any(lo[:1] < -tol)
                or np.any(hi > self.k_max + tol)):
            raise ValueError("bands out of order or outside [0, k_max]")

    @property
    def total_measure(self) -> float:
        return float((self.hi - self.lo).sum())

    @property
    def coverage(self) -> float:
        """Fraction of [0, k_max] covered by bands."""
        return self.total_measure / self.k_max


def _refine_edges(bs: BondSystem, lo: np.ndarray, hi: np.ndarray,
                  f_lo: np.ndarray, f_hi: np.ndarray,
                  tol: float) -> np.ndarray:
    """Band edges in the brackets [lo, hi], across each of which the
    membership margin f changes sign, as midpoints of brackets of width
    <= tol.

    Every round moves all open brackets by one ITP step (Oliveira and
    Takahashi, ACM TOMS 47, 2020): the regula-falsi point of the margins
    at the ends, truncated towards the midpoint by _ITP_K1 w^2 / w0 and
    projected into the ball about the midpoint that keeps both parts of
    the bracket within S_j = tol 2^(n - j - 1) after round j, where w0 is
    the widest initial bracket and n = ceil(log2(w0 / tol)) + _ITP_N0.
    So no edge takes more than n rounds, and smooth ones converge
    superlinearly.  S_j is short of that by (2^(n - j - 1) - 1) float
    spacings, so that the ball always holds a float and rounding cannot
    cost a round.  A step point not strictly inside the bracket (NaN
    margins) falls back to the midpoint.
    """
    edges = 0.5 * (lo + hi)
    w0 = float(np.max(hi - lo, initial=tol))
    n = math.ceil(math.log2(w0 / tol)) + _ITP_N0
    u = float(np.spacing(np.max(hi, initial=0.0)))
    idx = np.nonzero(hi - lo > tol)[0]
    a, b, fa, fb = lo[idx], hi[idx], f_lo[idx], f_hi[idx]
    j = 0
    while idx.size:
        mid = 0.5 * (a + b)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (a * fb - b * fa) / (fb - fa)                 # regula falsi
            delta = (_ITP_K1 / w0) * (b - a) ** 2
            x = np.where(delta <= np.abs(mid - x),
                         x + np.sign(mid - x) * delta, mid)
        # projection into [b - S, a + S], rounded inwards
        scale = 2.0 ** (n - j - 1)
        S = tol * scale - (scale - 1.0) * u
        least, most = b - S, a + S
        least = np.where(b - least > S, np.nextafter(least, b), least)
        most = np.where(most - a > S, np.nextafter(most, a), most)
        x = np.minimum(np.maximum(x, least), most)
        x = np.where((a < x) & (x < b), x, mid)
        fx = _momentum_margin(bs, x)
        same = (fx >= 0) == (fa >= 0)
        a, fa = np.where(same, x, a), np.where(same, fx, fa)
        b, fb = np.where(same, b, x), np.where(same, fb, fx)
        done = b - a <= tol
        edges[idx[done]] = 0.5 * (a[done] + b[done])
        keep = ~done
        idx, a, b, fa, fb = idx[keep], a[keep], b[keep], fa[keep], fb[keep]
        j += 1
    return edges


def band_intervals(bs: BondSystem, k_max: float,
                   grid_step: float | None = None,
                   bisect_tol: float | None = None) -> BandList:
    """Locate the spectral bands in [0, k_max].

    The membership margin (see :func:`membership_from_phases`), which is
    continuous in k and >= 0 exactly on the spectrum, is sampled on a
    uniform grid, and every change of membership is refined to a bracket
    of width <= ``bisect_tol`` by ITP steps on the margin
    (:func:`_refine_edges`); the edge is the bracket's midpoint.  The grid
    takes the float32 screen of :func:`_margin`: each grid sign is the
    float64 one, so the brackets are those of a float64 grid, and each
    value, which only seeds the first ITP step, is within the polynomial's
    ``screen_bound`` of the float64 one.  The refinement rounds are
    float64: their late rows fall within the bound and would be redone.
    The default grid step pi / (8 L) puts 16 samples per period of the
    fastest oscillation of the secular function (L = total graph
    length).  The scan is not certified: a band or gap narrower than the
    step can fall between two grid points and is then missed.  On a
    generic lasso over [0, 200] the default step finds 360 interior band
    edges where a dense count of sign changes finds 408.  The refinement
    runs on all detected edges at once, one batched margin sweep per
    round, and takes at most ceil(log2(step / bisect_tol)) + 1 rounds; a
    smooth edge takes about 6.  A ``bisect_tol`` below two float spacings
    at k_max is raised to that; ``BandList.bisect_tol`` is the one used.
    ``k_max``, ``grid_step`` and ``bisect_tol`` must be positive finite
    numbers; a bool (``np.bool_`` included) is refused by name, as are
    zero, negative, NaN and infinite values.  A grid of more than
    SCAN_BUDGET points is refused with a ValueError naming the count (inf
    when k_max / grid_step overflows), before any of it is allocated; the
    budget lies far below 2**52 steps, past which the points would
    coincide.
    """
    for name, value in (("k_max", k_max), ("grid_step", grid_step),
                        ("bisect_tol", bisect_tol)):
        if value is not None and (isinstance(value, (bool, np.bool_))
                                  or not 0 < value < np.inf):   # NaN fails too
            raise ValueError("%s must be a positive finite number, got %r"
                             % (name, value))
    step = grid_step if grid_step is not None else np.pi / (8.0 * bs.total_length)
    tol = bisect_tol if bisect_tol is not None else 1e-10 * max(1.0, k_max)
    tol = max(tol, 2.0 * np.spacing(float(k_max)))  # else it never ends

    n = np.ceil(k_max / step)            # inf when the division overflows
    if not n + 1 <= SCAN_BUDGET:
        raise ValueError("the scan grid would have %.17g points, above "
                         "SCAN_BUDGET = %d" % (n + 1, SCAN_BUDGET))
    grid = np.linspace(0.0, k_max, int(n) + 1)
    margin = _momentum_margin(bs, grid, np.float32)
    mem = margin >= 0

    ti = np.nonzero(mem[:-1] != mem[1:])[0]
    edges = _refine_edges(bs, grid[ti], grid[ti + 1], margin[ti],
                          margin[ti + 1], tol)
    # an edge whose left side is in the spectrum ends a band, else starts one
    ends = mem[ti]
    starts = np.concatenate([[0.0] if mem[0] else [], edges[~ends]])
    stops = np.concatenate([edges[ends], [float(k_max)] if mem[-1] else []])
    keep = np.nonzero(starts[1:] - stops[:-1] > tol)[0]  # else merge the gap
    starts = np.concatenate([starts[:1], starts[keep + 1]])
    stops = np.concatenate([stops[keep], stops[-1:]])

    return BandList(lo=starts, hi=stops, k_max=float(k_max),
                    grid_step=float(step), bisect_tol=float(tol))


# ---------------------------------------------------------------------------
# band density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensitySeries:
    """Band-density estimates |sigma intersect [0, K]| / K at increasing
    cutoffs K; ``final`` is the estimate at the largest cutoff."""

    cutoffs: np.ndarray
    values: np.ndarray
    bands: BandList

    @property
    def final(self) -> float:
        return float(self.values[-1])


def _measure_below(bands: BandList, cutoffs) -> np.ndarray:
    """Lebesgue measure of the band union intersected with [0, K] for
    each cutoff K."""
    cutoffs = np.asarray(cutoffs, dtype=float)
    starts, ends = bands.lo, bands.hi
    if not len(starts):
        return np.zeros(cutoffs.shape)
    cum = np.concatenate([[0.0], np.cumsum(ends - starts)])
    idx = np.searchsorted(ends, cutoffs, side="left")
    full = cum[idx]
    partial = np.where(idx < len(starts),
                       np.clip(cutoffs - starts[np.minimum(idx, len(starts) - 1)],
                               0.0, None),
                       0.0)
    return full + partial


def density(bs: BondSystem, k_max: float, checkpoints: int = 16,
            grid_step: float | None = None,
            bisect_tol: float | None = None) -> DensitySeries:
    """Band density of the spectrum with a convergence trace.

    Bands are located once over [0, k_max]; the density is then reported
    at ``checkpoints`` cutoffs spaced geometrically over the last two
    decades up to k_max, which makes the convergence of the K -> infinity
    limit visible at no extra band-finding cost.
    """
    checkpoints = positive_count(checkpoints, "checkpoints")
    bands = band_intervals(bs, k_max, grid_step, bisect_tol)
    if checkpoints == 1:
        cutoffs = np.array([k_max], dtype=float)
    else:
        cutoffs = np.geomspace(k_max / 100.0, k_max, checkpoints)
        cutoffs[-1] = k_max
    values = _measure_below(bands, cutoffs) / cutoffs
    return DensitySeries(cutoffs=cutoffs, values=values, bands=bands)

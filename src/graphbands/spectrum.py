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
1999); :func:`real_secular_values` returns it as a real array.  A point
belongs to the spectrum iff G vanishes for some quasi-momentum, and
since G is continuous on the connected torus of quasi-momenta that
holds iff min G <= 0 <= max G.

G is a real trigonometric polynomial: each edge phase kappa_e enters
with frequency -1, 0 or 1, and generator j with |frequency| at most its
flux weight m_j (Barra-Gaspard, J. Stat. Phys. 101, 2000).  It has two
exact symmetries.  S is symmetric under bond reversal, so G is even in
alpha, G(kappa, -alpha) = G(kappa, alpha); S is real, so F(-kappa; -alpha)
is conj F(kappa; alpha), which with the first gives G(-kappa, alpha) =
det S G(kappa, alpha).  G is compiled once per bond system: determinants
at one point of each +-pair of the grid of 3 points per edge and of the
grid of 2 m_j + 1 points per generator, ((3^E + 1) / 2) ((prod(2 m_j +
1) + 1) / 2) of them, fill the whole grid through the two symmetries,
and its FFT gives the coefficients exactly.  The nonzero ones give the
exact degree d_j <= m_j.  The symmetries make every coefficient real
(det S = +1) or purely imaginary (det S = -1), so G is a sum of cos (or
sin) of kappa . n times real trigonometric polynomials in alpha.  det S
is (-1)^(beta - 1), beta = E - V + 1 the cycle rank (:mod:`.bond_system`),
so the rows take cos on odd cycle rank and sin on even.  Along
the generator of highest degree m it is c_0 + 2 Re sum_j c_j exp(i j
alpha), and the compile stores (:class:`SecularPolynomial`) the matrix
that takes a row's cos (or sin) of kappa . n, for the kept n, to
c_0..c_m at every point of a grid of GRID_FALLBACK_POINTS points per
further generator of nonzero degree (a generator G does not depend on
takes no grid axis).  A membership row costs one cosine (or sine) per
kept n and one small matrix product instead of 2m + 1 determinants.
This is the one source of G for membership; a graph whose compile grid,
or whose alpha-series, exceeds COMPILE_BUDGET is refused with a
GraphError.

For m = 1 G is c_0 + 2|c_1| cos(alpha + phase), so a row is a member
iff |c_0| <= 2|c_1| (+ ZERO_TOL).  With one generator of nonzero degree
(a one-slice series) G is even in alpha, so for m = 2 it is a quadratic
in cos(alpha) with closed-form extremes on [-1, 1].  For m >= 3, and
along the main generator when further generators have nonzero degree,
where a slice of G is not even, G is evaluated at 2m + 1
equispaced points and at its critical points, roots of a companion
eigenproblem, which make the minimum and maximum along that axis exact.
The extremes are taken over the whole grid of further generators.
Extra evaluation points never create a false member.

The one tolerance, ZERO_TOL, absorbs roundoff at touching zeros: band
edges such as k = 0 or kappa = 0, and flat bands, where G vanishes
identically in alpha, evaluate to noise of either sign.

The kernel returns one continuous number per row, the margin mu =
min(ZERO_TOL - min G, max G + ZERO_TOL), and a row is a member iff mu
>= 0.  Along kappa = k l the band edges are the roots of mu:
:func:`band_intervals` brackets them on a grid of momenta and refines
every bracket at once by bracketed ITP steps on mu, a regula-falsi
point kept within a shrinking ball about the midpoint, so no edge takes
more rounds than bisection plus one.

Torus membership (:func:`membership_from_phases`) screens its rows in
float32 first.  With numpy 2.4 on an AVX-512 x86-64 core a float64
cosine took about 25 ns and a float32 one about 1 ns, and the cosines
were most of the kernel.  The screen computes the coefficients c from
float32 phases, trig and product, and decides every row whose margin
clears a bound B by its sign.  B is derived once per compiled polynomial
from the float32 error of the phase sum, of the trig and of the product
(:attr:`SecularPolynomial.screen_bound`), so the float64 margin has the
same sign on those rows.  The rest, rows within B of an edge (under 0.1%
on the lasso, a few percent at most on random graphs) or with a phase
outside [-2 pi, 2 pi], take the float64 margin.  Decisions are those of
the float64 kernel, row for row.  The band scan reads margin values, not
only signs, and stays float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bond_system import BondSystem
from .graph_model import GraphError
from .secular import secular_values

ZERO_TOL = 1e-12             # |G| at or below which a value counts as zero
GRID_FALLBACK_POINTS = 64    # grid per further generator of nonzero degree
COMPILE_BUDGET = 2_000_000   # most compile grid points, and series entries
# Coefficients of G are sums of products of scattering amplitudes 2/d;
# on every graph tried the nonzero ones were >= 0.005 and the FFT noise
# of the zero ones <= 5e-16, so the cut sits far from both.
_DROP_TOL = 1e-9
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
    """One point of each pair {x, -x} of the grid with odd sizes, the one
    of lower flat index (x = 0 is its own pair), as an array of points;
    for every grid point the row of its pair's point in that array; and
    a mask of the grid points that are in it."""
    index = _grid_index(sizes)
    flat = np.arange(len(index))
    pair = np.minimum(flat, np.ravel_multi_index(tuple(-index.T), sizes,
                                                 mode="wrap"))
    own = pair == flat
    points = index[own] * (2.0 * np.pi / np.array(sizes, dtype=float))
    return points, (np.cumsum(own) - 1)[pair], own


def _edge_phases(bs: BondSystem, kappas) -> np.ndarray:
    """``kappas`` as a float array of edge phase rows, shape (n, E)."""
    kappas = np.asarray(kappas, dtype=float)
    if kappas.ndim != 2 or kappas.shape[1] != bs.n_edges:
        raise ValueError("kappas must have shape (n, %d)" % bs.n_edges)
    return kappas


def real_secular_values(bs: BondSystem, kappas, alphas) -> np.ndarray:
    """G = exp(-i sum(kappa)) F from LU determinants at every pair of an
    edge phase row (n, E) and a quasi-momentum row (NA, J): its real part
    when det S = +1, its imaginary part when det S = -1; shape (n, NA)."""
    kappas = _edge_phases(bs, kappas)
    F = secular_values(bs, kappas[:, bs.edge_of_bond], alphas)
    F *= np.exp(-1j * kappas.sum(axis=1))[:, None]
    return F.real if bs.parity == 1 else F.imag


@dataclass(frozen=True)
class SecularPolynomial:
    """The real secular function G as its coefficients along the
    generator of highest degree m, the main one.  At point b of the grid
    of GRID_FALLBACK_POINTS points per other generator of nonzero degree,
    J' - 1 of them (the first slowest), G = c_0 + 2 Re sum_{j=1..m} c_j
    exp(i j alpha_main), with

        c_j = sum_r series[r, b, j] t(kappa_freq[r] . kappa),

    t = cos when ``parity`` (det S) is +1 and t = sin when it is -1.
    The Fourier coefficients of G at edge phase frequencies n and -n are
    equal and real when det S = +1, opposite and purely imaginary when
    det S = -1.  ``kappa_freq`` holds one n of each pair with a
    nonzero coefficient (entries in {-1, 0, 1}, first nonzero entry 1),
    and ``series`` sums twice their real part, or minus twice their
    imaginary part, plus the n = 0 row once, which only det S = +1 has.
    It is real when J' <= 1, where the grid is one point.  ``degree`` is
    the exact degree of G in each quasi-momentum, at most its flux weight.
    ``screen_bound`` is the bound B of the float32 membership screen.
    """

    kappa_freq: np.ndarray       # (Rk, E) float, integer valued
    series: np.ndarray           # (Rk, 64^(J'-1), m + 1), complex if J' >= 2
    parity: int                  # det S, +1 or -1
    degree: tuple[int, ...]

    @cached_property
    def screen_bound(self) -> float:
        """B of the float32 membership screen, derived on first use:
        _SCREEN_SLACK times a bound on |mu32 - mu| over rows with every
        |kappa_e| <= 2 pi, mu32 the margin from float32 coefficients and
        mu the float64 one.

        With u = 2^-24 the float32 unit roundoff, a kept row n_r with w_r
        nonzero entries (each +-1) and |kappa_e| <= 2 pi:

        - argument: casting the phases to float32 moves n_r . kappa by at
          most u sum |kappa_e| <= 2 pi u w_r, and summing the w_r terms in
          float32 by at most (w_r - 1) u 2 pi w_r, so da_r <= 2 pi u w_r^2;
        - trig: cos and sin are 1-Lipschitz, and float32 ``np.cos`` and
          ``np.sin`` are within tau = _TRIG_ULP 2^-23 of the float64 ones
          on |a| <= 2 pi E (a tier-1 test measures this), so the value t_r
          is off by at most da_r + tau;
        - product: c_j = sum_r t_r S_rj over Rk terms, with S cast to
          float32 and |t_r| <= 1, adds (Rk + 1) u sum_r |S_rj|; a complex
          S is summed as separate real and imaginary columns, so each S_rj
          counts as |Re S_rj| + |Im S_rj|.

        So |dc_j| <= sum_r e_r |S_rj| with e_r = da_r + tau + (Rk + 1) u.
        G = c_0 + 2 Re sum_j c_j exp(i j alpha) moves by at most |dc_0| +
        2 sum_j |dc_j| at every alpha, and so do its exact extremes and mu,
        which is 1-Lipschitz in each; the worst slice of the further
        generators' grid counts.  The slack covers what this leaves out:
        the terms of order u^2, the float64 roundoff of both margins, and
        the critical points of m >= 3 found in float64 from either set of
        coefficients.
        """
        u = 2.0 ** -24
        w = np.abs(self.kappa_freq).sum(axis=1)
        e = 2.0 * np.pi * u * w * w + _TRIG_ULP * 2.0 ** -23 + (len(w) + 1) * u
        size = np.abs(self.series.real) + np.abs(self.series.imag)
        weight = np.where(np.arange(self.series.shape[-1]) > 0, 2.0, 1.0)
        return _SCREEN_SLACK * float(np.max(
            np.einsum("r,rbj,j->b", e, size, weight), initial=0.0))


def compile_secular(bs: BondSystem) -> SecularPolynomial:
    """Compile G of ``bs``; a :class:`GraphError` naming the count when
    the sampling grid has more than COMPILE_BUDGET points or the
    ``series`` more than COMPILE_BUDGET entries.  Five or more generators
    of nonzero flux weight are refused before any determinant: the grid
    of the other generators alone would have more points than that.

    G is sampled on 3 points per edge phase and 2 m_j + 1 per generator,
    which holds every frequency it has exactly once, so the FFT of the
    samples is its coefficient array with no aliasing.  Only one point
    of each +-pair of the edge phase grid and one of each of the
    quasi-momentum grid take a determinant, ((3^E + 1) / 2) ((prod(2 m_j
    + 1) + 1) / 2) in all; the rest of the grid follows from G(kappa,
    -alpha) = G(kappa, alpha) and G(-kappa, alpha) = det S G(kappa,
    alpha).  Coefficients at or below _DROP_TOL are exact zeros lost in
    roundoff and are dropped; the rest give the exact degrees.  The main
    generator keeps frequencies 0..m, a generator of degree 0 its one
    frequency 0 and no grid axis, and each other one is summed at its
    grid points beta, sum_s c_s exp(i s beta).  Use
    ``bs.secular_polynomial``, which compiles once and keeps it.
    """
    E, J = bs.n_edges, bs.generators
    sizes = [3] * E + [2 * m + 1 for m in bs.flux_weight]
    count = math.prod(sizes)                  # exact; 3**E overflows int64
    if count > COMPILE_BUDGET:
        raise GraphError("the grid the secular function is compiled on has "
                         "%d points, above COMPILE_BUDGET = %d"
                         % (count, COMPILE_BUDGET))
    n = GRID_FALLBACK_POINTS
    live = sum(m > 0 for m in bs.flux_weight)
    points = n ** max(live - 1, 0)            # entries of one row of degree 0
    if points > COMPILE_BUDGET:
        raise GraphError("the alpha-series of the secular function has at "
                         "least %d entries, above COMPILE_BUDGET = %d"
                         % (points, COMPILE_BUDGET))
    kappas, k_row, k_own = _half_grid(sizes[:E])
    alphas, a_row, _ = _half_grid(sizes[E:])
    G = real_secular_values(bs, kappas, alphas)[np.ix_(k_row, a_row)]
    G[~k_own] *= bs.parity                    # G(-kappa) = det S G(kappa)
    c = np.fft.fftn(G.reshape(sizes)) / G.size
    c[np.abs(c) <= _DROP_TOL] = 0.0
    c = (c.real if bs.parity == 1 else -c.imag).reshape(len(G), -1)
    freq = ((_grid_index(sizes[:E]) + 1) % 3 - 1).astype(float)  # 0, 1, -1
    lead = freq[np.arange(len(freq)), np.argmax(freq != 0, axis=1)]
    rows = (lead >= 0) & c.any(axis=1)        # n = 0, or first nonzero n_e = 1
    c[lead > 0] *= 2.0                        # the pair n, -n
    c = c[rows].reshape(-1, *sizes[E:])
    freqs = [np.fft.fftfreq(size, 1.0 / size) for size in sizes[E:]]
    degree = tuple(int(np.abs(f[i]).max(initial=0))
                   for f, i in zip(freqs, np.nonzero(c)[1:]))
    m = max(degree, default=0)
    main = degree.index(m) if J else 0
    others = [j for j in range(J) if j != main and degree[j]]
    points = n ** len(others)
    count = len(c) * points * (m + 1)
    if count > COMPILE_BUDGET:
        raise GraphError("the alpha-series of the secular function has %d "
                         "entries, above COMPILE_BUDGET = %d"
                         % (count, COMPILE_BUDGET))
    if J:
        # frequencies 0..m of the main generator last; a generator of
        # degree 0 keeps its one frequency, 0
        keep = tuple(slice(None) if degree[j] else 0
                     for j in range(J) if j != main)
        series = np.moveaxis(c, main + 1, -1)[(slice(None),) + keep
                                              + (slice(m + 1),)]
    else:
        series = c[..., None]
    beta = 2.0 * np.pi * np.arange(n) / n
    for axis, j in enumerate(others, start=1):
        wave = np.exp(1j * np.outer(beta, freqs[j]))
        series = np.moveaxis(np.tensordot(wave, series, axes=(1, axis)),
                             0, axis)
    series = np.ascontiguousarray(series.reshape(len(c), points, m + 1))
    return SecularPolynomial(freq[rows], series, bs.parity, degree)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def _critical_values(c: np.ndarray, m: int) -> np.ndarray:
    """Values of the real trigonometric polynomials c_0 + 2 Re sum_{j=1..m}
    c_j exp(i j alpha) of degree m >= 2 (rows of c) at the 2m + 1
    equispaced points and at the arguments of the 2m roots of sum_j j c_j
    z^(j+m), c_{-j} = conj(c_j), their critical points when on the unit
    circle.  A row whose top nonzero c_j has j = d < m is first
    multiplied by z^(m - d), so that its 2d roots come with 2(m - d) at
    z = 0, which are NaN on the circle.  Non-finite entries past the
    first 2m + 1 mark those and failed roots; the equispaced points keep
    a row with G = 0 exact."""
    j = np.arange(1, m + 1)
    P = np.zeros((len(c), 2 * m + 1), dtype=complex)
    P[:, m + 1:] = j * c[:, 1:]
    P[:, m - 1::-1] = -j * np.conj(c[:, 1:])
    # shift by m - d; the indices below 0 wrap onto the zeros above m + d
    shift = np.argmax(c[:, :0:-1] != 0, axis=1)
    P = np.take_along_axis(P, np.arange(2 * m + 1) - shift[:, None], axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        monic = P[:, :-1] / P[:, -1:]
    C = np.zeros((len(c), 2 * m, 2 * m), dtype=complex)
    idx = np.arange(2 * m - 1)
    C[:, idx + 1, idx] = 1.0
    # a row with G = 0 gets arbitrary, hence harmless, points
    C[:, :, -1] = -np.where(np.isfinite(monic), monic, 0.0)
    roots = np.linalg.eigvals(C)
    with np.errstate(divide="ignore", invalid="ignore"):
        roots /= np.abs(roots)
    z = np.exp(2j * np.pi * np.arange(2 * m + 1) / (2 * m + 1))
    z = np.hstack([np.broadcast_to(z, (len(c), 2 * m + 1)), roots])
    return c[:, :1].real + 2.0 * sum((c[:, k:k + 1] * z ** k).real
                                     for k in range(1, m + 1))


def _extremes(c: np.ndarray, m: int,
              even: bool) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimum and maximum over alpha of the real trigonometric
    polynomials c_0 + 2 Re sum_{j=1..m} c_j exp(i j alpha) of degree m
    (rows of c, shape (n, m + 1)).  Degree 0 is c0 and degree 1 is c0 +
    2|c1| cos(alpha + phase), in closed form.  An ``even`` row of degree
    2 has real c and is c0 + 2 c1 cos(alpha) + 2 c2 cos(2 alpha), the
    quadratic P(x) = c0 - 2 c2 + 2 c1 x + 4 c2 x^2 in x = cos(alpha),
    whose extremes over [-1, 1] are P(+-1) and, when |c1| < 4|c2|, the
    vertex value c0 - 2 c2 - c1^2 / (4 c2).  Other rows take the values
    at the equispaced and the critical points (:func:`_critical_values`),
    skipping failed roots; a NaN row stays NaN."""
    if m <= 1:
        mid, half = c[:, 0].real, 2.0 * np.abs(c[:, 1:]).sum(axis=1)
        return mid - half, mid + half
    if m == 2 and even:
        c0, c1, c2 = c.real.T
        minus, plus = c0 + 2.0 * (c2 - c1), c0 + 2.0 * (c2 + c1)  # P(-+1)
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = np.where(np.abs(c1) < 4.0 * np.abs(c2),
                              c0 - 2.0 * c2 - c1 * c1 / (4.0 * c2), np.nan)
        return (np.fmin(np.minimum(minus, plus), vertex),
                np.fmax(np.maximum(minus, plus), vertex))
    vals = _critical_values(c, m)
    return np.fmin.reduce(vals, axis=1), np.fmax.reduce(vals, axis=1)


def _margin(bs: BondSystem, kappas: np.ndarray,
            precision=np.float64) -> np.ndarray:
    """Membership margin mu = min(ZERO_TOL - min G, max G + ZERO_TOL) of
    each row of edge phases (n, E); a row is a member iff mu >= 0, and NaN
    (a failed sample) is not.  mu is continuous in the row, so along
    kappa = k l the band edges are its roots.  See
    :func:`membership_from_phases` for the extremes.

    With ``precision`` float32 a block of rows whose phases all lie in
    [-2 pi, 2 pi] takes its coefficients c from float32 phases, trig and
    product, upcast to float64 for the extremes.  The result is then only
    a screen: a row whose screened margin is within the polynomial's
    ``screen_bound`` of 0, or not finite, takes the float64 margin, so
    the sign of every returned margin is that of the float64 one.  Any
    other block is float64 throughout."""
    poly = bs.secular_polynomial
    m = poly.series.shape[-1] - 1
    # a complex series as interleaved real and imaginary parts, so that
    # c is one real product, read back as complex
    series = poly.series.reshape(len(poly.series), -1).view(float)
    freq = poly.kappa_freq.T
    screen = precision == np.float32
    if screen:
        series32, freq32 = series.astype(np.float32), freq.astype(np.float32)
    trig = np.cos if poly.parity == 1 else np.sin
    even = poly.series.shape[1] == 1
    block = max(1, _BLOCK_VALUES // max(series.shape[1], len(series)))
    margin = np.empty(len(kappas))
    for i in range(0, len(kappas), block):
        rows = kappas[i:i + block]
        # the bound holds for |kappa_e| <= 2 pi; a NaN fails this too
        low = screen and rows.max() <= 2 * np.pi and rows.min() >= -2 * np.pi
        if low:
            c = trig(rows.astype(np.float32) @ freq32) @ series32
            c = c.astype(float)
        else:
            c = trig(rows @ freq) @ series
        c = c.view(poly.series.dtype).reshape(-1, m + 1)
        lo, hi = _extremes(c, m, even)
        mu = margin[i:i + block]
        np.minimum(ZERO_TOL - lo.reshape(len(rows), -1).min(axis=1),
                   hi.reshape(len(rows), -1).max(axis=1) + ZERO_TOL, out=mu)
        if low:
            redo = ~(np.abs(mu) > poly.screen_bound)          # NaN too
            mu[redo] = _margin(bs, rows[redo])
    return margin


def membership_from_phases(bs: BondSystem, kappas) -> np.ndarray:
    """Spectrum membership for rows of edge phases, shape (n, E).

    This is the kernel shared by momentum scans (kappa = k l) and torus
    sampling.  A row is a member iff the real secular function G changes
    sign or touches zero over the quasi-momenta: min G <= ZERO_TOL and
    max G >= -ZERO_TOL along the generator of highest degree m, for every
    point of the GRID_FALLBACK_POINTS grid over the other generators of
    nonzero degree together.  The extremes along that generator come from
    the coefficients c_0..c_m of G along it, one matrix product with the
    compiled ``series``: in closed form when m <= 1 (|c0| <= 2|c1| +
    ZERO_TOL) and when m = 2 with one generator of nonzero degree (a
    one-slice series), where G is even in alpha, and from the values at
    2m + 1 equispaced and at the critical points otherwise.  ZERO_TOL is
    absolute; it lets the noise of touching zeros (band edges, flat
    bands) count as zero.
    The test is the sign of the margin min(ZERO_TOL - min G, max G +
    ZERO_TOL): in IEEE arithmetic a - b >= 0 holds exactly when a >= b,
    so it decides as the two comparisons do.

    Rows are screened in float32 (see :func:`_margin`): a row whose
    float32 margin is farther than the polynomial's bound B from 0 is
    decided by its sign, and the rest, with any block of rows holding a
    phase outside [-2 pi, 2 pi] or a NaN, take the float64 margin.  B
    bounds the float32 error of the margin with a slack of
    _SCREEN_SLACK (:attr:`SecularPolynomial.screen_bound`), so the result
    is the sign of the float64 margin on every row.

    G and its exact degrees come from the compiled polynomial
    ``bs.secular_polynomial``, which raises :class:`GraphError` for a
    graph above COMPILE_BUDGET (always from 5 generators of nonzero
    flux weight on).
    """
    return _margin(bs, _edge_phases(bs, kappas), np.float32) >= 0


def _momentum_margin(bs: BondSystem, ks) -> np.ndarray:
    """Membership margin (see :func:`_margin`) over an array of momenta."""
    ks = np.asarray(ks, dtype=float)
    kappas = ks.reshape(-1, 1) * bs.bond_lengths[None, :bs.n_edges]
    return _margin(bs, kappas).reshape(ks.shape)


def momentum_membership(bs: BondSystem, ks) -> np.ndarray:
    """Vectorized spectrum indicator over an array of momenta."""
    return _momentum_margin(bs, ks) >= 0


def in_spectrum(bs: BondSystem, k: float) -> bool:
    """True iff momentum k lies in the spectrum of the periodic graph."""
    return bool(momentum_membership(bs, np.array([k]))[0])


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
    (:func:`_refine_edges`); the edge is the bracket's midpoint.  The
    default grid step pi / (8 L) puts 16 samples per period of the
    fastest oscillation of the secular function (L = total graph
    length).  The scan is not certified: a band or gap narrower than the
    step can fall between two grid points and is then missed.  On a
    generic lasso over [0, 200] the default step finds 360 interior band
    edges where a dense count of sign changes finds 408.  The refinement
    runs on all detected edges at once, one batched margin sweep per
    round, and takes at most ceil(log2(step / bisect_tol)) + 1 rounds; a
    smooth edge takes about 6.  A ``bisect_tol`` below two float spacings
    at k_max is raised to that; ``BandList.bisect_tol`` is the one used.
    """
    for name, value in (("k_max", k_max), ("grid_step", grid_step),
                        ("bisect_tol", bisect_tol)):
        if value is not None and not 0 < value < np.inf:    # NaN fails too
            raise ValueError("%s must be positive and finite, got %r"
                             % (name, value))
    step = grid_step if grid_step is not None else np.pi / (8.0 * bs.total_length)
    tol = bisect_tol if bisect_tol is not None else 1e-10 * max(1.0, k_max)
    tol = max(tol, 2.0 * np.spacing(float(k_max)))  # else it never ends

    n = int(np.ceil(k_max / step))
    grid = np.linspace(0.0, k_max, n + 1)
    margin = _momentum_margin(bs, grid)
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


def measure_below(bands: BandList, cutoffs) -> np.ndarray:
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
    if checkpoints < 1:
        raise ValueError("checkpoints must be at least 1")
    bands = band_intervals(bs, k_max, grid_step, bisect_tol)
    if checkpoints == 1:
        cutoffs = np.array([k_max], dtype=float)
    else:
        cutoffs = np.geomspace(k_max / 100.0, k_max, checkpoints)
        cutoffs[-1] = k_max
    values = measure_below(bands, cutoffs) / cutoffs
    return DensitySeries(cutoffs=cutoffs, values=values, bands=bands)

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
flux weight m_j (Barra-Gaspard, J. Stat. Phys. 101, 2000).  It is
compiled once per bond system: determinants on the grid of 3 points per
edge and 2 m_j + 1 per generator give its coefficients exactly by FFT,
and only the nonzero ones are kept (:class:`SecularPolynomial`), which
also gives the exact degree d_j <= m_j.  A membership row then costs a
few cosines and sines and two small matrix products instead of 2m + 1
determinants.  Graphs whose grid exceeds COMPILE_BUDGET determinants
take G samples from LU determinants instead, with the flux weight as
the degree.

Along the generator of highest degree m G is sampled at 2m + 1
equispaced points.  For m = 1 it is c0 + 2|c1| cos(alpha + phase), so a
row is a member iff |c0| <= 2|c1| (+ ZERO_TOL).  With one generator G
is even in alpha, because S is symmetric under bond reversal, so for
m = 2 it is a quadratic in cos(alpha) with closed-form extremes on
[-1, 1].  For m >= 3, and along the main generator when J >= 2, where a
slice of G is not even, the critical points, roots of a companion
eigenproblem, make the minimum and maximum along that axis exact.
Further generators are sampled on a grid of GRID_FALLBACK_POINTS points
each; the extremes are taken over the whole grid.  Extra evaluation
points never create a false member.

The one tolerance, ZERO_TOL, absorbs roundoff at touching zeros: band
edges such as k = 0 or kappa = 0, and flat bands, where G vanishes
identically in alpha, evaluate to noise of either sign.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bond_system import BondSystem
from .secular import secular_values

ZERO_TOL = 1e-12             # |G| at or below which a value counts as zero
GRID_FALLBACK_POINTS = 64    # quasi-momentum grid per extra generator, J >= 2
COMPILE_BUDGET = 20_000      # most determinants a compile of G may take
# Coefficients of G are sums of products of scattering amplitudes 2/d;
# on every graph tried the nonzero ones were >= 0.005 and the FFT noise
# of the zero ones <= 5e-16, so the cut sits far from both.
_DROP_TOL = 1e-9
_BLOCK_VALUES = 1 << 18      # values per block of membership rows; bounds memory


# ---------------------------------------------------------------------------
# the real secular function G
# ---------------------------------------------------------------------------

def _grid(sizes) -> np.ndarray:
    """Equispaced torus points, sizes[i] along axis i, the last axis
    varying fastest; shape (prod(sizes), len(sizes))."""
    index = np.array(list(itertools.product(*map(range, sizes))), dtype=float)
    return index * (2.0 * np.pi / np.array(sizes, dtype=float))


def _edge_phases(bs: BondSystem, kappas) -> np.ndarray:
    """``kappas`` as a float array of edge phase rows, shape (n, E)."""
    kappas = np.asarray(kappas, dtype=float)
    if kappas.ndim != 2 or kappas.shape[1] != bs.n_edges:
        raise ValueError("kappas must have shape (n, %d)" % bs.n_edges)
    return kappas


def real_secular_values(bs: BondSystem, kappas, alphas,
                        threads: int | None = None) -> np.ndarray:
    """G = exp(-i sum(kappa)) F from LU determinants at every pair of an
    edge phase row (n, E) and a quasi-momentum row (NA, J): its real part
    when det S = +1, its imaginary part when det S = -1; shape (n, NA).
    ``threads`` splits the determinant work."""
    kappas = _edge_phases(bs, kappas)
    F = secular_values(bs, kappas[:, bs.edge_of_bond], alphas, threads)
    F *= np.exp(-1j * kappas.sum(axis=1))[:, None]
    return F.real if bs.parity == 1 else F.imag


@dataclass(frozen=True)
class SecularPolynomial:
    """The real secular function G as a sparse trigonometric polynomial,

        G(kappa; alpha) = Re sum_{r, s} coef[r, s] exp(i kappa_freq[r] . kappa)
                                                   exp(i alpha_freq[s] . alpha),

    over the monomials whose coefficient is nonzero.  G is real, so the
    coefficients of n and -n are conjugate: ``kappa_freq`` holds one of
    each pair (entries in {-1, 0, 1}, first nonzero entry 1) and ``coef``
    twice its coefficients, plus the n = 0 row once.  ``monomials`` counts
    the nonzero coefficients of G before that folding.  ``degree`` is the
    exact degree of G in each quasi-momentum, at most its flux weight.
    """

    kappa_freq: np.ndarray       # (Rk, E) float, integer valued
    alpha_freq: np.ndarray       # (Ra, J) float, integer valued
    coef: np.ndarray             # (Rk, Ra) complex
    monomials: int

    @property
    def degree(self) -> tuple[int, ...]:
        return tuple(int(d) for d in
                     np.abs(self.alpha_freq).max(axis=0, initial=0))

    def values(self, kappas, alphas) -> np.ndarray:
        """G at every pair of an edge phase row (n, E) and a quasi-momentum
        row (NA, J); shape (n, NA)."""
        D = self.coef @ np.exp(1j * (self.alpha_freq @ alphas.T))
        theta = kappas @ self.kappa_freq.T
        return np.cos(theta) @ D.real - np.sin(theta) @ D.imag


def compile_secular(bs: BondSystem) -> SecularPolynomial | None:
    """Compile G of ``bs``, or None when the sampling grid needs more than
    COMPILE_BUDGET determinants.

    G is sampled on 3 points per edge phase and 2 m_j + 1 per generator,
    which holds every frequency it has exactly once, so the FFT of the
    samples is its coefficient array with no aliasing.  Coefficients at
    or below _DROP_TOL are exact zeros lost in roundoff and are dropped.
    Use ``bs.secular_polynomial``, which compiles once and keeps it.
    """
    E = bs.n_edges
    sizes = [3] * E + [2 * m + 1 for m in bs.flux_weight]
    if math.prod(sizes) > COMPILE_BUDGET:       # exact; 3**E overflows int64
        return None
    kappas, alphas = _grid(sizes[:E]), _grid(sizes[E:])
    G = real_secular_values(bs, kappas, alphas)
    c = np.fft.fftn(G.reshape(sizes)) / G.size
    kept = np.nonzero(np.abs(c) > _DROP_TOL)
    freq = np.stack([np.fft.fftfreq(n, 1.0 / n)[i]
                     for n, i in zip(sizes, kept)], axis=1)
    lead = freq[np.arange(len(freq)), np.argmax(freq[:, :E] != 0, axis=1)]
    half = lead >= 0                          # n = 0, or first nonzero n_e = 1
    kappa_freq, r = np.unique(freq[half, :E], axis=0, return_inverse=True)
    alpha_freq, s = np.unique(freq[half, E:], axis=0, return_inverse=True)
    coef = np.zeros((len(kappa_freq), len(alpha_freq)), dtype=complex)
    coef[r.ravel(), s.ravel()] = np.where(lead[half] > 0, 2.0, 1.0) * c[kept][half]
    return SecularPolynomial(kappa_freq, alpha_freq, coef, len(freq))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def _alpha_grid(degrees) -> tuple[np.ndarray, int]:
    """Quasi-momentum rows and the degree m of the generator of highest
    degree, which takes 2m + 1 equispaced samples and varies fastest;
    every other generator takes GRID_FALLBACK_POINTS."""
    J = len(degrees)
    if J == 0:
        return np.zeros((1, 0)), 0
    main = int(np.argmax(degrees))
    order = [j for j in range(J) if j != main] + [main]
    sizes = [GRID_FALLBACK_POINTS] * (J - 1) + [2 * degrees[main] + 1]
    return _grid(sizes)[:, np.argsort(order)], degrees[main]


def _critical_values(G: np.ndarray, m: int) -> np.ndarray:
    """Values of the real trigonometric polynomials of degree m >= 2
    sampled at 2m + 1 equispaced points (rows of G) at the arguments of
    the 2m roots of sum_j j c_j z^(j+m), their critical points when on
    the unit circle.  Non-finite entries mark failed roots."""
    N = G.shape[1]
    c = np.fft.rfft(G, axis=1) / N            # c_0..c_m; c_{-j} = conj(c_j)
    j = np.arange(1, m + 1)
    P = np.zeros((len(G), N), dtype=complex)
    P[:, m + 1:] = j * c[:, 1:]
    P[:, m - 1::-1] = -j * np.conj(c[:, 1:])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        monic = P[:, :-1] / P[:, -1:]
    C = np.zeros((len(G), 2 * m, 2 * m), dtype=complex)
    idx = np.arange(2 * m - 1)
    C[:, idx + 1, idx] = 1.0
    # a row with a vanishing lead gets arbitrary, hence harmless, points
    C[:, :, -1] = -np.where(np.isfinite(monic), monic, 0.0)
    z = np.linalg.eigvals(C)
    with np.errstate(divide="ignore", invalid="ignore"):
        z /= np.abs(z)
    vals = np.repeat(c[:, :1].real, 2 * m, axis=1)
    w = np.ones_like(z)
    for jj in range(1, m + 1):
        w *= z
        vals += 2.0 * (c[:, jj:jj + 1] * w).real
    return vals


def _extremes(G: np.ndarray, m: int,
              even: bool) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimum and maximum over alpha of the real trigonometric
    polynomials of degree m sampled at 2m + 1 equispaced points (rows of
    G).  Degree 1 is c0 + 2|c1| cos(alpha + phase), in closed form.  An
    ``even`` row of degree 2 is c0 + 2 c1 cos(alpha) + 2 c2 cos(2 alpha),
    the quadratic P(x) = c0 - 2 c2 + 2 c1 x + 4 c2 x^2 in x = cos(alpha),
    whose extremes over [-1, 1] are P(+-1) and, when |c1| < 4|c2|, the
    vertex value c0 - 2 c2 - c1^2 / (4 c2).  Other rows add the values
    at the critical points to those of the samples."""
    if m == 1:
        c = np.fft.rfft(G, axis=1) / 3.0
        mid, half = c[:, 0].real, 2.0 * np.abs(c[:, 1])
        return mid - half, mid + half
    if m == 2 and even:
        c0, c1, c2 = (np.fft.rfft(G, axis=1).real / 5.0).T  # even projection
        minus, plus = c0 + 2.0 * (c2 - c1), c0 + 2.0 * (c2 + c1)  # P(-+1)
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = np.where(np.abs(c1) < 4.0 * np.abs(c2),
                              c0 - 2.0 * c2 - c1 * c1 / (4.0 * c2), np.nan)
        return (np.fmin(np.minimum(minus, plus), vertex),
                np.fmax(np.maximum(minus, plus), vertex))
    lo, hi = G.min(axis=1), G.max(axis=1)
    if m >= 2:
        vals = _critical_values(G, m)
        np.fmin(lo, np.fmin.reduce(vals, axis=1), out=lo)
        np.fmax(hi, np.fmax.reduce(vals, axis=1), out=hi)
    return lo, hi


def membership_from_phases(bs: BondSystem, kappas,
                           threads: int | None = None) -> np.ndarray:
    """Spectrum membership for rows of edge phases, shape (n, E).

    This is the kernel shared by momentum scans (kappa = k l) and torus
    sampling.  A row is a member iff the real secular function G changes
    sign or touches zero over the quasi-momenta: min G <= ZERO_TOL and
    max G >= -ZERO_TOL along the generator of highest degree m, for every
    point of the GRID_FALLBACK_POINTS grid over the other generators
    together.  The extremes along that generator come from 2m + 1
    samples: in closed form when m = 1 (|c0| <= 2|c1| + ZERO_TOL) and
    when m = 2 on a one-generator graph, where G is even in alpha, and
    with the critical points otherwise.  ZERO_TOL is absolute; it lets
    the noise of touching zeros (band edges, flat bands) count as zero.

    G and its exact degrees come from the compiled polynomial
    ``bs.secular_polynomial``.  Graphs above COMPILE_BUDGET take LU
    determinants and the flux weights as degrees; ``threads`` splits only
    that determinant work.
    """
    kappas = _edge_phases(bs, kappas)
    poly = bs.secular_polynomial
    degrees = bs.flux_weight if poly is None else poly.degree
    alphas, m = _alpha_grid(degrees)
    width = len(alphas) if poly is None else max(len(alphas), len(poly.coef))
    block = max(1, _BLOCK_VALUES // width)
    member = np.empty(len(kappas), dtype=bool)
    for i in range(0, len(kappas), block):
        rows = kappas[i:i + block]
        if poly is None:
            G = real_secular_values(bs, rows, alphas, threads)
        else:
            G = poly.values(rows, alphas)
        lo, hi = _extremes(G.reshape(-1, 2 * m + 1), m,
                           even=len(degrees) == 1)
        member[i:i + block] = ((lo.reshape(len(rows), -1).min(axis=1) <= ZERO_TOL)
                               & (hi.reshape(len(rows), -1).max(axis=1)
                                  >= -ZERO_TOL))
    return member


def momentum_membership(bs: BondSystem, ks,
                        threads: int | None = None) -> np.ndarray:
    """Vectorized spectrum indicator over an array of momenta."""
    ks = np.asarray(ks, dtype=float)
    kappas = ks.reshape(-1, 1) * bs.bond_lengths[None, :bs.n_edges]
    return membership_from_phases(bs, kappas, threads).reshape(ks.shape)


def in_spectrum(bs: BondSystem, k: float) -> bool:
    """True iff momentum k lies in the spectrum of the periodic graph."""
    return bool(momentum_membership(bs, np.array([k]))[0])


# ---------------------------------------------------------------------------
# bands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Band:
    """Closed momentum interval contained in the spectrum."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("band endpoints must be finite")
        if self.hi < self.lo:
            raise ValueError("band with hi < lo")

    @property
    def measure(self) -> float:
        return self.hi - self.lo


@dataclass(frozen=True)
class BandList:
    """Ordered pairwise-disjoint bands found in [0, k_max]."""

    bands: tuple[Band, ...]
    k_max: float
    grid_step: float
    bisect_tol: float

    def __post_init__(self):
        prev = 0.0
        for b in self.bands:
            if b.lo < prev - self.bisect_tol or b.hi > self.k_max + self.bisect_tol:
                raise ValueError("bands out of order or outside [0, k_max]")
            prev = b.hi

    @property
    def total_measure(self) -> float:
        return float(sum(b.measure for b in self.bands))

    @property
    def coverage(self) -> float:
        """Fraction of [0, k_max] covered by bands."""
        return self.total_measure / self.k_max


def band_intervals(bs: BondSystem, k_max: float,
                   grid_step: float | None = None,
                   bisect_tol: float | None = None,
                   threads: int | None = None) -> BandList:
    """Locate the spectral bands in [0, k_max].

    Membership is sampled on a uniform grid and every sign change is
    sharpened by bisection on the membership indicator.  The default grid
    step pi / (8 L) puts 16 samples per period of the fastest oscillation
    of the secular function (L = total graph length).  The scan is not
    certified: a band or gap narrower than the step can fall between two
    grid points and is then missed.  On a generic lasso over [0, 200]
    the default step finds 360 interior band edges where a dense count
    of sign changes finds 408.  Bisection runs simultaneously on all
    detected edges, so the cost is a handful of batched membership
    sweeps.  A ``bisect_tol`` below two float spacings at k_max is raised
    to that; ``BandList.bisect_tol`` is the one used.  ``threads`` splits
    only LU determinant work (graphs above COMPILE_BUDGET).
    """
    if k_max <= 0:
        raise ValueError("k_max must be positive")
    step = grid_step if grid_step is not None else np.pi / (8.0 * bs.total_length)
    if step <= 0:
        raise ValueError("grid_step must be positive")
    tol = bisect_tol if bisect_tol is not None else 1e-10 * max(1.0, k_max)
    if tol <= 0:
        raise ValueError("bisect_tol must be positive")
    tol = max(tol, 2.0 * np.spacing(float(k_max)))  # else it never ends

    n = int(np.ceil(k_max / step))
    grid = np.linspace(0.0, k_max, n + 1)
    mem = momentum_membership(bs, grid, threads)

    ti = np.nonzero(mem[:-1] != mem[1:])[0]
    lo, hi = grid[ti].copy(), grid[ti + 1].copy()
    left_state = mem[ti]
    while lo.size and np.any(hi - lo > tol):
        mid = 0.5 * (lo + hi)
        same = momentum_membership(bs, mid, threads) == left_state
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    edges = 0.5 * (lo + hi)

    intervals = []
    start = 0.0 if mem[0] else None
    for x, was_in in zip(edges, left_state):
        if was_in:
            intervals.append((start, x))
            start = None
        else:
            start = x
    if start is not None:
        intervals.append((start, k_max))

    merged = []
    for a, b in intervals:
        if merged and a - merged[-1][1] <= tol:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))

    return BandList(bands=tuple(Band(a, b) for a, b in merged),
                    k_max=float(k_max), grid_step=float(step),
                    bisect_tol=float(tol))


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
    if not bands.bands:
        return np.zeros(cutoffs.shape)
    starts = np.array([b.lo for b in bands.bands])
    ends = np.array([b.hi for b in bands.bands])
    cum = np.concatenate([[0.0], np.cumsum(ends - starts)])
    idx = np.searchsorted(ends, cutoffs, side="left")
    full = cum[idx]
    partial = np.where(idx < len(starts),
                       np.clip(cutoffs - starts[np.minimum(idx, len(starts) - 1)],
                               0.0, None),
                       0.0)
    return full + partial


def density(bs: BondSystem, k_max: float, checkpoints: int = 16,
            grid_step: float | None = None, bisect_tol: float | None = None,
            threads: int | None = None) -> DensitySeries:
    """Band density of the spectrum with a convergence trace.

    Bands are located once over [0, k_max]; the density is then reported
    at ``checkpoints`` cutoffs spaced geometrically over the last two
    decades up to k_max, which makes the convergence of the K -> infinity
    limit visible at no extra band-finding cost.
    """
    if checkpoints < 1:
        raise ValueError("checkpoints must be at least 1")
    bands = band_intervals(bs, k_max, grid_step, bisect_tol, threads)
    if checkpoints == 1:
        cutoffs = np.array([k_max], dtype=float)
    else:
        cutoffs = np.geomspace(k_max / 100.0, k_max, checkpoints)
        cutoffs[-1] = k_max
    values = measure_below(bands, cutoffs) / cutoffs
    return DensitySeries(cutoffs=cutoffs, values=values, bands=bands)

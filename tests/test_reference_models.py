import math
from dataclasses import replace
from decimal import Decimal, localcontext
from statistics import NormalDist

import numpy as np
import pytest

import graphbands as gb
import graphbands.reference_models as rm
from conftest import (DIHEDRAL_RHO, dihedral_membership, dihedral_secular,
                      lasso_membership, phi_lasso)

TRIANGLE = gb.MagneticGraph(
    vertices=(0, 1, 2),
    edges=(gb.Edge(1, 0, 1, 1.0), gb.Edge(2, 1, 2, 1.0),
           gb.Edge(3, 2, 0, 1.0)),
    generators=0)


# ------------------------------------------------------------ closed forms

def test_closed_form_reference_value():
    ref = gb.lasso_reference_density()
    assert ref.method == "closed_form"
    assert ref.error_bound <= 1e-14
    assert ref.value == pytest.approx(0.6368335201743935, abs=1e-15)
    assert round(ref.value, 2) == 0.64
    # independent route: Gauss-Legendre on the defining integral
    #   (2 / pi^2) * integral_0^pi arctan(2 cot(kappa / 2)) dkappa
    nodes, weights = np.polynomial.legendre.leggauss(64)
    kappa = 0.5 * np.pi * (nodes + 1.0)
    integral = 0.5 * np.pi * weights @ np.arctan2(2.0, np.tan(0.5 * kappa))
    assert abs(2.0 / np.pi ** 2 * integral - ref.value) <= 1e-14


def test_phi_lasso_values():
    assert phi_lasso(0.0, 0.0, 0.0) == 0.0
    # solving phi = 0 for alpha and substituting back gives zero
    rng = np.random.default_rng(0)
    for _ in range(30):
        k1, k2 = rng.uniform(0, 2 * np.pi, 2)
        if abs(np.cos(k2)) < 1e-3:
            continue
        c = np.cos(k1) - np.sin(k1) * np.sin(k2) / (2 * np.cos(k2))
        if abs(c) <= 1:
            alpha = np.arccos(c)
            assert abs(phi_lasso(k1, k2, alpha)) <= 1e-12


def test_lasso_membership_matches_alpha_solvability():
    rng = np.random.default_rng(1)
    k1 = rng.uniform(0, 2 * np.pi, 3000)
    k2 = rng.uniform(0, 2 * np.pi, 3000)
    member = lasso_membership(k1, k2)
    # phi is a degree-1 trig polynomial in alpha, so 4 samples determine
    # it exactly; solvability = a root of the matching quadratic on |z|=1
    alphas = np.linspace(0, 2 * np.pi, 4, endpoint=False)
    phi = phi_lasso(k1[:, None], k2[:, None], alphas[None, :])
    c = np.fft.fft(phi, axis=1) / 4
    dist = np.empty(len(k1))
    for i in range(len(k1)):
        roots = np.roots([c[i, 1], c[i, 0], c[i, 3]])
        dist[i] = np.abs(np.abs(roots) - 1.0).min() if len(roots) else np.inf
    decisive = (dist <= 1e-7) | (dist >= 1e-5)
    assert decisive.mean() >= 0.995
    assert np.array_equal(member[decisive], dist[decisive] <= 1e-7)


def test_lasso_membership_tan_singular_line():
    # cos(kappa2) = 0: member exactly when sin(kappa1) = 0.  kappa1 = 0
    # is exact in floating point (sin(pi) is not, so only 0 is usable).
    assert lasso_membership(0.0, np.pi / 2)
    assert lasso_membership(0.0, 3 * np.pi / 2)
    assert not lasso_membership(1.0, np.pi / 2)


def test_dihedral_secular_consistency():
    rng = np.random.default_rng(2)
    k = rng.uniform(0, 2 * np.pi, (200, 3))
    member = dihedral_membership(k[:, 0], k[:, 1], k[:, 2])
    alphas = np.linspace(0, 2 * np.pi, 4001)
    vals = np.abs(dihedral_secular(k[:, 0, None], k[:, 1, None],
                                   k[:, 2, None], alphas[None, :]))
    brute = vals.min(axis=1) <= 2e-3
    assert np.mean(member == brute) >= 0.995


def test_dihedral_density_frozen_regression():
    ref = gb.dihedral_density(100_000)
    assert ref.method == "quadrature"
    assert ref.value == pytest.approx(DIHEDRAL_RHO, abs=1e-14)
    assert gb.dihedral_density(100_000) == ref
    for samples in (0, 168):            # below the 13 x 13 grid of h = 1/2
        with pytest.raises(ValueError):
            gb.dihedral_density(samples)


# ----------------------------------------------- exact k1-share, in (a, b)

def dense_k1_share(k2, k3, n=200_000):
    # midpoint count of dihedral_membership along k1; each of the at most
    # four arc ends costs at most 1/n
    k1 = (np.arange(n) + 0.5) * (2 * np.pi / n)
    return np.count_nonzero(dihedral_membership(k1, k2, k3)) / n


def k1_share(k2, k3):
    # the share at the points (k2, k3), elementwise, through a = (k2 + k3)/2
    # and b = (k3 - k2)/2
    k2, k3 = np.broadcast_arrays(np.atleast_1d(k2), np.atleast_1d(k3))
    return rm._k1_angle((k2 + k3) / 2, (k3 - k2) / 2) / (np.pi / 2)


def k1_measure(k2, k3):
    return float(k1_share(k2, k3)[0])


def test_k1_measure_matches_dense_membership_count():
    rng = np.random.default_rng(12)
    k23 = rng.uniform(0, 2 * np.pi, (30, 2))
    points = [k1_measure(k2, k3) for k2, k3 in k23]
    for (k2, k3), share in zip(k23, points):
        assert abs(share - dense_k1_share(k2, k3)) <= 2e-5
    # the grid of the 30 a rows and 30 b columns holds them on its diagonal
    a, b = (k23[:, 0] + k23[:, 1]) / 2, (k23[:, 1] - k23[:, 0]) / 2
    grid = rm._k1_angle(a[:, None], b) / (np.pi / 2)
    assert grid.shape == (30, 30)
    assert np.allclose(np.diag(grid), points, rtol=0, atol=1e-15)
    assert abs(grid[3, 7] - k1_measure(a[3] - b[7], a[3] + b[7])) <= 1e-15


def nested_k1_share(s2, c2, s3, c3):
    # the share as a nested elementwise formula in g and cos(k2 + k3)
    h = 0.5 * (s2 * s3)
    g = 1.0 + h
    r2 = 1.0 + g * (g - 2.0 * (c2 * c3 - 2.0 * h))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos2t = 1.0 - 2.0 * (s2 + s3) ** 2 / r2
    return np.arccos(np.fmax(cos2t, -1.0)) / np.pi, r2 / 2


def sin_cos_80(x):
    # sin and cos of the Decimal x to 80 digits, by their Taylor series
    sin = cos = Decimal(0)
    term, n = Decimal(1), 0
    while n < 4 or abs(term) > Decimal(10) ** -85:
        if n % 2:
            sin += term if n % 4 == 1 else -term
        else:
            cos += term if n % 4 == 0 else -term
        n += 1
        term = term * x / n
    return sin, cos


def share_80(a, b):
    # the share (2/pi) arcsin(|s2 + s3| / R) of the nested formula at
    # (k2, k3) = (a - b, a + b) for floats a, b, with R^2 = 1 + g (g - 2
    # cos(k2 + k3)) evaluated at 80 digits and written as 1 - (4/pi)
    # arcsin(y), y = sqrt((1 - |s2 + s3| / R) / 2), so that the float64
    # arcsin at the end adds only its own rounding
    with localcontext() as ctx:
        ctx.prec = 80
        k2, k3 = Decimal(a) - Decimal(b), Decimal(a) + Decimal(b)
        (s2, c2), (s3, c3) = sin_cos_80(k2), sin_cos_80(k3)
        g = 1 + s2 * s3 / 2
        r2 = 1 + g * (g - 2 * (c2 * c3 - s2 * s3))
        y = ((1 - abs(s2 + s3) / r2.sqrt()) / 2).sqrt()
    return 1.0 - 4.0 / math.pi * math.asin(float(y))


def test_k1_measure_matches_nested_formula_on_shifted_grids():
    n = 353                     # the grids of the earlier 2M-point estimate
    for u2, u3 in np.random.Generator(np.random.Philox(20)).random((5, 2)):
        k2 = (np.arange(n) + u2) * (2 * np.pi / n)
        k3 = (np.arange(n) + u3) * (2 * np.pi / n)
        a, b = (k2[:, None] + k3) / 2, (k3 - k2[:, None]) / 2
        got = rm._k1_angle(a, b) / (np.pi / 2)
        want, half_r2 = nested_k1_share(np.sin(k2)[:, None],
                                        np.cos(k2)[:, None],
                                        np.sin(k3), np.cos(k3))
        # the nested form builds R^2 / 2 from terms of order 1 with a
        # roundoff of about 1e-16, which its share amplifies as 1 / R^2
        # near R = 0 (k2 = k3 in {0, pi}), and its arccos further where
        # the share is near 0 or 1.  Where it misses by more than 1e-13 /
        # (R^2 / 2) (1 of the 623,045 points: share 2e-6 beside the line
        # s2 + s3 = 0, off by 1.8e-12), the new share is checked at 80
        # digits at its own (a - b, a + b) instead.
        off = np.argwhere(np.abs(got - want) > 1e-13 / half_r2)
        assert len(off) <= 3
        for i, j in off:
            assert abs(got[i, j] - share_80(a[i, j], b[i, j])) <= 1e-15
        far = half_r2 >= 1e-5
        assert abs(got[far].mean() - want[far].mean()) <= 1e-13
        assert abs(got.mean() - want.mean()) <= 1e-8
    # the identity behind the new form: R^2 - (s2 + s3)^2 = (3 sin^2 a +
    # sin^2 b)^2 / 4, checked where neither side is small
    k2, k3 = np.random.default_rng(20).uniform(-10, 10, (2, 1000))
    a, b = (k2 + k3) / 2, (k3 - k2) / 2
    g = 1.0 + 0.5 * np.sin(k2) * np.sin(k3)
    r2 = 1.0 + g * (g - 2.0 * np.cos(k2 + k3))
    rest = (3 * np.sin(a) ** 2 + np.sin(b) ** 2) ** 2 / 4
    assert np.allclose(r2 - (np.sin(k2) + np.sin(k3)) ** 2, rest,
                       rtol=0, atol=1e-14)


def test_k1_measure_on_the_opposite_line_and_at_r_zero():
    # k3 = -k2: the right side |sin k2 + sin k3| is 0 and R > 0, so no k1
    # is inside; at (0, 0) R = 0 and the left side is 0 for every k1
    for k2 in np.random.default_rng(13).uniform(0.1, 3.0, 10):
        assert k1_measure(k2, -k2) == 0.0 == dense_k1_share(k2, -k2)
    assert k1_measure(0.0, 0.0) == 1.0 == dense_k1_share(0.0, 0.0)
    near = np.random.default_rng(14).normal(0.0, 1e-7, 200)
    for center in (0.0, np.pi):
        shares = k1_share(center + near, center + near[::-1])
        assert np.all((shares >= 0.0) & (shares <= 1.0))


def rank5_k1_share(k2, k3):
    """The share on the grid of k2 rows and k3 columns in the form of the
    earlier kernel: R^2 / 2 = 1 + 1.5 P + 0.625 P^2 - Q - 0.5 P Q (P = s2
    s3, Q = c2 c3) as one rank-5 matrix product, clamped at 0, and the
    share arccos(max(-1, 1 - (s2 + s3)^2 / (R^2 / 2))) / pi."""
    s2, c2, s3, c3 = np.sin(k2), np.cos(k2), np.sin(k3), np.cos(k3)
    one2, one3 = np.ones_like(s2), np.ones_like(s3)
    half_r2 = (np.array([one2, 1.5 * s2, 0.625 * s2 * s2, -c2,
                         -0.5 * s2 * c2]).T
               @ np.array([one3, s3, s3 * s3, c3, s3 * c3]))
    np.fmax(half_r2, 0.0, out=half_r2)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = 1.0 - np.add.outer(s2, s3) ** 2 / half_r2
    return np.arccos(np.fmax(x, -1.0)) / np.pi


def test_k1_share_near_r_zero_matches_an_80_digit_evaluation():
    # 200 points 1e-9 to 1e-5 away from k2 = k3 in {0, pi}, on multiples
    # of 2^-50 so that k2, k3 and a = (k2 + k3)/2, b = (k3 - k2)/2 are all
    # exact floats.  There R^2 - (s2 + s3)^2 is of order d^4: the nested
    # formula needs about 50 digits (np.longdouble misses by up to 0.7),
    # and the rank-5 form of the earlier kernel misses by far more than
    # 1e-15, while the new form has no cancellation.
    rng = np.random.default_rng(15)
    quantum = 2.0 ** -50
    new, old = [], []
    for center in (0.0, math.pi):
        for _ in range(100):
            d, angle = 10 ** rng.uniform(-9, -5), rng.uniform(0, 2 * np.pi)
            u = round(d * math.cos(angle) / quantum) * quantum
            v = round(d * math.sin(angle) / quantum) * quantum
            k2, k3 = center + u, center + v
            a, b = center + (u + v) / 2, (v - u) / 2
            assert 2 * Decimal(a) == Decimal(k2) + Decimal(k3)
            assert 2 * Decimal(b) == Decimal(k3) - Decimal(k2)
            want = share_80(a, b)
            new.append(abs(rm._k1_angle(np.array([a]), b)[0] / (np.pi / 2)
                           - want))
            old.append(abs(rank5_k1_share(np.array([k2]), np.array([k3]))
                           [0, 0] - want))
    assert max(new) <= 1e-15
    assert max(old) > 1e-6


def shifted_grid_density(samples, seed, shifts=16):
    """The earlier estimate of the dihedral density: the rank-5 share
    averaged over ``shifts`` n x n grids on (k2, k3), each moved by a
    uniform shift from a Philox stream (Cranley-Patterson rotation), n =
    isqrt(samples // shifts).  Returns the mean of the grid means and
    their standard error."""
    n = math.isqrt(samples // shifts)
    means = [rank5_k1_share((np.arange(n) + u2) * (2 * np.pi / n),
                            (np.arange(n) + u3) * (2 * np.pi / n)).mean()
             for u2, u3 in np.random.Generator(np.random.Philox(seed))
             .random((shifts, 2))]
    return np.mean(means), np.std(means, ddof=1) / math.sqrt(shifts)


def test_dihedral_density_agrees_with_shifted_grids():
    value, se = shifted_grid_density(2_000_000, seed=0)
    assert 0 < se <= 5e-5
    assert abs(gb.dihedral_density(2_000_000).value - value) <= 3 * se


def test_dihedral_density_agrees_with_membership_monte_carlo():
    samples = 1_000_000
    ref = gb.dihedral_density(samples)
    k = np.random.Generator(np.random.Philox(21)).uniform(
        0.0, 2 * np.pi, (samples, 3))
    p = np.count_nonzero(dihedral_membership(*k.T)) / samples
    mc_se = np.sqrt(p * (1.0 - p) / samples)
    assert abs(ref.value - p) <= 3 * np.hypot(ref.error_bound, mc_se)
    assert 0 < ref.error_bound <= 1e-12


def test_dihedral_density_deterministic_and_error_bound():
    a = gb.dihedral_density(200_000)
    assert a == gb.dihedral_density(200_000)
    # the benchmark's count and the CLI default
    for samples in (2_000_000, 10_000_000):
        assert 0 < gb.dihedral_density(samples).error_bound <= 1e-12
    # on every level h = 1/2 ... 1/32 the step-halving difference covers
    # the error, it shrinks from level to level, and its I_2h is the value
    # of the level before
    levels = [gb.dihedral_density(n * n) for n in rm.DIHEDRAL_GRIDS]
    for ref in levels:
        assert abs(ref.value - DIHEDRAL_RHO) <= ref.error_bound
    for coarse, fine in zip(levels, levels[1:]):
        assert abs(fine.error_bound - abs(fine.value - coarse.value)) <= 1e-15
    bounds = [ref.error_bound for ref in levels]
    assert bounds == sorted(bounds, reverse=True)


def test_dihedral_density_evaluates_at_most_samples_points(monkeypatch):
    angle = rm._k1_angle
    points = []

    def counted(a, b):
        out = angle(a, b)
        points.append(out.size)
        return out

    monkeypatch.setattr(rm, "_k1_angle", counted)
    for samples in (169, 170, 624, 625, 2601, 41_208, 41_209, 100_003,
                    2_000_000):
        points.clear()
        gb.dihedral_density(samples)
        fits = max(n * n for n in rm.DIHEDRAL_GRIDS if n * n <= samples)
        assert points == [fits]
    assert points == [203 ** 2]


# ------------------------------------------ float64 inequality of the indicator

def float64_indicator(k1, k2, k3):
    # the dihedral inequality as one float64 expression
    s2, s3 = np.sin(k2), np.sin(k3)
    lhs = np.abs(np.sin(k1 + k2 + k3) - 0.5 * np.sin(k1) * s2 * s3
                 - np.sin(k1))
    return lhs <= np.abs(s2 + s3)


def float64_margin(k1, k2, k3):
    s1, s2, s3 = np.sin(k1), np.sin(k2), np.sin(k3)
    return np.abs(s2 + s3) - np.abs(np.sin(k1 + k2 + k3)
                                    - 0.5 * s1 * s2 * s3 - s1)


def assert_float64_exact(k):
    got = dihedral_membership(k[:, 0], k[:, 1], k[:, 2])
    want = float64_indicator(k[:, 0], k[:, 1], k[:, 2])
    assert got.dtype == bool and got.shape == want.shape
    assert np.count_nonzero(got != want) == 0


def margin_roots(target, n, seed):
    """Rows (k1, k2, k3) whose float64 margin is ``target`` to within
    1e-13, with k1 solved by bisection for random (k2, k3)."""
    rng = np.random.default_rng(seed)
    k23 = rng.uniform(0, 2 * np.pi, (n, 2))
    grid = np.linspace(0, 2 * np.pi, 513)
    f = float64_margin(grid[None, :], k23[:, :1], k23[:, 1:]) - target
    change = np.diff(np.sign(f), axis=1) != 0
    rows = np.flatnonzero(change.any(axis=1))
    first = change[rows].argmax(axis=1)
    lo, hi = grid[first], grid[first + 1]
    flo = f[rows, first]
    k2, k3 = k23[rows, 0], k23[rows, 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = float64_margin(mid, k2, k3) - target
        left = np.sign(fmid) == np.sign(flo)
        lo, flo = np.where(left, mid, lo), np.where(left, fmid, flo)
        hi = np.where(left, hi, mid)
    k = np.column_stack([lo, k2, k3])
    k = k[np.abs(float64_margin(*k.T) - target) <= 1e-13]
    assert len(k) >= n // 2
    return k


def test_screened_membership_exact_at_the_band_edge():
    rng = np.random.default_rng(7)
    k2 = rng.uniform(0, 2 * np.pi, 20_000)
    opposite = np.column_stack([rng.uniform(0, 2 * np.pi, 20_000), k2, -k2])
    rows = [np.zeros((1, 3)), opposite]
    rows += [margin_roots(t, 4000, seed) for seed, t in
             enumerate((1e-9, -1e-9, 1e-6, -1e-6))]
    for k in rows:
        assert_float64_exact(k)
    assert dihedral_membership(0.0, 0.0, 0.0) is True


def test_screened_membership_exact_off_the_unit_cell():
    # far off the unit cell the indicator is still the float64 inequality
    rng = np.random.Generator(np.random.Philox(5))
    k = rng.uniform(0.0, 2 * np.pi, (65536, 3))
    edge = margin_roots(1e-6, 2000, 11)
    for shift in (2 * np.pi * 1e6, -2 * np.pi * 1e6):
        assert_float64_exact(k + shift)
        assert_float64_exact(edge + shift)
    bad = np.array([np.inf, -np.inf, np.nan, 1.0])
    odd = np.array(np.meshgrid(bad, bad, bad)).reshape(3, -1).T
    with np.errstate(invalid="ignore"):
        assert_float64_exact(odd)
        assert not np.any(dihedral_membership(*odd[:-1].T))


def test_screened_membership_shapes():
    assert type(dihedral_membership(0.3, 1.0, 2.0)) is bool
    assert type(dihedral_membership(np.float64(0.3), 1, 2.0)) is bool
    for k in ((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (0.1, 0.2, -0.2)):
        assert dihedral_membership(*k) == bool(float64_indicator(*k))
    rng = np.random.default_rng(8)
    k1 = rng.uniform(0, 2 * np.pi, (30, 1))
    k2 = rng.uniform(0, 2 * np.pi, 40)
    got = dihedral_membership(k1, k2, 1.5)
    assert got.shape == (30, 40)
    assert np.array_equal(got, float64_indicator(k1, k2, 1.5))


# ------------------------------------------------------------- decorations

def test_pendant_reflection_closed_form():
    length = 0.8
    dec = gb.MagneticGraph(vertices=(0, 1),
                           edges=(gb.Edge(1, 0, 1, length),), generators=0)
    for k in np.linspace(0.0, 50.0, 101):
        theta = gb.effective_reflection(dec, 0, k)
        assert abs(theta - np.exp(2j * k * length)) <= 1e-10


def test_path_decoration_is_transparent_join():
    # a two-edge path entered at its end behaves like one edge of the
    # summed length (the middle vertex has degree 2)
    dec = gb.MagneticGraph(
        vertices=(0, 1, 2),
        edges=(gb.Edge(1, 0, 1, 0.6), gb.Edge(2, 1, 2, 0.9)),
        generators=0)
    for k in (0.4, 2.2, 7.9):
        theta = gb.effective_reflection(dec, 0, k)
        assert abs(theta - np.exp(2j * k * 1.5)) <= 1e-10


def test_reflection_is_unimodular():
    rng = np.random.default_rng(3)
    for k in rng.uniform(0.1, 20.0, 25):
        theta = gb.effective_reflection(TRIANGLE, 0, k)
        assert abs(abs(theta) - 1.0) <= 1e-10


def test_reflection_array_matches_scalar_calls():
    # one call over an array of momenta, element by element the scalar
    # calls, in the shape of k
    rng = np.random.default_rng(4)
    dec = gb.MagneticGraph(
        vertices=(0, 1, 2, 3),
        edges=(gb.Edge(1, 0, 1, 0.7), gb.Edge(2, 1, 2, 1.3),
               gb.Edge(3, 2, 1, 0.9), gb.Edge(4, 2, 3, 1.6)),
        generators=0)
    ks = rng.uniform(0.1, 30.0, (6, 7))
    thetas = gb.effective_reflection(dec, 0, ks)
    assert thetas.shape == ks.shape and thetas.dtype == complex
    scalar = [gb.effective_reflection(dec, 0, k) for k in ks.ravel()]
    assert all(type(theta) is complex for theta in scalar)
    assert np.array_equal(thetas.ravel(), scalar)
    assert gb.effective_reflection(dec, 0, ks[:0]).shape == (0, 7)


def test_one_port_moments_are_poisson_moments():
    """Over generic momenta the means of Theta and Theta^2 of a flux-free
    one-port with a edge ends at its entry vertex are Theta(0) and
    Theta(0)^2, Theta(0) = (1 - a)/(1 + a): an inner function carries the
    uniform torus measure to the Poisson measure of Theta(0).  One-ports:
    a pendant (a = 1), a triangle at the vertex (a = 2), three parallel
    edges (a = 3) and K4 at a vertex (a = 3).

    Lengths uniform in [1, 2] from default_rng(41); 20,000 momenta uniform
    in [0, K], K = 1e4, from default_rng(42); both fixed before the first
    run.  Theta is a power series in exp(i k l_e) with frequencies n >= 0,
    so each term's k-mean is within 2 / (K n.l) <= 2e-4 of its torus mean.
    The real and imaginary parts of each mean are held within z sample
    SEs of the target, z = Phi^-1(1 - 5e-4 / 16) = 4.00: a 1e-3
    family-wise rate over 16 comparisons (4 one-ports x 2 moments x 2
    parts).
    """
    rng = np.random.default_rng(41)
    ks = np.random.default_rng(42).uniform(0.0, 1e4, 20_000)
    z = NormalDist().inv_cdf(1.0 - 5e-4 / 16)
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for a, pairs in ((1, [(0, 1)]), (2, [(0, 1), (1, 2), (2, 0)]),
                     (3, [(0, 1)] * 3), (3, k4)):
        port = gb.MagneticGraph(
            tuple(sorted({v for pair in pairs for v in pair})),
            tuple(gb.Edge(i, t, h, float(rng.uniform(1.0, 2.0)))
                  for i, (t, h) in enumerate(pairs, 1)), generators=0)
        assert port.degrees()[0] == a
        theta = gb.effective_reflection(port, 0, ks)
        for n in (1, 2):
            moment = theta ** n
            for part, want in ((moment.real, ((1 - a) / (1 + a)) ** n),
                               (moment.imag, 0.0)):
                se = part.std(ddof=1) / math.sqrt(len(part))
                assert abs(part.mean() - want) <= z * se, (pairs, n)


def test_interior_resonance_raises():
    # equilateral triangle standing waves decouple from the entry vertex
    for k in (2 * np.pi / 3, 4 * np.pi / 3, 2 * np.pi):
        with pytest.raises(gb.InteriorResonanceError):
            gb.effective_reflection(TRIANGLE, 0, k)
    # an array call names the first resonant momentum
    with pytest.raises(gb.InteriorResonanceError, match="k=4.18879"):
        gb.effective_reflection(TRIANGLE, 0, [1.0, 4 * np.pi / 3, 2 * np.pi])
    # arbitrarily close to resonance the reflection is still unimodular
    theta = gb.effective_reflection(TRIANGLE, 0, 2 * np.pi / 3 + 1e-5)
    assert abs(abs(theta) - 1.0) <= 1e-10


def test_multiple_resonance_refused_only_at_it():
    # two self-loops behind a pendant: the interior determinant A
    # vanishes like k^2 at k = 0, yet Theta keeps full precision up to
    # there; reference values from an interior-block SVD/solve solver
    two_loops = gb.MagneticGraph(
        vertices=(0, 1),
        edges=(gb.Edge(1, 0, 1, 1.0), gb.Edge(2, 1, 1, 0.7),
               gb.Edge(3, 1, 1, 1.3)),
        generators=0)
    theta = gb.effective_reflection(two_loops, 0, [1e-6, 1e-3])
    assert np.abs(theta - [0.9999999999820001 + 5.999999999959091e-06j,
                           0.9999820000834603 + 0.005999959090164355j]
                  ).max() <= 1e-12
    with pytest.raises(gb.InteriorResonanceError, match="k=0.0"):
        gb.effective_reflection(two_loops, 0, 0.0)


def test_reflection_input_validation():
    with pytest.raises(gb.GraphError):
        gb.effective_reflection(TRIANGLE, 9, 1.0)
    # a cycle with net flux: not a decoration
    fluxed = gb.MagneticGraph(vertices=(0,),
                              edges=(gb.Edge(1, 0, 0, 1.0, (1,)),),
                              generators=1)
    with pytest.raises(gb.GraphError, match="flux-free"):
        gb.effective_reflection(fluxed, 0, 1.0)
    unbound = gb.MagneticGraph(vertices=(0, 1),
                               edges=(gb.Edge(1, 0, 1, None),), generators=0)
    with pytest.raises(gb.GraphError):
        gb.effective_reflection(unbound, 0, 1.0)
    for k in (np.nan, np.inf, [1.0, np.nan]):
        with pytest.raises(ValueError, match="k must be finite"):
            gb.effective_reflection(TRIANGLE, 0, k)


def test_gauge_flux_decoration_reflects_as_flux_free():
    # flux on a tree edge, or around a cycle of net flux 0, is a gauge:
    # the rule is the cycle flux of core_shape, not the raw edge flux
    length = 0.8
    pendant = gb.MagneticGraph(vertices=(0, 1),
                               edges=(gb.Edge(1, 0, 1, length, (1,)),),
                               generators=1)
    ks = np.linspace(0.0, 50.0, 101)
    assert np.abs(gb.effective_reflection(pendant, 0, ks)
                  - np.exp(2j * ks * length)).max() <= 1e-10
    gauged = gb.MagneticGraph(
        vertices=TRIANGLE.vertices,
        edges=tuple(replace(e, flux=(f,))
                    for e, f in zip(TRIANGLE.edges, (1, -1, 0))),
        generators=1)
    assert np.abs(gb.effective_reflection(gauged, 0, ks[1:])
                  - gb.effective_reflection(TRIANGLE, 0, ks[1:])).max() \
        <= 1e-12


def test_empty_decoration_reflects_fully():
    bare = gb.MagneticGraph(vertices=(0,), edges=(), generators=0)
    assert gb.effective_reflection(bare, 0, 3.3) == 1.0

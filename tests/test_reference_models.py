from dataclasses import replace

import numpy as np
import pytest

import graphbands as gb
import graphbands.reference_models as rm

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
    assert gb.phi_lasso(0.0, 0.0, 0.0) == 0.0
    # solving phi = 0 for alpha and substituting back gives zero
    rng = np.random.default_rng(0)
    for _ in range(30):
        k1, k2 = rng.uniform(0, 2 * np.pi, 2)
        if abs(np.cos(k2)) < 1e-3:
            continue
        c = np.cos(k1) - np.sin(k1) * np.sin(k2) / (2 * np.cos(k2))
        if abs(c) <= 1:
            alpha = np.arccos(c)
            assert abs(gb.phi_lasso(k1, k2, alpha)) <= 1e-12


def test_lasso_membership_matches_alpha_solvability():
    rng = np.random.default_rng(1)
    k1 = rng.uniform(0, 2 * np.pi, 3000)
    k2 = rng.uniform(0, 2 * np.pi, 3000)
    member = gb.lasso_membership(k1, k2)
    # phi is a degree-1 trig polynomial in alpha, so 4 samples determine
    # it exactly; solvability = a root of the matching quadratic on |z|=1
    alphas = np.linspace(0, 2 * np.pi, 4, endpoint=False)
    phi = gb.phi_lasso(k1[:, None], k2[:, None], alphas[None, :])
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
    assert gb.lasso_membership(0.0, np.pi / 2)
    assert gb.lasso_membership(0.0, 3 * np.pi / 2)
    assert not gb.lasso_membership(1.0, np.pi / 2)


def test_dihedral_secular_consistency():
    rng = np.random.default_rng(2)
    k = rng.uniform(0, 2 * np.pi, (200, 3))
    member = gb.dihedral_membership(k[:, 0], k[:, 1], k[:, 2])
    alphas = np.linspace(0, 2 * np.pi, 4001)
    vals = np.abs(gb.dihedral_secular(k[:, 0, None], k[:, 1, None],
                                      k[:, 2, None], alphas[None, :]))
    brute = vals.min(axis=1) <= 2e-3
    assert np.mean(member == brute) >= 0.995


def test_dihedral_density_frozen_regression():
    ref = gb.dihedral_density(100_000, seed=0)
    assert ref.method == "shifted_grid"
    assert ref.value == pytest.approx(0.4299377818658925, abs=1e-12)
    assert gb.dihedral_density(100_000, seed=0) == ref
    with pytest.raises(ValueError):
        gb.dihedral_density(0, seed=0)


# ------------------------------------- exact k1-measure on shifted grids

def dense_k1_share(k2, k3, n=200_000):
    # midpoint count of dihedral_membership along k1; each of the at most
    # four arc ends costs at most 1/n
    k1 = (np.arange(n) + 0.5) * (2 * np.pi / n)
    return np.count_nonzero(gb.dihedral_membership(k1, k2, k3)) / n


def k1_grid(k2, k3):
    # shares on the grid of k2 rows and k3 columns
    k2, k3 = np.atleast_1d(k2), np.atleast_1d(k3)
    return rm._k1_measure(np.sin(k2), np.cos(k2),
                          np.sin(k3), np.cos(k3)) / np.pi


def k1_measure(k2, k3):
    return float(k1_grid(k2, k3)[0, 0])


def test_k1_measure_matches_dense_membership_count():
    rng = np.random.default_rng(12)
    k23 = rng.uniform(0, 2 * np.pi, (30, 2))
    points = [k1_measure(k2, k3) for k2, k3 in k23]
    for (k2, k3), share in zip(k23, points):
        assert abs(share - dense_k1_share(k2, k3)) <= 2e-5
    # the grid of the same 30 pairs holds them on its diagonal
    shares = k1_grid(k23[:, 0], k23[:, 1])
    assert shares.shape == (30, 30)
    assert np.allclose(np.diag(shares), points, rtol=0, atol=1e-15)


def nested_k1_share(s2, c2, s3, c3):
    # the share as a nested elementwise formula in g and cos(k2 + k3)
    h = 0.5 * (s2 * s3)
    g = 1.0 + h
    r2 = 1.0 + g * (g - 2.0 * (c2 * c3 - 2.0 * h))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos2t = 1.0 - 2.0 * (s2 + s3) ** 2 / r2
    return np.arccos(np.fmax(cos2t, -1.0)) / np.pi, r2 / 2


def test_k1_measure_matches_nested_formula_on_shifted_grids():
    n = 353                                 # the grids of a 2M-point run
    for u2, u3 in np.random.Generator(np.random.Philox(20)).random((5, 2)):
        k2 = (np.arange(n) + u2) * (2 * np.pi / n)
        k3 = (np.arange(n) + u3) * (2 * np.pi / n)
        got = k1_grid(k2, k3)
        want, half_r2 = nested_k1_share(np.sin(k2)[:, None],
                                        np.cos(k2)[:, None],
                                        np.sin(k3), np.cos(k3))
        # both forms carry a roundoff of about 1e-16 in R^2 / 2, which the
        # share amplifies as 1 / R^2 near R = 0 (k2 = k3 in {0, pi}): on
        # 60 such grids |got - want| * R^2 / 2 stayed below 5e-14, and the
        # bound is 1e-8 wherever R^2 / 2 >= 1e-5
        assert np.all(np.abs(got - want) <= 1e-13 / half_r2)
        far = half_r2 >= 1e-5
        assert abs(got[far].mean() - want[far].mean()) <= 1e-13
        assert abs(got.mean() - want.mean()) <= 1e-8
    # the rank-5 product is 2 (R^2 / 2) = 1 + g (g - 2 cos(k2 + k3))
    k2, k3 = np.random.default_rng(20).uniform(-10, 10, (2, 1000))
    s2, c2, s3, c3 = np.sin(k2), np.cos(k2), np.sin(k3), np.cos(k3)
    a = np.column_stack([np.ones_like(s2), 1.5 * s2, 0.625 * s2 ** 2, -c2,
                         -0.5 * s2 * c2])
    b = np.array([np.ones_like(s3), s3, s3 ** 2, c3, s3 * c3])
    g = 1.0 + 0.5 * s2 * s3
    r2 = 1.0 + g * (g - 2.0 * np.cos(k2 + k3))
    assert np.allclose(2.0 * np.diag(a @ b), r2, rtol=0, atol=1e-14)


def test_k1_measure_on_the_opposite_line_and_at_r_zero():
    # k3 = -k2: the right side |sin k2 + sin k3| is 0 and R > 0, so no k1
    # is inside; at (0, 0) R = 0 and the left side is 0 for every k1
    for k2 in np.random.default_rng(13).uniform(0.1, 3.0, 10):
        assert k1_measure(k2, -k2) == 0.0 == dense_k1_share(k2, -k2)
    assert k1_measure(0.0, 0.0) == 1.0 == dense_k1_share(0.0, 0.0)
    # near R = 0, at k2 = k3 in {0, pi}, roundoff can leave the product
    # R^2 / 2 negative; every share still lies in [0, 1]
    near = np.random.default_rng(14).normal(0.0, 1e-7, 200)
    for center in (0.0, np.pi):
        shares = k1_grid(center + near, center + near[::-1])
        assert np.all((shares >= 0.0) & (shares <= 1.0))


def test_dihedral_density_agrees_with_membership_monte_carlo():
    samples = 1_000_000
    ref = gb.dihedral_density(samples, seed=21)
    k = np.random.Generator(np.random.Philox(21)).uniform(
        0.0, 2 * np.pi, (samples, 3))
    p = np.count_nonzero(gb.dihedral_membership(*k.T)) / samples
    mc_se = np.sqrt(p * (1.0 - p) / samples)
    assert abs(ref.value - p) <= 3 * np.hypot(ref.error_bound, mc_se)
    assert 0 < ref.error_bound <= 1e-4


def test_dihedral_density_deterministic_and_error_bound():
    a = gb.dihedral_density(200_000, seed=3)
    assert a == gb.dihedral_density(200_000, seed=3)
    assert a.value != gb.dihedral_density(200_000, seed=4).value
    assert gb.dihedral_density(2_000_000, seed=0).error_bound <= 5e-5
    assert gb.dihedral_density(1, seed=0).error_bound == np.inf


def test_dihedral_density_evaluates_at_most_samples_points(monkeypatch):
    measure = rm._k1_measure
    points = []

    def counted(*args):
        out = measure(*args)
        points.append(out.size)
        return out

    monkeypatch.setattr(rm, "_k1_measure", counted)
    for samples in (1, 15, 16, 17, 63, 64, 1000, 100_003, 1_000_000):
        points.clear()
        gb.dihedral_density(samples, seed=0)
        assert 0 < sum(points) <= samples
    assert sum(points) == 1_000_000                 # 16 grids of 250 x 250


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
    got = gb.dihedral_membership(k[:, 0], k[:, 1], k[:, 2])
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
    assert gb.dihedral_membership(0.0, 0.0, 0.0) is True


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
        assert not np.any(gb.dihedral_membership(*odd[:-1].T))


def test_screened_membership_shapes():
    assert type(gb.dihedral_membership(0.3, 1.0, 2.0)) is bool
    assert type(gb.dihedral_membership(np.float64(0.3), 1, 2.0)) is bool
    for k in ((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (0.1, 0.2, -0.2)):
        assert gb.dihedral_membership(*k) == bool(float64_indicator(*k))
    rng = np.random.default_rng(8)
    k1 = rng.uniform(0, 2 * np.pi, (30, 1))
    k2 = rng.uniform(0, 2 * np.pi, 40)
    got = gb.dihedral_membership(k1, k2, 1.5)
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

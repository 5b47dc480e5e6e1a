import tracemalloc
import warnings

import numpy as np
import pytest

import graphbands as gb
from conftest import (flower_graph, marker_fig1d, random_magnetic_graph,
                      theta_graph)
from graphbands import GraphError, spectrum
from graphbands.secular import secular_values
from graphbands.spectrum import ZERO_TOL

UNIT_LASSO_GRAPH = gb.bind_lengths(gb.build_example("lasso"), [1.0, 1.0])
UNIT_LASSO = gb.bond_matrices(UNIT_LASSO_GRAPH)

# on the unit-length loop-with-pendant graph the diagonal kappa1 = kappa2 = k
# makes membership equivalent to |cos k| >= 1/3
DIAG_EDGE = np.arccos(1.0 / 3.0)


# ladder rung: two rails glued by one generator (m = 2)
LADDER_CELL = gb.FundamentalCell(
    vertices=(0, 1, 2, 3),
    edges=(gb.Edge(1, 0, 1, 1.0), gb.Edge(2, 0, 2, 1.35),
           gb.Edge(3, 1, 3, 0.8)),
    identifications=(gb.Identification(1, plus=2, minus=0),
                     gb.Identification(1, plus=3, minus=1)),
    generators=1)

# flower with pendant: two generator loops at one vertex (J = 2)
FLOWER_CELL = gb.FundamentalCell(
    vertices=(0, 1, 2, 3),
    edges=(gb.Edge(1, 0, 1, 1.414), gb.Edge(2, 0, 2, 1.732),
           gb.Edge(3, 0, 3, 1.236)),
    identifications=(gb.Identification(1, plus=1, minus=0),
                     gb.Identification(2, plus=2, minus=0)),
    generators=2)

# random_magnetic_graph seeds by (flux weight, det S): (1, -1) 57,
# (1, +1) 87, (2, -1) 17, (2, +1) 12, (3, -1) 3, (3, +1) 6, (4, -1) 2,
# (4, +1) 1, (5, -1) 7, (5, +1) 46.  The exact degree of G in alpha is
# 2 for seeds 3 and 46 and 1 for the others.
CORPUS_SEEDS = (57, 87, 17, 12, 3, 6, 2, 1, 7, 46)

# seed: exact degree of G in alpha, with both signs of det S at 2 and 3
DEGREE_SEEDS = {1: 1, 2: 1, 7: 1, 12: 1, 17: 1, 3: 2, 19: 2, 53: 3, 9: 3,
                52: 4}

# rows where G changes sign in alpha by more than 0.02 either way, on
# graphs whose flux weight 4 exceeds the degree of G (3 for seed 9, 2 for
# seeds 28 and 30): torus points and momentum rows k l.  Sampled at the
# 9 points of the flux weight, the top Fourier coefficients of G are
# roundoff, and the critical points built from them missed each of these
# rows in some batch of 200,000 rows; which rows are missed depends on
# the roundoff of the batch.
LOOSE_BOUND_MEMBERS = {      # seed: (degree of G, rows)
    9: (3, [
        [3.527162100611706, 3.5960633889875617, 2.6818204576526212,
         5.356640369398781, 0.8331745227886681],
        [4.380211906730823, 2.7050571335797073, 3.3303000135411103,
         4.7594059562461135, 0.63297919217932],
    ]),
    28: (2, [
        [297.4013318241246, 542.6772585933378, 388.5836673172023,
         501.898792089388, 516.6860560456843],
        [496.7356826241257, 906.4087132312029, 649.033318235258,
         838.2983276086413, 862.9968103303589],
        [225.8645839101312, 412.1419781743295, 295.1139720678051,
         381.17234090702016, 392.40268476652],
    ]),
    30: (2, [
        [780.5794557918996, 287.8891472577622, 475.88496002642097,
         379.2728484325518, 635.3281647177049],
        [573.5720834427616, 211.54179343046482, 349.681670425872,
         278.6908062396215, 466.8410068995588],
        [795.5837330394538, 293.4229446821836, 485.0324078937669,
         386.563220896401, 647.5404255655559],
        [1.9065376975894504, 3.8697434667736657, 3.9466308553048544,
         2.3649633045068263, 2.172165486150771],
    ]),
}


def circle_system(length=1.0):
    g = gb.MagneticGraph(vertices=(0,),
                         edges=(gb.Edge(1, 0, 0, length, (1,)),),
                         generators=1)
    return gb.bond_matrices(g)


# ------------------------------------------------------------ polynomial

def test_polynomial_degree_bound_from_oversampling():
    # coefficients beyond +-m must vanish: extract with extra samples
    bs = gb.bond_matrices(gb.with_random_lengths(gb.build_example("fig1d"), 2))
    (m,) = bs.flux_weight
    k = 7.3
    N = 4 * m + 12
    alphas = 2 * np.pi * np.arange(N) / N
    F = secular_values(bs, (k * bs.bond_lengths)[None, :], alphas[:, None])
    c = np.fft.fft(F[0]) / N
    spill = np.abs(np.concatenate([c[m + 1:N - m]])).max()
    assert spill <= 1e-9


def test_polynomial_m0_for_fluxless_graph():
    # a single Neumann edge of length 1 without flux: the real secular
    # function is constant in alpha and vanishes exactly at k = n pi
    g = gb.MagneticGraph(vertices=(0, 1),
                         edges=(gb.Edge(1, 0, 1, 1.0, (0,)),),
                         generators=1)
    bs = gb.bond_matrices(g)
    assert bs.flux_weight == (0,)
    assert gb.momentum_membership(bs, [np.pi, 2 * np.pi, 2.0]).tolist() == \
        [True, True, False]


# ------------------------------------------------------------ membership

def test_in_spectrum_lasso_points():
    assert gb.in_spectrum(UNIT_LASSO, 2 * np.pi)
    assert not gb.in_spectrum(UNIT_LASSO, np.pi / 2)
    assert gb.in_spectrum(UNIT_LASSO, 0.0)


def test_circle_graph_has_no_gaps():
    bs = circle_system()
    ks = np.random.default_rng(2).uniform(0, 60, 200)
    assert gb.momentum_membership(bs, ks).all()


def test_momentum_membership_matches_scalar():
    bs = gb.bond_matrices(gb.with_random_lengths(gb.build_example("fig1b"), 9))
    ks = np.random.default_rng(3).uniform(0, 20, 60)
    batch = gb.momentum_membership(bs, ks)
    assert batch.shape == ks.shape
    for k, flag in zip(ks, batch):
        assert gb.in_spectrum(bs, k) == flag


def test_flat_band_detected_via_zero_polynomial():
    # equilateral triangle decoration supports standing waves that do not
    # couple to the loop: F vanishes identically in alpha at those k
    g = gb.bind_lengths(gb.build_example("fig1d"),
                        [0.73 + 0.61, 0.89, 1.0, 1.0, 1.0])
    bs = gb.bond_matrices(g)
    N = 2 * bs.flux_weight[0] + 1
    alphas = 2 * np.pi * np.arange(N) / N
    for k in (2 * np.pi / 3, 4 * np.pi / 3, 2 * np.pi):
        F = secular_values(bs, (k * bs.bond_lengths)[None, :], alphas[:, None])
        assert np.abs(F).max() <= 1e-12
        assert gb.in_spectrum(bs, k)


def dense_alpha_values(secular, bs, kappas, n):
    """G at alpha_j = 2 pi j / n, j = 0..n-1, with determinants
    (``secular(bs, kappas, alphas)``) at j <= n / 2 only: the rest
    mirrors through G(kappa, 2 pi - alpha) = G(kappa, alpha), which
    test_secular_symmetries and criterion 11 check."""
    half = secular(bs, kappas, 2 * np.pi * np.arange(n // 2 + 1)[:, None] / n)
    return np.hstack([half, half[:, (n + 1) // 2 - 1:0:-1]])


def test_membership_matches_dense_alpha_reference():
    # seeds cover exact degrees 1..4 and both signs of det S
    rng = np.random.default_rng(4)
    for seed, degree in DEGREE_SEEDS.items():
        bs = gb.bond_matrices(random_magnetic_graph(seed))
        assert bs.secular_polynomial.degree == (degree,), seed
        kappas = rng.uniform(0, 2 * np.pi, (300, bs.n_edges))
        G = dense_alpha_values(gb.real_secular_values, bs, kappas, 1024)
        dense = (G.min(axis=1) <= ZERO_TOL) & (G.max(axis=1) >= -ZERO_TOL)
        member = gb.membership_from_phases(bs, kappas)
        assert np.array_equal(member, dense), seed


def test_exact_degree_keeps_clear_members(monkeypatch):
    degrees = []
    extremes = spectrum._extremes
    monkeypatch.setattr(spectrum, "_extremes",
                        lambda c, m, even: degrees.append(m)
                        or extremes(c, m, even))
    alphas = 2 * np.pi * np.arange(4096)[:, None] / 4096
    for seed, (degree, rows) in LOOSE_BOUND_MEMBERS.items():
        bs = gb.bond_matrices(random_magnetic_graph(seed))
        assert bs.flux_weight == (4,)
        assert bs.secular_polynomial.degree == (degree,)
        G = gb.real_secular_values(bs, rows, alphas)
        assert np.all(G.min(axis=1) < -0.02) and np.all(G.max(axis=1) > 0.02)
        degrees.clear()
        assert gb.membership_from_phases(bs, rows).all(), seed
        assert degrees == [degree], seed


def test_two_generator_flower_closed_form():
    # flower with pendant: loops of phase kappa_j and a pendant of phase
    # kappa_p at one vertex.  The vertex Dirichlet-to-Neumann sum puts the
    # point in the spectrum iff -tan kappa_p lies in the sum over loops of
    # [min, max] of (2 tan(kappa_j / 2), -2 cot(kappa_j / 2)).
    g = gb.bloch_reduce(FLOWER_CELL)
    bs = gb.bond_matrices(g)
    assert bs.generators == 2
    # reduced edges: loop 1, loop 2, pendant
    assert [e.id for e in g.edges] == [1, 2, 3]
    # a loop's phase is the sum of two draws: the torus points of the
    # five-column draw, when each loop was cut into two halves
    draws = np.random.default_rng(1).uniform(0, 2 * np.pi, (4000, 5))
    kappas = np.column_stack([draws[:, 0] + draws[:, 1],
                              draws[:, 2] + draws[:, 3], draws[:, 4]])
    loops = kappas[:, :2]
    ends = np.stack([2 * np.tan(loops / 2), -2 / np.tan(loops / 2)])
    target = -np.tan(kappas[:, 2])
    expected = ((ends.min(axis=0).sum(axis=1) <= target)
                & (target <= ends.max(axis=0).sum(axis=1)))
    member = gb.membership_from_phases(bs, kappas)
    assert member.dtype == bool
    assert np.array_equal(member, expected)
    # k = 0 is always in the spectrum
    assert gb.in_spectrum(bs, 0.0)


# ------------------------------------------------------------ compiled G

def lu_real_secular(bs, kappas, alphas):
    """Reference G straight from LU determinants: exp(-i sum kappa) F,
    real part when det S = +1, imaginary part when det S = -1."""
    F = secular_values(bs, kappas[:, bs.edge_of_bond], alphas)
    F = F * np.exp(-1j * kappas.sum(axis=1))[:, None]
    return F.real if bs.parity == 1 else F.imag


def series_alphas(bs, alpha_main):
    """Quasi-momentum rows at every point of the GRID_FALLBACK_POINTS grid
    over the generators of nonzero degree other than the one of highest
    exact degree (the first of them slowest) and, fastest, at each of
    ``alpha_main`` along that one; a generator of degree 0 sits at 0.
    Shape (64^(J' - 1) len(alpha_main), J), J' the generators of nonzero
    degree (at least 1)."""
    degree = bs.secular_polynomial.degree
    J = len(degree)
    if J == 0:
        return np.zeros((len(alpha_main), 0))
    n = spectrum.GRID_FALLBACK_POINTS
    main = int(np.argmax(degree))
    others = [j for j in range(J) if j != main and degree[j]]
    dead = [j for j in range(J) if j != main and not degree[j]]
    axes = ([2 * np.pi * np.arange(n) / n] * len(others) + [alpha_main]
            + [[0.0]] * len(dead))
    alphas = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    order = others + [main] + dead
    return alphas.reshape(-1, J)[:, np.argsort(order)]


def lu_series(bs, kappas):
    """Reference coefficients c_0..c_m of G along the generator of highest
    exact degree m, at every point of the GRID_FALLBACK_POINTS grid over
    the other generators of nonzero degree (the first of them slowest):
    the FFT of LU samples at 2m + 1 equispaced points; shape (n,
    64^(J' - 1), m + 1)."""
    m = max(bs.secular_polynomial.degree, default=0)
    alphas = series_alphas(bs, 2 * np.pi * np.arange(2 * m + 1) / (2 * m + 1))
    G = lu_real_secular(bs, kappas, alphas).reshape(len(kappas), -1, 2 * m + 1)
    return np.fft.rfft(G, axis=-1) / (2 * m + 1)


def series_values(bs, kappas, alpha_main):
    """G from the compiled series, c_0 + 2 Re sum_j c_j exp(i j alpha), at
    rows of edge phases (n, E), at every point of the grid over the other
    generators of nonzero degree and at each of ``alpha_main``; shape (n,
    64^(J' - 1), len(alpha_main))."""
    poly = bs.secular_polynomial
    trig = np.cos if poly.parity == 1 else np.sin
    c = np.einsum("nr,rbj->nbj", trig(kappas @ poly.kappa_freq.T), poly.series)
    j = np.arange(c.shape[-1])[:, None]
    weight = np.where(j > 0, 2.0, 1.0)
    return (c.real @ (weight * np.cos(j * alpha_main))
            - c.imag @ (weight * np.sin(j * alpha_main)))


def lu_membership(bs, kappas):
    """Reference membership with every G sample an LU determinant, taken
    on the quasi-momentum grid of the exact degree, with the extremes of
    the membership kernel."""
    c = lu_series(bs, kappas)
    m = c.shape[-1] - 1
    lo, hi = spectrum._extremes(c.reshape(-1, m + 1), m,
                                even=c.shape[1] == 1)
    return ((lo.reshape(len(kappas), -1).min(axis=1) <= ZERO_TOL)
            & (hi.reshape(len(kappas), -1).max(axis=1) >= -ZERO_TOL))


def compiled_graphs():
    graphs = {"lasso": gb.bind_lengths(gb.build_example("lasso"), [1.3, 0.9])}
    for name in ("fig1b", "fig1c", "fig1d"):
        graphs[name] = gb.with_random_lengths(gb.build_example(name), 5)
    graphs["ladder"] = gb.bloch_reduce(LADDER_CELL)
    graphs["flower"] = gb.bloch_reduce(FLOWER_CELL)
    for seed in CORPUS_SEEDS:
        graphs["J1-%d" % seed] = random_magnetic_graph(seed)
    # flux weights (2, 2), degrees (1, 0)
    graphs["J2-3"] = random_magnetic_graph(3, generators=2)
    return graphs


def test_secular_symmetries():
    # G(kappa, -alpha) = G(kappa, alpha) and G(-kappa, alpha) = det S
    # G(kappa, alpha), which the compile uses to fill its grid
    rng = np.random.default_rng(17)
    graphs = dict(compiled_graphs(),
                  J0=random_magnetic_graph(5, generators=0))
    parities = set()
    for name, g in graphs.items():
        bs = gb.bond_matrices(g)
        parities.add(bs.parity)
        kappas = rng.uniform(0, 2 * np.pi, (100, bs.n_edges))
        alphas = rng.uniform(0, 2 * np.pi, (8, bs.generators))
        G = spectrum.real_secular_values(bs, kappas, alphas)
        tol = 1e-12 * (1 + np.abs(G))
        flip_alpha = spectrum.real_secular_values(bs, kappas, -alphas)
        flip_kappa = spectrum.real_secular_values(bs, -kappas, alphas)
        assert np.all(np.abs(flip_alpha - G) <= tol), name
        assert np.all(np.abs(flip_kappa - bs.parity * G) <= tol), name
    assert parities == {1, -1}


def test_compiled_secular_matches_determinants():
    # G from the compiled series matches LU determinants at random points
    # along the main generator, with at most one kept edge-phase row per
    # +-pair and exact degrees within the flux weights.  Covers J = 0, 1
    # and 2.
    rng = np.random.default_rng(12)
    graphs = dict(compiled_graphs(),
                  J0=random_magnetic_graph(5, generators=0),
                  J2=random_magnetic_graph(17, generators=2))
    assert gb.bond_matrices(graphs["J2"]).secular_polynomial.degree == (2, 1)
    for name, g in graphs.items():
        bs = gb.bond_matrices(g)
        poly = bs.secular_polynomial
        assert 0 < len(poly.kappa_freq) <= (3 ** bs.n_edges + 1) // 2, name
        assert np.all(np.array(poly.degree) <= bs.flux_weight), name
        kappas = rng.uniform(0, 2 * np.pi, (200, bs.n_edges))
        alpha_main = rng.uniform(0, 2 * np.pi, 8)
        ref = lu_real_secular(bs, kappas, series_alphas(bs, alpha_main))
        got = series_values(bs, kappas, alpha_main).reshape(len(kappas), -1)
        assert np.all(np.abs(got - ref) <= 1e-12 * (1 + np.abs(ref))), name


def test_alpha_series_matches_lu_fft():
    # the stored series, contracted with the cos (sin) of the edge phase
    # frequencies, gives the coefficients of G along the main generator at
    # every grid point of the others; the reference is the FFT of LU
    # samples on the 2m + 1 x 64^(J' - 1) grid, J' the generators of
    # nonzero degree.  Covers J = 0, 1 and 2.
    rng = np.random.default_rng(21)
    graphs = dict(compiled_graphs(),
                  J0=random_magnetic_graph(5, generators=0),
                  J2=random_magnetic_graph(17, generators=2))
    for name, g in graphs.items():
        bs = gb.bond_matrices(g)
        poly = bs.secular_polynomial
        kappas = rng.uniform(0, 2 * np.pi, (50, bs.n_edges))
        ref = lu_series(bs, kappas)
        assert poly.series.shape[1:] == ref.shape[1:], name
        live = sum(d > 0 for d in poly.degree)
        assert np.isrealobj(poly.series) == (live <= 1), name
        trig = np.cos if poly.parity == 1 else np.sin
        got = np.einsum("nr,rbt->nbt", trig(kappas @ poly.kappa_freq.T),
                        poly.series)
        assert np.all(np.abs(got - ref) <= 1e-12 * (1 + np.abs(ref))), name


def test_compile_takes_one_determinant_per_symmetry_orbit(monkeypatch):
    # one point of each +-pair of the edge phase and quasi-momentum grids
    dets = []

    def counted(*args, **kwargs):
        result = secular_values(*args, **kwargs)
        dets.append(result.size)
        return result

    monkeypatch.setattr(spectrum, "secular_values", counted)
    graphs = {"lasso": (UNIT_LASSO_GRAPH, 10),
              "ladder": (gb.bloch_reduce(LADDER_CELL), 42),
              "flower": (gb.bloch_reduce(FLOWER_CELL), 70),
              "J0": (random_magnetic_graph(5, generators=0), 122)}
    for name, (g, expected) in graphs.items():
        bs = gb.bond_matrices(g)
        grid = np.prod(2 * np.array(bs.flux_weight, dtype=int) + 1)
        assert expected == (3 ** bs.n_edges + 1) // 2 * ((grid + 1) // 2)
        dets.clear()
        poly = spectrum.compile_secular(bs)
        assert sum(dets) == expected, name
        live = sum(d > 0 for d in poly.degree)
        assert np.isrealobj(poly.series) == (live <= 1), name
        assert poly.parity == bs.parity, name


def test_compiled_membership_matches_lu_path():
    # torus points for every graph, momenta (large phases) for the lasso
    # class; CORPUS_SEEDS cover flux weights 1..5 with both signs of det S
    rng = np.random.default_rng(13)
    for name, g in compiled_graphs().items():
        bs = gb.bond_matrices(g)
        kappas = rng.uniform(0, 2 * np.pi, (2000, bs.n_edges))
        if name in ("lasso", "fig1d"):
            ks = rng.uniform(0, 500, 2000)
            kappas = np.vstack([kappas, ks[:, None] * g.lengths])
        member = gb.membership_from_phases(bs, kappas)
        assert 0 < member.sum() < len(member), name
        assert np.array_equal(member, lu_membership(bs, kappas)), name


def test_large_graph_compiles_and_cap_raises():
    # E = 8 at flux weight 6: a compile grid of 3^8 * 13 = 85,293
    # determinants, checked against a dense alpha reference
    g = random_magnetic_graph(3, n_edges=8)
    bs = gb.bond_matrices(g)
    assert 3 ** 8 * (2 * bs.flux_weight[0] + 1) == 85_293
    assert bs.secular_polynomial.degree == (2,)
    rng = np.random.default_rng(15)
    kappas = rng.uniform(0, 2 * np.pi, (200, 8))
    alphas = 2 * np.pi * np.arange(256)[:, None] / 256
    G = lu_real_secular(bs, kappas, alphas)
    dense = (G.min(axis=1) <= ZERO_TOL) & (G.max(axis=1) >= -ZERO_TOL)
    member = gb.membership_from_phases(bs, kappas)
    assert 0 < member.sum() < len(member)
    assert np.array_equal(member, dense)
    # 3^41 * 65 grid points, above the cap; the count is exact, where a
    # 64-bit product would wrap to a negative one
    big = gb.bond_matrices(random_magnetic_graph(0, n_edges=41))
    count = str(3 ** 41 * 65)
    for compute in (lambda: big.secular_polynomial,
                    lambda: gb.membership_from_phases(big, np.zeros((1, 41))),
                    lambda: gb.band_intervals(big, 1.0),
                    lambda: gb.density(big, 1.0),
                    lambda: gb.mc_volume(big, 10, seed=0)):
        with pytest.raises(GraphError, match=count):
            compute()


def test_alpha_series_above_budget_refused_before_allocation(monkeypatch):
    # five generators: a compile grid of 3^5 * 3^5 = 59,049 points, but an
    # alpha-series over 64^4 grid points per edge phase frequency; refused
    # from every entry point, before any determinant and with no large
    # allocation on the way
    dets = []

    def counted(*args, **kwargs):
        dets.append(1)
        return secular_values(*args, **kwargs)

    monkeypatch.setattr(spectrum, "secular_values", counted)
    big = gb.bond_matrices(flower_graph(5))
    assert 3 ** 5 * np.prod(2 * np.array(big.flux_weight) + 1) == 59_049
    tracemalloc.start()
    try:
        for compute in (lambda: big.secular_polynomial,
                        lambda: gb.membership_from_phases(big, np.zeros((1, 5))),
                        lambda: gb.band_intervals(big, 1.0),
                        lambda: gb.mc_volume(big, 10, seed=0)):
            with pytest.raises(GraphError, match="alpha-series"):
                compute()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert dets == []
    # three generators stay accepted and match the LU reference: degrees
    # (1, 1, 1) on a 64^2 grid, and (0, 1, 1), whose generator of degree 0
    # takes no grid axis
    for seed, points in ((2, 64 ** 2), (4, 64)):
        bs = gb.bond_matrices(random_magnetic_graph(seed, generators=3))
        assert bs.secular_polynomial.series.shape[1] == points
        kappas = np.random.default_rng(22).uniform(0, 2 * np.pi,
                                                   (8, bs.n_edges))
        member = gb.membership_from_phases(bs, kappas)
        assert 0 < member.sum() < len(member)
        assert np.array_equal(member, lu_membership(bs, kappas))


def test_degree_zero_generator_takes_no_grid_axis():
    # random_magnetic_graph(5, generators=2): G has degree 0 in the first
    # generator and 4 in the second, so the series has one slice and is
    # real, where 64 identical slices were solved before.  Membership
    # against a dense alpha reference along the second generator, with
    # the first at two values.
    bs = gb.bond_matrices(random_magnetic_graph(5, generators=2))
    poly = bs.secular_polynomial
    assert poly.degree == (0, 4)
    assert poly.series.shape[1] == 1 and np.isrealobj(poly.series)
    kappas = np.random.default_rng(24).uniform(0, 2 * np.pi, (300, bs.n_edges))
    member = gb.membership_from_phases(bs, kappas)
    assert 0 < member.sum() < len(member)
    for first in (0.0, 2.1):
        G = dense_alpha_values(
            lambda bs, k, a: gb.real_secular_values(
                bs, k, np.column_stack([np.full(len(a), first), a])),
            bs, kappas, 1024)
        dense = (G.min(axis=1) <= ZERO_TOL) & (G.max(axis=1) >= -ZERO_TOL)
        assert np.array_equal(member, dense), first


def test_flux_free_generators_do_not_count_towards_refusal():
    # the flower cell with three flux-free generators added, J = 5: it
    # compiles to the series of the J = 2 flower, and membership agrees
    # row for row
    g2 = gb.bloch_reduce(FLOWER_CELL)
    g5 = gb.MagneticGraph(g2.vertices, tuple(
        gb.Edge(e.id, e.tail, e.head, e.length, e.flux + (0, 0, 0))
        for e in g2.edges), generators=5)
    bs2, bs5 = gb.bond_matrices(g2), gb.bond_matrices(g5)
    assert bs5.flux_weight == bs2.flux_weight + (0, 0, 0)
    p2, p5 = bs2.secular_polynomial, bs5.secular_polynomial
    assert p5.degree == p2.degree + (0, 0, 0) == (1, 1, 0, 0, 0)
    assert p5.series.shape == p2.series.shape == (8, 64, 2)
    kappas = np.random.default_rng(25).uniform(0, 2 * np.pi, (4000, 3))
    member = gb.membership_from_phases(bs5, kappas)
    assert 0 < member.sum() < len(member)
    assert np.array_equal(member, gb.membership_from_phases(bs2, kappas))


def test_m1_closed_form_matches_dense_alpha_reference():
    # G = c0 + 2|c1| cos(alpha + phase): member iff |c0| <= 2|c1|, from
    # compiled G and from LU determinants, for both signs of det S
    rng = np.random.default_rng(16)
    graphs = [(UNIT_LASSO_GRAPH, 2000, 1024),
              (gb.with_random_lengths(gb.build_example("fig1d"), 6), 1000, 512),
              (random_magnetic_graph(57), 1000, 512),
              (random_magnetic_graph(87), 1000, 512)]
    parities = set()
    for g, n, samples in graphs:
        bs = gb.bond_matrices(g)
        assert bs.flux_weight == (1,)
        parities.add(bs.parity)
        kappas = rng.uniform(0, 2 * np.pi, (n, bs.n_edges))
        G = dense_alpha_values(lu_real_secular, bs, kappas, samples)
        dense = (G.min(axis=1) <= ZERO_TOL) & (G.max(axis=1) >= -ZERO_TOL)
        assert 0 < dense.sum() < n
        assert np.array_equal(gb.membership_from_phases(bs, kappas), dense)
        assert np.array_equal(lu_membership(bs, kappas), dense)
    assert parities == {-1, 1}


class CriticalPointsReached(Exception):
    pass


def test_m2_closed_form_matches_dense_alpha_reference(monkeypatch):
    # on a one-generator graph G is even in alpha, so at degree 2 it is a
    # quadratic in cos(alpha) and its extremes are closed-form: torus rows
    # and momentum rows k l, from compiled G and from LU determinants, for
    # both signs of det S, never reach the critical points.  Seeds 17 and
    # 12 have degree 1 below their flux weight 2.
    def critical_values(c, m):
        raise CriticalPointsReached(m)
    monkeypatch.setattr(spectrum, "_critical_values", critical_values)
    rng = np.random.default_rng(17)
    alphas = 2 * np.pi * np.arange(4096) / 4096
    graphs = [(gb.bloch_reduce(LADDER_CELL), 2), (random_magnetic_graph(3), 2),
              (random_magnetic_graph(19), 2), (random_magnetic_graph(17), 1),
              (random_magnetic_graph(12), 1)]
    parities = set()
    for g, degree in graphs:
        bs = gb.bond_matrices(g)
        assert bs.secular_polynomial.degree == (degree,)
        parities.add(bs.parity)
        ks = rng.uniform(0, 500, 1000)
        kappas = np.vstack([rng.uniform(0, 2 * np.pi, (1000, bs.n_edges)),
                            ks[:, None] * g.lengths])
        G = series_values(bs, kappas, alphas).reshape(len(kappas), -1)
        dense = (G.min(axis=1) <= ZERO_TOL) & (G.max(axis=1) >= -ZERO_TOL)
        assert 0 < dense.sum() < len(dense)
        assert np.array_equal(gb.membership_from_phases(bs, kappas), dense)
        assert np.array_equal(lu_membership(bs, kappas), dense)
    assert parities == {-1, 1}
    # degree 3 still takes the critical points
    bs = gb.bond_matrices(random_magnetic_graph(53))
    assert bs.secular_polynomial.degree == (3,)
    with pytest.raises(CriticalPointsReached):
        gb.membership_from_phases(bs, rng.uniform(0, 2 * np.pi, (10, 5)))


def test_m2_closed_form_degenerate_rows():
    # rows c0 + 2 c1 cos(alpha) + 2 c2 cos(2 alpha) whose quadratic in
    # cos(alpha) degenerates: c2 = 0 (a degree-1 row sampled at m = 2),
    # c1 = c2 = 0,
    # the vertex at cos(alpha) = -1 or 1 (|c1| = 4|c2|), and G = 0 (a flat
    # band), next to one row with its vertex inside, at cos(alpha) = 0
    coef = np.array([[0.3, 0.5, 0.0], [-0.2, -0.7, 0.0], [0.7, 0.0, 0.0],
                     [0.1, 0.8, 0.2], [0.1, -0.8, 0.2], [-0.4, 0.6, -0.15],
                     [0.0, 0.0, 0.0], [0.05, 0.0, 0.4]])

    def rows(n):
        alpha = 2 * np.pi * np.arange(n) / n
        return coef[:, :1] + 2 * coef[:, 1:] @ np.cos(np.outer([1, 2], alpha))

    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        lo, hi = spectrum._extremes(coef, 2, even=True)
    assert not np.isnan(lo).any() and not np.isnan(hi).any()
    dense = rows(4096)
    assert np.allclose(lo, dense.min(axis=1), rtol=0, atol=1e-12)
    assert np.allclose(hi, dense.max(axis=1), rtol=0, atol=1e-12)
    assert lo[6] <= ZERO_TOL and hi[6] >= -ZERO_TOL          # flat band


def test_critical_points_degenerate_rows():
    # rows c_0..c_3 of degree-3 polynomials c_0 + 2 Re sum_j c_j exp(i j
    # alpha): a regular complex row, G = 0 (a flat band), vanishing leads
    # (rows of degree 2 and 1 at m = 3), and NaN (a failed sample).  All
    # but the last are exact; the last is NaN.
    c = np.array([[0.1, 0.3 - 0.2j, -0.25 + 0.1j, 0.15 + 0.05j],
                  [0.0, 0.0, 0.0, 0.0],
                  [0.2, 0.4 + 0.1j, -0.3j, 0.0],
                  [0.2, 0.4 + 0.1j, 0.0, 0.0],
                  [np.nan, 0.1, 0.1, 0.1]])
    alpha = 2 * np.pi * np.arange(1 << 16) / (1 << 16)
    dense = c[:, :1].real + 2 * (c[:, 1:] @ np.exp(1j * np.outer([1, 2, 3],
                                                                alpha))).real
    with np.errstate(invalid="ignore"):
        lo, hi = spectrum._extremes(c, 3, even=False)
    # the dense grid misses the exact extremes by O(grid step^2)
    for row in (0, 2, 3):
        assert dense[row].min() - 1e-8 <= lo[row] <= dense[row].min(), row
        assert dense[row].max() <= hi[row] <= dense[row].max() + 1e-8, row
    assert lo[1] == hi[1] == 0.0
    assert np.isnan(lo[4]) and np.isnan(hi[4])


def test_two_generator_slices_keep_critical_points():
    # with J = 2 a slice along the main generator is not even in alpha, so
    # the closed form of even degree-2 rows must not decide it.  Degrees
    # (2, 1); the reference samples the main generator densely at the
    # same grid of the other.
    bs = gb.bond_matrices(random_magnetic_graph(17, generators=2))
    poly = bs.secular_polynomial
    assert poly.degree == (2, 1)
    kappas = np.random.default_rng(18).uniform(0, 2 * np.pi, (400, bs.n_edges))
    alpha_main = 2 * np.pi * np.arange(1024) / 1024
    dense = np.concatenate([
        (G.min(axis=(1, 2)) <= ZERO_TOL) & (G.max(axis=(1, 2)) >= -ZERO_TOL)
        for G in (series_values(bs, rows, alpha_main)
                  for rows in np.split(kappas, 16))])
    assert 0 < dense.sum() < len(dense)
    assert np.array_equal(gb.membership_from_phases(bs, kappas), dense)


# ------------------------------------------------------------ series merge

def merged_phases(g, h):
    """0/1 matrix taking edge phase rows of ``g`` to those of h =
    merge_series(g): each edge of h sums the chain of edges of g merged
    into it, the chains joined at the vertices h no longer has."""
    chain = {e.id: e.id for e in g.edges}

    def root(i):
        while chain[i] != i:
            i = chain[i]
        return i
    for v in set(g.vertices) - set(h.vertices):
        a, b = [e.id for e in g.edges if v in (e.tail, e.head)]
        chain[root(a)] = root(b)
    kept = [root(e.id) for e in h.edges]
    return np.array([[root(e.id) == k for k in kept] for e in g.edges],
                    dtype=float)


def test_merge_series_keeps_the_margin():
    # torus rows of g and of merge_series(g), each merged phase the sum of
    # its chain: the margins agree to 1e-13, series merges and tree gauge
    # alike.  Momentum rows are not compared at that tolerance: k (la +
    # lb) rounds differently from k la + k lb, 1.8e-12 relative at k 227.
    graphs = [gb.with_random_lengths(gb.build_example(name), 5)
              for name in ("fig1c", "fig1d")]
    graphs.append(marker_fig1d(np.random.default_rng(9).uniform(1, 2, 6)))
    corpus = [random_magnetic_graph(seed) for seed in range(60)]
    corpus += [random_magnetic_graph(seed, generators=2) for seed in range(6)]
    graphs += [g for g in corpus if gb.merge_series(g) is not g]
    merged = 0
    rng = np.random.default_rng(23)
    for g in graphs:
        h = gb.merge_series(g)
        M = merged_phases(g, h)
        assert np.array_equal(M.sum(axis=1), np.ones(g.edge_count))
        assert np.allclose(g.lengths @ M, h.lengths, rtol=1e-15, atol=0)
        merged += h.edge_count < g.edge_count
        rows = 4000 if g.generators == 1 else 200   # J = 2: 64 slices a row
        kappas = rng.uniform(0, 2 * np.pi, (rows, g.edge_count))
        mu = spectrum._margin(gb.bond_matrices(g), kappas)
        mu_h = spectrum._margin(gb.bond_matrices(h), kappas @ M)
        assert np.abs(mu - mu_h).max() <= 1e-13
    assert merged >= 20 and len(graphs) - merged >= 10  # the rest: gauge only


# ------------------------------------------------------------ margin

def recorded_extremes(monkeypatch):
    """Wrap spectrum._extremes; the returned list collects its (lo, hi)."""
    seen = []
    extremes = spectrum._extremes
    monkeypatch.setattr(spectrum, "_extremes",
                        lambda c, m, even: seen.append(extremes(c, m, even))
                        or seen[-1])
    return seen


def assert_margin_sign_is_old_rule(bs, kappas, seen):
    """The margin is >= 0 exactly where the two comparisons on the row
    extremes held, and membership is that sign, row for row."""
    seen.clear()
    margin = spectrum._margin(bs, kappas)
    lo = np.concatenate([lo for lo, _ in seen]).reshape(len(kappas), -1)
    hi = np.concatenate([hi for _, hi in seen]).reshape(len(kappas), -1)
    old = (lo.min(axis=1) <= ZERO_TOL) & (hi.max(axis=1) >= -ZERO_TOL)
    assert np.array_equal(margin >= 0, old)
    assert np.array_equal(gb.membership_from_phases(bs, kappas), old)
    return old


def margin_graphs():
    return {"lasso": gb.with_random_lengths(gb.build_example("lasso"), 3),
            "fig1d": gb.with_random_lengths(gb.build_example("fig1d"), 3),
            "ladder": gb.bloch_reduce(LADDER_CELL),
            "flower": gb.bloch_reduce(FLOWER_CELL)}


def test_margin_sign_matches_two_comparisons(monkeypatch):
    # random torus rows and momentum rows at band edges, where the
    # extremes sit near +-ZERO_TOL
    seen = recorded_extremes(monkeypatch)
    rng = np.random.default_rng(19)
    for name, g in margin_graphs().items():
        bs = gb.bond_matrices(g)
        bands = gb.band_intervals(bs, 30.0)
        edges = np.concatenate([bands.lo, bands.hi])
        kappas = np.vstack([rng.uniform(0, 2 * np.pi, (1000, bs.n_edges)),
                            np.outer(edges, g.lengths)])
        old = assert_margin_sign_is_old_rule(bs, kappas, seen)
        assert 0 < old.sum() < len(old), name


def fixed_extremes(monkeypatch, bs, kappas, lo, hi):
    """Patch spectrum._extremes to return lo[i], hi[i] (each of shape (n,
    slices)) for row i of ``kappas``, on whichever of the rows it is
    called and at either precision of the coefficients: row i is the one
    whose float64 coefficients on the first slice are nearest."""
    poly = bs.secular_polynomial
    trig = np.cos if poly.parity == 1 else np.sin
    ref = trig(kappas @ poly.kappa_freq.T) @ poly.series[:, 0]

    def extremes(c, m, even):
        first = c.reshape(-1, lo.shape[1], m + 1)[:, 0]
        i = np.argmin(np.abs(first[:, None] - ref[None]).sum(axis=2), axis=1)
        return lo[i].ravel(), hi[i].ravel()
    monkeypatch.setattr(spectrum, "_extremes", extremes)


def test_margin_sign_at_exact_extremes(monkeypatch):
    # extremes exactly at +-ZERO_TOL, one float spacing either side, signed
    # zeros, subnormals, NaN and +-inf, every pair of them as (min, max)
    values = [ZERO_TOL, -ZERO_TOL, 0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0,
              np.nan, np.inf, -np.inf]
    values += [np.nextafter(v, t) for v in (ZERO_TOL, -ZERO_TOL)
               for t in (-np.inf, np.inf)]
    lo, hi = (a.ravel() for a in np.meshgrid(values, values))
    rng = np.random.default_rng(20)
    bs = gb.bond_matrices(margin_graphs()["lasso"])
    kappas = rng.uniform(0, 2 * np.pi, (len(lo), 2))
    fixed_extremes(monkeypatch, bs, kappas, lo[:, None], hi[:, None])
    old = (lo <= ZERO_TOL) & (hi >= -ZERO_TOL)
    assert 0 < old.sum() < len(old)
    assert np.array_equal(spectrum._margin(bs, kappas) >= 0, old)
    assert np.array_equal(gb.membership_from_phases(bs, kappas), old)
    # J = 2: 64 slices per row, the same values at a few random slices
    n = 400
    lo = rng.normal(0.0, 2 * ZERO_TOL, (n, 64)) + 3 * ZERO_TOL
    hi = lo + rng.exponential(2 * ZERO_TOL, (n, 64)) - 6 * ZERO_TOL
    for a in (lo, hi):
        a[rng.integers(0, n, 300), rng.integers(0, 64, 300)] = \
            rng.choice(values, 300)
    bs = gb.bond_matrices(margin_graphs()["flower"])
    kappas = rng.uniform(0, 2 * np.pi, (n, 3))
    fixed_extremes(monkeypatch, bs, kappas, lo, hi)
    old = (lo.min(axis=1) <= ZERO_TOL) & (hi.max(axis=1) >= -ZERO_TOL)
    assert 0 < old.sum() < len(old)
    assert np.array_equal(spectrum._margin(bs, kappas) >= 0, old)
    assert np.array_equal(gb.membership_from_phases(bs, kappas), old)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_margin_of_non_finite_phases(monkeypatch):
    # a NaN or infinite phase gives NaN samples of G: not a member
    seen = recorded_extremes(monkeypatch)
    for name in ("lasso", "flower"):
        bs = gb.bond_matrices(margin_graphs()[name])
        kappas = np.zeros((6, bs.n_edges))
        kappas[:, 0] = [np.nan, np.inf, -np.inf, 0.0, 1.0, 2.0]
        kappas[3:, -1] = [np.nan, np.inf, -np.inf]
        old = assert_margin_sign_is_old_rule(bs, kappas, seen)
        assert not old.any(), name
        assert np.isnan(spectrum._margin(bs, kappas)).all(), name


# ------------------------------------------------------------ float32 screen

def screen_graphs():
    """The lasso, the core of fig1d (a lasso), the ladder (m = 2 even),
    the flower cell (J = 2, complex series), the theta graph (sin rows)
    and corpus graphs of degree 3, 3 and 4 (critical points from the
    companion matrix)."""
    graphs = dict(margin_graphs(), theta=theta_graph())
    graphs["fig1d"] = gb.core_shape(graphs["fig1d"])
    for seed in (53, 9, 52):
        graphs["J1-%d" % seed] = random_magnetic_graph(seed)
    return graphs


def float64_rows(monkeypatch):
    """Wrap spectrum._margin; the returned list collects the row count of
    each float64 call."""
    rows = []
    margin = spectrum._margin

    def counted(bs, kappas, precision=np.float64):
        if precision == np.float64:
            rows.append(len(kappas))
        return margin(bs, kappas, precision)
    monkeypatch.setattr(spectrum, "_margin", counted)
    return rows


def test_screen_matches_float64_margin(monkeypatch):
    # Philox torus rows: membership is the sign of the float64 margin row
    # for row, and the screen sends some rows, but at most 2%, to float64
    rows = float64_rows(monkeypatch)
    rng = np.random.Generator(np.random.Philox(21))
    for name, g in screen_graphs().items():
        bs = gb.bond_matrices(g)
        n = 5000 if max(bs.secular_polynomial.degree) >= 3 else 50_000
        kappas = rng.uniform(0, 2 * np.pi, (n, bs.n_edges))
        rows.clear()
        member = gb.membership_from_phases(bs, kappas)
        assert 0 < sum(rows) <= 0.02 * n, (name, sum(rows))
        assert 0 < member.sum() < n, name
        assert np.array_equal(member, spectrum._margin(bs, kappas) >= 0), name


def rows_at_margin(bs, target, rng, pairs=1000):
    """Rows of edge phases whose float64 margin is ``target`` to within
    1e-3 |target|: points on segments between random rows on either side
    of it, bisected on the margin."""
    a, b = rng.uniform(0, 2 * np.pi, (2, pairs, bs.n_edges))
    fa = spectrum._margin(bs, a) - target
    cross = fa * (spectrum._margin(bs, b) - target) < 0
    a, b, fa = a[cross], b[cross], fa[cross]
    lo, hi = np.zeros(len(a)), np.ones(len(a))
    for _ in range(60):
        t = 0.5 * (lo + hi)
        mid = spectrum._margin(bs, a + t[:, None] * (b - a))
        same = (mid - target) * fa > 0
        lo, hi = np.where(same, t, lo), np.where(same, hi, t)
    rows = a + hi[:, None] * (b - a)
    mu = spectrum._margin(bs, rows)
    return rows[np.abs(mu - target) <= 1e-3 * abs(target)]


def test_screen_near_band_edges():
    # rows at float64 margins +-1e-9 and +-1e-6, far inside the float32
    # error: the float64 sign decides each of them
    rng = np.random.default_rng(26)
    for name in ("lasso", "flower", "theta"):
        bs = gb.bond_matrices(screen_graphs()[name])
        for target in (1e-9, -1e-9, 1e-6, -1e-6):
            rows = rows_at_margin(bs, target, rng)
            assert len(rows) >= 200, (name, target)
            member = gb.membership_from_phases(bs, rows)
            assert np.all(member == (target > 0)), (name, target)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_screen_of_large_and_non_finite_phases():
    # rows shifted by +-2 pi 10^6, where float32 phases keep no digit of
    # the angle, and rows holding inf or NaN: their blocks take the
    # float64 margin, row for row
    rng = np.random.default_rng(27)
    for name in ("lasso", "ladder", "flower", "theta"):
        bs = gb.bond_matrices(screen_graphs()[name])
        kappas = rng.uniform(0, 2 * np.pi, (3000, bs.n_edges))
        kappas[::3] += rng.choice([-2e6 * np.pi, 2e6 * np.pi], (1000, 1))
        member = gb.membership_from_phases(bs, kappas)
        assert 0 < member.sum() < len(member), name
        assert np.array_equal(member, spectrum._margin(bs, kappas) >= 0), name
        kappas[1::3, 0] = rng.choice([np.nan, np.inf, -np.inf], 1000)
        member = gb.membership_from_phases(bs, kappas)
        assert not member[1::3].any(), name
        assert np.array_equal(member, spectrum._margin(bs, kappas) >= 0), name


def test_float32_trig_within_screen_budget():
    # the float32 trig error that the screen bound assumes, measured: on 2^21
    # float32 arguments over [-2 pi E, 2 pi E], E = 13 the most edges
    # COMPILE_BUDGET admits, float32 np.cos and np.sin are within
    # _TRIG_ULP 2^-23 of float64 on the same arguments
    E = 13
    assert 3 ** E <= spectrum.COMPILE_BUDGET < 3 ** (E + 1)
    a = np.random.default_rng(28).uniform(-2 * np.pi * E, 2 * np.pi * E,
                                          1 << 21).astype(np.float32)
    for trig in (np.cos, np.sin):
        err = np.abs(trig(a).astype(float) - trig(a.astype(float)))
        assert err.max() <= spectrum._TRIG_ULP * 2.0 ** -23, trig


# ------------------------------------------------------------ bands

def test_band_intervals_unit_lasso_closed_form():
    # bands in [0, 2 pi] are [0, a], [pi - a, pi + a], [2 pi - a, 2 pi]
    # with a = arccos(1/3)
    bands = gb.band_intervals(UNIT_LASSO, 2 * np.pi)
    expected = [(0.0, DIAG_EDGE), (np.pi - DIAG_EDGE, np.pi + DIAG_EDGE),
                (2 * np.pi - DIAG_EDGE, 2 * np.pi)]
    assert len(bands.lo) == 3
    for got_lo, got_hi, (lo, hi) in zip(bands.lo, bands.hi, expected):
        assert got_lo == pytest.approx(lo, abs=1e-8)
        assert got_hi == pytest.approx(hi, abs=1e-8)


def test_band_count_weyl_law():
    # one dispersion branch per pi / L_tot of momentum on average; the
    # scan merges overlapping branches, so the count is bounded above by
    # the branch count and can fall somewhat below it
    for seed in (1, 2):
        bs = gb.bond_matrices(gb.with_random_lengths(gb.build_example("lasso"),
                                                     seed))
        K = 150.0
        bands = gb.band_intervals(bs, K)
        expected = K * bs.total_length / np.pi
        assert len(bands.lo) <= expected + 3
        assert len(bands.lo) >= 0.75 * expected


def test_band_intervals_grid_robustness():
    # a finer grid may resolve a few gaps narrower than the coarse step,
    # so the count can only grow and the measure moves by at most the
    # width of those gaps
    bs = gb.bond_matrices(gb.with_random_lengths(gb.build_example("lasso"), 4))
    coarse = gb.band_intervals(bs, 100.0)
    fine = gb.band_intervals(bs, 100.0, grid_step=coarse.grid_step / 2)
    extra = len(fine.lo) - len(coarse.lo)
    assert 0 <= extra <= 5
    change = coarse.total_measure - fine.total_measure
    assert -2 * coarse.bisect_tol * len(coarse.lo) <= change
    assert change <= extra * coarse.grid_step + 1e-6


def test_bisect_tol_below_float_spacing():
    # a tolerance no bracket can reach is raised to two float spacings
    bs = gb.bond_matrices(gb.with_random_lengths(gb.build_example("lasso"), 4))
    default = gb.band_intervals(bs, 100.0)
    tiny = gb.band_intervals(bs, 100.0, bisect_tol=1e-20)
    assert tiny.bisect_tol == 2 * np.spacing(100.0)
    assert len(tiny.lo) == len(default.lo)
    assert np.abs(tiny.lo - default.lo).max() <= 1e-8
    assert np.abs(tiny.hi - default.hi).max() <= 1e-8


def bisected_bands(bs, k_max, step, tol):
    """Reference: the same grid, then plain bisection of the membership
    indicator on every edge until each bracket is at most tol wide."""
    grid = np.linspace(0.0, k_max, int(np.ceil(k_max / step)) + 1)
    mem = gb.momentum_membership(bs, grid)
    ti = np.nonzero(mem[:-1] != mem[1:])[0]
    lo, hi = grid[ti], grid[ti + 1]
    while np.any(hi - lo > tol):
        mid = 0.5 * (lo + hi)
        same = gb.momentum_membership(bs, mid) == mem[ti]
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    bands, start = [], 0.0 if mem[0] else None
    for x, was_in in zip(0.5 * (lo + hi), mem[ti]):
        if was_in:
            bands.append([start, x])
        else:
            start = x
    if mem[-1]:
        bands.append([start, k_max])
    merged = []
    for a, b in bands:
        if merged and a - merged[-1][1] <= tol:
            merged[-1][1] = b
        else:
            merged.append([a, b])
    return np.array(merged)


def counted_margin(monkeypatch):
    """Wrap spectrum._momentum_margin; the returned list collects the
    number of momenta of every call."""
    calls = []
    margin = spectrum._momentum_margin
    monkeypatch.setattr(spectrum, "_momentum_margin",
                        lambda bs, ks: calls.append(np.size(ks))
                        or margin(bs, ks))
    return calls


def test_band_intervals_match_bisection_reference(monkeypatch):
    # same band counts, every edge within tol of the bisected one, at most
    # ceil(log2(step / tol)) + 1 refinement rounds, and on the lasso at
    # most 9 margin rows per edge on average (bisection takes about 20).
    # Every grid cell of these scans holds one flip of membership; in a
    # cell with three (a band and a gap both narrower than the step) the
    # two methods may settle on different flips, both within contract.
    calls = counted_margin(monkeypatch)
    for name, bands_wanted in (("lasso", 2000), ("fig1d", 600),
                               ("ladder", 300), ("flower", 24)):
        bs = gb.bond_matrices(margin_graphs()[name])
        k_max = bands_wanted * np.pi / bs.total_length
        calls.clear()
        bands = gb.band_intervals(bs, k_max)
        grid_rows, *rounds = calls
        step, tol = bands.grid_step, bands.bisect_tol
        assert grid_rows == np.ceil(k_max / step) + 1, name
        assert len(rounds) <= np.ceil(np.log2(step / tol)) + 1, name
        got = np.column_stack([bands.lo, bands.hi])
        ref = bisected_bands(bs, k_max, step, tol)
        assert got.shape == ref.shape, name
        assert np.abs(got - ref).max() <= tol, name
        if name == "lasso":
            assert len(got) > 1900
            assert sum(rounds) / rounds[0] <= 9


def test_refinement_rounds_bounded_at_float_spacing(monkeypatch):
    # a tol of two float spacings at k_max still ends within the bound
    calls = counted_margin(monkeypatch)
    bs = gb.bond_matrices(gb.with_random_lengths(gb.build_example("lasso"), 4))
    bands = gb.band_intervals(bs, 100.0, bisect_tol=1e-20)
    assert bands.bisect_tol == 2 * np.spacing(100.0)
    rounds = len(calls) - 1
    assert 30 < rounds <= np.ceil(np.log2(bands.grid_step
                                          / bands.bisect_tol)) + 1


def band_list(lo, hi, k_max=5.0):
    return gb.BandList(lo=np.array(lo, dtype=float),
                       hi=np.array(hi, dtype=float), k_max=k_max,
                       grid_step=0.1, bisect_tol=1e-10)


def test_band_validation():
    band_list([0.0, 1.5], [1.0, 5.0])
    band_list([], [])
    for lo, hi in (([2.0], [1.0]),                    # hi < lo
                   ([1.0, 1.5], [2.0, 3.0]),          # overlap
                   ([-1e-9], [1.0]), ([4.0], [5.1]),  # outside [0, k_max]
                   ([0.0, np.nan], [1.0, 2.0]), ([0.0], [np.inf]),
                   ([0.0, 1.0], [0.5]), ([[0.0]], [[1.0]])):
        with pytest.raises(ValueError):
            band_list(lo, hi)
    with pytest.raises(ValueError):
        gb.band_intervals(UNIT_LASSO, -1.0)


@pytest.mark.parametrize("route", [gb.band_intervals, gb.density],
                         ids=["band_intervals", "density"])
@pytest.mark.parametrize("name", ["k_max", "grid_step", "bisect_tol"])
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_scan_arguments_positive_and_finite(route, name, value):
    # unchecked, an infinite grid step makes one grid cell and so one
    # band [0, k_max]; the other NaN and inf cases fail in int()
    with pytest.raises(ValueError, match=name + " must be positive and finite"):
        route(UNIT_LASSO, **{"k_max": 10.0, name: value})


# ------------------------------------------------------------ density

def test_measure_below_brute_force():
    bands = band_list([0.0, 2.0, 4.0], [1.0, 2.5, 7.0], k_max=8.0)
    cutoffs = np.array([0.5, 1.0, 1.5, 2.2, 3.0, 5.0, 8.0])
    expected = []
    for c in cutoffs:
        total = 0.0
        for lo, hi in zip(bands.lo, bands.hi):
            total += max(0.0, min(hi, c) - lo) if lo < c else 0.0
        expected.append(total)
    assert np.abs(gb.measure_below(bands, cutoffs) - expected).max() <= 1e-14


def test_density_circle_is_one_everywhere():
    series = gb.density(circle_system(1.3), 50.0, checkpoints=6)
    assert np.abs(series.values - 1.0).max() <= 1e-12
    assert series.final == pytest.approx(1.0)


def test_density_checkpoints_structure():
    bs = gb.bond_matrices(gb.with_random_lengths(gb.build_example("lasso"), 6))
    series = gb.density(bs, 300.0, checkpoints=10)
    assert len(series.cutoffs) == 10
    assert series.cutoffs[-1] == 300.0
    assert series.cutoffs[0] == pytest.approx(3.0)
    assert np.all(np.diff(series.cutoffs) > 0)
    assert np.all((series.values >= 0) & (series.values <= 1))
    single = gb.density(bs, 300.0, checkpoints=1)
    assert single.cutoffs.tolist() == [300.0]
    assert single.final == pytest.approx(series.final, abs=1e-12)
    with pytest.raises(ValueError):
        gb.density(bs, 300.0, checkpoints=0)

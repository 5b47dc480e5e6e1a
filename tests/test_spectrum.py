import warnings

import numpy as np
import pytest

import graphbands as gb
from conftest import random_magnetic_graph
from graphbands import spectrum
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


def test_membership_matches_dense_alpha_reference():
    # seeds cover exact degrees 1..4 and both signs of det S
    alphas = 2 * np.pi * np.arange(1024)[:, None] / 1024
    rng = np.random.default_rng(4)
    for seed, degree in DEGREE_SEEDS.items():
        bs = gb.bond_matrices(random_magnetic_graph(seed))
        assert bs.secular_polynomial.degree == (degree,), seed
        kappas = rng.uniform(0, 2 * np.pi, (300, bs.n_edges))
        G = gb.real_secular_values(bs, kappas, alphas)
        dense = (G.min(axis=1) <= ZERO_TOL) & (G.max(axis=1) >= -ZERO_TOL)
        member = gb.membership_from_phases(bs, kappas)
        assert np.array_equal(member, dense), seed


def test_exact_degree_keeps_clear_members(monkeypatch):
    degrees = []
    extremes = spectrum._extremes
    monkeypatch.setattr(spectrum, "_extremes",
                        lambda G, m, even: degrees.append(m)
                        or extremes(G, m, even))
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
    bs = gb.bond_matrices(gb.bloch_reduce(FLOWER_CELL))
    assert bs.generators == 2
    # reduced edges: loop 1, loop 2, pendant
    assert bs.edge_ids == (1, 2, 3)
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


def lu_membership(g, kappas):
    """Membership of a fresh bond system of ``g`` with the compile budget
    at zero, so every G sample is an LU determinant."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "COMPILE_BUDGET", 0)
        bs = gb.bond_matrices(g)
        assert bs.secular_polynomial is None
        return gb.membership_from_phases(bs, kappas)


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


def test_compiled_secular_matches_determinants():
    rng = np.random.default_rng(12)
    for name, g in compiled_graphs().items():
        bs = gb.bond_matrices(g)
        poly = bs.secular_polynomial
        grid = 3 ** bs.n_edges * np.prod(2 * np.array(bs.flux_weight) + 1)
        assert 0 < poly.monomials < grid, name
        assert np.all(np.array(poly.degree) <= bs.flux_weight), name
        kappas = rng.uniform(0, 2 * np.pi, (200, bs.n_edges))
        alphas = rng.uniform(0, 2 * np.pi, (8, bs.generators))
        ref = lu_real_secular(bs, kappas, alphas)
        got = poly.values(kappas, alphas)
        assert np.all(np.abs(got - ref) <= 1e-12 * (1 + np.abs(ref))), name


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
        assert bs.secular_polynomial is not None
        assert 0 < member.sum() < len(member), name
        assert np.array_equal(member, lu_membership(g, kappas)), name


def test_graph_above_compile_budget_takes_lu_path():
    g = random_magnetic_graph(3, n_edges=8)
    bs = gb.bond_matrices(g)
    assert 3 ** 8 * (2 * bs.flux_weight[0] + 1) > spectrum.COMPILE_BUDGET
    assert bs.secular_polynomial is None
    rng = np.random.default_rng(15)
    kappas = rng.uniform(0, 2 * np.pi, (200, 8))
    alphas = 2 * np.pi * np.arange(256)[:, None] / 256
    G = lu_real_secular(bs, kappas, alphas)
    dense = (G.min(axis=1) <= ZERO_TOL) & (G.max(axis=1) >= -ZERO_TOL)
    member = gb.membership_from_phases(bs, kappas)
    assert 0 < member.sum() < len(member)
    assert np.array_equal(member, dense)
    # 3^41 * 65 grid points wrap a 64-bit product to a negative count
    assert gb.bond_matrices(random_magnetic_graph(0, n_edges=41)) \
        .secular_polynomial is None


def test_m1_closed_form_matches_dense_alpha_reference():
    # G = c0 + 2|c1| cos(alpha + phase): member iff |c0| <= 2|c1|, on the
    # compiled and on the LU path, for both signs of det S
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
        alphas = 2 * np.pi * np.arange(samples)[:, None] / samples
        G = lu_real_secular(bs, kappas, alphas)
        dense = (G.min(axis=1) <= ZERO_TOL) & (G.max(axis=1) >= -ZERO_TOL)
        assert 0 < dense.sum() < n
        assert np.array_equal(gb.membership_from_phases(bs, kappas), dense)
        assert np.array_equal(lu_membership(g, kappas), dense)
    assert parities == {-1, 1}



class CriticalPointsReached(Exception):
    pass


def test_m2_closed_form_matches_dense_alpha_reference(monkeypatch):
    # on a one-generator graph G is even in alpha, so at degree 2 it is a
    # quadratic in cos(alpha) and its extremes are closed-form: torus rows
    # and momentum rows k l, on the compiled and on the LU path, for both
    # signs of det S, never reach the critical points.  Seeds 17 and 12
    # have degree 1 and flux weight 2: their LU rows are sampled at m = 2.
    def critical_values(G, m):
        raise CriticalPointsReached(m)
    monkeypatch.setattr(spectrum, "_critical_values", critical_values)
    rng = np.random.default_rng(17)
    alphas = 2 * np.pi * np.arange(4096)[:, None] / 4096
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
        G = bs.secular_polynomial.values(kappas, alphas)
        dense = (G.min(axis=1) <= ZERO_TOL) & (G.max(axis=1) >= -ZERO_TOL)
        assert 0 < dense.sum() < len(dense)
        assert np.array_equal(gb.membership_from_phases(bs, kappas), dense)
        if bs.flux_weight == (2,):       # else the LU path samples m >= 3
            assert np.array_equal(lu_membership(g, kappas), dense)
    assert parities == {-1, 1}
    # degree 3 still takes the critical points
    bs = gb.bond_matrices(random_magnetic_graph(53))
    assert bs.secular_polynomial.degree == (3,)
    with pytest.raises(CriticalPointsReached):
        gb.membership_from_phases(bs, rng.uniform(0, 2 * np.pi, (10, 5)))


def test_m2_closed_form_degenerate_rows():
    # rows c0 + 2 c1 cos(alpha) + 2 c2 cos(2 alpha) whose quadratic in
    # cos(alpha) degenerates: c2 = 0 (a degree-1 row sampled at m = 2, as
    # on the LU path when the flux weight exceeds the degree), c1 = c2 = 0,
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
        lo, hi = spectrum._extremes(rows(5), 2, even=True)
    assert not np.isnan(lo).any() and not np.isnan(hi).any()
    dense = rows(4096)
    assert np.allclose(lo, dense.min(axis=1), rtol=0, atol=1e-12)
    assert np.allclose(hi, dense.max(axis=1), rtol=0, atol=1e-12)
    assert lo[6] <= ZERO_TOL and hi[6] >= -ZERO_TOL          # flat band


def test_two_generator_slices_keep_critical_points():
    # with J = 2 a slice along the main generator is not even in alpha, so
    # the closed form of even degree-2 rows must not decide it.  Degrees
    # (2, 1); the reference samples the main generator densely at the
    # same grid of the other.
    bs = gb.bond_matrices(random_magnetic_graph(17, generators=2))
    poly = bs.secular_polynomial
    assert poly.degree == (2, 1)
    kappas = np.random.default_rng(18).uniform(0, 2 * np.pi, (400, bs.n_edges))
    n = spectrum.GRID_FALLBACK_POINTS
    grid = np.meshgrid(2 * np.pi * np.arange(1024) / 1024,
                       2 * np.pi * np.arange(n) / n, indexing="ij")
    alphas = np.stack(grid, axis=-1).reshape(-1, 2)
    dense = np.concatenate([
        (G.min(axis=1) <= ZERO_TOL) & (G.max(axis=1) >= -ZERO_TOL)
        for G in (poly.values(rows, alphas) for rows in np.split(kappas, 8))])
    assert 0 < dense.sum() < len(dense)
    assert np.array_equal(gb.membership_from_phases(bs, kappas), dense)


# ------------------------------------------------------------ margin

def recorded_extremes(monkeypatch):
    """Wrap spectrum._extremes; the returned list collects its (lo, hi)."""
    seen = []
    extremes = spectrum._extremes
    monkeypatch.setattr(spectrum, "_extremes",
                        lambda G, m, even: seen.append(extremes(G, m, even))
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


@pytest.mark.parametrize("budget", [spectrum.COMPILE_BUDGET, 0])
def test_margin_sign_matches_two_comparisons(monkeypatch, budget):
    # random torus rows and momentum rows at band edges, where the
    # extremes sit near +-ZERO_TOL; budget 0 takes the LU path
    monkeypatch.setattr(spectrum, "COMPILE_BUDGET", budget)
    seen = recorded_extremes(monkeypatch)
    rng = np.random.default_rng(19)
    for name, g in margin_graphs().items():
        bs = gb.bond_matrices(g)
        assert (bs.secular_polynomial is None) == (budget == 0), name
        edges = np.array([x for b in gb.band_intervals(bs, 30.0).bands
                          for x in (b.lo, b.hi)])
        kappas = np.vstack([rng.uniform(0, 2 * np.pi, (1000, bs.n_edges)),
                            np.outer(edges, g.lengths)])
        old = assert_margin_sign_is_old_rule(bs, kappas, seen)
        assert 0 < old.sum() < len(old), name


def test_margin_sign_at_exact_extremes(monkeypatch):
    # extremes exactly at +-ZERO_TOL, one float spacing either side, signed
    # zeros, subnormals, NaN and +-inf, every pair of them as (min, max)
    values = [ZERO_TOL, -ZERO_TOL, 0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0,
              np.nan, np.inf, -np.inf]
    values += [np.nextafter(v, t) for v in (ZERO_TOL, -ZERO_TOL)
               for t in (-np.inf, np.inf)]
    lo, hi = (a.ravel() for a in np.meshgrid(values, values))
    monkeypatch.setattr(spectrum, "_extremes", lambda G, m, even: (lo, hi))
    bs = gb.bond_matrices(margin_graphs()["lasso"])
    kappas = np.zeros((len(lo), 2))
    old = (lo <= ZERO_TOL) & (hi >= -ZERO_TOL)
    assert 0 < old.sum() < len(old)
    assert np.array_equal(spectrum._margin(bs, kappas) >= 0, old)
    assert np.array_equal(gb.membership_from_phases(bs, kappas), old)
    # J = 2: 64 slices per row, the same values at a few random slices
    rng = np.random.default_rng(20)
    n = 400
    lo = rng.normal(0.0, 2 * ZERO_TOL, (n, 64)) + 3 * ZERO_TOL
    hi = lo + rng.exponential(2 * ZERO_TOL, (n, 64)) - 6 * ZERO_TOL
    for a in (lo, hi):
        a[rng.integers(0, n, 300), rng.integers(0, 64, 300)] = \
            rng.choice(values, 300)
    monkeypatch.setattr(spectrum, "_extremes",
                        lambda G, m, even: (lo.ravel(), hi.ravel()))
    bs = gb.bond_matrices(margin_graphs()["flower"])
    kappas = np.zeros((n, 3))
    old = (lo.min(axis=1) <= ZERO_TOL) & (hi.max(axis=1) >= -ZERO_TOL)
    assert 0 < old.sum() < len(old)
    assert np.array_equal(spectrum._margin(bs, kappas) >= 0, old)
    assert np.array_equal(gb.membership_from_phases(bs, kappas), old)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("budget", [spectrum.COMPILE_BUDGET, 0])
def test_margin_of_non_finite_phases(monkeypatch, budget):
    # a NaN or infinite phase gives NaN samples of G: not a member
    monkeypatch.setattr(spectrum, "COMPILE_BUDGET", budget)
    seen = recorded_extremes(monkeypatch)
    for name in ("lasso", "flower"):
        bs = gb.bond_matrices(margin_graphs()[name])
        kappas = np.zeros((6, bs.n_edges))
        kappas[:, 0] = [np.nan, np.inf, -np.inf, 0.0, 1.0, 2.0]
        kappas[3:, -1] = [np.nan, np.inf, -np.inf]
        old = assert_margin_sign_is_old_rule(bs, kappas, seen)
        assert not old.any(), name
        assert np.isnan(spectrum._margin(bs, kappas)).all(), name


# ------------------------------------------------------------ bands

def test_band_intervals_unit_lasso_closed_form():
    # bands in [0, 2 pi] are [0, a], [pi - a, pi + a], [2 pi - a, 2 pi]
    # with a = arccos(1/3)
    bands = gb.band_intervals(UNIT_LASSO, 2 * np.pi)
    expected = [(0.0, DIAG_EDGE), (np.pi - DIAG_EDGE, np.pi + DIAG_EDGE),
                (2 * np.pi - DIAG_EDGE, 2 * np.pi)]
    assert len(bands.bands) == 3
    for band, (lo, hi) in zip(bands.bands, expected):
        assert band.lo == pytest.approx(lo, abs=1e-8)
        assert band.hi == pytest.approx(hi, abs=1e-8)


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
        assert len(bands.bands) <= expected + 3
        assert len(bands.bands) >= 0.75 * expected


def test_band_intervals_grid_robustness():
    # a finer grid may resolve a few gaps narrower than the coarse step,
    # so the count can only grow and the measure moves by at most the
    # width of those gaps
    bs = gb.bond_matrices(gb.with_random_lengths(gb.build_example("lasso"), 4))
    coarse = gb.band_intervals(bs, 100.0)
    fine = gb.band_intervals(bs, 100.0, grid_step=coarse.grid_step / 2)
    extra = len(fine.bands) - len(coarse.bands)
    assert 0 <= extra <= 5
    change = coarse.total_measure - fine.total_measure
    assert -2 * coarse.bisect_tol * len(coarse.bands) <= change
    assert change <= extra * coarse.grid_step + 1e-6


def test_bisect_tol_below_float_spacing():
    # a tolerance no bracket can reach is raised to two float spacings
    bs = gb.bond_matrices(gb.with_random_lengths(gb.build_example("lasso"), 4))
    default = gb.band_intervals(bs, 100.0)
    tiny = gb.band_intervals(bs, 100.0, bisect_tol=1e-20)
    assert tiny.bisect_tol == 2 * np.spacing(100.0)
    assert len(tiny.bands) == len(default.bands)
    assert max(max(abs(a.lo - b.lo), abs(a.hi - b.hi))
               for a, b in zip(tiny.bands, default.bands)) <= 1e-8


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
                        lambda bs, ks, threads=None: calls.append(np.size(ks))
                        or margin(bs, ks, threads))
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
        got = np.array([(b.lo, b.hi) for b in bands.bands])
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


def test_band_validation():
    with pytest.raises(ValueError):
        gb.Band(2.0, 1.0)
    with pytest.raises(ValueError):
        gb.BandList(bands=(gb.Band(1.0, 2.0), gb.Band(1.5, 3.0)),
                    k_max=5.0, grid_step=0.1, bisect_tol=1e-10)
    with pytest.raises(ValueError):
        gb.band_intervals(UNIT_LASSO, -1.0)


def test_band_intervals_threads_identical():
    serial = gb.band_intervals(UNIT_LASSO, 40.0)
    threaded = gb.band_intervals(UNIT_LASSO, 40.0, threads=4)
    assert [(b.lo, b.hi) for b in serial.bands] == \
           [(b.lo, b.hi) for b in threaded.bands]


# ------------------------------------------------------------ density

def test_measure_below_brute_force():
    bands = gb.BandList(bands=(gb.Band(0.0, 1.0), gb.Band(2.0, 2.5),
                               gb.Band(4.0, 7.0)),
                        k_max=8.0, grid_step=0.1, bisect_tol=1e-12)
    cutoffs = np.array([0.5, 1.0, 1.5, 2.2, 3.0, 5.0, 8.0])
    expected = []
    for c in cutoffs:
        total = 0.0
        for b in bands.bands:
            total += max(0.0, min(b.hi, c) - b.lo) if b.lo < c else 0.0
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

"""End-to-end acceptance checks.

Each test exercises one published claim or contract at its stated
tolerance and records a single PASS/FAIL line (printed in the terminal
summary).  Reference: band density of the loop-with-pendant graph in
closed form; everything else must agree with it through independent
routes.
"""

import time

import numpy as np

import graphbands as gb
from graphbands import spectrum
from graphbands.secular import secular_values
from conftest import (DIHEDRAL_RHO, LASSO_S, lu_real_secular, phi_lasso,
                      random_magnetic_graph)

QUAD_REF = 0.6368335201743935   # frozen from lasso_reference_density()

LASSO_SEED = 42                 # documented length seed for the lasso runs
MC_SEEDS = tuple(range(20))     # documented seeds for the torus MC contract


def _lasso_system(seed=LASSO_SEED):
    return gb.bond_matrices(gb.with_random_lengths(gb.build_example("lasso"),
                                                   seed))


def _record(record_criterion, n, ok, detail, t0):
    line = "criterion %2d %s: %s [%.1fs]" % (
        n, "PASS" if ok else "FAIL", detail, time.perf_counter() - t0)
    record_criterion(line)
    assert ok, line


def test_criterion_01_quadrature_reference(record_criterion):
    t0 = time.perf_counter()
    ref = gb.lasso_reference_density()
    elapsed = time.perf_counter() - t0
    ok = (round(ref.value, 2) == 0.64 and ref.error_bound <= 1e-8
          and elapsed < 1.0)
    _record(record_criterion, 1, ok,
            "closed form %.10f rounds to 0.64, bound %.1e" %
            (ref.value, ref.error_bound), t0)


def test_criterion_02_band_density_route(record_criterion):
    t0 = time.perf_counter()
    bs = _lasso_system()
    k_max = 1e4 * np.pi / bs.total_length   # about 1e4 bands
    series = gb.density(bs, k_max, checkpoints=8)
    elapsed = time.perf_counter() - t0
    diff = abs(series.final - QUAD_REF)
    ok = diff < 0.01 and elapsed < 300.0
    _record(record_criterion, 2, ok,
            "band route %.6f vs %.6f (diff %.1e, %d bands)" %
            (series.final, QUAD_REF, diff, len(series.bands.lo)), t0)


def test_criterion_03_torus_mc_route(record_criterion):
    t0 = time.perf_counter()
    bs = _lasso_system()
    hits, worst = 0, 0.0
    for seed in MC_SEEDS:
        t1 = time.perf_counter()
        est = gb.mc_volume(bs, 1_000_000, seed=seed)
        assert time.perf_counter() - t1 < 60.0
        dev = abs(est.value - QUAD_REF) / est.std_error
        worst = max(worst, dev)
        hits += dev <= 3.0
    ok = hits >= 19
    _record(record_criterion, 3, ok,
            "torus MC within 3*SE for %d/20 seeds (worst %.2f sigma)" %
            (hits, worst), t0)


def test_criterion_04_decoration_universality(record_criterion):
    t0 = time.perf_counter()
    vals = {}
    for name, seed in (("fig1b", 101), ("fig1c", 202), ("fig1d", 303)):
        bs = gb.bond_matrices(gb.with_random_lengths(gb.build_example(name),
                                                     seed))
        vals[name] = gb.density(bs, 4000.0, checkpoints=1).final
    spread = max(vals.values()) - min(vals.values())
    off = max(abs(v - QUAD_REF) for v in vals.values())
    ok = (spread < 0.01 and off < 0.01
          and all(0.0 < v < 1.0 for v in vals.values()))
    _record(record_criterion, 4, ok,
            "decorated graphs %s, spread %.4f, max offset %.4f" %
            ({k: round(v, 4) for k, v in vals.items()}, spread, off), t0)


def test_criterion_05_length_universality(record_criterion):
    t0 = time.perf_counter()
    finals = []
    for seed in (7, 8):
        bs = gb.bond_matrices(gb.with_random_lengths(
            gb.build_example("fig1d"), seed))
        finals.append(gb.density(bs, 4000.0, checkpoints=1).final)
    diff = abs(finals[0] - finals[1])
    ok = diff < 0.01
    _record(record_criterion, 5, ok,
            "independent draws %.6f / %.6f (diff %.1e)" %
            (finals[0], finals[1], diff), t0)


def test_criterion_06_dihedral_value(record_criterion):
    t0 = time.perf_counter()
    ref = gb.dihedral_density(10_000_000)
    elapsed = time.perf_counter() - t0
    ok = (round(ref.value, 2) == 0.43 and elapsed < 60.0
          and abs(ref.value - DIHEDRAL_RHO) <= 1e-12)
    _record(record_criterion, 6, ok,
            "dihedral quadrature %.6f +- %.1e rounds to %.2f" %
            (ref.value, ref.error_bound, round(ref.value, 2)), t0)


def _realified_lines(bs, kappas, alphas_per_row):
    """Real secular function on torus rows with one alpha per row."""
    phases = (kappas[:, bs.edge_of_bond]
              + alphas_per_row[:, None] * bs.bond_flux[:, 0][None, :])
    vals = secular_values(bs, phases)[:, 0]
    return (vals * np.exp(-1j * kappas.sum(axis=1))).real


def test_criterion_07_determinant_vs_analytic_roots(record_criterion):
    t0 = time.perf_counter()
    bs = _lasso_system()
    rng = np.random.default_rng(77)
    n_lines, n_grid, span = 200, 1201, 6.0
    t = np.linspace(0.0, span, n_grid)

    origins = rng.uniform(0, 2 * np.pi, (n_lines, 2))
    angles = rng.uniform(0, 2 * np.pi, n_lines)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    alphas = rng.uniform(0, 2 * np.pi, n_lines)

    kappas = origins[:, None, :] + t[None, :, None] * dirs[:, None, :]
    flat = kappas.reshape(-1, 2)
    alpha_rows = np.repeat(alphas, n_grid)
    f_det = _realified_lines(bs, flat, alpha_rows).reshape(n_lines, n_grid)
    f_ana = phi_lasso(kappas[..., 0], kappas[..., 1], alphas[:, None])

    sgn_det = np.signbit(f_det)
    sgn_ana = np.signbit(f_ana)
    same_brackets = np.array_equal(sgn_det[:, 1:] != sgn_det[:, :-1],
                                   sgn_ana[:, 1:] != sgn_ana[:, :-1])

    line_idx, cell_idx = np.nonzero(sgn_det[:, 1:] != sgn_det[:, :-1])
    n_roots = len(line_idx)

    def bisect(fvals_at):
        lo, hi = t[cell_idx].copy(), t[cell_idx + 1].copy()
        f_lo = fvals_at(lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            f_mid = fvals_at(mid)
            left = np.signbit(f_mid) == np.signbit(f_lo)
            lo = np.where(left, mid, lo)
            f_lo = np.where(left, f_mid, f_lo)
            hi = np.where(left, hi, mid)
        return 0.5 * (lo + hi)

    def det_at(ts):
        kap = origins[line_idx] + ts[:, None] * dirs[line_idx]
        return _realified_lines(bs, kap, alphas[line_idx])

    def ana_at(ts):
        kap = origins[line_idx] + ts[:, None] * dirs[line_idx]
        return phi_lasso(kap[:, 0], kap[:, 1], alphas[line_idx])

    roots_det = bisect(det_at)
    roots_ana = bisect(ana_at)
    worst = np.abs(roots_det - roots_ana).max()
    ok = same_brackets and worst <= 1e-8 and n_roots > 200
    _record(record_criterion, 7, ok,
            "%d roots on 200 torus lines, max |dt| %.1e" % (n_roots, worst),
            t0)


def test_criterion_08_flow_torus_consistency(record_criterion):
    t0 = time.perf_counter()
    g = gb.with_random_lengths(gb.build_example("lasso"), LASSO_SEED)
    bs = gb.bond_matrices(g)
    k_hi = 60.0
    rng = np.random.default_rng(88)
    ks = rng.uniform(0.0, k_hi, 10_000)
    bands = gb.band_intervals(bs, k_hi)
    edges = np.concatenate([bands.lo, bands.hi])
    near_edge = np.min(np.abs(ks[:, None] - edges[None, :]), axis=1) <= 1e-6
    ks = ks[~near_edge]

    direct = spectrum.momentum_membership(bs, ks)
    lifted = np.mod(ks[:, None] * g.lengths[None, :], 2 * np.pi)
    via_torus = gb.membership_from_phases(bs, lifted)
    agree = np.mean(direct == via_torus)
    ok = agree >= 0.999
    _record(record_criterion, 8, ok,
            "flow vs torus membership agreement %.5f on %d momenta" %
            (agree, len(ks)), t0)


def test_criterion_09_decoration_reduction(record_criterion):
    t0 = time.perf_counter()
    # part 1: single pendant edge reflects with exp(2ikl)
    length = 0.8
    pendant = gb.MagneticGraph(vertices=(0, 1),
                               edges=(gb.Edge(1, 0, 1, length),),
                               generators=0)
    ks = np.linspace(0.0, 50.0, 401)
    worst_theta = np.abs(gb.effective_reflection(pendant, 0, ks)
                         - np.exp(2j * ks * length)).max()

    # part 2: lasso system with Theta substituted at the pendant end
    # reproduces the secular roots of the full subdivided-pendant graph
    l1, l2, l3 = 1.37, 0.81, 0.59
    full = gb.bond_matrices(gb.bind_lengths(gb.build_example("fig1c"),
                                            [l1, l2, l3]))
    lasso = gb.bond_matrices(gb.bind_lengths(gb.build_example("lasso"),
                                             [l1, l2]))
    dec = gb.MagneticGraph(vertices=(0, 1), edges=(gb.Edge(1, 0, 1, l3),),
                           generators=0)
    total = l1 + l2 + l3

    def reduced_real(ks, alpha):
        thetas = gb.effective_reflection(dec, 0, ks)
        S = np.broadcast_to(lasso.scattering, (len(ks), 4, 4)).astype(complex)
        S = S.copy()
        S[:, 1, 3] = thetas
        phase = (alpha * lasso.bond_flux[:, 0][None, :]
                 + ks[:, None] * lasso.bond_lengths[None, :])
        M = -np.exp(1j * phase)[:, :, None] * S
        M[:, np.arange(4), np.arange(4)] += 1.0
        det = np.linalg.det(M)
        return (det * np.exp(-1j * ks * total)).real

    edge_lengths = full.bond_lengths[:full.n_edges]

    def full_real(ks, alpha):
        return lu_real_secular(
            full, ks[:, None] * edge_lengths[None, :], [[alpha]])[:, 0]

    worst_root = 0.0
    n_roots = 0
    grid = np.linspace(0.3, 25.0, 3001)
    for alpha in (0.0, 0.9, 2.3):
        fr = full_real(grid, alpha)
        rr = reduced_real(grid, alpha)
        cells_f = np.nonzero(np.signbit(fr[1:]) != np.signbit(fr[:-1]))[0]
        cells_r = np.nonzero(np.signbit(rr[1:]) != np.signbit(rr[:-1]))[0]
        assert np.array_equal(cells_f, cells_r)

        def bisect(fun, cells):
            lo, hi = grid[cells].copy(), grid[cells + 1].copy()
            f_lo = fun(lo, alpha)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                fm = fun(mid, alpha)
                left = np.signbit(fm) == np.signbit(f_lo)
                lo = np.where(left, mid, lo)
                f_lo = np.where(left, fm, f_lo)
                hi = np.where(left, hi, mid)
            return 0.5 * (lo + hi)

        roots_f = bisect(full_real, cells_f)
        roots_r = bisect(reduced_real, cells_r)
        n_roots += len(roots_f)
        worst_root = max(worst_root, np.abs(roots_f - roots_r).max())

    ok = worst_theta <= 1e-10 and worst_root <= 1e-8 and n_roots > 50
    _record(record_criterion, 9, ok,
            "pendant |Theta err| %.1e; %d reduced-system roots match "
            "within %.1e" % (worst_theta, n_roots, worst_root), t0)


def test_criterion_10_structural_fixtures(record_criterion):
    t0 = time.perf_counter()
    bs = gb.bond_matrices(gb.bind_lengths(gb.build_example("lasso"),
                                          [1.0, 1.0]))
    fixture_err = np.abs(bs.scattering - LASSO_S).max()
    worst_orth = 0.0
    for seed in range(100):
        S = gb.bond_matrices(random_magnetic_graph(seed, n_edges=5)).scattering
        worst_orth = max(worst_orth,
                         np.abs(S.T @ S - np.eye(10)).max())
    ok = fixture_err <= 1e-15 and worst_orth <= 1e-12
    _record(record_criterion, 10, ok,
            "hand fixture err %.1e; worst orthogonality defect %.1e "
            "over 100 random graphs" % (fixture_err, worst_orth), t0)


def test_criterion_11_alpha_reversal_symmetry(record_criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for name in gb.EXAMPLE_NAMES:
        bs = gb.bond_matrices(gb.with_random_lengths(gb.build_example(name),
                                                     13))
        ks = rng.uniform(0.0, 40.0, 50)
        alphas = rng.uniform(-np.pi, np.pi, 20)
        phases = ks[:, None] * bs.bond_lengths[None, :]
        f_pos = secular_values(bs, phases, alphas[:, None])
        f_neg = secular_values(bs, phases, -alphas[:, None])
        rel = np.abs(f_pos - f_neg) / (1.0 + np.abs(f_pos))
        worst = max(worst, rel.max())
    ok = worst <= 1e-12
    _record(record_criterion, 11, ok,
            "max |F(k,a)-F(k,-a)|/(1+|F|) = %.1e over 4 graphs x 1000 pairs"
            % worst, t0)

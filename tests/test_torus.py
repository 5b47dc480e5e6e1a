import math
from statistics import NormalDist

import numpy as np
import pytest

import graphbands as gb
import graphbands.torus as torus_mod
from conftest import (circle_system, lasso_membership, loop_with,
                      random_magnetic_graph, theta_graph)

LASSO = gb.bond_matrices(gb.with_random_lengths(gb.build_example("lasso"), 42))


# ------------------------------------------------------------- membership

def test_torus_membership_lasso_points():
    kappas = np.array([[0.0, 0.0], [np.pi / 2, np.pi / 2]])
    assert gb.membership_from_phases(LASSO, kappas).tolist() == [True, False]


def test_torus_membership_rows_are_edge_phases():
    # rows are (n, E) edge phases; any other width, including the (n, 2E)
    # of bond phases, is refused rather than misread
    for shape in ((1, 3), (1, 4), (1, 1), (2,)):
        with pytest.raises(ValueError):
            gb.membership_from_phases(LASSO, np.zeros(shape))


def test_torus_membership_matches_closed_form():
    rng = np.random.default_rng(1)
    kap = rng.uniform(0, 2 * np.pi, (10_000, 2))
    mine = gb.membership_from_phases(LASSO, kap)
    ref = lasso_membership(kap[:, 0], kap[:, 1])
    agreement = np.mean(mine == ref)
    assert agreement >= 0.999


def test_torus_membership_reflection_symmetric():
    # kappa -> -kappa mod 2 pi leaves membership unchanged (time reversal)
    rng = np.random.default_rng(2)
    kap = rng.uniform(0, 2 * np.pi, (500, 2))
    neg = np.mod(-kap, 2 * np.pi)
    a = gb.membership_from_phases(LASSO, kap)
    b = gb.membership_from_phases(LASSO, neg)
    assert np.array_equal(a, b)


# ------------------------------------------------------------ Monte Carlo

def test_mc_volume_deterministic():
    a = gb.mc_volume(LASSO, 40_000, seed=11)
    b = gb.mc_volume(LASSO, 40_000, seed=11)
    assert a == b
    c = gb.mc_volume(LASSO, 40_000, seed=12)
    assert c.value != a.value


def test_mc_volume_chunk_independent(monkeypatch):
    full = gb.mc_volume(LASSO, 30_000, seed=5)
    # threads has no effect on the estimate
    assert gb.mc_volume(LASSO, 30_000, seed=5, threads=2) == full
    monkeypatch.setattr(torus_mod, "_MC_CHUNK", 1234)
    chunked = gb.mc_volume(LASSO, 30_000, seed=5)
    assert chunked.value == full.value
    assert chunked.std_error == full.std_error


def test_mc_volume_frozen_regression():
    est = gb.mc_volume(LASSO, 200_000, seed=11)
    assert est.value == pytest.approx(0.638055, abs=1e-9)
    assert est.std_error == pytest.approx(
        np.sqrt(est.value * (1 - est.value) / 200_000), abs=1e-15)


def test_mc_volume_circle_graph_is_full():
    est = gb.mc_volume(circle_system(), 5_000, seed=1)
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_mc_volume_rejects_bad_samples():
    with pytest.raises(ValueError):
        gb.mc_volume(LASSO, 0, seed=1)


def test_mc_sample_counts_must_be_integers():
    # a float count, even a whole one, is refused by name, not deep in numpy;
    # a bool is refused, not run as the count 1 or 0
    for samples in (1e5, 1000.5, "1000", True, False, np.True_):
        with pytest.raises(TypeError, match="samples"):
            gb.dihedral_density(samples)
        with pytest.raises(TypeError, match="samples"):
            gb.mc_volume(LASSO, samples, seed=0)


def test_mc_seeds_must_be_non_negative_integers():
    # refused by name, not run as seed 1 (a bool) and not failed inside
    # numpy with numpy's message (a float, a string, a negative seed)
    for seed in (True, False, np.True_, 1.5, 1.0, "1", -1, np.int64(-1)):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            gb.mc_volume(LASSO, 10, seed=seed)


def test_mc_numpy_sample_counts_give_python_numbers():
    ref = gb.dihedral_density(np.int64(20_000))
    assert ref == gb.dihedral_density(20_000)
    assert type(ref.value) is float and type(ref.error_bound) is float
    est = gb.mc_volume(LASSO, np.int64(20_000), seed=np.int64(4))
    assert est == gb.mc_volume(LASSO, 20_000, seed=4)
    assert type(est.value) is float and type(est.std_error) is float
    assert type(est.samples) is int and type(est.seed) is int


def test_mc_volume_matches_quadrature_reference():
    ref = gb.lasso_reference_density().value
    est = gb.mc_volume(LASSO, 150_000, seed=3)
    assert abs(est.value - ref) <= 3 * est.std_error


def test_theta_graph_volume_matches_dihedral_reference():
    # the dihedral reference describes the theta graph: two vertices, three
    # parallel edges, fluxes (0, 1, 1).  Through the generic pipeline its
    # torus volume agrees with dihedral_density within 3 combined SE
    # (seeds fixed before the first run).
    core = gb.core_shape(theta_graph())
    assert core.edge_count == 3
    bs = gb.bond_matrices(core)
    assert bs.parity == -1
    est = gb.mc_volume(bs, 400_000, seed=17)
    ref = gb.dihedral_density(2_000_000)
    assert abs(est.value - ref.value) <= 3 * math.hypot(est.std_error,
                                                        ref.error_bound)


def test_cross_route_agreement():
    # torus volume and band-scan density estimate the same number
    est = gb.mc_volume(LASSO, 100_000, seed=9)
    series = gb.density(LASSO, 1500.0, checkpoints=1)
    assert abs(est.value - series.final) < 0.02



# ------------------------------------------------------------- core shape

def volume_gap_bound(a, b, tests):
    """z sqrt(SE_a^2 + SE_b^2) for two independent volume estimates, z
    the two-sided normal quantile at a Bonferroni share 1e-3 / tests of a
    1e-3 family-wise false-alarm rate."""
    z = NormalDist().inv_cdf(1.0 - 0.5e-3 / tests)
    return z * math.hypot(a.std_error, b.std_error)


def test_core_shape_keeps_the_torus_volume():
    """For every corpus graph (random_magnetic_graph(0..199)) that
    core_shape shrinks, the torus volumes of the graph and of its core
    agree: |V - V_core| <= z sqrt(SE^2 + SE_core^2).

    The two estimates are independent (Philox seeds 2s and 2s + 1, 4,000
    samples each; both fixed before the first run), so when the volumes
    are equal their difference is close to normal with that standard
    error.  The test makes one comparison per shrunk graph, N of them
    (110).  A Bonferroni split of a 1e-3 family-wise false-alarm rate
    gives each a two-sided rate of 1e-3 / N, so z = Phi^-1(1 - 5e-4 / N),
    4.44 at N = 110.  A flat "3 SE" gate would fail by chance in about
    one run of four over that many graphs.
    """
    shrunk = []
    for seed in range(200):
        g = random_magnetic_graph(seed)
        core = gb.core_shape(g)
        if core.edge_count < g.edge_count:
            shrunk.append((seed, g, core))
    assert len(shrunk) == 110
    for seed, g, core in shrunk:
        a = gb.mc_volume(gb.bond_matrices(g), 4000, 2 * seed)
        b = gb.mc_volume(gb.bond_matrices(core), 4000, 2 * seed + 1)
        assert abs(a.value - b.value) <= volume_gap_bound(a, b, len(shrunk)), \
            (seed, a.value, b.value)


def test_core_shape_keeps_the_torus_volume_of_multi_end_parts():
    """The same check on the corpus graphs where core_shape cuts a
    flux-free part with a >= 2 edge ends at its vertex, seen as a
    self-loop of the core that is not one after merge_series:
    random_magnetic_graph(seed, n_edges, J) for seeds 0..199, n_edges 5,
    6 and 7 and J = 1 and 2, N = 16 graphs.  Philox seeds 2s and 2s + 1,
    40,000 samples each (both fixed before the first run), and z =
    Phi^-1(1 - 5e-4 / N) = 3.99.
    """
    def loops(g):
        return {e.id for e in g.edges if e.tail == e.head}

    cut = []
    for generators in (1, 2):
        for n_edges in (5, 6, 7):
            for seed in range(200):
                g = random_magnetic_graph(seed, n_edges, generators)
                core = gb.core_shape(g)
                if loops(core) - loops(gb.merge_series(g)):
                    cut.append((seed, g, core))
    assert len(cut) == 16
    for seed, g, core in cut:
        a = gb.mc_volume(gb.bond_matrices(g), 40_000, 2 * seed)
        b = gb.mc_volume(gb.bond_matrices(core), 40_000, 2 * seed + 1)
        assert abs(a.value - b.value) <= volume_gap_bound(a, b, len(cut)), \
            (seed, a.value, b.value)


def test_bridge_move_maps_torus_rows_exactly():
    """The bridge move row by row.  At a torus row kappa the cut side
    and its bridge reflect with exp(2i kappa_c) Theta(kappa_dec), Theta
    the reflection coefficient of the cut side with lengths kappa_dec at
    k = 1; the pendant of the core reflects with exp(2i kappa_c').  So
    kappa is in the band set of the graph exactly when the core row with
    kappa_c' = kappa_c + arg Theta / 2 is in that of the core: fig1d (a
    triangle behind the connector) and a self-loop behind a bridge."""
    rng = np.random.default_rng(31)
    for g in (gb.with_random_lengths(gb.build_example("fig1d"), 5),
              loop_with([(0, 1, 0), (1, 1, 0)])):
        core = gb.core_shape(g)
        assert [e.id for e in core.edges] == [e.id for e in g.edges[:2]]
        bridge, cut = core.edges[1], g.edges[2:]
        ends = {v for e in cut for v in (e.tail, e.head)}
        entry, = {bridge.tail, bridge.head} & ends
        side = gb.MagneticGraph(tuple(sorted(ends)), cut, g.generators)
        kappas = rng.uniform(0, 2 * np.pi, (2000, g.edge_count))
        shift = np.array([np.angle(gb.effective_reflection(
            gb.bind_lengths(side, row[2:]), entry, 1.0)) / 2
            for row in kappas])
        rows = kappas[:, :2] + np.column_stack([np.zeros(len(shift)), shift])
        member = gb.membership_from_phases(gb.bond_matrices(g), kappas)
        assert 0 < member.sum() < len(member)
        assert np.array_equal(
            member, gb.membership_from_phases(gb.bond_matrices(core), rows))


def test_bridge_move_needs_a_bridge_and_a_flux_free_side():
    # the two shapes core_shape must keep, against the lasso they would
    # become if cut: a fluxed triangle behind a bridge, and a flux-free
    # triangle on the loop vertex with no bridge (0.500, not 0.637)
    lasso = gb.mc_volume(LASSO, 40_000, 0)
    for decoration in ([(0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 1, 0)],
                       [(0, 1, 0), (1, 2, 0), (2, 0, 0)]):
        g = loop_with(decoration)
        assert gb.core_shape(g) == gb.merge_series(g)
        kept = gb.mc_volume(gb.bond_matrices(gb.core_shape(g)), 40_000, 1)
        assert abs(kept.value - lasso.value) > volume_gap_bound(kept, lasso, 2)

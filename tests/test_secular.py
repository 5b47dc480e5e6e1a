import numpy as np
import pytest

import graphbands as gb
from conftest import (flower_graph, lu_real_secular, phi_lasso,
                      random_magnetic_graph)

UNIT_LASSO = gb.bind_lengths(gb.build_example("lasso"), [1.0, 1.0])


def secular(bs, k, alpha):
    """F(k; alpha) at one point: a one-row batch of the kernel."""
    return gb.secular_values(bs, k * bs.bond_lengths[None, :],
                             np.atleast_2d(alpha))[0, 0]


def phi(bs, kappa, alpha):
    """Phi(kappa; alpha) for per-edge phases kappa: a one-row batch."""
    kappa = np.asarray(kappa, dtype=float)
    return gb.secular_values(bs, kappa[bs.edge_of_bond][None, :],
                             np.atleast_2d(alpha))[0, 0]


def test_alphas_one_dimensional_and_wrong_width():
    # 1-d alphas are a column of quasi-momenta when J = 1 and one row when
    # J = 2; a row of another width than J is refused
    one = gb.bond_matrices(UNIT_LASSO)
    two = gb.bond_matrices(flower_graph(2))
    p1 = np.full((2, one.n_bonds), 0.3)
    p2 = np.full((2, two.n_bonds), 0.4)
    got = gb.secular_values(one, p1, [0.1, 0.7, 1.3])
    assert got.shape == (2, 3)
    assert np.array_equal(got, gb.secular_values(one, p1,
                                                 [[0.1], [0.7], [1.3]]))
    got = gb.secular_values(two, p2, [0.1, 0.7])
    assert got.shape == (2, 1)
    assert np.array_equal(got, gb.secular_values(two, p2, [[0.1, 0.7]]))
    for bs, phases, alphas in ((one, p1, np.zeros((3, 2))),
                               (two, p2, [0.1, 0.7, 1.3]),
                               (two, p2, np.zeros((3, 1)))):
        with pytest.raises(ValueError) as err:
            gb.secular_values(bs, phases, alphas)
        assert str(err.value) == ("alphas must have shape (NA, %d)"
                                  % bs.generators)


def test_secular_zero_at_full_torus_period():
    bs = gb.bond_matrices(UNIT_LASSO)
    assert abs(secular(bs, 2 * np.pi, [0.0])) <= 1e-10


def test_secular_nonzero_in_gap():
    bs = gb.bond_matrices(UNIT_LASSO)
    for a in (0.0, 1.0, np.pi):
        assert abs(secular(bs, np.pi / 2, [a])) > 0.1


def test_secular_zero_at_k0_for_any_graph():
    # the constant function is always an eigenfunction at k = 0
    for seed in range(15):
        bs = gb.bond_matrices(random_magnetic_graph(seed))
        assert abs(secular(bs, 0.0, [0.0])) <= 1e-10


def test_phi_matches_secular_along_the_flow():
    rng = np.random.default_rng(4)
    for seed in range(8):
        g = random_magnetic_graph(seed)
        bs = gb.bond_matrices(g)
        k = rng.uniform(0, 30)
        a = rng.uniform(-np.pi, np.pi, 1)
        kappa = np.mod(k * g.lengths, 2 * np.pi)
        d = abs(phi(bs, kappa, a) - secular(bs, k, a))
        assert d <= 1e-10


def test_phi_periodic_in_each_coordinate():
    bs = gb.bond_matrices(UNIT_LASSO)
    rng = np.random.default_rng(5)
    kappa = rng.uniform(0, 2 * np.pi, 2)
    base = phi(bs, kappa, [0.3])
    for e in range(2):
        shifted = kappa.copy()
        shifted[e] += 2 * np.pi
        assert abs(phi(bs, shifted, [0.3]) - base) <= 1e-10


def test_phi_lasso_closed_form_zero():
    bs = gb.bond_matrices(UNIT_LASSO)
    assert abs(phi(bs, [0.0, 0.0], [0.0])) <= 1e-12


def test_phi_dimension_checked():
    bs = gb.bond_matrices(UNIT_LASSO)
    with pytest.raises(ValueError):
        gb.secular_values(bs, [[0.1, 0.2, 0.3]], [[0.0]])


def test_alpha_reversal_symmetry_random_graphs():
    rng = np.random.default_rng(6)
    for seed in range(10):
        bs = gb.bond_matrices(random_magnetic_graph(seed))
        for _ in range(20):
            k = rng.uniform(0, 40)
            a = rng.uniform(-np.pi, np.pi)
            f1 = secular(bs, k, [a])
            f2 = secular(bs, k, [-a])
            assert abs(f1 - f2) <= 1e-12 * (1 + abs(f1))


def test_magnitude_bounded():
    # |det(I - U)| <= 2^(2E) since U is unitary
    rng = np.random.default_rng(7)
    for seed in range(10):
        bs = gb.bond_matrices(random_magnetic_graph(seed))
        k = rng.uniform(0, 50)
        a = rng.uniform(-np.pi, np.pi)
        assert abs(secular(bs, k, [a])) <= 2.0 ** 10


def test_batched_values_match_scalar_path():
    # independent reference: dense det(I - diag(exp(i(kL + A.alpha))) S)
    bs = gb.bond_matrices(gb.with_random_lengths(gb.build_example("fig1c"), 3))
    rng = np.random.default_rng(8)
    ks = rng.uniform(0, 20, 17)
    alphas = rng.uniform(0, 2 * np.pi, (5, 1))
    batch = gb.secular_values(bs, ks[:, None] * bs.bond_lengths[None, :], alphas)
    eye = np.eye(bs.n_bonds)
    for i, k in enumerate(ks):
        for j, a in enumerate(alphas):
            phase = k * bs.bond_lengths + bs.bond_flux @ a
            dense = np.linalg.det(eye - np.diag(np.exp(1j * phase)) @ bs.scattering)
            assert abs(batch[i, j] - dense) <= 1e-11


def test_batched_values_threaded_identical():
    bs = gb.bond_matrices(UNIT_LASSO)
    rng = np.random.default_rng(9)
    phases = rng.uniform(0, 2 * np.pi, (2000, 4))
    a = np.array([[0.4]])
    serial = gb.secular_values(bs, phases, a)
    # threads is still accepted, and has no effect
    threaded = gb.secular_values(bs, phases, a, threads=4)
    assert np.array_equal(serial, threaded)


def test_realified_is_real_section_of_phi():
    # exp(-i sum kappa) Phi is real (det S = +1) or imaginary (det S = -1);
    # on the loop-with-pendant graph it equals 4/3 times the closed form
    bs = gb.bond_matrices(UNIT_LASSO)
    assert bs.parity == 1
    rng = np.random.default_rng(10)
    kappas = rng.uniform(0, 2 * np.pi, (40, 2))
    a = 0.7
    r = lu_real_secular(bs, kappas, [[a]])[:, 0]
    closed = phi_lasso(kappas[:, 0], kappas[:, 1], a)
    assert np.abs(r - 4.0 / 3.0 * closed).max() <= 1e-12 * 10


def test_realified_has_full_magnitude():
    # the discarded component is zero, so no root information is lost
    rng = np.random.default_rng(11)
    for seed in range(8):
        g = random_magnetic_graph(seed)
        bs = gb.bond_matrices(g)
        kappas = rng.uniform(0, 2 * np.pi, (10, 5))
        a = rng.uniform(0, np.pi)
        r = lu_real_secular(bs, kappas, [[a]])[:, 0]
        phases = kappas[:, bs.edge_of_bond]
        full = np.abs(gb.secular_values(bs, phases, np.array([[a]]))[:, 0])
        assert np.abs(np.abs(r) - full).max() <= 1e-10 * (1 + full.max())


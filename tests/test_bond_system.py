import numpy as np
import pytest

import graphbands as gb
from conftest import LASSO_S, flower_graph, loop_with, random_magnetic_graph


def lasso_system(l1=1.3, l2=0.9):
    return gb.bond_matrices(gb.bind_lengths(gb.build_example("lasso"), [l1, l2]))


def test_lasso_matrix_fixture():
    bs = lasso_system()
    assert np.abs(bs.scattering - LASSO_S).max() <= 1e-15
    assert bs.bond_lengths.tolist() == [1.3, 0.9, 1.3, 0.9]
    assert bs.bond_flux[:, 0].tolist() == [1.0, 0.0, -1.0, 0.0]
    assert bs.edge_of_bond.tolist() == [0, 1, 0, 1]


def test_single_edge_full_reflection():
    g = gb.MagneticGraph(vertices=(0, 1), edges=(gb.Edge(1, 0, 1, 1.0),),
                         generators=0)
    bs = gb.bond_matrices(g)
    assert np.array_equal(bs.scattering, [[0.0, 1.0], [1.0, 0.0]])
    assert bs.parity == -1                      # a tree: E - V = -1


def test_random_corpus_invariants():
    n = 2 * 5
    perm = np.concatenate([np.arange(5, 10), np.arange(0, 5)])
    seen = set()
    for seed in range(40):
        g = random_magnetic_graph(seed)
        bs = gb.bond_matrices(g)
        S = bs.scattering
        # orthogonality
        assert np.abs(S.T @ S - np.eye(n)).max() <= 1e-12
        # stochasticity of rows (S 1 = 1: constant function scatters to itself)
        assert np.abs(S.sum(axis=1) - 1.0).max() <= 1e-12
        # reversal symmetry P S P = S^T
        assert np.abs(S[np.ix_(perm, perm)] - S.T).max() <= 1e-12
        # nonzero pattern follows incidence, loops counted twice in degree
        heads = [e.head for e in g.edges] + [e.tail for e in g.edges]
        tails = [e.tail for e in g.edges] + [e.head for e in g.edges]
        deg = g.degrees()
        for b in range(n):
            col = np.nonzero(S[:, b])[0]
            d = deg[heads[b]]
            seen.add(d)
            # back coefficient -1 + 2/d vanishes exactly at degree 2
            assert len(col) == (1 if d == 2 else d)
            for bp in col:
                assert tails[bp] == heads[b]
            # exact Kirchhoff values: 2/d into each outgoing bond, less 1
            # back into the bond's own reversal
            for bp in range(n):
                into = 2 / d if tails[bp] == heads[b] else 0.0
                assert S[bp, b] == into - (bp == (b + 5) % n)
        # bond data symmetry
        assert np.array_equal(bs.bond_lengths[:5], bs.bond_lengths[5:])
        assert np.array_equal(bs.bond_flux[:5], -bs.bond_flux[5:])
        # determinant is +-1, and parity is its sign
        assert bs.parity in (-1, 1)
        assert abs(np.linalg.det(S) - bs.parity) <= 1e-8
    # the exact values are checked at pendant, pass-through and branch
    # vertices alike
    assert {1, 2, 3} <= seen


def test_parity_is_cycle_rank_sign():
    # det S = (-1)^(E - V), on multi-edges, self-loops and J = 2 that the
    # corpus above does not reach
    graphs = [random_magnetic_graph(seed, n_edges=E, generators=J)
              for E in (2, 3, 5, 8) for J in (1, 2) for seed in range(200)]
    graphs += [flower_graph(n) for n in range(1, 6)]
    graphs += [loop_with([(0, 1, 0), (1, 1, 0)]), loop_with([(0, 0, 0)])]
    graphs += [gb.with_random_lengths(gb.build_example(name), 1)
               for name in gb.EXAMPLE_NAMES]
    assert len(graphs) == 1611
    for g in graphs:
        bs = gb.bond_matrices(g)
        assert bs.parity == (-1) ** (g.edge_count - len(g.vertices))
        assert np.sign(np.linalg.det(bs.scattering)) == bs.parity


def test_edgeless_graph_is_refused():
    g = gb.MagneticGraph(vertices=(0,), edges=(), generators=0)
    with pytest.raises(gb.GraphError, match="graph has no edges"):
        gb.bond_matrices(g)


def test_self_loop_degree_and_scattering():
    # circle graph: one self-loop; its vertex has degree 2, so the loop
    # bonds pass through with amplitude 1 and never reflect
    g = gb.MagneticGraph(vertices=(0,), edges=(gb.Edge(1, 0, 0, 1.0, (1,)),),
                         generators=1)
    bs = gb.bond_matrices(g)
    assert np.array_equal(bs.scattering, np.eye(2))

"""Shared test helpers: a random graph corpus and acceptance reporting."""

import numpy as np
import pytest

from graphbands import Edge, MagneticGraph

_CRITERION_LINES = []


def random_magnetic_graph(seed, n_edges=5, generators=1, loops=True):
    """Random connected bound magnetic graph: spanning tree plus extra
    edges (parallel edges and self-loops allowed), flux entries in
    {-1, 0, 1}."""
    rng = np.random.default_rng(seed)
    n_vertices = int(rng.integers(2, min(n_edges, 4) + 1))
    vertices = tuple(range(n_vertices))
    edges = []
    for v in range(1, n_vertices):
        u = int(rng.integers(0, v))
        edges.append((u, v))
    while len(edges) < n_edges:
        u = int(rng.integers(0, n_vertices))
        v = int(rng.integers(0, n_vertices))
        if u == v and not loops:
            continue
        edges.append((u, v))
    built = []
    for i, (u, v) in enumerate(edges):
        flux = tuple(int(f) for f in rng.integers(-1, 2, size=generators))
        length = float(rng.uniform(0.5, 2.0))
        built.append(Edge(id=i + 1, tail=u, head=v, length=length, flux=flux))
    return MagneticGraph(vertices=vertices, edges=tuple(built),
                         generators=generators)


def flower_graph(loops):
    """One vertex with ``loops`` loops, loop j carrying a unit of flux of
    generator j: J = E = loops, every flux weight 1."""
    return MagneticGraph(
        vertices=(0,),
        edges=tuple(Edge(id=j + 1, tail=0, head=0, length=1.0 + 0.1 * j,
                         flux=tuple(int(i == j) for i in range(loops)))
                    for j in range(loops)),
        generators=loops)


def theta_graph():
    """Two vertices joined by three parallel edges with fluxes (0, 1, 1),
    lengths 1.1, 1.3, 1.7: the graph of the dihedral reference; det S =
    -1, so G is a sum of sines of the edge phases."""
    return MagneticGraph((0, 1), tuple(
        Edge(i, 0, 1, length, (flux,))
        for i, (length, flux) in enumerate(((1.1, 0), (1.3, 1), (1.7, 1)), 1)),
        generators=1)


def loop_with(decoration, loop_flux=1):
    """A loop of flux ``loop_flux`` at vertex 0 plus ``decoration``, a list
    of (tail, head, flux) edges; lengths 1.1, 1.2, ... in edge order."""
    ends = [(0, 0, loop_flux)] + list(decoration)
    vertices = tuple(sorted({v for t, h, _ in ends for v in (t, h)}))
    return MagneticGraph(vertices, tuple(
        Edge(i, t, h, 1.0 + 0.1 * i, (f,))
        for i, (t, h, f) in enumerate(ends, 1)), generators=1)


def marker_fig1d(lengths):
    """fig1d given as a magnetic graph with its loop cut at a degree-2
    marker vertex 5: loop halves 1 (flux 1) and 6, connector 2, triangle
    3, 4, 5.  Six edges."""
    ends = ((0, 5), (2, 0), (2, 3), (3, 4), (4, 2), (5, 0))
    return MagneticGraph(
        vertices=(0, 2, 3, 4, 5),
        edges=tuple(Edge(i, t, h, float(l), (int(i == 1),))
                    for i, ((t, h), l) in enumerate(zip(ends, lengths), 1)),
        generators=1, name="fig1d")


@pytest.fixture
def record_criterion():
    def _record(line):
        _CRITERION_LINES.append(line)
        print(line)
    return _record


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _CRITERION_LINES:
        terminalreporter.write_line(line)

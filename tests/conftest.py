"""Shared test helpers: a random graph corpus, hand-built graphs, the
closed-form secular functions and band sets of the lasso and dihedral
graphs (oracles independent of the package), the LU reference of the
real secular function, and acceptance reporting, which ends with the
source size of the package."""

import ast
from pathlib import Path

import numpy as np
import pytest

from graphbands import (Edge, FundamentalCell, Identification, MagneticGraph,
                        bond_matrices)
from graphbands.secular import secular_values

_CRITERION_LINES = []

# the dihedral (theta graph) band density: mpmath 1.3 at 25 digits, mp.quad
# of (8/pi^3) arctan(4 sin a cos b / (3 sin^2 a + sin^2 b)) over [0, pi/2]^2
# split at pi/4 in each axis, gives 0.42993954922940989957
DIHEDRAL_RHO = 0.42993954922940990

# the loop-with-pendant scattering matrix, entered by hand
LASSO_S = np.array([
    [2 / 3,  2 / 3, -1 / 3, 0.0],
    [0.0,    0.0,    0.0,   1.0],
    [-1 / 3, 2 / 3,  2 / 3, 0.0],
    [2 / 3, -1 / 3,  2 / 3, 0.0]])

# flower with pendant: two generator loops at one vertex (J = 2)
FLOWER_CELL = FundamentalCell(
    vertices=(0, 1, 2, 3),
    edges=(Edge(1, 0, 1, 1.414), Edge(2, 0, 2, 1.732), Edge(3, 0, 3, 1.236)),
    identifications=(Identification(1, plus=1, minus=0),
                     Identification(2, plus=2, minus=0)),
    generators=2)


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


def circle_system(length=1.0):
    """Bond system of one loop of flux 1 at one vertex: the circle, whose
    spectrum has no gaps."""
    return bond_matrices(MagneticGraph(
        vertices=(0,), edges=(Edge(1, 0, 0, length, (1,)),), generators=1))


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


def phi_lasso(kappa1, kappa2, alpha):
    """Secular function of the loop-with-pendant graph on the torus,

        2 cos(kappa2) (cos(kappa1) - cos(alpha)) - sin(kappa1) sin(kappa2)

    with kappa1 the loop phase, kappa2 the pendant phase and alpha the
    quasi-momentum.  Zeros in alpha give the dispersion relation.
    """
    kappa1, kappa2, alpha = np.broadcast_arrays(
        np.asarray(kappa1, float), np.asarray(kappa2, float),
        np.asarray(alpha, float))
    out = (2.0 * np.cos(kappa2) * (np.cos(kappa1) - np.cos(alpha))
           - np.sin(kappa1) * np.sin(kappa2))
    return out if out.ndim else float(out)


def lasso_membership(kappa1, kappa2):
    """Band-set indicator of the loop-with-pendant graph on the torus.

    Solving phi = 0 for cos(alpha) gives a real quasi-momentum exactly
    when

        |2 cos(kappa2) cos(kappa1) - sin(kappa1) sin(kappa2)|
            <= |2 cos(kappa2)|.

    The inequality remains correct in the limit cos(kappa2) = 0, where
    membership degenerates to sin(kappa1) = 0.
    """
    kappa1 = np.asarray(kappa1, dtype=float)
    kappa2 = np.asarray(kappa2, dtype=float)
    lhs = np.abs(2.0 * np.cos(kappa2) * np.cos(kappa1)
                 - np.sin(kappa1) * np.sin(kappa2))
    inside = lhs <= np.abs(2.0 * np.cos(kappa2))
    return inside if inside.ndim else bool(inside)


def dihedral_secular(kappa1, kappa2, kappa3, alpha):
    """Secular function of the dihedral three-edge periodic graph,

        sin(k1 + k2 + k3) - (1/2) sin(k1) sin(k2) sin(k3)
            - sin(k1) - cos(alpha) (sin(k2) + sin(k3)).
    """
    kappa1, kappa2, kappa3, alpha = np.broadcast_arrays(
        np.asarray(kappa1, float), np.asarray(kappa2, float),
        np.asarray(kappa3, float), np.asarray(alpha, float))
    s1, s2, s3 = np.sin(kappa1), np.sin(kappa2), np.sin(kappa3)
    out = (np.sin(kappa1 + kappa2 + kappa3) - 0.5 * s1 * s2 * s3
           - s1 - np.cos(alpha) * (s2 + s3))
    return out if out.ndim else float(out)


def dihedral_membership(kappa1, kappa2, kappa3):
    """Band-set indicator of the dihedral graph: a real quasi-momentum
    solves the secular equation iff (in float64; NaN phases are outside)

        |sin(k1+k2+k3) - (1/2) sin k1 sin k2 sin k3 - sin k1|
            <= |sin k2 + sin k3|.
    """
    k1, k2, k3 = (np.asarray(k, dtype=float) for k in (kappa1, kappa2, kappa3))
    s1, s2, s3 = np.sin(k1), np.sin(k2), np.sin(k3)
    lhs = np.abs(np.sin(k1 + k2 + k3) - 0.5 * s1 * s2 * s3 - s1)
    inside = lhs <= np.abs(s2 + s3)
    return inside if inside.ndim else bool(inside)


def lu_real_secular(bs, kappas, alphas):
    """Reference G straight from LU determinants at every pair of an edge
    phase row (n, E) and a quasi-momentum row (NA, J): exp(-i sum kappa)
    F, real part when det S = +1, imaginary part when det S = -1; shape
    (n, NA).  The package samples G only inside its compile."""
    kappas = np.asarray(kappas, dtype=float)
    F = secular_values(bs, kappas[:, bs.edge_of_bond], alphas)
    F = F * np.exp(-1j * kappas.sum(axis=1))[:, None]
    return F.real if bs.parity == 1 else F.imag


@pytest.fixture
def record_criterion():
    def _record(line):
        _CRITERION_LINES.append(line)
        print(line)
    return _record


def source_size(package=Path(__file__).resolve().parents[1] / "src"
                / "graphbands"):
    """Lines of the package's modules, in all and as code: code lines leave
    out blank lines, lines that hold only a # comment, and the docstrings
    of the modules, classes and functions (found with ``ast``)."""
    total = code = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                    and ast.get_docstring(node) is not None):
                doc = node.body[0]
                docstrings.update(range(doc.lineno, doc.end_lineno + 1))
        lines = text.splitlines()
        total += len(lines)
        code += sum(1 for i, line in enumerate(lines, 1)
                    if line.strip() and not line.lstrip().startswith("#")
                    and i not in docstrings)
    return total, code


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _CRITERION_LINES:
        terminalreporter.write_line(line)
    terminalreporter.write_line("source size: src/graphbands has %d lines, %d "
                                "of them code (no blank lines, # comments "
                                "or docstrings)" % source_size())

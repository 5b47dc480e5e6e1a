import json
import pathlib

import numpy as np
import pytest

import graphbands as gb
from conftest import (FLOWER_CELL, flower_graph, loop_with, marker_fig1d,
                      random_magnetic_graph, theta_graph)
from graphbands import graph_model, spectrum


def lasso_style_cell():
    # backbone edge whose ends are glued by the single generator, plus pendant
    return gb.FundamentalCell(
        vertices=(0, 1, 2),
        edges=(gb.Edge(1, 0, 1, 1.2), gb.Edge(2, 2, 0, 0.7)),
        identifications=(gb.Identification(1, plus=1, minus=0),),
        generators=1)


# ---------------------------------------------------------------- validation

def test_valid_cell_empty_report():
    assert gb.validate_cell(lasso_style_cell()) == []


def test_zero_length_reported():
    cell = gb.FundamentalCell(
        vertices=(0, 1), edges=(gb.Edge(1, 0, 1, 0.0),),
        identifications=(), generators=0)
    report = gb.validate_cell(cell)
    assert any("nonpositive length" in r for r in report)


def test_unknown_vertex_in_identification_reported():
    cell = gb.FundamentalCell(
        vertices=(0, 1), edges=(gb.Edge(1, 0, 1, 1.0),),
        identifications=(gb.Identification(1, plus=9, minus=0),),
        generators=1)
    report = gb.validate_cell(cell)
    assert any("unknown vertex" in r for r in report)


def test_more_violations_reported():
    cell = gb.FundamentalCell(
        vertices=(0, 1, 1),
        edges=(gb.Edge(1, 0, 1, 1.0), gb.Edge(1, 0, 7, -2.0)),
        identifications=(gb.Identification(3, plus=0, minus=0),),
        generators=1)
    report = "\n".join(gb.validate_cell(cell))
    assert "duplicate vertex ids" in report
    assert "duplicate edge id" in report
    assert "unknown vertex" in report
    assert "nonpositive length" in report
    assert "outside 1..1" in report
    assert "itself" in report


def test_disconnected_after_identification_reported():
    cell = gb.FundamentalCell(
        vertices=(0, 1, 2, 3),
        edges=(gb.Edge(1, 0, 1, 1.0), gb.Edge(2, 2, 3, 1.0)),
        identifications=(), generators=0)
    assert any("disconnected" in r for r in gb.validate_cell(cell))


def test_magnetic_graph_validates_on_construction():
    with pytest.raises(gb.GraphError) as err:
        gb.MagneticGraph(vertices=(0,), edges=(gb.Edge(1, 0, 5, 1.0, (0,)),),
                         generators=1)
    assert any("unknown vertex" in v for v in err.value.violations)
    with pytest.raises(gb.GraphError):
        gb.MagneticGraph(vertices=(0, 1),
                         edges=(gb.Edge(1, 0, 1, 1.0, (1, 0)),),
                         generators=1)  # flux vector wrong size


@pytest.mark.parametrize("violation, build", [
    ("generator count -1 is negative",
     lambda: gb.bloch_reduce(gb.FundamentalCell(
         (0,), (gb.Edge(1, 0, 0, 1.0),), (), -1))),
    ("vertex set is empty",
     lambda: gb.bloch_reduce(gb.FundamentalCell((), (), (), 0))),
    ("cell edge 1 carries flux; flux belongs to the reduced graph",
     lambda: gb.bloch_reduce(gb.FundamentalCell(
         (0,), (gb.Edge(1, 0, 0, 1.0, (1,)),), (), 1))),
    ("generator count -1 is negative",
     lambda: gb.MagneticGraph((0,), (), -1)),
    ("vertex set is empty", lambda: gb.MagneticGraph((), (), 0)),
    ("edge 1 has non-integer flux",
     lambda: gb.MagneticGraph((0,), (gb.Edge(1, 0, 0, 1.0, (0.5,)),), 1)),
    ("graph is disconnected",
     lambda: gb.MagneticGraph((0, 1), (gb.Edge(1, 0, 0, 1.0, (1,)),), 1)),
], ids=["cell-generators", "cell-vertices", "cell-flux", "graph-generators",
        "graph-vertices", "graph-flux", "graph-disconnected"])
def test_single_violation_is_named(violation, build):
    # bloch_reduce raises the cell's validate_cell report, and a magnetic
    # graph its own on construction
    with pytest.raises(gb.GraphError) as err:
        build()
    assert err.value.violations == [violation]


# ----------------------------------------------------------------- reduction

def test_bloch_reduce_rejects_invalid_cell():
    cell = gb.FundamentalCell(
        vertices=(0, 1), edges=(gb.Edge(1, 0, 1, -1.0),),
        identifications=(), generators=0)
    with pytest.raises(gb.GraphError) as err:
        gb.bloch_reduce(cell)
    assert err.value.violations


def test_reduce_assigns_unit_flux_and_preserves_length():
    g = gb.bloch_reduce(lasso_style_cell())
    assert g.edge_count == 2  # glued backbone loop + pendant
    fluxes = sorted(e.flux for e in g.edges)
    assert fluxes == [(0,), (1,)]
    assert g.total_length == pytest.approx(1.9, abs=0)
    # flux sits on the glued backbone, now a self-loop
    flux_edge = [e for e in g.edges if e.flux == (1,)][0]
    assert flux_edge.length == 1.2
    assert flux_edge.tail == flux_edge.head


def test_reduce_compact_cell_is_identity_with_zero_flux():
    cell = gb.FundamentalCell(
        vertices=(0, 1, 2),
        edges=(gb.Edge(1, 0, 1, 1.0), gb.Edge(2, 1, 2, 2.0)),
        identifications=(), generators=0)
    g = gb.bloch_reduce(cell)
    assert [e.id for e in g.edges] == [1, 2]
    assert all(e.flux == () for e in g.edges)
    assert g.vertices == (0, 1, 2)


def test_reduce_is_deterministic():
    a = gb.bloch_reduce(lasso_style_cell())
    b = gb.bloch_reduce(lasso_style_cell())
    assert a == b


def test_split_loop_matches_analytic_circle():
    # gluing the two ends of a single edge gives the circle graph, one
    # self-loop whose secular condition cos(kappa) = cos(alpha) is
    # solvable for every k: the whole axis is one band
    cell = gb.FundamentalCell(
        vertices=(0, 1), edges=(gb.Edge(1, 0, 1, 1.0),),
        identifications=(gb.Identification(1, plus=1, minus=0),),
        generators=1)
    g = gb.bloch_reduce(cell)
    assert g.vertices == (0,)
    assert g.edges == (gb.Edge(1, 0, 0, 1.0, (1,)),)
    bs = gb.bond_matrices(g)
    ks = np.random.default_rng(0).uniform(0.0, 40.0, 50)
    assert spectrum.momentum_membership(bs, ks).all()
    bands = gb.band_intervals(bs, 25.0)
    assert len(bands.lo) == 1
    assert bands.total_measure == pytest.approx(25.0, abs=1e-9)


def split_loops(g):
    """``g`` with every self-loop cut at a new degree-2 vertex into two
    half-length edges, the first keeping the flux."""
    vertices, edges = list(g.vertices), []
    next_id = max(e.id for e in g.edges) + 1
    for e in g.edges:
        if e.tail != e.head:
            edges.append(e)
            continue
        mid = max(vertices) + 1
        vertices.append(mid)
        edges += [gb.Edge(e.id, e.tail, mid, e.length / 2, e.flux),
                  gb.Edge(next_id, mid, e.head, e.length / 2,
                          (0,) * g.generators)]
        next_id += 1
    return gb.MagneticGraph(tuple(vertices), tuple(edges), g.generators)


@pytest.mark.parametrize("cell", [
    # ladder rung: two rails glued by one generator
    gb.FundamentalCell(
        vertices=(0, 1, 2, 3),
        edges=(gb.Edge(1, 0, 1, 1.0), gb.Edge(2, 0, 2, 1.35),
               gb.Edge(3, 1, 3, 0.8)),
        identifications=(gb.Identification(1, plus=2, minus=0),
                         gb.Identification(1, plus=3, minus=1)),
        generators=1),
    # flower with pendant: two generator loops at one vertex
    gb.FundamentalCell(
        vertices=(0, 1, 2, 3),
        edges=(gb.Edge(1, 0, 1, 1.414), gb.Edge(2, 0, 2, 1.732),
               gb.Edge(3, 0, 3, 1.236)),
        identifications=(gb.Identification(1, plus=1, minus=0),
                         gb.Identification(2, plus=2, minus=0)),
        generators=2)], ids=["ladder", "flower"])
def test_reduce_keeps_cell_edges_one_to_one(cell):
    g = gb.bloch_reduce(cell)
    assert [(e.id, e.length) for e in g.edges] == \
        [(e.id, e.length) for e in cell.edges]
    # a degree-2 vertex is transparent (back-scattering -1 + 2/2 = 0), so
    # cutting the glued loops there leaves the spectrum unchanged
    split = split_loops(g)
    assert split.edge_count == 5
    ks = np.random.default_rng(6).uniform(0.0, 40.0, 10_000)
    assert np.array_equal(
        spectrum.momentum_membership(gb.bond_matrices(g), ks),
        spectrum.momentum_membership(gb.bond_matrices(split), ks))


def test_flux_sign_orientation_convention():
    # edge pointing INTO the plus vertex gets +1, edge pointing out gets -1
    cell = gb.FundamentalCell(
        vertices=(0, 1, 2),
        edges=(gb.Edge(1, 0, 1, 1.0), gb.Edge(2, 1, 2, 1.0)),
        identifications=(gb.Identification(1, plus=1, minus=2),),
        generators=1)
    g = gb.bloch_reduce(cell)
    flux = {e.id: e.flux for e in g.edges}
    assert flux[1] == (1,)   # head was plus
    assert flux[2] == (-1,)  # tail was plus


# ---------------------------------------------------------------- core shape

def test_merge_series_merges_paths_and_keeps_ids():
    g = gb.with_random_lengths(gb.build_example("fig1c"), 5)
    h = gb.merge_series(g)
    # the pendant path 3 -> 2 -> 0 is one edge, in the place, id and
    # direction of its first edge; vertex 2 is gone
    assert h.vertices == (0, 3)
    assert [(e.id, e.tail, e.head, e.flux) for e in h.edges] == \
        [(1, 0, 0, (1,)), (2, 3, 0, (0,))]
    assert h.edges[1].length == g.edges[1].length + g.edges[2].length
    # a cycle of degree-2 vertices ends as one self-loop; flux is summed
    # along the path, against an edge's direction negated
    g = gb.MagneticGraph((0, 1, 2), (
        gb.Edge(1, 0, 1, 1.0, (2,)), gb.Edge(2, 2, 1, 1.5, (1,)),
        gb.Edge(3, 2, 0, 0.5, (0,))), 1)
    h = gb.merge_series(g)
    assert h.vertices == (2,)
    assert h.edges == (gb.Edge(1, 2, 2, 3.0, (1,)),)
    with pytest.raises(gb.GraphError, match="unbound"):
        gb.merge_series(gb.build_example("fig1c"))


def test_core_shape_of_the_lasso_class_is_the_lasso():
    graphs = [gb.with_random_lengths(gb.build_example(name), 5)
              for name in ("fig1c", "fig1d")]
    graphs.append(marker_fig1d([1.1, 1.2, 1.3, 1.4, 1.5, 1.6]))
    for g in graphs:
        core = gb.core_shape(g)
        loop, pendant = core.edges
        assert (loop.id, loop.tail, loop.head, loop.flux) == (1, 0, 0, (1,))
        assert (pendant.id, pendant.head, pendant.flux) == (2, 0, (0,))
        assert sorted(core.degrees().values()) == [1, 3]
    # the band route keeps the triangle, as one flux-free self-loop
    assert gb.merge_series(graphs[-1]).edges[2] == \
        gb.Edge(3, 2, 2, 1.3 + 1.4 + 1.5, (0,))


def test_core_shape_returns_irreducible_graphs_unchanged():
    ladder = gb.load_graph(pathlib.Path(__file__).parents[1]
                           / "demos" / "graphs" / "ladder_cell.json")
    graphs = [gb.bind_lengths(gb.build_example("lasso"), [1.3, 0.9]),
              gb.bloch_reduce(ladder),
              gb.bloch_reduce(FLOWER_CELL),
              gb.MagneticGraph((0,), (gb.Edge(1, 0, 0, 1.0, (1,)),), 1)]
    graphs += [flower_graph(k) for k in (1, 2, 3, 4)]
    for g in graphs:
        assert gb.merge_series(g) is g
        assert gb.core_shape(g) is g


def test_core_shape_keeps_fluxed_and_unbridged_parts():
    # a triangle with flux behind a bridge is not a decoration
    g = loop_with([(0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 1, 0)])
    assert gb.core_shape(g) == gb.merge_series(g)
    assert gb.core_shape(g).edge_count == 3
    # a flux-free triangle on the loop vertex hangs off no bridge: it
    # merges to a self-loop and stays (the volume is 0.500, not 0.637)
    g = loop_with([(0, 1, 0), (1, 2, 0), (2, 0, 0)])
    core = gb.core_shape(g)
    assert core == gb.merge_series(g)
    assert core.vertices == (0,) and core.edge_count == 2
    # a flux-free graph keeps its bridges: no side carries flux
    g = loop_with([(0, 1, 0), (1, 1, 0)], loop_flux=0)
    assert gb.core_shape(g) is g


def test_core_shape_reads_cycle_flux_not_edge_flux():
    # behind the bridge 0 -> 1: parallel edges 1 -> 2 with flux 1 each, a
    # cycle of net flux 0, then a self-loop at 3.  Flux-free, so cut.
    g = loop_with([(0, 1, 0), (1, 2, 1), (1, 2, 1), (2, 3, 0), (3, 3, 0)])
    core = gb.core_shape(g)
    assert [e.id for e in core.edges] == [1, 2]
    assert core.vertices == (0, 1) and core.edges[1].flux == (0,)
    # parallel edges with flux 1 and 0 make a cycle of flux 1: kept
    g = loop_with([(0, 1, 0), (1, 2, 1), (1, 2, 0), (2, 3, 0), (3, 3, 0)])
    assert gb.core_shape(g).edge_count == 5
    # flux on the bridge itself is a gauge; a fluxed loop on the far side
    # cuts the near side instead: the pendant then hangs off vertex 1
    g = loop_with([(0, 1, 1), (1, 1, 1), (0, 0, 0)], loop_flux=0)
    core = gb.core_shape(g)
    assert [(e.id, e.tail, e.head, e.flux) for e in core.edges] == \
        [(2, 0, 1, (0,)), (3, 1, 1, (1,))]


K4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_core_shape_cuts_a_one_port_to_its_edge_ends():
    # a flux-free part meeting the rest at v with a edge ends there
    # becomes floor(a/2) flux-free self-loops at v and, for odd a, one
    # pendant, with the ids and lengths of its first end edges; v keeps
    # its degree.  Loop + K4 at v (a = 3): loop + one loop + one pendant
    g = loop_with([(t, h, 0) for t, h in K4])
    core = gb.core_shape(g)
    assert core.vertices == (0, 2)
    assert core.edges == (g.edges[0], gb.Edge(2, 0, 0, 1.2, (0,)),
                          gb.Edge(3, 0, 2, 1.3, (0,)))
    assert core.degrees()[0] == g.degrees()[0] == 5
    # a flux-1 loop + a double edge to w + a pendant at w (a = 2): loop +
    # one loop
    g = loop_with([(0, 1, 0), (0, 1, 0), (1, 2, 0)])
    core = gb.core_shape(g)
    assert core.vertices == (0,)
    assert core.edges == (g.edges[0], gb.Edge(2, 0, 0, 1.2, (0,)))
    # theta + a triangle at vertex 1 (a = 2): theta + one loop; theta +
    # K4 at vertex 1 (a = 3): theta + one loop + one pendant
    theta = theta_graph()
    for part, vertices, cut in (
            (((1, 2), (2, 3), (3, 1)), (0, 1), ((4, 1, 1, 1.4 + 1.5 + 1.6),)),
            (tuple((t + 1, h + 1) for t, h in K4), (0, 1, 3),
             ((4, 1, 1, 1.4), (5, 1, 3, 1.5)))):
        g = gb.MagneticGraph(
            tuple(sorted({0, 1} | {v for pair in part for v in pair})),
            theta.edges + tuple(gb.Edge(i, t, h, 1.0 + 0.1 * i, (0,))
                                for i, (t, h) in enumerate(part, 4)), 1)
        core = gb.core_shape(g)
        assert core.vertices == vertices
        assert core.edges == theta.edges + tuple(
            gb.Edge(i, t, h, pytest.approx(length), (0,))
            for i, t, h, length in cut)


def test_core_shape_cuts_nested_parts_in_one_call():
    # vertex 0 comes first: its double edge to 1 with a pendant at 1 (a =
    # 2) becomes a loop at 0; then vertex 3 cuts its three parallel edges
    # to 0, which now carry that loop (a = 3), to a loop and a pendant
    pairs = [(3, 3, 1), (0, 3, 0), (0, 3, 0), (3, 0, 0), (0, 1, 0),
             (1, 0, 0), (1, 2, 0)]
    g = gb.MagneticGraph((0, 1, 2, 3), tuple(
        gb.Edge(i, t, h, 1.0 + 0.1 * i, (f,))
        for i, (t, h, f) in enumerate(pairs, 1)), 1)
    core = gb.core_shape(g)
    assert core.vertices == (0, 3)
    assert core.edges == (g.edges[0], gb.Edge(2, 3, 3, 1.2, (0,)),
                          gb.Edge(3, 0, 3, 1.3, (0,)))
    # one pass leaves nothing to reduce, here and on the corpus
    assert gb.core_shape(core) == core
    for seed in range(200):
        for generators in (1, 2):
            core = gb.core_shape(random_magnetic_graph(seed,
                                                       generators=generators))
            assert gb.core_shape(core) == core, (seed, generators)


def test_tree_gauge_never_raises_the_flux_weight():
    # corpus graphs: the gauge is kept per generator only where it lowers
    # the edge-summed |flux|, so no weight rises and the sum falls
    before = after = 0
    for seed in range(200):
        for g in (random_magnetic_graph(seed),
                  random_magnetic_graph(seed, generators=2)):
            w0 = np.abs([e.flux for e in g.edges]).sum(axis=0)
            w1 = np.abs([e.flux for e in gb.merge_series(g).edges]).sum(axis=0)
            assert np.all(w1 <= w0), seed
            before, after = before + w0.sum(), after + w1.sum()
    assert after < 0.8 * before
    g = random_magnetic_graph(2, n_edges=10)
    assert gb.bond_matrices(gb.merge_series(g)).flux_weight == (9,)


# ------------------------------------------------------------------ builders

def test_lasso_builder_shape():
    g = gb.build_example("lasso")
    assert g.edge_count == 2
    assert sorted(g.degrees().values()) == [1, 3]
    assert [e.flux for e in g.edges] == [(1,), (0,)]
    assert not g.is_bound


@pytest.mark.parametrize("name,n_edges", [
    ("fig1b", 2), ("fig1c", 3), ("fig1d", 5),
    ("loop_pendant", 2), ("loop_path2", 3), ("loop_triangle", 5)])
def test_builders_edge_counts(name, n_edges):
    g = gb.build_example(name)
    assert g.edge_count == n_edges
    assert g.generators == 1
    assert sum(abs(e.flux[0]) for e in g.edges) == 1


def test_fig1b_bound_to_ones_is_valid():
    g = gb.bind_lengths(gb.build_example("fig1b"), [1.0, 1.0])
    assert g.is_bound and g.total_length == pytest.approx(2.0)


def test_unknown_example_rejected():
    with pytest.raises(gb.GraphError):
        gb.build_example("klein_bottle")


# ------------------------------------------------------------------- binding

def test_bind_lengths_checks():
    g = gb.build_example("lasso")
    with pytest.raises(gb.GraphError):
        gb.bind_lengths(g, [1.0])
    with pytest.raises(gb.GraphError):
        gb.bind_lengths(g, [1.0, -1.0])
    # the graph's own validation refuses the length and names the edge
    with pytest.raises(gb.GraphError, match="edge 2 has nonpositive length"):
        gb.bind_lengths(g, [1.0, 0.0])
    with pytest.raises(gb.GraphError, match="edge 1 has non-finite length"):
        gb.bind_lengths(g, [np.inf, 1.0])
    bound = gb.bind_lengths(g, [1.5, 0.5])
    assert bound.lengths.tolist() == [1.5, 0.5]
    assert not g.is_bound  # original untouched


def test_unbound_length_access_is_error():
    g = gb.build_example("lasso")
    with pytest.raises(gb.GraphError):
        g.lengths
    with pytest.raises(gb.GraphError):
        gb.bond_matrices(g)


def test_random_lengths_seeded_and_in_range():
    g1 = gb.with_random_lengths(gb.build_example("fig1d"), 7)
    g2 = gb.with_random_lengths(gb.build_example("fig1d"), 7)
    g3 = gb.with_random_lengths(gb.build_example("fig1d"), 8)
    assert np.array_equal(g1.lengths, g2.lengths)
    assert not np.array_equal(g1.lengths, g3.lengths)
    assert np.all((g1.lengths >= 1.0) & (g1.lengths <= 2.0))


# ------------------------------------------------------------- file interface

def test_payload_round_trip_magnetic(tmp_path):
    g = gb.bind_lengths(gb.build_example("lasso"), [1.1, 0.4])
    path = tmp_path / "lasso.json"
    gb.save_graph(path, g)
    back = gb.load_graph(path)
    assert back == g


def test_payload_round_trip_cell(tmp_path):
    cell = lasso_style_cell()
    path = tmp_path / "cell.json"
    gb.save_graph(path, cell)
    back = gb.load_graph(path)
    assert back == cell
    assert gb.bloch_reduce(back) == gb.bloch_reduce(cell)


def test_flux_with_identifications_rejected():
    payload = {
        "generators": 1, "vertices": [0, 1],
        "edges": [{"id": 1, "from": 0, "to": 1, "length": 1.0, "flux": [1]}],
        "identifications": [{"generator": 1, "plus": 1, "minus": 0}]}
    with pytest.raises(gb.GraphError) as err:
        gb.from_payload(payload)
    assert "identifications" in str(err.value)


def test_missing_flux_defaults_to_zero():
    payload = {
        "generators": 1, "vertices": [0, 1],
        "edges": [{"id": 1, "from": 0, "to": 1, "length": 1.0}]}
    g = gb.from_payload(payload)
    assert isinstance(g, gb.MagneticGraph)
    assert g.edges[0].flux == (0,)


def test_malformed_payload_and_file(tmp_path):
    with pytest.raises(gb.GraphError):
        gb.from_payload({"vertices": [0]})

    def payload(generators=1, vertex=1, edge_id=1, head=1, flux=1, plus=None):
        out = {"generators": generators, "vertices": [0, vertex],
               "edges": [{"id": edge_id, "from": 0, "to": head,
                          "length": 1.0, "flux": [flux]}]}
        if plus is not None:
            del out["edges"][0]["flux"]
            out["identifications"] = [{"generator": 1, "plus": plus,
                                       "minus": 0}]
        return out

    # integral floats are integers; any other number is refused by name,
    # never truncated
    assert gb.from_payload(payload(1.0, 1.0, 1.0, 1.0, 1.0)) == \
        gb.from_payload(payload())
    for field, value, bad in (
            ("generators", 1.5, payload(generators=1.5)),
            ("generators", float("inf"), payload(generators=float("inf"))),
            ("vertices", 1.9, payload(vertex=1.9)),
            ("id", 1.2, payload(edge_id=1.2)),
            ("to", 0.9, payload(head=0.9)),
            ("flux", 0.5, payload(flux=0.5)),
            ("plus", 1.5, payload(plus=1.5))):
        with pytest.raises(gb.GraphError) as err:
            gb.from_payload(bad)
        assert "%s: %r is not an integer" % (field, value) in str(err.value)
    # JSON strings and booleans are not numbers: one error naming the
    # field, never a value read from the text (a flux "11" is not (1, 1))
    def edge_payload(**fields):
        edge = dict({"id": 7, "from": 0, "to": 0, "length": 1.5,
                     "flux": [1, 1]}, **fields)
        return {"generators": 2, "vertices": [0], "edges": [edge]}

    assert gb.from_payload(edge_payload()).edges[0] == \
        gb.Edge(id=7, tail=0, head=0, length=1.5, flux=(1, 1))
    assert gb.from_payload(edge_payload(id=np.int64(7), length=np.float64(1.5))
                           ) == gb.from_payload(edge_payload())
    for field, value, bad in (
            ("length", "1.5", edge_payload(id="7", length="1.5", flux="11")),
            ("id", "7", edge_payload(id="7")),
            ("id", True, edge_payload(id=True)),
            ("from", "0", edge_payload(**{"from": "0"})),
            ("length", "1.5", edge_payload(length="1.5")),
            ("length", True, edge_payload(length=True)),
            ("flux", "11", edge_payload(flux="11")),
            ("flux", True, edge_payload(flux=True)),
            ("flux", False, edge_payload(flux=[1, False])),
            ("generators", "2", dict(edge_payload(), generators="2")),
            ("vertices", True, dict(edge_payload(), vertices=[True])),
            ("plus", "1", payload(plus="1"))):
        with pytest.raises(gb.GraphError) as err:
            gb.from_payload(bad)
        assert str(err.value) == "%s: %r is not a number" % (field, value)
    # an edge entry that is not an object is refused by the payload check
    for bad in ({"generators": 1, "vertices": [0], "edges": [[0, 0, 1]]},
                dict(payload(plus=1), edges=[[1, 0, 1]])):
        with pytest.raises(gb.GraphError, match="malformed graph payload: "
                           "'list' object has no attribute 'get'"):
            gb.from_payload(bad)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(gb.GraphError):
        gb.load_graph(bad)
    bad.write_text("[1, 2]")
    with pytest.raises(gb.GraphError, match="expected an object"):
        gb.load_graph(bad)
    with pytest.raises(OSError):
        gb.load_graph(tmp_path / "missing.json")


def test_unbound_lengths_survive_json(tmp_path):
    g = gb.build_example("fig1c")
    path = tmp_path / "g.json"
    gb.save_graph(path, g)
    back = gb.load_graph(path)
    assert not back.is_bound
    assert back == g


def test_payload_name_kept():
    payload = json.loads(json.dumps(
        graph_model.to_payload(gb.build_example("lasso"))))
    assert payload["name"] == "lasso"
    assert gb.from_payload(payload).name == "lasso"

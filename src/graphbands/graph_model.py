"""Fundamental-cell description of a periodic metric graph and its
reduction to a compact magnetic graph.

A periodic graph is described by one translational cell: a finite metric
graph together with a list of vertex identifications, one per lattice
generator, telling which boundary vertex is glued to which translate.
Quasi-periodic boundary conditions are traded for magnetic fluxes on the
compact quotient graph: every edge ending at an identified "plus" vertex
picks up one unit of flux for that generator.  :func:`merge_series` and
:func:`core_shape` reduce a magnetic graph further, to fewer edges with
the same band set or the same torus volume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np


class GraphError(ValueError):
    """Structurally invalid cell or magnetic graph.

    Carries the full list of violations in ``violations`` so callers can
    report all problems at once rather than the first one found.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Edge:
    """Directed metric edge.

    ``length`` is None while the edge is an unbound slot (topology fixed,
    metric not yet chosen).  ``flux`` holds one integer winding number per
    lattice generator; cell edges keep it empty and acquire flux during
    reduction.
    """

    id: int
    tail: int
    head: int
    length: float | None = None
    flux: tuple[int, ...] = ()


@dataclass(frozen=True)
class Identification:
    """Gluing instruction: vertex ``plus`` is the translate of ``minus``
    under lattice generator ``generator`` (1-based)."""

    generator: int
    plus: int
    minus: int


@dataclass(frozen=True)
class FundamentalCell:
    """One translational cell of a periodic metric graph.

    Not validated on construction; run :func:`validate_cell` to get a
    report, or :func:`bloch_reduce` which raises on an invalid cell.
    """

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    identifications: tuple[Identification, ...]
    generators: int
    name: str = ""


def _roots(vertices, pairs) -> dict:
    """Representative of the class of every vertex after merging, for each
    pair (a, b) in turn, the class of a into the class of b."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return {v: find(v) for v in vertices}


def _structure_violations(vertices, edges, generators, edge_rule) -> list[str]:
    """Checks shared by cells and magnetic graphs: generator count, vertex
    set, edge ids, edge endpoints and bound lengths.  ``edge_rule(e)``
    returns the caller's own violations for edge ``e``, reported after
    the shared ones for that edge."""
    report = []
    if generators < 0:
        report.append("generator count %d is negative" % generators)
    if not vertices:
        report.append("vertex set is empty")
    if len(set(vertices)) != len(vertices):
        report.append("duplicate vertex ids")
    vset = set(vertices)

    seen_ids = set()
    for e in edges:
        if e.id in seen_ids:
            report.append("duplicate edge id %r" % (e.id,))
        seen_ids.add(e.id)
        for v in (e.tail, e.head):
            if v not in vset:
                report.append("edge %r references unknown vertex %r" % (e.id, v))
        if e.length is not None:
            if not np.isfinite(e.length):
                report.append("edge %r has non-finite length" % (e.id,))
            elif e.length <= 0:
                report.append("edge %r has nonpositive length" % (e.id,))
        report += edge_rule(e)
    return report


def validate_cell(cell: FundamentalCell) -> list[str]:
    """Check a fundamental cell against its structural invariants.

    Returns a list of human-readable violation strings, empty when the
    cell is valid.  Checks: vertex set nonempty and duplicate-free,
    edge endpoints and identification vertices exist, edge ids unique,
    bound lengths strictly positive and finite, cell edges carry no
    flux, generator indices in 1..J, identifications glue two distinct
    vertices, and the graph is connected after all identifications are
    applied.
    """
    def no_flux(e):
        if e.flux and any(f != 0 for f in e.flux):
            return ["cell edge %r carries flux; flux belongs to the "
                    "reduced graph" % (e.id,)]
        return []

    report = _structure_violations(cell.vertices, cell.edges,
                                   cell.generators, no_flux)
    vset = set(cell.vertices)
    for ident in cell.identifications:
        if not 1 <= ident.generator <= cell.generators:
            report.append("identification generator %d outside 1..%d"
                          % (ident.generator, cell.generators))
        if ident.plus == ident.minus:
            report.append("identification of vertex %r with itself" % (ident.plus,))
        for v in (ident.plus, ident.minus):
            if v not in vset:
                report.append("identification references unknown vertex %r" % (v,))

    if not report:
        pairs = [(e.tail, e.head) for e in cell.edges]
        pairs += [(i.plus, i.minus) for i in cell.identifications]
        if len(set(_roots(cell.vertices, pairs).values())) != 1:
            report.append("graph is disconnected after identification")
    return report


@dataclass(frozen=True)
class MagneticGraph:
    """Compact metric graph with integer magnetic flux per edge.

    Validated on construction; raises :class:`GraphError` listing every
    violation.  Self-loops are allowed.  Lengths may be None (unbound
    slots); bind them with :func:`bind_lengths` or
    :func:`with_random_lengths` before doing spectral work.
    """

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    generators: int
    name: str = ""

    def __post_init__(self):
        report = self._violations()
        if report:
            raise GraphError(report)

    def _violations(self) -> list[str]:
        def integer_flux(e):
            if len(e.flux) != self.generators:
                return ["edge %r flux vector has length %d, expected %d"
                        % (e.id, len(e.flux), self.generators)]
            if any(f != int(f) for f in e.flux):
                return ["edge %r has non-integer flux" % (e.id,)]
            return []

        report = _structure_violations(self.vertices, self.edges,
                                       self.generators, integer_flux)
        pairs = [(e.tail, e.head) for e in self.edges]
        if not report and len(set(_roots(self.vertices, pairs).values())) != 1:
            report.append("graph is disconnected")
        return report

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def is_bound(self) -> bool:
        """True when every edge has a numeric length."""
        return all(e.length is not None for e in self.edges)

    @property
    def lengths(self) -> np.ndarray:
        """Edge lengths as an array; raises on unbound slots."""
        if not self.is_bound:
            raise GraphError("graph has unbound length slots")
        return np.array([e.length for e in self.edges], dtype=float)

    @property
    def total_length(self) -> float:
        return float(self.lengths.sum())

    def degrees(self) -> dict[int, int]:
        """Vertex degrees; a self-loop contributes 2 to its vertex."""
        deg = {v: 0 for v in self.vertices}
        for e in self.edges:
            deg[e.tail] += 1
            deg[e.head] += 1
        return deg


def bloch_reduce(cell: FundamentalCell) -> MagneticGraph:
    """Collapse a fundamental cell to its compact magnetic quotient graph.

    Each identification merges ``plus`` into ``minus``; an edge whose head
    sat at ``plus`` gains flux +1 for that generator, an edge whose tail
    sat there gains -1 (quasi-momentum enters as a phase where the wave
    crosses into the next cell).  Every cell edge becomes exactly one
    reduced edge, in the same order and with the same id and length; an
    edge whose endpoints merge becomes a self-loop.

    Raises :class:`GraphError` with the full violation report when the
    cell is invalid.
    """
    report = validate_cell(cell)
    if report:
        raise GraphError(report)

    # flux picked up at the plus vertex of each identification
    flux = {e.id: [0] * cell.generators for e in cell.edges}
    for ident in cell.identifications:
        j = ident.generator - 1
        for e in cell.edges:
            if e.head == ident.plus:
                flux[e.id][j] += 1
            if e.tail == ident.plus:
                flux[e.id][j] -= 1

    # merge plus into minus, resolving chains of identifications
    root = _roots(cell.vertices, [(i.plus, i.minus)
                                  for i in cell.identifications])
    vertices = tuple(sorted(set(root.values())))
    edges = tuple(Edge(e.id, root[e.tail], root[e.head], e.length,
                       tuple(flux[e.id])) for e in cell.edges)
    return MagneticGraph(vertices=vertices, edges=edges,
                         generators=cell.generators, name=cell.name)


def bind_lengths(g: MagneticGraph, values) -> MagneticGraph:
    """Assign numeric lengths to the edges of ``g`` in edge order.

    ``values`` must have one entry per edge; the new graph's validation
    refuses, by edge, a length that is not strictly positive and finite.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (g.edge_count,):
        raise GraphError("expected %d lengths, got shape %r"
                         % (g.edge_count, values.shape))
    edges = tuple(replace(e, length=float(l)) for e, l in zip(g.edges, values))
    return replace(g, edges=edges)


def with_random_lengths(g: MagneticGraph, seed: int) -> MagneticGraph:
    """Bind lengths drawn uniformly from [1, 2], reproducibly by seed.

    A generic draw is rationally independent with probability 1, which is
    the regime where torus-volume and band-density computations agree.
    """
    rng = np.random.default_rng(seed)
    return bind_lengths(g, rng.uniform(1.0, 2.0, size=g.edge_count))


# ---------------------------------------------------------------------------
# reduction to the core shape
# ---------------------------------------------------------------------------

def _cycle_flux(vertices, edges, generators) -> list[tuple[int, ...]]:
    """Each edge's flux minus the potential step phi[head] - phi[tail],
    with phi summed along the breadth-first spanning tree from the first
    vertex (edges taken in order): zero on tree edges, and on every other
    edge the net flux of the cycle it closes with the tree."""
    phi = {vertices[0]: (0,) * generators}
    queue = [vertices[0]]
    for u in queue:
        for e in edges:
            if e.tail == u and e.head not in phi:
                phi[e.head] = tuple(p + f for p, f in zip(phi[u], e.flux))
                queue.append(e.head)
            elif e.head == u and e.tail not in phi:
                phi[e.tail] = tuple(p - f for p, f in zip(phi[u], e.flux))
                queue.append(e.tail)
    return [tuple(f - h + t
                  for f, h, t in zip(e.flux, phi[e.head], phi[e.tail]))
            for e in edges]


def merge_series(g: MagneticGraph) -> MagneticGraph:
    """``g`` with every degree-2 vertex merged away, in a tree gauge that
    never raises the flux weight.  Exact: the band set is unchanged.

    A degree-2 vertex back-scatters with -1 + 2/2 = 0, so a wave passes it
    in full: its two distinct edges are one edge, with the summed length
    and the summed flux, each flux taken along the path.  The merged edge
    takes the place, id and direction of the first of the two in edge
    order.  Self-loops are never merged.  Vertex degrees other than the
    merged one do not change, so one pass over the vertices leaves none.

    Then, one generator at a time, the flux is shifted by the vertex
    potentials of a spanning tree (:func:`_cycle_flux`): every cycle
    keeps its net flux, so the secular function is unchanged, and the
    shifted flux is kept only where it lowers that generator's
    edge-summed |flux|, the degree bound that sizes the compile grid.
    Edge ids, orientations and surviving vertex ids are kept.  Returns
    ``g`` itself when nothing changes.  Lengths must be bound.
    """
    if not g.is_bound:
        raise GraphError("graph has unbound length slots; bind lengths first")
    degree = g.degrees()
    edges, vertices = list(g.edges), list(g.vertices)
    for v in g.vertices:
        pair = [i for i, e in enumerate(edges) if v in (e.tail, e.head)]
        if degree[v] != 2 or len(pair) != 2:
            continue
        a, b = edges[pair[0]], edges[pair[1]]
        far = b.head if b.tail == v else b.tail
        along = 1 if (b.tail == v) == (a.head == v) else -1
        ends = (a.tail, far) if a.head == v else (far, a.head)
        edges[pair[0]] = Edge(a.id, *ends, a.length + b.length,
                              tuple(x + along * y
                                    for x, y in zip(a.flux, b.flux)))
        del edges[pair[1]]
        vertices.remove(v)
    shifted = _cycle_flux(vertices, edges, g.generators)
    lower = [sum(map(abs, s)) < sum(map(abs, f)) for s, f in
             zip(zip(*shifted), zip(*(e.flux for e in edges)))]
    if any(lower):
        edges = [replace(e, flux=tuple(s if low else f for s, f, low
                                       in zip(shift, e.flux, lower)))
                 for e, shift in zip(edges, shifted)]
    elif len(edges) == g.edge_count:
        return g                                # nothing merged or gauged
    return MagneticGraph(vertices=tuple(vertices), edges=tuple(edges),
                         generators=g.generators, name=g.name)


def core_shape(g: MagneticGraph) -> MagneticGraph:
    """:func:`merge_series` of ``g`` with every flux-free one-port cut
    back to its smallest Kirchhoff form.  Exact for the torus volume of
    the band set only, not for the band set itself.

    At each vertex v in turn, the edges not at v fall into the components
    of G - v, and each component takes the edges from v that reach it;
    a self-loop at v is a group of its own.  A group B of two or more
    edges is a one-port at v with a edge ends there.  It is flux-free
    when every cycle in it carries zero net flux, read from the tree
    potentials (:func:`_cycle_flux`), never from the raw edge fluxes.  In
    a graph that carries flux (so another group at v does), a flux-free
    B becomes floor(a/2) self-loops at v plus, when a is odd, a pendant
    to the far end of an end edge, all with flux 0 and with the ids and
    lengths of B's first end edges.  A flux-free side of a bridge is the
    case a = 1: the bridge stays, with flux 0, and its far end becomes a
    leaf.

    Splitting v into two Kirchhoff vertices joined by an edge of length
    0 changes nothing, so B is closed by a lead at a vertex of degree
    a + 1, and the rest of the graph sees B only through its reflection
    coefficient Theta
    (:func:`graphbands.reference_models.effective_reflection`).  Theta is
    an inner function of the edge phases z_e = exp(i kappa_e) of B on the
    polydisk, and Theta(0) = 2/(a + 1) - 1 = (1 - a)/(1 + a) is the split
    vertex's own reflection.  An inner function carries the uniform
    measure of the torus to the Poisson measure of Theta(0) on the circle
    (Rudin, Function Theory in Polydiscs, 1969), and B's phases are
    independent of every other phase: on the torus B counts only through
    a, which its replacement shares.  Along kappa = k l the phases are
    tied through k, so the band set changes.  A reduction changes only
    its own group and keeps the degree of v, so no other group gains or
    loses flux or falls below two edges, and one pass over the vertices
    leaves nothing to reduce.  Returns ``g`` itself when nothing reduces.
    """
    h = merge_series(g)
    fluxed = {e.id for e, f in zip(h.edges, _cycle_flux(
        h.vertices, h.edges, h.generators)) if any(f)}
    if not fluxed:
        return h
    zero = (0,) * h.generators
    vertices, edges = list(h.vertices), list(h.edges)
    for v in h.vertices:
        if v not in vertices:
            continue                        # inside a group already cut
        root = _roots(vertices, [(e.tail, e.head) for e in edges
                                 if v not in (e.tail, e.head)])
        for r in set(root.values()) - {v}:          # the components of G - v
            side = {u for u in vertices if root[u] == r}
            group = {e.id: e for e in edges if {e.tail, e.head} & side}
            if len(group) < 2 or fluxed & group.keys():
                continue
            ends = [e for e in group.values() if v in (e.tail, e.head)]
            a = len(ends)
            new = {e.id: Edge(e.id, v, v, e.length, zero)
                   for e in ends[:a // 2]}
            if a % 2:
                pendant = ends[a // 2]
                new[pendant.id] = replace(pendant, flux=zero)
                side -= {pendant.tail, pendant.head}
            vertices = [u for u in vertices if u not in side]
            edges = [new.get(e.id, e) for e in edges
                     if e.id in new or e.id not in group]
    if len(edges) == h.edge_count:
        return h
    return MagneticGraph(vertices=tuple(vertices), edges=tuple(edges),
                         generators=h.generators, name=h.name)


# ---------------------------------------------------------------------------
# built-in examples
# ---------------------------------------------------------------------------

# cell examples: name -> (alias, vertex count, (tail, head) of edges 1, 2,
# ...); the backbone edge 1 runs from vertex 0 to its translate, vertex 1
_EXAMPLE_CELLS = {
    "loop_pendant": ("fig1b", 3, ((0, 1), (2, 0))),
    "loop_path2": ("fig1c", 4, ((0, 1), (2, 0), (3, 2))),
    "loop_triangle": ("fig1d", 5, ((0, 1), (2, 0), (2, 3), (3, 4), (4, 2))),
}


def build_example(name: str) -> MagneticGraph:
    """Construct a named example graph with unbound length slots.

    ``lasso``
        Single loop with one pendant edge, already in reduced magnetic
        form: the loop carries flux +1, the pendant none.  Two edges.
    ``loop_pendant`` (alias ``fig1b``)
        Same periodic graph described as a cell: a backbone edge whose
        endpoints are identified by the one generator, plus a pendant.
        Reduction glues the backbone into the lasso's loop: two edges.
    ``loop_path2`` (alias ``fig1c``)
        As above with the pendant subdivided into a two-edge path.  Three
        edges.
    ``loop_triangle`` (alias ``fig1d``)
        Loop with a triangle decoration hanging off a connector edge.
        Five edges.

    All four are single-generator graphs in the same universality class:
    for generic lengths their band densities coincide.
    """
    key = name.lower()
    if key == "lasso":
        return MagneticGraph(
            vertices=(0, 1),
            edges=(Edge(1, 0, 0, None, (1,)),
                   Edge(2, 1, 0, None, (0,))),
            generators=1,
            name="lasso",
        )
    for cell_name, (alias, vertices, ends) in _EXAMPLE_CELLS.items():
        if key in (cell_name, alias):
            return bloch_reduce(FundamentalCell(
                vertices=tuple(range(vertices)),
                edges=tuple(Edge(i, *pair) for i, pair in enumerate(ends, 1)),
                identifications=(Identification(1, plus=1, minus=0),),
                generators=1, name=cell_name))
    raise GraphError("unknown example %r" % (name,))


EXAMPLE_NAMES = ("lasso", *_EXAMPLE_CELLS)


# ---------------------------------------------------------------------------
# file interface
# ---------------------------------------------------------------------------

def _number(value, field):
    """``value``, refused when it is a string or a boolean, which ``int``
    and ``float`` would read as a number."""
    if isinstance(value, (str, bool)):
        raise GraphError("%s: %r is not a number" % (field, value))
    return value


def _integer(value, field):
    """``int(value)`` of a number, that refuses, not truncates, a
    fractional one."""
    if isinstance(_number(value, field), float) and not value.is_integer():
        raise GraphError("%s: %r is not an integer" % (field, value))
    return int(value)


def from_payload(payload: dict) -> FundamentalCell | MagneticGraph:
    """Build a cell or magnetic graph from a parsed JSON payload.

    The payload must carry ``generators``, ``vertices`` and ``edges``
    (each edge an object with ``id``, ``from``, ``to``, ``length`` and
    optional ``flux``).  When a nonempty ``identifications`` list is
    present the result is a :class:`FundamentalCell` and explicit edge
    flux is rejected: flux is derived by reduction, never supplied.
    Otherwise the result is a validated :class:`MagneticGraph`.
    """
    def parse_edge(obj, with_flux):
        length = obj.get("length")
        if length is not None:
            length = float(_number(length, "length"))
        flux = tuple(_integer(f, "flux")
                     for f in _number(obj.get("flux", ()), "flux"))
        if not with_flux and any(flux):
            raise GraphError("edge %r: nonzero flux together with "
                             "identifications is not allowed" % (obj.get("id"),))
        if not with_flux:
            flux = ()
        elif not flux:
            flux = (0,) * generators
        return Edge(id=_integer(obj["id"], "id"),
                    tail=_integer(obj["from"], "from"),
                    head=_integer(obj["to"], "to"),
                    length=length,
                    flux=flux)

    try:
        generators = _integer(payload["generators"], "generators")
        vertices = tuple(_integer(v, "vertices") for v in payload["vertices"])
        raw_edges = payload["edges"]
        idents = payload.get("identifications", [])
        graph_name = str(payload.get("name", ""))
        if idents:
            edges = tuple(parse_edge(o, with_flux=False) for o in raw_edges)
            identifications = tuple(
                Identification(generator=_integer(i["generator"], "generator"),
                               plus=_integer(i["plus"], "plus"),
                               minus=_integer(i["minus"], "minus"))
                for i in idents)
            return FundamentalCell(vertices=vertices, edges=edges,
                                   identifications=identifications,
                                   generators=generators, name=graph_name)
        edges = tuple(parse_edge(o, with_flux=True) for o in raw_edges)
        return MagneticGraph(vertices=vertices, edges=edges,
                             generators=generators, name=graph_name)
    except GraphError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise GraphError("malformed graph payload: %s" % exc) from None


def to_payload(obj: FundamentalCell | MagneticGraph) -> dict:
    """Inverse of :func:`from_payload`."""
    payload = {
        "name": obj.name,
        "generators": obj.generators,
        "vertices": list(obj.vertices),
        "edges": [],
    }
    for e in obj.edges:
        entry = {"id": e.id, "from": e.tail, "to": e.head, "length": e.length}
        if isinstance(obj, MagneticGraph):
            entry["flux"] = list(e.flux)
        payload["edges"].append(entry)
    if isinstance(obj, FundamentalCell):
        payload["identifications"] = [
            {"generator": i.generator, "plus": i.plus, "minus": i.minus}
            for i in obj.identifications]
    return payload


def load_graph(path) -> FundamentalCell | MagneticGraph:
    """Read a cell or magnetic graph from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphError("malformed JSON in %s: %s" % (path, exc)) from None
        except UnicodeDecodeError as exc:
            raise GraphError("malformed graph file %s: not UTF-8 (%s)"
                             % (path, exc)) from None
    if not isinstance(payload, dict):
        raise GraphError("malformed graph file %s: expected an object" % path)
    return from_payload(payload)


def save_graph(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_payload(obj), fh, indent=2)
        fh.write("\n")


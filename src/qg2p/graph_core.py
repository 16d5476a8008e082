"""Compact metric graphs and index bookkeeping for boundary-value spaces.

Edges are identified with intervals [0, l_e]; edge ends are labelled 0
(initial vertex) and 1 (final vertex).  All matrix indices used downstream
derive from the declaration order of vertices and edges.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Rectangle sides of D_{e1 e2}: x = 0, x = l_{e1}, y = 0, y = l_{e2}.
X0, XL, Y0, YL = 0, 1, 2, 3


class GraphError(ValueError):
    """Invalid metric-graph description."""


@dataclass(frozen=True)
class Edge:
    init: int
    fin: int
    length: float

    def end_vertex(self, end: int) -> int:
        return self.init if end == 0 else self.fin


@dataclass(frozen=True)
class MetricGraph:
    """Finite graph with positive edge lengths; loops and multi-edges allowed."""

    vertices: tuple
    edges: tuple

    @property
    def E(self) -> int:
        return len(self.edges)

    @property
    def V(self) -> int:
        return len(self.vertices)

    @property
    def lengths(self) -> np.ndarray:
        return np.array([e.length for e in self.edges])

    @property
    def total_length(self) -> float:
        return float(sum(e.length for e in self.edges))

    def edges_connected(self, e1: int, e2: int) -> bool:
        """True iff the two edges share at least one vertex (or e1 == e2)."""
        if e1 == e2:
            return True
        a, b = self.edges[e1], self.edges[e2]
        return bool({a.init, a.fin} & {b.init, b.fin})


def build_graph(spec: dict) -> MetricGraph:
    """Build a validated MetricGraph from a description.

    ``spec`` holds ``edges``: list of (initial, final, length) with vertex
    identifiers, and optionally ``vertices``: explicit identifier list (any
    hashables).  Vertices not listed are an error; with no ``vertices`` key
    they are inferred in order of first appearance.
    """
    raw_edges = spec.get("edges", [])
    if not isinstance(raw_edges, (list, tuple)) or not raw_edges:
        raise GraphError("graph needs a list of at least one edge")

    explicit = "vertices" in spec
    names = list(spec["vertices"]) if explicit else []
    if len(set(names)) != len(names):
        raise GraphError("duplicate vertex identifiers")
    index = {name: i for i, name in enumerate(names)}

    edges = []
    for entry in raw_edges:
        try:
            u, v, length = entry
            length = float(length)
        except (TypeError, ValueError):
            raise GraphError(f"edge {entry!r} is not [initial, final, length]") from None
        if not np.isfinite(length) or length <= 0.0:
            raise GraphError(f"edge ({u}, {v}) has nonpositive length {length}")
        for name in (u, v):
            if name not in index:
                if explicit:
                    raise GraphError(f"edge references unknown vertex {name!r}")
                index[name] = len(names)
                names.append(name)
        edges.append(Edge(index[u], index[v], length))

    return MetricGraph(tuple(names), tuple(edges))


@dataclass(frozen=True)
class ComponentInfo:
    """Where a two-particle boundary component lives.

    ``pair``: (e1, e2) of the rectangle; ``side``: one of X0/XL/Y0/YL;
    ``boundary_edge``/``boundary_end``: the edge end forming the boundary;
    ``running_edge``: the edge carrying the trace parameter y in [0, 1];
    ``half``: 0 for first-variable sides, 1 for second-variable sides;
    ``reduced``: index in the 2E^2-dimensional exchange-reduced space.
    """

    pair: tuple
    side: int
    boundary_edge: int
    boundary_end: int
    running_edge: int
    half: int
    reduced: int


class BoundaryIndexMap:
    """Bijections between edge-end labels and boundary-vector positions.

    One-particle positions follow the usual layout: all x = 0 ends first,
    then all x = l ends.  Two-particle positions are side-major with the
    first-variable sides (x = 0, x = l) in the upper half.  Within the
    x-side blocks pairs are ordered lexicographically in (e1, e2); within
    the y-side blocks in (e2, e1), so that the particle exchange acts as a
    pure swap of the two halves and block-structured maps carry literally
    identical diagonal blocks.
    """

    def __init__(self, graph: MetricGraph):
        self.graph = graph
        E = graph.E
        self.E = E

        self.one_particle = {}
        for e in range(E):
            self.one_particle[(e, 0)] = e
            self.one_particle[(e, 1)] = E + e

        self.two_particle = {}
        for e1 in range(E):
            for e2 in range(E):
                for s in (0, 1):
                    self.two_particle[((e1, e2), X0 if s == 0 else XL)] = (
                        s * E * E + e1 * E + e2
                    )
                    self.two_particle[((e1, e2), Y0 if s == 0 else YL)] = (
                        2 * E * E + s * E * E + e2 * E + e1
                    )

        blocks = {v: [] for v in range(graph.V)}
        for pos in range(2 * E):
            e, end = self.op_pair(pos)
            blocks[graph.edges[e].end_vertex(end)].append(pos)
        self.vertex_blocks = {v: tuple(p) for v, p in blocks.items()}

    # ---- one-particle -------------------------------------------------

    def op_pos(self, e: int, end: int) -> int:
        return self.one_particle[(e, end)]

    def op_pair(self, pos: int):
        return (pos % self.E, pos // self.E)

    # ---- two-particle -------------------------------------------------

    @property
    def dim_full(self) -> int:
        return 4 * self.E * self.E

    def component(self, pos: int) -> ComponentInfo:
        E = self.E
        half, rest = divmod(pos, 2 * E * E)
        s, rest = divmod(rest, E * E)
        a, b = divmod(rest, E)
        if half == 0:
            # x-side s of rectangle (a, b); trace runs along edge b.
            return ComponentInfo(
                pair=(a, b), side=X0 if s == 0 else XL, boundary_edge=a,
                boundary_end=s, running_edge=b, half=0, reduced=pos,
            )
        # y-side s of rectangle (b, a); trace runs along edge b.
        return ComponentInfo(
            pair=(b, a), side=Y0 if s == 0 else YL, boundary_edge=a,
            boundary_end=s, running_edge=b, half=1, reduced=pos - 2 * E * E,
        )

    def boundary_vertex(self, pos: int) -> int:
        c = self.component(pos)
        return self.graph.edges[c.boundary_edge].end_vertex(c.boundary_end)

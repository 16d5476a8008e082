"""Compact metric graphs and index bookkeeping for boundary-value spaces.

Edges are identified with intervals [0, l_e]; edge ends are labelled 0
(initial vertex) and 1 (final vertex).  All matrix indices used downstream
derive from the declaration order of vertices and edges.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GraphError(ValueError):
    """Invalid metric-graph description."""


@dataclass(frozen=True)
class Edge:
    init: int
    fin: int
    length: float


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
    they are inferred in order of first appearance.  Any malformed entry
    is a GraphError.
    """
    raw_edges = spec.get("edges", [])
    if not isinstance(raw_edges, (list, tuple)) or not raw_edges:
        raise GraphError("graph needs a list of at least one edge")

    explicit = "vertices" in spec
    edges = []
    try:
        names = list(spec["vertices"]) if explicit else []
        if len(set(names)) != len(names):
            raise GraphError("duplicate vertex identifiers")
        index = {name: i for i, name in enumerate(names)}
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
    except TypeError as exc:      # vertices not a list, or unhashable ones
        raise GraphError(f"bad graph: {exc}") from None
    return MetricGraph(tuple(names), tuple(edges))


class BoundaryIndexMap:
    """The boundary layouts of a graph, as position arrays.

    One-particle position end E + e is the end ``end`` (0: x = 0, 1: x = l)
    of edge e; ``vertex`` (2E) holds the vertex there.  Two-particle
    position half 2E^2 + s E^2 + a E + b is side x = s l_a of rectangle
    D_{ab} for half 0 and side y = s l_a of D_{ba} for half 1: in both the
    boundary edge end is ``end_pos`` = s E + a and the trace runs along
    ``running_edge`` = b.  ``half``, ``end_pos`` and ``running_edge`` (4E^2
    each) unravel the position over the shape (2, 2, E, E).  The particle
    exchange maps side x = s of D_{ab} to side y = s of D_{ba}: it swaps
    the halves, so a map commutes with it iff its diagonal half-blocks are
    identical and so are its off-diagonal ones.
    """

    def __init__(self, graph: MetricGraph):
        self.graph = graph
        self.E = E = graph.E
        self.dim_full = 4 * E * E
        self.vertex = np.array([(e.init, e.fin) for e in graph.edges]).T.ravel()
        self.half, s, a, self.running_edge = np.unravel_index(
            np.arange(self.dim_full), (2, 2, E, E))
        self.end_pos = s * E + a

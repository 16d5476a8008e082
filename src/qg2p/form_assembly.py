"""Piecewise-linear finite-element discretization of the quadratic forms.

One-particle forms live on the direct sum of per-edge grids; two-particle
forms on the disjoint union of tensor-product rectangle grids.  Boundary
constraints P(y) Psi_bv(y) = 0 are eliminated through one orthonormal
basis per form, the kernel of the constraint rows, computed on first use;
the reduced pencil stays symmetric.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .bc_maps import BoundaryMap
from .graph_core import BoundaryIndexMap, MetricGraph, X0, XL, Y0, YL
from .vertex_conditions import VertexConditions

NULLSPACE_TOL = 1e-10


class AssemblyError(ValueError):
    """Mesh, map and graph are inconsistent."""


# ---------------------------------------------------------------------------
# meshes


@dataclass(frozen=True)
class Mesh:
    """Per-edge uniform grids; rectangle grids are exact tensor products."""

    graph: MetricGraph
    nodes: tuple

    def __post_init__(self):
        if len(self.nodes) != self.graph.E:
            raise AssemblyError("need one node count per edge")
        if any(n < 3 for n in self.nodes):
            raise AssemblyError("mesh too coarse: every edge needs >= 3 nodes")

    @classmethod
    def uniform(cls, g: MetricGraph, n: int) -> "Mesh":
        return cls(g, tuple([int(n)] * g.E))

    @classmethod
    def by_spacing(cls, g: MetricGraph, h: float) -> "Mesh":
        if h <= 0:
            raise AssemblyError("spacing must be positive")
        return cls(g, tuple(max(3, int(round(e.length / h)) + 1)
                            for e in g.edges))

    def spacing(self, e: int) -> float:
        return self.graph.edges[e].length / (self.nodes[e] - 1)

    @property
    def h_max(self) -> float:
        return max(self.spacing(e) for e in range(self.graph.E))

    def grid(self, e: int) -> np.ndarray:
        return np.linspace(0.0, self.graph.edges[e].length, self.nodes[e])

    def normalized(self, e: int) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nodes[e])

    # 1-D layout: edges concatenated in declaration order.
    def edge_offset(self, e: int) -> int:
        return int(sum(self.nodes[:e]))

    @property
    def ndof1(self) -> int:
        return int(sum(self.nodes))

    # 2-D layout: rectangles in lexicographic (e1, e2) order; node (i, j)
    # of rectangle (a, b) sits at offset + i * n_b + j.
    def rect_shape(self, a: int, b: int):
        return (self.nodes[a], self.nodes[b])

    def rect_offset(self, a: int, b: int) -> int:
        E = self.graph.E
        off = 0
        for p in range(a * E + b):
            off += self.nodes[p // E] * self.nodes[p % E]
        return off

    @property
    def ndof2(self) -> int:
        E = self.graph.E
        return int(sum(self.nodes[a] * self.nodes[b]
                       for a in range(E) for b in range(E)))


def stiffness_1d(length: float, n: int) -> sp.csr_matrix:
    h = length / (n - 1)
    main = np.full(n, 2.0 / h)
    main[0] = main[-1] = 1.0 / h
    off = np.full(n - 1, -1.0 / h)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def mass_1d(length: float, n: int) -> sp.csr_matrix:
    h = length / (n - 1)
    main = np.full(n, 4.0 * h / 6.0)
    main[0] = main[-1] = 2.0 * h / 6.0
    off = np.full(n - 1, h / 6.0)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


# ---------------------------------------------------------------------------
# discrete forms


def _realify(mat):
    if mat is None or not np.iscomplexobj(mat if isinstance(mat, np.ndarray)
                                          else mat.data):
        return mat
    if isinstance(mat, np.ndarray):
        if np.abs(mat.imag).max(initial=0.0) < 1e-14 * max(1.0, np.abs(mat).max()):
            return mat.real.copy()
        return mat
    imax = np.abs(mat.data.imag).max(initial=0.0)
    if imax < 1e-14 * max(1.0, np.abs(mat.data).max(initial=0.0)):
        return mat.real.tocsr()
    return mat


@dataclass
class DiscreteForm:
    """Assembled matrices of a constrained quadratic form.

    ``K``: stiffness; ``M``: mass; ``B``: boundary term (so the pencil is
    (K - B, M)); ``C``: the raw constraint rows; ``C_infty``: explicit
    semi-boundedness constant of the continuum form.  ``N`` is the form's
    one orthonormal basis: ``basis`` when given (a sector form passes
    S null(C S)), else the kernel of ``C``, computed on first use and kept.
    """

    K: sp.spmatrix
    M: sp.spmatrix
    B: sp.spmatrix
    C: sp.spmatrix
    C_infty: float
    meta: dict = field(default_factory=dict)
    basis: sp.spmatrix = field(default=None, repr=False)
    _reduced: tuple = field(default=None, init=False, repr=False)

    @property
    def N(self) -> sp.spmatrix:
        if self.basis is None:
            self.basis = nullspace_from_constraints(self.C, self.ndof)
        return self.basis

    @property
    def ndof(self) -> int:
        return self.K.shape[0]

    @property
    def nreduced(self) -> int:
        return self.N.shape[1]

    def operator(self) -> sp.spmatrix:
        return (self.K - self.B).tocsr()

    def reduced(self):
        """(A_r, M_r) with A_r = N^H (K - B) N, Hermitian-symmetrized."""
        if self._reduced is None:
            A = (self.N.conj().T @ self.operator() @ self.N).tocsr()
            Mr = (self.N.conj().T @ self.M @ self.N).tocsr()
            A = 0.5 * (A + A.conj().T)
            Mr = 0.5 * (Mr + Mr.conj().T)
            self._reduced = (_realify(A), _realify(Mr))
        return self._reduced


def nullspace_from_constraints(C: sp.spmatrix, ndof: int,
                               tol: float = NULLSPACE_TOL) -> sp.csr_matrix:
    """Orthonormal basis of {u : C u = 0}: identity on untouched dofs plus
    an SVD kernel basis on the constrained ones."""
    C = C.tocsr()
    if C.nnz == 0:
        return sp.identity(ndof, format="csr")
    touched = np.unique(C.indices)
    C = C.tocsc()
    Csub = np.asarray(C[:, touched].todense())
    _, sv, vh = np.linalg.svd(Csub, full_matrices=True)
    cutoff = tol * max(sv[0] if sv.size else 0.0, 1.0)
    rank = int(np.count_nonzero(sv > cutoff))
    kernel = vh.conj().T[:, rank:]

    untouched = np.setdiff1d(np.arange(ndof), touched, assume_unique=False)
    base = len(untouched)
    # column-major over the kernel: column k lists its touched dofs in order
    k, i = np.nonzero(np.abs(kernel.T) > 1e-300)
    rows = np.concatenate([untouched, touched[i]])
    cols = np.concatenate([np.arange(base), base + k])
    vals = np.concatenate([np.ones(base), kernel[i, k]])
    N = sp.coo_matrix((vals, (rows, cols)),
                      shape=(ndof, base + kernel.shape[1])).tocsr()
    return _realify(N)


# ---------------------------------------------------------------------------
# one-particle assembly


def assemble_one_particle(g: MetricGraph, vc: VertexConditions,
                          mesh: Mesh) -> DiscreteForm:
    """Discretize the one-particle form: per-edge stiffness/mass direct
    sums, a pointwise boundary term -<F_bv, L F_bv>, and the nullspace of
    P F_bv = 0 over the 2E edge-end dofs."""
    if vc.dim != 2 * g.E:
        raise AssemblyError(f"conditions are {vc.dim}-dimensional, "
                            f"graph needs {2 * g.E}")
    K = sp.block_diag([stiffness_1d(e.length, n)
                       for e, n in zip(g.edges, mesh.nodes)], format="csr")
    M = sp.block_diag([mass_1d(e.length, n)
                       for e, n in zip(g.edges, mesh.nodes)], format="csr")

    idx = BoundaryIndexMap(g)
    bdof = np.empty(2 * g.E, dtype=int)
    for e in range(g.E):
        bdof[idx.op_pos(e, 0)] = mesh.edge_offset(e)
        bdof[idx.op_pos(e, 1)] = mesh.edge_offset(e) + mesh.nodes[e] - 1

    ndof = mesh.ndof1
    B = sp.coo_matrix(
        (vc.L.flatten(), (np.repeat(bdof, 2 * g.E), np.tile(bdof, 2 * g.E))),
        shape=(ndof, ndof)).tocsr()
    B = _realify(B)

    # one constraint row per nonzero row of P
    P = vc.P[np.abs(vc.P).max(axis=1) > NULLSPACE_TOL]
    r, c = np.nonzero(np.abs(P) > NULLSPACE_TOL)
    C = sp.coo_matrix((P[r, c], (r, bdof[c])), shape=(len(P), ndof)).tocsr()

    l_max = float(np.linalg.norm(vc.L, 2))
    c_inf = _semibound(l_max, min(e.length for e in g.edges))
    return DiscreteForm(K=K, M=M, B=B, C=C, C_infty=c_inf,
                        meta={"graph": g, "mesh": mesh, "kind": "one_particle"})


# ---------------------------------------------------------------------------
# two-particle assembly


@dataclass(frozen=True)
class ComponentTrace:
    """Global node indices of one boundary component, plus its trace data."""

    nodes: np.ndarray          # global dof per running-grid node
    running_edge: int
    weight: float              # sqrt(l) factor of the rescaled convention
    positions: np.ndarray      # normalized y of each node


def boundary_component_nodes(mesh: Mesh, idx: BoundaryIndexMap):
    """ComponentTrace for each of the 4 E^2 boundary components."""
    g = mesh.graph
    traces = []
    for p in range(idx.dim_full):
        c = idx.component(p)
        a, b = c.pair
        na, nb = mesh.rect_shape(a, b)
        off = mesh.rect_offset(a, b)
        if c.side == X0:
            nodes = off + np.arange(nb)
        elif c.side == XL:
            nodes = off + (na - 1) * nb + np.arange(nb)
        elif c.side == Y0:
            nodes = off + np.arange(na) * nb
        else:
            nodes = off + np.arange(na) * nb + (nb - 1)
        run = c.running_edge
        traces.append(ComponentTrace(
            nodes=nodes, running_edge=run,
            weight=float(np.sqrt(g.edges[run].length)),
            positions=mesh.normalized(run)))
    return traces


def _coupling_clusters(m: BoundaryMap, mesh: Mesh, traces):
    """Connected components of the P/L coupling pattern; every cluster must
    live on one common normalized running grid."""
    ys = np.unique(np.concatenate([mesh.normalized(e)
                                   for e in range(mesh.graph.E)]))
    pat = m.coupling_pattern(ys=ys)
    pat = pat | pat.T
    np.fill_diagonal(pat, True)
    ncl, labels = connected_components(sp.csr_matrix(pat), directed=False)
    clusters = [np.flatnonzero(labels == k) for k in range(ncl)]
    for cl in clusters:
        counts = {len(traces[p].positions) for p in cl}
        if len(counts) > 1:
            raise AssemblyError(
                "boundary map couples components on incompatible grids; "
                "use equal node counts on the coupled edges")
    return clusters


def assemble_two_particle(g: MetricGraph, m: BoundaryMap, mesh: Mesh,
                          idx: BoundaryIndexMap = None) -> DiscreteForm:
    """Discretize the two-particle form on the disjoint rectangles.

    Stiffness/mass are exact tensor products per rectangle; the boundary
    term integrates <Psi_bv(y), L(y) Psi_bv(y)> with the 1-D boundary mass
    matrix (L averaged per element, which keeps the term monotone in L);
    constraints are enforced nodewise through P(y_j) and eliminated by the
    form's kernel basis ``N``, computed on first use.  Corner nodes collect
    the constraints of both adjacent sides.
    """
    idx = idx or BoundaryIndexMap(g)
    if m.dim != idx.dim_full:
        raise AssemblyError(f"map dimension {m.dim} != 4 E^2 = {idx.dim_full}")

    E = g.E
    k1 = [stiffness_1d(g.edges[e].length, mesh.nodes[e]) for e in range(E)]
    m1 = [mass_1d(g.edges[e].length, mesh.nodes[e]) for e in range(E)]
    K = sp.block_diag(
        [sp.kron(k1[a], m1[b]) + sp.kron(m1[a], k1[b])
         for a in range(E) for b in range(E)], format="csr")
    M = sp.block_diag(
        [sp.kron(m1[a], m1[b]) for a in range(E) for b in range(E)],
        format="csr")

    traces = boundary_component_nodes(mesh, idx)
    clusters = _coupling_clusters(m, mesh, traces)
    ndof = mesh.ndof2

    b_parts, c_parts = [], []
    n_constraints = 0
    melem = np.array([[2.0, 1.0], [1.0, 2.0]])

    for cl in clusters:
        ts = traces[cl[0]].positions
        samples = [m(t) for t in ts]
        Ps = np.array([P[np.ix_(cl, cl)] for P, _ in samples])
        Ls = np.array([L[np.ix_(cl, cl)] for _, L in samples])
        w = np.array([traces[p].weight for p in cl])
        nodes = np.array([traces[p].nodes for p in cl])   # (component, node)

        # boundary term: per element j, L averaged between the end nodes;
        # entries run over (j, ci, cj, di, dj) in that order, which fixes
        # the order in which duplicate entries are summed.
        lv = 0.5 * (Ls[:-1] + Ls[1:]) * w[:, None] * w[None, :]
        me = (np.diff(ts) / 6.0)[:, None, None] * melem
        J, CI, CJ, DI, DJ = np.ogrid[:len(ts) - 1, :len(cl), :len(cl), :2, :2]
        keep = np.broadcast_to((lv != 0.0)[..., None, None], lv.shape + (2, 2))
        b_parts.append((np.broadcast_to(nodes[CI, J + DI], keep.shape)[keep],
                        np.broadcast_to(nodes[CJ, J + DJ], keep.shape)[keep],
                        (lv[..., None, None] * me[:, None, None])[keep]))

        # nodewise constraints P(y_j) Psi_bv(y_j) = 0 in weighted
        # coordinates: one row per (j, r) with a nonzero P row.
        active = np.abs(Ps).max(axis=2) > NULLSPACE_TOL
        row_of = n_constraints + np.cumsum(active).reshape(active.shape) - 1
        V = Ps * w
        j, r, ci = np.nonzero(active[:, :, None] & (np.abs(V) > NULLSPACE_TOL))
        c_parts.append((row_of[j, r], nodes[ci, j], V[j, r, ci]))
        n_constraints += int(active.sum())

    def coo(parts, shape):
        rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
        return sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()

    B = coo(b_parts, (ndof, ndof))
    B = _realify(0.5 * (B + B.conj().T))
    C = coo(c_parts, (n_constraints, ndof))

    c_inf = semibound_constant(m, g)
    return DiscreteForm(K=_realify(K), M=M, B=B, C=C, C_infty=c_inf,
                        meta={"graph": g, "mesh": mesh, "map": m,
                              "index": idx, "kind": "two_particle"})


def semibound_constant(m: BoundaryMap, g: MetricGraph,
                       ys: Sequence[float] = None) -> float:
    """Explicit lower-bound constant C = 8 L_max / delta with
    delta = min(l_min, 1 / (4 L_max)); zero when the boundary term vanishes."""
    l_max = m.L_max(ys)
    l_min = min(e.length for e in g.edges)
    return _semibound(l_max, l_min)


def _semibound(l_max: float, l_min: float) -> float:
    if l_max <= 0.0:
        return 0.0
    delta = min(l_min, 1.0 / (4.0 * l_max))
    return 8.0 * l_max / delta

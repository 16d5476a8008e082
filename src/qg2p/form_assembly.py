"""Piecewise-linear finite-element discretization of the quadratic forms.

One-particle forms live on the direct sum of per-edge grids; two-particle
forms on its tensor square, whose blocks are the rectangle grids.  Boundary
constraints P(y) Psi_bv(y) = 0 are eliminated through one orthonormal
basis per form, computed on first use by one small SVD per connected
block of the constraint rows; the reduced pencil stays symmetric.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .bc_maps import BoundaryMap, block_structured, lift_defect, sampled_l_max
from .graph_core import BoundaryIndexMap, MetricGraph
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
        return cls(g, tuple(int(round(e.length / h)) + 1 for e in g.edges))

    def spacing(self, e: int) -> float:
        return self.graph.edges[e].length / (self.nodes[e] - 1)

    @property
    def h_max(self) -> float:
        return max(self.spacing(e) for e in range(self.graph.E))

    def normalized(self, e: int) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.nodes[e])

    @property
    def y_nodes(self) -> np.ndarray:
        """Sorted normalized nodes of all edges: the y at which two-particle
        assembly evaluates a boundary map."""
        return np.unique(np.concatenate([self.normalized(e)
                                         for e in range(self.graph.E)]))

    # 1-D layout: edges concatenated in declaration order.
    @property
    def ndof1(self) -> int:
        return int(sum(self.nodes))

    @property
    def end_dofs(self) -> np.ndarray:
        """The dof of one-particle position end E + e: first, last nodes."""
        last = np.cumsum(self.nodes) - 1
        return np.concatenate([last - np.array(self.nodes) + 1, last])

    @property
    def ndof2(self) -> int:
        """ndof1^2, the tensor square: dofs p, q make dof p ndof1 + q."""
        return self.ndof1 ** 2


def p1_element(h) -> tuple:
    """(stiffness, mass): the (..., 2, 2) element matrices
    [[1, -1], [-1, 1]] / h and (h / 6) [[2, 1], [1, 2]] of P1 elements of
    lengths ``h``."""
    h = np.asarray(h, dtype=float)[..., None, None]
    return (np.array([[1.0, -1.0], [-1.0, 1.0]]) / h,
            h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]]))


def stiffness_mass(mesh: Mesh) -> tuple:
    """(K1, M1): the one-particle stiffness and mass, the ``p1_element``
    matrices of every element of every edge summed in one COO scatter."""
    E, n = mesh.graph.E, mesh.ndof1
    h = np.repeat([mesh.spacing(e) for e in range(E)], np.array(mesh.nodes) - 1)
    left = np.delete(np.arange(n), mesh.end_dofs[E:])[:, None, None]
    rows, cols = np.broadcast_arrays(left + [[0], [1]], left + [0, 1])
    return tuple(sp.csr_matrix((x.ravel(), (rows.ravel(), cols.ravel())),
                               shape=(n, n)) for x in p1_element(h))


# ---------------------------------------------------------------------------
# discrete forms


def _realify(mat: sp.spmatrix) -> sp.spmatrix:
    """``mat`` as a real CSR matrix when its imaginary part is negligible."""
    if not np.iscomplexobj(mat.data):
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
    S null(C S)), else ker C by one small SVD per connected block of the
    constraint rows, computed on first use and kept.  The solver holds
    only the form's ``symmetry.sector_pencils``, never the form.
    """

    K: sp.spmatrix
    M: sp.spmatrix
    B: sp.spmatrix
    C: sp.spmatrix
    C_infty: float
    meta: dict = field(default_factory=dict)
    basis: sp.spmatrix = field(default=None, repr=False)

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
        A = (self.N.conj().T @ self.operator() @ self.N).tocsr()
        Mr = (self.N.conj().T @ self.M @ self.N).tocsr()
        A = 0.5 * (A + A.conj().T)
        Mr = 0.5 * (Mr + Mr.conj().T)
        return _realify(A), _realify(Mr)


def nullspace_from_constraints(C: sp.spmatrix, ndof: int) -> sp.csr_matrix:
    """Orthonormal basis of {u : C u = 0}: identity columns on untouched
    dofs, then the kernel from one small SVD per connected block of the
    constraint rows (same-shape blocks stacked), ranked like one SVD of C
    by the cutoff NULLSPACE_TOL * max(1, largest block singular value)."""
    C = C.tocoo()
    if C.nnz == 0:
        return sp.identity(ndof, format="csr")
    touched, col = np.unique(C.col, return_inverse=True)
    nr = C.shape[0]
    pattern = sp.coo_matrix((np.ones(C.nnz), (C.row, nr + col)),
                            shape=(nr + len(touched),) * 2)
    nb, label = connected_components(pattern, directed=False)
    # position of each row / touched column among those of its block
    key = label + nb * (np.arange(len(label)) >= nr)
    count = np.bincount(key, minlength=2 * nb)
    pos = np.argsort(np.argsort(key, kind="stable")) - (np.cumsum(count) - count)[key]
    shapes, group = np.unique(count.reshape(2, nb).T, axis=0, return_inverse=True)
    dofs = np.zeros((nb, shapes[:, 1].max()), dtype=int)
    dofs[label[nr:], pos[nr:]] = touched
    # kernel candidates (block, row of vh, sigma, dof, value); untouched first
    untouched = np.setdiff1d(np.arange(ndof), touched)
    parts = [np.broadcast_arrays(untouched - ndof, 0, 0.0, untouched, 1.0)]
    for g, (m, n) in enumerate(shapes):
        members = np.flatnonzero(group == g)
        D = np.zeros((len(members), m, n), dtype=np.result_type(C.dtype, float))
        e = group[label[nr + col]] == g
        np.add.at(D, (np.searchsorted(members, label[nr + col[e]]),
                      pos[C.row[e]], pos[nr + col[e]]), C.data[e])
        _, s, vh = np.linalg.svd(D)
        s = np.pad(s, ((0, 0), (0, n - s.shape[1])))   # rows of vh past m
        parts.append(np.broadcast_arrays(members[:, None, None],
                                         np.arange(n)[:, None], s[..., None],
                                         dofs[members, None, :n]) + (vh.conj(),))
    b, j, s, rows, vals = (np.concatenate([a.ravel() for a in x])
                           for x in zip(*parts))
    keep = (s <= NULLSPACE_TOL * max(1.0, s.max())) & (np.abs(vals) > 1e-300)
    kernel, cols = np.unique((b * dofs.shape[1] + j)[keep], return_inverse=True)
    N = sp.coo_matrix((vals[keep], (rows[keep], cols)), shape=(ndof, len(kernel)))
    return _realify(N.tocsr())


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
    K, M = stiffness_mass(mesh)
    bdof, ndof = mesh.end_dofs, mesh.ndof1
    B = sp.coo_matrix(
        (vc.L.flatten(), (np.repeat(bdof, 2 * g.E), np.tile(bdof, 2 * g.E))),
        shape=(ndof, ndof)).tocsr()
    B = _realify(B)

    # one constraint row per nonzero row of P
    P = vc.P[np.abs(vc.P).max(axis=1) > NULLSPACE_TOL]
    r, c = np.nonzero(np.abs(P) > NULLSPACE_TOL)
    C = sp.coo_matrix((P[r, c], (r, bdof[c])), shape=(len(P), ndof)).tocsr()

    c_inf = semibound_constant(float(np.linalg.norm(vc.L, 2)), min(g.lengths))
    return DiscreteForm(K=K, M=M, B=B, C=C, C_infty=c_inf,
                        meta={"mesh": mesh, "kind": "one_particle"})


# ---------------------------------------------------------------------------
# two-particle assembly


def boundary_component_nodes(mesh: Mesh, idx: BoundaryIndexMap):
    """Global dofs of each of the 4 E^2 boundary components, one array per
    component, ordered along its running edge: on the ndof1 x ndof1 grid,
    half 0 is row ``end_dofs[end_pos]`` over the running edge's dofs and
    half 1 is that column."""
    n, end = mesh.ndof1, mesh.end_dofs
    runs = [np.arange(end[r], end[idx.E + r] + 1) for r in idx.running_edge]
    return [end[p] * n + run if half == 0 else run * n + end[p]
            for half, p, run in zip(idx.half, idx.end_pos, runs)]


def _coupling_clusters(P: np.ndarray, L: np.ndarray, counts: np.ndarray):
    """Connected components of the coupling pattern of the sample stacks
    P, L; every cluster must live on one common normalized running grid,
    so its components' running node ``counts`` must agree."""
    pat = ((np.abs(P) > NULLSPACE_TOL) | (np.abs(L) > NULLSPACE_TOL)).any(axis=0)
    pat = pat | pat.T
    np.fill_diagonal(pat, True)
    ncl, labels = connected_components(sp.csr_matrix(pat), directed=False)
    clusters = [np.flatnonzero(labels == k) for k in range(ncl)]
    if any(len(set(counts[cl])) > 1 for cl in clusters):
        raise AssemblyError(
            "boundary map couples components on incompatible grids; "
            "use equal node counts on the coupled edges")
    return clusters


def check_finite_scale(mesh: Mesh, particles: int = 2) -> None:
    """AssemblyError unless the stiffness and mass are representable.  With
    k, m the 1-D interior diagonals (two ``p1_element`` diagonals each) and s
    the off-diagonal mass, the largest two-particle entries k_a m_b + m_a k_b
    and m_a m_b must be finite and the smallest, s_a s_b, normal.  One
    particle needs k and m finite, and s and the eigenvalue scale 3/h^2 normal."""
    h = np.array([mesh.spacing(e) for e in range(mesh.graph.E)])
    with np.errstate(all="ignore"):
        ke, me = p1_element(h)
        k, m, s = ke[:, 0, 0] + ke[:, 1, 1], me[:, 0, 0] + me[:, 1, 1], me[:, 0, 1]
        big = [np.outer(k, m) + np.outer(m, k), np.outer(m, m)]
        small = np.outer(s, s)
        if particles == 1:
            big, small = [k, m, 3.0 / h ** 2], np.array([s, 3.0 / h ** 2])
    if not (np.isfinite(big).all() and small.min() >= np.finfo(float).tiny):
        raise AssemblyError("stiffness or mass overflows or underflows: an "
                            "edge length is too large or too small")


# peak RSS of a run's assembly per dof of its own: 409..538 B per Mesh.ndof2
# (assemble_two_particle, E = 1 and 3, 129..513 nodes per edge) and 312 B per
# Mesh.ndof1 (assemble_one_particle and its N, E = 3, 1 and 3 million dofs)
ASSEMBLY_BYTES_PER_DOF = 700


def assemble_two_particle(g: MetricGraph, m: BoundaryMap,
                          mesh: Mesh) -> DiscreteForm:
    """Discretize the two-particle form on the tensor square of the mesh.

    Stiffness and mass are K1 x M1 + M1 x K1 and M1 x M1 of the one-particle
    ``stiffness_mass``; the boundary term integrates <Psi_bv(y), L(y) Psi_bv(y)>
    with the 1-D boundary mass matrix (L averaged per element, which keeps
    the term monotone in L); constraints are enforced nodewise through
    P(y_j) and eliminated by the form's kernel basis ``N``, computed on first
    use.  Corner nodes collect the constraints of both adjacent sides.

    Assembly is the last reader of the map: ``meta`` records the
    ``sampled_l_max`` of its y-node samples (the L_max of C_infty, which
    ``validate_map`` reports at the same nodes) and whether the
    samples are ``block_structured``, that is exchange invariant (whether
    the exchange sectors split).  When the samples are bitwise a lift
    (``lift_defect`` 0.0), ``meta["lift"]`` is the one-particle (P1, L1)
    they lift, else None.
    """
    idx = BoundaryIndexMap(g)
    if m.dim != idx.dim_full:
        raise AssemblyError(f"map dimension {m.dim} != 4 E^2 = {idx.dim_full}")

    check_finite_scale(mesh)
    K1, M1 = stiffness_mass(mesh)
    K = sp.kron(K1, M1, format="csr") + sp.kron(M1, K1, format="csr")
    M = sp.kron(M1, M1, format="csr")

    comp_nodes = boundary_component_nodes(mesh, idx)
    ys = mesh.y_nodes
    P, L = m.samples(ys)
    clusters = _coupling_clusters(P, L, np.array(mesh.nodes)[idx.running_edge])
    ndof = mesh.ndof2

    b_parts, c_parts = [], []
    n_constraints = 0

    for cl in clusters:
        ts = mesh.normalized(idx.running_edge[cl[0]])
        at = np.searchsorted(ys, ts)[:, None, None]      # ts are among ys
        Ps, Ls = P[at, cl[:, None], cl], L[at, cl[:, None], cl]
        w = np.sqrt(g.lengths[idx.running_edge[cl]])   # sqrt(l) rescaling
        nodes = np.array([comp_nodes[p] for p in cl])   # (component, node)

        # boundary term: per element j, L averaged between the end nodes;
        # entries run over (j, ci, cj, di, dj) in that order, which fixes
        # the order in which duplicate entries are summed.
        lv = 0.5 * (Ls[:-1] + Ls[1:]) * w[:, None] * w[None, :]
        me = p1_element(np.diff(ts))[1]
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

    l_max = sampled_l_max(m, L)
    defect, pair = lift_defect(P, L, idx)
    return DiscreteForm(K=K, M=M, B=B, C=C,
                        C_infty=semibound_constant(l_max, min(g.lengths)),
                        meta={"mesh": mesh, "kind": "two_particle",
                              "L_max": l_max,
                              "block_structured": block_structured(P, L),
                              "lift": pair if defect == 0.0 else None})


def semibound_constant(l_max: float, l_min: float) -> float:
    """Explicit lower-bound constant C = 8 L_max / delta with
    delta = min(l_min, 1 / (4 L_max)) of the largest boundary-term norm
    L_max and the shortest edge length l_min; zero when the boundary term
    vanishes."""
    if l_max <= 0.0:
        return 0.0
    delta = min(l_min, 1.0 / (4.0 * l_max))
    return 8.0 * l_max / delta

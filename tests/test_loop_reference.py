"""Vectorized builders and structure predicates against the per-entry
loops they replaced.

Each reference below is the loop form of one builder or predicate.  The
vectorized code emits the same entries in the same order with the same
arithmetic, so the results must agree bit for bit, not merely to a
tolerance.  The one
exception is the constraint kernel: ``loop_nullspace`` takes one SVD of all
touched columns, the code one SVD per connected block, so the bases differ
while the subspaces must not (``assert_same_kernel``).
"""
import functools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import YS, bump_interaction_map
from scipy.sparse.csgraph import connected_components
from test_graph_core import X0, XL, Y0, YL, component, end_vertex, position

from qg2p.bc_maps import (BoundaryMap, MapError, MapValidationReport,
                          _beta_blocks, block_structured, constant_map,
                          delta_example_map, fold_to_plane,
                          is_local_two_particle, is_noninteracting,
                          lift_one_particle, piecewise_map, sampled_l_max,
                          validate_map)
from qg2p.form_assembly import (NULLSPACE_TOL, Mesh, _coupling_clusters,
                                _realify, assemble_one_particle,
                                assemble_two_particle,
                                boundary_component_nodes,
                                nullspace_from_constraints, stiffness_mass)
from qg2p.graph_core import BoundaryIndexMap, build_graph
from qg2p.symmetry import exchange_permutation, sector_basis
from qg2p.vertex_conditions import (VertexConditions, delta_family, is_local,
                                    standard_family)


def assert_identical(X, Y):
    X, Y = X.tocsr(), Y.tocsr()
    assert X.shape == Y.shape
    assert np.array_equal(X.indptr, Y.indptr)
    assert np.array_equal(X.indices, Y.indices)
    assert np.array_equal(X.data, Y.data)


def assert_same_kernel(N, N0, C, tol=1e-12):
    """N spans the same kernel of C as the reference basis N0: equal shape,
    equal orthogonal projectors, orthonormal columns annihilated by C."""
    N, N0 = N.toarray(), N0.toarray()
    assert N.shape == N0.shape
    P, P0 = N @ N.conj().T, N0 @ N0.conj().T
    assert np.abs(P - P0).max(initial=0.0) <= tol
    assert np.linalg.norm(N.conj().T @ N - np.eye(N.shape[1])) <= tol
    assert np.linalg.norm(C @ N) <= tol


# ---------------------------------------------------------------------------
# loop references


def stiffness_1d(length, n):
    """The P1 stiffness of one edge: the tridiagonal (-1, 2, -1) / h with
    1 / h at both ends."""
    h = length / (n - 1)
    main = np.full(n, 2.0 / h)
    main[0] = main[-1] = 1.0 / h
    off = np.full(n - 1, -1.0 / h)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def mass_1d(length, n):
    """The P1 mass of one edge: the tridiagonal (h, 4 h, h) / 6 with
    2 h / 6 at both ends."""
    h = length / (n - 1)
    main = np.full(n, 4.0 * h / 6.0)
    main[0] = main[-1] = 2.0 * h / 6.0
    off = np.full(n - 1, h / 6.0)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def loop_rect_dof(mesh):
    """(dof, ndof2): dof(a, b, i, j) = (cut_a + i) ndof1 + cut_b + j is the
    dof of node (i, j) of D_ab, with cut_e the nodes of the edges before e
    and ndof1 those of all edges."""
    cut, ndof1 = [], 0
    for n in mesh.nodes:
        cut.append(ndof1)
        ndof1 += n
    return (lambda a, b, i, j: (cut[a] + i) * ndof1 + cut[b] + j), ndof1 ** 2


def loop_exchange_permutation(mesh):
    """perm[dof of (a, b, i, j)] = dof of (b, a, j, i), node by node."""
    dof, ndof = loop_rect_dof(mesh)
    perm = np.full(ndof, -1)
    for a in range(mesh.graph.E):
        for b in range(mesh.graph.E):
            for i in range(mesh.nodes[a]):
                for j in range(mesh.nodes[b]):
                    perm[dof(a, b, i, j)] = dof(b, a, j, i)
    return perm


def loop_component_nodes(mesh):
    """(dofs, running edge) of each two-particle boundary component, from
    one per-side formula for each side of each rectangle, node by node."""
    E = mesh.graph.E
    nodes, running = [None] * (4 * E * E), [None] * (4 * E * E)
    dof, _ = loop_rect_dof(mesh)
    for e1 in range(E):
        for e2 in range(E):
            na, nb = mesh.nodes[e1], mesh.nodes[e2]
            for side, dofs, run in (
                    (X0, [dof(e1, e2, 0, j) for j in range(nb)], e2),
                    (XL, [dof(e1, e2, na - 1, j) for j in range(nb)], e2),
                    (Y0, [dof(e1, e2, i, 0) for i in range(na)], e1),
                    (YL, [dof(e1, e2, i, nb - 1) for i in range(na)], e1)):
                p = position(E, (e1, e2), side)
                nodes[p], running[p] = np.array(dofs), run
    return nodes, running


def loop_two_particle_terms(g, m, mesh):
    """(B, C) of assemble_two_particle, one entry per loop iteration."""
    nodes, running = loop_component_nodes(mesh)
    counts = np.array([len(n) for n in nodes])
    ndof = mesh.ndof2
    b_rows, b_cols, b_vals = [], [], []
    c_rows, c_cols, c_vals = [], [], []
    n_constraints = 0
    for cl in _coupling_clusters(*m.samples(mesh.y_nodes), counts):
        ts = mesh.normalized(running[cl[0]])
        n = len(ts)
        Ls = [m(t)[1][np.ix_(cl, cl)] for t in ts]
        Ps = [m(t)[0][np.ix_(cl, cl)] for t in ts]
        w = np.array([np.sqrt(g.edges[running[p]].length) for p in cl])
        for j in range(n - 1):
            hh = ts[j + 1] - ts[j]
            Lbar = 0.5 * (Ls[j] + Ls[j + 1])
            if np.abs(Lbar).max(initial=0.0) == 0.0:
                continue
            melem = hh / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
            for ci, p in enumerate(cl):
                for cj, q in enumerate(cl):
                    lv = Lbar[ci, cj] * w[ci] * w[cj]
                    if lv == 0.0:
                        continue
                    for di in (0, 1):
                        for dj in (0, 1):
                            b_rows.append(nodes[p][j + di])
                            b_cols.append(nodes[q][j + dj])
                            b_vals.append(lv * melem[di, dj])
        for j in range(n):
            for r in range(len(cl)):
                row = Ps[j][r]
                if np.abs(row).max(initial=0.0) <= NULLSPACE_TOL:
                    continue
                for ci, q in enumerate(cl):
                    v = row[ci] * w[ci]
                    if abs(v) > NULLSPACE_TOL:
                        c_rows.append(n_constraints)
                        c_cols.append(nodes[q][j])
                        c_vals.append(v)
                n_constraints += 1
    B = sp.coo_matrix((b_vals, (b_rows, b_cols)), shape=(ndof, ndof)).tocsr()
    B = _realify(0.5 * (B + B.conj().T))
    C = sp.coo_matrix((c_vals, (c_rows, c_cols)),
                      shape=(n_constraints, ndof)).tocsr()
    return B, C


def loop_one_particle_constraints(g, vc, mesh):
    bdof = np.empty(2 * g.E, dtype=int)
    off = 0
    for e in range(g.E):     # ends at positions end E + e
        bdof[e], bdof[g.E + e] = off, off + mesh.nodes[e] - 1
        off += mesh.nodes[e]
    rows, cols, vals = [], [], []
    nc = 0
    for r in range(2 * g.E):
        if np.abs(vc.P[r]).max() <= NULLSPACE_TOL:
            continue
        for c in range(2 * g.E):
            if abs(vc.P[r, c]) > NULLSPACE_TOL:
                rows.append(nc)
                cols.append(bdof[c])
                vals.append(vc.P[r, c])
        nc += 1
    return sp.coo_matrix((vals, (rows, cols)), shape=(nc, mesh.ndof1)).tocsr()


def loop_nullspace(C, ndof, tol=NULLSPACE_TOL):
    C = C.tocsr()
    if C.nnz == 0:
        return sp.identity(ndof, format="csr")
    touched = np.unique(C.indices)
    Csub = np.asarray(C.tocsc()[:, touched].todense())
    _, sv, vh = np.linalg.svd(Csub, full_matrices=True)
    rank = int(np.count_nonzero(sv > tol * max(sv[0], 1.0)))
    kernel = vh.conj().T[:, rank:]
    untouched = np.setdiff1d(np.arange(ndof), touched)
    rows, cols, vals = [], [], []
    for k, d in enumerate(untouched):
        rows.append(d)
        cols.append(k)
        vals.append(1.0)
    base = len(untouched)
    for k in range(kernel.shape[1]):
        for i, d in enumerate(touched):
            v = kernel[i, k]
            if abs(v) > 1e-300:
                rows.append(d)
                cols.append(base + k)
                vals.append(v)
    shape = (ndof, base + kernel.shape[1])
    return _realify(sp.coo_matrix((vals, (rows, cols)), shape=shape).tocsr())


def loop_sector_basis(mesh, sign):
    perm = exchange_permutation(mesh)
    rows, cols, vals = [], [], []
    col = 0
    inv = 1.0 / np.sqrt(2.0)
    for p, q in enumerate(perm):
        if q == p:
            if sign == +1:
                rows.append(p)
                cols.append(col)
                vals.append(1.0)
                col += 1
        elif p < q:
            rows.extend([p, q])
            cols.extend([col, col])
            vals.extend([inv, sign * inv])
            col += 1
    return sp.coo_matrix((vals, (rows, cols)), shape=(len(perm), col)).tocsr()


def loop_fold(grids):
    n = grids[0].shape[0]
    acc = np.zeros((2 * n - 1, 2 * n - 1), dtype=grids[0].dtype)
    cnt = np.zeros_like(acc, dtype=float)
    c = n - 1
    for comp, sx, sy in zip(grids, (1, 1, -1, -1), (1, -1, 1, -1)):
        for i in range(n):
            for j in range(n):
                acc[c + sx * i, c + sy * j] += comp[i, j]
                cnt[c + sx * i, c + sy * j] += 1
    return acc / cnt


def loop_vertices(g):
    """Vertex of each one-particle position end E + e."""
    return [end_vertex(g, pos % g.E, pos // g.E) for pos in range(2 * g.E)]


def loop_is_local(P, L, g, tol=1e-10):
    """vertex_conditions.is_local, one entry pair per iteration."""
    n = P.shape[0]
    block_of = loop_vertices(g)
    for i in range(n):
        for j in range(n):
            if block_of[i] != block_of[j]:
                if abs(P[i, j]) > tol or abs(L[i, j]) > tol:
                    return False
    return True


@functools.lru_cache
def loop_local_pairs(g):
    """The pairs is_local_two_particle allows, one pair per iteration."""
    n = 4 * g.E * g.E

    def in_some_block(p):
        return g.edges_connected(*component(g.E, p)[0])

    vtx = [end_vertex(g, *component(g.E, p)[2:4]) for p in range(n)]
    ok_pair = np.zeros((n, n), dtype=bool)
    for p in range(n):
        for q in range(n):
            ok_pair[p, q] = (vtx[p] == vtx[q]
                             and in_some_block(p) and in_some_block(q))
    return ok_pair


def loop_is_local_two_particle(m, g, tol=1e-9):
    ok_pair = loop_local_pairs(g)
    for y in np.linspace(0.0, 1.0, 101):
        P, L = m(y)
        for M in (P, L):
            if np.abs(M[~ok_pair]).max(initial=0.0) > tol:
                return False
    return True


def loop_beta_block(E, half, beta):
    off = half * 2 * E * E
    return [off + s * E * E + alpha * E + beta for s in (0, 1) for alpha in range(E)]


def loop_is_noninteracting(m, E, tol=1e-9):
    """bc_maps.is_noninteracting, one (half, beta) block per iteration."""
    ys = np.linspace(0.0, 1.0, 101)
    P0, L0 = m(ys[0])
    for y in ys[1:]:
        P, L = m(y)
        if np.abs(P - P0).max() > tol or np.abs(L - L0).max() > tol:
            return False
    for M in (P0, L0):
        ref = None
        mask = np.zeros_like(M, dtype=bool)
        for half in (0, 1):
            for beta in range(E):
                rows = loop_beta_block(E, half, beta)
                blk = M[np.ix_(rows, rows)]
                mask[np.ix_(rows, rows)] = True
                if ref is None:
                    ref = blk
                elif np.abs(blk - ref).max() > tol:
                    return False
        if np.abs(M[~mask]).max(initial=0.0) > tol:
            return False
    return True


def loop_l_max(m, ys=YS):
    return max(float(np.linalg.norm(m(y)[1], 2)) for y in ys)


def loop_sampled_l_max(m, ys=YS):
    l_max = loop_l_max(m, ys)
    if m.meta.get("breakpoints"):
        l_max = max(l_max, loop_l_max(m, m.meta["breakpoints"]))
    return l_max


def loop_block_structured(m, ys=YS, tol=1e-9):
    """bc_maps.block_structured, one sample per iteration."""
    h = m.dim // 2
    for y in ys:
        for M in m(y):
            if (np.abs(M[:h, h:] - M[h:, :h]).max(initial=0.0) > tol
                    or np.abs(M[:h, :h] - M[h:, h:]).max(initial=0.0) > tol):
                return False
    return True


def loop_validate_map(m, ys=YS, tol=1e-9):
    """bc_maps.validate_map, one sample per iteration."""
    ys = np.asarray(ys, dtype=float)
    errors = []
    pd = sa = qlq = 0.0
    corner = True
    for y in ys:
        P, L = m(y)
        if P.shape != (m.dim, m.dim) or L.shape != (m.dim, m.dim):
            raise MapError(f"sample at y={y} has wrong shape")
        d_proj = max(np.linalg.norm(P @ P - P, 2), np.linalg.norm(P - P.conj().T, 2))
        d_sa = np.linalg.norm(L - L.conj().T, 2)
        Q = np.eye(m.dim) - P
        d_qlq = np.linalg.norm(L - Q @ L @ Q, 2)
        pd, sa, qlq = max(pd, d_proj), max(sa, d_sa), max(qlq, d_qlq)
        if d_proj > tol:
            errors.append(f"P(y={y:.6g}) is not an orthogonal projector "
                          f"(defect {d_proj:.2e})")
        if d_sa > tol:
            errors.append(f"L(y={y:.6g}) is not Hermitian (defect {d_sa:.2e})")
        if d_qlq > tol:
            errors.append(f"L(y={y:.6g}) violates L = Q L Q (defect {d_qlq:.2e})")
        if y <= 1e-12 or y >= 1.0 - 1e-12:
            tl = P[:m.dim // 2, :m.dim // 2]
            off = tl - np.diag(np.diag(tl))
            diag = np.diag(tl)
            diag_01 = np.all(np.minimum(np.abs(diag), np.abs(diag - 1.0)) <= tol)
            if (np.linalg.norm(L, 2) > tol or np.abs(off).max(initial=0.0) > tol
                    or not diag_01):
                corner = False
    warnings = () if corner else (
        "corner-regularity hypotheses not met "
        "(L != 0 or non-diagonal half-block near y = 0, 1)",)
    return MapValidationReport(
        ok=not errors, L_max=loop_sampled_l_max(m, ys),
        block_structured=loop_block_structured(m, ys, tol),
        corner_regular=corner, max_projector_defect=pd,
        max_self_adjointness_defect=sa,
        max_qlq_defect=qlq, errors=tuple(errors), warnings=warnings)


def loop_coupling_clusters(m, ys, tol=1e-10):
    """Clusters of _coupling_clusters from a pattern built one sample at a
    time."""
    pat = np.zeros((m.dim, m.dim), dtype=bool)
    for y in ys:
        P, L = m(y)
        pat |= np.abs(P) > tol
        pat |= np.abs(L) > tol
    pat = pat | pat.T
    np.fill_diagonal(pat, True)
    ncl, labels = connected_components(sp.csr_matrix(pat), directed=False)
    return [np.flatnonzero(labels == k) for k in range(ncl)]


def loop_delta_family(g, strength):
    """(P, L) of delta_family, one vertex block per iteration."""
    vtx = loop_vertices(g)
    n = 2 * g.E
    P, L = np.zeros((n, n)), np.zeros((n, n))
    for v in range(g.V):
        b = [pos for pos in range(n) if vtx[pos] == v]
        d = len(b)
        if d:
            P[np.ix_(b, b)] = np.eye(d) - np.ones((d, d)) / d
            L[np.ix_(b, b)] = -(strength / d**2) * np.ones((d, d))
    return P, L


def loop_lift(vc, E):
    """(P, L) of lift_one_particle, one (half, beta) block per iteration."""
    n = 4 * E * E
    P = np.zeros((n, n), dtype=complex)
    L = np.zeros((n, n), dtype=complex)
    for half in (0, 1):
        for beta in range(E):
            rows = loop_beta_block(E, half, beta)
            src = [s * E + alpha for s in (0, 1) for alpha in range(E)]
            P[np.ix_(rows, rows)] = vc.P[np.ix_(src, src)]
            L[np.ix_(rows, rows)] = vc.L[np.ix_(src, src)]
    return P, L


# ---------------------------------------------------------------------------
# cases


def random_projector_map(dim, rank, seed):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q = np.linalg.qr(Z)[0][:, :rank]
    P = Q @ Q.conj().T
    L = rng.standard_normal((dim, dim))
    R = np.eye(dim) - P
    return constant_map(P, R @ (L + L.T) @ R)


def two_particle_cases():
    interval = build_graph({"edges": [["a", "b", 1.0]]})
    two = build_graph({"edges": [["a", "b", 0.7], ["b", "c", 1.3]]})
    star = build_graph({"edges": [["c", "l1", 1.0], ["c", "l2", 0.8],
                                  ["c", "l3", 1.2]]})
    g_delta, m_delta = delta_example_map(
        lambda x, y: -2.0 * np.exp(-(x * x + y * y) / 0.5), 2.0)
    return {
        "delta-example": (g_delta, m_delta, Mesh.uniform(g_delta, 9)),
        "star-delta-lift": (star, lift_one_particle(delta_family(star, 2.1),
                                                    star), Mesh.uniform(star, 7)),
        "robin-lift-uneven": (two, lift_one_particle(
            standard_family("robin", two, alpha=1.3), two), Mesh(two, (5, 8))),
        "bump": (interval, bump_interaction_map(), Mesh.uniform(interval, 9)),
        "random-projector": (two, random_projector_map(16, 5, 3),
                             Mesh.uniform(two, 6)),
    }


CASES = two_particle_cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_two_particle_terms_match_loops(name):
    g, m, mesh = CASES[name]
    form = assemble_two_particle(g, m, mesh)
    B, C = loop_two_particle_terms(g, m, mesh)
    assert_identical(form.B, B)
    assert_identical(form.C, C)
    assert_same_kernel(form.N, loop_nullspace(C, form.ndof), C)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("sign", [+1, -1])
def test_sector_basis_and_kernel_match_loops(name, sign):
    g, m, mesh = CASES[name]
    S = sector_basis(mesh, sign)
    assert_identical(S, loop_sector_basis(mesh, sign))
    CS = (assemble_two_particle(g, m, mesh).C @ S).tocsr()
    assert_same_kernel(nullspace_from_constraints(CS, S.shape[1]),
                       loop_nullspace(CS, S.shape[1]), CS)


@pytest.mark.parametrize("family", ["dirichlet", "robin", "delta"])
def test_one_particle_constraints_match_loops(family):
    g = build_graph({"edges": [["c", "l1", 1.0], ["c", "l2", 0.8],
                               ["c", "l3", 1.2]]})
    vc = (delta_family(g, 2.1) if family == "delta"
          else standard_family(family, g, alpha=1.3))
    mesh = Mesh.uniform(g, 7)
    form = assemble_one_particle(g, vc, mesh)
    C = loop_one_particle_constraints(g, vc, mesh)
    assert_identical(form.C, C)
    assert_same_kernel(form.N, loop_nullspace(C, form.ndof), C)


UNEVEN_MESHES = pytest.mark.parametrize("edges, nodes", [
    ([["a", "b", 0.7], ["b", "c", 1.3]], (4, 6)),
    ([["c", "l1", 1.0], ["c", "l2", 0.8], ["c", "l3", 1.2]], (5, 7, 9))])


@pytest.mark.parametrize("lengths, nodes", [
    ((1.07, 0.93, 1.02), (65, 65, 65)), ((0.3, 2.0, 1e-3), (7, 9, 11))])
def test_stiffness_mass_is_the_block_diagonal_of_the_edge_formulas(lengths,
                                                                    nodes):
    """The element-by-element K1 and M1 equal the block diagonals of the
    per-edge tridiagonal formulas bit for bit: doubling is exact, so
    1/h + 1/h is 2/h and 2h/6 + 2h/6 is 4h/6."""
    g = build_graph({"edges": [["c", f"l{i}", l] for i, l in enumerate(lengths)]})
    for got, formula in zip(stiffness_mass(Mesh(g, nodes)), (stiffness_1d, mass_1d)):
        assert_identical(got, sp.block_diag(
            [formula(l, n) for l, n in zip(lengths, nodes)], format="csr"))


@UNEVEN_MESHES
def test_boundary_component_nodes_match_side_formulas(edges, nodes):
    mesh = Mesh(build_graph({"edges": edges}), nodes)
    got = boundary_component_nodes(mesh, BoundaryIndexMap(mesh.graph))
    want, _ = loop_component_nodes(mesh)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@UNEVEN_MESHES
def test_exchange_permutation_matches_loop(edges, nodes):
    mesh = Mesh(build_graph({"edges": edges}), nodes)
    want = loop_exchange_permutation(mesh)
    assert np.array_equal(np.sort(want), np.arange(mesh.ndof2))
    assert np.array_equal(exchange_permutation(mesh), want)


def test_fold_matches_loop():
    rng = np.random.default_rng(7)
    grids = [rng.standard_normal((6, 6)) for _ in range(4)]
    assert np.array_equal(fold_to_plane(*grids), loop_fold(grids))


STRUCTURE_GRAPHS = {
    "star3": build_graph({"edges": [["c", "l1", 1.0], ["c", "l2", 1.0],
                                    ["c", "l3", 1.0]]}),
    "two-edge-path": build_graph({"edges": [["a", "b", 1.0], ["b", "c", 1.5]]}),
    # its end edges share no vertex, so some rectangles lie in no block
    "three-edge-path": build_graph({"edges": [["a", "b", 1.0], ["b", "c", 1.5],
                                              ["c", "d", 0.8]]}),
}


def sparse_random(rng, mask, density=0.3):
    """Complex entries on a random part of mask, of sizes below and above
    the predicates' tolerances."""
    keep = mask & (rng.random(mask.shape) < density)
    size = rng.choice([1e-12, 1e-3, 1.0], size=mask.shape)
    z = rng.standard_normal(mask.shape) + 1j * rng.standard_normal(mask.shape)
    return np.where(keep, size * z, 0.0)


def poke(rng, M):
    """M with one random entry raised by 1e-12 or 1e-3, which may break a
    pattern or stay within the tolerance."""
    i, j = rng.integers(M.shape[0], size=2)
    M[i, j] += rng.choice([1e-12, 1e-3])
    return M


@pytest.mark.parametrize("name", sorted(STRUCTURE_GRAPHS))
def test_is_local_matches_loop(name):
    g = STRUCTURE_GRAPHS[name]
    idx = BoundaryIndexMap(g)
    vtx = np.array(loop_vertices(g))
    local = vtx[:, None] == vtx[None, :]
    rng = np.random.default_rng(11)
    seen = set()
    for trial in range(200):
        P, L = sparse_random(rng, local), sparse_random(rng, local)
        if trial % 2:
            poke(rng, (P, L)[trial % 3 == 0])
        got = is_local(P, L, idx)
        assert got == loop_is_local(P, L, g)
        seen.add(got)
    assert seen == {True, False}


@pytest.mark.parametrize("name", sorted(STRUCTURE_GRAPHS))
def test_is_local_two_particle_matches_loop(name):
    g = STRUCTURE_GRAPHS[name]
    idx = BoundaryIndexMap(g)
    ok_pair = loop_local_pairs(g)
    rng = np.random.default_rng(12)
    seen = set()
    for trial in range(200):
        pieces = [(sparse_random(rng, ok_pair), sparse_random(rng, ok_pair))
                  for _ in range(2)]
        if trial % 2:          # in one piece, so at some samples only
            poke(rng, pieces[trial % 4 // 2][trial % 3 == 0])
        m = piecewise_map([0.0, 0.5, 1.0], pieces)
        got = is_local_two_particle(*m.samples(YS), idx)
        assert got == loop_is_local_two_particle(m, g)
        seen.add(got)
    assert seen == {True, False}


@pytest.mark.parametrize("name", sorted(STRUCTURE_GRAPHS))
def test_is_noninteracting_matches_loop(name):
    idx = BoundaryIndexMap(STRUCTURE_GRAPHS[name])
    one = np.ones((2 * idx.E, 2 * idx.E), dtype=bool)
    rng = np.random.default_rng(13)
    seen = set()
    for trial in range(60):
        vc = SimpleNamespace(P=sparse_random(rng, one), L=sparse_random(rng, one))
        P, L = loop_lift(vc, idx.E)
        if trial % 3:          # one entry off, inside or outside the blocks
            poke(rng, P if trial % 2 else L)
        pieces = [(P, L), (P, L if trial % 5 else 2.0 * L)]
        m = piecewise_map([0.0, 0.5, 1.0], pieces)
        got = is_noninteracting(*m.samples(YS), idx)
        assert got == loop_is_noninteracting(m, idx.E)
        seen.add(got)
    assert seen == {True, False}


@pytest.mark.parametrize("E", [1, 2, 3, 4])
def test_beta_blocks_match_loop(E):
    g = build_graph({"edges": [[i, i + 1, 1.0] for i in range(E)]})
    rows, cols = _beta_blocks(BoundaryIndexMap(g))
    want = np.array([loop_beta_block(E, half, beta)
                     for half in (0, 1) for beta in range(E)])
    assert np.array_equal(rows[:, :, 0], want)
    assert np.array_equal(cols[:, 0, :], want)


def test_delta_family_matches_loop_bitwise():
    # a loop edge, and an isolated vertex that holds no edge end
    looped = build_graph({"vertices": ["a", "b", "z", "c"],
                          "edges": [["a", "b", 1.0], ["b", "c", 1.5],
                                    ["c", "a", 0.8], ["a", "a", 0.3]]})
    for g in (*STRUCTURE_GRAPHS.values(), looped):
        for strength in (0.0, 2.1, -1.3):
            vc = delta_family(g, strength)
            want = VertexConditions.from_pl(*loop_delta_family(g, strength))
            for got, ref in zip((vc.P, vc.L), (want.P, want.L)):
                assert got.tobytes() == ref.tobytes()


def test_lift_matches_loop_bitwise():
    g = STRUCTURE_GRAPHS["star3"]
    one = np.ones((2 * g.E, 2 * g.E), dtype=bool)
    rng = np.random.default_rng(14)
    for vc in (delta_family(g, 2.1),
               SimpleNamespace(P=sparse_random(rng, one), L=sparse_random(rng, one))):
        P, L = lift_one_particle(vc, g)(0.0)
        P0, L0 = loop_lift(vc, g.E)
        assert P.dtype == P0.dtype and L.dtype == L0.dtype
        assert P.tobytes() == P0.tobytes() and L.tobytes() == L0.tobytes()


def broken_map(defect, size):
    """Map on C^8 that breaks one identity at the samples in [0.3, 0.6) by
    an entry of the given size; the other samples are a valid Robin-type
    pair with P = diag(1, 0, 1, 0) in each half."""
    P = np.diag([1.0, 0.0, 1.0, 0.0] * 2).astype(complex)
    Q = np.eye(8) - P
    L = Q @ np.diag([0.0, 2.0, 0.0, -1.0] * 2) @ Q
    P2, L2 = P.copy(), L.copy()
    if defect == "projector":
        P2[0, 0] += size
        P2[4, 4] += size
    elif defect == "hermitian":
        L2[1, 3] += size
    elif defect == "qlq":
        L2[0, 0] += size
    return piecewise_map([0.0, 0.3, 0.6, 1.0], [(P, L), (P2, L2), (P, L)])


def corner_map(size):
    """Valid everywhere; L = size * Q at and near y = 0, so corner regular
    only when size is below the tolerance."""
    P = np.diag([1.0, 0.0] * 2)
    L = np.diag([0.0, 1.0] * 2)
    return piecewise_map([0.0, 0.2, 1.0], [(P, size * L), (P, L)])


VALIDATE_CASES = {
    **{name: m for name, (_, m, _) in CASES.items()},
    **{f"{d}-{size:g}": broken_map(d, size)
       for d in ("projector", "hermitian", "qlq") for size in (1e-10, 1e-3)},
    "corner-small": corner_map(1e-12),
    "corner-large": corner_map(1e-3),
}


def validate_ys():
    """Sample grids by name; "default" is the 101-point grid YS."""
    two = build_graph({"edges": [["a", "b", 0.7], ["b", "c", 1.3]]})
    return {"default": YS, "mesh": Mesh(two, (5, 8)).y_nodes,
            "interior": np.linspace(0.05, 0.95, 19)}


@pytest.mark.parametrize("grid", sorted(validate_ys()))
@pytest.mark.parametrize("name", sorted(VALIDATE_CASES))
def test_validate_map_matches_loop(name, grid):
    m = VALIDATE_CASES[name]
    ys = validate_ys()[grid]
    got = validate_map(m, ys=ys)
    want = loop_validate_map(m, ys)
    assert got == want        # every field, the errors in order
    assert block_structured(*m.samples(ys)) == want.block_structured


def test_validate_cases_cover_every_outcome():
    reps = [validate_map(m, YS) for m in VALIDATE_CASES.values()]
    for field in ("ok", "block_structured", "corner_regular"):
        assert {getattr(r, field) for r in reps} == {True, False}, field
    kinds = {e.split(") ")[1].split(" (")[0] for r in reps for e in r.errors}
    assert kinds == {"is not an orthogonal projector", "is not Hermitian",
                     "violates L = Q L Q"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_l_max_and_clusters_match_loops(name):
    g, m, mesh = CASES[name]
    ys = mesh.y_nodes
    assert validate_map(m, YS).L_max == loop_sampled_l_max(m)
    assert validate_map(m, ys).L_max == loop_sampled_l_max(m, ys)
    assert sampled_l_max(m, m.samples(ys)[1]) == loop_sampled_l_max(m, ys)
    counts = np.array([len(n) for n in loop_component_nodes(mesh)[0]])
    got = _coupling_clusters(*m.samples(ys), counts)
    want = loop_coupling_clusters(m, ys)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_sampled_l_max_with_breakpoints_matches_loop():
    m = VALIDATE_CASES["hermitian-0.001"]
    for ys in (YS, np.linspace(0.0, 1.0, 7)):
        want = loop_sampled_l_max(m, ys)
        assert sampled_l_max(m, m.samples(ys)[1]) == want


def test_wrong_shaped_sample_is_a_map_error_in_assembly():
    g, m, mesh = CASES["bump"]
    ev = m.eval_fn
    bad = BoundaryMap(dim=m.dim, eval_fn=lambda y: (
        np.zeros((3, 3)), np.zeros((3, 3))) if y == 0.5 else ev(y))
    with pytest.raises(MapError, match="y=0.5 has wrong shape"):
        assemble_two_particle(g, bad, mesh)
    with pytest.raises(MapError, match="y=0.5 has wrong shape"):
        validate_map(bad, YS)

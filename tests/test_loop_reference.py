"""Vectorized builders against the per-entry loops they replaced.

Each reference below is the loop form of one builder.  The vectorized code
emits the same entries in the same order with the same arithmetic, so the
results must agree bit for bit, not merely to a tolerance.  The one
exception is the constraint kernel: ``loop_nullspace`` takes one SVD of all
touched columns, the code one SVD per connected block, so the bases differ
while the subspaces must not (``assert_same_kernel``).
"""
import numpy as np
import pytest
import scipy.sparse as sp

from conftest import bump_interaction_map
from qg2p.bc_maps import (constant_map, delta_example_map, fold_to_plane,
                          lift_one_particle)
from qg2p.form_assembly import (NULLSPACE_TOL, Mesh, _coupling_clusters,
                                _realify, assemble_one_particle,
                                assemble_two_particle,
                                boundary_component_nodes,
                                nullspace_from_constraints)
from qg2p.graph_core import BoundaryIndexMap, build_graph
from qg2p.symmetry import exchange_permutation, sector_basis
from qg2p.vertex_conditions import delta_family, standard_family


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


def loop_two_particle_terms(g, m, mesh):
    """(B, C) of assemble_two_particle, one entry per loop iteration."""
    traces = boundary_component_nodes(mesh, BoundaryIndexMap(g))
    ndof = mesh.ndof2
    b_rows, b_cols, b_vals = [], [], []
    c_rows, c_cols, c_vals = [], [], []
    n_constraints = 0
    for cl in _coupling_clusters(m, mesh, traces):
        ts = traces[cl[0]].positions
        n = len(ts)
        Ls = [m(t)[1][np.ix_(cl, cl)] for t in ts]
        Ps = [m(t)[0][np.ix_(cl, cl)] for t in ts]
        w = np.array([traces[p].weight for p in cl])
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
                            b_rows.append(traces[p].nodes[j + di])
                            b_cols.append(traces[q].nodes[j + dj])
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
                        c_cols.append(traces[q].nodes[j])
                        c_vals.append(v)
                n_constraints += 1
    B = sp.coo_matrix((b_vals, (b_rows, b_cols)), shape=(ndof, ndof)).tocsr()
    B = _realify(0.5 * (B + B.conj().T))
    C = sp.coo_matrix((c_vals, (c_rows, c_cols)),
                      shape=(n_constraints, ndof)).tocsr()
    return B, C


def loop_one_particle_constraints(g, vc, mesh):
    idx = BoundaryIndexMap(g)
    bdof = np.empty(2 * g.E, dtype=int)
    for e in range(g.E):
        bdof[idx.op_pos(e, 0)] = mesh.edge_offset(e)
        bdof[idx.op_pos(e, 1)] = mesh.edge_offset(e) + mesh.nodes[e] - 1
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


def test_fold_matches_loop():
    rng = np.random.default_rng(7)
    grids = [rng.standard_normal((6, 6)) for _ in range(4)]
    assert np.array_equal(fold_to_plane(*grids), loop_fold(grids))

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import YS, bump_interaction_map
from test_loop_reference import (assert_identical, assert_same_kernel,
                                 loop_nullspace, mass_1d, stiffness_1d)
from qg2p.bc_maps import (BoundaryMap, constant_map, lift_one_particle,
                          piecewise_map, sampled_l_max, validate_map)
from qg2p.form_assembly import (AssemblyError, Mesh, assemble_one_particle,
                                assemble_two_particle,
                                boundary_component_nodes, check_finite_scale,
                                nullspace_from_constraints,
                                semibound_constant, stiffness_mass)
from qg2p.graph_core import BoundaryIndexMap, build_graph
from qg2p.eigensolve import solve
from qg2p.vertex_conditions import standard_family


# ---------------------------------------------------------------------------
# independent finite-difference oracles (second-order central stencils with
# ghost-point Robin closure and lumped mass)


def fd_interval_robin(alpha: float, n: int):
    """1-D dense FD eigenvalues of -u'' on [0,1] with u'(0) = -alpha u(0),
    u'(1) = alpha u(1) (outward-normal derivative alpha*u)."""
    h = 1.0 / (n - 1)
    K = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.0),
                  np.full(n - 1, -1.0)], [-1, 0, 1]).toarray() / h**2
    # ghost elimination: u_{-1} = u_1 + 2 h alpha u_0 (and mirrored at x=1)
    K[0, 0] = (2.0 - 2.0 * h * alpha) / h**2
    K[0, 1] = -2.0 / h**2
    K[-1, -1] = (2.0 - 2.0 * h * alpha) / h**2
    K[-1, -2] = -2.0 / h**2
    w = np.full(n, 1.0)
    w[0] = w[-1] = 0.5
    # symmetrize with the lumped mass weights
    A = np.diag(w) @ K
    A = 0.5 * (A + A.T)
    return np.sort(sla.eigh(A, np.diag(w), eigvals_only=True))


def fd_square_robin(alpha: float, n: int, k: int):
    """2-D sparse FD oracle: 5-point Laplacian on the unit square with the
    same Robin closure on all four sides, lowest k eigenvalues."""
    h = 1.0 / (n - 1)
    K1 = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.0),
                   np.full(n - 1, -1.0)], [-1, 0, 1], format="lil") / h**2
    K1[0, 0] = (2.0 - 2.0 * h * alpha) / h**2
    K1[0, 1] = -2.0 / h**2
    K1[-1, -1] = (2.0 - 2.0 * h * alpha) / h**2
    K1[-1, -2] = -2.0 / h**2
    w = np.full(n, 1.0)
    w[0] = w[-1] = 0.5
    W1 = sp.diags(w)
    A1 = W1 @ K1.tocsr()
    A1 = 0.5 * (A1 + A1.T)
    M1 = sp.diags(w)
    eye = sp.identity(n)
    A = sp.kron(A1, M1) + sp.kron(M1, A1)
    M = sp.kron(M1, M1)
    lam = spla.eigsh(A.tocsc(), k=k, M=M.tocsc(), sigma=-8.0 * alpha**2 - 1.0,
                     which="LM", return_eigenvectors=False)
    return np.sort(lam)


# ---------------------------------------------------------------------------
# meshes and 1-D matrices


class TestMesh:
    def test_too_coarse_rejected(self, interval):
        with pytest.raises(AssemblyError):
            Mesh.uniform(interval, 2)

    def test_scale_check_matches_the_assembled_matrices(self):
        """check_finite_scale rejects exactly the meshes whose two-particle
        K or M, assembled as assemble_two_particle does, has a non-finite
        entry or a mass entry below the smallest normal number."""
        def assembled(la, lb):
            g = build_graph({"edges": [["a", "b", la], ["b", "c", lb]]})
            mesh = Mesh(g, (5, 4))
            k1 = [stiffness_1d(e.length, n) for e, n in zip(g.edges, mesh.nodes)]
            m1 = [mass_1d(e.length, n) for e, n in zip(g.edges, mesh.nodes)]
            with np.errstate(all="ignore"):
                K = [sp.kron(k1[a], m1[b]) + sp.kron(m1[a], k1[b])
                     for a in range(2) for b in range(2)]
                M = [sp.kron(m1[a], m1[b]).toarray()
                     for a in range(2) for b in range(2)]
            return mesh, K, M

        pattern = [X != 0 for X in assembled(1.0, 1.0)[2]]
        lengths = [1.0, 1e150, 1e154, 1e155, 1e300, 1e-150, 1e-154, 1e-155,
                   1e-160, 1e-300]
        for la in lengths:
            for lb in lengths:
                mesh, K, M = assembled(la, lb)
                bad = not (all(np.isfinite(X.data).all() for X in K)
                           and all(np.isfinite(X).all() for X in M)
                           and min(np.abs(X[p]).min() for X, p in zip(M, pattern))
                           >= np.finfo(float).tiny)
                if bad:
                    with pytest.raises(AssemblyError, match="overflows"):
                        check_finite_scale(mesh)
                else:
                    check_finite_scale(mesh)

    def test_one_particle_scale_check_matches_the_1d_matrices(self):
        """check_finite_scale(mesh, 1) rejects exactly the meshes whose 1-D
        K or M has a non-finite entry or a mass entry below the smallest
        normal number, or whose eigenvalue scale 3/h^2 is not normal (at
        1e300 only that scale, which underflows)."""
        tiny = np.finfo(float).tiny
        lengths = [1.0, 1e150, 1e300, 1e-150, 1e-154, 1e-160, 1e-300]
        for la in lengths:
            for lb in lengths:
                g = build_graph({"edges": [["a", "b", la], ["b", "c", lb]]})
                mesh = Mesh(g, (5, 4))
                with np.errstate(all="ignore"):
                    K = [stiffness_1d(e.length, n).data
                         for e, n in zip(g.edges, mesh.nodes)]
                    M = [mass_1d(e.length, n).data
                         for e, n in zip(g.edges, mesh.nodes)]
                    scale = 3.0 / np.array([mesh.spacing(e) for e in (0, 1)]) ** 2
                bad = not (all(np.isfinite(X).all() for X in K + M)
                           and min(np.abs(X).min() for X in M) >= tiny
                           and np.isfinite(scale).all() and scale.min() >= tiny)
                if bad:
                    with pytest.raises(AssemblyError, match="overflows"):
                        check_finite_scale(mesh, 1)
                else:
                    check_finite_scale(mesh, 1)

    def test_by_spacing(self, two_edges):
        mesh = Mesh.by_spacing(two_edges, 0.1)
        assert mesh.nodes == (11, 16)
        assert mesh.spacing(0) == pytest.approx(0.1)
        assert mesh.h_max == pytest.approx(0.1)

    @staticmethod
    def grid_block(mesh, a, b):
        """D_ab: the ndof1 x ndof1 grid cut at the end dofs of edges a, b."""
        E, end = mesh.graph.E, mesh.end_dofs
        grid = np.arange(mesh.ndof2).reshape(mesh.ndof1, mesh.ndof1)
        return grid[end[a]:end[E + a] + 1, end[b]:end[E + b] + 1]

    def test_rect_layout_covers_all_dofs(self, two_edges):
        mesh = Mesh(two_edges, (4, 5))
        assert mesh.ndof2 == 16 + 20 + 20 + 25
        assert mesh.end_dofs.tolist() == [0, 4, 3, 8]
        blocks = [self.grid_block(mesh, a, b) for a in (0, 1) for b in (0, 1)]
        assert [d[0, 0] for d in blocks] == [0, 4, 36, 40]
        assert np.array_equal(np.sort(np.concatenate(
            [d.ravel() for d in blocks])), np.arange(81))
        # the sides are the rectangles' boundaries: rows and columns at ends
        sides = boundary_component_nodes(mesh, BoundaryIndexMap(two_edges))
        p, q = np.divmod(np.arange(81), 9)
        ends = np.isin(p, [0, 3, 4, 8]) | np.isin(q, [0, 3, 4, 8])
        assert np.array_equal(np.unique(np.concatenate(sides)),
                              np.flatnonzero(ends))

    def test_grids_are_exact_tensor_products(self, two_edges):
        mesh = Mesh(two_edges, (4, 6))
        assert self.grid_block(mesh, 0, 1).shape == (4, 6)
        assert self.grid_block(mesh, 1, 0).shape == (6, 4)
        idx = BoundaryIndexMap(two_edges)
        for half, r, side in zip(idx.half, idx.running_edge,
                                 boundary_component_nodes(mesh, idx)):
            assert len(side) == mesh.nodes[r]
            assert set(np.diff(side)) == {1 if half == 0 else mesh.ndof1}

    def test_1d_matrices_row_sums(self):
        # stiffness annihilates constants; mass integrates them to length
        g = build_graph({"edges": [["a", "b", 1.5]]})
        K, M = (X.toarray() for X in stiffness_mass(Mesh(g, (7,))))
        ones = np.ones(7)
        assert np.allclose(K @ ones, 0.0, atol=1e-13)
        assert ones @ M @ ones == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# constraint elimination


class TestNullspace:
    def test_empty_constraints_is_identity(self):
        N = nullspace_from_constraints(sp.csr_matrix((0, 5)), 5)
        assert np.allclose(N.toarray(), np.eye(5))

    def test_columns_orthonormal_and_annihilated(self):
        rng = np.random.default_rng(11)
        ndof = 30
        C = sp.random(6, ndof, density=0.2, random_state=rng.integers(1 << 31))
        N = nullspace_from_constraints(C.tocsr(), ndof)
        G = (N.T @ N).toarray()
        assert np.allclose(G, np.eye(N.shape[1]), atol=1e-12)
        assert np.abs((C @ N).toarray()).max() < 1e-12

    def test_dimension_is_ndof_minus_rank(self):
        rng = np.random.default_rng(4)
        dense = rng.standard_normal((4, 10))
        dense[3] = dense[0] + dense[1]  # rank 3
        C = sp.csr_matrix(dense)
        N = nullspace_from_constraints(C, 10)
        assert N.shape[1] == 7

    @staticmethod
    def scattered(blocks, ndof, seed, empty_rows=0):
        """C with the dense blocks on disjoint shuffled rows and dofs."""
        rng = np.random.default_rng(seed)
        C = sp.block_diag(blocks, format="coo")
        nrows = C.shape[0] + empty_rows
        rows, dofs = rng.permutation(nrows), rng.permutation(ndof)
        return sp.coo_matrix((C.data, (rows[C.row], dofs[C.col])),
                             shape=(nrows, ndof)).tocsr()

    @staticmethod
    def conditioned(rng, m, n, rank, complex_=False):
        """m x n block of the given rank, nonzero singular values in [0.5, 2]."""
        def frame(k):
            Z = rng.standard_normal((k, rank))
            if complex_:
                Z = Z + 1j * rng.standard_normal((k, rank))
            return np.linalg.qr(Z)[0]
        s = rng.uniform(0.5, 2.0, rank)
        return (frame(m) * s) @ frame(n).conj().T

    def test_global_cutoff_drops_rank_of_small_block(self):
        rng = np.random.default_rng(5)
        big = 1e12 * rng.standard_normal((2, 4))
        small = rng.standard_normal((2, 3))
        C = self.scattered([big, small], 10, seed=1)
        N = nullspace_from_constraints(C, 10)
        big_rows = abs(C).max(axis=1).toarray().ravel() > 1e6
        assert_same_kernel(N, loop_nullspace(C, 10), C[big_rows] / 1e12)
        # cutoff 1e-10 * sigma_max > 100: only the big block's rank counts,
        # and the small block's dofs lie wholly in the kernel
        assert N.shape[1] == 10 - 2
        small = np.unique(C[~big_rows].indices)
        P = (N @ N.conj().T).toarray()
        assert np.abs(P[np.ix_(small, small)] - np.eye(3)).max() < 1e-12

    def test_shared_corner_dof_merges_groups(self):
        # x0 + x1 + x2 = 0 and x2 - 2 x3 + x4 = 0 meet at the corner dof 2
        C = sp.csr_matrix(np.array([[1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
                                    [0.0, 0.0, 1.0, -2.0, 1.0, 0.0]]))
        N = nullspace_from_constraints(C, 6)
        assert_same_kernel(N, loop_nullspace(C, 6), C)
        support = np.abs(N.toarray()) > 0
        assert np.any(support[[0, 1]].any(axis=0) & support[[3, 4]].any(axis=0))

    def test_all_zero_rows(self):
        # row 1 has no entries, row 2 only an explicit zero on dof 4
        C = sp.coo_matrix(([1.0, -1.0, 0.0], ([0, 0, 2], [0, 1, 4])),
                          shape=(3, 6)).tocsr()
        assert C.nnz == 3
        N = nullspace_from_constraints(C, 6)
        assert_same_kernel(N, loop_nullspace(C, 6), C)
        assert N.shape[1] == 5
        empty = nullspace_from_constraints(sp.csr_matrix((3, 4)), 4)
        assert np.array_equal(empty.toarray(), np.eye(4))

    def test_complex_rows(self):
        rng = np.random.default_rng(9)
        blocks = [self.conditioned(rng, 2, 4, 2, complex_=True),
                  self.conditioned(rng, 3, 3, 2, complex_=True)]
        C = self.scattered(blocks, 12, seed=2)
        N = nullspace_from_constraints(C, 12)
        assert np.iscomplexobj(N.data)
        assert N.shape[1] == 12 - 4
        assert_same_kernel(N, loop_nullspace(C, 12), C)

    @settings(max_examples=60, deadline=None)
    @given(blocks=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 5),
                                     st.integers(0, 3)),
                           min_size=1, max_size=6),
           spare=st.integers(0, 6), empty_rows=st.integers(0, 2),
           complex_=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_block_kernel_matches_global_svd(self, blocks, spare, empty_rows,
                                             complex_, seed):
        """On block-structured C, the block-local kernel projector is the
        projector of one SVD of all touched columns."""
        rng = np.random.default_rng(seed)
        mats = [self.conditioned(rng, m, n, max(1, min(m, n) - d), complex_)
                for m, n, d in blocks]
        ndof = sum(b.shape[1] for b in mats) + spare
        C = self.scattered(mats, ndof, seed, empty_rows)
        assert_same_kernel(nullspace_from_constraints(C, ndof),
                           loop_nullspace(C, ndof), C)


# ---------------------------------------------------------------------------
# one-particle assembly


class TestOneParticle:
    def test_dirichlet_interval(self, interval):
        mesh = Mesh.uniform(interval, 257)
        form = assemble_one_particle(
            interval, standard_family("dirichlet", interval), mesh)
        lam = solve(form, 5).eigenvalues
        exact = (np.pi * np.arange(1, 6)) ** 2
        assert np.all(np.abs(lam - exact) / exact < 1e-3)

    def test_neumann_interval(self, interval):
        mesh = Mesh.uniform(interval, 33)
        form = assemble_one_particle(
            interval, standard_family("neumann", interval), mesh)
        lam = solve(form, 2).eigenvalues
        assert abs(lam[0]) < 1e-10
        assert lam[1] == pytest.approx(np.pi**2, rel=1e-2)

    def test_robin_interval_against_fd_oracle(self, interval):
        mesh = Mesh.uniform(interval, 401)
        form = assemble_one_particle(
            interval, standard_family("robin", interval, alpha=1.0), mesh)
        lam = solve(form, 4).eigenvalues
        oracle = fd_interval_robin(1.0, 2000)[:4]
        assert lam[0] < 0.0
        assert np.abs(lam - oracle).max() / np.abs(oracle).max() < 1e-4

    def test_dimension_mismatch(self, interval, two_edges):
        vc = standard_family("dirichlet", two_edges)
        with pytest.raises(AssemblyError):
            assemble_one_particle(interval, vc, Mesh.uniform(interval, 5))

    def test_hermitian_and_constraints(self, two_edges):
        mesh = Mesh(two_edges, (9, 11))
        form = assemble_one_particle(
            two_edges, standard_family("dirichlet", two_edges), mesh)
        op = form.operator()
        assert abs(op - op.T).max() < 1e-12 * abs(op).max()
        assert np.abs((form.C @ form.N).toarray()).max() < 1e-12


# ---------------------------------------------------------------------------
# two-particle assembly


class TestTwoParticle:
    def test_dirichlet_square(self, interval):
        mesh = Mesh.uniform(interval, 65)
        m = lift_one_particle(standard_family("dirichlet", interval), interval)
        form = assemble_two_particle(interval, m, mesh)
        lam = solve(form, 5).eigenvalues
        assert lam[0] == pytest.approx(2 * np.pi**2, rel=1e-2)

    def test_neumann_square_has_constant_kernel(self, interval):
        mesh = Mesh.uniform(interval, 17)
        m = lift_one_particle(standard_family("neumann", interval), interval)
        form = assemble_two_particle(interval, m, mesh)
        res = solve(form, 2)
        assert abs(res.eigenvalues[0]) < 1e-10
        v = res.eigenvectors[:, 0]
        assert np.abs(v - v.mean()).max() < 1e-8 * np.abs(v.mean())

    def test_robin_square_against_fd_oracle(self, interval):
        mesh = Mesh.uniform(interval, 129)
        m = lift_one_particle(
            standard_family("robin", interval, alpha=1.0), interval)
        form = assemble_two_particle(interval, m, mesh)
        lam = solve(form, 5).eigenvalues
        oracle = fd_square_robin(1.0, 201, 5)
        assert np.abs(lam - oracle).max() / np.abs(oracle).max() < 1e-3

    def test_dimension_mismatch(self, interval, two_edges):
        m = lift_one_particle(standard_family("dirichlet", two_edges), two_edges)
        with pytest.raises(AssemblyError):
            assemble_two_particle(interval, m, Mesh.uniform(interval, 5))

    def test_matrices_are_kronecker_products_of_one_particle(self):
        """K = K1 x M1 + M1 x K1 and M = M1 x M1, bitwise, with K1 and M1 the
        one-particle form's own matrices on an unequal 3-edge mesh."""
        g = build_graph({"edges": [["c", "l1", 1.07], ["c", "l2", 0.93],
                                   ["c", "l3", 1.02]]})
        mesh = Mesh(g, (5, 7, 6))
        vc = standard_family("dirichlet", g)
        one = assemble_one_particle(g, vc, mesh)
        two = assemble_two_particle(g, lift_one_particle(vc, g), mesh)
        assert_identical(two.K, sp.kron(one.K, one.M) + sp.kron(one.M, one.K))
        assert_identical(two.M, sp.kron(one.M, one.M))

    def test_hermiticity(self, interval):
        mesh = Mesh.uniform(interval, 21)
        form = assemble_two_particle(interval, bump_interaction_map(), mesh)
        op = form.operator()
        assert abs(op - op.T).max() < 1e-12 * abs(op).max()

    def test_nullspace_traces_satisfy_constraints(self, two_edges):
        mesh = Mesh(two_edges, (7, 7))
        m = lift_one_particle(standard_family("dirichlet", two_edges), two_edges)
        form = assemble_two_particle(two_edges, m, mesh)
        assert np.abs((form.C @ form.N).toarray()).max() < 1e-12
        G = (form.N.T @ form.N).toarray()
        assert np.allclose(G, np.eye(form.N.shape[1]), atol=1e-12)

    def test_reduced_form_semibounded_by_C_infty(self, interval):
        mesh = Mesh.uniform(interval, 25)
        form = assemble_two_particle(interval, bump_interaction_map(), mesh)
        A, M = form.reduced()
        shifted = (A + form.C_infty * M).toarray()
        lam_min = sla.eigh(shifted, M.toarray(), eigvals_only=True,
                           subset_by_index=[0, 0])[0]
        assert lam_min >= -1e-9 * max(1.0, form.C_infty)

    def test_mesh_refinement_second_order(self, interval):
        m = lift_one_particle(standard_family("dirichlet", interval), interval)
        exact = np.pi**2 * np.array([2, 5, 5, 8, 10])
        errs = []
        for n in (17, 33):
            form = assemble_two_particle(interval, m, Mesh.uniform(interval, n))
            lam = solve(form, 5).eigenvalues
            errs.append(np.abs(lam - exact) / exact)
        ratio = errs[0] / errs[1]
        assert np.all(ratio > 3.0), ratio  # ~4x per halving of h

    def test_incompatible_coupled_grids_rejected(self, two_edges):
        # map coupling two components whose traces run along different
        # edges: only legal when both edges carry the same node count
        n = 16
        P = np.zeros((n, n))
        P[:2, :2] = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        m = constant_map(P, np.zeros((n, n)))
        with pytest.raises(AssemblyError, match="incompatible grids"):
            assemble_two_particle(two_edges, m, Mesh(two_edges, (7, 9)))
        # equal counts are accepted
        assemble_two_particle(two_edges, m, Mesh(two_edges, (7, 7)))


def map_constant(m, g):
    """The semiboundedness constant of map ``m`` on graph ``g``, its L_max
    sampled at the grid YS and the breakpoints."""
    L = m.samples(YS)[1]
    return semibound_constant(sampled_l_max(m, L), min(g.lengths))


def two_step_map():
    """Steps of L = 1e4 on [0.5605, 0.5655) and 2e4 on [0.813, 0.8135),
    zero elsewhere."""
    Z = np.zeros((4, 4))
    return piecewise_map([0.0, 0.5605, 0.5655, 0.813, 0.8135, 1.0],
                         [(Z, Z), (Z, 1e4 * np.eye(4)), (Z, Z),
                          (Z, 2e4 * np.eye(4)), (Z, Z)])


class TestSemiboundConstant:
    def test_zero_for_vanishing_boundary_term(self, interval):
        m = lift_one_particle(standard_family("dirichlet", interval), interval)
        assert map_constant(m, interval) == 0.0

    def test_delta_capped_by_inverse_L(self, interval):
        # L_max = 1, l_min = 1 -> delta = 1/4, C = 32
        m = constant_map(np.zeros((4, 4)), np.eye(4))
        assert map_constant(m, interval) == pytest.approx(32.0)

    def test_delta_capped_by_edge_length(self):
        g = build_graph({"edges": [["a", "b", 0.1]]})
        m = constant_map(np.zeros((4, 4)), 2.0 * np.eye(4))
        # L_max = 2, l_min = 0.1 -> delta = 0.1, C = 160
        assert map_constant(m, g) == pytest.approx(160.0)

    def test_sampled_at_mesh_nodes_and_breakpoints(self, interval):
        # the 101-point grid YS misses both steps; mesh node 0.5625 sees
        # the first, only its breakpoint 0.813 sees the second
        m, Z = two_step_map(), np.zeros((4, 4))
        assert map_constant(m, interval) > 0.0            # breakpoints
        form = assemble_two_particle(interval, m, Mesh.uniform(interval, 17))
        assert validate_map(m, YS).L_max == form.meta["L_max"] == 2e4
        # L_max = 2e4, delta = 1 / (4 L_max): C = 32 L_max^2
        assert form.C_infty == pytest.approx(32.0 * 2e4 ** 2)
        m1 = piecewise_map([0.0, 0.5605, 0.5655, 1.0],
                           [(Z, Z), (Z, 1e4 * np.eye(4)), (Z, Z)])
        m1.meta.clear()                                   # no breakpoints known
        form = assemble_two_particle(interval, m1, Mesh.uniform(interval, 17))
        assert form.C_infty == pytest.approx(32.0 * 1e4 ** 2)

    @pytest.mark.parametrize("nodes", [9, 17, 33])
    def test_validate_reports_the_l_max_of_c_infty(self, interval, nodes):
        # one L_max: validate's at the y-nodes is the one C_infty is built from
        m, mesh = two_step_map(), Mesh.uniform(interval, nodes)
        form = assemble_two_particle(interval, m, mesh)
        assert validate_map(m, mesh.y_nodes).L_max == form.meta["L_max"] == 2e4

    def test_assembly_samples_each_y_once(self, interval, monkeypatch):
        # the y-nodes once for P, L and L_max, then only the breakpoints
        m = two_step_map()
        mesh = Mesh.uniform(interval, 17)
        calls, orig = [], BoundaryMap.__call__
        monkeypatch.setattr(BoundaryMap, "__call__",
                            lambda m, y: calls.append(y) or orig(m, y))
        form = assemble_two_particle(interval, m, mesh)
        assert calls == [*mesh.y_nodes, *m.meta["breakpoints"]]
        L = m.samples(mesh.y_nodes)[1]
        assert form.meta["L_max"] == sampled_l_max(m, L) == 2e4

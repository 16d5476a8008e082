import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from conftest import bump_interaction_map
from qg2p.bc_maps import constant_map, lift_one_particle
from qg2p.form_assembly import (AssemblyError, Mesh, assemble_one_particle,
                                assemble_two_particle,
                                nullspace_from_constraints,
                                semibound_constant, stiffness_1d, mass_1d)
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

    def test_by_spacing(self, two_edges):
        mesh = Mesh.by_spacing(two_edges, 0.1)
        assert mesh.nodes == (11, 16)
        assert mesh.spacing(0) == pytest.approx(0.1)
        assert mesh.h_max == pytest.approx(0.1)

    def test_rect_layout_covers_all_dofs(self, two_edges):
        mesh = Mesh(two_edges, (4, 5))
        assert mesh.ndof2 == 16 + 20 + 20 + 25
        offs = sorted(mesh.rect_offset(a, b) for a in range(2) for b in range(2))
        assert offs[0] == 0
        assert offs == [0, 16, 36, 56]

    def test_grids_are_exact_tensor_products(self, two_edges):
        mesh = Mesh(two_edges, (4, 6))
        assert mesh.rect_shape(0, 1) == (4, 6)
        assert mesh.rect_shape(1, 0) == (6, 4)

    def test_1d_matrices_row_sums(self):
        # stiffness annihilates constants; mass integrates them to length
        K = stiffness_1d(1.5, 7).toarray()
        M = mass_1d(1.5, 7).toarray()
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


class TestSemiboundConstant:
    def test_zero_for_vanishing_boundary_term(self, interval):
        m = lift_one_particle(standard_family("dirichlet", interval), interval)
        assert semibound_constant(m, interval) == 0.0

    def test_delta_capped_by_inverse_L(self, interval):
        # L_max = 1, l_min = 1 -> delta = 1/4, C = 32
        m = constant_map(np.zeros((4, 4)), np.eye(4))
        assert semibound_constant(m, interval) == pytest.approx(32.0)

    def test_delta_capped_by_edge_length(self):
        g = build_graph({"edges": [["a", "b", 0.1]]})
        m = constant_map(np.zeros((4, 4)), 2.0 * np.eye(4))
        # L_max = 2, l_min = 0.1 -> delta = 0.1, C = 160
        assert semibound_constant(m, g) == pytest.approx(160.0)

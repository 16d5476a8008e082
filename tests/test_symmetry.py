import numpy as np
import pytest

from conftest import bump_interaction_map
from test_loop_reference import assert_identical
from qg2p.bc_maps import constant_map, delta_example_map, lift_one_particle
from qg2p.eigensolve import counting_function, solve
from qg2p.form_assembly import Mesh, assemble_two_particle
from qg2p.spectral_analysis import lift_spectrum
from qg2p.symmetry import (SymmetryError, assemble_symmetric_form,
                           exchange_permutation, sector_basis,
                           sector_pencils)
from qg2p.vertex_conditions import standard_family


def swap_matrix(mesh):
    perm = exchange_permutation(mesh)
    n = len(perm)
    R = np.zeros((n, n))
    R[np.arange(n), perm] = 1.0
    return R


def projector(mesh, sign):
    """S S^T for the sector basis S: the orthogonal projection onto the
    (anti)symmetric sector."""
    S = sector_basis(mesh, sign)
    return S @ S.T


class TestExchangeOperator:
    def test_involution(self, two_edges):
        mesh = Mesh(two_edges, (4, 5))
        perm = exchange_permutation(mesh)
        assert np.array_equal(perm[perm], np.arange(len(perm)))

    def test_transposes_square_grid(self, interval):
        mesh = Mesh.uniform(interval, 4)
        perm = exchange_permutation(mesh)
        v = np.arange(16.0)
        assert np.allclose(v[perm].reshape(4, 4), v.reshape(4, 4).T)

    def test_commutes_with_mass_and_stiffness(self, two_edges):
        mesh = Mesh(two_edges, (4, 5))
        m = lift_one_particle(standard_family("neumann", two_edges), two_edges)
        form = assemble_two_particle(two_edges, m, mesh)
        R = swap_matrix(mesh)
        for mat in (form.K.toarray(), form.M.toarray()):
            assert np.allclose(R @ mat @ R.T, mat, atol=1e-13)


class TestProjectors:
    def test_symmetric_fixed_point(self, interval):
        mesh = Mesh.uniform(interval, 5)
        v = np.arange(25.0).reshape(5, 5)
        v = (v + v.T).ravel()
        assert np.allclose(projector(mesh, +1) @ v, v)
        assert np.allclose(projector(mesh, -1) @ v, 0.0)

    def test_antisymmetric_killed_by_boson_projector(self, interval):
        mesh = Mesh.uniform(interval, 5)
        v = np.arange(25.0).reshape(5, 5)
        v = (v - v.T).ravel()
        assert np.allclose(projector(mesh, +1) @ v, 0.0)
        assert np.allclose(projector(mesh, -1) @ v, v)

    def test_partition_of_identity_on_random_vectors(self, two_edges):
        mesh = Mesh(two_edges, (5, 5))
        Ps, Pa = projector(mesh, +1), projector(mesh, -1)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            v = rng.standard_normal(mesh.ndof2)
            s, a = Ps @ v, Pa @ v
            assert np.abs(s + a - v).max() < 1e-13
            assert np.abs(Ps @ s - s).max() < 1e-13
            assert np.abs(Pa @ s).max() < 1e-13

    def test_sectors_M_orthogonal(self, two_edges):
        mesh = Mesh(two_edges, (5, 5))
        m = lift_one_particle(standard_family("neumann", two_edges), two_edges)
        M = assemble_two_particle(two_edges, m, mesh).M
        rng = np.random.default_rng(1)
        v, w = rng.standard_normal((2, mesh.ndof2))
        s = projector(mesh, +1) @ v
        a = projector(mesh, -1) @ w
        assert abs(s @ (M @ a)) < 1e-12

    def test_bad_sign_rejected(self, interval):
        mesh = Mesh.uniform(interval, 4)
        with pytest.raises(SymmetryError):
            sector_basis(mesh, 2)


class TestSectorBasis:
    def test_single_grid_dimensions(self, interval):
        mesh = Mesh.uniform(interval, 3)
        assert sector_basis(mesh, +1).shape == (9, 6)
        assert sector_basis(mesh, -1).shape == (9, 3)

    def test_dimensions_sum_to_total(self, two_edges):
        mesh = Mesh(two_edges, (4, 4))
        perm = exchange_permutation(mesh)
        fixed = np.count_nonzero(perm == np.arange(mesh.ndof2))
        boson, fermion = (sector_basis(mesh, s).shape[1] for s in (+1, -1))
        assert boson - fermion == fixed      # fixed points are bosons only
        assert boson + fermion == mesh.ndof2

    def test_columns_orthonormal_and_in_sector(self, two_edges):
        mesh = Mesh(two_edges, (4, 5))
        perm = exchange_permutation(mesh)
        for sign in (+1, -1):
            S = sector_basis(mesh, sign).toarray()
            assert np.allclose(S.T @ S, np.eye(S.shape[1]), atol=1e-13)
            for k in range(S.shape[1]):
                assert np.allclose(S[perm, k], sign * S[:, k])


class TestSymmetricAssembly:
    def test_dirichlet_sector_ground_states(self, interval):
        mesh = Mesh.uniform(interval, 33)
        m = lift_one_particle(standard_family("dirichlet", interval), interval)
        form = assemble_two_particle(interval, m, mesh)
        boson = solve(assemble_symmetric_form(form, +1), 1).eigenvalues[0]
        fermion = solve(assemble_symmetric_form(form, -1), 1).eigenvalues[0]
        assert boson == pytest.approx(2 * np.pi**2, rel=1e-2)
        assert fermion == pytest.approx(5 * np.pi**2, rel=1e-2)

    def test_sector_spectra_match_tensor_sum_restrictions(self, two_edges):
        from qg2p.form_assembly import assemble_one_particle
        mesh = Mesh(two_edges, (13, 17))
        vc = standard_family("robin", two_edges, alpha=1.0)
        one = assemble_one_particle(two_edges, vc, mesh)
        lam1 = solve(one, one.nreduced, force_dense=True).eigenvalues
        form = assemble_two_particle(
            two_edges, lift_one_particle(vc, two_edges), mesh)
        k = 25
        for sign, sector in ((+1, "boson"), (-1, "fermion")):
            lam = solve(assemble_symmetric_form(form, sign), k).eigenvalues
            oracle = lift_spectrum(lam1, k, sector)
            assert np.abs(lam - oracle).max() < 1e-9 * max(1, abs(oracle).max())

    def test_full_is_disjoint_union_of_sectors(self, interval):
        mesh = Mesh.uniform(interval, 15)
        form = assemble_two_particle(interval, bump_interaction_map(), mesh)
        full = solve(form, form.nreduced, force_dense=True).eigenvalues
        fb = assemble_symmetric_form(form, +1)
        ff = assemble_symmetric_form(form, -1)
        b = solve(fb, fb.nreduced, force_dense=True).eigenvalues
        f = solve(ff, ff.nreduced, force_dense=True).eigenvalues
        merged = np.sort(np.concatenate([b, f]))
        scale = np.maximum(1.0, np.abs(full))
        assert np.abs(merged - full).max() / scale.max() < 1e-9
        # counting functions add up at every computed eigenvalue (evaluated
        # just above each value to absorb last-bit roundoff between solves)
        for lam in full:
            lam_eps = lam + 1e-9 * max(1.0, abs(lam))
            assert (counting_function(b, lam_eps) + counting_function(f, lam_eps)
                    == counting_function(full, lam_eps))

    def test_non_block_map_is_hard_error(self, interval):
        P = np.zeros((4, 4))
        P[0, 0] = 1.0  # breaks the two-identical-halves structure
        m = constant_map(P, np.zeros((4, 4)))
        mesh = Mesh.uniform(interval, 7)
        form = assemble_two_particle(interval, m, mesh)
        with pytest.raises(SymmetryError, match="exchange-symmetric"):
            assemble_symmetric_form(form, +1)

    def test_map_evaluated_only_at_mesh_nodes(self):
        g, m = delta_example_map(
            lambda x, y: -2.0 * np.exp(-(x * x + y * y) / 0.5), 2.0)
        seen, ev = [], m.eval_fn
        m.eval_fn = lambda y: seen.append(y) or ev(y)
        mesh = Mesh.uniform(g, 9)
        sym = assemble_symmetric_form(assemble_two_particle(g, m, mesh), +1)
        assert sym.meta["sector"] == "boson"
        assert sorted(seen) == list(mesh.y_nodes)

    def test_one_particle_form_rejected(self, interval):
        from qg2p.form_assembly import assemble_one_particle
        form = assemble_one_particle(
            interval, standard_family("dirichlet", interval),
            Mesh.uniform(interval, 5))
        with pytest.raises(SymmetryError):
            assemble_symmetric_form(form, +1)


class TestExchangeSectors:
    def test_both_sectors_of_a_block_map(self, interval):
        form = assemble_two_particle(interval, bump_interaction_map(),
                                     Mesh.uniform(interval, 9))
        boson, fermion = sector_pencils(form)
        for sec, sign in ((boson, +1), (fermion, -1)):
            ref = assemble_symmetric_form(form, sign)
            assert sec.sector == ref.meta["sector"]
            assert (sec.N != ref.N).nnz == 0
            assert all((X != Y).nnz == 0 for X, Y in zip((sec.A, sec.M),
                                                          ref.reduced()))
        assert boson.A.shape[0] + fermion.A.shape[0] == form.nreduced

    def test_nothing_samples_the_map_after_assembly(self, interval,
                                                    monkeypatch):
        # the form carries L_max and the block flag: sectors, the split
        # solve and bracketing never call the map again
        from qg2p.bc_maps import BoundaryMap
        from qg2p.spectral_analysis import bracketing_run
        form = assemble_two_particle(interval, bump_interaction_map(),
                                     Mesh.uniform(interval, 9))
        calls, orig = [], BoundaryMap.__call__
        monkeypatch.setattr(BoundaryMap, "__call__",
                            lambda m, y: calls.append(y) or orig(m, y))
        res = solve(form, 10)
        assert res.meta["sectors"] is not None
        for sign in (+1, -1):
            assemble_symmetric_form(form, sign)
        assert len(sector_pencils(form)) == 2
        assert bracketing_run(form.meta["mesh"], form.meta["L_max"], "full", 10,
                              eigenvalues=res.eigenvalues).ok
        assert calls == []

    def test_none_where_the_full_pencil_stays(self, interval):
        from qg2p.form_assembly import assemble_one_particle
        mesh = Mesh.uniform(interval, 7)
        P = np.zeros((4, 4))
        P[0, 0] = 1.0
        non_block = assemble_two_particle(
            interval, constant_map(P, np.zeros((4, 4))), mesh)
        block = assemble_two_particle(interval, bump_interaction_map(), mesh)
        one = assemble_one_particle(
            interval, standard_family("dirichlet", interval), mesh)
        for form in (non_block, assemble_symmetric_form(block, +1), one):
            pencil, = sector_pencils(form)
            assert pencil.sector == form.meta.get("sector", "full")
            for x, y in zip(pencil[:3], (*form.reduced(), form.N)):
                assert_identical(x, y)      # A_r, M_r and N of the form
        assert len(sector_pencils(block, split=False)) == 1

    @pytest.mark.parametrize("sector", ["bosons", "Full", "", None])
    def test_unknown_sector_name_rejected(self, interval, sector):
        # a misspelt sector is an error, not a full-space split solve
        form = assemble_two_particle(interval, bump_interaction_map(),
                                     Mesh.uniform(interval, 7))
        with pytest.raises(SymmetryError, match="unknown sector"):
            sector_pencils(form, sector)

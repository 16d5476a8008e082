import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from qg2p import eigensolve, symmetry
from qg2p.cli import write_eigenvalue_csv
from conftest import bump_interaction_map
from qg2p.bc_maps import (constant_map, delta_example_map, lift_one_particle,
                          piecewise_map)
from qg2p.eigensolve import (SLICE, SolveError, SpectrumResult,
                             chain_counts, counting_function, solve)
from qg2p.form_assembly import (DiscreteForm, Mesh, assemble_one_particle,
                                assemble_two_particle)
from qg2p.graph_core import build_graph
from qg2p.spectral_analysis import lift_spectrum
from qg2p.symmetry import exchange_permutation
from qg2p.vertex_conditions import (VertexConditions, delta_family,
                                    standard_family)
from test_loop_reference import random_projector_map


def random_pencil_form(n=50, seed=5):
    """Small random symmetric-definite pencil wrapped as a DiscreteForm."""
    rng = np.random.default_rng(seed)
    Q = sla.qr(rng.standard_normal((n, n)))[0]
    K = sp.csr_matrix(Q @ np.diag(rng.uniform(0.5, 50.0, n)) @ Q.T)
    M = sp.csr_matrix(Q @ np.diag(rng.uniform(0.5, 2.0, n)) @ Q.T)
    return DiscreteForm(K=K, M=M, B=sp.csr_matrix((n, n)),
                        C=sp.csr_matrix((0, n)), C_infty=0.0)


class TestSolve:
    def test_matches_dense_oracle_on_random_pencil(self):
        form = random_pencil_form()
        res = solve(form, 10, force_dense=True)
        A, M = form.reduced()
        oracle = np.sort(sla.eigh(A.toarray(), M.toarray(),
                                  eigvals_only=True))[:10]
        assert np.allclose(res.eigenvalues, oracle, rtol=1e-12)

    def test_dense_and_iterative_agree(self, interval):
        mesh = Mesh.uniform(interval, 41)
        m = lift_one_particle(
            standard_family("robin", interval, alpha=1.0), interval)
        form = assemble_two_particle(interval, m, mesh)
        d = solve(form, 8, force_dense=True)
        it = solve(form, 8, force_dense=False)
        assert it.method == "shift-invert"
        scale = np.maximum(1.0, np.abs(d.eigenvalues))
        assert np.abs(d.eigenvalues - it.eigenvalues).max() / scale.max() < 1e-9
        # eigenvector overlap per eigenvalue cluster (M-orthogonal angles)
        M = form.M
        for i in range(8):
            x, y = d.eigenvectors[:, i], it.eigenvectors[:, i]
            block = [j for j in range(8)
                     if abs(d.eigenvalues[j] - d.eigenvalues[i]) < 1e-6]
            Y = it.eigenvectors[:, block]
            proj = Y @ np.linalg.solve(Y.T @ (M @ Y), Y.T @ (M @ x))
            overlap = (x @ (M @ proj)) / (x @ (M @ x))
            assert overlap == pytest.approx(1.0, abs=1e-8)

    def test_residuals_small(self):
        res = solve(random_pencil_form(seed=9), 5)
        assert res.residuals.max() < 1e-10

    def test_requesting_too_many_eigenvalues(self):
        with pytest.raises(SolveError):
            solve(random_pencil_form(n=10), 11)
        with pytest.raises(SolveError):
            solve(random_pencil_form(n=10), 0)

    def test_deterministic(self, interval):
        mesh = Mesh.uniform(interval, 33)
        m = lift_one_particle(standard_family("dirichlet", interval), interval)
        form = assemble_two_particle(interval, m, mesh)
        a = solve(form, 5, force_dense=False).eigenvalues
        form2 = assemble_two_particle(interval, m, mesh)
        b = solve(form2, 5, force_dense=False).eigenvalues
        assert np.array_equal(a, b)


def step_map():
    """L = 1e4 I on y in [0.5605, 0.5655): on Mesh.uniform(interval, 17)
    only the node y = 0.5625 sees the step, the 101-point default grid
    misses it."""
    Z = np.zeros((4, 4))
    return piecewise_map([0.0, 0.5605, 0.5655, 1.0],
                         [(Z, Z), (Z, 1e4 * np.eye(4)), (Z, Z)])


def bracket_map_form(nodes=41):
    """An interacting piecewise interval map: P = 0, and L = diag(l, l) with
    l = [[2, 0.5], [0.5, 1]] on y in [0.3, 0.7), zero elsewhere."""
    g, Z = build_graph({"edges": [["a", "b", 1.0]]}), np.zeros((4, 4))
    L = np.kron(np.eye(2), [[2.0, 0.5], [0.5, 1.0]])
    m = piecewise_map([0.0, 0.3, 0.7, 1.0], [(Z, Z), (Z, L), (Z, Z)])
    return assemble_two_particle(g, m, Mesh.uniform(g, nodes))


def step_map_form(interval):
    """The step map's pencil: its lowest eigenvalues are near -2.75e5, far
    below the shift C_infty = 0 gave."""
    return assemble_two_particle(interval, step_map(),
                                 Mesh.uniform(interval, 17))


def one_pencil(form):
    """The form's reduced pencil as a plain form, which solve slices as one
    pencil even where the form itself would split into exchange sectors."""
    A, M = form.reduced()
    n = A.shape[0]
    return DiscreteForm(K=A, M=M, B=sp.csr_matrix((n, n)),
                        C=sp.csr_matrix((0, n)), C_infty=form.C_infty)


def dirichlet_lift(interval, nodes):
    """The lifted Dirichlet pencil as one pencil, so the slicing tests see
    one slice sequence, and the 1-D spectrum it lifts."""
    vc = standard_family("dirichlet", interval)
    mesh = Mesh.uniform(interval, nodes)
    one = assemble_one_particle(interval, vc, mesh)
    lam1 = solve(one, one.nreduced, force_dense=True).eigenvalues
    return one_pencil(assemble_two_particle(
        interval, lift_one_particle(vc, interval), mesh)), lam1


def singular_at_minus_one(n=20):
    """A diagonal pencil with eigenvalues -1, 0, ..., n - 2 and C_infty = 0:
    A + M is exactly singular."""
    return DiscreteForm(K=sp.diags(np.arange(-1.0, n - 1.0)).tocsr(),
                        M=sp.identity(n, format="csr"), B=sp.csr_matrix((n, n)),
                        C=sp.csr_matrix((0, n)), C_infty=0.0)


def drop_middle(monkeypatch, times):
    """Make the first ``times`` Lanczos runs lose their middle eigenpair."""
    orig, calls = eigensolve._lanczos, []

    def lossy(*args, **kwargs):
        lam, Q, Y = orig(*args, **kwargs)
        calls.append(len(lam))
        if len(calls) > times:
            return lam, Q, Y
        keep = np.arange(len(lam)) != np.argsort(lam)[len(lam) // 2]
        return lam[keep], Q, Y[:, keep]

    monkeypatch.setattr(eigensolve, "_lanczos", lossy)
    return calls


def lanczos_calls(monkeypatch):
    """Record (m, basis columns) of every Lanczos run."""
    orig, calls = eigensolve._lanczos, []

    def logged(lu, M, m, *args, **kwargs):
        lam, Q, Y = orig(lu, M, m, *args, **kwargs)
        calls.append((m, Q.shape[1]))
        return lam, Q, Y

    monkeypatch.setattr(eigensolve, "_lanczos", logged)
    return calls


class TestSlicing:
    def test_slices_match_lifted_spectrum(self, interval):
        form, lam1 = dirichlet_lift(interval, 33)
        k = 2 * SLICE + 40
        res = solve(form, k, force_dense=False)
        assert res.meta["slices"] >= 3
        assert res.meta["inertia_certified"] is True
        assert len(res.meta["shifts"]) == res.meta["slices"]
        exact = lift_spectrum(lam1, k)
        assert np.abs(res.eigenvalues - exact).max() / exact.max() <= 1e-12
        assert res.meta["max_m_orth_defect"] <= 1e-10
        assert res.residuals.max() < 1e-8

    @pytest.mark.parametrize("lifted", [True, False])
    def test_slice_width_follows_the_cost_of_a_shift(self, interval, monkeypatch,
                                                     lifted):
        # a diagonalised shift costs no factor: slices of at most SLICE / 2
        # on 3 SLICE / 2 + 1 vectors; a factored one keeps SLICE and 3 SLICE + 1
        if lifted:
            pencil, k = lift_pencil("interval-33", "full")
            pencils, width = [pencil], SLICE // 2
        else:
            pencils, k, width = dirichlet_lift(interval, 33)[0], 2 * SLICE + 40, SLICE
        calls = lanczos_calls(monkeypatch)
        res = solve(pencils, k)
        assert (res.meta["lu_fill_nnz"] == 0) is lifted
        assert res.meta["slices"] == len(calls) >= 3
        assert max(m for m, _ in calls) <= width
        assert max(size for _, size in calls) <= 3 * width + 1

    def test_need_over_the_width_is_split_evenly(self, interval, monkeypatch):
        # k = 120 asks 9/8 k + 2 = 137: two slices of 69 and of 9/8 + 2 of
        # what the first left, not a full slice of 80 and a tail of 48
        form, lam1 = dirichlet_lift(interval, 33)
        k = SLICE + 40
        calls = lanczos_calls(monkeypatch)
        res = solve(form, k)
        (first, _), (second, _) = calls
        assert first == -(-(k * 9 // 8 + 2) // 2)
        assert 0 <= first - second <= k // 8
        exact = lift_spectrum(lam1, k)
        assert np.abs(res.eigenvalues - exact).max() / exact.max() <= 1e-12

    def test_split_factored_sectors_match_dense(self):
        # bracket-dense's interacting map: two factored sector pencils of
        # 861 and 820 dofs, each asked for more than SLICE
        form, k = bracket_map_form(), 200
        res, dense = solve(form, k), solve(form, k, force_dense=True)
        assert res.method == "shift-invert" and res.meta["lu_fill_nnz"] > 0
        assert all(rec["slices"] >= 2 for rec in res.meta["sectors"])
        assert res.meta["inertia_certified"] is True
        scale = np.abs(dense.eigenvalues).max()
        assert np.abs(res.eigenvalues - dense.eigenvalues).max() <= 1e-12 * scale

    def test_dropped_eigenvalue_is_retried(self, interval, monkeypatch):
        form, lam1 = dirichlet_lift(interval, 17)
        calls = drop_middle(monkeypatch, times=1)
        res = solve(form, 12, force_dense=False)
        assert len(calls) >= 2
        assert np.allclose(res.eigenvalues, lift_spectrum(lam1, 12), rtol=1e-12)
        assert res.meta["inertia_certified"] is True

    def test_always_dropped_eigenvalue_fails(self, interval, monkeypatch):
        form, _ = dirichlet_lift(interval, 17)
        drop_middle(monkeypatch, times=10 ** 6)
        with pytest.raises(SolveError, match="failed its checks"):
            solve(form, 12, force_dense=False)

    def test_window_short_of_the_cut_is_recentred(self, interval, monkeypatch):
        form, lam1 = dirichlet_lift(interval, 33)
        orig, shifts, cuts = eigensolve._lanczos, [], []

        def short(*args, **kwargs):
            lam, Q, Y = orig(*args, **kwargs)
            shifts.append(kwargs["sigma"])
            if len(shifts) == 2:    # second slice: only the half nearest s
                near = np.argsort(np.abs(lam - shifts[-1]))[:len(lam) // 2]
                return lam[near], Q, Y[:, near]
            return lam, Q, Y

        inertia = eigensolve._inertia
        monkeypatch.setattr(eigensolve, "_lanczos", short)
        monkeypatch.setattr(eigensolve, "_inertia",
                            lambda A, M, tau: cuts.append(tau) or inertia(A, M, tau))
        res = solve(form, SLICE + 40, force_dense=False)
        assert shifts[2] < shifts[1]            # re-centred lower
        assert cuts[0] > shifts[0]              # the first slice's cut
        # one count per accepted slice, none on the short window
        assert len(cuts) == res.meta["slices"]
        exact = lift_spectrum(lam1, SLICE + 40)
        assert np.abs(res.eigenvalues - exact).max() / exact.max() <= 1e-12

    def test_count_off_the_diagonal_is_unreadable(self):
        # a zero diagonal makes SuperLU pivot off it: no count
        A = sp.block_diag([np.array([[0.0, 1.0], [1.0, 0.0]]),
                           np.diag([2.0, 3.0, 4.0])]).tocsr()
        assert eigensolve._inertia(A, sp.identity(5, format="csr"), 0.0) is None

    def test_unreadable_counts_leave_the_result_uncertified(self, interval,
                                                            monkeypatch):
        form = dirichlet_lift(interval, 12)[0]
        dense = solve(form, 12, force_dense=True).eigenvalues
        monkeypatch.setattr(eigensolve, "_negative_pivots", lambda lu: None)
        res = solve(form, 12)
        assert res.method == "shift-invert"
        assert res.meta["inertia_certified"] is False
        assert np.abs(res.eigenvalues - dense).max() / dense.max() <= 1e-12

    def test_complex_hermitian_inertia(self):
        g = build_graph({"edges": [["a", "b", 0.7], ["b", "c", 1.3]]})
        form = assemble_two_particle(g, random_projector_map(16, 5, 3),
                                     Mesh.uniform(g, 12))
        A, M = form.reduced()
        assert np.iscomplexobj(A.data)
        dense = sla.eigh(A.toarray(), M.toarray(), eigvals_only=True)
        for tau in (dense[0] - 1.0, 0.5 * (dense[9] + dense[10]),
                    0.5 * (dense[40] + dense[41])):
            nu = eigensolve._inertia(A.tocsc(), M.tocsc(), tau)
            assert nu == np.count_nonzero(dense < tau)
        res = solve(form, 30, force_dense=False)
        assert res.meta["inertia_certified"] is True
        scale = max(1.0, np.abs(dense[:30]).max())
        assert np.abs(res.eigenvalues - dense[:30]).max() / scale < 1e-10
        assert res.meta["max_m_orth_defect"] <= 1e-10

    def test_shift_below_missed_step(self, interval):
        form = step_map_form(interval)
        d = solve(form, 3, force_dense=True)
        it = solve(form, 3, force_dense=False)
        assert d.eigenvalues[0] < -2e5
        scale = np.abs(d.eigenvalues).max()
        assert np.abs(it.eigenvalues - d.eigenvalues).max() / scale < 1e-9
        assert it.meta["inertia_certified"] is True

    def test_start_shift_lowered_until_no_eigenvalue_below(self, interval):
        form = replace(step_map_form(interval), C_infty=0.0)
        d = solve(form, 3, force_dense=True)
        it = solve(form, 3, force_dense=False)
        assert it.meta["shifts"][0] < d.eigenvalues[0]
        assert it.meta["shifts"][0] == -16.0 ** 5    # the sixth of -1, -16, ...
        scale = np.abs(d.eigenvalues).max()
        assert np.abs(it.eigenvalues - d.eigenvalues).max() / scale < 1e-9


def piecewise_interaction_map(a=2.0, b=1.0, c=0.5):
    """P = 0 and L = diag(l, l) with a symmetric 2x2 block l on
    [0.3, 0.7), zero elsewhere: block structured and y-dependent."""
    Z, L = np.zeros((4, 4)), np.zeros((4, 4))
    L[:2, :2] = L[2:, 2:] = [[a, c], [c, b]]
    return piecewise_map([0.0, 0.3, 0.7, 1.0], [(Z, Z), (Z, L), (Z, Z)])


def complex_block_map(half=8, rank=3, seed=4):
    """Identical complex projector and L on both halves: block structured
    with a complex Hermitian pencil."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
    Q = np.linalg.qr(Z)[0][:, :rank]
    P = Q @ Q.conj().T
    R = np.eye(half) - P
    L = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
    L = R @ (L + L.conj().T) @ R
    return constant_map(sla.block_diag(P, P), sla.block_diag(L, L))


def split_cases():
    interval = build_graph({"edges": [["a", "b", 1.0]]})
    two = build_graph({"edges": [["a", "b", 0.7], ["b", "c", 1.3]]})
    star = build_graph({"edges": [["c", "l1", 1.0], ["c", "l2", 0.8],
                                  ["c", "l3", 1.2]]})
    # a repulsive bump at the vertex: L varies with y, no lift
    line, repulsive = delta_example_map(lambda x, y: 2.0 * np.exp(-(x * x + y * y)), 1.0)
    return {
        "bump": (interval, bump_interaction_map(), Mesh.uniform(interval, 25), 40),
        "piecewise": (interval, piecewise_interaction_map(),
                      Mesh.uniform(interval, 25), 40),
        "complex": (two, complex_block_map(), Mesh.uniform(two, 12), 30),
        "star-delta-lift": (star, lift_one_particle(delta_family(star, 2.1), star),
                            Mesh.uniform(star, 9), 20),
        "delta-example": (line, repulsive, Mesh.uniform(line, 9), 20),
    }


SPLIT_CASES = split_cases()


class TestExchangeSplit:
    @pytest.mark.parametrize("name", sorted(SPLIT_CASES))
    def test_union_matches_dense_full_pencil(self, name):
        g, m, mesh, k = SPLIT_CASES[name]
        form = assemble_two_particle(g, m, mesh)
        dense = solve(form, k, force_dense=True)
        res = solve(form, k, force_dense=False)
        assert dense.meta["sectors"] is None and res.method == "shift-invert"
        sectors = res.meta["sectors"]
        assert [rec["sector"] for rec in sectors] == ["boson", "fermion"]
        assert sum(rec["pencil_size"] for rec in sectors) == form.nreduced
        assert res.meta["inertia_certified"] is True
        scale = max(1.0, np.abs(dense.eigenvalues).max())
        assert np.abs(res.eigenvalues - dense.eigenvalues).max() / scale <= 1e-12

        X = res.eigenvectors
        parity = X[exchange_permutation(mesh)]        # R x for each column
        for j in range(k):
            x, rx = X[:, j], parity[:, j]
            assert min(np.abs(rx - x).max(), np.abs(rx + x).max()) \
                <= 1e-10 * np.abs(x).max()
        assert {rec["accepted"] > 0 for rec in sectors} == {True}
        # the union is M-orthonormal across the sectors, and each vector
        # meets the constraints and solves the full pencil on ker C
        G = X.conj().T @ (form.M @ X)
        assert np.abs(G - np.eye(k)).max() <= 1e-10
        assert np.abs(form.C @ X).max(initial=0.0) <= 1e-10 * np.abs(X).max()
        NH = form.N.conj().T
        MX = NH @ (form.M @ X)
        R = NH @ (form.operator() @ X) - MX * res.eigenvalues
        assert (np.linalg.norm(R, axis=0) / np.linalg.norm(MX, axis=0)).max() < 1e-8

    def test_non_block_map_keeps_one_pencil(self):
        g = build_graph({"edges": [["a", "b", 0.7], ["b", "c", 1.3]]})
        form = assemble_two_particle(g, random_projector_map(16, 5, 3),
                                     Mesh.uniform(g, 12))
        res = solve(form, 30, force_dense=False)
        ref = solve(one_pencil(form), 30, force_dense=False)
        assert res.meta["sectors"] is None
        assert res.meta["pencil_size"] == form.nreduced
        for key in ("shifts", "slices", "lu_fill_nnz"):
            assert res.meta[key] == ref.meta[key]
        assert np.array_equal(res.eigenvalues, ref.eigenvalues)

    def test_dense_solve_splits_too(self, interval):
        # k = 110 > 105 - 2: Lanczos cannot take the fermion sector, so
        # both sectors go dense, the full pencil's nullspace never built
        form, k = dirichlet_square_form(interval), 110
        res = solve(form, k, force_dense=False)
        assert res.method == "dense" and form.basis is None
        assert res.meta["sectors"] == [
            {"sector": name, "pencil_size": size, "shifts": [], "slices": 0,
             "accepted": size}
            for name, size in (("boson", 120), ("fermion", 105))]
        dense = solve(form, k, force_dense=True)
        assert dense.meta["sectors"] is None
        scale = np.abs(dense.eigenvalues).max()
        assert np.abs(res.eigenvalues - dense.eigenvalues).max() / scale <= 1e-12

    def test_sector_forms_stay_one_pencil(self, interval):
        from qg2p.symmetry import assemble_symmetric_form
        form = assemble_two_particle(interval, bump_interaction_map(),
                                     Mesh.uniform(interval, 25))
        res = solve(assemble_symmetric_form(form, -1), 10, force_dense=False)
        assert res.method == "shift-invert" and res.meta["sectors"] is None

    def test_dropped_eigenpair_in_one_sector_is_retried(self, interval,
                                                         monkeypatch):
        form = assemble_two_particle(
            interval, lift_one_particle(standard_family("dirichlet", interval),
                                        interval), Mesh.uniform(interval, 17))
        oracle = solve(form, 12, force_dense=True).eigenvalues
        calls = drop_middle(monkeypatch, times=1)      # the boson's first slice
        res = solve(form, 12, force_dense=False)
        assert len(calls) >= 3
        assert res.meta["sectors"][0]["slices"] == 1
        assert np.allclose(res.eigenvalues, oracle, rtol=1e-12)
        assert res.meta["inertia_certified"] is True


def complex_conditions(g, seed=7):
    """Explicit complex-Hermitian one-particle (P, L): rank-1 P on a complex
    vector of the 2E edge ends, L = Q H Q with complex Hermitian H."""
    rng = np.random.default_rng(seed)
    n = 2 * g.E
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    P = np.outer(v, v.conj()) / np.vdot(v, v).real
    H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return VertexConditions.from_pl(P, H + H.conj().T)


def lift_cases():
    """Lifts (graph, one-particle conditions, node counts, k)."""
    interval = build_graph({"edges": [["a", "b", 1.0]]})
    two = build_graph({"edges": [["a", "b", 0.7], ["b", "c", 1.3]]})
    unequal = build_graph({"edges": [["a", "b", 1.0], ["b", "c", 0.8]]})
    star = build_graph({"edges": [["c", "l1", 1.07], ["c", "l2", 0.93],
                                  ["c", "l3", 1.02]]})
    return {"interval-17": (interval, standard_family("dirichlet", interval), (17, ), 40),
            "interval-33": (interval, standard_family("dirichlet", interval), (33, ), 100),
            "two-edge": (two, standard_family("dirichlet", two), (9, 15), 60),
            "delta-star": (star, delta_family(star, 2.0), (11, 9, 10), 40),
            "mixed-star": (star, standard_family(
                "mixed", star, mask=["dirichlet"] * 5 + ["neumann"]), (11, 9, 10), 40),
            "robin": (unequal, standard_family("robin", unequal, alpha=1.3), (13, 11), 40),
            "neumann": (unequal, standard_family("neumann", unequal), (13, 11), 40),
            "complex": (unequal, complex_conditions(unequal), (13, 11), 40)}


LIFT_CASES = lift_cases()
GRID_CASES = ("interval-17", "interval-33", "two-edge")   # Dirichlet lifts


def lift_pencil(name, sector):
    """(pencil, k): the lift's one pencil in ``sector``, "full" unsplit."""
    g, vc, nodes, k = LIFT_CASES[name]
    form = assemble_two_particle(g, lift_one_particle(vc, g), Mesh(g, nodes))
    pencil, = symmetry.sector_pencils(form, sector, split=False)
    return pencil, k


class LiftedPencilChecks:
    """The diagonalised path against the dense eigh of the assembled pencil
    and SuperLU's counts, neither of which reads the one-particle
    eigenpairs: the check that ``lift_check``, which compares the result
    with sums of those eigenpairs, no longer is."""

    def test_slices_match_the_dense_pencil(self, name, sector):
        pencil, k = lift_pencil(name, sector)
        assert pencil.lift is not None and pencil.sector == sector
        dense, res = (solve([pencil], k, force_dense=force) for force in (True, False))
        assert dense.method == "dense" and res.method == "shift-invert"
        assert res.meta["lu_fill_nnz"] == 0 and res.meta["inertia_certified"] is True
        scale = max(1.0, np.abs(dense.eigenvalues).max())
        assert np.abs(res.eigenvalues - dense.eigenvalues).max() <= 1e-12 * scale
        assert res.residuals.max() < 1e-8 and res.meta["max_m_orth_defect"] <= 1e-10

    def test_counts_equal_superlu_inertia(self, name, sector):
        pencil, k = lift_pencil(name, sector)
        shift = eigensolve._Diagonalised(pencil)
        # sums that tie to roundoff (the zeros of two Neumann edges) are one
        levels = np.unique(shift.levels)
        levels = levels[np.append(True, np.diff(levels) > 1e-10 * np.maximum(
            1.0, np.abs(levels[1:])))][:2 * k]
        mid = 0.5 * (levels[:-1] + levels[1:])
        # the closest pair: sums that tie in the continuum (on the square,
        # pi^2 (1 + 49) = pi^2 (25 + 25)) split by the mesh alone
        close = np.argmin(np.diff(levels) / np.maximum(1.0, np.abs(levels[1:])))
        taus = [levels[0] - 1.0, mid[0], mid[k // 2], mid[k], mid[-1], mid[close]]
        for tau in taus:
            assert shift.count(tau) == eigensolve._inertia(pencil.A, pencil.M, tau)
        assert shift.count(levels[3]) is None


@pytest.mark.parametrize("sector", ["full", "boson", "fermion"])
@pytest.mark.parametrize("name", GRID_CASES)
class TestInteriorGrid(LiftedPencilChecks):
    """Dirichlet lifts: every edge end is constrained away, so the basis
    lives on the interior tensor grid."""


@pytest.mark.parametrize("sector", ["full", "boson", "fermion"])
@pytest.mark.parametrize("name", sorted(set(LIFT_CASES) - set(GRID_CASES)))
class TestLiftedPencils(LiftedPencilChecks):
    """Lifts with free edge ends: delta, Dirichlet but at one leaf, Robin,
    Neumann and complex Hermitian."""


def test_tampered_lift_fails_the_probe_and_keeps_superlu():
    """A pencil whose lift is not its own fails the probe solve: SuperLU
    factors it, and the spectrum still matches dense."""
    pencil, k = lift_pencil("delta-star", "boson")
    g, _, nodes, _ = LIFT_CASES["delta-star"]
    other = assemble_two_particle(g, lift_one_particle(delta_family(g, 2.5), g),
                                  Mesh(g, nodes))
    tampered = pencil._replace(lift=symmetry.lifted_pencil(other))
    assert tampered.lift[2].shape == pencil.lift[2].shape
    assert eigensolve._diagonalised(pencil) is not None
    assert eigensolve._diagonalised(tampered) is None
    dense, res = (solve([tampered], k, force_dense=force) for force in (True, False))
    assert res.meta["lu_fill_nnz"] > 0 and res.meta["inertia_certified"] is True
    scale = max(1.0, np.abs(dense.eigenvalues).max())
    assert np.abs(res.eigenvalues - dense.eigenvalues).max() <= 1e-12 * scale


class TestStartShift:
    def test_delta_example_starts_at_minus_one(self, monkeypatch):
        g, m, mesh, k = SPLIT_CASES["delta-example"]
        form = assemble_two_particle(g, m, mesh)
        assert form.C_infty > 0 and form.meta["lift"] is None
        dense = solve(form, k, force_dense=True).eigenvalues
        events, inertia, lanczos = [], eigensolve._inertia, eigensolve._lanczos
        monkeypatch.setattr(eigensolve, "_inertia", lambda A, M, tau:
                            events.append(("count", tau)) or inertia(A, M, tau))
        monkeypatch.setattr(eigensolve, "_lanczos", lambda *a, **kw:
                            events.append(("lanczos", kw["sigma"]))
                            or lanczos(*a, **kw))
        res = solve(form, k, force_dense=False)
        assert [rec["shifts"][0] for rec in res.meta["sectors"]] == [-1.0, -1.0]
        # Lanczos runs first, and only the first slice's cut is counted
        assert events[0] == ("lanczos", -1.0)
        assert events[1][0] == "count" and events[1][1] > -1.0
        assert ("count", -1.0) not in events
        assert res.meta["inertia_certified"] is True
        assert np.abs(res.eigenvalues - dense).max() / np.abs(dense).max() <= 1e-12

    def test_piecewise_map_below_the_first_shift_needs_no_start(self,
                                                                monkeypatch):
        # lam_0 = -3.94 < -1 lies in the first window, so the first cut's
        # count certifies it without the counted start search
        g, m, mesh, k = SPLIT_CASES["piecewise"]
        form = assemble_two_particle(g, m, mesh)
        dense = solve(form, k, force_dense=True).eigenvalues
        monkeypatch.setattr(eigensolve, "_start",
                            lambda *a: pytest.fail("_start ran"))
        res = solve(form, k, force_dense=False)
        assert dense[0] == pytest.approx(-3.94, abs=5e-3)
        assert res.eigenvalues[0] < -1.0 and res.meta["shifts"][0] == -1.0
        assert res.meta["inertia_certified"] is True
        assert np.abs(res.eigenvalues - dense).max() / np.abs(dense).max() <= 1e-12

    def test_step_map_start_near_the_spectrum(self, interval):
        # the first slice at -1 misses every eigenvalue near -2.75e5: its
        # count disagrees, and each sector falls back to the counted start
        form = step_map_form(interval)
        d = solve(form, 10, force_dense=True)
        it = solve(form, 10, force_dense=False)
        assert d.eigenvalues[0] < -2e5 and it.meta["shifts"][0] == -16.0 ** 5
        scale = np.abs(d.eigenvalues).max()
        assert np.abs(it.eigenvalues - d.eigenvalues).max() / scale <= 1e-12
        assert it.residuals.max() <= 1e-7    # 3.0e-5 from the C_infty start
        assert it.meta["inertia_certified"] is True

    def test_start_candidate_at_an_eigenvalue_moves_on(self):
        # A + M is exactly singular: the count at -1 cannot be read, so the
        # start moves on to -16, below the spectrum
        form = singular_at_minus_one()
        A, M = form.reduced()
        assert eigensolve._inertia(A, M, -1.0) is None
        assert eigensolve._start(lambda tau: eigensolve._inertia(A, M, tau),
                                 -1.0) == -16.0
        res = solve(form, 3)
        assert res.meta["shifts"][0] == -16.0
        assert res.meta["inertia_certified"] is True
        assert np.allclose(res.eigenvalues, [-1.0, 0.0, 1.0], rtol=0, atol=1e-12)

    def test_start_runs_once_below_the_first_window(self, interval,
                                                    monkeypatch):
        form = one_pencil(step_map_form(interval))
        d = solve(form, 10, force_dense=True)
        start, lanczos, events = eigensolve._start, eigensolve._lanczos, []
        monkeypatch.setattr(eigensolve, "_start", lambda *a:
                            events.append(("start", a[1])) or start(*a))
        monkeypatch.setattr(eigensolve, "_lanczos", lambda *a, **kw:
                            events.append(("lanczos", kw["sigma"]))
                            or lanczos(*a, **kw))
        it = solve(form, 10, force_dense=False)
        # the slice at -1 runs first; its count disagrees, so the start
        # search runs once and the slice runs again from its shift
        assert events[:3] == [("lanczos", -1.0),
                              ("start", -1.05 * form.C_infty - 1.0),
                              ("lanczos", -16.0 ** 5)]
        assert [e for e in events if e[0] == "start"] == events[1:2]
        assert it.meta["shifts"][0] == -16.0 ** 5 < d.eigenvalues[0]
        assert it.meta["inertia_certified"] is True
        scale = np.abs(d.eigenvalues).max()
        assert np.abs(it.eigenvalues - d.eigenvalues).max() / scale <= 1e-12

    def test_singular_first_factor_falls_back_to_a_counted_start(self,
                                                                 monkeypatch):
        # A + M singular: the first slice's factor at -1 fails, the start
        # search counts its way to -16, and the slice reruns there on its
        # own factor
        form = singular_at_minus_one()
        start, factor, events = eigensolve._start, eigensolve._factor, []
        monkeypatch.setattr(eigensolve, "_start", lambda *a:
                            events.append("start") or start(*a))
        monkeypatch.setattr(eigensolve, "_factor", lambda A, M, sigma, count=False:
                            events.append((sigma, count)) or factor(A, M, sigma, count))
        res = solve(form, 3)
        # the Lanczos factor at -1 fails first, then the counted search
        assert events[:5] == [(-1.0, False), "start", (-1.0, True), (-16.0, True),
                              (-16.0, False)]
        assert events.count("start") == 1 and res.meta["shifts"] == [-16.0]
        assert res.meta["inertia_certified"] is True
        assert np.allclose(res.eigenvalues, [-1.0, 0.0, 1.0], rtol=0, atol=1e-12)
        # a start candidate whose count cannot be read is skipped
        inertia = eigensolve._inertia
        monkeypatch.setattr(eigensolve, "_inertia", lambda A, M, tau:
                            None if tau == -16.0 else inertia(A, M, tau))
        res = solve(form, 3)
        assert res.meta["shifts"] == [-256.0]
        assert res.meta["inertia_certified"] is True
        assert np.allclose(res.eigenvalues, [-1.0, 0.0, 1.0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["singular", "step-map"])
    def test_lanczos_runs_only_on_its_own_factor(self, interval, monkeypatch,
                                                 case):
        # after either fallback (a singular factor at -1, or a first count
        # that disagrees) every Lanczos run follows a factor of its own
        # shift with diagonal pivoting, never a count's unpivoted factor
        form = (singular_at_minus_one() if case == "singular"
                else one_pencil(step_map_form(interval)))
        factor, lanczos, events = eigensolve._factor, eigensolve._lanczos, []
        monkeypatch.setattr(eigensolve, "_factor", lambda A, M, sigma, count=False:
                            events.append(("factor", sigma, count))
                            or factor(A, M, sigma, count))
        monkeypatch.setattr(eigensolve, "_lanczos", lambda *a, **kw:
                            events.append(("lanczos", kw["sigma"]))
                            or lanczos(*a, **kw))
        res = solve(form, 3)
        runs = [i for i, e in enumerate(events) if e[0] == "lanczos"]
        assert res.meta["shifts"][0] == (-16.0 if case == "singular" else -16.0 ** 5)
        assert runs and all(events[i - 1] == ("factor", events[i][1], False)
                            for i in runs)

    def test_unreadable_start_candidate_moves_on(self, interval, monkeypatch):
        # the count at -16^5, the first below the step map's spectrum,
        # cannot be read: the start moves on to -16^6, and its count of 0
        # certifies the first slice
        form = one_pencil(step_map_form(interval))
        d = solve(form, 10, force_dense=True)
        factor, pivots, counted = eigensolve._factor, eigensolve._negative_pivots, []
        monkeypatch.setattr(eigensolve, "_factor", lambda A, M, sigma, count=False:
                            (counted.append(sigma) if count else None)
                            or factor(A, M, sigma, count))
        monkeypatch.setattr(eigensolve, "_negative_pivots", lambda lu:
                            None if counted[-1] == -16.0 ** 5 else pivots(lu))
        it = solve(form, 10, force_dense=False)
        assert -16.0 ** 5 in counted
        assert it.meta["shifts"][0] == -16.0 ** 6
        assert it.meta["inertia_certified"] is True
        scale = np.abs(d.eigenvalues).max()
        assert np.abs(it.eigenvalues - d.eigenvalues).max() / scale <= 1e-12

    def test_start_goes_on_from_the_floor(self):
        tried = []
        with pytest.raises(SolveError, match="no shift below the spectrum"):
            eigensolve._start(lambda tau: tried.append(tau) or 1, -100.0)
        assert tried[:5] == [-1.0, -16.0, -100.0, -1600.0, -25600.0]
        assert len(tried) == eigensolve.START_STEPS


def lanczos_run(A, M, sigma, m, v0=None):
    """The kernel's m eigenvalues nearest sigma, sorted, their Ritz
    vectors, the basis size, and the dense pencil's m nearest sigma."""
    A, M = A.tocsc(), M.tocsc()
    v0 = np.random.default_rng(8231).standard_normal(A.shape[0]) if v0 is None else v0
    lam, Q, Y = eigensolve._lanczos(eigensolve._factor(A, M, sigma), M, m,
                                    sigma=sigma, v0=v0, cap=eigensolve.LANCZOS_BASIS)
    order = np.argsort(lam)
    dense = sla.eigh(A.toarray(), M.toarray(), eigvals_only=True)
    near = np.sort(dense[np.argsort(np.abs(dense - sigma), kind="stable")[:m]])
    return lam[order], Q @ Y[:, order], Q.shape[1], near


def kernel_peak(A, M, sigma, m):
    """The tracemalloc peak of the kernel's m eigenvalues nearest sigma,
    its factor built beforehand, and the size of the basis it returns."""
    A, M = A.tocsc(), M.tocsc()
    lu = eigensolve._factor(A, M, sigma)
    v0 = np.random.default_rng(8231).standard_normal(A.shape[0])
    tracemalloc.start()
    try:
        Q = eigensolve._lanczos(lu, M, m, sigma=sigma, v0=v0,
                                cap=eigensolve.LANCZOS_BASIS)[1]
        return tracemalloc.get_traced_memory()[1], Q.shape[1]
    finally:
        tracemalloc.stop()


def assert_matches_dense(lam, X, M, near):
    assert np.abs(lam - near).max() / np.abs(near).max() <= 1e-12
    G = X.conj().T @ (M @ X)
    assert np.abs(G - np.eye(len(lam))).max() <= 1e-10


class TestLanczosKernel:
    def test_real_pencil_matches_dense(self):
        A, M = random_pencil_form(n=120, seed=3).reduced()
        lam, X, _, near = lanczos_run(A, M, 20.0, 12)
        assert_matches_dense(lam, X, M, near)

    def test_complex_hermitian_pencil_matches_dense(self):
        g = build_graph({"edges": [["a", "b", 0.7], ["b", "c", 1.3]]})
        form = assemble_two_particle(g, random_projector_map(16, 5, 3),
                                     Mesh.uniform(g, 12))
        A, M = form.reduced()
        assert np.iscomplexobj(A.data)
        lam, X, _, near = lanczos_run(A, M, 50.0, 20)
        assert np.iscomplexobj(X)
        assert_matches_dense(lam, X, M, near)

    def test_thick_restart_keeps_the_eigenvalues(self, interval, monkeypatch):
        form = dirichlet_lift(interval, 17)[0]
        A, M = form.reduced()
        m = 12
        lam, _, size, near = lanczos_run(A, M, 100.0, m)
        assert size > 2 * m + 1           # more than the capped basis holds
        monkeypatch.setattr(eigensolve, "LANCZOS_BASIS", 2 * m + 1)
        restarted, X, size, _ = lanczos_run(A, M, 100.0, m)
        assert size <= 2 * m + 1
        assert_matches_dense(restarted, X, M, near)
        assert np.abs(restarted - lam).max() / np.abs(lam).max() <= 1e-12
        # the restart compacts the basis in place: it holds no more than a
        # run that converges on the same basis, plus one block of columns
        converging, size = kernel_peak(A, M, 100.0, 2)
        assert size < 2 * m + 1
        restarting, _ = kernel_peak(A, M, 100.0, m)
        block = A.shape[0] * eigensolve.BLOCK * np.dtype(float).itemsize
        assert restarting <= converging + block

    def test_basis_reaches_the_whole_space(self):
        A, M = random_pencil_form(n=10, seed=4).reduced()
        lam, X, size, near = lanczos_run(A, M, 0.0, 8)
        assert size == 10
        assert_matches_dense(lam, X, M, near)

    def test_invariant_start_vector_breaks_down_and_goes_on(self, monkeypatch):
        # a diagonal pencil: OP e_3 is exactly a multiple of e_3
        A = sp.diags(np.arange(1.0, 41.0))
        M = sp.diags(np.random.default_rng(6).uniform(0.5, 2.0, 40))
        v0 = np.eye(40)[3]
        seeds, rng = [], np.random.default_rng
        monkeypatch.setattr(eigensolve.np.random, "default_rng",
                            lambda seed: seeds.append(seed) or rng(seed))
        lam, X, _, near = lanczos_run(A, M, 10.0, 6, v0=v0)
        assert seeds[:1] == [1]           # the breakdown after one step
        assert_matches_dense(lam, X, M, near)


class TestMemoryGuard:
    def test_budget_below_dense_is_sliced_without_a_warning(self, interval,
                                                            monkeypatch):
        form = dirichlet_lift(interval, 12)[0]          # sparse, n = 100
        oracle = solve(form, 5, force_dense=True)
        # dense would need 6 n^2 8 = 480 kB; the slices need (k + 3 SLICE + 1)
        # n 8 = 197 kB and their start factor 2 nnz (8 + 4) = 44 kB
        monkeypatch.setattr(eigensolve, "available_memory", lambda: 3e5)
        res = solve(form, 5)
        assert res.method == "shift-invert"
        assert res.meta["warnings"] == []
        assert np.allclose(res.eigenvalues, oracle.eigenvalues, rtol=1e-12)

    def test_guard_charges_a_diagonalised_pencil_its_own_basis(self, monkeypatch):
        # one slice's basis at the unfactored cap 3 SLICE / 2 + 1 and the k
        # columns, then G (17 x 15) and three more of its size, the 15^2
        # sorted sums, one shift's 15^2 denominators and two 17 x 17 grids
        # of an apply
        pencil, k = lift_pencil("interval-17", "full")
        basis = (3 * SLICE // 2 + 1 + k) * pencil.A.shape[0] * 8
        grid = (4 * 17 * 15 + 2 * 15 ** 2 + 2 * 17 ** 2) * 8
        monkeypatch.setattr(eigensolve, "available_memory",
                            lambda: basis + grid - 1)
        with pytest.raises(SolveError, match="sliced eigensolve of a 225-dof "
                                             "pencil needs about 0 MB, 0 MB free"):
            solve([pencil], k)
        monkeypatch.setattr(eigensolve, "available_memory", lambda: basis + grid)
        assert solve([pencil], k).meta["lu_fill_nnz"] == 0

    def test_cgroup_limit_caps_available_memory(self, monkeypatch):
        files = {"/sys/fs/cgroup/memory/memory.limit_in_bytes": 3e9,
                 "/sys/fs/cgroup/memory/memory.usage_in_bytes": 1e9}
        monkeypatch.setattr(eigensolve, "_read_bytes", files.get)
        assert eigensolve.available_memory() <= 2e9
        files.update({"/sys/fs/cgroup/memory.max": 1.5e9,
                      "/sys/fs/cgroup/memory.current": 1.4e9})
        assert eigensolve.available_memory() == pytest.approx(1e8)
        files.clear()
        monkeypatch.setattr(eigensolve.os, "sysconf", lambda name: 1 << 20)
        assert eigensolve.available_memory() == float(1 << 40)
        files["/sys/fs/cgroup/memory.max"] = 1e3      # no usage file
        assert eigensolve.available_memory() == 1e3

    def test_cgroup_limit_without_usage_or_unlimited(self, tmp_path, monkeypatch):
        limit, usage = tmp_path / "memory.max", tmp_path / "memory.current"
        limit.write_text("max\n")
        monkeypatch.setattr(eigensolve, "CGROUP_MEMORY", ((str(limit), str(usage)),))
        monkeypatch.setattr(eigensolve.os, "sysconf", lambda name: 1 << 20)
        assert eigensolve.available_memory() == float(1 << 40)
        limit.write_text("4096\n")
        assert eigensolve.available_memory() == 4096.0

    def test_own_cgroup_limit_before_the_root_one(self, tmp_path, monkeypatch):
        v2, v1, proc = tmp_path / "v2", tmp_path / "v1", tmp_path / "cgroup"
        monkeypatch.setattr(eigensolve, "CGROUP_MEMORY", (
            (str(v2 / "memory.max"), str(v2 / "memory.current")),
            (str(v1 / "memory.limit_in_bytes"), str(v1 / "memory.usage_in_bytes"))))
        monkeypatch.setattr(eigensolve, "PROC_CGROUP", str(proc))
        monkeypatch.setattr(eigensolve.os, "sysconf", lambda name: 1 << 20)

        def put(path, text):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

        put(v1 / "memory.limit_in_bytes", "9000\n")
        proc.write_text("4:cpu,memory:/jobs/a\n0::/\n")
        assert eigensolve.available_memory() == 9000.0   # no own files: root
        put(v1 / "jobs/a/memory.limit_in_bytes", "5000\n")
        put(v1 / "jobs/a/memory.usage_in_bytes", "1000\n")
        assert eigensolve.available_memory() == 4000.0
        proc.write_text("0::/user.slice/b\n")         # v2 only: v1 at the root
        put(v2 / "user.slice/b/memory.max", "3000\n")
        put(v2 / "memory.max", "100\n")
        assert eigensolve.available_memory() == 3000.0
        proc.unlink()                                  # unreadable: both roots
        assert eigensolve.available_memory() == 100.0

    def test_address_space_limit_caps_available_memory(self, tmp_path,
                                                       monkeypatch):
        statm = tmp_path / "statm"
        statm.write_text("1000 300 20 1 0 50 0\n")    # 1000 pages of virtual size
        monkeypatch.setattr(eigensolve, "PROC_STATM", str(statm))
        monkeypatch.setattr(eigensolve, "CGROUP_MEMORY", ())
        monkeypatch.setattr(eigensolve.os, "sysconf", lambda name: 1 << 20)
        monkeypatch.setattr(eigensolve.resource, "getpagesize", lambda: 4096)
        limits = {eigensolve.resource.RLIMIT_AS: (5_000_000, 9_000_000)}
        monkeypatch.setattr(eigensolve.resource, "getrlimit", limits.get)
        assert eigensolve.available_memory() == 5_000_000 - 1000 * 4096
        statm.unlink()                                 # unreadable: no cap
        assert eigensolve.available_memory() == float(1 << 40)
        statm.write_text("1000\n")
        unlimited = eigensolve.resource.RLIM_INFINITY
        limits[eigensolve.resource.RLIMIT_AS] = (unlimited, unlimited)
        assert eigensolve.available_memory() == float(1 << 40)

    def test_forced_dense_over_budget_fails(self, monkeypatch):
        monkeypatch.setattr(eigensolve, "available_memory", lambda: 1e3)
        with pytest.raises(SolveError, match="MB free"):
            solve(random_pencil_form(n=50), 5, force_dense=True)
        with pytest.raises(SolveError, match="MB free"):
            solve(random_pencil_form(n=50), 49)

    def test_sliced_solve_over_budget_fails(self, monkeypatch):
        # the slices need (k + 3 SLICE + 1) n 8 = 98 kB
        monkeypatch.setattr(eigensolve, "available_memory", lambda: 5e4)
        with pytest.raises(SolveError, match="sliced eigensolve .* MB free"):
            solve(random_pencil_form(n=50), 5)
        with pytest.raises(SolveError, match="sliced eigensolve"):
            solve(random_pencil_form(n=50), 5, force_dense=False)

    def test_start_factor_over_budget_fails(self, monkeypatch):
        # the slices need (k + 3 SLICE + 1) n 8 = 194 kB, with the first
        # slice's dense factor at -1 kept twice, 2 nnz (8 + 4) = 242 kB, more
        monkeypatch.setattr(eigensolve, "available_memory", lambda: 2e5)
        monkeypatch.setattr(eigensolve, "_lanczos",
                            lambda *a, **kw: pytest.fail("Lanczos ran"))
        with pytest.raises(SolveError, match="sliced eigensolve .* MB free"):
            solve(random_pencil_form(n=100), 1)

    def test_later_slice_factor_over_budget_fails(self, interval, monkeypatch):
        form = dirichlet_lift(interval, 33)[0]
        factor, lanczos, built, ran = (eigensolve._factor, eigensolve._lanczos,
                                       [], [])

        def huge_second(A, M, sigma, count=False):
            lu = factor(A, M, sigma, count)
            if not count:
                built.append(sigma)
            if len(built) == 2 and not count:       # the second slice's
                return SimpleNamespace(solve=lu.solve, nnz=10 ** 12)
            return lu

        monkeypatch.setattr(eigensolve, "_factor", huge_second)
        monkeypatch.setattr(eigensolve, "_lanczos", lambda *a, **kw:
                            ran.append(kw["sigma"]) or lanczos(*a, **kw))
        with pytest.raises(SolveError, match="sliced eigensolve .* MB free"):
            solve(form, SLICE + 40)
        assert len(built) == 2 and ran == built[:1]


def dirichlet_square_form(interval, nodes=17):
    """The lifted Dirichlet pencil on the unit square, full space: with k = 8
    it is sliced as its boson and fermion pencils."""
    vc = standard_family("dirichlet", interval)
    return assemble_two_particle(interval, lift_one_particle(vc, interval),
                                 Mesh.uniform(interval, nodes))


class TestReducedEigenvectors:
    @pytest.mark.parametrize("force_dense", [False, True])
    def test_prolonged_on_first_read(self, interval, force_dense):
        form, k = dirichlet_square_form(interval), 8
        res = solve(form, k, force_dense=force_dense)
        assert len(res.blocks) == (1 if force_dense else 2)
        X = res.eigenvectors
        assert res.eigenvectors is X                  # built once, then kept
        eager = np.full_like(X, np.nan)
        for N, U, cols in res.blocks:                 # N u per pencil
            assert np.all(np.diff(cols) > 0)
            eager[:, cols] = N @ U
        assert np.array_equal(X, eager)
        if force_dense:                               # the product solve formed
            A, Mr = form.reduced()
            U = sla.eigh(A.toarray(), Mr.toarray())[1][:, :k]
            assert np.array_equal(X, form.N @ U)
        # column j belongs to the j-th lowest eigenvalue
        NH = form.N.conj().T
        MX = NH @ (form.M @ X)
        R = NH @ (form.operator() @ X) - MX * res.eigenvalues
        assert (np.linalg.norm(R, axis=0) / np.linalg.norm(MX, axis=0)).max() < 1e-8

    def test_replaced_blocks_are_prolonged_anew(self, interval):
        res = solve(dirichlet_square_form(interval), 8)
        X = res.eigenvectors
        flipped = replace(res, blocks=tuple((N, -U, cols)
                                            for N, U, cols in res.blocks))
        assert np.array_equal(flipped.eigenvectors, -X)
        assert res.eigenvectors is X

    def test_solve_holds_no_full_coordinate_matrix(self, interval):
        form, k = dirichlet_square_form(interval), 8
        full = form.ndof * k * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            res = solve(form, k)
            after_solve = tracemalloc.take_snapshot()
            res.eigenvectors
            after_read = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert res.meta["sectors"] is not None
        assert max(t.size for t in after_solve.traces) < full
        assert max(t.size for t in after_read.traces) >= full

    def test_slice_buffers_are_column_major(self, interval):
        A, M = random_pencil_form(n=50).reduced()
        assert eigensolve._Slices(A, M, -1.0, 5).U.flags.f_contiguous
        res = solve(dirichlet_square_form(interval), 8)
        assert all(U.flags.f_contiguous for _, U, _ in res.blocks)


def values_only_case(name, interval):
    """(form, k, method) of a values-only comparison case."""
    if name == "one-pencil":        # several slices of one pencil
        return dirichlet_lift(interval, 17)[0], SLICE + 40, "shift-invert"
    if name == "split":             # boson and fermion pencils
        return dirichlet_square_form(interval), 8, "shift-invert"
    if name == "dense":             # k > n - 2
        return random_pencil_form(n=50), 49, "dense"
    if name == "complex":           # complex Hermitian sector pencils
        g, m, mesh, k = SPLIT_CASES["complex"]
        return assemble_two_particle(g, m, mesh), k, "shift-invert"
    g, m = delta_example_map(       # the delta example's (real) sectors
        lambda x, y: -2.0 * np.exp(-(x * x + y * y) / 0.5), 2.0)
    return assemble_two_particle(g, m, Mesh.uniform(g, 9)), 12, "shift-invert"


class TestValuesOnly:
    @pytest.mark.parametrize("name", ["one-pencil", "split", "dense", "complex",
                                      "delta"])
    def test_same_values_and_residuals_without_vectors(self, interval, name):
        form, k, method = values_only_case(name, interval)
        full, values = solve(form, k), solve(form, k, vectors=False)
        assert values.method == full.method == method
        if name == "complex":
            assert np.iscomplexobj(full.blocks[0][1])
        if name in ("split", "complex", "delta"):
            assert values.meta["sectors"] is not None
        for key in ("eigenvalues", "residuals"):
            assert np.array_equal(getattr(values, key), getattr(full, key))
        for key in ("shifts", "slices", "inertia_certified", "sectors",
                    "lu_fill_nnz"):
            assert values.meta[key] == full.meta[key]
        assert values.blocks == () and values.meta["max_m_orth_defect"] is None
        assert full.meta["max_m_orth_defect"] <= 1e-10
        with pytest.raises(SolveError, match="solved without eigenvectors"):
            values.eigenvectors

    @pytest.mark.parametrize("k", [10, 49])         # sliced, dense
    def test_non_finite_residual_fails(self, monkeypatch, k):
        monkeypatch.setattr(eigensolve, "_residuals",
                            lambda A, M, lam, U: np.full(len(lam), np.nan))
        with pytest.raises(SolveError, match="non-finite residuals"):
            solve(random_pencil_form(n=50), k, vectors=False)

    def test_solve_holds_no_eigenvector_columns(self, interval):
        form, k = dirichlet_lift(interval, 17)[0], SLICE + 40
        columns = form.nreduced * k * np.dtype(float).itemsize
        for vectors in (True, False):
            tracemalloc.start()
            try:
                res = solve(form, k, vectors=vectors)
                largest = max(t.size for t in tracemalloc.take_snapshot().traces)
            finally:
                tracemalloc.stop()
            assert res.meta["slices"] > 1
            assert (largest >= columns) is vectors

    def test_memory_guard_counts_one_candidate_block(self, interval,
                                                     monkeypatch):
        # values only: one slice's basis, one candidate block and the
        # factor kept twice; with vectors the basis and all k columns
        form = assemble_one_particle(interval, standard_family(
            "dirichlet", interval), Mesh.uniform(interval, 1002))
        k = 300
        fill = solve(form, k, vectors=False).meta["lu_fill_nnz"]
        n, basis = form.nreduced, eigensolve.LANCZOS_BASIS
        values = (basis + SLICE) * n * 8 + 2 * fill * (8 + 4)
        vectors = (basis + k) * n * 8
        assert values < vectors
        monkeypatch.setattr(eigensolve, "available_memory",
                            lambda: (values + vectors) / 2)
        assert solve(form, k, vectors=False).k == k
        with pytest.raises(SolveError, match="sliced eigensolve .* MB free"):
            solve(form, k)


def ritz_block(name, interval):
    """(A, M, lam, U) of the lowest SLICE eigenpairs of a real or a complex
    Hermitian pencil, U column-major as the slices page it."""
    if name == "real":
        form = dirichlet_lift(interval, 33)[0]
    else:
        form = one_pencil(assemble_two_particle(*SPLIT_CASES["complex"][:3]))
    res = solve(form, SLICE)
    (_, U, _), = res.blocks
    return (*form.reduced(), res.eigenvalues, U)


class TestResidualBlocks:
    @pytest.mark.parametrize("name", ["real", "complex"])
    def test_partitions_give_the_whole_blocks_residuals(self, interval,
                                                        monkeypatch, name):
        A, M, lam, U = ritz_block(name, interval)
        whole = eigensolve._residuals(A, M, lam, U)
        defect = eigensolve._m_defect(M, U)
        assert U.flags.f_contiguous and defect <= 1e-10
        for width in (1, 2, 16, SLICE):
            parts = [eigensolve._residuals(A, M, lam[j:j + width], U[:, j:j + width])
                     for j in range(0, SLICE, width)]
            assert np.array_equal(np.concatenate(parts), whole)
            # the Gram rows of one column are a matrix-vector product,
            # whose sums may round apart from a matrix product's
            monkeypatch.setattr(eigensolve, "BLOCK", width)
            assert np.array_equal(eigensolve._residuals(A, M, lam, U), whole)
            assert abs(eigensolve._m_defect(M, U) - defect) <= 1e-15
            monkeypatch.undo()

    def test_memory_stays_within_a_few_blocks(self, interval):
        A, M, lam, U = ritz_block("real", interval)
        block = U.shape[0] * eigensolve.BLOCK * U.itemsize
        for step in (lambda: eigensolve._residuals(A, M, lam, U),
                     lambda: eigensolve._m_defect(M, U)):
            tracemalloc.start()
            try:
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 5 * block           # not three n x SLICE arrays

    def test_slice_of_one_candidate_without_vectors(self, interval):
        # the second slice accepts one candidate, whose residual both
        # solves take in a one-column block
        form = values_only_case("one-pencil", interval)[0]
        first = eigensolve._Slices(*form.reduced(), -1.0, SLICE)
        first.advance(SLICE, "the first slice", 0.0)
        k = len(first.lam) + 1
        full, values = solve(form, k), solve(form, k, vectors=False)
        assert values.meta["slices"] == full.meta["slices"] == 2
        assert np.array_equal(values.eigenvalues, full.eigenvalues)
        assert np.array_equal(values.residuals, full.residuals)


class TestMethodChoice:
    def test_solve_follows_the_rule(self):
        # sliced and certified whenever Lanczos can give k, however small n
        res = solve(random_pencil_form(n=50), 5)
        assert res.method == "shift-invert"
        assert res.meta["inertia_certified"] is True
        assert solve(random_pencil_form(n=100), 1).method == "shift-invert"

    def test_k_above_n_minus_2_is_dense(self):
        # Lanczos needs k < n - 1, so not even force_dense=False avoids dense
        form = random_pencil_form(n=100)
        assert solve(form, 99, force_dense=False).method == "dense"
        assert solve(form, 98, force_dense=False).method == "shift-invert"

    def test_force_dense_overrides_the_rule(self):
        dense = solve(random_pencil_form(n=100), 1, force_dense=True)
        assert dense.method == "dense"
        it = solve(random_pencil_form(n=50), 5, force_dense=False)
        assert it.method == "shift-invert"
        assert it.meta["inertia_certified"] is True


def chain_sizes(res):
    """The size of each chain of ties of ``res``, from its ``counts``:
    a chain's count less the previous chain's."""
    return np.diff(np.unique(res.counts), prepend=0).tolist()


def multiplicity_column(res, tmp_path):
    """The ``multiplicity`` column of ``res``'s eigenvalues.csv."""
    path = tmp_path / "eigenvalues.csv"
    write_eigenvalue_csv(str(path), replace(res, residuals=np.zeros(res.k)))
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 2].tolist()


class TestMultiplicities:
    def test_tie_clustering(self, tmp_path):
        res = SpectrumResult(
            eigenvalues=np.array([1.0, 1.0 + 1e-12, 2.0, 3.0, 3.0, 3.0]))
        assert chain_sizes(res) == [2, 1, 3]
        assert multiplicity_column(res, tmp_path) == [2, 2, 1, 3, 3, 3]

    def test_matches_the_chain_loop(self):
        def loop(lam, tol=eigensolve.TIE_TOL):
            sizes, i = [], 0
            while i < len(lam):
                j = i + 1
                while (j < len(lam) and abs(lam[j] - lam[j - 1])
                       <= tol * max(1.0, abs(lam[j]))):
                    j += 1
                sizes.append(j - i)
                i = j
            return sizes

        rng = np.random.default_rng(3)
        for _ in range(20):
            lam = np.sort(rng.choice([-2.0, 0.0, 0.5, 1e-9, 1.0, 3e3], 12)
                          * (1.0 + rng.choice([0.0, 5e-9, 2e-8], 12)))
            assert chain_sizes(SpectrumResult(lam)) == loop(lam)
        assert chain_sizes(SpectrumResult(np.empty(0))) == []

    def test_degenerate_square_modes(self, interval, tmp_path):
        mesh = Mesh.uniform(interval, 33)
        m = lift_one_particle(standard_family("dirichlet", interval), interval)
        res = solve(assemble_two_particle(interval, m, mesh), 4)
        # 2pi^2 simple, 5pi^2 double, 8pi^2 simple
        assert chain_sizes(res) == [1, 2, 1]
        assert multiplicity_column(res, tmp_path) == [1, 2, 2, 1]


def kirchhoff_star(star3, nodes=33):
    """The one-particle pencil of the unit 3-star with Kirchhoff conditions
    (delta strength 0): its eigenvalues alternate simple and double."""
    return assemble_one_particle(star3, delta_family(star3, 0.0),
                                 Mesh.uniform(star3, nodes))


class TestLastChain:
    @pytest.mark.parametrize("name, ks", [("one-pencil", (2, 5, 8, 11)),
                                          ("split", (2, 5, 7))])
    def test_a_pair_cut_at_k_counts_whole(self, interval, star3, name, ks):
        form = (kirchhoff_star(star3) if name == "one-pencil"
                else dirichlet_square_form(interval))
        whole = chain_counts(solve(form, form.nreduced, force_dense=True)
                             .eigenvalues)
        for k in ks:
            assert whole[k - 1] == k + 1        # lam_k and lam_k+1 are a pair
            for vectors in (True, False):
                res = solve(form, k, vectors=vectors)
                assert res.method == "shift-invert" and res.k == k
                assert (res.meta["sectors"] is None) == (name == "one-pencil")
                assert res.counts.tolist() == whole[:k].tolist()
                assert chain_sizes(res)[-1] == 2
                assert res.beyond == 1 and type(res.beyond) is int

    def test_dense_counts_the_whole_spectrum(self, star3):
        res = solve(kirchhoff_star(star3), 5, force_dense=True)
        assert res.k == 5 and res.counts.tolist() == [1, 3, 3, 4, 6]

    def test_chain_counts_beyond_the_last_value(self, tmp_path):
        lam = np.array([1.0, 2.0, 2.0, 5.0, 5.0])
        assert chain_counts(lam, 2).tolist() == [1, 3, 3, 7, 7]
        res = SpectrumResult(lam, beyond=2)
        assert chain_sizes(res) == [1, 2, 4]
        assert multiplicity_column(res, tmp_path) == [1, 2, 2, 4, 4]


class TestCounting:
    def test_counting_function(self):
        lam = np.array([1.0, 2.0, 2.0, 5.0])
        assert counting_function(lam, 0.5) == 0
        assert counting_function(lam, 2.0) == 3
        assert counting_function(lam, 10.0) == 4
        assert type(counting_function(lam, np.float64(2.0))) is int

    def test_counting_function_of_an_array(self):
        lam = np.array([5.0, 2.0, 1.0, 2.0])
        grid = np.array([0.5, 2.0, 10.0, 1.5])
        assert counting_function(lam, grid).tolist() == [0, 3, 4, 1]

    def test_chain_counts_count_tied_chains_whole(self):
        lam = np.array([5.0, 2.0, 1.0, np.nextafter(2.0, 3.0), 7.0])
        assert chain_counts(lam).tolist() == [1, 3, 3, 4, 5]
        assert chain_counts(np.array([3.0, 3.0 + 1e-3])).tolist() == [1, 2]
        assert chain_counts(np.array([])).tolist() == []

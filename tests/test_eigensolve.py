import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from qg2p.bc_maps import lift_one_particle
from qg2p.eigensolve import (SolveError, SpectrumResult, counting_function,
                             dense_threshold, solve)
from qg2p.form_assembly import DiscreteForm, Mesh, assemble_two_particle
from qg2p.vertex_conditions import standard_family


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


class TestThreshold:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("QG2P_DENSE_THRESHOLD", "123")
        assert dense_threshold() == 123

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("QG2P_DENSE_THRESHOLD", "many")
        with pytest.raises(SolveError):
            dense_threshold()

    def test_default(self, monkeypatch):
        monkeypatch.delenv("QG2P_DENSE_THRESHOLD", raising=False)
        assert dense_threshold() == 3000


class TestMultiplicities:
    def test_tie_clustering(self):
        res = SpectrumResult(
            eigenvalues=np.array([1.0, 1.0 + 1e-12, 2.0, 3.0, 3.0, 3.0]),
            eigenvectors=np.eye(6))
        groups = res.multiplicities()
        assert [m for _, m in groups] == [2, 1, 3]

    def test_degenerate_square_modes(self, interval):
        mesh = Mesh.uniform(interval, 33)
        m = lift_one_particle(standard_family("dirichlet", interval), interval)
        res = solve(assemble_two_particle(interval, m, mesh), 4)
        groups = res.multiplicities()
        # 2pi^2 simple, 5pi^2 double, 8pi^2 simple
        assert [m for _, m in groups] == [1, 2, 1]


class TestCounting:
    def test_counting_function(self):
        lam = np.array([1.0, 2.0, 2.0, 5.0])
        assert counting_function(lam, 0.5) == 0
        assert counting_function(lam, 2.0) == 3
        assert counting_function(lam, 10.0) == 4

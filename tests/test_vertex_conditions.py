import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qg2p.graph_core import BoundaryIndexMap, build_graph
from qg2p.vertex_conditions import (ConditionError, VertexConditions,
                                    ab_to_pl, delta_family,
                                    equivalence_check, is_local,
                                    standard_family, validate_ab)


def random_valid_pair(n, rng):
    """Random self-adjoint condition via a random (P, L) and the canonical
    representative (A, B) = (P + L, 1 - P)."""
    k = rng.integers(0, n + 1)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    P = Q[:, :k] @ Q[:, :k].conj().T
    Qc = np.eye(n) - P
    H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    L = Qc @ (0.5 * (H + H.conj().T)) @ Qc
    return P + L, Qc


class TestValidateAB:
    def test_dirichlet_valid(self):
        rep = validate_ab(np.eye(4), np.zeros((4, 4)))
        assert rep.ok and rep.rank == 4 and rep.sa_defect == 0.0

    def test_neumann_valid(self):
        assert validate_ab(np.zeros((4, 4)), np.eye(4)).ok

    def test_zero_pair_invalid(self):
        rep = validate_ab(np.zeros((2, 2)), np.zeros((2, 2)))
        assert not rep.ok and rep.rank == 0

    def test_non_hermitian_ab_star_invalid(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.eye(2)
        assert not validate_ab(A, B).sa_ok

    def test_dimension_mismatch(self):
        with pytest.raises(ConditionError):
            validate_ab(np.eye(2), np.eye(3))


class TestAbToPl:
    def test_dirichlet(self):
        P, L = ab_to_pl(np.eye(2), np.zeros((2, 2)))
        assert np.allclose(P, np.eye(2))
        assert np.allclose(L, 0)

    def test_neumann(self):
        P, L = ab_to_pl(np.zeros((2, 2)), np.eye(2))
        assert np.allclose(P, 0)
        assert np.allclose(L, 0)

    def test_robin_defining_relation(self):
        # alpha f - f' = 0 should coincide with f' + L f = 0
        alpha = 2.0
        P, L = ab_to_pl(alpha * np.eye(2), -np.eye(2))
        assert np.allclose(P, 0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            fp = alpha * f
            assert np.linalg.norm(fp + L @ f) < 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_domains_agree_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        A, B = random_valid_pair(n, rng)
        P, L = ab_to_pl(A, B)
        Q = np.eye(n) - P
        # vectors in ker[A B] satisfy both characterizations and back
        stacked = np.hstack([A, B])
        _, _, vh = np.linalg.svd(stacked)
        kernel = vh.conj().T[:, n:]
        for k in range(kernel.shape[1]):
            f, fp = kernel[:n, k], kernel[n:, k]
            assert np.linalg.norm(P @ f) < 1e-9
            assert np.linalg.norm(Q @ fp + L @ Q @ f) < 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_gl_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        A, B = random_valid_pair(n, rng)
        while True:
            C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if np.linalg.cond(C) < 1e3:
                break
        P1, L1 = ab_to_pl(A, B)
        P2, L2 = ab_to_pl(C @ A, C @ B)
        assert np.linalg.norm(P1 - P2, 2) < 1e-8
        assert np.linalg.norm(L1 - L2, 2) < 1e-8 * max(1, np.linalg.norm(L1, 2))


class TestEquivalence:
    def test_scalar_multiple(self):
        A = np.eye(2)
        B = np.zeros((2, 2))
        assert equivalence_check(A, B, 2 * A, 2 * B)

    def test_dirichlet_vs_neumann(self):
        assert not equivalence_check(np.eye(2), np.zeros((2, 2)),
                                     np.zeros((2, 2)), np.eye(2))


class TestLocality:
    def test_dirichlet_local(self, star3):
        vc = standard_family("dirichlet", star3)
        assert is_local(vc.P, vc.L, BoundaryIndexMap(star3))

    def test_nonlocal_coupling_detected(self):
        g = build_graph({"edges": [["a", "b", 1.0], ["c", "d", 1.0]]})
        n = 4
        P = np.zeros((n, n))
        P[0, 1] = P[1, 0] = 0.5
        P[0, 0] = P[1, 1] = 0.5  # couples ends on disconnected edges
        assert not is_local(P, np.zeros((n, n)), BoundaryIndexMap(g))

    def test_delta_star_local(self, star3):
        vc = delta_family(star3, 2.0)
        assert is_local(vc.P, vc.L, BoundaryIndexMap(star3))


class TestStandardFamilies:
    def test_dirichlet(self, interval):
        vc = standard_family("dirichlet", interval)
        assert np.allclose(vc.P, np.eye(2))
        assert np.allclose(vc.L, 0)

    def test_robin(self, interval):
        vc = standard_family("robin", interval, alpha=3.0)
        assert np.allclose(vc.P, 0)
        assert np.allclose(vc.L, 3.0 * np.eye(2))

    def test_robin_needs_positive_alpha(self, interval):
        with pytest.raises(ConditionError):
            standard_family("robin", interval, alpha=-1.0)

    def test_mixed(self, interval):
        vc = standard_family("mixed", interval,
                             mask=["dirichlet", "neumann"])
        assert np.allclose(vc.P, np.diag([1.0, 0.0]))

    def test_delta_zero_strength_is_kirchhoff(self, star3):
        vc = delta_family(star3, 0.0)
        assert np.allclose(vc.L, 0)
        # ker P on the center block, the three initial ends at positions
        # 0, 1, 2, is spanned by constants
        ones = np.zeros(6)
        ones[:3] = 1.0
        assert np.linalg.norm(vc.P @ ones) < 1e-12


class TestVertexConditions:
    def test_from_ab_roundtrip(self):
        rng = np.random.default_rng(3)
        A, B = random_valid_pair(4, rng)
        vc = VertexConditions.from_ab(A, B)
        rep = validate_ab(A, B)
        assert rep.ok
        P2, L2 = ab_to_pl(A, B)
        assert np.allclose(P2, vc.P, atol=1e-9)
        assert np.allclose(L2, vc.L, atol=1e-9)

    def test_invariants(self):
        rng = np.random.default_rng(7)
        A, B = random_valid_pair(5, rng)
        vc = VertexConditions.from_ab(A, B)
        Q = np.eye(5) - vc.P
        assert np.allclose(vc.P @ vc.P, vc.P, atol=1e-10)
        assert np.allclose(vc.P, vc.P.conj().T, atol=1e-12)
        assert np.allclose(vc.L, vc.L.conj().T, atol=1e-12)
        assert np.allclose(vc.L, Q @ vc.L @ Q, atol=1e-10)

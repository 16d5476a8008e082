import numpy as np
import pytest

from conftest import YS, bump_interaction_map, delta_center_ab, smooth_bump
from qg2p.bc_maps import (MapError, block_structured, constant_map,
                          delta_example_map, fold_axis_jumps, fold_to_plane,
                          is_local_two_particle, is_noninteracting,
                          lift_one_particle, piecewise_map, validate_map)
from qg2p.graph_core import BoundaryIndexMap
from qg2p.vertex_conditions import (ConditionError, ab_to_pl, standard_family,
                                    validate_ab)


def gaussian_well(x, y, depth=2.0, width=0.5):
    return -depth * np.exp(-(x * x + y * y) / (2.0 * width**2))


class TestConstruction:
    def test_constant_map_hermitizes(self):
        L = np.array([[0, 1], [0, 0]])
        m = constant_map(np.zeros((2, 2)), L)
        _, Lh = m(0.3)
        assert np.allclose(Lh, 0.5 * (L + L.T))

    def test_piecewise_is_right_continuous(self):
        p0 = (np.zeros((2, 2)), np.zeros((2, 2)))
        p1 = (np.eye(2), np.zeros((2, 2)))
        m = piecewise_map([0.0, 0.5, 1.0], [p0, p1])
        assert np.allclose(m(0.49)[0], 0)
        assert np.allclose(m(0.5)[0], np.eye(2))

    def test_piecewise_breakpoint_mismatch(self):
        with pytest.raises(MapError):
            piecewise_map([0.0, 1.0], [(np.eye(2), np.eye(2))] * 2)


class TestValidation:
    def test_dirichlet_lift_passes(self, interval):
        m = lift_one_particle(standard_family("dirichlet", interval), interval)
        rep = validate_map(m, YS)
        assert rep.ok and rep.block_structured and rep.corner_regular
        assert rep.L_max == 0.0

    def test_non_projector_sample_is_hard_error(self):
        bad = constant_map(0.5 * np.eye(4), np.zeros((4, 4)))
        rep = validate_map(bad, YS)
        assert not rep.ok
        assert any("projector" in e for e in rep.errors)

    def test_non_hermitian_L_located(self):
        L = np.zeros((4, 4))
        L[0, 1] = 1.0

        from qg2p.bc_maps import BoundaryMap
        m = BoundaryMap(dim=4, eval_fn=lambda y: (np.zeros((4, 4)), L))
        rep = validate_map(m, YS)
        assert not rep.ok
        assert any("Hermitian" in e for e in rep.errors)

    def test_block_structure_flag(self):
        P = np.zeros((4, 4))
        P[0, 0] = 1.0  # upper half differs from lower half
        rep = validate_map(constant_map(P, np.zeros((4, 4))), YS)
        assert rep.ok and not rep.block_structured

    def test_block_predicate_matches_the_flag(self, interval):
        P = np.zeros((4, 4))
        P[0, 0] = 1.0
        off = np.zeros((4, 4))
        off[0, 2] = off[2, 0] = 1.0      # equal off-diagonal half-blocks
        one_sided = np.zeros((4, 4))
        one_sided[0, 3] = one_sided[3, 0] = 1.0   # L[:2, 2:] != L[2:, :2]
        cases = {"bump": (bump_interaction_map(), True),
                 "halves differ": (constant_map(P, np.zeros((4, 4))), False),
                 "off-diagonal L": (constant_map(np.zeros((4, 4)), off), True),
                 "one-sided off-diagonal L": (
                     constant_map(np.zeros((4, 4)), one_sided), False),
                 "dirichlet lift": (lift_one_particle(
                     standard_family("dirichlet", interval), interval), True)}
        ys = np.linspace(0.0, 1.0, 13)
        for name, (m, want) in cases.items():
            assert block_structured(*m.samples(ys)) is want, name
            assert validate_map(m, ys=ys).block_structured is want, name

    def test_block_predicate_samples_only_ys(self):
        m = bump_interaction_map()
        seen, ev = [], m.eval_fn
        m.eval_fn = lambda y: seen.append(y) or ev(y)
        assert block_structured(*m.samples([0.25, 0.5]))
        assert seen == [0.25, 0.5]

    def test_bump_map_regular(self):
        rep = validate_map(bump_interaction_map(), YS)
        assert rep.ok and rep.block_structured and rep.corner_regular
        assert rep.L_max == pytest.approx(
            np.linalg.norm([[2.0, 0.5], [0.5, 1.0]], 2))


class TestLifts:
    def test_lift_is_noninteracting(self, two_edges):
        idx = BoundaryIndexMap(two_edges)
        for fam, kw in [("dirichlet", {}), ("neumann", {}),
                        ("robin", {"alpha": 1.0})]:
            vc = standard_family(fam, two_edges, **kw)
            m = lift_one_particle(vc, two_edges)
            assert m.meta["conditions"] is vc
            assert is_noninteracting(*m.samples(YS), idx)
            assert validate_map(m, YS).ok

    def test_bump_map_is_interacting(self, interval):
        idx = BoundaryIndexMap(interval)
        assert not is_noninteracting(*bump_interaction_map().samples(YS), idx)

    def test_robin_lift_values(self, interval):
        vc = standard_family("robin", interval, alpha=2.0)
        m = lift_one_particle(vc, interval)
        P, L = m(0.7)
        assert np.allclose(P, 0)
        assert np.allclose(L, 2.0 * np.eye(4))

    def test_lift_locality_matches_one_particle(self, star3):
        vc = standard_family("dirichlet", star3)
        m = lift_one_particle(vc, star3)
        assert is_local_two_particle(*m.samples(YS), BoundaryIndexMap(star3))


class TestDeltaExample:
    def test_pointwise_ab_validity(self):
        for y in np.linspace(0.0, 1.0, 21):
            A, B = delta_center_ab(gaussian_well, 3.0, y)
            rep = validate_ab(A, B)
            assert rep.ok, f"invalid at y={y}: {rep}"

    def test_map_validates_with_corner_warning(self):
        g, m = delta_example_map(gaussian_well, 3.0)
        assert g.E == 2
        rep = validate_map(m, YS)
        assert rep.ok and rep.block_structured
        assert not rep.corner_regular  # L(0) != 0 at the center corner
        assert rep.warnings

    def test_L_acts_as_minus_half_potential(self):
        g, m = delta_example_map(gaussian_well, 3.0)
        yhat = 0.4
        _, L = m(yhat)
        # center block eigenvalues are 0 and -v(0, +/- T yhat)/2
        eig = np.sort(np.linalg.eigvalsh(L[:4, :4]).real)
        expected = sorted([0.0, 0.0,
                           -gaussian_well(0.0, 3.0 * yhat) / 2.0,
                           -gaussian_well(0.0, -3.0 * yhat) / 2.0])
        assert np.allclose(eig, expected, atol=1e-12)

    def test_zero_potential_reduces_to_continuity_conditions(self):
        g, m = delta_example_map(lambda x, y: 0.0, 2.0)
        rep = validate_map(m, YS)
        assert rep.ok
        assert rep.L_max == pytest.approx(0.0, abs=1e-12)

    def test_truncation_must_be_positive(self):
        with pytest.raises(MapError):
            delta_example_map(gaussian_well, -1.0)

    @pytest.mark.parametrize("v", [
        gaussian_well, lambda x, y: 0.0, lambda x, y: 1.0 + 0.5 * y],
        ids=["gaussian", "zero", "asymmetric"])
    def test_samples_equal_the_embedded_center_pair(self, v):
        """The map writes (P, L) in closed form; each sample is within one
        ulp of the strength of the embedded ab_to_pl of the paper's center
        pair (A(y), B) at y, whose SVD and pseudo-inverse round."""
        for T in (1.7, 2.0, 3.0):
            g, m = delta_example_map(v, T)
            for y in (0.0, 0.37, 1.0):
                P0, L0 = ab_to_pl(*delta_center_ab(v, T, y))
                P = np.zeros((16, 16), dtype=complex)
                L = np.zeros((16, 16), dtype=complex)
                for off in (0, 8):
                    P[off:off + 4, off:off + 4] = P0
                    P[off + 4:off + 8, off + 4:off + 8] = np.eye(4)
                    L[off:off + 4, off:off + 4] = L0
                ulp = np.spacing(max(1.0, abs(v(0.0, T * y)),
                                     abs(v(0.0, -T * y))))
                got = m(y)
                assert np.abs(got[0] - P).max() <= ulp
                assert np.abs(got[1] - L).max() <= ulp
                assert np.array_equal(got[0], m(0.5)[0])   # P is y-free

    def test_closed_form_is_exact(self):
        g, m = delta_example_map(lambda x, y: 1.0 + 0.5 * y, 2.0)
        P, L = m(0.25)                # strengths 1.25 and 0.75
        half = 0.5 * np.array([[1, 0, -1, 0], [0, 1, 0, -1],
                               [-1, 0, 1, 0], [0, -1, 0, 1]])
        Lc = -np.array([[1.25, 0, 1.25, 0], [0, 0.75, 0, 0.75],
                        [1.25, 0, 1.25, 0], [0, 0.75, 0, 0.75]]) / 4
        for off in (0, 8):
            assert np.array_equal(P[off:off + 4, off:off + 4], half)
            assert np.array_equal(P[off + 4:off + 8, off + 4:off + 8],
                                  np.eye(4))
            assert np.array_equal(L[off:off + 4, off:off + 4], Lc)
        assert np.count_nonzero(P) == 2 * (8 + 4)
        assert np.count_nonzero(L) == 2 * 8

    def test_potential_is_not_called_at_construction(self):
        delta_example_map(lambda x, y: pytest.fail("v called"), 2.0)

    @pytest.mark.parametrize("v", [
        lambda x, y: np.nan,
        lambda x, y: np.nan if y > 0.5 else 1.0,
        lambda x, y: 1.0 + 0.5j,
        lambda x, y: 1.0 + 0.5j if y > 0.5 else 1.0,
    ], ids=["nan", "nan-at-y", "complex", "complex-at-y"])
    def test_non_finite_or_complex_potential_is_a_condition_error(self, v):
        with pytest.raises(ConditionError):
            g, m = delta_example_map(v, 2.0)
            m.samples(YS)


class TestFolding:
    def test_fold_shape_and_center(self):
        n = 5
        comp = np.ones((n, n))
        folded = fold_to_plane(comp, comp, comp, comp)
        assert folded.shape == (2 * n - 1, 2 * n - 1)
        assert np.allclose(folded, 1.0)

    def test_fold_recovers_restriction(self):
        # fold of a smooth plane function sampled per quadrant is exact
        n = 9
        t = np.linspace(0.0, 1.0, n)
        f = lambda x, y: np.cos(x) * np.cos(2 * y)
        X, Y = np.meshgrid(t, t, indexing="ij")
        p11 = f(X, Y)
        p12 = f(X, -Y)
        p21 = f(-X, Y)
        p22 = f(-X, -Y)
        folded = fold_to_plane(p11, p12, p21, p22)
        c = n - 1
        assert np.allclose(folded[c:, c:], p11)
        assert np.allclose(folded[c::-1, c::-1], p22)

    def test_axis_jump_detection(self):
        n = 4
        a = np.zeros((n, n))
        b = np.ones((n, n))
        jx, jy = fold_axis_jumps(a, a, b, a)
        assert jx == pytest.approx(1.0)

    def test_fold_rejects_mismatched_grids(self):
        with pytest.raises(MapError):
            fold_to_plane(np.zeros((3, 3)), np.zeros((3, 3)),
                          np.zeros((3, 3)), np.zeros((4, 4)))

import numpy as np
import pytest

from conftest import bump_interaction_map
from qg2p.bc_maps import constant_map, lift_one_particle
from qg2p.eigensolve import counting_function, solve
from qg2p.form_assembly import Mesh, assemble_two_particle
from qg2p.spectral_analysis import (AnalysisError, bracketing_check,
                                    bracketing_run, comparison_spectra,
                                    heat_trace, lift_spectrum,
                                    weyl_fit_one_particle,
                                    weyl_fit_two_particle)
from qg2p.symmetry import assemble_symmetric_form
from qg2p.vertex_conditions import standard_family
from test_eigensolve import step_map


def sector_form(g, m, mesh, sector="full"):
    """The two-particle form of ``m`` on ``mesh``, restricted to ``sector``."""
    form = assemble_two_particle(g, m, mesh)
    if sector == "full":
        return form
    return assemble_symmetric_form(form, +1 if sector == "boson" else -1)


def bracketed(form, n):
    """``bracketing_run`` of ``form`` on its own lowest n eigenvalues."""
    return bracketing_run(form.meta["mesh"], form.meta["L_max"],
                          form.meta.get("sector", "full"), n,
                          solve(form, n, vectors=False).eigenvalues)


def dirichlet_interval(n):
    return (np.pi * np.arange(1, n + 1)) ** 2


def dirichlet_square_lattice(lam_max):
    """Analytic eigenvalues pi^2 (n^2 + m^2) up to lam_max, ordered pairs."""
    nmax = int(np.sqrt(lam_max) / np.pi) + 2
    vals = [np.pi**2 * (n * n + m * m)
            for n in range(1, nmax + 1) for m in range(1, nmax + 1)]
    return np.sort([v for v in vals if v <= lam_max])


class TestLiftSpectrum:
    def test_boson_starts_with_lattice_values(self):
        lam = lift_spectrum(dirichlet_interval(10), 4, "boson")
        assert np.allclose(lam, np.pi**2 * np.array([2, 5, 8, 10]))

    def test_fermion_excludes_diagonal(self):
        lam = lift_spectrum(dirichlet_interval(10), 2, "fermion")
        assert np.allclose(lam, np.pi**2 * np.array([5, 10]))

    def test_full_counts_ordered_pairs(self):
        lam = lift_spectrum(dirichlet_interval(10), 3, "full")
        assert np.allclose(lam, np.pi**2 * np.array([2, 5, 5]))

    def test_truncation_completeness(self):
        # every sum <= k_20^2 + k_1^2 appears; brute force over the grid
        one = dirichlet_interval(20)
        full = lift_spectrum(one, 1, "full")  # force validity
        ceiling = one[-1] + one[0]
        brute = np.sort([a + b for a in one for b in one])
        brute = brute[brute <= ceiling]
        lam = lift_spectrum(one, len(brute), "full")
        assert np.allclose(lam, brute)

    def test_insufficient_input_raises(self):
        with pytest.raises(AnalysisError):
            lift_spectrum(dirichlet_interval(3), 100)

    def test_sums_above_the_truncation_ceiling_raise(self):
        # of the 9 sums of 1, 2, 3, only 2, 3, 3, 4, 4, 4 reach 3 + 1
        assert np.array_equal(lift_spectrum([1.0, 2.0, 3.0], 6), [2, 3, 3, 4, 4, 4])
        with pytest.raises(AnalysisError, match="only 6 lifted eigenvalues"):
            lift_spectrum([1.0, 2.0, 3.0], 7)

    def test_unknown_sector_raises(self):
        with pytest.raises(AnalysisError, match="unknown sector 'mixed'"):
            lift_spectrum(dirichlet_interval(3), 1, "mixed")


class TestWeylFits:
    def test_two_particle_full_lattice(self, interval):
        lam = dirichlet_square_lattice(2000.0)
        rep = weyl_fit_two_particle(lam, interval, sector="full",
                                    window=(100.0, 2000.0))
        assert rep.target == pytest.approx(1.0 / (4 * np.pi))
        assert rep.relative_error < 0.10

    def test_boson_lattice(self, interval):
        nmax = 16
        vals = [np.pi**2 * (n * n + m * m)
                for n in range(1, nmax) for m in range(n, nmax)]
        lam = np.sort([v for v in vals if v <= 2000.0])
        rep = weyl_fit_two_particle(lam, interval, sector="boson",
                                    window=(100.0, 2000.0))
        assert rep.target == pytest.approx(1.0 / (8 * np.pi))
        assert rep.relative_error < 0.10

    def test_one_particle_slope(self, interval):
        rep = weyl_fit_one_particle(dirichlet_interval(200), interval)
        assert rep.target == pytest.approx(1.0 / np.pi)
        assert rep.relative_error < 0.05

    def test_mesh_trust_cutoff_applied(self, interval):
        lam = dirichlet_square_lattice(5000.0)
        h = 1.0 / 30.0
        rep = weyl_fit_two_particle(lam, interval, h_max=h)
        assert rep.window[1] <= (np.pi / (4 * h)) ** 2 + 1e-12

    def test_insufficient_eigenvalues(self, interval):
        with pytest.raises(AnalysisError, match="at least 30"):
            weyl_fit_two_particle(dirichlet_square_lattice(100.0), interval)

    def test_deviation_shrinks_up_the_spectrum(self, interval):
        lam = dirichlet_square_lattice(4000.0)
        low = weyl_fit_two_particle(lam, interval, window=(0.0, 800.0))
        high = weyl_fit_two_particle(lam, interval, window=(1000.0, 4000.0))
        assert high.relative_error < low.relative_error

    def test_eigenvalues_at_or_below_zero_count_together(self, interval):
        # distinct negative eigenvalues (Robin or attractive delta vertices)
        # all have k = 0, so each is counted with all of them, as on k itself
        lam = np.concatenate([[-3.0, -2.0, -1.0, 0.0], dirichlet_interval(60)])
        k = np.sqrt(np.clip(lam, 0.0, None))
        ns = counting_function(k, k).astype(float)
        ref, *_ = np.linalg.lstsq(np.vstack([k, np.ones_like(k)]).T, ns,
                                  rcond=None)
        rep = weyl_fit_one_particle(lam, interval)
        assert rep.n_used == len(lam)
        assert rep.slope == ref[0]
        zeros = np.concatenate([np.zeros(4), dirichlet_interval(60)])
        assert weyl_fit_one_particle(zeros, interval) == rep

    def test_tied_copies_one_ulp_apart_fit_like_equal_ones(self, interval):
        lam = dirichlet_square_lattice(2000.0)
        split = lam.copy()
        double = np.flatnonzero(lam[1:] == lam[:-1]) + 1
        split[double] = np.nextafter(lam[double], np.inf)
        # plain counts see the split: the second copy no longer counts both
        assert not np.array_equal(counting_function(split, split),
                                  counting_function(lam, lam))
        exact = weyl_fit_two_particle(lam, interval, window=(100.0, 2000.0))
        moved = weyl_fit_two_particle(split, interval, window=(100.0, 2000.0))
        # only the abscissae moved, by an ulp each
        assert moved.slope == pytest.approx(exact.slope, rel=1e-12)
        assert moved.n_used == exact.n_used

    def test_chain_at_the_mesh_cap_enters_whole(self, interval):
        # with h_max = 1/40 the cap (pi / (4 h_max))^2 is the double
        # pi^2 (i^2 + j^2) at i^2 + j^2 = 100; one copy raised by one ulp
        # must neither drop out of the fit nor move the slope
        lam = np.sort([np.pi**2 * (i * i + j * j)
                       for i in range(1, 12) for j in range(1, 12)])
        top = np.flatnonzero(lam == np.pi**2 * 100)
        assert len(top) == 2 and (np.pi / (4.0 / 40)) ** 2 == lam[top[0]]
        split = lam.copy()
        split[top[1]] = np.nextafter(lam[top[1]], np.inf)
        exact = weyl_fit_two_particle(lam, interval, h_max=1 / 40)
        moved = weyl_fit_two_particle(split, interval, h_max=1 / 40)
        assert exact.n_used == moved.n_used == 69
        assert moved.slope == pytest.approx(exact.slope, rel=1e-12)


class TestHeatTrace:
    def test_single_zero_eigenvalue(self):
        assert heat_trace(np.array([0.0]), 3.7)["value"] == pytest.approx(1.0)

    def test_nonpositive_t_rejected(self):
        with pytest.raises(AnalysisError):
            heat_trace(np.array([1.0]), 0.0)

    def test_monotone_decay(self):
        lam = dirichlet_interval(50)
        vals = [heat_trace(lam, t)["value"] for t in (0.1, 0.5, 1.0, 5.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_dirichlet_interval_has_boundary_deficit(self):
        # truncated trace times sqrt(4 pi t) equals L - sqrt(pi t) for the
        # interval: the two ends contribute a negative correction, so the
        # leading-term comparison misses by ~18% at t = 0.01
        t = 0.01
        val = heat_trace(dirichlet_interval(200), t)["value"]
        assert np.sqrt(4 * np.pi * t) * val == pytest.approx(
            1.0 - np.sqrt(np.pi * t), abs=1e-6)

    def test_loop_matches_leading_term(self):
        # boundary-free spectrum: loop of length 1, eigenvalues (2 pi n)^2
        # with multiplicity two plus the constant mode
        t = 0.01
        lam = np.concatenate([[0.0],
                              np.repeat((2 * np.pi * np.arange(1, 101)) ** 2, 2)])
        val = heat_trace(lam, t)["value"]
        assert np.sqrt(4 * np.pi * t) * val == pytest.approx(1.0, rel=1e-6)

    def test_tail_estimate_small_when_converged(self):
        rep = heat_trace(dirichlet_interval(200), 0.01)
        assert rep["tail_estimate"] < 1e-10 * rep["value"]


class TestBracketing:
    def test_raw_check_passes_on_nested_spectra(self):
        m = np.arange(1.0, 61.0)
        assert bracketing_check(m - 0.5, m, m + 0.5, 50).ok
        # a lower bound equal to the target up to roundoff: the counting
        # reversal gets the same slack as the levels
        rep = bracketing_check(m * (1 + 1e-14), m, m + 0.5, 50)
        assert rep.ok and rep.counting_ok

    def test_short_spectrum_raises(self):
        m = np.arange(1.0, 61.0)
        with pytest.raises(AnalysisError, match="need 50 eigenvalues"):
            bracketing_check(m - 0.5, m[:49], m + 0.5, 50)

    def test_violation_detected(self):
        m = np.arange(1.0, 61.0)
        r = m.copy()
        r[3] = m[3] + 1.0  # lower bound broken at n=4
        rep = bracketing_check(r, m, m + 0.5, 50)
        assert not rep.ok and rep.max_lower_violation > 0

    def test_dirichlet_map_hits_upper_bound(self, interval):
        m = constant_map(np.eye(4), np.zeros((4, 4)))
        rep = bracketed(
            assemble_two_particle(interval, m, Mesh.uniform(interval, 17)), 10)
        # the comparison spectrum is lifted, the map's solved: roundoff apart
        assert rep.ok and rep.max_upper_violation <= 1e-11

    def test_resolve_builds_no_full_space_kernel(self, interval):
        # the split solve restricts to the sectors; ker C of the full
        # space is never needed
        m = constant_map(np.eye(4), np.zeros((4, 4)))
        form = assemble_two_particle(interval, m, Mesh.uniform(interval, 17))
        assert bracketed(form, 10).ok
        assert form.basis is None

    def test_neumann_map_hits_lower_bound(self, interval):
        m = constant_map(np.zeros((4, 4)), np.zeros((4, 4)))
        rep = bracketed(
            assemble_two_particle(interval, m, Mesh.uniform(interval, 17)), 10)
        assert rep.ok and rep.max_lower_violation <= 1e-11

    def test_robin_lift_strict_sandwich(self, interval):
        m = lift_one_particle(
            standard_family("robin", interval, alpha=1.0), interval)
        rep = bracketed(
            assemble_two_particle(interval, m, Mesh.uniform(interval, 25)), 20)
        assert rep.ok and rep.counting_ok

    def test_bump_map_sandwich(self, interval):
        rep = bracketed(assemble_two_particle(
            interval, bump_interaction_map(), Mesh.uniform(interval, 25)), 20)
        assert rep.ok and rep.counting_ok

    def test_lower_operator_samples_the_mesh(self, interval):
        # L_max on the default grid is 0 (a Neumann "lower" operator); at
        # the mesh's y-nodes it is 1e4
        rep = bracketed(
            assemble_two_particle(interval, step_map(), Mesh.uniform(interval, 17)),
            10)
        assert rep.ok and rep.counting_ok
        assert rep.max_lower_violation == 0.0
        assert rep.max_upper_violation == 0.0

    def test_given_eigenvalues_replace_the_target_solve(self, interval,
                                                         monkeypatch):
        from qg2p import spectral_analysis
        form = assemble_two_particle(interval, bump_interaction_map(),
                                     Mesh.uniform(interval, 25))
        lam = spectral_analysis.solve(form, 25).eigenvalues
        calls, orig = [], spectral_analysis.solve
        monkeypatch.setattr(spectral_analysis, "solve",
                            lambda *a, **kw: calls.append(a[1]) or orig(*a, **kw))
        run = lambda eigs: bracketing_run(form.meta["mesh"], form.meta["L_max"],
                                          "full", 20, eigs)
        assert run(lam) == run(lam[:20])
        assert len(calls) == 4                  # two comparison operators each
        with pytest.raises(AnalysisError, match="need 20 eigenvalues"):
            run(lam[:19])


def two_particle_comparison(g, l_max, mesh, n, sector):
    """The lowest n eigenvalues of the two comparison operators solved as
    two-particle pencils of constant maps on C^{4E^2}, in ``sector``."""
    dim = 4 * g.E ** 2
    return [solve(sector_form(g, constant_map(P, L), mesh, sector),
                  n).eigenvalues
            for P, L in ((np.zeros((dim, dim)), l_max * np.eye(dim)),
                         (np.eye(dim), np.zeros((dim, dim))))]


class TestComparisonSpectra:
    @pytest.mark.parametrize("graph, nodes", [
        ("interval", (41,)), ("two_edges", (21, 15)),
        ("star3", (17, 17, 17)), ("star3", (13, 17, 21))],
        ids=["interval-41", "two-edges-21-15", "star3-17", "star3-13-17-21"])
    @pytest.mark.parametrize("l_max", [0.0, 2.5])
    def test_lift_matches_two_particle_solves(self, request, graph, nodes,
                                              l_max):
        g = request.getfixturevalue(graph)
        mesh = Mesh(g, nodes)
        for sector in ("full", "boson", "fermion"):
            lifted = comparison_spectra(g, l_max, mesh, 20, sector)
            solved = two_particle_comparison(g, l_max, mesh, 20, sector)
            for a, b in zip(lifted, solved):
                # relative to the spectrum's scale: the Neumann ground state
                # 0 is solved only to about 1e-12 absolute
                assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())

    @pytest.mark.parametrize("n, sector", [(9, "full"), (6, "boson"),
                                           (3, "fermion")])
    def test_whole_one_particle_spectrum_is_lifted(self, interval, n, sector):
        # 5 nodes: 3 Dirichlet one-particle levels give exactly n sums
        rep = bracketed(sector_form(interval, bump_interaction_map(),
                                    Mesh.uniform(interval, 5), sector), n)
        assert rep.ok and rep.counting_ok and rep.n_checked == n

    def test_more_levels_than_sums_raise(self, interval):
        with pytest.raises(AnalysisError):
            bracketed(assemble_two_particle(
                interval, bump_interaction_map(), Mesh.uniform(interval, 5)), 20)

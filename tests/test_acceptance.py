"""End-to-end acceptance checks, one per shipped claim.

Each test prints a single PASS/FAIL line (visible on the terminal) and then
asserts, so the suite doubles as a human-readable acceptance report.
"""
import time

import numpy as np
import pytest

from conftest import YS, bump_interaction_map, delta_center_ab
from qg2p.bc_maps import (delta_example_map, fold_axis_jumps,
                          lift_one_particle, validate_map)
from qg2p.eigensolve import counting_function, solve
from qg2p.form_assembly import (Mesh, assemble_one_particle,
                                assemble_two_particle, semibound_constant)
from qg2p.graph_core import build_graph
from qg2p.spectral_analysis import (bracketing_run, heat_trace, lift_spectrum,
                                    weyl_fit_one_particle,
                                    weyl_fit_two_particle)
from qg2p.symmetry import assemble_symmetric_form
from qg2p.vertex_conditions import delta_family, standard_family, validate_ab
from test_symmetry import projector


def report(capsys, idx, name, ok, detail=""):
    with capsys.disabled():
        tag = "PASS" if ok else "FAIL"
        print(f"\n[acceptance {idx:2d}] {name}: {tag}"
              + (f" ({detail})" if detail else ""))
    assert ok, f"acceptance {idx} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def interval():
    return build_graph({"edges": [["a", "b", 1.0]]})


@pytest.fixture(scope="module")
def two_edges():
    return build_graph({"edges": [["a", "b", 1.0], ["b", "c", 1.5]]})


def gaussian_well(x, y):
    return -2.0 * np.exp(-(x * x + y * y) / 0.5)


def test_01_dirichlet_square_analytic(interval, capsys):
    t0 = time.perf_counter()
    m = lift_one_particle(standard_family("dirichlet", interval), interval)
    form = assemble_two_particle(interval, m, Mesh.uniform(interval, 65))
    lam = solve(form, 10).eigenvalues
    elapsed = time.perf_counter() - t0
    pairs = sorted(np.pi**2 * (n * n + k * k)
                   for n in range(1, 8) for k in range(1, 8))[:10]
    rel = np.abs(lam - pairs) / np.array(pairs)
    report(capsys, 1, "Dirichlet square, 10 eigenvalues at 65x65 within 1%",
           bool(np.all(rel < 0.01) and elapsed < 30.0),
           f"max rel err {rel.max():.2e}, {elapsed:.1f}s")


def test_02_tensor_sum_lift_identity(two_edges, capsys):
    mesh = Mesh(two_edges, (13, 17))
    worst = 0.0
    for fam, kw in [("dirichlet", {}), ("neumann", {}),
                    ("robin", {"alpha": 1.0})]:
        vc = standard_family(fam, two_edges, **kw)
        one = assemble_one_particle(two_edges, vc, mesh)
        lam1 = solve(one, one.nreduced, force_dense=True).eigenvalues
        form = assemble_two_particle(
            two_edges, lift_one_particle(vc, two_edges), mesh)
        lam = solve(form, 40).eigenvalues
        oracle = lift_spectrum(lam1, 40, "full")
        worst = max(worst, (np.abs(lam - oracle)
                            / np.maximum(1.0, np.abs(oracle))).max())
        for sign, sector in ((+1, "boson"), (-1, "fermion")):
            lams = solve(assemble_symmetric_form(form, sign), 25).eigenvalues
            osec = lift_spectrum(lam1, 25, sector)
            worst = max(worst, (np.abs(lams - osec)
                                / np.maximum(1.0, np.abs(osec))).max())
    report(capsys, 2, "two-particle spectra of lifts are 1-D tensor sums",
           worst < 1e-9, f"max rel deviation {worst:.2e}")


def test_03_sector_partition_of_counting_functions(interval, two_edges, capsys):
    cases = [
        (interval, lift_one_particle(
            standard_family("dirichlet", interval), interval),
         Mesh.uniform(interval, 13)),
        (two_edges, lift_one_particle(
            standard_family("robin", two_edges, alpha=1.0), two_edges),
         Mesh(two_edges, (7, 7))),
        (interval, bump_interaction_map(), Mesh.uniform(interval, 13)),
    ]
    ok = True
    for g, m, mesh in cases:
        form = assemble_two_particle(g, m, mesh)
        full = solve(form, form.nreduced, force_dense=True).eigenvalues
        fb = assemble_symmetric_form(form, +1)
        ff = assemble_symmetric_form(form, -1)
        b = solve(fb, fb.nreduced, force_dense=True).eigenvalues
        f = solve(ff, ff.nreduced, force_dense=True).eigenvalues
        for lam in full:
            x = lam + 1e-9 * max(1.0, abs(lam))
            if (counting_function(b, x) + counting_function(f, x)
                    != counting_function(full, x)):
                ok = False
    report(capsys, 3, "N_B + N_F = N at every computed eigenvalue, 3 maps", ok)


def test_04_dirichlet_robin_bracketing(interval, capsys):
    mesh = Mesh.uniform(interval, 41)
    robin_lift = lift_one_particle(
        standard_family("robin", interval, alpha=1.0), interval)
    forms = [assemble_two_particle(interval, m, mesh)
             for m in (robin_lift, bump_interaction_map())]
    reps = [bracketing_run(f.meta["mesh"], f.meta["L_max"], "full", 50,
                           solve(f, 50, vectors=False).eigenvalues)
            for f in forms]
    ok = all(r.ok and r.counting_ok for r in reps)
    detail = "; ".join(f"viol {max(r.max_lower_violation, r.max_upper_violation):.1e}"
                       for r in reps)
    report(capsys, 4, "mu_n(Robin) <= mu_n <= mu_n(Dirichlet), n=1..50", ok, detail)


def test_05_semiboundedness(interval, two_edges, capsys):
    cases = [
        (interval, lift_one_particle(
            standard_family("dirichlet", interval), interval)),
        (interval, lift_one_particle(
            standard_family("neumann", interval), interval)),
        (interval, lift_one_particle(
            standard_family("robin", interval, alpha=1.0), interval)),
        (two_edges, lift_one_particle(delta_family(two_edges, 3.0), two_edges)),
        (interval, bump_interaction_map()),
        delta_example_map(gaussian_well, 2.0),
    ]
    ok = True
    details = []
    for g, m in cases:
        mesh = Mesh.uniform(g, 21)
        form = assemble_two_particle(g, m, mesh)
        lam0 = solve(form, 1).eigenvalues[0]
        bound = -1.05 * form.C_infty - 1e-8
        details.append(f"{lam0:.3g} >= {bound:.3g}")
        if lam0 < bound:
            ok = False
    report(capsys, 5, "lowest eigenvalue >= -1.05 C_infty for all maps", ok,
           "; ".join(details))


def test_06_weyl_one_particle(interval, capsys):
    lam = (np.pi * np.arange(1, 201)) ** 2
    rep = weyl_fit_one_particle(lam, interval)
    report(capsys, 6, "one-particle Weyl slope within 5% of L/pi",
           rep.relative_error < 0.05, f"rel err {rep.relative_error:.3f}")


def test_07_weyl_two_particle(interval, capsys):
    # analytic lattice oracle
    vals = [np.pi**2 * (n * n + k * k)
            for n in range(1, 20) for k in range(1, 20)]
    lat = np.sort([v for v in vals if v <= 2000.0])
    rep_full = weyl_fit_two_particle(lat, interval, window=(100.0, 2000.0))
    bos = np.sort([np.pi**2 * (n * n + k * k)
                   for n in range(1, 20) for k in range(n, 20)])
    rep_bos = weyl_fit_two_particle(bos[bos <= 2000.0], interval,
                                    sector="boson", window=(100.0, 2000.0))
    # full FEM pipeline on the fine mesh
    t0 = time.perf_counter()
    m = lift_one_particle(standard_family("dirichlet", interval), interval)
    form = assemble_two_particle(interval, m, Mesh.uniform(interval, 129))
    lam = solve(form, 350).eigenvalues
    rep_fem = weyl_fit_two_particle(lam, interval,
                                    window=(500.0, float(lam[-1])),
                                    h_max=1.0 / 128.0)
    elapsed = time.perf_counter() - t0
    ok = (rep_full.relative_error < 0.10 and rep_bos.relative_error < 0.10
          and rep_fem.relative_error < 0.15 and elapsed < 300.0)
    report(capsys, 7, "two-particle Weyl slopes (lattice 10%, FEM 15%)", ok,
           f"full {rep_full.relative_error:.3f}, boson "
           f"{rep_bos.relative_error:.3f}, fem {rep_fem.relative_error:.3f}, "
           f"{elapsed:.0f}s")


def test_08_heat_trace_leading_term(capsys):
    # boundary-free one-particle spectrum: loop of length 1 (eigenvalues
    # (2 pi n)^2, twice, plus the constant mode), 200 eigenvalues total
    t = 0.01
    total_length = 1.0
    lam = np.sort(np.concatenate(
        [[0.0], np.repeat((2.0 * np.pi * np.arange(1, 101)) ** 2, 2)]))[:200]
    val = np.sqrt(4.0 * np.pi * t) * heat_trace(lam, t)["value"]
    rel = abs(val - total_length) / total_length
    report(capsys, 8, "sqrt(4 pi t) x heat trace within 5% of total length",
           rel < 0.05, f"value {val:.4f}, rel err {rel:.2e}")


def test_09_delta_interaction_example(capsys):
    T = 3.0
    ok_ab = all(validate_ab(*delta_center_ab(gaussian_well, T, y)).ok
                for y in np.linspace(0.0, 1.0, 41))
    g, m = delta_example_map(gaussian_well, T)
    ok_map = validate_map(m, YS).ok

    mesh = Mesh.uniform(g, 25)
    form = assemble_two_particle(g, m, mesh)
    res = solve(assemble_symmetric_form(form, +1), 1)
    psi = res.eigenvectors[:, 0].real
    psi = psi / np.abs(psi).max()

    n, grid = mesh.nodes[0], psi.reshape(mesh.ndof1, mesh.ndof1)
    p11, p12, p21, p22 = (grid[a * n:(a + 1) * n, b * n:(b + 1) * n]
                          for a in (0, 1) for b in (0, 1))
    # continuity across the center vertex in the first variable
    cont = max(np.abs(p11[0, :] - p21[0, :]).max(),
               np.abs(p12[0, :] - p22[0, :]).max())
    jump_x, jump_y = fold_axis_jumps(p11, p12, p21, p22)
    mesh_tol = mesh.h_max**2
    ok = (ok_ab and ok_map and cont < 1e-6
          and jump_x < mesh_tol and jump_y < mesh_tol)
    report(capsys, 9, "delta example: validity, continuity, folded function",
           ok, f"continuity {cont:.1e}, fold jumps {jump_x:.1e}/{jump_y:.1e}, "
               f"ground state {res.eigenvalues[0]:.4f}")


def test_10_projector_and_map_algebra(interval, two_edges, capsys):
    mesh = Mesh(two_edges, (5, 6))
    Ps, Pa = projector(mesh, +1), projector(mesh, -1)
    rng = np.random.default_rng(42)
    worst_proj = 0.0
    for _ in range(1000):
        v = rng.standard_normal(mesh.ndof2)
        s, a = Ps @ v, Pa @ v
        worst_proj = max(
            worst_proj,
            np.abs(s + a - v).max(),
            np.abs(Ps @ s - s).max(),
            np.abs(Pa @ a - a).max(),
            np.abs(Pa @ s).max(),
            np.abs(Ps @ a).max())

    shipped = [
        lift_one_particle(standard_family("dirichlet", interval), interval),
        lift_one_particle(standard_family("neumann", interval), interval),
        lift_one_particle(
            standard_family("robin", interval, alpha=1.0), interval),
        lift_one_particle(delta_family(two_edges, 2.0), two_edges),
        bump_interaction_map(),
        delta_example_map(gaussian_well, 2.0)[1],
    ]
    worst_map = 0.0
    for m in shipped:
        rep = validate_map(m, YS)
        worst_map = max(worst_map, rep.max_projector_defect,
                        rep.max_self_adjointness_defect, rep.max_qlq_defect)
    ok = worst_proj < 1e-13 and worst_map < 1e-10
    report(capsys, 10, "exchange projectors to 1e-13; P/L invariants to 1e-10",
           ok, f"projector {worst_proj:.1e}, map {worst_map:.1e}")

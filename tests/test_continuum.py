"""The solver against the continuum: the observed mesh order of P1
elements, from the closed forms of ``continuum``."""
import numpy as np
import pytest

from continuum import (SECTORS, delta_star, dirichlet_interval_lift,
                       pair_sums, robin_neumann)
from test_cli import exchange_coupled_maps
from qg2p.bc_maps import constant_map, delta_example_map, lift_one_particle
from qg2p.eigensolve import solve
from qg2p.form_assembly import Mesh, assemble_two_particle
from qg2p.graph_core import build_graph
from qg2p.symmetry import sector_pencils
from qg2p.vertex_conditions import delta_family, standard_family


def relative_errors(g, m, exact, sector, node_counts):
    """The relative error of each of the lowest len(exact) eigenvalues in
    ``sector``, one row per uniform node count."""
    err = []
    for nodes in node_counts:
        form = assemble_two_particle(g, m, Mesh.uniform(g, nodes))
        lam = solve(sector_pencils(form, sector), len(exact),
                    vectors=False).eigenvalues
        err.append(np.abs(lam - exact) / np.abs(exact))
    return np.array(err)


def assert_order_two(err):
    """Each eigenvalue converges at the P1 order 2 +- 0.05 as h halves."""
    order = np.log2(err[:-1] / err[1:])
    assert np.abs(order - 2.0).max() <= 0.05, order


def test_closed_form_counts_each_pair_once_per_sector():
    unit = dirichlet_interval_lift(np.pi, 6)        # pi / l = 1: i^2 + j^2
    assert unit.tolist() == [2, 5, 5, 8, 10, 10]
    assert dirichlet_interval_lift(np.pi, 4, "boson").tolist() == [2, 5, 8, 10]
    assert dirichlet_interval_lift(np.pi, 4, "fermion").tolist() == [5, 10, 13, 17]


@pytest.mark.parametrize("sector", SECTORS)
def test_dirichlet_interval_lift_converges_at_order_two(sector):
    """On an edge of length 1.07, each of the lowest 6 eigenvalues at 33,
    65 and 129 nodes (h halving) converges to the continuum at the P1
    order 2, and is within 1e-3 of it at 129 nodes."""
    length = 1.07
    g = build_graph({"edges": [["a", "b", length]]})
    m = lift_one_particle(standard_family("dirichlet", g), g)
    err = relative_errors(g, m, dirichlet_interval_lift(length, 6, sector),
                          sector, (33, 65, 129))
    assert_order_two(err)
    assert err[-1].max() <= 1e-3


@pytest.mark.parametrize("sector", SECTORS)
def test_delta_star_lift_converges_at_order_two(sector):
    """star3-delta's graph (legs 1.07, 0.93, 1.02, alpha = 2): each of the
    lowest 6 eigenvalues at 17, 33 and 65 nodes per edge converges to the
    sums of delta-star roots at order 2, and is within 5e-4 of them at 65."""
    lengths, alpha = (1.07, 0.93, 1.02), 2.0
    g = build_graph({"edges": [["c", f"l{i}", l] for i, l in enumerate(lengths)]})
    m = lift_one_particle(delta_family(g, alpha), g)
    exact = pair_sums(delta_star(lengths, alpha, 7), 6, sector)
    err = relative_errors(g, m, exact, sector, (17, 33, 65))
    assert_order_two(err)
    assert err[-1].max() <= 5e-4


@pytest.mark.parametrize("sector", SECTORS)
def test_zero_potential_delta_example_converges_at_order_two(sector):
    """With v = 0 the delta example is the Dirichlet square [-T, T]^2,
    (pi / 2T)^2 (i^2 + j^2): each of the lowest 6 eigenvalues at 17, 33 and
    65 nodes per half-line converges at order 2, and the boson ground state
    is within 6e-5 at 65 nodes."""
    T = 2.0
    g, m = delta_example_map(lambda x, y: 0.0, T)
    err = relative_errors(g, m, dirichlet_interval_lift(2 * T, 6, sector),
                          sector, (17, 33, 65))
    assert_order_two(err)
    assert sector != "boson" or err[-1, 0] <= 6e-5


@pytest.mark.parametrize("sector", SECTORS)
def test_robin_coupled_map_converges_at_order_two(sector):
    """test_cli's Robin-coupled map on one edge: bosons see a Robin end of
    strength 2.2, fermions one of 0.8, and a Neumann far end.  The boson
    sector is the boson sums of ``robin_neumann`` at 2.2, the fermion sector
    the fermion sums at 0.8, and full is their merge.  Each of the lowest 6
    (a bound state among them) at 17, 33 and 65 nodes converges at order 2,
    and is within 2e-3 of the continuum at 65 nodes."""
    length, P, L, boson, fermion = exchange_coupled_maps()["robin-coupled"]
    g = build_graph({"edges": [["a", "b", length]]})
    exact = {s: pair_sums(robin_neumann(length, L1[0, 0], 7), 6, s)
             for s, (_, L1) in (("boson", boson), ("fermion", fermion))}
    exact["full"] = np.sort(np.concatenate(list(exact.values())))[:6]
    err = relative_errors(g, constant_map(P, L), exact[sector], sector,
                          (17, 33, 65))
    assert_order_two(err)
    assert err[-1].max() <= 2e-3

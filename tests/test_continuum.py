"""The solver against the continuum: the observed mesh order of P1
elements, from the closed forms of ``continuum``."""
import numpy as np
import pytest

from continuum import SECTORS, dirichlet_interval_lift
from qg2p.bc_maps import lift_one_particle
from qg2p.eigensolve import solve
from qg2p.form_assembly import Mesh, assemble_two_particle
from qg2p.graph_core import build_graph
from qg2p.symmetry import sector_pencils
from qg2p.vertex_conditions import standard_family


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
    length, k = 1.07, 6
    g = build_graph({"edges": [["a", "b", length]]})
    m = lift_one_particle(standard_family("dirichlet", g), g)
    exact = dirichlet_interval_lift(length, k, sector)
    err = []
    for nodes in (33, 65, 129):
        form = assemble_two_particle(g, m, Mesh(g, (nodes,)))
        lam = solve(sector_pencils(form, sector), k, vectors=False).eigenvalues
        err.append(np.abs(lam - exact) / exact)
    order = np.log2(np.array(err[:-1]) / np.array(err[1:]))
    assert np.abs(order - 2.0).max() <= 0.05, order
    assert err[-1].max() <= 1e-3

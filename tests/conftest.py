from collections import Counter

import numpy as np
import pytest

from qg2p.bc_maps import BoundaryMap
from qg2p.graph_core import build_graph

# a 101-point sample grid for the map checks, which take their grid
# explicitly; the CLI passes the mesh's y-nodes instead
YS = np.linspace(0.0, 1.0, 101)

# (validate, command) exit codes of each case of the full input sweep,
# tallied by tests/sweep_all.py
EXIT_PAIRS = Counter()


def pytest_terminal_summary(terminalreporter):
    """One line of the full input sweep's exit pairs, when it ran."""
    if EXIT_PAIRS:
        terminalreporter.write_line(
            "input sweep exit pairs (validate, command): "
            + ", ".join(f"{pair} {n}" for pair, n in EXIT_PAIRS.most_common()))


@pytest.fixture
def interval():
    """Single unit edge."""
    return build_graph({"edges": [["a", "b", 1.0]]})


@pytest.fixture
def two_edges():
    """Path graph with lengths 1 and 1.5."""
    return build_graph({"edges": [["a", "b", 1.0], ["b", "c", 1.5]]})


@pytest.fixture
def star3():
    """3-star, unit legs."""
    return build_graph({"edges": [["c", "l1", 1.0], ["c", "l2", 1.0],
                                  ["c", "l3", 1.0]]})


def smooth_bump(y, center=0.5, radius=0.4):
    """C-infinity bump supported in [center - radius, center + radius]."""
    z = (y - center) / radius
    if abs(z) >= 1.0:
        return 0.0
    return float(np.exp(1.0 - 1.0 / (1.0 - z * z)))


def bump_interaction_map(dim=4, L0=None):
    """Block-structured, corner-regular, genuinely y-dependent map on a
    single-edge graph: P = 0, L(y) = bump(y) * L0 per half."""
    half = dim // 2
    if L0 is None:
        L0 = np.array([[2.0, 0.5], [0.5, 1.0]])

    def ev(y):
        g = smooth_bump(y)
        L = np.zeros((dim, dim))
        L[:half, :half] = g * L0
        L[half:, half:] = g * L0
        return np.zeros((dim, dim)), L

    return BoundaryMap(dim=dim, eval_fn=ev)


def delta_center_ab(v, truncation, yhat):
    """The paper's 4x4 (A(y), B(y)) of the delta example's center-vertex
    conditions at a normalized position, in component order [11, 12, 21,
    22]: continuity across the vertex in the first variable plus a
    v-weighted derivative jump.  ``bc_maps.delta_example_map`` writes the
    canonical (P, L) of this pair in closed form."""
    v_plus = v(0.0, truncation * yhat)
    v_minus = v(0.0, -truncation * yhat)
    A = np.array([
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, v_plus, 0.0],
        [0.0, 1.0, 0.0, -1.0],
        [0.0, 0.0, 0.0, v_minus],
    ], dtype=complex)
    B = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [-1.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, -1.0],
    ], dtype=complex)
    return A, B

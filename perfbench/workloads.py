"""Seeded configs for the benchmark workloads.

Each workload is one fixed `qg2p` subcommand on one fixed problem size.  The
seed only jitters physical parameters (edge lengths, coupling strengths,
potential shape, breakpoints); node counts, `num_eigs` and the sector never
change, so every seed does the same amount of work.  The program sees only
the JSON written from these dicts.
"""
from __future__ import annotations

import random

# workload -> the qg2p subcommand it runs; BENCHMARK.json says why each exists
WORKLOADS = {
    "weyl-interval": "analyze",
    "star3-delta": "analyze",
    "delta-fold": "example-delta",
    "bracket-dense": "analyze",
}


def _jitter(rng: random.Random, base: float, frac: float) -> float:
    return base * (1.0 + rng.uniform(-frac, frac))


def _pair(x: float):
    return [x, 0.0]


def make_config(workload: str, seed: int) -> dict:
    """The JSON config document of `workload` for `seed`."""
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")

    if workload == "weyl-interval":
        return {
            "graph": {"edges": [["a", "b", _jitter(rng, 1.0, 0.10)]]},
            "map": {"kind": "lifted", "family": "dirichlet"},
            "mesh": {"nodes": 129},
            "num_eigs": 350,
            # the lower end of test_07's fit window; the mesh cap sets the top
            "analysis": {"weyl": True, "window": [500.0, 1.0e6],
                         "lift_check": True},
        }

    if workload == "star3-delta":
        return {
            "graph": {"edges": [["c", f"l{i}", _jitter(rng, 1.0, 0.10)]
                                for i in (1, 2, 3)]},
            "map": {"kind": "lifted",
                    "delta_strength": _jitter(rng, 2.0, 0.10)},
            "mesh": {"nodes": 65},
            "num_eigs": 20,
            "analysis": {"weyl": False, "lift_check": True},
        }

    if workload == "delta-fold":
        return {
            "map": {"kind": "delta_example",
                    "truncation": _jitter(rng, 2.0, 0.10),
                    "potential": {"kind": "gaussian",
                                  "amplitude": _jitter(rng, -2.0, 0.10),
                                  "width": _jitter(rng, 0.5, 0.10)}},
            "mesh": {"nodes": 65},
            "sector": "boson",
            "num_eigs": 5,
        }

    # bracket-dense: P = 0 everywhere, L(y) = diag(l, l) on [b1, b2) with a
    # real symmetric 2x2 block l, zero elsewhere: Hermitian, block
    # structured (so the sector checks pass) and zero near the corners.
    a = _jitter(rng, 2.0, 0.10)
    b = _jitter(rng, 1.0, 0.10)
    c = _jitter(rng, 0.5, 0.20)
    zero = [[_pair(0.0)] * 4 for _ in range(4)]
    L = [[_pair(0.0)] * 4 for _ in range(4)]
    for off in (0, 2):
        L[off][off], L[off][off + 1] = _pair(a), _pair(c)
        L[off + 1][off], L[off + 1][off + 1] = _pair(c), _pair(b)
    return {
        "graph": {"edges": [["a", "b", _jitter(rng, 1.0, 0.10)]]},
        "map": {"kind": "piecewise",
                "breakpoints": [0.0, 0.3 + rng.uniform(-0.02, 0.02),
                                0.7 + rng.uniform(-0.02, 0.02), 1.0],
                "pieces": [{"P": zero, "L": zero}, {"P": zero, "L": L},
                           {"P": zero, "L": zero}]},
        "mesh": {"nodes": 41},
        "num_eigs": 60,
        "analysis": {"weyl": True, "heat": {"t": 0.01},
                     "bracketing": {"n": 50}},
    }

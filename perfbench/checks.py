"""Correctness gate of the benchmark: references, output parsing, checks.

The reference of a workload is computed once per run in its own process,
outside the timed region, from the same config the program receives:

- weyl-interval: the exact discrete tensor sum (lift of the 1-D spectrum);
- star3-delta: none of its own; the program reports the deviation of its
  spectrum from the tensor sum in ``analysis.json``;
- delta-fold: the full-space ground state (the boson ground state must
  equal it) and the mesh spacing that bounds the fold jumps;
- bracket-dense: the lowest eigenvalues from the shift-invert path, which
  the program's dense path must reproduce.
"""
from __future__ import annotations

import copy
import json
import math
import os

import numpy as np

from qg2p import cli, form_assembly, spectral_analysis
from qg2p.eigensolve import solve

REL_TOL = 1e-9       # eigenvalue agreement, relative to max(1, |lambda|_max)
PERTURBATION = 1e-6  # relative shift the gate must catch


def reference(workload: str, doc: dict) -> dict:
    cfg = cli.parse_config(doc)
    g, m = cli.build_map(cfg)
    mesh = cli.build_mesh(g, cfg.mesh)
    if workload == "weyl-interval":
        vc = cli.build_conditions(g, cfg.map)
        one = form_assembly.assemble_one_particle(g, vc, mesh)
        lam1 = solve(one, one.nreduced, force_dense=True).eigenvalues
        lam = spectral_analysis.lift_spectrum(lam1, cfg.num_eigs, cfg.sector)
        return {"eigenvalues": lam.tolist()}
    if workload == "delta-fold":
        form = form_assembly.assemble_two_particle(g, m, mesh)
        lam0 = solve(form, 1).eigenvalues[0]
        return {"ground_state_energy": float(lam0), "h_max": mesh.h_max,
                "nodes": mesh.nodes[0]}
    if workload == "bracket-dense":
        form = form_assembly.assemble_two_particle(g, m, mesh)
        lam = solve(form, cfg.num_eigs, force_dense=False).eigenvalues
        return {"eigenvalues": lam.tolist()}
    return {}


def read_outputs(outdir: str) -> dict:
    """What the checks look at, parsed from a request's output directory."""
    out = {"bytes_written": sum(e.stat().st_size for e in os.scandir(outdir)
                                if e.is_file())}
    path = os.path.join(outdir, "analysis.json")
    if os.path.exists(path):
        with open(path) as fh:
            out["analysis"] = json.load(fh)
    path = os.path.join(outdir, "counting.csv")
    if os.path.exists(path):
        with open(path) as fh:
            next(fh)
            out["eigenvalues"] = [float(line.split(",", 1)[0]) for line in fh]
    path = os.path.join(outdir, "example_delta.json")
    if os.path.exists(path):
        with open(path) as fh:
            out["example"] = json.load(fh)
    path = os.path.join(outdir, "folded.csv")
    if os.path.exists(path):
        with open(path) as fh:
            out["folded_rows"] = sum(1 for _ in fh) - 1
    return out


def _spectrum_error(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    return float(np.abs(got - want).max() / max(1.0, np.abs(want).max()))


def oracle_error(workload: str, out: dict, ref: dict) -> float:
    """Relative error of the request's spectrum against the reference."""
    try:
        if workload in ("weyl-interval", "bracket-dense"):
            return _spectrum_error(out["eigenvalues"], ref["eigenvalues"])
        if workload == "star3-delta":
            return float(out["analysis"]["lift_check"]["max_relative_deviation"])
        want = ref["ground_state_energy"]
        return abs(out["example"]["ground_state_energy"] - want) / max(1.0, abs(want))
    except (KeyError, TypeError):
        return math.inf


def check(workload: str, out: dict, ref: dict) -> list:
    """Reasons the request's outputs are wrong; empty when they pass."""
    bad = []
    err = oracle_error(workload, out, ref)
    if not err <= REL_TOL:
        bad.append(f"spectrum deviates from the reference by {err:.3e}")
    a = out.get("analysis", {})
    flags = {
        "weyl-interval": [("lift_check", "pass"), ("weyl", "pass")],
        "star3-delta": [("lift_check", "pass")],
        "bracket-dense": [("bracketing", "ok"), ("bracketing", "counting_ok"),
                          ("weyl", "pass")],
    }.get(workload, [])
    for section, key in flags:
        if a.get(section, {}).get(key) is not True:
            bad.append(f"analysis.json {section}.{key} is not true")
    if workload == "bracket-dense":
        heat = a.get("heat_trace", {}).get("value")
        if not (isinstance(heat, float) and math.isfinite(heat) and heat > 0):
            bad.append("analysis.json has no finite heat trace")
    if workload == "delta-fold":
        ex = out.get("example", {})
        bound = ref["h_max"] ** 2
        for key in ("axis_jump_x", "axis_jump_y"):
            if not ex.get(key, math.inf) < bound:
                bad.append(f"{key} is not below h_max^2 = {bound:.3e}")
        if out.get("folded_rows") != (2 * ref["nodes"] - 1) ** 2:
            bad.append("folded.csv does not cover the doubled grid")
    return bad


def perturb(workload: str, out: dict) -> dict:
    """A copy of the outputs whose spectrum is off by PERTURBATION."""
    out = copy.deepcopy(out)
    if "eigenvalues" in out:
        out["eigenvalues"] = [v * (1.0 + PERTURBATION) for v in out["eigenvalues"]]
    if "example" in out:
        e = out["example"]["ground_state_energy"]
        out["example"]["ground_state_energy"] = e + PERTURBATION * max(1.0, abs(e))
    lift = out.get("analysis", {}).get("lift_check")
    if lift is not None and workload == "star3-delta":
        # the program reports the deviation itself; a spectrum this far off
        # would report at least the perturbation
        lift["max_relative_deviation"] += PERTURBATION
    return out

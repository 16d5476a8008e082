"""Command-line front end: validate configs, compute spectra, run the
asymptotic analyses, and reproduce the folded delta-interaction example.

Exit codes: 0 success, 2 validation/config failure, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bc_maps, form_assembly, spectral_analysis, symmetry
from .bc_maps import BoundaryMap, MapError, validate_map
from .eigensolve import SolveError, SpectrumResult, counting_function, solve
from .form_assembly import AssemblyError, DiscreteForm, Mesh
from .graph_core import BoundaryIndexMap, GraphError, MetricGraph, build_graph
from .symmetry import SymmetryError
from .vertex_conditions import (ConditionError, VertexConditions,
                                delta_family, standard_family, validate_ab)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# ---------------------------------------------------------------------------
# matrix (de)serialization: nested arrays of [re, im] pairs


def matrix_from_json(obj) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad matrix entry: {exc}")
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ConfigError("matrices must be nested arrays of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def matrix_to_json(m: np.ndarray):
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig:
    graph: dict
    map: dict
    mesh: dict
    sector: str = "full"
    num_eigs: int = 10
    particles: int = 2
    analysis: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {"graph": self.graph, "map": self.map, "mesh": self.mesh,
                "sector": self.sector, "num_eigs": self.num_eigs,
                "particles": self.particles, "analysis": self.analysis,
                "output": self.output}


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - {"graph", "map", "mesh", "sector", "num_eigs",
                          "particles", "analysis", "output"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("graph", "map", "mesh"):
        if key not in doc and not (key == "graph"
                                   and doc.get("map", {}).get("kind") == "delta_example"):
            raise ConfigError(f"config needs a {key!r} section")
    cfg = RunConfig(graph=doc.get("graph", {}), map=dict(doc["map"]),
                    mesh=dict(doc["mesh"]),
                    sector=doc.get("sector", "full"),
                    num_eigs=int(doc.get("num_eigs", 10)),
                    particles=int(doc.get("particles", 2)),
                    analysis=dict(doc.get("analysis", {})),
                    output=dict(doc.get("output", {})))
    if cfg.sector not in ("full", "boson", "fermion"):
        raise ConfigError(f"unknown sector {cfg.sector!r}")
    if cfg.particles not in (1, 2):
        raise ConfigError("particles must be 1 or 2")
    if cfg.num_eigs < 1:
        raise ConfigError("num_eigs must be positive")
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return parse_config(doc)


def serialize_config(cfg: RunConfig) -> str:
    return json.dumps(cfg.to_doc(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# builders


def build_mesh(g: MetricGraph, mesh_spec: dict) -> Mesh:
    if "h" in mesh_spec:
        return Mesh.by_spacing(g, float(mesh_spec["h"]))
    if "nodes" in mesh_spec:
        return Mesh.uniform(g, int(mesh_spec["nodes"]))
    if "nodes_per_edge" in mesh_spec:
        return Mesh(g, tuple(int(n) for n in mesh_spec["nodes_per_edge"]))
    raise ConfigError("mesh needs 'h', 'nodes' or 'nodes_per_edge'")


def _potential_from_spec(spec: dict):
    kind = spec.get("kind", "gaussian")
    if kind == "gaussian":
        amp = float(spec.get("amplitude", 1.0))
        width = float(spec.get("width", 1.0))
        return lambda x, y: amp * np.exp(-(x * x + y * y) / (2.0 * width**2))
    if kind == "zero":
        return lambda x, y: 0.0
    raise ConfigError(f"unknown potential kind {spec.get('kind')!r}")


def build_conditions(g: MetricGraph, spec: dict) -> VertexConditions:
    """One-particle conditions from a descriptor (family name, delta
    strength, explicit (A, B) or explicit (P, L) matrices)."""
    if "family" in spec:
        return standard_family(spec["family"], g,
                               alpha=spec.get("alpha"), mask=spec.get("mask"))
    if "delta_strength" in spec:
        return delta_family(g, float(spec["delta_strength"]))
    if "A" in spec and "B" in spec:
        return VertexConditions.from_ab(matrix_from_json(spec["A"]),
                                        matrix_from_json(spec["B"]))
    if "P" in spec and "L" in spec:
        return VertexConditions.from_pl(matrix_from_json(spec["P"]),
                                        matrix_from_json(spec["L"]))
    raise ConfigError("conditions need 'family', 'delta_strength', "
                      "('A','B') or ('P','L')")


def _entry(spec, key: str):
    try:
        return spec[key]
    except (KeyError, TypeError):
        raise ConfigError(f"map spec needs {key!r}") from None


def build_map(cfg: RunConfig):
    """(graph, BoundaryMap) from the config; the delta example supplies its
    own truncated graph."""
    spec = cfg.map
    kind = spec.get("kind")
    if kind == "delta_example":
        v = _potential_from_spec(spec.get("potential", {}))
        return bc_maps.delta_example_map(v, float(spec.get("truncation", 1.0)))

    g = build_graph(cfg.graph)
    if kind == "lifted":
        vc = build_conditions(g, spec)
        return g, bc_maps.lift_one_particle(vc, g)
    if kind == "constant":
        return g, bc_maps.constant_map(matrix_from_json(_entry(spec, "P")),
                                       matrix_from_json(_entry(spec, "L")))
    if kind == "piecewise":
        pieces = [(matrix_from_json(_entry(p, "P")),
                   matrix_from_json(_entry(p, "L")))
                  for p in _entry(spec, "pieces")]
        return g, bc_maps.piecewise_map(_entry(spec, "breakpoints"), pieces)
    raise ConfigError(f"unknown map kind {kind!r}")


def validate_on_mesh(m: BoundaryMap, mesh: Mesh = None):
    """validate_map at the mesh's y-nodes, the points assembly evaluates
    (the default samples without a mesh)."""
    ys = None
    if mesh is not None:
        ys = np.unique(np.concatenate([mesh.normalized(e)
                                       for e in range(mesh.graph.E)]))
    return validate_map(m, ys=ys)


def build_validated(cfg: RunConfig):
    """(graph, map, mesh); a map that fails validate_on_mesh is a MapError,
    raised before anything is assembled."""
    g, m = build_map(cfg)
    mesh = build_mesh(g, cfg.mesh)
    errors = validate_on_mesh(m, mesh).errors
    if errors:
        raise MapError(f"{errors[0]} ({len(errors)} map error(s); "
                       "see 'qg2p validate')")
    return g, m, mesh


def assemble_from_config(cfg: RunConfig):
    g, m, mesh = build_validated(cfg)
    if cfg.particles == 1:
        vc = build_conditions(g, cfg.map)
        form = form_assembly.assemble_one_particle(g, vc, mesh)
        if cfg.sector != "full":
            raise ConfigError("sectors apply to two-particle runs only")
        return g, m, mesh, form
    form = form_assembly.assemble_two_particle(g, m, mesh)
    if cfg.sector != "full":
        sign = +1 if cfg.sector == "boson" else -1
        form = symmetry.assemble_symmetric_form(form, sign)
    return g, m, mesh, form


# ---------------------------------------------------------------------------
# output helpers


def _outdir(cfg: RunConfig, override: str = None) -> str:
    d = override or cfg.output.get("dir", ".")
    os.makedirs(d, exist_ok=True)
    return d


def write_eigenvalue_csv(path: str, result: SpectrumResult) -> None:
    mults = []
    for mean, m in result.multiplicities():
        mults.extend([m] * m)
    with open(path, "w") as fh:
        fh.write("index,eigenvalue,multiplicity,residual\n")
        for i, lam in enumerate(result.eigenvalues):
            fh.write(f"{i},{lam:.12e},{mults[i]},{result.residuals[i]:.6e}\n")


def _json_dump(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(cfg: RunConfig, outdir: str = None) -> int:
    report = {"graph": {}, "map": {}, "notes": []}
    try:
        g, m = build_map(cfg)
    except (GraphError, ConditionError, MapError, ConfigError) as exc:
        report["notes"].append(str(exc))
        print(json.dumps(report, indent=2, sort_keys=True))
        return EXIT_VALIDATION

    report["graph"] = {"edges": g.E, "vertices": g.V,
                       "total_length": g.total_length}
    idx = BoundaryIndexMap(g)
    mesh_hint = None
    try:
        mesh_hint = build_mesh(g, cfg.mesh)
    except (ConfigError, AssemblyError):
        pass
    mrep = validate_on_mesh(m, mesh_hint)
    report["map"] = {
        "ok": mrep.ok,
        "L_max": mrep.L_max,
        "block_structured": mrep.block_structured,
        "corner_regular": mrep.corner_regular,
        "max_projector_defect": mrep.max_projector_defect,
        "max_self_adjointness_defect": mrep.max_sa_defect,
        "errors": list(mrep.errors),
        "warnings": list(mrep.warnings),
    }
    report["map"]["noninteracting"] = bc_maps.is_noninteracting(m, idx)
    report["map"]["local"] = bc_maps.is_local_two_particle(m, idx)
    report["semiboundedness_constant"] = form_assembly.semibound_constant(m, g)
    if cfg.map.get("kind") == "delta_example":
        report["notes"].append(
            "non-compact two-half-line configuration truncated to length "
            f"{cfg.map.get('truncation', 1.0)} with far-end Dirichlet "
            "conditions; results depend on the truncation")
    out = json.dumps(report, indent=2, sort_keys=True)
    print(out)
    if outdir or cfg.output.get("dir"):
        _json_dump(os.path.join(_outdir(cfg, outdir), "validation.json"), report)
    return EXIT_OK if mrep.ok else EXIT_VALIDATION


def cmd_spectrum(cfg: RunConfig, outdir: str = None) -> int:
    g, m, mesh, form = assemble_from_config(cfg)
    result = solve(form, cfg.num_eigs, sector=cfg.sector)
    d = _outdir(cfg, outdir)
    write_eigenvalue_csv(os.path.join(d, "eigenvalues.csv"), result)
    _json_dump(os.path.join(d, "spectrum.json"), {
        "sector": cfg.sector,
        "num_eigs": cfg.num_eigs,
        "method": result.method,
        "pencil_size": result.meta["pencil_size"],
        "C_infty": form.C_infty,
        "h_max": mesh.h_max,
        "max_residual": float(result.residuals.max()),
    })
    print(f"wrote {cfg.num_eigs} eigenvalues ({result.method}) to {d}")
    return EXIT_OK


def cmd_analyze(cfg: RunConfig, outdir: str = None,
                window: tuple = None) -> int:
    g, m, mesh, form = assemble_from_config(cfg)
    result = solve(form, cfg.num_eigs, sector=cfg.sector)
    lam = result.eigenvalues
    toggles = cfg.analysis
    window = window or tuple(toggles.get("window", ())) or None
    analysis = {"sector": cfg.sector, "num_eigs": cfg.num_eigs}
    d = _outdir(cfg, outdir)

    if toggles.get("weyl", True):
        if cfg.particles == 1:
            rep = spectral_analysis.weyl_fit_one_particle(
                lam, g, window=window, h_max=mesh.h_max)
        else:
            rep = spectral_analysis.weyl_fit_two_particle(
                lam, g, sector=cfg.sector, window=window, h_max=mesh.h_max)
        analysis["weyl"] = {"slope": rep.slope, "target": rep.target,
                            "relative_error": rep.relative_error,
                            "window": list(rep.window), "n_used": rep.n_used,
                            "pass": rep.relative_error < toggles.get("weyl_tol", 0.15)}
        with open(os.path.join(d, "counting.csv"), "w") as fh:
            fh.write("lambda,N,weyl_line\n")
            for v in lam:
                fh.write(f"{v:.12e},{counting_function(lam, v)},"
                         f"{rep.slope * (v if cfg.particles == 2 else np.sqrt(max(v, 0.0))):.12e}\n")

    if "heat" in toggles:
        t = float(toggles["heat"].get("t", 0.01))
        analysis["heat_trace"] = spectral_analysis.heat_trace(lam, t)

    if "bracketing" in toggles:
        n = int(toggles["bracketing"].get("n", 50))
        analysis["bracketing"] = _run_bracketing(g, m, mesh, cfg, n)

    if toggles.get("lift_check") and m.noninteracting_tag:
        vc = build_conditions(g, cfg.map)
        one = form_assembly.assemble_one_particle(g, vc, mesh)
        r1 = solve(one, min(one.nreduced, 4 * cfg.num_eigs))
        oracle = spectral_analysis.lift_spectrum(r1.eigenvalues, len(lam),
                                                 sector=cfg.sector)
        dev = float(np.abs(oracle - lam).max() / max(1.0, np.abs(lam).max()))
        analysis["lift_check"] = {"max_relative_deviation": dev,
                                  "pass": dev < 1e-9}

    _json_dump(os.path.join(d, "analysis.json"), analysis)
    print(json.dumps(analysis, indent=2, sort_keys=True))
    return EXIT_OK


def _run_bracketing(g, m: BoundaryMap, mesh: Mesh, cfg: RunConfig, n: int):
    rep = spectral_analysis.bracketing_run(g, m, mesh, n, sector=cfg.sector)
    return {"ok": rep.ok, "n_checked": rep.n_checked,
            "max_lower_violation": rep.max_lower_violation,
            "max_upper_violation": rep.max_upper_violation,
            "counting_ok": rep.counting_ok}


def cmd_example_delta(cfg: RunConfig, outdir: str = None) -> int:
    """Boson ground state of the truncated delta-line example, folded back
    to the plane; writes the folded grid and a continuity report."""
    if cfg.map.get("kind") != "delta_example":
        raise ConfigError("example-delta needs a map of kind 'delta_example'")
    g, m, mesh = build_validated(cfg)
    form = form_assembly.assemble_two_particle(g, m, mesh)
    sym = symmetry.assemble_symmetric_form(form, +1)
    result = solve(sym, max(1, cfg.num_eigs), sector="boson")

    psi = result.eigenvectors[:, 0].real
    psi = psi / np.abs(psi).max()
    n0, n1 = mesh.nodes
    if n0 != n1:
        raise ConfigError("the folded example needs equal node counts")

    def rect(a, b):
        na, nb = mesh.rect_shape(a, b)
        off = mesh.rect_offset(a, b)
        return psi[off:off + na * nb].reshape(na, nb)

    # edge 0 carries the positive half-axis, edge 1 the negative one
    p11, p12, p21, p22 = rect(0, 0), rect(0, 1), rect(1, 0), rect(1, 1)
    folded = bc_maps.fold_to_plane(p11, p12, p21, p22)
    jump_x, jump_y = bc_maps.fold_axis_jumps(p11, p12, p21, p22)

    d = _outdir(cfg, outdir)
    T = float(cfg.map.get("truncation", 1.0))
    coords = np.linspace(-T, T, folded.shape[0])
    with open(os.path.join(d, "folded.csv"), "w") as fh:
        fh.write("x,y,psi\n")
        for i, x in enumerate(coords):
            for j, y in enumerate(coords):
                fh.write(f"{x:.9e},{y:.9e},{folded[i, j]:.12e}\n")
    report = {
        "ground_state_energy": float(result.eigenvalues[0]),
        "axis_jump_x": jump_x,
        "axis_jump_y": jump_y,
        "truncation": T,
        "mesh_nodes": n0,
    }
    _json_dump(os.path.join(d, "example_delta.json"), report)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _parse_window(text: str):
    try:
        lo, hi = text.split(":")
        return (float(lo), float(hi))
    except ValueError:
        raise ConfigError(f"window must be 'lo:hi', got {text!r}")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qg2p",
        description="Spectra of one- and two-particle Laplacians on metric "
                    "graphs with singular contact interactions")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("validate", "spectrum", "analyze", "example-delta"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--mesh-h", type=float, default=None)
        p.add_argument("--num-eigs", type=int, default=None)
        p.add_argument("--sector", choices=("full", "boson", "fermion"),
                       default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--window", default=None)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.mesh_h is not None:
            cfg.mesh = {"h": args.mesh_h}
        if args.num_eigs is not None:
            cfg.num_eigs = args.num_eigs
        if args.sector is not None:
            cfg.sector = args.sector
        window = _parse_window(args.window) if args.window else None

        if args.command == "validate":
            return cmd_validate(cfg, args.out)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, args.out)
        if args.command == "analyze":
            return cmd_analyze(cfg, args.out, window=window)
        return cmd_example_delta(cfg, args.out)
    except (ConfigError, GraphError, ConditionError, MapError,
            SymmetryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (AssemblyError, SolveError, spectral_analysis.AnalysisError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

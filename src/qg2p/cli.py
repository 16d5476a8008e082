"""Command-line front end: validate configs, compute spectra, run the
asymptotic analyses, and reproduce the folded delta-interaction example.

Exit codes: 0 success, 2 validation/config failure (a bad map, mesh or
override included), 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import bc_maps, form_assembly, spectral_analysis, symmetry
from .bc_maps import MapError, validate_map
from .eigensolve import SolveError, SpectrumResult, check_memory, solve
from .form_assembly import AssemblyError, Mesh
from .graph_core import BoundaryIndexMap, GraphError, MetricGraph, build_graph
from .symmetry import SymmetryError
from .vertex_conditions import (ConditionError, VertexConditions,
                                delta_family, standard_family)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# the errors of inputs that break the paper's hypotheses: exit 2
INPUT_ERRORS = (ConfigError, GraphError, ConditionError, MapError,
                AssemblyError, SymmetryError)


# ---------------------------------------------------------------------------
# matrix deserialization: nested arrays of [re, im] pairs


def matrix_from_json(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ConfigError("matrices must be nested arrays of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


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


def parse_config(doc: dict) -> RunConfig:
    """The RunConfig of a config document, or ConfigError: sections are
    objects, counts integers and the analysis entries well formed; sectors,
    bracketing and lift_check need two particles."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("graph", "map", "mesh", "analysis", "output"):
        if not isinstance(doc.get(key, {}), dict):
            raise ConfigError(f"config section {key!r} must be an object")
    for key in ("graph", "map", "mesh"):
        if key not in doc and not (key == "graph"
                                   and doc.get("map", {}).get("kind") == "delta_example"):
            raise ConfigError(f"config needs a {key!r} section")
    cfg = RunConfig(**{"graph": {}, **doc})
    if type(cfg.num_eigs) is not int or type(cfg.particles) is not int:
        raise ConfigError("num_eigs and particles must be integers")
    cfg.analysis = _checked_analysis(cfg.analysis)
    if cfg.sector not in ("full", "boson", "fermion"):
        raise ConfigError(f"unknown sector {cfg.sector!r}")
    if cfg.particles not in (1, 2):
        raise ConfigError("particles must be 1 or 2")
    two_only = cfg.sector != "full" or "bracketing" in cfg.analysis
    if cfg.particles == 1 and (two_only or cfg.analysis.get("lift_check")):
        raise ConfigError("sectors, bracketing and lift_check need two particles")
    if cfg.num_eigs < 1:
        raise ConfigError("num_eigs must be positive")
    out_dir = cfg.output.get("dir", ".")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("output.dir must be a nonempty string")
    return cfg


def load_config(path: str, **overrides) -> RunConfig:
    """The config at ``path`` with the non-None ``overrides`` (top-level
    keys) replacing its own entries before any check."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if isinstance(doc, dict):
        doc.update((key, v) for key, v in overrides.items() if v is not None)
    return parse_config(doc)


def _window(pair) -> tuple:
    """(lo, hi) from two numbers, or numeric strings, with finite lo < hi."""
    try:
        lo, hi = map(float, pair) if isinstance(pair, (list, tuple)) else ()
    except (TypeError, ValueError):
        lo = hi = np.nan
    if not -np.inf < lo < hi < np.inf:
        raise ConfigError(f"window must be two finite numbers lo < hi, got {pair!r}")
    return lo, hi


def _positive(v, kind, what: str):
    if type(v) not in (int, kind) or not 0 < v <= sys.float_info.max:
        raise ConfigError(f"{what} must be a positive {kind.__name__}")
    return kind(v)


def _checked_analysis(a: dict) -> dict:
    """A copy of ``a`` with the entries cmd_analyze reads checked and filled
    in: window (lo, hi), weyl_tol, heat {"t": t}, bracketing {"n": n}, the
    bools weyl and lift_check; any other key is a ConfigError."""
    unknown = set(a) - {"window", "weyl", "weyl_tol", "heat", "bracketing",
                        "lift_check"}
    if unknown:
        raise ConfigError(f"unknown analysis keys: {sorted(unknown)}")
    if any(type(a.get(k, False)) is not bool for k in ("weyl", "lift_check")):
        raise ConfigError("analysis weyl and lift_check must be true or false")
    a = dict(a)
    if "window" in a:
        a["window"] = _window(a["window"])
    if "weyl_tol" in a:
        a["weyl_tol"] = _positive(a["weyl_tol"], float, "analysis weyl_tol")
    for key, entry, default, kind in (("heat", "t", 0.01, float),
                                      ("bracketing", "n", 50, int)):
        if key in a:
            v = a[key].get(entry, default) if isinstance(a[key], dict) else None
            a[key] = {entry: _positive(v, kind, f"analysis {key}.{entry}")}
    return a


# ---------------------------------------------------------------------------
# builders


def build_mesh(g: MetricGraph, mesh_spec: dict) -> Mesh:
    """The mesh of a spacing 'h' or of integer 'nodes' or 'nodes_per_edge'."""
    if "h" in mesh_spec:
        return Mesh.by_spacing(g, float(mesh_spec["h"]))
    counts = ([mesh_spec["nodes"]] * g.E if "nodes" in mesh_spec
              else mesh_spec.get("nodes_per_edge"))
    if counts is not None:
        if any(type(n) is not int for n in counts):
            raise ConfigError(f"node counts must be integers, got {mesh_spec}")
        return Mesh(g, tuple(counts))
    raise ConfigError("mesh needs 'h', 'nodes' or 'nodes_per_edge'")


def _potential_from_spec(spec: dict):
    kind = spec.get("kind", "gaussian")
    if kind == "gaussian":
        amp = float(spec.get("amplitude", 1.0))
        width = float(spec.get("width", 1.0))
        denom = 2.0 * width ** 2
        if not 0.0 < denom < np.inf:
            raise ConfigError(f"gaussian width {width!r} has no positive finite square")
        return lambda x, y: amp * np.exp(-(x * x + y * y) / denom)
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


def build_map(cfg: RunConfig):
    """(graph, BoundaryMap) from the config; the delta example supplies its
    own truncated graph.  A map whose dimension is not 4 E^2 is a MapError,
    raised before anything samples it."""
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
        m = bc_maps.constant_map(matrix_from_json(spec["P"]),
                                 matrix_from_json(spec["L"]))
    elif kind == "piecewise":
        pieces = [(matrix_from_json(p["P"]), matrix_from_json(p["L"]))
                  for p in spec["pieces"]]
        m = bc_maps.piecewise_map(spec["breakpoints"], pieces)
    else:
        raise ConfigError(f"unknown map kind {kind!r}")
    if m.dim != 4 * g.E ** 2:
        raise MapError(f"map dimension {m.dim} != 4 E^2 = {4 * g.E ** 2}")
    return g, m


def checked_inputs(cfg: RunConfig):
    """(graph, map, mesh) of the config; nothing samples the map.  The one
    input boundary: a builder's plain TypeError, ValueError, AttributeError,
    KeyError or ArithmeticError (a malformed entry) becomes a ConfigError; a
    one-particle run needs a lifted map, and every run finite stiffness and
    mass."""
    try:
        g, m = build_map(cfg)
        mesh = build_mesh(g, cfg.mesh)
    except INPUT_ERRORS:
        raise
    except (TypeError, ValueError, AttributeError, KeyError,
            ArithmeticError) as exc:
        raise ConfigError(f"malformed config entry ({type(exc).__name__}: "
                          f"{exc})") from None
    if cfg.particles == 1 and "conditions" not in m.meta:
        raise ConfigError("one-particle runs need a map of kind 'lifted'")
    form_assembly.check_finite_scale(mesh, cfg.particles)
    return g, m, mesh


def sampled_report(m, mesh: Mesh, one: bool = False):
    """(``validate_map`` report, stacks) of the map's y-node samples, its
    first sampling, or a SolveError when they would not fit in memory.  A
    one-particle lift ignores y: its one sample, at y = 0, stands for all."""
    ys = mesh.y_nodes
    at = [0.0] if one else ys
    check_memory(f"sampling the map at {len(at)} y-nodes",
                 bc_maps.SAMPLE_BYTES_PER_ENTRY * len(at) * m.dim ** 2)
    stacks = m.samples(at)
    return validate_map(m, ys, stacks), stacks


def assemble_from_config(cfg: RunConfig, inputs: tuple = None):
    """(graph, map, mesh, pencils): the ``symmetry.sector_pencils`` of the
    config's particles and sector; the assembled form is freed on return.
    Inputs failing ``checked_inputs`` raise first (``inputs``, if given,
    have passed it), then a mesh whose assembly would not fit in the free
    memory (a SolveError, from node counts alone), then map errors: of a
    one-particle lift at y = 0 (it ignores y), else of ``sampled_report``."""
    g, m, mesh = inputs or checked_inputs(cfg)
    one = cfg.particles == 1
    ndof = mesh.ndof1 if one else mesh.ndof2
    check_memory(f"{'one' if one else 'two'}-particle assembly of {ndof} dofs",
                 form_assembly.ASSEMBLY_BYTES_PER_DOF * ndof)
    report = validate_map(m, [0.0]) if one else sampled_report(m, mesh)[0]
    if report.errors:
        raise MapError(f"{report.errors[0]} ({len(report.errors)} map "
                       "error(s); see 'qg2p validate')")
    form = (form_assembly.assemble_one_particle(g, m.meta["conditions"], mesh)
            if one else form_assembly.assemble_two_particle(g, m, mesh))
    return g, m, mesh, symmetry.sector_pencils(form, cfg.sector)


# ---------------------------------------------------------------------------
# output helpers


def _outdir(cfg: RunConfig, override: str = None) -> str:
    d = override or cfg.output.get("dir", ".")
    os.makedirs(d, exist_ok=True)
    return d


def _write_csv(path: str, header: str, columns, fmt: str) -> None:
    """The header, then one ``fmt % row`` line per row of the columns: the
    bytes of ``np.savetxt(fh, rows, fmt=fmt)``.  Each column (as float64)
    formats each of its distinct values, by bit pattern, once."""
    cells = []
    for col, f in zip(columns, fmt.split(",")):
        bits, at = np.unique(np.asarray(col, float).view(np.int64), return_inverse=True)
        cells.append(np.array([f % v for v in bits.view(float).tolist()], object)[at])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def write_eigenvalue_csv(path: str, result: SpectrumResult) -> None:
    counts = result.counts      # a chain's size: its count less its start
    _write_csv(path, "index,eigenvalue,multiplicity,residual",
               (np.arange(result.k), result.eigenvalues,
                counts - np.searchsorted(counts, counts), result.residuals),
               "%d,%.12e,%d,%.6e")


def _json_text(obj, name: str) -> str:
    """``obj`` as strict JSON; a NaN or infinity is a SolveError naming it."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        bad = [s.strip(" ,") for s in json.dumps(obj, indent=2).splitlines()
               if s.rstrip(",").endswith(("NaN", "Infinity"))]
        raise SolveError(f"{name}: non-finite {', '.join(bad)}") from None


def _json_dump(path: str, obj) -> str:
    """Write ``obj`` to ``path`` as strict JSON and return the text."""
    text = _json_text(obj, os.path.basename(path))
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(cfg: RunConfig, outdir: str = None) -> int:
    report = {"graph": {}, "map": {}, "notes": []}
    try:
        g, m, mesh = checked_inputs(cfg)
        mrep, (P, L) = sampled_report(m, mesh, cfg.particles == 1)
    except INPUT_ERRORS as exc:
        report["notes"].append(str(exc))
        print(_json_text(report, "validate report"))
        return EXIT_VALIDATION

    report["graph"] = {"edges": g.E, "vertices": g.V,
                       "total_length": g.total_length}
    idx = BoundaryIndexMap(g)
    report["map"] = {
        **asdict(mrep),
        "noninteracting": bc_maps.is_noninteracting(P, L, idx),
        "local": bc_maps.is_local_two_particle(P, L, idx),
    }
    report["semiboundedness_constant"] = form_assembly.semibound_constant(
        mrep.L_max, min(g.lengths))
    if cfg.map.get("kind") == "delta_example":
        report["notes"].append(
            "non-compact two-half-line configuration truncated to length "
            f"{cfg.map.get('truncation', 1.0)} with far-end Dirichlet "
            "conditions; results depend on the truncation")
    if not mrep.ok:   # a map with errors may have inf defects: write null
        report = json.loads(json.dumps(report), parse_constant=lambda c: None)
    print(_json_text(report, "validate report"))
    if outdir or cfg.output.get("dir"):
        _json_dump(os.path.join(_outdir(cfg, outdir), "validation.json"), report)
    return EXIT_OK if mrep.ok else EXIT_VALIDATION


def cmd_spectrum(cfg: RunConfig, outdir: str = None) -> int:
    g, m, mesh, pencils = assemble_from_config(cfg)
    result = solve(pencils, cfg.num_eigs)
    d = _outdir(cfg, outdir)   # JSON first: a non-finite residual stops the CSV
    _json_dump(os.path.join(d, "spectrum.json"), {
        "sector": cfg.sector,
        "num_eigs": cfg.num_eigs,
        "method": result.method,
        "h_max": mesh.h_max,
        "max_residual": float(result.residuals.max()),
        **result.meta,
    })
    write_eigenvalue_csv(os.path.join(d, "eigenvalues.csv"), result)
    print(f"wrote {cfg.num_eigs} eigenvalues ({result.method}) to {d}")
    return EXIT_OK


def cmd_analyze(cfg: RunConfig, outdir: str = None) -> int:
    g, m, mesh, pencils = assemble_from_config(cfg)
    l_max = pencils[0].meta.get("L_max")
    toggles = cfg.analysis      # one solve, for the bracketing's n too
    result = solve(pencils, max(cfg.num_eigs, toggles.get("bracketing", {"n": 0})["n"]),
                   vectors=False)
    del pencils                 # the analyses' own solves run without them
    lam, counts = result.eigenvalues[:cfg.num_eigs], result.counts[:cfg.num_eigs]
    window = toggles.get("window")
    analysis = {"sector": cfg.sector, "num_eigs": cfg.num_eigs}
    d = _outdir(cfg, outdir)

    if toggles.get("weyl", True):
        if cfg.particles == 1:
            x = spectral_analysis.wave_number(lam)
            rep = spectral_analysis.weyl_fit_one_particle(
                lam, g, window=window, h_max=mesh.h_max, counts=counts)
        else:
            x = lam
            rep = spectral_analysis.weyl_fit_two_particle(
                lam, g, sector=cfg.sector, window=window, h_max=mesh.h_max,
                counts=counts)
        tol = toggles.get("weyl_tol", 0.15)
        analysis["weyl"] = {**asdict(rep), "pass": rep.relative_error < tol}
        _write_csv(os.path.join(d, "counting.csv"), "lambda,N,weyl_line",
                   (lam, counts, rep.slope * x), "%.12e,%d,%.12e")

    if "heat" in toggles:
        analysis["heat_trace"] = spectral_analysis.heat_trace(
            lam, toggles["heat"]["t"])

    if "bracketing" in toggles:
        analysis["bracketing"] = asdict(spectral_analysis.bracketing_run(
            mesh, l_max, cfg.sector,
            toggles["bracketing"]["n"], result.eigenvalues))

    if toggles.get("lift_check") and "conditions" in m.meta:
        oracle = spectral_analysis.lifted_spectrum(
            g, m.meta["conditions"], mesh, len(lam), cfg.sector)
        dev = float(np.abs(oracle - lam).max() / max(1.0, np.abs(lam).max()))
        analysis["lift_check"] = {"max_relative_deviation": dev,
                                  "pass": dev < 1e-9}

    print(_json_dump(os.path.join(d, "analysis.json"), analysis))
    return EXIT_OK


def cmd_example_delta(cfg: RunConfig, outdir: str = None) -> int:
    """Boson ground state of the truncated delta-line example, folded back
    to the plane; writes the folded grid and a continuity report."""
    if cfg.map.get("kind") != "delta_example":
        raise ConfigError("example-delta needs a map of kind 'delta_example'")
    if cfg.sector == "fermion":
        raise ConfigError("example-delta solves the boson sector; "
                          "sector must be 'full' or 'boson'")
    g, m, mesh = checked_inputs(cfg)   # samples nothing: checked before assembly
    if len(set(mesh.nodes)) > 1:
        raise ConfigError("the folded example needs equal node counts")
    *_, pencils = assemble_from_config(replace(cfg, sector="boson"), (g, m, mesh))
    result = solve(pencils, cfg.num_eigs)

    psi = result.eigenvectors[:, 0].real   # sign fixed: the fold peaks at +1
    psi = psi / psi[np.argmax(np.abs(psi))]

    # edge 0 carries the positive half-axis, edge 1 the negative one; equal
    # node counts cut the ndof1 x ndof1 grid into D_00, D_01, D_10, D_11
    (p11, p12), (p21, p22) = (np.hsplit(half, 2) for half in
                              np.vsplit(psi.reshape(mesh.ndof1, mesh.ndof1), 2))
    folded = bc_maps.fold_to_plane(p11, p12, p21, p22)
    jump_x, jump_y = bc_maps.fold_axis_jumps(p11, p12, p21, p22)

    d = _outdir(cfg, outdir)
    T = float(cfg.map.get("truncation", 1.0))
    coords = np.linspace(-T, T, folded.shape[0])
    x, y = np.meshgrid(coords, coords, indexing="ij")
    _write_csv(os.path.join(d, "folded.csv"), "x,y,psi",
               (x.ravel(), y.ravel(), folded.ravel()), "%.9e,%.9e,%.12e")
    report = {
        "ground_state_energy": float(result.eigenvalues[0]),
        "axis_jump_x": jump_x,
        "axis_jump_y": jump_y,
        "truncation": T,
        "mesh_nodes": mesh.nodes[0],
    }
    print(_json_dump(os.path.join(d, "example_delta.json"), report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


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
        if name == "analyze":
            p.add_argument("--window", default=None)
    return ap


@np.errstate(all="ignore")   # a failing run prints its one line, no warnings
def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        mesh = None if args.mesh_h is None else {"h": args.mesh_h}
        cfg = load_config(args.config, mesh=mesh, num_eigs=args.num_eigs,
                          sector=args.sector)
        if getattr(args, "window", None):
            cfg.analysis["window"] = _window(args.window.split(":"))

        if args.command == "validate":
            return cmd_validate(cfg, args.out)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, args.out)
        if args.command == "analyze":
            return cmd_analyze(cfg, args.out)
        return cmd_example_delta(cfg, args.out)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SolveError, spectral_analysis.AnalysisError,
            np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

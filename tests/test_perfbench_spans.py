"""The benchmark's traced mode patches `qg2p` functions by module attribute
(`perfbench/spans.py`); a rename or deletion there must fail here, not only
in a traced benchmark run."""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "perfbench"))

import spans  # noqa: E402
from run import COUNTS  # noqa: E402

from qg2p import cli, form_assembly, symmetry  # noqa: E402


def test_tracer_spans_a_spectrum_request_and_uninstalls(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "graph": {"edges": [["a", "b", 1.0]]},
        "map": {"kind": "lifted", "family": "dirichlet"},
        "mesh": {"nodes": 9}, "num_eigs": 3}))
    tracer = spans.Tracer()
    tracer.install()
    patched = list(tracer._saved)
    try:
        assert all(getattr(owner, attr) is not orig
                   for owner, attr, orig in patched)
        code = tracer.request(cli.main, ["spectrum", "--config", str(config),
                                         "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {"cli.config", "cli.cmd", "form_assembly.assemble",
            "eigensolve.solve"} <= names
    assert tracer.request_metrics()["eigensolve.solve_calls"] == 1
    assert patched and all(getattr(owner, attr) is orig
                           for owner, attr, orig in patched)


def test_tracer_spans_an_analyze_request_with_strict_json_metrics(tmp_path):
    """On a map that splits into sectors, the traced sizes are those of the
    config's own form and pencils, and every count repeats exactly."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "graph": {"edges": [["a", "b", 1.0]]},
        "map": {"kind": "lifted", "family": "dirichlet"},
        "mesh": {"nodes": 41}, "num_eigs": 60,
        "analysis": {"weyl": True, "heat": {"t": 0.01},
                     "bracketing": {"n": 10}, "lift_check": True}}))
    tracer = spans.Tracer()
    tracer.install()
    metrics = []
    try:
        for _ in range(2):
            code = tracer.request(cli.main, ["analyze", "--config", str(config),
                                             "--out", str(tmp_path / "out")])
            assert code == 0
            metrics.append(tracer.request_metrics())
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"spectral_analysis.bracketing",
            "spectral_analysis.lift_spectrum"} <= names
    json.dumps(metrics[0], allow_nan=False)
    counts = [{key: m[key] for key in COUNTS if key in m} for m in metrics]
    assert counts[0] == counts[1]

    g, m, mesh = cli.checked_inputs(cli.load_config(str(config)))
    form = form_assembly.assemble_two_particle(g, m, mesh)
    boson = symmetry.assemble_symmetric_form(form, +1)
    assert {key: counts[0][key] for key in (
        "form_assembly.ndof", "form_assembly.nreduced", "form_assembly.nnz_A_r",
        "symmetry.sector_dim", "eigensolve.pencil_size")} == {
        "form_assembly.ndof": 41 ** 2, "form_assembly.nreduced": 39 ** 2,
        "form_assembly.nnz_A_r": boson.reduced()[0].nnz,
        "symmetry.sector_dim": 41 * 42 // 2, "eigensolve.pencil_size": 39 ** 2}
    assert (form.ndof, form.nreduced) == (41 ** 2, 39 ** 2)
    assert symmetry.sector_basis(mesh, +1).shape[1] == 41 * 42 // 2


def test_tracer_spans_an_example_delta_request_with_strict_json_metrics(
        tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "map": {"kind": "delta_example", "truncation": 2.0,
                "potential": {"kind": "gaussian", "amplitude": -2.0,
                              "width": 0.5}},
        "mesh": {"nodes": 17}, "sector": "boson", "num_eigs": 2}))
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = tracer.request(cli.main, ["example-delta", "--config",
                                         str(config), "--out",
                                         str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert "bc_maps.fold" in {span[0] for span in tracer.spans}
    metrics = tracer.request_metrics()
    assert metrics["symmetry.sector_dim"] > 0
    json.dumps(metrics, allow_nan=False)


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_traced_benchmark_run_prints_a_strict_json_correct_result():
    """`perfbench/run.py --trace 1` as the benchmark is run: its last stdout
    line parses as strict JSON (no NaN or Infinity) and says `correct`."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "delta-fold", "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last, parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stdout
    assert result["metrics"]["bc_maps.map_calls"]["value"] > 0

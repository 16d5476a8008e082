"""The benchmark's traced mode patches `qg2p` functions by module attribute
(`perfbench/spans.py`); a rename or deletion there must fail here, not only
in a traced benchmark run."""
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "perfbench"))

import spans  # noqa: E402

from qg2p import cli  # noqa: E402


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
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "graph": {"edges": [["a", "b", 1.0]]},
        "map": {"kind": "lifted", "family": "dirichlet"},
        "mesh": {"nodes": 41}, "num_eigs": 60,
        "analysis": {"weyl": True, "heat": {"t": 0.01},
                     "bracketing": {"n": 10}, "lift_check": True}}))
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = tracer.request(cli.main, ["analyze", "--config", str(config),
                                         "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = {span[0] for span in tracer.spans}
    assert {"spectral_analysis.bracketing",
            "spectral_analysis.lift_spectrum"} <= names
    json.dumps(tracer.request_metrics(), allow_nan=False)


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

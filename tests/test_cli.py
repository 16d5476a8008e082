import json

import numpy as np
import pytest

from qg2p import cli, eigensolve, form_assembly, symmetry
from qg2p.cli import (ConfigError, build_map, load_config, main,
                      matrix_from_json, matrix_to_json, parse_config,
                      serialize_config)


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def piecewise_doc(P, L=None, nodes=9, **extra):
    """Single-edge config with a one-piece map (P, L) on [0, 1]."""
    L = np.zeros((4, 4)) if L is None else L
    doc = {"graph": {"edges": [["a", "b", 1.0]]},
           "map": {"kind": "piecewise", "breakpoints": [0.0, 1.0],
                   "pieces": [{"P": matrix_to_json(P),
                               "L": matrix_to_json(L)}]},
           "mesh": {"nodes": nodes}, "num_eigs": 3}
    doc.update(extra)
    return doc


def dirichlet_square_doc(nodes=33, num_eigs=5, **extra):
    doc = {"graph": {"edges": [["a", "b", 1.0]]},
           "map": {"kind": "lifted", "family": "dirichlet"},
           "mesh": {"nodes": nodes},
           "num_eigs": num_eigs}
    doc.update(extra)
    return doc


class TestMatrixSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(matrix_from_json(matrix_to_json(M)), M)

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigError):
            matrix_from_json([[1.0, 2.0], [3.0, 4.0]])


class TestConfig:
    def test_parse_serialize_roundtrip(self):
        doc = dirichlet_square_doc(sector="boson",
                                   analysis={"weyl": True},
                                   output={"dir": "out"})
        cfg = parse_config(doc)
        again = parse_config(json.loads(serialize_config(cfg)))
        assert again.to_doc() == cfg.to_doc()
        for key, val in doc.items():
            assert cfg.to_doc()[key] == val

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(dirichlet_square_doc(bogus=1))

    def test_missing_section_rejected(self):
        doc = dirichlet_square_doc()
        del doc["mesh"]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_bad_sector_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(dirichlet_square_doc(sector="anyon"))

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))


class TestValidateCommand:
    def test_dirichlet_star_passes(self, tmp_path, capsys):
        doc = {"graph": {"edges": [["c", "l1", 1.0], ["c", "l2", 1.0],
                                   ["c", "l3", 1.0]]},
               "map": {"kind": "lifted", "family": "dirichlet"},
               "mesh": {"nodes": 9}}
        code = main(["validate", "--config", write_config(tmp_path, doc)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["map"]["ok"] and report["map"]["corner_regular"]

    def test_non_hermitian_sample_fails_with_location(self, tmp_path, capsys):
        L = np.zeros((4, 4))
        L[0, 1] = 1.0
        doc = {"graph": {"edges": [["a", "b", 1.0]]},
               "map": {"kind": "piecewise", "breakpoints": [0.0, 1.0],
                       "pieces": [{"P": matrix_to_json(np.zeros((4, 4))),
                                   "L": matrix_to_json(L)}]},
               "mesh": {"nodes": 9}}
        code = main(["validate", "--config", write_config(tmp_path, doc)])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert any("Hermitian" in e and "y=" in e
                   for e in report["map"]["errors"])

    def test_delta_example_passes_with_truncation_notice(self, tmp_path, capsys):
        doc = {"map": {"kind": "delta_example", "truncation": 2.0,
                       "potential": {"kind": "gaussian", "amplitude": -1.0,
                                     "width": 0.5}},
               "mesh": {"nodes": 9}}
        code = main(["validate", "--config", write_config(tmp_path, doc)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert any("truncat" in note for note in report["notes"])


class TestSpectrumCommand:
    def test_dirichlet_values_and_refinement(self, tmp_path):
        errs = {}
        for nodes in (33, 65):
            out = tmp_path / f"out{nodes}"
            code = main(["spectrum",
                         "--config", write_config(
                             tmp_path, dirichlet_square_doc(nodes=nodes),
                             f"c{nodes}.json"),
                         "--out", str(out)])
            assert code == 0
            rows = (out / "eigenvalues.csv").read_text().strip().splitlines()[1:]
            lam0 = float(rows[0].split(",")[1])
            errs[nodes] = abs(lam0 - 2 * np.pi**2)
        assert errs[33] / errs[65] > 3.0  # ~4x per refinement
        assert errs[65] / (2 * np.pi**2) < 0.02

    def test_boson_sector_matches_lift_oracle(self, tmp_path):
        from qg2p.eigensolve import solve
        from qg2p.form_assembly import Mesh, assemble_one_particle
        from qg2p.graph_core import build_graph
        from qg2p.spectral_analysis import lift_spectrum
        from qg2p.vertex_conditions import standard_family

        doc = dirichlet_square_doc(nodes=21, num_eigs=6, sector="boson")
        out = tmp_path / "out"
        assert main(["spectrum", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        rows = (out / "eigenvalues.csv").read_text().strip().splitlines()[1:]
        lam = np.array([float(r.split(",")[1]) for r in rows])

        g = build_graph(doc["graph"])
        mesh = Mesh.uniform(g, 21)
        one = assemble_one_particle(g, standard_family("dirichlet", g), mesh)
        oracle = lift_spectrum(solve(one, one.nreduced).eigenvalues, 6, "boson")
        assert np.abs(lam - oracle).max() < 1e-9 * oracle.max()

    def test_byte_identical_output(self, tmp_path):
        doc = dirichlet_square_doc(nodes=21)
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            main(["spectrum", "--config",
                  write_config(tmp_path, doc, f"{tag}.json"),
                  "--out", str(out)])
            blobs.append((out / "eigenvalues.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "out"
        code = main(["spectrum", "--config",
                     write_config(tmp_path, dirichlet_square_doc()),
                     "--mesh-h", "0.1", "--num-eigs", "3",
                     "--out", str(out)])
        assert code == 0
        rows = (out / "eigenvalues.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 3


class TestAnalyzeCommand:
    def test_weyl_and_bracketing_end_to_end(self, tmp_path, capsys):
        doc = dirichlet_square_doc(
            nodes=41, num_eigs=60,
            analysis={"weyl": True, "weyl_tol": 0.15,
                      "bracketing": {"n": 10}})
        out = tmp_path / "out"
        code = main(["analyze", "--config", write_config(tmp_path, doc),
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "analysis.json").read_text())
        assert report["weyl"]["pass"]
        assert report["bracketing"]["ok"]
        lines = (out / "counting.csv").read_text().strip().splitlines()
        assert lines[0] == "lambda,N,weyl_line"
        assert len(lines) == 61

    def test_window_flag(self, tmp_path):
        doc = dirichlet_square_doc(nodes=41, num_eigs=60)
        out = tmp_path / "out"
        code = main(["analyze", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--window", "50:900"])
        assert code == 0
        report = json.loads((out / "analysis.json").read_text())
        assert report["weyl"]["window"][0] == 50.0

    def test_insufficient_eigenvalues_is_numerical_failure(self, tmp_path):
        doc = dirichlet_square_doc(nodes=21, num_eigs=5,
                                   analysis={"weyl": True})
        code = main(["analyze", "--config", write_config(tmp_path, doc)])
        assert code == 3


class TestExampleDeltaCommand:
    def test_end_to_end(self, tmp_path, capsys):
        doc = {"map": {"kind": "delta_example", "truncation": 2.0,
                       "potential": {"kind": "gaussian", "amplitude": -2.0,
                                     "width": 0.5}},
               "mesh": {"nodes": 15}, "num_eigs": 1}
        out = tmp_path / "out"
        code = main(["example-delta", "--config", write_config(tmp_path, doc),
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "example_delta.json").read_text())
        assert report["axis_jump_x"] < 1e-10
        assert report["axis_jump_y"] < 1e-10
        lines = (out / "folded.csv").read_text().strip().splitlines()
        assert len(lines) == 29 * 29 + 1


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 2

    def test_wrong_kind_for_example_delta(self, tmp_path, capsys):
        code = main(["example-delta", "--config",
                     write_config(tmp_path, dirichlet_square_doc())])
        assert code == 2

    @pytest.mark.parametrize("command", ["spectrum", "analyze"])
    def test_non_projector_map_rejected_before_assembly(self, tmp_path, capsys,
                                                        command):
        out = tmp_path / "out"
        code = main([command, "--config",
                     write_config(tmp_path, piecewise_doc(0.5 * np.eye(4))),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "not an orthogonal projector" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_non_block_map_in_sector_is_validation_failure(self, tmp_path,
                                                          capsys):
        P = np.diag([1.0, 0.0, 0.0, 0.0])   # a projector, halves differ
        code = main(["spectrum", "--config",
                     write_config(tmp_path, piecewise_doc(P)),
                     "--sector", "boson", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "not exchange-symmetric" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "spectrum"])
    @pytest.mark.parametrize("kind,key", [
        ("piecewise", "P"), ("piecewise", "L"), ("piecewise", "pieces"),
        ("piecewise", "breakpoints"), ("constant", "P"), ("constant", "L")])
    def test_missing_map_entry_is_config_error(self, tmp_path, capsys,
                                               command, kind, key):
        doc = piecewise_doc(np.zeros((4, 4)))
        if kind == "constant":
            doc["map"] = {"kind": "constant", **doc["map"]["pieces"][0]}
        if kind == "piecewise" and key in ("P", "L"):
            del doc["map"]["pieces"][0][key]
        else:
            del doc["map"][key]
        with pytest.raises(ConfigError, match=repr(key)):
            build_map(parse_config(doc))
        code = main([command, "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_lanczos_no_convergence_is_numerical_failure(self, tmp_path,
                                                         monkeypatch, capsys):
        from scipy.sparse.linalg import ArpackNoConvergence

        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence",
                                      np.empty(0), np.empty((0, 0)))

        monkeypatch.setenv(eigensolve.DENSE_THRESHOLD_ENV, "10")
        monkeypatch.setattr(eigensolve.spla, "eigsh", no_convergence)
        code = main(["spectrum", "--config",
                     write_config(tmp_path, dirichlet_square_doc(nodes=11)),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "Lanczos" in err


def test_sector_solve_runs_one_nullspace(monkeypatch):
    """A sector run computes only S null(C S), never the full-space basis."""
    calls = []
    orig = form_assembly.nullspace_from_constraints

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return orig(*args, **kwargs)

    monkeypatch.setattr(form_assembly, "nullspace_from_constraints", counted)
    monkeypatch.setattr(symmetry, "nullspace_from_constraints", counted)
    cfg = parse_config(dirichlet_square_doc(nodes=15, sector="boson"))
    _, _, _, form = cli.assemble_from_config(cfg)
    eigensolve.solve(form, cfg.num_eigs, sector=cfg.sector)
    assert len(calls) == 1

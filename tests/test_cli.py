import dataclasses
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from qg2p import bc_maps, cli, eigensolve, form_assembly, symmetry
from qg2p.cli import (ConfigError, checked_inputs, load_config, main,
                      matrix_from_json, parse_config)
from qg2p.graph_core import build_graph
from qg2p.spectral_analysis import lifted_spectrum
from qg2p.vertex_conditions import VertexConditions


def matrix_to_json(m):
    """A complex matrix as the config's nested arrays of [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


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


def eigenvalue_column(out):
    """The eigenvalue column of a run's eigenvalues.csv."""
    return np.loadtxt(out / "eigenvalues.csv", delimiter=",", skiprows=1,
                      usecols=1, ndmin=1)


def lift_of(g, P, L, nodes, k, sector):
    """The lowest k sums in ``sector`` of the one-particle (P, L) on g."""
    return lifted_spectrum(g, VertexConditions.from_pl(P, L),
                           form_assembly.Mesh.uniform(g, nodes), k, sector)


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


class TestWriteCsv:
    VALUES = np.array([0.0, -1.5, 3.0, -7.0, 1e-300, -2.5e-310, 1e300,
                       -9.87654321e123, 42.0, 6.02214076e23, -0.0, 1.0 / 3])

    @pytest.mark.parametrize("fmt", ["%d,%.12e,%d,%.6e", "%.12e,%d,%.12e",
                                     "%.9e,%.9e,%.12e"])
    @pytest.mark.parametrize("nrows", [1, 5, 12])
    def test_bytes_equal_savetxt(self, tmp_path, fmt, nrows):
        """Integer-valued, negative, tiny, subnormal and huge floats, in
        %d columns of a float array too, format as np.savetxt does."""
        ncols = fmt.count("%")
        columns = [np.roll(self.VALUES, 3 * c)[:nrows] for c in range(ncols)]
        path = tmp_path / "out.csv"
        cli._write_csv(str(path), "a,b", columns, fmt)
        with open(tmp_path / "ref.csv", "w") as fh:
            fh.write("a,b\n")
            np.savetxt(fh, np.column_stack(columns), fmt=fmt)
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestConfig:
    def test_parse_serialize_roundtrip(self):
        doc = dirichlet_square_doc(sector="boson",
                                   analysis={"weyl": True},
                                   output={"dir": "out"})
        cfg = parse_config(doc)
        again = parse_config(json.loads(json.dumps(dataclasses.asdict(cfg))))
        assert again == cfg
        for key, val in doc.items():
            assert dataclasses.asdict(cfg)[key] == val

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

    @pytest.mark.parametrize("mesh, flags", [
        ({"nodes": 9}, ["--mesh-h", "-1"]), ({"nodes": 2}, [])],
        ids=["mesh-h-negative", "two-mesh-nodes"])
    def test_unbuildable_mesh_fails_with_note(self, tmp_path, capsys,
                                              mesh, flags):
        doc = {"graph": {"edges": [["a", "b", 1.0]]},
               "map": {"kind": "lifted", "family": "dirichlet"}, "mesh": mesh}
        code = main(["validate", "--config", write_config(tmp_path, doc),
                     *flags])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert report["map"] == {} and len(report["notes"]) == 1

    @pytest.mark.parametrize("p00, qlq", [(1.0, 1.0), (1e300, None)],
                             ids=["finite", "overflow"])
    def test_reports_the_qlq_defect(self, tmp_path, capsys, p00, qlq):
        # L(0, 0) = 1 lies in ran P, so L != Q L Q; with P(0, 0) = 1e300
        # the product Q L Q overflows, and the report writes null
        P, L = np.diag([p00, 0.0, 0.0, 0.0]), np.diag([1.0, 0.0, 0.0, 0.0])
        code = main(["validate", "--config",
                     write_config(tmp_path, piecewise_doc(P, L))])
        report = json.loads(capsys.readouterr().out)
        assert code == 2
        assert any("L = Q L Q" in e for e in report["map"]["errors"])
        assert report["map"]["max_qlq_defect"] == qlq

    def test_one_l_max_for_the_report_and_the_constant(self, tmp_path, capsys):
        # the two-step map: mesh node 0.5625 sees the 1e4 step, only the
        # breakpoint 0.813 sees the 2e4 one
        Z, I4 = matrix_to_json(np.zeros((4, 4))), np.eye(4)
        doc = {"graph": {"edges": [["a", "b", 1.0]]},
               "map": {"kind": "piecewise",
                       "breakpoints": [0.0, 0.5605, 0.5655, 0.813, 0.8135, 1.0],
                       "pieces": [{"P": Z, "L": L} for L in (
                           Z, matrix_to_json(1e4 * I4), Z,
                           matrix_to_json(2e4 * I4), Z)]},
               "mesh": {"nodes": 17}}
        code = main(["validate", "--config", write_config(tmp_path, doc)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["map"]["L_max"] == 2e4
        # delta = 1 / (4 L_max): C = 32 L_max^2
        assert report["semiboundedness_constant"] == pytest.approx(32.0 * 2e4 ** 2)

    def test_samples_only_the_mesh_y_nodes(self, tmp_path, capsys, monkeypatch):
        # every field of the report, the noninteracting and local flags
        # included, reads the map where assembly does
        doc = {"graph": {"edges": [["a", "b", 0.7], ["b", "c", 1.3]]},
               "map": {"kind": "lifted", "family": "dirichlet"},
               "mesh": {"nodes_per_edge": [5, 8]}}
        seen, build = [], cli.build_map

        def recording_map(cfg):
            g, m = build(cfg)
            ev = m.eval_fn
            m.eval_fn = lambda y: seen.append(y) or ev(y)
            return g, m

        monkeypatch.setattr(cli, "build_map", recording_map)
        code = main(["validate", "--config", write_config(tmp_path, doc)])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["map"]["noninteracting"]
        g, _ = build(load_config(write_config(tmp_path, doc)))
        assert sorted(seen) == list(form_assembly.Mesh(g, (5, 8)).y_nodes)

    def test_stacks_the_map_once(self, tmp_path, capsys, monkeypatch):
        # the checks, the noninteracting and the local flags read one stack
        stacked, samples = [], bc_maps.BoundaryMap.samples
        monkeypatch.setattr(bc_maps.BoundaryMap, "samples", lambda m, ys: (
            stacked.append(len(ys)) or samples(m, ys)))
        code = main(["validate", "--config",
                     write_config(tmp_path, star3_delta_doc())])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["map"]["noninteracting"]
        assert report["map"]["local"] and stacked == [17]

    def test_one_particle_config_needs_a_lift(self, tmp_path, capsys):
        # the rule of spectrum and analyze (test_one_particle_run_needs_a_lift)
        doc = piecewise_doc(np.eye(4), particles=1)
        code = main(["validate", "--config", write_config(tmp_path, doc)])
        report = json.loads(capsys.readouterr().out)
        assert code == 2 and report["map"] == {}
        assert report["notes"] == [
            "one-particle runs need a map of kind 'lifted'"]

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
        for nodes in (9, 33, 65):
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
            meta = json.loads((out / "spectrum.json").read_text())
            assert meta["max_m_orth_defect"] < 1e-10 and meta["warnings"] == []
            # 49, 961 and 3969 dofs: one certified slice at -1 per sector,
            # every edge end Dirichlet, so diagonalised with no factor
            assert meta["method"] == "shift-invert"
            assert meta["inertia_certified"] is True and meta["lu_fill_nnz"] == 0
            for rec in meta["sectors"]:
                assert rec["shifts"] == [-1.0] and rec["slices"] == 1
            assert sum(rec["pencil_size"] for rec in meta["sectors"]) \
                == meta["pencil_size"] == (nodes - 2) ** 2
            if nodes == 9:
                assert [rec["pencil_size"] for rec in meta["sectors"]] == [28, 21]
        assert errs[9] / errs[33] > 3.0 and errs[33] / errs[65] > 3.0
        assert errs[65] / (2 * np.pi**2) < 0.02

    @pytest.mark.parametrize("command", ["spectrum", "analyze"])
    def test_one_particle_run_evaluates_its_lift_at_one_y(
            self, tmp_path, monkeypatch, command):
        # the lift does not depend on y: its check needs the sample y = 0
        seen, build = [], cli.build_map

        def recording_map(cfg):
            g, m = build(cfg)
            ev = m.eval_fn
            m.eval_fn = lambda y: seen.append(y) or ev(y)
            return g, m

        monkeypatch.setattr(cli, "build_map", recording_map)
        code = main([command, "--config", write_config(
            tmp_path, star3_delta_doc(particles=1, analysis={"weyl": False})),
            "--out", str(tmp_path / "out")])
        assert code == 0 and seen == [0.0]

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

    @pytest.mark.parametrize("sector, num_eigs, method, split", [
        ("full", 5, "shift-invert", True), ("boson", 27, "dense", False)])
    def test_spectrum_json_keys(self, tmp_path, sector, num_eigs, method,
                                split):
        # a 9-node Dirichlet square: boson pencil 28 dofs, so 27 is dense
        out = tmp_path / "out"
        doc = dirichlet_square_doc(nodes=9, num_eigs=num_eigs, sector=sector)
        assert main(["spectrum", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        meta = json.loads((out / "spectrum.json").read_text())
        assert meta["method"] == method
        assert (meta["sectors"] is not None) == split
        assert set(meta) == {
            "sector", "num_eigs", "method", "pencil_size", "C_infty", "h_max",
            "max_residual", "shifts", "slices", "sectors", "lu_fill_nnz",
            "inertia_certified", "max_m_orth_defect", "warnings"}

    def test_explicit_lifted_conditions_equal_the_family(self, tmp_path):
        # the Robin family at alpha = 1.5 is (P, L) = (0, 1.5 I)
        lams = []
        for name, entries in (
                ("family", {"family": "robin", "alpha": 1.5}),
                ("pl", {"P": matrix_to_json(np.zeros((2, 2))),
                        "L": matrix_to_json(1.5 * np.eye(2))})):
            doc = dirichlet_square_doc(nodes=17, map={"kind": "lifted", **entries})
            out = tmp_path / name
            assert main(["spectrum", "--config",
                         write_config(tmp_path, doc, f"{name}.json"),
                         "--out", str(out)]) == 0
            lams.append(eigenvalue_column(out))
        assert np.abs(lams[1] - lams[0]).max() <= 1e-12 * np.abs(lams[0]).max()

    def test_zero_potential_delta_example_is_a_dirichlet_square(self, tmp_path):
        """With v = 0 the centre of the truncated line is Kirchhoff, so the
        boson spectrum is the boson lift of the 2-star with Dirichlet
        leaves, the interval [-T, T], near (pi / 2T)^2 (i^2 + j^2)."""
        T, nodes, k = 1.3, 33, 12
        doc = {"map": {"kind": "delta_example", "truncation": T,
                       "potential": {"kind": "zero"}},
               "mesh": {"nodes": nodes}, "num_eigs": k, "sector": "boson"}
        out = tmp_path / "out"
        assert main(["spectrum", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        lam = eigenvalue_column(out)
        g, _ = bc_maps.delta_example_map(lambda x, y: 0.0, T)
        P = np.eye(4)                      # ends 0, 1 at the centre: continuity
        P[:2, :2] = [[0.5, -0.5], [-0.5, 0.5]]
        oracle = lift_of(g, P, np.zeros((4, 4)), nodes, k, "boson")
        assert np.abs(lam - oracle).max() <= 1e-12 * oracle.max()
        i, j = np.triu_indices(k)
        continuum = np.sort((np.pi / (2 * T)) ** 2 * ((i + 1) ** 2 + (j + 1) ** 2))
        assert np.abs(lam / continuum[:k] - 1.0).max() < 5e-3

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "out"
        code = main(["spectrum", "--config",
                     write_config(tmp_path, dirichlet_square_doc()),
                     "--mesh-h", "0.1", "--num-eigs", "3",
                     "--out", str(out)])
        assert code == 0
        rows = (out / "eigenvalues.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 3

    @pytest.mark.xfail(strict=True, reason="the slicing loop's tie and spacing "
                       "tolerances and its start shift -1 are absolute below 1")
    def test_long_edge_scales_as_one_over_length_squared(self, tmp_path):
        # the discrete pencil at length 1e8 is the one at length 1 with K
        # scaled by 1e-8 and M by 1e8; its eigenvalues, near 1e-15, are
        # one tied cluster to the slices
        lams = []
        for length in (1.0, 1e8):
            doc = {"graph": {"edges": [["a", "b", length]]},
                   "map": {"kind": "lifted", "family": "dirichlet"},
                   "mesh": {"nodes": 9}, "particles": 1, "num_eigs": 4}
            out = tmp_path / f"out{length:g}"
            assert main(["spectrum", "--config",
                         write_config(tmp_path, doc, f"c{length:g}.json"),
                         "--out", str(out)]) == 0
            lams.append(eigenvalue_column(out))
        assert np.allclose(lams[1], 1e-16 * lams[0], rtol=1e-10, atol=0)


class TestAnalyzeCommand:
    def test_weyl_and_bracketing_end_to_end(self, tmp_path, capsys,
                                            monkeypatch):
        from qg2p import spectral_analysis
        doc = dirichlet_square_doc(
            nodes=41, num_eigs=60,
            analysis={"weyl": True, "weyl_tol": 0.15,
                      "bracketing": {"n": 10}})
        out = tmp_path / "out"
        solves, orig = [], spectral_analysis.solve
        monkeypatch.setattr(spectral_analysis, "solve",
                            lambda *a, **kw: solves.append(a[1]) or orig(*a, **kw))
        code = main(["analyze", "--config", write_config(tmp_path, doc),
                     "--out", str(out)])
        assert code == 0
        # the 60 eigenvalues serve as the target; the comparison operators
        # take one whole one-particle solve each (41 and 39 reduced dofs)
        assert solves == [41, 39]
        report = json.loads((out / "analysis.json").read_text())
        assert report["weyl"]["pass"]
        assert report["bracketing"]["ok"]
        lines = (out / "counting.csv").read_text().strip().splitlines()
        assert lines[0] == "lambda,N,weyl_line"
        assert len(lines) == 61

    def test_a_pair_cut_at_k_counts_whole(self, tmp_path):
        # the Kirchhoff 3-star's eigenvalues 35 and 36 are a pair: the last
        # row of each output counts both, in 35 rows
        doc = {"graph": {"edges": [["c", f"l{i}", 1.0] for i in (1, 2, 3)]},
               "map": {"kind": "lifted", "delta_strength": 0.0},
               "mesh": {"nodes": 65}, "particles": 1, "num_eigs": 35}
        cfg = write_config(tmp_path, doc)
        for cmd in ("spectrum", "analyze"):
            assert main([cmd, "--config", cfg, "--out", str(tmp_path / cmd)]) == 0
        rows = (tmp_path / "spectrum" / "eigenvalues.csv").read_text().splitlines()
        assert len(rows) == 36 and rows[-1].split(",")[2] == "2"
        rows = (tmp_path / "analyze" / "counting.csv").read_text().splitlines()
        assert len(rows) == 36 and rows[-1].split(",")[1] == "36"

    def test_one_particle_weyl_fit(self, tmp_path):
        # two Dirichlet intervals of lengths 1 and 0.5: N(k) ~ (1.5 / pi) k
        doc = {"graph": {"edges": [["a", "b", 1.0], ["b", "c", 0.5]]},
               "map": {"kind": "lifted", "family": "dirichlet"},
               "mesh": {"nodes": 257}, "particles": 1, "num_eigs": 90,
               "analysis": {"weyl": True}}
        out = tmp_path / "out"
        assert main(["analyze", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        weyl = json.loads((out / "analysis.json").read_text())["weyl"]
        assert weyl["pass"] and weyl["target"] == pytest.approx(1.5 / np.pi)
        assert weyl["relative_error"] < 0.05
        rows = np.loadtxt(out / "counting.csv", delimiter=",", skiprows=1)
        assert len(rows) == 90
        assert np.allclose(rows[:, 2], weyl["slope"] * np.sqrt(rows[:, 0]),
                           rtol=1e-11, atol=0)

    def test_window_flag(self, tmp_path):
        doc = dirichlet_square_doc(nodes=41, num_eigs=60)
        out = tmp_path / "out"
        code = main(["analyze", "--config", write_config(tmp_path, doc),
                     "--out", str(out), "--window", "50:900"])
        assert code == 0
        report = json.loads((out / "analysis.json").read_text())
        assert report["weyl"]["window"][0] == 50.0

    def test_window_flag_is_analyze_only(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--config",
                  write_config(tmp_path, dirichlet_square_doc()),
                  "--window", "1:2"])
        assert exc.value.code == 2

    def test_counting_csv_counts_tied_chains_whole(self, tmp_path,
                                                   monkeypatch):
        lam = np.sort([np.pi**2 * (i * i + j * j)
                       for i in range(1, 12) for j in range(1, 12)])
        double = np.flatnonzero(lam[1:] == lam[:-1]) + 1
        split = lam.copy()
        split[double] = np.nextafter(lam[double], np.inf)
        doc = dirichlet_square_doc(nodes=41, num_eigs=len(lam),
                                   analysis={"window": [100.0, 900.0]})
        cfg = write_config(tmp_path, doc)
        outputs = []
        for spectrum in (lam, split):
            result = eigensolve.SpectrumResult(eigenvalues=spectrum)
            monkeypatch.setattr(cli, "solve", lambda *a, **k: result)
            out = tmp_path / f"out{len(outputs)}"
            assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
            rows = (out / "counting.csv").read_text().splitlines()[1:]
            outputs.append(([r.split(",")[1] for r in rows],
                            json.loads((out / "analysis.json").read_text())))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1]["weyl"]["slope"] == pytest.approx(
            outputs[1][1]["weyl"]["slope"], rel=1e-12)
        # each member of a double gets the count through its second copy
        assert [int(n) for n in outputs[0][0]][:3] == [1, 3, 3]

    def test_lift_check_on_the_whole_one_particle_spectrum(self, tmp_path,
                                                            capsys):
        # 9 nodes: 7 one-particle levels, all 49 sums exact; a solve
        # truncated at 4 num_eigs levels used to stop at 33 of them (exit 3)
        doc = dirichlet_square_doc(nodes=9, num_eigs=40,
                                   analysis={"weyl": False, "lift_check": True})
        out = tmp_path / "out"
        assert main(["analyze", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        report = json.loads((out / "analysis.json").read_text())
        assert report["lift_check"]["pass"]

    @pytest.mark.parametrize("sector", ["full", "boson"])
    def test_lift_check_on_a_star_delta_lift(self, tmp_path, capsys, sector):
        doc = {"graph": {"edges": [["c", "l1", 1.07], ["c", "l2", 0.93],
                                   ["c", "l3", 1.02]]},
               "map": {"kind": "lifted", "delta_strength": 2.0},
               "mesh": {"nodes": 17}, "num_eigs": 12, "sector": sector,
               "analysis": {"weyl": False, "lift_check": True}}
        out = tmp_path / "out"
        assert main(["analyze", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        lift = json.loads((out / "analysis.json").read_text())["lift_check"]
        assert lift["pass"] and lift["max_relative_deviation"] < 1e-9

    def test_one_particle_run_needs_a_lift(self, tmp_path, capsys):
        doc = piecewise_doc(np.eye(4), particles=1)
        assert main(["spectrum", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")]) == 2
        assert "map of kind 'lifted'" in capsys.readouterr().err

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

    DOC = {"map": {"kind": "delta_example", "truncation": 2.0,
                   "potential": {"kind": "gaussian", "amplitude": -2.0,
                                 "width": 0.5}},
           "mesh": {"nodes": 11}, "num_eigs": 1}

    def test_fold_sign_does_not_follow_eigenvector_sign(self, tmp_path,
                                                       monkeypatch, capsys):
        cfg = write_config(tmp_path, self.DOC)
        assert main(["example-delta", "--config", cfg,
                     "--out", str(tmp_path / "a")]) == 0
        orig = cli.solve

        def negated(*args, **kwargs):
            result = orig(*args, **kwargs)
            return dataclasses.replace(result, blocks=tuple(
                (N, -U, cols) for N, U, cols in result.blocks))

        monkeypatch.setattr(cli, "solve", negated)
        assert main(["example-delta", "--config", cfg,
                     "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "folded.csv").read_bytes()
        assert a == (tmp_path / "b" / "folded.csv").read_bytes()
        psi = np.loadtxt(tmp_path / "a" / "folded.csv", delimiter=",",
                         skiprows=1)[:, 2]
        assert psi[np.argmax(np.abs(psi))] > 0.0

    def test_boson_sector_runs_like_the_default(self, tmp_path, capsys):
        outs = []
        for sector in ("full", "boson"):
            out = tmp_path / sector
            doc = dict(self.DOC, sector=sector)
            assert main(["example-delta", "--config",
                         write_config(tmp_path, doc), "--out", str(out)]) == 0
            outs.append([(out / name).read_bytes()
                         for name in ("folded.csv", "example_delta.json")])
        assert outs[0] == outs[1]

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        calls = []
        orig = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, **k: calls.append(a) or orig(*a, **k))
        return calls

    def test_builds_map_and_mesh_once(self, tmp_path, monkeypatch, capsys):
        maps, meshes = (self.count_calls(monkeypatch, cli, name)
                        for name in ("build_map", "build_mesh"))
        doc = dict(self.DOC, mesh={"nodes": 17})
        assert main(["example-delta", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")]) == 0
        assert (len(maps), len(meshes)) == (1, 1)

    def test_unequal_node_counts_rejected_before_assembly(self, tmp_path,
                                                          monkeypatch, capsys):
        calls = self.count_calls(monkeypatch, form_assembly,
                                 "assemble_two_particle")
        samples = self.count_calls(monkeypatch, bc_maps.BoundaryMap,
                                   "__call__")
        doc = dict(self.DOC, mesh={"nodes_per_edge": [7, 9]})
        code = main(["example-delta", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "equal node counts" in err
        assert calls == [] and samples == []


def analysis_doc(**analysis):
    return dirichlet_square_doc(analysis=analysis)


def malformed_docs():
    """Configs with one malformed map or graph entry, by name."""
    delta, square = TestExampleDeltaCommand.DOC, dirichlet_square_doc()
    piece = piecewise_doc(np.eye(4))

    def with_map(doc, **entries):
        return {**doc, "map": {**doc["map"], **entries}}

    def with_graph(**graph):
        return {**square, "graph": graph}

    return {
        "delta-potential-number": with_map(delta, potential=5),
        "delta-truncation-string": with_map(delta, truncation="x"),
        "delta-amplitude-string": with_map(delta, potential={"amplitude": "x"}),
        "delta-width-zero": with_map(delta, potential={"width": 0}),
        "delta-width-underflow": with_map(delta, potential={"width": 1e-200}),
        "robin-alpha-string": with_map(square, family="robin", alpha="x"),
        "mixed-mask-number": with_map(square, family="mixed", mask=5),
        "delta-strength-string": {**square, "map": {"kind": "lifted",
                                                    "delta_strength": "x"}},
        "pieces-number": with_map(piece, pieces=5),
        "pieces-empty": with_map(piece, breakpoints=[0.0], pieces=[]),
        "breakpoints-string": with_map(piece, breakpoints="x"),
        "breakpoints-unsorted": with_map(piece, breakpoints=[1.0, 0.0]),
        "constant-dim-3": {**square, "map": {
            "kind": "constant", "P": matrix_to_json(np.eye(3)),
            "L": matrix_to_json(np.zeros((3, 3)))}},
        "lifted-no-conditions": {**square, "map": {"kind": "lifted"}},
        "mixed-mask-short": with_map(square, family="mixed", mask=["dirichlet"]),
        "mixed-mask-entry": with_map(square, family="mixed",
                                     mask=["dirichlet", "robin"]),
        "vertices-number": with_graph(vertices=5, edges=[["a", "b", 1.0]]),
        "vertices-duplicate": with_graph(vertices=["a", "a", "b"],
                                         edges=[["a", "b", 1.0]]),
        "endpoint-list": with_graph(edges=[[["a"], "b", 1.0]]),
        "endpoint-object": with_graph(edges=[[{"a": 1}, "b", 1.0]]),
    }


class TestExitCodes:
    MALFORMED = malformed_docs()

    @pytest.mark.parametrize("command, doc, flags", [
        ("spectrum", dirichlet_square_doc(), ["--num-eigs", "0"]),
        ("example-delta", TestExampleDeltaCommand.DOC, ["--num-eigs", "0"]),
        ("spectrum", dirichlet_square_doc(), ["--mesh-h", "-1"]),
        ("spectrum", dirichlet_square_doc(nodes=2), []),
        ("spectrum", dirichlet_square_doc(num_eigs="x"), []),
        ("spectrum", dirichlet_square_doc(particles=1.9), []),
        ("spectrum", dirichlet_square_doc(mesh=5), []),
        ("spectrum", dirichlet_square_doc(output=3), []),
        ("spectrum", dirichlet_square_doc(map=[1]), []),
        ("spectrum", dirichlet_square_doc(mesh={"h": "x"}), []),
        ("spectrum", dirichlet_square_doc(graph={"edges": [["a", "b"]]}), []),
        ("spectrum", dirichlet_square_doc(
            graph={"edges": [["a", "b", 1e-160]]}), []),
        ("analyze", analysis_doc(window=[50]), []),
        ("analyze", analysis_doc(window="50:900"), []),
        ("analyze", analysis_doc(heat=5), []),
        ("analyze", analysis_doc(heat={"t": "x"}), []),
        ("analyze", analysis_doc(heat={"t": -1}), []),
        ("analyze", analysis_doc(bracketing=True), []),
        ("analyze", analysis_doc(bracketing={"n": 0}), []),
        ("analyze", analysis_doc(bracketing={"n": 1e300}), []),
        ("analyze", analysis_doc(bracketing={"n": 5.0}), []),
        ("analyze", analysis_doc(weyl_tol="x"), []),
        ("analyze", analysis_doc(weyl_tol=10**400), []),
        ("analyze", dirichlet_square_doc(), ["--window", "900:50"]),
        ("analyze", dirichlet_square_doc(), ["--window", "nan:900"]),
        ("spectrum", dirichlet_square_doc(output={"dir": 5}), []),
        ("spectrum", dirichlet_square_doc(output={"dir": ""}), []),
        ("spectrum", dirichlet_square_doc(mesh={"nodes": 9.7}), []),
        ("spectrum", dirichlet_square_doc(mesh={"nodes": "9"}), []),
        ("spectrum", dirichlet_square_doc(mesh={"nodes": True}), []),
        ("spectrum", dirichlet_square_doc(mesh={"nodes_per_edge": [9.9]}), []),
        ("spectrum", dirichlet_square_doc(), ["--mesh-h", "inf"]),
        ("spectrum", dirichlet_square_doc(), ["--mesh-h", "1e300"]),
        ("spectrum", dirichlet_square_doc(), ["--mesh-h", "1e-320"]),
        ("analyze", dirichlet_square_doc(
            nodes=65, particles=1, analysis={"bracketing": {"n": 5}}), []),
        ("analyze", dirichlet_square_doc(
            nodes=65, particles=1, analysis={"lift_check": True}), []),
        ("spectrum", dirichlet_square_doc(particles=1, sector="boson"), []),
        ("analyze", analysis_doc(wyel=True), []),
        ("analyze", analysis_doc(weyl="no"), []),
        ("analyze", analysis_doc(weyl=False, lift_check="false"), []),
        ("example-delta", dict(TestExampleDeltaCommand.DOC, sector="fermion"),
         []),
        ("example-delta", TestExampleDeltaCommand.DOC,
         ["--sector", "fermion"]),
        ("spectrum", [1], []),
        ("spectrum", dirichlet_square_doc(particles=3), []),
        ("spectrum", dirichlet_square_doc(mesh={"nodes_per_edge": [9, 9]}), []),
        *[("spectrum", doc, []) for doc in MALFORMED.values()],
    ], ids=["num-eigs-0", "example-delta-num-eigs-0", "mesh-h-negative",
            "two-mesh-nodes", "num-eigs-string", "particles-float",
            "mesh-number", "output-number", "map-list", "mesh-h-string",
            "edge-of-two", "edge-length-tiny", "window-one-entry", "window-string", "heat-number",
            "heat-t-string", "heat-t-negative", "bracketing-true",
            "bracketing-n-0", "bracketing-n-huge", "bracketing-n-float",
            "weyl-tol-string", "weyl-tol-huge-int", "window-flag-reversed",
            "window-flag-nan", "output-dir-number", "output-dir-empty",
            "nodes-float", "nodes-string", "nodes-bool", "nodes-per-edge-float",
            "mesh-h-inf", "mesh-h-huge", "mesh-h-subnormal",
            "one-particle-bracketing", "one-particle-lift-check",
            "one-particle-sector", "analysis-unknown-key", "weyl-string",
            "lift-check-string", "example-delta-fermion",
            "example-delta-fermion-flag", "config-list", "particles-3",
            "nodes-per-edge-count", *MALFORMED])
    def test_bad_input_exits_2_before_solving(self, tmp_path, capsys,
                                              monkeypatch, command, doc, flags):
        monkeypatch.setattr(cli, "solve", lambda *a, **k: pytest.fail("solved"))
        code = main([command, "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out"), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_entry_is_a_validate_note(self, tmp_path, capsys, name):
        code = main(["validate", "--config",
                     write_config(tmp_path, self.MALFORMED[name])])
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        report = json.loads(out)
        assert report["map"] == {} and len(report["notes"]) == 1

    def test_width_whose_square_underflows_is_named(self, tmp_path, capsys):
        doc = self.MALFORMED["delta-width-underflow"]
        code = main(["example-delta", "--config", write_config(tmp_path, doc)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("error: gaussian width 1e-200 has no positive finite "
                       "square\n")

    def test_amplitude_with_infinite_residuals_exits_3(self, tmp_path, capsys):
        # L = -v/4 is finite, but C_infty overflows, so the slices have no
        # floor for their start shifts
        delta = TestExampleDeltaCommand.DOC
        doc = {**delta, "mesh": {"nodes": 9}, "num_eigs": 5,
               "map": {**delta["map"], "potential": {"amplitude": -1e300}}}
        code = main(["example-delta", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err == ("numerical failure: non-finite C_infty (inf): the "
                       "start shifts have no floor\n")

    @pytest.mark.parametrize("A, B, says", [
        (np.diag([1.0, 0.0]), np.zeros((2, 2)), "[A B] has rank 1, not 2E = 2"),
        (np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]),
         "A B* is not Hermitian (defect 1.00e+00)")],
        ids=["rank", "hermitian"])
    def test_invalid_ab_is_one_readable_line(self, tmp_path, capsys, A, B,
                                             says):
        doc = dirichlet_square_doc(map={"kind": "lifted", "A": matrix_to_json(A),
                                        "B": matrix_to_json(B)})
        code = main(["spectrum", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: invalid (A, B): {says}\n"

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

    @pytest.mark.parametrize("command", ["spectrum", "analyze"])
    def test_non_projector_lift_rejected_at_one_sample(self, tmp_path, capsys,
                                                       command):
        # a one-particle run checks its lift at y = 0 alone: one map error
        doc = dirichlet_square_doc(nodes=9, particles=1, map={
            "kind": "lifted", "P": matrix_to_json(0.5 * np.eye(2)),
            "L": matrix_to_json(np.zeros((2, 2)))})
        code = main([command, "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: P(y=0) is not an orthogonal projector (defect 2.50e-01) "
            "(1 map error(s); see 'qg2p validate')\n")

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
            checked_inputs(parse_config(doc))
        code = main([command, "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    @staticmethod
    def non_finite_docs():
        """Maps with a NaN or infinite entry and the first y it shows at."""
        Z, L = np.zeros((4, 4)), np.zeros((4, 4))
        L[1, 1] = np.nan
        constant = piecewise_doc(Z, L)
        constant["map"] = {"kind": "constant", **constant["map"]["pieces"][0]}
        late = piecewise_doc(Z)                # NaN from y = 0.5 on
        late["map"]["breakpoints"] = [0.0, 0.5, 1.0]
        late["map"]["pieces"].append({"P": matrix_to_json(Z),
                                      "L": matrix_to_json(L)})
        lifted = dirichlet_square_doc(nodes=9)
        lifted["map"] = {"kind": "lifted",
                         "A": matrix_to_json(np.diag([1.0, np.inf])),
                         "B": matrix_to_json(np.zeros((2, 2)))}
        return {"constant": (constant, "y=0.0"), "piecewise": (late, "y=0.5"),
                "lifted-ab": (lifted, "NaN or infinite")}

    @pytest.mark.parametrize("command", ["validate", "spectrum"])
    @pytest.mark.parametrize("name", ["constant", "piecewise", "lifted-ab"])
    def test_non_finite_map_exits_2(self, tmp_path, capsys, monkeypatch,
                                    command, name):
        doc, where = self.non_finite_docs()[name]
        monkeypatch.setattr(cli, "solve", lambda *a, **k: pytest.fail("solved"))
        code = main([command, "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code == 2
        if command == "validate":              # one channel: the report's notes
            assert err == ""
            notes = json.loads(out)["notes"]
            assert len(notes) == 1 and where in notes[0]
        else:
            assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
            assert where in err

    def test_sliced_solve_over_memory_budget_exits_3(self, tmp_path,
                                                     monkeypatch, capsys):
        # the assembly of 441 dofs needs 0.31 MB; the slices of the 190 +
        # 171 reduced dofs one 121-vector basis of the boson pencil, the k
        # columns of both, and each pencil's G (21 x 19) and three more of
        # its size, 19^2 denominators and two 21 x 21 grids, and both
        # pencils' 361 sums: 0.35 MB
        need = (121 * 190 + 40 * 361
                + 2 * (4 * 21 * 19 + 19 ** 2 + 2 * 21 ** 2) + 361) * 8
        config = write_config(tmp_path, dirichlet_square_doc(nodes=21, num_eigs=40))
        monkeypatch.setattr(eigensolve, "available_memory", lambda: need - 1)
        code = main(["spectrum", "--config", config,   # k = 40: Lanczos
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical failure: sliced eigensolve")
        assert len(err.strip().splitlines()) == 1
        monkeypatch.setattr(eigensolve, "available_memory", lambda: need)
        assert main(["spectrum", "--config", config,
                     "--out", str(tmp_path / "out")]) == 0

    def test_assembly_over_memory_budget_exits_3(self, tmp_path, monkeypatch,
                                                 capsys):
        # 99^2 two-particle dofs on the 3-star at 33 nodes: about 7 MB
        monkeypatch.setattr(eigensolve, "available_memory", lambda: 1e6)
        monkeypatch.setattr(form_assembly, "assemble_two_particle",
                            lambda *a: pytest.fail("assembled"))
        doc = dirichlet_square_doc(
            graph={"edges": [["c", f"l{i}", 1.0] for i in (1, 2, 3)]})
        code = main(["spectrum", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: two-particle assembly of 9801 dofs needs "
            "about 7 MB, 1 MB free\n")

    def test_one_particle_assembly_over_memory_budget_exits_3(
            self, tmp_path, monkeypatch, capsys):
        # 3 x 2000 one-particle dofs on the 3-star: about 4 MB, checked
        # before the lift's one sample
        monkeypatch.setattr(eigensolve, "available_memory", lambda: 1e6)
        monkeypatch.setattr(cli, "validate_map",
                            lambda *a: pytest.fail("the map was sampled"))
        monkeypatch.setattr(form_assembly, "assemble_one_particle",
                            lambda *a: pytest.fail("assembled"))
        doc = star3_delta_doc(2000, particles=1)
        code = main(["spectrum", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr() == ("", (
            "numerical failure: one-particle assembly of 6000 dofs needs "
            "about 4 MB, 1 MB free\n"))

    def test_assembly_size_is_checked_before_the_map_is_sampled(
            self, tmp_path, monkeypatch, capsys):
        # 10^6 + 1 nodes: the size check needs the node counts alone
        monkeypatch.setattr(cli, "validate_map",
                            lambda *a: pytest.fail("the map was sampled"))
        code = main(["spectrum", "--config",
                     write_config(tmp_path, dirichlet_square_doc()),
                     "--mesh-h", "1e-6", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical failure: two-particle assembly of "
                              "1000002000001 dofs needs about ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command, particles", [("validate", 2)])
    def test_map_sampling_over_memory_budget_exits_3(
            self, tmp_path, monkeypatch, capsys, command, particles):
        # the 3-star's 36 x 36 map at 33 y-nodes: 33 * 36^2 * 128 B = 5.5 MB;
        # validate assembles nothing that is checked first
        monkeypatch.setattr(eigensolve, "available_memory", lambda: 1e6)
        monkeypatch.setattr(cli, "validate_map",
                            lambda *a: pytest.fail("the map was sampled"))
        doc = dirichlet_square_doc(
            graph={"edges": [["c", f"l{i}", 1.0] for i in (1, 2, 3)]},
            particles=particles)
        code = main([command, "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr() == ("", (
            "numerical failure: sampling the map at 33 y-nodes needs about "
            "5 MB, 1 MB free\n"))

    def test_memory_error_without_message_names_its_class(
            self, tmp_path, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError()

        monkeypatch.setattr(cli, "validate_map", exhausted)
        code = main(["validate", "--config",
                     write_config(tmp_path, dirichlet_square_doc(nodes=9))])
        assert code == 3
        assert capsys.readouterr() == ("", "numerical failure: MemoryError\n")

    def test_failed_slice_factor_exits_3(self, tmp_path, monkeypatch, capsys):
        # every Lanczos factor fails: the first sector's first slice at -1
        # falls back to the counted start, -1 again, whose own factor fails
        # (the equal-traces map couples the halves, no lift: SuperLU factors)
        factor, built = eigensolve._factor, []

        def singular(A, M, sigma, count=False):
            if not count:
                built.append(sigma)
                raise RuntimeError("Factor is exactly singular")
            return factor(A, M, sigma, count)

        monkeypatch.setattr(eigensolve, "_factor", singular)
        code = main(["spectrum", "--config", write_config(
            tmp_path, exchange_coupled_doc("equal-traces", 21, 10)),
            "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3 and built == [-1.0, -1.0]
        assert err == ("numerical failure: factor of A - -1.000000e+00 M: "
                       "Factor is exactly singular\n")

    def test_underflowing_lanczos_vector_exits_3(self, tmp_path, capsys):
        # an edge of 1e-150 keeps the eigenvalue scale 3/h^2 finite, but
        # at the shift -1 the first Lanczos vector's M-norm underflows
        doc = dirichlet_square_doc(nodes=9, particles=1,
                                   graph={"edges": [["a", "b", 1e-150]]})
        code = main(["analyze", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: shift-invert Lanczos near -1.000000e+00: "
            "a vector's M-norm is 0.0e+00\n")

    def test_lanczos_no_convergence_is_numerical_failure(self, tmp_path,
                                                         monkeypatch, capsys):
        # a 10-vector basis cannot hold the m = 8 of a slice converged, and
        # no thick restart is allowed
        monkeypatch.setattr(eigensolve, "LANCZOS_BASIS", 10)
        monkeypatch.setattr(eigensolve, "LANCZOS_RESTARTS", 0)
        code = main(["spectrum", "--config",   # 361 dofs, k = 5: Lanczos
                     write_config(tmp_path, dirichlet_square_doc(nodes=21)),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "Lanczos" in err
        assert "not converged" in err and len(err.strip().splitlines()) == 1


def test_sector_solve_runs_one_nullspace(monkeypatch):
    """A sector run computes only S null(C S), never the full-space basis;
    a split full-space run computes one per sector.  A lift adds exactly
    one more, the one-particle basis of its ``lift`` (ndof1 columns)."""
    calls = []
    orig = form_assembly.nullspace_from_constraints

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return orig(*args, **kwargs)

    monkeypatch.setattr(form_assembly, "nullspace_from_constraints", counted)
    monkeypatch.setattr(symmetry, "nullspace_from_constraints", counted)
    cfg = parse_config(dirichlet_square_doc(nodes=15, sector="boson"))
    *_, pencils = cli.assemble_from_config(cfg)
    eigensolve.solve(pencils, cfg.num_eigs)
    assert sorted(cols for _, cols in calls) == [15, 15 * 16 // 2]

    for doc, lift in ((dirichlet_square_doc(nodes=15), True),    # 169 dofs, k = 5
                      (p_zero_doc(15), False)):
        calls.clear()
        cfg = parse_config(doc)
        *_, pencils = cli.assemble_from_config(cfg)
        res = eigensolve.solve(pencils, cfg.num_eigs)
        assert res.method == "shift-invert" and len(res.meta["sectors"]) == 2
        assert all(cols < 15 ** 2 for _, cols in calls)
        assert len(calls) == 2 + lift
        assert [cols for _, cols in calls].count(15) == lift


def recorded_solves(monkeypatch):
    """(k, vectors) of every solve the CLI and the analyses make."""
    from qg2p import spectral_analysis
    calls = []

    def recorded(form, k, **kwargs):
        calls.append((k, kwargs.get("vectors", True)))
        return eigensolve.solve(form, k, **kwargs)

    monkeypatch.setattr(cli, "solve", recorded)
    monkeypatch.setattr(spectral_analysis, "solve", recorded)
    return calls


def test_only_spectrum_and_example_delta_solve_for_eigenvectors(
        tmp_path, capsys, monkeypatch):
    """analyze reads eigenvalues only, its bracketing and lift check too,
    from one solve for the larger of num_eigs and bracketing's n; spectrum
    reports the eigenvectors' M-orthogonality and example-delta folds the
    ground state, so both keep their vectors."""
    calls = recorded_solves(monkeypatch)
    doc = dirichlet_square_doc(nodes=17, num_eigs=20, analysis={
        "weyl": False, "bracketing": {"n": 30}, "lift_check": True})
    assert main(["analyze", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "analyze")]) == 0
    # the form, for its bracketing's n = 30 too, the two comparison spectra
    # (17 and 15 one-particle dofs) and the lift check's Dirichlet spectrum
    assert calls == [(30, False), (17, False), (15, False), (15, False)]
    calls.clear()
    assert main(["spectrum", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "spectrum")]) == 0
    assert calls == [(20, True)]
    report = json.loads((tmp_path / "spectrum" / "spectrum.json").read_text())
    assert report["max_m_orth_defect"] <= 1e-10
    calls.clear()
    assert main(["example-delta", "--config", write_config(
        tmp_path, TestExampleDeltaCommand.DOC), "--out",
        str(tmp_path / "delta")]) == 0
    assert calls == [(1, True)]


def exchange_coupled_maps():
    """name -> (edge length, P, L, boson (P1, L1), fermion (P1, L1)): maps
    on one edge that commute with the exchange but are no lifts.  The full
    spectrum is the union of the boson sums of the one-particle pencil of
    (P1, L1) for the boson sector and the fermion sums of that for the
    fermion sector.  "robin-coupled" couples psi(0, t) with psi(t, 0)
    through L, a Robin end of strength 1.5 + 0.7 for bosons and 1.5 - 0.7
    for fermions; "equal-traces" asks psi(0, t) = psi(t, 0), which bosons
    meet freely (Neumann) and fermions only at 0 (Dirichlet)."""
    zero, zero1 = np.zeros((4, 4)), np.zeros((2, 2))
    ends = np.ix_([0, 2], [0, 2])     # psi(0, t) and psi(t, 0)
    L, P = zero.copy(), zero.copy()
    L[ends] = [[1.5, 0.7], [0.7, 1.5]]
    P[ends] = [[0.5, -0.5], [-0.5, 0.5]]
    return {"robin-coupled": (1.0, zero, L, (zero1, np.diag([2.2, 0.0])),
                              (zero1, np.diag([0.8, 0.0]))),
            "equal-traces": (1.3, P, zero, (zero1, zero1),
                             (np.diag([1.0, 0.0]), zero1))}


def exchange_coupled_doc(name, nodes, num_eigs):
    """The config of an ``exchange_coupled_maps`` map."""
    length, P, L, *_ = exchange_coupled_maps()[name]
    return {"graph": {"edges": [["a", "b", length]]},
            "map": {"kind": "constant", "P": matrix_to_json(P),
                    "L": matrix_to_json(L)},
            "mesh": {"nodes": nodes}, "num_eigs": num_eigs}


@pytest.mark.parametrize("name", sorted(exchange_coupled_maps()))
def test_exchange_coupled_map_splits_into_one_particle_sums(tmp_path, name):
    *_, boson, fermion = exchange_coupled_maps()[name]
    nodes, k = 33, 40
    doc = exchange_coupled_doc(name, nodes, k)
    g = build_graph(doc["graph"])
    oracle = {sector: lift_of(g, *pl, nodes, k, sector)
              for sector, pl in (("boson", boson), ("fermion", fermion))}
    oracle["full"] = np.sort(np.concatenate(list(oracle.values())))[:k]
    for sector, want in oracle.items():
        out = tmp_path / sector
        assert main(["spectrum", "--config", write_config(tmp_path, doc),
                     "--sector", sector, "--out", str(out)]) == 0
        meta = json.loads((out / "spectrum.json").read_text())
        assert meta["method"] == "shift-invert" and meta["inertia_certified"]
        assert (meta["sectors"] is not None) == (sector == "full")
        assert np.abs(eigenvalue_column(out) - want).max() <= 1e-12 * want.max()
        form = form_assembly.assemble_two_particle(*checked_inputs(parse_config(doc)))
        dense = eigensolve.solve(symmetry.sector_pencils(form, sector, split=False),
                                 k, force_dense=True)
        assert dense.method == "dense"
        assert np.abs(dense.eigenvalues - want).max() <= 1e-12 * want.max()


def star3_delta_doc(nodes=17, **extra):
    """A 3-star delta lift with unequal legs: its map is exchange invariant,
    so the full space splits into the boson and fermion pencils."""
    doc = {"graph": {"edges": [["c", "l1", 1.07], ["c", "l2", 0.93],
                               ["c", "l3", 1.02]]},
           "map": {"kind": "lifted", "delta_strength": 2.0},
           "mesh": {"nodes": nodes}, "num_eigs": 10}
    doc.update(extra)
    return doc


def one_sided_doc():
    """Dirichlet on psi(0, t) alone: not exchange invariant, the trivial
    sector."""
    P = np.zeros((4, 4))
    P[0, 0] = 1.0
    return piecewise_doc(P, nodes=17, num_eigs=10)


def child_peak_kb(tmp_path, command, doc):
    """(exit code, stderr, VmHWM in kB) of ``qg2p <command>`` on ``doc`` in
    a fresh interpreter with one BLAS thread.  The peak is the child's
    VmHWM: its ru_maxrss keeps the peak of the process it was forked from."""
    child = ("import sys\n"
             "from qg2p.cli import main\n"
             "code = main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]])\n"
             "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
             "sys.exit(code)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", child, command, write_config(tmp_path, doc),
         str(tmp_path / "out")], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    return proc.returncode, proc.stderr, int(proc.stdout.split()[-1])


def test_one_particle_run_stays_small_in_a_fresh_interpreter(tmp_path):
    """12 000 one-particle dofs of the 3-star delta lift at 4000 nodes per
    edge: the child's own peak RSS stays under 150 MB (importing qg2p.cli
    takes about 60 MB; the lift's 36 x 36 samples at all 4000 y-nodes
    would take about 400 MB more)."""
    code, err, peak = child_peak_kb(
        tmp_path, "spectrum", star3_delta_doc(4000, num_eigs=20, particles=1))
    assert code == 0, err
    assert peak < 150 * 1024


def test_one_particle_validate_stays_small_in_a_fresh_interpreter(tmp_path):
    """``validate`` of the same lift samples it once, at y = 0, for all
    4000 y-nodes: under 150 MB where every y-node's sample took 465 MB."""
    code, err, peak = child_peak_kb(
        tmp_path, "validate", star3_delta_doc(4000, particles=1))
    assert code == 0, err
    assert peak < 150 * 1024


def p_zero_doc(nodes=17, **extra):
    """bracket-dense's map: P = 0, L = diag(l, l) with l = [[2, 0.5],
    [0.5, 1]] on [0.3, 0.7), zero elsewhere."""
    zero, L = np.zeros((4, 4)), np.zeros((4, 4))
    L[:2, :2] = L[2:, 2:] = [[2.0, 0.5], [0.5, 1.0]]
    pieces = [{"P": matrix_to_json(zero), "L": matrix_to_json(X)}
              for X in (zero, L, zero)]
    return {"graph": {"edges": [["a", "b", 1.0]]},
            "map": {"kind": "piecewise", "breakpoints": [0.0, 0.3, 0.7, 1.0],
                    "pieces": pieces},
            "mesh": {"nodes": nodes}, "num_eigs": 10, **extra}


FACTOR_PATH_CASES = {   # doc, whether its pencils skip the sparse factor
    "dirichlet-lift": (dirichlet_square_doc(nodes=17), True),
    "dirichlet-lift-fermion": (dirichlet_square_doc(nodes=17, sector="fermion"),
                               True),
    "delta-star-lift": (star3_delta_doc(), True),
    "p-zero-map": (p_zero_doc(), False),
    "dirichlet-but-one-vertex": (star3_delta_doc(map={
        "kind": "lifted", "family": "mixed",
        "mask": ["dirichlet"] * 5 + ["neumann"]}), True),     # not at l3
    "one-particle": (dirichlet_square_doc(nodes=65, particles=1), False),
}


@pytest.mark.parametrize("case", sorted(FACTOR_PATH_CASES))
def test_only_lifted_pencils_skip_the_factor(tmp_path, case):
    """A two-particle pencil whose map is bitwise a lift is solved by fast
    diagonalisation, with no LU fill; every other one by SuperLU."""
    doc, lift = FACTOR_PATH_CASES[case]
    *_, pencils = cli.assemble_from_config(parse_config(doc))
    assert [p.lift is not None for p in pencils] == [lift] * len(pencils)
    assert main(["spectrum", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 0
    meta = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    assert meta["method"] == "shift-invert" and meta["inertia_certified"]
    assert (meta["lu_fill_nnz"] == 0) == lift and meta["lu_fill_nnz"] >= 0


LIFETIME_RUNS = {   # command, doc, flags, whether the first factor is a lift's
    "analyze-split": ("analyze", p_zero_doc(33, analysis={
        "weyl": False, "bracketing": {"n": 10}}), [], False),
    "spectrum-split": ("spectrum", p_zero_doc(), [], False),
    "spectrum-fermion": ("spectrum", p_zero_doc(), ["--sector", "fermion"], False),
    "example-delta": ("example-delta", TestExampleDeltaCommand.DOC, [], False),
    "analyze-trivial": ("analyze", {**one_sided_doc(),
                                    "analysis": {"weyl": False}}, [], False),
    "analyze-lift": ("analyze", star3_delta_doc(33, analysis={
        "weyl": False, "bracketing": {"n": 10}, "lift_check": True}), [], True),
}


@pytest.mark.parametrize("run", sorted(LIFETIME_RUNS))
def test_no_assembled_matrix_lives_at_the_first_factor(tmp_path, monkeypatch,
                                                       run):
    """The commands hold only the pencils across the solve: by the first
    factor, a SuperLU one or a lift's ``_Diagonalised``, the K, M and B of
    every two-particle assembly are freed."""
    command, doc, flags, lift = LIFETIME_RUNS[run]
    refs, built = [], []
    assemble = form_assembly.assemble_two_particle

    def recorded(*args):
        form = assemble(*args)
        refs.extend(weakref.ref(X) for X in (form.K, form.M, form.B))
        return form

    def checked(factor):
        def first_checked(*args, **kwargs):
            if not built:
                assert refs and [r() for r in refs] == [None] * len(refs)
            built.append(factor.__name__)
            return factor(*args, **kwargs)
        return first_checked

    monkeypatch.setattr(form_assembly, "assemble_two_particle", recorded)
    for name in ("_factor", "_Diagonalised"):
        monkeypatch.setattr(eigensolve, name, checked(getattr(eigensolve, name)))
    assert main([command, "--config", write_config(tmp_path, doc), *flags,
                 "--out", str(tmp_path / "out")]) == 0
    assert built[0] == ("_Diagonalised" if lift else "_factor")


def test_analyze_drops_its_pencils_before_the_analyses(tmp_path, monkeypatch):
    """The bracketing and the lift check solve their own one-particle
    pencils once the run's own pencils are freed."""
    from qg2p import spectral_analysis
    refs, checked = [], []

    def solved(pencils, k, **kwargs):
        refs.extend(weakref.ref(X) for p in pencils for X in (p.A, p.M, p.N))
        return eigensolve.solve(pencils, k, **kwargs)

    def freed(fn):
        def run(*args):
            checked.append(fn.__name__)
            assert refs and [r() for r in refs] == [None] * len(refs)
            return fn(*args)
        return run

    monkeypatch.setattr(cli, "solve", solved)
    for name in ("bracketing_run", "lifted_spectrum"):
        monkeypatch.setattr(spectral_analysis, name,
                            freed(getattr(spectral_analysis, name)))
    doc = star3_delta_doc(analysis={"weyl": False, "bracketing": {"n": 10},
                                    "lift_check": True})
    assert main(["analyze", "--config", write_config(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 0
    assert set(checked) == {"bracketing_run", "lifted_spectrum"}


ONE_PATH_CASES = {"split": (star3_delta_doc(), "full"),
                  "trivial": (one_sided_doc(), "full"),
                  "fermion": (star3_delta_doc(), "fermion")}


@pytest.mark.parametrize("vectors", [True, False])
@pytest.mark.parametrize("case", sorted(ONE_PATH_CASES))
def test_a_form_and_the_cli_pencils_solve_bit_for_bit_alike(case, vectors):
    """``solve(form, k)`` takes the path of the CLI's pencils."""
    doc, sector = ONE_PATH_CASES[case]
    cfg = parse_config({**doc, "sector": sector})
    form = form_assembly.assemble_two_particle(*checked_inputs(cfg))
    if sector != "full":
        form = symmetry.assemble_symmetric_form(form, -1)
    *_, pencils = cli.assemble_from_config(cfg)
    a, b = (eigensolve.solve(x, cfg.num_eigs, vectors=vectors)
            for x in (form, pencils))
    assert (a.meta["sectors"] is not None) == (case == "split")
    for x, y in ((a.eigenvalues, b.eigenvalues), (a.residuals, b.residuals)):
        assert x.tobytes() == y.tobytes()
    assert (a.beyond, a.meta) == (b.beyond, b.meta)
    if vectors:
        assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()

"""Input mutation sweep over the benchmark workload configs.

Each case sets one entry of a config (any key path into its nested objects
and lists) to one of ``VALUES``, or deletes it, and runs ``validate`` and
the workload's own command through ``cli.main``.  Whatever the entry
becomes, a run exits 0, 2 or 3 without an exception; a failing run says why
in one stderr line, or ``validate`` in a strict-JSON report; and
every JSON file of a run that exits 0 is strict, every CSV number finite.

Tier 1 runs a fixed, seeded subset of the cases plus the overflow cases
below.  ``ALL_CASES`` is the full sweep (about 15 000 runs), which
``python -m pytest tests/sweep_all.py`` runs through the same checks.
"""
import functools
import json
import math
import operator
import os
import random
import sys
import warnings

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "perfbench"))

from workloads import WORKLOADS, make_config  # noqa: E402

from qg2p import cli  # noqa: E402

VALUES = (None, 0, -1, 2, 2.5, "x", "", [], {}, [1], [[1]], True,
          math.nan, math.inf, -math.inf, 1e300, -1e300)
DELETE = ...   # the mutation that removes the entry


def base_configs() -> dict:
    """name -> (command, config): the four workloads at 9 nodes, at most 6
    eigenvalues and no Weyl fit, and a one-particle Robin lift."""
    bases = {"one-particle": ("analyze", {
        "graph": {"edges": [["a", "b", 1.0], ["b", "c", 0.5]]},
        "map": {"kind": "lifted", "family": "robin", "alpha": 1.0},
        "mesh": {"nodes": 9}, "particles": 1, "num_eigs": 6,
        "analysis": {"weyl": False, "heat": {"t": 0.01}}})}
    for name, command in WORKLOADS.items():
        doc = json.loads(json.dumps(make_config(name, 0)))
        doc.update(mesh={"nodes": 9}, num_eigs=min(doc["num_eigs"], 6))
        if "analysis" in doc:
            doc["analysis"]["weyl"] = False
            if "bracketing" in doc["analysis"]:
                doc["analysis"]["bracketing"] = {"n": 5}
        bases[name] = (command, doc)
    return bases


def key_paths(obj, at=()):
    """Every key path into the nested objects and lists of ``obj``."""
    keys = (obj if isinstance(obj, dict)
            else range(len(obj)) if isinstance(obj, list) else ())
    for key in keys:
        yield at + (key,)
        yield from key_paths(obj[key], at + (key,))


def mutated(doc: dict, path: tuple, value) -> dict:
    """A copy of ``doc`` with the entry at ``path`` set to ``value``, or
    removed for DELETE.  The copy is a JSON round trip: a deep copy would
    keep lists that the config shares, such as bracket-dense's zero P and L."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    parent = functools.reduce(operator.getitem, head, doc)
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return doc


BASES = base_configs()
ALL_CASES = [(name, path, value) for name, (_, doc) in BASES.items()
             for path in key_paths(doc) for value in VALUES + (DELETE,)]
OVERFLOW_CASES = [
    ("delta-fold", ("map", "potential", "width"), 1e300),
    ("delta-fold", ("map", "potential", "width"), -1e300),
    ("delta-fold", ("map", "truncation"), 1e300),
    ("star3-delta", ("graph", "edges", 0, 2), 1e300),
    ("bracket-dense", ("map", "pieces", 0, "P", 0, 0, 0), 1e300),
    ("bracket-dense", ("map", "pieces", 1, "L", 0, 0, 0), 1e300),
]
RNG = random.Random(0)
TIER1_CASES = OVERFLOW_CASES + [   # 40 cases of each base config
    case for base in BASES for case in RNG.sample(
        [c for c in ALL_CASES if c[0] == base and c not in OVERFLOW_CASES], 40)]


def case_id(case) -> str:
    name, path, value = case
    shown = "del" if value is DELETE else json.dumps(value)
    return f"{name}:{'.'.join(map(str, path))}={shown}"


def write_case(tmp_path, case) -> tuple:
    """(workload command, config path) of a case, its config written."""
    name, path, value = case
    command, doc = BASES[name]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(mutated(doc, path, value)))
    return command, str(config)


def strict_json(text: str):
    """``text`` parsed as JSON with NaN and Infinity rejected."""
    def reject(token):
        raise ValueError(f"non-finite JSON number {token}")
    return json.loads(text, parse_constant=reject)


def run(command: str, config: str, out_dir: str, capfd):
    """(exit code, stdout, stderr lines) of one ``cli.main`` run; a Python
    warning counts as a stderr line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, "--config", config, "--out", out_dir])
    out, err = capfd.readouterr()
    return code, out, err.splitlines() + [str(w.message) for w in caught]


def assert_finite_outputs(out_dir: str):
    for entry in os.scandir(out_dir):
        with open(entry.path) as fh:
            text = fh.read()
        if entry.name.endswith(".json"):
            strict_json(text)
        elif entry.name.endswith(".csv"):
            rows = np.loadtxt(text.splitlines()[1:], delimiter=",", ndmin=2)
            assert np.isfinite(rows).all(), entry.name


def check_case(tmp_path, capfd, case):
    """Run ``validate`` and the workload's command on the case's config,
    check the exit codes, the stderr lines and the output files, and return
    the two exit codes."""
    command, config = write_case(tmp_path, case)
    codes = []
    for cmd in ("validate", command):
        out_dir = str(tmp_path / cmd)
        code, out, err = run(cmd, config, out_dir, capfd)
        assert code in (0, 2, 3)
        assert "On entry to" not in out          # no LAPACK parameter text
        if cmd == "validate" and out:   # a report, and nothing on stderr
            strict_json(out)
            assert code in (0, 2) and not err, err
        elif code:
            assert len(err) == 1, err
        if code == 0:
            assert_finite_outputs(out_dir)
        codes.append(code)
    return tuple(codes)


@pytest.mark.parametrize("case", TIER1_CASES, ids=map(case_id, TIER1_CASES))
def test_mutated_config_exits_cleanly(tmp_path, capfd, case):
    check_case(tmp_path, capfd, case)


@pytest.mark.parametrize("case, codes, says", [
    (OVERFLOW_CASES[0], (2, 2), "OverflowError"),
    (OVERFLOW_CASES[1], (2, 2), "OverflowError"),
    (OVERFLOW_CASES[2], (2, 2), "stiffness or mass overflows"),
    (OVERFLOW_CASES[3], (2, 2), "stiffness or mass overflows"),
    (OVERFLOW_CASES[4], (2, 2), "not an orthogonal projector"),
    (OVERFLOW_CASES[5], (3, 3), "non-finite"),
], ids=map(case_id, OVERFLOW_CASES))
def test_overflow_exit_codes(tmp_path, capfd, case, codes, says):
    """(validate, own command) exit codes of the overflow cases.  A width
    of 1e300 overflows width**2, a length of 1e300 the element mass (which
    validate checks from the mesh spacings too), and
    P @ P of a P entry of 1e300 the projector check, whose defect is then
    infinite, not NaN.  An L entry of 1e300 is admissible, but its
    semibound constant is not a JSON number."""
    command, config = write_case(tmp_path, case)
    results = [run(cmd, config, str(tmp_path / cmd), capfd)
               for cmd in ("validate", command)]
    assert tuple(code for code, _, _ in results) == codes
    assert says in results[1][2][0]
    if says == "stiffness or mass overflows":   # a validate note
        assert says in strict_json(results[0][1])["notes"][0]
    if "P" in case[1]:   # the report of a map with errors writes null
        report = strict_json(results[0][1])
        assert "not an orthogonal projector" in report["map"]["errors"][0]
        assert report["map"]["max_projector_defect"] is None


ONE_PARTICLE_SCALE_CASES = [("one-particle", ("graph", "edges", e, 2), 1e300)
                            for e in (0, 1)]


@pytest.mark.parametrize("case", ONE_PARTICLE_SCALE_CASES,
                         ids=map(case_id, ONE_PARTICLE_SCALE_CASES))
def test_one_particle_scale_exits_2(tmp_path, capfd, case):
    """A one-particle edge of 1e300 keeps K and M finite, but its
    eigenvalue scale 3/h^2 underflows: validate and analyze both say so
    (exit 2), before any solve."""
    command, config = write_case(tmp_path, case)
    results = [run(cmd, config, str(tmp_path / cmd), capfd)
               for cmd in ("validate", command)]
    assert [code for code, _, _ in results] == [2, 2]
    assert "stiffness or mass overflows" in strict_json(results[0][1])["notes"][0]
    assert len(results[1][2]) == 1
    assert "stiffness or mass overflows" in results[1][2][0]


def test_analyze_with_non_finite_residuals_exits_3(tmp_path, capfd):
    """An L entry of 1e300 is admissible, but its C_infty overflows, so the
    slices have no floor for their start shifts; without a Weyl fit nothing
    else in analysis.json would show it, and the run must not exit 0."""
    doc = mutated(BASES["bracket-dense"][1], OVERFLOW_CASES[5][1], 1e300)
    doc.update(num_eigs=10, analysis={"weyl": False})
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    code, _, err = run("analyze", str(config), str(tmp_path / "out"), capfd)
    assert code == 3
    assert err == ["numerical failure: non-finite C_infty (inf): the start "
                   "shifts have no floor"]

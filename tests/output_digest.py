"""Digest every output of the benchmark workloads, to check that a change
leaves them byte-identical.

    python tests/output_digest.py            # this working tree
    python tests/output_digest.py REV        # and REV's tree: differences only

For each workload of ``perfbench/workloads.py`` at seeds 0 and 1, and for
one-particle ``analyze`` runs on the graphs and maps of weyl-interval and
star3-delta (``ONE_PARTICLE``), runs the command, ``spectrum`` and
``validate`` in a fresh ``python -m qg2p.cli`` process
(``PYTHONPATH=<tree>/src``, ``OPENBLAS_NUM_THREADS=1``) and prints
one ``sha256  workload/seed/command/name`` line per output file, one for
stdout (the output directory replaced by a placeholder), one for stderr
and one for the exit code.  With REV it also digests ``git archive REV``,
prints the lines that differ (``-`` REV, ``+`` this tree) and exits 1 if
any do.  For each output that differs it then prints how far its numbers
moved: the largest relative difference |a - b| / max(|a|, |b|) of each
numeric CSV column and of each numeric JSON leaf (list items pooled, as
``key[]``) that is not equal, and the largest absolute difference.
Everything it writes goes to a temp dir.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS, make_config  # noqa: E402

SEEDS = (0, 1)
# workload -> the num_eigs of its one-particle run, below its dofs
ONE_PARTICLE = {"weyl-interval": 60, "star3-delta": 40}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_run_config(name: str, seed: int) -> dict:
    """The config of run ``name``: a workload's own, or for
    ``<workload>-1p`` that workload's graph and map as a one-particle run
    without the two-particle analysis keys (its window is in two-particle
    eigenvalues)."""
    if name in WORKLOADS:
        return make_config(name, seed)
    workload = name[:-len("-1p")]
    doc = make_config(workload, seed)
    analysis = {k: v for k, v in doc["analysis"].items()
                if k not in ("bracketing", "lift_check", "window")}
    return {**doc, "particles": 1, "num_eigs": ONE_PARTICLE[workload],
            "analysis": analysis}


# run name -> its own command
RUNS = {**WORKLOADS, **{f"{w}-1p": "analyze" for w in ONE_PARTICLE}}


def digest(tree: str, work: str) -> dict:
    """{workload/seed/command/name: bytes} of the outputs of the workloads
    run from ``tree``'s sources."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"),
           "OPENBLAS_NUM_THREADS": "1"}
    outputs = {}
    for workload, command in RUNS.items():
        for seed in SEEDS:
            config = os.path.join(work, f"{workload}-{seed}.json")
            with open(config, "w") as fh:
                json.dump(make_run_config(workload, seed), fh)
            for cmd in (command, "spectrum", "validate"):
                out = os.path.join(work, "out")
                run = subprocess.run(
                    [sys.executable, "-m", "qg2p.cli", cmd, "--config", config,
                     "--out", out], env=env, capture_output=True, cwd=work)
                name = f"{workload}/{seed}/{cmd}"
                for f in sorted(os.listdir(out)) if os.path.isdir(out) else ():
                    with open(os.path.join(out, f), "rb") as fh:
                        outputs[f"{name}/{f}"] = fh.read()
                    os.remove(os.path.join(out, f))
                outputs[f"{name}/stdout"] = run.stdout.replace(out.encode(), b"<out>")
                outputs[f"{name}/stderr"] = run.stderr
                outputs[f"{name}/exit"] = str(run.returncode).encode()
    return outputs


def numbers(name: str, data: bytes) -> dict:
    """{field: values} of a CSV (one field per numeric column) or a JSON
    document (one per numeric leaf, list items pooled); {} otherwise."""
    text = data.decode(errors="replace")
    if name.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(text))
        out = {}
        for c, col in enumerate(header):
            try:
                out[col] = [float(r[c]) for r in rows]
            except ValueError:
                pass
        return out
    try:
        doc = json.loads(text)
    except ValueError:
        return {}
    out = {}

    def walk(x, path):
        if isinstance(x, dict):
            for k, v in x.items():
                walk(v, f"{path}.{k}" if path else k)
        elif isinstance(x, list):
            for v in x:
                walk(v, path + "[]")
        elif isinstance(x, (int, float)) and not isinstance(x, bool):
            out.setdefault(path, []).append(float(x))
    walk(doc, "")
    return out


def moved(name: str, ours: bytes, theirs: bytes) -> list:
    """One line per numeric field of an output that differs between two
    trees: its largest relative difference, or how its shape changed."""
    a, b = numbers(name, theirs), numbers(name, ours)
    lines = []
    for field in sorted(set(a) | set(b)):
        x, y = np.array(a.get(field, [])), np.array(b.get(field, []))
        if x.shape != y.shape:
            lines.append(f"  {name}  {field}: {x.size} values -> {y.size}")
            continue
        same = (x == y) | (np.isnan(x) & np.isnan(y))
        with np.errstate(invalid="ignore"):
            dif = np.where(same, 0.0, np.nan_to_num(np.abs(x - y), nan=np.inf))
            rel = np.where(same, 0.0, dif / np.maximum(np.abs(x), np.abs(y)))
        if dif.any():
            lines.append(f"  {name}  {field}: relative {np.nanmax(rel):.3e}, "
                         f"absolute {dif.max():.3e}")
    return lines


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as work:
        ours = digest(ROOT, work)
        lines = [f"{_sha(data)}  {name}" for name, data in ours.items()]
        if not argv:
            print("\n".join(lines))
            return 0
        parent = os.path.join(work, "tree")
        archive = subprocess.run(["git", "-C", ROOT, "archive", argv[0]],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent)
        theirs = digest(parent, work)
    old = [f"{_sha(data)}  {name}" for name, data in theirs.items()]
    diff = [f"-{s}" for s in old if s not in lines] + [f"+{s}" for s in lines
                                                       if s not in old]
    print("\n".join(diff) or f"all {len(lines)} digests equal")
    for name in ours:
        if name in theirs and ours[name] != theirs[name]:
            print("\n".join(moved(name, ours[name], theirs[name])))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

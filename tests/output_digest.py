"""Digest every output of the benchmark workloads, to check that a change
leaves them byte-identical.

    python tests/output_digest.py            # this working tree
    python tests/output_digest.py REV        # and REV's tree: differences only

For each workload of ``perfbench/workloads.py`` at seeds 0 and 1, runs the
workload's own command, ``spectrum`` and ``validate`` in a fresh
``python -m qg2p.cli`` process (``PYTHONPATH=<tree>/src``,
``OPENBLAS_NUM_THREADS=1``) and prints
one ``sha256  workload/seed/command/name`` line per output file, one for
stdout (the output directory replaced by a placeholder), one for stderr
and one for the exit code.  With REV it also digests ``git archive REV``,
prints the lines that differ (``-`` REV, ``+`` this tree) and exits 1 if
any do.  Everything it writes goes to a temp dir.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS, make_config  # noqa: E402

SEEDS = (0, 1)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(tree: str, work: str) -> list:
    """The digest lines of the workloads run from ``tree``'s sources."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"),
           "OPENBLAS_NUM_THREADS": "1"}
    lines = []
    for workload, command in WORKLOADS.items():
        for seed in SEEDS:
            config = os.path.join(work, f"{workload}-{seed}.json")
            with open(config, "w") as fh:
                json.dump(make_config(workload, seed), fh)
            for cmd in (command, "spectrum", "validate"):
                out = os.path.join(work, "out")
                run = subprocess.run(
                    [sys.executable, "-m", "qg2p.cli", cmd, "--config", config,
                     "--out", out], env=env, capture_output=True, cwd=work)
                name = f"{workload}/{seed}/{cmd}"
                for f in sorted(os.listdir(out)) if os.path.isdir(out) else ():
                    with open(os.path.join(out, f), "rb") as fh:
                        lines.append(f"{_sha(fh.read())}  {name}/{f}")
                    os.remove(os.path.join(out, f))
                lines += [f"{_sha(run.stdout.replace(out.encode(), b'<out>'))}  {name}/stdout",
                          f"{_sha(run.stderr)}  {name}/stderr",
                          f"{_sha(str(run.returncode).encode())}  {name}/exit"]
    return lines


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as work:
        ours = digest(ROOT, work)
        if not argv:
            print("\n".join(ours))
            return 0
        parent = os.path.join(work, "tree")
        archive = subprocess.run(["git", "-C", ROOT, "archive", argv[0]],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(parent)
        theirs = digest(parent, work)
    diff = [f"-{s}" for s in theirs if s not in ours] + [f"+{s}" for s in ours
                                                         if s not in theirs]
    print("\n".join(diff) or f"all {len(ours)} digests equal")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

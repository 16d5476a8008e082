"""The benchmark's own test.

    python3 perfbench/selfcheck.py [--workload NAME ...] [--seed N]

Checks, from the root of a checkout:

1. BENCHMARK.json names exactly the workloads of workloads.py;
2. two traced runs of each workload at the same seed are correct (every
   run also confirms that its gate rejects a perturbed spectrum and that
   span self times cover each traced request's wall time) and report
   identical counts;
3. with all workloads run, every per-layer metric is nonzero on at least
   one of them, so none is silently unmeasured.

Exits 0 when every check passes.  All four workloads take a few minutes.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import BENCHMARK, COUNTS, ROOT, metric_units
from workloads import WORKLOADS


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: run.py exited {proc.returncode}: "
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workloads() -> list:
    with open(BENCHMARK) as fh:
        listed = {w["name"] for w in json.load(fh)["workloads"]}
    if listed != set(WORKLOADS):
        return ["BENCHMARK.json workloads differ from workloads.py"]
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    workloads = args.workload or sorted(WORKLOADS)

    problems = check_workloads()
    seen_nonzero = set()
    for w in workloads:
        first, second = traced_run(w, args.seed), traced_run(w, args.seed)
        for run in (first, second):
            if not run["correct"]:
                problems.append(f"{w}: traced run not correct")
        a, b = first["metrics"], second["metrics"]
        for key in COUNTS:
            if a[key]["value"] != b[key]["value"]:
                problems.append(f"{w}: {key} {a[key]['value']} != "
                                f"{b[key]['value']} between two runs")
        seen_nonzero |= {k for k, v in a.items() if v["value"] != 0}
        print(f"{w}: counts " + ", ".join(
            f"{k.split('.', 1)[1]}={a[k]['value']}" for k in COUNTS))
    if set(workloads) == set(WORKLOADS):
        for key in sorted(set(metric_units("per_layer")) - seen_nonzero):
            problems.append(f"{key} is 0 on every workload")

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""qg2p benchmark: time to a checked spectrum on four CLI workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the sources under `src/`.  One
run writes the seeded config, times `SETUP_PROBES` fresh interpreters that
import `qg2p.cli` and load it (`setup_s`), computes the correctness
reference in one child process, and then runs the timed requests in another
fresh child (`worker.py measure`), so that `peak_rss_mb` belongs to this
workload alone.  Children get `src` on PYTHONPATH, a fixed hash seed and
`THREADS` BLAS threads.  The thread count changes the SVD kernel basis, so
counts such as `nnz_A_r` repeat exactly only at a fixed count.  It is one
because on a 2-vCPU VM two threads doubled the run-to-run spread of `wall_s`
(interquartile range over seeds: 18% vs 5% of the median on weyl-interval).

With `--trace 0` the last stdout line holds the end-to-end metrics,
measured untraced:

- `wall_s`: median wall time of one request, from calling `cli.main` to
  its return;
- `cpu_s`: median user+sys CPU time of one request;
- `setup_s`: fresh interpreter -> `import qg2p.cli` -> config loaded;
- `peak_rss_mb`: `ru_maxrss` of the request child after its first request;
- `ok_frac`: requests that passed their check / requests attempted.

With `--trace 1` it holds the per-layer metrics of a traced run (see
`spans.py`).  BENCHMARK.json gives the names and units of both sets.
Earlier `#` lines record the environment and any failures.
The exit code is 0 when a result was printed, whether or not the outputs
were correct (that is the `correct` field), and non-zero otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, make_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

THREADS = 1          # BLAS threads per child, see above
SETUP_PROBES = 5     # setup_s is the median of these, after one warm-up
TIME_LIMIT = 170.0   # s for the whole run, children included

# per-layer counts that must repeat exactly between requests and runs
COUNTS = (
    "cli.bytes_written", "bc_maps.map_calls", "bc_maps.map_evals",
    "form_assembly.assemble_calls", "form_assembly.nullspace_calls",
    "form_assembly.ndof", "form_assembly.constraints",
    "form_assembly.touched_dofs", "form_assembly.svd_bytes",
    "form_assembly.nreduced", "form_assembly.nnz_N", "form_assembly.nnz_A_r",
    "symmetry.sector_dim", "eigensolve.solve_calls",
    "eigensolve.pencil_size", "eigensolve.lu_fill_nnz",
)

SETUP_PROBE = "import sys, qg2p.cli; qg2p.cli.load_config(sys.argv[1])"


class RunError(RuntimeError):
    """The benchmark could not produce a result."""


def metric_units(kind: str) -> dict:
    """name -> unit of the `end_to_end` or `per_layer` metrics."""
    with open(BENCHMARK) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def child_env() -> dict:
    threads = str(min(THREADS, len(os.sched_getaffinity(0))))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC + (os.pathsep + path if path else ""),
               PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    # let the warm-up probe write the bytecode cache an installed package has
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError(f"run exceeded {TIME_LIMIT:.0f} s")
    return left


def run_child(argv, env, deadline) -> dict:
    """Run a worker to completion and return its last stdout line."""
    proc = subprocess.run([sys.executable, WORKER, *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=_remaining(deadline))
    if proc.returncode != 0:
        raise RunError(f"worker {argv[0]} exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_time(config: str, env: dict, deadline: float) -> float:
    times = []
    for k in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, config],
                              env=env, cwd=ROOT, capture_output=True,
                              timeout=_remaining(deadline))
        t1 = time.perf_counter()
        if proc.returncode != 0:
            raise RunError(f"setup probe failed: {proc.stderr.decode()[-2000:]}")
        if k:  # the first probe also writes the bytecode cache
            times.append(t1 - t0)
    return statistics.median(times)


def measure(args) -> tuple:
    deadline = time.monotonic() + TIME_LIMIT
    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        config = os.path.join(work, "config.json")
        with open(config, "w") as fh:
            json.dump(make_config(args.workload, args.seed), fh, indent=1)
        env = child_env()
        setup = None if args.trace else setup_time(config, env, deadline)
        common = ["--workload", args.workload, "--config", config]
        ref = run_child(["reference", *common], env, deadline)
        ref_path = os.path.join(work, "reference.json")
        with open(ref_path, "w") as fh:
            json.dump(ref["reference"], fh)
        res = run_child(["measure", *common, "--ref", ref_path, "--work", work,
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace)], env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:  # another run is still using it
            pass
    return setup, ref["environment"], res


def _terminate(signum, frame):
    # unwinding through subprocess.run kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qg2p", "cli.py")):
        print(f"error: no qg2p sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    try:
        setup, env, res = measure(args)
    except (RunError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    walls = res["wall_s"]
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload} seed {args.seed}: {res['attempted']} requests, "
          f"{res['failed']} failed, untraced wall_s over {len(walls)}: "
          f"median {statistics.median(walls):.4f}, max {max(walls):.4f}")
    for line in res["failures"] + res["integrity"]:
        print(f"# FAIL {line}")

    if args.trace:
        units = metric_units("per_layer")
        values = {name: res["per_layer"].get(name, 0) for name in units}
    else:
        units = metric_units("end_to_end")
        values = {"wall_s": statistics.median(walls),
                  "cpu_s": statistics.median(res["cpu_s"]),
                  "setup_s": setup,
                  "peak_rss_mb": res["peak_rss_mb"],
                  "ok_frac": (res["attempted"] - res["failed"]) / res["attempted"]}
    print(json.dumps({
        "correct": res["failed"] == 0 and not res["integrity"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

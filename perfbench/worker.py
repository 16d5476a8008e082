"""One workload in one fresh process: the reference, or the timed requests.

    python3 perfbench/worker.py reference --workload W --config CFG
    python3 perfbench/worker.py measure --workload W --config CFG --ref REF \
        --work DIR --seconds S --trace 0|1

`run.py` starts it with `src` on PYTHONPATH and the BLAS thread count
pinned.  The last stdout line is a JSON object.

`measure` is a closed loop with one client: it calls `qg2p.cli.main` with
the workload's subcommand, waits for it, checks the outputs, and starts the
next request until `--seconds` have passed (at least one request).  With
`--trace 1` it alternates traced and untraced requests, starting traced, and
reports per-layer numbers and the tracing overhead.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np
import scipy

from qg2p import cli

import checks
import spans
from run import COUNTS
from workloads import WORKLOADS

# the traced run must attribute each request's wall time to its spans
SPAN_ACCOUNTING_TOL = 0.05


def environment() -> dict:
    def blas(cfg):
        return cfg["Build Dependencies"]["blas"].get("version")

    return {
        "threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np.show_config(mode="dicts")),
        "scipy_openblas": blas(scipy.show_config(mode="dicts")),
    }


def run_request(argv, tracer):
    """(exit code or exception text, wall s, cpu s) of one cli.main call."""
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        if tracer:
            tracer.install()
        try:
            c0, t0 = os.times(), time.perf_counter()
            try:
                rc = tracer.request(cli.main, argv) if tracer else cli.main(argv)
            except Exception as exc:  # a crash is a failed request, not ours
                rc = f"{type(exc).__name__}: {exc}"
            t1, c1 = time.perf_counter(), os.times()
        finally:
            if tracer:
                tracer.uninstall()
    cpu = (c1.user + c1.system) - (c0.user + c0.system)
    return rc, t1 - t0, cpu


def measure(args) -> dict:
    with open(args.ref) as fh:
        ref = json.load(fh)
    base = [WORKLOADS[args.workload], "--config", args.config]
    tracer = spans.Tracer() if args.trace else None
    walls = {True: [], False: []}
    cpus, failures, failed, layers = [], [], set(), []
    oracle_err, self_check, lu_fill, peak_rss = 0.0, None, None, None

    start = time.perf_counter()
    i = 0
    while (i == 0 or time.perf_counter() - start < args.seconds
           or (tracer and not walls[False])):
        traced = bool(tracer) and i % 2 == 0
        outdir = os.path.join(args.work, f"req{i}")
        rc, wall, cpu = run_request(base + ["--out", outdir],
                                    tracer if traced else None)
        i += 1
        if peak_rss is None:
            # the peak of one CLI run; later requests only add allocator noise
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls[traced].append(wall)
        cpus.append(cpu)
        if rc != 0:
            failed.add(i)
            failures.append(f"request {i}: exit {rc}")
            shutil.rmtree(outdir, ignore_errors=True)
            continue
        out = checks.read_outputs(outdir)
        shutil.rmtree(outdir)
        bad = checks.check(args.workload, out, ref)
        if bad:
            failed.add(i)
        failures.extend(f"request {i}: {b}" for b in bad)
        if not bad:
            oracle_err = max(oracle_err,
                             checks.oracle_error(args.workload, out, ref))
        if self_check is None and not bad:
            self_check = bool(checks.check(args.workload,
                                           checks.perturb(args.workload, out), ref))
        if traced:
            m = tracer.request_metrics()
            m["cli.bytes_written"] = out["bytes_written"]
            m["trace.self_sum_frac"] = m.pop("trace.self_sum_s") / wall
            if lu_fill is None:
                lu_fill = tracer.lu_fill_nnz()
            m["eigensolve.lu_fill_nnz"] = lu_fill
            layers.append(m)

    result = {
        "attempted": i,
        "failed": len(failed),
        "failures": failures[:10],
        "integrity": [] if self_check else
                     ["the gate did not catch a perturbed spectrum"],
        "wall_s": walls[False],
        "cpu_s": cpus,
        "peak_rss_mb": peak_rss,
    }
    if tracer:
        result["per_layer"] = per_layer(layers, walls, oracle_err, result)
    return result


def per_layer(layers, walls, oracle_err, result) -> dict:
    """Medians of the traced requests' times; counts from the first one."""
    if not layers:
        return {}
    out = {}
    for key in layers[0]:
        if key in COUNTS:
            values = {lay.get(key) for lay in layers}
            if len(values) > 1:
                result["integrity"].append(f"{key} differs between traced "
                                           f"requests: {sorted(values)}")
            out[key] = layers[0][key]
        elif key.endswith("rss_delta_mb"):
            out[key] = layers[0][key]   # only the first request grows the peak
        else:
            out[key] = statistics.median([lay[key] for lay in layers])
    for lay in layers:
        if abs(lay["trace.self_sum_frac"] - 1.0) > SPAN_ACCOUNTING_TOL:
            result["integrity"].append(
                f"span self times cover {lay['trace.self_sum_frac']:.3f} "
                "of a traced request's wall time")
    out["eigensolve.oracle_rel_err"] = oracle_err
    out["trace.wall_s"] = statistics.median(walls[True])
    out["trace.overhead_frac"] = (statistics.median(walls[True])
                                  / statistics.median(walls[False]) - 1.0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("reference", "measure"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--ref")
    ap.add_argument("--work")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.mode == "reference":
        with open(args.config) as fh:
            doc = json.load(fh)
        result = {"reference": checks.reference(args.workload, doc),
                  "environment": environment()}
    else:
        result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

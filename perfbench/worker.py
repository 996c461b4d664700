"""Run one workload in this process and write its measurements as JSON.

Started by ``run.py``: several times with ``--cold-only`` (set-up and the
first pass), then once for the measured run.  The thread caps below are set
before numpy is imported, so BLAS, OpenMP and moyal's own sweeps run
single-threaded.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "MOYAL_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402


def host_probe() -> dict:
    """Fixed pure-Python and numpy work, timed in ms; printed, never gated."""
    import numpy as np

    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    t1 = perf_counter()
    a = np.random.default_rng(0).standard_normal((160, 160))
    for _ in range(20):
        a = a @ a
        a /= np.abs(a).max()
    t2 = perf_counter()
    return {"python_ms": round(1e3 * (t1 - t0), 2),
            "numpy_ms": round(1e3 * (t2 - t1), 2)}


def machine_facts() -> dict:
    import mpmath
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "blas": blas, "numpy": np.__version__,
            "mpmath": mpmath.__version__, "python": platform.python_version()}


def run_pass(workload, tracer, known_failures, outcome):
    """Run every job once (timed), then check every result (untimed)."""
    results = []
    if tracer:
        tracer.begin_pass()
    t0 = perf_counter()
    for job in workload.jobs:
        try:
            results.append((job, job.run(), None))
        except Exception:   # a failing operation must not stop the run
            results.append((job, None, traceback.format_exc()))
    wall = perf_counter() - t0
    if tracer:
        tracer.end_pass(wall)
    for job, result, error in results:
        checks = []
        if error is None:
            try:
                checks = job.check(result)
            except Exception:
                error = traceback.format_exc()
        bad = [c for c in checks if not c[1] <= c[2]]
        outcome["attempted"] += 1
        if error is None and not bad:
            for _, err, tol in checks:
                if err > 0.0 and tol > 0.0:
                    outcome["headroom"] = min(outcome["headroom"],
                                              math.log10(tol / err))
            continue
        outcome["failed"] += 1
        if job.name not in known_failures:
            outcome["unexpected"].add(job.name)
            detail = error or "; ".join(
                f"{label}: {err:.3e} > {tol:.1e}" for label, err, tol in bad)
            print(f"operation {job.name} failed: {detail}", file=sys.stderr)
    return wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="write the traced spans here")
    ap.add_argument("--cold-only", action="store_true",
                    help="stop after set-up and the first pass")
    args = ap.parse_args(argv)

    t0 = perf_counter()
    import moyal  # noqa: F401  (the import is part of set-up)
    import workloads
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, [workloads])
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = perf_counter() - t0

    outcome = {"attempted": 0, "failed": 0, "headroom": math.inf,
               "unexpected": set()}
    probe_start = host_probe()
    walls = [run_pass(workload, tracer, workloads.KNOWN_FAILURES, outcome)]
    while not args.cold_only and sum(walls[1:]) < args.seconds:
        walls.append(run_pass(workload, tracer, workloads.KNOWN_FAILURES,
                              outcome))
    probe_end = host_probe()

    doc = {
        "setup_s": setup_s,
        "cold_s": walls[0],
        "round_s": statistics.median(walls[1:]) if walls[1:] else None,
        "passes": len(walls) - 1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "headroom_digits": outcome["headroom"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "unexpected": sorted(outcome["unexpected"]),
        "host_probe": {"start": probe_start, "end": probe_end},
        "machine": machine_facts(),
    }
    if tracer:
        doc["per_layer"] = tracing.per_layer(tracer)
        if args.spans:
            tracer.dump(args.spans)
    with open(args.result, "w") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

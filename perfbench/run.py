"""Benchmark of the moyal package: one workload per call.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each call runs the workload in fresh
processes (``worker.py``) with BLAS/OpenMP capped at one thread: a few that
stop after set-up and the first pass, which sample ``setup_s`` and
``cold_s``, then one that also runs the timed passes.  Processes run one at
a time, so no more than one core is busy.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  Lines before it, starting with ``#``, give the machine facts
and a host-speed probe taken at the start and the end of the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("closed_form", "grid_oracle", "negativity", "export")
COLD_SAMPLES = 4           # first-pass-only processes before the measured one
DEADLINE_S = 170           # every worker is stopped by then, within 180 s
END_TO_END = (("cold_s", "s"), ("round_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("headroom_digits", "digits"))


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    path = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def run_worker(args, workdir: Path, extra, deadline: float) -> dict:
    result = workdir / "result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir / "files"), "--result", str(result)]
    proc = subprocess.run(cmd + extra, cwd=ROOT, env=worker_env(),
                          stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(result.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "moyal" / "__init__.py").is_file():
        print(f"error: no moyal sources under {ROOT / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    (workdir / "files").mkdir()
    try:
        # fresh processes that stop after the first pass give more samples
        # of set-up and cold time; the last process also runs the timed
        # passes
        runs = []
        if not args.trace:
            runs = [run_worker(args, workdir, ["--cold-only"], deadline)
                    for _ in range(COLD_SAMPLES)]
        extra = []
        if args.trace:
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            extra = ["--spans",
                     str(out / f"spans-{args.workload}-{args.seed}.jsonl")]
        runs.append(run_worker(args, workdir, extra, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    doc = runs[-1]
    unexpected = sorted({name for r in runs for name in r["unexpected"]})
    headroom = min(r["headroom_digits"] for r in runs)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "cold_s": statistics.median(r["cold_s"] for r in runs),
        "round_s": doc["round_s"],
        "peak_rss_mb": doc["peak_rss_mb"],
        "headroom_digits": headroom,
    }
    machine = dict(doc["machine"], git=git_sha())
    print("# machine " + json.dumps(machine))
    for r in runs:
        print("# host probe " + json.dumps(r["host_probe"])
              + f" timed passes={r['passes']}")
    if unexpected:
        print("# unexpected failures " + json.dumps(unexpected))
    if args.trace:
        metrics = doc["per_layer"]
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({
        "correct": not unexpected and math.isfinite(headroom),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

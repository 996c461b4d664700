"""Tests of the benchmark itself: its checks pass on the program's results
and fail on corrupted ones, and its trace arithmetic is right.

    python3 -m pytest perfbench -q

The workloads run at their "tiny" sizes here.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from moyal import DampedParams, GridField, damped_wigner_values  # noqa: E402
from moyal.formats import read_grid_csv  # noqa: E402

import tracing  # noqa: E402
from reference import damped_w_mp  # noqa: E402
from workloads import KNOWN_FAILURES, WORKLOADS, _cli  # noqa: E402


def failures(checks):
    return [c for c in checks if not c[1] <= c[2]]


def job(workload, name):
    return next(j for j in workload.jobs if j.name == name)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_only_known_faults_fail(name, seed, tmp_path):
    workload = WORKLOADS[name](seed, tmp_path, "tiny")
    failed = {j.name for j in workload.jobs if failures(j.check(j.run()))}
    assert failed <= KNOWN_FAILURES
    if name == "closed_form":
        assert failed == {"purity.damped0.9.n3", "purity.damped0.9.n5"}


def test_closed_form_catches_corrupted_results(tmp_path):
    workload = WORKLOADS["closed_form"](3, tmp_path, "tiny")
    purity = job(workload, "purity.harmonic.n1")
    WW = purity.run()
    assert not failures(purity.check(WW))
    assert failures(purity.check(WW.scale(-1.0)))
    star = job(workload, "star.deg2")
    h = star.run()
    assert not failures(star.check(h))
    assert failures(star.check(h.scale(1.0 + 1e-6)))
    ladder = job(workload, "ladder.n2")
    assert failures(ladder.check(job(workload, "ladder.n3").run()))


def test_grid_oracle_catches_one_wrong_node(tmp_path):
    workload = WORKLOADS["grid_oracle"](3, tmp_path, "tiny")
    for j in workload.jobs:
        R = j.run()
        assert not failures(j.check(R)), j.name
        values = np.array(R.values)
        values[R.spec.nq // 3, R.spec.np // 2] += 1e-3
        assert failures(j.check(GridField(R.spec, values, R.hbar))), j.name


def test_negativity_catches_shifted_eta(tmp_path):
    workload = WORKLOADS["negativity"](3, tmp_path, "tiny")
    radial, grid, scan = workload.jobs
    codes = [j.run() for j in workload.jobs]
    for j, code in zip(workload.jobs, codes):
        assert not failures(j.check(code)), j.name
    assert failures(radial.check(4))

    def shift(path, edit):
        doc = json.loads(Path(path).read_text())
        edit(doc)
        Path(path).write_text(json.dumps(doc))

    shift(workload.radial_path,
          lambda d: d["records"][2].__setitem__("eta", d["records"][2]["eta"]
                                                + 1e-6))
    assert failures(radial.check(codes[0]))
    radial.run()
    shift(tmp_path / "scan1.json",
          lambda d: d.__setitem__("radial_eta", d["radial_eta"] + 1e-6))
    assert failures(scan.check(codes[2]))
    shift(tmp_path / "grid.json",
          lambda d: d["records"][1].__setitem__("eta", d["records"][1]["eta"]
                                                + 1e-2))
    assert failures(grid.check(codes[1]))


def test_export_catches_one_changed_digit(tmp_path):
    workload = WORKLOADS["export"](3, tmp_path, "tiny")
    write, read = job(workload, "write.damped"), job(workload, "read.damped")
    assert not failures(write.check(write.run()))
    assert not failures(read.check(read.run()))
    path = tmp_path / "damped.csv"
    lines = path.read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines)
               if not line.startswith("#") and "e-01" in line.split(",")[2])
    q, p, w = lines[row].split(",")
    digit = "5" if w[3] != "5" else "6"
    lines[row] = f"{q},{p},{w[:3]}{digit}{w[4:]}"
    path.write_text("".join(lines))
    assert failures(read.check(read.run()))
    assert failures(write.check(0))


def test_export_catches_the_default_box(tmp_path):
    """`moyal wigner --model damped --n 10 --lambda 0.9` on the default
    +-6 box cuts off most of the state; the trapezoid check sees it."""
    workload = WORKLOADS["export"](3, tmp_path, "tiny")
    out = tmp_path / "w10.csv"
    assert _cli(["wigner", "--model", "damped", "--n", 10, "--lambda", 0.9,
                 "--nq", 201, "--np", 201, "--out", out]) == 0
    dp = DampedParams(0.9, 10)
    checks = workload._read_check(
        read_grid_csv(out), lambda Q, P: damped_wigner_values(dp, Q, P), 10,
        lambda q, p: damped_w_mp(10, 0.9, q, p), True)
    assert [c[0] for c in failures(checks)] == ["trapezoid int W = 1"]


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "export",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_per_layer_self_time_and_nesting():
    t = tracing.Tracer()
    t.begin_pass()
    t.end_pass(1.0)                   # the cold pass is left out
    t.begin_pass()
    # cli.main [0, 10] holds write_grid_csv [2, 5] and a nested cli.main
    # [6, 8]; the nested call is inside the outer one and not added again
    t.spans = [["cli.main", 0.0, 10.0, -1, 1],
               ["formats.write_grid_csv", 2.0, 5.0, 0, 1],
               ["cli.main", 6.0, 8.0, 0, 1]]
    t.counts[-1]["formats.write_grid_csv.bytes"] = 6e6
    t.end_pass(10.0)
    m = {k: v["value"] for k, v in tracing.per_layer(t).items()}
    assert m["cli.main.ms"] == pytest.approx(10e3)
    assert m["cli.main.self_ms"] == pytest.approx(7e3)
    assert m["formats.write_grid_csv.ms"] == pytest.approx(3e3)
    assert m["formats.write_grid_csv.mb_per_s"] == pytest.approx(2.0)
    assert m["trace.self_share"] == pytest.approx(100.0)
    assert m["trace.round_s"] == pytest.approx(10.0)
    assert m["grid.sample.ms"] == 0.0


def test_wrapper_returns_the_same_result():
    t = tracing.Tracer()
    Q, P = np.meshgrid(np.linspace(-3, 3, 7), np.linspace(-2, 2, 5))
    dp = DampedParams(0.5, 3)
    wrapped = t.wrap(damped_wigner_values, "models.damped_wigner_values",
                     (("models.damped_wigner_values.points",
                       lambda a, k: a[1].size),))
    t.begin_pass()
    got = wrapped(dp, Q, P)
    t.end_pass(1.0)
    assert np.array_equal(got, damped_wigner_values(dp, Q, P))
    assert t.counts[0]["models.damped_wigner_values.points"] == 35
    assert [s[0] for s in t.spans] == ["models.damped_wigner_values"]

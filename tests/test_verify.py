import io

import moyal.verify
from moyal.cli import main
from moyal.models import damped_wigner
from moyal.verify import GRID_PURITY_TOL, report, run_checks


def _sign_flipped(monkeypatch):
    # a negative control: every damped state with the wrong sign
    monkeypatch.setattr(moyal.verify, "damped_wigner",
                        lambda dp: damped_wigner(dp).scale(-1.0))


def test_all_checks_pass_at_default_resolution():
    results = run_checks(grid_points=96)
    failed = [r.name for r in results if not r.passed]
    assert failed == []


def test_report_prints_one_line_per_check():
    results = run_checks(grid_points=96)
    buf = io.StringIO()
    ok = report(results, buf)
    lines = [l for l in buf.getvalue().splitlines() if l.startswith(("PASS", "FAIL"))]
    assert ok and len(lines) == len(results)


def test_injected_sign_error_trips_parity(monkeypatch):
    _sign_flipped(monkeypatch)
    results = run_checks(grid_points=96)
    by_name = {r.name: r for r in results}
    assert not by_name["parity-at-origin"].passed


def test_coarse_grid_uses_relaxed_documented_bound():
    results = run_checks(grid_points=64)
    by_name = {r.name: r for r in results}
    assert by_name["purity-grid"].tol == GRID_PURITY_TOL[64]
    assert by_name["purity-grid"].passed


def test_cli_verify_exit_codes(capsys, monkeypatch):
    assert main(["verify", "--nq", "64"]) == 0
    capsys.readouterr()
    _sign_flipped(monkeypatch)
    assert main(["verify", "--nq", "64"]) == 5
    out = capsys.readouterr().out
    assert "FAIL" in out

import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from moyal import negativity
from moyal.cli import main
from moyal.formats import read_grid_csv, records_to_json, write_grid_csv
from moyal.grid import GridField, GridSpec, sample
from moyal.models import DampedParams, damped_wigner, damped_wigner_values
from moyal.negativity import (damped_box, eta_radial, lambda_scan,
                              negativity_table)
from oracles import adaptive_eta_greedy, grid_csv_text, read_grid_csv_lines


def test_grid_csv_roundtrip(tmp_path):
    spec = GridSpec(-3.0, 3.0, -2.0, 2.0, 16, 12)
    field = sample(damped_wigner(DampedParams(0.2, 1)), spec)
    path = tmp_path / "w.csv"
    write_grid_csv(field, str(path), {"model": "damped", "n": 1})
    back, meta = read_grid_csv(str(path))
    assert back.spec == spec
    assert meta["model"] == "damped"
    assert np.abs(back.values - field.values).max() < 1e-15


def test_grid_csv_complex_roundtrip():
    spec = GridSpec(-2.0, 2.0, -2.0, 2.0, 8, 8)
    vals = np.exp(1j * np.arange(64).reshape(8, 8) / 7.0)
    field = GridField(spec, vals)
    buf = io.StringIO()
    write_grid_csv(field, buf)
    back, meta = read_grid_csv(io.StringIO(buf.getvalue()))
    assert meta["complex"] == "1"
    assert np.abs(back.values - vals).max() < 1e-15


def test_grid_csv_deterministic_bytes():
    spec = GridSpec(-2.0, 2.0, -2.0, 2.0, 9, 9)
    field = sample(damped_wigner(DampedParams(0.1, 2)), spec)
    a, b = io.StringIO(), io.StringIO()
    write_grid_csv(field, a, {"model": "damped"})
    write_grid_csv(field, b, {"model": "damped"})
    assert a.getvalue() == b.getvalue()
    # 17 significant digits in scientific notation
    first_row = a.getvalue().splitlines()[-1]
    mantissa = first_row.split(",")[2].split("e")[0]
    assert len(mantissa.replace("-", "").replace(".", "")) == 17


def _awkward_field(is_complex: bool) -> GridField:
    # non-square, off-centre, signed zeros, subnormals and a warning line
    spec = GridSpec(-2.5, 3.0, -1.0, 1.75, 9, 13)
    vals = np.cos(np.arange(117.0).reshape(9, 13) / 5.0) * 1e-3
    vals[0, 0], vals[1, 2], vals[2, 3] = -0.0, 5e-324, -2.2250738585072014e-309
    if is_complex:
        vals = vals + 1j * np.sin(np.arange(117.0).reshape(9, 13) / 3.0)
        vals[3, 4] = complex(0.25, -0.0)
    return GridField(spec, vals, 0.7, ("left operand does not decay",
                                       "norm off by 1e-3 at |q|<=2.5"))


@pytest.mark.parametrize("is_complex", [False, True])
def test_grid_csv_bytes_match_per_value_oracle(is_complex, tmp_path):
    field = _awkward_field(is_complex)
    meta = {"model": "harmonic", "n": 3, "hbar": 0.7}
    path = tmp_path / "w.csv"
    write_grid_csv(field, str(path), meta)
    text = path.read_bytes().decode()
    assert text == grid_csv_text(field, meta)
    assert f"# complex={int(is_complex)}" in text.splitlines()
    buf = io.StringIO()
    write_grid_csv(field, buf, meta)
    assert buf.getvalue() == text


@pytest.mark.parametrize("is_complex", [False, True])
def test_read_grid_csv_matches_line_oracle(is_complex, tmp_path):
    field = _awkward_field(is_complex)
    path = tmp_path / "w.csv"
    write_grid_csv(field, str(path), {"model": "harmonic"})
    from_path, meta = read_grid_csv(str(path))
    with open(path) as fh:
        from_file, meta_fh = read_grid_csv(fh)
    want, want_meta = read_grid_csv_lines(path.read_text())
    assert from_path.values.tobytes() == from_file.values.tobytes()
    assert from_path.values.tobytes() == want.tobytes()
    assert meta == meta_fh == want_meta
    assert from_path.spec == field.spec and from_path.hbar == 0.7
    assert from_path.warnings == from_file.warnings == field.warnings


def test_cli_csv_bytes_match_per_value_oracle(tmp_path):
    out = tmp_path / "w.csv"
    box = [repr(v) for v in damped_box(3, -0.6)]
    assert main(["wigner", "--model", "damped", "--n", "3", "--lambda", "-0.6",
                 "--qmin", box[0], "--qmax", box[1], "--pmin", box[2],
                 "--pmax", box[3], "--nq", "33", "--np", "20",
                 "--out", str(out)]) == 0
    spec = GridSpec(*damped_box(3, -0.6), 33, 20)
    field = GridField(spec, damped_wigner_values(DampedParams(-0.6, 3),
                                                 *spec.meshgrid()))
    assert out.read_bytes().decode() == grid_csv_text(
        field, {"model": "damped", "n": 3, "lambda": -0.6,
                "normalization": "unit-integral"})


def test_read_grid_csv_errors(tmp_path):
    spec = GridSpec(-2.0, 2.0, -1.0, 1.0, 8, 9)
    field = sample(damped_wigner(DampedParams(0.2, 1)), spec)
    buf = io.StringIO()
    write_grid_csv(field, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    with pytest.raises(ValueError, match="^row count does not match the "
                                         "declared grid$"):
        read_grid_csv(io.StringIO("".join(lines[:-1])))
    q, p, w = lines[-3].split(",")
    ragged = lines[:-3] + [f"{q},{p}\n"] + lines[-2:]
    with pytest.raises(ValueError):
        read_grid_csv(io.StringIO("".join(ragged)))


def test_records_json_deterministic():
    recs = [eta_radial(n) for n in range(3)]
    assert records_to_json(recs) == records_to_json(recs)
    doc = json.loads(records_to_json(recs, {"model": "damped"}))
    assert doc["model"] == "damped"
    assert len(doc["records"]) == 3


# ---- CLI ---------------------------------------------------------------


def test_cli_wigner_damped_peak(tmp_path):
    out = tmp_path / "w0.csv"
    rc = main(["wigner", "--model", "damped", "--n", "0", "--lambda", "0.1",
               "--out", str(out)])
    assert rc == 0
    field, meta = read_grid_csv(str(out))
    assert meta["model"] == "damped"
    assert field.values.real.max() == pytest.approx(1.0 / np.pi, abs=1e-12)
    i0 = np.argmin(np.abs(field.spec.qs))
    assert field.values.real[i0, i0] == pytest.approx(1.0 / np.pi, abs=1e-12)


def test_cli_wigner_strong_squeezing_pattern(tmp_path):
    out = tmp_path / "w10.csv"
    rc = main(["wigner", "--model", "damped", "--n", "10", "--lambda", "0.9",
               "--out", str(out)])
    assert rc == 0
    field, _ = read_grid_csv(str(out))
    vals = field.values.real
    qs = field.spec.qs
    diag = np.array([vals[i, i] for i in range(len(qs))])
    anti = np.array([vals[i, len(qs) - 1 - i] for i in range(len(qs))])
    # elongated along q = p: many oscillations on the diagonal, nothing on
    # the antidiagonal away from the center
    signs = np.sign(diag[np.abs(diag) > 1e-6])
    assert (np.diff(signs) != 0).sum() >= 10
    far = np.abs(qs) > 2.0
    assert np.abs(anti[far]).max() < 1e-2 * np.abs(diag[far]).max()
    assert vals[100, 100] == pytest.approx(1.0 / np.pi, abs=1e-9)


def test_cli_wigner_damped_box_keeps_normalization(tmp_path, capsys):
    out = tmp_path / "w.csv"
    box = [repr(v) for v in damped_box(10, 0.9)]
    assert main(["wigner", "--model", "damped", "--n", "10", "--lambda", "0.9",
                 "--qmin", box[0], "--qmax", box[1], "--pmin", box[2],
                 "--pmax", box[3], "--nq", "41", "--np", "41",
                 "--out", str(out)]) == 0
    field, meta = read_grid_csv(str(out))
    assert meta["normalization"] == "unit-integral" and field.warnings == ()
    assert capsys.readouterr().err == ""


def test_cli_wigner_truncating_box_warns(tmp_path, capsys):
    # the default +-6 box cuts off damped_box(10, 0.9) = +-22.3
    out = tmp_path / "w.csv"
    assert main(["wigner", "--model", "damped", "--n", "10", "--lambda", "0.9",
                 "--nq", "41", "--np", "41", "--out", str(out)]) == 0
    header = [line for line in out.read_text().splitlines()
              if line.startswith("#")]
    warning = ("the box cuts the state off; damped_box spans |q| and |p| "
               "up to 22.3")
    assert f"# warning={warning}" in header
    assert not any("normalization" in line for line in header)
    assert warning in capsys.readouterr().err
    field, meta = read_grid_csv(str(out))
    assert field.warnings == (warning,) and "normalization" not in meta
    assert (field.spec.qmin, field.spec.qmax) == (-6.0, 6.0)
    # one edge short of the state's box is enough to warn
    box = [repr(v) for v in damped_box(2, 0.3)]
    assert main(["wigner", "--model", "damped", "--n", "2", "--lambda", "0.3",
                 "--qmin", box[0], "--qmax", box[1], "--pmin", box[2],
                 "--pmax", repr(0.9 * float(box[3])), "--nq", "16",
                 "--np", "16", "--out", str(out)]) == 0
    field, meta = read_grid_csv(str(out))
    assert len(field.warnings) == 1 and "normalization" not in meta


def test_cli_wigner_helium_sectors(tmp_path):
    out = tmp_path / "hel.csv"
    rc = main(["wigner", "--model", "helium", "--nu", "0", "--nv", "0",
               "--xi", "0.1", "--out", str(out)])
    assert rc == 0
    for sector in ("u", "v"):
        field, meta = read_grid_csv(str(tmp_path / f"hel_{sector}.csv"))
        assert meta["sector"] == sector
        total = np.trapezoid(np.trapezoid(field.values.real, dx=field.spec.dp),
                             dx=field.spec.dq)
        assert total == pytest.approx(1.0, abs=1e-6)


def test_cli_wigner_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["wigner", "--model", "damped", "--n", "1", "--lambda", "0.5",
            "--nq", "64", "--np", "64"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_spectrum_damped(capsys):
    rc = main(["spectrum", "--model", "damped", "--lambda", "0", "--n-max", "3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["E"] for r in doc["records"]] == [0.5, 1.5, 2.5, 3.5]
    rc = main(["spectrum", "--model", "damped", "--lambda", "0.8", "--n-max", "0"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["records"][0]["E"] == pytest.approx(0.3, abs=1e-15)


def test_cli_spectrum_helium(capsys):
    rc = main(["spectrum", "--model", "helium", "--xi", "0.1", "--n-max", "0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    row = doc["records"][0]
    assert row["E_exact"] == pytest.approx(0.974341649, abs=1e-9)
    assert row["E_first_order"] == pytest.approx(0.975, abs=1e-15)


def test_cli_negativity_check_passes(capsys):
    rc = main(["negativity", "--model", "damped", "--n-max", "9",
               "--method", "radial", "--check-table1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["records"]) == 10


def test_cli_negativity_single_row(capsys):
    rc = main(["negativity", "--n-max", "0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"] == [{"model": "damped", "n": 0, "lam": 0.0,
                               "method": "radial", "eta": 0.0,
                               "err_estimate": 0.0}]


def test_cli_negativity_check_fails_at_tight_tolerance(capsys):
    # the embedded reference digits are only good to ~1e-5; a 1e-12 check
    # must fail and report per-row differences
    rc = main(["negativity", "--n-max", "9", "--check-table1",
               "--table-tol", "1e-12"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "mismatch" in err and "n=9" in err


def test_cli_lambda_scan(capsys):
    rc = main(["negativity", "--lambda-scan", "0,0.3,0.6,0.9", "--n", "1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["max_deviation"] <= 1e-3
    rc = main(["negativity", "--lambda-scan", "0,0.9", "--n", "2",
               "--tol", "1e-9"])
    captured = capsys.readouterr()
    assert rc == 4
    assert "FAILED" in captured.err


def test_cli_negativity_grid_bytes_match_greedy_loop(tmp_path, monkeypatch):
    # the batched adaptive loop writes what the one-panel-per-turn loop gives
    table, scan = tmp_path / "table.json", tmp_path / "scan.json"
    assert main(["negativity", "--method", "grid", "--n-max", "10",
                 "--lambda", "0.6", "--out", str(table)]) == 0
    scan_rc = main(["negativity", "--lambda-scan=0,0.3,-0.6,0.9", "--n", "3",
                    "--out", str(scan)])
    monkeypatch.setattr(negativity, "_adaptive_eta", adaptive_eta_greedy)
    records = negativity_table(10, 0.6, "grid", tol=1e-3)
    assert table.read_bytes() == records_to_json(
        records, {"model": "damped", "lambda": 0.6,
                  "method": "grid"}).encode()
    report = lambda_scan(3, (0.0, 0.3, -0.6, 0.9), 1e-3)
    assert scan_rc == (0 if report.ok else 4)
    doc = {"n": 3, "tol": 1e-3, "lambdas": [0.0, 0.3, -0.6, 0.9],
           "radial_eta": report.radial.eta,
           "grid_etas": [r.eta for r in report.grid],
           "max_deviation": report.max_deviation, "ok": report.ok}
    assert scan.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()


def test_cli_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["wigner", "--model", "harmonic", "--lambda", "0.5",
              "--out", "x.csv"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["wigner", "--model", "damped", "--xi", "0.2", "--out", "x.csv"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["wigner", "--model", "damped"])  # no --out
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--model", "damped", "--format", "csv"])
    assert exc.value.code == 2


def test_cli_io_error(tmp_path):
    rc = main(["wigner", "--model", "damped", "--n", "0",
               "--out", str(tmp_path / "missing" / "w.csv"),
               "--nq", "16", "--np", "16"])
    assert rc == 3


def test_cli_module_entry_point():
    # README repo-root invocation: relative PYTHONPATH, bare env on purpose.
    proc = subprocess.run(
        [sys.executable, "-m", "moyal", "spectrum", "--model", "damped",
         "--n-max", "1"],
        capture_output=True, text=True, cwd=Path(__file__).resolve().parents[1],
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"})
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["records"][0]["E"] == 0.5

import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from moyal import formats, negativity
from moyal.cli import main
from moyal.formats import (_FMT, _format_e16, read_grid_csv, records_to_json,
                           write_grid_csv)
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


_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
            2.2250738585072014e-308, 2.225073858507201e-308,
            1.7976931348623157e308, 1e16, 1e17, 9.999999999999999e16,
            1.00000762939453125, 0.5, 1e-5, 1e100, 123.0]


@given(st.one_of(st.floats(), st.sampled_from(_SPECIAL)))
def test_format_e16_scalar_matches_python(x):
    assert _format_e16(x) == [_FMT.format(x)]


@given(st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL)),
                max_size=40))
def test_format_e16_array_matches_python(xs):
    assert _format_e16(np.array(xs, dtype=float)) == [_FMT.format(x)
                                                      for x in xs]


def _hard_doubles():
    rng = np.random.default_rng(20240811)
    bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64)
    sub = rng.integers(0, 2 ** 52, 50_000, dtype=np.uint64)
    # +-39 ulps around every power of ten 1e-323 .. 1e308
    p10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = (p10.view(np.int64)[:, None] + np.arange(-39, 40)).ravel()
    # the doubles nearest to 18-digit decimals ending in 5
    digits = rng.integers(10 ** 16, 10 ** 17, 20_000).tolist()
    exps = rng.integers(-320, 300, 20_000).tolist()
    near_ties = [float(f"{d}5e{e}") for d, e in zip(digits, exps)]
    # exact ties: odd a / 2^(17 - E) in [10^E, 10^(E + 1)) has 17 - E
    # decimals, the last one a 5; a < 2^53 for E <= 14
    ties = [(rng.integers(10 ** E * 2 ** (17 - E), 10 ** (E + 1)
                          * 2 ** (17 - E), 1000) | 1) / 2.0 ** (17 - E)
            for E in range(15)]
    return np.concatenate([
        bits.view(np.float64), sub.view(np.float64), -sub.view(np.float64),
        near[near > 0].view(np.float64), -near[near > 0].view(np.float64),
        near_ties, np.concatenate(ties),
        rng.integers(-2 ** 62, 2 ** 62, 20_000).astype(np.float64)])


def test_format_e16_matches_python_on_hard_families():
    x = _hard_doubles()
    got = _format_e16(x)
    want = [_FMT.format(v) for v in x.tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not bad, bad[:5]
    assert _format_e16(np.array([])) == []


def test_format_e16_formats_export_fields_without_python(monkeypatch):
    # the one-by-one route is for non-finite values and rounding ties only
    calls = []

    class Counting:
        def format(self, x):
            calls.append(x)
            return "{:.16e}".format(x)

    monkeypatch.setattr(formats, "_FMT", Counting())
    spec = GridSpec(*damped_box(10, 0.9), 101, 101)
    vals = damped_wigner_values(DampedParams(0.6, 10), *spec.meshgrid())
    got = _format_e16(vals.real)
    assert calls == [] and got == ["{:.16e}".format(v)
                                   for v in vals.real.ravel().tolist()]


@pytest.mark.parametrize("block", [5, 60])
@pytest.mark.parametrize("is_complex", [False, True])
def test_grid_csv_blocks_match_per_value_oracle(is_complex, block,
                                                monkeypatch):
    # rows wider than a block, and blocks whose row count leaves a remainder
    monkeypatch.setattr(formats, "_BLOCK_VALUES", block)
    field = _awkward_field(is_complex)
    buf = io.StringIO()
    write_grid_csv(field, buf, {"model": "harmonic"})
    assert buf.getvalue() == grid_csv_text(field, {"model": "harmonic"})


@pytest.mark.parametrize("nq,np_", [(20, 301), (8, 2100)])
def test_grid_csv_default_blocks_match_per_value_oracle(nq, np_):
    # 6 rows of 301 per block (20 = 6 + 6 + 6 + 2), and rows of 2100 > 2048
    spec = GridSpec(-4.0, 4.0, -5.0, 5.0, nq, np_)
    Q, P = spec.meshgrid()
    field = GridField(spec, np.cos(Q * P) * np.exp(-(Q ** 2 + P ** 2) / 3))
    buf = io.StringIO()
    write_grid_csv(field, buf)
    assert buf.getvalue() == grid_csv_text(field)


def test_grid_csv_writer_streams_blocks(tmp_path):
    # formatting the whole 601^2 field at once allocates ~150 MB, and taking
    # |W| of the whole field 2.9 MB; a block of rows at a time stays < 1 MB
    spec = GridSpec(-3.0, 3.0, -3.0, 3.0, 601, 601)
    Q, P = spec.meshgrid()
    field = GridField(spec, np.cos(Q * P) * np.exp(-(Q ** 2 + P ** 2) / 4))
    del Q, P
    tracemalloc.start()
    try:
        write_grid_csv(field, str(tmp_path / "w.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


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
    # a header without the grid keys, or no header at all, names what lacks;
    # numpy's empty-input warning is not reached
    header = [line for line in lines if line.startswith("#")]
    rows = lines[len(header):]
    no_grid = [line for line in header if "qmin=" not in line]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^grid CSV header lacks qmin, "
                                             "qmax, pmin, pmax, nq, np$"):
            read_grid_csv(io.StringIO("".join(no_grid + rows)))
        with pytest.raises(ValueError, match="^grid CSV header lacks qmin, "
                                             "qmax, pmin, pmax, nq, np$"):
            read_grid_csv(io.StringIO(""))
        partial = [line.replace(" np=9", "") for line in header]
        with pytest.raises(ValueError, match="^grid CSV header lacks np$"):
            read_grid_csv(io.StringIO("".join(partial + rows)))


def _rewrite_rows(text, rows_fn):
    lines = text.splitlines(keepends=True)
    header = [line for line in lines if line.startswith("#")]
    return "".join(header + rows_fn(lines[len(header):]))


def test_read_grid_csv_rejects_rows_off_the_grid():
    spec = GridSpec(-3.0, 3.0, -3.0, 3.0, 9, 9)
    field = sample(damped_wigner(DampedParams(0.4, 2)), spec)
    buf = io.StringIO()
    write_grid_csv(field, buf)
    text = buf.getvalue()
    match = "^q,p columns do not match the declared grid$"
    # p-major rows of a square grid: same row count and the same node set
    transposed = _rewrite_rows(text, lambda rows: [
        rows[j * 9 + i] for i in range(9) for j in range(9)])
    with pytest.raises(ValueError, match=match):
        read_grid_csv(io.StringIO(transposed))

    def shift_q(rows, i, q):
        rows[i] = f"{q!r}," + rows[i].split(",", 1)[1]
        return rows

    with pytest.raises(ValueError, match=match):
        read_grid_csv(io.StringIO(_rewrite_rows(
            text, lambda rows: shift_q(rows, 40, 9.0))))
    q0 = float(spec.qs[4])
    for bad in (q0 + 1e-9, math.nan):
        with pytest.raises(ValueError, match=match):
            read_grid_csv(io.StringIO(_rewrite_rows(
                text, lambda rows: shift_q(rows, 40, bad))))
    # rounding in the last digits of q is within the 1e-12 tolerance
    back, _ = read_grid_csv(io.StringIO(_rewrite_rows(
        text, lambda rows: shift_q(rows, 40, q0 + 1e-14))))
    assert back.values.tobytes() == read_grid_csv(
        io.StringIO(text))[0].values.tobytes()


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


@pytest.mark.parametrize("out,files", [
    ("hel.csv", ["hel_u.csv", "hel_v.csv"]),
    ("hel", ["hel_u.csv", "hel_v.csv"]),
    ("run.v2/hel", ["run.v2/hel_u.csv", "run.v2/hel_v.csv"]),
    ("run.v2/hel.dat", ["run.v2/hel_u.dat", "run.v2/hel_v.dat"])])
def test_cli_wigner_helium_sector_file_names(out, files, tmp_path):
    # the sector goes before the file name's extension, never into a
    # directory name
    (tmp_path / "run.v2").mkdir()
    assert main(["wigner", "--model", "helium", "--xi", "0.1", "--nq", "8",
                 "--np", "8", "--out", str(tmp_path / out)]) == 0
    written = sorted(str(f.relative_to(tmp_path))
                     for f in tmp_path.rglob("*") if f.is_file())
    assert written == files


@pytest.mark.parametrize("model", [["damped", "--lambda", "0.3"],
                                   ["harmonic", "--hbar", "0.5"]])
def test_cli_wigner_stdout_matches_file(model, tmp_path, capsys):
    args = ["wigner", "--model", *model, "--n", "2", "--nq", "24",
            "--np", "17"]
    assert main(args + ["--out", str(tmp_path / "w.csv")]) == 0
    capsys.readouterr()
    assert main(args + ["--out", "-"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (tmp_path / "w.csv").read_bytes()
    assert not (tmp_path / "-").exists() and not Path("-").exists()


def test_cli_wigner_helium_stdout_is_a_usage_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["wigner", "--model", "helium", "--xi", "0.1", "--out", "-"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


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

import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from moyal import formats, negativity
from moyal.cli import main
from moyal.formats import (_FMT, _format_e16, read_grid_csv, records_to_json,
                           write_grid_csv)
from moyal.grid import GridField, GridSpec, sample
from moyal.models import DampedParams, damped_wigner, damped_wigner_values
from moyal.negativity import (damped_box, eta_radial, lambda_scan,
                              negativity_table)
from oracles import (adaptive_eta_greedy, grid_csv_text, read_grid_csv_lines,
                     read_grid_csv_loadtxt)


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
    # signed zeros included (complex(0.25, -0.0) in the complex layout)
    assert from_path.values.tobytes() == field.values.tobytes()
    assert meta == meta_fh == want_meta
    assert from_path.spec == field.spec and from_path.hbar == 0.7
    assert from_path.warnings == from_file.warnings == field.warnings


def _read_three_ways(text):
    """Values of a grid CSV text by read_grid_csv from a handle and by the two
    oracles, checked bitwise equal; returns them."""
    got, meta = read_grid_csv(io.StringIO(text))
    by_lines, lines_meta = read_grid_csv_lines(text)
    by_loadtxt, loadtxt_meta = read_grid_csv_loadtxt(io.StringIO(text))
    assert got.values.tobytes() == by_lines.tobytes()
    assert got.values.tobytes() == by_loadtxt.values.tobytes()
    assert meta == loadtxt_meta
    assert got.warnings == by_loadtxt.warnings
    return got.values


_P10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
_BIT_PATTERNS = st.one_of(
    st.integers(0, 2 ** 64 - 1),
    # subnormals and signed zeros: the low bit picks the sign
    st.integers(0, 2 ** 53 - 1).map(lambda m: m >> 1 | (m & 1) << 63),
    # powers of two, both signs
    st.integers(0, 2 * 2047 - 1).map(lambda i: (i % 2047) << 52
                                     | (i // 2047) << 63),
    # three-digit decimal exponents
    st.floats(min_value=1e100, allow_infinity=False).map(
        lambda x: int(np.float64(x).view(np.uint64))),
    st.floats(min_value=2.2e-308, max_value=1e-100).map(
        lambda x: int(np.float64(x).view(np.uint64))),
    # 10^k and the doubles one ulp either side
    st.tuples(st.sampled_from(_P10.view(np.int64).tolist()),
              st.sampled_from([-1, 0, 1])).map(sum))


@given(st.lists(_BIT_PATTERNS, min_size=128, max_size=128),
       st.booleans())
# -0.0 real parts next to imaginary parts 1.0, so the layout is complex
@example([1 << 63] * 64 + [0x3FF0000000000000] * 64, True)
def test_read_grid_csv_bit_patterns_match_oracles(patterns, is_complex):
    x = np.array(patterns, dtype=np.uint64).view(np.float64)
    x[~np.isfinite(x)] = 0.0
    # part by part: x + 1j * y turns a -0.0 real part into +0.0
    vals = np.zeros(64, complex)
    vals.real = x[:64]
    if is_complex:
        vals.imag = x[64:]
    field = GridField(GridSpec(-2.0, 2.0, -1.0, 1.0, 8, 8), vals.reshape(8, 8))
    buf = io.StringIO()
    write_grid_csv(field, buf)
    text = buf.getvalue()
    got = _read_three_ways(text)
    # the writer drops an imaginary part below 1e-12 of the peak
    want = (field.values if "# complex=1" in text.splitlines()
            else field.values.real.astype(complex))
    assert got.tobytes() == want.tobytes()


def _with_w_tokens(tokens):
    """A grid CSV text of an 8 x m grid whose W column holds the tokens, then
    zeros."""
    m = -(-len(tokens) // 8)
    field = GridField(GridSpec(-1.0, 1.0, -1.0, 1.0, 8, max(m, 8)),
                      np.zeros((8, max(m, 8))))
    buf = io.StringIO()
    write_grid_csv(field, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    header = [line for line in lines if line.startswith("#")]
    rows = lines[len(header):]
    for i, tok in enumerate(tokens):
        rows[i] = rows[i].rsplit(",", 1)[0] + f",{tok}\n"
    return "".join(header + rows)


def _e16(d: int, e: int) -> str:
    return f"{str(d)[0]}.{str(d)[1:]}e{e:+03d}"


def _near_tie_decimals():
    """17-digit decimals at a rounding tie, and those one digit either side
    of a tie or of the rounding of one."""
    rng = np.random.default_rng(20261019)
    ties, around = [], []
    # ties: odd multiples of half a gap, 2^a 5^c r with r odd, at most 17
    # significant digits (a <= 3.32 c + 3)
    for c in range(24):
        for a in range(c, int(3.32 * c + 3) + 1):
            for r in rng.integers(-(-2 ** 53 // 5 ** c), 2 ** 54 // 5 ** c,
                                  20, endpoint=True).tolist():
                odd = 5 ** c * (r | 1)
                digits = str(2 ** a * odd)
                if 2 ** 53 < odd < 2 ** 54 and len(digits.rstrip("0")) <= 17:
                    d = int(digits[:17].ljust(17, "0"))
                    ties.append(_e16(d, len(digits) - 1))
                    around += [_e16(t, len(digits) - 1) for t in (d - 1, d + 1)
                               if len(str(t)) == 17]
    # the 17-digit rounding of the midpoint of two neighbouring doubles:
    # normal, subnormal, and the largest double and 2^1024
    x = np.abs(rng.integers(0, 2 ** 63, 3000, dtype=np.uint64)
               .view(np.float64))
    x = np.concatenate([x[(x > 1e-300) & (x < 1e300)],
                        rng.integers(0, 2 ** 52, 1000, dtype=np.uint64)
                        .view(np.float64), [1.7976931348623157e308]])
    for mid in ((Fraction(v) + Fraction(math.nextafter(v, math.inf))
                 if v < 1e308 else Fraction(2 ** 1024 - 2 ** 970))
                for v in x.tolist()):
        e = math.floor(math.log10(mid.numerator)
                       - math.log10(mid.denominator))
        e += (mid >= Fraction(10) ** (e + 1)) - (mid < Fraction(10) ** e)
        d = round(mid / Fraction(10) ** (e - 16))
        around += [_e16(t, e) for t in (d - 1, d, d + 1) if len(str(t)) == 17]
    return ties, around


def test_read_grid_csv_near_ties_match_float(monkeypatch):
    ties, around = _near_tie_decimals()
    tokens = [t for t in ties + around if math.isfinite(float(t))]
    assert len(ties) > 1000 and len(tokens) > 5000
    got = _read_three_ways(_with_w_tokens(tokens)).real.ravel()
    want = np.array([float(t) for t in tokens])
    assert got[:len(tokens)].tobytes() == want.tobytes()
    # the ties themselves are settled by float(), half to even
    calls = []
    monkeypatch.setattr(formats, "float",
                        lambda s: calls.append(s) or float(s), raising=False)
    formats._parse_rows(("\n".join(ties) + "\n").encode(), 1)
    assert calls == ties


def test_near_tie_reads_the_gap_on_the_remainder_side():
    # half a gap is 2^-53 on both sides of 1.5, and 2^-53 above 1.0 but
    # 2^-54 below it
    S = np.array([1.5, 1.5, 1.0, 1.0, 1.0, 1.0, 0.0])
    R = np.array([2 ** -53 * (1 - 1e-9), -2 ** -54, 2 ** -53 * (1 - 1e-9),
                  2 ** -54, -2 ** -54 * (1 - 1e-9), -2 ** -55, 0.0])
    assert formats._near_tie(S, R).tolist() == [True, False, True, False,
                                                 True, False, False]


@pytest.mark.parametrize("token", [
    "1.2345678901234567e123", "1.2345678901234567e-05", "1.2345678901234567e5",
    "1.2345678901234567E+05", "+1.2345678901234567e+05",
    " 1.2345678901234567e+05", "1.2345678901234567e+05 ",
    "12.345678901234567e+05", "1.23456789012345678e+05",
    "1.2345678901234567e+1234", "1.2345678901234567e-1234",
    "1.2345678901234567e+005", "-1.2345678901234567e-005",
    "0.0000000000000000e+00", "-0.0000000000000000e+00", "nan", "-inf",
    "9.0", "-9.0", "1e5", "1.5\r"])
def test_parse_rows_reads_other_shapes_as_float(token):
    got = formats._parse_rows(f"{token}\n".encode(), 1)
    assert got.tobytes() == np.array([float(token)]).tobytes()


def test_parse_rows_matches_float_on_hard_families():
    x = _hard_doubles()
    tokens = [_FMT.format(v) for v in x.tolist()]
    got = formats._parse_rows(("\n".join(tokens) + "\n").encode(), 1)
    want = np.array([float(t) for t in tokens])
    assert got.ravel().tobytes() == want.tobytes()


def test_parse_rows_reads_export_fields_without_python(monkeypatch):
    # the one-by-one route is for other shapes, near-ties and results
    # outside the normal range only
    calls = []

    def counting(s):
        calls.append(s)
        return float(s)

    spec = GridSpec(*damped_box(10, 0.9), 101, 101)
    field = GridField(spec, damped_wigner_values(DampedParams(0.6, 10),
                                                 *spec.meshgrid()))
    buf = io.StringIO()
    write_grid_csv(field, buf)
    body = "".join(line for line in buf.getvalue().splitlines(keepends=True)
                   if not line.startswith("#"))
    monkeypatch.setattr(formats, "float", counting, raising=False)
    got = formats._parse_rows(body.encode(), 3)
    assert calls == []
    assert got[:, 2].tobytes() == field.values.real.ravel().tobytes()


@pytest.mark.parametrize("is_complex", [False, True])
def test_read_grid_csv_layout_variants_match_oracles(is_complex, tmp_path,
                                                     monkeypatch):
    field = _awkward_field(is_complex)
    buf = io.StringIO()
    write_grid_csv(field, buf)
    text = buf.getvalue()
    want = _read_three_ways(text)
    lines = text.splitlines(keepends=True)
    header = [line for line in lines if line.startswith("#")]
    rows = lines[len(header):]
    crlf = text.replace("\n", "\r\n")
    # blank lines and whole-line comments in the body, at a block edge too
    spaced = "".join(header + rows[:5] + ["\n", "# a note, with, commas\n"]
                     + rows[5:60] + ["\n", "#\n"] + rows[60:] + ["\n"])
    # lines of blanks, which loadtxt reads as a row of one empty column
    blanks = "".join(header + rows[:5] + ["   \n", "\r\n"] + rows[5:])
    by_lines, _ = read_grid_csv_lines(blanks)
    assert read_grid_csv(io.StringIO(blanks))[0].values.tobytes() == (
        by_lines.tobytes())
    # tokens of other shapes: shorter, an exponent without a dot, a blank
    # before a value, a + sign, an upper-case E
    foreign = list(rows)
    for i, form in enumerate(("{!r}", "{:.3e}", " {:.16e}", "{:+.16e}",
                              "{:.16E}")):
        q, p, rest = foreign[10 + i].split(",", 2)
        w = float(rest.split(",")[0])
        foreign[10 + i] = ",".join([q, p, form.format(w)]
                                   + rest.rstrip("\n").split(",")[1:]) + "\n"
    for variant in (crlf, spaced):
        assert _read_three_ways(variant).tobytes() == want.tobytes()
    _read_three_ways("".join(header + foreign))
    # a path, written with CRLF line ends, and a text handle on it
    path = tmp_path / "crlf.csv"
    path.write_bytes(crlf.encode())
    from_path, _ = read_grid_csv(path)
    with open(path) as fh:
        from_handle, _ = read_grid_csv(fh)
    assert from_path.values.tobytes() == from_handle.values.tobytes()
    assert from_path.values.tobytes() == want.tobytes()
    # blocks of a few lines each: the blank and comment lines fall inside
    # and at the edges of blocks
    monkeypatch.setattr(formats, "_READ_CHARS", 100)
    assert _read_three_ways(spaced).tobytes() == want.tobytes()
    assert _read_three_ways(crlf).tobytes() == want.tobytes()


def test_read_grid_csv_rejects_what_loadtxt_dropped():
    # loadtxt cut a trailing '#' comment off a row, and read the third of
    # four columns as W in the real layout; the block reader rejects both
    field = _awkward_field(False)
    buf = io.StringIO()
    write_grid_csv(field, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    i = len([line for line in lines if line.startswith("#")])
    noted = lines[:i + 4] + [lines[i + 4].rstrip("\n") + " # note\n"]
    for text in ("".join(noted + lines[i + 5:]),
                 "".join(lines[:i] + [row.rstrip("\n") + ",0.0\n"
                                      for row in lines[i:]])):
        read_grid_csv_loadtxt(io.StringIO(text))
        with pytest.raises(ValueError, match="^grid CSV rows must have 3 "
                                             "columns$|could not convert"):
            read_grid_csv(io.StringIO(text))


def test_grid_csv_reader_streams_blocks(tmp_path):
    # the reader holds a real field and a block of lines, not the file's
    # text or a grid-sized table of all columns; GridField converts the field
    # to complex and keeps that array without a further copy
    spec = GridSpec(-3.0, 3.0, -3.0, 3.0, 601, 601)
    Q, P = spec.meshgrid()
    field = GridField(spec, np.cos(Q * P) * np.exp(-(Q ** 2 + P ** 2) / 4))
    del Q, P
    path = tmp_path / "w.csv"
    write_grid_csv(field, str(path))
    tracemalloc.start()
    try:
        back, _ = read_grid_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.values.tobytes() == field.values.tobytes()
    assert peak < 1.5 * back.values.nbytes + 1e6


def test_grid_field_keeps_its_own_copy_of_a_complex_input():
    spec = GridSpec(-1.0, 1.0, -1.0, 1.0, 8, 9)
    vals = np.arange(72.0).reshape(8, 9) + 0.5j
    field = GridField(spec, vals)
    vals[0, 0] = 99.0
    assert field.values[0, 0] == 0.5j and not field.values.flags.writeable
    real = np.arange(72.0).reshape(8, 9)
    assert not np.shares_memory(GridField(spec, real).values, real)


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
    # --nu and --nv ask for one pair, whatever --n says
    for extra in ([], ["--n", "2"]):
        rc = main(["spectrum", "--model", "helium", "--xi", "0.1",
                   "--n-max", "1", "--nu", "2", "--nv", "2"] + extra)
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["records"]
        assert [(r["nu"], r["nv"]) for r in rows] == [(2, 2)]


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


def test_cli_usage_errors(tmp_path, capsys):
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
    # a parameter outside its model's range: exit 2 with a message, no
    # traceback and no output file
    for argv in (["negativity", "--n-max", "1", "--lambda", "1.5"],
                 ["negativity", "--n-max", "1", "--lambda", "nan"],
                 ["negativity", "--method", "grid", "--lambda", "1.5"],
                 ["negativity", "--n-max", "-1"],
                 ["negativity", "--n", "-1", "--lambda-scan", "0,0.5"],
                 ["negativity", "--n", "1", "--lambda-scan", "0,nan"],
                 ["negativity", "--n", "1", "--lambda-scan", ","],
                 ["negativity", "--method", "grid", "--n-max", "1",
                  "--tol", "nan"],
                 ["negativity", "--method", "grid", "--n-max", "1",
                  "--tol", "0"],
                 ["negativity", "--method", "grid", "--n-max", "1",
                  "--tol", "-1"],
                 ["negativity", "--lambda-scan", "0,0.5", "--n", "1",
                  "--tol", "nan"],
                 ["negativity", "--lambda-scan", "0,0.5", "--n", "1",
                  "--tol", "-1"],
                 ["negativity", "--lambda-scan", "0,0.5", "--n", "1",
                  "--check-table1", "--table-tol", "1e-15"],
                 ["spectrum", "--model", "harmonic", "--n-max", "-1"],
                 ["wigner", "--model", "damped", "--lambda", "1.5"],
                 ["wigner", "--model", "harmonic", "--omega", "-1"],
                 ["wigner", "--model", "helium", "--mass", "0"],
                 ["wigner", "--model", "harmonic", "--hbar", "nan"],
                 ["spectrum", "--model", "damped", "--lambda", "1.2"],
                 ["spectrum", "--model", "helium", "--xi", "1.5"],
                 ["verify", "--nq", "4"]):
        if argv[0] == "wigner":
            argv += ["--out", str(tmp_path / "w.csv"), "--nq", "16",
                     "--np", "16"]
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        assert rc == 2, argv
        assert "error: " in captured.err and "Traceback" not in captured.err
        if "--tol" in argv:
            # the message names tol, not a box too small for it
            assert "tol must be finite and > 0" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


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

"""On-disk formats: CSV for grid fields, JSON for tables.

Grid CSV layout: '#'-prefixed header lines carrying model parameters, the
grid specification, normalization and the package version, then one
`q,p,W` row per node (17 significant digits, row-major over q then p).
Complex-valued fields write `q,p,re_W,im_W` and set `complex=1` in the
header.  Byte output is deterministic for a fixed field and metadata.
The writer formats a block of whole q-rows (about _BLOCK_VALUES values) at
a time with numpy, byte for byte as Python's '%.16e', and writes each block
at once; q and p are formatted once per row and once per file.  The reader
hands the rows after the header to numpy's CSV parser.  It rejects a header
without the grid keys, and rows off the declared grid: a wrong row count,
or a q or p column further than 1e-12 of its axis extent from the node.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import asdict
from itertools import chain

import numpy as np

from . import __version__
from .grid import GridField, GridSpec

_FMT = "{:.16e}"
# Values per formatted block of the CSV writer (whole q-rows, at least one).
_BLOCK_VALUES = 2048
# Decimal exponents k of the 10^k table: 16 - E for every finite double's
# decimal exponent E (-324..308), with room for a one-off guess.
_K_MIN, _K_MAX = -310, 345
_E_MIN = -330
# A scaled value this close to a rounding tie goes to _FMT; the double-double
# product is good to about 1e-14 there.
_TIE_MARGIN = 1e-7
_TABLES = None
_GRID_KEYS = ("qmin", "qmax", "pmin", "pmax", "nq", "np")


def _tables():
    """Lookup tables of _format_e16, built on first use.

    hi, lo, t: 10^k = (hi + lo) 2^t to about 2^-106 with hi in [0.5, 1),
    from exact integers, indexed by k - _K_MIN; three_digits: the ASCII
    codes of "000".."999"; exps: those of the exponent after the "e"
    ("+05", "-308"), NUL-padded to 4, indexed by E - _E_MIN.
    """
    global _TABLES
    if _TABLES is None:
        hi, lo, t = [], [], []
        for k in range(_K_MIN, _K_MAX + 1):
            # n = round(10^k 2^s), a 120-bit integer
            if k >= 0:
                x = 10 ** k
                s = 120 - x.bit_length()
                n = x << s if s >= 0 else (x + (1 << (-s - 1))) >> -s
            else:
                d = 10 ** -k
                s = 119 + d.bit_length()
                n = ((1 << s) + d // 2) // d
            h = float(n)
            m, ex = math.frexp(h)
            hi.append(m)
            lo.append(math.ldexp(float(n - int(h)), -ex))
            t.append(ex - s)
        i = np.arange(1000)
        three_digits = np.stack((i // 100, i // 10 % 10, i % 10), 1) + 48
        E = np.arange(_E_MIN, -_E_MIN + 1)
        a = np.abs(E)
        wide = a >= 100
        exps = np.stack((np.where(E < 0, 45, 43),
                         np.where(wide, a // 100, a // 10 % 10) + 48,
                         np.where(wide, a // 10 % 10, a % 10) + 48,
                         np.where(wide, a % 10 + 48, 0)), 1)
        _TABLES = (np.array(hi), np.array(lo), np.array(t),
                   three_digits.astype(np.uint8), exps.astype(np.uint8))
    return _TABLES


def _scaled(m, e, E):
    """m 2^e 10^(16 - E) as S + R with S = fl(S + R), to about 2^-104.

    The product with the table's hi word is exact (Dekker's two-product);
    the lo word adds the next 53 bits.  For S >= 2^53 S is an integer and
    |R| <= 8.
    """
    hi, lo, t = _tables()[:3]
    k = 16 - E - _K_MIN
    H = hi.take(k)
    c = 134217729.0 * m
    mh = c - (c - m)
    ml = m - mh
    c = 134217729.0 * H
    Hh = c - (c - H)
    Hl = H - Hh
    p = m * H
    err = ((mh * Hh - p) + mh * Hl + ml * Hh) + ml * Hl
    sh = (e + t.take(k)).astype(np.int32)
    S = np.ldexp(p, sh)
    R = np.ldexp(err + m * lo.take(k), sh)
    # renormalise (fast two-sum, |S| > |R|): S = fl(S + R) exactly split
    Sn = S + R
    return Sn, R - (Sn - S)


def _format_e16(v) -> list[str]:
    """'%.16e' % x for every x of v (flattened), as a list of str.

    |x| = m 2^e is scaled by 10^(16 - E) into [1e16, 1e17) in double-double,
    rounded to a 17-digit integer and assembled as ASCII codes.  Non-finite
    values, values within _TIE_MARGIN of a rounding tie and values that round
    up to 10^17 go to _FMT one by one.  Zeros take the fast path as digits 0,
    exponent 0.
    """
    three_digits, exps = _tables()[3:]
    x = np.asarray(v, dtype=np.float64).ravel()
    n = len(x)
    finite = np.isfinite(x)
    a = np.abs(x)
    nonzero = finite & (a != 0.0)
    a[~nonzero] = 1.0
    m, e = np.frexp(a)
    E = np.floor(np.log10(a)).astype(np.intp)
    S, R = _scaled(m, e, E)
    # the log10 guess may be one off near powers of ten: test S + R, since
    # S alone rounds onto 1e16 or 1e17 from either side
    off = (((S > 1e17) | ((S == 1e17) & (R >= 0.0))).astype(np.intp)
           - ((S < 1e16) | ((S == 1e16) & (R < 0.0))))
    fix = np.flatnonzero(off)
    if len(fix):
        E[fix] += off[fix]
        S[fix], R[fix] = _scaled(m[fix], e[fix], E[fix])
    f = np.floor(R)
    frac = R - f
    # round to nearest; ties, and values too near one to tell, are left to
    # _FMT, which rounds them half to even
    N = S.astype(np.int64) + f.astype(np.int64) + (frac > 0.5)
    N[~nonzero] = 0
    E[~nonzero] = 0
    # so does a value that rounds up to 10^17, an 18th digit
    slow = ~finite | (nonzero & ((np.abs(frac - 0.5) < _TIE_MARGIN)
                                 | (N == 10 ** 17)))
    # "-d.dddddddddddddddde+XX" and a third exponent digit or NUL, then NUL
    C = np.empty((n, 25), dtype=np.uint8)
    C[:, 0] = 45
    lead = N // 10 ** 15
    C[:, 1] = lead // 10 + 48
    C[:, 2] = 46
    C[:, 3] = lead % 10 + 48
    r = N - lead * 10 ** 15
    groups = np.empty((n, 5), dtype=np.intp)
    for j in range(4, -1, -1):
        q = r // 1000
        groups[:, j] = r - q * 1000
        r = q
    C[:, 4:19] = three_digits.take(groups, axis=0).reshape(n, 15)
    C[:, 19] = 101
    C[:, 20:24] = exps.take(E - _E_MIN, axis=0)
    C[:, 24] = 0
    # the sign shifts a row by one; numpy drops a unicode element's
    # trailing NULs
    chars = C[:, 1:].copy()
    neg = np.signbit(x)
    chars[neg] = C[neg, :24]
    strs = chars.astype(np.uint32).view("<U24").ravel().tolist()
    for i in np.flatnonzero(slow).tolist():
        strs[i] = _FMT.format(float(x[i]))
    return strs


def _header(field: GridField, metadata: dict, is_complex: bool) -> str:
    spec = field.spec
    meta = " ".join(f"{k}={metadata[k]}" for k in sorted(metadata))
    lines = ["# moyal-grid v1", f"# version={__version__}"]
    if meta:
        lines.append(f"# {meta}")
    lines.append(
        "# " + " ".join([
            f"qmin={_FMT.format(spec.qmin)}", f"qmax={_FMT.format(spec.qmax)}",
            f"pmin={_FMT.format(spec.pmin)}", f"pmax={_FMT.format(spec.pmax)}",
            f"nq={spec.nq}", f"np={spec.np}", f"hbar={_FMT.format(field.hbar)}",
        ]))
    lines.append(f"# complex={int(is_complex)}")
    lines += [f"# warning={w}" for w in field.warnings]
    lines.append("# columns=" + ("q,p,re_W,im_W" if is_complex else "q,p,W"))
    return "".join(line + "\n" for line in lines)


def _open(target, mode: str):
    """A path opened for text I/O, or a file object passed through."""
    if hasattr(target, "write" if mode == "w" else "read"):
        return nullcontext(target)
    return open(target, mode, newline="" if mode == "w" else None)


def write_grid_csv(field: GridField, target, metadata: dict = None) -> None:
    """Write a GridField to a path or text file object, a block of q-rows at a
    time."""
    spec = field.spec
    vals = field.values
    # max |W| over blocks of rows and max |Im W| from the extremes of Im W:
    # no grid-sized temporaries
    step = max(1, _BLOCK_VALUES // spec.np)
    top = max(np.abs(vals[i:i + step]).max() for i in range(0, spec.nq, step))
    im = vals.imag
    is_complex = bool(max(im.max(), -im.min()) > 1e-12 * max(top, 1e-300))
    # one row template "Q,p_j,%s[,%s]" over j, the p strings fixed once; each
    # block of rows puts its q strings in for Q and its W strings in for %s
    node = "Q,{}" + (",%s,%s\n" if is_complex else ",%s\n")
    row_tpl = "".join(node.format(p) for p in _format_e16(spec.ps))
    qs = _format_e16(spec.qs)
    rows = max(1, _BLOCK_VALUES // (spec.np * (1 + is_complex)))
    with _open(target, "w") as fh:
        fh.write(_header(field, metadata or {}, is_complex))
        for i in range(0, spec.nq, rows):
            block = vals[i:i + rows]
            cols = (np.stack((block.real, block.imag), -1) if is_complex
                    else block.real)
            tpl = "".join(row_tpl.replace("Q", q) for q in qs[i:i + rows])
            fh.write(tpl % tuple(_format_e16(cols)))


def read_grid_csv(source) -> tuple:
    """Read a GridField CSV; returns (GridField, metadata dict).

    Each `# warning=` line is read whole into GridField.warnings.  Raises
    ValueError when the header lacks a grid key, or when the rows do not
    match the declared grid in number or, to 1e-12 of the axis extent, in
    their q and p columns.
    """
    meta, warnings = {}, []
    with _open(source, "r") as fh:
        line = fh.readline()
        while line.startswith("#") or line.isspace():
            if line.startswith("# warning="):
                warnings.append(line[len("# warning="):].rstrip("\n"))
            else:
                meta.update(tok.split("=", 1) for tok in line[1:].split()
                            if "=" in tok)
            line = fh.readline()
        missing = [k for k in _GRID_KEYS if k not in meta]
        if missing:
            raise ValueError("grid CSV header lacks " + ", ".join(missing))
        data = np.loadtxt(chain([line], fh), delimiter=",", comments="#",
                          ndmin=2)
    spec = GridSpec(float(meta["qmin"]), float(meta["qmax"]),
                    float(meta["pmin"]), float(meta["pmax"]),
                    int(meta["nq"]), int(meta["np"]))
    shape = (spec.nq, spec.np)
    if data.shape[0] != spec.nq * spec.np:
        raise ValueError("row count does not match the declared grid")
    # the q and p columns become their distances from the nodes, in place:
    # no grid-sized temporaries
    q, p = data[:, 0].reshape(shape), data[:, 1].reshape(shape)
    np.abs(np.subtract(q, spec.qs[:, None], out=q), out=q)
    np.abs(np.subtract(p, spec.ps, out=p), out=p)
    if not ((q <= 1e-12 * (spec.qmax - spec.qmin)).all()
            and (p <= 1e-12 * (spec.pmax - spec.pmin)).all()):
        raise ValueError("q,p columns do not match the declared grid")
    if int(meta.get("complex", "0")):
        values = (data[:, 2] + 1j * data[:, 3]).reshape(shape)
    else:
        values = data[:, 2].astype(complex).reshape(shape)
    return GridField(spec, values, float(meta.get("hbar", "1")), warnings), meta


def records_to_json(records, extra: dict = None) -> str:
    """Negativity or spectrum records as a deterministic JSON document."""
    def encode(rec):
        if hasattr(rec, "__dataclass_fields__"):
            return asdict(rec)
        return rec

    doc = {"version": __version__}
    if extra:
        doc.update(extra)
    doc["records"] = [encode(r) for r in records]
    return json.dumps(doc, indent=2) + "\n"

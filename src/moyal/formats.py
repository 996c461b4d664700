"""On-disk formats: CSV for grid fields, JSON for tables.

Grid CSV layout: '#'-prefixed header lines carrying model parameters, the
grid specification, normalization and the package version, then one
`q,p,W` row per node (17 significant digits, row-major over q then p).
Complex-valued fields write `q,p,re_W,im_W` and set `complex=1` in the
header.  Byte output is deterministic for a fixed field and metadata.
The writer formats a block of whole q-rows (about _BLOCK_VALUES values) at
a time with numpy, byte for byte as Python's '%.16e', and writes each block
at once; q and p are formatted once per row and once per file.

The reader converts a block of whole lines (about _READ_CHARS characters)
at a time, exactly as float() would: a token of the '%.16e' shape gives its
17 digits and exponent N, E to numpy, which forms N 10^(E - 16) in
double-double from the writer's table of powers of ten and rounds it once.
Tokens of another shape, products too near a rounding tie and results
outside the normal range go to float() one by one.  Blank lines and whole
'#' lines in the body are skipped.  Each block's q and p columns are checked
against the nodes and its W column lands in the preallocated field, so no
grid-sized array is made but the field itself.  The reader rejects a header
without the grid keys, rows of another column count, and rows off the
declared grid: a wrong row count, or a q or p column further than 1e-12 of
its axis extent from the node.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import asdict

import numpy as np

from . import __version__
from .grid import GridField, GridSpec

_FMT = "{:.16e}"
# Values per formatted block of the CSV writer (whole q-rows, at least one).
_BLOCK_VALUES = 2048
# Decimal exponents k of the 10^k table: 16 - E for the writer and E - 16 for
# the reader, for every finite double's decimal exponent E (-324..308), with
# room for the writer's one-off guess.
_K_MIN, _K_MAX = -340, 345
_E_MIN = -330
# A scaled value this close to a rounding tie goes to _FMT, and a parsed
# product this many of its ulps from a midpoint goes to float(); the
# double-double products are good to about 1e-14 there.
_TIE_MARGIN = 1e-7
# Characters of the CSV body per parsed block (whole lines, at least one).
_READ_CHARS = 1 << 17
# A token's bytes from 6 before its first digit, laid out for the '%.16e'
# shape: digits at 6 and 8..23 (the two little-endian words 1 and 2), "." at
# 7, "e" at 24, the exponent's sign at 25 and its digits at 26..27 or 26..28.
_WINDOW = 32
_TINY = np.finfo(np.float64).tiny
_NIBBLES = 0xF0F0F0F0F0F0F0F0
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


def _two_product(a, b):
    """(p, err) with p = fl(a b) and p + err = a b exactly (Dekker)."""
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _scaled(m, e, E):
    """m 2^e 10^(16 - E) as S + R with S = fl(S + R), to about 2^-104.

    The product with the table's hi word is exact (Dekker's two-product);
    the lo word adds the next 53 bits.  For S >= 2^53 S is an integer and
    |R| <= 8.
    """
    hi, lo, t = _tables()[:3]
    k = 16 - E - _K_MIN
    p, err = _two_product(m, hi.take(k))
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


def _digit_bytes(words):
    """0x33 in each byte of uint64 words that holds an ASCII digit; a byte
    that carries the +6 into the next gives a false 'not a digit' there,
    never a false digit (Lemire 2021)."""
    return (words & _NIBBLES) | ((words + 0x0606060606060606) & _NIBBLES) >> 4


def _swar8(words):
    """The 8-digit numbers spelled by little-endian uint64 words of ASCII
    digits, in three multiply-shift steps (Lemire 2021); other bytes give a
    wrong number below 2^32."""
    v = (words & 0x0F0F0F0F0F0F0F0F) * 2561 >> 8
    v = (v & 0x00FF00FF00FF00FF) * 6553601 >> 16
    return (v & 0x0000FFFF0000FFFF) * 42949672960001 >> 32


def _near_tie(S, R):
    """Where S + R, S >= 0 and |R| at most half the gap from S to its
    neighbour on R's side, is within _TIE_MARGIN of that gap of their
    midpoint.  Below a power of two the gap is half the one above."""
    near = (1.0 - 2.0 * _TIE_MARGIN) * np.spacing(S)
    return ((2.0 * np.abs(R) > near)
            | (S.view(np.uint64) << 12 == 0) & (-4.0 * R > near))


def _parse_tokens(b, starts, ends):
    """float(b[s:e]) for each token, as a float64 array.

    b is a uint8 block with at least 6 bytes before the first token and
    _WINDOW after the last.  A token of the '%.16e' shape spells N 10^(E-16)
    with N < 10^17; N = Nh + Nl with Nh = fl(N) and |Nl| <= 8, and
    (Nh + Nl)(hi + lo) 2^t is formed as S + R, good to about 2^-100, and S
    is the correctly rounded value unless S + R is _near_tie.  Other tokens,
    those near-ties and results outside the normal range go to float().
    """
    hi, lo, t = _tables()[:3]
    neg = b.take(starts) == 45
    first = starts + neg
    size = ends - first - (b.take(ends - 1) == 13)
    # one strided view of every window; indexing copies them all at once,
    # where take is many times slower on void items
    w = (np.ndarray((len(b) - _WINDOW + 1,), f"V{_WINDOW}", b, 0, (1,))
         [first - 6].view("<u8").reshape(len(starts), _WINDOW // 8))
    lead, mid, low, tail = w.T.copy()
    sign = tail >> 8 & 255
    digits = _digit_bytes(tail)
    wide = size == 23
    ok = (((_digit_bytes(lead) & 0x00FF << 48 | lead & 0xFF << 56)
           == 0x2E33 << 48)
          & (_digit_bytes(mid) == 0x3333333333333333)
          & (_digit_bytes(low) == 0x3333333333333333)
          & ((digits & 0xFFFF0000 | tail & 0xFF) == 0x33330065)
          & ((sign == 43) | (sign == 45))
          & ((size == 22) | wide & (digits >> 32 & 255 == 0x33)))
    N = ((lead >> 48 & 15) * 10 ** 16 + _swar8(mid) * 10 ** 8
         + _swar8(low)).view(np.int64)
    e = (tail >> 16 & 15) * 10 + (tail >> 24 & 15)
    e = np.where(wide, e * 10 + (tail >> 32 & 15), e).view(np.int64)
    k = np.where(sign == 45, -e, e) - (16 + _K_MIN)
    ok &= (k >= 0) & (k <= _K_MAX - _K_MIN)
    k[~ok] = 0
    Nh = N.astype(np.float64)
    Nl = (N - Nh.astype(np.int64)).astype(np.float64)
    H = hi.take(k)
    p, err = _two_product(Nh, H)
    err += Nh * lo.take(k) + Nl * H
    S = p + err
    slow = ~ok | _near_tie(S, err - (S - p))
    with np.errstate(over="ignore"):
        x = np.ldexp(S, t.take(k).astype(np.int32))
    a = np.abs(x)
    slow |= (N != 0) & ~((a > _TINY) & (a < np.inf))
    bits = x.view(np.uint64)
    bits |= neg.astype(np.uint64) << 63
    for i in np.flatnonzero(slow).tolist():
        x[i] = float(b[starts[i]:ends[i]].tobytes().decode())
    return x


def _row_tokens(b, ncols):
    """Token starts and ends (their separators) of a block of rows, or None
    unless every line has ncols comma-separated tokens."""
    seps = np.flatnonzero((b == 44) | (b == 10))
    if len(seps) % ncols:
        return None
    is_nl = (b.take(seps) == 10).reshape(-1, ncols)
    if is_nl[:, :-1].any() or not is_nl[:, -1].all():
        return None
    starts = np.empty_like(seps)
    starts[:1] = 6
    starts[1:] = seps[:-1] + 1
    return starts, seps


def _padded(block: bytes):
    """The block as uint8, after 6 zero bytes and before _WINDOW of them."""
    b = np.zeros(6 + len(block) + _WINDOW, np.uint8)
    b[6:6 + len(block)] = np.frombuffer(block, np.uint8)
    return b


def _parse_rows(block: bytes, ncols: int):
    """The (rows, ncols) floats of a block of whole lines.

    A block with a line of another column count or one that starts with
    neither a digit nor "-" is parsed again from its lines stripped of
    blanks, without blank and '#' lines; every line must then have ncols
    columns.
    """
    b = _padded(block)
    tokens = _row_tokens(b, ncols)
    if tokens is not None:
        heads = b.take(tokens[0][::ncols])
    if tokens is None or not ((heads - 48 <= 9) | (heads == 45)).all():
        lines = [s for line in block.split(b"\n")
                 if (s := line.strip()) and not s.startswith(b"#")]
        if not lines:
            return np.empty((0, ncols))
        b = _padded(b"\n".join(lines) + b"\n")
        tokens = _row_tokens(b, ncols)
        if tokens is None:
            raise ValueError(f"grid CSV rows must have {ncols} columns")
    return _parse_tokens(b, *tokens).reshape(-1, ncols)


def _body_blocks(fh, first: str):
    """The text after the header as utf-8 blocks of whole lines, each ending
    in a newline."""
    carry = first
    while text := fh.read(_READ_CHARS):
        text = carry + text
        cut = text.rfind("\n") + 1
        carry = text[cut:]
        if cut:
            yield text[:cut].encode()
    if carry:
        yield (carry + "\n").encode()


def read_grid_csv(source) -> tuple:
    """Read a GridField CSV; returns (GridField, metadata dict).

    Each `# warning=` line is read whole into GridField.warnings.  Raises
    ValueError when the header lacks a grid key, when a row has another
    column count than the layout's, or when the rows do not match the
    declared grid in number or, to 1e-12 of the axis extent, in their q and
    p columns.
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
        spec = GridSpec(float(meta["qmin"]), float(meta["qmax"]),
                        float(meta["pmin"]), float(meta["pmax"]),
                        int(meta["nq"]), int(meta["np"]))
        is_complex = bool(int(meta.get("complex", "0")))
        size = spec.nq * spec.np
        qs, ps = spec.qs, spec.ps
        q_tol = 1e-12 * (spec.qmax - spec.qmin)
        p_tol = 1e-12 * (spec.pmax - spec.pmin)
        values = np.empty(size, complex if is_complex else float)
        row, on_grid = 0, True
        for block in _body_blocks(fh, line):
            data = _parse_rows(block, 3 + is_complex)
            end = row + len(data)
            if end > size:
                raise ValueError("row count does not match the declared grid")
            i, j = np.divmod(np.arange(row, end), spec.np)
            on_grid = (on_grid and (np.abs(data[:, 0] - qs[i]) <= q_tol).all()
                       and (np.abs(data[:, 1] - ps[j]) <= p_tol).all())
            # part by part, so that a -0.0 keeps its sign
            values.real[row:end] = data[:, 2]
            if is_complex:
                values.imag[row:end] = data[:, 3]
            row = end
    if row != size:
        raise ValueError("row count does not match the declared grid")
    if not on_grid:
        raise ValueError("q,p columns do not match the declared grid")
    return (GridField(spec, values.reshape(spec.nq, spec.np),
                      float(meta.get("hbar", "1")), warnings), meta)


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

"""Independent numerical oracles used by the tests.

Everything here deliberately avoids the package's closed-form code paths:
scipy quadrature, series summation, an interlacing-bracket root walk, an
exact piecewise antiderivative for the negativity integral, the Laguerre
recurrence with a new array per step, panel sums over a per-box weight
grid, the one-panel-per-step greedy loop of the adaptive eta quadrature,
a star product by the source-differentiation recursion and one by a
Horner substitution of all four variables, element-at-a-time grid star
sums, a Moyal bracket that forms both grid star products, a per-value CSV
writer and line reader, the CSV reader by numpy's loadtxt, and a
per-point Halton loop.
"""

import io
from itertools import chain

import numpy as np
from scipy.integrate import dblquad

from moyal import __version__, negativity
from moyal.errors import ConvergenceError
from moyal.grid import (GridField, GridSpec, _checked_decay, _decay_warnings,
                        _forward, _inverse, _twist, _twisted_sum)
from moyal.models import laguerre_pair
from moyal.polygauss import PolyGauss
from moyal.star import _star_system
from moyal.symbols import _smooth, _substitute


def quad2d(f, half: float, epsabs: float = 1e-11) -> float:
    """Plain scipy double integral of f(q, p) over a centered square."""
    val, _ = dblquad(lambda p, q: float(np.real(f(q, p))),
                     -half, half, -half, half, epsabs=epsabs)
    return val


def laguerre_series(n: int, y: float) -> float:
    """L_n by direct series summation (binomials over factorials)."""
    from math import comb, factorial

    return sum((-1) ** k * comb(n, k) / factorial(k) * y ** k
               for k in range(n + 1))


def laguerre_roots_bracketed(n: int) -> np.ndarray:
    """All n roots of L_n, by interlacing brackets plus safeguarded Newton.

    Roots of consecutive Laguerre polynomials interlace, so walking k up
    from 1 gives bracketing intervals in which Newton cannot escape; a
    bisection fallback guards the rare overshoot.  This O(n^4) walk shares
    nothing with the package's eigenvalue route except the recurrence.
    """
    roots = np.empty(0)
    for k in range(1, n + 1):
        brackets = np.concatenate([[0.0], roots, [4.0 * k + 2.0]])
        new = np.empty(k)
        for j in range(k):
            lo, hi = brackets[j], brackets[j + 1]
            x = 0.5 * (lo + hi)
            for _ in range(100):
                Lk, Lkm1 = laguerre_pair(k, x)
                # y L_k' = k (L_k - L_{k-1})
                deriv = k * (Lk - Lkm1) / x
                if Lk == 0.0:
                    break
                flo, _ = laguerre_pair(k, lo)
                if (Lk > 0) == (flo > 0):
                    lo = x
                else:
                    hi = x
                step = Lk / deriv if deriv != 0.0 else 0.0
                x_new = x - step
                if not lo < x_new < hi:
                    x_new = 0.5 * (lo + hi)
                if abs(x_new - x) <= 1e-15 * max(1.0, x):
                    x = x_new
                    break
                x = x_new
            else:
                raise ConvergenceError(f"Laguerre root iteration stalled (k={k})")
            new[j] = x
        roots = new
    return roots


def laguerre_pair_loop(n: int, y):
    """(L_n(y), L_{n-1}(y)) by the three-term recurrence, each step into a
    new array; the reference for the in-place ``models.laguerre_pair``."""
    y = np.asarray(y, dtype=float)
    prev = np.ones_like(y)
    cur = 1.0 - y
    if n == 0:
        return prev, np.zeros_like(y)
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - y) * cur - k * prev) / (k + 1)
    return cur, prev


def eval_panels_weighted(func, boxes):
    """(int(|W|-W), int W) on each box row: the values times a per-box
    grid of GL8 x GL8 weights scaled by the half-widths, summed over the
    grid; the panel sums that ``negativity._eval_panels`` replaced."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    qm = 0.5 * (boxes[:, 0] + boxes[:, 1])
    qr = 0.5 * (boxes[:, 1] - boxes[:, 0])
    pm = 0.5 * (boxes[:, 2] + boxes[:, 3])
    pr = 0.5 * (boxes[:, 3] - boxes[:, 2])
    Q = qm[:, None, None] + qr[:, None, None] * nodes[None, :, None]
    P = pm[:, None, None] + pr[:, None, None] * nodes[None, None, :]
    vals = np.real(func(Q, P))
    w2 = np.outer(weights, weights)[None, :, :] * (qr * pr)[:, None, None]
    neg = ((np.abs(vals) - vals) * w2).sum(axis=(1, 2))
    tot = (vals * w2).sum(axis=(1, 2))
    return neg, tot


def eta_exact(n: int) -> float:
    """eta(n) from the exact antiderivative of exp(-y/2) L_n(y).

    Integration by parts with L_n' = -(L_0 + ... + L_{n-1}) gives
    int exp(-y/2) L_n dy = -2 exp(-y/2) G_n(y) where G_n = S_n - S_{n-1}
    and S_k = L_k - S_{k-1} (S_0 = 1).  Telescoping over the sign pattern
    of L_n between consecutive roots yields a closed expression in the
    root values alone.
    """
    if n == 0:
        return 0.0

    def G(y):
        S_prev = 1.0
        L_prev, L_cur = 1.0, 1.0 - y
        if n == 1:
            return L_cur - 2.0 * S_prev
        for k in range(1, n):
            S_cur = L_cur - S_prev
            L_prev, L_cur = L_cur, ((2 * k + 1 - y) * L_cur - k * L_prev) / (k + 1)
            S_prev = S_cur
        return L_cur - 2.0 * S_prev

    total = 2.0 * (-1.0) ** n
    for j, y in enumerate(laguerre_roots_bracketed(n), start=1):
        total += 4.0 * (-1.0) ** j * np.exp(-0.5 * y) * G(y)
    return 0.5 * total - 1.0


class _Panel:
    """One leaf of the adaptive subdivision.

    Holds the refined estimate (sum over the panel's four quarters) and the
    embedded error |refined - coarse| used to rank refinement candidates.
    """

    __slots__ = ("box", "neg", "tot", "err", "quarter_data")

    def __init__(self, box, coarse, quarter_data):
        self.box = box
        self.neg = sum(q[0] for q in quarter_data)
        self.tot = sum(q[1] for q in quarter_data)
        self.err = abs(self.neg - coarse[0])
        self.quarter_data = quarter_data


def adaptive_eta_greedy(func, box, tol):
    """Globally adaptive quadrature, one panel refined per loop turn.

    Always refines the panel with the largest |refined - coarse|, ties
    broken by insertion order, with one ``_eval_panels`` call per turn.
    Returns (int(|W|-W), int W, error estimate); the reference for the
    batched replay in ``moyal.negativity._adaptive_eta``.
    """
    import heapq

    _eval_panels = negativity._eval_panels

    def _quarter_boxes(qa, qb, pa, pb):
        qm = 0.5 * (qa + qb)
        pm = 0.5 * (pa + pb)
        return ((qa, qm, pa, pm), (qa, qm, pm, pb),
                (qm, qb, pa, pm), (qm, qb, pm, pb))

    def make_panels(parent_boxes, coarse_list):
        quarters = [q for b in parent_boxes for q in _quarter_boxes(*b)]
        neg, tot = _eval_panels(func, np.asarray(quarters, dtype=float))
        panels = []
        for i, b in enumerate(parent_boxes):
            data = [(neg[4 * i + j], tot[4 * i + j]) for j in range(4)]
            panels.append(_Panel(b, coarse_list[i], data))
        return panels

    neg0, tot0 = _eval_panels(func, np.asarray([box], dtype=float))
    root = make_panels([box], [(neg0[0], tot0[0])])[0]
    counter = 0
    heap = [(-root.err, counter, root)]
    total_neg, total_tot, total_err = root.neg, root.tot, root.err
    n_panels = 1
    while total_err > 0.4 * tol and heap:
        _, _, worst = heapq.heappop(heap)
        if n_panels > negativity._MAX_PANELS:
            raise ConvergenceError("adaptive quadrature exceeded panel budget")
        total_neg -= worst.neg
        total_tot -= worst.tot
        total_err -= worst.err
        children = make_panels(list(_quarter_boxes(*worst.box)),
                               worst.quarter_data)
        n_panels += 3
        for child in children:
            counter += 1
            heapq.heappush(heap, (-child.err, counter, child))
            total_neg += child.neg
            total_tot += child.tot
            total_err += child.err
    return total_neg, total_tot, total_err


def _affine_mul(arr: np.ndarray, c0: complex, cq: complex, cp: complex) -> np.ndarray:
    """(c0 + cq*q + cp*p) times a dense coefficient array."""
    nq, npw = arr.shape
    out = np.zeros((nq + 1, npw + 1), dtype=complex)
    out[:nq, :npw] += c0 * arr
    out[1:, :npw] += cq * arr
    out[:nq, 1:] += cp * arr
    return out


def _add_scaled(dst: np.ndarray, src: np.ndarray, fac: complex):
    dst[: src.shape[0], : src.shape[1]] += fac * src


def polygauss_star_recursive(f: PolyGauss, g: PolyGauss) -> PolyGauss:
    """Star product by source differentiation, a four-variable recursion.

    Extending each exponent with a linear source and differentiating the
    starred Gaussians with respect to the four source components gives

        H_{alpha+e_i} = L_i(x) H_alpha + sum_j alpha_j K_ij H_{alpha-e_j}

    with K = M^-1 and L_i(x) affine in x, evaluated here by dynamic
    programming over dense coefficient arrays.  It shares only the Gaussian
    system (``_star_system``) with ``moyal.polygauss_star``.
    """
    f._check_compatible(g)
    f, g = f._in_common_frame(g)
    if not f.terms or not g.terms:
        pref, shape, _, _, _ = _star_system(f.shape, g.shape, f.hbar)
        return PolyGauss({}, shape, f.hbar, f.frame)
    pref, shape, W, w0, K = _star_system(f.shape, g.shape, f.hbar)
    amax = max(a for a, _ in f.terms)
    bmax = max(b for _, b in f.terms)
    cmax = max(a for a, _ in g.terms)
    dmax = max(b for _, b in g.terms)
    degtot = amax + bmax + cmax + dmax
    total = np.zeros((degtot + 1, degtot + 1), dtype=complex)

    # H_alpha over alpha = (a, b, c, d); layered over a so only the previous
    # layer (plus one corner of the layer before it) stays in memory.
    prev: dict = {}
    prev_corner = None
    for a in range(amax + 1):
        cur: dict = {}
        for b in range(bmax + 1):
            for c in range(cmax + 1):
                for d in range(dmax + 1):
                    if d > 0:
                        H = _affine_mul(cur[(b, c, d - 1)], w0[3], W[3, 0], W[3, 1])
                        if d >= 2:
                            _add_scaled(H, cur[(b, c, d - 2)], (d - 1) * K[3, 3])
                        if c >= 1:
                            _add_scaled(H, cur[(b, c - 1, d - 1)], c * K[3, 2])
                        if b >= 1:
                            _add_scaled(H, cur[(b - 1, c, d - 1)], b * K[3, 1])
                        if a >= 1:
                            _add_scaled(H, prev[(b, c, d - 1)], a * K[3, 0])
                    elif c > 0:
                        H = _affine_mul(cur[(b, c - 1, 0)], w0[2], W[2, 0], W[2, 1])
                        if c >= 2:
                            _add_scaled(H, cur[(b, c - 2, 0)], (c - 1) * K[2, 2])
                        if b >= 1:
                            _add_scaled(H, cur[(b - 1, c - 1, 0)], b * K[2, 1])
                        if a >= 1:
                            _add_scaled(H, prev[(b, c - 1, 0)], a * K[2, 0])
                    elif b > 0:
                        H = _affine_mul(cur[(b - 1, 0, 0)], w0[1], W[1, 0], W[1, 1])
                        if b >= 2:
                            _add_scaled(H, cur[(b - 2, 0, 0)], (b - 1) * K[1, 1])
                        if a >= 1:
                            _add_scaled(H, prev[(b - 1, 0, 0)], a * K[1, 0])
                    elif a > 0:
                        H = _affine_mul(prev[(0, 0, 0)], w0[0], W[0, 0], W[0, 1])
                        if a >= 2:
                            _add_scaled(H, prev_corner, (a - 1) * K[0, 0])
                    else:
                        H = np.ones((1, 1), dtype=complex)
                    cur[(b, c, d)] = H
        for (av, bv), cf in f.terms.items():
            if av != a:
                continue
            for (cv, dv), cg in g.terms.items():
                _add_scaled(total, cur[(bv, cv, dv)], cf * cg)
        prev_corner = prev.get((0, 0, 0))
        prev = cur

    terms = {}
    nz = np.argwhere(total != 0.0)
    for i, j in nz:
        terms[(int(i), int(j))] = pref * total[i, j]
    return PolyGauss(terms, shape, f.hbar, f.frame)


def polygauss_star_horner(f: PolyGauss, g: PolyGauss) -> PolyGauss:
    """Star product by smoothing and one Horner substitution of all four
    variables (``moyal.symbols._substitute``) in place of the power-table
    contraction of ``moyal.polygauss_star``."""
    f._check_compatible(g)
    f, g = f._in_common_frame(g)
    pref, shape, W, w0, K = _star_system(f.shape, g.shape, f.hbar)
    R = _substitute(_smooth(np.multiply.outer(f.C, g.C), K), W, w0)
    return PolyGauss(pref * R, shape, f.hbar, f.frame)


def star_numeric_loops(A: GridField, B: GridField, method: str) -> np.ndarray:
    """Grid star product values by a per-output-row loop over Fourier modes.

    For each output row c, 'direct' forms the full (a, d, b) product tensor
    and reduces it with einsum; 'fft' does the b-sum of every row a as one
    circular convolution, picking the rows of ghat by a fancy index.  Only
    the transforms and phase tables are shared with ``moyal.star_numeric``;
    boundary checks and warnings are left out.
    """
    spec, hbar = A.spec, A.hbar
    nq, npts = spec.nq, spec.np
    Fh, xiq, xip = _forward(A)
    Gh, _, _ = _forward(B)
    P1 = np.exp(-0.5j * hbar * np.outer(xiq, xip))   # (a, d)
    P2 = np.exp(+0.5j * hbar * np.outer(xip, xiq))   # (b, c)
    S = np.empty((nq, npts), dtype=complex)
    rows_base = np.arange(nq)
    if method == "direct":
        d_idx = (np.arange(npts)[:, None] - np.arange(npts)[None, :]) % npts
        GD = Gh[:, d_idx]                             # (a', d, b)
        for c in range(nq):
            rows = (c - rows_base) % nq
            FP = Fh * P2[:, c][None, :]               # (a, b)
            T = np.einsum("ab,adb->ad", FP, GD[rows])
            S[c, :] = np.einsum("ad,ad->d", P1, T)
    else:
        GhF = np.fft.fft(Gh, axis=1)
        for c in range(nq):
            rows = (c - rows_base) % nq
            XF = np.fft.fft(Fh * P2[:, c][None, :], axis=1)
            T = np.fft.ifft(XF * GhF[rows], axis=1)
            S[c, :] = np.einsum("ad,ad->d", P1, T)
    off = np.exp(1j * (np.add.outer(xiq * spec.qmin, xip * spec.pmin)))
    return np.fft.ifft2(S * off) / (nq * npts * spec.dq ** 2 * spec.dp ** 2)


def star_numeric_fft_unpruned(A: GridField, B: GridField) -> np.ndarray:
    """Grid star product values by the FFT loop with every row pair kept.

    The loop transforms all nq rows for every output row c and reads the
    rows of ghat for a = 0 .. nq - 1 through a reversed view of a doubled
    table; ``moyal.star_numeric(method="fft")`` does the same arithmetic in
    the same order whenever no Fourier row falls below its floor.
    """
    spec, hbar = A.spec, A.hbar
    nq, npts = spec.nq, spec.np
    Fh, xiq, xip = _forward(A)
    Gh, _, _ = _forward(B)
    P1 = np.exp(-0.5j * hbar * np.outer(xiq, xip))   # (a, d)
    P2 = np.exp(+0.5j * hbar * np.outer(xip, xiq))   # (b, c)
    S = np.empty((nq, npts), dtype=complex)
    GhF = np.fft.fft(Gh, axis=1)
    GG = np.concatenate([GhF, GhF])
    for c in range(nq):
        # GG[nq + c - a] = GhF[(c - a) mod nq] for a = 0 .. nq - 1
        T = np.fft.ifft(np.fft.fft(Fh * P2[:, c], axis=1)
                        * GG[nq + c:c:-1], axis=1)
        T *= P1
        S[c] = T.sum(0)
    off = np.exp(1j * (np.add.outer(xiq * spec.qmin, xip * spec.pmin)))
    return np.fft.ifft2(S * off) / (nq * npts * spec.dq ** 2 * spec.dp ** 2)


def moyal_bracket_two_sums(A: GridField, B: GridField, method: str = "direct") -> GridField:
    """A*B - B*A on the grid as two twisted sums, each bitwise star_numeric.

    The products share the forward transforms and phase tables; nothing
    relies on B*A = conj(A*B), so this is the reference for the one-sum
    bracket of real fields in ``moyal.moyal_bracket_numeric``.
    """
    warnings = (_decay_warnings(*_checked_decay(A, B, method))
                + _decay_warnings(*_checked_decay(B, A, method)))
    spec = A.spec
    Fh, xiq, xip = _forward(A)
    Gh, _, _ = _forward(B)
    P1, P2 = _twist(xiq, xip, A.hbar)
    ab = _inverse(_twisted_sum(Fh, Gh, P1, P2, method), spec, xiq, xip)
    ba = _inverse(_twisted_sum(Gh, Fh, P1, P2, method), spec, xiq, xip)
    return GridField(spec, ab - ba, A.hbar, tuple(dict.fromkeys(warnings)))


_FMT = "{:.16e}"


def grid_csv_text(field: GridField, metadata: dict = None) -> str:
    """The grid CSV layout, written one value at a time into a string."""
    metadata = metadata or {}
    spec = field.spec
    vals = field.values
    is_complex = bool(np.abs(vals.imag).max()
                      > 1e-12 * max(np.abs(vals).max(), 1e-300))
    meta = " ".join(f"{k}={metadata[k]}" for k in sorted(metadata))
    out = io.StringIO()
    out.write(f"# moyal-grid v1\n# version={__version__}\n")
    if meta:
        out.write(f"# {meta}\n")
    out.write("# " + " ".join([
        f"qmin={_FMT.format(spec.qmin)}", f"qmax={_FMT.format(spec.qmax)}",
        f"pmin={_FMT.format(spec.pmin)}", f"pmax={_FMT.format(spec.pmax)}",
        f"nq={spec.nq}", f"np={spec.np}", f"hbar={_FMT.format(field.hbar)}",
    ]) + "\n")
    out.write(f"# complex={int(is_complex)}\n")
    for w in field.warnings:
        out.write(f"# warning={w}\n")
    out.write("# columns=" + ("q,p,re_W,im_W" if is_complex else "q,p,W") + "\n")
    qs, ps = spec.qs, spec.ps
    for i in range(spec.nq):
        qi = _FMT.format(qs[i])
        for j in range(spec.np):
            v = vals[i, j]
            out.write(f"{qi},{_FMT.format(ps[j])},{_FMT.format(v.real)}")
            out.write(f",{_FMT.format(v.imag)}\n" if is_complex else "\n")
    return out.getvalue()


def read_grid_csv_lines(text: str):
    """(values, metadata) of a grid CSV text, parsed line by line with float().

    `# warning=` lines are skipped; the metadata holds the key=value tokens
    of the other header lines.
    """
    meta = {}
    rows = []
    for line in text.splitlines():
        if not line.strip() or line.startswith("# warning="):
            continue
        if line.startswith("#"):
            for tok in line[1:].strip().split():
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    meta[k] = v
            continue
        rows.append([float(t) for t in line.split(",")])
    data = np.asarray(rows)
    values = np.zeros(len(rows), complex)
    values.real = data[:, 2]
    if int(meta.get("complex", "0")):
        values.imag = data[:, 3]
    return values.reshape(int(meta["nq"]), int(meta["np"])), meta


def read_grid_csv_loadtxt(source):
    """(GridField, metadata) of a grid CSV path or text handle, the rows
    parsed whole by numpy's loadtxt; the same header handling and grid
    checks as moyal.formats.read_grid_csv."""
    meta, warnings = {}, []
    fh = source if hasattr(source, "read") else open(source)
    try:
        line = fh.readline()
        while line.startswith("#") or line.isspace():
            if line.startswith("# warning="):
                warnings.append(line[len("# warning="):].rstrip("\n"))
            else:
                meta.update(tok.split("=", 1) for tok in line[1:].split()
                            if "=" in tok)
            line = fh.readline()
        missing = [k for k in ("qmin", "qmax", "pmin", "pmax", "nq", "np")
                   if k not in meta]
        if missing:
            raise ValueError("grid CSV header lacks " + ", ".join(missing))
        data = np.loadtxt(chain([line], fh), delimiter=",", comments="#",
                          ndmin=2)
    finally:
        if fh is not source:
            fh.close()
    spec = GridSpec(float(meta["qmin"]), float(meta["qmax"]),
                    float(meta["pmin"]), float(meta["pmax"]),
                    int(meta["nq"]), int(meta["np"]))
    shape = (spec.nq, spec.np)
    if data.shape[0] != spec.nq * spec.np:
        raise ValueError("row count does not match the declared grid")
    q, p = data[:, 0].reshape(shape), data[:, 1].reshape(shape)
    if not ((np.abs(q - spec.qs[:, None]) <= 1e-12 * (spec.qmax - spec.qmin)).all()
            and (np.abs(p - spec.ps) <= 1e-12 * (spec.pmax - spec.pmin)).all()):
        raise ValueError("q,p columns do not match the declared grid")
    values = np.zeros(len(data), complex)
    values.real = data[:, 2]
    if int(meta.get("complex", "0")):
        values.imag = data[:, 3]
    return (GridField(spec, values.reshape(shape), float(meta.get("hbar", "1")),
                      warnings), meta)


def _radical_inverse_scalar(n: int, base: int) -> float:
    inv = 0.0
    denom = 1.0
    while n > 0:
        denom *= base
        n, digit = divmod(n, base)
        inv += digit / denom
    return inv


def halton_points_loop(n_samples: int, box, skip: int) -> np.ndarray:
    """Halton points (bases 2 and 3) in a rectangle, one point at a time."""
    qmin, qmax, pmin, pmax = box
    pts = np.empty((n_samples, 2))
    for i in range(n_samples):
        t = i + skip
        pts[i, 0] = qmin + (qmax - qmin) * _radical_inverse_scalar(t, 2)
        pts[i, 1] = pmin + (pmax - pmin) * _radical_inverse_scalar(t, 3)
    return pts

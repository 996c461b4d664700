"""Independent numerical oracles used by the tests.

Everything here deliberately avoids the package's closed-form code paths:
scipy quadrature, series summation, an interlacing-bracket root walk, an
exact piecewise antiderivative for the negativity integral, and a star
product by the source-differentiation recursion.
"""

import numpy as np
from scipy.integrate import dblquad

from moyal.errors import ConvergenceError
from moyal.models import laguerre_pair
from moyal.polygauss import PolyGauss
from moyal.star import _star_system


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

"""Independent numerical oracles used by the tests.

Everything here deliberately avoids the package's closed-form code paths:
scipy quadrature, series summation, an interlacing-bracket root walk, and
an exact piecewise antiderivative for the negativity integral.
"""

import numpy as np
from scipy.integrate import dblquad

from moyal.errors import ConvergenceError
from moyal.models import laguerre_pair


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

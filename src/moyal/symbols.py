"""Sparse complex polynomials in the two phase-space variables (q, p).

Coefficients are stored in a dict keyed by exponent pairs, e.g.

    {(0, 0): 1.0, (2, 0): 0.5, (1, 1): -0.25j}

represents 1 + q**2/2 - i*q*p/4.  Exponents are nonnegative integers.
Instances are treated as immutable; every operation returns a new object.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, perm

import numpy as np

PRUNE_REL_TOL = 1e-14


def prune_coeffs(coeffs: dict) -> dict:
    """Drop coefficients at or below PRUNE_REL_TOL times the largest one;
    the kept ones are stored as complex."""
    if not coeffs:
        return {}
    biggest = max(abs(c) for c in coeffs.values())
    if biggest == 0.0:
        return {}
    cut = PRUNE_REL_TOL * biggest
    return {k: complex(c) for k, c in coeffs.items() if abs(c) > cut}


def convolve_coeffs(c1: dict, c2: dict) -> dict:
    """Coefficients of the product of two polynomials (unpruned)."""
    out = {}
    for (a1, b1), x1 in c1.items():
        for (a2, b2), x2 in c2.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0.0) + x1 * x2
    return out


# ---- dense kernel: Gaussian expectations of polynomials --------------------
#
# A coefficient array C has one axis per variable, C[alpha] multiplying
# y^alpha.  sum_alpha C_alpha d_J^alpha exp(L.J + J^T K J / 2) at J = 0 is the
# mean of P(y) under a Gaussian of mean L and covariance K, which equals
# [exp(d^T K d / 2) P](L): smooth, then substitute the mean.  Star products
# smooth here and substitute through power tables of their operands' affine
# forms (``moyal.star``); ``_substitute`` is the route for integrals,
# marginals and frames (``linear_map``).


def _dense(coeffs: dict, ndim: int) -> np.ndarray:
    """Coefficient dict (keys: exponent tuples, or ints when ndim is 1) as a
    dense complex array with ndim axes."""
    if not coeffs:
        return np.zeros((1,) * ndim, dtype=complex)
    keys = np.array(list(coeffs), dtype=int).reshape(len(coeffs), ndim)
    C = np.zeros(tuple(keys.max(axis=0) + 1), dtype=complex)
    C[tuple(keys.T)] = list(coeffs.values())
    return C


def _sparse(C: np.ndarray) -> dict:
    """The nonzero entries of a coefficient array, keyed by exponent tuples."""
    idx = np.nonzero(C)
    return dict(zip(zip(*(i.tolist() for i in idx)), C[idx].tolist()))


@lru_cache(maxsize=1024)
def _falling(n: int, s: int, trailing: int) -> np.ndarray:
    """a! / (a - s)! for a = s .. n-1, shaped to broadcast along an axis that
    has `trailing` axes after it (read-only)."""
    out = np.array([perm(a, s) for a in range(s, n)], dtype=float).reshape(
        (-1,) + (1,) * trailing)
    out.flags.writeable = False
    return out


def _smooth(C: np.ndarray, K) -> np.ndarray:
    """The heat operator exp(d^T K d / 2) on a coefficient array, K symmetric.

    The operator is the product of the commuting factors exp(c d_i d_j) with
    c = K_ii / 2 (i = j) or K_ij (i < j).  Term m of a factor's Taylor series
    lowers exponent i and exponent j by m each and weighs a coefficient by
    c^m / m! times the falling factorials of its exponents.
    """
    out = np.array(C, dtype=complex)
    d = out.ndim
    for i in range(d):
        for j in range(i, d):
            c = 0.5 * K[i][i] if i == j else K[i][j]
            if c == 0.0:
                continue
            src, m = out.copy(), 1
            while True:
                shift = [m * ((k == i) + (k == j)) for k in range(d)]
                if any(s >= n for s, n in zip(shift, out.shape)):
                    break
                w = c ** m / factorial(m)
                for k in {i, j}:
                    w = w * _falling(out.shape[k], shift[k], d - k - 1)
                out[tuple(slice(0, n - s) for s, n in zip(shift, out.shape))] += (
                    src[tuple(slice(s, None) for s in shift)] * w)
                m += 1
    return out


def _substitute(C: np.ndarray, W, w0) -> np.ndarray:
    """Coefficients of x -> P(W x + w0), for P with coefficient array C of
    d axes and W a d x m matrix: an array with m axes (0-d for m = 0, the
    value P(w0)).  Horner along each input axis in turn."""
    W = np.asarray(W)
    m = W.shape[1]
    T = np.asarray(C, dtype=complex).reshape((1,) * m + C.shape)
    for i in range(C.ndim):
        head = tuple(slice(0, s) for s in T.shape[:m])
        U = T[head + (-1,)]
        for k in range(T.shape[m] - 2, -1, -1):
            inner = tuple(slice(0, s) for s in U.shape[:m])
            grown = np.zeros(tuple(s + 1 for s in U.shape[:m]) + U.shape[m:],
                             dtype=complex)
            grown[inner] += w0[i] * U
            for j in range(m):
                grown[inner[:j] + (slice(1, None),) + inner[j + 1:]] += W[i, j] * U
            grown[head] += T[head + (k,)]
            U = grown
        T = U
    return T


class PolynomialSymbol:
    """A finite complex polynomial in (q, p), the classical-symbol carrier."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = prune_coeffs(dict(coeffs) if coeffs else {})

    @classmethod
    def constant(cls, c) -> "PolynomialSymbol":
        return cls({(0, 0): c})

    @classmethod
    def zero(cls) -> "PolynomialSymbol":
        return cls({})

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(a + b for a, b in self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return PolynomialSymbol(out)

    __radd__ = __add__

    def __neg__(self):
        return PolynomialSymbol({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, PolynomialSymbol) and np.isscalar(other):
            return PolynomialSymbol({k: c * other for k, c in self.coeffs.items()})
        return PolynomialSymbol(convolve_coeffs(self.coeffs, _coerce(other).coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = PolynomialSymbol.constant(1.0)
        for _ in range(n):
            result = result * self
        return result

    def derivative(self, dq: int = 0, dp: int = 0) -> "PolynomialSymbol":
        """Exact partial derivative d^dq/dq^dq d^dp/dp^dp."""
        out = self
        for _ in range(dq):
            out = PolynomialSymbol(
                {(a - 1, b): a * c for (a, b), c in out.coeffs.items() if a > 0})
        for _ in range(dp):
            out = PolynomialSymbol(
                {(a, b - 1): b * c for (a, b), c in out.coeffs.items() if b > 0})
        return out

    def linear_map(self, M) -> "PolynomialSymbol":
        """The composition s o M, i.e. the polynomial x -> s(M x), for a
        2x2 matrix M."""
        C = _substitute(_dense(self.coeffs, 2), M, np.zeros(2))
        return PolynomialSymbol(_sparse(C))

    def evaluate(self, q, p):
        """Evaluate at scalar or array arguments (numpy broadcasting)."""
        q = np.asarray(q)
        p = np.asarray(p)
        out = np.zeros(np.broadcast(q, p).shape, dtype=complex)
        for (a, b), c in self.coeffs.items():
            out = out + c * q ** a * p ** b
        return out

    def conjugate(self) -> "PolynomialSymbol":
        return PolynomialSymbol({k: np.conj(c) for k, c in self.coeffs.items()})

    def is_real(self, tol: float = 1e-12) -> bool:
        if not self.coeffs:
            return True
        biggest = max(abs(c) for c in self.coeffs.values())
        return all(abs(c.imag) <= tol * biggest for c in self.coeffs.values())

    def distance(self, other) -> float:
        """Max coefficient-wise absolute difference."""
        other = _coerce(other)
        keys = set(self.coeffs) | set(other.coeffs)
        if not keys:
            return 0.0
        return max(abs(self.coeffs.get(k, 0.0) - other.coeffs.get(k, 0.0)) for k in keys)

    def __repr__(self):
        if not self.coeffs:
            return "PolynomialSymbol(0)"
        parts = [f"({c:.6g})*q^{a}*p^{b}" for (a, b), c in sorted(self.coeffs.items())]
        return "PolynomialSymbol(" + " + ".join(parts) + ")"


def _coerce(x) -> PolynomialSymbol:
    if isinstance(x, PolynomialSymbol):
        return x
    if np.isscalar(x):
        return PolynomialSymbol.constant(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a polynomial symbol")


def q_symbol() -> PolynomialSymbol:
    return PolynomialSymbol({(1, 0): 1.0})


def p_symbol() -> PolynomialSymbol:
    return PolynomialSymbol({(0, 1): 1.0})

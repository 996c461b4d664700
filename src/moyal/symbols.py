"""Complex polynomials in the two phase-space variables (q, p).

A polynomial is one dense complex array C, C[a, b] the coefficient of
q**a p**b, without trailing all-zero rows and columns (1 x 1 for the zero
polynomial).  Constructors take such an array or a dict keyed by exponent
pairs, e.g.

    {(0, 0): 1.0, (2, 0): 0.5, (1, 1): -0.25j}

for 1 + q**2/2 - i*q*p/4; ``coeffs`` reads the nonzero entries back as a
dict.  Every coefficient is kept, however small.  A complex array is taken
over without a copy and made read-only.  Instances are treated as
immutable; every operation returns a new object.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate
from math import factorial, perm
from operator import mul

import numpy as np


def _coefficient_array(coeffs, ndim: int) -> np.ndarray:
    """A coefficient array, or a dict keyed by exponent tuples (ints for one
    axis), as a read-only complex array without trailing all-zero rows and
    columns."""
    if not isinstance(coeffs, np.ndarray):
        coeffs = dict(coeffs or {})
        keys = [k if isinstance(k, tuple) else (k,) for k in coeffs] or [(0,) * ndim]
        C = np.zeros([max(axis) + 1 for axis in zip(*keys)], dtype=complex)
        for k, c in zip(keys, coeffs.values()):
            C[k] = c
        coeffs = C
    C = coeffs.astype(complex, copy=False)
    if not (C.size and np.count_nonzero(C[-1]) and np.count_nonzero(C[..., -1])):
        nonzero = np.nonzero(C)
        C = (C[tuple(slice(0, i.max() + 1) for i in nonzero)] if nonzero[0].size
             else np.zeros((1,) * ndim, dtype=complex))
    C.flags.writeable = False
    return C


def _entries(C: np.ndarray) -> dict:
    """The nonzero entries of a coefficient array, keyed by exponent pairs
    (by ints for one axis)."""
    idx = np.nonzero(C)
    keys = idx[0].tolist() if C.ndim == 1 else zip(*(i.tolist() for i in idx))
    return dict(zip(keys, C[idx].tolist()))


def _degree(C: np.ndarray) -> int:
    """Total degree of a coefficient array; -1 when it is all zero."""
    idx = np.nonzero(C)
    return int(sum(idx).max()) if idx[0].size else -1


def _padded_sum(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X + Y for 2D coefficient arrays of any two shapes."""
    out = np.zeros(np.maximum(X.shape, Y.shape), dtype=complex)
    out[:X.shape[0], :X.shape[1]] = X
    out[:Y.shape[0], :Y.shape[1]] += Y
    return out


def _convolve(X: np.ndarray, Y: np.ndarray, out=None) -> np.ndarray:
    """Coefficients of the product of two polynomials: the full 2D
    convolution of their arrays, one shifted copy of the denser per entry
    of the sparser; added into the corner of out when that is given."""
    if np.count_nonzero(X) > np.count_nonzero(Y):
        X, Y = Y, X
    n0, n1 = Y.shape
    if out is None:
        out = np.zeros((X.shape[0] + n0 - 1, X.shape[1] + n1 - 1), dtype=complex)
    for a, b in zip(*(i.tolist() for i in np.nonzero(X))):
        out[a:a + n0, b:b + n1] += X[a, b] * Y
    return out


def _values(C: np.ndarray, *xs) -> np.ndarray:
    """The polynomial with coefficient array C at points xs, one array per
    axis: a sum over the nonzero entries, term by term, with the powers
    formed by repeated multiplication."""
    powers = [list(accumulate([x] * (n - 1), mul, initial=np.ones_like(x)))
              for x, n in zip(xs, C.shape)]
    out = np.zeros(np.broadcast(*xs).shape, dtype=complex)
    nonzero = np.nonzero(C)
    for idx, c in zip(zip(*(i.tolist() for i in nonzero)), C[nonzero].tolist()):
        out += c * reduce(mul, [x[i] for x, i in zip(powers, idx)])
    return out


# ---- dense kernel: the heat operator and affine substitution ---------------
#
# A coefficient array C has one axis per variable, C[alpha] multiplying
# y^alpha.  Smoothing then substituting is the mean of a polynomial under a
# Gaussian (``moyal.polygauss._gaussian_integral``); ``_substitute`` also
# moves a polynomial into another frame (``linear_map``).


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

    __slots__ = ("C",)

    def __init__(self, coeffs=None):
        self.C = _coefficient_array(coeffs, 2)

    @classmethod
    def constant(cls, c) -> "PolynomialSymbol":
        return cls({(0, 0): c})

    @classmethod
    def zero(cls) -> "PolynomialSymbol":
        return cls({})

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients, keyed by exponent pairs (a, b)."""
        return _entries(self.C)

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return _degree(self.C)

    def __add__(self, other):
        return PolynomialSymbol(_padded_sum(self.C, _coerce(other).C))

    __radd__ = __add__

    def __neg__(self):
        return PolynomialSymbol(-self.C)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, PolynomialSymbol) and np.isscalar(other):
            return PolynomialSymbol(self.C * other)
        return PolynomialSymbol(_convolve(self.C, _coerce(other).C))

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
        C = self.C
        return PolynomialSymbol(
            C[dq:, dp:] * _falling(C.shape[0], dq, 1) * _falling(C.shape[1], dp, 0))

    def linear_map(self, M) -> "PolynomialSymbol":
        """The composition s o M, i.e. the polynomial x -> s(M x), for a
        2x2 matrix M."""
        return PolynomialSymbol(_substitute(self.C, M, np.zeros(2)))

    def evaluate(self, q, p):
        """Evaluate at scalar or array arguments (numpy broadcasting)."""
        return _values(self.C, np.asarray(q), np.asarray(p))

    def conjugate(self) -> "PolynomialSymbol":
        return PolynomialSymbol(np.conj(self.C))

    def is_real(self, tol: float = 1e-12) -> bool:
        return bool(np.all(np.abs(self.C.imag) <= tol * np.abs(self.C).max()))

    def distance(self, other) -> float:
        """Max coefficient-wise absolute difference."""
        return float(np.abs(_padded_sum(self.C, -_coerce(other).C)).max())

    def __repr__(self):
        if self.degree < 0:
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

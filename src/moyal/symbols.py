"""Sparse complex polynomials in the two phase-space variables (q, p).

Coefficients are stored in a dict keyed by exponent pairs, e.g.

    {(0, 0): 1.0, (2, 0): 0.5, (1, 1): -0.25j}

represents 1 + q**2/2 - i*q*p/4.  Exponents are nonnegative integers.
Instances are treated as immutable; every operation returns a new object.
"""

from __future__ import annotations

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
        M = np.asarray(M)
        amax = max((a for a, _ in self.coeffs), default=0)
        bmax = max((b for _, b in self.coeffs), default=0)
        powers = []
        for row, top in ((M[0], amax), (M[1], bmax)):
            form = {(1, 0): row[0], (0, 1): row[1]}
            pw = [{(0, 0): 1.0}]
            for _ in range(top):
                pw.append(convolve_coeffs(pw[-1], form))
            powers.append(pw)
        out = {}
        for (a, b), c in self.coeffs.items():
            for key, x in convolve_coeffs(powers[0][a], powers[1][b]).items():
                out[key] = out.get(key, 0.0) + c * x
        return PolynomialSymbol(out)

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

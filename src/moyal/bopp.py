"""Star multiplication by a polynomial symbol as a finite differential operator.

Expanding the star-product exponential against a polynomial symbol s gives

    s * f = sum_{j,k} (i hbar/2)^(j+k) (-1)^k / (j! k!)
            (d_q^j d_p^k s)(q, p) . (d_p^j d_q^k f)(q, p),

a finite sum because s has finite degree.  This is the shifted-argument
(Bopp) form of left multiplication, q -> q + (i hbar/2) d_p and
p -> p - (i hbar/2) d_q; right multiplication flips the sign of hbar.

On a function in a frame, f = F o S (see ``moyal.polygauss``), the operator
acts in the frame variables: s * (F o S) = ((s o S^-1) * F) o S, since the
star product commutes with a linear map of unit determinant.  So s is
composed with S^-1 once per application, and the derivatives are taken
along the frame variables, where F is short.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np

from .errors import ParameterMismatchError
from .polygauss import PolyGauss
from .symbols import PolynomialSymbol


def _triples(s: PolynomialSymbol, side: str, hbar: float) -> tuple:
    """(coefficient polynomial, dq-order, dp-order) triples of s* or *s."""
    h = hbar if side == "left" else -hbar
    deg = max(s.degree, 0)
    triples = []
    for j in range(deg + 1):
        for k in range(deg + 1 - j):
            ds = s.derivative(dq=j, dp=k)
            if not ds.coeffs:
                continue
            c = (0.5j * h) ** (j + k) * (-1.0) ** k / (factorial(j) * factorial(k))
            # the j q-derivatives of s pair with p-derivatives of the operand
            triples.append((ds * c, k, j))
    return tuple(triples)


@dataclass(frozen=True)
class BoppOperator:
    """Finite list of (coefficient polynomial, dq-order, dp-order) triples,
    built from the symbol s when first read."""

    side: str
    hbar: float
    symbol: PolynomialSymbol

    @cached_property
    def terms(self) -> tuple:
        """The triples in the lab variables; apply on a framed function
        builds its own in the frame variables instead."""
        return _triples(self.symbol, self.side, self.hbar)

    @property
    def order(self) -> int:
        """Total differential order of the operator."""
        return max((dq + dp for _, dq, dp in self.terms), default=0)


def bopp_from_symbol(s: PolynomialSymbol, side: str, hbar: float) -> BoppOperator:
    """Build the operator realizing s*f (side='left') or f*s (side='right')."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    return BoppOperator(side, float(hbar), s)


def _apply_terms(terms: tuple, f: PolyGauss) -> PolyGauss:
    """Sum of coefficient times derivative of f over the triples."""
    derivs = {(0, 0): f}

    def derivative(dq, dp):
        # q-derivatives first; each one is taken once for all the terms
        if (dq, dp) not in derivs:
            derivs[dq, dp] = (derivative(dq, dp - 1).diff("p") if dp
                              else derivative(dq - 1, 0).diff("q"))
        return derivs[dq, dp]

    out = None
    for coeff, dq, dp in terms:
        g = derivative(dq, dp).mul_symbol(coeff)
        out = g if out is None else out + g
    if out is None:
        return PolyGauss({}, f.shape, f.hbar, f.frame)
    return out


def apply(op: BoppOperator, f: PolyGauss) -> PolyGauss:
    """Apply a Bopp operator to a polynomial-Gaussian, exactly in closed form."""
    if abs(op.hbar - f.hbar) > 1e-15:
        raise ParameterMismatchError(
            f"operator hbar {op.hbar} does not match function hbar {f.hbar}")
    if f.frame is None:
        return _apply_terms(op.terms, f)
    (a, b), (c, d) = f.frame
    s = op.symbol.linear_map(np.array([[d, -b], [-c, a]]))
    out = _apply_terms(_triples(s, op.side, op.hbar),
                       PolyGauss(f.terms, f.shape, f.hbar))
    return PolyGauss(out.terms, out.shape, f.hbar, f.frame)

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
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import ParameterMismatchError
from .polygauss import PolyGauss, _diff_array, _inverse
from .symbols import PolynomialSymbol, _convolve


def _triples(s: PolynomialSymbol, side: str, hbar: float) -> tuple:
    """(coefficient polynomial, dq-order, dp-order) triples of s* or *s,
    built once per coefficient array, side and hbar."""
    return _triples_of(s.C.shape, s.C.tobytes(), side, hbar)


@lru_cache(maxsize=256)
def _triples_of(shape: tuple, data: bytes, side: str, hbar: float) -> tuple:
    s = PolynomialSymbol(np.frombuffer(data, dtype=complex).reshape(shape))
    h = hbar if side == "left" else -hbar
    deg = max(s.degree, 0)
    triples = []
    for j in range(deg + 1):
        for k in range(deg + 1 - j):
            ds = s.derivative(dq=j, dp=k).C
            if not ds.any():
                continue
            c = (0.5j * h) ** (j + k) * (-1.0) ** k / (factorial(j) * factorial(k))
            # the j q-derivatives of s pair with p-derivatives of the operand
            triples.append((PolynomialSymbol(c * ds), k, j))
    return tuple(triples)


@dataclass(frozen=True)
class BoppOperator:
    """Finite list of (coefficient polynomial, dq-order, dp-order) triples
    of the symbol s, built once per coefficient array, side and hbar."""

    side: str
    hbar: float
    symbol: PolynomialSymbol

    @property
    def terms(self) -> tuple:
        """The triples in the lab variables; apply on a framed function
        takes those of s o S^-1, in the frame variables, instead."""
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


def apply(op: BoppOperator, f: PolyGauss) -> PolyGauss:
    """Apply a Bopp operator to a polynomial-Gaussian, exactly in closed form:
    the sum over the triples of coefficient times derivative of f, formed
    on coefficient arrays in the frame variables."""
    if abs(op.hbar - f.hbar) > 1e-15:
        raise ParameterMismatchError(
            f"operator hbar {op.hbar} does not match function hbar {f.hbar}")
    terms = op.terms if f.frame is None else _triples(
        op.symbol.linear_map(_inverse(f.frame)), op.side, op.hbar)
    derivs = {(0, 0): f.C}

    def derivative(dq, dp):
        # q-derivatives first; each one is taken once for all the terms
        if (dq, dp) not in derivs:
            derivs[dq, dp] = (
                _diff_array(derivative(dq, dp - 1), f.shape, (0.0, 1.0)) if dp
                else _diff_array(derivative(dq - 1, 0), f.shape, (1.0, 0.0)))
        return derivs[dq, dp]

    # a derivative of order r grows f by r, its coefficient has degree
    # deg s - r at most
    out = np.zeros((max(f.C.shape) + max(op.symbol.degree, 0),) * 2, dtype=complex)
    for coeff, dq, dp in terms:
        _convolve(coeff.C, derivative(dq, dp), out)
    return PolyGauss._new(out, f.shape, f.hbar, f.frame)

"""Star multiplication by a polynomial symbol as a finite differential operator.

Expanding the star-product exponential against a polynomial symbol s gives

    s * f = sum_{j,k} (i hbar/2)^(j+k) (-1)^k / (j! k!)
            (d_q^j d_p^k s)(q, p) . (d_p^j d_q^k f)(q, p),

a finite sum because s has finite degree.  This is the shifted-argument
(Bopp) form of left multiplication, q -> q + (i hbar/2) d_p and
p -> p - (i hbar/2) d_q; right multiplication flips the sign of hbar.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import ParameterMismatchError
from .polygauss import PolyGauss
from .symbols import PolynomialSymbol


@dataclass(frozen=True)
class BoppOperator:
    """Finite list of (coefficient polynomial, dq-order, dp-order) triples."""

    terms: tuple
    side: str
    hbar: float

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
    return BoppOperator(tuple(triples), side, float(hbar))


def apply(op: BoppOperator, f: PolyGauss) -> PolyGauss:
    """Apply a Bopp operator to a polynomial-Gaussian, exactly in closed form."""
    if abs(op.hbar - f.hbar) > 1e-15:
        raise ParameterMismatchError(
            f"operator hbar {op.hbar} does not match function hbar {f.hbar}")
    out = None
    for coeff, dq, dp in op.terms:
        g = f
        for _ in range(dq):
            g = g.diff("q")
        for _ in range(dp):
            g = g.diff("p")
        g = g.mul_symbol(coeff)
        out = g if out is None else out + g
    if out is None:
        return PolyGauss({}, f.shape, f.hbar, f.frame)
    return out

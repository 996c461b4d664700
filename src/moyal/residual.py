"""Deterministic residual checks for the star-genvalue equation H*f = E f."""

from __future__ import annotations

import numpy as np

from .bopp import apply, bopp_from_symbol
from .polygauss import PolyGauss
from .symbols import PolynomialSymbol

# Fixed burn-in for the Halton sequence; a constant so every run samples the
# identical point set and failures reproduce exactly.
HALTON_SKIP = 20


def _radical_inverse(n: int, base: int) -> float:
    inv = 0.0
    denom = 1.0
    while n > 0:
        denom *= base
        n, digit = divmod(n, base)
        inv += digit / denom
    return inv


def halton_points(n_samples: int, box, skip: int = HALTON_SKIP) -> np.ndarray:
    """Low-discrepancy (Halton, bases 2 and 3) points in a rectangle.

    box is (qmin, qmax, pmin, pmax); returns an (n_samples, 2) array.
    """
    qmin, qmax, pmin, pmax = box
    pts = np.empty((n_samples, 2))
    for i in range(n_samples):
        t = i + skip
        pts[i, 0] = qmin + (qmax - qmin) * _radical_inverse(t, 2)
        pts[i, 1] = pmin + (pmax - pmin) * _radical_inverse(t, 3)
    return pts


def eigen_residual(H: PolynomialSymbol, f: PolyGauss, E: float,
                   sample_box=(-6.0, 6.0, -6.0, 6.0),
                   n_samples: int = 200) -> float:
    """max |(H*f)(x) - E f(x)| / max |f(x)| over a deterministic sample set.

    Zero (to round-off) exactly when (f, E) is a star-genvalue pair of H.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    Hf = apply(bopp_from_symbol(H, "left", f.hbar), f)
    pts = halton_points(n_samples, sample_box)
    q, p = pts[:, 0], pts[:, 1]
    num = np.abs(Hf.evaluate(q, p) - E * f.evaluate(q, p))
    den = np.abs(f.evaluate(q, p))
    peak = den.max()
    if peak == 0.0:
        return float("inf")
    return float(num.max() / peak)

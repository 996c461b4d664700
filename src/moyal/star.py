"""Exact Moyal star products within the polynomial-Gaussian class.

The star product of two Gaussians is a 4D complex Gaussian integral.  With
exponents Q1(y) = y^T A y + a.y + alpha and Q2(z) = z^T B z + b.z + beta,
shifting y = x + u, z = x + v turns

    (f*g)(x) = (pi hbar)^-2 int f(y) g(z) exp((2i/hbar) sigma(y-x, z-x)) dy dz

into int exp(-w^T M w / 2 - c(x).w) dw over w = (u, v) with

    M = [[2A, -(2i/hbar) J], [(2i/hbar) J, 2B]],   J = [[0, 1], [-1, 0]],
    c(x) = (2A x + a, 2B x + b),

so the result is (4/hbar^2) det(M)^(-1/2) exp(c^T M^-1 c / 2 - Q1 - Q2),
again a Gaussian.  det^(-1/2) uses principal square roots of the
eigenvalues of M, the continuous branch for Re(M) >= 0; this covers the
Fresnel limit where one factor is a plain polynomial (A or B = 0).

Polynomial prefactors are reinstated by source differentiation: extend each
exponent with a linear source (l -> l - s), star the pure Gaussians, then
differentiate the closed form with respect to the four source components.
Those derivatives satisfy a four-variable Hermite-style recursion

    H_{alpha+e_i} = L_i(x) H_alpha + sum_j alpha_j K_{ij} H_{alpha-e_j}

with K = M^-1 constant and L_i(x) affine in x, evaluated here by dynamic
programming over dense coefficient arrays.

Operands in the same frame S (see ``moyal.polygauss``) are starred in that
frame and the result keeps it, since (F o S) * (G o S) = (F * G) o S for a
linear map S of unit determinant; operands in different frames are first
expanded to the identity frame.
"""

from __future__ import annotations

import numpy as np

from .errors import StarSingularError
from .polygauss import PolyGauss, QuadForm

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_S = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])


def _star_system(shape1: QuadForm, shape2: QuadForm, hbar: float):
    """Assemble M, its inverse, the result shape and the source data."""
    A, a, alpha = shape1.A, shape1.l, shape1.k
    B, b, beta = shape2.A, shape2.l, shape2.k
    twist = (2.0j / hbar) * _J
    M = np.block([[2.0 * A, -twist], [twist, 2.0 * B]])
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= 1e-13 * sv[0]:
        raise StarSingularError("nonintegrable star product")
    lam = np.linalg.eigvals(M)
    if np.any(lam.real < -1e-12 * np.max(np.abs(lam))):
        raise StarSingularError("nonintegrable star product")
    inv_sqrt_det = complex(np.prod(1.0 / np.sqrt(lam)))
    Minv = np.linalg.inv(M)
    Minv = 0.5 * (Minv + Minv.T)
    G = np.vstack([2.0 * A, 2.0 * B])            # 4x2
    h0 = np.concatenate([a, b])                  # 4
    prefactor = (4.0 / hbar ** 2) * inv_sqrt_det
    At = A + B - 0.5 * G.T @ Minv @ G
    lt = a + b - G.T @ Minv @ h0
    kt = alpha + beta - 0.5 * h0 @ Minv @ h0
    out_shape = QuadForm(At, lt, kt)
    W = _S.T - Minv @ G                          # 4x2, L(x) = W x + w0
    w0 = -Minv @ h0
    return prefactor, out_shape, W, w0, Minv


def gaussian_star(g1: PolyGauss, g2: PolyGauss) -> PolyGauss:
    """Star product of two pure Gaussians (degree-0 polynomial parts)."""
    g1._check_compatible(g2)
    if g1.degree > 0 or g2.degree > 0:
        raise ValueError("gaussian_star requires degree-0 operands")
    g1, g2 = g1._in_common_frame(g2)
    pref, shape, _, _, _ = _star_system(g1.shape, g2.shape, g1.hbar)
    c1 = g1.terms.get((0, 0), 0.0)
    c2 = g2.terms.get((0, 0), 0.0)
    return PolyGauss({(0, 0): pref * c1 * c2}, shape, g1.hbar, g1.frame)


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


def polygauss_star(f: PolyGauss, g: PolyGauss) -> PolyGauss:
    """Exact star product of two polynomial-Gaussians.

    Implements the source-differentiation scheme described in the module
    docstring; the result polynomial degree is at most deg(f) + deg(g).
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

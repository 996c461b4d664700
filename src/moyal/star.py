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

Polynomial prefactors ride on the same integral.  The product of the two
polynomials, P(y, z), is a polynomial in four variables, and the integrand
is P(x + u, x + v) times that Gaussian in w = (u, v).  After normalization
the polynomial part is therefore the mean of P over a Gaussian of
covariance K = M^-1 centred at the affine point L(x) = W x + w0:

    E[P] = [exp(d^T K d / 2) P](L(x)).

So the coefficients come from one heat-operator smoothing of the outer
product of the two coefficient arrays followed by one affine substitution
(``moyal.symbols._smooth`` and ``_substitute``), the same kernel that
integrals and marginals use.

Operands in the same frame S (see ``moyal.polygauss``) are starred in that
frame and the result keeps it, since (F o S) * (G o S) = (F * G) o S for a
linear map S of unit determinant; operands in different frames are first
expanded to the identity frame.
"""

from __future__ import annotations

import numpy as np

from .errors import StarSingularError
from .polygauss import PolyGauss, QuadForm
from .symbols import _dense, _smooth, _sparse, _substitute

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


def polygauss_star(f: PolyGauss, g: PolyGauss) -> PolyGauss:
    """Exact star product of two polynomial-Gaussians.

    Smoothing plus substitution as described in the module docstring; the
    result polynomial degree is at most deg(f) + deg(g).
    """
    f._check_compatible(g)
    f, g = f._in_common_frame(g)
    pref, shape, W, w0, K = _star_system(f.shape, g.shape, f.hbar)
    P = np.multiply.outer(_dense(f.terms, 2), _dense(g.terms, 2))
    R = _substitute(_smooth(P, K), W, w0)
    return PolyGauss(_sparse(pref * R), shape, f.hbar, f.frame)

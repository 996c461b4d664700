"""Exact Moyal star products within the polynomial-Gaussian class.

With exponents Q1(y) = y^T A y + a.y + alpha and Q2(z) = z^T B z + b.z + beta,
shifting y = x + u, z = x + v turns

    (f*g)(x) = (pi hbar)^-2 int f(y) g(z) exp((2i/hbar) sigma(y-x, z-x)) dy dz

into 4/hbar^2 exp(-Q1(x) - Q2(x)) times the Gaussian integral of
``moyal.polygauss._gaussian_integral`` over w = (u, v), with

    M = [[2A, -(2i/hbar) J], [(2i/hbar) J, 2B]],   J = [[0, 1], [-1, 0]],
    G = [[2A], [2B]],   h = (a, b).

The twist keeps M invertible in the Fresnel limit, where one factor is a
plain polynomial (A or B = 0).

The polynomial part is the product P(y, z) = F(y) G(z), a polynomial in
four variables, so the integral smooths the outer product of the two
coefficient arrays and takes it at L(x) = W x + w0, W = [[I], [I]] + E.
The substitution splits by operand: rows 0-1 of W and w0 are f's affine
forms l0, l1 and rows 2-3 are g's l2, l3, and smoothing only lowers
exponents, so the smoothed array S keeps f's part within total degree
deg f and g's within deg g.  With Y the table of the powers l0^a l1^b
(a + b <= deg f) as polynomials in x, and Z that of l2^c l3^d,

    R(x) = sum S[ab, cd] (l0^a l1^b)(x) (l2^c l3^d)(x),

whose coefficients are the entries of the small product Y^T S Z, added
up over the exponent sums of their two x-monomials.  numpy's own loop
forms the product, so the result does not depend on the BLAS thread count.

The operands are starred in a common frame S (``moyal.polygauss``), which
the result keeps, since (F o S) * (G o S) = (F * G) o S for a linear map S
of unit determinant.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import StarSingularError
from .polygauss import PolyGauss, QuadForm, _gaussian_integral
from .symbols import _smooth

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
_S = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])


def _star_system(shape1: QuadForm, shape2: QuadForm, hbar: float):
    """The star product's Gaussian integral: its prefactor, the result
    shape, the mean L(x) = W x + w0 of P and the covariance K."""
    A, a, alpha = shape1.A, shape1.l, shape1.k
    B, b, beta = shape2.A, shape2.l, shape2.k
    twist = (2.0j / hbar) * _J
    M = np.block([[2.0 * A, -twist], [twist, 2.0 * B]])
    # on the Fresnel boundary, where Re M is singular, M itself can be
    # singular (two chirps) with eigenvalues that pass the half-plane test
    singular = StarSingularError("nonintegrable star product")
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= 1e-13 * sv[0]:
        raise singular
    r, K, E, w0, GKG, GKh, hKh = _gaussian_integral(
        M, np.vstack([2.0 * A, 2.0 * B]), np.concatenate([a, b]), singular)
    shape = QuadForm(A + B - 0.5 * GKG, a + b - GKh, alpha + beta - 0.5 * hKh)
    return (4.0 / hbar ** 2) * r, shape, _S.T + E, w0, K


@lru_cache(maxsize=256)
def _triangle(n0: int, n1: int, deg: int):
    """Exponent pairs (a, b) with a < n0, b < n1 and a + b <= deg, in C
    order, and their flat positions in an n0 x n1 array (read-only)."""
    a, b = np.nonzero(np.add.outer(np.arange(n0), np.arange(n1)) <= deg)
    out = a, b, a * n1 + b
    for arr in out:
        arr.flags.writeable = False
    return out


@lru_cache(maxsize=256)
def _product_index(deg_f: int, deg_g: int) -> np.ndarray:
    """For x-monomials i of degree <= deg_f and j of degree <= deg_g, the
    flat position of x^(i+j) in a square array of side deg_f + deg_g + 1
    (read-only)."""
    fi, fj, _ = _triangle(deg_f + 1, deg_f + 1, deg_f)
    gi, gj, _ = _triangle(deg_g + 1, deg_g + 1, deg_g)
    idx = np.add.outer(fi, gi) * (deg_f + deg_g + 1) + np.add.outer(fj, gj)
    idx.flags.writeable = False
    return idx


def _times_affine(U: np.ndarray, l, c) -> np.ndarray:
    """(c + l[0] x0 + l[1] x1) times coefficient arrays over the last two
    axes, cut to the same size."""
    out = c * U
    out[..., 1:, :] += l[0] * U[..., :-1, :]
    out[..., :, 1:] += l[1] * U[..., :, :-1]
    return out


def _power_table(L, w0, shape, deg: int) -> np.ndarray:
    """Rows (l0^a l1^b)(x), with l_i(x) = L[i].x + w0[i], for the exponent
    pairs of ``_triangle(*shape, deg)``; columns are the coefficients of
    the x-monomials of total degree <= deg, in ``_triangle`` order."""
    T = np.zeros((deg + 1,) * 4, dtype=complex)   # T[a, b, i, j]
    T[0, 0, 0, 0] = 1.0
    for b in range(1, deg + 1):
        T[0, b] = _times_affine(T[0, b - 1], L[1], w0[1])
    for a in range(1, deg + 1):
        T[a, :deg + 1 - a] = _times_affine(T[a - 1, :deg + 1 - a], L[0], w0[0])
    ra, rb, _ = _triangle(*shape, deg)
    ci, cj, _ = _triangle(deg + 1, deg + 1, deg)
    return T[ra[:, None], rb[:, None], ci, cj]


def _matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B for complex matrices as one real einsum, [Re A, Im A] times
    [[Re B, Im B], [-Im B, Re B]].  numpy's own loop sums in a fixed order;
    a threaded BLAS splits the work by its thread count, and the last bits
    of its result move with it."""
    k, n = B.shape
    BB = np.empty((2 * k, 2 * n))
    BB[:k, :n] = BB[k:, n:] = B.real
    BB[:k, n:] = B.imag
    BB[k:, :n] = -B.imag
    C = np.einsum("ij,jk->ik", np.concatenate([A.real, A.imag], axis=1), BB,
                  optimize=False)
    out = np.empty((A.shape[0], n), dtype=complex)
    out.real, out.imag = C[:, :n], C[:, n:]
    return out


def _drop_residue(R: np.ndarray, shape: QuadForm) -> np.ndarray:
    """R with the entries at or below 1e-14 of the largest weight
    |R_ab| w_u^a w_v^b set to zero, w = sqrt(diag((Re A)^-1)) the widths of
    the result's Gaussian.  The kernel fills every degree up to
    deg f + deg g, and where the product has a lower degree the entries
    above it are cancellation residue of that size.  Without a decaying
    Gaussian (polynomial * polynomial) R is returned as it is."""
    (a, b), (_, d) = shape.A.real.tolist()
    det = a * d - b * b
    if not (a > 0.0 and det > 0.0):
        return R
    weight = np.abs(R) * np.outer((d / det) ** (0.5 * np.arange(R.shape[0])),
                                  (a / det) ** (0.5 * np.arange(R.shape[1])))
    R[weight <= 1e-14 * weight.max()] = 0.0
    return R


def polygauss_star(f: PolyGauss, g: PolyGauss) -> PolyGauss:
    """Exact star product of two polynomial-Gaussians.

    Smoothing plus the power-table contraction described in the module
    docstring, then ``_drop_residue``; the result polynomial degree is at
    most deg(f) + deg(g).
    """
    f._check_compatible(g)
    f, g = f._in_common_frame(g)
    pref, shape, W, w0, K = _star_system(f.shape, g.shape, f.hbar)
    F, G = f.C, g.C
    deg_f, deg_g = max(f.degree, 0), max(g.degree, 0)
    S = _smooth(np.multiply.outer(F, G), K).reshape(F.size, G.size)
    S = S[_triangle(*F.shape, deg_f)[2][:, None], _triangle(*G.shape, deg_g)[2]]
    Y = _power_table(W[:2], w0[:2], F.shape, deg_f)
    Z = _power_table(W[2:], w0[2:], G.shape, deg_g)
    Q = _matmul(_matmul(Y.T, S), Z)
    side = deg_f + deg_g + 1
    R = np.zeros(side * side, dtype=complex)
    np.add.at(R, _product_index(deg_f, deg_g).ravel(), Q.ravel())
    R = _drop_residue(pref * R.reshape(side, side), shape)
    return PolyGauss._new(R, shape, f.hbar, f.frame)

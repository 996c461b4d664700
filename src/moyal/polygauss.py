"""Closed-form phase-space functions: (complex polynomial) x (complex Gaussian).

The polynomial is held as a coefficient array (``moyal.symbols``) and the
exponential part as a quadratic form, with the sign convention

    f(x) = sum_{a,b} C[a, b] u^a v^b * exp(-(w^T A w + l.w + k)),  w = (u, v) = S x,

where x = (q, p), A is a complex symmetric 2x2 matrix, l a complex 2-vector,
k a complex scalar and S a real 2x2 matrix with det S = 1, the frame.  The
frame is part of the value, like the quadratic form; it defaults to the
identity, where (u, v) = (q, p).  A linear map of unit determinant on the plane
is symplectic, so the Moyal product commutes with it,
(F o S) * (G o S) = (F * G) o S, and integrals do not see it: a function
whose natural variables are a squeezed or rotated copy of (q, p) keeps its
short polynomial in those variables instead of a long, cancelling one in
raw monomials.

The class is closed under differentiation, multiplication by polynomials,
star products, full-plane integration and marginals, which is what makes
every model in this package exactly computable.  Integrals, marginals and
star products (``moyal.star``) are each one instance of the Gaussian
integral ``_gaussian_integral``, and all run in the frame.  Between two
different frames, a pure polynomial operand (A = 0, l = 0) takes the
other's frame exactly; any other pair first expands to the identity frame
(``PolyGauss.lab``).

A function is normalizable when Re(A) is positive definite; integration
requires that.  All values are immutable after construction and every
operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonNormalizableError, ParameterMismatchError
from .symbols import (PolynomialSymbol, _coefficient_array, _convolve, _degree,
                      _entries, _falling, _padded_sum, _smooth, _substitute,
                      _values)


@dataclass(frozen=True)
class QuadForm:
    """Complex quadratic form x^T A x + l.x + k on 2D phase space.

    A is stored symmetric (the off-diagonal entries are averaged on input),
    so the quadratic part reads A_qq q^2 + 2 A_qp q p + A_pp p^2.
    """

    A: np.ndarray
    l: np.ndarray = field(default=None)
    k: complex = 0.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        if A.shape != (2, 2):
            raise ValueError("A must be 2x2")
        A = 0.5 * (A + A.T)
        A.flags.writeable = False
        object.__setattr__(self, "A", A)
        l = np.zeros(2, dtype=complex) if self.l is None else np.asarray(self.l, dtype=complex)
        if l.shape != (2,):
            raise ValueError("l must be a 2-vector")
        l = l.copy()
        l.flags.writeable = False
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "k", complex(self.k))

    @classmethod
    def from_coeffs(cls, aqq, aqp, app, lq=0.0, lp=0.0, k=0.0) -> "QuadForm":
        return cls(np.array([[aqq, aqp], [aqp, app]]), np.array([lq, lp]), k)

    @classmethod
    def zero(cls) -> "QuadForm":
        return cls(np.zeros((2, 2)))

    def is_normalizable(self) -> bool:
        """True when Re(A) is positive definite (the Gaussian decays)."""
        ra = self.A.real
        return ra[0, 0] > 0.0 and np.linalg.det(ra) > 0.0

    def exponent(self, q, p):
        """The full exponent -(x^T A x + l.x + k) at the given points."""
        q = np.asarray(q)
        p = np.asarray(p)
        quad = (self.A[0, 0] * q * q + 2.0 * self.A[0, 1] * q * p
                + self.A[1, 1] * p * p)
        return -(quad + self.l[0] * q + self.l[1] * p + self.k)

    def conjugate(self) -> "QuadForm":
        return QuadForm(np.conj(self.A), np.conj(self.l), np.conj(self.k))

    def __add__(self, other: "QuadForm") -> "QuadForm":
        return QuadForm(self.A + other.A, self.l + other.l, self.k + other.k)

    def allclose(self, other: "QuadForm", tol: float = 1e-12) -> bool:
        return (np.allclose(self.A, other.A, rtol=0.0, atol=tol)
                and np.allclose(self.l, other.l, rtol=0.0, atol=tol)
                and abs(self.k - other.k) <= tol)


def _check_frame(frame):
    """The frame as a read-only float array, or None for the identity."""
    if frame is None:
        return None
    S = np.asarray(frame)
    if S.shape != (2, 2) or np.iscomplexobj(S):
        raise ValueError("frame must be a real 2x2 matrix")
    S = S.astype(float)
    # det 1 to 1e-12 on the scale of its two products, which a strong
    # squeeze makes large
    products = S[0, 0] * S[1, 1], S[0, 1] * S[1, 0]
    if not abs(products[0] - products[1] - 1.0) <= 1e-12 * max(
            1.0, abs(products[0]) + abs(products[1])):
        raise ValueError("frame must have determinant 1")
    S.flags.writeable = False
    return S


def _inverse(S: np.ndarray) -> np.ndarray:
    """The inverse of a frame, which has determinant 1."""
    (a, b), (c, d) = S
    return np.array([[d, -b], [-c, a]])


def _same_frame(S1, S2) -> bool:
    return S1 is S2 or (S1 is not None and S2 is not None
                        and np.array_equal(S1, S2))


def _diff_array(C: np.ndarray, shape: QuadForm, t) -> np.ndarray:
    """Coefficients of the derivative of P e^E along the direction t of the
    frame variables w, divided by e^E: t.grad P - P (2 A w + l).t, since
    E = -(w^T A w + l.w + k).  So the class is closed under
    differentiation."""
    (a00, a01), (_, a11) = shape.A.tolist()
    (l0, l1), (t0, t1) = shape.l.tolist(), t
    n0, n1 = C.shape
    out = np.zeros((n0 + 1, n1 + 1), dtype=complex)
    if t0:
        out[:n0 - 1, :n1] = C[1:] * (t0 * _falling(n0, 1, 1))
    if t1:
        out[:n0, :n1 - 1] += C[:, 1:] * (t1 * _falling(n1, 1, 0))
    out[1:, :n1] -= (2.0 * (a00 * t0 + a01 * t1)) * C
    out[:n0, 1:] -= (2.0 * (a01 * t0 + a11 * t1)) * C
    out[:n0, :n1] -= (l0 * t0 + l1 * t1) * C
    return out


class PolyGauss:
    """Polynomial times Gaussian on phase space, in a frame (u, v) = S (q, p).

    ``C`` is the coefficient array of the polynomial in the frame variables
    (u, v), given to the constructor as an array or a dict, and ``terms``
    its nonzero entries as a dict; ``shape`` is the quadratic form in (u, v)
    and ``frame`` is S, a real 2x2 matrix with det 1, or None for the
    identity.  See the module docstring.
    """

    __slots__ = ("C", "shape", "hbar", "frame")

    def __init__(self, terms, shape: QuadForm, hbar: float = 1.0, frame=None):
        if hbar <= 0:
            raise ValueError("hbar must be positive")
        self.C = _coefficient_array(terms, 2)
        self.shape = shape
        self.hbar = float(hbar)
        self.frame = _check_frame(frame)

    @classmethod
    def _new(cls, C, shape: QuadForm, hbar: float, frame) -> "PolyGauss":
        """A value in the frame of an existing one, or in the identity
        frame: that frame was checked when its value was made."""
        f = cls.__new__(cls)
        f.C = _coefficient_array(C, 2)
        f.shape = shape
        f.hbar = hbar
        f.frame = frame
        return f

    @classmethod
    def gaussian(cls, shape: QuadForm, hbar: float = 1.0, coeff=1.0) -> "PolyGauss":
        return cls({(0, 0): coeff}, shape, hbar)

    @classmethod
    def from_symbol(cls, s: PolynomialSymbol, shape: QuadForm, hbar: float = 1.0) -> "PolyGauss":
        return cls(s.C, shape, hbar)

    @property
    def terms(self) -> dict:
        """The nonzero coefficients, keyed by exponent pairs (a, b)."""
        return _entries(self.C)

    @property
    def degree(self) -> int:
        return _degree(self.C)

    def poly(self) -> PolynomialSymbol:
        """The polynomial part, in the frame variables."""
        return PolynomialSymbol(self.C)

    def is_zero(self, tol: float = 0.0) -> bool:
        return np.abs(self.C).max() <= tol

    def lab(self) -> "PolyGauss":
        """The same function in the identity frame.  Squeezed states lose
        the digits of the monomial expansion here."""
        return self._in_frame(None)

    def _in_frame(self, S) -> "PolyGauss":
        """The same function in frame S (None for the identity): with
        M = S_self S^-1, the polynomial becomes P o M, A becomes M^T A M and
        l becomes M^T l."""
        if _same_frame(self.frame, S):
            return self
        M = np.eye(2) if self.frame is None else self.frame
        if S is not None:
            M = M @ _inverse(S)
        shape = QuadForm(M.T @ self.shape.A @ M, M.T @ self.shape.l, self.shape.k)
        return PolyGauss._new(_substitute(self.C, M, np.zeros(2)), shape,
                              self.hbar, S)

    def _in_common_frame(self, other: "PolyGauss"):
        """(self, other) in one frame: their own when the frames agree; the
        other's frame for a pure polynomial (A = 0 and l = 0), which takes
        any frame exactly; else the identity frame."""
        if _same_frame(self.frame, other.frame):
            return self, other
        if not (self.shape.A.any() or self.shape.l.any()):
            S = other.frame
        elif not (other.shape.A.any() or other.shape.l.any()):
            S = self.frame
        else:
            S = None
        return self._in_frame(S), other._in_frame(S)

    # ---- pointwise algebra -------------------------------------------------

    def scale(self, c) -> "PolyGauss":
        return PolyGauss._new(c * self.C, self.shape, self.hbar, self.frame)

    def __add__(self, other: "PolyGauss") -> "PolyGauss":
        self._check_compatible(other)
        f, g = self._in_common_frame(other)
        if f.shape is not g.shape and not f.shape.allclose(g.shape):
            raise ParameterMismatchError(
                "cannot add functions with different Gaussian shapes")
        return PolyGauss._new(_padded_sum(f.C, g.C), f.shape, f.hbar, f.frame)

    def __sub__(self, other: "PolyGauss") -> "PolyGauss":
        return self + other.scale(-1.0)

    def mul_symbol(self, s: PolynomialSymbol) -> "PolyGauss":
        """Pointwise product with a polynomial s(q, p), which takes the
        frame as s o S^-1."""
        return self.pointwise_mul(PolyGauss.from_symbol(s, QuadForm.zero(),
                                                        self.hbar))

    def pointwise_mul(self, other: "PolyGauss") -> "PolyGauss":
        """Plain (non-star) product; shapes add, polynomials convolve."""
        self._check_compatible(other)
        f, g = self._in_common_frame(other)
        return PolyGauss._new(_convolve(f.C, g.C), f.shape + g.shape, f.hbar,
                              f.frame)

    def conjugate(self) -> "PolyGauss":
        return PolyGauss._new(np.conj(self.C), self.shape.conjugate(), self.hbar,
                              self.frame)

    # ---- calculus ----------------------------------------------------------

    def diff(self, var: str) -> "PolyGauss":
        """Exact partial derivative with respect to 'q' or 'p'.

        In a frame the chain rule gives d/dx_j = sum_i S_ij d/dw_i with
        x = (q, p) and w = (u, v); see ``_diff_array``.
        """
        if var not in ("q", "p"):
            raise ValueError("var must be 'q' or 'p'")
        j = 0 if var == "q" else 1
        t = np.eye(2)[j] if self.frame is None else self.frame[:, j]
        return PolyGauss._new(_diff_array(self.C, self.shape, t), self.shape,
                              self.hbar, self.frame)

    # Coefficients are always complex128, so there is no other precision.
    # Kept because perfbench/tracing.py calls it by name.
    def has_extended_precision(self) -> bool:
        return False

    # Nothing in the package calls this; kept because perfbench/tracing.py
    # wraps it by name.
    def as_float(self) -> "PolyGauss":
        """Coefficients as complex128, which they always are."""
        return self

    def evaluate(self, q, p):
        """Pointwise values; finite at every finite point by construction.

        The points are mapped through the frame, (u, v) = S (q, p), and the
        polynomial and Gaussian are summed in the frame variables.
        """
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        if self.frame is not None:
            S = self.frame
            q, p = S[0, 0] * q + S[0, 1] * p, S[1, 0] * q + S[1, 1] * p
        return _values(self.C, q, p) * np.exp(self.shape.exponent(q, p))

    def _check_compatible(self, other: "PolyGauss"):
        if abs(self.hbar - other.hbar) > 1e-15:
            raise ParameterMismatchError(
                f"hbar mismatch: {self.hbar} vs {other.hbar}")

    def __repr__(self):
        framed = "" if self.frame is None else ", framed"
        return (f"PolyGauss(degree={self.degree}, "
                f"nterms={np.count_nonzero(self.C)}, hbar={self.hbar}{framed})")


class PolyGauss1D:
    """One-variable polynomial-Gaussian, the result of a marginal: ``C`` is
    the coefficient array, ``coeffs`` its nonzero entries keyed by power."""

    __slots__ = ("C", "a2", "a1", "a0", "var")

    def __init__(self, coeffs, a2, a1=0.0, a0=0.0, var="q"):
        self.C = _coefficient_array(coeffs, 1)
        self.a2 = complex(a2)
        self.a1 = complex(a1)
        self.a0 = complex(a0)
        self.var = var

    @property
    def coeffs(self) -> dict:
        return _entries(self.C)

    @property
    def degree(self) -> int:
        return _degree(self.C)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        return _values(self.C, x) * np.exp(-(self.a2 * x * x + self.a1 * x + self.a0))

    def integrate(self):
        decay = NonNormalizableError("1D Gaussian part does not decay")
        if self.a2.real <= 0.0:
            raise decay
        r, K, E, e0, _, _, hKh = _gaussian_integral(
            np.array([[2.0 * self.a2]]), np.zeros((1, 0)), np.array([self.a1]),
            decay)
        mean = _substitute(_smooth(self.C, K), E, e0)
        return (np.sqrt(2.0 * np.pi) * r * np.exp(0.5 * hKh - self.a0)
                * complex(mean))

    def __repr__(self):
        return f"PolyGauss1D(var={self.var!r}, degree={self.degree})"


def _gaussian_integral(M, G, h, error):
    """The Gaussian integral under every closed-form operation.

    For a complex symmetric k x k matrix M and a source G x + h affine in
    the m variables x that are kept (G is k x m),

        int P(w) exp(-(w^T M w / 2 + (G x + h).w)) dw
            = (2 pi)^(k/2) r exp((G x + h)^T K (G x + h) / 2) E[P],

    with r = det(M)^(-1/2) and K = M^-1.  Under the normalized Gaussian, w
    has covariance K and mean E x + e0, with E = -K G and e0 = -K h, so the
    mean of a polynomial is E[P] = [exp(d^T K d / 2) P](E x + e0): the heat
    operator ``moyal.symbols._smooth`` with K, then the mean substituted.

    r takes principal square roots of the eigenvalues of M: the branch
    that is continuous from the real positive-definite case, valid while
    the eigenvalues stay in the closed right half-plane, which covers the
    Fresnel limit Re M >= 0.  ``error`` is raised when one leaves it.  A
    singular M is the caller's check.

    Returns r, K, E, e0 and the completed square in its three blocks,
    G^T K G, G^T K h and h^T K h.
    """
    lam = np.linalg.eigvals(M)
    if np.any(lam.real < -1e-12 * np.max(np.abs(lam))):
        raise error
    K = np.linalg.inv(M)
    K = 0.5 * (K + K.T)
    GK = G.T @ K
    return (complex(np.prod(1.0 / np.sqrt(lam))), K, -K @ G, -K @ h,
            GK @ G, GK @ h, h @ K @ h)


def integrate(f: PolyGauss) -> complex:
    """Exact full-plane integral of a normalizable polynomial-Gaussian.

    The Gaussian integral with M = 2A, h = l and no variable kept.  The
    frame does not enter, because det S = 1.
    """
    decay = NonNormalizableError("Re(A) is not positive definite")
    if not f.shape.is_normalizable():
        raise decay
    if not f.C.any():
        return 0.0 + 0.0j
    r, K, E, e0, _, _, hKh = _gaussian_integral(
        2.0 * f.shape.A, np.zeros((2, 0)), f.shape.l, decay)
    mean = _substitute(_smooth(f.C, K), E, e0)
    return complex(2.0 * np.pi * r * np.exp(0.5 * hKh - f.shape.k) * mean)


def marginal(f: PolyGauss, axis: str) -> PolyGauss1D:
    """Integrate out one variable exactly; axis names the variable removed.

    marginal(f, 'p') returns a function of q.  Requires the integrated
    direction to decay (positive real part of the diagonal A entry).  In
    lab variables, with x kept and t removed, t enters the exponent as
    -(A_tt t^2 + (2 A_xt x + l_t) t): a Gaussian integral with M = 2 A_tt,
    G = 2 A_xt and h = l_t.  It runs in the frame, without expanding the
    polynomial: t moves w = S (q, p) along the column s of S, so P(w) is
    smoothed with s K s^T and takes the mean S_x x + s (E x + e0).
    """
    if axis == "p":
        keep, drop = 0, 1
    elif axis == "q":
        keep, drop = 1, 0
    else:
        raise ValueError("axis must be 'q' or 'p'")
    S = np.eye(2) if f.frame is None else f.frame
    A = S.T @ f.shape.A @ S
    l = S.T @ f.shape.l
    decay = NonNormalizableError("integrated axis does not decay")
    if A[drop, drop].real <= 0.0:
        raise decay
    t = [drop]
    r, K, E, e0, GKG, GKh, hKh = _gaussian_integral(
        2.0 * A[t][:, t], 2.0 * A[t][:, [keep]], l[t], decay)
    s = S[:, [drop]]
    C = _substitute(_smooth(f.C, s @ K @ s.T), S[:, [keep]] + s @ E, s @ e0)
    return PolyGauss1D(np.sqrt(2.0 * np.pi) * r * C,
                       A[keep, keep] - 0.5 * GKG[0, 0], l[keep] - GKh[0],
                       f.shape.k - 0.5 * hKh, var="q" if axis == "p" else "p")

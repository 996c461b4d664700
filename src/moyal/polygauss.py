"""Closed-form phase-space functions: (complex polynomial) x (complex Gaussian).

The exponential part is held as a quadratic form with the sign convention

    f(x) = sum_{a,b} c_{ab} u^a v^b * exp(-(w^T A w + l.w + k)),  w = (u, v) = S x,

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
every model in this package exactly computable.  Operations between two
different frames, and marginals, first expand to the identity frame
(``PolyGauss.lab``).

A function is normalizable when Re(A) is positive definite; integration
requires that.  All values are immutable after construction and every
operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonNormalizableError, ParameterMismatchError
from .symbols import PolynomialSymbol, convolve_coeffs, prune_coeffs


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


class PolyGauss:
    """Polynomial times Gaussian on phase space, in a frame (u, v) = S (q, p).

    ``terms`` and ``shape`` are the polynomial and quadratic form in the
    frame variables (u, v); ``frame`` is S, a real 2x2 matrix with det 1,
    or None for the identity.  Only the model constructors set a frame.
    See the module docstring.
    """

    __slots__ = ("terms", "shape", "hbar", "frame")

    def __init__(self, terms, shape: QuadForm, hbar: float = 1.0, frame=None):
        if hbar <= 0:
            raise ValueError("hbar must be positive")
        self.terms = prune_coeffs(dict(terms))
        self.shape = shape
        self.hbar = float(hbar)
        self.frame = _check_frame(frame)

    @classmethod
    def gaussian(cls, shape: QuadForm, hbar: float = 1.0, coeff=1.0) -> "PolyGauss":
        return cls({(0, 0): coeff}, shape, hbar)

    @classmethod
    def from_symbol(cls, s: PolynomialSymbol, shape: QuadForm, hbar: float = 1.0) -> "PolyGauss":
        return cls(dict(s.coeffs), shape, hbar)

    @property
    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(a + b for a, b in self.terms)

    def poly(self) -> PolynomialSymbol:
        """The polynomial part, in the frame variables."""
        return PolynomialSymbol(self.terms)

    def is_zero(self, tol: float = 0.0) -> bool:
        return not self.terms or max(abs(c) for c in self.terms.values()) <= tol

    def lab(self) -> "PolyGauss":
        """The same function in the identity frame: the polynomial becomes
        P o S, A becomes S^T A S and l becomes S^T l.  Squeezed states lose
        the digits of the monomial expansion here."""
        if self.frame is None:
            return self
        S = self.frame
        shape = QuadForm(S.T @ self.shape.A @ S, S.T @ self.shape.l, self.shape.k)
        return PolyGauss(self.poly().linear_map(S).coeffs, shape, self.hbar)

    def _in_common_frame(self, other: "PolyGauss"):
        """(self, other) unchanged when their frames agree, else both
        expanded to the identity frame."""
        S1, S2 = self.frame, other.frame
        if S1 is S2 or (S1 is not None and S2 is not None
                        and np.array_equal(S1, S2)):
            return self, other
        return self.lab(), other.lab()

    # ---- pointwise algebra -------------------------------------------------

    def scale(self, c) -> "PolyGauss":
        return PolyGauss({k: c * v for k, v in self.terms.items()}, self.shape,
                         self.hbar, self.frame)

    def __add__(self, other: "PolyGauss") -> "PolyGauss":
        self._check_compatible(other)
        f, g = self._in_common_frame(other)
        if not f.shape.allclose(g.shape):
            raise ParameterMismatchError(
                "cannot add functions with different Gaussian shapes")
        out = dict(f.terms)
        for k, c in g.terms.items():
            out[k] = out.get(k, 0.0) + c
        return PolyGauss(out, f.shape, f.hbar, f.frame)

    def __sub__(self, other: "PolyGauss") -> "PolyGauss":
        return self + other.scale(-1.0)

    def mul_symbol(self, s: PolynomialSymbol) -> "PolyGauss":
        """Pointwise product with a polynomial s(q, p): in the frame that is
        multiplication by s o S^-1."""
        if self.frame is not None:
            (a, b), (c, d) = self.frame
            s = s.linear_map(np.array([[d, -b], [-c, a]]))
        return PolyGauss(convolve_coeffs(self.terms, s.coeffs), self.shape,
                         self.hbar, self.frame)

    def pointwise_mul(self, other: "PolyGauss") -> "PolyGauss":
        """Plain (non-star) product; shapes add, polynomials convolve."""
        self._check_compatible(other)
        f, g = self._in_common_frame(other)
        return PolyGauss(convolve_coeffs(f.terms, g.terms), f.shape + g.shape,
                         f.hbar, f.frame)

    def conjugate(self) -> "PolyGauss":
        return PolyGauss({k: np.conj(c) for k, c in self.terms.items()},
                         self.shape.conjugate(), self.hbar, self.frame)

    # ---- calculus ----------------------------------------------------------

    def diff(self, var: str) -> "PolyGauss":
        """Exact partial derivative with respect to 'q' or 'p'.

        d/du [P e^E] = (dP/du + P dE/du) e^E with dE/du linear, so the class
        is closed under differentiation; in a frame the chain rule gives
        d/dx_j = sum_i S_ij d/dw_i with x = (q, p) and w = (u, v).
        """
        if var not in ("q", "p"):
            raise ValueError("var must be 'q' or 'p'")
        j = 0 if var == "q" else 1
        if self.frame is None:
            return PolyGauss(self._diff_terms(j), self.shape, self.hbar)
        out = {}
        for i in range(2):
            for key, c in self._diff_terms(i).items():
                out[key] = out.get(key, 0.0) + self.frame[i, j] * c
        return PolyGauss(out, self.shape, self.hbar, self.frame)

    def _diff_terms(self, idx: int) -> dict:
        """Unpruned terms of the derivative along frame variable idx."""
        row = self.shape.A[idx]
        out = {}
        for (a, b), c in self.terms.items():
            # polynomial part
            if idx == 0 and a > 0:
                out[(a - 1, b)] = out.get((a - 1, b), 0.0) + a * c
            if idx == 1 and b > 0:
                out[(a, b - 1)] = out.get((a, b - 1), 0.0) + b * c
            # exponent part: dE/dw_i = -(2 A w + l)_i
            out[(a + 1, b)] = out.get((a + 1, b), 0.0) - 2.0 * row[0] * c
            out[(a, b + 1)] = out.get((a, b + 1), 0.0) - 2.0 * row[1] * c
            key = (a, b)
            out[key] = out.get(key, 0.0) - self.shape.l[idx] * c
        return out

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
        poly = np.zeros(np.broadcast(q, p).shape, dtype=complex)
        for (a, b), c in self.terms.items():
            poly = poly + c * q ** a * p ** b
        return poly * np.exp(self.shape.exponent(q, p))

    def _check_compatible(self, other: "PolyGauss"):
        if abs(self.hbar - other.hbar) > 1e-15:
            raise ParameterMismatchError(
                f"hbar mismatch: {self.hbar} vs {other.hbar}")

    def __repr__(self):
        framed = "" if self.frame is None else ", framed"
        return (f"PolyGauss(degree={self.degree}, nterms={len(self.terms)}, "
                f"hbar={self.hbar}{framed})")


class PolyGauss1D:
    """One-variable polynomial-Gaussian, the result of a marginal."""

    __slots__ = ("coeffs", "a2", "a1", "a0", "var")

    def __init__(self, coeffs, a2, a1=0.0, a0=0.0, var="q"):
        self.coeffs = {int(a): complex(c) for a, c in dict(coeffs).items()
                       if c != 0.0}
        self.a2 = complex(a2)
        self.a1 = complex(a1)
        self.a0 = complex(a0)
        self.var = var

    @property
    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        poly = np.zeros(x.shape, dtype=complex)
        for a, c in self.coeffs.items():
            poly = poly + c * x ** a
        return poly * np.exp(-(self.a2 * x * x + self.a1 * x + self.a0))

    def integrate(self):
        if self.a2.real <= 0.0:
            raise NonNormalizableError("1D Gaussian part does not decay")
        base = np.sqrt(np.pi / self.a2) * np.exp(
            self.a1 * self.a1 / (4.0 * self.a2) - self.a0)
        moments = _hermite_scalar_1d(max(self.coeffs, default=0),
                                     -self.a1 / (2.0 * self.a2),
                                     1.0 / (2.0 * self.a2))
        return base * sum(c * moments[a] for a, c in self.coeffs.items())

    def __repr__(self):
        return f"PolyGauss1D(var={self.var!r}, degree={self.degree})"


def _hermite_scalar_1d(nmax: int, L: complex, K: complex):
    """H_n = d^n/dJ^n exp(L J + K J^2 / 2) at J=0, via the usual recursion."""
    H = [1.0 + 0.0j, L]
    for n in range(1, nmax + 1):
        H.append(L * H[n] + n * K * H[n - 1])
    return H[: nmax + 1]


def _sqrt_det_principal(M: np.ndarray) -> complex:
    """sqrt(det M) through principal square roots of the eigenvalues.

    Valid branch for complex symmetric M with Re(M) >= 0 (the Fresnel limit
    included): eigenvalues stay in the closed right half-plane, so the
    principal roots vary continuously from the real positive-definite case.
    """
    lam = np.linalg.eigvals(M)
    scale = max(abs(lam))
    if scale == 0.0 or np.any(lam.real < -1e-12 * scale):
        raise NonNormalizableError("Gaussian part does not decay")
    return complex(np.prod(np.sqrt(lam)))


def integrate(f: PolyGauss) -> complex:
    """Exact full-plane integral of a normalizable polynomial-Gaussian.

    The Gaussian base integral is pi/sqrt(det A) times the completed-square
    exponential; polynomial prefactors are generated by differentiating a
    source term, which yields a two-variable Hermite recursion with constant
    first-order data.  The frame does not enter, because det S = 1.
    """
    if not f.shape.is_normalizable():
        raise NonNormalizableError("Re(A) is not positive definite")
    if not f.terms:
        return 0.0 + 0.0j
    A, l, k = f.shape.A, f.shape.l, f.shape.k
    Ainv = np.linalg.inv(A)
    base = np.pi / _sqrt_det_principal(A) * np.exp(0.25 * l @ Ainv @ l - k)
    # moments of q^a p^b under the shifted Gaussian:
    # d^a/dJq d^b/dJp exp((l-J)^T Ainv (l-J)/4) at J=0
    L = -0.5 * Ainv @ l
    K = 0.5 * Ainv
    amax = max(a for a, _ in f.terms)
    bmax = max(b for _, b in f.terms)
    H = np.zeros((amax + 1, bmax + 1), dtype=complex)
    H[0, 0] = 1.0
    for b in range(1, bmax + 1):
        H[0, b] = L[1] * H[0, b - 1]
        if b >= 2:
            H[0, b] += (b - 1) * K[1, 1] * H[0, b - 2]
    for a in range(1, amax + 1):
        for b in range(bmax + 1):
            val = L[0] * H[a - 1, b]
            if a >= 2:
                val += (a - 1) * K[0, 0] * H[a - 2, b]
            if b >= 1:
                val += b * K[0, 1] * H[a - 1, b - 1]
            H[a, b] = val
    return complex(base * sum(c * H[a, b] for (a, b), c in f.terms.items()))


def marginal(f: PolyGauss, axis: str) -> PolyGauss1D:
    """Integrate out one variable exactly; axis names the variable removed.

    marginal(f, 'p') returns a function of q.  Requires the integrated
    direction to decay (positive real part of the diagonal A entry).  A
    function in a frame is expanded to the identity frame first.
    """
    if axis == "p":
        keep, drop = 0, 1
    elif axis == "q":
        keep, drop = 1, 0
    else:
        raise ValueError("axis must be 'q' or 'p'")
    f = f.lab()
    A, l, k = f.shape.A, f.shape.l, f.shape.k
    alpha = A[drop, drop]
    if alpha.real <= 0.0:
        raise NonNormalizableError("integrated axis does not decay")
    cross = 2.0 * A[keep, drop]      # coefficient of x_keep in beta(x)
    beta0 = l[drop]
    # int x_drop^b exp(-alpha t^2 - (beta - J) t) dt
    #   = sqrt(pi/alpha) exp((beta - J)^2 / (4 alpha)),   beta = cross*x + beta0
    # Derivatives in J give a 1-variable Hermite recursion whose first-order
    # data L(x) = -(cross*x + beta0)/(2 alpha) is affine in the kept variable.
    bmax = max((idx[drop] for idx in f.terms), default=0)
    Kc = 0.5 / alpha
    # H_b as polynomials in x (coefficient arrays, ascending powers)
    H: list[np.ndarray] = [np.array([1.0 + 0.0j])]
    Lpoly = np.array([-beta0 / (2.0 * alpha), -cross / (2.0 * alpha)])
    for b in range(1, bmax + 1):
        prev = H[b - 1]
        cur = np.zeros(len(prev) + 1, dtype=complex)
        cur[: len(prev)] += Lpoly[0] * prev
        cur[1: len(prev) + 1] += Lpoly[1] * prev
        if b >= 2:
            cur[: len(H[b - 2])] += (b - 1) * Kc * H[b - 2]
        H.append(cur)
    coeffs: dict[int, complex] = {}
    for idx, c in f.terms.items():
        a = idx[keep]
        hb = H[idx[drop]]
        for j, hc in enumerate(hb):
            coeffs[a + j] = coeffs.get(a + j, 0.0) + c * hc
    pref = np.sqrt(np.pi / alpha)
    coeffs = {a: pref * c for a, c in coeffs.items()}
    # remaining exponent: -(A_kk x^2 + l_k x + k) + (cross*x + beta0)^2/(4 alpha)
    a2 = A[keep, keep] - cross * cross / (4.0 * alpha)
    a1 = l[keep] - 2.0 * cross * beta0 / (4.0 * alpha)
    a0 = k - beta0 * beta0 / (4.0 * alpha)
    return PolyGauss1D(coeffs, a2, a1, a0, var="q" if axis == "p" else "p")

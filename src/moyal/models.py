"""Quasi-amplitudes, Wigner functions and spectra for the physical models.

Three systems are covered:

* the harmonic oscillator (also the per-sector building block below),
* a two-electron atom with Hooke-type attraction and a harmonic
  electron-electron coupling of strength xi, which separates in
  center-of-mass / relative coordinates (u, v) into two oscillators with
  frequencies omega_u = omega and omega_v = omega * sqrt(1 - xi),
* a damped oscillator H = (p^2 + q^2)/2 - lam * q p with |lam| < 1 and
  hbar = 1, whose stationary states reduce to Laguerre polynomials of
  y = 2 sqrt(2/a) z, z = (p^2 + q^2)/2 - lam q p, a = (1 - lam^2)/2,
  with spectrum E_n = sqrt(1 - lam^2) (n + 1/2).

Ground-state Gaussian widths are not free parameters: they are the unique
solution of the annihilation condition a*phi_0 = 0, namely
exp(-(m w / hbar) q^2 - p^2 / (m w hbar)), and tests verify that directly.

Normalization conventions: quasi-amplitudes psi satisfy
int psi * psi^dagger = 1 (equivalently int |psi|^2 = 1 by the trace
property); Wigner functions satisfy int W = 1 with sign fixed by parity,
W_n(0, 0) = (-1)^n / (pi hbar).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bopp import apply, bopp_from_symbol
from .polygauss import PolyGauss, QuadForm, integrate
from .star import polygauss_star
from .symbols import PolynomialSymbol

# ---------------------------------------------------------------------------
# special functions (three-term recurrences; no external dependency)
# ---------------------------------------------------------------------------


def laguerre(n: int, y):
    """Laguerre polynomial L_n(y) by the stable three-term recurrence."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    y = np.asarray(y, dtype=float)
    prev = np.ones_like(y)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 - y
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - y) * cur - k * prev) / (k + 1)
    return cur if cur.ndim else float(cur)


def laguerre_pair(n: int, y):
    """(L_n(y), L_{n-1}(y)); the pair gives the derivative via
    y L_n'(y) = n (L_n(y) - L_{n-1}(y))."""
    y = np.asarray(y, dtype=float)
    prev = np.ones_like(y)
    cur = 1.0 - y
    if n == 0:
        return prev, np.zeros_like(y)
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - y) * cur - k * prev) / (k + 1)
    return cur, prev


def hermite_function(n: int, x, m: float = 1.0, omega: float = 1.0,
                     hbar: float = 1.0):
    """Normalized oscillator eigenfunction phi_n(x) (orthonormal in L2)."""
    x = np.asarray(x, dtype=float)
    u = x * np.sqrt(m * omega / hbar)
    h0 = (m * omega / (np.pi * hbar)) ** 0.25 * np.exp(-0.5 * u * u)
    if n == 0:
        return h0
    h1 = np.sqrt(2.0) * u * h0
    for k in range(2, n + 1):
        h0, h1 = h1, np.sqrt(2.0 / k) * u * h1 - np.sqrt((k - 1) / k) * h0
    return h1


def _laguerre_monomial_coeffs(n: int) -> list:
    """Coefficients of L_n in powers of y (float; fine for moderate n)."""
    coeffs = [1.0]
    for k in range(n):
        coeffs.append(coeffs[-1] * (-(n - k)) / ((k + 1) ** 2))
    return coeffs


def _laguerre_of_form(n: int, ysym: PolynomialSymbol) -> PolynomialSymbol:
    """L_n(ysym) expanded in monomials, Horner style."""
    coeffs = _laguerre_monomial_coeffs(n)
    acc = PolynomialSymbol.constant(coeffs[n])
    for k in range(n - 1, -1, -1):
        acc = acc * ysym + PolynomialSymbol.constant(coeffs[k])
    return acc


# ---------------------------------------------------------------------------
# harmonic oscillator sector
# ---------------------------------------------------------------------------


def oscillator_hamiltonian(m: float = 1.0, omega: float = 1.0) -> PolynomialSymbol:
    """Classical symbol p^2/(2m) + m w^2 q^2 / 2."""
    return PolynomialSymbol({(0, 2): 1.0 / (2.0 * m), (2, 0): 0.5 * m * omega ** 2})


def annihilation_symbol(m: float = 1.0, omega: float = 1.0,
                        hbar: float = 1.0) -> PolynomialSymbol:
    """a = sqrt(m w / 2 hbar) (q + i p / (m w))."""
    c = np.sqrt(m * omega / (2.0 * hbar))
    return PolynomialSymbol({(1, 0): c, (0, 1): 1j * c / (m * omega)})


def creation_symbol(m: float = 1.0, omega: float = 1.0,
                    hbar: float = 1.0) -> PolynomialSymbol:
    return annihilation_symbol(m, omega, hbar).conjugate()


def oscillator_ground(m: float = 1.0, omega: float = 1.0,
                      hbar: float = 1.0) -> PolyGauss:
    """Ground quasi-amplitude, the solution of a * phi_0 = 0.

    Splitting the condition into real and imaginary first-order equations
    forces exp(-(m w/hbar) q^2 - p^2/(m w hbar)); the prefactor makes
    int |phi_0|^2 = 1.
    """
    alpha = m * omega / hbar
    beta = 1.0 / (m * omega * hbar)
    norm = np.sqrt(2.0 / (np.pi * hbar))
    return PolyGauss({(0, 0): norm}, QuadForm.from_coeffs(alpha, 0.0, beta), hbar)


def oscillator_state(n: int, m: float = 1.0, omega: float = 1.0,
                     hbar: float = 1.0) -> PolyGauss:
    """n-th quasi-amplitude via the creation ladder, renormalized."""
    state = oscillator_ground(m, omega, hbar)
    if n == 0:
        return state
    return _raise_sector(state, n, m, omega, hbar)


def _raise_sector(factor: PolyGauss, k: int, m, omega, hbar) -> PolyGauss:
    """k creation steps on a quasi-amplitude, then renormalization."""
    op = bopp_from_symbol(creation_symbol(m, omega, hbar), "left", hbar)
    for _ in range(k):
        factor = apply(op, factor)
    norm2 = integrate(factor.pointwise_mul(factor.conjugate())).real
    return factor.scale(1.0 / np.sqrt(norm2))


def harmonic_wigner(n: int, m: float = 1.0, omega: float = 1.0,
                    hbar: float = 1.0) -> PolyGauss:
    """Stationary Wigner function of the n-th oscillator state.

    W_n = ((-1)^n / (pi hbar)) exp(-y/2) L_n(y) with
    y = (2 m w / hbar) q^2 + (2 / (m w hbar)) p^2; int W_n = 1.
    """
    cq = 2.0 * m * omega / hbar
    cp = 2.0 / (m * omega * hbar)
    ysym = PolynomialSymbol({(2, 0): cq, (0, 2): cp})
    poly = _laguerre_of_form(n, ysym) * ((-1.0) ** n / (np.pi * hbar))
    shape = QuadForm.from_coeffs(0.5 * cq, 0.0, 0.5 * cp)
    return PolyGauss.from_symbol(poly, shape, hbar)


def harmonic_wigner_values(n: int, q, p, m: float = 1.0, omega: float = 1.0,
                           hbar: float = 1.0):
    """harmonic_wigner sampled via the Laguerre recurrence (stable at any n)."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    y = (2.0 * m * omega / hbar) * q * q + (2.0 / (m * omega * hbar)) * p * p
    return ((-1.0) ** n / (np.pi * hbar)) * np.exp(-0.5 * y) * laguerre(n, y)


# ---------------------------------------------------------------------------
# Hooke-coupled two-electron atom (separated u / v sectors)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeliumParams:
    m: float = 1.0
    omega: float = 1.0
    xi: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.m <= 0 or self.omega <= 0 or self.hbar <= 0:
            raise ValueError("m, omega and hbar must be positive")
        if not 0.0 <= self.xi < 1.0:
            raise ValueError("xi must satisfy 0 <= xi < 1")

    @property
    def omega_u(self) -> float:
        return self.omega

    @property
    def omega_v(self) -> float:
        return self.omega * np.sqrt(1.0 - self.xi)


@dataclass(frozen=True)
class HeliumState:
    """Separable two-sector state psi = phi(u, p_u) chi(v, p_v)."""

    nu: int
    nv: int
    u_factor: PolyGauss
    v_factor: PolyGauss
    params: HeliumParams


def helium_ground(params: HeliumParams) -> HeliumState:
    """Ground state: each sector solves its own annihilation condition."""
    return HeliumState(
        0, 0,
        oscillator_ground(params.m, params.omega_u, params.hbar),
        oscillator_ground(params.m, params.omega_v, params.hbar),
        params)


def helium_excite(state: HeliumState, k: int = 1, sector: str = "both") -> HeliumState:
    """Apply creation operators k times per requested sector and renormalize.

    sector='both' is the diagonal ladder (nu, nv) -> (nu+k, nv+k); 'u' or
    'v' raise a single sector, supporting independent quantum numbers.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if sector not in ("both", "u", "v"):
        raise ValueError("sector must be 'both', 'u' or 'v'")
    p = state.params
    u_factor, v_factor = state.u_factor, state.v_factor
    nu, nv = state.nu, state.nv
    if k > 0 and sector in ("both", "u"):
        u_factor = _raise_sector(u_factor, k, p.m, p.omega_u, p.hbar)
        nu += k
    if k > 0 and sector in ("both", "v"):
        v_factor = _raise_sector(v_factor, k, p.m, p.omega_v, p.hbar)
        nv += k
    return HeliumState(nu, nv, u_factor, v_factor, p)


def helium_energy(nu: int, nv: int, params: HeliumParams) -> float:
    """Exact spectrum hbar w_u (nu + 1/2) + hbar w_v (nv + 1/2)."""
    return params.hbar * (params.omega_u * (nu + 0.5)
                          + params.omega_v * (nv + 0.5))


def helium_energy_first_order(nu: int, nv: int, params: HeliumParams) -> float:
    """First order in xi; the ground value is hbar w (1 - xi/4)."""
    return params.hbar * params.omega * (
        (nu + 0.5) + (1.0 - 0.5 * params.xi) * (nv + 0.5))


def helium_hamiltonians(params: HeliumParams):
    """Per-sector classical symbols (H_u, H_v)."""
    return (oscillator_hamiltonian(params.m, params.omega_u),
            oscillator_hamiltonian(params.m, params.omega_v))


def helium_wigner(state: HeliumState):
    """Per-sector Wigner functions (W_u, W_v); the 4D function is their
    product and each sector integrates to 1."""
    wu = polygauss_star(state.u_factor, state.u_factor.conjugate())
    wv = polygauss_star(state.v_factor, state.v_factor.conjugate())
    return wu, wv


# ---------------------------------------------------------------------------
# damped oscillator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DampedParams:
    lam: float
    n: int = 0
    hbar: float = 1.0

    def __post_init__(self):
        if not abs(self.lam) < 1.0:
            raise ValueError("|lam| must be < 1")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.hbar != 1.0:
            raise ValueError("the damped model is formulated at hbar = 1")

    @property
    def a(self) -> float:
        return 0.5 * (1.0 - self.lam ** 2)


def z_coordinate(q, p, lam: float):
    """z = (p^2 + q^2)/2 - lam q p; positive definite for |lam| < 1."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    out = 0.5 * (p * p + q * q) - lam * q * p
    return out if out.ndim else float(out)


def damped_hamiltonian(lam: float) -> PolynomialSymbol:
    """Classical symbol (p^2 + q^2)/2 - lam q p (Weyl symbol of the
    symmetrized damping term)."""
    if not abs(lam) < 1.0:
        raise ValueError("|lam| must be < 1")
    return PolynomialSymbol({(2, 0): 0.5, (0, 2): 0.5, (1, 1): -lam})


def damped_energy(dp: DampedParams) -> float:
    """E_n = sqrt(1 - lam^2) (n + 1/2)."""
    return np.sqrt(1.0 - dp.lam ** 2) * (dp.n + 0.5)


def _damped_polygauss(dp: DampedParams, front: float) -> PolyGauss:
    """front * exp(-y/2) L_n(y) as a PolyGauss, in the squeeze frame.

    In the frame (u, v) = S (q, p) with S = (1/2) [[a + 1/a, a - 1/a],
    [a - 1/a, a + 1/a]], a = ((1 - lam) / (1 + lam))^(1/4), y equals
    2 (u^2 + v^2), so the state is the harmonic one, front L_n(2 (u^2 + v^2))
    exp(-(u^2 + v^2)), seen through a symmetric squeeze along the 45-degree
    axes (det S = 1).  Squeezing thus costs no digits.  At lam = 0 the
    frame is the identity and is left out.
    """
    ysym = PolynomialSymbol({(2, 0): 2.0, (0, 2): 2.0})
    poly = _laguerre_of_form(dp.n, ysym) * front
    shape = QuadForm.from_coeffs(1.0, 0.0, 1.0)
    frame = None
    if dp.lam != 0.0:
        a = ((1.0 - dp.lam) / (1.0 + dp.lam)) ** 0.25
        frame = 0.5 * np.array([[a + 1.0 / a, a - 1.0 / a],
                                [a - 1.0 / a, a + 1.0 / a]])
    return PolyGauss(poly.coeffs, shape, dp.hbar, frame)


def damped_quasiamplitude(dp: DampedParams) -> PolyGauss:
    """psi_n = N exp(-y/2) L_n(y), the decaying solution branch.

    N = sqrt(2/pi) makes int psi * psi^dagger = 1 for every lam: the
    diagonalizing change of variables has a lam-independent Jacobian.
    """
    return _damped_polygauss(dp, np.sqrt(2.0 / np.pi))


def damped_wigner(dp: DampedParams) -> PolyGauss:
    """W_n = ((-1)^n / pi) exp(-y/2) L_n(y); int W_n = 1 exactly and
    W_n(0,0) = (-1)^n / pi."""
    return _damped_polygauss(dp, (-1.0) ** dp.n / np.pi)


def damped_wigner_values(dp: DampedParams, q, p):
    """W_n sampled by the stable route: Laguerre recurrence on y(q, p).

    Equivalent to damped_wigner(dp).evaluate(q, p) but free of monomial
    cancellation at any squeezing; preferred for dense grid sampling.
    """
    y = 2.0 * (2.0 / np.sqrt(1.0 - dp.lam ** 2)) * z_coordinate(q, p, dp.lam)
    return ((-1.0) ** dp.n / np.pi) * np.exp(-0.5 * y) * laguerre(dp.n, y)

"""Numerical star-product engine on uniform phase-space grids.

This module is the independent oracle for the closed-form algebra: the star
product is evaluated as a discrete twisted convolution in Fourier space,

    (f*g)^(kappa) = (2 pi)^-2 int fhat(xi) ghat(kappa - xi)
                    exp(-i hbar sigma(xi, kappa) / 2) dxi,

with sigma(xi, kappa) = xi_q kappa_p - xi_p kappa_q, followed by an inverse
transform.  The direct baseline is the quadratic-cost sum over Fourier mode
pairs, grouped by row offset into GEMMs; an FFT-accelerated path, the
default, computes the same sum via circular convolutions and is gated on
agreement with the baseline.  The FFT path skips the Fourier rows of either
operand whose modulus stays at or below FFT_ROW_FLOOR times its transform's
peak, i.e. on the forward transform's rounding floor; star_numeric states
the error bound.
The Moyal bracket of two real fields takes one twisted sum, since then
B*A = conj(A*B) up to the grid's aliasing error; complex fields take two.

Also provides the Wigner transform of a 1D wavefunction,

    W(q, p) = (2 pi hbar)^-1 int dz exp(i p z / hbar)
              phi*(q + z/2) phi(q - z/2),

by fixed-order Gauss-Legendre quadrature over a declared support.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, ParameterMismatchError
from .polygauss import PolyGauss

BOUNDARY_DECAY = 1e-10
# Fourier rows whose peak modulus is at or below this fraction of the
# transform's peak are left out of the FFT star sum: about 8 unit roundoffs,
# the forward fft2's own per-coefficient rounding (u log2 n) at n = 128-256.
FFT_ROW_FLOOR = 1e-15


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular sampling of a phase-space box (endpoints included)."""

    qmin: float
    qmax: float
    pmin: float
    pmax: float
    nq: int
    np: int

    def __post_init__(self):
        if not (self.qmax > self.qmin and self.pmax > self.pmin):
            raise ValueError("box must have positive extent")
        if self.nq < 8 or self.np < 8:
            raise ValueError("grids need at least 8 points per axis")

    @property
    def dq(self) -> float:
        return (self.qmax - self.qmin) / (self.nq - 1)

    @property
    def dp(self) -> float:
        return (self.pmax - self.pmin) / (self.np - 1)

    @property
    def qs(self) -> np.ndarray:
        return np.linspace(self.qmin, self.qmax, self.nq)

    @property
    def ps(self) -> np.ndarray:
        return np.linspace(self.pmin, self.pmax, self.np)

    def meshgrid(self):
        return np.meshgrid(self.qs, self.ps, indexing="ij")


@dataclass(frozen=True)
class GridField:
    """Complex samples on a GridSpec; values[i, j] = f(q_i, p_j)."""

    spec: GridSpec
    values: np.ndarray
    hbar: float = 1.0
    warnings: tuple = field(default_factory=tuple)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.spec.nq, self.spec.np):
            raise ValueError(f"values must have shape {(self.spec.nq, self.spec.np)}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite entries")
        if np.may_share_memory(v, self.values):
            v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "hbar", float(self.hbar))
        object.__setattr__(self, "warnings", tuple(self.warnings))


def sample(f, spec: GridSpec, hbar: float = 1.0) -> GridField:
    """Evaluate a PolyGauss or a callable f(Q, P) at the grid nodes."""
    Q, P = spec.meshgrid()
    if isinstance(f, PolyGauss):
        return GridField(spec, f.evaluate(Q, P), f.hbar)
    return GridField(spec, np.asarray(f(Q, P), dtype=complex), hbar)


_erfc = np.frompyfunc(math.erfc, 1, 1)


def tapered_sample(func, spec: GridSpec, flat_radius: float,
                   width: float = None, hbar: float = 1.0) -> GridField:
    """Sample func times an analytic radial rolloff.

    Polynomially growing symbols (q, p, Hamiltonians) violate the
    boundary-decay precondition of star_numeric and their periodization
    ruins pointwise accuracy.  Multiplying by the erfc step

        w(r) = erfc((r - Rc) / width) / 2,   Rc = flat_radius + 4.5 width

    leaves the field unchanged to ~1e-10 for r <= flat_radius, takes it
    below ~1e-10 for r >= Rc + 4.5 width, and, being analytic, adds no
    spectral ringing.  Star products against states supported well inside
    flat_radius agree with the untapered symbol's to the same accuracy.
    """
    if width is None:
        extent = min(abs(spec.qmin), spec.qmax, abs(spec.pmin), spec.pmax)
        width = (extent - flat_radius) / 9.0
    if width <= 0:
        raise ValueError("taper width must be positive")
    center = flat_radius + 4.5 * width
    Q, P = spec.meshgrid()
    window = 0.5 * _erfc((np.sqrt(Q * Q + P * P) - center) / width).astype(float)
    return GridField(spec, np.asarray(func(Q, P), dtype=complex) * window, hbar)


def _boundary_ok(values: np.ndarray) -> bool:
    peak = np.abs(values).max()
    if peak == 0.0:
        return True
    edge = max(np.abs(values[0, :]).max(), np.abs(values[-1, :]).max(),
               np.abs(values[:, 0]).max(), np.abs(values[:, -1]).max())
    return edge <= BOUNDARY_DECAY * peak


def _forward(field: GridField):
    """Continuum Fourier transform samples: fhat(xi) with offset phases."""
    spec = field.spec
    xiq = 2.0 * np.pi * np.fft.fftfreq(spec.nq, d=spec.dq)
    xip = 2.0 * np.pi * np.fft.fftfreq(spec.np, d=spec.dp)
    off = np.exp(-1j * (np.add.outer(xiq * spec.qmin, xip * spec.pmin)))
    fhat = spec.dq * spec.dp * np.fft.fft2(field.values) * off
    return fhat, xiq, xip


def _checked_decay(A: GridField, B: GridField, method: str) -> tuple:
    """Validate a product of A and B; return whether each decays at the boundary."""
    if A.spec != B.spec:
        raise GridMismatchError("star_numeric requires identical grid specs")
    if abs(A.hbar - B.hbar) > 1e-15:
        raise ParameterMismatchError("hbar mismatch between fields")
    if method not in ("direct", "fft"):
        raise ValueError("method must be 'direct' or 'fft'")
    return _boundary_ok(A.values), _boundary_ok(B.values)


def _decay_warnings(left_ok: bool, right_ok: bool) -> list:
    warnings = []
    if not left_ok:
        warnings.append("left operand does not decay at the box boundary")
    if not right_ok:
        warnings.append("right operand does not decay at the box boundary")
    return warnings


def _twist(xiq: np.ndarray, xip: np.ndarray, hbar: float):
    """exp(-i h sigma(xi, kappa)/2) = P1[a, d] * P2[b, c]."""
    P1 = np.exp(-0.5j * hbar * np.outer(xiq, xip))   # (a, d)
    P2 = np.exp(+0.5j * hbar * np.outer(xip, xiq))   # (b, c)
    return P1, P2


def _live_rows(Fh: np.ndarray) -> np.ndarray:
    """Rows of a transform that rise above FFT_ROW_FLOOR times its peak."""
    mag = np.abs(Fh)
    return mag.max(axis=1) > FFT_ROW_FLOOR * mag.max()


def _twisted_sum(Fh, Gh, P1, P2, method: str) -> np.ndarray:
    """S[c, d] = sum_{a, b} P1[a, d] Fh[a, b] P2[b, c] Gh[c - a, d - b]."""
    nq, npts = Fh.shape
    S = np.zeros((nq, npts), dtype=complex)
    if method == "direct":
        # one GEMM per row offset a' = c - a, summed over a' in order:
        # S[c, d] += P1[a, d] sum_b Fh[a, b] P2[b, c] Gh[a', d - b]
        d_idx = (np.arange(npts) - np.arange(npts)[:, None]) % npts   # (b, d)
        for ap in range(nq):
            rows = (np.arange(nq) - ap) % nq                  # a, for each c
            S += P1[rows] * ((Fh[rows] * P2.T) @ Gh[ap][d_idx])
        return S
    # only pairs (a, c - a) whose rows both clear the floor are summed
    f_rows = np.flatnonzero(_live_rows(Fh))
    g_live = _live_rows(Gh)
    GhF = np.fft.fft(Gh, axis=1)
    for c in range(nq):
        a = f_rows[g_live[(c - f_rows) % nq]]
        if a.size == 0:
            continue
        # the b-sum for every kept a as one circular convolution along d
        X = Fh[a]
        X *= P2[:, c]
        T = np.fft.ifft(np.fft.fft(X, axis=1) * GhF[(c - a) % nq], axis=1)
        T *= P1[a]
        S[c] = T.sum(0)
    return S


def _inverse(S: np.ndarray, spec: GridSpec, xiq, xip) -> np.ndarray:
    off = np.exp(1j * (np.add.outer(xiq * spec.qmin, xip * spec.pmin)))
    n_total = spec.nq * spec.np
    return np.fft.ifft2(S * off) / (n_total * spec.dq ** 2 * spec.dp ** 2)


def star_numeric(A: GridField, B: GridField, method: str = "fft") -> GridField:
    """Discrete twisted-convolution star product of two fields.

    method='direct' is the quadratic-cost sum over Fourier-mode pairs,
    grouped by row offset a' = c - a into one matrix product per offset
    (deterministic summation order), the reference the FFT path is checked
    against.  method='fft', the default, evaluates the same sum
    through circular convolutions along d, one batch of rows a per output
    row c, and skips every pair (a, c - a) in which row a of Fh or row
    c - a of Gh stays at or below FFT_ROW_FLOOR times that transform's peak
    modulus.  The skipped terms add at most

        FFT_ROW_FLOOR * (max|Fh| ||Gh||_1 + max|Gh| ||Fh||_1)

    to each S[c, d] (||.||_1 summing moduli over all modes); output rows
    with no surviving pair are exactly 0.  When no row is skipped the FFT
    path does the unpruned arithmetic in the unpruned order.
    """
    warnings = _decay_warnings(*_checked_decay(A, B, method))
    spec = A.spec
    Fh, xiq, xip = _forward(A)
    Gh, _, _ = _forward(B)
    P1, P2 = _twist(xiq, xip, A.hbar)
    S = _twisted_sum(Fh, Gh, P1, P2, method)
    return GridField(spec, _inverse(S, spec, xiq, xip), A.hbar, tuple(warnings))


def moyal_bracket_numeric(A: GridField, B: GridField, method: str = "fft") -> GridField:
    """A*B - B*A on the grid, with the warnings of A*B followed by B*A's.

    At real hbar the star product obeys conj(f*g) = conj(g)*conj(f), so
    for two real fields B*A = conj(A*B): one twisted sum gives the bracket
    as ab - conj(ab), which is exactly imaginary.  On the grid the identity
    holds up to the aliasing error of the discrete sum, which is at rounding
    level (~1e-13 of max|A*B| or below) on resolved grids.
    Complex operands get both sums; identical operands give exactly 0.
    """
    a_ok, b_ok = _checked_decay(A, B, method)
    warnings = tuple(dict.fromkeys(_decay_warnings(a_ok, b_ok)
                                   + _decay_warnings(b_ok, a_ok)))
    spec = A.spec
    if np.array_equal(A.values, B.values):
        return GridField(spec, np.zeros_like(A.values), A.hbar, warnings)
    Fh, xiq, xip = _forward(A)
    Gh, _, _ = _forward(B)
    P1, P2 = _twist(xiq, xip, A.hbar)
    ab = _inverse(_twisted_sum(Fh, Gh, P1, P2, method), spec, xiq, xip)
    if A.values.imag.any() or B.values.imag.any():
        ba = _inverse(_twisted_sum(Gh, Fh, P1, P2, method), spec, xiq, xip)
    else:
        ba = ab.conj()
    return GridField(spec, ab - ba, A.hbar, warnings)


@functools.lru_cache(maxsize=8)
def _gauss_legendre(order: int):
    """Read-only Gauss-Legendre (nodes, weights) on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def wigner_from_wavefunction(phi, spec: GridSpec, hbar: float = 1.0,
                             support: float = None, order: int = 512) -> GridField:
    """Wigner transform of a 1D wavefunction, sampled on the grid.

    phi must be callable on numpy arrays and numerically negligible outside
    [-support, support]; the z-integral runs over [-2*support, 2*support]
    with a fixed-order Gauss-Legendre rule.  A non-normalized phi is
    accepted but flagged in the output warnings.
    """
    if support is None:
        support = max(abs(spec.qmin), abs(spec.qmax)) + 4.0
    if not np.isfinite(support) or support <= 0:
        raise ValueError("divergent support for the Wigner transform")
    nodes, weights = _gauss_legendre(order)
    z = 2.0 * support * nodes
    w = 2.0 * support * weights
    warnings = []
    # norm check via the same nodes: int |phi(x)|^2 dx = int |phi(z/2)|^2 dz / 2
    norm = float(0.5 * np.sum(w * np.abs(phi(0.5 * z)) ** 2))
    if abs(norm - 1.0) > 1e-6:
        warnings.append(f"wavefunction norm deviates from 1: {norm:.3e}")
    qs = spec.qs
    ps = spec.ps
    f1 = np.conj(phi(qs[:, None] + 0.5 * z[None, :]))
    f2 = phi(qs[:, None] - 0.5 * z[None, :])
    phase = np.exp(1j * np.outer(z, ps) / hbar)
    W = (f1 * f2 * w[None, :]) @ phase / (2.0 * np.pi * hbar)
    return GridField(spec, W, hbar, tuple(warnings))


def grid_distance(A: GridField, B: GridField):
    """(sup_rel, l2_rel) distances, normalized by the first argument."""
    if A.spec != B.spec:
        raise GridMismatchError("grid_distance requires identical grid specs")
    diff = np.abs(A.values - B.values)
    ref_sup = np.abs(A.values).max()
    ref_l2 = np.linalg.norm(A.values)
    if ref_sup == 0.0:
        return (0.0, 0.0) if diff.max() == 0.0 else (float("inf"), float("inf"))
    return float(diff.max() / ref_sup), float(np.linalg.norm(diff) / ref_l2)

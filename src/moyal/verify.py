"""Cross-engine invariant suite backing the `verify` CLI command.

Each check pairs a closed-form claim with an independent route (grid
twisted convolution, Wigner-transform oracle, quadrature) and a pinned
tolerance.  Grid tolerances depend on resolution; the documented bounds
live in GRID_PURITY_TOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bopp import apply, bopp_from_symbol
from .grid import (GridSpec, grid_distance, moyal_bracket_numeric, sample,
                   star_numeric, tapered_sample, wigner_from_wavefunction)
from .models import (DampedParams, HeliumParams, damped_energy,
                     damped_hamiltonian, damped_wigner, harmonic_wigner,
                     helium_excite, helium_ground, helium_hamiltonians,
                     helium_wigner, hermite_function)
from .negativity import eta_grid_damped, eta_radial
from .polygauss import PolyGauss, QuadForm, integrate, marginal
from .residual import eigen_residual
from .star import polygauss_star
from .symbols import PolynomialSymbol, p_symbol, q_symbol

# Documented purity tolerances for the grid engine by resolution
# (lower resolutions admit more discretization error).
GRID_PURITY_TOL = {128: 1e-4, 96: 3e-4, 64: 5e-3}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    metric: float
    tol: float
    detail: str = ""


def _random_polygauss(rng, degree=2):
    aqq = rng.uniform(0.6, 1.4)
    app = rng.uniform(0.6, 1.4)
    aqp = rng.uniform(-0.25, 0.25)
    lq, lp = rng.uniform(-0.3, 0.3, 2)
    terms = {}
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            terms[(a, b)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return PolyGauss(terms, QuadForm.from_coeffs(aqq, aqp, app, lq, lp, 0.0), 1.0)


def _sample_points(rng, n=80, half=3.0):
    return rng.uniform(-half, half, (n, 2))


def run_checks(grid_points: int = 128):
    """Run the invariant suite; returns a list of CheckResult."""
    rng = np.random.RandomState(20240811)
    pts = _sample_points(rng)
    results = []

    # Heisenberg relation, coefficient-wise
    opq = bopp_from_symbol(q_symbol(), "left", 1.0)
    opp = bopp_from_symbol(p_symbol(), "left", 1.0)
    worst = 0.0
    for _ in range(3):
        f = _random_polygauss(rng)
        comm = apply(opq, apply(opp, f)) - apply(opp, apply(opq, f))
        dev = comm - f.scale(1j)
        worst = max(worst, max((abs(c) for c in dev.terms.values()), default=0.0))
    results.append(CheckResult("heisenberg-commutator", worst <= 1e-12, worst, 1e-12))

    # associativity on samples
    worst = 0.0
    for _ in range(3):
        f, g, h = (_random_polygauss(rng) for _ in range(3))
        lhs = polygauss_star(polygauss_star(f, g), h)
        rhs = polygauss_star(f, polygauss_star(g, h))
        scale = max(np.abs(lhs.evaluate(pts[:, 0], pts[:, 1])).max(), 1e-30)
        worst = max(worst, np.abs(lhs.evaluate(pts[:, 0], pts[:, 1])
                                  - rhs.evaluate(pts[:, 0], pts[:, 1])).max() / scale)
    results.append(CheckResult("star-associativity", worst <= 1e-9, worst, 1e-9))

    # left/right conjugation for real symbol and real function
    s = PolynomialSymbol({(1, 0): 0.7, (0, 2): -0.4, (1, 1): 0.2})
    f = PolyGauss({(0, 0): 1.0, (2, 0): -0.3}, QuadForm.from_coeffs(1.0, 0.1, 0.9), 1.0)
    left = apply(bopp_from_symbol(s, "left", 1.0), f)
    right = apply(bopp_from_symbol(s, "right", 1.0), f)
    dev = np.abs(left.evaluate(pts[:, 0], pts[:, 1])
                 - np.conj(right.evaluate(pts[:, 0], pts[:, 1]))).max()
    results.append(CheckResult("left-right-conjugation", dev <= 1e-12, dev, 1e-12))

    # purity W * W = W / (2 pi hbar), closed form
    states = [harmonic_wigner(n) for n in range(4)]
    states += [damped_wigner(DampedParams(lam, n)) for lam in (0.5, 0.9)
               for n in range(4)]
    hel = helium_ground(HeliumParams(xi=0.1))
    states += list(helium_wigner(hel))
    worst = 0.0
    for W in states:
        WW = polygauss_star(W, W)
        ref = W.scale(1.0 / (2.0 * np.pi * W.hbar))
        scale = np.abs(ref.evaluate(pts[:, 0], pts[:, 1])).max()
        dev = np.abs(WW.evaluate(pts[:, 0], pts[:, 1])
                     - ref.evaluate(pts[:, 0], pts[:, 1])).max() / scale
        worst = max(worst, dev)
    results.append(CheckResult("purity-closed-form", worst <= 1e-9, worst, 1e-9))

    # trace property
    f, g = _random_polygauss(rng), _random_polygauss(rng)
    lhs = integrate(polygauss_star(f, g))
    rhs = integrate(f.pointwise_mul(g))
    dev = abs(lhs - rhs) / max(abs(rhs), 1e-30)
    results.append(CheckResult("trace-property", dev <= 1e-9, dev, 1e-9))

    # grid engine: fft path gated on the direct baseline
    spec = GridSpec(-8.0, 8.0, -8.0, 8.0, grid_points, grid_points)
    A = sample(_random_polygauss(rng, 2), spec)
    B = sample(_random_polygauss(rng, 2), spec)
    d = star_numeric(A, B, method="direct")
    ffast = star_numeric(A, B, method="fft")
    dev = np.abs(d.values - ffast.values).max() / max(np.abs(d.values).max(), 1e-300)
    results.append(CheckResult("fft-gate", dev <= 1e-10, dev, 1e-10))

    # cross-engine star product
    worst = 0.0
    for _ in range(3):
        f, g = _random_polygauss(rng, 3), _random_polygauss(rng, 3)
        exact = sample(polygauss_star(f, g), spec)
        approx = star_numeric(sample(f, spec), sample(g, spec), method="fft")
        sup, _ = grid_distance(exact, approx)
        worst = max(worst, sup)
    results.append(CheckResult("star-cross-engine", worst <= 1e-6, worst, 1e-6))

    # purity on the grid
    tol_grid = GRID_PURITY_TOL.get(grid_points)
    if tol_grid is None:
        tol_grid = 1e-4 if grid_points > 128 else 5e-3
    worst = 0.0
    for n in range(3):
        W = sample(damped_wigner(DampedParams(0.5, n)), spec)
        WW = star_numeric(W, W, method="fft")
        ref = W.values / (2.0 * np.pi)
        worst = max(worst, np.abs(WW.values - ref).max() / np.abs(ref).max())
    results.append(CheckResult("purity-grid", worst <= tol_grid, worst, tol_grid,
                               detail=f"grid {grid_points}^2"))

    # Wigner-transform oracle at lam = 0
    worst = 0.0
    for n in range(3):
        oracle = wigner_from_wavefunction(lambda x, n=n: hermite_function(n, x), spec)
        closed = sample(damped_wigner(DampedParams(0.0, n)), spec)
        worst = max(worst, np.abs(oracle.values - closed.values).max())
    results.append(CheckResult("wigner-oracle", worst <= 1e-6, worst, 1e-6))

    # spectra through eigen residuals
    worst = 0.0
    for lam in (0.0, 0.5, 0.9):
        H = damped_hamiltonian(lam)
        for n in range(4):
            dp = DampedParams(lam, n)
            worst = max(worst, eigen_residual(H, damped_wigner(dp), damped_energy(dp)))
    results.append(CheckResult("damped-spectrum-residual", worst <= 1e-9, worst, 1e-9))

    params = HeliumParams(xi=0.1)
    Hu, Hv = helium_hamiltonians(params)
    st = helium_excite(helium_ground(params), 1)
    worst = max(
        eigen_residual(Hu, st.u_factor, params.hbar * params.omega_u * 1.5),
        eigen_residual(Hv, st.v_factor, params.hbar * params.omega_v * 1.5))
    results.append(CheckResult("helium-residual", worst <= 1e-10, worst, 1e-10))

    # parity of W_n at the origin
    worst = 0.0
    for lam in (0.0, 0.5, 0.9):
        for n in range(5):
            val = damped_wigner(DampedParams(lam, n)).evaluate(0.0, 0.0).real * np.pi
            worst = max(worst, abs(val - (-1.0) ** n))
    results.append(CheckResult("parity-at-origin", worst <= 1e-12, worst, 1e-12))

    # stationarity: the Moyal bracket with H vanishes for eigenstates
    bspec = GridSpec(-16.0, 16.0, -16.0, 16.0, 192, 192)
    Hfield = tapered_sample(
        lambda Q, P: 0.5 * (Q * Q + P * P) - 0.5 * Q * P, bspec, flat_radius=9.0)
    worst_int, worst_sup = 0.0, 0.0
    for n in range(3):
        Wf = sample(damped_wigner(DampedParams(0.5, n)), bspec)
        br = moyal_bracket_numeric(Hfield, Wf, method="fft")
        hw = star_numeric(Hfield, Wf, method="fft")
        scale = np.abs(hw.values).max()
        worst_sup = max(worst_sup, np.abs(br.values).max() / scale)
        worst_int = max(worst_int, abs(br.values.sum() * bspec.dq * bspec.dp) / scale)
    results.append(CheckResult("stationarity-sup", worst_sup <= 1e-6, worst_sup, 1e-6))
    results.append(CheckResult("stationarity-integral", worst_int <= 1e-8,
                               worst_int, 1e-8))

    # marginal against the position-density oracle
    W1 = harmonic_wigner(1)
    marg = marginal(W1, "p")
    xs = np.linspace(-4.0, 4.0, 81)
    dev = np.abs(marg.evaluate(xs).real - hermite_function(1, xs) ** 2).max()
    results.append(CheckResult("marginal-oracle", dev <= 1e-10, dev, 1e-10))

    # eta: cross-method agreement
    dev = abs(eta_grid_damped(1, 0.5, 1e-4).eta - eta_radial(1).eta)
    results.append(CheckResult("eta-cross-method", dev <= 1e-3, dev, 1e-3))

    return results


def report(results, stream=None) -> bool:
    """Print one pass/fail line per check; True when all pass."""
    import sys

    stream = stream or sys.stdout
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        extra = f"  [{r.detail}]" if r.detail else ""
        stream.write(f"{status}  {r.name}: metric={r.metric:.3e} "
                     f"tol={r.tol:.1e}{extra}\n")
    stream.write(("all checks passed" if ok else "verification FAILED") + "\n")
    return ok

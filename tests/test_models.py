import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from moyal import apply, bopp_from_symbol, eigen_residual, integrate
from moyal.models import (DampedParams, HeliumParams, annihilation_symbol,
                          creation_symbol, damped_energy, damped_hamiltonian,
                          damped_quasiamplitude, damped_wigner,
                          damped_wigner_values, harmonic_wigner,
                          harmonic_wigner_values, helium_energy,
                          helium_energy_first_order, helium_excite,
                          helium_ground, helium_hamiltonians, helium_wigner,
                          hermite_function, laguerre, oscillator_ground,
                          oscillator_hamiltonian, oscillator_state,
                          z_coordinate)
from moyal.polygauss import marginal
from moyal.star import polygauss_star

from oracles import laguerre_series


# ---- special functions ----------------------------------------------------

def test_laguerre_trivial_values():
    assert laguerre(0, 17.3) == 1.0
    assert laguerre(1, 2.0) == -1.0


def test_laguerre_against_series_and_scipy():
    assert abs(laguerre(5, 1.0) - laguerre_series(5, 1.0)) < 1e-13
    ys = np.linspace(0.0, 30.0, 61)
    for n in (2, 7, 15):
        assert np.abs(laguerre(n, ys)
                      - scipy.special.eval_laguerre(n, ys)).max() < 1e-9


def test_hermite_function_orthonormal():
    xs = np.linspace(-12, 12, 4001)
    dx = xs[1] - xs[0]
    for m in range(4):
        for n in range(4):
            overlap = np.trapezoid(hermite_function(m, xs)
                                   * hermite_function(n, xs), dx=dx)
            assert overlap == pytest.approx(1.0 if m == n else 0.0, abs=1e-9)


# ---- harmonic sector -------------------------------------------------------

def test_ground_state_solves_annihilation_condition():
    for m, omega, hbar in ((1.0, 1.0, 1.0), (2.0, 0.7, 0.5)):
        phi0 = oscillator_ground(m, omega, hbar)
        a_op = bopp_from_symbol(annihilation_symbol(m, omega, hbar), "left", hbar)
        assert apply(a_op, phi0).is_zero(tol=1e-12)
        norm = integrate(phi0.pointwise_mul(phi0.conjugate())).real
        assert norm == pytest.approx(1.0, abs=1e-13)


def test_ladder_commutator_is_identity():
    # [a*, a_dag*] = 1 verified on a small basis of states
    a_op = bopp_from_symbol(annihilation_symbol(), "left", 1.0)
    ad_op = bopp_from_symbol(creation_symbol(), "left", 1.0)
    for n in range(4):
        f = oscillator_state(n)
        comm = apply(a_op, apply(ad_op, f)) - apply(ad_op, apply(a_op, f))
        dev = comm - f
        assert all(abs(c) <= 1e-12 for c in dev.terms.values())


def test_oscillator_spectrum_residuals():
    H = oscillator_hamiltonian()
    for n in range(5):
        st_n = oscillator_state(n)
        assert eigen_residual(H, st_n, n + 0.5) <= 1e-12


def test_harmonic_wigner_matches_projector():
    qs = np.linspace(-3, 3, 17)
    Q, P = np.meshgrid(qs, qs, indexing="ij")
    for n in range(4):
        psi = oscillator_state(n)
        W = polygauss_star(psi, psi.conjugate())
        ref = harmonic_wigner(n)
        assert np.abs(W.evaluate(Q, P) - ref.evaluate(Q, P)).max() < 1e-12
        assert integrate(ref).real == pytest.approx(1.0, abs=1e-12)
        assert ref.evaluate(0.0, 0.0).real * np.pi == pytest.approx((-1.0) ** n)
    vals = harmonic_wigner_values(3, Q, P)
    assert np.abs(vals - harmonic_wigner(3).evaluate(Q, P).real).max() < 1e-12


# ---- helium ----------------------------------------------------------------

def test_helium_params_validation():
    with pytest.raises(ValueError):
        HeliumParams(xi=1.0)
    with pytest.raises(ValueError):
        HeliumParams(m=-1.0)


def test_helium_decoupled_limit():
    st0 = helium_ground(HeliumParams(xi=0.0))
    assert st0.u_factor.shape.allclose(st0.v_factor.shape, tol=1e-14)
    wu, wv = helium_wigner(st0)
    qs = np.linspace(-2, 2, 9)
    assert np.abs(wu.evaluate(qs, qs) - wv.evaluate(qs, qs)).max() < 1e-14


def test_helium_v_sector_width_carries_sqrt_factor():
    st0 = helium_ground(HeliumParams(xi=0.1))
    root = np.sqrt(0.9)
    assert st0.v_factor.shape.A[0, 0].real == pytest.approx(root, abs=1e-15)
    assert st0.v_factor.shape.A[1, 1].real == pytest.approx(1.0 / root, abs=1e-15)


def test_helium_ground_residuals():
    params = HeliumParams(xi=0.1)
    st0 = helium_ground(params)
    Hu, Hv = helium_hamiltonians(params)
    assert eigen_residual(Hu, st0.u_factor, 0.5 * params.omega_u) <= 1e-12
    assert eigen_residual(Hv, st0.v_factor, 0.5 * params.omega_v) <= 1e-12


def test_helium_excite_identity_and_diagonal():
    params = HeliumParams(xi=0.1)
    st0 = helium_ground(params)
    same = helium_excite(st0, 0)
    assert same.nu == same.nv == 0
    st2 = helium_excite(st0, 2)
    assert (st2.nu, st2.nv) == (2, 2)
    Hu, Hv = helium_hamiltonians(params)
    assert eigen_residual(Hu, st2.u_factor,
                          params.omega_u * 2.5) <= 1e-10
    assert eigen_residual(Hv, st2.v_factor,
                          params.omega_v * 2.5) <= 1e-10


def test_helium_excite_single_sector():
    st0 = helium_ground(HeliumParams(xi=0.05))
    st_u = helium_excite(st0, 3, sector="u")
    assert (st_u.nu, st_u.nv) == (3, 0)
    assert st_u.v_factor is st0.v_factor


def test_helium_first_sector_wigner_origin():
    # xi=0: each excited sector reproduces the Fock-state origin value
    st1 = helium_excite(helium_ground(HeliumParams(xi=0.0)), 1)
    wu, wv = helium_wigner(st1)
    assert wu.evaluate(0.0, 0.0).real == pytest.approx(-1.0 / np.pi, abs=1e-13)
    assert wv.evaluate(0.0, 0.0).real == pytest.approx(-1.0 / np.pi, abs=1e-13)


def test_helium_wigner_normalization_and_purity():
    st1 = helium_excite(helium_ground(HeliumParams(xi=0.1)), 1)
    qs = np.linspace(-3, 3, 13)
    Q, P = np.meshgrid(qs, qs, indexing="ij")
    for W in helium_wigner(st1):
        assert integrate(W).real == pytest.approx(1.0, abs=1e-12)
        WW = polygauss_star(W, W)
        ref = W.scale(1.0 / (2.0 * np.pi))
        scale = np.abs(ref.evaluate(Q, P)).max()
        assert np.abs(WW.evaluate(Q, P) - ref.evaluate(Q, P)).max() / scale <= 1e-9


def test_helium_sector_marginal_against_hermite():
    params = HeliumParams(xi=0.1)
    st1 = helium_excite(helium_ground(params), 1)
    _, wv = helium_wigner(st1)
    m = marginal(wv, "p")
    xs = np.linspace(-4, 4, 33)
    ref = hermite_function(1, xs, omega=params.omega_v) ** 2
    assert np.abs(m.evaluate(xs).real - ref).max() < 1e-8


def test_helium_energy_values():
    assert helium_energy(0, 0, HeliumParams(xi=0.0)) == pytest.approx(1.0)
    p = HeliumParams(xi=0.1)
    assert helium_energy(0, 0, p) == pytest.approx(0.9743416490252569, abs=1e-12)
    assert helium_energy_first_order(0, 0, p) == pytest.approx(0.975, abs=1e-15)
    # first-order error scales as xi^2/16
    for xi in (0.01, 0.05):
        p = HeliumParams(xi=xi)
        gap = abs(helium_energy(0, 0, p) - helium_energy_first_order(0, 0, p))
        assert gap <= 1.05 * xi ** 2 / 16 + 1e-15
    assert abs(helium_energy(0, 0, HeliumParams(xi=0.01))
               - (1 - 0.01 / 4)) <= 1e-5


# ---- damped oscillator -----------------------------------------------------

def test_z_coordinate_values():
    assert z_coordinate(1.0, 1.0, 0.0) == 1.0
    assert z_coordinate(1.0, 1.0, 0.5) == 0.5


@given(st.floats(-10, 10), st.floats(-10, 10),
       st.floats(-0.99, 0.99))
def test_z_coordinate_lower_bound(q, p, lam):
    assert z_coordinate(q, p, lam) >= (1 - abs(lam)) * (q * q + p * p) / 2 - 1e-12


def test_damped_params_validation():
    with pytest.raises(ValueError):
        DampedParams(1.0, 0)
    with pytest.raises(ValueError):
        DampedParams(0.5, -1)
    with pytest.raises(ValueError):
        DampedParams(0.5, 0, hbar=2.0)


def test_damped_energy_values():
    assert damped_energy(DampedParams(0.0, 0)) == pytest.approx(0.5)
    assert damped_energy(DampedParams(0.6, 1)) == pytest.approx(1.2)
    es = [damped_energy(DampedParams(lam, 0)) for lam in (0.0, 0.5, 0.9, 0.999)]
    assert all(a > b for a, b in zip(es, es[1:]))
    assert es[-1] < 0.05


def test_damped_hamiltonian_symbol():
    H0 = damped_hamiltonian(0.0)
    assert H0.coeffs == {(2, 0): 0.5, (0, 2): 0.5}
    H = damped_hamiltonian(0.3)
    qs = np.linspace(-2, 2, 7)
    assert np.abs(H.evaluate(qs, qs[::-1]).real
                  - z_coordinate(qs, qs[::-1], 0.3)).max() < 1e-15


def test_damped_quasiamplitude_structure():
    psi0 = damped_quasiamplitude(DampedParams(0.0, 0))
    # lam = 0, n = 0: proportional to exp(-(q^2+p^2)), y = 2(q^2+p^2)
    assert psi0.shape.allclose(
        damped_wigner(DampedParams(0.0, 0)).shape, tol=1e-14)
    assert psi0.terms[(0, 0)] == pytest.approx(np.sqrt(2 / np.pi), abs=1e-14)

    dp = DampedParams(0.1, 1)
    psi1 = damped_quasiamplitude(dp)
    qs = np.linspace(-2, 2, 9)
    y = 2.0 * (2.0 / np.sqrt(1 - 0.01)) * z_coordinate(qs, -qs, 0.1)
    ref = np.sqrt(2 / np.pi) * np.exp(-0.5 * y) * (1.0 - y)
    assert np.abs(psi1.evaluate(qs, -qs).real - ref).max() < 1e-13


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 0.9])
def test_damped_spectrum_residuals(lam):
    H = damped_hamiltonian(lam)
    for n in range(11):
        dp = DampedParams(lam, n)
        res = eigen_residual(H, damped_wigner(dp), damped_energy(dp))
        assert res <= 1e-9, (lam, n, res)


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.9])
def test_damped_wigner_normalization(lam):
    for n in range(11):
        W = damped_wigner(DampedParams(lam, n))
        assert integrate(W).real == pytest.approx(1.0, abs=1e-12), (lam, n)


def test_damped_wigner_parity_at_origin():
    for lam in (0.0, 0.1, 0.5, 0.9):
        for n in range(7):
            W = damped_wigner(DampedParams(lam, n))
            assert W.evaluate(0.0, 0.0).real * np.pi == pytest.approx(
                (-1.0) ** n, abs=1e-12)


def test_damped_w1_origin_value():
    W1 = damped_wigner(DampedParams(0.0, 1))
    assert W1.evaluate(0.0, 0.0).real == pytest.approx(-1.0 / np.pi, abs=1e-15)


@pytest.mark.parametrize("lam,n", [(0.1, 1), (0.1, 3), (0.1, 5), (0.5, 3),
                                   (0.9, 1), (0.9, 5)])
def test_same_form_theorem(lam, n):
    dp = DampedParams(lam, n)
    psi = damped_quasiamplitude(dp)
    W = polygauss_star(psi, psi.conjugate())
    ref = damped_wigner(dp)
    qs = np.linspace(-4, 4, 25)
    Q, P = np.meshgrid(qs, qs, indexing="ij")
    scale = np.abs(ref.evaluate(Q, P)).max()
    assert np.abs(W.evaluate(Q, P) - ref.evaluate(Q, P)).max() / scale <= 1e-8


def test_damped_reduces_to_harmonic_at_zero_dissipation():
    from moyal.grid import GridSpec, sample, wigner_from_wavefunction

    spec = GridSpec(-6.0, 6.0, -6.0, 6.0, 101, 101)
    for n in range(4):
        closed = sample(damped_wigner(DampedParams(0.0, n)), spec)
        oracle = wigner_from_wavefunction(
            lambda x, n=n: hermite_function(n, x), spec)
        assert np.abs(closed.values - oracle.values).max() < 1e-6


def test_damped_wigner_values_matches_polygauss():
    for lam, n in ((0.0, 2), (0.5, 4), (0.9, 10)):
        dp = DampedParams(lam, n)
        qs = np.linspace(-5, 5, 21)
        Q, P = np.meshgrid(qs, qs, indexing="ij")
        direct = damped_wigner_values(dp, Q, P)
        via_class = damped_wigner(dp).evaluate(Q, P).real
        assert np.abs(direct - via_class).max() < 1e-12

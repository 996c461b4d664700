import numpy as np
import pytest

from moyal import (PolyGauss, QuadForm, StarSingularError, gaussian_star,
                   integrate, polygauss_star)
from moyal.grid import GridSpec, grid_distance, sample, star_numeric
from moyal.models import (DampedParams, damped_quasiamplitude, damped_wigner,
                          harmonic_wigner, oscillator_state)

STD = QuadForm(np.eye(2))


def random_polygauss(rng, degree=2):
    aqq = rng.uniform(0.6, 1.4)
    app = rng.uniform(0.6, 1.4)
    aqp = rng.uniform(-0.25, 0.25)
    lq, lp = rng.uniform(-0.3, 0.3, 2)
    terms = {(a, b): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
             for a in range(degree + 1) for b in range(degree + 1 - a)}
    return PolyGauss(terms, QuadForm.from_coeffs(aqq, aqp, app, lq, lp, 0.0), 1.0)


def test_gaussian_star_identity_pair():
    g = PolyGauss.gaussian(STD, 1.0)
    out = gaussian_star(g, g)
    assert out.terms[(0, 0)] == pytest.approx(0.5, abs=1e-14)
    assert out.shape.allclose(STD, tol=1e-13)


def test_gaussian_star_unit():
    g = PolyGauss.gaussian(QuadForm.from_coeffs(0.7, 0.1, 1.2, 0.2, -0.1, 0.3), 1.0,
                           coeff=2.0 - 1.0j)
    one = PolyGauss.gaussian(QuadForm.zero(), 1.0)
    out = gaussian_star(g, one)
    qs = np.linspace(-2, 2, 9)
    assert np.abs(out.evaluate(qs, qs) - g.evaluate(qs, qs)).max() < 1e-13


def test_gaussian_star_squeezed_against_grid():
    g = PolyGauss.gaussian(QuadForm.from_coeffs(2.0, 0.0, 0.5), 1.0)
    exact = gaussian_star(g, g)
    spec = GridSpec(-8.0, 8.0, -8.0, 8.0, 128, 128)
    num = star_numeric(sample(g, spec), sample(g, spec), method="direct")
    ref = sample(exact, spec)
    # compare on the inner box [-4, 4]^2
    mask = (np.abs(spec.qs) <= 4.0)[:, None] & (np.abs(spec.ps) <= 4.0)[None, :]
    dev = np.abs(num.values - ref.values)[mask].max()
    assert dev < 1e-8


def test_gaussian_star_requires_degree_zero():
    f = PolyGauss({(1, 0): 1.0}, STD, 1.0)
    with pytest.raises(ValueError):
        gaussian_star(f, f)


def test_gaussian_star_singular_system():
    # pure imaginary quadratic forms sit on the Fresnel boundary; this pair
    # makes the source system singular
    chirp = PolyGauss.gaussian(QuadForm(1j * np.eye(2)), 1.0)
    with pytest.raises(StarSingularError):
        gaussian_star(chirp, chirp)


def test_polygauss_star_ground_state_projector():
    psi = oscillator_state(0)
    W = polygauss_star(psi, psi.conjugate())
    # same Gaussian shape, coefficient 1/pi
    assert W.shape.allclose(STD, tol=1e-13)
    assert W.terms[(0, 0)] == pytest.approx(1.0 / np.pi, abs=1e-14)


def test_polygauss_star_unit():
    f = PolyGauss({(1, 0): 1.0}, STD, 1.0)
    one = PolyGauss.gaussian(QuadForm.zero(), 1.0)
    out = polygauss_star(f, one)
    qs = np.linspace(-2, 2, 9)
    assert np.abs(out.evaluate(qs, -qs) - f.evaluate(qs, -qs)).max() < 1e-14


def test_polygauss_star_damped_same_form():
    # psi_1 * psi_1^dagger must reproduce exp(-y/2) L_1(y) up to the
    # documented normalization, i.e. equal damped_wigner exactly
    dp = DampedParams(0.1, 1)
    psi = damped_quasiamplitude(dp)
    W = polygauss_star(psi, psi.conjugate())
    ref = damped_wigner(dp)
    qs = np.linspace(-4, 4, 33)
    Q, P = np.meshgrid(qs, qs, indexing="ij")
    scale = np.abs(ref.evaluate(Q, P)).max()
    assert np.abs(W.evaluate(Q, P) - ref.evaluate(Q, P)).max() / scale < 1e-8


def test_star_associativity_on_samples(rng):
    pts = rng.uniform(-3, 3, (60, 2))
    for _ in range(4):
        f, g, h = (random_polygauss(rng) for _ in range(3))
        lhs = polygauss_star(polygauss_star(f, g), h)
        rhs = polygauss_star(f, polygauss_star(g, h))
        vals_l = lhs.evaluate(pts[:, 0], pts[:, 1])
        vals_r = rhs.evaluate(pts[:, 0], pts[:, 1])
        assert np.abs(vals_l - vals_r).max() <= 1e-9 * max(1.0, np.abs(vals_l).max())


def test_trace_property(rng):
    for _ in range(4):
        f, g = random_polygauss(rng), random_polygauss(rng)
        lhs = integrate(polygauss_star(f, g))
        rhs = integrate(f.pointwise_mul(g))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_purity_for_model_states():
    states = [polygauss_star(oscillator_state(n), oscillator_state(n).conjugate())
              for n in range(3)]
    states += [damped_wigner(DampedParams(0.5, n)) for n in range(3)]
    qs = np.linspace(-3, 3, 13)
    Q, P = np.meshgrid(qs, qs, indexing="ij")
    for W in states:
        WW = polygauss_star(W, W)
        ref = W.scale(1.0 / (2.0 * np.pi))
        scale = np.abs(ref.evaluate(Q, P)).max()
        assert np.abs(WW.evaluate(Q, P) - ref.evaluate(Q, P)).max() / scale <= 1e-9


@pytest.mark.parametrize("degree", [3, 6])
def test_star_numeric_cross_check_high_degree(rng, degree):
    spec = GridSpec(-8.0, 8.0, -8.0, 8.0, 128, 128)
    f, g = random_polygauss(rng, degree), random_polygauss(rng, degree)
    exact = sample(polygauss_star(f, g), spec)
    num = star_numeric(sample(f, spec), sample(g, spec), method="fft")
    sup, l2 = grid_distance(exact, num)
    assert sup <= 1e-6 and l2 <= 1e-6


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("n", range(6))
def test_damped_purity_and_trace(lam, n):
    # W * W = W / (2 pi) and 2 pi int W * W = 1 for every pure state
    W = damped_wigner(DampedParams(lam, n))
    WW = polygauss_star(W, W)
    assert np.array_equal(WW.frame, W.frame)
    qs = np.linspace(-3, 3, 13)
    Q, P = np.meshgrid(qs, qs, indexing="ij")
    ref = W.evaluate(Q, P) / (2.0 * np.pi)
    assert np.abs(WW.evaluate(Q, P) - ref).max() / np.abs(ref).max() <= 1e-9
    assert abs(2.0 * np.pi * integrate(WW) - 1.0) <= 1e-9
    if n == 0:
        WW0 = gaussian_star(W, W)
        assert np.abs(WW0.evaluate(Q, P) - ref).max() / np.abs(ref).max() <= 1e-12


def test_mixed_frame_star_against_grid():
    # a damped state (squeeze frame) starred with a harmonic one (no frame);
    # opposite parities would give zero, so both are odd here
    f = damped_wigner(DampedParams(0.5, 3))
    g = harmonic_wigner(1)
    exact = polygauss_star(f, g)
    assert exact.frame is None
    spec = GridSpec(-8.0, 8.0, -8.0, 8.0, 128, 128)
    num = star_numeric(sample(f, spec), sample(g, spec), method="fft")
    sup, l2 = grid_distance(sample(exact, spec), num)
    assert sup <= 1e-6 and l2 <= 1e-6

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from moyal import (PolyGauss, QuadForm, StarSingularError, apply,
                   bopp_from_symbol, halton_points, integrate, polygauss_star)
from moyal.grid import GridSpec, grid_distance, sample, star_numeric
from moyal.models import (DampedParams, damped_hamiltonian,
                          damped_quasiamplitude, damped_wigner,
                          harmonic_wigner, oscillator_state)

from oracles import polygauss_star_horner, polygauss_star_recursive

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
    out = polygauss_star(g, g)
    assert out.terms[(0, 0)] == pytest.approx(0.5, abs=1e-14)
    assert out.shape.allclose(STD, tol=1e-13)


def test_gaussian_star_unit():
    g = PolyGauss.gaussian(QuadForm.from_coeffs(0.7, 0.1, 1.2, 0.2, -0.1, 0.3), 1.0,
                           coeff=2.0 - 1.0j)
    one = PolyGauss.gaussian(QuadForm.zero(), 1.0)
    out = polygauss_star(g, one)
    qs = np.linspace(-2, 2, 9)
    assert np.abs(out.evaluate(qs, qs) - g.evaluate(qs, qs)).max() < 1e-13


def test_gaussian_star_squeezed_against_grid():
    g = PolyGauss.gaussian(QuadForm.from_coeffs(2.0, 0.0, 0.5), 1.0)
    exact = polygauss_star(g, g)
    spec = GridSpec(-8.0, 8.0, -8.0, 8.0, 128, 128)
    num = star_numeric(sample(g, spec), sample(g, spec), method="direct")
    ref = sample(exact, spec)
    # compare on the inner box [-4, 4]^2
    mask = (np.abs(spec.qs) <= 4.0)[:, None] & (np.abs(spec.ps) <= 4.0)[None, :]
    dev = np.abs(num.values - ref.values)[mask].max()
    assert dev < 1e-8


def test_gaussian_star_singular_system():
    # pure imaginary quadratic forms sit on the Fresnel boundary; this pair
    # makes the source system singular
    chirp = PolyGauss.gaussian(QuadForm(1j * np.eye(2)), 1.0)
    with pytest.raises(StarSingularError):
        polygauss_star(chirp, chirp)
    # a growing pair: M is regular, but its eigenvalues leave the closed
    # right half-plane
    grow = PolyGauss.gaussian(QuadForm(-np.eye(2)), 1.0)
    with pytest.raises(StarSingularError):
        polygauss_star(grow, grow)


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
@pytest.mark.parametrize("n", range(8))
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


@pytest.mark.parametrize("W", [
    pytest.param(harmonic_wigner(n), id=f"harmonic-{n}") for n in range(5)] + [
    pytest.param(damped_wigner(DampedParams(lam, n)), id=f"damped-{lam}-{n}")
    for lam in (0.5, 0.9) for n in range(6)])
def test_purity_product_keeps_the_exponent_set(W):
    # W * W = W / (2 pi) has W's degree, but the kernel fills every degree up
    # to twice that; the entries above are cancellation residue, which the
    # star product drops against the widths of the result's Gaussian
    assert set(polygauss_star(W, W).terms) == set(W.terms)


@pytest.mark.parametrize("side", ["left", "right"])
def test_polynomial_operand_takes_the_other_frame(side):
    # a pure polynomial (A = 0, l = 0) is composed with S^-1 and starred in
    # the state's squeeze frame, where the kernel agrees with the Bopp
    # operator; expanding the squeezed state to the identity frame instead
    # loses most of the digits
    H, W = damped_hamiltonian(0.9), damped_wigner(DampedParams(0.9, 10))
    poly = PolyGauss.from_symbol(H, QuadForm.zero())
    got = polygauss_star(poly, W) if side == "left" else polygauss_star(W, poly)
    assert np.array_equal(got.frame, W.frame)
    pts = halton_points(200, (-6.0, 6.0, -6.0, 6.0))
    want = apply(bopp_from_symbol(H, side, 1.0), W).evaluate(pts[:, 0], pts[:, 1])
    gap = np.abs(got.evaluate(pts[:, 0], pts[:, 1]) - want).max()
    assert gap <= 1e-10 * np.abs(want).max()


def _coefficient_gap(got, want):
    keys = set(got.terms) | set(want.terms)
    gap = max(abs(got.terms.get(k, 0.0) - want.terms.get(k, 0.0)) for k in keys)
    return gap / max(abs(c) for c in want.terms.values())


def _star_cases():
    rng = np.random.RandomState(7)
    for d in range(7):
        yield pytest.param(random_polygauss(rng, d), random_polygauss(rng, d),
                           id=f"random-{d}")
    for lam in (0.0, 0.9):
        for n in range(6):
            W = damped_wigner(DampedParams(lam, n))
            yield pytest.param(W, W, id=f"damped-{lam}-{n}")
    yield pytest.param(damped_wigner(DampedParams(0.5, 3)), harmonic_wigner(1),
                       id="mixed-frame")


@pytest.mark.parametrize("f, g", _star_cases())
def test_star_matches_source_recursion(f, g):
    got, want = polygauss_star(f, g), polygauss_star_recursive(f, g)
    assert got.shape.allclose(want.shape, tol=0.0)
    assert _coefficient_gap(got, want) <= 1e-12


def _random_frame(rng):
    """A real 2x2 matrix of determinant 1: a rotation times a squeeze."""
    t, r = rng.uniform(0.0, np.pi), rng.uniform(0.4, 2.5)
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s], [s, c]]) @ np.diag([r, 1.0 / r])


def _random_operand(rng, degree, sparse=False, frame=None, shape=None):
    """A complex Gaussian with linear terms (so the affine point w0 of the
    star system is nonzero) times a full, or a sparse, complex polynomial
    of total degree `degree`."""
    if shape is None:
        aqq, app = rng.uniform(0.6, 1.4, 2) + 1j * rng.uniform(-0.3, 0.3, 2)
        aqp = complex(*rng.uniform(-0.25, 0.25, 2))
        lq, lp = rng.uniform(-0.6, 0.6, 2) + 1j * rng.uniform(-0.6, 0.6, 2)
        shape = QuadForm.from_coeffs(aqq, aqp, app, lq, lp, rng.uniform(-0.2, 0.2))
    keys = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    if sparse:
        # keep the top-degree term so the total degree stays `degree`
        keys = [(degree, 0)] + [k for k in keys[:-1] if rng.uniform() < 0.4]
    terms = {k: complex(*rng.uniform(-1.0, 1.0, 2)) for k in keys}
    return PolyGauss(terms, shape, 1.0, frame)


def _assert_matches_oracles(f, g, tol=1e-13):
    got = polygauss_star(f, g)
    for oracle in (polygauss_star_recursive, polygauss_star_horner):
        want = oracle(f, g)
        assert got.shape.allclose(want.shape, tol=0.0)
        assert (got.frame is None) == (want.frame is None)
        assert _coefficient_gap(got, want) <= tol, oracle.__name__


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 5), st.integers(0, 5),
       st.booleans(), st.sampled_from(["none", "shared", "mixed"]))
def test_power_table_star_matches_both_oracles(seed, deg_f, deg_g, sparse, frames):
    rng = np.random.RandomState(seed)
    frame = None if frames == "none" else _random_frame(rng)
    f = _random_operand(rng, deg_f, sparse, frame)
    g = _random_operand(rng, deg_g, not sparse,
                        None if frames == "mixed" else frame)
    _assert_matches_oracles(f, g)


@pytest.mark.parametrize("deg_f, deg_g, framed", [
    (8, 8, False), (8, 3, True), (2, 8, False), (0, 8, True), (8, 0, False),
    (0, 0, False)])
def test_power_table_star_matches_both_oracles_to_degree_8(deg_f, deg_g, framed):
    rng = np.random.RandomState(100 * deg_f + deg_g)
    frame = _random_frame(rng) if framed else None
    _assert_matches_oracles(_random_operand(rng, deg_f, frame=frame),
                            _random_operand(rng, deg_g, frame=frame))


@pytest.mark.parametrize("lam", [0.5, 0.9])
def test_power_table_star_framed_model_states(lam):
    W = damped_wigner(DampedParams(lam, 4))
    assert W.degree == 8 and W.frame is not None
    _assert_matches_oracles(W, W)


def test_power_table_star_mixed_frame_model_states():
    # both operands are expanded to the identity frame first; at lam = 0.9
    # that expansion, not the kernel, sets the gap (the two oracles differ
    # from each other by 1.5e-11 there), so the mixed pair uses lam = 0.5
    _assert_matches_oracles(damped_wigner(DampedParams(0.5, 4)),
                            harmonic_wigner(2))


def test_power_table_star_empty_operand():
    rng = np.random.RandomState(3)
    f = _random_operand(rng, 4)
    empty = PolyGauss({}, f.shape, 1.0)
    for a, b in ((f, empty), (empty, f), (empty, empty)):
        got = polygauss_star(a, b)
        assert got.terms == {}
        assert got.shape.allclose(polygauss_star_recursive(a, b).shape, tol=0.0)
        assert polygauss_star_horner(a, b).terms == {}


@pytest.mark.parametrize("deg_poly, deg_other", [(0, 3), (3, 0), (2, 5), (5, 2)])
def test_power_table_star_fresnel_operand(deg_poly, deg_other):
    # a plain polynomial (zero quadratic form) on either side
    rng = np.random.RandomState(10 * deg_poly + deg_other)
    poly = _random_operand(rng, deg_poly, shape=QuadForm.zero())
    other = _random_operand(rng, deg_other)
    _assert_matches_oracles(poly, other)
    _assert_matches_oracles(other, poly)


_STAR_BYTES = """
import sys
import numpy as np
from moyal import polygauss_star
from moyal.models import DampedParams, damped_wigner, harmonic_wigner
for W in (damped_wigner(DampedParams(0.9, 5)), harmonic_wigner(8)):
    out = polygauss_star(W, W)
    keys = sorted(out.terms)
    sys.stdout.write(repr(keys) + "\\n")
    sys.stdout.write(np.array([out.terms[k] for k in keys]).tobytes().hex() + "\\n")
"""


def test_star_product_bytes_do_not_depend_on_blas_threads():
    # outputs are bit-identical from run to run, whatever the thread count
    # of the BLAS library; harmonic n = 8 has matrices of a size where a
    # threaded GEMM's result moves with it
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", _STAR_BYTES], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].count("\n") == 4
    assert outs[0] == outs[1]

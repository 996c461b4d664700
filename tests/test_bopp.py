import numpy as np
import pytest

from moyal import (ParameterMismatchError, PolyGauss, QuadForm, apply,
                   bopp_from_symbol, eigen_residual, halton_points,
                   p_symbol, q_symbol)
from moyal.grid import GridSpec, sample, star_numeric, tapered_sample
from moyal.models import (DampedParams, annihilation_symbol, damped_energy,
                          damped_hamiltonian, damped_wigner, harmonic_wigner,
                          oscillator_ground, oscillator_hamiltonian)
from moyal.residual import HALTON_SKIP
from moyal.symbols import PolynomialSymbol

from oracles import halton_points_loop

GAUSS = PolyGauss.gaussian(QuadForm(np.eye(2)), 1.0)


def test_q_symbol_left_operator_structure():
    # q* = q id + (i hbar/2) d_p
    op = bopp_from_symbol(q_symbol(), "left", 1.0)
    parts = {(dq, dp): c for c, dq, dp in op.terms}
    assert parts[(0, 0)].coeffs == {(1, 0): 1.0}
    assert parts[(0, 1)].coeffs == {(0, 0): 0.5j}
    assert set(parts) == {(0, 0), (0, 1)}


def test_constant_symbol_is_identity():
    op = bopp_from_symbol(PolynomialSymbol.constant(1.0), "left", 1.0)
    f = PolyGauss({(2, 1): 1.5, (0, 0): -0.5j}, QuadForm(np.eye(2)), 1.0)
    out = apply(op, f)
    assert out.poly().distance(f.poly()) < 1e-15
    op_r = bopp_from_symbol(PolynomialSymbol.constant(1.0), "right", 1.0)
    assert apply(op_r, f).poly().distance(f.poly()) < 1e-15


def test_differential_order_bounded_by_degree():
    s = PolynomialSymbol({(2, 1): 1.0, (1, 0): 2.0})
    op = bopp_from_symbol(s, "left", 1.0)
    assert op.order <= s.degree


def test_qp_symbol_against_grid_engine():
    # apply the qp Bopp operator to a Gaussian and compare with the
    # twisted-convolution engine at interior sample points
    s = q_symbol() * p_symbol()
    exact = apply(bopp_from_symbol(s, "left", 1.0), GAUSS)
    spec = GridSpec(-12.0, 12.0, -12.0, 12.0, 128, 128)
    A = tapered_sample(lambda Q, P: Q * P, spec, flat_radius=8.0)
    B = sample(GAUSS, spec)
    num = star_numeric(A, B, method="direct")
    pts = halton_points(20, (-1.0, 1.0, -1.0, 1.0))
    iq = np.rint((pts[:, 0] - spec.qmin) / spec.dq).astype(int)
    ip = np.rint((pts[:, 1] - spec.pmin) / spec.dp).astype(int)
    got = num.values[iq, ip]
    want = exact.evaluate(spec.qs[iq], spec.ps[ip])
    assert np.abs(got - want).max() / np.abs(want).max() < 1e-10


def test_annihilation_kills_ground_state():
    phi0 = oscillator_ground()
    out = apply(bopp_from_symbol(annihilation_symbol(), "left", 1.0), phi0)
    assert out.is_zero(tol=1e-12)


def test_hamiltonian_on_damped_w1():
    dp = DampedParams(0.5, 1)
    W1 = damped_wigner(dp)
    Hf = apply(bopp_from_symbol(damped_hamiltonian(0.5), "left", 1.0), W1)
    E1 = damped_energy(dp)
    pts = halton_points(100, (-4.0, 4.0, -4.0, 4.0))
    resid = np.abs(Hf.evaluate(pts[:, 0], pts[:, 1])
                   - E1 * W1.evaluate(pts[:, 0], pts[:, 1]))
    assert resid.max() <= 1e-10


@pytest.mark.parametrize("n", [18, 20, 30])
def test_hamiltonian_on_high_harmonic_states_keeps_every_coefficient(n):
    # H * W_n = (n + 1/2) W_n coefficient by coefficient, the tiny corner
    # entries (q^2n: 2^n / n! / pi, 1e-15 of the largest at n = 18) included
    W = harmonic_wigner(n)
    Hf = apply(bopp_from_symbol(oscillator_hamiltonian(), "left", 1.0), W)
    assert Hf.frame is W.frame
    k = max(Hf.C.shape[0], W.C.shape[0])
    l = max(Hf.C.shape[1], W.C.shape[1])
    got = np.zeros((k, l), dtype=complex)
    want = np.zeros((k, l), dtype=complex)
    got[:Hf.C.shape[0], :Hf.C.shape[1]] = Hf.C
    want[:W.C.shape[0], :W.C.shape[1]] = (n + 0.5) * W.C
    scale = np.where(want != 0, np.abs(want), np.abs(want).max())
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def test_heisenberg_commutator_coefficientwise():
    opq = bopp_from_symbol(q_symbol(), "left", 1.0)
    opp = bopp_from_symbol(p_symbol(), "left", 1.0)
    for terms in ({(0, 0): 1.0}, {(1, 0): 1.0, (0, 2): -0.5j}, {(2, 2): 0.3}):
        f = PolyGauss(terms, QuadForm.from_coeffs(1.0, 0.2, 0.8, 0.1, 0.0, 0.0), 1.0)
        comm = apply(opq, apply(opp, f)) - apply(opp, apply(opq, f))
        dev = comm - f.scale(1j)
        assert all(abs(c) <= 1e-12 for c in dev.terms.values())


def test_left_right_conjugation_for_real_data():
    s = PolynomialSymbol({(1, 0): 0.3, (0, 2): 1.1, (1, 1): -0.4})
    f = PolyGauss({(0, 0): 1.0, (2, 0): 0.25},
                  QuadForm.from_coeffs(0.9, -0.15, 1.3), 1.0)
    left = apply(bopp_from_symbol(s, "left", 1.0), f)
    right = apply(bopp_from_symbol(s, "right", 1.0), f)
    qs = np.linspace(-2.5, 2.5, 11)
    assert np.abs(left.evaluate(qs, qs[::-1])
                  - np.conj(right.evaluate(qs, qs[::-1]))).max() < 1e-13


def test_hbar_mismatch_raises():
    op = bopp_from_symbol(q_symbol(), "left", 2.0)
    with pytest.raises(ParameterMismatchError):
        apply(op, GAUSS)


def test_bopp_rejects_bad_side_and_hbar():
    with pytest.raises(ValueError):
        bopp_from_symbol(q_symbol(), "middle", 1.0)
    with pytest.raises(ValueError):
        bopp_from_symbol(q_symbol(), "left", -1.0)


def test_eigen_residual_negative_control():
    dp = DampedParams(0.5, 2)
    W2 = damped_wigner(dp)
    res = eigen_residual(damped_hamiltonian(0.5), W2, 1.0)
    assert res > 0.1


def test_eigen_residual_exact_pair():
    from moyal.models import harmonic_wigner, oscillator_hamiltonian

    res = eigen_residual(oscillator_hamiltonian(), harmonic_wigner(0), 0.5)
    assert res <= 1e-12


@pytest.mark.parametrize("n, box, skip", [
    (200, (-6.0, 6.0, -6.0, 6.0), HALTON_SKIP),
    (20, (-1.0, 1.0, -1.0, 1.0), HALTON_SKIP),
    (1000, (-4.5, 3.25, -0.1, 7.7), 0),
    (37, (0, 1, -2, 2), 12345),
    (500, (0.1, 0.7, -0.3, 0.35), 7),
    (1, (0.0, 1.0, 0.0, 1.0), 0),
    (0, (0.0, 1.0, 0.0, 1.0), HALTON_SKIP)])
def test_halton_points_bitwise_per_point_loop(n, box, skip):
    got = halton_points(n, box, skip)
    want = halton_points_loop(n, box, skip)
    assert got.shape == (n, 2) and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_halton_points_returns_a_fresh_writable_array():
    box = (-6.0, 6.0, -6.0, 6.0)
    a, b = halton_points(50, box), halton_points(50, box)
    assert a.flags.writeable and not np.shares_memory(a, b)
    a[:] = 0.0
    assert np.array_equal(halton_points(50, box), b)


def test_framed_apply_matches_lab_expansion():
    # on a framed state the operator acts in the frame variables; expanding
    # the state to the identity frame first gives the same function
    s = PolynomialSymbol({(1, 0): 0.3, (0, 2): 1.1, (1, 1): -0.4j, (3, 0): 0.2})
    W = damped_wigner(DampedParams(0.5, 2))
    pts = halton_points(60, (-3.0, 3.0, -3.0, 3.0))
    for side in ("left", "right"):
        op = bopp_from_symbol(s, side, 1.0)
        got = apply(op, W)
        assert np.array_equal(got.frame, W.frame)
        want = apply(op, W.lab())
        vals = want.evaluate(pts[:, 0], pts[:, 1])
        assert np.abs(got.evaluate(pts[:, 0], pts[:, 1]) - vals).max() <= (
            1e-12 * np.abs(vals).max())


def test_framed_residual_builds_only_the_frame_triples(monkeypatch):
    # the lab-frame triples are built when read, and apply on a framed
    # state reads only those of s o S^-1; the residual is the same number
    from moyal import bopp

    dp = DampedParams(0.5, 2)
    H, W, E = damped_hamiltonian(0.5), damped_wigner(dp), damped_energy(dp)
    want = eigen_residual(H, W, E)
    op = bopp_from_symbol(H, "left", 1.0)
    read = op.terms
    assert op.order == 2 and op.terms is read
    built = []
    triples = bopp._triples
    monkeypatch.setattr(bopp, "_triples",
                        lambda *a: built.append(a[0]) or triples(*a))
    assert eigen_residual(H, W, E) == want
    assert len(built) == 1 and built[0] != H
    assert apply(op, W).terms == apply(bopp_from_symbol(H, "left", 1.0),
                                       W).terms


def test_second_residual_with_the_same_hamiltonian_builds_no_triples():
    # the triples are kept per coefficient array, side and hbar, so a new
    # operator for the same H, and the frame's s o S^-1, reuse them
    H = PolynomialSymbol({(2, 0): 0.5, (0, 2): 0.5, (1, 1): -0.37})
    derivative = PolynomialSymbol.derivative
    for f in (damped_wigner(DampedParams(0.0, 2)),
              damped_wigner(DampedParams(0.37, 2))):
        first = eigen_residual(H, f, 1.0)
        taken = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PolynomialSymbol, "derivative",
                       lambda *a, **k: taken.append(a) or derivative(*a, **k))
            assert eigen_residual(H, f, 1.0) == first
        assert taken == []

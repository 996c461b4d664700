import numpy as np
import pytest
from scipy.integrate import quad

from moyal import (NonNormalizableError, ParameterMismatchError, PolyGauss,
                   QuadForm, integrate, marginal)
from moyal.models import (DampedParams, damped_quasiamplitude, damped_wigner,
                          damped_wigner_values, hermite_function)
from moyal.symbols import PolynomialSymbol

from oracles import quad2d

STD = QuadForm(np.eye(2))


def test_quadform_symmetrized_and_normalizable():
    qf = QuadForm(np.array([[1.0, 0.4], [0.0, 2.0]]))
    assert qf.A[0, 1] == qf.A[1, 0] == 0.2
    assert qf.is_normalizable()
    assert not QuadForm(np.array([[1.0, 0.0], [0.0, -0.1]])).is_normalizable()
    assert not QuadForm.zero().is_normalizable()


def test_evaluate_finite_everywhere():
    f = PolyGauss({(3, 2): 1e3}, QuadForm.from_coeffs(0.2, 0.1, 0.3, 1.0, -2.0, 0.5))
    pts = np.array([-50.0, -1.0, 0.0, 7.0, 80.0])
    assert np.all(np.isfinite(f.evaluate(pts, pts[::-1])))


def test_diff_closure_against_finite_differences():
    f = PolyGauss({(1, 0): 1.0, (0, 2): -0.5j},
                  QuadForm.from_coeffs(0.8, -0.1, 1.2, 0.2, 0.0, 0.1))
    h = 1e-6
    for var in ("q", "p"):
        df = f.diff(var)
        at = (0.7, -0.4)
        if var == "q":
            fd = (f.evaluate(at[0] + h, at[1]) - f.evaluate(at[0] - h, at[1])) / (2 * h)
        else:
            fd = (f.evaluate(at[0], at[1] + h) - f.evaluate(at[0], at[1] - h)) / (2 * h)
        assert abs(df.evaluate(*at) - fd) < 1e-8


def test_add_requires_same_shape_and_hbar():
    f = PolyGauss.gaussian(STD, 1.0)
    g = PolyGauss.gaussian(QuadForm(2 * np.eye(2)), 1.0)
    with pytest.raises(ParameterMismatchError):
        f + g
    h = PolyGauss.gaussian(STD, 0.5)
    with pytest.raises(ParameterMismatchError):
        f + h


def test_integrate_normalized_gaussian():
    w0 = PolyGauss.gaussian(STD, 1.0, coeff=1.0 / np.pi)
    assert integrate(w0) == pytest.approx(1.0, abs=1e-14)


def test_integrate_quadratic_moment():
    # q^2 exp(-(q^2+p^2)) -> pi/2, checked against plain 2D quadrature
    f = PolyGauss({(2, 0): 1.0}, STD, 1.0)
    exact = integrate(f)
    assert exact.imag == pytest.approx(0.0, abs=1e-14)
    assert exact.real == pytest.approx(np.pi / 2, abs=1e-12)
    assert exact.real == pytest.approx(quad2d(f.evaluate, 8.0), abs=1e-9)


@pytest.mark.parametrize("lam", [0.0, 0.5, 0.9])
def test_integrate_damped_gaussian_lambda_free(lam):
    # exp(-y/2) integrates to pi for every dissipation value
    c = 2.0 / np.sqrt(1.0 - lam ** 2)
    f = PolyGauss.gaussian(
        QuadForm.from_coeffs(0.5 * c, -0.5 * c * lam, 0.5 * c), 1.0)
    assert integrate(f).real == pytest.approx(np.pi, abs=1e-12)
    if lam == 0.5:
        assert integrate(f).real == pytest.approx(quad2d(f.evaluate, 10.0), abs=1e-8)


def test_integrate_rejects_nonnormalizable():
    with pytest.raises(NonNormalizableError):
        integrate(PolyGauss.gaussian(QuadForm.zero(), 1.0))


def test_integrate_with_linear_terms_against_quadrature():
    f = PolyGauss({(0, 0): 0.3, (1, 1): -0.2, (2, 0): 0.1j},
                  QuadForm.from_coeffs(1.1, 0.2, 0.7, 0.4, -0.3, 0.05), 1.0)
    got = integrate(f)
    re = quad2d(lambda q, p: f.evaluate(q, p).real, 9.0)
    im = quad2d(lambda q, p: f.evaluate(q, p).imag, 9.0)
    assert got.real == pytest.approx(re, abs=1e-8)
    assert got.imag == pytest.approx(im, abs=1e-8)


def test_marginal_of_ground_state():
    w0 = PolyGauss.gaussian(STD, 1.0, coeff=1.0 / np.pi)
    m = marginal(w0, "p")
    xs = np.linspace(-3, 3, 13)
    assert np.abs(m.evaluate(xs) - np.exp(-xs ** 2) / np.sqrt(np.pi)).max() < 1e-14
    assert m.integrate().real == pytest.approx(1.0, abs=1e-14)


def test_marginal_parity():
    # even function: the marginal keeps only even powers
    f = PolyGauss({(0, 0): 1.0, (2, 0): 0.5, (0, 2): -0.2}, STD, 1.0)
    m = marginal(f, "q")
    assert all(a % 2 == 0 for a in m.coeffs)
    xs = np.linspace(-2, 2, 9)
    assert np.abs(m.evaluate(xs) - m.evaluate(-xs)).max() < 1e-13


def test_marginal_damped_w1_matches_position_density():
    # lam=0: marginal over p of W_1 is |phi_1(q)|^2
    W1 = damped_wigner(DampedParams(0.0, 1))
    m = marginal(W1, "p")
    xs = np.linspace(-4, 4, 41)
    assert np.abs(m.evaluate(xs).real - hermite_function(1, xs) ** 2).max() < 1e-10


@pytest.mark.parametrize("lam", [None, 0.6])
def test_marginal_with_linear_terms_against_quadrature(lam):
    # complex off-diagonal A, l != 0 and k != 0, which shift and scale the
    # marginal's Gaussian; in the identity frame and in a damped frame
    shape = QuadForm.from_coeffs(1.1, 0.3 - 0.2j, 0.8, 0.4 - 0.3j,
                                 -0.5 + 0.2j, 0.3 + 0.1j)
    terms = {(0, 0): 0.3, (1, 0): 0.4 - 0.1j, (1, 1): -0.2, (2, 0): 0.1j,
             (0, 3): 0.05}
    frame = None if lam is None else damped_wigner(DampedParams(lam, 0)).frame
    f = PolyGauss(terms, shape, 1.0, frame)
    for axis in ("q", "p"):
        m = marginal(f, axis)
        for x in (-1.3, 0.0, 0.7, 2.1):
            def g(t):
                return f.evaluate(x, t) if axis == "p" else f.evaluate(t, x)
            want = complex(
                quad(lambda t: g(t).real, -np.inf, np.inf, epsabs=1e-14)[0],
                quad(lambda t: g(t).imag, -np.inf, np.inf, epsabs=1e-14)[0])
            assert abs(m.evaluate(x) - want) <= 1e-10 * max(abs(want), 1.0)
        assert m.integrate() == pytest.approx(integrate(f), rel=1e-12)


def test_wide_gaussian_integrates_without_a_singularity_check():
    # Re A = diag(1, 1e-14) is nearly singular, but the Gaussian decays and
    # its integral is exact: pi 1e7 (1 + 0.5e14)
    f = PolyGauss({(0, 0): 1.0, (0, 2): 1.0},
                  QuadForm(np.diag([1.0, 1e-14])), 1.0)
    want = np.pi * 1e7 * (1.0 + 0.5e14)
    for got in (integrate(f), marginal(f, "p").integrate(),
                marginal(f, "q").integrate()):
        assert abs(got - want) <= 1e-12 * want


def test_pointwise_mul_shapes_add():
    f = PolyGauss({(1, 0): 2.0}, STD, 1.0)
    g = PolyGauss({(0, 1): 3.0}, QuadForm(0.5 * np.eye(2)), 1.0)
    fg = f.pointwise_mul(g)
    assert fg.terms == {(1, 1): 6.0}
    assert np.allclose(fg.shape.A, 1.5 * np.eye(2))


def test_constructor_keeps_tiny_coefficients():
    # no coefficient is dropped for being small next to the largest one;
    # only trailing all-zero rows and columns leave the array
    f = PolyGauss({(0, 0): 1.0, (4, 4): 1e-20}, STD, 1.0)
    assert f.terms == {(0, 0): 1.0, (4, 4): 1e-20}
    assert f.C.shape == (5, 5) and f.degree == 8
    g = PolyGauss({(0, 0): 1e-20, (2, 0): 0.0, (0, 1): 3e-20}, STD, 1.0)
    assert g.terms == {(0, 0): 1e-20, (0, 1): 3e-20}
    assert g.C.shape == (1, 2)
    assert PolyGauss({(3, 1): 0.0}, STD, 1.0).C.shape == (1, 1)


# ---- frames ----------------------------------------------------------------

GRID = np.meshgrid(np.linspace(-4, 4, 17), np.linspace(-4, 4, 17), indexing="ij")


def _rel_dev(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("frame", [
    np.diag([2.0, 1.0]),                       # det 2
    np.array([[1.0, 1.0], [1.0, 1.0]]),        # singular
    np.eye(2) * (1.0 + 1e-9),                  # det off by 2e-9
    np.eye(2) + 0j,                            # complex
    np.eye(3),                                 # not 2x2
])
def test_frame_rejects_non_unimodular_matrix(frame):
    with pytest.raises(ValueError):
        PolyGauss({(0, 0): 1.0}, STD, 1.0, frame)


def test_operations_keep_the_checked_frame_without_checking_again(
        monkeypatch):
    # the frame of an existing value was checked when it was made; a user
    # frame is still checked, and one with det != 1 still raises
    from moyal import polygauss

    W = damped_wigner(DampedParams(0.5, 2))
    checked = []
    check = polygauss._check_frame

    def counted(S):
        if S is not None:
            checked.append(S)
        return check(S)

    monkeypatch.setattr(polygauss, "_check_frame", counted)
    q = PolynomialSymbol({(1, 0): 1.0})
    results = [W.scale(2.0), W.conjugate(), W.diff("q"), W + W,
               W.pointwise_mul(W), W.mul_symbol(q), W.lab()]
    assert checked == []
    assert all(f.frame is W.frame for f in results[:-1])
    assert results[-1].frame is None
    S = np.array([[2.0, 0.0], [0.0, 0.5]])
    assert np.array_equal(PolyGauss({(0, 0): 1.0}, STD, 1.0, S).frame, S)
    assert len(checked) == 1
    with pytest.raises(ValueError, match="determinant"):
        PolyGauss({(0, 0): 1.0}, STD, 1.0, np.diag([2.0, 1.0]))


def test_frame_accepts_strong_squeeze():
    # det S = 1 up to rounding that grows with the squeeze (|S|^2 ~ 7e4 here)
    W = damped_wigner(DampedParams(1.0 - 1e-10, 0))
    assert integrate(W).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", range(4))
def test_lab_equals_framed_function(n):
    W = damped_wigner(DampedParams(0.9, n))
    assert W.frame is not None
    lab = W.lab()
    assert lab.frame is None
    assert _rel_dev(lab.evaluate(*GRID), W.evaluate(*GRID)) <= 1e-10


@pytest.mark.parametrize("var", ["q", "p"])
def test_framed_diff_and_mul_symbol_match_lab(var):
    W = damped_quasiamplitude(DampedParams(0.9, 2))
    got = W.diff(var)
    assert np.array_equal(got.frame, W.frame)
    want = W.lab().diff(var)
    assert _rel_dev(got.evaluate(*GRID), want.evaluate(*GRID)) <= 1e-10
    s = PolynomialSymbol({(1, 0): 0.3, (0, 2): -1.2j, (1, 1): 0.5})
    assert _rel_dev(W.mul_symbol(s).evaluate(*GRID),
                    W.lab().mul_symbol(s).evaluate(*GRID)) <= 1e-10


def test_mixed_frame_add_and_pointwise_mul_expand_to_lab():
    W = damped_wigner(DampedParams(0.9, 2))
    both = W + W.lab()
    assert both.frame is None
    assert _rel_dev(both.evaluate(*GRID), 2.0 * W.evaluate(*GRID)) <= 1e-10
    sq = W.pointwise_mul(W.lab())
    assert _rel_dev(sq.evaluate(*GRID), W.evaluate(*GRID) ** 2) <= 1e-10
    assert np.array_equal(W.pointwise_mul(W).frame, W.frame)


def test_framed_scale_conjugate_keep_frame_and_integrate():
    W = damped_wigner(DampedParams(0.5, 3))
    assert np.array_equal(W.scale(2.0).frame, W.frame)
    assert np.array_equal(W.conjugate().frame, W.frame)
    assert integrate(W).real == pytest.approx(integrate(W.lab()).real, abs=1e-12)


@pytest.mark.parametrize("lam, n", [(0.5, 2), (0.9, 5), (0.9, 8)])
def test_marginal_of_framed_damped_state(lam, n):
    dp = DampedParams(lam, n)
    m = marginal(damped_wigner(dp), "p")
    assert m.integrate().real == pytest.approx(1.0, abs=1e-12)
    # 400-node Gauss-Legendre over p in [-40, 40] of the Laguerre-recurrence values
    nodes, weights = np.polynomial.legendre.leggauss(400)
    qs = np.linspace(-6.0, 6.0, 41)
    want = [40.0 * weights @ damped_wigner_values(dp, q, 40.0 * nodes) for q in qs]
    assert _rel_dev(m.evaluate(qs).real, np.array(want)) <= 1e-6
    # z(q, p) is symmetric in q and p, so both marginals are one function
    assert _rel_dev(marginal(damped_wigner(dp), "q").evaluate(qs),
                    m.evaluate(qs)) <= 1e-12

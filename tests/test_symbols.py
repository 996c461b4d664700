import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from moyal.models import DampedParams, damped_wigner
from moyal.symbols import PolynomialSymbol, p_symbol, q_symbol


def test_constant_and_zero():
    one = PolynomialSymbol.constant(1.0)
    assert one.coeffs == {(0, 0): 1.0}
    assert PolynomialSymbol.zero().degree == -1
    assert one.degree == 0


def test_arithmetic_basics():
    q, p = q_symbol(), p_symbol()
    s = 2.0 * q + p * p - 1.0
    assert s.coeffs == {(1, 0): 2.0, (0, 2): 1.0, (0, 0): -1.0}
    assert (s - s).degree == -1
    sq = (q + p) ** 2
    assert sq.coeffs == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}


def test_derivative():
    q, p = q_symbol(), p_symbol()
    s = q ** 3 * p + 2.0 * p ** 2
    assert s.derivative(dq=1).coeffs == {(2, 1): 3.0}
    assert s.derivative(dp=1).coeffs == {(3, 0): 1.0, (0, 1): 4.0}
    assert s.derivative(dq=1, dp=1).coeffs == {(2, 0): 3.0}
    assert s.derivative(dq=4).degree == -1


def test_evaluate_matches_direct():
    s = PolynomialSymbol({(2, 0): 1.0, (1, 1): -0.5j, (0, 0): 2.0})
    qs = np.array([0.0, 1.0, -2.0])
    ps = np.array([1.0, 3.0, 0.5])
    expect = qs ** 2 - 0.5j * qs * ps + 2.0
    assert np.allclose(s.evaluate(qs, ps), expect, atol=1e-15)


@pytest.mark.parametrize("M", [damped_wigner(DampedParams(0.9, 0)).frame,
                               np.array([[1.0, 0.7], [-0.3, 1.2]])],
                         ids=["squeeze-0.9", "nonsymmetric"])
def test_linear_map_is_composition(M):
    rng = np.random.RandomState(11)
    s = PolynomialSymbol({(a, b): complex(*rng.uniform(-1, 1, 2))
                          for a in range(7) for b in range(7 - a)})
    x = rng.uniform(-3, 3, (2, 50))
    want = s.evaluate(*(M @ x))
    got = s.linear_map(M).evaluate(*x)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_conjugate_and_reality():
    s = PolynomialSymbol({(1, 0): 1.0 + 2.0j})
    assert s.conjugate().coeffs == {(1, 0): 1.0 - 2.0j}
    assert not s.is_real()
    assert (s + s.conjugate()).is_real()


def test_constructor_keeps_tiny_coefficients():
    s = PolynomialSymbol({(0, 0): 1.0, (5, 5): 1e-20})
    assert s.coeffs == {(0, 0): 1.0, (5, 5): 1e-20}
    assert s.degree == 10
    # a sum that cancels exactly leaves the zero polynomial
    assert (s - s).coeffs == {} and (s - s).C.shape == (1, 1)


def test_distance():
    a = PolynomialSymbol({(1, 0): 1.0})
    b = PolynomialSymbol({(1, 0): 1.0 + 1e-3, (0, 1): 2e-3})
    assert a.distance(b) == pytest.approx(2e-3)


coeff = st.complex_numbers(min_magnitude=0.0, max_magnitude=3.0,
                           allow_nan=False, allow_infinity=False)
small_poly = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), coeff, max_size=5
).map(PolynomialSymbol)


@given(small_poly, small_poly, small_poly)
def test_distributive_law(f, g, h):
    lhs = f * (g + h)
    rhs = f * g + f * h
    scale = max((abs(c) for c in lhs.coeffs.values()), default=1.0)
    assert lhs.distance(rhs) <= 1e-12 * max(scale, 1.0)


@given(small_poly, small_poly)
def test_product_degree(f, g):
    if f.degree >= 0 and g.degree >= 0:
        assert (f * g).degree <= f.degree + g.degree

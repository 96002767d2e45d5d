"""Special-function layer checked against scipy and closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from _oracles import log_factorial, log_rising, psi_n
from phasekit.specfun import (
    MAX_HERMITE_ORDER,
    hermite_fn_sum,
    hermite_poly,
    psi_matrix,
    psi_rows,
)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 20, 100, 170])
def test_log_factorial_matches_lgamma(n):
    assert np.isclose(log_factorial(n), math.lgamma(n + 1.0), rtol=1e-14)


@pytest.mark.parametrize("a", [0.5, 1.5, 3.0])
@pytest.mark.parametrize("k", [0, 1, 5, 20])
def test_log_rising_matches_direct_product(a, k):
    direct = sum(math.log(a + j) for j in range(k))
    assert np.isclose(log_rising(a, k), direct, atol=1e-12)


@pytest.mark.parametrize(
    "n, poly",
    [
        (0, lambda x: np.ones_like(x)),
        (1, lambda x: 2.0 * x),
        (2, lambda x: 4.0 * x**2 - 2.0),
        (3, lambda x: 8.0 * x**3 - 12.0 * x),
        (4, lambda x: 16.0 * x**4 - 48.0 * x**2 + 12.0),
    ],
)
def test_hermite_poly_low_orders(n, poly):
    x = np.linspace(-3.0, 3.0, 13)
    assert np.allclose(hermite_poly(n, x), poly(x), rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("n", [7, 15, 33, 60])
def test_hermite_poly_matches_scipy(n):
    x = np.linspace(-5.0, 5.0, 41)
    mine = hermite_poly(n, x)
    ref = special.eval_hermite(n, x)
    assert np.allclose(mine, ref, rtol=1e-9, atol=1e-6 * np.max(np.abs(ref)))


def test_hermite_poly_rejects_bad_orders():
    with pytest.raises(ValueError):
        hermite_poly(-1, 0.5)
    with pytest.raises(ValueError):
        hermite_poly(MAX_HERMITE_ORDER + 1, 0.5)


def test_hermite_poly_overflow_is_loud():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowError):
            hermite_poly(400, 50.0)


@pytest.mark.parametrize("n", [0, 1, 4, 12, 25])
def test_hermite_fn_matches_direct_formula(n):
    x = np.linspace(-6.0, 6.0, 25)
    norm = math.exp(-0.5 * (n * math.log(2.0) + log_factorial(n))) * np.pi**-0.25
    ref = norm * special.eval_hermite(n, x) * np.exp(-0.5 * x * x)
    assert np.allclose(psi_n(n, x), ref, rtol=1e-10, atol=1e-13)


@pytest.mark.parametrize("m, n", [(0, 0), (3, 3), (10, 10), (0, 2), (5, 9)])
def test_hermite_fn_orthonormality(m, n):
    val, _ = integrate.quad(
        lambda x: psi_n(m, x) * psi_n(n, x), -15.0, 15.0, limit=200
    )
    assert np.isclose(val, 1.0 if m == n else 0.0, atol=1e-10)


def test_hermite_fn_high_order_stays_bounded():
    x = np.linspace(-70.0, 70.0, 201)
    values = psi_n(2000, x)
    assert np.all(np.isfinite(values))
    assert np.max(np.abs(values)) < 1.0


def test_hermite_fn_sum_matches_term_by_term():
    rng = np.random.default_rng(7)
    coeffs = {j: rng.normal() for j in range(0, 31, 3)}
    x = np.linspace(-4.0, 4.0, 17)
    direct = sum(c * psi_n(j, x) for j, c in coeffs.items())
    assert np.allclose(hermite_fn_sum(coeffs, x), direct, rtol=1e-12, atol=1e-14)


def test_hermite_fn_sum_empty_is_zero():
    assert np.all(hermite_fn_sum({}, np.linspace(-1, 1, 5)) == 0.0)


@given(
    n=st.integers(0, 60),
    xs=st.lists(st.floats(-15.0, 15.0), min_size=1, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_psi_matrix_rows_are_bit_identical_to_hermite_fn(n, xs):
    x = np.array(xs)
    psi = psi_matrix(n, x)
    assert psi.shape == (n + 1, x.size)
    for m in range(n + 1):
        assert np.array_equal(psi[m].view(np.uint64),
                              psi_n(m, x).view(np.uint64))


def test_psi_rows_rejects_orders_out_of_range():
    with pytest.raises(ValueError, match="nonnegative"):
        list(psi_rows(-1, 0.5))
    with pytest.raises(ValueError, match="exceeds supported maximum"):
        list(psi_rows(MAX_HERMITE_ORDER + 1, 0.5))
    assert len(list(psi_rows(MAX_HERMITE_ORDER, 0.5))) == MAX_HERMITE_ORDER + 1

"""Sampling kernels: closed forms, identities, tails, and table round trips.

The two load-bearing oracles here are independent of the series build:
the phase-average identity of the classical kernel (adaptive quadrature
around the e^{ik phi} circle) and the moment identity of the quantum
kernel (2 pi Int K_k psi_{n+k} psi_n dx = 1, integrated by scipy.quad
rather than the package's own panel rule).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from _oracles import interp_table_value
from phasekit.kernels import (
    DEFAULT_GRID_STEP,
    KernelSpec,
    KernelTable,
    build_kernel_table,
    classical_kernel,
    integral_kernel_k1,
    integral_kernel_k2,
    omega,
    quantum_kernel,
    smear_error_kernel,
)
from phasekit.specfun import bessel_i0, hermite_fn


@pytest.mark.parametrize(
    "k, reference",
    [
        (1, lambda x: 0.25 * np.sign(x)),
        (2, lambda x: np.log(np.abs(x)) / np.pi),
        (3, lambda x: -0.75 * np.sign(x)),
        (4, lambda x: -2.0 * np.log(np.abs(x)) / np.pi),
        (5, lambda x: 1.25 * np.sign(x)),
    ],
)
def test_classical_kernel_closed_forms(k, reference):
    x = np.array([-3.0, -0.7, 0.7, 3.0])
    assert np.allclose(classical_kernel(k, x), reference(x), rtol=1e-14)


def test_classical_kernel_at_origin():
    assert classical_kernel(1, 0.0) == 0.0
    assert classical_kernel(3, 0.0) == 0.0
    for k in (2, 4):
        with pytest.raises(ValueError):
            classical_kernel(k, 0.0)


@given(
    x=st.floats(min_value=1e-3, max_value=1e3),
    lam=st.floats(min_value=1e-2, max_value=1e2),
    k=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_classical_kernel_scaling_law(x, lam, k):
    # Odd orders are flat in |x|; even order 2m picks up exactly
    # (-1)^(m+1) (m/pi) log(lam) under x -> lam x.
    before = classical_kernel(k, x)
    after = classical_kernel(k, lam * x)
    if k % 2:
        expected = before
    else:
        m = k // 2
        expected = before + (-1.0) ** (m + 1) * m * math.log(lam) / math.pi
    assert np.isclose(after, expected, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("r", [0.8, 2.5])
def test_classical_phase_average_identity(k, r):
    breaks = [0.5 * math.pi, 1.5 * math.pi]
    re_val = integrate.quad(
        lambda phi: math.cos(k * phi) * classical_kernel(k, r * math.cos(phi)),
        0.0, 2.0 * math.pi, points=breaks, limit=300,
    )[0]
    im_val = integrate.quad(
        lambda phi: math.sin(k * phi) * classical_kernel(k, r * math.cos(phi)),
        0.0, 2.0 * math.pi, points=breaks, limit=300,
    )[0]
    assert abs(complex(re_val, im_val) - 1.0) < 1e-6


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("k, n", [(1, 0), (1, 3), (2, 0), (2, 5), (3, 2)])
def test_quantum_moment_identity_by_adaptive_quadrature(k, n, default_tables):
    table = default_tables[k]
    val, _ = integrate.quad(
        lambda x: table.evaluate(x) * hermite_fn(n + k, x) * hermite_fn(n, x),
        -12.0, 12.0, limit=400,
    )
    assert abs(2.0 * np.pi * val - 1.0) < 1e-3


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [0, 2, 4])
def test_compensated_identity_against_smeared_pair(k, n):
    # With eta < 1 the compensated kernel must integrate to one against
    # the Gaussian-smeared eigenfunction pair instead of the bare pair.
    eta = 0.8
    sigma = math.sqrt((1.0 - eta) / (2.0 * eta))
    table = build_kernel_table(KernelSpec(k=k, eta=eta))
    nodes, wts = np.polynomial.hermite.hermgauss(81)
    x = np.arange(-12.0, 12.0, 0.01)
    shifted = x[:, None] - math.sqrt(2.0) * sigma * nodes[None, :]
    pair = hermite_fn(n + k, shifted) * hermite_fn(n, shifted)
    smeared_pair = pair @ wts / math.sqrt(math.pi)
    val = 2.0 * np.pi * np.trapezoid(table.evaluate(x) * smeared_pair, x)
    assert abs(val - 1.0) < 1e-3


def test_odd_kernel_reaches_classical_plateau(default_tables):
    x = np.linspace(4.0, 30.0, 40)
    assert np.all(np.abs(default_tables[1].evaluate(x) - 0.25) < 1e-2)


def test_even_kernel_grows_logarithmically(default_tables):
    table = default_tables[2]
    for x in (8.0, 16.0, 32.0):
        step = table.evaluate(2.0 * x) - table.evaluate(x)
        assert abs(step - math.log(2.0) / math.pi) < 1e-2


def test_series_matches_closed_integral_k1():
    for x in (0.5, 2.0, 3.5):
        assert abs(quantum_kernel(1, x) - integral_kernel_k1(x)) < 1e-4


def test_series_matches_closed_integral_k2_up_to_constant():
    # The even-order series drops an additive constant; differences of
    # values are constant-free and must agree with the integral form.
    xs = (0.8, 1.6, 3.0)
    series = [quantum_kernel(2, x) for x in xs]
    integral = [integral_kernel_k2(x) for x in xs]
    gaps = [s - i for s, i in zip(series, integral)]
    assert max(gaps) - min(gaps) < 1e-4


def test_kernel_parity(default_tables):
    x = np.linspace(0.1, 6.0, 23)
    for k in (1, 2, 3, 4):
        table = default_tables[k]
        sign = -1.0 if k % 2 else 1.0
        assert np.allclose(table.evaluate(-x), sign * table.evaluate(x),
                           rtol=0, atol=1e-13)


def test_kernel_tail_is_continuous_at_switch_point(default_tables):
    for k in (1, 2, 3):
        table = default_tables[k]
        inner = table.evaluate(table.spec.x0 - 1e-9)
        outer = table.evaluate(table.spec.x0 + 1e-9)
        assert abs(inner - outer) < 1e-6


def test_table_evaluate_matches_direct_series(default_tables):
    x = np.linspace(-3.9, 3.9, 27)
    for k in (1, 2):
        direct = quantum_kernel(k, x)
        assert np.allclose(default_tables[k].evaluate(x), direct, atol=2e-5)


def test_table_text_round_trip(default_tables):
    table = default_tables[3]
    clone = KernelTable.from_text(table.to_text())
    assert clone.spec == table.spec
    assert np.allclose(clone.grid, table.grid, atol=1e-6)
    assert np.allclose(clone.values, table.values, rtol=1e-14)
    assert np.isclose(clone.classical_tail.edge_gap,
                      table.classical_tail.edge_gap, rtol=1e-14)
    x = np.linspace(-8.0, 8.0, 33)
    assert np.allclose(clone.evaluate(x), table.evaluate(x), atol=1e-6)


def test_table_parser_ignores_unknown_header_lines(default_tables):
    text = "# config: 0123456789ab\n" + default_tables[1].to_text()
    clone = KernelTable.from_text(text)
    assert clone.spec == default_tables[1].spec


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(k=0)
    with pytest.raises(ValueError):
        KernelSpec(k=1, eta=0.5)
    with pytest.raises(ValueError):
        KernelSpec(k=1, eta=1.2)
    with pytest.raises(ValueError):
        KernelSpec(k=1, x0=0.0)
    with pytest.raises(ValueError):
        KernelSpec(k=1, f_truncation=0)


def test_angular_weight_closed_forms():
    z = np.linspace(0.0, 4.0, 9)
    assert np.allclose(omega(1, z), 2.0 * np.exp(-z), rtol=1e-10)
    assert np.allclose(
        omega(2, z),
        2.0 * np.pi * np.exp(-1.5 * z) * bessel_i0(0.5 * z),
        rtol=1e-9,
    )


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_angular_weight_at_origin(k):
    expected = 2.0 * np.pi ** (0.5 * k) / math.gamma(0.5 * k)
    assert np.isclose(omega(k, 0.0), expected, rtol=1e-12)


def test_angular_weight_divergence_is_loud():
    with pytest.raises(ArithmeticError):
        omega(2, 100.0)


def test_smear_error_kernel_vanishes_at_unit_efficiency():
    x = np.linspace(-5.0, 5.0, 11)
    assert np.all(smear_error_kernel(1, x, 1.0) == 0.0)
    assert np.all(smear_error_kernel(2, x, 1.0) == 0.0)


def test_smear_error_kernel_parity():
    x = np.linspace(0.2, 5.0, 9)
    g_odd = smear_error_kernel(1, x, 0.7)
    assert np.allclose(smear_error_kernel(1, -x, 0.7), -g_odd, atol=1e-12)
    g_even = smear_error_kernel(2, x, 0.7)
    assert np.allclose(smear_error_kernel(2, -x, 0.7), g_even, atol=1e-12)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("k, x", [(1, 0.6), (1, 2.5), (2, 1.4)])
def test_smear_error_kernel_matches_direct_convolution(k, x, default_tables):
    eta = 0.8
    sigma = math.sqrt((1.0 - eta) / (2.0 * eta))
    table = default_tables[k]

    def integrand(t):
        gauss = math.exp(-0.5 * (t / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        return gauss * table.evaluate(x - t)

    conv, _ = integrate.quad(integrand, -8.0 * sigma, 8.0 * sigma, limit=300)
    direct = conv - table.evaluate(x)
    assert np.isclose(smear_error_kernel(k, x, eta), direct, atol=5e-6)


def test_smear_error_kernel_rejects_bad_efficiency():
    with pytest.raises(ValueError):
        smear_error_kernel(1, 0.5, 0.0)
    with pytest.raises(ValueError):
        smear_error_kernel(1, 0.5, 1.1)


def test_build_table_respects_grid_step():
    table = build_kernel_table(KernelSpec(k=1), grid_step=0.05)
    steps = np.diff(table.grid)
    assert np.allclose(steps, 0.05, atol=1e-12)
    assert table.grid[0] == -table.spec.x0
    assert table.grid[-1] == table.spec.x0


def test_default_grid_step_value():
    assert DEFAULT_GRID_STEP == 0.005


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@given(
    k=st.integers(1, 8),
    xs=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=50),
    nodes=st.lists(st.integers(0, 1600), max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_table_lookup_is_bit_identical_to_interp(k, xs, nodes, default_tables):
    table = default_tables[k]
    x0 = table.spec.x0
    x = np.concatenate([
        xs,
        table.grid[nodes],
        np.nextafter(table.grid[nodes], np.inf),
        np.nextafter(table.grid[nodes], -np.inf),
        [x0, -x0, table.grid[-1], table.grid[0], np.nextafter(x0, 0.0),
         np.nextafter(x0, 9.0), -np.nextafter(x0, 9.0), 7.5, -11.0],
    ])
    assert np.array_equal(bits(table.evaluate(x)),
                          bits(interp_table_value(table, x)))


def test_text_round_trip_of_off_uniform_grid_matches_interp():
    table = build_kernel_table(KernelSpec(k=2), grid_step=0.0013)
    clone = KernelTable.from_text(table.to_text())
    # %.6f nodes sit off the uniform lattice by up to 5e-7
    assert np.max(np.abs(clone.grid - table.grid)) > 1e-8
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(-4.5, 4.5, 20000), clone.grid,
                        np.nextafter(clone.grid, np.inf),
                        np.nextafter(clone.grid, -np.inf)])
    assert np.array_equal(bits(clone.evaluate(x)),
                          bits(interp_table_value(clone, x)))


def test_table_rejects_grid_off_the_uniform_lattice(default_tables):
    table = default_tables[1]
    grid = table.grid.copy()
    grid[700] += 0.3 * (grid[1] - grid[0])
    with pytest.raises(ValueError, match="grid node 700"):
        KernelTable(spec=table.spec, grid=grid, values=table.values,
                    classical_tail=table.classical_tail)
    text = table.to_text().replace("%.6f " % table.grid[3],
                                   "%.6f " % table.grid[2], 1)
    with pytest.raises(ValueError, match="grid node 3"):
        KernelTable.from_text(text)


@pytest.mark.parametrize("k", [1, 2])
def test_table_evaluate_of_non_finite_input(k, default_tables):
    out = default_tables[k].evaluate(np.array([np.nan, np.inf, -np.inf]))
    assert np.isnan(out[0])
    assert not np.any(np.isnan(out[1:]))

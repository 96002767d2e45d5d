"""Sampling kernels: closed forms, identities, tails, and tables.

The two load-bearing oracles here are independent of the series build:
the phase-average identity of the classical kernel (adaptive quadrature
around the e^{ik phi} circle) and the moment identity of the quantum
kernel (2 pi Int K_k psi_{n+k} psi_n dx = 1, integrated by scipy.quad
rather than the package's own panel rule).
"""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from _oracles import (expansion_coefficients, hurwitz_zeta_by_summation,
                      interp_table_value, mpmath_alt_sum, mpmath_f_inner_sum,
                      mpmath_integral_kernel, omega, psi_n)
from phasekit import kernels, textio
from phasekit.kernels import (
    DEFAULT_GRID_STEP,
    TABLE_COLUMNS,
    KernelSpec,
    KernelTable,
    build_kernel_table,
    classical_kernel,
    integral_kernel_k1,
    integral_kernel_k2,
    quantum_kernel,
    smear_error_kernel,
    smearing_sigma,
)


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
        lambda x: table.evaluate(x) * psi_n(n + k, x) * psi_n(n, x),
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
    pair = psi_n(n + k, shifted) * psi_n(n, shifted)
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


@pytest.mark.parametrize("k, closed", [(1, integral_kernel_k1),
                                      (2, integral_kernel_k2)])
@pytest.mark.parametrize("x", [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
def test_closed_integral_kernels_match_mpmath(k, closed, x):
    # scipy's hyp1f1 and i0 under a double-precision quad against the
    # same integrals in 20-digit mpmath: agreement to a few ulps of the
    # O(1) kernel values, far inside the 1e-4 of the series checks.
    assert abs(closed(x) - mpmath_integral_kernel(k, x)) < 1e-13


def test_closed_integral_kernels_have_the_kernel_parity():
    for x in (0.5, 1.7, 3.2):
        assert integral_kernel_k1(-x) == -integral_kernel_k1(x)
        assert integral_kernel_k2(-x) == integral_kernel_k2(x)
    assert integral_kernel_k1(0.0) == 0.0


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


@pytest.mark.parametrize("eta", [1.0, 0.8])
@pytest.mark.parametrize("k", range(1, 9))
def test_table_and_kernel_share_one_tail(k, eta):
    """At x0 and beyond, a table gives quantum_kernel's value bit for
    bit: both take the one tail formula with the same two numbers."""
    table = build_kernel_table(KernelSpec(k=k, eta=eta))
    x0 = table.spec.x0
    x = np.array([x0, x0 + 1e-9, 5.0, 40.0, np.inf])
    x = np.concatenate([x, -x])
    assert np.array_equal(bits(table.evaluate(x)),
                          bits(quantum_kernel(k, x, eta)))
    assert np.isnan(table.evaluate(np.nan))
    assert np.isnan(quantum_kernel(k, np.nan, eta))


def test_table_evaluate_matches_direct_series(default_tables):
    x = np.linspace(-3.9, 3.9, 27)
    for k in (1, 2):
        direct = quantum_kernel(k, x)
        assert np.allclose(default_tables[k].evaluate(x), direct, atol=2e-5)


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


@pytest.mark.parametrize("loose, exact", [
    (dict(k=2.0), dict(k=2)),
    (dict(k=1, l0=40.0), dict(k=1, l0=40)),
    (dict(k=3, f_truncation=1000.0), dict(k=3, f_truncation=1000)),
    (dict(k=1, x0="4"), dict(k=1, x0=4.0)),
    (dict(k="2", eta=np.float64(0.8)), dict(k=2, eta=0.8)),
])
def test_kernel_spec_stores_its_checked_values(loose, exact):
    spec = KernelSpec(**loose)
    assert spec == KernelSpec(**exact)
    assert [type(v) for v in (spec.k, spec.eta, spec.l0, spec.x0,
                              spec.f_truncation)] == [int, float, int,
                                                      float, int]
    got = build_kernel_table(spec, grid_step=0.05)
    want = build_kernel_table(KernelSpec(**exact), grid_step=0.05)
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("loose, exact", [
    (dict(k=1, x0="4"), dict(k=1, x0=4.0)),
    (dict(k=2.0, x0=np.float64(3.5)), dict(k=2, x0=3.5)),
])
def test_quantum_kernel_computes_with_its_checked_spec(loose, exact):
    x = np.array([-5.0, -4.0, -0.5, 0.0, 0.5, 3.49, 4.0, 6.0])
    got = quantum_kernel(loose.pop("k"), x, **loose)
    want = quantum_kernel(exact.pop("k"), x, **exact)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("x0", [math.inf, -math.inf, math.nan])
def test_kernel_spec_rejects_non_finite_x0(x0):
    with pytest.raises(ValueError,
                       match="x0 must be finite and > 0, not %r" % x0):
        KernelSpec(k=1, x0=x0)


@pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
def test_kernel_spec_rejects_non_finite_k(k):
    with pytest.raises(ValueError,
                       match=r"^k must be an integer >= 1, not %r$" % k):
        KernelSpec(k=k)


@pytest.mark.parametrize("step", [math.inf, -math.inf, math.nan, 0.0, -0.1])
def test_build_kernel_table_rejects_bad_grid_step(step):
    with pytest.raises(ValueError,
                       match="grid step must be finite and > 0, not %r"
                             % step):
        build_kernel_table(KernelSpec(k=1), grid_step=step)


@pytest.mark.parametrize("x0, step", [(4.0, 8.0), (4.0, 10.0), (1.0, 2.0)])
def test_build_kernel_table_refuses_a_step_with_no_node_inside_x0(x0, step):
    with pytest.raises(ValueError, match=r"^grid step %r leaves no table "
                       r"node inside x0 = %r" % (step, x0)):
        build_kernel_table(KernelSpec(k=1, x0=x0), grid_step=step)


def test_build_kernel_table_takes_the_largest_step_below_2_x0():
    table = build_kernel_table(KernelSpec(k=1), grid_step=7.99)
    assert table.grid.tolist() == [-4.0, 0.0, 4.0]


def test_smearing_sigma_is_the_lossy_detector_noise_width():
    assert smearing_sigma(1.0) == 0.0
    assert np.isclose(smearing_sigma(0.8), math.sqrt(0.125), rtol=1e-15)
    assert np.isclose(smearing_sigma(0.5), math.sqrt(0.5), rtol=1e-15)
    for eta in (0.0, -0.5, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"eta must lie in \(0, 1\]"):
            smearing_sigma(eta)


def test_angular_weight_closed_forms():
    z = np.linspace(0.0, 4.0, 9)
    assert np.allclose(omega(1, z), 2.0 * np.exp(-z), rtol=1e-10)
    assert np.allclose(
        omega(2, z),
        2.0 * np.pi * np.exp(-1.5 * z) * special.i0(0.5 * z),
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


def test_table_is_built_from_its_spec_and_grid_step_alone():
    spec = KernelSpec(k=2, x0=3.14159265)
    table = KernelTable(spec, 0.0013)
    assert (table.spec, table.grid_step) == (spec, 0.0013)
    assert repr(table) == "KernelTable(spec=%r, grid_step=0.0013)" % (spec,)
    grid = np.linspace(-spec.x0, spec.x0, 2 * round(spec.x0 / 0.0013) + 1)
    assert table.grid.tobytes() == grid.tobytes()
    assert table.values.tobytes() == quantum_kernel(
        2, grid, x0=spec.x0).tobytes()
    with pytest.raises(TypeError):
        KernelTable(spec=spec, grid=table.grid, values=table.values,
                    edge_gap=table.edge_gap, offset=table.offset)


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


@pytest.mark.parametrize("k", [1, 2])
def test_table_evaluate_of_non_finite_input(k, default_tables):
    out = default_tables[k].evaluate(np.array([np.nan, np.inf, -np.inf]))
    assert np.isnan(out[0])
    assert not np.any(np.isnan(out[1:]))


@pytest.mark.parametrize("k", [1, 2])
def test_table_evaluate_of_2d_input_is_the_raveled_result(k,
                                                          default_tables):
    table = default_tables[k]
    x = np.array([[np.nan, -np.inf, -7.5, -4.0, -1.234, -0.0],
                  [0.0, 0.001, 3.999, 4.0, 4.5, np.inf]])
    flat = bits(table.evaluate(x.ravel()))
    assert np.array_equal(bits(table.evaluate(x)), flat.reshape(x.shape))
    assert np.array_equal(bits(table.evaluate(x.T)),
                          flat.reshape(x.shape).T)


def test_tables_compare_and_hash_by_identity(default_tables):
    table = default_tables[1]
    clone = build_kernel_table(table.spec)
    assert table == table and table != clone
    assert hash(table) == hash(table)
    assert len({table, clone, table}) == 2


@pytest.mark.parametrize("eta", [1.0, 0.8])
@pytest.mark.parametrize("k", range(1, 9))
def test_table_text_ends_on_its_tail_rule(k, eta, tmp_path):
    # quantum_kernel switches to the tail at |x| = x0, so the last row of
    # a written table holds the tail rule its header states; the file
    # holds every node exactly, 3.14159265 included
    for x0, step in ((4.0, DEFAULT_GRID_STEP), (4.0, 0.0013),
                     (3.14159265, 0.0013)):
        spec = KernelSpec(k=k, eta=eta, x0=x0)
        table = build_kernel_table(spec, grid_step=step)
        path = tmp_path / "table.txt"
        kernels.save_table(table, path)
        art = textio.load(path, TABLE_COLUMNS)
        assert art.field("x0 =", float) == x0
        assert np.array_equal(art.rows, np.column_stack([table.grid,
                                                         table.values]))
        x, value = art.rows[-1]
        edge = kernels._tail_value(spec, table.edge_gap, x0)
        assert table.grid[-1] == x0 and x == x0
        assert abs(value - edge) <= 1e-9 * abs(edge)


@pytest.mark.parametrize("k", range(1, 9))
def test_alt_sum_is_bit_identical_to_mpmath(k):
    sums = kernels._alt_sums(k, 40)
    assert len(sums) == 41
    for l in range(41):
        assert sums[l] == mpmath_alt_sum(k, l), l


@given(k=st.integers(min_value=1, max_value=12),
       l=st.integers(min_value=0, max_value=60))
@settings(max_examples=60, deadline=None)
def test_alt_sum_sweep_is_bit_identical_to_mpmath(k, l):
    # S_l from the shortest table that holds it (the fewest digits) and
    # from the longest
    assert kernels._alt_sums(k, l)[l] == mpmath_alt_sum(k, l)
    assert kernels._alt_sums(k, 60)[l] == mpmath_alt_sum(k, l)


@pytest.mark.parametrize("truncation", [200, 1000])
def test_f_inner_sum_matches_mpmath_summation(truncation):
    for k in range(3, 13):
        for n in range(1, (k - 1) // 2 + 1):
            ref = mpmath_f_inner_sum(k, n, truncation)
            got = kernels._f_inner_sum(k, n, truncation)
            assert abs(got - ref) <= 1e-15 * abs(ref), (k, n)


def hurwitz_orders(k):
    """(a, n) of every F_k inner sum: its zeta values are at a + 0..3."""
    return [(0.5 * k - n + 1.0, n) for n in range(1, (k - 1) // 2 + 1)]


def em_remainder_bound(s, q):
    """_hurwitz_zeta's stated bound |B_10|/10! (s)_9 p^{-s-9},
    p = max(q, HURWITZ_EM_START), in 60-digit mpmath."""
    import mpmath

    p = max(q, kernels.HURWITZ_EM_START)
    with mpmath.workdps(60):
        return (mpmath.mpf(5) / 66 / mpmath.factorial(10)
                * mpmath.rf(s, 9) * mpmath.mpf(p) ** (-s - 9))


@pytest.mark.parametrize("truncation", [1, 2, 10, 200, 1000, 4000])
def test_hurwitz_zeta_is_within_its_stated_remainder(truncation):
    import mpmath

    orders = {a + i for k in range(3, 13) for a, _ in hurwitz_orders(k)
              for i in range(4)}
    q = truncation + 1
    for s in sorted(orders):
        with decimal.localcontext(decimal.Context(
                prec=kernels.HURWITZ_DPS)):
            got = kernels._hurwitz_zeta(s, q)
        ref = hurwitz_zeta_by_summation(s, q)
        with mpmath.workdps(60):
            err = abs(mpmath.mpf(str(got)) - ref)
            # the bound plus the rounding of 30-digit decimal arithmetic
            assert err <= em_remainder_bound(s, q) + 1e-28 * ref, (s, q)


def test_f_inner_sum_moves_by_at_most_its_stated_remainder():
    """Moving the cutoff T from 1000 to 4000 moves the sum by no more
    than its stated remainder at T = 1000, |d4| zeta(a+4, 1001)/(n-1)!,
    plus four ulps of the sum for its double rounding."""
    for k in range(3, 13):
        for a, n in hurwitz_orders(k):
            near = kernels._f_inner_sum(k, n, 1000)
            far = kernels._f_inner_sum(k, n, 4000)
            d4 = expansion_coefficients(k, n, 4)[4]
            zeta = float(hurwitz_zeta_by_summation(a + 4, 1001))
            remainder = abs(d4) * zeta / math.factorial(n - 1)
            assert abs(near - far) <= remainder + 4 * math.ulp(near), (k, n)


@pytest.fixture(scope="module")
def mpmath_tables():
    """Default tables for k = 1..8 at eta = 1 and 0.8 built on the
    mpmath series coefficients, with the coefficient caches emptied on
    the way in and out.  The build must call both oracles for every
    order that has the sum, or the tables would be compared with
    themselves."""
    cached = (kernels._alt_sums, kernels._f_inner_sum,
              kernels._series_weights, kernels._edge_fit)
    called = set()

    def alt_sums(k, l0):
        called.add(("alt", k))
        return tuple(mpmath_alt_sum(k, l) for l in range(l0 + 1))

    def f_inner_sum(k, n, truncation):
        called.add(("f", k))
        return mpmath_f_inner_sum(k, n, truncation)

    for fn in cached:
        fn.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_alt_sums", alt_sums)
        mp.setattr(kernels, "_f_inner_sum", f_inner_sum)
        tables = {(k, eta): build_kernel_table(KernelSpec(k=k, eta=eta))
                  for k in range(1, 9) for eta in (1.0, 0.8)}
    for fn in cached:
        fn.cache_clear()
    assert called == ({("alt", k) for k in range(1, 9)}
                      | {("f", k) for k in range(3, 9)})
    return tables


@pytest.mark.parametrize("eta", [1.0, 0.8])
@pytest.mark.parametrize("k", range(1, 9))
def test_table_matches_mpmath_coefficient_table(k, eta, mpmath_tables):
    ref = mpmath_tables[k, eta]
    table = build_kernel_table(KernelSpec(k=k, eta=eta))
    if k <= 2:
        # no F_k part, so only the bit-identical alternating sums enter
        assert np.array_equal(bits(table.values), bits(ref.values))
        assert (table.edge_gap, table.offset) == (ref.edge_gap, ref.offset)
    assert np.max(np.abs(table.values - ref.values)) <= 1e-12
    for name in ("edge_gap", "offset"):
        assert abs(getattr(table, name) - getattr(ref, name)) <= 1e-12

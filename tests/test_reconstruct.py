"""Phase-distribution reconstruction: synthesis, least squares, files.

The central mathematical fact exercised here: at reg_lambda = 0 the
moment equations plus normalization form a consistent underdetermined
system whose minimum-norm solution is exactly the truncated Fourier
synthesis, for any moment values and any positive error bars.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit.estimator import MomentEstimate
from phasekit.reconstruct import (
    PhaseDistribution,
    check_grid,
    chi_squared,
    fourier_reconstruct,
    least_squares_reconstruct,
    load_distribution,
    save_distribution,
)
from phasekit.states import StateSpec, build_state, exact_moments, exact_phase_dist

from _oracles import mpmath_least_squares, total_variation


def as_estimates(values, sigmas=None, n_phases=64):
    if sigmas is None:
        sigmas = [1e-3] * len(values)
    return [
        MomentEstimate(k=i + 1, value=complex(v), var_re=s * s, var_im=s * s,
                       n_phases=n_phases, compensated=False, eta_assumed=1.0)
        for i, (v, s) in enumerate(zip(values, sigmas))
    ]


def synthesize(moments, K, phi):
    acc = np.ones_like(phi)
    for m in moments[:K]:
        acc = acc + 2.0 * (m.value.real * np.cos(m.k * phi)
                           + m.value.imag * np.sin(m.k * phi))
    return acc / (2.0 * np.pi)


def test_distribution_validation():
    grid = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    with pytest.raises(ValueError):
        PhaseDistribution(grid=grid, values=np.ones(8), method="fourier",
                          K_used=2)
    with pytest.raises(ValueError):
        PhaseDistribution(grid=grid, values=np.ones(16), method="spline",
                          K_used=2)
    with pytest.raises(ValueError, match="at least one point"):
        PhaseDistribution(grid=np.empty(0), values=np.empty(0),
                          method="fourier", K_used=0)


@pytest.mark.parametrize("field, value, message", [
    ("reg_lambda", math.nan, "reg_lambda must be finite and >= 0, not nan"),
    ("reg_lambda", -1.0, "reg_lambda must be finite and >= 0, not -1.0"),
    ("reg_lambda", math.inf, "reg_lambda must be finite and >= 0, not inf"),
    ("K_used", -3, "K_used must be an integer >= 0, not -3"),
    ("K_used", 2.7, "K_used must be an integer >= 0, not 2.7"),
    ("K_used", -0.5, "K_used must be an integer >= 0, not -0.5"),
    ("K_used", math.inf, "K_used must be an integer >= 0, not inf"),
])
def test_distribution_rejects_bad_header_values(field, value, message):
    kwargs = dict(grid=np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False),
                  values=np.full(8, 0.5 / math.pi), method="fourier",
                  K_used=2)
    kwargs[field] = value
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        PhaseDistribution(**kwargs)


def test_least_squares_rejects_non_finite_penalty():
    moments = as_estimates([0.2, 0.1])
    for reg_lambda in (math.nan, math.inf):
        with pytest.raises(ValueError, match="reg_lambda must be finite"):
            least_squares_reconstruct(moments, 2, 64, reg_lambda=reg_lambda)


def test_zero_moments_give_uniform_distribution():
    moments = as_estimates([0.0, 0.0, 0.0])
    for dist in (
        fourier_reconstruct(moments, 3, 64),
        least_squares_reconstruct(moments, 3, 64, reg_lambda=10.0),
    ):
        assert np.allclose(dist.values, 1.0 / (2.0 * math.pi), atol=1e-12)
        assert np.isclose(dist.norm(), 1.0, atol=1e-12)


def test_fourier_rejects_sparse_grid():
    moments = as_estimates([0.1, 0.0, 0.0])
    with pytest.raises(ValueError, match="M > 2K"):
        fourier_reconstruct(moments, 3, 6)


@pytest.mark.parametrize("method, K, M", [
    ("fourier", 3, 7), ("fourier", 0, 1), ("least_squares", 1, 8),
    ("least_squares", 4, 32),
])
def test_check_grid_accepts_the_smallest_resolving_grid(method, K, M):
    check_grid(method, K, M)


@pytest.mark.parametrize("method, K, M, message", [
    ("fourier", 3, 6, "M > 2K"),
    ("fourier", 0, 0, "M > 2K"),
    ("least_squares", 0, 64, "K >= 1"),
    ("least_squares", 1, 7, "M >= 8K"),
    ("least_squares", 4, 31, "M >= 8K"),
    ("lsq", 2, 64, "method must be one of"),
])
def test_check_grid_rejections(method, K, M, message):
    with pytest.raises(ValueError, match=message):
        check_grid(method, K, M)


def test_missing_orders_are_listed():
    moments = as_estimates([0.1, 0.05])
    with pytest.raises(ValueError, match="k = 3, 4"):
        fourier_reconstruct(moments, 4, 64)


def test_fourier_matches_exact_phase_distribution(rho_squeezed):
    moments = [
        MomentEstimate(k=k, value=exact_moments(rho_squeezed, k),
                       var_re=1e-6, var_im=1e-6, n_phases=64,
                       compensated=False, eta_assumed=1.0)
        for k in range(1, 21)
    ]
    dist = fourier_reconstruct(moments, 20, 256)
    exact = exact_phase_dist(rho_squeezed, dist.grid)
    assert np.max(np.abs(dist.values - exact)) < 1e-10
    assert np.isclose(dist.norm(), 1.0, atol=1e-12)


def test_fourier_is_periodic(rho_squeezed):
    moments = [
        MomentEstimate(k=k, value=exact_moments(rho_squeezed, k),
                       var_re=1e-6, var_im=1e-6, n_phases=64,
                       compensated=False, eta_assumed=1.0)
        for k in range(1, 5)
    ]
    dist = fourier_reconstruct(moments, 4, 64)
    wrapped = synthesize(moments, 4, dist.grid + 2.0 * math.pi)
    assert np.allclose(dist.values, wrapped, atol=1e-12)


def test_fourier_is_linear_in_the_harmonics():
    rng = np.random.default_rng(5)
    m1 = as_estimates(rng.normal(size=4) * 0.2 + 1j * rng.normal(size=4) * 0.2)
    m2 = as_estimates(rng.normal(size=4) * 0.2 + 1j * rng.normal(size=4) * 0.2)
    combo = as_estimates([0.7 * a.value + 1.8 * b.value
                          for a, b in zip(m1, m2)])
    uniform = 1.0 / (2.0 * math.pi)
    d1 = fourier_reconstruct(m1, 4, 64).values - uniform
    d2 = fourier_reconstruct(m2, 4, 64).values - uniform
    dc = fourier_reconstruct(combo, 4, 64).values - uniform
    assert np.allclose(dc, 0.7 * d1 + 1.8 * d2, atol=1e-12)


def test_propagated_error_bounds_fourier_deviation(rho_squeezed):
    # Perturb exact moments by seeded Gaussian noise scaled to the error
    # bars; the sup distance between noisy and exact syntheses obeys the
    # triangle bound sum_k 2(|dRe_k| + |dIm_k|) / (2 pi), and with all
    # draws inside four sigma also the four-sigma budget built from the
    # error bars alone.
    rng = np.random.default_rng(12)
    K, M = 8, 256
    sigma = 0.02
    exact = []
    noisy = []
    triangle = 0.0
    budget = 0.0
    for k in range(1, K + 1):
        value = exact_moments(rho_squeezed, k)
        d_re = sigma * rng.normal()
        d_im = sigma * rng.normal()
        exact.append(MomentEstimate(k=k, value=value, var_re=sigma**2,
                                    var_im=sigma**2, n_phases=64,
                                    compensated=False, eta_assumed=1.0))
        noisy.append(MomentEstimate(k=k, value=value + complex(d_re, d_im),
                                    var_re=sigma**2, var_im=sigma**2,
                                    n_phases=64, compensated=False,
                                    eta_assumed=1.0))
        assert abs(d_re) < 4.0 * sigma and abs(d_im) < 4.0 * sigma
        triangle += 2.0 * (abs(d_re) + abs(d_im)) / (2.0 * math.pi)
        budget += 2.0 * 4.0 * (sigma + sigma) / (2.0 * math.pi)
    sup = np.max(np.abs(fourier_reconstruct(noisy, K, M).values
                        - fourier_reconstruct(exact, K, M).values))
    assert sup <= triangle + 1e-15
    assert sup <= budget


@given(
    seed=st.integers(0, 10**6),
    k_top=st.integers(1, 6),
    log_sigma=st.floats(-4.0, -0.5),
)
@settings(max_examples=40, deadline=None)
def test_minimum_norm_least_squares_equals_fourier(seed, k_top, log_sigma):
    rng = np.random.default_rng(seed)
    values = 0.4 * (rng.normal(size=k_top) + 1j * rng.normal(size=k_top))
    sigmas = 10.0 ** log_sigma * (1.0 + rng.random(k_top))
    moments = as_estimates(values, sigmas)
    M = 8 * k_top + 8
    ls = least_squares_reconstruct(moments, k_top, M, reg_lambda=0.0)
    fr = fourier_reconstruct(moments, k_top, M)
    assert np.array_equal(ls.values, fr.values)
    assert np.isclose(ls.norm(), 1.0, atol=1e-9)


@pytest.mark.parametrize("reg_lambda", [1e-12, 1e-6, 1e-2, 1.0, 1e3])
@pytest.mark.parametrize("M, K", [(24, 3), (32, 4), (33, 4)])
def test_least_squares_matches_a_high_precision_dense_solve(M, K,
                                                            reg_lambda):
    rng = np.random.default_rng(M)
    values = 0.4 * (rng.normal(size=K) + 1j * rng.normal(size=K))
    sigmas = 10.0 ** rng.uniform(-3.0, -1.0, size=(K, 2))
    moments = [
        MomentEstimate(k=k, value=complex(v), var_re=s_re**2,
                       var_im=s_im**2, n_phases=64, compensated=False,
                       eta_assumed=1.0)
        for k, v, (s_re, s_im) in zip(range(1, K + 1), values, sigmas)
    ]
    references = mpmath_least_squares(moments, M, reg_lambda)
    for normalize, reference in zip((True, False), references):
        got = least_squares_reconstruct(moments, K, M, reg_lambda=reg_lambda,
                                        normalize=normalize).values
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(got - reference)) <= 1e-13 * scale


@pytest.mark.parametrize("reg_lambda", [0.0, 1e-2])
@pytest.mark.parametrize("part", ["var_re", "var_im"])
def test_least_squares_drops_a_part_of_infinite_variance(part, reg_lambda):
    # a part with infinite variance has zero weight in the fit, so it
    # acts as that part read as 0 with any finite error bar
    values = [0.3 - 0.2j, -0.25 + 0.15j, 0.1 + 0.05j]
    dropped = as_estimates(values, [0.01] * 3)
    zeroed = as_estimates(values, [0.01] * 3)
    dropped[1] = replace(dropped[1], **{part: math.inf})
    v = zeroed[1].value
    kept = complex(v.real, 0.0) if part == "var_im" else complex(0.0, v.imag)
    zeroed[1] = replace(zeroed[1], value=kept)
    ls = least_squares_reconstruct(dropped, 3, 32, reg_lambda=reg_lambda)
    assert np.array_equal(
        ls.values,
        least_squares_reconstruct(zeroed, 3, 32, reg_lambda=reg_lambda).values,
    )


def test_least_squares_rejections():
    moments = as_estimates([0.2, 0.1])
    with pytest.raises(ValueError, match="M >= 8K"):
        least_squares_reconstruct(moments, 2, 15)
    with pytest.raises(ValueError, match="normalization"):
        least_squares_reconstruct(moments, 2, 64, reg_lambda=0.0,
                                  normalize=False)
    with pytest.raises(ValueError):
        least_squares_reconstruct(moments, 2, 64, reg_lambda=-1.0)
    bad = as_estimates([0.2, 0.1])
    bad[1] = MomentEstimate(k=2, value=0.1 + 0j, var_re=0.0, var_im=1e-6,
                            n_phases=64, compensated=False, eta_assumed=1.0)
    with pytest.raises(ValueError, match="nonpositive variance"):
        least_squares_reconstruct(bad, 2, 64)


def test_unnormalized_penalized_solution_is_mean_free(rho_squeezed):
    moments = [
        MomentEstimate(k=k, value=exact_moments(rho_squeezed, k),
                       var_re=1e-6, var_im=1e-6, n_phases=64,
                       compensated=False, eta_assumed=1.0)
        for k in range(1, 5)
    ]
    dist = least_squares_reconstruct(moments, 4, 64, reg_lambda=1e-12,
                                     normalize=False)
    # nothing pins the constant mode, so the minimum-norm solution drops
    # it; adding the uniform level back recovers the Fourier synthesis
    assert abs(dist.norm()) < 1e-9
    fr = fourier_reconstruct(moments, 4, 64)
    lifted = dist.values + 1.0 / (2.0 * math.pi)
    assert np.max(np.abs(lifted - fr.values)) < 1e-6


def test_regularization_trades_fit_for_smoothness(rho_squeezed):
    rng = np.random.default_rng(3)
    sigma = 0.02
    moments = [
        MomentEstimate(
            k=k,
            value=exact_moments(rho_squeezed, k)
            + sigma * complex(rng.normal(), rng.normal()),
            var_re=sigma**2, var_im=sigma**2, n_phases=64,
            compensated=False, eta_assumed=1.0,
        )
        for k in range(1, 9)
    ]
    lambdas = [0.0, 1e-2, 1.0, 1e2, 1e4]
    chis = []
    tvs = []
    for lam in lambdas:
        dist = least_squares_reconstruct(moments, 8, 128, reg_lambda=lam)
        assert np.isclose(dist.norm(), 1.0, atol=1e-6)
        chis.append(chi_squared(dist, moments, 8))
        tvs.append(total_variation(dist))
    assert chis[0] < 1e-18
    for lo, hi in zip(chis[:-1], chis[1:]):
        assert hi >= lo - 1e-12
    for lo, hi in zip(tvs[:-1], tvs[1:]):
        assert hi <= lo + 1e-12


def test_total_variation_of_single_harmonic():
    c = 0.3
    dist = fourier_reconstruct(as_estimates([c]), 1, 256)
    assert np.isclose(total_variation(dist), 4.0 * c / math.pi, atol=1e-3)
    flat = fourier_reconstruct(as_estimates([0.0]), 1, 256)
    assert total_variation(flat) < 1e-15


def test_chi_squared_of_matching_distribution_vanishes():
    rng = np.random.default_rng(9)
    moments = as_estimates(0.3 * (rng.normal(size=5) + 1j * rng.normal(size=5)))
    dist = fourier_reconstruct(moments, 5, 128)
    assert chi_squared(dist, moments, 5) < 1e-18
    uniform = fourier_reconstruct(as_estimates([0.0] * 5), 5, 128)
    expected = sum(
        (m.value.real**2 + m.value.imag**2) / 1e-6 for m in moments
    )
    assert np.isclose(chi_squared(uniform, moments, 5), expected, rtol=1e-10)


def test_distribution_file_round_trip(tmp_path, rho_squeezed):
    moments = [
        MomentEstimate(k=k, value=exact_moments(rho_squeezed, k),
                       var_re=1e-6, var_im=1e-6, n_phases=64,
                       compensated=False, eta_assumed=1.0)
        for k in range(1, 5)
    ]
    dist = least_squares_reconstruct(moments, 4, 64, reg_lambda=0.5)
    path = tmp_path / "distribution.txt"
    save_distribution(dist, path, header_lines=("config: 17",))
    assert "# config: 17" in path.read_text()
    loaded = load_distribution(path)
    assert loaded.method == dist.method
    assert loaded.K_used == dist.K_used
    assert loaded.reg_lambda == dist.reg_lambda
    assert np.allclose(loaded.grid, dist.grid, atol=1e-15)
    assert np.allclose(loaded.values, dist.values, rtol=1e-14, atol=1e-18)


def test_distribution_loader_rejects_bad_rows(tmp_path):
    dist = fourier_reconstruct(as_estimates([0.2]), 1, 16)
    path = tmp_path / "distribution.txt"
    save_distribution(dist, path)
    lines = path.read_text().splitlines()
    lines[-1] = "0.5 0.1 0.9"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="phi P"):
        load_distribution(path)


def test_distribution_loader_checks_row_count(tmp_path):
    dist = fourier_reconstruct(as_estimates([0.2]), 1, 16)
    path = tmp_path / "distribution.txt"
    save_distribution(dist, path)
    lines = path.read_text().splitlines()
    del lines[-1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_distribution(path)


@pytest.mark.parametrize("bad", ["grid", "values"])
@pytest.mark.parametrize("token", [math.nan, math.inf, -math.inf])
def test_distribution_rejects_non_finite_points(bad, token):
    arrays = dict(grid=np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False),
                  values=np.full(8, 0.5 / math.pi))
    arrays[bad][3] = token
    with pytest.raises(ValueError, match="non-finite point"):
        PhaseDistribution(method="fourier", K_used=2, **arrays)


def test_distribution_file_without_rows_names_its_M_line(tmp_path):
    path = tmp_path / "distribution.txt"
    path.write_text("# method: fourier\n# K: 0\n# M: 0\n# reg_lambda: 0\n")
    with pytest.raises(ValueError, match="^line 3: bad M value '0': M must "
                                         "be an integer >= 1, not '0'$"):
        load_distribution(path)


def test_distribution_file_with_phi_off_the_grid_names_the_line(tmp_path):
    # the norm is a Riemann sum on phi_m = 2 pi m / M, so another phi
    # column would be summed as if it were that grid
    path = tmp_path / "distribution.txt"
    path.write_text("# method: fourier\n# K: 0\n# M: 4\n# reg_lambda: 0\n"
                    "5 0.1\n1 0.2\n-3 0.3\n0.5 0.4\n")
    with pytest.raises(ValueError,
                       match=r"^line 5: phi 5 does not match grid point 0 "
                             r"\(0\)$"):
        load_distribution(path)


@pytest.mark.parametrize("offset, loads", [(0.9e-9, True), (1.1e-9, False)])
def test_distribution_file_phi_tolerance_is_1e_9(tmp_path, offset, loads):
    phi = 2.0 * np.pi * np.arange(4) / 4 + np.array([0, 1, -1, 1]) * offset
    path = tmp_path / "distribution.txt"
    path.write_text("# method: fourier\n# K: 0\n# M: 4\n# reg_lambda: 0\n"
                    + "".join("%.17g 0.15\n" % p for p in phi))
    if loads:
        assert load_distribution(path).n_grid == 4
    else:
        with pytest.raises(ValueError, match="^line 6: phi "):
            load_distribution(path)


def test_distribution_file_with_non_finite_rows_names_the_line(tmp_path):
    path = tmp_path / "distribution.txt"
    path.write_text("# method: fourier\n# K: 0\n# M: 2\n# reg_lambda: 0\n"
                    "0 nan\n3.14 inf\n")
    with pytest.raises(ValueError, match="line 5: non-finite point"):
        load_distribution(path)

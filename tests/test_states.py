"""Reference states: construction, quadrature distributions, exact moments.

Oracles: closed-form photon statistics (Poisson, squeezed-vacuum and
displaced-Fock expressions), the Gaussian quadrature distribution of
coherent states, and adaptive quadrature for the Fourier link between
the phase distribution and the exponential moments.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from _oracles import quadratic_form_pdf
from phasekit.states import (
    DensityMatrix,
    StateSpec,
    build_state,
    exact_moments,
    exact_phase_dist,
    harmonic_density,
    quadrature_harmonics,
    quadrature_pdf,
)


def random_low_rank_state(seed, n_max=12, rank=3):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_max + 1, rank)) + 1j * rng.normal(size=(n_max + 1, rank))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho).real
    return DensityMatrix(n_max=n_max, elements=rho)


def test_state_spec_validation():
    with pytest.raises(ValueError):
        StateSpec(kind="thermal")
    with pytest.raises(ValueError):
        StateSpec(kind="fock", fock_n=-1)
    with pytest.raises(ValueError):
        StateSpec(kind="vacuum", n_max=-2)


def test_density_matrix_rejects_unphysical_input():
    good = np.eye(3) / 3.0
    with pytest.raises(ValueError):
        DensityMatrix(n_max=1, elements=good)
    bad_herm = good.astype(complex).copy()
    bad_herm[0, 1] = 0.5j
    with pytest.raises(ValueError):
        DensityMatrix(n_max=2, elements=bad_herm)
    with pytest.raises(ValueError):
        DensityMatrix(n_max=2, elements=2.0 * good)
    bad_psd = np.diag([0.8, 0.4, -0.2]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix(n_max=2, elements=bad_psd)


def test_from_pure_normalizes():
    rho = DensityMatrix.from_pure([3.0, 4.0])
    assert np.isclose(rho.elements[0, 0].real, 0.36, atol=1e-14)
    assert np.isclose(np.trace(rho.elements).real, 1.0, atol=1e-14)
    with pytest.raises(ValueError):
        DensityMatrix.from_pure([0.0, 0.0])


def test_vacuum_state_is_ground_projector():
    rho = build_state(StateSpec(kind="vacuum", n_max=5))
    expected = np.zeros((6, 6))
    expected[0, 0] = 1.0
    assert np.allclose(rho.elements, expected, atol=1e-15)


def test_fock_state_is_number_projector():
    rho = build_state(StateSpec(kind="fock", fock_n=3, n_max=8))
    assert np.isclose(rho.elements[3, 3].real, 1.0, atol=1e-14)
    assert np.isclose(rho.mean_photon_number(), 3.0, atol=1e-13)


def test_coherent_photon_statistics_are_poisson(rho_coherent_unit):
    n = np.arange(26)
    poisson = np.exp(-1.0) / special.factorial(n)
    assert np.allclose(np.diag(rho_coherent_unit.elements).real, poisson,
                       atol=1e-12)


def test_coherent_first_moment_matches_direct_series(rho_coherent_unit):
    # Psi_1 = e^{-|a|^2} sum_n a |a|^{2n} / (n! sqrt(n+1)) for coherent a.
    direct = sum(
        math.exp(-1.0) / (math.factorial(n) * math.sqrt(n + 1.0))
        for n in range(26)
    )
    value = exact_moments(rho_coherent_unit, 1)
    assert np.isclose(value.real, direct, atol=1e-12)
    assert abs(value.imag) < 1e-14


def test_squeezed_vacuum_mean_photon_number():
    spec = StateSpec(kind="squeezed_vacuum", squeeze=-1.31, n_max=90)
    rho = build_state(spec)
    assert np.isclose(rho.mean_photon_number(), math.sinh(1.31) ** 2,
                      rtol=1e-4)


def test_squeezed_vacuum_truncation_renormalizes(rho_squeezed):
    assert np.isclose(np.trace(rho_squeezed.elements).real, 1.0, atol=1e-12)
    assert np.isclose(rho_squeezed.mean_photon_number(), 2.6513, atol=1e-3)


def test_squeezed_vacuum_occupies_even_levels_only(rho_squeezed):
    occupations = np.diag(rho_squeezed.elements).real
    assert np.all(occupations[1::2] < 1e-14)


def test_displaced_fock_mean_photon_number(rho_displaced_fock):
    # |alpha|^2 + fock_n = 4.25 before truncation; leakage past n_max=20
    # is below 1e-9 so the truncated value matches to 1e-7.
    assert np.isclose(rho_displaced_fock.mean_photon_number(), 4.25,
                      atol=1e-7)


def test_displaced_fock_matches_laguerre_closed_form(rho_displaced_fock):
    # <n|D(alpha)|m> = sqrt(m!/n!) alpha^{n-m} e^{-|alpha|^2/2}
    #                  L_m^{(n-m)}(|alpha|^2)  for n >= m.
    alpha = -1.5
    m = 2
    a2 = alpha * alpha
    c = np.zeros(21)
    for n in range(2, 21):
        c[n] = (
            math.exp(0.5 * (math.lgamma(m + 1) - math.lgamma(n + 1)))
            * alpha ** (n - m)
            * math.exp(-0.5 * a2)
            * special.eval_genlaguerre(m, n - m, a2)
        )
    # n < m branch carries (-conj(alpha))^{m-n} and L_n^{(m-n)}
    for n in range(m):
        c[n] = (
            math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1)))
            * (-alpha) ** (m - n)
            * math.exp(-0.5 * a2)
            * special.eval_genlaguerre(n, m - n, a2)
        )
    outer = np.outer(c, c)
    assert np.allclose(rho_displaced_fock.elements.real, outer, atol=1e-9)
    assert np.max(np.abs(rho_displaced_fock.elements.imag)) < 1e-12


def test_build_state_raises_on_truncation_leakage():
    spec = StateSpec(kind="squeezed_vacuum", squeeze=-1.31, n_max=20)
    with pytest.raises(ValueError):
        build_state(spec)
    with pytest.raises(ValueError):
        build_state(StateSpec(kind="fock", fock_n=25, n_max=20))


def test_vacuum_quadrature_pdf_is_unit_gaussian():
    rho = build_state(StateSpec(kind="vacuum", n_max=4))
    x = np.linspace(-4.0, 4.0, 81)
    for theta in (0.0, 1.3):
        assert np.allclose(quadrature_pdf(rho, x, theta),
                           np.exp(-x * x) / math.sqrt(math.pi), atol=1e-12)


def test_fock_quadrature_pdf_closed_form():
    rho = build_state(StateSpec(kind="fock", fock_n=1, n_max=4))
    x = np.linspace(-4.0, 4.0, 41)
    expected = 2.0 * x * x * np.exp(-x * x) / math.sqrt(math.pi)
    assert np.allclose(quadrature_pdf(rho, x, 0.7), expected, atol=1e-12)


def test_coherent_quadrature_mean_tracks_phase(rho_coherent_unit):
    x = np.arange(-8.0, 8.0, 0.01)
    for theta in (0.0, 0.9, 2.4):
        pdf = quadrature_pdf(rho_coherent_unit, x, theta)
        mean = np.trapezoid(x * pdf, x)
        var = np.trapezoid((x - mean) ** 2 * pdf, x)
        assert np.isclose(mean, math.sqrt(2.0) * math.cos(theta), atol=1e-9)
        assert np.isclose(var, 0.5, atol=1e-9)


@given(seed=st.integers(0, 10**6), theta=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=25, deadline=None)
def test_quadrature_pdf_nonnegative_and_normalized(seed, theta):
    rho = random_low_rank_state(seed)
    x = np.arange(-9.0, 9.0, 0.01)
    pdf = quadrature_pdf(rho, x, theta)
    assert np.all(pdf >= 0.0)
    assert np.isclose(np.trapezoid(pdf, x), 1.0, atol=1e-6)


@given(seed=st.integers(0, 10**6), theta=st.floats(0.0, 2.0 * math.pi))
@settings(max_examples=25, deadline=None)
def test_quadrature_pdf_half_turn_reflection(seed, theta):
    rho = random_low_rank_state(seed)
    x = np.linspace(-6.0, 6.0, 61)
    left = quadrature_pdf(rho, x, theta + math.pi)
    right = quadrature_pdf(rho, -x, theta)
    assert np.allclose(left, right, atol=1e-12)


amplitudes = st.builds(
    complex,
    st.floats(-1.5, 1.5),
    st.floats(-1.5, 1.5),
)
any_state = st.one_of(
    st.builds(StateSpec, kind=st.just("vacuum")),
    st.builds(StateSpec, kind=st.just("fock"), fock_n=st.integers(0, 12)),
    st.builds(StateSpec, kind=st.just("coherent"), alpha=amplitudes),
    st.builds(StateSpec, kind=st.just("squeezed_vacuum"),
              squeeze=st.builds(complex, st.floats(-1.0, 1.0),
                                st.floats(-1.0, 1.0))),
    st.builds(StateSpec, kind=st.just("displaced_fock"), alpha=amplitudes,
              fock_n=st.integers(0, 4)),
)


@given(spec=any_state, theta=st.floats(-2.0 * math.pi, 4.0 * math.pi))
@settings(max_examples=40, deadline=None)
def test_harmonic_density_matches_quadratic_form(spec, theta):
    rho = build_state(spec, capture_tol=1.0)
    x = np.linspace(-11.0, 11.0, 1101)
    harmonic = harmonic_density(quadrature_harmonics(rho, x), theta)
    reference = quadratic_form_pdf(rho, x, theta)
    # values below -1e-12 pass the clamp unchanged, so a nonnegative
    # result shows the clamp only ever saw round-off
    assert harmonic.min() >= 0.0
    assert np.max(np.abs(harmonic - reference)) <= 1e-13 * reference.max()
    assert np.array_equal(quadrature_pdf(rho, x, theta), harmonic)


def test_exact_moments_basics(rho_squeezed):
    assert exact_moments(rho_squeezed, 0) == 1.0 + 0.0j
    k = 4
    assert exact_moments(rho_squeezed, -k) == np.conj(
        exact_moments(rho_squeezed, k)
    )
    assert exact_moments(rho_squeezed, 21) == 0.0j
    # squeezed vacuum populates even levels only, so odd moments vanish
    assert exact_moments(rho_squeezed, 1) == 0.0j
    assert abs(exact_moments(rho_squeezed, 3)) < 1e-15


def test_fock_moments_vanish():
    rho = build_state(StateSpec(kind="fock", fock_n=3, n_max=8))
    for k in range(1, 9):
        assert exact_moments(rho, k) == 0.0j


@given(seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_moment_magnitude_bounds(seed):
    rho = random_low_rank_state(seed)
    for k in range(1, 6):
        value = exact_moments(rho, k)
        diag_sum = np.sum(np.abs(np.diag(rho.elements, -k)))
        assert abs(value) <= diag_sum + 1e-12
        assert abs(value) <= 1.0 + 1e-12


@given(seed=st.integers(0, 10**6), shift=st.floats(-math.pi, math.pi))
@settings(max_examples=25, deadline=None)
def test_phase_rotation_covariance(seed, shift):
    rho = random_low_rank_state(seed)
    phases = np.exp(1j * shift * np.arange(rho.n_max + 1))
    rotated = DensityMatrix(
        n_max=rho.n_max,
        elements=phases[:, None] * rho.elements * phases[None, :].conj(),
    )
    for k in (1, 3):
        assert np.isclose(
            exact_moments(rotated, k),
            np.exp(1j * k * shift) * exact_moments(rho, k),
            atol=1e-12,
        )
    phi = np.linspace(0.0, 2.0 * math.pi, 17)
    assert np.allclose(
        exact_phase_dist(rotated, phi),
        exact_phase_dist(rho, phi - shift),
        atol=1e-12,
    )


def test_fock_phase_distribution_is_uniform():
    rho = build_state(StateSpec(kind="fock", fock_n=2, n_max=6))
    phi = np.linspace(0.0, 2.0 * math.pi, 33)
    assert np.allclose(exact_phase_dist(rho, phi), 1.0 / (2.0 * math.pi),
                       atol=1e-14)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_phase_distribution_nonnegative_and_normalized(seed):
    rho = random_low_rank_state(seed)
    m_grid = 128
    phi = 2.0 * math.pi * np.arange(m_grid) / m_grid
    values = exact_phase_dist(rho, phi)
    assert np.all(values >= -1e-14)
    # the rectangle rule is exact for trigonometric polynomials of
    # degree n_max < m_grid
    assert np.isclose(np.sum(values) * 2.0 * math.pi / m_grid, 1.0,
                      atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 7, 10])
def test_phase_distribution_fourier_link(k, rho_squeezed):
    re_val = integrate.quad(
        lambda p: math.cos(k * p) * exact_phase_dist(rho_squeezed, p),
        0.0, 2.0 * math.pi, limit=200,
    )[0]
    im_val = integrate.quad(
        lambda p: math.sin(k * p) * exact_phase_dist(rho_squeezed, p),
        0.0, 2.0 * math.pi, limit=200,
    )[0]
    assert abs(complex(re_val, im_val) - exact_moments(rho_squeezed, k)) < 1e-8


def test_density_matrix_text_dump(rho_coherent_unit):
    text = rho_coherent_unit.to_text()
    assert text.startswith("# density matrix, n_max = 25")
    assert "# columns: m n Re(rho_mn) Im(rho_mn)" in text
    row = text.splitlines()[2].split()
    assert int(row[0]) == 0 and int(row[1]) == 0
    assert np.isclose(float(row[2]), math.exp(-1.0), atol=1e-12)

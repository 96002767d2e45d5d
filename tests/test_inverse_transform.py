"""Guide-table inverse transform: byte identity with np.interp.

The simulator places each uniform draw in its CDF segment by indexed
search, whatever the number of draws, and then applies np.interp's
arithmetic; every sample must equal np.interp(u, cdf, xs) byte for
byte, from a single draw to many per CDF node and at the values where a
segment search can go wrong: u = 0, u just below 1, the guide's bucket
edges and the CDF nodes themselves, each +-1 ulp.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phasekit.simulator as sim
from _oracles import interp_sample_quadrature
from phasekit.simulator import (
    ExperimentPlan,
    _cdf_grid,
    _cdf_table,
    _inverse_transform,
    run_experiment,
    sample_quadrature,
)
from phasekit.states import StateSpec, build_state, quadrature_pdf

SQUEEZED = StateSpec(kind="squeezed_vacuum", squeeze=-1.31, n_max=20)

states = st.one_of(
    st.builds(StateSpec, kind=st.just("vacuum"), n_max=st.integers(0, 12)),
    st.builds(StateSpec, kind=st.just("fock"), fock_n=st.integers(0, 5),
              n_max=st.integers(5, 12)),
    st.builds(lambda a, phi: StateSpec(kind="coherent",
                                       alpha=a * np.exp(1j * phi),
                                       n_max=20),
              st.floats(0.0, 1.5), st.floats(0.0, 6.3)),
    st.builds(lambda r, phi: StateSpec(kind="squeezed_vacuum",
                                       squeeze=r * np.exp(1j * phi),
                                       n_max=20),
              st.floats(0.0, 1.31), st.floats(0.0, 6.3)),
    st.builds(lambda a: StateSpec(kind="displaced_fock", alpha=a,
                                  fock_n=1, n_max=20),
              st.floats(-1.0, 1.0)),
)


def cdf_table(spec, theta):
    rho = build_state(spec, capture_tol=0.5)
    grid = _cdf_grid(rho.n_max)
    return _cdf_table(grid, quadrature_pdf(rho, grid, theta))


def edge_draws(cdf):
    """u = 0, 1-, every bucket edge b/M and every CDF node, each +-1
    ulp, kept inside [0, 1)."""
    m = cdf.size
    points = np.concatenate(([0.0, 1.0], np.arange(m + 1) / m, cdf))
    u = np.concatenate((points, np.nextafter(points, -1.0),
                        np.nextafter(points, 2.0)))
    return u[(u >= 0.0) & (u < 1.0)]


def assert_bytes_equal(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(spec=states, theta=st.floats(0.0, 2.0 * np.pi),
       count=st.integers(1, 4000), seed=st.integers(0, 2 ** 32))
@settings(max_examples=30, deadline=None)
def test_guide_inverse_equals_interp_on_random_states(spec, theta, count,
                                                      seed):
    cdf, xs = cdf_table(spec, theta)
    u = np.random.default_rng(seed).random(count)
    assert_bytes_equal(_inverse_transform(u, cdf, xs),
                       np.interp(u, cdf, xs))
    edges = edge_draws(cdf)
    assert_bytes_equal(_inverse_transform(edges, cdf, xs),
                       np.interp(edges, cdf, xs))
    spread = edges[::97]
    for i in range(0, spread.size, 7):
        chunk = spread[i:i + 7]
        assert_bytes_equal(_inverse_transform(chunk, cdf, xs),
                           np.interp(chunk, cdf, xs))


@pytest.mark.parametrize("count", [1, 6, 319, 637, 638, 639, 2554, 12771])
def test_few_and_many_draws_per_node_match_interp(count):
    cdf, xs = cdf_table(SQUEEZED, 0.7)
    u = np.random.default_rng(count).random(count)
    assert_bytes_equal(_inverse_transform(u, cdf, xs),
                       np.interp(u, cdf, xs))


@pytest.mark.parametrize("count", [1, 10, 100])
def test_exact_node_hit_with_overflowing_slope_returns_the_node(count):
    # A subnormal first CDF step makes the slope overflow; np.interp
    # returns the node on an exact hit u == cdf[j] instead of inf * 0.
    cdf = np.concatenate(([0.0, 5e-324], np.linspace(1e-3, 1.0, 400)))
    xs = np.linspace(-3.0, 3.0, cdf.size)
    u = np.random.default_rng(count).random(count)
    u[0] = 0.0
    got = _inverse_transform(u, cdf, xs)
    assert_bytes_equal(got, np.interp(u, cdf, xs))
    assert got[0] == xs[0]


@pytest.mark.parametrize("count", [50, 700, 5000])
@pytest.mark.parametrize("spec", [
    SQUEEZED,
    StateSpec(kind="coherent", alpha=1.0, n_max=25),
    StateSpec(kind="displaced_fock", alpha=-1.5, fock_n=2, n_max=20),
])
def test_sample_quadrature_equals_interp_sampler(spec, count):
    rho = build_state(spec, capture_tol=0.05)
    got = sample_quadrature(rho, 1.1, count, np.random.default_rng(5))
    want = interp_sample_quadrature(rho, 1.1, count,
                                    np.random.default_rng(5))
    assert_bytes_equal(got, want)


@pytest.mark.parametrize("events, eta", [(3000, 1.0), (3000, 0.8),
                                         (300, 0.8)])
def test_run_experiment_records_equal_interp_records(monkeypatch, events,
                                                     eta):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=12, events=events,
                                  eta=eta, seed=23)
    got = run_experiment(plan, capture_tol=0.05)
    monkeypatch.setattr(sim, "_inverse_transform", np.interp)
    want = run_experiment(plan, capture_tol=0.05)
    for a, b in zip(got.records, want.records):
        assert_bytes_equal(a, b)

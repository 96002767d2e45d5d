"""Guide-table inverse transform of the sampled law, against bisection.

The simulator samples, in each CDF segment, the linear density through
the node values, rescaled to the segment's mass.  It places each
uniform draw u in its segment by indexed search, whatever the number of
draws, and inverts the segment's quadratic CDF in closed form.  Every
draw must agree with the extended-precision bisection oracle to within
one ulp: the draw x lies within one ulp of the oracle's quantile, or,
where x = x_j + t carries fewer digits than its own ulp (x close to 0,
where the sum cancels, or next to a node of zero density, where the
quantile is steep), the law's CDF at x lies within one ulp of u.  This
is checked from a single draw to many per CDF node, and at the values
where a segment search can go wrong: u = 0, u just below 1, the guide's
bucket edges and the CDF nodes themselves, each +-1 ulp.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phasekit.simulator as sim
from _oracles import bisection_quantiles, law_cdf
from phasekit.simulator import (
    ExperimentPlan,
    _cdf_table,
    _inverse_cdf_table,
    _quantiles,
    run_experiment,
    sample_quadrature,
)
from phasekit.states import StateSpec, build_state

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
    return _inverse_cdf_table(build_state(spec, capture_tol=0.5), theta)


def bump_table():
    """The density 315/256 (1 - x^2)^4 on [-1, 1], zero on the rest of
    [-2, 2]: the segments of its tails hold no mass."""
    grid = np.linspace(-2.0, 2.0, 2001)
    pdf = 315.0 / 256.0 * np.maximum(1.0 - grid * grid, 0.0) ** 4
    return _cdf_table(grid, pdf)


def edge_draws(cdf):
    """u = 0, 1-, every bucket edge b/M and every CDF node, each +-1
    ulp, kept inside [0, 1)."""
    m = cdf.size
    points = np.concatenate(([0.0, 1.0], np.arange(m + 1) / m, cdf))
    u = np.concatenate((points, np.nextafter(points, -1.0),
                        np.nextafter(points, 2.0)))
    return u[(u >= 0.0) & (u < 1.0)]


def assert_near_oracle(got, u, cdf, xs, pdf):
    """got, the draws for u, within one ulp of the bisection oracle in
    x or, failing that, in u, each drawn from a segment with mass."""
    want = bisection_quantiles(u, cdf, xs, pdf)
    j = np.searchsorted(cdf, u, "right") - 1
    assert (cdf[j] < cdf[j + 1]).all()
    near_x = ((got >= np.nextafter(want, -np.inf))
              & (got <= np.nextafter(want, np.inf)))
    near_u = (np.abs(law_cdf(got, j, cdf, xs, pdf) - u)
              <= np.spacing(u))
    bad = np.flatnonzero(~(near_x | near_u))
    assert bad.size == 0, (u[bad[:3]], got[bad[:3]], want[bad[:3]])


def check_draws(u, cdf, xs, pdf):
    assert_near_oracle(_quantiles(u, cdf, xs, pdf), u, cdf, xs, pdf)


@given(spec=states, theta=st.floats(0.0, 2.0 * np.pi),
       count=st.integers(1, 4000), seed=st.integers(0, 2 ** 32))
@settings(max_examples=30, deadline=None)
def test_guide_inverse_matches_bisection_on_random_states(spec, theta,
                                                          count, seed):
    cdf, (xs, pdf) = cdf_table(spec, theta)
    check_draws(np.random.default_rng(seed).random(count), cdf, xs, pdf)
    edges = edge_draws(cdf)
    check_draws(edges, cdf, xs, pdf)
    spread = edges[::97]
    for i in range(0, spread.size, 7):
        check_draws(spread[i:i + 7], cdf, xs, pdf)


@pytest.mark.parametrize("count", [1, 6, 319, 637, 638, 639, 2554, 12771])
def test_few_and_many_draws_per_node_match_bisection(count):
    cdf, (xs, pdf) = cdf_table(SQUEEZED, 0.7)
    check_draws(np.random.default_rng(count).random(count), cdf, xs, pdf)


def test_segments_without_mass_are_never_drawn():
    cdf, (xs, pdf) = bump_table()
    assert (np.diff(cdf) == 0.0).sum() > 900
    u = np.concatenate((edge_draws(cdf),
                        np.random.default_rng(3).random(20000)))
    got = _quantiles(u, cdf, xs, pdf)
    assert_near_oracle(got, u, cdf, xs, pdf)
    assert np.abs(got).max() <= 1.0


def test_degenerate_segments_draw_their_node_or_uniformly():
    # Segment 0 has no density at x = -1 and segment 2 none at either
    # node, so w = 0 in the first and every w in the last make the
    # closed form 0/0.  The draw is then the uniform one, x_j + w h:
    # on an exact hit u == c_j the node itself.
    cdf = np.array([0.0, 0.25, 0.5, 1.0])
    xs = np.array([-1.0, 0.0, 1.0, 2.0])
    pdf = np.array([0.0, 1.0, 0.0, 0.0])
    u = np.array([0.0, 0.25, 0.5, 0.75, 0.8, 0.1])
    got = _quantiles(u, cdf, xs, pdf)
    assert got[:5].tolist() == [-1.0, 0.0, 1.0, 1.5, 1.0 + 0.6]
    check_draws(u, cdf, xs, pdf)


@pytest.mark.parametrize("count", [50, 700, 5000])
@pytest.mark.parametrize("spec", [
    SQUEEZED,
    StateSpec(kind="coherent", alpha=1.0, n_max=25),
    StateSpec(kind="displaced_fock", alpha=-1.5, fock_n=2, n_max=20),
])
def test_sample_quadrature_matches_bisection(spec, count):
    rho = build_state(spec, capture_tol=0.05)
    got = sample_quadrature(rho, 1.1, count, np.random.default_rng(5))
    cdf, (xs, pdf) = _inverse_cdf_table(rho, 1.1)
    u = np.random.default_rng(5).random(count)
    assert_near_oracle(got, u, cdf, xs, pdf)


@pytest.mark.parametrize("events, eta", [(3000, 1.0), (3000, 0.8),
                                         (300, 0.8)])
def test_run_experiment_draws_match_bisection(monkeypatch, events, eta):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=12, events=events,
                                  eta=eta, seed=23)
    sizes = []

    def checked(u, cdf, xs, pdf, counts, out):
        got = _quantiles(u, cdf, xs, pdf, counts)
        ends = np.cumsum((0, *counts))
        for r, (a, b) in enumerate(zip(ends[:-1], ends[1:])):
            assert_near_oracle(got[a:b], u[a:b], cdf[r], xs, pdf[r])
        sizes.append(list(counts))
        out[...] = got
        return out

    monkeypatch.setattr(sim, "_quantiles", checked)
    run_experiment(plan, capture_tol=0.05)
    grid, _ = sim._state_sampler(SQUEEZED, 0.05)
    groups = list(sim._phase_groups(plan.events_per_phase,
                                    sim.GROUP_DRAWS // grid.size))
    assert len(sizes) == len(groups) == (3 if events == 3000 else 1)
    assert sum(sizes, []) == [events] * plan.n_phases

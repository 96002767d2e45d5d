"""The simulator's CDF-grid error bound and the step it picks.

The sampled law takes, in each segment of a step-h grid, the linear
density through the node values, rescaled to the segment's
Euler-Maclaurin mass.  Its Kolmogorov distance to the exact law is at
most C3(h) h^3 + C4 h^4 + 2 OUTSIDE_MASS_TOL, with

    C3(h) = max [|p''| / 6 (1 / (12 sqrt 3) + min(1/8, h |p'| / (16 p)))],
    C4 = max |p'''| / 36,

over x and the 4 (n_max + 1) phases, estimated on a coarse grid.  Each
state kind is sampled on the grid the simulator picks and compared, at
several phases, with the exact law on a reference grid of step 1e-4;
the coarse C3(h) and C4 are compared with their values on that
reference grid.
"""

import math

import numpy as np
import pytest

import phasekit.simulator as sim
from _oracles import law_cdf
from phasekit.states import (
    StateSpec,
    build_state,
    harmonic_density,
    quadrature_harmonics,
)

REF_STEP = 1.0e-4
# reference-grid points per harmonic build, which keeps memory small
CHUNK = 8192
PHASES = (0.0, 0.9, 0.5 * math.pi, 2.3, 4.0)

CASES = [
    (StateSpec(kind="vacuum", n_max=4), 1e-6),
    (StateSpec(kind="fock", fock_n=3, n_max=8), 1e-6),
    (StateSpec(kind="coherent", alpha=1.0, n_max=25), 1e-6),
    (StateSpec(kind="squeezed_vacuum", squeeze=-1.31, n_max=20), 0.05),
    (StateSpec(kind="displaced_fock", alpha=-1.5, fock_n=2, n_max=20), 1e-6),
]
IDS = [spec.kind for spec, _ in CASES]


def coefficients(p, h, step):
    """(C3(step), C4) from densities p, one row per phase, on a grid of
    step h, by central differences."""
    dp = (p[:, 2:] - p[:, :-2]) / (2.0 * h)
    d2p = np.diff(p, 2, axis=1) / (h * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.fmin(step * np.abs(dp) / (16.0 * p[:, 1:-1]), 0.125)
    c3 = np.max(np.abs(d2p) / 6.0 * (1.0 / (12.0 * math.sqrt(3.0)) + ratio))
    c4 = np.max(np.abs(np.diff(d2p, axis=1))) / h / 36.0
    return c3, c4


def reference_pass(rho, step):
    """(C3(step) and C4 on the reference grid at the simulator's phases,
    the reference grid, the exact CDF on it at each of PHASES).

    The density is built CHUNK points at a time; neighbouring chunks
    share three points, so every third difference is taken once.
    """
    x = sim._cdf_grid(rho.n_max, REF_STEP)
    h = x[1] - x[0]
    n_theta = 4 * (rho.n_max + 1)
    thetas = np.concatenate((2.0 * np.pi * np.arange(n_theta) / n_theta,
                             PHASES))
    c3 = c4 = 0.0
    pdf = np.empty((len(PHASES), x.size))
    for start in range(0, x.size - 3, CHUNK):
        stop = min(start + CHUNK + 3, x.size)
        p = harmonic_density(quadrature_harmonics(rho, x[start:stop]),
                             thetas)
        pdf[:, start:stop] = p[n_theta:]
        chunk_c3, chunk_c4 = coefficients(p[:n_theta], h, step)
        c3 = max(c3, chunk_c3)
        c4 = max(c4, chunk_c4)
    cdf = np.concatenate((np.zeros((len(PHASES), 1)),
                          np.cumsum((pdf[:, 1:] + pdf[:, :-1]) * h / 2.0,
                                    axis=1)), axis=1)
    return c3, c4, x, cdf / cdf[:, -1:]


def sampled_cdf(rho, theta, x):
    """The CDF of the law the simulator samples at theta, at x."""
    cdf, (xs, pdf) = sim._inverse_cdf_table(rho, theta)
    j = np.clip(np.searchsorted(xs, x, "right") - 1, 0, xs.size - 2)
    return law_cdf(x, j, cdf, xs, pdf).astype(float)


@pytest.fixture(scope="module", params=CASES, ids=IDS)
def case(request):
    """(rho, the estimated bound terms, the sampling step, the reference
    pass at that step) for one state kind."""
    spec, capture_tol = request.param
    rho = build_state(spec, capture_tol=capture_tol)
    step = sim._cdf_step(rho)
    return rho, sim._cdf_error_terms(rho), step, reference_pass(rho, step)


def test_sampled_law_is_within_the_stated_bound(case):
    rho, terms, step, (_, _, x, exact) = case
    grid = sim._sampling_grid(rho)
    assert grid[1] - grid[0] == pytest.approx(step, rel=1e-12)
    bound = sim._cdf_bound(terms, step)
    if step > sim.GRID_STEP:
        assert bound <= sim.CDF_TOL
    for theta, exact_cdf in zip(PHASES, exact):
        distance = np.max(np.abs(sampled_cdf(rho, theta, x) - exact_cdf))
        assert distance <= bound, (theta, distance, bound)


def test_coarse_coefficients_match_the_reference_grid(case):
    _, terms, step, (c3_ref, c4_ref, _, _) = case
    c3 = ((sim._cdf_bound(terms, step) - 2.0 * sim.OUTSIDE_MASS_TOL
           - terms[2] * step ** 4) / step ** 3)
    assert c3 >= 0.95 * c3_ref
    assert terms[2] >= 0.95 * c4_ref


def test_step_is_the_largest_multiple_within_the_tolerance(case):
    _, terms, step, _ = case
    assert sim._cdf_bound(terms, step) <= sim.CDF_TOL
    assert sim._cdf_bound(terms, step + sim.GRID_STEP) > sim.CDF_TOL

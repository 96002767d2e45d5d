"""The simulator's CDF-grid error bound and the step it picks.

The sampled law is the linear interpolant of the trapezoid cumulative on
a grid of step h.  Its Kolmogorov distance to the exact law is at most
C(rho) h^2, with C = max_theta [max|p'|/8 + int|p''|/12] estimated on a
coarse grid.  Each state kind is sampled on the grid the simulator picks
and compared, at several phases, with the exact law on a reference grid
of step 1e-4; the coarse C is compared with C on that reference grid.
"""

import math

import numpy as np
import pytest

import phasekit.simulator as sim
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


def reference_pass(rho):
    """(C on the reference grid at the simulator's phases, the reference
    grid, the exact CDF on it at each of PHASES).

    The density is built CHUNK points at a time; neighbouring chunks
    share two points, so each second difference is counted once.
    """
    x = sim._cdf_grid(rho.n_max, REF_STEP)
    h = x[1] - x[0]
    n_theta = 4 * (rho.n_max + 1)
    thetas = np.concatenate((2.0 * np.pi * np.arange(n_theta) / n_theta,
                             PHASES))
    slope_max = np.zeros(thetas.size)
    curvature_sum = np.zeros(thetas.size)
    pdf = np.empty((len(PHASES), x.size))
    for start in range(0, x.size - 2, CHUNK):
        stop = min(start + CHUNK + 2, x.size)
        p = harmonic_density(quadrature_harmonics(rho, x[start:stop]),
                             thetas)
        pdf[:, start:stop] = p[n_theta:]
        dp = np.diff(p, axis=1)
        slope_max = np.maximum(slope_max, np.max(np.abs(dp), axis=1) / h)
        curvature_sum += np.sum(np.abs(np.diff(dp, axis=1)), axis=1) / h
    c_ref = np.max(slope_max[:n_theta] / 8.0 + curvature_sum[:n_theta] / 12.0)
    cdf = np.concatenate((np.zeros((len(PHASES), 1)),
                          np.cumsum((pdf[:, 1:] + pdf[:, :-1]) * h / 2.0,
                                    axis=1)), axis=1)
    return c_ref, x, cdf / cdf[:, -1:]


@pytest.mark.parametrize("spec, capture_tol", CASES,
                         ids=[spec.kind for spec, _ in CASES])
def test_sampled_law_is_within_the_stated_bound(spec, capture_tol):
    rho = build_state(spec, capture_tol=capture_tol)
    c = sim._cdf_error_coefficient(rho)
    grid = sim._sampling_grid(rho)
    h = grid[1] - grid[0]
    bound = c * h * h
    if sim._cdf_step(rho) > sim.GRID_STEP:
        assert bound <= sim.CDF_TOL
    c_ref, x, exact = reference_pass(rho)
    assert c >= 0.95 * c_ref
    for theta, exact_cdf in zip(PHASES, exact):
        cdf, xs = sim._inverse_cdf_table(rho, theta)
        distance = np.max(np.abs(np.interp(x, xs, cdf) - exact_cdf))
        assert distance <= bound, (theta, distance, bound)


def test_acceptance_state_sets_the_tolerance():
    rho = build_state(CASES[3][0], capture_tol=0.05)
    bound = sim._cdf_error_coefficient(rho) * sim.GRID_STEP ** 2
    assert 0.9 * sim.CDF_TOL <= bound <= sim.CDF_TOL

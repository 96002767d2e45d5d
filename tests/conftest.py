"""Shared fixtures: kernel tables and reference states built once per run,
and a fresh simulator state cache for every test."""

import pytest

from phasekit import KernelSpec, StateSpec, build_kernel_table, build_state
from phasekit import simulator


@pytest.fixture(autouse=True)
def fresh_state_sampler():
    """run_experiment keeps the last state's grid and harmonics.  Clear
    them around each test, so no test samples a state another test (or
    a monkeypatched builder) left behind, and a test that patches the
    builder always reaches it."""
    simulator._state_sampler.cache_clear()
    yield
    simulator._state_sampler.cache_clear()


@pytest.fixture(scope="session")
def default_tables():
    """Kernel tables for k = 1..8 at the default accuracy settings."""
    return {k: build_kernel_table(KernelSpec(k=k)) for k in range(1, 9)}


@pytest.fixture(scope="session")
def rho_squeezed():
    """Squeezed vacuum, truncated at n_max = 20 (captures 98.8 percent)."""
    spec = StateSpec(kind="squeezed_vacuum", squeeze=-1.31, n_max=20)
    return build_state(spec, capture_tol=0.05)


@pytest.fixture(scope="session")
def rho_displaced_fock():
    """Displaced Fock state with mean photon number 4.25 before truncation."""
    spec = StateSpec(kind="displaced_fock", alpha=-1.5, fock_n=2, n_max=20)
    return build_state(spec)


@pytest.fixture(scope="session")
def rho_coherent_unit():
    return build_state(StateSpec(kind="coherent", alpha=1.0, n_max=25))

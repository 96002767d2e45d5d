"""Homodyne simulation: sampling fidelity, determinism, record files.

Sampling fidelity is checked with Kolmogorov-Smirnov distances against
cumulative distributions obtained by direct integration of the exact
quadrature densities, including the Gaussian-smeared ones that model
lossy detection.
"""

import math

import numpy as np
import pytest

from _oracles import quadratic_form_pdf
from phasekit.simulator import (
    ExperimentPlan,
    MeasurementSet,
    load_records,
    phase_stream,
    run_experiment,
    sample_quadrature,
    save_records,
)
from phasekit.states import StateSpec, build_state, quadrature_pdf

SQUEEZED = StateSpec(kind="squeezed_vacuum", squeeze=-1.31, n_max=20)

# 1 percent Kolmogorov-Smirnov critical coefficient
KS_COEFF = 1.628


def exact_cdf(rho, theta, xs, eta=1.0):
    grid = np.arange(-14.0, 14.0 + 1e-9, 1e-3)
    pdf = quadrature_pdf(rho, grid, theta)
    if eta < 1.0:
        sigma = math.sqrt((1.0 - eta) / (2.0 * eta))
        kernel_x = np.arange(-8.0 * sigma, 8.0 * sigma + 1e-9, 1e-3)
        gauss = np.exp(-0.5 * (kernel_x / sigma) ** 2)
        gauss = gauss / np.sum(gauss)
        pdf = np.convolve(pdf, gauss, mode="same")
    cdf = np.concatenate([
        [0.0],
        np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid)),
    ])
    cdf = cdf / cdf[-1]
    return np.interp(xs, grid, cdf)


def ks_distance(samples, rho, theta, eta=1.0):
    xs = np.sort(samples)
    n = len(xs)
    reference = exact_cdf(rho, theta, xs, eta)
    upper = np.max(np.arange(1, n + 1) / n - reference)
    lower = np.max(reference - np.arange(n) / n)
    return max(upper, lower)


def test_plan_validation():
    with pytest.raises(ValueError):
        ExperimentPlan(state=SQUEEZED, events_per_phase=(100, 0))
    with pytest.raises(ValueError):
        ExperimentPlan(state=SQUEEZED, events_per_phase=(100,), eta=0.0)
    with pytest.raises(ValueError):
        ExperimentPlan(state=SQUEEZED, events_per_phase=(100,), eta=1.2)


def test_plan_phases_are_uniform():
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=12, events=50)
    assert plan.n_phases == 12
    assert np.allclose(plan.phases, 2.0 * math.pi * np.arange(12) / 12)
    assert plan.events_per_phase == (50,) * 12


def test_vacuum_sample_moments():
    rho = build_state(StateSpec(kind="vacuum", n_max=4))
    draws = sample_quadrature(rho, 0.0, 10**6, np.random.default_rng(3))
    assert abs(np.mean(draws)) < 3e-3
    assert np.isclose(np.var(draws), 0.5, rtol=0.01)


def test_squeezed_sampling_passes_ks():
    rho = build_state(SQUEEZED, capture_tol=0.05)
    theta = 0.9
    draws = sample_quadrature(rho, theta, 10**5, np.random.default_rng(11))
    assert ks_distance(draws, rho, theta) < KS_COEFF / math.sqrt(len(draws))


def test_lossy_sampling_variance_and_ks():
    rho = build_state(StateSpec(kind="vacuum", n_max=4))
    eta = 0.6
    plan = ExperimentPlan.uniform(StateSpec(kind="vacuum", n_max=4),
                                  n_phases=1, events=10**5, eta=eta, seed=5)
    ms = run_experiment(plan)
    draws = ms.records[0]
    target = 0.5 + (1.0 - eta) / (2.0 * eta)
    assert np.isclose(np.var(draws), target, rtol=0.02)
    assert ks_distance(draws, rho, 0.0, eta) < KS_COEFF / math.sqrt(len(draws))


def test_smeared_squeezed_sampling_passes_ks():
    rho = build_state(SQUEEZED, capture_tol=0.05)
    eta = 0.7
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=2, events=10**5,
                                  eta=eta, seed=21)
    ms = run_experiment(plan, capture_tol=0.05)
    for l in (0, 1):
        d = ks_distance(ms.records[l], rho, plan.phases[l], eta)
        assert d < KS_COEFF / math.sqrt(len(ms.records[l]))


def test_run_experiment_is_deterministic():
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=4, events=300, seed=42)
    first = run_experiment(plan, capture_tol=0.05)
    second = run_experiment(plan, capture_tol=0.05)
    for a, b in zip(first.records, second.records):
        assert np.array_equal(a, b)
    reseeded = run_experiment(
        ExperimentPlan.uniform(SQUEEZED, n_phases=4, events=300, seed=43),
        capture_tol=0.05,
    )
    assert not np.array_equal(first.records[0], reseeded.records[0])


def test_phase_streams_are_independent():
    base = ExperimentPlan(state=SQUEEZED, events_per_phase=(200, 200, 200),
                          seed=9)
    tweaked = ExperimentPlan(state=SQUEEZED, events_per_phase=(200, 17, 5),
                             seed=9)
    a = run_experiment(base, capture_tol=0.05)
    b = run_experiment(tweaked, capture_tol=0.05)
    assert np.array_equal(a.records[0], b.records[0])


def test_phase_stream_spawning_is_stable():
    draws_a = phase_stream(7, 2).random(5)
    draws_b = phase_stream(7, 2).random(5)
    draws_c = phase_stream(7, 3).random(5)
    assert np.array_equal(draws_a, draws_b)
    assert not np.array_equal(draws_a, draws_c)


def test_run_experiment_propagates_truncation_check():
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=2, events=10)
    with pytest.raises(ValueError):
        run_experiment(plan)


def test_measurement_set_requires_matching_counts():
    plan = ExperimentPlan(state=SQUEEZED, events_per_phase=(3, 4), seed=0)
    records = (np.zeros(3), np.zeros(5))
    with pytest.raises(ValueError, match="phase 1"):
        MeasurementSet(plan=plan, records=records)


def test_record_file_round_trip(tmp_path):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=3, events=40,
                                  eta=0.85, seed=4)
    ms = run_experiment(plan, capture_tol=0.05)
    path = tmp_path / "records.txt"
    save_records(ms, path)
    loaded = load_records(path)
    assert loaded.plan == ms.plan
    for a, b in zip(loaded.records, ms.records):
        assert np.allclose(a, b, rtol=0, atol=1e-13)


def test_record_file_keeps_extra_header_lines(tmp_path):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=2, events=5, seed=1)
    ms = run_experiment(plan, capture_tol=0.05)
    path = tmp_path / "records.txt"
    save_records(ms, path, header_lines=("config: abc123",))
    assert "# config: abc123" in path.read_text()
    loaded = load_records(path)
    assert loaded.plan == ms.plan


def test_load_rejects_count_mismatch(tmp_path):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=2, events=5, seed=1)
    ms = run_experiment(plan, capture_tol=0.05)
    path = tmp_path / "records.txt"
    save_records(ms, path)
    lines = path.read_text().splitlines()
    del lines[-1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="phase 1"):
        load_records(path)


def test_load_rejects_malformed_row(tmp_path):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=2, events=5, seed=1)
    ms = run_experiment(plan, capture_tol=0.05)
    path = tmp_path / "records.txt"
    save_records(ms, path)
    lines = path.read_text().splitlines()
    first_row = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    lines[first_row] = "0, not_a_number, 1.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line %d" % (first_row + 1)):
        load_records(path)


def test_load_rejects_inconsistent_phase_value(tmp_path):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=2, events=5, seed=1)
    ms = run_experiment(plan, capture_tol=0.05)
    path = tmp_path / "records.txt"
    save_records(ms, path)
    lines = path.read_text().splitlines()
    first_row = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    cells = lines[first_row].split(",")
    cells[1] = " 9.999e-01"
    lines[first_row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_records(path)


def test_inverse_cdf_guard_fires_on_leaky_density(monkeypatch):
    import phasekit.simulator as sim

    def leaky_pdf(rho, x, theta):
        return np.full_like(np.asarray(x, dtype=float), 1e-4)

    monkeypatch.setattr(sim, "quadrature_pdf", leaky_pdf)
    rho = build_state(StateSpec(kind="vacuum", n_max=2))
    with pytest.raises(ValueError, match="quadrature grid"):
        sim._inverse_cdf_table(rho, 0.0)


def test_run_path_mass_guard_fires_on_leaky_harmonics(monkeypatch):
    import phasekit.simulator as sim

    real = sim.quadrature_harmonics

    def leaky_harmonics(rho, x):
        return 0.999 * real(rho, x)

    monkeypatch.setattr(sim, "quadrature_harmonics", leaky_harmonics)
    plan = ExperimentPlan.uniform(StateSpec(kind="vacuum", n_max=2),
                                  n_phases=2, events=10)
    with pytest.raises(ValueError, match="quadrature grid too small"):
        run_experiment(plan)


def test_run_experiment_matches_per_phase_quadratic_form(monkeypatch):
    import phasekit.simulator as sim

    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=5, events=300,
                                  eta=0.8, seed=11)
    ms = run_experiment(plan, capture_tol=0.05)
    monkeypatch.setattr(sim, "quadrature_pdf", quadratic_form_pdf)
    rho = build_state(SQUEEZED, capture_tol=0.05)
    sigma = math.sqrt((1.0 - plan.eta) / (2.0 * plan.eta))
    for l, theta in enumerate(plan.phases):
        rng = phase_stream(plan.seed, l)
        expected = sim.sample_quadrature(rho, theta, 300, rng)
        expected = expected + rng.normal(0.0, sigma, size=300)
        assert np.max(np.abs(ms.records[l] - expected)) < 1e-10


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_measurement_set_rejects_non_finite_samples(bad):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=2, events=3)
    records = (np.zeros(3), np.array([0.1, bad, 0.2]))
    with pytest.raises(ValueError, match="phase 1, record 1: non-finite"):
        MeasurementSet(plan=plan, records=records)


def test_load_rejects_non_finite_sample(tmp_path):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=2, events=5, seed=1)
    ms = run_experiment(plan, capture_tol=0.05)
    path = tmp_path / "records.txt"
    save_records(ms, path)
    lines = path.read_text().splitlines()
    row = [i for i, ln in enumerate(lines) if not ln.startswith("#")][6]
    cells = lines[row].split(",")
    lines[row] = ",".join(cells[:2] + [" nan"])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line %d: non-finite" % (row + 1)):
        load_records(path)

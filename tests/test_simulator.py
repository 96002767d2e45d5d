"""Homodyne simulation: sampling fidelity, determinism, record files.

Sampling fidelity is checked with Kolmogorov-Smirnov distances against
cumulative distributions obtained by direct integration of the exact
quadrature densities, including the Gaussian-smeared ones that model
lossy detection.
"""

import math

import numpy as np
import pytest

from _oracles import (MIXED_COUNTS, per_phase_run_experiment,
                      quadratic_form_pdf)
from phasekit import simulator
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
    with pytest.raises(ValueError, match=r"^phase 1: events_per_phase must "
                       r"be an integer >= 1, not 0$"):
        ExperimentPlan(state=SQUEEZED, events_per_phase=(5, 0, 3))
    with pytest.raises(ValueError):
        ExperimentPlan(state=SQUEEZED, events_per_phase=(100,), eta=0.0)
    with pytest.raises(ValueError):
        ExperimentPlan(state=SQUEEZED, events_per_phase=(100,), eta=1.2)


@pytest.mark.parametrize("make, phase, count", [
    (lambda: ExperimentPlan(state=SQUEEZED, events_per_phase=(2.5, 3.9)),
     0, "2.5"),
    (lambda: ExperimentPlan(state=SQUEEZED, events_per_phase=(2, 3.9)),
     1, "3.9"),
    (lambda: ExperimentPlan.uniform(SQUEEZED, 2, 2.7), 0, "2.7"),
], ids=["both", "second", "uniform"])
def test_plan_rejects_fractional_event_counts(make, phase, count):
    with pytest.raises(ValueError,
                       match=r"^phase %d: events_per_phase must be an "
                             r"integer >= 1, not %s$" % (phase, count)):
        make()


@pytest.mark.parametrize("seed", [-7, 2.5, math.nan])
def test_plan_rejects_a_seed_that_is_not_a_whole_number_at_least_zero(seed):
    with pytest.raises(ValueError,
                       match=r"^seed must be an integer >= 0, not %r$" % seed):
        ExperimentPlan(state=SQUEEZED, events_per_phase=(10,), seed=seed)


def test_plan_keeps_a_large_seed_exactly():
    plan = ExperimentPlan(state=SQUEEZED, events_per_phase=(10,),
                          seed=2 ** 63 - 1)
    assert plan.seed == 2 ** 63 - 1


def test_plan_takes_whole_float_event_counts():
    plan = ExperimentPlan(state=SQUEEZED, events_per_phase=(2.0, 3))
    assert plan.events_per_phase == (2, 3)
    assert ExperimentPlan.uniform(SQUEEZED, 2, 4.0).events_per_phase == (4, 4)


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


@pytest.mark.parametrize("eta", [1.0, 0.8])
def test_warm_run_is_bit_identical_to_a_cold_run(eta):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=4, events=300,
                                  eta=eta, seed=42)
    cold = run_experiment(plan, capture_tol=0.05)
    warm = run_experiment(plan, capture_tol=0.05)
    info = simulator._state_sampler.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    for a, b in zip(cold.records, warm.records):
        assert a.tobytes() == b.tobytes()


def test_kept_grid_and_harmonics_are_read_only():
    grid, harmonics = simulator._state_sampler(SQUEEZED, 0.05)
    assert simulator._state_sampler(SQUEEZED, 0.05)[1] is harmonics
    for arr in (grid, harmonics):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_another_state_or_capture_tol_misses_the_kept_state():
    coherent = StateSpec(kind="coherent", alpha=1.0, n_max=25)
    plan = ExperimentPlan.uniform(coherent, n_phases=2, events=10)
    wider = ExperimentPlan.uniform(StateSpec(kind="coherent", alpha=1.0,
                                             n_max=26), n_phases=2, events=10)
    run_experiment(plan)
    run_experiment(plan)
    run_experiment(plan, capture_tol=1.0e-3)
    run_experiment(wider)
    run_experiment(plan)
    info = simulator._state_sampler.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 4, 1)


def test_a_refused_state_raises_on_every_call():
    plan = ExperimentPlan.uniform(StateSpec(kind="coherent", alpha=5.0,
                                            n_max=3), n_phases=2, events=10)
    for _ in range(2):
        with pytest.raises(ValueError, match="captures only"):
            run_experiment(plan)
        with pytest.raises(ValueError, match="capture_tol must lie in"):
            run_experiment(plan, capture_tol=math.nan)
    assert simulator._state_sampler.cache_info().currsize == 0


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
    for samples, shape in ((np.zeros(8), r"\(8,\)"),
                           (np.zeros((1, 7)), r"\(1, 7\)")):
        with pytest.raises(ValueError, match="^samples of shape %s, "
                           "events_per_phase sums to 7$" % shape):
            MeasurementSet(plan, samples)


def _assert_one_array(ms):
    x = ms.samples
    assert (x.ndim, x.dtype, x.flags.c_contiguous, x.flags.writeable) == \
        (1, np.float64, True, False)
    start = 0
    for rec, n in zip(ms.records, ms.plan.events_per_phase, strict=True):
        assert rec.size == n and not rec.flags.writeable
        assert rec.ctypes.data == x.ctypes.data + start * x.itemsize
        start += n
    assert start == x.size


# a run of more than simulator.GROUP_DRAWS samples is allocated apart
@pytest.mark.parametrize("counts", [(5, 1, 300, 2), (5, 16384, 2)])
def test_a_run_and_its_file_hold_one_array_that_records_view(tmp_path,
                                                             counts):
    plan = ExperimentPlan(state=SQUEEZED, events_per_phase=counts,
                          eta=0.8, seed=3)
    ms = run_experiment(plan, capture_tol=0.05)
    _assert_one_array(ms)
    save_records(ms, tmp_path / "records.txt")
    loaded = load_records(tmp_path / "records.txt")
    _assert_one_array(loaded)
    assert loaded.samples.tobytes() == ms.samples.tobytes()


def test_measurement_sets_compare_and_hash_by_identity():
    ms = run_experiment(ExperimentPlan.uniform(SQUEEZED, n_phases=2,
                                               events=3), capture_tol=0.05)
    twin = MeasurementSet(ms.plan, ms.samples)
    assert ms == ms and ms != twin
    assert hash(ms) == hash(ms)
    assert len({ms, twin, ms}) == 2


def test_record_file_round_trip(tmp_path):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=3, events=40,
                                  eta=0.85, seed=4)
    ms = run_experiment(plan, capture_tol=0.05)
    path = tmp_path / "records.txt"
    save_records(ms, path)
    loaded = load_records(path)
    assert loaded.plan == ms.plan
    for a, b in zip(loaded.records, ms.records):
        assert a.tobytes() == b.tobytes()


def test_record_file_keeps_extra_header_lines(tmp_path):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=2, events=5, seed=1)
    ms = run_experiment(plan, capture_tol=0.05)
    path = tmp_path / "records.txt"
    save_records(ms, path, header_lines=("config: abc123",))
    assert "# config: abc123" in path.read_text()
    loaded = load_records(path)
    assert loaded.plan == ms.plan


@pytest.mark.parametrize("extra", [-1, 1])
def test_load_rejects_count_mismatch(tmp_path, extra):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=2, events=5, seed=1)
    ms = run_experiment(plan, capture_tol=0.05)
    path = tmp_path / "records.txt"
    save_records(ms, path)
    lines = path.read_text().splitlines()
    if extra < 0:
        del lines[-1]
    else:
        lines.append("0.5")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"^samples of shape \(%d,\), "
                       "events_per_phase sums to 10$" % (10 + extra)):
        load_records(path)


def test_load_rejects_malformed_row(tmp_path):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=2, events=5, seed=1)
    ms = run_experiment(plan, capture_tol=0.05)
    path = tmp_path / "records.txt"
    save_records(ms, path)
    lines = path.read_text().splitlines()
    first_row = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    lines[first_row] = "not_a_number"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line %d" % (first_row + 1)):
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


def test_cdf_table_refuses_mass_clamped_off_negative_segments():
    import phasekit.simulator as sim

    # The end corrections of the kinks at x = -1 and 1 turn the two
    # segments outside them negative.
    grid = np.linspace(-3.0, 3.0, 61)
    with pytest.raises(ValueError, match="CDF grid too coarse: 8.333e-04"):
        sim._cdf_table(grid, np.maximum(1.0 - np.abs(grid), 0.0))


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


@pytest.mark.parametrize("spec", [
    SQUEEZED,
    StateSpec(kind="displaced_fock", alpha=1.2 - 0.5j, fock_n=2, n_max=20),
])
def test_sample_quadrature_is_one_phase_of_run_experiment(spec):
    # from a single draw to about one draw per two CDF nodes
    counts = (1, 20, 500, 3000, 10 ** 4)
    plan = ExperimentPlan(state=spec, events_per_phase=counts, seed=19)
    ms = run_experiment(plan, capture_tol=0.05)
    rho = build_state(spec, capture_tol=0.05)
    for l, (theta, count) in enumerate(zip(plan.phases, counts)):
        samples = sample_quadrature(rho, theta, count,
                                    phase_stream(plan.seed, l))
        assert samples.tobytes() == ms.records[l].tobytes()


def test_phase_groups_bound_draws_and_phases():
    groups = list(simulator._phase_groups((1, 16384, 7, 20000, 500)))
    assert groups == [[(0, 0, 1)], [(1, 0, 16384)], [(2, 0, 7)],
                      [(3, 0, 20000)], [(4, 0, 500)]]
    groups = list(simulator._phase_groups((300,) * 60))
    assert [len(g) for g in groups] == [54, 6]
    assert groups[1] == [(54 + r, 300 * r, 300 * (r + 1)) for r in range(6)]
    groups = list(simulator._phase_groups((1,) * 30, max_phases=12))
    assert [len(g) for g in groups] == [12, 12, 6]
    assert [len(g) for g in simulator._phase_groups((1,) * 3, 0)] == [1] * 3


@pytest.mark.parametrize("eta", [1.0, 0.8])
@pytest.mark.parametrize("spec", [
    SQUEEZED,
    StateSpec(kind="coherent", alpha=1.0, n_max=25),
])
def test_run_experiment_equals_per_phase_oracle(spec, eta):
    plan = ExperimentPlan(state=spec, events_per_phase=MIXED_COUNTS,
                          eta=eta, seed=29)
    got = run_experiment(plan, capture_tol=0.05)
    want = per_phase_run_experiment(plan, 0.05)
    assert [r.tobytes() for r in got.records] == \
        [r.tobytes() for r in want.records]
    grid, _ = simulator._state_sampler(spec, 0.05)
    sizes = [len(g) for g in simulator._phase_groups(
        MIXED_COUNTS, simulator.GROUP_DRAWS // grid.size)]
    assert max(sizes) >= 12 and 1 in sizes


def _kinked(p):
    """A triangle density over the grid's middle third, whose kinks the
    end corrections turn into segments of negative mass."""
    return np.maximum(1.0 - np.abs(np.linspace(-3.0, 3.0, p.size)), 0.0)


def _nan_at_peak(p):
    return np.where(p == p.max(), math.nan, p)


@pytest.mark.parametrize("damage, message", [
    (lambda p: 0.999 * p, "quadrature grid too small: 1.000e-03 "),
    (_kinked, "CDF grid too coarse: "),
    (_nan_at_peak, "density is not finite"),
])
def test_cdf_errors_name_the_phase_and_theta(monkeypatch, damage, message):
    plan = ExperimentPlan.uniform(StateSpec(kind="vacuum", n_max=2),
                                  n_phases=8, events=10)
    real = simulator.harmonic_density

    def one_bad_phase(harmonics, theta, out=None):
        p = real(harmonics, theta, out=out)
        # the grid's error terms take every phase at once, and each
        # phase's density is written in place into its group's array
        if np.ndim(theta) == 0 and theta == plan.phases[3]:
            p[:] = damage(p)
        return p

    monkeypatch.setattr(simulator, "harmonic_density", one_bad_phase)
    with pytest.raises(ValueError, match=r"^phase 3 \(theta = 2\.35619\): "
                       + message.replace(".", r"\.")):
        run_experiment(plan)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_measurement_set_rejects_non_finite_samples(bad):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=2, events=3)
    samples = np.array([0.0, 0.0, 0.0, 0.1, bad, 0.2])
    with pytest.raises(ValueError, match="phase 1, record 1: non-finite"):
        MeasurementSet(plan, samples)


# Phase 1 starts the run's second sampling group, and phase 2, record 4
# is the run's last sample.
@pytest.mark.parametrize("phase, record, bad", [
    (0, 0, math.nan), (1, 0, math.inf), (2, 4, -math.inf)])
def test_non_finite_sample_is_named_at_run_and_group_edges(
        tmp_path, phase, record, bad):
    plan = ExperimentPlan(state=StateSpec(kind="vacuum", n_max=2),
                          events_per_phase=(3, simulator.GROUP_DRAWS, 5))
    assert [g[0][0] for g in simulator._phase_groups(
        plan.events_per_phase)] == [0, 1, 2]
    ms = run_experiment(plan)
    at = sum(plan.events_per_phase[:phase]) + record
    samples = ms.samples.copy()
    samples[at] = bad
    with pytest.raises(ValueError, match="^phase %d, record %d: non-finite "
                       "sample %r$" % (phase, record, bad)):
        MeasurementSet(plan, samples)
    path = tmp_path / "records.txt"
    save_records(ms, path)
    lines = path.read_text().splitlines()
    row = [i for i, ln in enumerate(lines) if not ln.startswith("#")][at]
    lines[row] = repr(bad)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^line %d: non-finite sample %r$"
                                         % (row + 1, bad)):
        load_records(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_sample(tmp_path, bad):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=2, events=5, seed=1)
    ms = run_experiment(plan, capture_tol=0.05)
    path = tmp_path / "records.txt"
    save_records(ms, path)
    lines = path.read_text().splitlines()
    row = [i for i, ln in enumerate(lines) if not ln.startswith("#")][6]
    lines[row] = bad
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^line %d: non-finite sample %s$"
                                         % (row + 1, bad)):
        load_records(path)


def test_acceptance_state_samples_on_a_grid_fifteen_times_coarser():
    import phasekit.simulator as sim

    rho = build_state(SQUEEZED, capture_tol=0.05)
    assert sim._cdf_step(rho) >= 15 * sim.GRID_STEP
    cdf, _ = sim._inverse_cdf_table(rho, 0.4)
    assert cdf.size < sim._cdf_grid(rho.n_max).size / 15


@pytest.mark.parametrize("spec", [
    StateSpec(kind="vacuum"),
    StateSpec(kind="coherent", alpha=1.0, n_max=25),
])
def test_broad_states_sample_on_a_coarser_grid(spec):
    import phasekit.simulator as sim

    rho = build_state(spec)
    assert sim._cdf_step(rho) > sim.GRID_STEP
    cdf, _ = sim._inverse_cdf_table(rho, 0.4)
    assert cdf.size < sim._cdf_grid(rho.n_max).size / 2

"""Moment estimation: statistics, matrix elements, and bias terms.

The statistical checks run against seeded simulations, with targets set
by direct phase-by-phase quadrature of the exact densities, so the
estimator is never graded against its own output.  The replication
checks (unbiasedness, variance calibration) are the slowest tests of
the module at roughly a minute.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from _oracles import (MIXED_COUNTS, aliasing_bias_approx,
                      aliasing_bias_by_loops, assemble_by_loop,
                      exact_segment_estimates,
                      fsum_estimates, moment_by_phase_quadrature,
                      panel_rule, per_phase_estimates, psi_n)
from phasekit.estimator import (
    MomentEstimate,
    _estimate,
    _panel_rule,
    _row_stats,
    aliasing_bias,
    estimate_all,
    kernel_overlaps,
    load_moments,
    save_moments,
    smear_bias,
)
from phasekit.kernels import KernelSpec, build_kernel_table, classical_kernel
from phasekit.kernels import KernelTable, _lookup_all, _tail_value
from phasekit import estimator, kernels, simulator
from phasekit.simulator import ExperimentPlan, MeasurementSet, run_experiment
from phasekit.states import StateSpec, build_state, exact_moments

SQUEEZED = StateSpec(kind="squeezed_vacuum", squeeze=-1.31, n_max=20)
VACUUM = StateSpec(kind="vacuum", n_max=4)


def q_element(table, m, n):
    """Q_mn = 2 pi Int K_k psi_m psi_n dx of table's kernel: one entry
    of kernel_overlaps."""
    return kernel_overlaps(table.evaluate, table.spec.x0, max(m, n))[m, n]


class CountingTable:
    """Delegating wrapper that records how often the kernel is evaluated."""

    def __init__(self, table):
        self._table = table
        self.spec = table.spec
        self.calls = 0
        self.elements = 0
        self.inputs = []

    def evaluate(self, x):
        self.calls += 1
        self.elements += np.size(x)
        self.inputs.append(x)
        return self._table.evaluate(x)


def test_moment_estimate_validation():
    with pytest.raises(ValueError):
        MomentEstimate(k=0, value=0j, var_re=0.0, var_im=0.0, n_phases=4,
                       compensated=False, eta_assumed=1.0)
    with pytest.raises(ValueError):
        MomentEstimate(k=1, value=0j, var_re=-1.0, var_im=0.0, n_phases=4,
                       compensated=False, eta_assumed=1.0)
    with pytest.raises(ValueError,
                       match=r"^k must be an integer >= 1, not 1\.5$"):
        MomentEstimate(k=1.5, value=0j, var_re=0.0, var_im=0.0, n_phases=4,
                       compensated=False, eta_assumed=1.0)
    with pytest.raises(ValueError,
                       match=r"^n_phases must be an integer >= 1, not 2\.5$"):
        MomentEstimate(k=1, value=0j, var_re=0.0, var_im=0.0, n_phases=2.5,
                       compensated=False, eta_assumed=1.0)
    est = MomentEstimate(k=1, value=0j, var_re=0.25, var_im=0.04, n_phases=4,
                         compensated=False, eta_assumed=1.0)
    assert est.sigma_re == 0.5
    assert est.sigma_im == 0.2
    est = MomentEstimate(k=2.0, value=0j, var_re=0.0, var_im=0.0,
                         n_phases=4.0, compensated=False, eta_assumed=1.0)
    assert (type(est.k), type(est.n_phases)) == (int, int)


def test_estimate_on_constant_records_reduces_to_frame_sum(default_tables):
    # Each phase holds one repeated value, so the phase mean is just the
    # kernel there and the estimate collapses to the plain frame sum.
    table = default_tables[1]
    plan = ExperimentPlan(state=VACUUM, events_per_phase=(3, 3, 3, 3), seed=0)
    values = [0.4, -1.2, 2.0, 0.9]
    ms = MeasurementSet(plan, np.repeat(values, 3))
    est = _estimate(ms, {1: table})[0]
    direct = (2.0 * math.pi / 4.0) * sum(
        np.exp(1j * th) * table.evaluate(v)
        for th, v in zip(plan.phases, values)
    )
    assert np.isclose(est.value, direct, atol=1e-14)
    assert est.var_re == 0.0
    assert est.var_im == 0.0


def test_single_event_phases_flag_infinite_variance(default_tables):
    plan = ExperimentPlan(state=VACUUM, events_per_phase=(1, 1, 1), seed=0)
    ms = MeasurementSet(plan, np.array([0.3, -0.5, 1.7]))
    est = _estimate(ms, {1: default_tables[1]})[0]
    assert math.isinf(est.var_re)
    assert math.isinf(est.var_im)
    assert np.isfinite(est.value.real)


def test_vacuum_moments_vanish_within_errors(default_tables):
    plan = ExperimentPlan.uniform(VACUUM, n_phases=12, events=2000, seed=8)
    ms = run_experiment(plan)
    for k in range(1, 6):
        est = _estimate(ms, {k: default_tables[k]})[0]
        assert abs(est.value.real) < 4.0 * est.sigma_re
        assert abs(est.value.imag) < 4.0 * est.sigma_im


def test_estimate_all_matches_per_order_calls(default_tables):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=12, events=500, seed=3)
    ms = run_experiment(plan, capture_tol=0.05)
    batch = estimate_all(ms, 4, default_tables)
    for est in batch:
        single = _estimate(ms, {est.k: default_tables[est.k]})[0]
        assert est.value == single.value
        assert est.var_re == single.var_re
        assert est.var_im == single.var_im


def test_estimate_all_rejects_order_cap_at_phase_count(default_tables):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=6, events=10, seed=3)
    ms = run_experiment(plan, capture_tol=0.05)
    with pytest.raises(ValueError, match="smaller than the number of phases"):
        estimate_all(ms, 6, default_tables)


def test_estimate_all_lists_missing_tables(default_tables):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=8, events=10, seed=3)
    ms = run_experiment(plan, capture_tol=0.05)
    partial = {1: default_tables[1], 3: default_tables[3]}
    with pytest.raises(ValueError, match="k = 2, 4"):
        estimate_all(ms, 4, partial)


def test_table_order_mismatch_is_rejected(default_tables):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=8, events=10, seed=3)
    ms = run_experiment(plan, capture_tol=0.05)
    with pytest.raises(ValueError, match="built for k=2"):
        _estimate(ms, {1: default_tables[2]})[0]


def test_compensated_table_requires_matching_efficiency():
    table = build_kernel_table(KernelSpec(k=1, eta=0.8), grid_step=0.05)
    plan = ExperimentPlan.uniform(VACUUM, n_phases=4, events=10,
                                  eta=0.9, seed=0)
    ms = run_experiment(plan)
    with pytest.raises(ValueError, match="eta=0.8"):
        _estimate(ms, {1: table})[0]


def test_estimate_all_is_single_pass(default_tables):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=6, events=100, seed=2)
    ms = run_experiment(plan, capture_tol=0.05)
    counters = {k: CountingTable(default_tables[k]) for k in (1, 2, 3)}
    estimate_all(ms, 3, counters)
    total_events = sum(plan.events_per_phase)
    n_groups = len(list(simulator._phase_groups(plan.events_per_phase)))
    for counter in counters.values():
        assert counter.calls == n_groups
        assert counter.elements == total_events


@pytest.mark.parametrize("k, n", [(1, 0), (1, 4), (2, 0), (2, 7), (3, 5)])
def test_matrix_element_identity(k, n, default_tables):
    assert abs(q_element(default_tables[k], n + k, n) - 1.0) < 1e-3


def test_matrix_element_parity_zeros(default_tables):
    # the integrand is odd whenever m + n + k is odd
    assert abs(q_element(default_tables[1], 2, 2)) < 1e-12
    assert abs(q_element(default_tables[2], 5, 2)) < 1e-12


def test_offdiagonal_classical_element_near_asymptote():
    # 2 pi Int K_2^cl psi_54 psi_40 approaches k/(sN+k) = 1/7 for the
    # order gap 14 = 2 + 12; at n = 40 the classical element sits within
    # 8 percent of that limit.
    def integrand(x):
        return classical_kernel(2, x) * psi_n(54, x) * psi_n(40, x)

    left = integrate.quad(integrand, -11.0, -1e-12, limit=400)[0]
    right = integrate.quad(integrand, 1e-12, 11.0, limit=400)[0]
    value = 2.0 * math.pi * (left + right)
    assert abs(value - 1.0 / 7.0) < 0.1 / 7.0


def test_offdiagonal_quantum_element_converges_from_below(default_tables):
    table = default_tables[2]
    # regression anchor at n = 40 (gap 14), still 14 percent shy of 1/7
    assert np.isclose(q_element(table, 54, 40), 0.1233, atol=2e-3)
    # by n = 80 the same gap is inside 10 percent of the asymptote
    assert abs(q_element(table, 94, 80) - 1.0 / 7.0) < 0.1 / 7.0


def test_aliasing_bias_vanishes_without_reachable_orders(default_tables, rho_squeezed):
    # n_max + k < N leaves no matrix element to alias
    assert aliasing_bias(rho_squeezed, 2, 120, default_tables[2]) == 0.0j
    assert aliasing_bias(rho_squeezed, 1, 30, default_tables[1]) == 0.0j


def test_aliasing_bias_requires_more_phases_than_order(default_tables, rho_squeezed):
    with pytest.raises(ValueError):
        aliasing_bias(rho_squeezed, 2, 2, default_tables[2])


@pytest.mark.parametrize("k, N, message", [
    (0, 12, "moment order k must be >= 1"),
    (-3, 12, "moment order k must be >= 1"),
    (2, 12, "kernel table is built for k=1, not k=2"),
])
def test_aliasing_bias_rejects_bad_order(default_tables, rho_squeezed,
                                         k, N, message):
    with pytest.raises(ValueError, match=message):
        aliasing_bias(rho_squeezed, k, N, default_tables[1])


@pytest.mark.parametrize("k, N", [
    (k, N) for k in (1, 2, 3) for N in (k + 1, 5, 12, 13)
])
def test_aliasing_bias_equals_the_loop_over_folded_elements(
        default_tables, rho_squeezed, k, N):
    table = default_tables[k]
    q = kernel_overlaps(table.evaluate, table.spec.x0, rho_squeezed.n_max)
    expected = aliasing_bias_by_loops(rho_squeezed, k, N, q)
    assert abs(aliasing_bias(rho_squeezed, k, N, table) - expected) < 1e-15


@pytest.mark.parametrize("k", [1, 2, 5])
def test_kernel_overlaps_is_symmetric_and_holds_the_identity(default_tables,
                                                             k):
    table = default_tables[k]
    q = kernel_overlaps(table.evaluate, table.spec.x0, 30 + k)
    assert q.shape == (31 + k, 31 + k)
    # symmetric to rounding: the elements reach 5.9 at k = 5
    assert np.max(np.abs(q - q.T)) < 1e-15 * np.max(np.abs(q))
    assert np.max(np.abs(np.diagonal(q, -k) - 1.0)) < 1e-3
    # the rule reaches further for a larger matrix; the elements stay put
    assert abs(q_element(table, 10 + k, 10) - q[10 + k, 10]) < 1e-12


def test_aliasing_bias_matches_discrete_phase_quadrature(default_tables, rho_squeezed):
    # Oracle: the discrete-phase moment at N=12 minus the same object at
    # N=360 (where no populated order can alias) equals the bias; the
    # kernel-identity residual cancels in the difference.
    k, n_phases = 2, 12
    table = default_tables[k]
    xs, ws = panel_rule()
    coarse = moment_by_phase_quadrature(rho_squeezed, k, n_phases, table, xs, ws)
    fine = moment_by_phase_quadrature(rho_squeezed, k, 360, table, xs, ws)
    bias = aliasing_bias(rho_squeezed, k, n_phases, table)
    # linear interpolation of the log-singular kernel limits agreement
    # between any two integration rules to roughly 1e-7 per element
    assert abs(bias - (coarse - fine)) < 1e-6
    assert abs(bias) > 1e-3


def test_aliasing_alternating_form_even_phase_count(rho_squeezed):
    k, n_phases = 2, 12
    total = 0.0j
    s = 1
    while True:
        hi = k + s * n_phases
        lo = s * n_phases - k
        if hi > rho_squeezed.n_max and lo > rho_squeezed.n_max:
            break
        sign = (-1.0) ** (n_phases * s // 2)
        total += sign * (
            k / hi * exact_moments(rho_squeezed, hi)
            + k / lo * exact_moments(rho_squeezed, -lo).conjugate()
        )
        s += 1
    approx = aliasing_bias_approx(rho_squeezed, k, n_phases)
    assert np.isclose(approx, total, atol=1e-14)


def test_aliasing_alternating_form_odd_phase_count():
    spec = StateSpec(kind="squeezed_vacuum", squeeze=-1.31, n_max=40)
    rho = build_state(spec, capture_tol=1e-3)
    k, n_phases = 2, 13
    hi = k + 2 * n_phases
    lo = 2 * n_phases - k
    expected = -1.0 * (
        k / hi * exact_moments(rho, hi)
        + k / lo * np.conj(exact_moments(rho, lo))
    )
    approx = aliasing_bias_approx(rho, k, n_phases)
    assert np.isclose(approx, expected, atol=1e-14)
    assert abs(approx) > 1e-6


def test_smear_bias_zero_cases(rho_squeezed):
    assert smear_bias(rho_squeezed, 2, 1.0) == 0.0j
    assert smear_bias(rho_squeezed, 21, 0.8) == 0.0j
    with pytest.raises(ValueError):
        smear_bias(rho_squeezed, 2, 0.0)
    with pytest.raises(ValueError):
        smear_bias(rho_squeezed, 2, 1.1)


def test_smear_bias_matches_ring_state_attenuation():
    # For a coherent state on a radius-r0 ring the smeared moments are
    # attenuated by exp(-k^2 sigma^2 / (2 r0^2)).
    eta = 0.8
    sigma_sq = (1.0 - eta) / (2.0 * eta)
    rho = build_state(StateSpec(kind="coherent", alpha=6.0, n_max=80))
    r0_sq = 2.0 * 36.0
    for k in (1, 2):
        psi = exact_moments(rho, k)
        ratio = (psi + smear_bias(rho, k, eta)) / psi
        predicted = math.exp(-(k**2) * sigma_sq / (2.0 * r0_sq))
        assert abs(ratio.real - predicted) < 0.1 * (1.0 - predicted)
        assert abs(ratio.imag) < 1e-6


def test_smear_bias_shrinks_squeezed_moments(rho_squeezed):
    for k in (2, 4):
        psi = exact_moments(rho_squeezed, k)
        smeared = psi + smear_bias(rho_squeezed, k, 0.6)
        assert abs(smeared) <= abs(psi)


def test_replications_are_unbiased_and_calibrated(default_tables, rho_squeezed):
    # 200 seeded replications of a 24-phase, 500-event experiment; the
    # replication mean must match the discrete-phase quadrature target
    # to 3 standard errors, and the predicted variances must match the
    # empirical ones within a factor of 1.5.
    k = 2
    n_reps = 200
    table = default_tables[k]
    values = np.empty(n_reps, dtype=complex)
    var_re = np.empty(n_reps)
    var_im = np.empty(n_reps)
    for rep in range(n_reps):
        plan = ExperimentPlan.uniform(SQUEEZED, n_phases=24, events=500,
                                      seed=1000 + rep)
        ms = run_experiment(plan, capture_tol=0.05)
        est = _estimate(ms, {k: table})[0]
        values[rep] = est.value
        var_re[rep] = est.var_re
        var_im[rep] = est.var_im
    xs, ws = panel_rule()
    target = moment_by_phase_quadrature(rho_squeezed, k, 24, table, xs, ws)
    se_re = np.std(values.real, ddof=1) / math.sqrt(n_reps)
    se_im = np.std(values.imag, ddof=1) / math.sqrt(n_reps)
    assert abs(np.mean(values.real) - target.real) < 3.0 * se_re
    assert abs(np.mean(values.imag) - target.imag) < 3.0 * se_im
    for empirical, predicted in (
        (np.var(values.real, ddof=1), np.mean(var_re)),
        (np.var(values.imag, ddof=1), np.mean(var_im)),
    ):
        assert predicted / empirical < 1.5
        assert empirical / predicted < 1.5


def test_compensation_removes_smearing_bias(rho_coherent_unit):
    eta = 0.8
    spec = StateSpec(kind="coherent", alpha=1.0, n_max=25)
    plan = ExperimentPlan.uniform(spec, n_phases=24, events=5000,
                                  eta=eta, seed=7)
    ms = run_experiment(plan)
    for k in (1, 2, 3, 4):
        table = build_kernel_table(KernelSpec(k=k, eta=eta))
        est = _estimate(ms, {k: table})[0]
        assert est.compensated
        exact = exact_moments(rho_coherent_unit, k)
        assert abs(est.value.real - exact.real) < 4.0 * est.sigma_re
        assert abs(est.value.imag - exact.imag) < 4.0 * est.sigma_im
    plain = build_kernel_table(KernelSpec(k=1))
    biased = _estimate(ms, {1: plain})[0]
    assert not biased.compensated
    psi_1 = abs(exact_moments(rho_coherent_unit, 1))
    assert abs(biased.value) < psi_1 - 4.0 * biased.sigma_re


def test_moment_file_round_trip(tmp_path, default_tables):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=12, events=200, seed=6)
    ms = run_experiment(plan, capture_tol=0.05)
    batch = estimate_all(ms, 4, default_tables)
    path = tmp_path / "moments.txt"
    save_moments(batch, path, header_lines=("config: f00",))
    text = path.read_text()
    assert "# config: f00" in text
    loaded = load_moments(path)
    assert len(loaded) == len(batch)
    for a, b in zip(loaded, batch):
        assert a.k == b.k
        assert np.isclose(a.value, b.value, rtol=0, atol=1e-14)
        assert np.isclose(a.var_re, b.var_re, rtol=1e-12)
        assert np.isclose(a.var_im, b.var_im, rtol=1e-12)
        assert a.n_phases == b.n_phases
        assert a.compensated == b.compensated
        assert a.eta_assumed == b.eta_assumed


def test_moment_file_rejects_malformed_row(tmp_path, default_tables):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=12, events=50, seed=6)
    ms = run_experiment(plan, capture_tol=0.05)
    batch = estimate_all(ms, 2, default_tables)
    path = tmp_path / "moments.txt"
    save_moments(batch, path)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1] + " trailing junk"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_moments(path)


@pytest.mark.parametrize("x_max, n_panels", [(14.4, 29), (9.0, 24)])
def test_panel_rule_weights_and_gaussian_moment(x_max, n_panels):
    x, w = _panel_rule(np.linspace(0.0, x_max, n_panels + 1))
    assert np.array_equal(x, -x[::-1])
    assert math.isclose(w.sum(), 2.0 * x_max, rel_tol=1e-14)
    second = float(np.sum(w * x * x * np.exp(-x * x)))
    assert abs(second - math.sqrt(math.pi) / 2.0) < 1e-14


@pytest.mark.parametrize("field, value", [
    ("value", complex(math.nan, 0.0)),
    ("value", complex(0.0, math.inf)),
    ("var_re", math.nan),
    ("var_im", math.nan),
])
def test_moment_estimate_rejects_non_finite(field, value):
    kwargs = dict(k=1, value=0j, var_re=0.0, var_im=0.0, n_phases=4,
                  compensated=False, eta_assumed=1.0)
    kwargs[field] = value
    with pytest.raises(ValueError):
        MomentEstimate(**kwargs)
    kwargs[field] = math.inf if field != "value" else 0j
    assert MomentEstimate(**kwargs).k == 1


@pytest.mark.parametrize("column, token", [(1, "nan"), (2, "inf"), (3, "nan")])
def test_moment_file_rejects_non_finite_row_naming_the_line(
        tmp_path, default_tables, column, token):
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=12, events=50, seed=6)
    batch = estimate_all(run_experiment(plan, capture_tol=0.05), 2,
                         default_tables)
    path = tmp_path / "moments.txt"
    save_moments(batch, path)
    lines = path.read_text().splitlines()
    parts = lines[-1].split()
    parts[column] = token
    lines[-1] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="line %d: " % len(lines)):
        load_moments(path)


@pytest.mark.parametrize("row", ["1 0.5 0.1 -0.2 0.1 0 1",
                                 "1 0.5 0.1 0.2 -0.1 0 1"])
def test_moment_file_rejects_negative_sigma(tmp_path, row):
    path = tmp_path / "moments.txt"
    path.write_text("# n_phases: 12\n%s\n" % row)
    with pytest.raises(ValueError, match="line 2: sigma"):
        load_moments(path)


def test_moment_file_rejects_a_repeated_order(tmp_path):
    # reconstruction keys moments by order, so a repeat would silently
    # replace the earlier row
    path = tmp_path / "moments.txt"
    path.write_text("# n_phases: 12\n1 0.5 0.1 0.2 0.1 0 1\n"
                    "2 0.3 0.1 0.2 0.1 0 1\n1 0.9 0.1 0.2 0.1 0 1\n")
    with pytest.raises(ValueError,
                       match="^line 4: order k = 1 already on line 2$"):
        load_moments(path)


@pytest.mark.parametrize("eta", [math.nan, 0.0, -0.5, 1.5, math.inf])
def test_moment_estimate_rejects_eta_outside_unit_interval(eta):
    kwargs = dict(k=1, value=0j, var_re=0.0, var_im=0.0, n_phases=4,
                  compensated=True)
    with pytest.raises(ValueError, match="eta_assumed"):
        MomentEstimate(eta_assumed=eta, **kwargs)
    assert MomentEstimate(eta_assumed=0.3, **kwargs).eta_assumed == 0.3


@pytest.mark.parametrize("eta", ["nan", "0", "1.5"])
def test_moment_file_rejects_bad_eta_naming_the_line(tmp_path, eta):
    path = tmp_path / "moments.txt"
    path.write_text("# n_phases: 12\n1 0.5 0.1 0.2 0.1 1 %s\n" % eta)
    with pytest.raises(ValueError, match="line 2: eta_assumed"):
        load_moments(path)


def lookup_probe_set(x0, step, eta, n_phases=9):
    """MeasurementSet whose samples hit the kernel-table lookup where
    it can go wrong: every grid node and midpoint, +-x0 and their
    neighbours, zero, the tails out to 1e300, and Gaussian draws."""
    grid = np.linspace(-x0, x0, 2 * int(round(x0 / step)) + 1)
    edges = np.array([x0, -x0, 0.0, -0.0, 1e-300, 4.5, 1e3, 1e300])
    special = np.concatenate((
        grid, 0.5 * (grid[1:] + grid[:-1]), edges,
        np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
        -edges,
    ))
    rng = np.random.default_rng(17)
    draws = np.concatenate((special, 2.0 * rng.standard_normal(4000)))
    draws = rng.permutation(np.resize(draws, n_phases * 1000))
    plan = ExperimentPlan(state=SQUEEZED, events_per_phase=(1000,) * n_phases,
                          eta=eta)
    return MeasurementSet(plan, draws)


def assert_same_estimates(got, want):
    assert [(e.k, e.value, e.var_re, e.var_im, e.compensated,
             e.eta_assumed) for e in got] == \
        [(e.k, e.value, e.var_re, e.var_im, e.compensated, e.eta_assumed)
         for e in want]


def assert_close_estimates(got, want):
    """The per-segment sums' tolerance: 1e-14 absolute in value and
    1e-13 relative in variance."""
    assert [(e.k, e.compensated, e.eta_assumed) for e in got] == \
        [(e.k, e.compensated, e.eta_assumed) for e in want]
    for g, w in zip(got, want):
        assert abs(g.value.real - w.value.real) <= 1e-14
        assert abs(g.value.imag - w.value.imag) <= 1e-14
        for a, b in ((g.var_re, w.var_re), (g.var_im, w.var_im)):
            assert a == b or abs(a - b) <= 1e-13 * b


@pytest.mark.parametrize("eta", [1.0, 0.8])
def test_shared_lookup_equals_per_table_evaluate(eta):
    tables = [build_kernel_table(KernelSpec(k=k, eta=eta))
              for k in range(1, 9)]
    ms = lookup_probe_set(tables[0].spec.x0, 0.005, eta)
    for rec in ms.records:
        for table, values in zip(tables, _lookup_all(tables, rec)):
            want = table.evaluate(rec)
            assert values.tobytes() == want.tobytes()
    assert_same_estimates(
        estimate_all(ms, 8, tables),
        [_estimate(ms, {k: tables[k - 1]})[0] for k in range(1, 9)],
    )


def count_segments(monkeypatch):
    """The k of the first table of each kernels._segments call, which
    _lookup_all makes once per group for all its tables."""
    calls = []
    real = kernels._segments

    def counting(table, x):
        calls.append(table.spec.k)
        return real(table, x)

    monkeypatch.setattr(kernels, "_segments", counting)
    return calls


def test_mismatched_grids_share_one_lookup_per_grid(monkeypatch,
                                                    default_tables):
    # below the sums' threshold: the per-sample values, one lookup per
    # grid and group, and never a table's own evaluate
    tables = {k: default_tables[k] for k in range(1, 5)}
    tables[3] = build_kernel_table(KernelSpec(k=3), grid_step=0.01)
    ms = lookup_probe_set(4.0, 0.005, 1.0)
    want = [_estimate(ms, {k: tables[k]})[0] for k in range(1, 5)]
    calls = count_segments(monkeypatch)
    monkeypatch.setattr(KernelTable, "evaluate", None)
    assert_same_estimates(estimate_all(ms, 4, tables), want)
    n_groups = len(list(simulator._phase_groups(ms.plan.events_per_phase)))
    assert sorted(calls) == [1] * n_groups + [3] * n_groups
    calls.clear()
    estimate_all(ms, 2, tables)
    assert calls == [1] * n_groups


def test_stand_in_leaves_the_kernel_tables_one_lookup_per_group(
        monkeypatch, default_tables):
    tables = {k: default_tables[k] for k in range(1, 5)}
    tables[2] = CountingTable(tables[2])
    ms = lookup_probe_set(4.0, 0.005, 1.0)
    want = [_estimate(ms, {k: tables[k]})[0] for k in range(1, 5)]
    tables[2].calls = 0
    calls = count_segments(monkeypatch)
    assert_same_estimates(estimate_all(ms, 4, tables), want)
    # the stand-in's own evaluate runs the lookup of the table it wraps
    n_groups = len(list(simulator._phase_groups(ms.plan.events_per_phase)))
    assert tables[2].calls == n_groups
    assert sorted(calls) == [1] * n_groups + [2] * n_groups


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 500, 2000,
                               16384])
def test_row_stats_equal_each_rows_own_mean_and_variance(n):
    rows = np.random.default_rng(n).normal(0.3, 2.0, (3, n))
    mean, var = _row_stats(rows)
    for row, m, v in zip(rows, mean, var):
        assert m.tobytes() == row.mean().tobytes()
        if n == 1:
            assert v == math.inf
        else:
            assert v.tobytes() == row.var(ddof=1).tobytes()


@pytest.mark.parametrize("n_phases", [1, 3, 4, 12, 24, 120])
def test_assemble_equals_the_loop_over_phases(n_phases):
    # signed and exact zeros, single events (inf) and zero variances
    rng = np.random.default_rng(n_phases)
    phases = ExperimentPlan.uniform(VACUUM, n_phases, 1).phases
    n = rng.integers(1, 50, n_phases)
    var = np.where(n == 1, math.inf, rng.exponential(1.0, n_phases))
    var[rng.random(n_phases) < 0.2] = 0.0
    for mean in (rng.normal(0.0, 1.0, n_phases) * (rng.random(n_phases)
                                                   < 0.8),
                 np.full(n_phases, -0.0), np.zeros(n_phases)):
        for k in range(1, 9):
            got = estimator._assemble(k, phases, mean, var, n, True, 0.8)
            want = assemble_by_loop(k, phases, mean, var, n, True, 0.8)
            assert repr(got) == repr(want)


def test_estimate_all_refuses_two_tables_of_one_order():
    plan = ExperimentPlan.uniform(VACUUM, n_phases=4, events=100, seed=2)
    ms = run_experiment(plan)
    t1, t2 = (build_kernel_table(KernelSpec(k=k)) for k in (1, 2))
    t1_coarse = build_kernel_table(KernelSpec(k=1), grid_step=0.05)
    for tables in ([t1, t1_coarse, t2], [t1_coarse, t1, t2]):
        with pytest.raises(ValueError, match=r"^two kernel tables for k = 1$"):
            estimate_all(ms, 2, tables)
    assert estimate_all(ms, 2, [t2, t1]) == estimate_all(ms, 2, {1: t1,
                                                                 2: t2})


@pytest.mark.parametrize("stand_in", [False, True])
@pytest.mark.parametrize("eta", [1.0, 0.8])
def test_estimate_all_equals_per_phase_oracle(eta, stand_in):
    plan = ExperimentPlan(state=SQUEEZED, events_per_phase=MIXED_COUNTS,
                          eta=eta, seed=31)
    ms = run_experiment(plan, capture_tol=0.05)
    tables = {k: build_kernel_table(KernelSpec(k=k, eta=eta))
              for k in range(1, 5)}
    if stand_in:
        tables = {k: CountingTable(t) for k, t in tables.items()}
    assert_same_estimates(estimate_all(ms, 4, tables),
                          per_phase_estimates(ms, tables))


def test_small_phases_take_one_inverse_transform_and_one_evaluate(
        monkeypatch, default_tables):
    # the replications benchmark's state and plan, on a 421-node grid
    plan = ExperimentPlan.uniform(
        StateSpec(kind="coherent", alpha=1.0, n_max=25), n_phases=24,
        events=500, seed=6)
    draws = []
    real = simulator._quantiles

    def counting(u, *args, **kwargs):
        draws.append(u.size)
        return real(u, *args, **kwargs)

    monkeypatch.setattr(simulator, "_quantiles", counting)
    ms = run_experiment(plan)
    assert draws == [24 * 500]
    counters = {k: CountingTable(default_tables[k]) for k in range(1, 5)}
    estimate_all(ms, 4, counters)
    assert [c.calls for c in counters.values()] == [1] * 4
    # each evaluate reads the group straight out of the run's array
    assert all(x.ctypes.data == ms.samples.ctypes.data
               and x.size == ms.samples.size
               for c in counters.values() for x in c.inputs)


# Exact: phases this small take the per-sample values (SUMS_PER_SEGMENT).
def test_tables_with_only_spec_and_evaluate_are_accepted(default_tables):
    class SpecAndEvaluate:
        __slots__ = ("spec", "evaluate")

        def __init__(self, table):
            self.spec = table.spec
            self.evaluate = table.evaluate

    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=6, events=500, seed=4)
    ms = run_experiment(plan, capture_tol=0.05)
    plain = {k: default_tables[k] for k in range(1, 5)}
    wrapped = {k: SpecAndEvaluate(t) for k, t in plain.items()}
    assert_same_estimates(estimate_all(ms, 4, wrapped),
                          estimate_all(ms, 4, plain))


@pytest.fixture
def summed(monkeypatch):
    """Every KernelTable through the per-segment sums, however few
    samples its phases hold."""
    monkeypatch.setattr(estimator, "SUMS_PER_SEGMENT", 0)


def _two_valued(rng, counts):
    pairs = rng.uniform(-3.9, 3.9, (len(counts), 2))
    return np.concatenate([rng.choice(pair, n) for pair, n in zip(pairs,
                                                                   counts)])


def _tail_heavy(rng, counts):
    # nine in ten samples beyond x0 = 4, out to 1e6, either sign
    size = sum(counts)
    beyond = 4.0 + rng.exponential(3.0, size) * 10.0 ** rng.integers(0, 6,
                                                                      size)
    x = np.where(rng.random(size) < 0.9, beyond, rng.uniform(-4, 4, size))
    return x * rng.choice([-1.0, 1.0], size)


def _simulated(rng, counts):
    plan = ExperimentPlan(state=SQUEEZED, events_per_phase=counts, seed=37)
    return run_experiment(plan, capture_tol=0.05).samples


def _tight_clusters(rng, counts):
    # each phase within +-0.01 of 3.9, the next within +-0.01 of -3.9
    centre = np.repeat(np.where(np.arange(len(counts)) % 2, -3.9, 3.9),
                       counts)
    return centre + rng.uniform(-0.01, 0.01, centre.size)


def _summed_case(records, counts, eta):
    tables = {k: build_kernel_table(KernelSpec(k=k, eta=eta))
              for k in range(1, 9)}
    plan = ExperimentPlan(state=SQUEEZED, events_per_phase=counts, eta=eta)
    return MeasurementSet(plan, records(np.random.default_rng(23), counts)), \
        tables


@pytest.mark.parametrize("records, counts", [
    (_two_valued, (40,) * 12), (_tail_heavy, (40,) * 12),
    (_two_valued, (1,) * 12), (_simulated, MIXED_COUNTS),
])
@pytest.mark.parametrize("eta", [1.0, 0.8])
def test_segment_sums_match_the_fsum_oracle(summed, records, counts, eta):
    # two-valued, tail-heavy and single-event records, and a plan whose
    # group and run boundaries fall everywhere
    ms, tables = _summed_case(records, counts, eta)
    assert_close_estimates(_estimate(ms, tables), fsum_estimates(ms, tables))


@pytest.mark.parametrize("eta", [1.0, 0.8])
def test_segment_sums_centre_each_phase_on_its_own_mean(summed, eta):
    # Kernel values that barely spread about means far apart: squares
    # about one mean of the whole run lose every digit of the variance.
    # Per-sample values carry their own rounding, which is as large here,
    # so the reference is the tables' unrounded values.
    ms, tables = _summed_case(_tight_clusters, (40,) * 12, eta)
    assert_close_estimates(_estimate(ms, tables),
                           exact_segment_estimates(ms, tables))


def test_large_phases_take_the_segment_sums_on_each_grid(monkeypatch,
                                                         default_tables):
    # two samples per segment on average: the sums, for the tables of
    # each grid apart, so an order's numbers are those it gets alone
    tables = {k: default_tables[k] for k in range(1, 5)}
    tables[3] = build_kernel_table(KernelSpec(k=3), grid_step=0.01)
    plan = ExperimentPlan.uniform(SQUEEZED, n_phases=6,
                                  events=2 * (tables[1].grid.size + 1),
                                  seed=8)
    ms = run_experiment(plan, capture_tol=0.05)
    monkeypatch.setattr(KernelTable, "evaluate", None)
    got = estimate_all(ms, 4, tables)
    assert_same_estimates(got, [_estimate(ms, {k: tables[k]})[0]
                                for k in range(1, 5)])
    monkeypatch.undo()
    assert_close_estimates(got, fsum_estimates(ms, tables))


@pytest.mark.parametrize("eta", [1.0, 0.8])
def test_stacked_tail_rows_equal_their_spec_alone(eta):
    tables = [build_kernel_table(KernelSpec(k=k, eta=eta))
              for k in range(1, 9)]
    rng = np.random.default_rng(29)
    x = np.concatenate((4.0 + rng.exponential(2.0, 3000), [4.0, 1e300,
                                                          np.inf]))
    x = np.concatenate((x, -x, [np.nan]))
    stacked = _tail_value([t.spec for t in tables],
                          [t.edge_gap for t in tables], x)
    for t, row in zip(tables, stacked):
        alone = _tail_value([t.spec], [t.edge_gap], x)[0]
        assert row.tobytes() == alone.tobytes()


# A small estimate_all on the per-segment sums (two samples per segment
# of the 1602-segment grid), run in a child process per BLAS thread count.
BLAS_CHILD = """
from phasekit import (ExperimentPlan, KernelSpec, StateSpec,
                      build_kernel_table, estimate_all, run_experiment)
tables = [build_kernel_table(KernelSpec(k=k)) for k in (1, 2, 3)]
plan = ExperimentPlan.uniform(
    StateSpec(kind="squeezed_vacuum", squeeze=-1.31, n_max=20),
    n_phases=12, events=3204, seed=11)
ms = run_experiment(plan, capture_tol=0.05)
for e in estimate_all(ms, 3, tables):
    print(repr((e.value, e.var_re, e.var_im)))
"""


def test_moments_do_not_depend_on_the_blas_thread_count():
    import os
    import subprocess
    import sys

    import phasekit

    src = os.path.dirname(os.path.dirname(phasekit.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", BLAS_CHILD], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] and outputs[0].count("\n") == 3

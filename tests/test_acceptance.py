"""Acceptance criteria for the full pipeline, one [PASS]/[FAIL] line each.

Run with -s to see the per-criterion lines; each criterion is a single
test so the -v listing carries the same verdicts.  The three statistical
criteria (5, 6, 7) run seeded experiments at realistic size:
120 phases with 10^4 events each, or 24 phases with 5 * 10^3.
"""

import math
import time

import numpy as np
from scipy import integrate

from _oracles import moment_by_phase_quadrature, panel_rule, total_variation
from phasekit.estimator import (
    MomentEstimate,
    _estimate,
    aliasing_bias,
    estimate_all,
    kernel_overlaps,
)
from phasekit.kernels import (
    KernelSpec,
    build_kernel_table,
    classical_kernel,
    integral_kernel_k1,
    integral_kernel_k2,
    quantum_kernel,
)
from phasekit.reconstruct import fourier_reconstruct, least_squares_reconstruct
from phasekit.simulator import ExperimentPlan, run_experiment
from phasekit.states import StateSpec, build_state, exact_moments, exact_phase_dist

# The moment-sampling runs build the squeezed vacuum at a cutoff high
# enough that the missing tail is below the default capture tolerance;
# a cutoff of 20 loses 1.2% of the norm and shifts the even moments by
# several of the run's error bars.  The hard-truncated variant is used
# only where a finite moment set is the point (criteria 8 and 10).
SQUEEZED_FULL = StateSpec(kind="squeezed_vacuum", squeeze=-1.31, n_max=90)
SQUEEZED_TRUNC = StateSpec(kind="squeezed_vacuum", squeeze=-1.31, n_max=20)
DISPLACED = StateSpec(kind="displaced_fock", alpha=-1.5, fock_n=2, n_max=20)

_cache = {}


def report(criterion, ok, detail):
    print("[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", criterion,
                                     detail))
    assert ok, "criterion %d: %s" % (criterion, detail)


def squeezed_run_estimates(default_tables):
    """Squeezed-vacuum run at demo size, simulated and estimated once."""
    if "squeezed_run" not in _cache:
        start = time.monotonic()
        plan = ExperimentPlan.uniform(SQUEEZED_FULL, n_phases=120,
                                      events=10000, seed=2021)
        ms = run_experiment(plan)
        estimates = estimate_all(ms, 8, default_tables)
        _cache["squeezed_run"] = (estimates, time.monotonic() - start)
    return _cache["squeezed_run"]


def max_sigma_deviation(estimates, rho):
    worst = 0.0
    for est in estimates:
        exact = exact_moments(rho, est.k)
        worst = max(worst, abs(est.value.real - exact.real) / est.sigma_re,
                    abs(est.value.imag - exact.imag) / est.sigma_im)
    return worst


def test_criterion_01_kernel_moment_identity():
    start = time.monotonic()
    worst = 0.0
    for k in range(1, 6):
        table = build_kernel_table(KernelSpec(k=k))
        q = kernel_overlaps(table.evaluate, table.spec.x0, 30 + k)
        worst = max(worst, float(np.max(np.abs(np.diagonal(q, -k) - 1.0))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-3 and elapsed < 120.0
    report(1, ok, "moment identity k<=5, n<=30: max residual %.2e "
                  "(tol 1e-3) in %.1f s (limit 120 s)" % (worst, elapsed))


def test_criterion_02_classical_phase_average_identity():
    breaks = [0.5 * math.pi, 1.5 * math.pi]
    worst = 0.0
    for k in range(1, 6):
        for r in (0.5, 1.0, 2.0, 5.0, 10.0):
            re_val = integrate.quad(
                lambda phi: math.cos(k * phi)
                * classical_kernel(k, r * math.cos(phi)),
                0.0, 2.0 * math.pi, points=breaks, limit=300,
            )[0]
            im_val = integrate.quad(
                lambda phi: math.sin(k * phi)
                * classical_kernel(k, r * math.cos(phi)),
                0.0, 2.0 * math.pi, points=breaks, limit=300,
            )[0]
            worst = max(worst, abs(complex(re_val, im_val) - 1.0))
    ok = worst < 1e-6
    report(2, ok, "classical identity k<=5, r<=10: max residual %.2e "
                  "(tol 1e-6)" % worst)


def test_criterion_03_classical_asymptotics(default_tables):
    x_odd = np.arange(4.0, 30.0, 0.5)
    gap_odd = np.max(np.abs(default_tables[1].evaluate(x_odd) - 0.25))
    x_even = np.arange(8.0, 40.0, 2.0)
    steps = default_tables[2].evaluate(2.0 * x_even) \
        - default_tables[2].evaluate(x_even)
    gap_even = np.max(np.abs(steps - math.log(2.0) / math.pi))
    ok = gap_odd < 1e-2 and gap_even < 1e-2
    report(3, ok, "asymptotics: |K_1 - 1/4| <= %.2e for x >= 4, "
                  "|K_2(2x) - K_2(x) - ln2/pi| <= %.2e for x >= 8 "
                  "(tol 1e-2)" % (gap_odd, gap_even))


def test_criterion_04_closed_integral_cross_checks():
    xs = np.linspace(0.0, 4.0, 17)
    gap_1 = max(
        abs(quantum_kernel(1, float(x)) - integral_kernel_k1(float(x)))
        for x in xs
    )
    diffs = [
        quantum_kernel(2, float(x)) - integral_kernel_k2(float(x))
        for x in xs
    ]
    gap_2 = max(diffs) - min(diffs)
    ok = gap_1 < 1e-4 and gap_2 < 1e-4
    report(4, ok, "closed integral forms on [0, 4]: k=1 max gap %.2e, "
                  "k=2 constant-free spread %.2e (tol 1e-4)"
                  % (gap_1, gap_2))


def test_criterion_05_squeezed_end_to_end(default_tables):
    estimates, elapsed = squeezed_run_estimates(default_tables)
    rho = build_state(SQUEEZED_FULL)
    worst = max_sigma_deviation(estimates, rho)
    ok = worst < 4.0 and elapsed < 300.0
    report(5, ok, "squeezed vacuum, 120 phases x 10^4 events: k<=8 "
                  "within %.2f sigma (limit 4) in %.1f s (limit 300 s)"
                  % (worst, elapsed))


def test_criterion_06_displaced_fock_end_to_end(default_tables,
                                                rho_displaced_fock):
    plan = ExperimentPlan.uniform(DISPLACED, n_phases=120, events=10000,
                                  seed=2022)
    ms = run_experiment(plan)
    estimates = estimate_all(ms, 8, default_tables)
    worst = max_sigma_deviation(estimates, rho_displaced_fock)
    ok = worst < 4.0
    report(6, ok, "displaced Fock, same plan: k<=8 within %.2f sigma "
                  "(limit 4)" % worst)


def test_criterion_07_efficiency_compensation(rho_coherent_unit):
    eta = 0.8
    spec = StateSpec(kind="coherent", alpha=1.0, n_max=25)
    plan = ExperimentPlan.uniform(spec, n_phases=24, events=5000,
                                  eta=eta, seed=2023)
    ms = run_experiment(plan)
    worst = 0.0
    for k in (1, 2):
        table = build_kernel_table(KernelSpec(k=k, eta=eta))
        est = _estimate(ms, {k: table})[0]
        exact = exact_moments(rho_coherent_unit, k)
        worst = max(worst, abs(est.value.real - exact.real) / est.sigma_re,
                    abs(est.value.imag - exact.imag) / est.sigma_im)
    plain = _estimate(ms, {1: build_kernel_table(KernelSpec(k=1))})[0]
    psi_1 = abs(exact_moments(rho_coherent_unit, 1))
    shortfall = (psi_1 - abs(plain.value)) / plain.sigma_re
    ok = worst < 4.0 and shortfall > 4.0
    report(7, ok, "eta=0.8 coherent run: compensated k<=2 within %.2f "
                  "sigma (limit 4); uncompensated |Psi_1| low by %.1f "
                  "sigma (need > 4)" % (worst, shortfall))


def test_criterion_08_aliasing_control(default_tables, rho_squeezed):
    k = 2
    table = default_tables[k]
    xs, ws = panel_rule()
    coarse = moment_by_phase_quadrature(rho_squeezed, k, 12, table, xs, ws)
    fine = moment_by_phase_quadrature(rho_squeezed, k, 360, table, xs, ws)
    predicted = aliasing_bias(rho_squeezed, k, 12, table)
    gap = abs(predicted - (coarse - fine))
    residual_120 = abs(aliasing_bias(rho_squeezed, k, 120, table))
    ok = gap < 1e-4 and residual_120 < 1e-4
    report(8, ok, "aliasing: predicted N=12 bias off by %.2e from "
                  "phase-quadrature truth, N=120 bias %.2e (tol 1e-4)"
                  % (gap, residual_120))


def test_criterion_09_variance_calibration(default_tables):
    k = 2
    n_reps = 50
    values = np.empty(n_reps, dtype=complex)
    var_re = np.empty(n_reps)
    var_im = np.empty(n_reps)
    for rep in range(n_reps):
        plan = ExperimentPlan.uniform(SQUEEZED_TRUNC, n_phases=24,
                                      events=500, seed=3000 + rep)
        ms = run_experiment(plan, capture_tol=0.05)
        est = _estimate(ms, {k: default_tables[k]})[0]
        values[rep] = est.value
        var_re[rep] = est.var_re
        var_im[rep] = est.var_im
    ratio_re = np.mean(var_re) / np.var(values.real, ddof=1)
    ratio_im = np.mean(var_im) / np.var(values.imag, ddof=1)
    ok = all(1.0 / 1.5 < r < 1.5 for r in (ratio_re, ratio_im))
    report(9, ok, "variance calibration over %d replications: "
                  "predicted/empirical = %.2f (Re), %.2f (Im) "
                  "(window [0.67, 1.5])" % (n_reps, ratio_re, ratio_im))


def test_criterion_10_reconstruction(default_tables, rho_squeezed):
    exact_m = [
        MomentEstimate(k=k, value=exact_moments(rho_squeezed, k),
                       var_re=1e-6, var_im=1e-6, n_phases=120,
                       compensated=False, eta_assumed=1.0)
        for k in range(1, 21)
    ]
    fr = fourier_reconstruct(exact_m, 20, 256)
    sup_exact = np.max(np.abs(fr.values
                              - exact_phase_dist(rho_squeezed, fr.grid)))
    ls = least_squares_reconstruct(exact_m, 20, 256, reg_lambda=0.0)
    sup_ls = np.max(np.abs(ls.values - fr.values))

    estimates, _ = squeezed_run_estimates(default_tables)
    tvs = []
    for lam in (1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4):
        dist = least_squares_reconstruct(estimates, 8, 128, reg_lambda=lam)
        tvs.append(total_variation(dist))
    monotone = all(hi <= lo + 1e-12 for lo, hi in zip(tvs[:-1], tvs[1:]))
    ok = sup_exact < 1e-10 and sup_ls < 1e-8 and monotone
    report(10, ok, "reconstruction: Fourier sup error %.1e (tol 1e-10), "
                   "min-norm LS vs Fourier %.1e (tol 1e-8), total "
                   "variation monotone over 7 decades of reg_lambda: %s "
                   "(%.3f -> %.3f)"
                   % (sup_exact, sup_ls, monotone, tvs[0], tvs[-1]))

"""In-process workloads of the phasekit benchmark and their gates.

reference     the acceptance run: squeezed vacuum, 120 phases x 10^4
              events, k <= 8, Fourier synthesis.  Per-event work
              (inverse-CDF sampling, kernel evaluation) dominates.
replications  a stream of small lossy calibration experiments: coherent
              state, eta = 0.8, compensated kernels, 24 phases x 500
              events, regularised least squares.  Fixed per-phase and
              per-experiment costs dominate: each 500-event phase
              tabulates a CDF of about 24k points.

Tables and the state are built in set-up.  One experiment runs from
plan to P(phi); the gates run after it, outside the timed region.
"""

import math
import resource
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from phasekit import (
    ExperimentPlan,
    KernelSpec,
    StateSpec,
    build_kernel_table,
    build_state,
    estimate_all,
    exact_moments,
    fourier_reconstruct,
    least_squares_reconstruct,
    run_experiment,
)
from phasekit.states import CAPTURE_TOL

import layers
from spans import NullTracer

# The pooled pull RMS is a calibration statistic; with fewer pulls than
# this its own scatter is too wide for the [0.75, 1.25] window (a full
# replications run pools about 500).
MIN_POOLED_PULLS = 200


@dataclass(frozen=True)
class InProcess:
    name: str
    state: StateSpec
    capture_tol: float
    n_phases: int
    events: int
    eta: float
    k_max: int
    compensate: bool
    method: str
    K: int
    M: int
    max_pull: float
    reg_lambda: float = 0.0
    norm_tol: float = None
    rms_range: tuple = None

    @property
    def events_per_experiment(self):
        return self.n_phases * self.events


REFERENCE = InProcess(
    name="reference",
    state=StateSpec(kind="squeezed_vacuum", squeeze=-1.31, n_max=20),
    capture_tol=0.05, n_phases=120, events=10_000, eta=1.0, k_max=8,
    compensate=False, method="fourier", K=8, M=256,
    max_pull=5.0, norm_tol=1e-9,
)

REPLICATIONS = InProcess(
    name="replications",
    state=StateSpec(kind="coherent", alpha=1.0, n_max=25),
    capture_tol=CAPTURE_TOL, n_phases=24, events=500, eta=0.8, k_max=4,
    compensate=True, method="least_squares", K=4, M=256, reg_lambda=1e-2,
    max_pull=6.0, rms_range=(0.75, 1.25),
)

FULL = {w.name: w for w in (REFERENCE, REPLICATIONS)}
# Small enough for a self-test; every code path of the full size runs.
TINY = {
    "reference": replace(REFERENCE, n_phases=30, events=200),
    "replications": replace(REPLICATIONS, n_phases=12, events=100),
}


def iteration_seed(seed, i):
    """Plan seed of iteration i of a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


@dataclass
class Context:
    tables: dict
    exact: dict


def setup(wl, tracer):
    """Kernel tables and the exact moments of the truncated state."""
    kernel_eta = wl.eta if wl.compensate else 1.0
    tables = {}
    for k in range(1, wl.k_max + 1):
        with tracer.span(layers.BUILD_TABLE):
            tables[k] = build_kernel_table(KernelSpec(k=k, eta=kernel_eta))
    with tracer.span(layers.BUILD_STATE):
        rho = build_state(wl.state, capture_tol=wl.capture_tol)
    exact = {k: exact_moments(rho, k) for k in range(1, wl.k_max + 1)}
    return Context(tables=tables, exact=exact)


def iteration(wl, seed, tables, tracer):
    """One experiment, plan to P(phi)."""
    plan = ExperimentPlan.uniform(wl.state, wl.n_phases, wl.events,
                                  eta=wl.eta, seed=seed)
    with tracer.span(layers.RUN_EXPERIMENT, wl.events_per_experiment):
        ms = run_experiment(plan, capture_tol=wl.capture_tol)
    with tracer.span(layers.ESTIMATE_ALL):
        estimates = estimate_all(ms, wl.k_max, tables)
    if wl.method == "fourier":
        with tracer.span(layers.FOURIER):
            dist = fourier_reconstruct(estimates, wl.K, wl.M)
    else:
        with tracer.span(layers.LEAST_SQUARES):
            dist = least_squares_reconstruct(
                estimates, wl.K, wl.M, reg_lambda=wl.reg_lambda,
                normalize=True,
            )
    return estimates, dist


def _pull(diff, sigma):
    if sigma > 0.0:
        return diff / sigma
    return 0.0 if diff == 0.0 else math.inf


def pulls(estimates, exact):
    """(estimate - exact) / sigma for the Re and Im part of each order."""
    out = []
    for est in estimates:
        ref = exact[est.k]
        out.append(_pull(est.value.real - ref.real, est.sigma_re))
        out.append(_pull(est.value.imag - ref.imag, est.sigma_im))
    return out


def gate(wl, ctx, estimates, dist):
    """Problems found in one experiment's output, and its pulls."""
    found = []
    if sorted(e.k for e in estimates) != list(range(1, wl.k_max + 1)):
        found.append("estimated orders do not run 1..%d" % wl.k_max)
    p = pulls(estimates, ctx.exact)
    worst = max(abs(v) for v in p)
    if not worst <= wl.max_pull:
        found.append("pull %.2f beyond %g sigma" % (worst, wl.max_pull))
    if wl.norm_tol is not None and not abs(dist.norm() - 1.0) <= wl.norm_tol:
        found.append("P(phi) norm off by %.3e" % abs(dist.norm() - 1.0))
    return found, p


def run_gate(wl, all_pulls):
    """Run-level problems: the pooled pull RMS of a calibration study."""
    if wl.rms_range is None or len(all_pulls) < MIN_POOLED_PULLS:
        return []
    rms = math.sqrt(sum(v * v for v in all_pulls) / len(all_pulls))
    lo, hi = wl.rms_range
    if not lo <= rms <= hi:
        return ["pooled pull RMS %.3f outside [%g, %g] over %d pulls"
                % (rms, lo, hi, len(all_pulls))]
    return []


def failure(exc):
    """Report an exception that failed an iteration; the run goes on."""
    traceback.print_exc()
    return "".join(traceback.format_exception_only(exc)).strip()


@dataclass
class Outcome:
    """What one timed loop measured and found."""

    times: list = field(default_factory=list)
    traced_times: list = field(default_factory=list)
    events: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def record(self, i, found, wall, traced, events):
        self.attempted += 1
        if found:
            self.failed += 1
            self.problems.extend("iteration %d: %s" % (i, p) for p in found)
        elif traced:
            self.traced_times.append(wall)
        else:
            self.times.append(wall)
            self.events += events


def run(wl, ctx, seed, seconds, tracer, instrument):
    """Warm up once, then run experiments for `seconds` seconds.

    With an instrument (traced run), odd iterations run untraced and
    even ones traced, so both halves see the same machine conditions
    and their medians give the tracing overhead.
    """
    untraced = NullTracer()
    iteration(wl, iteration_seed(seed, 0), ctx.tables, untraced)
    traced_tables = instrument.tables(ctx.tables) if instrument else None
    out = Outcome()
    all_pulls = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or out.attempted < (
        2 if instrument else 1
    ):
        i += 1
        traced = instrument is not None and i % 2 == 0
        try:
            if traced:
                with instrument.patched():
                    with tracer.span(layers.ITERATION) as span:
                        estimates, dist = iteration(
                            wl, iteration_seed(seed, i), traced_tables,
                            tracer,
                        )
                instrument.flush()
                wall = span[4] - span[3]
            else:
                t0 = time.perf_counter()
                estimates, dist = iteration(
                    wl, iteration_seed(seed, i), ctx.tables, untraced
                )
                wall = time.perf_counter() - t0
            found, p = gate(wl, ctx, estimates, dist)
            all_pulls.extend(p)
        except Exception as exc:
            found, wall = [failure(exc)], None
        out.record(i, found, wall, traced, wl.events_per_experiment)
    out.problems.extend(run_gate(wl, all_pulls))
    out.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF
    ).ru_maxrss / 1024.0
    return out

"""Layer boundaries of phasekit, as the benchmark traces them from outside.

The layers are the package modules.  Spans are taken around calls into
their public functions: directly where the benchmark makes the call,
through wrappers set on the module attributes that phasekit itself
calls through (phasekit.simulator, and the names phasekit.cli imports),
and through proxy kernel tables handed to estimate_all.  Nothing here
is active outside a traced run.

specfun has no public boundary these workloads cross from outside; its
time sits inside the kernels and states spans.

Importing this module imports numpy, so load it only after the
`import phasekit` span has closed.
"""

import os
from statistics import median

import numpy as np

import phasekit.simulator as simulator
from spans import children_index, coverage, patched, subtree_totals

IMPORT = "import.phasekit"
BUILD_TABLE = "kernels.build_kernel_table"
EVALUATE = "kernels.KernelTable.evaluate"
EVALUATE_TAIL = "kernels.KernelTable.evaluate.tail"
BUILD_STATE = "states.build_state"
QUADRATURE_PDF = "states.quadrature_pdf"
SAMPLE = "simulator.sample_quadrature"
RUN_EXPERIMENT = "simulator.run_experiment"
SAVE_RECORDS = "simulator.save_records"
LOAD_RECORDS = "simulator.load_records"
ESTIMATE_ALL = "estimator.estimate_all"
SAVE_MOMENTS = "estimator.save_moments"
LOAD_MOMENTS = "estimator.load_moments"
FOURIER = "reconstruct.fourier_reconstruct"
LEAST_SQUARES = "reconstruct.least_squares_reconstruct"
SAVE_DIST = "reconstruct.save_distribution"
CLI_STAGES = ("simulate", "estimate", "reconstruct")
SETUP = "setup"
ITERATION = "iteration"

# Every per-layer metric, with its unit; a traced run reports all of
# them on every workload, zero where the workload does not cross that
# boundary.  Times and counts are per experiment (one chain on
# cli_files), as medians over the traced iterations, unless the name
# says otherwise.
PER_LAYER = (
    ("import.phasekit_s", "s"),
    ("kernels.build_kernel_table.calls", "count"),
    ("kernels.build_kernel_table.cold_s", "s"),
    ("kernels.KernelTable.evaluate.calls", "count"),
    ("kernels.KernelTable.evaluate.samples", "count"),
    ("kernels.KernelTable.evaluate.s", "s"),
    ("kernels.KernelTable.evaluate.ns_per_sample", "ns"),
    ("kernels.KernelTable.evaluate.tail_frac", "frac"),
    ("states.build_state.calls", "count"),
    ("states.build_state.s", "s"),
    ("states.quadrature_pdf.calls", "count"),
    ("states.quadrature_pdf.points", "count"),
    ("states.quadrature_pdf.s", "s"),
    ("simulator.sample_quadrature.calls", "count"),
    ("simulator.sample_quadrature.events", "count"),
    ("simulator.sample_quadrature.s", "s"),
    ("simulator.sample_quadrature.self_s", "s"),
    ("simulator.run_experiment.s", "s"),
    ("simulator.run_experiment.self_s", "s"),
    ("simulator.cdf_points_per_event", "points/event"),
    ("simulator.save_records.s", "s"),
    ("simulator.save_records.bytes", "B"),
    ("simulator.load_records.s", "s"),
    ("simulator.load_records.rows_per_s", "1/s"),
    ("estimator.estimate_all.calls", "count"),
    ("estimator.estimate_all.s", "s"),
    ("estimator.estimate_all.self_s", "s"),
    ("estimator.save_moments.s", "s"),
    ("estimator.load_moments.s", "s"),
    ("reconstruct.fourier_reconstruct.s", "s"),
    ("reconstruct.least_squares_reconstruct.s", "s"),
    ("reconstruct.save_distribution.s", "s"),
    ("cli.simulate.wall_s", "s"),
    ("cli.estimate.wall_s", "s"),
    ("cli.reconstruct.wall_s", "s"),
    ("cli.unaccounted_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.child_coverage_frac", "frac"),
    ("trace.iterations", "count"),
)


class TracedTable:
    """Stands in for a KernelTable inside estimate_all.

    Exposes the table's .spec and a traced .evaluate.  The share of
    samples in the classical tail is counted after the iteration (see
    Instrument.flush), so the counting stays out of every span.
    """

    def __init__(self, table, instrument):
        self.spec = table.spec
        self._evaluate = table.evaluate
        self._instrument = instrument

    def evaluate(self, x):
        tracer = self._instrument.tracer
        span = tracer.begin(EVALUATE, np.size(x))
        try:
            return self._evaluate(x)
        finally:
            tracer.end(span)
            self._instrument.pending.append((span, x, self.spec.x0))


def _events(plan):
    return sum(plan.events_per_phase)


class Instrument:
    """Traced stand-ins for the phasekit functions the workloads reach."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.pending = []

    def tables(self, tables):
        return {k: TracedTable(t, self) for k, t in tables.items()}

    def simulator_targets(self):
        """Wrappers for the names run_experiment calls through."""
        wrap = self.tracer.wrap
        return [
            (simulator, "build_state",
             wrap(BUILD_STATE, simulator.build_state)),
            (simulator, "sample_quadrature",
             wrap(SAMPLE, simulator.sample_quadrature,
                  count_in=lambda a, kw: int(a[2]))),
            (simulator, "quadrature_pdf",
             wrap(QUADRATURE_PDF, simulator.quadrature_pdf,
                  count_in=lambda a, kw: np.size(a[1]))),
        ]

    def patched(self):
        """Context in which run_experiment's inner calls are traced."""
        return patched(self.simulator_targets())

    def cli_targets(self, cli):
        """Wrappers for the names phasekit.cli imported at load time."""
        wrap = self.tracer.wrap
        build = wrap(BUILD_TABLE, cli.build_kernel_table)

        def traced_build(*args, **kwargs):
            return TracedTable(build(*args, **kwargs), self)

        targets = [
            ("run_experiment", RUN_EXPERIMENT,
             dict(count_in=lambda a, kw: _events(a[0]))),
            ("save_records", SAVE_RECORDS,
             dict(count_out=lambda r, a, kw: os.path.getsize(a[1]))),
            ("load_records", LOAD_RECORDS,
             dict(count_out=lambda r, a, kw: _events(r.plan))),
            ("estimate_all", ESTIMATE_ALL, {}),
            ("save_moments", SAVE_MOMENTS, {}),
            ("load_moments", LOAD_MOMENTS, {}),
            ("fourier_reconstruct", FOURIER, {}),
            ("least_squares_reconstruct", LEAST_SQUARES, {}),
            ("save_distribution", SAVE_DIST, {}),
        ]
        return [(cli, "build_kernel_table", traced_build)] + [
            (cli, attr, wrap(name, getattr(cli, attr), **counts))
            for attr, name, counts in targets
        ]

    def flush(self):
        """Record tail-sample counts as zero-length child spans."""
        for span, x, x0 in self.pending:
            tail = int(np.count_nonzero(np.abs(np.asarray(x)) > x0))
            self.tracer.spans.append(
                [len(self.tracer.spans), span[0], EVALUATE_TAIL,
                 span[4], span[4], tail]
            )
        self.pending.clear()


def _ratio(num, den):
    return num / den if den else 0.0


def _iteration_metrics(t):
    """Per-layer values of one iteration from its per-name totals."""
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0}

    def get(name):
        return t.get(name, zero)

    ev, pdf, sample = get(EVALUATE), get(QUADRATURE_PDF), get(SAMPLE)
    load = get(LOAD_RECORDS)
    out = {
        "kernels.KernelTable.evaluate.calls": ev["calls"],
        "kernels.KernelTable.evaluate.samples": ev["count"],
        "kernels.KernelTable.evaluate.s": ev["s"],
        "kernels.KernelTable.evaluate.ns_per_sample":
            1e9 * _ratio(ev["s"], ev["count"]),
        "kernels.KernelTable.evaluate.tail_frac":
            _ratio(get(EVALUATE_TAIL)["count"], ev["count"]),
        "states.build_state.calls": get(BUILD_STATE)["calls"],
        "states.build_state.s": get(BUILD_STATE)["s"],
        "states.quadrature_pdf.calls": pdf["calls"],
        "states.quadrature_pdf.points": pdf["count"],
        "states.quadrature_pdf.s": pdf["s"],
        "simulator.sample_quadrature.calls": sample["calls"],
        "simulator.sample_quadrature.events": sample["count"],
        "simulator.sample_quadrature.s": sample["s"],
        "simulator.sample_quadrature.self_s": sample["self_s"],
        "simulator.run_experiment.s": get(RUN_EXPERIMENT)["s"],
        "simulator.run_experiment.self_s": get(RUN_EXPERIMENT)["self_s"],
        "simulator.cdf_points_per_event":
            _ratio(pdf["count"], sample["count"]),
        "simulator.save_records.s": get(SAVE_RECORDS)["s"],
        "simulator.save_records.bytes": get(SAVE_RECORDS)["count"],
        "simulator.load_records.s": load["s"],
        "simulator.load_records.rows_per_s":
            _ratio(load["count"], load["s"]),
        "estimator.estimate_all.calls": get(ESTIMATE_ALL)["calls"],
        "estimator.estimate_all.s": get(ESTIMATE_ALL)["s"],
        "estimator.estimate_all.self_s": get(ESTIMATE_ALL)["self_s"],
        "estimator.save_moments.s": get(SAVE_MOMENTS)["s"],
        "estimator.load_moments.s": get(LOAD_MOMENTS)["s"],
        "reconstruct.fourier_reconstruct.s": get(FOURIER)["s"],
        "reconstruct.least_squares_reconstruct.s": get(LEAST_SQUARES)["s"],
        "reconstruct.save_distribution.s": get(SAVE_DIST)["s"],
        "cli.unaccounted_s": sum(
            get("cli." + stage)["self_s"] for stage in CLI_STAGES
        ),
    }
    for stage in CLI_STAGES:
        out["cli.%s.wall_s" % stage] = get("cli." + stage)["s"]
    # Set-up work the CLI repeats in every chain: one cold import per
    # stage process, and the estimate stage's kernel tables.
    imports = get(IMPORT)
    out["import.phasekit_s"] = _ratio(imports["s"], imports["calls"])
    out["kernels.build_kernel_table.calls"] = get(BUILD_TABLE)["calls"]
    out["kernels.build_kernel_table.cold_s"] = get(BUILD_TABLE)["s"]
    return out


def layer_metrics(spans, overhead_frac):
    """Every PER_LAYER metric from the spans of a traced run.

    Set-up spans (in-process workloads) supply the import and cold
    table figures; elsewhere they come from inside the iterations.
    """
    kids = children_index(spans)
    roots = [s for s in spans if s[1] is None]
    iterations = [s for s in roots if s[2] == ITERATION]
    per_iter = [_iteration_metrics(subtree_totals(s, kids))
                for s in iterations]
    values = {
        name: median(m[name] for m in per_iter)
        for name in per_iter[0]
    } if per_iter else {}
    for root in roots:
        if root[2] == SETUP:
            totals = subtree_totals(root, kids)
            if IMPORT in totals:
                values["import.phasekit_s"] = totals[IMPORT]["s"]
            if BUILD_TABLE in totals:
                values["kernels.build_kernel_table.calls"] = \
                    totals[BUILD_TABLE]["calls"]
                values["kernels.build_kernel_table.cold_s"] = \
                    totals[BUILD_TABLE]["s"]
    values["trace.overhead_frac"] = overhead_frac
    values["trace.child_coverage_frac"] = min(
        (coverage(s, kids) for s in iterations), default=0.0
    )
    values["trace.iterations"] = len(iterations)
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER
    }


def overhead(untraced, traced):
    """Relative slow-down of traced over untraced iteration medians."""
    if not untraced or not traced:
        return 0.0
    return median(traced) / median(untraced) - 1.0

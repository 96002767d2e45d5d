"""phasekit benchmark: one command per workload run.

    python3 perfbench/run.py --workload {reference,replications,cli_files,all}
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from the repository root.  The program is imported from ./src.
With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric from
a traced run.  Earlier lines give a readable summary and the run's
metadata; samples, metadata and spans also go to
.bench_out/<workload>-seed<N>-trace<T>.json.  See perfbench/README.md.

Only the standard library is imported before set-up is timed, so the
set-up time includes the cold import of phasekit and its dependencies.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from spans import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("reference", "replications", "cli_files")
# Cold set-ups per run: this process, then fresh child interpreters,
# half before the timed loop and half after it, so that the median
# spans the run rather than one moment of the machine's load.
SETUP_PROBES_BEFORE = 2
SETUP_PROBES_AFTER = 2
PROBE_TIMEOUT_S = 120
# glibc sysconf names; os.sysconf_names does not list them.
SC_LEVEL2_CACHE_SIZE = 191
SC_LEVEL3_CACHE_SIZE = 194
# Recorded, not set: the benchmark runs BLAS as a user's process would.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s_p50", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every path at toy size (self-test)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def params(workload, size):
    if workload == "cli_files":
        import cli_files
        return cli_files.FULL if size == "full" else cli_files.TINY
    import workloads
    return (workloads.FULL if size == "full" else workloads.TINY)[workload]


def cold_setup(workload, size, tracer):
    """Import phasekit, then build the workload's tables and state.

    For cli_files set-up is the import alone: every CLI stage repeats
    the rest in its own process.
    """
    t0 = time.perf_counter()
    with tracer.span("setup"):
        with tracer.span("import.phasekit"):
            import phasekit  # noqa: F401
        ctx = None
        if workload != "cli_files":
            import workloads
            ctx = workloads.setup(params(workload, size), tracer)
    return time.perf_counter() - t0, ctx


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def probe_setup(args):
    """Cold set-up time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--size", args.size, "--setup-probe"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def git_rev():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def src_lines():
    total = 0
    for base, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def _sysconf(name):
    try:
        value = os.sysconf(name)
    except (OSError, ValueError):
        return None
    return value if value > 0 else None


def metadata(args, wl):
    import mpmath
    import numpy
    import scipy
    from phasekit.simulator import GRID_STEP

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    n_max = params("reference" if args.workload == "cli_files"
                   else args.workload, args.size).state.n_max
    # Simulator CDF grid: [-x_lim, x_lim] at GRID_STEP, x_lim set by
    # the highest Fock level (phasekit.simulator._inverse_cdf_table).
    x_lim = (2.0 * n_max + 1.0) ** 0.5 + 5.0
    cdf_points = int(round(2.0 * x_lim / GRID_STEP)) + 1
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "src_lines": src_lines(),
        "computed": {
            "records_bytes_per_phase": 8 * wl.events,
            "cdf_points_per_phase": cdf_points,
            "cdf_table_bytes_per_phase": 3 * 8 * cdf_points,
            "psi_matrix_bytes_per_phase": 8 * (n_max + 1) * cdf_points,
        },
        "l2_cache_bytes": _sysconf(SC_LEVEL2_CACHE_SIZE),
        "l3_cache_bytes": _sysconf(SC_LEVEL3_CACHE_SIZE),
    }


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(setups, out):
    times = out.times
    values = {
        "setup_s": statistics.median(setups),
        "pipeline_s_p50": statistics.median(times) if times else 0.0,
        "events_per_s": out.events / sum(times) if times else 0.0,
        "peak_rss_mb": out.peak_rss_mb,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def summary(args, setups, out, metrics):
    lines = ["phasekit benchmark: workload=%s seed=%d trace=%d size=%s"
             % (args.workload, args.seed, args.trace, args.size)]
    for name, m in metrics.items():
        lines.append("  %-44s %14.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        lines.append("  setup_s is the median of %d cold set-ups: %s"
                     % (len(setups), ", ".join("%.3f" % s for s in setups)))
        lines.append("  pipeline_s_p50 is over n=%d iterations"
                     % len(out.times))
        if args.workload == "replications" and len(out.times) >= 2:
            p90 = statistics.quantiles(out.times, n=10)[-1]
            lines.append("  %-44s %14.6g s (n=%d)"
                         % ("pipeline_s_p90", p90, len(out.times)))
    lines.append("  %-44s %14.6g frac (%d of %d)"
                 % ("failed_frac", out.failed / max(out.attempted, 1),
                    out.failed, out.attempted))
    lines.extend("  FAIL %s" % p for p in out.problems[:20])
    return lines


def run_all(args):
    """Run every workload in turn, each in its own process.

    The last line merges the three results, metric names prefixed with
    the workload.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace), "--size",
             args.size], stdout=subprocess.PIPE, text=True,
        )
        if done.returncode != 0:
            return done.returncode
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(
            ("%s.%s" % (workload, k), v) for k, v in result["metrics"].items()
        )
    print(json.dumps(merged))
    return 0


def main(argv):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "phasekit", "__init__.py")):
        print("error: %s holds no phasekit package; run from the "
              "repository root" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    tracer = Tracer() if args.trace else NullTracer()
    # On cli_files the traced import and tables are those each stage
    # process pays, so this process's set-up stays out of the trace.
    setup_s, ctx = cold_setup(
        args.workload, args.size,
        NullTracer() if args.workload == "cli_files" else tracer,
    )
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import layers
    import workloads

    wl = params(args.workload, args.size)
    setups = [setup_s]
    if not args.trace:
        setups += [probe_setup(args) for _ in range(SETUP_PROBES_BEFORE)]
    if args.workload == "cli_files":
        import cli_files

        tables = workloads.setup(workloads.REFERENCE, NullTracer()).tables
        out = cli_files.run(wl, ROOT, child_env(), tables, args.seed,
                            args.seconds, tracer, bool(args.trace))
    else:
        instrument = layers.Instrument(tracer) if args.trace else None
        out = workloads.run(wl, ctx, args.seed, args.seconds, tracer,
                            instrument)

    if not args.trace:
        setups += [probe_setup(args) for _ in range(SETUP_PROBES_AFTER)]
    if args.trace:
        metrics = layers.layer_metrics(
            tracer.spans, layers.overhead(out.times, out.traced_times)
        )
    else:
        metrics = end_to_end(setups, out)
    meta = metadata(args, wl)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump({"meta": meta, "metrics": metrics, "setups_s": setups,
                   "times_s": out.times, "traced_times_s": out.traced_times,
                   "problems": out.problems,
                   "spans": getattr(tracer, "spans", [])}, fh)
    print("\n".join(summary(args, setups, out, metrics)))
    print("meta %s" % json.dumps(meta))
    print(json.dumps({
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Self-test of the phasekit benchmark.

    python3 perfbench/selftest.py

Run from the repository root.  Checks that BENCHMARK.json names exactly
the metrics the code reports; runs every workload at toy size, untraced
and traced, and checks that each named metric appears with its unit;
checks that a corrupted moment fails each workload's gate; and checks
that the benchmark refuses to run without the program's sources.
Scratch files go to .bench_out/selftest.  Exits 0 when all checks pass.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_out", "selftest")
sys.path.insert(0, os.path.join(ROOT, "src"))

import cli_files  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def test_declared_metrics_match_code():
    e2e, per_layer, names = declared()
    check(e2e == dict(run.END_TO_END),
          "BENCHMARK.json end_to_end differs from run.END_TO_END")
    check(per_layer == dict(layers.PER_LAYER),
          "BENCHMARK.json per_layer differs from layers.PER_LAYER")
    check(names == list(run.WORKLOADS),
          "BENCHMARK.json workloads differ from run.WORKLOADS")


def run_tiny(workload, trace, cwd=ROOT, script=None):
    return subprocess.run(
        [sys.executable, script or os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_tiny_runs_report_every_metric():
    e2e, per_layer, _ = declared()
    for workload in run.WORKLOADS:
        for trace, want in ((0, e2e), (1, per_layer)):
            done = run_tiny(workload, trace)
            where = "%s --trace %d" % (workload, trace)
            check(done.returncode == 0,
                  "%s exited %d: %s" % (where, done.returncode,
                                        done.stderr[-2000:]))
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, "%s: result keys" % where)
            check(result["correct"] is True and result["failed"] == 0,
                  "%s: not correct: %s" % (where, done.stdout[-2000:]))
            check(isinstance(result["attempted"], int)
                  and result["attempted"] >= 1, "%s: attempted" % where)
            got = result["metrics"]
            check(set(got) == set(want), "%s: metric names %s"
                  % (where, sorted(set(got) ^ set(want))))
            for name, unit in want.items():
                check(got[name]["unit"] == unit,
                      "%s: %s unit %r" % (where, name, got[name]["unit"]))
                check(math.isfinite(got[name]["value"]),
                      "%s: %s not finite" % (where, name))
            if trace:
                check(got["trace.child_coverage_frac"]["value"] >= 0.9
                      or workload == "cli_files",
                      "%s: child spans cover too little" % where)
            else:
                check(all(got[n]["value"] > 0 for n in want),
                      "%s: a metric reads zero" % where)


def test_corrupted_moment_fails_in_process_gates():
    for name, wl in workloads.TINY.items():
        ctx = workloads.setup(wl, NullTracer())
        estimates, dist = workloads.iteration(
            wl, workloads.iteration_seed(7, 1), ctx.tables, NullTracer()
        )
        found, _ = workloads.gate(wl, ctx, estimates, dist)
        check(not found, "%s: clean iteration failed: %s" % (name, found))
        bad = list(estimates)
        bad[1] = dataclasses.replace(
            bad[1], value=bad[1].value + 10.0 * wl.max_pull * bad[1].sigma_re
        )
        found, _ = workloads.gate(wl, ctx, bad, dist)
        check(found, "%s: corrupted moment passed the gate" % name)
    wl = workloads.TINY["replications"]
    check(workloads.run_gate(wl, [2.0] * workloads.MIN_POOLED_PULLS),
          "replications: pull RMS of 2 passed the pooled gate")
    check(not workloads.run_gate(wl, [1.0] * workloads.MIN_POOLED_PULLS),
          "replications: pull RMS of 1 failed the pooled gate")


def test_corrupted_moment_fails_cli_gate():
    wl = cli_files.TINY
    workdir = os.path.join(SCRATCH, "chain")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cfg = os.path.join(workdir, "config.txt")
    with open(cfg, "w") as fh:
        fh.write(wl.config(11).to_text())
    chain = cli_files.Chain(ROOT, run.child_env(), workdir, cfg)
    check(not chain.run(NullTracer(), traced=False), "tiny chain failed")
    tables = workloads.setup(workloads.REFERENCE, NullTracer()).tables
    check(not chain.gate(wl, tables), "clean chain failed the gate")
    check(not chain.pipeline_matches(), "pipeline differs from stages")
    with open(chain.moments) as fh:
        lines = fh.read().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("2 "))
    cols = lines[row].split()
    cols[1] = "%.15e" % (float(cols[1]) * (1.0 + 1e-9))
    lines[row] = " ".join(cols)
    with open(chain.moments, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    check(chain.gate(wl, tables), "corrupted moments.txt passed the gate")
    shutil.rmtree(workdir)


def test_refuses_to_run_without_sources():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = run_tiny("reference", 0, cwd=bare,
                    script=os.path.join("perfbench", "run.py"))
    check(done.returncode != 0, "ran without src/")
    check('"metrics"' not in done.stdout, "printed a result without src/")
    shutil.rmtree(bare)


def main():
    tests = [v for k, v in sorted(globals().items())
             if k.startswith("test_") and callable(v)]
    failures = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failures += 1
            print("FAIL %s: %s" % (test.__name__, exc))
        else:
            print("ok   %s" % test.__name__)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

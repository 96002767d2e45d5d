"""cli_files workload: the phasekit CLI chain through text files.

Each chain runs `simulate`, then `estimate records.txt`, then
`reconstruct moments.txt`, every stage in a fresh interpreter with a
fresh output directory.  The state and kernel settings are those of the
reference workload at 120 phases x 2000 events (records.txt is about
12 MB).  Cold start and text I/O dominate; compute is a minor share.

The CLI runs as `python -m phasekit.cli` with PYTHONPATH=src, since it
is not installed as a console script.  In a traced chain each stage
runs through stage.py instead, which records spans inside the stage
process and writes them to a file the parent merges.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from phasekit import (
    estimate_all,
    load_distribution,
    load_moments,
    load_records,
)
from phasekit.cli import RunConfig

import layers
from spans import NullTracer
from workloads import REFERENCE, Outcome, failure, iteration_seed

# A stage that has not finished by then is killed and counted failed.
STAGE_TIMEOUT_S = 150
MATCH_RTOL = 1e-12
OUTPUTS = ("records.txt", "moments.txt", "distribution.txt")


@dataclass(frozen=True)
class CliFiles:
    n_phases: int
    events: int
    k_max: int = 8
    K: int = 8
    M: int = 256

    @property
    def events_per_experiment(self):
        return self.n_phases * self.events

    def config(self, seed):
        return RunConfig(
            state=REFERENCE.state, capture_tol=REFERENCE.capture_tol,
            n_phases=self.n_phases, events_per_phase=(self.events,),
            eta=1.0, k_max=self.k_max, recon_method="fourier",
            recon_K=self.K, recon_M=self.M, seed=seed,
        )


FULL = CliFiles(n_phases=120, events=2000)
TINY = CliFiles(n_phases=12, events=100)


def run_process(cmd, root, env, err_path):
    """Run cmd to completion; return (exit code, peak RSS in MB)."""
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=root, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _tail(path):
    with open(path, "rb") as fh:
        lines = fh.read().decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


class Chain:
    """One simulate -> estimate -> reconstruct chain in workdir."""

    def __init__(self, root, env, workdir, cfg_path):
        self.root, self.env, self.workdir = root, env, workdir
        self.cfg_path = cfg_path
        self.dirs = {s: os.path.join(workdir, s) for s in layers.CLI_STAGES}
        self.records = os.path.join(self.dirs["simulate"], OUTPUTS[0])
        self.moments = os.path.join(self.dirs["estimate"], OUTPUTS[1])
        self.dist = os.path.join(self.dirs["reconstruct"], OUTPUTS[2])
        self.peak_rss_mb = 0.0

    def _command(self, stage, traced):
        inputs = {"estimate": [self.records],
                  "reconstruct": [self.moments]}.get(stage, [])
        args = [stage, "--config", self.cfg_path, *inputs,
                "--output-dir", self.dirs[stage]]
        if traced:
            return [sys.executable, os.path.join(self.root, "perfbench",
                                                 "stage.py"),
                    self._spans_path(stage), *args]
        return [sys.executable, "-m", "phasekit.cli", *args]

    def _spans_path(self, stage):
        return os.path.join(self.workdir, "%s.spans.json" % stage)

    def run(self, tracer, traced):
        """Run the three stages; return the problems found."""
        for stage in layers.CLI_STAGES:
            err = os.path.join(self.workdir, "%s.stderr" % stage)
            with tracer.span("cli." + stage) as span:
                rc, rss = run_process(self._command(stage, traced),
                                      self.root, self.env, err)
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            if rc != 0:
                return ["%s exited %d: %s" % (stage, rc, _tail(err))]
            if traced:
                with open(self._spans_path(stage)) as fh:
                    tracer.adopt(json.load(fh), span[0])
        return []

    def gate(self, wl, tables):
        """moments.txt against an in-process estimate of records.txt."""
        found = []
        want = estimate_all(load_records(self.records), wl.k_max, tables)
        got = {m.k: m for m in load_moments(self.moments)}
        if sorted(got) != [m.k for m in want]:
            return ["moments.txt holds orders %s" % sorted(got)]
        for ref in want:
            m = got[ref.k]
            pairs = ((m.value.real, ref.value.real),
                     (m.value.imag, ref.value.imag),
                     (m.sigma_re, ref.sigma_re), (m.sigma_im, ref.sigma_im))
            if any(abs(a - b) > MATCH_RTOL * max(abs(a), abs(b))
                   for a, b in pairs) or m.compensated != ref.compensated:
                found.append("moments.txt k=%d differs from the in-process "
                             "estimate" % ref.k)
        norm = load_distribution(self.dist).norm()
        if not abs(norm - 1.0) <= 1e-9:
            found.append("distribution.txt norm off by %.3e"
                         % abs(norm - 1.0))
        return found

    def pipeline_matches(self):
        """`phasekit pipeline` must write the stage outputs byte for byte."""
        out = os.path.join(self.workdir, "pipeline")
        err = os.path.join(self.workdir, "pipeline.stderr")
        rc, _ = run_process(
            [sys.executable, "-m", "phasekit.cli", "pipeline", "--config",
             self.cfg_path, "--output-dir", out],
            self.root, self.env, err,
        )
        if rc != 0:
            return ["pipeline exited %d: %s" % (rc, _tail(err))]
        found = []
        for name, staged in zip(OUTPUTS, (self.records, self.moments,
                                          self.dist)):
            with open(staged, "rb") as a, \
                    open(os.path.join(out, name), "rb") as b:
                if a.read() != b.read():
                    found.append("pipeline %s differs from the stage "
                                 "route" % name)
        return found


def run(wl, root, env, tables, seed, seconds, tracer, traced_run):
    """Run chains for `seconds` seconds (the pipeline check excluded).

    In a traced run odd chains run untraced and even ones traced.
    """
    out = Outcome()
    base = os.path.join(root, ".bench_out", "cli_files")
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or out.attempted < (
        2 if traced_run else 1
    ):
        i += 1
        traced = traced_run and i % 2 == 0
        workdir = os.path.join(base, "chain%d" % i)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        cfg_path = os.path.join(workdir, "config.txt")
        with open(cfg_path, "w") as fh:
            fh.write(wl.config(iteration_seed(seed, i)).to_text())
        chain = Chain(root, env, workdir, cfg_path)
        chain_tracer = tracer if traced else NullTracer()
        t0 = time.perf_counter()
        try:
            with chain_tracer.span(layers.ITERATION):
                found = chain.run(chain_tracer, traced)
            wall = time.perf_counter() - t0
            if not found:
                found = chain.gate(wl, tables)
            if i == 1 and not found:
                t_check = time.perf_counter()
                found = chain.pipeline_matches()
                deadline += time.perf_counter() - t_check
        except Exception as exc:
            found, wall = [failure(exc)], None
        out.peak_rss_mb = max(out.peak_rss_mb, chain.peak_rss_mb)
        out.record(i, found, wall, traced, wl.events_per_experiment)
        shutil.rmtree(workdir, ignore_errors=True)
    return out

"""Command-line pipeline: kernels, simulation, estimation, recovery.

Subcommands operate on plain-text artifacts so every stage can be run,
inspected, and rerun independently:

  kernel-table   write the kernel tables the estimate stage builds
  simulate       draw homodyne records for the configured experiment
  estimate       sample exponential phase moments from records
  reconstruct    build the phase distribution from a moments file
  pipeline       simulate + estimate + reconstruct, run by the same code
  verify         run the kernel check suites and report residuals

All experiment parameters live in a flat key-value config file with
dotted sections, each key listed once in _CONFIG_KEYS, which both
RunConfig.to_text and parse_config follow; its state.* rows are
states.STATE_FIELDS, the text form of the records' state line, so a
state reads and writes alike in both files.  Every command but verify
reads it, and command-line flags override file values.  Each output
embeds a short hash of the effective config, so artifacts can always
be traced back to the exact settings that produced them.
"""

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass, replace

from . import textio
from .estimator import estimate_all, kernel_overlaps, save_moments, \
    load_moments
from .kernels import KernelSpec, build_kernel_table, classical_kernel, \
    integral_kernel_k1, integral_kernel_k2, quantum_kernel, save_table, \
    DEFAULT_F_TRUNCATION, DEFAULT_GRID_STEP, DEFAULT_L0, DEFAULT_X0, \
    _check_f_truncation, _check_grid_step, _check_l0, _check_x0, \
    _half_nodes
from .reconstruct import _check_K, _check_M, _check_method, \
    _check_reg_lambda, check_grid, fourier_reconstruct, \
    least_squares_reconstruct, save_distribution
from .simulator import ExperimentPlan, run_experiment, save_records, \
    load_records, _check_n_phases, _check_seed, _COUNTS, _efficiency
from .states import CAPTURE_TOL, STATE_FIELDS, StateSpec, \
    _check_capture_tol

OUTPUT_DIR_ENV = "PHASEKIT_OUTPUT_DIR"

QI_TOL = 1.0e-3
CF_TOL = 1.0e-4
CL_TOL = 1.0e-6
VERIFY_K_MAX = 5
VERIFY_N_MAX = 30
VERIFY_RADII = (0.5, 1.0, 2.0, 5.0, 10.0)
VERIFY_CLOSED_FORM_X = tuple(0.25 * i for i in range(17))


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError("not a boolean: %r" % text)


# Kinds of the integer and real keys whose values check reads.
def _int(check):
    return (check, "%d".__mod__)


def _real(check):
    return (check, lambda v: "%.17g" % v)


# Value kinds of config keys: (parse, format), lossless as a pair.  Each
# parse is the validator of the field the key fills, so a value has the
# range and message its consumer states: the state, the plan, the
# kernel module, the estimate stage or the reconstruction.
_TEXT = (str, str)
_BOOL = (_parse_bool, lambda v: "true" if v else "false")

# Every config key, in listing order: key -> (owner, attribute, kind).
# The owner "state" is the RunConfig's StateSpec, whose fields are read
# and written as the records' state line does (STATE_FIELDS); "run" is
# the RunConfig; "output" is a RunConfig field config_hash leaves out.
_CONFIG_KEYS = {
    **{"state." + name: ("state", name, kind)
       for name, kind in STATE_FIELDS.items()},
    "state.capture_tol": ("run", "capture_tol", _real(_check_capture_tol)),
    "plan.n_phases": ("run", "n_phases", _int(_check_n_phases)),
    "plan.events_per_phase": ("run", "events_per_phase", _COUNTS),
    "plan.eta": ("run", "eta", _real(_efficiency)),
    "kernel.l0": ("run", "kernel_l0", _int(_check_l0)),
    "kernel.x0": ("run", "kernel_x0", _real(_check_x0)),
    "kernel.f_truncation": ("run", "kernel_f_truncation",
                            _int(_check_f_truncation)),
    "kernel.grid_step": ("run", "kernel_grid_step", _real(_check_grid_step)),
    "kernel.compensate": ("run", "compensate", _BOOL),
    "estimate.k_max": ("run", "k_max",
                       _int(textio.integer_at_least("k_max", 1))),
    "reconstruct.method": ("run", "recon_method", (_check_method, str)),
    "reconstruct.K": ("run", "recon_K", _int(_check_K)),
    "reconstruct.M": ("run", "recon_M", _int(_check_M)),
    "reconstruct.reg_lambda": ("run", "reg_lambda",
                               _real(_check_reg_lambda)),
    "reconstruct.normalize": ("run", "normalize", _BOOL),
    "output_dir": ("output", "output_dir", _TEXT),
    "seed": ("run", "seed", _int(_check_seed)),
}


@dataclass(frozen=True)
class RunConfig:
    """Complete experiment description, one value per dotted key."""

    state: StateSpec = StateSpec(kind="vacuum")
    capture_tol: float = CAPTURE_TOL
    n_phases: int = 120
    events_per_phase: tuple = (10000,)
    eta: float = 1.0
    kernel_l0: int = DEFAULT_L0
    kernel_x0: float = DEFAULT_X0
    kernel_f_truncation: int = DEFAULT_F_TRUNCATION
    kernel_grid_step: float = DEFAULT_GRID_STEP
    compensate: bool = True
    k_max: int = 8
    recon_method: str = "fourier"
    recon_K: int = 8
    recon_M: int = 256
    reg_lambda: float = 0.0
    normalize: bool = True
    output_dir: str = "."
    seed: int = 0

    def _entry(self, key):
        """'key = value' as the config listing writes it."""
        owner, attr, (_, fmt) = _CONFIG_KEYS[key]
        value = getattr(self.state if owner == "state" else self, attr)
        return "%s = %s" % (key, fmt(value))

    def to_text(self):
        """Canonical config listing; parsing it back is lossless."""
        return "".join(self._entry(key) + "\n" for key in _CONFIG_KEYS)

    def config_hash(self):
        """Short provenance hash over the data-generating settings.

        The output directory is presentation only: the same experiment
        written to two places must carry the same hash.
        """
        physics = "\n".join(self._entry(key) for key, (owner, _, _)
                            in _CONFIG_KEYS.items() if owner != "output")
        return hashlib.sha256(physics.encode()).hexdigest()[:12]

    def plan(self):
        counts = self.events_per_phase
        if len(counts) == 1:
            counts = counts * self.n_phases
        elif len(counts) != self.n_phases:
            raise ValueError(
                "events_per_phase lists %d values for %d phases"
                % (len(counts), self.n_phases)
            )
        return ExperimentPlan(state=self.state, events_per_phase=counts,
                              eta=self.eta, seed=self.seed)

    def kernel_specs(self):
        """KernelSpecs of orders 1..k_max at the eta the estimate stage
        uses: plan.eta when kernel.compensate is on and eta < 1, else 1."""
        eta = self.eta if self.compensate and self.eta < 1.0 else 1.0
        return [KernelSpec(k=k, eta=eta, l0=self.kernel_l0,
                           x0=self.kernel_x0,
                           f_truncation=self.kernel_f_truncation)
                for k in range(1, self.k_max + 1)]

    def _keyed(self, keys, rule, *args):
        """rule(*args), its ValueError prefixed by the keys involved."""
        try:
            rule(*args)
        except ValueError as exc:
            raise ValueError("%s: %s" % (", ".join(map(self._entry, keys)),
                                         exc)) from None

    def check(self, stages):
        """Refuse, naming its keys, any setting that one of stages (run
        in STAGES order, each on the one before's output) would refuse
        after the first had written.  Per stage: simulate, the length of
        the events list; estimate, each order's KernelSpec at the eta it
        uses and the table grid step; reconstruct, check_grid.  Across
        stages: k_max < n_phases when estimate reads simulate's records,
        K <= k_max when reconstruct reads its moments.  No table is
        built; rules on one key alone are parse_config's."""
        stages = set(stages)
        if "simulate" in stages:
            self._keyed(("plan.events_per_phase", "plan.n_phases"), self.plan)
        if "estimate" in stages:
            self._keyed(("plan.eta", "kernel.compensate"), self.kernel_specs)
            self._keyed(("kernel.grid_step", "kernel.x0"), _half_nodes,
                        self.kernel_x0, self.kernel_grid_step)
        if "reconstruct" in stages:
            self._keyed(("reconstruct.method", "reconstruct.K",
                         "reconstruct.M"), check_grid, self.recon_method,
                        self.recon_K, self.recon_M)
        if {"simulate", "estimate"} <= stages and self.k_max >= self.n_phases:
            raise ValueError("%s must be smaller than %s" % (
                self._entry("estimate.k_max"), self._entry("plan.n_phases")))
        if {"estimate", "reconstruct"} <= stages and self.recon_K > self.k_max:
            raise ValueError("%s exceeds %s" % (
                self._entry("reconstruct.K"), self._entry("estimate.k_max")))


def parse_config(text):
    """Build a RunConfig from 'key = value' lines.

    Blank lines and '#' comments are skipped.  Each value is read by
    the validator of the field it fills (_CONFIG_KEYS), so an integer
    key takes only an integer literal in its range, and a real one only
    a finite number in its range.  Unknown keys, malformed lines and
    values the validators or the state reject are reported with their
    line number.
    """
    state = StateSpec(kind="vacuum")
    run = {}
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError("line %d: expected 'key = value'" % idx)
        if key not in _CONFIG_KEYS:
            raise ValueError("line %d: unknown config key %r" % (idx, key))
        owner, attr, (parse, _) = _CONFIG_KEYS[key]
        try:
            parsed = parse(value)
            if owner == "state":
                state = replace(state, **{attr: parsed})
            else:
                run[attr] = parsed
        except ValueError as exc:
            raise ValueError(
                "line %d: bad value for %s: %s" % (idx, key, exc)
            )
    return RunConfig(state=state, **run)


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def _run_config(args):
    """The --config file with the command-line overrides applied.  Only
    the commands that read a key offer its flag: --seed simulate and
    pipeline, --eta simulate, estimate, pipeline and kernel-table.  The
    output directory is --output-dir, else PHASEKIT_OUTPUT_DIR, else the
    config's."""
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "eta", None) is not None:
        cfg = replace(cfg, eta=args.eta)
    out = args.output_dir or os.environ.get(OUTPUT_DIR_ENV)
    if out:
        cfg = replace(cfg, output_dir=out)
    return cfg


def _save(cfg, save, artifact, name):
    """save(artifact) as name in the output directory, under a header
    line that traces it to the config's hash; return the path."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    path = os.path.join(cfg.output_dir, name)
    save(artifact, path, header_lines=["config: %s" % cfg.config_hash()])
    return path


def _simulate(cfg, _):
    ms = run_experiment(cfg.plan(), capture_tol=cfg.capture_tol)
    return _save(cfg, save_records, ms, "records.txt")


def _kernel_tables(cfg):
    """The estimate stage's table of each order k, keyed by k."""
    return {s.k: build_kernel_table(s, grid_step=cfg.kernel_grid_step)
            for s in cfg.kernel_specs()}


def _estimate(cfg, records_path):
    ms = load_records(records_path)
    if ms.plan.eta != cfg.eta:
        raise ValueError("%s, but %s holds records taken at eta = %r"
                         % (cfg._entry("plan.eta"), records_path,
                            ms.plan.eta))
    return _save(cfg, save_moments,
                 estimate_all(ms, cfg.k_max, _kernel_tables(cfg)),
                 "moments.txt")


def _reconstruct(cfg, moments_path):
    moments = load_moments(moments_path)
    have = {m.k for m in moments}
    missing = [k for k in range(1, cfg.recon_K + 1) if k not in have]
    if missing:
        raise ValueError("%s, but %s holds no moment of order k = %s"
                         % (cfg._entry("reconstruct.K"), moments_path,
                            ", ".join(map(str, missing))))
    if cfg.recon_method == "fourier":
        dist = fourier_reconstruct(moments, cfg.recon_K, cfg.recon_M)
    else:
        dist = least_squares_reconstruct(
            moments, cfg.recon_K, cfg.recon_M,
            reg_lambda=cfg.reg_lambda, normalize=cfg.normalize,
        )
    return _save(cfg, save_distribution, dist, "distribution.txt")


# Each stage: run(cfg, path of the file the stage before it wrote).
STAGES = {"simulate": _simulate, "estimate": _estimate,
          "reconstruct": _reconstruct}


def cmd_kernel_table(args):
    """Write the checked config's estimate-stage tables, one per order,
    each under the config hash like the stage outputs."""
    cfg = _run_config(args)
    cfg.check(args.stages)
    for table in _kernel_tables(cfg).values():
        name = "kernel_k%d_eta%.6g.txt" % (table.spec.k, table.spec.eta)
        print("wrote %s" % _save(cfg, save_table, table, name))
    return 0


def cmd_stages(args):
    """Run args.stages in order on the checked config, each reading the
    file the one before it wrote (the first reads args.input)."""
    cfg = _run_config(args)
    cfg.check(args.stages)
    path = args.input
    for stage in args.stages:
        path = STAGES[stage](cfg, path)
        print("wrote %s" % path)
    return 0


def _report(name, k, worst, tol):
    """Print one identity check; return 1 if it failed, else 0."""
    status = "PASS" if worst < tol else "FAIL"
    print("[%s] %s identity k=%d: max residual %.3e (tol %.0e)"
          % (status, name, k, worst, tol))
    return int(status == "FAIL")


def _verify_quantum_identities():
    """Moment-kernel identity: 2 pi Int K_k psi_{n+k} psi_n dx = 1."""
    failures = 0
    for k in range(1, VERIFY_K_MAX + 1):
        table = build_kernel_table(KernelSpec(k=k))
        q = kernel_overlaps(table.evaluate, table.spec.x0, VERIFY_N_MAX + k)
        worst = float(abs(q.diagonal(-k) - 1.0).max())
        failures += _report("moment", k, worst, QI_TOL)
    return failures


def _verify_closed_forms():
    """Series kernels against the closed integral forms: K_1 absolutely,
    K_2 by the spread of the gap, as its series drops a constant."""
    gap_1 = [quantum_kernel(1, x) - integral_kernel_k1(x)
             for x in VERIFY_CLOSED_FORM_X]
    gap_2 = [quantum_kernel(2, x) - integral_kernel_k2(x)
             for x in VERIFY_CLOSED_FORM_X]
    return (_report("closed-form", 1, max(map(abs, gap_1)), CF_TOL)
            + _report("closed-form", 2, max(gap_2) - min(gap_2), CF_TOL))


def _verify_classical_identities():
    """Phase-average identity of the classical kernel on circles."""
    from scipy.integrate import quad

    failures = 0
    for k in range(1, VERIFY_K_MAX + 1):
        worst = 0.0
        for r in VERIFY_RADII:
            def average(part):
                return quad(
                    lambda phi: part(k * phi) * classical_kernel(
                        k, r * math.cos(phi)
                    ),
                    0.0, 2.0 * math.pi,
                    points=[0.5 * math.pi, 1.5 * math.pi], limit=300,
                )[0]

            moment = complex(average(math.cos), average(math.sin))
            worst = max(worst, abs(moment - 1.0))
        failures += _report("classical", k, worst, CL_TOL)
    return failures


def cmd_verify(args):
    failures = _verify_quantum_identities()
    failures += _verify_closed_forms()
    failures += _verify_classical_identities()
    if failures:
        print("verification FAILED: %d check group(s) out of tolerance"
              % failures)
        return 1
    print("all identity suites passed")
    return 0


def _flag(parse):
    """argparse type from a config value parser: a value parse rejects
    exits 2 with a message naming the flag and parse's reason, which
    quotes the value."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def build_parser():
    parser = argparse.ArgumentParser(
        prog="phasekit",
        description="Canonical phase statistics from homodyne data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("kernel-table", *STAGES, "pipeline"):
        stages = {"kernel-table": ("estimate",),
                  "pipeline": tuple(STAGES)}.get(name, (name,))
        p = sub.add_parser(name, help="%s stage" % name)
        p.add_argument("--config", required=True,
                       help="experiment config file")
        source = {"estimate": "records", "reconstruct": "moments"}.get(name)
        if source:
            p.add_argument("input", metavar=source,
                           help="%s file from the previous stage" % source)
        if "simulate" in stages:
            p.add_argument("--seed", type=_flag(_check_seed), default=None)
        if {"simulate", "estimate"} & set(stages):
            p.add_argument("--eta", type=_flag(_efficiency), default=None)
        p.add_argument("--output-dir", default=None)
        p.set_defaults(func=cmd_kernel_table if name == "kernel-table"
                       else cmd_stages, stages=stages, input=None)

    p = sub.add_parser("verify", help="run the kernel check suites")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (OSError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

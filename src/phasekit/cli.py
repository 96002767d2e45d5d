"""Command-line pipeline: kernels, simulation, estimation, recovery.

Subcommands operate on plain-text artifacts so every stage can be run,
inspected, and rerun independently:

  kernel-table   write sampling-kernel tables for chosen (k, eta)
  simulate       draw homodyne records for the configured experiment
  estimate       sample exponential phase moments from records
  reconstruct    build the phase distribution from a moments file
  pipeline       simulate + estimate + reconstruct in one call
  verify         run the kernel identity suites and report residuals

All experiment parameters live in a flat key-value config file with
dotted sections; command-line flags override file values.  Each output
embeds a short hash of the effective config, so artifacts can always be
traced back to the exact settings that produced them.
"""

import argparse
import cmath
import hashlib
import math
import os
import sys
from dataclasses import dataclass, replace

from . import textio
from .estimator import _KernelQuadrature, estimate_all, save_moments, \
    load_moments
from .kernels import KernelSpec, build_kernel_table, classical_kernel, \
    DEFAULT_F_TRUNCATION, DEFAULT_GRID_STEP, DEFAULT_L0, DEFAULT_X0
from .reconstruct import METHODS, fourier_reconstruct, \
    least_squares_reconstruct, save_distribution
from .simulator import ExperimentPlan, run_experiment, save_records, \
    load_records, _format_complex
from .states import CAPTURE_TOL, StateSpec

OUTPUT_DIR_ENV = "PHASEKIT_OUTPUT_DIR"

QI_TOL = 1.0e-3
CL_TOL = 1.0e-6
VERIFY_K_MAX = 5
VERIFY_N_MAX = 30
VERIFY_RADII = (0.5, 1.0, 2.0, 5.0, 10.0)


def _fmt_bool(b):
    return "true" if b else "false"


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError("not a boolean: %r" % text)


def _finite(conv):
    """conv that also rejects NaN and infinite values."""
    def parse(text):
        value = conv(text)
        if not cmath.isfinite(value):
            raise ValueError("%r is not finite" % text)
        return value
    return parse


def _count(text):
    value = int(text)
    if value < 1:
        raise ValueError("%r is not a count >= 1" % text)
    return value


def _counts(text):
    values = tuple(_count(tok) for tok in text.split())
    if not values:
        raise ValueError("no counts")
    return values


def _one_of(options):
    def parse(text):
        if text not in options:
            raise ValueError("%r is not one of %s"
                             % (text, ", ".join(options)))
        return text
    return parse


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

    def to_text(self):
        """Canonical config listing; parsing it back is lossless."""
        s = self.state
        pairs = [
            ("state.kind", s.kind),
            ("state.alpha", _format_complex(s.alpha)),
            ("state.squeeze", _format_complex(s.squeeze)),
            ("state.fock_n", "%d" % s.fock_n),
            ("state.n_max", "%d" % s.n_max),
            ("state.capture_tol", "%.17g" % self.capture_tol),
            ("plan.n_phases", "%d" % self.n_phases),
            ("plan.events_per_phase",
             " ".join(str(n) for n in self.events_per_phase)),
            ("plan.eta", "%.17g" % self.eta),
            ("kernel.l0", "%d" % self.kernel_l0),
            ("kernel.x0", "%.17g" % self.kernel_x0),
            ("kernel.f_truncation", "%d" % self.kernel_f_truncation),
            ("kernel.grid_step", "%.17g" % self.kernel_grid_step),
            ("kernel.compensate", _fmt_bool(self.compensate)),
            ("estimate.k_max", "%d" % self.k_max),
            ("reconstruct.method", self.recon_method),
            ("reconstruct.K", "%d" % self.recon_K),
            ("reconstruct.M", "%d" % self.recon_M),
            ("reconstruct.reg_lambda", "%.17g" % self.reg_lambda),
            ("reconstruct.normalize", _fmt_bool(self.normalize)),
            ("output_dir", self.output_dir),
            ("seed", "%d" % self.seed),
        ]
        return "\n".join("%s = %s" % kv for kv in pairs) + "\n"

    def config_hash(self):
        """Short provenance hash over the data-generating settings.

        The output directory is presentation only: the same experiment
        written to two places must carry the same hash.
        """
        physics = "\n".join(
            line for line in self.to_text().splitlines()
            if not line.startswith("output_dir")
        )
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

    def kernel_tables(self, k_values, eta_data):
        """Kernel tables for the given orders, compensated when the
        config asks for it and the data efficiency calls for it."""
        eta_kernel = eta_data if (self.compensate and eta_data < 1.0) \
            else 1.0
        return {
            k: build_kernel_table(
                KernelSpec(k=k, eta=eta_kernel, l0=self.kernel_l0,
                           x0=self.kernel_x0,
                           f_truncation=self.kernel_f_truncation),
                grid_step=self.kernel_grid_step,
            )
            for k in k_values
        }


_CONFIG_PARSERS = {
    "state.kind": ("state", "kind", str),
    "state.alpha": ("state", "alpha", _finite(complex)),
    "state.squeeze": ("state", "squeeze", _finite(complex)),
    "state.fock_n": ("state", "fock_n", int),
    "state.n_max": ("state", "n_max", int),
    "state.capture_tol": ("self", "capture_tol", _finite(float)),
    "plan.n_phases": ("self", "n_phases", _count),
    "plan.events_per_phase": ("self", "events_per_phase", _counts),
    "plan.eta": ("self", "eta", _finite(float)),
    "kernel.l0": ("self", "kernel_l0", int),
    "kernel.x0": ("self", "kernel_x0", _finite(float)),
    "kernel.f_truncation": ("self", "kernel_f_truncation", int),
    "kernel.grid_step": ("self", "kernel_grid_step", _finite(float)),
    "kernel.compensate": ("self", "compensate", _parse_bool),
    "estimate.k_max": ("self", "k_max", int),
    "reconstruct.method": ("self", "recon_method", _one_of(METHODS)),
    "reconstruct.K": ("self", "recon_K", int),
    "reconstruct.M": ("self", "recon_M", int),
    "reconstruct.reg_lambda": ("self", "reg_lambda", _finite(float)),
    "reconstruct.normalize": ("self", "normalize", _parse_bool),
    "output_dir": ("self", "output_dir", str),
    "seed": ("self", "seed", int),
}


def parse_config(text):
    """Build a RunConfig from 'key = value' lines.

    Blank lines and '#' comments are skipped; unknown keys, malformed
    lines, non-finite numbers, phase and event counts below one and
    values the state rejects are reported with their line number.
    """
    state = StateSpec(kind="vacuum")
    own_kwargs = {}
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError("line %d: expected 'key = value'" % idx)
        if key not in _CONFIG_PARSERS:
            raise ValueError("line %d: unknown config key %r" % (idx, key))
        target, attr, conv = _CONFIG_PARSERS[key]
        try:
            parsed = conv(value)
            if target == "state":
                state = replace(state, **{attr: parsed})
            else:
                own_kwargs[attr] = parsed
        except ValueError as exc:
            raise ValueError(
                "line %d: bad value for %s: %s" % (idx, key, exc)
            )
    return RunConfig(state=state, **own_kwargs)


def load_config(path):
    with open(path) as fh:
        return parse_config(fh.read())


def _apply_overrides(cfg, args):
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "eta", None) is not None:
        cfg = replace(cfg, eta=args.eta)
    out = getattr(args, "output_dir", None) or os.environ.get(
        OUTPUT_DIR_ENV
    )
    if out:
        cfg = replace(cfg, output_dir=out)
    return cfg


def _out_path(cfg, name):
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


def _do_simulate(cfg):
    ms = run_experiment(cfg.plan(), capture_tol=cfg.capture_tol)
    path = _out_path(cfg, "records.txt")
    save_records(ms, path, header_lines=["config: %s" % cfg.config_hash()])
    return path


def _do_estimate(cfg, records_path):
    ms = load_records(records_path)
    estimates = estimate_all(
        ms, cfg.k_max,
        cfg.kernel_tables(range(1, cfg.k_max + 1), ms.plan.eta),
    )
    path = _out_path(cfg, "moments.txt")
    save_moments(estimates, path,
                 header_lines=["config: %s" % cfg.config_hash()])
    return path


def _do_reconstruct(cfg, moments_path):
    moments = load_moments(moments_path)
    if cfg.recon_method == "fourier":
        dist = fourier_reconstruct(moments, cfg.recon_K, cfg.recon_M)
    elif cfg.recon_method == "least_squares":
        dist = least_squares_reconstruct(
            moments, cfg.recon_K, cfg.recon_M,
            reg_lambda=cfg.reg_lambda, normalize=cfg.normalize,
        )
    else:
        raise ValueError(
            "unknown reconstruction method %r" % cfg.recon_method
        )
    path = _out_path(cfg, "distribution.txt")
    save_distribution(dist, path,
                      header_lines=["config: %s" % cfg.config_hash()])
    return path


def cmd_kernel_table(args):
    for k in args.k:
        spec = KernelSpec(k=k, eta=args.eta, l0=args.l0, x0=args.x0,
                          f_truncation=args.f_truncation)
        table = build_kernel_table(spec, grid_step=args.grid_step)
        out_dir = args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "."
        os.makedirs(out_dir, exist_ok=True)
        tag = hashlib.sha256(
            ("%d %.17g %d %.17g %d %.17g" % (
                k, args.eta, args.l0, args.x0, args.f_truncation,
                args.grid_step,
            )).encode()
        ).hexdigest()[:12]
        path = os.path.join(
            out_dir, "kernel_k%d_eta%.6g.txt" % (k, args.eta)
        )
        textio.save(path, ["config: %s" % tag], table.to_text().splitlines())
        print("wrote %s" % path)
    return 0


def cmd_simulate(args):
    cfg = _apply_overrides(load_config(args.config), args)
    print("wrote %s" % _do_simulate(cfg))
    return 0


def cmd_estimate(args):
    cfg = _apply_overrides(load_config(args.config), args)
    print("wrote %s" % _do_estimate(cfg, args.records))
    return 0


def cmd_reconstruct(args):
    cfg = _apply_overrides(load_config(args.config), args)
    print("wrote %s" % _do_reconstruct(cfg, args.moments))
    return 0


def cmd_pipeline(args):
    cfg = _apply_overrides(load_config(args.config), args)
    records = _do_simulate(cfg)
    moments = _do_estimate(cfg, records)
    dist = _do_reconstruct(cfg, moments)
    for path in (records, moments, dist):
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
        quadrature = _KernelQuadrature(table, VERIFY_N_MAX + k)
        worst = 0.0
        for n in range(VERIFY_N_MAX + 1):
            worst = max(worst, abs(quadrature.q(n + k, n) - 1.0))
        failures += _report("moment", k, worst, QI_TOL)
    return failures


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
    failures += _verify_classical_identities()
    if failures:
        print("verification FAILED: %d check group(s) out of tolerance"
              % failures)
        return 1
    print("all identity suites passed")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="phasekit",
        description="Canonical phase statistics from homodyne data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel-table",
                       help="write sampling-kernel tables")
    p.add_argument("--k", type=int, action="append", required=True,
                   help="moment order (repeatable)")
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--l0", type=int, default=DEFAULT_L0)
    p.add_argument("--x0", type=float, default=DEFAULT_X0)
    p.add_argument("--f-truncation", type=int,
                   default=DEFAULT_F_TRUNCATION)
    p.add_argument("--grid-step", type=float, default=DEFAULT_GRID_STEP)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_kernel_table)

    for name, func, extra in (
        ("simulate", cmd_simulate, ()),
        ("estimate", cmd_estimate, ("records",)),
        ("reconstruct", cmd_reconstruct, ("moments",)),
        ("pipeline", cmd_pipeline, ()),
    ):
        p = sub.add_parser(name, help="%s stage" % name)
        p.add_argument("--config", required=True,
                       help="experiment config file")
        for pos in extra:
            p.add_argument(pos, help="%s file from the previous stage"
                           % pos)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--eta", type=float, default=None)
        p.add_argument("--output-dir", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="run kernel identity suites")
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

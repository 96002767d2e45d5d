#!/usr/bin/env python3
"""
Sampling-kernel self-audit.

Builds the pattern functions for k = 1..4 and certifies them against the
two identities that make moment sampling work:

1) Moment identity: integrating the kernel against the number-state
   product psi_{n+k}(x) psi_n(x) must give 1/(2 pi) for every n, so the
   estimator averages to the true moment for any state in the window.

2) Classical limit: far from the origin the odd kernels flatten to the
   constant (-1)^m (2m+1)/4 and the even kernels grow like a logarithm
   with slope m (-1)^{m+1} / pi.  The table switches to an algebraic
   tail there, so this audit also exercises the matching point.

Each check prints one [PASS]/[FAIL] line; the exit code is 0 only if
every line passed.  A residual table goes to stdout so the decay of the
identity error with n is visible at a glance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from phasekit.estimator import kernel_overlaps
from phasekit.kernels import KernelSpec, build_kernel_table, classical_kernel


@dataclass(frozen=True)
class DemoConfig:
    k_max: int = 4
    n_max: int = 12
    identity_tol: float = 1e-3
    plateau_tol: float = 1e-2
    plateau_range: tuple = (4.0, 30.0)
    log_step_points: tuple = (8.0, 16.0, 32.0)


def audit_moment_identity(cfg: DemoConfig) -> bool:
    ok = True
    print("moment identity residuals |2 pi integral - 1|:")
    header = "  n \\ k " + "".join("%12d" % k for k in range(1, cfg.k_max + 1))
    print(header)
    identity = {}
    for k in range(1, cfg.k_max + 1):
        table = build_kernel_table(KernelSpec(k=k))
        q = kernel_overlaps(table.evaluate, table.spec.x0, cfg.n_max + k)
        identity[k] = np.diagonal(q, -k)
    for n in range(0, cfg.n_max + 1, 3):
        row = "  %5d " % n
        for k in range(1, cfg.k_max + 1):
            residual = abs(identity[k][n] - 1.0)
            ok = ok and residual < cfg.identity_tol
            row += "%12.2e" % residual
        print(row)
    print("[%s] moment identity, k <= %d, n <= %d, tol %g"
          % ("PASS" if ok else "FAIL", cfg.k_max, cfg.n_max,
             cfg.identity_tol))
    return ok


def audit_classical_limit(cfg: DemoConfig) -> bool:
    lo, hi = cfg.plateau_range
    xs = np.arange(lo, hi, 0.5)
    table_1 = build_kernel_table(KernelSpec(k=1))
    gap_odd = float(np.max(np.abs(table_1.evaluate(xs) - 0.25)))
    ok_odd = gap_odd < cfg.plateau_tol
    print("[%s] K_1 plateau: max |K_1 - 1/4| = %.2e on [%g, %g]"
          % ("PASS" if ok_odd else "FAIL", gap_odd, lo, hi))

    table_2 = build_kernel_table(KernelSpec(k=2))
    step = math.log(2.0) / math.pi
    gap_even = max(
        abs(float(table_2.evaluate(2.0 * x) - table_2.evaluate(x)) - step)
        for x in cfg.log_step_points
    )
    ok_even = gap_even < cfg.plateau_tol
    print("[%s] K_2 doubling step: max |K_2(2x) - K_2(x) - ln2/pi| = %.2e"
          % ("PASS" if ok_even else "FAIL", gap_even))

    x_ref = 12.0
    gap_cl = max(
        abs(float(build_kernel_table(KernelSpec(k=k)).evaluate(x_ref))
            - classical_kernel(k, x_ref))
        for k in range(1, cfg.k_max + 1)
    )
    ok_cl = gap_cl < cfg.plateau_tol
    print("[%s] tail vs classical form at x = %g: max gap %.2e"
          % ("PASS" if ok_cl else "FAIL", x_ref, gap_cl))
    return ok_odd and ok_even and ok_cl


def main() -> int:
    cfg = DemoConfig()
    ok = audit_moment_identity(cfg)
    ok = audit_classical_limit(cfg) and ok
    print("[%s] kernel self-audit" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

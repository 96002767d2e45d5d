"""Direct estimation of exponential phase moments from homodyne records.

The k-th moment is sampled as a phase-weighted average of the kernel
over the recorded quadratures.  Alongside the point estimate, this
module quantifies the three error sources of the method: statistical
variance of the sample average, systematic bias from measuring at a
finite number of phases (aliasing), and systematic bias from detector
smearing when no compensated kernel is used.

estimate_all runs one reduction over the run's one sample array through
kernels.table_evaluator, a group of small consecutive phases at a time.
Every kernel integral of the error analysis is an entry of one overlap
matrix, kernel_overlaps: aliasing_bias sums the elements that fold into
order k, and smear_bias reads the k-th subdiagonal for the
smearing-error kernel.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import textio
from .kernels import DEFAULT_X0, _check_k, smear_error_kernel, \
    smearing_sigma, table_evaluator
from .simulator import _check_n_phases, _phase_groups
from .specfun import psi_matrix

QUAD_NODES_PER_PANEL = 40
INNER_PANELS = 16
OUTER_PANELS_PER_UNIT = 2.0
MOMENT_COLUMNS = "k re im sigma_re sigma_im compensated eta"


@dataclass(frozen=True)
class MomentEstimate:
    """One estimated moment with its statistical variances.

    value        complex point estimate of Psi_k, finite
    var_re       variance of the real part (inf when some phase holds a
                 single event and contributes an undeterminable spread;
                 never NaN)
    var_im       variance of the imaginary part
    compensated  True when a smearing-compensated kernel was used
    eta_assumed  efficiency baked into that kernel (1 when plain), in
                 (0, 1]
    """

    k: int
    value: complex
    var_re: float
    var_im: float
    n_phases: int
    compensated: bool
    eta_assumed: float

    def __post_init__(self):
        object.__setattr__(self, "k", _check_k(self.k))
        object.__setattr__(self, "n_phases", _check_n_phases(self.n_phases))
        if not cmath.isfinite(self.value):
            raise ValueError("moment value %r is not finite" % self.value)
        if not (self.var_re >= 0 and self.var_im >= 0):
            raise ValueError("variances must be nonnegative, not NaN")
        if not 0.0 < self.eta_assumed <= 1.0:
            raise ValueError("eta_assumed %r is not in (0, 1]"
                             % self.eta_assumed)

    @property
    def sigma_re(self):
        return math.sqrt(self.var_re)

    @property
    def sigma_im(self):
        return math.sqrt(self.var_im)


def _check_table(ms, k, table):
    if table.spec.k != k:
        raise ValueError(
            "kernel table is built for k=%d, estimate requested for k=%d"
            % (table.spec.k, k)
        )
    compensated = table.spec.eta < 1.0
    if compensated and abs(table.spec.eta - ms.plan.eta) > 1.0e-12:
        raise ValueError(
            "compensated kernel assumes eta=%.6g but the plan ran at "
            "eta=%.6g" % (table.spec.eta, ms.plan.eta)
        )
    return compensated


def _phase_stats(kernel_values):
    """Sample mean and (unbiased) sample variance of kernel values at
    one phase; a single event cannot estimate a spread, so its variance
    is flagged as infinite rather than dropped.

    One pass for the sum, the same arithmetic as mean() and var(ddof=1)
    (which would sum twice): the results are bit-identical.  No BLAS
    dot: a threaded one would make the bits depend on the thread count.
    """
    n = kernel_values.size
    mean = float(kernel_values.sum() / n)
    if n < 2:
        return mean, math.inf, n
    dev = kernel_values - mean
    np.multiply(dev, dev, out=dev)
    return mean, float(dev.sum() / (n - 1)), n


def _assemble(k, phases, stats, compensated, eta_assumed):
    n_phases = len(phases)
    value = 0.0j
    var_re = 0.0
    var_im = 0.0
    for theta, (mean, var, n) in zip(phases, stats):
        c = math.cos(k * theta)
        s = math.sin(k * theta)
        value += complex(c, s) * mean
        if c != 0.0:
            var_re += c * c * var / n
        if s != 0.0:
            var_im += s * s * var / n
    scale = 2.0 * math.pi / n_phases
    return MomentEstimate(
        k=k,
        value=value * scale,
        var_re=var_re * scale * scale,
        var_im=var_im * scale * scale,
        n_phases=n_phases,
        compensated=compensated,
        eta_assumed=float(eta_assumed),
    )


def _estimate(ms, by_k):
    """Estimates for the orders of by_k (k -> kernel table), in its
    order, from one pass over the records with the tables checked; k
    may reach N.  The tables are evaluated once per group of
    consecutive phases (simulator._phase_groups) on the group's slice
    of ms.samples, with no copy, and each phase's statistics are taken
    over its own slice of the values, so every sum runs over it alone.

    value  = (2 pi / N) sum_l e^{i k theta_l} mean_r K_k[x_r(theta_l)]
    var_re = (2 pi / N)^2 sum_l cos^2(k theta_l) s_l^2 / n(theta_l)
    and var_im with sin^2, where s_l^2 is the per-phase sample variance
    of the kernel values.
    """
    flags = {k: _check_table(ms, k, table) for k, table in by_k.items()}
    evaluate_all = table_evaluator(by_k.values())
    stats = {k: [] for k in by_k}
    rest = ms.samples
    for group in _phase_groups(ms.plan.events_per_phase):
        x, rest = rest[:group[-1][2]], rest[group[-1][2]:]
        for k, values in zip(by_k, evaluate_all(x)):
            stats[k].extend(_phase_stats(values[a:b]) for _, a, b in group)
    return [
        _assemble(k, ms.plan.phases, stats[k], flags[k], table.spec.eta)
        for k, table in by_k.items()
    ]


def estimate_all(ms, k_max, tables):
    """Estimates for k = 1..k_max in one pass over the records.

    tables may be a dict keyed by k or any iterable of kernel tables.
    Results are identical to those of _estimate for one order at a
    time.  The order cap k_max must stay below the number of phases;
    beyond it the discretization bias can dominate the estimate.

    Runs of small consecutive phases, up to simulator.GROUP_DRAWS
    samples, are evaluated as one slice of the run's array, so the
    per-call cost of a lookup is paid once per group rather than once
    per phase; the estimates are bit for bit those of one phase at a
    time.  KernelTables on one grid share one lookup of those samples
    across all orders (kernels.table_evaluator).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n_phases = ms.plan.n_phases
    if k_max >= n_phases:
        raise ValueError(
            "k_max=%d must be smaller than the number of phases N=%d"
            % (k_max, n_phases)
        )
    if not isinstance(tables, dict):
        tables = {t.spec.k: t for t in tables}
    missing = [k for k in range(1, k_max + 1) if k not in tables]
    if missing:
        raise ValueError(
            "no kernel table for k = %s"
            % ", ".join(str(k) for k in missing)
        )
    return _estimate(ms, {k: tables[k] for k in range(1, k_max + 1)})


def _panel_rule(edges):
    """Composite Gauss-Legendre rule on the panels between edges (from
    0 upward), mirrored onto the negative axis: (nodes, weights)."""
    base_x, base_w = np.polynomial.legendre.leggauss(QUAD_NODES_PER_PANEL)
    half = 0.5 * np.diff(edges)[:, None]
    x_pos = (edges[:-1, None] + half * (base_x + 1.0)).ravel()
    w_pos = (half * base_w).ravel()
    return (np.concatenate([-x_pos[::-1], x_pos]),
            np.concatenate([w_pos[::-1], w_pos]))


def kernel_overlaps(kernel, x0, order_max):
    """Kernel matrix Q_mn = 2 pi Int kernel(x) psi_m(x) psi_n(x) dx for
    m, n = 0..order_max, a symmetric (order_max + 1)^2 array.

    kernel is a vectorized callable such as a table's evaluate.  One
    composite Gauss-Legendre rule serves every element; its panels are
    split at the origin (where the kernel kinks or has its logarithmic
    spike) and at x0 (where a table's tail rule takes over).
    """
    x_max = math.sqrt(2.0 * order_max + 1.0) + 8.0
    if x_max <= x0 + 1.0:
        x_max = x0 + 8.0
    n_out = max(16, int(math.ceil(OUTER_PANELS_PER_UNIT * (x_max - x0))))
    x, w = _panel_rule(np.concatenate([
        np.linspace(0.0, x0, INNER_PANELS + 1),
        np.linspace(x0, x_max, n_out + 1)[1:],
    ]))
    psi = psi_matrix(order_max, x)
    return 2.0 * np.pi * (psi * (w * kernel(x))) @ psi.T


def aliasing_bias(rho, k, N, table):
    """Exact phase-discretization bias of the k-th moment at N phases.

    Measuring at N equidistant phases folds every density-matrix
    element rho_mn with m - n = k + sN (s != 0) into the k-th moment,
    weighted by the kernel matrix element Q_mn.  The sum is finite
    here because the state is truncated at n_max.
    """
    if k < 1:
        raise ValueError("moment order k must be >= 1")
    if table.spec.k != k:
        raise ValueError(
            "kernel table is built for k=%d, not k=%d" % (table.spec.k, k)
        )
    if N <= k:
        raise ValueError("aliasing analysis assumes N > k")
    if k + N > rho.n_max and N - k > rho.n_max:
        return 0j
    q = kernel_overlaps(table.evaluate, table.spec.x0, rho.n_max)
    index = np.arange(rho.n_max + 1)
    gap = index[:, None] - index[None, :]
    folds = ((gap - k) % N == 0) & (gap != k)
    return complex(np.sum(rho.elements[folds] * q[folds]))


def smear_bias(rho, k, eta):
    """Systematic moment error from estimating smeared data with the
    plain (eta = 1) kernel.

    The bias is the phase-weighted average of the smearing-error kernel
    g_k over the state.  The angular integral picks out the k-th
    subdiagonal, leaving sum_n rho_{n+k,n} Q_{n+k,n} with Q the
    kernel_overlaps of g_k(x; eta).
    """
    if smearing_sigma(eta) == 0.0:
        return 0.0j
    if k < 1:
        raise ValueError("moment order k must be >= 1")
    if k > rho.n_max:
        return 0.0j
    q = kernel_overlaps(lambda x: smear_error_kernel(k, x, eta),
                        DEFAULT_X0, rho.n_max)
    return complex(np.sum(np.diagonal(rho.elements, -k) * np.diagonal(q, -k)))


def save_moments(estimates, path, header_lines=()):
    """Write moment estimates as text: sigma columns, one row per k,
    every real written as its repr, which reads back as the same
    double."""
    if not estimates:
        raise ValueError("nothing to save")
    header = [
        "exponential phase moment estimates",
        *header_lines,
        "n_phases: %d" % estimates[0].n_phases,
        "columns: " + MOMENT_COLUMNS,
    ]
    textio.save(path, header, (
        "%d %r %r %r %r %d %r"
        % (est.k, complex(est.value).real, complex(est.value).imag,
           est.sigma_re, est.sigma_im, int(est.compensated),
           float(est.eta_assumed))
        for est in sorted(estimates, key=lambda e: e.k)
    ))


def load_moments(path):
    """Parse a moments file written by save_moments.

    An n_phases header that is not an integer >= 1 raises ValueError
    naming its line, and a file without rows is refused.  A row whose
    order is not an integer or repeats an earlier row's, whose
    compensation flag is not 0 or 1, whose sigma is negative or NaN, or
    which MomentEstimate rejects (eta_assumed NaN or outside (0, 1]
    among others) raises ValueError naming its line.
    """
    art = textio.load(path, MOMENT_COLUMNS)
    n_phases = art.field("n_phases:", _check_n_phases)
    if not art.rows.size:
        raise ValueError("file holds no moments")
    estimates = []
    seen = {}
    for i, row in enumerate(art.rows.tolist()):
        k, re, im, s_re, s_im, flag, eta = row
        try:
            if not k.is_integer():
                raise ValueError("moment order %r is not an integer" % k)
            if k in seen:
                raise ValueError("order k = %d already on line %d"
                                 % (k, seen[k]))
            seen[k] = art.line_numbers[i]
            if flag not in (0.0, 1.0):
                raise ValueError("compensated flag %r is not 0 or 1" % flag)
            if not (s_re >= 0 and s_im >= 0):
                raise ValueError("sigma %r, %r is not >= 0" % (s_re, s_im))
            estimates.append(MomentEstimate(
                k=int(k), value=complex(re, im), var_re=s_re ** 2,
                var_im=s_im ** 2, n_phases=n_phases,
                compensated=bool(flag), eta_assumed=eta,
            ))
        except ValueError as exc:
            raise art.error(i, exc) from None
    return estimates

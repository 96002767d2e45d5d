"""Direct estimation of exponential phase moments from homodyne records.

The k-th moment is sampled as a phase-weighted average of the kernel
over the recorded quadratures.  Alongside the point estimate, this
module quantifies the three error sources of the method: statistical
variance of the sample average, systematic bias from measuring at a
finite number of phases (aliasing), and systematic bias from detector
smearing when no compensated kernel is used.

estimate_all reduces the run's one sample array to arrays of every
phase's kernel mean and variance, from per-segment sums on large phases,
else from rows of per-sample values, and assembles each order from them
in one vectorised pass.  Every kernel integral of the error analysis is
an entry of one overlap matrix, kernel_overlaps: aliasing_bias sums the
elements that fold into order k, and smear_bias reads the k-th
subdiagonal for the smearing-error kernel.
"""

import cmath
import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from . import textio
from .kernels import DEFAULT_X0, KernelTable, _check_k, _lookup_all, \
    _segments, _tail_value, smear_error_kernel, smearing_sigma
from .simulator import GROUP_DRAWS, _check_n_phases, _phase_groups
from .specfun import psi_matrix

QUAD_NODES_PER_PANEL = 40
INNER_PANELS = 16
OUTER_PANELS_PER_UNIT = 2.0
MOMENT_COLUMNS = "k re im sigma_re sigma_im compensated eta"

# Draws and sums of a run of phases in _segment_stats: 6 phases of 10^4.
RUN_SIZE = 4 * GROUP_DRAWS
# Per phase, the sums cost about what 2 samples per segment cost evaluated.
SUMS_PER_SEGMENT = 2


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


def _row_stats(rows):
    """Means and (unbiased) variances of the rows of a C-contiguous
    (phases, n) array of kernel values, inf for a single event: each
    row's own mean() and var(ddof=1), bit for bit, since a C-contiguous
    row sum equals that row's 1-d sum().  No BLAS dot: a threaded one
    would make the bits depend on the thread count."""
    n = rows.shape[1]
    mean = rows.sum(axis=1) / n
    if n < 2:
        return mean, np.full(mean.size, math.inf)
    dev = rows - mean[:, None]
    np.multiply(dev, dev, out=dev)
    return mean, dev.sum(axis=1) / (n - 1)


def _assemble(k, phases, mean, var, n, compensated, eta_assumed):
    """Order k's estimate from each phase's kernel mean, variance and
    count, the terms summed in phase order (cumsum; + 0.0 makes a zero
    sum +0); a zero cos or sin drops its variance term, so 0 inf gives
    no NaN."""
    cs = np.array([np.cos(k * phases), np.sin(k * phases)])
    terms = np.concatenate([cs * mean,
                            cs * cs * np.where(cs != 0.0, var, 0.0) / n])
    re, im, var_re, var_im = (np.cumsum(terms, axis=1)[:, -1] + 0.0).tolist()
    scale = 2.0 * math.pi / len(phases)
    return MomentEstimate(
        k=k, value=complex(re * scale, im * scale),
        var_re=var_re * scale * scale, var_im=var_im * scale * scale,
        n_phases=len(phases), compensated=compensated,
        eta_assumed=float(eta_assumed))


def _estimate(ms, by_k):
    """Estimates for the orders of by_k (k -> kernel table), in its
    order, from one pass over the records with the tables checked; k
    may reach N.  The tables form sets: KernelTables by grid (x0 and
    node count), any other table a set of its own.  KernelTables on
    phases of at least SUMS_PER_SEGMENT samples per segment take
    _segment_stats, one pass per grid; the other sets _sample_stats.
    Each gives a (tables, phases) array of means and one of variances.

    value  = (2 pi / N) sum_l e^{i k theta_l} mean_r K_k[x_r(theta_l)]
    var_re = (2 pi / N)^2 sum_l cos^2(k theta_l) s_l^2 / n(theta_l)
    and var_im with sin^2, where s_l^2 is the per-phase sample variance
    of the kernel values."""
    flags = {k: _check_table(ms, k, table) for k, table in by_k.items()}
    sets, stats = {}, {}  # (x0, node count) or a stand-in's k -> orders
    for k, t in by_k.items():
        key = (t.spec.x0, t.grid.size) if type(t) is KernelTable else k
        sets.setdefault(key, []).append(k)
    for ks in sets.values():
        tables = [by_k[k] for k in ks]
        summed = type(tables[0]) is KernelTable and ms.samples.size >= (
            SUMS_PER_SEGMENT * (tables[0].grid.size + 1) * ms.plan.n_phases)
        reduce = _segment_stats if summed else _sample_stats
        stats.update(zip(ks, zip(*reduce(tables, ms))))
    return [_assemble(k, ms.plan.phases, *stats[k], ms.plan.events_per_phase,
                      flags[k], table.spec.eta) for k, table in by_k.items()]


def _sample_stats(tables, ms):
    """Per table, every phase's mean and variance from per-sample values
    (_lookup_all, or a stand-in's evaluate) a group of phases at a time
    (simulator._phase_groups), each run of equal counts in the group
    reduced as rows (_row_stats): bit for bit one phase at a time."""
    lookup = type(tables[0]) is KernelTable
    stats = np.empty((2, len(tables), ms.plan.n_phases))  # means, variances
    rest = ms.samples
    for group in _phase_groups(ms.plan.events_per_phase):
        x, rest = rest[:group[-1][2]], rest[group[-1][2]:]
        runs = [list(run) for _, run in groupby(group, lambda p: p[2] - p[1])]
        for i, v in enumerate(_lookup_all(tables, x) if lookup
                              else [tables[0].evaluate(x)]):
            for run in runs:
                (l0, a, _), (l1, _, b) = run[0], run[-1]
                stats[:, i, l0:l1 + 1] = _row_stats(
                    v[a:b].reshape(len(run), -1))
    return stats


def _segment_stats(tables, ms):
    """Per table, the mean and variance of every phase for KernelTables
    on one grid, each v_j + s_j dx in padded segment j.  A run of phases
    bins its samples, a group at a time, into each phase and segment's
    n_j, sum dx and sum dx^2; tail samples go to segment 0, which no
    clamped sample reaches, and their _tail_value is summed apart.  Per
    table, a phase's mean m is a matrix-vector product with [v | s] and
    its squares are centred on m (Chan, Golub and LeVeque 1983):

        sum (K - m)^2 = sum_j w_j (n_j w_j + 2 s_j sum dx) + s_j^2 sum dx^2

    with w_j = v_j - m.  No product or sum spans two tables.  A phase of
    equal samples keeps a variance of exactly 0, a single event inf."""
    bins = tables[0].grid.size + 1  # the padded segments (see KernelTable)
    specs, gaps = [t.spec for t in tables], [t.edge_gap for t in tables]
    stats = np.empty((2, len(tables), ms.plan.n_phases))  # means, variances
    rest = ms.samples
    for run in _phase_groups(ms.plan.events_per_phase,
                             max(1, RUN_SIZE // (3 * bins)), RUN_SIZE):
        x, rest = rest[:run[-1][2]], rest[run[-1][2]:]
        n = np.array([b - a for _, a, b in run])
        sums, tail = np.empty((n.size, 3, bins)), []
        for group in _phase_groups(n.tolist()):
            r0, r1 = group[0][0], group[-1][0] + 1
            a, b = run[r0][1], run[r1 - 1][2]
            p, dx, beyond = _segments(tables[0], x[a:b])
            p[beyond] = 0
            if r1 - r0 > 1:
                p += np.repeat(np.arange(0, (r1 - r0) * bins, bins), n[r0:r1])
            for part, weights in enumerate((None, dx, dx * dx)):
                sums[r0:r1, part] = np.bincount(
                    p, weights, (r1 - r0) * bins).reshape(-1, bins)
            tail.append(a + beyond)
        del p, dx, beyond  # freed before the tails are evaluated
        tail = np.concatenate(tail)
        sums[:, :, 0] = 0.0
        count, dx_sum, dx2_sum = sums[:, 0], sums[:, 1], sums[:, 2]
        equal = [r for r in np.flatnonzero(np.count_nonzero(count, 1) <= 1)
                 if np.ptp(x[run[r][1]:run[r][2]]) == 0.0]
        at = np.searchsorted(n.cumsum(), tail, side="right")  # tail phases
        for i, (t, v) in enumerate(zip(tables,
                                       _tail_value(specs, gaps, x[tail]))):
            line, slope = t._lookup[3], t._lookup[3][bins:]
            mean = (sums[:, :2].reshape(n.size, -1) @ line
                    + np.bincount(at, v, n.size)) / n
            w = line[:bins] - mean[:, None]
            cross = dx_sum * (2.0 * slope)
            cross += count * w
            m2 = (np.einsum("ij,ij->i", w, cross) + dx2_sum @ (slope * slope)
                  + np.bincount(at, (v - mean[at]) ** 2, n.size))
            var = np.maximum(m2, 0.0) / np.maximum(n - 1, 1)
            var[equal] = 0.0
            var[n < 2] = math.inf
            stats[:, i, run[0][0]:run[-1][0] + 1] = mean, var
        del sums, count, dx_sum, dx2_sum, v, w, cross  # before the next run
    return stats


def estimate_all(ms, k_max, tables):
    """Estimates for k = 1..k_max in one pass over the records.

    tables may be a dict keyed by k or any iterable of kernel tables,
    two of one order refused.  Results are identical to those of
    _estimate for one order at a time, however many BLAS threads run.
    The order cap k_max must stay below the number of phases; beyond it
    the discretization bias can dominate the estimate.

    KernelTables on phases of SUMS_PER_SEGMENT samples per segment or
    more give the moments from per-segment sums (_segment_stats): those
    of the tables' unrounded values to 1e-14 absolute in value and 1e-13
    relative in variance.  Other tables and smaller phases take the
    per-sample values, bit for bit those of one phase at a time."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n_phases = ms.plan.n_phases
    if k_max >= n_phases:
        raise ValueError(
            "k_max=%d must be smaller than the number of phases N=%d"
            % (k_max, n_phases)
        )
    if not isinstance(tables, dict):
        listed, tables = tables, {}
        for t in listed:
            if tables.setdefault(t.spec.k, t) is not t:
                raise ValueError("two kernel tables for k = %d" % t.spec.k)
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

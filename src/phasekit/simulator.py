"""Monte Carlo simulation of balanced homodyne detection.

Draws quadrature samples at equidistant local-oscillator phases by
inverse-CDF sampling from the exact quadrature distribution of a
truncated state (decomposed once per state into phase harmonics, so each
phase's density is a single matvec), models detector efficiency
eta < 1 as additive Gaussian noise of width kernels.smearing_sigma(eta)
on the ideal samples (the convolution picture of a lossy detector), and
persists measurement records as plain text, a run's samples as one array.

The sampled law is the piecewise-linear density through p(x, theta) at
the nodes of a uniform grid of step h, each segment rescaled to its
Euler-Maclaurin mass h (p_j + p_{j+1}) / 2 - h^2/12 (p'_{j+1} - p'_j),
with p' by np.gradient's rule (central differences, one-sided at the
two ends) and negative masses clamped to zero.  Its CDF
is quadratic in each segment and inverts with one stable square root:
numerical inversion with a stated error (W. Hormann and J. Leydold, ACM
TOMACS 13, 347 (2003); G. Derflinger, W. Hormann and J. Leydold, ACM
TOMACS 20, 18 (2010)).  A uniform draw u finds its segment through a
guide table (indexed search: Chen and Asau, AIIE Trans. 6, 163 (1974);
Devroye, Non-Uniform Random Variate Generation (1986), sec. III.2),
built in O(G) per phase on the G-node CDF, instead of a binary search
per sample.  Set-up work is paid per table, so run_experiment tabulates
and inverts runs of small consecutive phases as one group (at most
GROUP_DRAWS draws): one table pass and one guide search over all of the
group's rows, each draw's bits those of its phase sampled alone.

The grid step follows from a stated error bound (_cdf_bound).  The
Kolmogorov distance to the exact law is at most
C3(h) h^3 + C4 h^4 + 2 OUTSIDE_MASS_TOL: the shape error inside a
segment, h^3 |p''| / (72 sqrt 3) where p is flat across the segment and
up to 3.6 times that beside a zero of p; the node term
h^4 max|p'''| / 36 that the np.gradient slopes leave in the cumulative
masses; and the mass the checks admit outside the grid or clamped off
negative segments.  C3 and C4 are estimated from the state alone on the
BOUND_STEP grid at 4 (n_max + 1) phases (_cdf_error_terms), and the
step is the largest multiple m GRID_STEP whose bound stays within
CDF_TOL (m = 1 when none does).  The acceptance state (squeezed vacuum,
xi = -1.31, n_max = 20) samples at 18 GRID_STEP on 1269 nodes, against
22 807 at GRID_STEP; vacuum and coherent states sample at 58 GRID_STEP
(421 nodes for a coherent state at n_max = 25), Fock 3 at 28 GRID_STEP.
"""

import math
import mmap
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import textio
from .kernels import smearing_sigma
from .states import (
    CAPTURE_TOL,
    STATE_FIELDS,
    StateSpec,
    build_state,
    harmonic_density,
    quadrature_harmonics,
    quadrature_pdf,
)

# The CDF grid step is a whole multiple of GRID_STEP.
GRID_STEP = 1.0e-3
OUTSIDE_MASS_TOL = 1.0e-9
# Kolmogorov-distance bound the CDF step is chosen to meet: the
# acceptance state's own bound at GRID_STEP under the linear-in-CDF law
# sampled before (2.330e-6), rounded up.
CDF_TOL = 2.5e-6
# Step of the coarse grid on which the bound's terms are estimated.
BOUND_STEP = 0.02
# max over tau in [0, 1] of |tau (1 - tau) (tau - 1/2)|
_M_HALF = 1.0 / (12.0 * math.sqrt(3.0))
RECORD_COLUMNS = "x"
_check_seed = textio.integer_at_least("seed", 0)
_check_n_phases = textio.integer_at_least("n_phases", 1)
_check_event_count = textio.integer_at_least("events_per_phase", 1)


def _counts(text):
    """Event counts of a whitespace-separated list, at least one."""
    values = tuple(map(_check_event_count, text.split()))
    if not values:
        raise ValueError("no counts")
    return values


# (parse, format) of the config's and the records' event-count lists
_COUNTS = (_counts, lambda v: " ".join(map(str, v)))

# Draws that run_experiment samples and estimate_all reduces as one
# array: runs of small phases are grouped up to 128 KiB per float64
# array, above which each call's temporaries were faulted in afresh.
GROUP_DRAWS = 16384


@dataclass(frozen=True)
class ExperimentPlan:
    """Full description of one simulated homodyne run.

    state             recipe for the measured state
    events_per_phase  number of events n(theta_l) recorded at each of
                      the N equidistant phases theta_l = 2 pi l / N
    eta               detector efficiency, in (0, 1]
    seed              integer >= 0; each phase gets its own child stream
    """

    state: StateSpec
    events_per_phase: tuple
    eta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        counts = []
        for l, n in enumerate(np.atleast_1d(self.events_per_phase).tolist()):
            try:
                counts.append(_check_event_count(n))
            except ValueError as exc:
                raise ValueError("phase %d: %s" % (l, exc)) from None
        if not counts:
            raise ValueError("plan needs at least one phase")
        smearing_sigma(self.eta)  # ValueError unless 0 < eta <= 1
        object.__setattr__(self, "events_per_phase", tuple(counts))
        object.__setattr__(self, "seed", _check_seed(self.seed))

    @property
    def n_phases(self):
        return len(self.events_per_phase)

    @property
    def phases(self):
        n = self.n_phases
        return 2.0 * np.pi * np.arange(n) / n

    @classmethod
    def uniform(cls, state, n_phases, events, eta=1.0, seed=0):
        """Plan with the same event count at every phase."""
        return cls(state=state, events_per_phase=(events,) * n_phases,
                   eta=eta, seed=seed)


def _first_non_finite(x):
    """Index of the first non-finite value of x, or None.  A clean x
    costs a min and a max (NaN and +-inf carry through both) and no
    full-size mask."""
    if np.isfinite(x.min(initial=0.0)) and np.isfinite(x.max(initial=0.0)):
        return None
    return int(np.argmax(~np.isfinite(x)))


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Records of one run: all samples in phase order as one read-only
    1-d array, and records, a read-only view of it per phase.  Sets
    compare and hash by identity."""

    plan: ExperimentPlan
    samples: np.ndarray = field(repr=False)
    records: tuple = field(init=False, repr=False)

    def __post_init__(self):
        x = np.asarray(self.samples, dtype=float)
        starts = np.cumsum((0, *self.plan.events_per_phase)).tolist()
        if x.shape != (starts[-1],):
            raise ValueError("samples of shape %s, events_per_phase sums "
                             "to %d" % (x.shape, starts[-1]))
        bad = _first_non_finite(x)
        if bad is not None:
            l = np.searchsorted(starts, bad, "right") - 1
            raise ValueError("phase %d, record %d: non-finite sample %r"
                             % (l, bad - starts[l], float(x[bad])))
        x.flags.writeable = False
        object.__setattr__(self, "samples", x)
        object.__setattr__(self, "records", tuple(
            x[a:b] for a, b in zip(starts[:-1], starts[1:])))


def _cdf_grid(n_max, step=GRID_STEP):
    """Sampling grid for states truncated at n_max, step apart.

    It spans the classically allowed region of the highest Fock level
    plus a generous margin, rounded out to whole steps, so the step the
    error bound is taken at is the grid's own.
    """
    half = math.ceil((math.sqrt(2.0 * n_max + 1.0) + 5.0) / step)
    return step * np.arange(-half, half + 1)


def _cdf_error_terms(rho):
    """Per-state terms of the bound on the Kolmogorov distance between
    p(x, theta) and the law sampled on a step-h grid (see _cdf_bound).

    Returns (k2, r, c4): |p''| / 6 and |p'| / (16 p) at each node of
    the BOUND_STEP grid and each of the 4 (n_max + 1) phases
    2 pi j / (4 (n_max + 1)), which sample the degree-n_max Fourier
    series in theta four times over, and C4 = max |p'''| / 36.  The
    derivatives are central differences of p; nodes whose k2 is too
    small ever to set the bound are dropped.  The terms do not depend
    on the phases a plan measures.
    """
    grid = _cdf_grid(rho.n_max, BOUND_STEP)
    h = grid[1] - grid[0]
    n_theta = 4 * (rho.n_max + 1)
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    p = harmonic_density(quadrature_harmonics(rho, grid), thetas)
    dp = np.diff(p, axis=1)
    d2p = np.diff(dp, axis=1)
    c4 = float(np.max(np.abs(np.diff(d2p, axis=1)))) / (36.0 * h ** 3)
    np.abs(d2p, out=d2p)
    at = np.flatnonzero(d2p >= np.max(d2p) * _M_HALF / (_M_HALF + 0.125))
    phase, node = np.divmod(at, d2p.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (np.abs(dp[phase, node] + dp[phase, node + 1])
             / (32.0 * h * p[phase, node + 1]))
    return d2p.ravel()[at] / (6.0 * h * h), r, c4


def _cdf_bound(terms, h):
    """Bound on the Kolmogorov distance of the law sampled at step h.

    In a segment with alpha = p_j / (p_j + p_{j+1}) the sampled CDF
    differs from the exact one by h^3 p''/6 tau (1 - tau) (tau - alpha)
    at tau = t / h, for p'' constant across the segment.  Over tau that
    peaks at h^3 |p''| M(alpha) / 6, where M(1/2) = _M_HALF and
    M(alpha) <= _M_HALF + |1/2 - alpha| / 4.  |1/2 - alpha| is taken as
    h |p'| / (4 p) at the node, and at most 1/2, which it reaches at a
    zero of p.  At the nodes the np.gradient slopes leave h^2/6 p''' in
    each end correction, so the cumulative masses err by h^4/72 times a
    difference of two p''' values (the sum telescopes), and normalising
    at most doubles that: C4 h^4 with C4 = max |p'''| / 36.  The checks
    in _cdf_table admit up to OUTSIDE_MASS_TOL outside the grid and as
    much clamped off negative segments.
    """
    k2, r, c4 = terms
    c3 = float(np.max(k2 * (_M_HALF + np.fmin(h * r, 0.125))))
    return c3 * h ** 3 + c4 * h ** 4 + 2.0 * OUTSIDE_MASS_TOL


def _cdf_step(rho):
    """CDF grid step for rho: the largest multiple m GRID_STEP whose
    bound _cdf_bound stays within CDF_TOL, and GRID_STEP (m = 1) when
    no multiple does.  The search starts at the largest m whose shape
    term alone, at alpha = 1/2 everywhere, stays within CDF_TOL."""
    terms = _cdf_error_terms(rho)
    m = max(1, math.floor((CDF_TOL / (np.max(terms[0]) * _M_HALF))
                          ** (1.0 / 3.0) / GRID_STEP))
    while m > 1 and _cdf_bound(terms, m * GRID_STEP) > CDF_TOL:
        m -= 1
    return m * GRID_STEP


def _sampling_grid(rho):
    """The CDF grid sample_quadrature and run_experiment sample rho on."""
    return _cdf_grid(rho.n_max, _cdf_step(rho))


def _cdf_table(grid, pdf, name=None):
    """Node CDFs of the laws sampled for the densities pdf on the uniform
    grid, one row per row of pdf (a 1-d pdf is one law), and their
    nodes (grid, pdf).

    Segment j holds the trapezoid mass with the Euler-Maclaurin end
    correction, h (p_j + p_{j+1}) / 2 - h^2/12 (p'_{j+1} - p'_j), p'
    by np.gradient's rule, written out so a one-row table pays no more
    than a 1-d one; a negative mass is clamped to zero.  All rows are
    tabulated in one pass, each element as a row of its own would be.
    A density leaking more probability than OUTSIDE_MASS_TOL past the
    grid edge, on a grid so coarse that more than that is clamped, or
    not finite cannot be sampled faithfully and is rejected; name(r),
    when given, names row r in the error.
    """
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    rows = pdf.reshape(-1, grid.size)
    slope = np.empty(rows.shape)
    slope[:, 1:-1] = (rows[:, 2:] - rows[:, :-2]) / (2.0 * h)
    slope[:, 0] = (rows[:, 1] - rows[:, 0]) / h
    slope[:, -1] = (rows[:, -1] - rows[:, -2]) / h
    mass = (rows[:, 1:] + rows[:, :-1]) * (h / 2.0)
    mass -= (slope[:, 1:] - slope[:, :-1]) * (h * h / 12.0)
    clamped = -np.minimum(mass, 0.0).sum(axis=1)
    np.maximum(mass, 0.0, out=mass)
    cdf = np.empty(rows.shape)
    cdf[:, 0] = 0.0
    np.cumsum(mass, axis=1, out=cdf[:, 1:])
    total = cdf[:, -1:].copy()
    leak = np.abs(total[:, 0] - 1.0)
    # NaN fails every comparison, so a row is bad unless both hold
    bad = ~((clamped <= OUTSIDE_MASS_TOL) & (leak <= OUTSIDE_MASS_TOL))
    if bad.any():
        r = np.argmax(bad)
        if not np.isfinite(leak[r] + clamped[r]):
            msg = "density is not finite"
        elif clamped[r] > OUTSIDE_MASS_TOL:
            msg = ("CDF grid too coarse: %.3e of probability mass in "
                   "segments of negative mass" % clamped[r])
        else:
            msg = ("quadrature grid too small: %.3e of the probability "
                   "mass lies outside [-%.2f, %.2f]"
                   % (leak[r], grid[-1], grid[-1]))
        raise ValueError(msg if name is None else name(r) + ": " + msg)
    cdf /= total
    return cdf.reshape(pdf.shape), (grid, pdf)


def _guide_segments(u, cdf, counts):
    """Flat node index j of each u in the rows of cdf, with cdf[j] <= u
    < cdf[j+1] inside u's row, by indexed search over all rows at once;
    the first counts[0] draws belong to row 0, the next counts[1] to
    row 1, and so on.

    Bucket b = floor(u M) of M = m equal buckets of an m-node row starts
    at guide[b], the last node whose own bucket floor(cdf[j] M) lies
    below b.  Multiplying by M rounds monotonically, so that node lies
    below every u of the bucket (node 0, cdf = 0, starts bucket 0).
    Row r's buckets sit at r (M + 2) in one bincount, whose running
    count passes the r m nodes of the rows before, so guide holds flat
    node indices.  Three +1 steps place all but the samples in buckets
    spanning many nodes (the flat tails, under 1% of samples); those
    binary-search their row, one search per row that holds any.  No
    step leaves the row: its last node, cdf = 1, lies above every u.  A
    segment of zero mass, cdf[j] == cdf[j+1], holds no u and is never
    chosen.
    """
    n_rows, m = cdf.shape
    keys = (cdf * m).astype(np.intp)
    keys += np.arange(1, n_rows * (m + 2), m + 2)[:, None]
    guide = np.cumsum(np.bincount(keys.ravel(),
                                  minlength=n_rows * (m + 2))) - 1
    guide[::m + 2] += 1
    cdf = cdf.ravel()
    b = (u * m).astype(np.intp)
    if n_rows > 1:
        b += np.repeat(np.arange(0, n_rows * (m + 2), m + 2), counts)
    j = guide[b]
    upper = cdf[1:]
    for _ in range(3):
        j += upper[j] <= u
    unplaced = np.flatnonzero(upper[j] <= u)
    while unplaced.size:
        s = j[unplaced[0]] // m * m
        n = np.count_nonzero(j[unplaced] < s + m)
        at, unplaced = unplaced[:n], unplaced[n:]
        j[at] = s - 1 + np.searchsorted(cdf[s:s + m], u[at], "right")
    return j


def _quantiles(u, cdf, xs, pdf, counts=None, out=None):
    """Quantiles at uniform draws u in [0, 1) of the laws with node CDFs
    cdf (from 0 to 1, one row per law; a 1-d cdf is one law) and, in
    each segment, the linear density through (xs, pdf) rescaled to the
    segment's mass.  The first counts[0] draws follow row 0, the next
    counts[1] row 1, and so on; all follow a single row when counts is
    None.  They go to out when given, which may be u itself.

    With w = (u - c_j) / (c_{j+1} - c_j) in [0, 1] and the linear
    density's area A = h (p_j + p_{j+1}) / 2, the quadratic CDF gives
    t = 2 w A / (p_j + sqrt(p_j^2 + 2 (p_{j+1} - p_j) w A / h)), stable
    where p_j = 0.  p_j and p_{j+1} enter divided by the larger of the
    two, so no square underflows.  Where that form is 0/0 (an exact hit
    u == c_j on a node of zero density, or a segment whose density
    vanishes at both nodes) the draw is the uniform one, x_j + w h; no
    draw is NaN.  The segment terms are formed over the flat rows, each
    from its own row's nodes, so every draw has the bits it has when
    its row is sampled alone.
    """
    m = xs.size
    h = (xs[-1] - xs[0]) / (m - 1)
    cdf = cdf.reshape(-1, m)
    j = _guide_segments(u, cdf, counts)
    xs = np.tile(xs, cdf.shape[0])
    cdf = cdf.ravel()
    pdf = pdf.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.maximum(pdf[:-1], pdf[1:])
        a = pdf[:-1] / scale
        b = pdf[1:] / scale
        a_sq = a * a
        w = (u - cdf[j]) / np.diff(cdf)[j]
        t = (w * (h * (a + b))[j]
             / (a[j] + np.sqrt(a_sq[j] + w * (b * b - a_sq)[j])))
    if not np.isfinite(t).all():
        bad = ~np.isfinite(t)
        t[bad] = w[bad] * h
    return np.add(xs[j], t, out=out)


def _inverse_cdf_table(rho, theta):
    """Node CDF and density nodes of the law sampled for p(x, theta)."""
    grid = _sampling_grid(rho)
    return _cdf_table(grid, quadrature_pdf(rho, grid, theta),
                      lambda r: "theta = %.6g" % theta)


def sample_quadrature(rho, theta, count, rng_stream):
    """Draw count i.i.d. samples of the quadrature at phase theta."""
    cdf, nodes = _inverse_cdf_table(rho, theta)
    return _quantiles(rng_stream.random(int(count)), cdf, *nodes)


def _phase_groups(counts, max_phases=GROUP_DRAWS, max_draws=GROUP_DRAWS):
    """Runs of consecutive phases whose event counts sum to at most
    max_draws and that number at most max_phases (by default no bound
    beyond GROUP_DRAWS draws), in phase order; a phase with more events
    forms a group alone.  Each group is a list of (l, a, b): phase l
    fills [a, b) of the group's draws.  run_experiment and the
    estimator group phases alike."""
    group, size = [], 0
    for l, n in enumerate(counts):
        if group and (size + n > max_draws or len(group) >= max_phases):
            yield group
            group, size = [], 0
        group.append((l, size, size + n))
        size += n
    yield group


def phase_stream(seed, l):
    """Deterministic child generator for phase index l."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(int(l),))
    )


@lru_cache(maxsize=1)
def _state_sampler(state, capture_tol):
    """The last state's CDF grid and phase harmonics, read-only; a state
    that build_state refuses raises on every call."""
    rho = build_state(state, capture_tol=capture_tol)
    grid = _sampling_grid(rho)
    harmonics = quadrature_harmonics(rho, grid)
    grid.flags.writeable = harmonics.flags.writeable = False
    return grid, harmonics


def run_experiment(plan, capture_tol=CAPTURE_TOL):
    """Simulate the full run described by plan.

    The quadrature distribution is decomposed into phase harmonics once
    per state (states.quadrature_harmonics, O(n_max^2 G) on the G-point
    CDF grid), so each phase's density costs one O(n_max G) matvec
    before it goes through the same CDF table and inverse transform as
    sample_quadrature: a guide table built in O(G) places each draw in
    O(1), and one square root inverts the segment's quadratic CDF (see
    the module docstring for the law and its grid step).  The grid and
    the harmonics depend on the state alone, not on the plan's phases
    or seed; _state_sampler keeps the last state's, so consecutive runs
    on one state build them once.  Each phase draws from its own
    deterministic child stream, so the set is reproducible and phase
    results do not depend on execution order.  With eta < 1 the stream
    also supplies the Gaussian detector noise added to each sample.

    Phases are sampled in groups (_phase_groups), of at most
    GROUP_DRAWS // G phases so that no (phases, G) table outgrows the
    draw arrays: one CDF pass and one inverse transform over all of a
    group's rows, in place in its slice of the run's one array.  Every
    record is bit for bit the one its phase gives sampled alone, and a
    failed CDF check names the phase and theta.
    """
    grid, harmonics = _state_sampler(plan.state, capture_tol)
    sigma = smearing_sigma(plan.eta)
    thetas = plan.phases
    # A large run gets a mapping of its own, returned whole when freed:
    # on the malloc heap, a stream of them left holes that small arrays
    # split, and the heap grew by a run.  A small one reuses the heap.
    n = sum(plan.events_per_phase)
    samples = rest = np.empty(n) if n <= GROUP_DRAWS else np.frombuffer(
        mmap.mmap(-1, 8 * n, access=mmap.ACCESS_COPY))
    for group in _phase_groups(plan.events_per_phase,
                               GROUP_DRAWS // grid.size):
        pdf = np.empty((len(group), grid.size))
        u, rest = rest[:group[-1][2]], rest[group[-1][2]:]
        streams = []
        for r, (l, a, b) in enumerate(group):
            harmonic_density(harmonics, thetas[l], out=pdf[r])
            streams.append(phase_stream(plan.seed, l))
            streams[-1].random(out=u[a:b])
        first = group[0][0]
        cdf, nodes = _cdf_table(grid, pdf, lambda r: "phase %d (theta = %.6g)"
                                % (first + r, thetas[first + r]))
        _quantiles(u, cdf, *nodes, [b - a for _, a, b in group], out=u)
        if sigma > 0.0:
            for rng, (l, a, b) in zip(streams, group):
                u[a:b] += rng.normal(0.0, sigma, size=b - a)
    return MeasurementSet(plan, samples)


def save_records(ms, path, header_lines=()):
    """Write a MeasurementSet as text: '#' headers, the state as one
    key=value per field of STATE_FIELDS, then the samples in phase
    order, one per row, events_per_phase[l] rows for phase l.  Each
    sample is written as its repr, the shortest text that reads back as
    the same double."""
    plan = ms.plan
    header = [
        "homodyne measurement records",
        *header_lines,
        "state: " + " ".join("%s=%s" % (key, fmt(getattr(plan.state, key)))
                             for key, (_, fmt) in STATE_FIELDS.items()),
        "n_phases: %d" % plan.n_phases,
        "events_per_phase: " + _COUNTS[1](plan.events_per_phase),
        "eta: %.17g" % plan.eta,
        "seed: %d" % plan.seed,
        "columns: " + RECORD_COLUMNS,
    ]
    textio.save(path, header, (
        "\n".join(map(repr, samples.tolist())) for samples in ms.records
    ))


def _efficiency(text):
    smearing_sigma(float(text))  # ValueError unless 0 < eta <= 1
    return float(text)


def _parse_state(text):
    """StateSpec from the 'kind=... alpha=... ...' record header, each
    value read as the config's state.* key is (STATE_FIELDS)."""
    kwargs = {}
    for token in text.split():
        key, _, value = token.partition("=")
        if key not in STATE_FIELDS:
            raise ValueError("unknown state field %r" % key)
        kwargs[key] = STATE_FIELDS[key][0](value)
    if "kind" not in kwargs:
        raise ValueError("no state kind")
    return StateSpec(**kwargs)


def load_records(path):
    """Parse a record file written by save_records.

    Raises ValueError naming the line of the first row that does not
    parse (or of a 'columns' header other than 'x', which refuses the
    older 'l, theta_l, x' layout), then of the first non-finite sample;
    MeasurementSet refuses a row count other than the sum of the
    header's events_per_phase.
    """
    art = textio.load(path, RECORD_COLUMNS)
    plan = _record_plan(art)
    x = art.rows[:, 0]
    bad = _first_non_finite(x)
    if bad is not None:
        raise art.error(bad, "non-finite sample %r" % float(x[bad]))
    return MeasurementSet(plan, x)


def _record_plan(art):
    """The ExperimentPlan in the header of a record Artifact."""
    n_phases = art.field("n_phases:", _check_n_phases)

    def counts(text):
        values = _counts(text)
        if len(values) != n_phases:
            raise ValueError(
                "%d event counts for %d phases" % (len(values), n_phases)
            )
        return values

    return ExperimentPlan(
        state=art.field("state:", _parse_state),
        events_per_phase=art.field("events_per_phase:", counts),
        eta=art.field("eta:", _efficiency),
        seed=art.field("seed:", _check_seed),
    )

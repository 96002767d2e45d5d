"""Monte Carlo simulation of balanced homodyne detection.

Draws quadrature samples at equidistant local-oscillator phases by
inverse-CDF sampling from the exact quadrature distribution of a
truncated state (decomposed once per run into phase harmonics, so each
phase's density is a single matvec), models detector efficiency
eta < 1 as additive Gaussian noise of width kernels.smearing_sigma(eta)
on the ideal samples (the convolution picture of a lossy detector), and
persists measurement records as plain text.

The inverse transform interpolates linearly in the tabulated CDF.  A
uniform draw u finds its CDF segment through a guide table (indexed
search: Chen and Asau, AIIE Trans. 6, 163 (1974); Devroye, Non-Uniform
Random Variate Generation (1986), sec. III.2), built in O(G) per phase
on the G-node CDF, instead of a binary search per sample.  The value
is np.interp's own arithmetic on np.interp's own segment, so samples
are bit-identical to np.interp(u, cdf, xs).

The CDF grid step follows from a stated error bound.  The sampled law
is the linear interpolant of the trapezoid cumulative on a grid of step
h, so its Kolmogorov distance to the exact law is at most C(rho) h^2,
with C = max_theta [max_x |p'| / 8 + int |p''| dx / 12] estimated from
the state alone (_cdf_error_coefficient).  The step is h = m GRID_STEP
with m = max(1, floor(sqrt(CDF_TOL / C) / GRID_STEP)), the largest
multiple of GRID_STEP that keeps C h^2 within CDF_TOL.  CDF_TOL is the
acceptance state's own bound at GRID_STEP, rounded up, so that state
keeps GRID_STEP.  No state samples on a finer grid than GRID_STEP: one
narrower than C = CDF_TOL / GRID_STEP^2 = 2.5 keeps it, with a bound
above CDF_TOL as before.  Broad states coarsen: vacuum and coherent
states (C = 0.222) sample at 3 GRID_STEP, Fock 1 and squeezed vacuum
with |xi| = 0.3 at 2 GRID_STEP.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import textio
from .kernels import smearing_sigma
from .states import (
    CAPTURE_TOL,
    StateSpec,
    build_state,
    harmonic_density,
    quadrature_harmonics,
    quadrature_pdf,
)

GRID_STEP = 1.0e-3
OUTSIDE_MASS_TOL = 1.0e-9
# Kolmogorov-distance bound C(rho) h^2 the CDF step h is chosen to meet:
# the acceptance state's own bound at GRID_STEP (squeezed vacuum,
# xi = -1.31, n_max = 20: C = 2.330, so 2.330e-6), rounded up.
CDF_TOL = 2.5e-6
# Step of the coarse grid on which C(rho) is estimated.
BOUND_STEP = 0.02
RECORD_COLUMNS = "l, theta_l, x"


@dataclass(frozen=True)
class ExperimentPlan:
    """Full description of one simulated homodyne run.

    state             recipe for the measured state
    events_per_phase  number of events n(theta_l) recorded at each of
                      the N equidistant phases theta_l = 2 pi l / N
    eta               detector efficiency, in (0, 1]
    seed              base seed; each phase gets its own child stream
    """

    state: StateSpec
    events_per_phase: tuple
    eta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        counts = []
        for l, n in enumerate(np.atleast_1d(self.events_per_phase).tolist()):
            if not float(n).is_integer():
                raise ValueError("phase %d: event count %r is not a whole "
                                 "number" % (l, n))
            counts.append(int(n))
        counts = tuple(counts)
        if len(counts) == 0:
            raise ValueError("plan needs at least one phase")
        if min(counts) < 1:
            raise ValueError("every phase needs at least one event")
        smearing_sigma(self.eta)  # ValueError unless 0 < eta <= 1
        object.__setattr__(self, "events_per_phase", counts)

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


@dataclass(frozen=True)
class MeasurementSet:
    """Records of one simulated run: one sample array per phase."""

    plan: ExperimentPlan
    records: tuple = field(repr=False)

    def __post_init__(self):
        records = []
        for l, (samples, expected) in enumerate(
            zip(self.records, self.plan.events_per_phase)
        ):
            arr = np.asarray(samples, dtype=float)
            if arr.size != expected:
                raise ValueError(
                    "phase %d holds %d records, plan says %d"
                    % (l, arr.size, expected)
                )
            bad = np.flatnonzero(~np.isfinite(arr))
            if bad.size:
                raise ValueError(
                    "phase %d, record %d: non-finite sample %r"
                    % (l, bad[0], float(arr[bad[0]]))
                )
            arr.flags.writeable = False
            records.append(arr)
        if len(records) != self.plan.n_phases:
            raise ValueError("record group count does not match plan")
        object.__setattr__(self, "records", tuple(records))


def _cdf_grid(n_max, step=GRID_STEP):
    """Sampling grid for states truncated at n_max, about step apart.

    It spans the classically allowed region of the highest Fock level
    plus a generous margin.
    """
    x_lim = math.sqrt(2.0 * n_max + 1.0) + 5.0
    n_pts = int(round(2.0 * x_lim / step)) + 1
    return np.linspace(-x_lim, x_lim, n_pts)


def _cdf_error_coefficient(rho):
    """C(rho) = max_theta [max_x |p'| / 8 + int |p''| dx / 12].

    Sampling by linear interpolation in the trapezoid cumulative of a
    step-h grid draws from a law within Kolmogorov distance C h^2 of
    p(x, theta): the trapezoid rule errs by at most h^2/12 int |p''| at
    the nodes, and linear interpolation by h^2/8 max |p'| between them.
    The derivatives are finite differences of p on the BOUND_STEP grid,
    at the 4 (n_max + 1) phases 2 pi j / (4 (n_max + 1)), which sample
    the degree-n_max Fourier series in theta four times over; C does
    not depend on the phases a plan measures.
    """
    grid = _cdf_grid(rho.n_max, BOUND_STEP)
    h = grid[1] - grid[0]
    n_theta = 4 * (rho.n_max + 1)
    thetas = 2.0 * np.pi * np.arange(n_theta) / n_theta
    p = harmonic_density(quadrature_harmonics(rho, grid), thetas)
    dp = np.diff(p, axis=1)
    d2p = np.diff(dp, axis=1)
    # in place, and scaled by h per phase: full-size temporaries took
    # 0.9 ms against 0.45 ms on the reference state (2-vCPU x86-64 VM)
    np.abs(dp, out=dp)
    np.abs(d2p, out=d2p)
    per_phase = (np.max(dp, axis=1) / (8.0 * h)
                 + np.sum(d2p, axis=1) / (12.0 * h))
    return float(np.max(per_phase))


def _cdf_step(rho):
    """CDF grid step for rho: the largest multiple m GRID_STEP whose
    bound C(rho) h^2 stays within CDF_TOL, and GRID_STEP (m = 1) when
    no multiple does.

    m > 1 needs C <= CDF_TOL / (2 GRID_STEP)^2 = 0.625, a state far
    broader than BOUND_STEP: for vacuum, coherent, Fock and squeezed
    states the coarse C is within 0.3% of C on a 1e-4 grid.
    """
    ratio = math.sqrt(CDF_TOL / _cdf_error_coefficient(rho)) / GRID_STEP
    return max(1, math.floor(ratio)) * GRID_STEP


def _sampling_grid(rho):
    """The CDF grid sample_quadrature and run_experiment sample rho on."""
    return _cdf_grid(rho.n_max, _cdf_step(rho))


def _cdf_table(grid, pdf):
    """Tabulated quantile function of the density pdf on grid.

    A state leaking more probability than OUTSIDE_MASS_TOL past the
    grid edge cannot be sampled faithfully and is rejected.
    """
    cdf = np.concatenate(
        ([0.0], np.cumsum((pdf[1:] + pdf[:-1]) * np.diff(grid) / 2.0))
    )
    total = cdf[-1]
    if abs(total - 1.0) > OUTSIDE_MASS_TOL:
        raise ValueError(
            "quadrature grid too small: %.3e of the probability mass "
            "lies outside [-%.2f, %.2f]"
            % (abs(total - 1.0), grid[-1], grid[-1])
        )
    cdf /= total
    keep = np.empty(cdf.size, dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(cdf) > 0.0
    return cdf[keep], grid[keep]


def _guide_segments(u, cdf):
    """Segment j of each u, cdf[j] <= u < cdf[j+1], by indexed search.

    Bucket b = floor(u M) of M = len(cdf) equal buckets starts at
    guide[b], the last node whose own bucket floor(cdf[j] M) lies below
    b.  Multiplying by M rounds monotonically, so that node lies below
    every u of the bucket (node 0, cdf = 0, starts bucket 0).  Three +1
    steps place all but the samples in buckets spanning many nodes (the
    flat tails, under 1% of samples); those binary-search.
    """
    m = cdf.size
    buckets = np.bincount((cdf * m).astype(np.intp) + 1, minlength=m + 2)
    guide = np.cumsum(buckets[:-1]) - 1
    guide[0] = 0
    j = guide[(u * m).astype(np.intp)]
    for _ in range(3):
        j += cdf[j + 1] <= u
    unplaced = np.flatnonzero(cdf[j + 1] <= u)
    if unplaced.size:
        j[unplaced] = np.searchsorted(cdf, u[unplaced], "right") - 1
    return j


def _inverse_transform(u, cdf, xs):
    """Quantiles at uniform draws u in [0, 1) of the piecewise-linear
    CDF table (cdf strictly increasing from 0 to 1, nodes xs).

    Bit-identical to np.interp(u, cdf, xs): the same segment and the
    same slope (xs[j+1] - xs[j]) / (cdf[j+1] - cdf[j]) (u - cdf[j]) +
    xs[j], and the node itself on an exact hit u == cdf[j], which the
    formula misses only when a subnormal CDF step overflows the slope.
    Like np.interp, it raises no floating-point warning there.
    """
    j = _guide_segments(u, cdf)
    c0 = cdf[j]
    x0 = xs[j]
    with np.errstate(over="ignore", invalid="ignore"):
        out = (xs[j + 1] - x0) / (cdf[j + 1] - c0) * (u - c0) + x0
    if not np.isfinite(out).all():
        hit = u == c0
        out[hit] = x0[hit]
    return out


def _inverse_cdf_table(rho, theta):
    """Tabulated quantile function of p(x, theta) for rho."""
    grid = _sampling_grid(rho)
    return _cdf_table(grid, quadrature_pdf(rho, grid, theta))


def sample_quadrature(rho, theta, count, rng_stream):
    """Draw count i.i.d. samples of the quadrature at phase theta."""
    cdf, xs = _inverse_cdf_table(rho, theta)
    return _inverse_transform(rng_stream.random(int(count)), cdf, xs)


def phase_stream(seed, l):
    """Deterministic child generator for phase index l."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(int(l),))
    )


def run_experiment(plan, capture_tol=CAPTURE_TOL):
    """Simulate the full run described by plan.

    The quadrature distribution is decomposed into phase harmonics once
    per run (states.quadrature_harmonics, O(n_max^2 G) on the G-point
    CDF grid), so each phase's density costs one O(n_max G) matvec
    before it goes through the same CDF table and inverse transform as
    sample_quadrature: a guide table built in O(G) places each draw in
    O(1).
    The CDF grid, the same one sample_quadrature uses, has the largest
    step m GRID_STEP whose Kolmogorov-distance bound C(rho) h^2 stays
    within CDF_TOL (m = 1 when none does; see the module docstring).
    C comes from the state alone, not from the plan's phases, in under
    a millisecond.  Broad states such as vacuum and coherent states
    sample on a 3x coarser grid; the acceptance state keeps GRID_STEP.
    Each phase draws from its own deterministic child stream, so the
    set is reproducible and phase results do not depend on execution
    order.  With eta < 1 the stream also supplies the Gaussian detector
    noise added to each ideal sample.
    """
    rho = build_state(plan.state, capture_tol=capture_tol)
    grid = _sampling_grid(rho)
    harmonics = quadrature_harmonics(rho, grid)
    sigma = smearing_sigma(plan.eta)
    records = []
    for l, (theta, count) in enumerate(
        zip(plan.phases, plan.events_per_phase)
    ):
        rng = phase_stream(plan.seed, l)
        cdf, xs = _cdf_table(grid, harmonic_density(harmonics, theta))
        samples = _inverse_transform(rng.random(count), cdf, xs)
        if sigma > 0.0:
            samples = samples + rng.normal(0.0, sigma, size=count)
        records.append(samples)
    return MeasurementSet(plan=plan, records=tuple(records))


def _format_complex(z):
    z = complex(z)
    return "%.17g%+.17gj" % (z.real, z.imag)


def save_records(ms, path, header_lines=()):
    """Write a MeasurementSet as text: '#' headers, then one
    'l, theta_l, x' row per event.  A sample whose text would read
    back as inf raises ValueError before the file is opened."""
    for samples in ms.records:
        textio.check_finite_text("%.15e", samples)
    plan = ms.plan
    state = plan.state
    header = [
        "homodyne measurement records",
        *header_lines,
        "state: kind=%s alpha=%s squeeze=%s fock_n=%d n_max=%d"
        % (state.kind, _format_complex(state.alpha),
           _format_complex(state.squeeze), state.fock_n, state.n_max),
        "n_phases: %d" % plan.n_phases,
        "events_per_phase: %s"
        % " ".join(str(n) for n in plan.events_per_phase),
        "eta: %.17g" % plan.eta,
        "seed: %d" % plan.seed,
        "columns: " + RECORD_COLUMNS,
    ]
    textio.save(path, header, _record_lines(ms))


def _record_lines(ms):
    """One newline-joined block of 'l, theta_l, x' rows per phase, with
    l and theta_l formatted once per phase."""
    for l, (theta, samples) in enumerate(zip(ms.plan.phases, ms.records)):
        row = "%d, %.15e, " % (l, theta) + "%.15e"
        yield "\n".join(map(row.__mod__, samples.tolist()))


def _efficiency(text):
    smearing_sigma(float(text))  # ValueError unless 0 < eta <= 1
    return float(text)


_STATE_FIELDS = {"kind": str, "alpha": complex, "squeeze": complex,
                 "fock_n": int, "n_max": int}


def _parse_state(text):
    """StateSpec from the 'kind=... alpha=... ...' record header."""
    kwargs = {}
    for token in text.split():
        key, _, value = token.partition("=")
        if key not in _STATE_FIELDS:
            raise ValueError("unknown state field %r" % key)
        kwargs[key] = _STATE_FIELDS[key](value)
    if "kind" not in kwargs:
        raise ValueError("no state kind")
    return StateSpec(**kwargs)


def load_records(path):
    """Parse a record file written by save_records.

    Raises ValueError with the offending line number on malformed rows,
    on non-finite samples, on rows whose phase index or angle disagrees
    with the plan in the header, and on per-phase counts that do not
    match the header.  Rows are checked in file order: a row the plan
    refuses is named before a later row that does not parse.
    """
    try:
        art = textio.load(path, RECORD_COLUMNS, sep=",")
    except textio.RowError as exc:
        _check_rows_before(exc.partial)
        raise
    plan = _record_plan(art)
    phase, x = _checked_rows(art, plan)
    got = np.bincount(phase, minlength=plan.n_phases)
    for p, (have, want) in enumerate(zip(got, plan.events_per_phase)):
        if have != want:
            raise ValueError(
                "phase %d: file holds %d records, header says %d"
                % (p, have, want)
            )
    grouped = x[np.argsort(phase, kind="stable")]
    return MeasurementSet(
        plan=plan, records=tuple(np.split(grouped, np.cumsum(got)[:-1]))
    )


def _check_rows_before(partial):
    """Raise the error of the first bad row of partial, the records read
    before an unreadable row, when the header lines read so far give
    the plan."""
    try:
        plan = _record_plan(partial)
    except ValueError:
        return
    _checked_rows(partial, plan)


def _record_plan(art):
    """The ExperimentPlan in the header of a record Artifact."""
    n_phases = art.field("n_phases:", int)

    def counts(text):
        values = tuple(int(tok) for tok in text.split())
        if len(values) != n_phases:
            raise ValueError(
                "%d event counts for %d phases" % (len(values), n_phases)
            )
        return values

    return ExperimentPlan(
        state=art.field("state:", _parse_state),
        events_per_phase=art.field("events_per_phase:", counts),
        eta=art.field("eta:", _efficiency),
        seed=art.field("seed:", int),
    )


def _checked_rows(art, plan):
    """The phase index and sample of each row of a record Artifact.
    Raises ValueError naming the line of the first row with a
    non-finite sample, a phase index outside the plan or an angle off
    its phase."""
    n_phases = plan.n_phases
    l, theta, x = art.rows.T
    finite = np.isfinite(x)
    in_plan = (l >= 0) & (l < n_phases) & (l == np.floor(l))
    phase = np.where(in_plan, l, 0).astype(np.intp)
    on_angle = np.abs(theta - plan.phases[phase]) <= 1.0e-9
    bad = np.flatnonzero(~(finite & in_plan & on_angle))
    if bad.size:
        i = bad[0]
        if not finite[i]:
            raise art.error(i, "non-finite sample %r" % float(x[i]))
        if not in_plan[i]:
            raise art.error(i, "phase index %.17g is not one of 0..%d"
                            % (l[i], n_phases - 1))
        raise art.error(i, "theta %.12g does not match phase %d (%.12g)"
                        % (theta[i], phase[i], plan.phases[phase[i]]))
    return phase, x

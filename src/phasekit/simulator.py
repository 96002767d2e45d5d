"""Monte Carlo simulation of balanced homodyne detection.

Draws quadrature samples at equidistant local-oscillator phases by
inverse-CDF sampling from the exact quadrature distribution of a
truncated state (decomposed once per run into phase harmonics, so each
phase's density is a single matvec), models detector efficiency
eta < 1 as additive Gaussian noise of variance (1 - eta) / (2 eta) on
the ideal samples (the convolution picture of a lossy detector), and
persists measurement records as plain text.
"""

import math
from dataclasses import dataclass, field

import numpy as np

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
        counts = tuple(int(n) for n in np.atleast_1d(
            np.asarray(self.events_per_phase, dtype=int)
        ))
        if len(counts) == 0:
            raise ValueError("plan needs at least one phase")
        if min(counts) < 1:
            raise ValueError("every phase needs at least one event")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
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
        return cls(state=state, events_per_phase=(int(events),) * n_phases,
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


def _cdf_grid(n_max):
    """Sampling grid for states truncated at n_max.

    It spans the classically allowed region of the highest Fock level
    plus a generous margin.
    """
    x_lim = math.sqrt(2.0 * n_max + 1.0) + 5.0
    n_pts = int(round(2.0 * x_lim / GRID_STEP)) + 1
    return np.linspace(-x_lim, x_lim, n_pts)


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


def _inverse_cdf_table(rho, theta):
    """Tabulated quantile function of p(x, theta) for rho."""
    grid = _cdf_grid(rho.n_max)
    return _cdf_table(grid, quadrature_pdf(rho, grid, theta))


def sample_quadrature(rho, theta, count, rng_stream):
    """Draw count i.i.d. samples of the quadrature at phase theta."""
    cdf, xs = _inverse_cdf_table(rho, theta)
    u = rng_stream.random(int(count))
    return np.interp(u, cdf, xs)


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
    before it goes through the same CDF table as sample_quadrature.
    Each phase draws from its own deterministic child stream, so the
    set is reproducible and phase results do not depend on execution
    order.  With eta < 1 the stream also supplies the Gaussian detector
    noise added to each ideal sample.
    """
    rho = build_state(plan.state, capture_tol=capture_tol)
    grid = _cdf_grid(rho.n_max)
    harmonics = quadrature_harmonics(rho, grid)
    sigma = 0.0
    if plan.eta < 1.0:
        sigma = math.sqrt((1.0 - plan.eta) / (2.0 * plan.eta))
    records = []
    for l, (theta, count) in enumerate(
        zip(plan.phases, plan.events_per_phase)
    ):
        rng = phase_stream(plan.seed, l)
        cdf, xs = _cdf_table(grid, harmonic_density(harmonics, theta))
        samples = np.interp(rng.random(count), cdf, xs)
        if sigma > 0.0:
            samples = samples + rng.normal(0.0, sigma, size=count)
        records.append(samples)
    return MeasurementSet(plan=plan, records=tuple(records))


def _format_complex(z):
    z = complex(z)
    return "%.17g%+.17gj" % (z.real, z.imag)


def save_records(ms, path, header_lines=()):
    """Write a MeasurementSet as text: '#' headers, then one
    'l, theta_l, x' row per event."""
    plan = ms.plan
    state = plan.state
    lines = ["# homodyne measurement records"]
    lines.extend("# %s" % h for h in header_lines)
    lines += [
        "# state: kind=%s alpha=%s squeeze=%s fock_n=%d n_max=%d"
        % (state.kind, _format_complex(state.alpha),
           _format_complex(state.squeeze), state.fock_n, state.n_max),
        "# n_phases: %d" % plan.n_phases,
        "# events_per_phase: %s"
        % " ".join(str(n) for n in plan.events_per_phase),
        "# eta: %.17g" % plan.eta,
        "# seed: %d" % plan.seed,
        "# columns: l, theta_l, x",
    ]
    phases = plan.phases
    for l, samples in enumerate(ms.records):
        theta = phases[l]
        for x in samples:
            lines.append("%d, %.15e, %.15e" % (l, theta, x))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_header(lines):
    fields = {}
    for idx, raw in lines:
        body = raw[1:].strip()
        if ":" not in body:
            continue
        key, _, value = body.partition(":")
        fields[key.strip()] = (idx, value.strip())
    required = ("state", "n_phases", "events_per_phase", "eta", "seed")
    for key in required:
        if key not in fields:
            raise ValueError("missing '# %s:' header line" % key)

    idx, text = fields["state"]
    kwargs = {}
    try:
        for token in text.split():
            key, _, value = token.partition("=")
            if key in ("fock_n", "n_max"):
                kwargs[key] = int(value)
            elif key in ("alpha", "squeeze"):
                kwargs[key] = complex(value)
            elif key == "kind":
                kwargs[key] = value
            else:
                raise ValueError("unknown state field %r" % key)
        state = StateSpec(**kwargs)
    except ValueError as exc:
        raise ValueError("line %d: bad state header: %s" % (idx, exc))

    def scalar(key, conv):
        idx, text = fields[key]
        try:
            return conv(text)
        except ValueError:
            raise ValueError("line %d: bad %s value %r" % (idx, key, text))

    n_phases = scalar("n_phases", int)
    eta = scalar("eta", float)
    seed = scalar("seed", int)
    idx, text = fields["events_per_phase"]
    try:
        counts = tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ValueError("line %d: bad events_per_phase list" % idx)
    if len(counts) != n_phases:
        raise ValueError(
            "line %d: %d event counts for %d phases"
            % (idx, len(counts), n_phases)
        )
    return ExperimentPlan(state=state, events_per_phase=counts, eta=eta,
                          seed=seed)


def load_records(path):
    """Parse a record file written by save_records.

    Raises ValueError with the offending line number on malformed rows,
    on non-finite samples, on rows whose phase index or angle disagrees
    with the plan in the header, and on per-phase counts that do not
    match the header.
    """
    header = []
    body = []
    with open(path) as fh:
        for idx, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                header.append((idx, line))
            else:
                body.append((idx, line))
    plan = _parse_header(header)
    phases = plan.phases
    groups = [[] for _ in range(plan.n_phases)]
    for idx, line in body:
        parts = [tok.strip() for tok in line.split(",")]
        if len(parts) != 3:
            raise ValueError(
                "line %d: expected 'l, theta_l, x', got %r" % (idx, line)
            )
        try:
            l = int(parts[0])
            theta = float(parts[1])
            x = float(parts[2])
        except ValueError:
            raise ValueError("line %d: unparsable record %r" % (idx, line))
        if not math.isfinite(x):
            raise ValueError("line %d: non-finite sample %r" % (idx, line))
        if not 0 <= l < plan.n_phases:
            raise ValueError(
                "line %d: phase index %d outside 0..%d"
                % (idx, l, plan.n_phases - 1)
            )
        if abs(theta - phases[l]) > 1.0e-9:
            raise ValueError(
                "line %d: theta %.12g does not match phase %d (%.12g)"
                % (idx, theta, l, phases[l])
            )
        groups[l].append(x)
    for l, (got, want) in enumerate(
        zip(groups, plan.events_per_phase)
    ):
        if len(got) != want:
            raise ValueError(
                "phase %d: file holds %d records, header says %d"
                % (l, len(got), want)
            )
    return MeasurementSet(
        plan=plan,
        records=tuple(np.asarray(g, dtype=float) for g in groups),
    )

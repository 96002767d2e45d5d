"""Sampling kernels for exponential phase moments.

The k-th exponential moment of the canonical phase distribution can be
sampled directly from balanced homodyne data: averaging a kernel
K_k(x) e^{ik theta} over the measured quadratures x at phases theta
yields the moment.  This module constructs the x-dependent factor
K_k(x), its loss-compensated variants K_k(x; eta), the classical
(large-amplitude) limits, and the Gaussian smearing-error kernel used
for bias analysis, with the one detector-noise model, smearing_sigma.

Evaluation strategy, following the series construction: inside a window
|x| < x0 the kernel is a Hermite series

    K_k(x) = (2 pi)^{-1} sum_{l=0}^{l0} C_l^(k) H_{2l+k}(x) + F_k(x)

whose coefficients fall off fast enough that l0 = 40 saturates double
precision, while outside the window the kernel has already collapsed
onto its classical limit up to a small algebraic correction.  The series
is evaluated through normalized oscillator functions rather than raw
Hermite polynomials, so no intermediate ever overflows:

    (2 pi)^{-1} C_l H_{2l+k}(x) =
        (2 pi)^{-1} pi^{1/4} e^{x^2/2} w_l psi_{2l+k}(x)

with log-space weights w_l.  The alternating inner sums behind C_l lose
all double-precision significance beyond l of about 20, so they are done
once per order in extended precision and cached: rising products as
exact Python integers, square roots, one forward-difference table for
all l and the logs in stdlib decimal.  The positive inner sums of F_k
need no extra precision; they are exactly rounded math.fsum totals of
doubles, completed by Hurwitz-zeta tails from the Euler-Maclaurin
formula in decimal.  Tables need numpy and the standard library alone,
and importing phasekit loads no scipy.

Estimation evaluates tabulated kernels (KernelTable): a KernelSpec and
a grid step, from which the table builds its uniform grid on [-x0, x0],
its nodes and two tail numbers, the edge gap and the offset.  Inside
|x| <= x0 a table interpolates linearly between its nodes; outside, NaN
and +-inf included, it takes _tail_value, the tail quantum_kernel uses.
A sample's segment is found by direct indexing, j = floor((x - g0) / h)
with one +-1 correction, not by a binary search; the arithmetic is
np.interp's, so the values are bit-identical to it.  There is one
lookup, _segments: table_evaluator's _lookup_all reads it once per
sample for tables of one x0 and node count, KernelTable.evaluate is its
one-table case, and the estimator's per-segment sums read it too.

Two closed single-integral forms (k = 1, 2), quadratures over
scipy.special's hyp1f1 and i0 imported on first use, are independent
cross-checks of the series construction; `phasekit verify` runs them.
"""

import decimal
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import textio
from .specfun import hermite_fn_sum, hermite_poly, scalar_in_scalar_out

# Series defaults: series order, classical switch point, and the
# truncation of the slowly converging l-sums inside F_k.
DEFAULT_L0 = 40
DEFAULT_X0 = 4.0
DEFAULT_F_TRUNCATION = 1000

# Tabulation step used by build_kernel_table, and the table row layout.
DEFAULT_GRID_STEP = 0.005
TABLE_COLUMNS = "x  K_k(x)"

# Number of abscissas used to fit the even-k additive constant between
# the series solution and the classical logarithm near the switch.
EDGE_FIT_POINTS = 24

# Gauss-Hermite order for the smearing convolution.
SMEAR_QUAD_ORDER = 81

# Decimal digits for the extended-precision inner sums grow with l; the
# alternating binomial sum cancels roughly 0.3 l digits.
def _working_dps(l):
    return 30 + int(0.32 * l)


# Guard digits of the _alt_sums difference table beyond _working_dps(l0),
# and the digits of the logarithms of its sums: 8 beyond a double's 17,
# so a logarithm rounds to the same double as its exact value unless
# that lies within 1e-25 relative of a halfway point.
ALT_SUM_GUARD = 4
LOG_DPS = 25

# The Hurwitz-zeta tails of the F_k inner sums: decimal digits, the
# start of the Euler-Maclaurin form (terms below it are summed
# directly), and its coefficients B_2j/(2j)!, j = 1..4, as 1/EM_DIVISORS.
HURWITZ_DPS = 30
HURWITZ_EM_START = 30
EM_DIVISORS = (12, -720, 30240, -1209600)


# Validators of the kernel parameters: each takes a number or its text
# and returns the checked value, or raises ValueError stating the range.
def _finite_positive(name):
    def check(value):
        if not 0.0 < float(value) < math.inf:
            raise ValueError("%s must be finite and > 0, not %r"
                             % (name, value))
        return float(value)
    return check


def _check_eta(value):
    if not 0.5 < float(value) <= 1.0:
        raise ValueError("efficiency must satisfy 1/2 < eta <= 1; smearing "
                         "cannot be compensated at or below one-half, not %r"
                         % value)
    return float(value)


_check_k = textio.integer_at_least("k", 1)
_check_l0 = textio.integer_at_least("l0", 0)
_check_f_truncation = textio.integer_at_least("f_truncation", 1)
_check_x0 = _finite_positive("x0")
_check_grid_step = _finite_positive("grid step")


@dataclass(frozen=True)
class KernelSpec:
    """Parameters that pin down one sampling kernel K_k(x; eta).

    k            moment order (>= 1)
    eta          detection efficiency in (1/2, 1]; 1 means no smearing
                 compensation
    l0           order of the Hermite series inside the window
    x0           switch point to the classical tail
    f_truncation upper limit of the explicit part of the F_k inner sums

    Each field is stored as its validator returns it: the orders and
    counts as int, eta and x0 as float.
    """

    k: int
    eta: float = 1.0
    l0: int = DEFAULT_L0
    x0: float = DEFAULT_X0
    f_truncation: int = DEFAULT_F_TRUNCATION

    def __post_init__(self):
        object.__setattr__(self, "k", _check_k(self.k))
        object.__setattr__(self, "eta", _check_eta(self.eta))
        object.__setattr__(self, "x0", _check_x0(self.x0))
        object.__setattr__(self, "l0", _check_l0(self.l0))
        object.__setattr__(self, "f_truncation",
                           _check_f_truncation(self.f_truncation))


@dataclass(frozen=True, eq=False)
class KernelTable:
    """Tabulated kernel, built from its spec and its grid step alone.

    The nodes are quantum_kernel on grid = np.linspace(-x0, x0, 2n + 1),
    n = round(x0 / grid_step), both ends included.  Inside |x| <= x0 the
    table interpolates linearly between them (grid, values); outside,
    NaN and +-inf included, it takes _tail_value, the classical limit
    plus edge_gap (x0/|x|)^p with p = _decay_power(k), odd-parity
    signed.  offset is the constant removed from the even-k series so
    that it shares the classical asymptote (zero for odd k).

    Lookup clamps x into the grid, indexes it directly,
    j = floor((x - g0) / h), and one +-1 correction against the stored
    nodes finds the segment grid[j] <= x < grid[j+1]; the value is
    slope[j] (x - grid[j]) + values[j] with slopes cached at
    construction.  That is np.interp's own arithmetic on np.interp's
    own segment, so results are bit-identical to it (up to the sign of
    a zero table value hit exactly at its node), at O(1) instead of a
    binary search per sample.
    """

    spec: KernelSpec
    grid_step: float = DEFAULT_GRID_STEP
    grid: np.ndarray = field(init=False, repr=False)
    values: np.ndarray = field(init=False, repr=False)
    edge_gap: float = field(init=False, repr=False)
    offset: float = field(init=False, repr=False)
    _lookup: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "grid_step", _check_grid_step(self.grid_step))
        s = self.spec
        n_half = _half_nodes(s.x0, self.grid_step)
        grid = np.linspace(-s.x0, s.x0, 2 * n_half + 1)
        values = quantum_kernel(s.k, grid, s.eta, s.l0, s.x0, s.f_truncation)
        origin = grid[0]
        step = (grid[-1] - origin) / (grid.size - 1)
        # Segment p = j + 1 holds bounds[p] = grid[j] <= x < grid[j+1];
        # the padded ends p = 0 and p = size reproduce np.interp's constant
        # extrapolation with a zero slope.  One array: values, then slopes.
        slope = np.diff(values) / np.diff(grid)
        lookup = (origin - step, 1.0 / step,
                  np.concatenate(([-np.inf], grid, [np.inf])),
                  np.concatenate(([values[0]], values, [0.0], slope, [0.0])))
        offset, edge_gap = _edge_fit(s)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "edge_gap", edge_gap)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "_lookup", lookup)

    @scalar_in_scalar_out
    def evaluate(self, x):
        """Kernel value at x (scalar or array of any shape, NaN and inf
        included): the shared lookup of table_evaluator for this table."""
        return next(_lookup_all([self], x.ravel())).reshape(x.shape)


def save_table(table, path, header_lines=()):
    """Write a KernelTable as text: its spec and tail numbers in the
    header, then one (x, K) row per node, every real written as its
    repr, which reads back as the same double.  No stage reads it."""
    s = table.spec
    header = [
        "sampling kernel table",
        *header_lines,
        "k = %d" % s.k,
        "eta = %r" % s.eta,
        "l0 = %d" % s.l0,
        "x0 = %r" % s.x0,
        "f_truncation = %d" % s.f_truncation,
        "tail: classical + %r * (x0/|x|)^%d (odd-parity signed)"
        % (table.edge_gap, _decay_power(s.k)),
        "offset removed from series part: %r" % table.offset,
        "columns: " + TABLE_COLUMNS,
    ]
    textio.save(path, header, (
        "%r %r" % row
        for row in zip(table.grid.tolist(), table.values.tolist())
    ))


def table_evaluator(tables):
    """Function x -> (t.evaluate(x) for t in tables), a generator, for
    1-d x; tables must not be empty.  Values come one table at a time,
    so a caller that reduces each holds one array, not one per table.
    Every value depends on its own x alone, so estimate_all passes the
    samples of several phases as one x and slices the values per phase.

    When every table is a KernelTable (not a subclass or a stand-in)
    and all share one x0 and one node count, which fix the grid,
    _lookup_all finds the segments and tail positions once per x for
    all tables.
    Any other table set, such as stand-ins that only offer .spec and
    .evaluate, runs evaluate, the same lookup, table by table.
    """
    tables = list(tables)
    first = tables[0]
    if not all(type(t) is KernelTable and t.spec.x0 == first.spec.x0
               and t.grid.size == first.grid.size for t in tables):
        return lambda x: (t.evaluate(x) for t in tables)
    return lambda x: _lookup_all(tables, x)


def _segments(table, x):
    """Padded segments p and offsets dx of 1-d x in table's grid (see
    KernelTable), and the tail: where the clamp to [-x0, x0] (NaN to
    -x0) moves x, so where |x| <= x0 fails."""
    base, inv_step, bounds = table._lookup[:3]
    clamped = np.fmin(np.fmax(x, table.grid[0]), table.grid[-1])
    p = ((clamped - base) * inv_step).astype(np.intp)
    p -= clamped < bounds[p]
    p += clamped >= bounds[p + 1]
    return p, clamped - bounds[p], np.flatnonzero(clamped != x)


def _lookup_all(tables, x):
    """Values at 1-d x of KernelTables on one grid, one table at a time:
    _segments once, then two gathers and a multiply-add, and the tail."""
    p, dx, tail = _segments(tables[0], x)
    n = tables[0].grid.size + 1
    tails = _tail_value([t.spec for t in tables],
                        [t.edge_gap for t in tables], x[tail])
    for t, tail_values in zip(tables, tails):
        out = t._lookup[3][n:][p] * dx + t._lookup[3][p]
        out[tail] = tail_values
        yield out


def _decay_power(k):
    """K_k nears its classical limit as x^-(k+2) for odd k, x^-2 even."""
    return k + 2 if k % 2 else 2


@scalar_in_scalar_out
def classical_kernel(k, x):
    """Classical (large-amplitude) limit of the sampling kernel.

    Odd k = 2m+1:  (1/4) (-1)^m (2m+1) sign(x).
    Even k = 2m:   pi^{-1} (-1)^{m+1} m ln|x|, additive constant taken
    as zero: any constant is wiped out by the phase average over
    e^{ik theta} for k != 0.
    """
    k = _check_k(k)
    if k % 2 == 0 and np.any(x == 0):
        raise ValueError(
            "classical kernel for even k is logarithmic and singular at x = 0"
        )
    return _classical_factor(k) * (np.sign(x) if k % 2 else np.log(np.abs(x)))


def _classical_factor(k):
    """classical_kernel(k, x) over sign(x) for odd k, over ln|x| even."""
    m, odd = divmod(k, 2)
    return 0.25 * (-1.0) ** m * k if odd else (-1.0) ** (m + 1) * m / np.pi


@lru_cache(maxsize=None)
def _alt_sums(k, l0):
    """sign and log-magnitude of S_l = sum_n binom(l,n)(-1)^(l-n) /
    sqrt((n+1)...(n+k)) for l = 0..l0, in extended precision.

    S_l is the l-th forward difference at 0 of f(n) = 1/sqrt((n+1)...(n+k)),
    so one difference table of f(0..l0) holds every S_l: l0 + 1 square
    roots instead of one per term of each sum.  The summands reach
    binomial size ~2^l while S_l decays algebraically, so doubles are
    hopeless beyond l of about 20.  The rising products are exact
    integers; the square roots and differences run in decimal at
    _working_dps(l0) + ALT_SUM_GUARD digits, whose 0.32 l0 extra digits
    absorb the table's rounding errors, amplified by at most 2^l, and
    the logarithms at LOG_DPS digits.
    """
    ctx = decimal.Context(prec=_working_dps(l0) + ALT_SUM_GUARD)
    log_ctx = decimal.Context(prec=LOG_DPS)
    row = [ctx.divide(1, ctx.sqrt(math.prod(range(n + 1, n + k + 1))))
           for n in range(l0 + 1)]
    sums = []
    for _ in range(l0 + 1):
        total = row[0]
        sums.append((0.0, -math.inf) if total == 0 else
                    (math.copysign(1.0, total), float(log_ctx.ln(abs(total)))))
        row = [ctx.subtract(b, a) for a, b in zip(row, row[1:])]
    return tuple(sums)


@lru_cache(maxsize=None)
def _series_weights(k, l0, eta):
    """Weights w_l of the oscillator-function form of the series.

    (2 pi)^{-1} C_l^(k)(eta) H_{2l+k}(x) =
        (2 pi)^{-1} pi^{1/4} e^{x^2/2} w_l psi_{2l+k}(x)
    with
        w_l = sign(S_l) exp[ lgamma(l+k+1) - lgamma(2l+k+1)/2
                             - (l+k/2) ln eta + ln|S_l| ].
    """
    weights = {}
    for l, (sign, log_s) in enumerate(_alt_sums(k, l0)):
        if sign == 0.0:
            continue
        lw = (
            math.lgamma(l + k + 1.0)
            - 0.5 * math.lgamma(2 * l + k + 1.0)
            - (l + 0.5 * k) * math.log(eta)
            + log_s
        )
        weights[2 * l + k] = sign * math.exp(lw)
    return weights


def _hurwitz_zeta(s, q):
    """Hurwitz zeta(s, q) = sum_{m>=0} (q+m)^{-s} in the current decimal
    context, for s > 1 a multiple of 1/2 and an integer q >= 1.

    Terms below HURWITZ_EM_START are added one by one; from
    p = max(q, HURWITZ_EM_START) on, the Euler-Maclaurin form (DLMF
    25.11)

        zeta(s, p) = p^{1-s}/(s-1) + p^{-s}/2
                     + sum_{j=1}^{4} B_{2j}/(2j)! (s)_{2j-1} p^{1-s-2j} + R

    evaluated as p^{1-s} times a bracket of rational terms.  The
    derivatives of x^{-s} alternate in sign, so R has the sign of the
    first omitted term and

        |R| <= |B_10|/10! (s)_9 p^{-s-9}.

    Relative to zeta(s, p) that is at most (5/66)/10! (s-1)_10 p^{-10}:
    for s <= 9, below 1.5e-27 at p = 1001 and below 3e-12 at p = 30.
    """
    two_s = int(2 * s)
    head = sum(decimal.Decimal(m).sqrt() ** -two_s
               for m in range(q, HURWITZ_EM_START))
    p = max(q, HURWITZ_EM_START)
    s = decimal.Decimal(two_s) / 2
    bracket = 1 / (s - 1) + decimal.Decimal(1) / (2 * p)
    rising = s
    for j, divisor in enumerate(EM_DIVISORS, start=1):
        bracket += rising / (divisor * p ** (2 * j))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return head + decimal.Decimal(p).sqrt() ** (2 - two_s) * bracket


@lru_cache(maxsize=None)
def _f_inner_sum(k, n, truncation):
    """Inner l-sum of F_k: sum_l binom(n+l-1, l) / sqrt((l+1)...(l+k)).

    Terms decay like l^{n-1-k/2} (slowest l^{-3/2}), so a raw cutoff at
    10^3 still leaves ~1e-2 absolute error.  The explicit sum up to
    T = `truncation` is therefore completed with the tail of the
    asymptotic expansion

        t(l) = l^{-a} (1 + d1/l + d2/l^2 + d3/l^3 + d4/l^4 + ...) / (n-1)!,
        a = k/2 - n + 1,

    the d_i the coefficients of exp(c1/l + c2/l^2 + c3/l^3 + ...),
    whose term-by-term l-sums are Hurwitz zeta values zeta(a+i, T+1).
    The remainder is the omitted terms' sum, to leading order in 1/T

        d4 zeta(a+4, T+1) / (n-1)!,

    which for k <= 12 overstates it slightly (d5 has the opposite
    sign).  At T = 1000 it grows with n: 3.9e-13 for (k, n) = (3, 1),
    5.6e-12 for (5, 2), 1.8e-11 for (7, 3), 2.5e-11 for (9, 4).

    The terms are all positive, so the explicit part is an exactly
    rounded math.fsum of doubles.  The four zeta values of the tail come
    from _hurwitz_zeta, summed in 30-digit decimal and rounded once.
    """
    l = np.arange(truncation + 1.0)
    log_t = (
        sum(np.log(l + j) for j in range(1, n))
        - math.lgamma(n)
        - 0.5 * sum(np.log(l + j) for j in range(1, k + 1))
    )
    js = list(range(1, n))
    jk = list(range(1, k + 1))
    a = 0.5 * k - n + 1.0
    c1 = sum(js) - 0.5 * sum(jk)
    c2 = -0.5 * sum(j * j for j in js) + 0.25 * sum(j * j for j in jk)
    c3 = (
        sum(j ** 3 for j in js) / 3.0
        - sum(j ** 3 for j in jk) / 6.0
    )
    d1 = c1
    d2 = c2 + 0.5 * c1 * c1
    d3 = c3 + c1 * c2 + c1 ** 3 / 6.0
    with decimal.localcontext(decimal.Context(prec=HURWITZ_DPS)):
        tail = sum(decimal.Decimal(d) * _hurwitz_zeta(a + i, truncation + 1)
                   for i, d in enumerate((1.0, d1, d2, d3)))
        tail /= math.factorial(n - 1)
    return math.fsum([*np.exp(log_t).tolist(), float(tail)])


def poly_F(k, x, eta=1.0, f_truncation=DEFAULT_F_TRUNCATION):
    """Polynomial part F_k(x; eta) of the kernel series at the array x.

    F_k(x; eta) = [2 pi (2 eta)^{k/2}]^{-1} sum_{n=1}^{floor((k-1)/2)}
        (-2 eta)^n [(k-n)!/(k-2n)!] H_{k-2n}(x) T_n
    with T_n the inner l-sums handled by _f_inner_sum.  Degree k-2; the
    sum is empty (identically zero) for k <= 2.
    """
    out = np.zeros_like(x)
    for n in range(1, (k - 1) // 2 + 1):
        amp = (
            (-2.0 * eta) ** n
            * math.exp(math.lgamma(k - n + 1.0) - math.lgamma(k - 2 * n + 1.0))
            * _f_inner_sum(k, n, f_truncation)
        )
        out += amp * hermite_poly(k - 2 * n, x)
    out /= 2.0 * np.pi * (2.0 * eta) ** (0.5 * k)
    return out


def _window_value(spec, x_abs):
    """Hermite series + F_k of spec on the array of |x| values x_abs (no
    offset removal, no tail), the series in the oscillator-function form
    of _series_weights.

    For eta < 1 the series is evaluated at sqrt(eta) x.  The coefficient
    scaling eta^{-(l+k/2)} compensates the smearing of data expressed in
    the attenuated (unrescaled) quadrature; homodyne records here follow
    the convolution convention, whose quadrature is larger by a factor
    1/sqrt(eta), so the kernel argument must shrink by sqrt(eta).  With
    this pairing the compensated identity holds at machine precision,
    and the kernel keeps the perfect-detection classical asymptote.
    """
    u = np.sqrt(spec.eta) * x_abs
    series = hermite_fn_sum(_series_weights(spec.k, spec.l0, spec.eta), u)
    return (series * np.exp(0.5 * u * u) * (np.pi ** 0.25 / (2.0 * np.pi))
            + poly_F(spec.k, u, spec.eta, spec.f_truncation))


@lru_cache(maxsize=None)
def _edge_fit(spec):
    """(offset, edge_gap) of the window/tail junction of spec's kernel.

    offset: even-k additive constant separating the series solution from
    the zero-constant classical asymptote, fitted as the mean difference
    over a band just inside x0 (exactly constant up to the residual
    O(x^-2) decay; kernels are only defined up to such constants).  Odd
    kernels need none.

    edge_gap: remaining series-minus-classical difference at x0 after
    offset removal; the tail decays it with _decay_power(k).
    """
    k, x0 = spec.k, spec.x0
    if k % 2:
        return 0.0, float(_window_value(spec, np.array([x0]))[0]
                          - classical_kernel(k, x0))
    band = np.linspace(max(x0 - 1.0, 0.5 * x0), x0, EDGE_FIT_POINTS)
    diff = _window_value(spec, band) - classical_kernel(k, band)
    design = np.column_stack([np.ones_like(band), (x0 / band) ** 2])
    (offset, edge), *_ = np.linalg.lstsq(design, diff, rcond=None)
    return float(offset), float(edge)


def _tail_value(specs, edge_gaps, x):
    """Kernels of specs at 1-d x with |x| >= x0, one row per spec: the
    classical limit plus the matched algebraic correction, odd in x for
    odd k and even for even k.  Tables and quantum_kernel both take
    their tail from here; the rows share the sign and logarithm of x."""
    ax, sign, log = np.abs(x), np.sign(x), np.log(np.abs(x))
    out = np.empty((len(specs), x.size))
    for row, spec, gap in zip(out, specs, edge_gaps):
        c = gap * (spec.x0 / ax) ** _decay_power(spec.k)
        f = _classical_factor(spec.k)
        row[:] = (f + c) * sign if spec.k % 2 else f * log + c
    return out


@scalar_in_scalar_out
def quantum_kernel(k, x, eta=1.0, l0=DEFAULT_L0, x0=DEFAULT_X0,
                   f_truncation=DEFAULT_F_TRUNCATION):
    """Sampling kernel K_k(x; eta) for the k-th exponential phase moment.

    Hermite series plus F_k polynomial inside |x| < x0 (with the even-k
    additive constant removed so that the window shares the classical
    asymptote), classical limit plus a matched algebraic correction
    outside.  Parity is exact by construction: odd k gives an odd
    kernel, even k an even one.
    """
    spec = KernelSpec(k=k, eta=eta, l0=l0, x0=x0, f_truncation=f_truncation)
    offset, edge_gap = _edge_fit(spec)
    out = np.empty_like(x)
    inside = np.abs(x) < spec.x0
    window = _window_value(spec, np.abs(x[inside])) - offset
    out[inside] = window * np.sign(x[inside]) if spec.k % 2 else window
    out[~inside] = _tail_value([spec], [edge_gap], x[~inside])[0]
    return out


def integral_kernel_k1(x):
    """Closed single-integral form of K_1(x).

    K_1(x) = pi^{-3/2} x Int_0^inf dt Phi(2, 3/2, -x^2 tanh t)
             / (sqrt(t) cosh^2 t),
    evaluated after t = u^2, which removes the endpoint divergence of
    1/sqrt(t).  A double-precision quad over scipy.special.hyp1f1 that
    cross-checks the series construction independently of it.
    """
    from scipy.integrate import quad
    from scipy.special import hyp1f1

    x = float(x)
    if x == 0.0:
        return 0.0

    def integrand(u):
        t = u * u
        return 2.0 * hyp1f1(2.0, 1.5, -x * x * math.tanh(t)) / (
            math.cosh(t) ** 2
        )

    value, err = quad(integrand, 0.0, 12.0, limit=300)
    if err > 1.0e-6:
        raise ArithmeticError(
            "k=1 kernel quadrature reached only %.2e absolute error" % err
        )
    return np.pi ** -1.5 * x * value


def integral_kernel_k2(x):
    """Closed single-integral form of K_2(x).

    K_2(x) = (2 pi)^{-1} Int_0^inf dt I0(t)
             [ e^{-2t} - Phi(2, 1/2, -x^2 tanh t) / cosh^2 t ] / sinh t.
    The bracket is combined before dividing by sinh t; both terms tend
    to 1 as t -> 0, so the quotient stays finite (limit 4x^2 - 2).
    """
    from scipy.integrate import quad
    from scipy.special import hyp1f1, i0

    x = float(x)

    def integrand(t):
        if t < 1.0e-12:
            return 4.0 * x * x - 2.0
        bracket = math.exp(-2.0 * t) - hyp1f1(
            2.0, 0.5, -x * x * math.tanh(t)
        ) / math.cosh(t) ** 2
        return i0(t) * bracket / math.sinh(t)

    value, err = quad(integrand, 0.0, 40.0, limit=300)
    if err > 1.0e-6:
        raise ArithmeticError(
            "k=2 kernel quadrature reached only %.2e absolute error" % err
        )
    return value / (2.0 * np.pi)


def smearing_sigma(eta):
    """Width of the Gaussian noise a detector of efficiency eta in
    (0, 1] adds to each quadrature sample; 0 at eta = 1."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1], not %r" % eta)
    return math.sqrt((1.0 - eta) / (2.0 * eta))


@scalar_in_scalar_out
def smear_error_kernel(k, x, eta):
    """Systematic-error kernel g_k(x; eta) for Gaussian data smearing.

    Imperfect detection replaces the quadrature distribution by its
    convolution with a Gaussian f of width smearing_sigma(eta).
    Feeding such data to the uncompensated kernel K_k biases the moment
    by the overlap with

        g_k(x; eta) = (K_k * f)(x) - K_k(x),

    computed here by Gauss-Hermite quadrature of the convolution.
    """
    sigma = smearing_sigma(eta)
    if sigma == 0.0:
        return np.zeros_like(x)
    nodes, wts = np.polynomial.hermite.hermgauss(SMEAR_QUAD_ORDER)
    shifted = x[:, None] - math.sqrt(2.0) * sigma * nodes[None, :]
    kernel_vals = quantum_kernel(k, shifted.ravel()).reshape(shifted.shape)
    smeared = kernel_vals @ wts / math.sqrt(math.pi)
    return smeared - quantum_kernel(k, x)


def _half_nodes(x0, grid_step):
    """Table nodes on (0, x0], round(x0 / grid_step); refuses a step
    that leaves none."""
    n_half = int(round(x0 / _check_grid_step(grid_step)))
    if n_half < 1:
        raise ValueError("grid step %r leaves no table node inside x0 = %r; "
                         "it must be below 2 x0" % (grid_step, x0))
    return n_half


def build_kernel_table(spec, grid_step=DEFAULT_GRID_STEP):
    """Tabulate quantum_kernel of spec on [-x0, x0] for fast repeated
    lookups: KernelTable(spec, grid_step).  The step default keeps the
    interpolation error far below the series accuracy."""
    return KernelTable(spec, grid_step)

"""Sampling kernels for exponential phase moments.

The k-th exponential moment of the canonical phase distribution can be
sampled directly from balanced homodyne data: averaging a kernel
K_k(x) e^{ik theta} over the measured quadratures x at phases theta
yields the moment.  This module constructs the x-dependent factor
K_k(x), its loss-compensated variants K_k(x; eta), the classical
(large-amplitude) limits, and the Gaussian smearing-error kernel used
for bias analysis.

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
once in extended precision and cached.

Estimation evaluates tabulated kernels (KernelTable): linear
interpolation on a uniform grid inside |x| <= x0, the classical tail
outside.  Because the grid is uniform, the segment of a sample is found
by direct indexing, j = floor((x - g0) / h) with one +-1 correction,
not by a binary search; the arithmetic is np.interp's, so the values are
bit-identical to it.

Two closed single-integral forms (k = 1, 2) are provided as independent
cross-checks of the series construction.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath
import numpy as np
from scipy import integrate

from .specfun import bessel_i0, hermite_fn_sum, hermite_poly, kummer_phi

# Series defaults: series order, classical switch point, and the
# truncation of the slowly converging l-sums inside F_k.
DEFAULT_L0 = 40
DEFAULT_X0 = 4.0
DEFAULT_F_TRUNCATION = 1000

# Tabulation step used by build_kernel_table.
DEFAULT_GRID_STEP = 0.005

# Number of abscissas used to fit the even-k additive constant between
# the series solution and the classical logarithm near the switch.
EDGE_FIT_POINTS = 24

# Gauss-Hermite order for the smearing convolution.
SMEAR_QUAD_ORDER = 81

# Decimal digits for the extended-precision inner sums grow with l; the
# alternating binomial sum cancels roughly 0.3 l digits.
def _working_dps(l):
    return 30 + int(0.32 * l)


@dataclass(frozen=True)
class KernelSpec:
    """Parameters that pin down one sampling kernel K_k(x; eta).

    k            moment order (>= 1)
    eta          detection efficiency in (1/2, 1]; 1 means no smearing
                 compensation
    l0           order of the Hermite series inside the window
    x0           switch point to the classical tail
    f_truncation upper limit of the explicit part of the F_k inner sums
    """

    k: int
    eta: float = 1.0
    l0: int = DEFAULT_L0
    x0: float = DEFAULT_X0
    f_truncation: int = DEFAULT_F_TRUNCATION

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 1:
            raise ValueError("k must be a positive integer")
        if not 0.5 < self.eta <= 1.0:
            raise ValueError(
                "efficiency must satisfy 1/2 < eta <= 1; smearing cannot "
                "be compensated at or below one-half"
            )
        if self.x0 <= 0:
            raise ValueError("x0 must be positive")
        if self.l0 < 0:
            raise ValueError("l0 must be nonnegative")
        if self.f_truncation < 1:
            raise ValueError("f_truncation must be positive")


@dataclass(frozen=True)
class TailRule:
    """Evaluation rule for |x| >= x0.

    The tail is the classical limit plus an algebraic correction matched
    to the series value at the switch point:

        K_k(x) = classical_kernel(k, x)
                 + edge_gap * (x0/|x|)^decay_power * (parity sign)

    offset is the additive constant removed from the even-k series so
    that it shares the classical asymptote (zero for odd k).
    """

    x0: float
    edge_gap: float
    decay_power: int
    offset: float


@dataclass(frozen=True)
class KernelTable:
    """Tabulated kernel: linear interpolation inside, classical tail outside.

    The grid must be strictly increasing with every node within a
    quarter step of the uniform lattice g0 + i h through its end
    points.  Lookup inside |x| <= x0 then indexes the grid directly,
    j = floor((x - g0) / h), and one +-1 correction against the stored
    nodes finds the segment grid[j] <= x < grid[j+1]; the value is
    slope[j] (x - grid[j]) + values[j] with slopes cached at
    construction.  That is np.interp's own arithmetic on np.interp's
    own segment, so results are bit-identical to it (up to the sign of
    a zero table value hit exactly at its node), at O(1) instead of a
    binary search per sample.
    """

    spec: KernelSpec
    grid: np.ndarray
    values: np.ndarray
    classical_tail: TailRule
    _lookup: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or values.shape != grid.shape:
            raise ValueError(
                "kernel table needs matching 1-d grid and values with at "
                "least two nodes; got shapes %s and %s"
                % (grid.shape, values.shape)
            )
        origin = grid[0]
        step = (grid[-1] - origin) / (grid.size - 1)
        off = np.abs(grid - (origin + step * np.arange(grid.size)))
        bad = np.flatnonzero(
            np.concatenate(([False], np.diff(grid) <= 0.0))
            | ~(off <= 0.25 * step)
        )
        if bad.size:
            i = bad[0]
            raise ValueError(
                "kernel table grid node %d (x = %.9g) is not strictly "
                "increasing within a quarter step of the uniform lattice "
                "x = %.9g + i * %.9g" % (i, grid[i], origin, step)
            )
        # Segment p = j + 1 holds grid[j] <= x < grid[j+1]; the padded
        # ends p = 0 and p = size reproduce np.interp's constant
        # extrapolation with a zero slope.
        slope = np.diff(values) / np.diff(grid)
        lookup = (
            origin - step,
            1.0 / step,
            np.concatenate(([-np.inf], grid, [np.inf])),
            np.concatenate(([grid[0]], grid)),
            np.concatenate(([0.0], slope, [0.0])),
            np.concatenate(([values[0]], values)),
        )
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_lookup", lookup)

    def _interpolate(self, x):
        base, inv_step, bounds, left, slope, values = self._lookup
        p = np.clip((x - base) * inv_step, 0.0, self.grid.size).astype(
            np.intp
        )
        p -= x < bounds[p]
        p += x >= bounds[p + 1]
        return slope[p] * (x - left[p]) + values[p]

    def evaluate(self, x):
        """Kernel value at x (scalar or array)."""
        x = np.asarray(x, dtype=float)
        scalar = not x.ndim
        x = np.atleast_1d(x)
        out = np.empty_like(x)
        inside = np.abs(x) <= self.spec.x0
        if np.any(inside):
            out[inside] = self._interpolate(x[inside])
        if np.any(~inside):
            ax = np.abs(x[~inside])
            tail = _tail_value(self.spec.k, ax, self.classical_tail)
            if self.spec.k % 2:
                tail = tail * np.sign(x[~inside])
            out[~inside] = tail
        return float(out[0]) if scalar else out

    def to_text(self):
        """Two-column text block (x, K) with the full spec in the header."""
        s = self.spec
        lines = [
            "# sampling kernel table",
            "# k = %d" % s.k,
            "# eta = %.12g" % s.eta,
            "# l0 = %d" % s.l0,
            "# x0 = %.12g" % s.x0,
            "# f_truncation = %d" % s.f_truncation,
            "# tail: classical + %.15e * (x0/|x|)^%d (odd-parity signed)"
            % (self.classical_tail.edge_gap, self.classical_tail.decay_power),
            "# offset removed from series part: %.15e"
            % self.classical_tail.offset,
            "# columns: x  K_k(x)",
        ]
        for xv, kv in zip(self.grid, self.values):
            lines.append("%.6f %.15e" % (xv, kv))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """Rebuild a table from its to_text() representation."""
        header = {}
        rows = []
        tail_gap = 0.0
        tail_power = 0
        offset = 0.0
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("tail:"):
                    parts = body.split()
                    tail_gap = float(parts[3])
                    tail_power = int(parts[5].split(")^")[1])
                elif body.startswith("offset removed"):
                    offset = float(body.split(":")[1])
                elif "=" in body:
                    key, _, val = body.partition("=")
                    header[key.strip()] = val.strip()
                continue
            xs, ks = line.split()
            rows.append((float(xs), float(ks)))
        spec = KernelSpec(
            k=int(header["k"]),
            eta=float(header["eta"]),
            l0=int(header["l0"]),
            x0=float(header["x0"]),
            f_truncation=int(header["f_truncation"]),
        )
        grid = np.array([r[0] for r in rows])
        values = np.array([r[1] for r in rows])
        rule = TailRule(
            x0=spec.x0,
            edge_gap=tail_gap,
            decay_power=tail_power,
            offset=offset,
        )
        return cls(spec=spec, grid=grid, values=values, classical_tail=rule)


def classical_kernel(k, x):
    """Classical (large-amplitude) limit of the sampling kernel.

    Odd k = 2m+1:  (1/4) (-1)^m (2m+1) sign(x).
    Even k = 2m:   pi^{-1} (-1)^{m+1} m ln|x|, additive constant taken
    as zero: any constant is wiped out by the phase average over
    e^{ik theta} for k != 0.
    """
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    x = np.asarray(x, dtype=float)
    scalar = not x.ndim
    x = np.atleast_1d(x)
    m, odd = divmod(k, 2)
    if odd:
        out = 0.25 * (-1.0) ** m * k * np.sign(x)
    else:
        if np.any(x == 0):
            raise ValueError(
                "classical kernel for even k is logarithmic and singular "
                "at x = 0"
            )
        out = (-1.0) ** (m + 1) * m / np.pi * np.log(np.abs(x))
    return float(out[0]) if scalar else out


@lru_cache(maxsize=None)
def _alt_sum(k, l):
    """sign and log-magnitude of S_l = sum_n binom(l,n)(-1)^(l-n) /
    sqrt((n+1)...(n+k)), in extended precision.

    The summands reach binomial size ~2^l while S_l decays like 2^{-l},
    so doubles are hopeless beyond l of about 20.
    """
    with mpmath.workdps(_working_dps(l)):
        total = mpmath.mpf(0)
        for n in range(l + 1):
            term = mpmath.binomial(l, n) / mpmath.sqrt(mpmath.rf(n + 1, k))
            total += -term if (l - n) % 2 else term
        if total == 0:
            return 0.0, -math.inf
        return float(mpmath.sign(total)), float(mpmath.log(abs(total)))


def series_coeff(k, l, eta=1.0):
    """Series coefficient C_l^(k)(eta).

    C_l^(k) = [(l+k)! / (2^{l+k/2} (2l+k)!)] S_l, scaled by
    eta^{-(l+k/2)} for detection efficiency eta.  The factorial in the
    denominator makes the weights decay fast enough for l0 = 40 to
    saturate double precision; log-gamma arithmetic keeps every factor
    representable.
    """
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    if l < 0:
        raise ValueError("l must be nonnegative")
    if not 0.5 < eta <= 1.0:
        raise ValueError("eta must lie in (1/2, 1]")
    sign, log_s = _alt_sum(k, l)
    if sign == 0.0:
        return 0.0
    half = l + 0.5 * k
    log_amp = (
        math.lgamma(l + k + 1.0)
        - half * math.log(2.0)
        - math.lgamma(2 * l + k + 1.0)
        - half * math.log(eta)
    )
    return sign * math.exp(log_amp + log_s)


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
    for l in range(l0 + 1):
        sign, log_s = _alt_sum(k, l)
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


def _series_value(k, x, eta, l0):
    """Hermite-series part of the kernel (without F_k), vectorized."""
    x = np.asarray(x, dtype=float)
    acc = hermite_fn_sum(_series_weights(k, l0, eta), x)
    return acc * np.exp(0.5 * x * x) * (np.pi ** 0.25 / (2.0 * np.pi))


@lru_cache(maxsize=None)
def _f_inner_sum(k, n, truncation):
    """Inner l-sum of F_k: sum_l binom(n+l-1, l) / sqrt((l+1)...(l+k)).

    Terms decay like l^{n-1-k/2} (slowest l^{-3/2}), so a raw cutoff at
    10^3 still leaves ~1e-2 absolute error.  The explicit sum up to
    `truncation` is therefore completed with the tail of the asymptotic
    expansion

        t(l) ~ l^{-a} exp(c1/l + c2/l^2 + c3/l^3) / (n-1)!,
        a = k/2 - n + 1,

    whose term-by-term l-sums are Hurwitz zeta functions.  The corrected
    sum is stable to ~1e-13 against moving the cutoff.
    """
    total = mpmath.mpf(0)
    with mpmath.workdps(30):
        for l in range(truncation + 1):
            log_t = (
                sum(math.log(l + j) for j in range(1, n))
                - math.lgamma(n)
                - 0.5 * sum(math.log(l + j) for j in range(1, k + 1))
            )
            total += mpmath.e ** log_t
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
        tail = (
            mpmath.zeta(a, truncation + 1)
            + d1 * mpmath.zeta(a + 1.0, truncation + 1)
            + d2 * mpmath.zeta(a + 2.0, truncation + 1)
            + d3 * mpmath.zeta(a + 3.0, truncation + 1)
        ) / mpmath.gamma(n)
        return float(total + tail)


def poly_F(k, x, eta=1.0, f_truncation=DEFAULT_F_TRUNCATION):
    """Polynomial part F_k(x; eta) of the kernel series.

    F_k(x; eta) = [2 pi (2 eta)^{k/2}]^{-1} sum_{n=1}^{floor((k-1)/2)}
        (-2 eta)^n [(k-n)!/(k-2n)!] H_{k-2n}(x) T_n
    with T_n the inner l-sums handled by _f_inner_sum.  Degree k-2; the
    sum is empty (identically zero) for k <= 2.
    """
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    x = np.asarray(x, dtype=float)
    scalar = not x.ndim
    x = np.atleast_1d(x)
    out = np.zeros_like(x)
    for n in range(1, (k - 1) // 2 + 1):
        amp = (
            (-2.0 * eta) ** n
            * math.exp(math.lgamma(k - n + 1.0) - math.lgamma(k - 2 * n + 1.0))
            * _f_inner_sum(k, n, f_truncation)
        )
        out += amp * hermite_poly(k - 2 * n, x)
    out /= 2.0 * np.pi * (2.0 * eta) ** (0.5 * k)
    return float(out[0]) if scalar else out


def _window_value(k, x_abs, eta, l0, f_truncation):
    """Series + F_k on |x| values (no offset removal, no tail).

    For eta < 1 the series is evaluated at sqrt(eta) x.  The coefficient
    scaling eta^{-(l+k/2)} compensates the smearing of data expressed in
    the attenuated (unrescaled) quadrature; homodyne records here follow
    the convolution convention, whose quadrature is larger by a factor
    1/sqrt(eta), so the kernel argument must shrink by sqrt(eta).  With
    this pairing the compensated identity holds at machine precision,
    and the kernel keeps the perfect-detection classical asymptote.
    """
    u = np.sqrt(eta) * np.asarray(x_abs, dtype=float)
    return _series_value(k, u, eta, l0) + poly_F(k, u, eta, f_truncation)


@lru_cache(maxsize=None)
def _edge_fit(k, eta, l0, x0, f_truncation):
    """(offset, edge_gap) for the window/tail junction.

    offset: even-k additive constant separating the series solution from
    the zero-constant classical asymptote, fitted as the mean difference
    over a band just inside x0 (exactly constant up to the residual
    O(x^-2) decay; kernels are only defined up to such constants).  Odd
    kernels need none.

    edge_gap: remaining series-minus-classical difference at x0 after
    offset removal; the tail decays it algebraically, with the power set
    by the kernel's asymptotic approach (x^-(k+2) odd, x^-2 even).
    """
    if k % 2:
        offset = 0.0
        edge = float(
            _window_value(k, np.array([x0]), eta, l0, f_truncation)[0]
            - classical_kernel(k, x0)
        )
    else:
        band = np.linspace(max(x0 - 1.0, 0.5 * x0), x0, EDGE_FIT_POINTS)
        diff = _window_value(k, band, eta, l0, f_truncation) - classical_kernel(
            k, band
        )
        design = np.column_stack([np.ones_like(band), (x0 / band) ** 2])
        (offset, edge), *_ = np.linalg.lstsq(design, diff, rcond=None)
        offset = float(offset)
        edge = float(edge)
    return offset, edge


def _tail_value(k, x_abs, rule):
    """Classical limit plus the matched algebraic correction, on |x|."""
    base = classical_kernel(k, x_abs)
    return base + rule.edge_gap * (rule.x0 / x_abs) ** rule.decay_power


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
    x = np.asarray(x, dtype=float)
    scalar = not x.ndim
    x = np.atleast_1d(x).astype(float)
    ax = np.abs(x)
    out = np.empty_like(ax)
    offset, edge_gap = _edge_fit(k, eta, l0, x0, f_truncation)
    inside = ax < x0
    if np.any(inside):
        out[inside] = (
            _window_value(k, ax[inside], eta, l0, f_truncation) - offset
        )
    if np.any(~inside):
        rule = TailRule(
            x0=x0,
            edge_gap=edge_gap,
            decay_power=(k + 2) if k % 2 else 2,
            offset=offset,
        )
        out[~inside] = _tail_value(k, ax[~inside], rule)
    if k % 2:
        out = out * np.sign(x)
    return float(out[0]) if scalar else out


def omega(k, z, truncation=120):
    """Angular weight Omega^(k)(z) = sum_m A_m^(k) z^m.

    A_m^(k) = [(-1)^m/m!] [2 pi^{k/2} / Gamma(k/2+m)] d^m/dx^m
    prod_{j=1}^k (1-jx)^{-1/2} at x = 0; the derivatives are the Taylor
    coefficients of the product, built by polynomial multiplication of
    the binomial series of each factor.  Raises if the terms have not
    started decaying by the truncation order (large kz needs the
    integral representation instead).
    """
    if k < 1 or int(k) != k:
        raise ValueError("k must be a positive integer")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("z must be >= 0")
    coeffs = np.zeros(truncation + 1)
    coeffs[0] = 1.0
    for j in range(1, k + 1):
        factor = np.empty(truncation + 1)
        factor[0] = 1.0
        for i in range(1, truncation + 1):
            factor[i] = factor[i - 1] * (0.5 + i - 1.0) * j / i
        coeffs = np.convolve(coeffs, factor)[: truncation + 1]
    amps = np.array(
        [
            (-1.0) ** m
            * 2.0
            * np.pi ** (0.5 * k)
            / math.gamma(0.5 * k + m)
            * coeffs[m]
            for m in range(truncation + 1)
        ]
    )
    terms = amps * z[..., None] ** np.arange(truncation + 1)
    tail = np.abs(terms[..., -5:]).max(axis=-1)
    scale = np.abs(terms).max(axis=-1)
    if np.any(tail > 1.0e-12 * scale):
        raise ArithmeticError(
            "Omega series not converged at the requested argument; "
            "use the angular integral form instead"
        )
    result = terms.sum(axis=-1)
    return float(result) if not np.asarray(z).ndim else result


def integral_kernel_k1(x):
    """Closed single-integral form of K_1(x).

    K_1(x) = pi^{-3/2} x Int_0^inf dt Phi(2, 3/2, -x^2 tanh t)
             / (sqrt(t) cosh^2 t),
    evaluated after t = u^2, which removes the endpoint divergence of
    1/sqrt(t).  Serves as an arbitrary-precision cross-check of the
    series construction.
    """
    x = float(x)
    if x == 0.0:
        return 0.0

    def integrand(u):
        t = u * u
        return 2.0 * kummer_phi(2.0, 1.5, -x * x * math.tanh(t)) / (
            math.cosh(t) ** 2
        )

    value, err = integrate.quad(integrand, 0.0, 12.0, limit=300)
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
    x = float(x)

    def integrand(t):
        if t < 1.0e-12:
            return 4.0 * x * x - 2.0
        bracket = math.exp(-2.0 * t) - kummer_phi(
            2.0, 0.5, -x * x * math.tanh(t)
        ) / math.cosh(t) ** 2
        return bessel_i0(t) * bracket / math.sinh(t)

    value, err = integrate.quad(integrand, 0.0, 40.0, limit=300)
    if err > 1.0e-6:
        raise ArithmeticError(
            "k=2 kernel quadrature reached only %.2e absolute error" % err
        )
    return value / (2.0 * np.pi)


def smear_error_kernel(k, x, eta):
    """Systematic-error kernel g_k(x; eta) for Gaussian data smearing.

    Imperfect detection replaces the quadrature distribution by its
    convolution with a Gaussian of variance sigma^2 = (1-eta)/(2 eta).
    Feeding such data to the uncompensated kernel K_k biases the moment
    by the overlap with

        g_k(x; eta) = (K_k * f)(x) - K_k(x),

    computed here by Gauss-Hermite quadrature of the convolution.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    x = np.asarray(x, dtype=float)
    scalar = not x.ndim
    x = np.atleast_1d(x)
    if eta == 1.0:
        out = np.zeros_like(x)
        return float(out[0]) if scalar else out
    sigma = math.sqrt((1.0 - eta) / (2.0 * eta))
    nodes, wts = np.polynomial.hermite.hermgauss(SMEAR_QUAD_ORDER)
    shifted = x[:, None] - math.sqrt(2.0) * sigma * nodes[None, :]
    kernel_vals = quantum_kernel(k, shifted.ravel()).reshape(shifted.shape)
    smeared = kernel_vals @ wts / math.sqrt(math.pi)
    out = smeared - quantum_kernel(k, x)
    return float(out[0]) if scalar else out


def build_kernel_table(spec, grid_step=DEFAULT_GRID_STEP):
    """Tabulate quantum_kernel on [-x0, x0] for fast repeated lookups.

    The grid is symmetric and includes both endpoints; evaluation
    interpolates linearly inside and delegates to the classical tail
    rule outside.  The step default keeps the interpolation error far
    below the series accuracy.
    """
    if grid_step <= 0:
        raise ValueError("grid step must be positive")
    n_half = int(round(spec.x0 / grid_step))
    grid = np.linspace(-spec.x0, spec.x0, 2 * n_half + 1)
    values = quantum_kernel(
        spec.k, grid, spec.eta, spec.l0, spec.x0, spec.f_truncation
    )
    offset, edge_gap = _edge_fit(
        spec.k, spec.eta, spec.l0, spec.x0, spec.f_truncation
    )
    rule = TailRule(
        x0=spec.x0,
        edge_gap=edge_gap,
        decay_power=(spec.k + 2) if spec.k % 2 else 2,
        offset=offset,
    )
    return KernelTable(
        spec=spec, grid=grid, values=np.asarray(values), classical_tail=rule
    )

"""Reconstruction of the canonical phase distribution from moments.

Two routes from a finite set of exponential phase moments to P(phi) on
a uniform grid: direct truncated Fourier synthesis, and weighted
least-squares inversion of the moment equations with an optional
curvature (periodic second-difference) penalty for noisy inputs.  The
latter is the synthesis with a ridge filter factor on each moment part.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import textio

METHODS = ("fourier", "least_squares")

NORMALIZATION_TOL = 1.0e-6
DISTRIBUTION_COLUMNS = "phi P"


def _check_method(text):
    if text not in METHODS:
        raise ValueError("method must be one of %s, not %r"
                         % (", ".join(METHODS), text))
    return text


_check_K = textio.integer_at_least("K_used", 0)
_check_M = textio.integer_at_least("M", 1)


def _check_reg_lambda(value):
    if not 0.0 <= float(value) < math.inf:
        raise ValueError("reg_lambda must be finite and >= 0, not %s" % value)
    return float(value)


def check_grid(method, K, M):
    """Raise ValueError unless method can resolve K harmonics on M grid
    points: M > 2K for fourier, K >= 1 and M >= 8K for least squares."""
    if _check_method(method) == "fourier" and M <= 2 * K:
        raise ValueError("need M > 2K grid points to resolve K harmonics "
                         "(got M=%d, K=%d)" % (M, K))
    if method == "least_squares" and not (K >= 1 and M >= 8 * K):
        raise ValueError("least squares needs K >= 1 and M >= 8K grid "
                         "points (got M=%d, K=%d)" % (M, K))


@dataclass(frozen=True)
class PhaseDistribution:
    """P(phi) sampled on the uniform grid phi_m = 2 pi m / M, M >= 1;
    every grid point and value must be finite, method one of METHODS,
    K_used an integer >= 0 and reg_lambda finite and >= 0."""

    grid: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    method: str
    K_used: int
    reg_lambda: float = 0.0

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.shape != values.shape or grid.ndim != 1 or not grid.size:
            raise ValueError("grid and values must be matching 1-d arrays "
                             "of at least one point")
        bad = np.flatnonzero(~(np.isfinite(grid) & np.isfinite(values)))
        if bad.size:
            i = bad[0]
            raise ValueError("non-finite point phi = %r, P = %r at index %d"
                             % (grid[i], values[i], i))
        _check_method(self.method)
        _check_K(self.K_used)
        _check_reg_lambda(self.reg_lambda)
        grid.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    @property
    def n_grid(self):
        return self.grid.size

    def norm(self):
        """Riemann sum (2 pi / M) sum_m P(phi_m)."""
        return float(2.0 * np.pi / self.n_grid * np.sum(self.values))


def _collect(moments, K):
    by_k = {}
    for m in moments:
        by_k[m.k] = m
    missing = [k for k in range(1, K + 1) if k not in by_k]
    if missing:
        raise ValueError(
            "moments missing for k = %s"
            % ", ".join(str(k) for k in missing)
        )
    return [by_k[k] for k in range(1, K + 1)]


def _synthesis(chosen, M, filters, mean):
    """The grid phi_m = 2 pi m / M and P on it: mean / (2 pi) plus the
    Fourier synthesis of the chosen moments, each order's Re and Im term
    scaled by its pair (f_re, f_im) in filters."""
    grid = 2.0 * np.pi * np.arange(M) / M
    acc = np.full(M, mean)
    for m, (f_re, f_im) in zip(chosen, filters):
        acc += 2.0 * (
            f_re * m.value.real * np.cos(m.k * grid)
            + f_im * m.value.imag * np.sin(m.k * grid)
        )
    return grid, acc / (2.0 * np.pi)


def fourier_reconstruct(moments, K, M):
    """Truncated Fourier synthesis of the phase distribution.

    P(phi_m) = (2 pi)^{-1} [1 + 2 sum_{k=1..K} (Re Psi_k cos k phi_m
                                              + Im Psi_k sin k phi_m)],
    the negative-k half of the series folded in through the conjugation
    symmetry of the moments.  Normalized by construction.
    """
    check_grid("fourier", K, M)
    grid, values = _synthesis(_collect(moments, K), M, [(1.0, 1.0)] * K, 1.0)
    return PhaseDistribution(grid=grid, values=values, method="fourier",
                             K_used=K)


def least_squares_reconstruct(moments, K, M, reg_lambda=0.0,
                              normalize=True):
    """Weighted least-squares inversion of the moment sums.

    Minimizes

      chi^2 = sum_k  [Re Psi_k - (2pi/M) sum_m P_m cos(k phi_m)]^2 / s_re,k^2
            +        [Im Psi_k - (2pi/M) sum_m P_m sin(k phi_m)]^2 / s_im,k^2
            + reg_lambda * sum_m [P_{m-1} - 2 P_m + P_{m+1}]^2

    over P on the periodic grid, optionally under the normalization
    constraint (2pi/M) sum_m P_m = 1.  The minimizer is, in closed form,

      P(phi_m) = (2 pi)^{-1} [mean + 2 sum_k (f_re,k Re Psi_k cos k phi_m
                                              + f_im,k Im Psi_k sin k phi_m)]
      with f = 1 / (1 + d_k var),  d_k = 8 M reg_lambda sin^4(pi k/M) / pi^2,

    mean 1 under the constraint and 0 without it (the minimum-norm
    solution), and f = 0 for a part of infinite variance.  It is exact
    because the grid is uniform and periodic: the moment sums read pi
    times the k-th cosine and sine coefficient of P (M >= 8K keeps k
    below M/2), and the circulant second difference scales harmonic j by
    -4 sin^2(pi j/M).  So chi^2 splits into one scalar ridge problem per
    order and part, whose solutions are these Tikhonov filter factors,
    and every other harmonic is zero.

    With reg_lambda = 0 every finite-variance f is exactly 1, so the
    result is fourier_reconstruct's synthesis bit for bit.  Without the
    constraint nothing then pins the mean level of P, so that combination
    is rejected.

    The variances are taken as sigma_re^2 and sigma_im^2: a moments file
    stores sigma, which reads back as the same double, so P from a
    reloaded file equals P from the estimates that wrote it bit for bit.
    """
    check_grid("least_squares", K, M)
    reg_lambda = _check_reg_lambda(reg_lambda)
    chosen = _collect(moments, K)
    for m in chosen:
        if m.var_re <= 0.0 or m.var_im <= 0.0:
            raise ValueError(
                "moment k=%d carries a nonpositive variance; least "
                "squares needs positive error bars" % m.k
            )
    if reg_lambda == 0.0 and not normalize:
        raise ValueError(
            "system is rank-deficient at reg_lambda = 0 without the "
            "normalization constraint; enable normalization or set "
            "reg_lambda > 0"
        )
    filters = []
    for m in chosen:
        d = 8.0 * M * reg_lambda * math.sin(math.pi * m.k / M)**4 / math.pi**2
        filters.append([1.0 / (1.0 + d * var) if var < math.inf else 0.0
                        for var in (m.sigma_re ** 2, m.sigma_im ** 2)])
    grid, values = _synthesis(chosen, M, filters, 1.0 if normalize else 0.0)
    dist = PhaseDistribution(
        grid=grid, values=values, method="least_squares", K_used=K,
        reg_lambda=reg_lambda,
    )
    if normalize and abs(dist.norm() - 1.0) > NORMALIZATION_TOL:
        raise ArithmeticError(
            "normalization constraint violated: sum is %.9f" % dist.norm()
        )
    return dist


def chi_squared(dist, moments, K):
    """Moment-fit part of the least-squares objective for a given P,
    each part weighted by 1/sigma^2 as least_squares_reconstruct is."""
    chosen = _collect(moments, K)
    base = 2.0 * np.pi / dist.n_grid
    total = 0.0
    for m in chosen:
        model_re = base * float(np.sum(
            dist.values * np.cos(m.k * dist.grid)
        ))
        model_im = base * float(np.sum(
            dist.values * np.sin(m.k * dist.grid)
        ))
        total += (m.value.real - model_re) ** 2 / m.sigma_re ** 2
        total += (m.value.imag - model_im) ** 2 / m.sigma_im ** 2
    return total


def save_distribution(dist, path, header_lines=()):
    """Two-column text dump (phi, P), directly plottable; phi, P and
    reg_lambda are written as their repr, which reads back as the same
    double."""
    header = [
        "canonical phase distribution",
        *header_lines,
        "method: %s" % dist.method,
        "K: %d" % dist.K_used,
        "M: %d" % dist.n_grid,
        "reg_lambda: %r" % float(dist.reg_lambda),
        "columns: " + DISTRIBUTION_COLUMNS,
    ]
    textio.save(path, header, (
        "%r %r" % row
        for row in zip(dist.grid.tolist(), dist.values.tolist())
    ))


def load_distribution(path):
    """Parse a distribution file written by save_distribution.

    A non-finite row, a row whose phi is more than 1e-9 off its grid
    point 2 pi m / M, an M that is not an integer >= 1, and a method, K
    or reg_lambda that PhaseDistribution rejects, raise ValueError
    naming the line.
    """
    art = textio.load(path, DISTRIBUTION_COLUMNS)
    bad = np.flatnonzero(~np.isfinite(art.rows).all(axis=1))
    if bad.size:
        raise art.error(bad[0], "non-finite point %r"
                        % art.rows[bad[0]].tolist())
    m = art.field("M:", _check_M)
    if m != len(art.rows):
        raise ValueError(
            "header says M=%d but file holds %d rows" % (m, len(art.rows))
        )
    grid, values = art.rows.T
    expected = 2.0 * np.pi * np.arange(m) / m
    off = np.flatnonzero(np.abs(grid - expected) > 1.0e-9)
    if off.size:
        i = off[0]
        raise art.error(i, "phi %.12g does not match grid point %d (%.12g)"
                        % (grid[i], i, expected[i]))
    return PhaseDistribution(
        grid=grid, values=values, method=art.field("method:", _check_method),
        K_used=art.field("K:", _check_K),
        reg_lambda=art.field("reg_lambda:", _check_reg_lambda),
    )

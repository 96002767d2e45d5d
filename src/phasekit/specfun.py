"""Special functions for the sampling-kernel machinery.

Everything downstream (kernel series, closed integral forms, bias
integrals) reduces to four ingredients: physicists' Hermite polynomials
H_n, the normalized oscillator eigenfunctions psi_n, the confluent
hypergeometric function Phi(a, b, y) on the negative real axis, and the
modified Bessel function I0.  All evaluators here are pure functions of
their arguments and accept scalars or numpy arrays in the argument slot.
"""

import functools
import math

import numpy as np

# Largest Hermite order the recurrences will walk to.  The polynomial
# form overflows doubles long before this for moderate x; callers that
# need high orders should use hermite_fn, which stays O(1).
MAX_HERMITE_ORDER = 2100

# Switch between the transformed power series and the large-argument
# expansion of Phi(a, b, -t).
KUMMER_SWITCH = 30.0

# Hard cap on power-series terms before declaring non-convergence.
SERIES_MAX_TERMS = 4000

# Relative accuracy demanded of the asymptotic branch before it is
# trusted; otherwise evaluation falls back to the convergent series.
ASYMPTOTIC_RTOL = 1.0e-9

# Switch point for the I0 series/asymptotic split.
BESSEL_SWITCH = 15.0


def scalar_in_scalar_out(func):
    """Decorate func(a, x, ...) to take x as a scalar or an array.

    func sees x as a float array of at least one dimension; a 0-d x
    gets a Python float back instead of a length-1 array.
    """
    @functools.wraps(func)
    def wrapper(a, x, *args, **kwargs):
        x = np.asarray(x, dtype=float)
        out = func(a, np.atleast_1d(x), *args, **kwargs)
        return out if x.ndim else float(out[0])
    return wrapper


def hermite_poly(n, x):
    """Physicists' Hermite polynomial H_n(x) by the three-term recurrence.

    H_0 = 1, H_1 = 2x, H_{n+1} = 2 x H_n - 2 n H_{n-1}.  Raises
    OverflowError if the values leave the double range: a silent inf
    would poison every sum built on top of this.
    """
    if n < 0:
        raise ValueError("Hermite order must be nonnegative")
    if n > MAX_HERMITE_ORDER:
        raise ValueError(
            "Hermite order %d exceeds supported maximum %d"
            % (n, MAX_HERMITE_ORDER)
        )
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * x
    for m in range(1, n):
        h_prev, h = h, 2.0 * x * h - 2.0 * m * h_prev
    if not np.all(np.isfinite(h)):
        raise OverflowError(
            "H_%d overflows double precision at the requested argument; "
            "use hermite_fn for high orders" % n
        )
    return h if h.ndim else float(h)


def psi_rows(n, x):
    """Yield the normalized oscillator eigenfunctions psi_0 .. psi_n on x.

    psi_n(x) = (2^n n! sqrt(pi))^{-1/2} exp(-x^2/2) H_n(x), walked up by
    the normalized recurrence

        psi_{m+1} = sqrt(2/(m+1)) x psi_m - sqrt(m/(m+1)) psi_{m-1}

    which keeps every intermediate O(1) and so never overflows.  This is
    the one place the package runs that recurrence; the order checks
    fire on the first step of the generator.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n > MAX_HERMITE_ORDER:
        raise ValueError(
            "order %d exceeds supported maximum %d" % (n, MAX_HERMITE_ORDER)
        )
    x = np.asarray(x, dtype=float)
    p_prev = np.zeros_like(x)
    p = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    yield p
    for m in range(n):
        p_prev, p = p, x * np.sqrt(2.0 / (m + 1)) * p - np.sqrt(
            m / (m + 1.0)
        ) * p_prev
        yield p


def psi_matrix(n_max, x):
    """psi_0 .. psi_{n_max} on x stacked into an (n_max + 1, *x.shape)
    array, row m holding psi_m."""
    return np.array(list(psi_rows(n_max, x)))


def hermite_fn(n, x):
    """Normalized oscillator eigenfunction psi_n(x): the last of
    psi_rows(n, x)."""
    for p in psi_rows(n, x):
        pass
    return p if p.ndim else float(p)


def hermite_fn_sum(coeffs_by_order, x):
    """Evaluate sum_j c_j psi_j(x) in one pass of the psi recurrence.

    coeffs_by_order maps order -> coefficient (array-broadcastable).
    A single sweep up to the top order costs the same as one hermite_fn
    call there, instead of one sweep per term, and holds only two psi
    rows at a time however large x is.
    """
    x = np.asarray(x, dtype=float)
    acc = np.zeros_like(x)
    for m, p in enumerate(psi_rows(max(coeffs_by_order, default=0), x)):
        c = coeffs_by_order.get(m)
        if c is not None:
            acc = acc + c * p
    return acc


def _kummer_series(a, b, y):
    """Phi(a, b, y) for y <= 0 through the reflection Phi(a,b,y) =
    e^y Phi(b-a, b, -y).

    With b > a the reflected series has same-signed terms and no
    cancellation; with b < a at most the first ~(a-b) terms alternate
    while the same-signed bulk dominates, so double precision holds up
    for every argument this package produces.
    """
    t = -y  # t >= 0
    ap = b - a
    term = np.ones_like(t)
    total = np.ones_like(t)
    for m in range(SERIES_MAX_TERMS):
        term = term * (ap + m) / (b + m) * t / (m + 1.0)
        total = total + term
        if np.all(np.abs(term) <= 1.0e-17 * np.abs(total)):
            return np.exp(-t) * total
    raise ArithmeticError(
        "confluent hypergeometric series did not converge in %d terms"
        % SERIES_MAX_TERMS
    )


def _kummer_asymptotic(a, b, y):
    """Large-|y| form Phi(a, b, -t) ~ [Gamma(b)/Gamma(b-a)] t^{-a} S(t),

    S(t) = sum_m (a)_m (1+a-b)_m / (m! t^m), truncated at the smallest
    term.  Returns (value, ok): ok is False when b-a is a non-positive
    integer (prefactor vanishes identically, the reflection term the
    expansion drops would dominate) or when the smallest term is not
    small enough for ASYMPTOTIC_RTOL.
    """
    t = -y
    ba = b - a
    if ba <= 0 and abs(ba - round(ba)) < 1.0e-12:
        return None, False
    prefactor = math.gamma(b) / math.gamma(ba) * t ** (-a)
    term = 1.0
    total = 1.0
    smallest = 1.0
    for m in range(60):
        nxt = term * (a + m) * (1.0 + a - b + m) / ((m + 1.0) * t)
        if abs(nxt) >= abs(term):
            break
        term = nxt
        total += term
        smallest = abs(term)
    if smallest > ASYMPTOTIC_RTOL * abs(total):
        return None, False
    return prefactor * total, True


def kummer_phi(a, b, y):
    """Confluent hypergeometric Phi(a, b, y) for real y <= 0.

    Supports the parameter range the kernel integrals need: positive
    integer or half-integer a, b in {1/2, 3/2}.  Below |y| =
    KUMMER_SWITCH the transformed power series is used; above it the
    asymptotic expansion, unless its smallest term cannot reach
    ASYMPTOTIC_RTOL (slowly decaying for larger a), in which case the
    convergent series takes over again.  The two branches agree near the
    switch to well below 1e-6 for a <= 12.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr > 0):
        raise ValueError("argument must be <= 0")
    if y_arr.ndim:
        out = np.empty_like(y_arr)
        for idx in np.ndindex(y_arr.shape):
            out[idx] = kummer_phi(a, b, float(y_arr[idx]))
        return out
    y = float(y_arr)
    if -y <= KUMMER_SWITCH:
        return float(_kummer_series(a, b, y))
    value, ok = _kummer_asymptotic(a, b, y)
    if ok:
        return float(value)
    return float(_kummer_series(a, b, y))


def bessel_i0(t):
    """Modified Bessel function I0(t) for t >= 0.

    Power series sum_j (t^2/4)^j / (j!)^2 up to BESSEL_SWITCH, then the
    standard asymptotic e^t/sqrt(2 pi t) (1 + 1/(8t) + 9/(128 t^2) + ...)
    truncated at its smallest term.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("t must be >= 0")
    scalar = not t_arr.ndim
    t_arr = np.atleast_1d(t_arr)
    out = np.empty_like(t_arr)
    small = t_arr <= BESSEL_SWITCH
    if np.any(small):
        q = 0.25 * t_arr[small] ** 2
        term = np.ones_like(q)
        total = np.ones_like(q)
        for j in range(SERIES_MAX_TERMS):
            term = term * q / (j + 1.0) ** 2
            total += term
            if np.all(term <= 1.0e-17 * total):
                break
        out[small] = total
    if np.any(~small):
        for idx in np.nonzero(~small)[0]:
            tv = t_arr[idx]
            term = 1.0
            total = 1.0
            for m in range(60):
                nxt = term * (2 * m + 1) ** 2 / (8.0 * tv * (m + 1))
                if abs(nxt) >= abs(term):
                    break
                term = nxt
                total += term
            out[idx] = math.exp(tv) / math.sqrt(2.0 * math.pi * tv) * total
    return out if not scalar else float(out[0])

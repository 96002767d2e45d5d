"""Special functions for the sampling-kernel machinery.

Everything downstream (kernel series, bias integrals) reduces to two
ingredients: physicists' Hermite polynomials H_n and the normalized
oscillator eigenfunctions psi_n.  All evaluators here are pure functions
of their arguments and accept scalars or numpy arrays in the argument
slot.
"""

import functools

import numpy as np

# Largest Hermite order the recurrences will walk to.  The polynomial
# form overflows doubles long before this for moderate x; callers that
# need high orders should use psi_rows, whose rows stay O(1).
MAX_HERMITE_ORDER = 2100


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
            "use psi_rows for high orders" % n
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


def hermite_fn_sum(coeffs_by_order, x):
    """Evaluate sum_j c_j psi_j(x) in one pass of the psi recurrence.

    coeffs_by_order maps order -> coefficient (array-broadcastable).
    A single sweep of psi_rows up to the top order, instead of one sweep
    per term, holding only two psi rows at a time however large x is.
    """
    x = np.asarray(x, dtype=float)
    acc = np.zeros_like(x)
    for m, p in enumerate(psi_rows(max(coeffs_by_order, default=0), x)):
        c = coeffs_by_order.get(m)
        if c is not None:
            acc = acc + c * p
    return acc

"""Truncated Fock-basis test states and their exact phase statistics.

Every reconstruction experiment in this package is benchmarked against
states whose exponential phase moments and canonical phase distribution
are known exactly at the truncated level: the density matrix in the
number basis fixes the quadrature distribution p(x, theta), the moments
Psi_k (sums over the k-th subdiagonal), and the phase distribution
P(phi) in closed form.

The quadrature distribution is a finite Fourier series in theta whose
coefficients depend on x alone (quadrature_harmonics): building them
costs O(n_max^2 G) on G points once, after which the density at any
phase is an O(n_max G) matvec (harmonic_density).
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import textio
from .specfun import psi_matrix, scalar_in_scalar_out

DEFAULT_N_MAX = 20

# Fraction of the untruncated norm the Fock window must capture.
CAPTURE_TOL = 1.0e-6

HERMITICITY_TOL = 1.0e-10
TRACE_TOL = 1.0e-8
NEGATIVITY_TOL = 1.0e-10

STATE_KINDS = ("vacuum", "fock", "coherent", "squeezed_vacuum",
               "displaced_fock")

_check_n_max = textio.integer_at_least("n_max", 0)
_check_fock_n = textio.integer_at_least("fock_n", 0)


def _complex(text):
    value = complex(text)
    if not cmath.isfinite(value):
        raise ValueError("%r is not finite" % text)
    return value


def _format_complex(z):
    z = complex(z)
    return "%.17g%+.17gj" % (z.real, z.imag)


# Text form of each StateSpec field: name -> (parse, format), lossless
# as a pair.  The config's state.* keys and the records' state line
# both read and write a state through it.
STATE_FIELDS = {
    "kind": (str, str),
    "alpha": (_complex, _format_complex),
    "squeeze": (_complex, _format_complex),
    "fock_n": (_check_fock_n, "%d".__mod__),
    "n_max": (_check_n_max, "%d".__mod__),
}


def _check_capture_tol(value):
    if not 0.0 <= float(value) <= 1.0:
        raise ValueError("capture_tol must lie in [0, 1], not %r" % value)
    return float(value)


@dataclass(frozen=True)
class StateSpec:
    """Recipe for a test state.

    kind         one of vacuum | fock | coherent | squeezed_vacuum |
                 displaced_fock
    alpha        finite displacement amplitude (coherent, displaced_fock)
    squeeze      finite squeeze parameter xi = s e^{i theta} (squeezed_vacuum)
    fock_n       photon number (fock, displaced_fock), an integer >= 0
    n_max        Fock-space truncation, an integer >= 0
    """

    kind: str
    alpha: complex = 0.0j
    squeeze: complex = 0.0j
    fock_n: int = 0
    n_max: int = DEFAULT_N_MAX

    def __post_init__(self):
        if self.kind not in STATE_KINDS:
            raise ValueError(
                "unknown state kind %r; expected one of %s"
                % (self.kind, ", ".join(STATE_KINDS))
            )
        if not np.isfinite([self.alpha, self.squeeze]).all():
            raise ValueError("non-finite alpha or squeeze in %r" % (self,))
        object.__setattr__(self, "n_max", _check_n_max(self.n_max))
        object.__setattr__(self, "fock_n", _check_fock_n(self.fock_n))


@dataclass(frozen=True)
class DensityMatrix:
    """Number-basis density matrix on the window 0..n_max.

    Validated at construction: Hermitian, unit trace (after truncation
    renormalization), and positive semidefinite up to numerical noise.
    """

    n_max: int
    elements: np.ndarray = field(repr=False)

    def __post_init__(self):
        rho = np.asarray(self.elements, dtype=complex)
        if rho.shape != (self.n_max + 1, self.n_max + 1):
            raise ValueError(
                "elements must be a (n_max+1) square matrix; got %s"
                % (rho.shape,)
            )
        if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > TRACE_TOL:
            raise ValueError(
                "density matrix trace %.12f deviates from 1"
                % np.trace(rho).real
            )
        if np.linalg.eigvalsh(rho).min() < -NEGATIVITY_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        object.__setattr__(self, "elements", rho)

    @classmethod
    def from_pure(cls, coeffs):
        """Density matrix of the pure state with Fock amplitudes coeffs."""
        c = np.asarray(coeffs, dtype=complex)
        norm = np.linalg.norm(c)
        if norm == 0:
            raise ValueError("zero state vector")
        c = c / norm
        return cls(n_max=len(c) - 1, elements=np.outer(c, c.conj()))


def _extended_amplitudes(spec, n_big):
    """Fock amplitudes of the requested pure state on a window large
    enough to measure truncation leakage."""
    c = np.zeros(n_big + 1, dtype=complex)
    if spec.kind == "vacuum":
        c[0] = 1.0
    elif spec.kind == "fock":
        if spec.fock_n > n_big:
            raise ValueError("fock_n exceeds extended window")
        c[spec.fock_n] = 1.0
    elif spec.kind == "coherent":
        a = complex(spec.alpha)
        # c_n = e^{-|a|^2/2} a^n / sqrt(n!), built by the stable ratio
        log_norm = -0.5 * abs(a) ** 2
        c[0] = math.exp(log_norm)
        for n in range(1, n_big + 1):
            c[n] = c[n - 1] * a / math.sqrt(n)
    elif spec.kind == "squeezed_vacuum":
        xi = complex(spec.squeeze)
        s = abs(xi)
        if s == 0:
            c[0] = 1.0
        else:
            phase = xi / s
            # even levels only: c_{2n} = (-e^{i theta} tanh s)^n
            #                     sqrt((2n)!)/(2^n n!) / sqrt(cosh s)
            factor = -phase * math.tanh(s)
            c[0] = 1.0 / math.sqrt(math.cosh(s))
            for n in range(1, n_big // 2 + 1):
                c[2 * n] = (
                    c[2 * n - 2]
                    * factor
                    * math.sqrt((2 * n) * (2 * n - 1))
                    / (2.0 * n)
                )
    elif spec.kind == "displaced_fock":
        # exp(alpha a^dag - alpha^* a) applied to |n>, generator
        # truncated on the extended window; scipy is imported here, its
        # only use, to keep it off the import path
        from scipy.linalg import expm

        a = complex(spec.alpha)
        if spec.fock_n > n_big:
            raise ValueError("fock_n exceeds extended window")
        lower = np.diag(np.sqrt(np.arange(1.0, n_big + 1)), k=1)
        generator = a * lower.conj().T - np.conj(a) * lower
        vec = np.zeros(n_big + 1, dtype=complex)
        vec[spec.fock_n] = 1.0
        c = expm(generator) @ vec
    return c


def build_state(spec, capture_tol=CAPTURE_TOL):
    """Density matrix of the state described by spec.

    Amplitudes are computed on an extended window, the weight inside
    0..n_max is compared with the untruncated norm, and the truncated
    vector is renormalized.  Raises when the window would swallow more
    than capture_tol of the state: silent truncation of a state that
    does not fit would corrupt every downstream comparison.  Tests that
    deliberately study hard-truncated states can widen capture_tol, up to 1.
    """
    capture_tol = _check_capture_tol(capture_tol)
    n_big = max(2 * spec.n_max + 20, spec.n_max + 60)
    c = _extended_amplitudes(spec, n_big)
    captured = float(np.sum(np.abs(c[: spec.n_max + 1]) ** 2))
    if captured < 1.0 - capture_tol:
        raise ValueError(
            "truncation at n_max=%d captures only %.8f of the state "
            "(tolerance %.1e); raise n_max or widen capture_tol"
            % (spec.n_max, captured, capture_tol)
        )
    return DensityMatrix.from_pure(c[: spec.n_max + 1])


def quadrature_harmonics(rho, x):
    """Phase-harmonic decomposition of p(x, theta) on the points x.

    Grouping p(x, theta) = sum_{m,n} psi_m(x) psi_n(x) rho_{mn}
    e^{i(n-m) theta} by the offset d = n - m gives a finite Fourier
    series in theta whose coefficients depend on x alone,

        p(x, theta) = c_0(x) + sum_{d=1}^{n_max} 2 Re[c_d(x) e^{i d theta}],
        c_d(x) = sum_m rho_{m,m+d} psi_m(x) psi_{m+d}(x),

    the bilinear psi_m psi_n structure of pattern-function tomography.
    Returns the real (2 n_max + 1) x len(x) matrix W whose rows are c_0,
    2 Re c_1 .. 2 Re c_{n_max}, -2 Im c_1 .. -2 Im c_{n_max}, so that
    p(x, theta) = t(theta) @ W with t = (1, cos d theta, sin d theta)
    for d = 1..n_max (see harmonic_density).  Building W costs
    O(n_max^2 G) for G points, once; every phase after that is an
    O(n_max G) matvec instead of a fresh psi recurrence and quadratic
    form.
    """
    x = np.asarray(x, dtype=float)
    n_dim = rho.n_max + 1
    psi = psi_matrix(rho.n_max, x)
    harmonics = np.empty((2 * n_dim - 1, x.size))
    harmonics[0] = np.diagonal(rho.elements).real @ (psi * psi)
    for d in range(1, n_dim):
        band = 2.0 * np.diagonal(rho.elements, d)
        pairs = psi[:-d] * psi[d:]
        harmonics[d] = band.real @ pairs
        harmonics[rho.n_max + d] = -band.imag @ pairs
    return harmonics


def harmonic_density(harmonics, theta):
    """p(x, theta) from the matrix W of quadrature_harmonics.

    A scalar theta gives one density row; an array of phases gives one
    row per phase, from one matrix product.  p is nonnegative for any
    positive semidefinite rho; tiny negative round-off is clamped to
    zero.
    """
    d_theta = np.multiply.outer(theta,
                                np.arange(1, harmonics.shape[0] // 2 + 1))
    t = np.concatenate((np.ones(d_theta.shape[:-1] + (1,)),
                        np.cos(d_theta), np.sin(d_theta)), axis=-1)
    out = t @ harmonics
    out[(out < 0) & (out > -1.0e-12)] = 0.0
    return out


@scalar_in_scalar_out
def quadrature_pdf(rho, x, theta):
    """Quadrature distribution p(x, theta) of the state.

    quadrature_harmonics evaluated at the single phase theta; callers
    that need many phases on one grid should build the harmonics once.
    """
    return harmonic_density(quadrature_harmonics(rho, x), theta)


def exact_moments(rho, k):
    """Exponential phase moment Psi_k = sum_n rho_{n+k,n} (k >= 1).

    Psi_0 = 1 by normalization and Psi_{-k} = conj(Psi_k).
    """
    k = int(k)
    if k == 0:
        return 1.0 + 0.0j
    if k < 0:
        return np.conj(exact_moments(rho, -k))
    if k > rho.n_max:
        return 0.0j
    return complex(np.trace(rho.elements, offset=-k))


@scalar_in_scalar_out
def exact_phase_dist(rho, phi):
    """Canonical phase distribution P(phi).

    P(phi) = (2 pi)^{-1} sum_{m,n} rho_{mn} e^{i(n-m) phi}, the
    expectation of rho in the (unnormalizable) phase state with
    amplitudes e^{i n phi}; real and nonnegative up to truncation
    round-off.
    """
    u = np.exp(1j * np.outer(np.arange(rho.n_max + 1), phi))
    return np.einsum("mp,mn,np->p", u.conj(), rho.elements, u).real / (
        2.0 * np.pi
    )

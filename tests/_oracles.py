"""Reference implementations shared by the tests.

Quadrature rules for the estimator and acceptance tests, and the
direct forms the fast library paths are checked against: the
quadratic-form quadrature density and np.interp kernel lookup.
"""

import math

import numpy as np

from phasekit.kernels import _tail_value
from phasekit.states import quadrature_pdf


def panel_rule(order=40):
    """Composite Gauss-Legendre rule on [-11.5, 11.5].

    Panels are graded geometrically toward zero so the logarithmic
    singularity of the even-order kernels is resolved to machine
    accuracy, then continue as uniform half-unit panels.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    graded = np.array([0.0, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5])
    positive = np.concatenate([graded, np.arange(1.0, 12.0, 0.5)])
    edges = np.concatenate([-positive[::-1], positive[1:]])
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (b - a) * nodes + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * weights)
    return np.concatenate(xs), np.concatenate(ws)


def moment_by_phase_quadrature(rho, k, n_phases, table, xs, ws):
    """Discrete-phase moment (2 pi / N) sum_l e^{ik theta_l}
    Int K_k(x) p(x, theta_l) dx, the exact mean of the estimator."""
    kernel_vals = table.evaluate(xs)
    total = 0.0j
    for l in range(n_phases):
        theta = 2.0 * math.pi * l / n_phases
        pdf = quadrature_pdf(rho, xs, theta)
        total += np.exp(1j * k * theta) * np.sum(ws * kernel_vals * pdf)
    return total * 2.0 * math.pi / n_phases


def quadratic_form_pdf(rho, x, theta):
    """p(x, theta) as the Hermitian form a^dag rho a, a_n = psi_n(x) e^{i n theta}.

    A fresh psi recurrence and complex quadratic form per phase; tiny
    negative round-off is clamped to zero like the library density.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n_dim = rho.n_max + 1
    psi = np.empty((n_dim, x.size))
    p_prev = np.zeros_like(x)
    p = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    psi[0] = p
    for m in range(1, n_dim):
        p_prev, p = p, x * np.sqrt(2.0 / m) * p - np.sqrt(
            (m - 1.0) / m
        ) * p_prev
        psi[m] = p
    phases = np.exp(1j * theta * np.arange(n_dim))
    a = psi * phases[:, None]
    out = np.einsum("mx,mx->x", a.conj(), rho.elements @ a).real
    out[(out < 0) & (out > -1.0e-12)] = 0.0
    return out


def interp_table_value(table, x):
    """Kernel table lookup through np.interp inside |x| <= x0 and the
    classical tail rule outside."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    inside = np.abs(x) <= table.spec.x0
    out[inside] = np.interp(x[inside], table.grid, table.values)
    tail = _tail_value(table.spec.k, np.abs(x[~inside]), table.classical_tail)
    if table.spec.k % 2:
        tail = tail * np.sign(x[~inside])
    out[~inside] = tail
    return out

"""Reference implementations shared by the tests.

Quadrature rules for the estimator and acceptance tests, the direct
forms the fast library paths are checked against (the loop form of the
aliasing bias, the quadratic-form quadrature density, a bisection
inverse of the simulator's sampled law, the one-phase-at-a-time
simulation and moment reduction that grouped phases must reproduce bit
for bit, np.interp kernel lookup, the per-row record reader and a dense
high-precision least-squares solve),
the paper's higher-moment approximation of the aliasing bias, the
closed integral kernels K_1 and K_2 in 20-digit mpmath, the Hurwitz
zeta function by summation and the F_k term expansion, the statistics
only the tests read (a state's mean photon number, the total variation
of a phase distribution), and the special functions only the tests
use: psi_n, log_factorial, log_rising and the angular weight omega.
"""

import math

import numpy as np

from phasekit.estimator import _assemble, _check_table, _phase_stats
from phasekit.kernels import _tail_value, smearing_sigma, table_evaluator
from phasekit.simulator import (ExperimentPlan, MeasurementSet, _cdf_table,
                                _quantiles, _state_sampler, phase_stream)
from phasekit.specfun import psi_rows
from phasekit.states import (StateSpec, exact_moments, harmonic_density,
                             quadrature_pdf)


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


def aliasing_bias_by_loops(rho, k, N, q):
    """The aliasing bias as the explicit loops over s >= 1 and n: each
    rho_{n+k+sN, n} and rho_{n, n+sN-k} weighted by its element of the
    kernel matrix q, the form estimator.aliasing_bias used before its
    masked sum."""
    bias = 0.0j
    s = 1
    while True:
        gap_hi = k + s * N
        gap_lo = s * N - k
        if gap_hi > rho.n_max and gap_lo > rho.n_max:
            break
        for n in range(rho.n_max - gap_hi + 1):
            bias += rho.elements[n + gap_hi, n] * q[n + gap_hi, n]
        for n in range(rho.n_max - gap_lo + 1):
            bias += rho.elements[n, n + gap_lo] * q[n, n + gap_lo]
        s += 1
    return bias


def aliasing_bias_approx(rho, k, N):
    """Higher-moment approximation to the aliasing bias.

    Valid for highly excited states, where the kernel matrix elements
    approach their classical values k/(sN +- k):

      even N:  sum_s (-1)^{Ns/2} [ k/(sN+k) Psi_{k+Ns}
                                 + k/(sN-k) Psi_{k-Ns} ]
      odd  N:  sum_s (-1)^s [ k/(2sN+k) Psi_{k+2Ns}
                            + k/(2sN-k) Psi_{k-2Ns} ]

    (for odd N only even multiples of N couple, which is why doubling
    the phase count is implicit in the odd-N form).  Moments beyond the
    truncation vanish, which terminates the sum.
    """
    if N <= k:
        raise ValueError("aliasing analysis assumes N > k")
    bias = 0.0j
    s = 1
    while True:
        if N % 2 == 0:
            step = s * N
            sign = (-1.0) ** ((N * s) // 2)
        else:
            step = 2 * s * N
            sign = (-1.0) ** s
        if k + step > rho.n_max and abs(k - step) > rho.n_max:
            break
        bias += sign * (
            k / (step + k) * exact_moments(rho, k + step)
            + k / (step - k) * exact_moments(rho, k - step)
        )
        s += 1
    return bias


def mean_photon_number(rho):
    """<n> = sum_n n rho_nn of a DensityMatrix."""
    return float(
        np.sum(np.arange(rho.n_max + 1) * np.diag(rho.elements).real)
    )


def total_variation(dist):
    """Sum of absolute increments of a PhaseDistribution around its
    periodic grid."""
    return float(np.sum(np.abs(np.diff(
        np.concatenate([dist.values, dist.values[:1]])
    ))))


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


def _segment_law(cdf, xs, pdf, j):
    """Extended-precision (c_j, m_j, h, p_j, p_{j+1}, A_j) of segment j
    of the simulator's sampled law."""
    ld = np.longdouble
    c0 = cdf[j].astype(ld)
    h = ld((xs[-1] - xs[0]) / (xs.size - 1))
    p0 = pdf[j].astype(ld)
    p1 = pdf[j + 1].astype(ld)
    return c0, cdf[j + 1].astype(ld) - c0, h, p0, p1, h * (p0 + p1) / 2


def _segment_fraction(t, h, p0, p1, area):
    """Share of a segment's mass below offset t: the integral of the
    linear density through p0 and p1 over [0, t] divided by its area,
    t / h where the density vanishes at both nodes."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(area > 0, (p0 * t + (p1 - p0) * t * t / (2 * h)) / area,
                        t / h)


def law_cdf(x, j, cdf, xs, pdf):
    """The sampled law's CDF at x, taken in segment j, in extended
    precision."""
    c0, mass, h, p0, p1, area = _segment_law(cdf, xs, pdf, j)
    t = np.asarray(x, dtype=float).astype(np.longdouble) - xs[j]
    return c0 + mass * _segment_fraction(t, h, p0, p1, area)


def bisection_quantiles(u, cdf, xs, pdf):
    """Quantiles of the simulator's sampled law (node CDF cdf, in each
    segment the linear density through (xs, pdf) rescaled to the
    segment's mass) by bisection: for each u, the largest double x whose
    law CDF is <= u.

    The segment is searchsorted's, cdf[j] <= u < cdf[j+1].  Inside it,
    90 halvings of [0, h] in extended precision (64-bit mantissa) find
    the offset t where the segment's mass share reaches
    w = (u - c_j) / m_j; x_j + t is then rounded down to a double.
    """
    u = np.asarray(u, dtype=float)
    j = np.searchsorted(cdf, u, "right") - 1
    c0, mass, h, p0, p1, area = _segment_law(cdf, xs, pdf, j)
    w = (u.astype(np.longdouble) - c0) / mass
    lo = np.zeros(u.size, dtype=np.longdouble)
    hi = np.full(u.size, h)
    for _ in range(90):
        mid = (lo + hi) / 2
        below = _segment_fraction(mid, h, p0, p1, area) <= w
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    exact = xs[j] + lo
    x = exact.astype(float)
    return np.where(x > exact, np.nextafter(x, -np.inf), x)


# Event counts on which grouped phases are compared with the per-phase
# oracles: single draws, phases at and above simulator.GROUP_DRAWS, runs
# of small phases up to the draw bound and runs of single draws up to
# the simulator's row bound, so group boundaries fall everywhere.
MIXED_COUNTS = ((1, 16384, 7, 20000, 500, 3, 16383, 2, 9000, 8000, 1, 4)
                + (300,) * 20 + (1,) * 30)


def per_phase_run_experiment(plan, capture_tol):
    """simulator.run_experiment one phase at a time: each phase's density,
    CDF table and inverse transform on its own, its uniform draws and
    then its detector noise from its own stream."""
    grid, harmonics = _state_sampler(plan.state, capture_tol)
    sigma = smearing_sigma(plan.eta)
    records = []
    for l, (theta, count) in enumerate(zip(plan.phases,
                                           plan.events_per_phase)):
        rng = phase_stream(plan.seed, l)
        cdf, nodes = _cdf_table(grid, harmonic_density(harmonics, theta))
        samples = _quantiles(rng.random(count), cdf, *nodes)
        if sigma > 0.0:
            samples = samples + rng.normal(0.0, sigma, size=count)
        records.append(samples)
    return MeasurementSet(plan, np.concatenate(records))


def per_phase_estimates(ms, by_k):
    """estimator._estimate one phase at a time: the tables evaluated on
    each phase's records alone, then that phase's _phase_stats."""
    flags = {k: _check_table(ms, k, table) for k, table in by_k.items()}
    evaluate_all = table_evaluator(by_k.values())
    stats = {k: [] for k in by_k}
    for rec in ms.records:
        for k, values in zip(by_k, evaluate_all(rec)):
            stats[k].append(_phase_stats(values))
    return [
        _assemble(k, ms.plan.phases, stats[k], flags[k], table.spec.eta)
        for k, table in by_k.items()
    ]


def interp_table_value(table, x):
    """Kernel table lookup through np.interp inside |x| <= x0 and the
    classical tail rule outside."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    inside = np.abs(x) <= table.spec.x0
    out[inside] = np.interp(x[inside], table.grid, table.values)
    tail = _tail_value(table.spec, table.edge_gap, np.abs(x[~inside]))
    if table.spec.k % 2:
        tail = tail * np.sign(x[~inside])
    out[~inside] = tail
    return out


def _per_row_record_header(lines):
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


def per_row_load_records(path):
    """Record-file reader that parses and checks one row at a time.

    Every row goes through float() first, then the header gives the
    plan, then each sample must be finite, then the row count must be
    the sum of the header's event counts: the order load_records
    follows with whole columns.  The samples form one array in file
    order.
    """
    header = []
    samples = []
    with open(path) as fh:
        for idx, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                header.append((idx, line))
                continue
            try:
                samples.append((idx, float(line)))
            except ValueError:
                raise ValueError("line %d: unparsable sample %r"
                                 % (idx, line))
    plan = _per_row_record_header(header)
    for idx, x in samples:
        if not math.isfinite(x):
            raise ValueError("line %d: non-finite sample %r" % (idx, x))
    total = sum(plan.events_per_phase)
    if len(samples) != total:
        raise ValueError("samples of shape (%d,), events_per_phase sums "
                         "to %d" % (len(samples), total))
    return MeasurementSet(plan, np.array([x for _, x in samples]))


def mpmath_alt_sum(k, l):
    """sign and log|S_l| of the alternating binomial sum, each term
    built with mpmath.binomial, mpmath.rf and mpmath.sqrt at
    _working_dps(l): the extended-precision form kernels used before
    its exact-integer and decimal one."""
    import mpmath

    from phasekit.kernels import _working_dps

    with mpmath.workdps(_working_dps(l)):
        total = mpmath.mpf(0)
        for n in range(l + 1):
            term = mpmath.binomial(l, n) / mpmath.sqrt(mpmath.rf(n + 1, k))
            total += -term if (l - n) % 2 else term
        if total == 0:
            return 0.0, -math.inf
        return float(mpmath.sign(total)), float(mpmath.log(abs(total)))


def mpmath_f_inner_sum(k, n, truncation):
    """Inner l-sum of F_k with every term exponentiated and summed in
    30-digit mpmath, the form kernels used before its math.fsum one;
    the Hurwitz-zeta tail is the same."""
    import mpmath

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


def hurwitz_zeta_by_summation(s, q, dps=60, head=200, terms=15):
    """Hurwitz zeta(s, q) = sum_{m>=0} (q+m)^{-s} to 50 digits, as an
    mpmath number at dps digits, without mpmath.zeta (whose Hurwitz
    values at large q and s are off by up to 1e-11 relative even at 50
    digits).

    The terms m^{-s} for q <= m < q + head are summed one by one; the
    rest is the Euler-Maclaurin sum at p = q + head with `terms`
    Bernoulli terms, whose first omitted term, a bound on its
    remainder, is checked to be below 1e-50 of the result.
    """
    import mpmath

    with mpmath.workdps(dps):
        s = mpmath.mpf(s)
        total = mpmath.fsum(mpmath.mpf(m) ** -s
                            for m in range(q, q + head))
        p = mpmath.mpf(q + head)

        def term(j):
            return (mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)
                    * mpmath.rf(s, 2 * j - 1) * p ** (1 - s - 2 * j))

        total += p ** (1 - s) / (s - 1) + p ** -s / 2 + mpmath.fsum(
            term(j) for j in range(1, terms + 1))
        if abs(term(terms + 1)) > mpmath.mpf(10) ** -50 * total:
            raise ArithmeticError("zeta(%s, %d) not converged to 50 digits"
                                  % (s, q))
        return total


def expansion_coefficients(k, n, order):
    """Exact d_0..d_order of the F_k inner-sum term's large-l expansion
    binom(n+l-1, l) / sqrt((l+1)...(l+k))
        = l^{-a} (d_0 + d_1/l + d_2/l^2 + ...) / (n-1)!,
    the Taylor coefficients of exp(sum_m c_m x^m) at x = 1/l, with
    c_m = (-1)^{m+1}/m [sum_{j<n} j^m - (1/2) sum_{j<=k} j^m]."""
    from fractions import Fraction

    c = [Fraction((-1) ** (m + 1), m)
         * (sum(Fraction(j) ** m for j in range(1, n))
            - Fraction(1, 2) * sum(Fraction(j) ** m for j in range(1, k + 1)))
         for m in range(1, order + 1)]
    d = [Fraction(1)]
    for m in range(1, order + 1):
        d.append(sum(i * c[i - 1] * d[m - i] for i in range(1, m + 1)) / m)
    return d


def mpmath_integral_kernel(k, x):
    """K_1(x) or K_2(x) from its closed single integral with mpmath.quad
    over mpmath.hyp1f1 and mpmath.besseli at 20 digits, on the same
    substitutions as kernels.integral_kernel_k1/k2 but with no scipy."""
    import mpmath

    with mpmath.workdps(20):
        x = mpmath.mpf(x)
        if k == 1:
            def f(u):
                t = u * u
                return 2 * mpmath.hyp1f1(2, 1.5, -x * x * mpmath.tanh(t)) \
                    / mpmath.cosh(t) ** 2
            return float(mpmath.pi ** -1.5 * x
                         * mpmath.quad(f, [0, 1, 2, 4, 12]))
        if k == 2:
            def f(t):
                bracket = mpmath.exp(-2 * t) - mpmath.hyp1f1(
                    2, 0.5, -x * x * mpmath.tanh(t)) / mpmath.cosh(t) ** 2
                return mpmath.besseli(0, t) * bracket / mpmath.sinh(t)
            return float(mpmath.quad(f, [0, 1, 4, 10, 40]) / (2 * mpmath.pi))
    raise ValueError("closed integral forms exist for k = 1, 2 only")


def mpmath_least_squares(moments, M, reg_lambda, dps=40):
    """P minimizing least_squares_reconstruct's objective, from a dense
    solve of its normal equations at dps digits: the pair (P under the
    normalization constraint, P without it).

    The matrix is A^T W A + reg_lambda D^T D, with A the moment sums of
    the listed moments on the M-point grid, W their inverse variances
    and D the periodic second difference.  Every row of A and D sums to
    zero over the grid, so the matrix leaves the mean of P free: adding
    1 1^T to it and sum(P) to each right-hand side entry pins sum(P) to
    M / (2 pi) under the constraint and to 0 without it, which is the
    minimum-norm solution.  The pinned matrix is symmetric positive
    definite, so Gaussian elimination needs no pivoting.
    """
    import mpmath

    with mpmath.workdps(dps):
        base = 2 * mpmath.pi / M
        phis = [2 * mpmath.pi * j / M for j in range(M)]
        a_rows, weights, targets = [], [], []
        for m in moments:
            for part, var, target in ((mpmath.cos, m.var_re, m.value.real),
                                      (mpmath.sin, m.var_im, m.value.imag)):
                a_rows.append([base * part(m.k * phi) for phi in phis])
                weights.append(1 / mpmath.mpf(var))
                targets.append(mpmath.mpf(target))
        columns = list(zip(*a_rows))
        rows = []
        for i in range(M):
            weighted = [w * a for w, a in zip(weights, columns[i])]
            fit = mpmath.fdot(weighted, targets)
            rows.append([1 + mpmath.fdot(weighted, col) for col in columns]
                        + [M / (2 * mpmath.pi) + fit, fit])
            for offset, weight in ((-2, 1), (-1, -4), (0, 6), (1, -4),
                                   (2, 1)):
                rows[i][(i + offset) % M] += reg_lambda * weight
        for c in range(M):
            for r in range(c + 1, M):
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
        solution = [[0] * M, [0] * M]
        for i in reversed(range(M)):
            for s, rhs in enumerate((M, M + 1)):
                known = sum(rows[i][j] * solution[s][j]
                            for j in range(i + 1, M))
                solution[s][i] = (rows[i][rhs] - known) / rows[i][i]
        return tuple(np.array([float(v) for v in p]) for p in solution)


def displaced_fock_amplitudes(spec):
    """Extended-window amplitudes of a displaced Fock state,
    expm(alpha a^dag - alpha^* a) |n> on the window build_state uses."""
    from scipy.linalg import expm

    n_big = max(2 * spec.n_max + 20, spec.n_max + 60)
    a = complex(spec.alpha)
    lower = np.diag(np.sqrt(np.arange(1.0, n_big + 1)), k=1)
    generator = a * lower.conj().T - np.conj(a) * lower
    vec = np.zeros(n_big + 1, dtype=complex)
    vec[spec.fock_n] = 1.0
    return expm(generator) @ vec


def psi_n(n, x):
    """Normalized oscillator eigenfunction psi_n(x): the last of
    psi_rows(n, x), a float for a scalar x."""
    for p in psi_rows(n, x):
        pass
    return p if p.ndim else float(p)


def log_factorial(n):
    """log(n!) via lgamma."""
    return math.lgamma(n + 1.0)


def log_rising(a, k):
    """log of the rising product a (a+1) ... (a+k-1) for a > 0."""
    return math.lgamma(a + k) - math.lgamma(a)


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

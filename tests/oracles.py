"""Independent oracles: brute-force counting, composite quadrature, closed forms.

These deliberately avoid the code paths they are used to check: the counting
oracle slides a window over explicit candidate anchors instead of trusting
the left-endpoint argument, the quadrature oracle uses its own panel sizing
and evaluates divided differences by the simplex form at an order of its
own instead of the library's evaluator, and the small linear-algebra
oracles are written out by hand.  The entrywise inner products evaluate one
pair at a time, apart from the matrix kernel, with the left-endpoint-phase
closed form, apart from the kernel's midpoint-phase one, and the majorant
series is summed term by term, apart from its closed form.  The rectangular
kernel ``inner_matrix`` pairs every term of two systems in one unblocked
array, apart from the Gram's mirrored triangle of row blocks; the Fourier grid
reaches it as a plain exponential system, apart from the lattice closed form
of the cross matrix, and its exact coefficients come from mpmath.  The
spectrum of the integer lattice's centered Gram is exact: Slepian's prolate
concentration ratios, which scipy computes for the DPSS windows, apart from
any Gram or eigensolver, and so is that of a partition into the cosets of dZ,
a direct sum of lattice Grams at d times the length.

The second half holds references that the pipeline does not run but other
tests compare against: composite panel quadrature, the Newton recurrence and
the simplex (iterated-integral) form of a divided difference, the scalar
Gauss-Legendre point count of a clustered pair, the library's
divided-difference terms evaluated as a profile, its derivative bound, the
exponential Gram with every entry formed in complex arithmetic, the centered
one with its sin(x)/x by a masked division, and the DD moments with every
Legendre order summed on every element (the kernel's own formulas, without
its triangle, real dtype, in-place sinc or skipped zero orders), the
decay-constant check, the complex cross matrix built from the lattice factors
with its defect norms, the sums over the explicit Cauchy factor (its row sums,
out-of-grid energies, ``syrk`` cross Gram and defect norms), both trace routes through the explicit inverse of that
complex Gram and route one in mpmath, the counting-inequality check, and the
re-parse of an artifact's config echo.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from scipy.linalg import blas, cho_solve
from scipy.signal.windows import dpss

from inghamlab.analysis import GridPointFailure, _trace_routes
from inghamlab.basisfuncs import DirectionAssignment, divided_difference_terms
from inghamlab.cli import ExperimentConfig, parse_config
from inghamlab.exponents import ExponentFamily
from inghamlab.gram import (
    SMALL_PHASE,
    DividedDifferenceSystem,
    ExponentialSystem,
    FourierGrid,
    IntervalSpec,
    _spherical_jn,
    assemble_gram,
    exp_inner_closed_form,
    exp_moments,
    gated_cho_factor,
    grid_cauchy_factors,
)

DERIVATIVE_STEP_RTOL = 1e-5
PANEL_PHASE_SPAN = math.pi / 4  # max radians of the fastest phase per quadrature panel
PANEL_ORDER = 16  # Gauss-Legendre points per quadrature panel


def brute_count(exponents, r):
    """Max count of exponents in a closed window of length r, by anchor scan."""
    x = np.sort(np.asarray(exponents, dtype=float))
    anchors = np.unique(np.concatenate([x, x - r, x - r + 1e-12, x - 1e-12]))
    best = 0
    for a in anchors:
        best = max(best, int(np.sum((x >= a - 1e-15) & (x <= a + r + 1e-15))))
    return best


def composite_gl_exp_integral(theta, a, b, order=32):
    """Integral of exp(i*theta*t) over (a, b): composite GL, one panel per period."""
    n_panels = max(1, math.ceil(abs(theta) * (b - a) / (2.0 * math.pi)))
    u, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    t = (mid[:, None] + half[:, None] * u[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return complex(np.sum(weights * np.exp(1j * theta * t)))


def dense_panel_rule(a, b, rate, order=24, density=4.0):
    """Quadrature rule with its own (denser) panel sizing, for cross-checks."""
    n_panels = max(3, math.ceil((b - a) * max(rate, 1.0) * density / (2.0 * math.pi)) + 5)
    u, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    t = (mid[:, None] + half[:, None] * u[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return t, weights


def hermitian_2x2_eigs(a, s, b):
    """Eigenvalues of [[a, s], [conj(s), b]] with real a, b."""
    mean = 0.5 * (a + b)
    disc = math.sqrt((0.5 * (a - b)) ** 2 + abs(s) ** 2)
    return mean - disc, mean + disc


def invert_2x2(G):
    """Hand-written 2x2 complex inverse."""
    (a, b), (c, d) = G
    det = a * d - b * c
    return np.array([[d, -b], [-c, a]], dtype=complex) / det


def power_extremes(A, iters=6000, seed=0, tol=1e-13):
    """Extreme eigenvalues of a Hermitian matrix by power and inverse iteration.

    Deliberately avoids the dense symmetric eigensolver: lambda_max by plain
    power iteration, lambda_min by inverse iteration through an LU solve.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    rng = np.random.default_rng(seed)

    def iterate(step):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            w = step(v)
            nw = np.linalg.norm(w)
            v = w / nw
            new = float(np.real(np.vdot(v, A @ v)))
            if abs(new - lam) <= tol * max(1.0, abs(new)):
                lam = new
                break
            lam = new
        return lam

    lam_max = iterate(lambda v: A @ v)
    # positive-definite input: plain inverse iteration homes in on lambda_min
    lam_min = iterate(lambda v: np.linalg.solve(A, v))
    return lam_min, lam_max


def lattice_spectrum(n: int, length: float) -> np.ndarray:
    """The eigenvalues, increasing, of the Gram of n consecutive integer exponents on a centered
    interval of the given length, 0 < length < 4 pi and length != 2 pi.

    That Gram, G_jk = 2 sin((j - k) length / 2) / (j - k) with diagonal ``length``, is 2 pi
    times Slepian's prolate matrix rho_W, W = length / 4 pi (Bell Syst. Tech. J. 57, 1978), whose
    eigenvalues are the DPSS concentration ratios of time half-bandwidth n W.  Above 2 pi,
    rho_W = I + D rho_u D with u = W - 1/2 and D = diag((-1)^j), so the spectrum is
    2 pi (1 + ratios at u), inside [2 pi, 4 pi].
    """
    W = length / (4.0 * math.pi)
    if W < 0.5:
        return np.sort(2.0 * math.pi * dpss(n, n * W, Kmax=n, return_ratios=True)[1])
    return np.sort(2.0 * math.pi * (1.0 + dpss(n, n * (W - 0.5), Kmax=n, return_ratios=True)[1]))


def coset_spectrum(class_of, d: int, length: float) -> np.ndarray:
    """The eigenvalues, increasing, of the ``partition`` Gram of consecutive integer exponents whose
    classes 1..d (``class_of``, one label per exponent) are the cosets dZ + (j - 1), on an interval
    of the given length, 0 < d * length < 4 pi and d * length != 2 pi.

    Class j holds the exponents d k + j - 1, so its Gram, (1/d) times the integral of
    exp(i (k - k') s) over an interval of length d * length, is (1/d) times the lattice Gram at
    d * length.  The class directions are orthonormal, so the Gram is the direct sum of the class
    Grams and its spectrum the union of their spectra.
    """
    labels = np.asarray(class_of)
    return np.sort(np.concatenate(
        [lattice_spectrum(int(np.count_nonzero(labels == j)), d * length) / d for j in range(1, d + 1)]))


def parseval_tail_defect(omega, y, radius, interval_a, interval_b, n_span=200000):
    """Defect norm of a unit exponential against a centered Fourier grid.

    Explicit tail sum of |integral exp(i(omega - gamma_n) t)|^2 / |I| over the
    excluded grid frequencies within |n| <= n_span, plus an analytic bound on
    the truncated remainder (integral comparison of the 1/x^2 tail).
    Returns (lower, upper) bracketing the true defect norm.
    """
    L = interval_b - interval_a
    n = np.arange(-n_span, n_span + 1)
    gamma = 2.0 * math.pi * n / L
    excluded = np.abs(gamma - y) >= radius
    theta = omega - gamma[excluded]
    mags = np.where(
        np.abs(theta) > 1e-14,
        np.abs(2.0 * np.sin(0.5 * theta * L) / np.where(np.abs(theta) > 1e-14, theta, 1.0)),
        L,
    )
    tail = float(np.sum(mags**2) / L)
    # |coefficient|^2 <= 4 / (theta^2 L); remainder over |gamma| > gamma_span
    gamma_span = 2.0 * math.pi * n_span / L
    remainder = 8.0 / (L * (gamma_span - abs(omega) - abs(y)))
    return math.sqrt(tail), math.sqrt(tail + remainder)


def exp_inner_closed_form_offset(theta, interval):
    """Integral of exp(i*theta*t) over (a, b) with the phase carried from the left endpoint.

    exp(i*theta*a) * (sin(x) + 2i*sin(x/2)^2) / theta with x = theta*|I|; for
    |x| <= SMALL_PHASE the first-order Taylor form |I|*(1 + i*theta*(a+b)/2).
    """
    th = np.asarray(theta, dtype=float)
    L = interval.length
    x = th * L
    small = np.abs(x) <= SMALL_PHASE
    th_safe = np.where(small, 1.0, th)
    general = np.exp(1j * th * interval.a) * (np.sin(x) + 2j * np.sin(0.5 * x) ** 2) / th_safe
    taylor = L * (1.0 + 0.5j * th * (interval.a + interval.b))
    return np.where(small, taylor, general)


def vector_inner(k, n, family, directions, interval):
    """(e_k, e_n) = (U_k, U_n)_H * integral of exp(i*(w_k - w_n)*t) over I, k and n positions."""
    wk = family.exponents[k]
    wn = family.exponents[n]
    Uk = directions.matrix[k]
    Un = directions.matrix[n]
    return complex(np.vdot(Un, Uk) * exp_inner_closed_form_offset(wk - wn, interval))


def grid_coefficient_exact(w, n, interval, digits: int = 40) -> complex:
    """(exp(i*w*t), |I|^(-1/2) exp(i*gamma_n*t)) in mpmath, on the exact lattice gamma_n = 2*pi*n/|I|."""
    import mpmath

    with mpmath.workdps(digits):
        a, b = mpmath.mpf(float(interval.a)), mpmath.mpf(float(interval.b))
        theta = mpmath.mpf(float(w)) - 2 * mpmath.pi * int(n) / (b - a)
        integral = b - a if theta == 0 else (mpmath.expj(theta * b) - mpmath.expj(theta * a)) / (1j * theta)
        return complex(integral / mpmath.sqrt(b - a))


def defect_norms_exact(family, directions, grid, digits: int = 30) -> np.ndarray:
    """||(Q - Id) e_k|| in mpmath on the exact lattice, from the float exponents, directions and |I| taken
    as exact: sqrt(|I| - (4/|I|) ||U_k||^2 sum_g sin(D_kg |I|/2)^2 / D_kg^2), D_kg = w_k - 2*pi*g/|I|,
    with |I| = ||e_k||^2 for unit U_k, as the pipeline takes it."""
    import mpmath

    with mpmath.workdps(digits):
        L = mpmath.mpf(float(grid.interval.length))
        gamma = [2 * mpmath.pi * int(g) / L for g in grid.n_values]
        out = []
        for w, U in zip(family.exponents, directions.matrix):
            norm2 = mpmath.fsum(mpmath.mpf(float(z.real)) ** 2 + mpmath.mpf(float(z.imag)) ** 2 for z in U)
            D = [mpmath.mpf(float(w)) - g for g in gamma]
            energy = mpmath.fsum(L**2 / 4 if x == 0 else mpmath.sin(x * L / 2) ** 2 / x**2 for x in D)
            out.append(float(mpmath.sqrt(max(L - 4 / L * norm2 * energy, 0))))
        return np.array(out)


def grid_system(grid: FourierGrid) -> ExponentialSystem:
    """The grid's functions E_j exp(i*gamma_n*t), n-major, as an (unnormalized) exponential system."""
    family = ExponentFamily(np.repeat(grid.frequencies, grid.d))
    return ExponentialSystem(family, DirectionAssignment(grid.d, np.tile(np.eye(grid.d), (grid.n_values.size, 1))))


def nodes(system: DividedDifferenceSystem) -> list[np.ndarray]:
    """The node set of each function of a DD system, in order: family positions first..l of each prefix."""
    x = system.family.exponents
    return [x[first : l + 1] for first, last in system.chains for l in range(first, last + 1)]


def hermiticity_residual(G: np.ndarray) -> float:
    """max |G - G^H|, in the dtype of G."""
    return float(np.max(np.abs(G - G.conj().T)))


def profile_terms(system, tmax):
    """(phases, coefs, orders, starts) of every function's profile: W * i^m per divided-difference term.

    One ``divided_difference_terms`` call per function, apart from ``gram._terms``' one pass over
    the one- and two-node prefixes of a DD system.
    """
    if isinstance(system, DividedDifferenceSystem):
        terms = [divided_difference_terms(x, tmax) for x in nodes(system)]
    else:
        terms = [(np.array([w]), np.ones(1), np.zeros(1, dtype=int)) for w in system.family.exponents]
    phases, weights, orders = (np.concatenate(parts) for parts in zip(*terms))
    counts = np.array([p.size for p, _, _ in terms])
    return phases, weights * 1j**orders, orders, np.cumsum(counts) - counts


def _profile_products(sources, targets, interval):
    """S[s, a] = (profile_s, profile_a), every term pair at once."""
    tmax = max(abs(interval.a), abs(interval.b))
    (ps, cs, ms, ss), (pt, ct, mt, st) = profile_terms(sources, tmax), profile_terms(targets, tmax)
    S = np.multiply.outer(cs, ct.conj()) * exp_moments(np.subtract.outer(ps, pt), np.add.outer(ms, mt), interval)
    return np.add.reduceat(np.add.reduceat(S, ss, axis=0), st, axis=1)


def inner_matrix(sources, targets, interval):
    """K[alpha, s] = (source_s, target_alpha) in L2(I, C^d) for exponential or DD systems, unblocked.

    Every term of a source profile is paired with every term of a target
    profile in one array, both sides expanded on their own (no triangle, no
    mirror), and a normalized side is divided by the norms of its own Gram's
    diagonal: the rectangular form of the Gram kernel.
    """
    U, V = sources.directions.matrix, targets.directions.matrix
    if U.shape[1] != V.shape[1]:
        raise ValueError(f"source and target systems live in different direction spaces: "
                         f"C^{U.shape[1]} and C^{V.shape[1]}")
    S = _profile_products(sources, targets, interval)
    for side, axis in ((sources, 1), (targets, 0)):
        if getattr(side, "normalize", False):
            S /= np.expand_dims(np.sqrt(np.diag(_profile_products(side, side, interval)).real), axis)
    return (np.einsum("kd,jd->kj", U, V.conj()) * S).T


def grid_inner_matrix(sources, targets, interval):
    """``inner_matrix`` that also takes a ``FourierGrid`` on either side.

    A grid side is its ``grid_system`` divided by sqrt(|I|), so its functions
    are orthonormal; the lattice closed form of ``grid_cauchy_factors`` is not used.
    """
    scale = 1.0
    if isinstance(sources, FourierGrid):
        sources, scale = grid_system(sources), scale * math.sqrt(interval.length)
    if isinstance(targets, FourierGrid):
        targets, scale = grid_system(targets), scale * math.sqrt(interval.length)
    return inner_matrix(sources, targets, interval) / scale


def oscillation_panel_rule(interval, rate):
    """Composite Gauss-Legendre nodes/weights with <= pi/4 phase per panel."""
    L = interval.length
    n_panels = max(2, math.ceil(L * max(rate, 0.0) / PANEL_PHASE_SPAN))
    u, w = np.polynomial.legendre.leggauss(PANEL_ORDER)
    edges = np.linspace(interval.a, interval.b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    t = (mid[:, None] + half[:, None] * u[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return t, weights


def dd_simplex_profile(nodes, t):
    """A DD profile from the simplex form at an order of the oracle's own: max(24, ceil(theta) + 24).

    theta = (node spread) * max|t| is the phase the rule must resolve; the
    order is well above what Gauss-Legendre needs for it at any theta.
    Shares neither the library's route choice nor its order rule.
    """
    theta = float(nodes[-1] - nodes[0]) * float(np.max(np.abs(t)))
    return eval_dd_hermite_genocchi(nodes, t, quad_order=max(24, math.ceil(theta) + 24))


def dd_inner_quadrature(k, n, system, interval, grid=None):
    """(U_k f_k, U_n f_n) over I by oscillation-adjusted panel quadrature, for functions k, n of a DD system.

    With a Fourier ``grid``, function n is the grid's n-th function instead,
    |I|^(-1/2) E_j exp(i*gamma*t) in the grid's n-major order.  The panels are
    sized on the uncentered nodes, and the profiles come from
    ``dd_simplex_profile``, not from the library's terms.
    """
    nodes_k, Uk = nodes(system)[k], system.directions.matrix[k]
    if grid is None:
        nodes_n, Un, scale = nodes(system)[n], system.directions.matrix[n], 1.0
    else:
        nodes_n = grid.frequencies[n // grid.d : n // grid.d + 1]
        Un, scale = np.eye(grid.d)[n % grid.d], 1.0 / math.sqrt(interval.length)
    rate = float(np.max(np.abs(nodes_k)) + np.max(np.abs(nodes_n)))
    t, w = oscillation_panel_rule(interval, rate)
    fk = dd_simplex_profile(nodes_k, t)
    fn = dd_simplex_profile(nodes_n, t)
    scalar = np.sum(w * fk * np.conj(fn))
    return complex(np.vdot(Un, Uk) * scalar * scale)


def defect_majorant_series(d, length, R, n_terms=10**6):
    """8 d |I|^-1 sum_{n>=0} (2 pi n / |I| + R)^-2: n_terms explicit terms plus the integral tail."""
    a = 2.0 * math.pi / length
    n = np.arange(n_terms, dtype=float)
    series = float(np.sum(1.0 / (a * n + R) ** 2))
    tail = 1.0 / (a * (a * n_terms + R))
    return 8.0 * d / length * (series + tail)


def full_kernel_gram(system: ExponentialSystem, interval) -> np.ndarray:
    """Gram of an exponential system with all n^2 entries in complex arithmetic.

    The kernel's formula entry by entry, as one matrix: G[a, s] =
    (sum_d U_s[d] conj(U_a[d])) * exp_inner_closed_form(w_s - w_a), the
    direction sum in the einsum's fixed order, returned transposed (Fortran
    order) like ``assemble_gram``.
    """
    x, U = system.family.exponents, system.directions.matrix
    K = np.einsum("kd,jd->kj", U, U.conj())
    K *= exp_inner_closed_form(x[:, None] - x[None, :], interval)
    return K.T


def centered_sinc_gram(system: ExponentialSystem, interval) -> np.ndarray:
    """Gram of an exponential system on an interval centered at 0, all n^2 entries in one array.

    The single-node centered formula written out: G[a, s] = (sum_d U_s[d]
    conj(U_a[d])) * |I| sin(x)/x at x = (w_s - w_a)|I|/2, the direction sum a
    sum of real outer products started at 0 for real U and the einsum for
    complex U, and sin(x)/x by a division masked to |x| > SMALL_PHASE, 1
    elsewhere.  Returned transposed (Fortran order) like ``assemble_gram``.
    """
    x, U, L = system.family.exponents, system.directions.matrix, interval.length
    K = np.einsum("kd,jd->kj", U, U.conj()) if np.any(U.imag) else sum(np.multiply.outer(u, u) for u in U.real.T)
    half = np.subtract.outer(x, x) * (0.5 * L)
    ratio = np.divide(np.sin(half), half, out=np.ones_like(half), where=np.abs(half) > SMALL_PHASE)
    K *= ratio * L
    K.flat[:: x.size + 1] = K.diagonal().real
    return K.T


def exp_moments_full_sum(theta, m, interval) -> np.ndarray:
    """``exp_moments`` with every Legendre order n <= max(m) summed on every element.

    The coefficients a[m, n] vanish for n > m, so those terms add zeros; the
    recurrence for a, the Rayleigh sum and its j_n up to an element's m
    (``gram._spherical_jn``, whose values there depend on its theta and m alone)
    are the kernel's.  Above m, j_n is scipy's, so those terms multiply real values.
    """
    from scipy.special import spherical_jn

    theta, m = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(m))
    out = exp_inner_closed_form(theta, interval)
    higher = m > 0
    theta, m = theta[higher], m[higher]
    c, h = 0.5 * (interval.a + interval.b), 0.5 * interval.length
    cu, hu = np.array([c, h]) / max(abs(interval.a), abs(interval.b))
    a = np.zeros((m.max(initial=0) + 1,) * 2)
    a[0, 0] = 1.0
    n = np.arange(a.shape[0])
    up, down = hu * (n + 1) / (2 * n + 1), hu * n / (2 * n + 1)
    for k in range(1, a.shape[0]):
        a[k] = cu * a[k - 1]
        a[k, 1:] += up[:-1] * a[k - 1, :-1]
        a[k, :-1] += down[1:] * a[k - 1, 1:]
    order, x = np.argsort(m, kind="stable"), theta * h
    J = spherical_jn(n[:, None], x)
    for k, (first, j) in enumerate(_spherical_jn(x[order], m[order], np.exp(x[order] * 1j))):
        J[k, order[first:]] = j
    total = sum(a[m, n] * (2 * 1j**n) * J[n] for n in range(a.shape[0]))
    out[higher] = h * np.exp(1j * theta * c) * total
    return out


def dd_recurrence(nodes: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Confluent Newton recurrence for the divided difference of exp(i*w*t)."""
    r = nodes.size
    col = np.exp(1j * np.multiply.outer(nodes, t))  # order-0 column, shape (r, nt)
    for order in range(1, r):
        dx = nodes[order:] - nodes[: r - order]
        new = np.empty((r - order,) + t.shape, dtype=complex)
        for i in range(r - order):
            if dx[i] == 0.0:
                # exactly repeated nodes: derivative rule (i t)^order / order!
                new[i] = (1j * t) ** order * np.exp(1j * nodes[i] * t) / math.factorial(order)
            else:
                new[i] = (col[i + 1] - col[i]) / dx[i]
        col = new
    return col[0]


def simplex_rule(q: int, order: int):
    """Tensor Gauss-Legendre rule on [0,1]^q mapped to the ordered simplex.

    Returns barycentric-increment coordinates s (npts, q) with
    1 >= s_1 >= ... >= s_q >= 0 and combined weights including the Jacobian
    prod_k u_k^(q-1-k) of the map s_j = u_1*...*u_j.
    """
    u, w = np.polynomial.legendre.leggauss(order)
    U = np.stack([g.ravel() for g in np.meshgrid(*([0.5 * (u + 1.0)] * q), indexing="ij")], axis=-1)
    W = np.prod(np.stack([g.ravel() for g in np.meshgrid(*([0.5 * w] * q), indexing="ij")], axis=-1), axis=1)
    for k in range(q - 1):
        W = W * U[:, k] ** (q - 1 - k)
    return np.cumprod(U, axis=1), W


def hermite_genocchi(x: np.ndarray, tarr: np.ndarray, order: int) -> np.ndarray:
    """The simplex form of the divided difference over x at t, ``order`` points per dimension."""
    q = x.size - 1
    if q == 0:
        return np.exp(1j * x[0] * tarr)
    S, W = simplex_rule(q, order)
    # phases from x[0], whose exp(i*x[0]*t) is one factor: rounding scales with the spread
    phase = S @ np.diff(x)  # (npts,)
    integral = np.einsum("p,pn->n", W, np.exp(1j * np.multiply.outer(phase, tarr)))
    return (1j * tarr) ** q * np.exp(1j * x[0] * tarr) * integral


def pair_order(theta: float) -> int:
    """Fewest Gauss-Legendre points for integral_0^1 exp(i*theta*s) ds, one theta < 1 at a time.

    Adds points until the remainder (n!)^4 theta^(2n) / ((2n+1) ((2n)!)^3) falls below 2^-53 / (1 + theta),
    apart from ``basisfuncs._pair_order``, which looks theta up among the precomputed switch points.
    """
    n = 1
    while theta > 0.0 and (4 * math.lgamma(n + 1) - math.log(2 * n + 1) - 3 * math.lgamma(2 * n + 1)
                           + 2 * n * math.log(theta) + math.log(1.0 + theta) > -53 * math.log(2)):
        n += 1
    return n


def pair_switches() -> list[float]:
    """For n = 1..6, the least theta < 1 at which ``pair_order`` asks for more than n points, by bisection."""
    switches = []
    for n in range(1, 7):
        lo, hi = 0.0, 1.0 - 2.0**-53
        while np.nextafter(lo, 1.0) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if pair_order(mid) > n else (mid, hi)
        switches.append(hi)
    return switches


def dd_profile(nodes, t):
    """The library's divided difference at t: its terms for tmax = max|t|, summed.

    sum_p weights_p * (i*t/tmax)^orders_p * exp(i*phases_p*t), the profile that
    ``divided_difference_terms`` represents; scalar or array t.  At t = 0 alone
    any tmax serves, and 1 is taken.
    """
    tt = np.asarray(t, dtype=float)
    tarr = np.atleast_1d(tt)
    tmax = float(np.max(np.abs(tarr), initial=0.0)) or 1.0
    phases, weights, orders = divided_difference_terms(nodes, tmax)
    out = weights @ (np.power.outer(1j * tarr / tmax, orders).T * np.exp(1j * np.multiply.outer(phases, tarr)))
    return out[0] if tt.ndim == 0 else out.reshape(tt.shape)


def eval_dd_hermite_genocchi(nodes, t, quad_order: int = 16):
    """Iterated-integral (simplex) form of the divided difference.

    Exact for one node; for r nodes integrates
    (i t)^(r-1) * exp(i * phase(s) * t) over the ordered simplex via a
    tensorized Gauss-Legendre rule with quad_order points per dimension.
    Node order does not matter (the value is symmetric in the nodes).
    """
    if quad_order < 2:
        raise ValueError("quad_order must be at least 2")
    x = np.atleast_1d(np.asarray(nodes, dtype=float))
    if x.size == 0:
        raise ValueError("nodes must be nonempty")
    tt = np.asarray(t, dtype=float)
    tarr = np.atleast_1d(tt)
    out = hermite_genocchi(x, tarr, quad_order)
    return out[0] if tt.ndim == 0 else out.reshape(tt.shape)


def eval_dd_exact(nodes, t, digits: int = 80) -> np.ndarray:
    """The divided difference of w -> exp(i*w*t) by the Newton recurrence in mpmath at ``digits`` digits.

    The nodes must be distinct.  Each level of the recurrence cancels about
    log10(1 / (gap * |t|)) digits, which the working precision absorbs, so
    the result is exact to double precision for clustered nodes too; it
    shares no code with the library's evaluators.
    """
    import mpmath

    with mpmath.workdps(digits):
        x = [mpmath.mpf(float(v)) for v in np.atleast_1d(nodes)]
        out = []
        for tv in np.atleast_1d(np.asarray(t, dtype=float)):
            col = [mpmath.expj(v * mpmath.mpf(float(tv))) for v in x]
            for order in range(1, len(x)):
                col = [(col[i + 1] - col[i]) / (x[i + order] - x[i]) for i in range(len(x) - order)]
            out.append(complex(col[0]))
    return np.array(out)


def dd_derivative(nodes, t: float, h: float | None = None) -> complex:
    """Central finite difference in t of the divided difference."""
    if h is None:
        h = DERIVATIVE_STEP_RTOL * max(1.0, abs(t))
    if h <= 0:
        raise ValueError("step h must be positive")
    return (dd_profile(nodes, t + h) - dd_profile(nodes, t - h)) / (2.0 * h)


def dd_derivative_bound(nodes, t: float) -> float:
    """Growth bound for |d/dt [mu_1,...,mu_r](t)|, t >= 0.

    (r-1) t^(r-2) / (r-1)!  +  (|mu_r - mu_{r-1}| + ... + |mu_2 - mu_1| + |mu_1|) t^(r-1) / (r-1)!
    with mu_i the nodes as given (the first listed node enters as |mu_1|).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    mu = np.atleast_1d(np.asarray(nodes, dtype=float))
    r = mu.size
    if r == 0:
        raise ValueError("nodes must be nonempty")
    fact = math.factorial(r - 1)
    walk = float(np.sum(np.abs(np.diff(mu))) + abs(mu[0]))
    if r == 1:
        return walk  # t^0 / 0! term only
    return (r - 1) * t ** (r - 2) / fact + walk * t ** (r - 1) / fact


@dataclass
class ThresholdCheckReport:
    empirical_C: float
    pairs_evaluated: int
    max_by_separation_decade: dict
    gamma_sample: np.ndarray


def dd_threshold_check(
    family: ExponentFamily,
    chains,
    interval: IntervalSpec,
    gamma_sample,
) -> ThresholdCheckReport:
    """Empirical constant of the decay bound for divided-difference coefficients.

    Measures max over (k, n) of |integral of f_k(t) exp(-i gamma_n t)| times
    |w_k - gamma_n| and summarizes it by separation decade so any blow-up
    with tightening clusters or growing separation is visible.
    """
    gammas = np.asarray(gamma_sample, dtype=float)
    # every summary below is invariant under reordering the sample
    sample = ExponentFamily(np.sort(gammas))
    sources = DividedDifferenceSystem(family, chains, DirectionAssignment.constant(family, 1))
    targets = ExponentialSystem(sample, DirectionAssignment.constant(sample, 1))
    A = inner_matrix(sources, targets, interval).T  # A[k, n] = (f_k, exp(i gamma_n t))
    omegas = np.array([x[-1] for x in nodes(sources)])  # the exponent each f_k ends on
    sep = np.abs(omegas[:, None] - sample.exponents[None, :])
    prod = np.abs(A) * sep
    by_decade: dict[int, float] = {}
    nonzero = sep > 0
    decades = np.floor(np.log10(sep, where=nonzero, out=np.zeros_like(sep))).astype(int)
    for dec in np.unique(decades[nonzero]):
        sel = nonzero & (decades == dec)
        by_decade[int(dec)] = float(prod[sel].max())
    return ThresholdCheckReport(
        empirical_C=float(prod.max()),
        pairs_evaluated=int(prod.size),
        max_by_separation_decade=by_decade,
        gamma_sample=gammas,
    )


def cross_inner_matrix(family, directions, grid) -> np.ndarray:
    """X[k, (g, j)] = (e_k, f_{g,j}) as one complex n x p array, flattened g-major then direction index.

    Built entry by entry from the factors of ``grid_cauchy_factors`` as
    U_k[j] * rho_k * exp(-i*gamma_g*a) * C[k, g], the matrix the pipeline
    never forms: the tests compare it with the generic kernel and mpmath.
    """
    U = directions.matrix
    if U.shape[0] != len(family):
        raise ValueError(f"direction matrix has {U.shape[0]} rows for {len(family)} functions")
    if directions.d != grid.d:
        raise ValueError(f"source and target systems live in different direction spaces: "
                         f"C^{directions.d} and C^{grid.d}")
    rho, C = grid_cauchy_factors(family, grid)
    S = C * np.exp(-1j * grid.frequencies * grid.interval.a)
    X = S[:, :, None] * (U * rho[:, None])[:, None, :]
    return X.reshape(len(family), -1)


def cross_defect_norms(X, interval) -> np.ndarray:
    """Per-row norm of (Q - Id) e_k from a complex cross matrix X: sqrt(|I| - sum_a |X[k, a]|^2)."""
    captured = np.sum(np.abs(X) ** 2, axis=1)
    return np.sqrt(np.clip(interval.length - captured, 0.0, None))


def projection_defect_norms(C2: np.ndarray, directions: np.ndarray, interval: IntervalSpec) -> np.ndarray:
    """Per-function norm of (Q - Id) e_k for Q the projection onto a Fourier grid, from the explicit factor.

    ``C2`` holds the squares of the C of ``grid_cauchy_factors`` on the grid's
    frequencies and ``directions`` the unit rows U_k, so the captured coefficient
    energy is (4/|I|) ||U_k||^2 sum_g C[k, g]^2; Parseval on the full grid gives
    ||e_k||^2 = |I|, so the defect is the complement of that energy, apart from
    the closed-form tail sum of ``grid_cauchy_sums``.
    """
    captured = np.sum(C2, axis=1) * (4.0 / interval.length) * np.sum(directions.real**2 + directions.imag**2, axis=1)
    return np.sqrt(np.clip(interval.length - captured, 0.0, None))


def explicit_cauchy_sums(family, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, Q, CC) from the explicit n x card(grid) factor C of ``grid_cauchy_factors``: the row sums
    T = sum_g C, the out-of-grid energies Q = (|I|/2)^2 - sum_g C^2 and C C^T from one BLAS ``syrk`` in
    the upper triangle (0 below), apart from the closed forms of ``grid_cauchy_sums``."""
    _, C = grid_cauchy_factors(family, grid)
    CC = blas.get_blas_funcs("syrk", (C,))(1.0, C.T, trans=1, lower=0)
    return np.sum(C, axis=1), (0.5 * grid.interval.length) ** 2 - np.sum(C**2, axis=1), CC


def cross_gram_upper(family, directions, grid) -> np.ndarray:
    """The upper triangle of P = conj(X) X^T = (conj(rho) rho^T) o (conj(U) U^T) o (C C^T), 0 below, with
    C C^T from ``explicit_cauchy_sums``' ``syrk``: the cross Gram as the trace formed it from the
    explicit factor, before its closed form."""
    rho, _ = grid_cauchy_factors(family, grid)
    rU = directions.matrix * rho[:, None]
    return np.einsum("kd,ld->kl", rU.conj(), rU) * explicit_cauchy_sums(family, grid)[2]


def _trace_window(family, directions, y, r) -> ExponentialSystem:
    """The exponential system of the positions with |w_k - y| < r."""
    inside = np.flatnonzero(np.abs(family.exponents - y) < r)
    lo, hi = int(inside[0]), int(inside[-1])
    window_dirs = DirectionAssignment(directions.d, directions.matrix[lo : hi + 1])
    return ExponentialSystem(family.slice_positions(lo, hi), window_dirs)


def trace_by_inverse(family, directions, interval, y, r, R) -> tuple[complex, complex]:
    """Both routes of the trace of P_r Q_{r+R} on V_r, through the inverse Gram.

    Route one is tr(G^-1 B) with B = (X X^H)^T from a Cholesky solve; route
    two is n + sum_k (sum_a X[k, a] conj(Y[a, k]) - 1) with the dual
    coefficients Y = X^T G^-1 and G^-1 from a solve against the identity.
    Returns (route one, route two).
    """
    window = _trace_window(family, directions, y, r)
    n = len(window.family)
    cho = gated_cho_factor(full_kernel_gram(window, interval))
    grid = FourierGrid.centered(interval, directions.d, y, r + R)
    X = cross_inner_matrix(window.family, window.directions, grid)
    B = (X @ X.conj().T).T  # B[m, k] = (Q e_k, e_m)
    trace_direct = complex(np.trace(cho_solve(cho, B)))
    Y = X.T @ cho_solve(cho, np.eye(n, dtype=complex))
    corrections = np.einsum("ka,ak->k", X, Y.conj()) - 1.0
    return trace_direct, complex(n + np.sum(corrections))


def trace_exact(family, directions, interval, y, r, R, digits: int = 40) -> float:
    """tr(G^-1 B) of ``trace_by_inverse`` route one in mpmath, on the exact lattice: the real part.

    Every entry is a closed-form integral of exp(i*theta*t) at ``digits``
    digits, from the float exponents, directions and interval ends taken as
    exact, and G is inverted at the same precision.
    """
    import mpmath

    inside = np.flatnonzero(np.abs(family.exponents - y) < r)
    grid = FourierGrid.centered(interval, directions.d, y, r + R)
    with mpmath.workdps(digits):
        a, b = mpmath.mpf(float(interval.a)), mpmath.mpf(float(interval.b))
        w = [mpmath.mpf(float(v)) for v in family.exponents[inside]]
        U = [[mpmath.mpc(complex(z)) for z in row] for row in directions.matrix[inside]]
        gamma = [2 * mpmath.pi * int(m) / (b - a) for m in grid.n_values]

        def integral(theta):
            return b - a if theta == 0 else (mpmath.expj(theta * b) - mpmath.expj(theta * a)) / (1j * theta)

        def dot(k, m):
            return mpmath.fsum(u * mpmath.conj(v) for u, v in zip(U[k], U[m]))

        n = len(w)
        c = [[integral(wk - g) for g in gamma] for wk in w]  # sqrt(|I|) (exp(i w_k t), exp(i gamma t))
        G, B = mpmath.matrix(n, n), mpmath.matrix(n, n)
        for j in range(n):
            for k in range(n):
                G[j, k] = dot(k, j) * integral(w[k] - w[j])
                B[j, k] = dot(k, j) * mpmath.fsum(x * mpmath.conj(z) for x, z in zip(c[k], c[j])) / (b - a)
        T = mpmath.inverse(G) * B
        return float(mpmath.re(mpmath.fsum(T[i, i] for i in range(n))))


@dataclass
class DensityChainReport:
    rows: list
    all_hold: bool
    d: int
    R: float

    def to_rows(self) -> list[dict]:
        return [dict(row) for row in self.rows]


def density_chain_check(
    family: ExponentFamily,
    d: int,
    interval: IntervalSpec,
    r_grid,
    R: float,
    y: float | None = None,
    directions: DirectionAssignment | None = None,
) -> DensityChainReport:
    """Counting inequality Card(window set) <= (d + eps(R)) Card(grid set).

    eps(R) is instantiated from the measured defects: the correction term of
    the trace decomposition is bounded by sum_k defect_k * ||phi_k||, so
    eps(R) = that bound divided by Card(grid).  The dual norms ||phi_k|| are
    sqrt diag G^-1 of the V_r Gram, from a Cholesky factor of its own.  Also
    reports the implied lower bound on the interval length per grid radius.
    """
    if directions is None:
        directions = DirectionAssignment.constant(family, d)
    if directions.d != d:
        raise ValueError("directions dimension does not match d")
    if y is None:
        y = 0.5 * (family.exponents[0] + family.exponents[-1])
    rows = []
    all_hold = True
    for r in [float(v) for v in r_grid]:
        try:
            _, _, defect_norms, card_omega_r, card_gamma = _trace_routes(family, directions, interval, y, r, R)
        except (ValueError, ArithmeticError) as exc:
            raise GridPointFailure(f"at r={r:.6g}: {exc}") from exc
        window = _trace_window(family, directions, y, r)
        C = cho_solve(gated_cho_factor(assemble_gram(window, interval)), np.eye(len(window.family), dtype=complex))
        dual_norms = np.sqrt(np.real(np.diag(C)))
        correction_bound = float(np.sum(defect_norms * dual_norms))
        eps_R = correction_bound / card_gamma
        lhs = card_omega_r
        rhs = (d + eps_R) * card_gamma
        holds = lhs <= rhs + 1e-9
        all_hold = all_hold and holds
        implied_length = (
            math.pi * (card_omega_r / (d + eps_R) - 1.0) / (r + R)
        )
        rows.append(
            {
                "r": r,
                "card_omega_r": card_omega_r,
                "card_gamma": card_gamma,
                "eps_R": eps_R,
                "holds": holds,
                "ratio": lhs / card_gamma,
                "implied_length_lower": implied_length,
            }
        )
    return DensityChainReport(rows=rows, all_hold=all_hold, d=d, R=float(R))


def read_artifact_config(path) -> ExperimentConfig:
    """Re-parse the config echoed into an artifact (CSV header or JSON field)."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return parse_config(json.dumps(json.loads(text)["config"]))
    for line in text.splitlines():
        if line.startswith("# config="):
            return parse_config(line[len("# config=") :])
    raise ValueError(f"no config echo found in {path}")

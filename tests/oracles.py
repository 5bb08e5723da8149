"""Independent oracles: brute-force counting, composite quadrature, closed forms.

These deliberately avoid the code paths they are used to check: the counting
oracle slides a window over explicit candidate anchors instead of trusting
the left-endpoint argument, the quadrature oracle uses its own panel sizing,
and the small linear-algebra oracles are written out by hand.  The entrywise
inner products evaluate one pair at a time, apart from the matrix kernel,
with the left-endpoint-phase closed form, apart from the kernel's
midpoint-phase one, and the majorant series is summed term by term, apart
from its closed form.
"""

import math

import numpy as np

from inghamlab.basisfuncs import eval_divided_difference
from inghamlab.gram import SMALL_PHASE, oscillation_panel_rule


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
    """(e_k, e_n) = (U_k, U_n)_H * integral of exp(i*(w_k - w_n)*t) over I."""
    wk = family.value(k)
    wn = family.value(n)
    Uk = directions.direction(k)
    Un = directions.direction(n)
    return complex(np.vdot(Un, Uk) * exp_inner_closed_form_offset(wk - wn, interval))


def dd_inner_quadrature(k, n, ddbasis, directions, interval):
    """(U_k f_k, U_n f_n) over I by oscillation-adjusted panel quadrature."""
    nodes_k = ddbasis.nodes_for(k)
    nodes_n = ddbasis.nodes_for(n)
    rate = float(np.max(np.abs(nodes_k)) + np.max(np.abs(nodes_n)))
    t, w = oscillation_panel_rule(interval, rate)
    fk = eval_divided_difference(nodes_k, t)
    fn = eval_divided_difference(nodes_n, t)
    scalar = np.sum(w * fk * np.conj(fn))
    return complex(np.vdot(directions.direction(n), directions.direction(k)) * scalar)


def defect_majorant_series(d, length, R, n_terms=10**6):
    """8 d |I|^-1 sum_{n>=0} (2 pi n / |I| + R)^-2: n_terms explicit terms plus the integral tail."""
    a = 2.0 * math.pi / length
    n = np.arange(n_terms, dtype=float)
    series = float(np.sum(1.0 / (a * n + R) ** 2))
    tail = 1.0 / (a * (a * n_terms + R))
    return 8.0 * d / length * (series + tail)

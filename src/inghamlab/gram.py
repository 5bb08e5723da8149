"""Inner products over a bounded interval and Gram machinery.

Every system handled here is described once as f_k(t) = U_k [nodes_k](t):
a fixed unit vector U_k times the divided difference of w -> exp(i*w*t)
over a node set, divided by its L2(I) norm for normalized systems.  A plain
exponential is a single node.  One routine, ``assemble_gram``, computes the
Gram of such a system in closed form, each pair once: each divided
difference is a short sum of terms (i*t/tmax)^m * W * exp(i*phi*t), with
tmax = max(|a|, |b|), and the inner product of two terms is a moment of
exp(i*theta*t) over the interval in the same units.  An exponential Gram is
float64 where it is real (centered, real U_k).  Inner products with the
orthonormal Fourier grid on I, whose frequencies form an exact lattice, are
a scaled Cauchy matrix; ``grid_cauchy_factors`` returns its real Cauchy
factor C and a row phase, never the complex n x p matrix itself, and
``grid_cauchy_sums`` its sums over the grid in closed form, O(n) per grid
of consecutive frequencies: with C[k, g] = (sigma_k/s) / (u_k + m_k - g),
the row sums T_k are differences of the digamma function and the
out-of-grid energies Q_k trigamma tails, so a defect is the tail sum
(4/|I|) ||U_k||^2 Q_k, and by partial fractions
(C C^T)[k, l] = (sigma_l T_k - sigma_k T_l) / (w_l - w_k) off the diagonal
and (|I|/2)^2 - Q_k on it.  Only the trace's cross-factor route builds C;
for close pairs, where that quotient loses digits, the trace sums the rows
of C it builds for them alone.
``extreme_eigenvalues`` takes over the Gram it reads: its tridiagonal
reduction runs in the lower triangle, and its residual check reads the upper.

Gram entries follow the quadratic-form convention
``G[j, k] = (f_k, f_j)`` (second argument conjugated), so
``coef.conj() @ G @ coef`` is the squared L2(I, H) norm of ``sum_k coef_k f_k``
and the dual (biorthogonal) coefficients are exactly the inverse Gram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, cho_factor, lapack

from .basisfuncs import DirectionAssignment, prefix_terms
from .exponents import ExponentFamily

__all__ = [
    "IntervalSpec",
    "FourierGrid",
    "NearSingularGramError",
    "ExponentialSystem",
    "DividedDifferenceSystem",
    "exp_inner_closed_form",
    "exp_moments",
    "assemble_gram",
    "grid_cauchy_factors",
    "grid_cauchy_sums",
    "extreme_eigenvalues",
    "gated_cho_factor",
]

SMALL_PHASE = 1e-8  # |theta| * |I| / 2 at or below this takes sin(x)/x = 1 (error x^2/6)
NEAR_SINGULAR_RTOL = 1e-10
EIGEN_RESIDUAL_RTOL = 1e-8
TERM_PRODUCTS_PER_BLOCK = 2**16  # term pairs in a Gram's row block: 1.7 MB (real, n = 1025) to 5.5 MB of temporaries
MIN_ROW_BLOCKS = 4  # one block forms every pair of the diagonal block twice; four form 5/8 of all pairs


@dataclass(frozen=True)
class IntervalSpec:
    """The bounded observation interval (a, b)."""

    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"interval must satisfy b > a, got ({self.a}, {self.b})")
        if not math.isfinite(self.b - self.a):  # as ExponentFamily rejects an infinite span
            raise ValueError(f"interval length must be finite, got ({self.a}, {self.b})")

    @property
    def length(self) -> float:
        return self.b - self.a

    @classmethod
    def of_length(cls, length: float, start: float = 0.0) -> "IntervalSpec":
        return cls(start, start + length)


class NearSingularGramError(ValueError):
    """Raised when a Gram matrix is too close to singular to invert reliably."""

    def __init__(self, min_eigenvalue: float, norm: float):
        self.min_eigenvalue = min_eigenvalue
        self.norm = norm
        super().__init__(
            f"near-singular Gram: min eigenvalue {min_eigenvalue:.3e} "
            f"(threshold {NEAR_SINGULAR_RTOL:.0e} * norm {norm:.3e})"
        )


def exp_inner_closed_form(theta, interval: IntervalSpec):
    """Integral of exp(i*theta*t) over the interval, cancellation-free.

    Uses the midpoint-phase form exp(i*theta*c) * |I| * sin(x)/x with
    c = a/2 + b/2 (halved first, so finite whenever a and b are) and
    x = theta*|I|/2, exact to machine precision for all phase sizes; for
    |x| <= SMALL_PHASE the ratio sin(x)/x is 1 to rounding and is set to 1.
    On an interval centered at 0 every value is exactly real.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    ratio = _sinc(th.copy(), interval.length)  # a copy: _sinc overwrites its argument
    out = th * (1j * (0.5 * interval.a + 0.5 * interval.b))
    np.exp(out, out=out)
    out *= ratio
    return complex(out[0]) if np.isscalar(theta) else out.reshape(np.shape(theta))


def _sinc(theta: np.ndarray, length: float) -> np.ndarray:
    """|I| * sin(x)/x at x = theta*|I|/2, the real factor of ``exp_inner_closed_form``; overwrites theta."""
    x = np.multiply(theta, 0.5 * length, out=theta)
    small = np.abs(x) <= SMALL_PHASE
    with np.errstate(invalid="ignore"):  # 0/0 at x = 0, one of the small entries
        ratio = np.divide(np.sin(x), x, out=x)
    ratio[small] = 1.0
    return np.multiply(ratio, length, out=ratio)


def exp_moments(theta, m, interval: IntervalSpec) -> np.ndarray:
    """M_m(theta) = integral of (t/tmax)^m exp(i*theta*t) over the interval, elementwise.

    tmax = max(|a|, |b|), so |M_m| <= |I| at every order.  ``m`` is an integer
    array broadcast against ``theta``.  M_0 is ``exp_inner_closed_form``; for
    m >= 1, with t = c + h*u on the interval's midpoint c and half-length h,
    Rayleigh's plane-wave expansion (DLMF 10.60) gives
    M_m = h * exp(i*theta*c) * sum_n a_n * 2 * i^n * j_n(theta*h), where a_n
    are the Legendre coefficients of ((c + h*u) / tmax)^m and j_n the spherical
    Bessel functions of ``_spherical_jn``: a finite sum, free of cancellation.
    """
    theta, m = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(m))
    out = np.empty(theta.shape, dtype=complex)
    # a[m, n] = 0 for n > m, so order n is summed only where m >= n: a suffix once sorted by m
    order = np.argsort(m.astype(np.uint16), axis=None, kind="stable")  # a radix sort: a stable int64 sort is slower
    theta, m = theta.ravel()[order], m.ravel()[order]
    zero = np.searchsorted(m, 1)  # the order-0 lanes take the closed form
    np.put(out, order[:zero], exp_inner_closed_form(theta[:zero], interval))
    theta, m = theta[zero:], m[zero:]
    c, h = 0.5 * interval.a + 0.5 * interval.b, 0.5 * interval.length
    cu, hu = np.array([c, h]) / max(abs(interval.a), abs(interval.b))  # t / tmax = cu + hu*u
    a = np.zeros((m.max(initial=0) + 1,) * 2)  # a[k, n]: Legendre coefficient n of (cu + hu*u)^k
    a[0, 0] = 1.0
    n = np.arange(a.shape[0])
    up, down = hu * (n + 1) / (2 * n + 1), hu * n / (2 * n + 1)  # hu*u*P_n = up_n P_{n+1} + down_n P_{n-1}
    for k in range(1, a.shape[0]):  # (cu + hu*u)^k = (cu + hu*u) * (cu + hu*u)^(k-1)
        a[k] = cu * a[k - 1]
        a[k, 1:] += up[:-1] * a[k - 1, :-1]
        a[k, :-1] += down[1:] * a[k - 1, 1:]
    x, total = theta * h, np.zeros(theta.shape, dtype=complex)
    step = max(1, TERM_PRODUCTS_PER_BLOCK // a.shape[0])  # lanes per pass: 0.5 MB of _spherical_jn's ratios
    for lo in range(0, m.size, step):
        lanes, counts = slice(lo, lo + step), np.bincount(m[lo : lo + step], minlength=a.shape[0])
        parts = (total[lanes].real, total[lanes].imag)  # 2 * i^n is +-2, real for even n and imaginary for odd n
        for n, (first, j) in enumerate(_spherical_jn(x[lanes], m[lanes], np.exp(x[lanes] * 1j))):
            parts[n % 2][first:] += np.repeat(a[n:, n] * (2 * (-1) ** (n // 2)), counts[n:]) * j  # a[m, n] * 2 * i^n
    np.put(out, order[zero:], h * np.exp(theta * (1j * c)) * total)
    return out


def _spherical_jn(x: np.ndarray, m: np.ndarray, e: np.ndarray):
    """Yield (first, j_n(x[first:])) for n = 0..max(m), ``first`` the first lane with m >= n; m nondecreasing.

    Up to n = |x|, where it is stable, the forward recurrence j_n = (2n-1)/x * j_(n-1) - j_(n-2) from
    j_0 = sin(x)/x and j_(-1) = cos(x)/x, read off e = exp(i*x); above, j_(n-1) * r_n with Miller's backward
    ratios r_n = x / (2n+1 - x*r_(n+1)) (Gautschi, SIAM Rev. 9, 1967) from r = 0 at order m + L: below 1,
    anchored before the first zero of j_floor(|x|), and off by about (j_(m+L) / j_n)^2 < 2^-54 once L exceeds
    9 * (|x|/2)^(1/3) (Debye).  A lane's values depend on its x and m alone.
    """
    top, ax = int(m[-1]) if m.size else 0, np.abs(x)
    low = np.flatnonzero(ax < m)  # the lanes that leave the forward recurrence below their own m
    xl, ml, axl = x[low], m[low], ax[low]
    start, r, R = ml + 12 + (10 * (ml / 2) ** (1 / 3)).astype(int), np.zeros(low.size), [np.empty(0)] * (top + 1)
    ns = np.arange(int(start.max(initial=0)), 0, -1)
    with np.errstate(divide="ignore", over="ignore"):  # only in lanes that stay on the forward recurrence
        for n, k in zip(ns.tolist(), start.searchsorted(ns).tolist()):  # the lanes whose recurrence has started
            xk, rk = xl[k:], r[k:]
            np.divide(xk, (2 * n + 1) - xk * rk, out=rk)
            if n <= top:
                R[n] = r[(ml >= n) & (axl < n)]  # only the ratios read below: lanes with m >= n above |x|
    xs = np.where(ax < 1, 1.0, x)  # below |x| = 1 every order n >= 1 takes ratios, and 1/x may overflow
    j, prev, fj, fp = np.divide(e.imag, x, out=np.ones_like(x), where=x != 0), e.real / xs, 0, 0
    yield 0, j
    for n, first in enumerate(np.searchsorted(m, np.arange(1, top + 1)), 1):
        nxt = (2 * n - 1) * j[first - fj :] / xs[first:] - prev[first - fp :]
        lanes = low[(ml >= n) & (axl < n)]  # the lanes of R[n]
        nxt[lanes - first] = R[n] * j[lanes - fj]
        prev, fp, j, fj = j, fj, nxt, first
        yield first, j


@dataclass
class FourierGrid:
    """Frequencies 2*pi*n/|I| tensored with the coordinate directions E_1..E_d.

    The functions |I|^(-1/2) E_j exp(i*gamma_n*t) are an orthonormal family
    in L2(I, C^d); a full integer range of n is an orthonormal basis.
    """

    interval: IntervalSpec
    d: int
    n_values: np.ndarray

    def __post_init__(self):
        self.n_values = np.asarray(self.n_values, dtype=int)
        if self.n_values.size == 0:
            raise ValueError("Fourier grid must contain at least one frequency")
        if self.d < 1:
            raise ValueError("direction dimension d must be positive")

    @property
    def frequencies(self) -> np.ndarray:
        return 2.0 * math.pi * self.n_values / self.interval.length

    @property
    def size(self) -> int:
        """Number of functions (frequencies times directions)."""
        return self.n_values.size * self.d

    @classmethod
    def centered(cls, interval: IntervalSpec, d: int, y: float, radius: float) -> "FourierGrid":
        """All n with |gamma_n - y| < radius, strict inequality (ties excluded)."""
        if radius <= 0:
            raise ValueError("radius must be positive")
        L, y, radius = interval.length, float(y), float(radius)  # Python floats overflow to inf without a warning
        lo = (y - radius) * L / (2.0 * math.pi)
        hi = (y + radius) * L / (2.0 * math.pi)
        candidates = np.arange(math.floor(lo) - 1, math.ceil(hi) + 2)
        gamma = 2.0 * math.pi * candidates / L
        keep = np.abs(gamma - y) < radius
        if not np.any(keep):
            raise ValueError("no grid frequencies inside the window")
        return cls(interval=interval, d=d, n_values=candidates[keep])


def _check_rows(directions: DirectionAssignment, n: int) -> None:
    rows = directions.matrix.shape[0]
    if rows != n:
        raise ValueError(f"direction matrix has {rows} rows for {n} functions")


@dataclass
class ExponentialSystem:
    """The vector exponentials U_k exp(i*w_k*t), k over the family's positions."""

    family: ExponentFamily
    directions: DirectionAssignment

    def __post_init__(self):
        _check_rows(self.directions, len(self.family))


@dataclass
class DividedDifferenceSystem:
    """Divided differences [w_first, ..., w_l] over every prefix of every chain.

    ``chains`` holds (first, last) family positions, as ``detect_chains``
    returns them; the functions run chain by chain, l from first to last,
    each with one unit direction.  ``normalize=True`` rescales each profile
    to unit L2(I) norm; the raw (unnormalized) profiles are the default.
    """

    family: ExponentFamily
    chains: list[tuple[int, int]]
    directions: DirectionAssignment
    normalize: bool = False

    def __post_init__(self):
        _check_rows(self.directions, sum(last - first + 1 for first, last in self.chains))


def _terms(system, tmax: float):
    """(phases, coefs, orders, starts) of a system's profiles.

    Profile p sums coefs[r] * (t/tmax)^orders[r] * exp(i*phases[r]*t) over its terms r from starts[p] to the
    next start: W * i^m for the terms of ``divided_difference_terms``, one- and two-node prefixes in one pass.
    """
    if isinstance(system, DividedDifferenceSystem):
        first, last = np.array([(f, l) for f, e in system.chains for l in range(f, e + 1)], dtype=int).reshape(-1, 2).T
        phases, weights, orders, counts = prefix_terms(system.family.exponents, first, last, tmax)
        return phases, weights * 1j**orders, orders, np.cumsum(counts) - counts
    if not isinstance(system, ExponentialSystem):
        raise TypeError(f"unsupported system descriptor {type(system).__name__}")
    x = system.family.exponents
    return x, np.ones(x.size, dtype=complex), np.zeros(x.size, dtype=int), np.arange(x.size)


def _unit_scaled(coefs: np.ndarray, starts: np.ndarray, length: float) -> np.ndarray:
    """The coefs, each profile's times the power of two 2^k that brings c^2 |I| near 1 (c its largest
    |coef|) where c^2 |I| lies outside [2^-300, 2^300], and unchanged elsewhere.  A normalized Gram does
    not see a profile's scale, and a power of two scales every product of two terms exactly, so such a
    Gram is bitwise the same where it was in range, and far from it its products and norms neither
    overflow nor underflow."""
    size = 2 * np.frexp(np.maximum.reduceat(np.abs(coefs), starts))[1] + np.frexp(length)[1]  # log2(c^2 |I|) + [0, 3)
    k = np.where(np.abs(size) > 300, -size // 2, 0).repeat(np.diff(starts, append=coefs.size))
    return coefs * np.ldexp(1.0, k // 2) * np.ldexp(1.0, k - k // 2)  # two exact factors: 2^k alone can overflow


def assemble_gram(system, interval: IntervalSpec) -> np.ndarray:
    """Gram matrix of an exponential or divided-difference system over I, a plain ndarray:
    float64 for exponentials with real directions on an interval centered at 0, complex otherwise.

    Every profile is expanded into terms once for all entries, so the result
    is deterministic and independent of evaluation order.  Row blocks of about
    TERM_PRODUCTS_PER_BLOCK term products and at most 1/MIN_ROW_BLOCKS of the rows
    are paired with the profiles at and right of them: between single nodes the one
    term ``_sinc(w_s - w_a)`` on an interval centered at 0 and ``exp_inner_closed_form(w_s - w_a)``
    off it, else the sum of W W' i^m (-i)^m' M_{m+m'}(phi - phi') over the two profiles' terms.
    The rest is their conjugate transpose and the diagonal is real, so G is exactly
    Hermitian; the direction sum keeps one fixed order, so the Gram of a subsystem
    is bitwise the principal submatrix of the Gram it sits in, but for the sign of
    an exact zero.  Normalized norms come from the diagonal blocks, of profiles that
    ``_unit_scaled`` brings near unit scale where they lie far from it.
    """
    phases, coefs, orders, starts = _terms(system, max(abs(interval.a), abs(interval.b)))
    if getattr(system, "normalize", False):
        coefs = _unit_scaled(coefs, starts, interval.length)
    n, U = starts.size, system.directions.matrix
    single, centered = n == phases.size and not orders.any(), interval.a + interval.b == 0
    real = single and centered and not np.any(U.imag)
    most = int(np.diff(starts, append=phases.size).max())
    rows = max(1, min(TERM_PRODUCTS_PER_BLOCK // (most * phases.size), -(-n // MIN_ROW_BLOCKS)))
    K = np.empty((n, n), dtype=float if real else complex)  # K[s, a] = (f_s, f_a)
    ns = np.empty(n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        if real:  # the complex einsum's real part, summed in its order (a contiguous real einsum is not)
            block = np.multiply.outer(U.real[lo:hi, 0], U.real[lo:, 0])
            for u in U.real.T[1:]:
                block += np.multiply.outer(u[lo:hi], u[lo:])
        else:
            block = np.einsum("kd,jd->kj", U[lo:hi], U[lo:].conj())
        if not single:  # the terms of rows lo..hi-1 against every term from starts[lo] on
            first = starts[lo]
            k = (starts[hi] if hi < n else phases.size) - first
            p, c, m = phases[first:], coefs[first:], orders[first:]
            S = exp_moments(np.subtract.outer(p[:k], p), np.add.outer(m[:k], m), interval)
            S = np.multiply.outer(c[:k], c.conj()) * S
            S = np.add.reduceat(np.add.reduceat(S, starts[lo:hi] - first, axis=0), starts[lo:] - first, axis=1)
        elif centered:
            S = _sinc(np.subtract.outer(phases[lo:hi], phases[lo:]), interval.length)
        else:
            S = exp_inner_closed_form(phases[lo:hi, None] - phases[None, lo:], interval)
        ns[lo:hi] = np.sqrt(S.diagonal().real)  # S[s, a] = (profile_s, profile_a)
        block *= S
        del S  # before the next row block's temporaries
        K[lo:hi, lo:] = block
        np.conjugate(block[:, hi - lo :].T, out=K[hi:, lo:hi])
        D = K[lo:hi, lo:hi]  # the diagonal sub-block, its lower triangle mirrored from the upper one
        np.copyto(D, D.T.conj(), where=np.tri(hi - lo, k=-1, dtype=bool))
    K.flat[:: n + 1] = K.diagonal().real
    if getattr(system, "normalize", False):
        K /= np.multiply.outer(ns, ns)
    return K.T


def _lattice_split(exponents: np.ndarray, interval: IntervalSpec):
    """(m, r, rho) of ``grid_cauchy_factors``: w_k = gamma_{m_k} + r_k, gamma_m rounded as
    ``FourierGrid.frequencies`` rounds it, and the row phase rho_k."""
    L = interval.length
    m = np.rint(exponents / (2.0 * math.pi / L))
    gamma_m = 2.0 * math.pi * m / L  # FourierGrid.frequencies of g = m
    r = exponents - gamma_m
    c = 0.5 * interval.a + 0.5 * interval.b
    rho = (1.0 - 2.0 * (m % 2)) * (2.0 / math.sqrt(L)) * np.exp(1j * (r + gamma_m) * c)  # (-1)^m_k, floored
    return m, r, rho


def grid_cauchy_factors(family: ExponentFamily, grid: FourierGrid) -> tuple[np.ndarray, np.ndarray]:
    """(rho, C), the factors of the cross matrix against the grid: no n x p array is formed.

    The cross matrix X[k, (g, j)] = (e_k, f_{g,j}), rows e_k = U_k exp(i*w_k*t),
    is U_k[j] * rho_k * exp(-i*gamma_g*a) * C[k, g], with a complex rho_k of
    modulus 2/sqrt(|I|) and a real C of shape (n, card(grid)).  The grid side
    is the lattice gamma_g = s*g, s = 2*pi/|I|, so each exponent is split once
    as w_k = gamma_{m_k} + r_k with m_k = rint(w_k/s) and the reduced offset
    r_k rounded as ``FourierGrid.frequencies`` rounds.  Then
    D_kg = w_k - gamma_g = r_k + s*(m_k - g) carries an exact integer,
    sin(D_kg*|I|/2) = (-1)^(m_k - g) * sin(r_k*|I|/2), and with c = (a+b)/2

        C[k, g] = sin(r_k*|I|/2) / D_kg,   rho_k = (-1)^m_k * 2 * exp(i*(r_k + gamma_{m_k})*c) / sqrt(|I|),

    the exact sign coming out of the phase gamma_{m_k}*(a - c) = -pi*m_k.  On an
    interval centered at 0 rho is exactly real, +-2/sqrt(|I|).  r_k enters
    phase, numerator and denominator alike, so no entry mixes the exact
    lattice with the rounded one.  Where |D_kg|*|I|/2 <= SMALL_PHASE
    (only at g = m_k) C takes its limit |I|/2.  Every quantity the
    experiments read depends on X only through the real C: the captured
    energy sum_{g,j} |X[k, (g, j)]|^2 = (4/|I|) ||U_k||^2 sum_g C[k, g]^2,
    and conj(X) X^T = (conj(rho) rho^T) o (conj(U) U^T) o (C C^T).
    """
    L = grid.interval.length
    m, r, rho = _lattice_split(family.exponents, grid.interval)
    C = np.subtract.outer(m, grid.n_values.astype(float))  # m_k - g, exact
    C *= 2.0 * math.pi / L
    C += r[:, None]
    near = np.flatnonzero(np.abs(r) * (0.5 * L) <= SMALL_PHASE)  # off g = m_k, |D_kg| >= s/2
    rows, cols = np.nonzero(grid.n_values == m[near, None])
    rows = near[rows]
    C[rows, cols] = 1.0  # these entries take the limit below
    np.divide(np.sin(r * (0.5 * L))[:, None], C, out=C)
    C[rows, cols] = 0.5 * L
    return rho, C


def grid_cauchy_sums(family: ExponentFamily, grid: FourierGrid):
    """(rho, m, r, sigma, T, Q), the sums over g of ``grid_cauchy_factors``' C in closed form, O(n) for a
    grid of consecutive frequencies g0..g1: per exponent the row phase rho_k, the split w_k = gamma_{m_k} + r_k,
    the numerator sigma_k = sin(r_k*|I|/2), the row sum T_k = sum_g C[k, g] and the out-of-grid energy Q_k,
    the sum of C[k, g]^2 over the lattice frequencies g off the grid.

    With u_k = r_k/s and j = m_k - g over [a_k, b_k] = [m_k - g1, m_k - g0], C[k, g] = (sigma_k/s) / (u_k + j)
    but at j = 0, the pole term C[k, m_k].  Each side of j = 0 sums to a difference of the digamma psi at
    arguments >= 1/2, and each tail to a trigamma value psi_1(x) = zeta(2, x) (DLMF 5.7.6, 5.15.1):

        T_k = (sigma_k/s) * (sum_{j=1..b} 1/(u+j) - sum_{i=1..-a} 1/(i-u)) + C[k, m_k],
        Q_k = (sigma_k/s)^2 * (psi_1(b+1+u) + psi_1(1-a-u))

    while m_k lies on the grid (a <= 0 <= b).  Off it (R < s/2 puts m_k one step outside a trace's grid)
    the pole term leaves T and its square joins Q, with the terms between the grid and j = 0.  Over every
    g the squares sum to (|I|/2)^2 (Parseval), so sum_g C[k, g]^2 = (|I|/2)^2 - Q_k, and the partial
    fractions 1/(D_kg D_lg) = (1/D_kg - 1/D_lg) / (D_lg - D_kg) give
    (C C^T)[k, l] = (sigma_l T_k - sigma_k T_l) / (w_l - w_k) for w_l != w_k, with
    w_l - w_k = s*(m_l - m_k) + (r_l - r_k), the difference in the rounded lattice that every D_kg is in.
    """
    from scipy.special import psi, zeta  # deferred, as in ``analysis.defect_majorant``

    g = grid.n_values
    if np.any(np.diff(g) != 1):
        raise ValueError("grid frequencies must be consecutive")
    L = grid.interval.length
    s = 2.0 * math.pi / L
    m, r, rho = _lattice_split(family.exponents, grid.interval)
    sigma, u = np.sin(r * (0.5 * L)), r / s
    a, b = m - g[-1], m - g[0]
    pole = np.full(r.shape, 0.5 * L)
    np.divide(sigma, r, out=pole, where=np.abs(r) * (0.5 * L) > SMALL_PHASE)
    on = (a <= 0) & (b >= 0)
    up, down = np.maximum(a, 1), np.maximum(-b, 1)  # the least j >= 1 and the least -j >= 1 on the grid
    sums = psi(np.maximum(b, up - 1) + 1 + u) - psi(up + u)  # j = up..b, 0 when empty
    sums -= psi(np.maximum(-a, down - 1) + 1 - u) - psi(down - u)  # j = a..-down
    T = sums * (sigma / s) + np.where(on, pole, 0.0)
    tails = zeta(2, np.maximum(b, 0) + 1 + u) + zeta(2, 1 - np.minimum(a, 0) - u)  # j > max(b, 0), j < min(a, 0)
    for gap, sign in ((a > 1, 1.0), (b < -1, -1.0)):  # j = 1..a-1 or b+1..-1: between the grid and j = 0
        tails[gap] += zeta(2, 1 + sign * u[gap]) - zeta(2, np.where(gap, up, down)[gap] + sign * u[gap])
    Q = tails * (sigma / s) ** 2 + np.where(on, 0.0, pole**2)
    return rho, m, r, sigma, T, Q


def _extreme_spectrum(A: np.ndarray):
    """(lambda_0, lambda_{n-1}) and their eigenvectors of the Hermitian matrix in A's lower triangle.

    One blocked Householder reduction A = Q T Q^H (``sytrd``/``hetrd``, in A's own buffer when f2py
    can use it, whose diagonal and lower triangle then hold T and the reflectors) gives a real
    tridiagonal T.  Bisection (``stebz``) takes index 1 of T and of -T: on index n of T a top
    cluster of rounding width, as in the Parseval Gram 2*pi*I, fails (info 2).  One inverse
    iteration (``stein``) gives both tridiagonal eigenvectors, which are taken back through the
    reflectors: with the lower storage Q acts as I (+) the QR factor stored below the subdiagonal,
    so ``ormqr``/``unmqr`` on an F-contiguous alias of it (no copy: no n x n array but the
    reduction's) does what LAPACK's ``ormtr`` would.  Returns ``(values, V)``, V of shape (n, 2)
    in the dtype of A.
    """
    n = A.shape[0]
    if n == 1:
        return np.full(2, A[0, 0].real), np.ones((1, 2), dtype=A.dtype)
    if np.iscomplexobj(A):
        trd, trd_lwork, mqr = lapack.zhetrd, lapack.zhetrd_lwork, lapack.zunmqr
    else:
        trd, trd_lwork, mqr = lapack.dsytrd, lapack.dsytrd_lwork, lapack.dormqr
    lwork, _ = trd_lwork(n, lower=1)  # the default lwork runs the unblocked reduction, about 1.5x slower
    c, d, e, tau, _ = trd(A, lower=1, lwork=int(np.real(lwork)), overwrite_a=1)
    (_, low, block, split, info), (_, high, top, _, info_top) = (
        lapack.dstebz(sign * d, e, 2, 0.0, 0.0, 1, 1, 0.0, "B") for sign in (1.0, -1.0))
    if info or info_top:
        raise ArithmeticError(f"tridiagonal bisection failed (info {info}, {info_top})")
    values = np.array([low[0], -high[0]])
    order = [0, 1] if block[0] <= top[0] else [1, 0]  # stein's values run block by block
    block[:2] = np.array([block[0], top[0]])[order]
    z, info = lapack.dstein(d, e, values[order], block, split)
    if info:
        raise ArithmeticError(f"tridiagonal inverse iteration failed (info {info})")
    V = z[:, order].astype(A.dtype)
    reflectors = c.reshape(-1, order="F")[1 : 1 + n * (n - 1)].reshape(n, n - 1, order="F")  # c[1:, :-1], no copy
    V[1:], _, _ = mqr("L", "N", reflectors, tau, V[1:], lwork=2)  # the minimum for two columns: unblocked
    return values, V


def _real_lower(G: np.ndarray) -> bool:
    """Whether the strict lower triangle of a complex G is exactly real, scanned by column blocks of 128
    (an n x 128 boolean at a time, no n x n one), stopping at the first block with an imaginary part."""
    n, imag = G.shape[0], G.imag  # a strided view
    for j0 in range(0, n, 128):
        j1 = min(j0 + 128, n)
        if np.tril(imag[j0:j1, j0:j1], -1).any() or imag[j1:, j0:j1].any():
            return False
    return True


def extreme_eigenvalues(G) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a Hermitian G, residual-verified; the read takes G over.

    G holds the Hermitian matrix in both triangles, as every ``assemble_gram``
    Gram does.  A float64 matrix, or a complex one whose strict lower triangle
    is exactly real (a DD Gram with real directions on an interval centered
    at 0), is solved in real arithmetic; any other stays complex.  The
    reduction of ``_extreme_spectrum`` runs in G's buffer when it is
    F-contiguous in the solved dtype (else in one F-ordered copy), so a read
    holds no second n x n array, and leaves T and its reflectors in G's lower
    triangle.  The two extreme eigenpairs are checked against the strict
    upper triangle, which the reduction leaves as it was, and the diagonal
    saved before it, under the residual contract
    ||G v - lambda v|| <= EIGEN_RESIDUAL_RTOL ||G||, which a NaN fails.  When
    G's largest |diagonal| lies outside [2^-300, 2^300], where squared
    entries overflow (stebz's bisection fails) or underflow (the contract
    fails), the read is of 2^k G, scaled in the same buffer by the power of
    two from ``np.frexp`` that brings it to [1/2, 1), and the values are
    scaled back exactly.
    """
    G = np.asarray(G)
    A = G.real if np.iscomplexobj(G) and _real_lower(G) else G
    A = np.asfortranarray(A)  # no copy when G is F-ordered in the solved dtype
    top = float(np.max(np.abs(A.diagonal())))
    k = 0 if top == 0.0 or 2.0**-300 <= top <= 2.0**300 else -int(np.frexp(top)[1])
    if k:
        A *= 2.0 ** (k // 2)  # two exact factors: 2^k alone can overflow
        A *= 2.0 ** (k - k // 2)
    diagonal = A.diagonal().copy()
    vals, vecs = _extreme_spectrum(A)
    np.fill_diagonal(A, diagonal)  # the reduction wrote T's diagonal there
    gnorm = max(abs(vals[0]), abs(vals[-1]))
    # scipy's BLAS, not numpy's (@): numpy ships its own OpenBLAS, whose threads
    # keep spinning after a call and slow the next LAPACK solve about 2x
    mm = blas.get_blas_funcs("hemm" if np.iscomplexobj(A) else "symm", (A, vecs))
    GV = mm(1.0, A, vecs, lower=0)
    residual = float(np.max(np.linalg.norm(GV - vecs * vals, axis=0)))
    if not residual <= EIGEN_RESIDUAL_RTOL * max(gnorm, 1e-300):
        raise ArithmeticError(f"eigenpair residual {residual:.3e} exceeds contract {EIGEN_RESIDUAL_RTOL:.0e}*||G||")
    vals = np.ldexp(vals, -k)
    return float(vals[0]), float(vals[-1])


def _lambda_min_bound(U: np.ndarray, trace: float) -> float:
    """A lower bound on lambda_min(G) from a computed Cholesky factor U (upper triangle), G = U^H U - dG.

    |U^-1| <= M^-1 for the comparison matrix M = M(U), so ||U^-1||_2^2 <= ||M^-1||_1 ||M^-1||_inf =
    max(M^-T e) max(M^-1 e): two substitutions of nonnegative terms, on column blocks of |U|.  And
    |dG| <= gamma |U^H| |U| gives ||dG||_2 <= gamma tr(G) / (1 - gamma), gamma = gamma_{2n+2} covering the
    substitutions' rounding too (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., chs. 8, 10)."""
    n = U.shape[0]
    gamma = (2 * n + 2) * 2.0**-53 / (1 - (2 * n + 2) * 2.0**-53)
    x, y = np.ones(n), np.ones(n)  # M^-1 e and M^-T e, solved in place
    blocks = [(j0, min(j0 + 128, n)) for j0 in range(0, n, 128)]  # an n x 128 block of |U|: 1 MB at n = 1000

    def diagonal(j0, j1):  # M[J, J]: |U[J, J]| with its off-diagonal negated
        T = -np.abs(U[j0:j1, j0:j1])
        T.flat[:: j1 - j0 + 1] *= -1.0
        return T

    for j0, j1 in blocks:  # M^T y = e, left to right
        if j0:
            y[j0:j1] += blas.dgemv(1.0, np.abs(U[:j0, j0:j1]), y[:j0], trans=1)
        y[j0:j1] = blas.dtrsv(diagonal(j0, j1), y[j0:j1], trans=1)
    for j0, j1 in reversed(blocks):  # M x = e, right to left: each solved block updates the rows above it
        x[j0:j1] = blas.dtrsv(diagonal(j0, j1), x[j0:j1])
        if j0:
            x[:j0] += blas.dgemv(1.0, np.abs(U[:j0, j0:j1]), x[j0:j1])
    return (1 - gamma) / x.max() / y.max() - gamma * trace / (1 - gamma)  # divided twice: a huge x y underflows to 0


def gated_cho_factor(G: np.ndarray):
    """Cholesky factor of a Gram (``cho_factor`` form), after a spectral gate.

    Raises NearSingularGramError (carrying lambda_min and ||G||_2) when lambda_min <= 1e-10 * ||G||_2;
    that failure mode is itself the measurement of a degenerating system.  The gate is factor-first:
    ``cho_factor`` of one copy of G passes when the O(n^2) ``_lambda_min_bound``, lambda_min >=
    1 / (max(M^-T e) max(M^-1 e)) - gamma tr(G) / (1 - gamma) by |U^-1| <= M(U)^-1 and
    |U^H U - G| <= gamma |U^H| |U|, exceeds tau = 1e-10 * ||G||_F >= 1e-10 * ||G||_2.  Else, on a
    fresh copy, Cholesky of G - tau*I succeeds only when lambda_min > tau up to its rounding
    (Sylvester's law of inertia), and passes; when it breaks down, ``extreme_eigenvalues`` of G,
    refilled into that copy, decide.  A non-finite entry raises ValueError first."""
    G = np.asarray(G)
    c = np.array(G, order="F")
    if not np.isfinite(c).all():  # before the shift turns Inf into NaN; nrm2 and potrf may pass NaN
        raise ValueError("Gram has non-finite entries")
    tau = NEAR_SINGULAR_RTOL * blas.get_blas_funcs("nrm2", (c,))(c.ravel(order="F"))
    try:
        factor = cho_factor(c, lower=False, overwrite_a=True, check_finite=False)  # c was just scanned
    except np.linalg.LinAlgError:
        factor = None
    if factor and _lambda_min_bound(factor[0], float(G.diagonal().real.sum())) > tau:
        return factor
    c = np.array(G, order="F")
    c.flat[:: c.shape[0] + 1] -= tau
    if lapack.get_lapack_funcs("potrf", (c,))(c, lower=0, clean=0, overwrite_a=1)[1] != 0:
        np.copyto(c, G)  # G again, in the broken-down factorization's buffer, handed over to the read
        emin, emax = extreme_eigenvalues(c)
        gnorm = max(abs(emin), abs(emax))
        if emin <= NEAR_SINGULAR_RTOL * gnorm:
            raise NearSingularGramError(min_eigenvalue=emin, norm=gnorm)
    return factor or cho_factor(np.array(G, order="F"), lower=False, overwrite_a=True)  # raises its LinAlgError

"""Inner products over a bounded interval and Gram machinery.

Every system handled here is described once as f_k(t) = U_k [nodes_k](t):
a fixed unit vector U_k times the divided difference of w -> exp(i*w*t)
over a node set, divided by its L2(I) norm for normalized systems.  A plain
exponential is a single node; an orthonormal Fourier-grid function is a
normalized single node on a coordinate direction.  One kernel,
``inner_matrix``, computes all inner products: the cancellation-free closed
form when every function is a single node, otherwise composite
Gauss-Legendre panels sized against the fastest oscillation of the profiles
with their nodes centered.

Gram entries follow the quadratic-form convention
``G[j, k] = (f_k, f_j)`` (second argument conjugated), so
``coef.conj() @ G @ coef`` is the squared L2(I, H) norm of ``sum_k coef_k f_k``
and the dual (biorthogonal) coefficients are exactly the inverse Gram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, eigvalsh

from .basisfuncs import DirectionAssignment, eval_divided_difference
from .exponents import ExponentFamily

__all__ = [
    "IntervalSpec",
    "FourierGrid",
    "NearSingularGramError",
    "ExponentialSystem",
    "DividedDifferenceSystem",
    "exp_inner_closed_form",
    "inner_matrix",
    "assemble_gram",
    "hermiticity_residual",
    "cross_inner_matrix",
    "projection_defect_norms",
    "gated_cho_factor",
    "oscillation_panel_rule",
]

SMALL_PHASE = 1e-8  # |theta| * |I| / 2 at or below this takes sin(x)/x = 1 (error x^2/6)
NEAR_SINGULAR_RTOL = 1e-10
PANEL_PHASE_SPAN = math.pi / 4  # max radians of the fastest phase per quadrature panel
PANEL_ORDER = 16  # Gauss-Legendre points per quadrature panel


@dataclass(frozen=True)
class IntervalSpec:
    """The bounded observation interval (a, b)."""

    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"interval must satisfy b > a, got ({self.a}, {self.b})")

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
    c = (a+b)/2 and x = theta*|I|/2, exact to machine precision for all phase
    sizes; for |x| <= SMALL_PHASE the ratio sin(x)/x is 1 to rounding and is
    set to 1.  On an interval centered at 0 every value is exactly real.
    """
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    L = interval.length
    x = th * (0.5 * L)
    small = np.abs(x) <= SMALL_PHASE
    ratio = np.divide(np.sin(x), x, out=x, where=~small)  # in place: x is not needed again
    ratio[small] = 1.0
    ratio *= L
    out = th * (0.5j * (interval.a + interval.b))
    np.exp(out, out=out)
    out *= ratio
    return complex(out[0]) if np.isscalar(theta) else out.reshape(np.shape(theta))


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
        L = interval.length
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

    @property
    def nodes(self) -> list[np.ndarray]:
        """The node set of each function, in order."""
        x = self.family.exponents
        return [x[first : l + 1] for first, last in self.chains for l in range(first, last + 1)]


def oscillation_panel_rule(interval: IntervalSpec, rate: float):
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


@dataclass(frozen=True)
class _Functions:
    """A system as f_i(t) = directions[i] * [nodes[i // copies]](t).

    Each distinct node set (profile) appears once in ``nodes`` and serves
    ``copies`` consecutive functions.  ``normalize`` divides every function
    by the L2(I) norm of its profile.
    """

    nodes: list
    directions: np.ndarray
    normalize: bool = False
    copies: int = 1


def _functions(system) -> _Functions:
    if isinstance(system, ExponentialSystem):
        return _Functions(list(system.family.exponents[:, None]), system.directions.matrix)
    if isinstance(system, DividedDifferenceSystem):
        return _Functions(system.nodes, system.directions.matrix, system.normalize)
    if isinstance(system, FourierGrid):
        # the d directions of a frequency share its profile (n-major order)
        n, d = system.n_values.size, system.d
        directions = np.tile(np.eye(d, dtype=complex), (n, 1))
        return _Functions(list(system.frequencies[:, None]), directions, True, d)
    raise TypeError(f"unsupported system descriptor {type(system).__name__}")


def _profile_norms(fns: _Functions, F, w, interval: IntervalSpec) -> np.ndarray:
    """L2(I) norm of each profile: sqrt|I| for single nodes, else from its samples F."""
    if F is None:
        return np.full(len(fns.nodes), math.sqrt(interval.length))
    return np.sqrt(np.abs(F) ** 2 @ w)


def inner_matrix(sources, targets, interval: IntervalSpec) -> np.ndarray:
    """K[alpha, s] = (source_s, target_alpha) in L2(I, C^d), for any two systems.

    Single-node functions on both sides use the closed form; otherwise one
    panel grid serves every entry.  Its profiles are evaluated at the nodes
    minus c, the center of all nodes: that multiplies each by exp(-i*c*t),
    which no inner product or norm sees, so the grid is sized by
    max|source node - c| + max|target node - c|, the spread of the nodes
    rather than their position.  Each distinct profile is evaluated once
    (once in total when ``targets is sources``), and normalized norms come
    from the same profiles.
    """
    src = _functions(sources)
    tgt = src if targets is sources else _functions(targets)
    ds, dt = src.directions.shape[1], tgt.directions.shape[1]
    if ds != dt:
        raise ValueError(f"source and target systems live in different direction spaces: C^{ds} and C^{dt}")
    ws, wt = np.concatenate(src.nodes), np.concatenate(tgt.nodes)
    Fs = Ft = w = None
    if ws.size == len(src.nodes) and wt.size == len(tgt.nodes):
        S = exp_inner_closed_form(ws[:, None] - wt[None, :], interval)
    else:
        c = 0.5 * (min(ws.min(), wt.min()) + max(ws.max(), wt.max()))
        rate = float(np.max(np.abs(ws - c)) + np.max(np.abs(wt - c)))
        t, w = oscillation_panel_rule(interval, rate)
        Fs = np.stack([eval_divided_difference(x - c, t) for x in src.nodes])
        Ft = Fs if tgt is src else np.stack([eval_divided_difference(x - c, t) for x in tgt.nodes])
        S = (Fs * w) @ Ft.conj().T
    # S[s, a] = (profile_s, profile_a); shared profiles expand by broadcasting
    if src.normalize:
        # a Gram holds the squared norms on its diagonal
        ns = np.sqrt(np.real(np.diag(S))) if tgt is src else _profile_norms(src, Fs, w, interval)
        S /= ns[:, None]
    if tgt.normalize:
        S /= (ns if tgt is src else _profile_norms(tgt, Ft, w, interval))[None, :]
    K = src.directions @ tgt.directions.conj().T
    blocks = K.reshape(len(src.nodes), src.copies, len(tgt.nodes), tgt.copies)
    np.multiply(blocks, S[:, None, :, None], out=blocks)
    return K.T


def assemble_gram(system, interval: IntervalSpec) -> np.ndarray:
    """Gram matrix (complex ndarray) of an exponential, divided-difference or Fourier-grid system over I.

    The grid is shared by all entries, so the result is deterministic and
    independent of evaluation order.
    """
    return inner_matrix(system, system, interval)


def hermiticity_residual(G: np.ndarray) -> float:
    """max |G - G^H|, in the dtype of G."""
    return float(np.max(np.abs(G - G.conj().T)))


def cross_inner_matrix(
    family: ExponentFamily,
    directions: DirectionAssignment,
    grid: FourierGrid,
) -> np.ndarray:
    """X[k, (n, j)] = (e_k, f_{n,j}), flattened n-major then direction index."""
    return inner_matrix(ExponentialSystem(family, directions), grid, grid.interval).T


def projection_defect_norms(X: np.ndarray, interval: IntervalSpec) -> np.ndarray:
    """Per-function norm of (Q - Id) e_k for Q the projection onto the grid of X.

    ``X`` is a cross matrix (rows e_k, columns orthonormal grid functions).
    Parseval on the full grid gives ||e_k||^2 = |I|, so the defect is the
    complement of the captured coefficient energy.
    """
    captured = np.sum(np.abs(X) ** 2, axis=1)
    return np.sqrt(np.clip(interval.length - captured, 0.0, None))


def gated_cho_factor(G: np.ndarray):
    """Cholesky factor of a Gram (``cho_factor`` form), after a spectral gate.

    Raises NearSingularGramError (carrying the offending eigenvalue) when the
    smallest eigenvalue is at or below 1e-10 times the spectral norm; that
    failure mode is itself the measurement of a degenerating system.
    """
    evals = eigvalsh(G)
    gnorm = float(np.max(np.abs(evals)))
    emin = float(evals[0])
    if emin <= NEAR_SINGULAR_RTOL * gnorm:
        raise NearSingularGramError(min_eigenvalue=emin, norm=gnorm)
    return cho_factor(G, lower=False)

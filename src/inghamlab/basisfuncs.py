"""System functions: vector exponentials and divided differences of exponentials.

Divided differences of w -> exp(i*w*t) over a node chain are computed by the
confluent Newton recurrence when the nodes are well separated, and by
Gauss-Legendre quadrature of the iterated-integral (simplex) representation
when they are clustered, where the recurrence cancels catastrophically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import ExponentFamily

__all__ = [
    "UNIT_NORM_TOL",
    "COALESCENCE_RTOL",
    "DirectionAssignment",
    "eval_divided_difference",
]

UNIT_NORM_TOL = 1e-12
# below this node spread (relative to max(1, |t|)) the Newton recurrence is
# cancellation-dominated and the simplex quadrature takes over
COALESCENCE_RTOL = 1e-4
SIMPLEX_MAX_ORDER = 64  # Gauss-Legendre points per simplex dimension, at most


@dataclass
class DirectionAssignment:
    """Unit direction vectors in C^d: row k is the direction of family position k."""

    d: int
    matrix: np.ndarray  # (n, d) complex, rows unit norm

    def __post_init__(self):
        U = np.atleast_2d(np.asarray(self.matrix, dtype=complex))
        if U.ndim != 2 or U.shape[1] != self.d:
            raise ValueError(f"direction matrix must have shape (n, d) with d = {self.d}, got {U.shape}")
        norms = np.linalg.norm(U, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            raise ValueError("every direction vector must have unit norm within 1e-12")
        self.matrix = U

    @classmethod
    def constant(cls, family: ExponentFamily, d: int = 1, axis: int = 0) -> "DirectionAssignment":
        """Every position on the same coordinate direction E_{axis+1}."""
        U = np.zeros((len(family), d), dtype=complex)
        U[:, axis] = 1.0
        return cls(d=d, matrix=U)

    @classmethod
    def from_partition(cls, partition) -> "DirectionAssignment":
        """U_k = E_j for the positions k of class j (orthonormal coordinate directions)."""
        classes = partition.class_of
        U = np.zeros((classes.size, partition.d), dtype=complex)
        U[np.arange(classes.size), classes - 1] = 1.0
        return cls(d=partition.d, matrix=U)

    @classmethod
    def random(cls, family: ExponentFamily, d: int, seed: int = 0) -> "DirectionAssignment":
        """Haar-ish random unit vectors, deterministic given the seed."""
        rng = np.random.default_rng(seed)
        Z = rng.normal(size=(len(family), d)) + 1j * rng.normal(size=(len(family), d))
        Z /= np.linalg.norm(Z, axis=1, keepdims=True)
        return cls(d=d, matrix=Z)


def _dd_recurrence(nodes: np.ndarray, t: np.ndarray) -> np.ndarray:
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


def eval_divided_difference(nodes, t):
    """Newton divided difference, in the node variable, of w -> exp(i*w*t).

    Uses the recurrence when the node spread is at least
    COALESCENCE_RTOL * max(1, |t|), and the simplex quadrature otherwise, at
    the order ``_simplex_order`` gives for theta = spread * max|t|.
    Accepts scalar or array t; nodes must be nondecreasing.
    """
    x = np.atleast_1d(np.asarray(nodes, dtype=float))
    if x.size == 0:
        raise ValueError("nodes must be nonempty")
    if np.any(np.diff(x) < 0):
        raise ValueError("unsorted nodes")
    tt = np.asarray(t, dtype=float)
    tarr = np.atleast_1d(tt)
    spread = float(x[-1] - x[0])
    tmax = float(np.max(np.abs(tarr))) if tarr.size else 0.0
    if spread >= COALESCENCE_RTOL * max(1.0, tmax):
        out = _dd_recurrence(x, tarr)
    else:
        out = _hermite_genocchi(x, tarr, _simplex_order(x, spread * tmax))
    return out[0] if tt.ndim == 0 else out.reshape(tt.shape)


def _simplex_order(x: np.ndarray, theta: float) -> int:
    """Fewest Gauss-Legendre points per dimension for the simplex rule over x at phase spread theta.

    The remainder (n!)^4 / ((2n+1) ((2n)!)^3) * max|f^(2n)| for f(u) = u^(q-1) exp(i*theta*u)
    on [0, 1], q = x.size - 1, must fall below 2^-53 / (q + theta), under the integral's bound
    min(1/q, 2/theta).  Leibniz bounds max|f^(2n)| by sum_k C(2n, k) (q-1)!/(q-1-k)! theta^(2n-k),
    summed here in units of s = max(1, theta) so that nothing overflows.
    """
    q, s = x.size - 1, max(1.0, theta)
    for n in range(1, SIMPLEX_MAX_ORDER + 1):
        m = 2 * n
        deriv = sum(math.comb(m, k) * math.perm(q - 1, k) * (theta / s) ** (m - k) / s**k for k in range(min(m + 1, q)))
        log_rule = 4 * math.lgamma(n + 1) - math.log(m + 1) - 3 * math.lgamma(m + 1) + m * math.log(s)
        if deriv == 0.0 or log_rule + math.log(deriv * (q + theta)) <= -53 * math.log(2):
            return n
    raise ArithmeticError(f"divided difference over nodes {x.tolist()} needs more than "
                          f"{SIMPLEX_MAX_ORDER} simplex points per dimension at theta={theta:.6g}")


def _cube_rule(q: int, order: int):
    """Tensor Gauss-Legendre rule on [0,1]^q mapped to the ordered simplex.

    Returns barycentric-increment coordinates s (npts, q) with
    1 >= s_1 >= ... >= s_q >= 0 and combined weights including the Jacobian
    of the map s_j = u_1*...*u_j.
    """
    u, w = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (u + 1.0)
    w = 0.5 * w
    grids = np.meshgrid(*([u] * q), indexing="ij")
    U = np.stack([g.ravel() for g in grids], axis=-1)  # (order^q, q)
    S = np.cumprod(U, axis=1)
    W = np.prod(np.stack([wg.ravel() for wg in np.meshgrid(*([w] * q), indexing="ij")], axis=-1), axis=1)
    # Jacobian of the cube -> simplex map: prod_{k<q} u_k^(q-k)
    jac = np.ones(U.shape[0])
    for k in range(q - 1):
        jac *= U[:, k] ** (q - 1 - k)
    return S, W * jac


def _hermite_genocchi(x: np.ndarray, tarr: np.ndarray, order: int) -> np.ndarray:
    r = x.size
    q = r - 1
    if q == 0:
        return np.exp(1j * x[0] * tarr)
    S, W = _cube_rule(q, order)
    # phases from x[0], whose exp(i*x[0]*t) is one factor: rounding scales with the spread
    phase = S @ np.diff(x)  # (npts,)
    integral = np.einsum("p,pn->n", W, np.exp(1j * np.multiply.outer(phase, tarr)))
    return (1j * tarr) ** q * np.exp(1j * x[0] * tarr) * integral

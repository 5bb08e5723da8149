"""System functions: vector exponentials and divided differences of exponentials.

A divided difference of w -> exp(i*w*t) over a node chain is a short sum of
terms (i*t)^m * W * exp(i*phi*t): explicit weights across gaps that are wide
on the interval's t range, and a Gauss-Legendre rule on the iterated-integral
(simplex) form across clustered gaps, where explicit weights cancel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exponents import ExponentFamily

__all__ = ["UNIT_NORM_TOL", "DirectionAssignment", "divided_difference_terms"]

UNIT_NORM_TOL = 1e-12
SIMPLEX_MAX_ORDER = 64  # Gauss-Legendre points per simplex dimension, at most
SIMPLEX_MAX_POINTS = 2**15  # points of one simplex rule, at most


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


def divided_difference_terms(nodes, tmax: float):
    """The divided difference of w -> exp(i*w*t) over nondecreasing nodes, as exponential terms.

    Returns (phases, weights, orders): [nodes](t) = sum_p weights_p * (i*t)^orders_p * exp(i*phases_p*t)
    for |t| <= tmax.  A gap is wide when gap * tmax >= 1.  Nodes with wide gaps only, one node
    included, take the explicit weights 1 / prod_{j != i} (x_i - x_j) at order 0, whose absolute
    sum is at most 2^q times the value bound tmax^q / q! (q + 1 nodes).  Nodes with no wide gap,
    repeated nodes included, take the Hermite-Genocchi simplex terms (x_0 + S @ diff(x), W, q) of
    the Gauss-Legendre rule ``_simplex_order`` sizes for theta = spread * tmax.  Other chains split
    as [x_0..x_q] = ([x_1..x_q] - [x_0..x_(q-1)]) / (x_q - x_0), where x_q - x_0 >= 1 / tmax bounds
    the cancellation, until every part is of one kind; order-0 terms are summed per node.
    """
    x = np.atleast_1d(np.asarray(nodes, dtype=float))
    if x.size == 0:
        raise ValueError("nodes must be nonempty")
    gaps = np.diff(x)
    if np.any(gaps < 0):
        raise ValueError("unsorted nodes")
    wide = gaps * tmax >= 1.0
    node_weights, simplex = np.zeros(x.size), []
    parts = {(0, x.size - 1): 1.0}  # sub-chain [x_i..x_j] -> its factor in [x]
    for q in range(x.size - 1, -1, -1):  # longest first: every part is complete when reached
        for i in range(x.size - q):
            j, c = i + q, parts.pop((i, i + q), 0.0)
            if c == 0.0:
                continue
            if wide[i:j].all():
                diffs = x[i : j + 1, None] - x[None, i : j + 1]
                np.fill_diagonal(diffs, 1.0)
                node_weights[i : j + 1] += c / np.prod(diffs, axis=1)
            elif not wide[i:j].any():
                S, W = _cube_rule(q, _simplex_order(x[i : j + 1], float(x[j] - x[i]) * tmax))
                simplex.append((x[i] + S @ gaps[i:j], c * W, np.full(W.size, q)))
            else:
                for part, sign in (((i + 1, j), 1.0), ((i, j - 1), -1.0)):
                    parts[part] = parts.get(part, 0.0) + sign * c / (x[j] - x[i])
    on = node_weights != 0.0  # nodes of clustered parts only carry no term
    return tuple(map(np.concatenate, zip((x[on], node_weights[on], np.zeros(on.sum(), dtype=int)), *simplex)))


def _simplex_order(x: np.ndarray, theta: float) -> int:
    """Fewest Gauss-Legendre points per dimension for the simplex rule over x at phase spread theta.

    The remainder (n!)^4 / ((2n+1) ((2n)!)^3) * max|f^(2n)| for f(u) = u^(q-1) exp(i*theta*u)
    on [0, 1], q = x.size - 1, must fall below 2^-53 / (q + theta), under the integral's bound
    min(1/q, 2/theta).  Leibniz bounds max|f^(2n)| by sum_k C(2n, k) (q-1)!/(q-1-k)! theta^(2n-k),
    summed here in units of s = max(1, theta) so that nothing overflows.  At most
    SIMPLEX_MAX_ORDER points per dimension and SIMPLEX_MAX_POINTS in all, or ArithmeticError.
    """
    q, s = x.size - 1, max(1.0, theta)
    top = max(n for n in range(1, SIMPLEX_MAX_ORDER + 1) if n**q <= SIMPLEX_MAX_POINTS)
    for n in range(1, top + 1):
        m = 2 * n
        deriv = sum(math.comb(m, k) * math.perm(q - 1, k) * (theta / s) ** (m - k) / s**k for k in range(min(m + 1, q)))
        log_rule = 4 * math.lgamma(n + 1) - math.log(m + 1) - 3 * math.lgamma(m + 1) + m * math.log(s)
        if deriv == 0.0 or log_rule + math.log(deriv * (q + theta)) <= -53 * math.log(2):
            return n
    raise ArithmeticError(f"divided difference over nodes {x.tolist()} needs more than "
                          f"{top} simplex points per dimension at theta={theta:.6g}")


@functools.lru_cache(maxsize=64)
def _cube_rule(q: int, order: int):
    """Tensor Gauss-Legendre rule on [0,1]^q mapped to the ordered simplex, kept per (q, order).

    Returns read-only barycentric-increment coordinates s (npts, q) with
    1 >= s_1 >= ... >= s_q >= 0 and combined weights including the Jacobian
    prod_k u_k^(q-1-k) of the map s_j = u_1*...*u_j.
    """
    u, w = np.polynomial.legendre.leggauss(order)
    U = np.stack(np.meshgrid(*([0.5 * (u + 1.0)] * q), indexing="ij"), axis=-1).reshape(-1, q)
    W = np.prod(np.stack(np.meshgrid(*([0.5 * w] * q), indexing="ij"), axis=-1).reshape(-1, q), axis=1)
    W *= np.prod(U ** np.arange(q - 1, -1, -1), axis=1)
    S = np.cumprod(U, axis=1)
    S.setflags(write=False)
    W.setflags(write=False)
    return S, W

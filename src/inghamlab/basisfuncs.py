"""System functions: vector exponentials and divided differences of exponentials.

A divided difference of w -> exp(i*w*t) over a node chain is a short sum of
terms (i*t/tmax)^m * W * exp(i*phi*t) for |t| <= tmax: explicit weights across
gaps that are wide on the interval's t range, and across clustered gaps, where
explicit weights cancel, a Gauss-Legendre rule for a pair and Taylor terms
about the midpoint for longer parts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exponents import ExponentFamily

__all__ = ["UNIT_NORM_TOL", "DirectionAssignment", "divided_difference_terms", "prefix_terms"]

UNIT_NORM_TOL = 1e-12
_leggauss = functools.lru_cache(maxsize=8)(np.polynomial.legendre.leggauss)  # a pair takes at most 7 points


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
    def from_partition(cls, class_of: np.ndarray, d: int) -> "DirectionAssignment":
        """U_k = E_j for the positions k of class j in 1..d (orthonormal coordinate directions)."""
        U = np.zeros((class_of.size, d), dtype=complex)
        U[np.arange(class_of.size), class_of - 1] = 1.0
        return cls(d=d, matrix=U)

    @classmethod
    def random(cls, family: ExponentFamily, d: int, seed: int = 0) -> "DirectionAssignment":
        """Haar-ish random unit vectors, deterministic given the seed."""
        rng = np.random.default_rng(seed)
        Z = rng.normal(size=(len(family), d)) + 1j * rng.normal(size=(len(family), d))
        Z /= np.linalg.norm(Z, axis=1, keepdims=True)
        return cls(d=d, matrix=Z)


def divided_difference_terms(nodes, tmax: float):
    """The divided difference of w -> exp(i*w*t) over nondecreasing nodes, as exponential terms.

    Returns (phases, weights, orders): [nodes](t) = sum_p weights_p * (i*t/tmax)^orders_p *
    exp(i*phases_p*t) for |t| <= tmax, so no power overflows.  A gap is wide when gap * tmax >= 1.
    Nodes with wide gaps only, one node included, take the explicit weights 1 / prod_{j != i}
    (x_i - x_j) at order 0, whose absolute sum is at most 2^q times the value bound tmax^q / q!
    (q + 1 nodes).  Nodes with no wide gap, repeated nodes included, take a Gauss-Legendre rule of
    ``_pair_order`` points when they are a pair, else ``_taylor_terms``.  Other chains split as
    [x_0..x_q] = ([x_1..x_q] - [x_0..x_(q-1)]) / (x_q - x_0), where x_q - x_0 >= 1 / tmax bounds
    the cancellation, until every part is of one kind; order-0 terms are summed per node.
    """
    x = np.atleast_1d(np.asarray(nodes, dtype=float))
    if x.size == 0 or not np.isfinite(x).all():  # NaN would pass the order test below
        raise ValueError("nodes must be nonempty and finite")
    gaps = np.diff(x)
    if np.any(gaps < 0):
        raise ValueError("unsorted nodes")
    wide = gaps * tmax >= 1.0
    node_weights, clustered = np.zeros(x.size), []
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
            elif q == 1:
                clustered.append(_short_terms(x, np.array([i]), np.array([j]), tmax, c)[:3])
            elif not wide[i:j].any():
                clustered.append(_taylor_terms(x[i : j + 1], tmax, c))
            else:
                for part, sign in (((i + 1, j), 1.0), ((i, j - 1), -1.0)):
                    parts[part] = parts.get(part, 0.0) + sign * c / (x[j] - x[i])
    on = node_weights != 0.0  # nodes of clustered parts only carry no term
    return tuple(map(np.concatenate, zip((x[on], node_weights[on], np.zeros(on.sum(), dtype=int)), *clustered)))


def _taylor_terms(x: np.ndarray, tmax: float, factor: float):
    """factor * [x] for q = x.size - 1 >= 2 nodes with no wide gap, as Taylor terms about their midpoint c.

    [x](t) = exp(i*c*t) sum_k h_k(y) (i*t)^(q+k) / (q+k)! with y = x - c and h_k the complete
    homogeneous symmetric polynomials (H[k] += y_j * H[k-1], node by node).  Term k is at most
    (theta/2)^k / k! of the bound tmax^q / q!, theta = spread * tmax < q, and the terms stop below
    2^-53 (19 to 30 for q = 2..7).  Weight k is factor * tmax^q * h_k(y * tmax) / (q+k)!.
    """
    q, c = x.size - 1, 0.5 * (x[0] + x[-1])
    half, K, bound = 0.5 * float(x[-1] - x[0]) * tmax, 1, 1.0
    while (bound := bound * half / K) >= 2.0**-53:
        K += 1
    H = np.append(factor * tmax**q, np.zeros(K - 1))
    for y in (x - c) * tmax:
        for k in range(1, K):
            H[k] += y * H[k - 1]
    orders = q + np.arange(K)
    return np.full(K, c), H / np.array([math.factorial(m) for m in orders], dtype=float), orders


def _short_terms(x: np.ndarray, first: np.ndarray, last: np.ndarray, tmax: float, factor: float = 1.0):
    """factor * [x[first]..x[last]] of single nodes and clustered pairs (gap * tmax < 1) at once, chain by chain:
    (phases, weights, orders, counts).  A node is one order-0 term; a pair, i*t * integral_0^1 exp(i*(x_first +
    s*gap)*t) ds, takes a Gauss-Legendre rule of ``_pair_order`` points."""
    one, gap = first == last, x[last] - x[first]
    counts = np.where(one, 1, _pair_order(gap * tmax))
    at, (phases, weights) = np.cumsum(counts) - counts, np.empty((2, counts.sum()))
    phases[at[one]], weights[at[one]] = x[first[one]], factor
    for n in np.unique(counts[~one]):  # one rule for all pairs of n points
        k, (u, w) = np.flatnonzero(~one & (counts == n)), _leggauss(n)
        slots = at[k, None] + np.arange(n)
        phases[slots] = x[first[k], None] + 0.5 * (u + 1.0) * gap[k, None]
        weights[slots] = 0.5 * factor * tmax * w
    return phases, weights, (~one).astype(int).repeat(counts), counts


def prefix_terms(x: np.ndarray, first: np.ndarray, last: np.ndarray, tmax: float):
    """[x[first]..x[last]] of many chains, chain by chain: (phases, weights, orders, counts), the terms of one
    ``divided_difference_terms`` call per chain, all single nodes and clustered pairs in one ``_short_terms`` pass."""
    short = (first == last) | ((last - first == 1) & ((x[last] - x[first]) * tmax < 1.0))
    head, rest = np.flatnonzero(short), np.flatnonzero(~short)
    *terms, counts = _short_terms(x, first[head], last[head], tmax)
    long = [divided_difference_terms(x[f : l + 1], tmax) for f, l in zip(first[rest], last[rest])]
    owner = np.concatenate([head.repeat(counts), rest.repeat([t[0].size for t in long])])
    order = np.argsort(owner, kind="stable")  # chain by chain
    terms = [np.concatenate([a, *(t[k] for t in long)])[order] for k, a in enumerate(terms)]
    return (*terms, np.bincount(owner, minlength=first.size))


def _pair_switch(n: int) -> float:
    """The least theta < 1 at which n Gauss-Legendre points fail the remainder test of ``_pair_order``."""
    c, lo, hi = 4 * math.lgamma(n + 1) - math.log(2 * n + 1) - 3 * math.lgamma(2 * n + 1), 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # enough points at lo, too few at hi, until adjacent doubles
        lo, hi = (lo, mid) if c + 2 * n * math.log(mid) + math.log(1.0 + mid) > -53 * math.log(2) else (mid, hi)
    return hi


_PAIR_SWITCHES = np.array([_pair_switch(n) for n in range(1, 7)])  # 7 points suffice below theta = 1


def _pair_order(theta: np.ndarray) -> np.ndarray:
    """Fewest Gauss-Legendre points for integral_0^1 exp(i*theta*s) ds at each pair's theta < 1: at most 7.

    The remainder (n!)^4 theta^(2n) / ((2n+1) ((2n)!)^3) must fall below 2^-53 / (1 + theta), so n points
    suffice below ``_PAIR_SWITCHES[n - 1]``, the least theta where that test, evaluated as written, fails.
    """
    return 1 + np.searchsorted(_PAIR_SWITCHES, theta, side="right")

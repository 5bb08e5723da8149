"""System functions: vector exponentials and divided differences of exponentials.

Divided differences of w -> exp(i*w*t) over a node chain are computed by the
confluent Newton recurrence when the nodes are well separated, and by
Gauss-Legendre quadrature of the iterated-integral (simplex) representation
when they are clustered, where the recurrence cancels catastrophically.
Both routes are exposed so they can cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import ChainDecomposition, ExponentFamily

__all__ = [
    "UNIT_NORM_TOL",
    "COALESCENCE_RTOL",
    "DEFAULT_SIMPLEX_ORDER",
    "DirectionAssignment",
    "CoefficientVector",
    "DividedDifferenceBasis",
    "eval_exponential",
    "eval_sum",
    "eval_divided_difference",
    "eval_dd_hermite_genocchi",
    "dd_derivative",
    "dd_derivative_bound",
]

UNIT_NORM_TOL = 1e-12
# below this node spread (relative to max(1, |t|)) the Newton recurrence is
# cancellation-dominated and the simplex quadrature takes over
COALESCENCE_RTOL = 1e-4
DEFAULT_SIMPLEX_ORDER = 16
DERIVATIVE_STEP_RTOL = 1e-5


@dataclass
class DirectionAssignment:
    """Unit direction vectors in C^d, one per family index."""

    d: int
    matrix: np.ndarray  # (n, d) complex, rows unit norm
    indices: np.ndarray

    def __post_init__(self):
        U = np.atleast_2d(np.asarray(self.matrix, dtype=complex))
        if U.shape != (len(self.indices), self.d):
            raise ValueError(f"direction matrix must have shape (n, d) = ({len(self.indices)}, {self.d})")
        norms = np.linalg.norm(U, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            raise ValueError("every direction vector must have unit norm within 1e-12")
        self.matrix = U
        self.indices = np.asarray(self.indices, dtype=int)

    def direction(self, index: int) -> np.ndarray:
        pos = np.flatnonzero(self.indices == index)
        if pos.size == 0:
            raise IndexError(f"no direction assigned to index {index}")
        return self.matrix[pos[0]]

    @classmethod
    def constant(cls, family: ExponentFamily, d: int = 1, axis: int = 0) -> "DirectionAssignment":
        """All indices on the same coordinate direction E_{axis+1}."""
        U = np.zeros((len(family), d), dtype=complex)
        U[:, axis] = 1.0
        return cls(d=d, matrix=U, indices=family.indices)

    @classmethod
    def from_partition(cls, partition) -> "DirectionAssignment":
        """U_k = E_j for indices of class j (orthonormal coordinate directions)."""
        fam = partition.family
        U = np.zeros((len(fam), partition.d), dtype=complex)
        for pos, index in enumerate(fam.indices):
            U[pos, partition.class_of[int(index)] - 1] = 1.0
        return cls(d=partition.d, matrix=U, indices=fam.indices)

    @classmethod
    def random(cls, family: ExponentFamily, d: int, seed: int = 0) -> "DirectionAssignment":
        """Haar-ish random unit vectors, deterministic given the seed."""
        rng = np.random.default_rng(seed)
        Z = rng.normal(size=(len(family), d)) + 1j * rng.normal(size=(len(family), d))
        Z /= np.linalg.norm(Z, axis=1, keepdims=True)
        return cls(d=d, matrix=Z, indices=family.indices)

    def subset(self, indices) -> "DirectionAssignment":
        """The directions of the given indices, in that order; IndexError names a missing one."""
        idx = np.asarray(list(indices), dtype=int)
        order = np.argsort(self.indices, kind="stable")
        rows = order[np.searchsorted(self.indices, idx, sorter=order).clip(max=order.size - 1)]
        missing = self.indices[rows] != idx
        if np.any(missing):
            raise IndexError(f"no direction assigned to index {idx[missing][0]}")
        return DirectionAssignment(d=self.d, matrix=self.matrix[rows], indices=idx)


@dataclass
class CoefficientVector:
    """Complex coefficients aligned with a family's index window."""

    indices: np.ndarray
    values: np.ndarray
    square_sum: float = -1.0

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=int)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.indices.shape:
            raise ValueError("values and indices must align")
        ss = float(np.sum(np.abs(self.values) ** 2))
        if self.square_sum >= 0 and abs(self.square_sum - ss) > 1e-12 * max(1.0, ss):
            raise ValueError("cached square-sum does not match the coefficients")
        self.square_sum = ss

    @classmethod
    def from_dict(cls, mapping: dict[int, complex]) -> "CoefficientVector":
        idx = np.array(sorted(mapping), dtype=int)
        return cls(indices=idx, values=np.array([mapping[int(i)] for i in idx]))


def eval_exponential(omega: float, U: np.ndarray, t: float) -> np.ndarray:
    """U * exp(i*omega*t) for a unit direction U."""
    U = np.asarray(U, dtype=complex)
    if abs(np.linalg.norm(U) - 1.0) > UNIT_NORM_TOL:
        raise ValueError("direction vector must have unit norm")
    return U * np.exp(1j * omega * t)


def eval_sum(
    family: ExponentFamily,
    directions: DirectionAssignment,
    coeffs: CoefficientVector,
    t,
) -> np.ndarray:
    """The coefficient sum  sum_k x_k U_k exp(i*w_k*t).

    Scalar t gives a (d,) vector; a 1-D t array gives shape (len(t), d).
    """
    if not np.array_equal(directions.indices, family.indices):
        raise ValueError("direction index set does not match the family window")
    if not np.array_equal(coeffs.indices, family.indices):
        raise ValueError("coefficient index set does not match the family window")
    tt = np.asarray(t, dtype=float)
    phases = np.exp(1j * np.multiply.outer(tt, family.exponents))  # (..., n)
    return (phases * coeffs.values) @ directions.matrix


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
    COALESCENCE_RTOL * max(1, |t|), and the simplex quadrature otherwise.
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
    tmax = max(1.0, float(np.max(np.abs(tarr))) if tarr.size else 1.0)
    if spread >= COALESCENCE_RTOL * tmax:
        out = _dd_recurrence(x, tarr)
    else:
        out = _hermite_genocchi(x, tarr, DEFAULT_SIMPLEX_ORDER)
    return out[0] if tt.ndim == 0 else out.reshape(tt.shape)


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
    phase = x[0] + S @ np.diff(x)  # (npts,)
    integral = np.einsum("p,pn->n", W, np.exp(1j * np.multiply.outer(phase, tarr)))
    return (1j * tarr) ** q * integral


def eval_dd_hermite_genocchi(nodes, t, quad_order: int = DEFAULT_SIMPLEX_ORDER):
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
    out = _hermite_genocchi(x, tarr, quad_order)
    return out[0] if tt.ndim == 0 else out.reshape(tt.shape)


def dd_derivative(nodes, t: float, h: float | None = None) -> complex:
    """Central finite difference in t of the divided difference."""
    if h is None:
        h = DERIVATIVE_STEP_RTOL * max(1.0, abs(t))
    if h <= 0:
        raise ValueError("step h must be positive")
    return (eval_divided_difference(nodes, t + h) - eval_divided_difference(nodes, t - h)) / (2.0 * h)


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
class DDescriptor:
    """One divided-difference basis function: nodes w_m..w_l of its chain prefix."""

    index: int
    chain_start: int
    nodes: np.ndarray

    @property
    def order(self) -> int:
        return self.nodes.size


@dataclass
class DividedDifferenceBasis:
    """Per-chain divided differences f_l = [w_m, ..., w_l] of a family."""

    family: ExponentFamily
    chains: ChainDecomposition
    descriptors: list[DDescriptor]

    @classmethod
    def from_chains(cls, family: ExponentFamily, chains: ChainDecomposition) -> "DividedDifferenceBasis":
        descriptors = []
        for chain in chains.chains:
            for index in range(chain.start, chain.stop + 1):
                nodes = np.array(
                    [family.value(i) for i in range(chain.start, index + 1)]
                )
                descriptors.append(DDescriptor(index=index, chain_start=chain.start, nodes=nodes))
        return cls(family=family, chains=chains, descriptors=descriptors)

    def __len__(self) -> int:
        return len(self.descriptors)

    @property
    def indices(self) -> np.ndarray:
        return np.array([desc.index for desc in self.descriptors], dtype=int)

    def nodes_for(self, index: int) -> np.ndarray:
        for desc in self.descriptors:
            if desc.index == index:
                return desc.nodes
        raise IndexError(f"no basis function for index {index}")

    def evaluate(self, index: int, t):
        """f_index(t); scalar or array t."""
        return eval_divided_difference(self.nodes_for(index), t)

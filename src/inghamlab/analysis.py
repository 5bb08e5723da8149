"""Spectral experiments: frame bounds, threshold sweeps, trace arguments, decay fits.

The estimates being probed are two-sided L2-energy equivalences for
exponential (or divided-difference) sums over a bounded interval, viewed
through finite sections: their constants are the extreme eigenvalues of the
truncated Gram matrix, and their failure shows up as the smallest eigenvalue
degenerating as the truncation grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, get_blas_funcs, get_lapack_funcs

from .basisfuncs import DirectionAssignment
from .exponents import ExponentFamily, detect_chains, generate_family
from .gram import (
    DividedDifferenceSystem,
    ExponentialSystem,
    FourierGrid,
    IntervalSpec,
    assemble_gram,
    extreme_eigenvalues,
    gated_cho_factor,
    grid_cauchy_factors,
    projection_defect_norms,
)

__all__ = [
    "DEFAULT_N_MAX",
    "TraceExperiment",
    "GridPointFailure",
    "frame_bound_sequence",
    "threshold_sweep",
    "run_trace_experiment",
    "defect_decay_fit",
    "defect_majorant",
    "conditioning_comparison",
]

# computed eigenvalues at or below this fraction of the spectral norm are
# indistinguishable from zero in double precision
EIGEN_FLOOR_RTOL = 1e-12
DEFAULT_N_MAX = 128  # largest truncation of a threshold sweep
DD_SPACING = 2.0  # pair spacing of a conditioning comparison's clustered-pairs families
STABLE_RATIO = 0.95  # lambda_min retention over the trailing doublings
DEGENERATING_RATIO = 0.80
TRACE_SOLVE_BLOCK = 256  # columns of X' per pair of triangular solves in a trace
INVERSE_AGREEMENT = 1e-13  # per function: the largest |n - tr(G^-1 G)| / n at which a trace keeps G^-1


class GridPointFailure(ArithmeticError):
    """Numerical failure at one point of a sweep, annotated with the point."""


def _system(family: ExponentFamily, directions: DirectionAssignment, lo: int, hi: int) -> ExponentialSystem:
    """The exponential system of family positions lo..hi (inclusive)."""
    rows = DirectionAssignment(directions.d, directions.matrix[lo : hi + 1])
    return ExponentialSystem(family.slice_positions(lo, hi), rows)


def _stability_verdict(sizes, lmins, lmaxs) -> str:
    """Classify the lambda_min trend over the trailing truncation doublings.

    stable: retention >= 95% over the last two doublings (from N/4 to N; from
    N/2 when the grid is too short); degenerating: retention <= 80% or
    lambda_min at the numerical floor; indeterminate otherwise.  For the
    nonincreasing lambda_min sequences interlacing guarantees, the
    two-doubling criterion implies the one-doubling one.
    """
    floor = EIGEN_FLOOR_RTOL * max(lmaxs)
    last = lmins[-1]
    if last <= floor:
        return "degenerating"
    ref_idx = None
    for quarter in (4.0, 2.0):
        for i in range(len(sizes) - 1):
            if sizes[i] <= sizes[-1] / quarter + 1e-9:
                ref_idx = i
        if ref_idx is not None:
            break
    if ref_idx is None:
        return "indeterminate"
    ref = max(lmins[ref_idx], floor)
    ratio = last / ref
    if ratio >= STABLE_RATIO:
        return "stable"
    if ratio <= DEGENERATING_RATIO:
        return "degenerating"
    return "indeterminate"


def frame_bound_sequence(
    family: ExponentFamily,
    directions: DirectionAssignment,
    interval: IntervalSpec,
    N_grid,
) -> list[dict]:
    """Extreme Gram eigenvalues of the 2N+1 centered functions for each N.

    One row per N: ``interval_length``, ``N``, ``lambda_min``, ``lambda_max``
    and the length's stability ``verdict``.  ``directions`` assigns one
    vector per family position.  The Gram is assembled once at the largest
    N; each smaller truncation is its centered principal submatrix, so the
    sections interlace.  Only spectra are read, and translating the interval
    is a diagonal unitary similarity, so only ``interval.length`` is used:
    the Gram is assembled on the interval of that length centered at 0,
    where it is real symmetric whenever the directions are real.
    """
    sizes = [int(N) for N in N_grid]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("N_grid must be strictly increasing")
    N_max, n = sizes[-1], len(family)
    if 2 * N_max + 1 > n:
        raise GridPointFailure(f"at N={N_max}: family window of {n} exponents cannot supply 2N+1 = {2 * N_max + 1}")
    centered = IntervalSpec.of_length(interval.length, -0.5 * interval.length)
    G = assemble_gram(_system(family, directions, n // 2 - N_max, n // 2 + N_max), centered)
    spectra = []  # (lambda_min, lambda_max) per N
    for N in sizes:
        block = slice(N_max - N, N_max + N + 1)
        try:
            spectra.append(extreme_eigenvalues(G[block, block]))
        except (ValueError, ArithmeticError) as exc:
            raise GridPointFailure(f"at N={N}: {exc}") from exc
    verdict = _stability_verdict(sizes, *zip(*spectra))
    return [
        {"interval_length": interval.length, "N": N, "lambda_min": lo, "lambda_max": hi, "verdict": verdict}
        for N, (lo, hi) in zip(sizes, spectra)
    ]


def threshold_sweep(
    family: ExponentFamily,
    directions: DirectionAssignment,
    lengths,
    N_max: int = DEFAULT_N_MAX,
) -> tuple[list[dict], dict]:
    """Frame-bound rows across interval lengths; brackets the transition.

    Truncations double up to N_max.  Returns the rows of every length's
    ``frame_bound_sequence``, in order, and a summary of the
    ``transition_bracket`` (last degenerating length, first stable length;
    None when the sweep crosses none) and the ``N_grid``.
    """
    lengths = [float(v) for v in lengths]
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValueError("interval lengths must be strictly increasing")
    N_grid = []
    N = max(4, N_max // 8)
    while N < N_max:
        N_grid.append(N)
        N *= 2
    N_grid.append(N_max)

    rows, verdicts = [], []
    for L in lengths:
        try:
            length_rows = frame_bound_sequence(family, directions, IntervalSpec.of_length(L), N_grid)
        except GridPointFailure as exc:
            raise GridPointFailure(f"at interval_length={L:.6g}: {exc}") from exc
        rows += length_rows
        verdicts.append(length_rows[0]["verdict"])
    bracket = None
    degens = [i for i, v in enumerate(verdicts) if v == "degenerating"]
    stables = [i for i, v in enumerate(verdicts) if v == "stable"]
    if degens and stables and degens[-1] < stables[0]:
        bracket = (lengths[degens[-1]], lengths[stables[0]])
    return rows, {"transition_bracket": bracket, "N_grid": N_grid}


@dataclass
class TraceExperiment:
    """Composition of the exponential-span and grid-span projections on V_r."""

    y: float
    r: float
    R: float
    d: int
    card_omega_r: int
    card_gamma: int
    trace_S: complex
    trace_decomposed: complex
    defect_norms: np.ndarray
    lemma2_bound: float

    @property
    def lemma2_holds(self) -> bool:
        return abs(self.trace_S) <= self.lemma2_bound + 1e-6

    @property
    def trace_agreement(self) -> float:
        return abs(self.trace_S - self.trace_decomposed)

    def to_row(self) -> dict:
        return {
            "y": self.y,
            "r": self.r,
            "R": self.R,
            "d": self.d,
            "card_omega_r": self.card_omega_r,
            "card_gamma": self.card_gamma,
            "trace_re": self.trace_S.real,
            "trace_im": self.trace_S.imag,
            "abs_trace": abs(self.trace_S),
            "lemma2_bound": self.lemma2_bound,
            "lemma2_pass": self.lemma2_holds,
            "trace_agreement": self.trace_agreement,
            "max_defect": float(np.max(self.defect_norms)),
        }


def _window(family: ExponentFamily, directions: DirectionAssignment, y: float, r: float) -> ExponentialSystem:
    """The exponential system of the positions with |w_k - y| < r."""
    inside = np.flatnonzero(np.abs(family.exponents - y) < r)
    if inside.size == 0:
        raise ValueError("no exponents inside the window: V_r is empty")
    return _system(family, directions, int(inside[0]), int(inside[-1]))


def _grid(interval: IntervalSpec, d: int, y: float, r: float, R: float) -> FourierGrid:
    """``FourierGrid.centered`` at radius r + R; a grid that is empty or too large to enumerate names R."""
    try:
        return FourierGrid.centered(interval, d, y, r + R)
    except (ValueError, ArithmeticError, MemoryError) as exc:  # empty; too many integers; (y +- r + R) |I| overflows
        raise GridPointFailure(f"at R={R:.6g}: {exc}") from exc


def run_trace_experiment(
    family: ExponentFamily,
    directions: DirectionAssignment,
    interval: IntervalSpec,
    y: float,
    r: float,
    R: float,
) -> TraceExperiment:
    """Trace of P_r Q_{r+R} restricted to the exponential span, two ways.

    Translating the interval is a diagonal unitary similarity of the V_r Gram G
    and of P below, so tr(G^-1 P) and the defects depend on ``interval.length``
    only: everything runs on the interval of that length centered at 0, where
    G is float64 for real directions and ``grid_cauchy_factors``' rho is real.
    Route one is tr(G^-1 P), P = conj(X) X^T = (rho rho^T) o (conj(V) V^T) o (C C^T)
    for the cross matrix X (rows e_k, columns the grid functions) and directions V;
    route two, Card + sum of ((Q - Id) e_k, phi_k) over the dual coefficients
    Y = X^T G^-1, is n + sum_jk (G^-1)_jk (P - G)_kj.  With p = d * Card(grid) >= n,
    P is formed in its upper triangle before the gate, and ``potri`` turns the gate's
    G = U^H U into G^-1 in place: both routes are dot sums over upper triangles, and
    differ by n - tr(G^-1 G), the inverse's own residual.  Such sums lose about
    cond(G) * eps, so G^-1 is kept only while that residual is at most
    INVERSE_AGREEMENT * n.  Else, and always when p < n, U = ``cho_factor(G)`` solves
    against the n x p cross factor X' = diag(rho) W, W[k, (g, j)] = C[k, g] V[k, j]
    (conj(X') X'^T = P), in blocks of TRACE_SOLVE_BLOCK columns: route one is the sum
    of squares ||U^-T X'||_F^2, route two solves U conj(Y^T) = conj(U^-T X').  Either
    way ``trace_im`` is exactly 0.  Measured: |trace| <= d * Card(grid).
    """
    if r <= 0 or R <= 0:
        raise ValueError("r and R must be positive")
    window = _window(family, directions, y, r)
    n, V = len(window.family), window.directions.matrix
    centered = IntervalSpec.of_length(interval.length, -0.5 * interval.length)
    grid = _grid(centered, directions.d, y, r, R)
    G = assemble_gram(window, centered)  # before P, whose n x n buffer would outlive the assembly
    rho, C = grid_cauchy_factors(window.family, grid)  # rho exactly real on the centered interval
    if grid.size >= n:  # P may have rank n
        CC = get_blas_funcs("syrk", (C,))(1.0, C.T, trans=1, lower=0)  # C C^T in the upper triangle, 0 below
    defect_norms = projection_defect_norms(np.square(C, out=C), V, centered)
    del C
    V = V.real if not np.any(V.imag) else V  # real directions factor in real arithmetic
    if grid.size >= n:
        rV = V * rho.real[:, None]
        P = np.einsum("kd,ld->lk", rV.conj(), rV).T  # F-ordered; einsum, not numpy's @ (see gram)
        P *= CC
        del CC
    U, _ = gated_cho_factor(G)  # G = U^H U
    inverse = grid.size >= n
    if inverse:
        U, info = get_lapack_funcs("potri", (U,))(U, lower=0, overwrite_c=1)  # G^-1 in U's upper triangle
        np.copyto(U, 0.0, where=~np.tri(n, dtype=bool).T)  # the strict lower triangle still holds G's
        flat = U.reshape(-1, order="F").view(np.float64)  # float views: one dot gives sum Re(a conj(b))

        def upper_sum(B):  # sum_jk (G^-1)_jk B_kj for a Hermitian B read in its upper triangle
            total = get_blas_funcs("dot", (flat,))(flat, B.reshape(-1, order="F").view(np.float64))
            return 2.0 * total - U.diagonal().real @ B.diagonal().real

        trace_direct = upper_sum(P)
        P -= G
        trace_decomposed = n + upper_sum(P)
        del P, U
        inverse = info == 0 and abs(trace_direct - trace_decomposed) <= INVERSE_AGREEMENT * n
        if not inverse:
            U, _ = cho_factor(G, overwrite_a=True, check_finite=False)  # the gate's factor again, in G's buffer
    del G
    if not inverse:  # the cross factor itself: X'[k, (g, j)] = rho[k] C[k, g] V[k, j]
        _, C = grid_cauchy_factors(window.family, grid)  # bitwise the C squared above
        X = np.empty((n, grid.size), dtype=V.dtype, order="F")
        np.multiply(C[:, None, :], V[:, :, None], out=X.reshape(n, directions.d, -1, order="F"))
        del C
        X *= rho.real[:, None]
        trsm = get_blas_funcs("trsm", (U, X))
        trace_direct, rows = 0.0, np.zeros(n, dtype=X.dtype)  # rows[k] = sum_a X'[k, a] conj(Y[a, k])
        for a0 in range(0, X.shape[1], TRACE_SOLVE_BLOCK):
            Z = np.array(X[:, a0 : a0 + TRACE_SOLVE_BLOCK], order="F")
            trsm(1.0, U, Z, side=0, trans_a=1, overwrite_b=1)  # U^T Z = X': Z^T = X'^T U^-1
            flat = Z.reshape(-1, order="F").view(np.float64)  # a view, not a ravelled copy
            trace_direct += get_blas_funcs("dot", (flat,))(flat, flat)
            np.conjugate(Z, out=Z)
            trsm(1.0, U, Z, side=0, overwrite_b=1)  # U conj(Y^T) = conj(Z); Y[a, k] = (phi_k, f_a)
            rows += np.einsum("ka,ka->k", X[:, a0 : a0 + TRACE_SOLVE_BLOCK], Z)
        trace_decomposed = n + np.sum(rows - 1.0)
    return TraceExperiment(
        y=float(y),
        r=float(r),
        R=float(R),
        d=directions.d,
        card_omega_r=n,
        card_gamma=int(grid.n_values.size),
        trace_S=complex(trace_direct, 0.0),
        trace_decomposed=complex(trace_decomposed),
        defect_norms=defect_norms,
        lemma2_bound=float(directions.d * grid.n_values.size),
    )


def defect_decay_fit(
    family: ExponentFamily,
    directions: DirectionAssignment,
    interval: IntervalSpec,
    y: float,
    r: float,
    R_grid,
) -> tuple[list[dict], dict]:
    """Log-log fit of the worst grid-projection defect against R.

    The fitted quantity is max over k in the window of ||(Q_{r+R} - Id) e_k||.
    One row per R: ``R``, ``max_defect``, ``defect_squared``, its ``majorant``
    (``defect_majorant``) and ``below_majorant``; the summary is the fit.
    The grids for increasing R are nested and centered on y, so the real
    factor C of ``grid_cauchy_factors`` at r + max(R), squared once, serves
    every R through a contiguous column block of ``projection_defect_norms``.
    Exactly representable families (defect at rounding level) short-circuit
    to the degenerate-zero-defect flag instead of fitting noise.
    """
    Rs = np.asarray(R_grid, dtype=float)
    if Rs.size < 4:
        raise ValueError("R grid must contain at least 4 points")
    if np.any(np.diff(Rs) <= 0):
        raise ValueError("R grid must be strictly increasing")
    if not np.all(Rs > 0):
        raise ValueError("R grid must be positive")
    window = _window(family, directions, y, r)
    _grid(interval, directions.d, y, r, Rs[0])  # names the least R if its grid is empty; the grids are nested
    grid = _grid(interval, directions.d, y, r, Rs[-1])
    _, C = grid_cauchy_factors(window.family, grid)
    energy = np.square(C, out=C)  # once for every R
    maxima = np.empty(Rs.size)
    for i, R in enumerate(Rs):
        cols = np.flatnonzero(np.abs(grid.frequencies - y) < r + R)  # FourierGrid.centered's test: not empty at Rs[0]
        block = energy[:, cols[0] : cols[-1] + 1]
        maxima[i] = projection_defect_norms(block, window.directions.matrix, interval).max()
    rows = []
    for R, v in zip(Rs, maxima):
        square, majorant = float(v**2), defect_majorant(directions.d, interval, float(R))
        rows.append({"R": float(R), "max_defect": float(v), "defect_squared": square,
                     "majorant": majorant, "below_majorant": square <= majorant})
    degenerate = bool(np.all(maxima <= 1e-7 * math.sqrt(interval.length)))
    slope, intercept = (math.nan, math.nan) if degenerate else np.polyfit(np.log(Rs), np.log(maxima), 1)
    return rows, {"slope": float(slope), "intercept": float(intercept), "degenerate_zero_defect": degenerate}


def defect_majorant(d: int, interval: IntervalSpec, R: float) -> float:
    """Explicit series bound for the squared defect: 8 d |I|^-1 sum_{n>=0} (2 pi n / |I| + R)^-2.

    The series sums exactly to psi_1(R / a) / a^2 with a = 2 pi / |I|
    (psi_1 the trigamma function); it diverges unless R > 0.
    """
    # deferred: scipy.special adds ~20 ms and ~3 MB to every CLI start
    from scipy.special import polygamma

    if not R > 0:
        raise ValueError(f"R must be positive, got {R}")
    a = 2.0 * math.pi / interval.length
    return 8.0 * d / interval.length * float(polygamma(1, R / a)) / a**2


def conditioning_comparison(
    interval: IntervalSpec,
    delta_grid,
    spacing: float = DD_SPACING,
    window=(0.0, 8.0),
    gamma_prime: float = 0.5,
    M: int = 2,
    normalize_dd: bool = True,
) -> tuple[list[dict], dict]:
    """Condition numbers of raw-exponential vs divided-difference Grams per delta.

    The raw system on a clustered-pairs family degenerates like delta^-2;
    the divided-difference system stays bounded.  A smallest eigenvalue at
    the double-precision floor, raw or DD, makes its condition number
    "overflow" rather than a meaningless quotient, and so is the ratio
    cond_raw / cond_dd when either is.  Returns one row per delta and the
    summary ``normalized_dd``.
    """
    deltas = [float(v) for v in delta_grid]
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta grid must be strictly increasing")
    centered = IntervalSpec.of_length(interval.length, -0.5 * interval.length)  # raw only: translated DDs recombine
    rows = []
    for delta in deltas:
        try:
            fam = generate_family("clustered-pairs", spacing=spacing, delta=delta, window=list(window))
            dirs = DirectionAssignment.constant(fam, 1)
            lo, hi = extreme_eigenvalues(assemble_gram(ExponentialSystem(fam, dirs), centered))
            dd_system = DividedDifferenceSystem(fam, detect_chains(fam, gamma_prime, M), dirs, normalize=normalize_dd)
            lo_dd, hi_dd = extreme_eigenvalues(assemble_gram(dd_system, interval))
        except (ValueError, ArithmeticError) as exc:
            raise GridPointFailure(f"at delta={delta:.6g}: {exc}") from exc
        cond_raw = "overflow" if lo <= EIGEN_FLOOR_RTOL * hi else hi / lo
        cond_dd = "overflow" if lo_dd <= EIGEN_FLOOR_RTOL * hi_dd else hi_dd / lo_dd
        ratio = "overflow" if "overflow" in (cond_raw, cond_dd) else cond_raw / cond_dd
        rows.append({"delta": delta, "cond_raw": cond_raw, "cond_dd": cond_dd, "ratio": ratio})
    return rows, {"normalized_dd": normalize_dd}

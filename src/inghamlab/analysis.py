"""Spectral experiments: frame bounds, threshold sweeps, trace arguments, decay fits.

The estimates being probed are two-sided L2-energy equivalences for
exponential (or divided-difference) sums over a bounded interval, viewed
through finite sections: their constants are the extreme eigenvalues of the
truncated Gram matrix, and their failure shows up as the smallest eigenvalue
degenerating as the truncation grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

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
    "FrameBoundReport",
    "TraceExperiment",
    "SweepResult",
    "DefectDecayFit",
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
TRACE_SOLVE_BLOCK = 256  # columns of X' per pair of trailing-triangle solves in a trace


class GridPointFailure(ArithmeticError):
    """Numerical failure at one point of a sweep, annotated with the point."""


@dataclass
class FrameBoundReport:
    """Extreme Gram eigenvalues against truncation size, with a stability verdict."""

    sizes: list[int]
    lambda_min: list[float]
    lambda_max: list[float]
    interval_length: float
    verdict: str = "indeterminate"

    def to_rows(self) -> list[dict]:
        return [
            {
                "interval_length": self.interval_length,
                "N": N,
                "lambda_min": lo,
                "lambda_max": hi,
                "verdict": self.verdict,
            }
            for N, lo, hi in zip(self.sizes, self.lambda_min, self.lambda_max)
        ]


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
) -> FrameBoundReport:
    """Extreme Gram eigenvalues of the 2N+1 centered functions for each N.

    ``directions`` assigns one vector per family position.  The Gram is
    assembled once at the largest N; each smaller truncation is its centered
    principal submatrix, so the sections interlace.  Only spectra are read,
    and translating the interval is a diagonal unitary similarity, so only
    ``interval.length`` is used: the Gram is assembled on the interval of
    that length centered at 0, where it is real symmetric whenever the
    directions are real.
    """
    sizes = [int(N) for N in N_grid]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("N_grid must be strictly increasing")
    N_max, n = sizes[-1], len(family)
    if 2 * N_max + 1 > n:
        raise GridPointFailure(f"at N={N_max}: family window of {n} exponents cannot supply 2N+1 = {2 * N_max + 1}")
    centered = IntervalSpec.of_length(interval.length, -0.5 * interval.length)
    G = assemble_gram(_system(family, directions, n // 2 - N_max, n // 2 + N_max), centered)
    lmins, lmaxs = [], []
    for N in sizes:
        block = slice(N_max - N, N_max + N + 1)
        try:
            lo, hi = extreme_eigenvalues(G[block, block])
        except (ValueError, ArithmeticError) as exc:
            raise GridPointFailure(f"at N={N}: {exc}") from exc
        lmins.append(lo)
        lmaxs.append(hi)
    return FrameBoundReport(
        sizes=sizes,
        lambda_min=lmins,
        lambda_max=lmaxs,
        interval_length=interval.length,
        verdict=_stability_verdict(sizes, lmins, lmaxs),
    )


@dataclass
class SweepResult:
    """One experiment value per point of a strictly increasing grid."""

    grid: list
    results: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        g = list(self.grid)
        if any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError("sweep grid must be strictly increasing")

    def to_rows(self) -> list[dict]:
        """The rows of every per-point result, in grid order: a report's rows, or the result itself if it is a row."""
        return [row for result in self.results for row in ([result] if isinstance(result, dict) else result.to_rows())]


def threshold_sweep(
    family: ExponentFamily,
    directions: DirectionAssignment,
    lengths,
    N_max: int = DEFAULT_N_MAX,
) -> SweepResult:
    """Frame-bound reports across interval lengths; brackets the transition.

    Truncations double up to N_max.  The metadata records the transition
    bracket (last degenerating length, first stable length) when the sweep
    crosses one.
    """
    lengths = [float(v) for v in lengths]
    N_grid = []
    N = max(4, N_max // 8)
    while N < N_max:
        N_grid.append(N)
        N *= 2
    N_grid.append(N_max)

    reports = []
    for L in lengths:
        try:
            reports.append(frame_bound_sequence(family, directions, IntervalSpec.of_length(L), N_grid))
        except GridPointFailure as exc:
            raise GridPointFailure(f"at interval_length={L:.6g}: {exc}") from exc
    verdicts = [rep.verdict for rep in reports]
    bracket = None
    degens = [i for i, v in enumerate(verdicts) if v == "degenerating"]
    stables = [i for i, v in enumerate(verdicts) if v == "stable"]
    if degens and stables and degens[-1] < stables[0]:
        bracket = (lengths[degens[-1]], lengths[stables[0]])
    return SweepResult(grid=lengths, results=reports, metadata={"N_grid": N_grid, "transition_bracket": bracket})


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


def run_trace_experiment(
    family: ExponentFamily,
    directions: DirectionAssignment,
    interval: IntervalSpec,
    y: float,
    r: float,
    R: float,
) -> TraceExperiment:
    """Trace of P_r Q_{r+R} restricted to the exponential span, two ways, with no inverse.

    Translating the interval is a diagonal unitary similarity of the V_r Gram G
    and of P below, so tr(G^-1 P) and the defects depend on ``interval.length``
    only: everything runs on the interval of that length centered at 0, where
    G is float64 for real directions and ``grid_cauchy_factors``' rho is real.
    Both routes read the cross matrix X (rows e_k, columns the grid functions)
    only through P = conj(X) X^T = (conj(rho) rho^T) o (conj(V) V^T) o (C C^T),
    with rho and the real C from ``grid_cauchy_factors``: one real ``syrk`` over
    C (V holds the directions) gives A = (V V^H) o (C C^T), conj(P) =
    diag(rho) A diag(rho).  With p = d * Card(grid) >= n, unpivoted ``potrf``
    factors A = L L^H, kept when every L_kk^2 exceeds pstrf's default stop
    n * eps * max A_kk: X' = diag(rho) L is n x n, and p below is the identity.
    Else (p < n, so rank P < n and potrf may factor rounding noise, or a failed
    test) ``pstrf`` at that default, which stops at the numerical rank, gives in
    its pivot order p X' = diag(rho[p]) L, L lower trapezoidal, n x rank(P):
    conj(X') X'^T = P[p, p].  G is permuted by the same order and gated,
    G[p, p] = U^H U, so route one,
    tr(G^-1 P) = ||U^-T X'||_F^2, is a sum of squares after a triangular solve
    whose solution is lower trapezoidal too: column a of X' needs only the
    trailing triangle U[a:, a:], and the solves run on blocks of
    TRACE_SOLVE_BLOCK columns against the trailing triangle of the block's
    first column.  ``trace_im`` is exactly 0.  Route two is
    Card + sum of ((Q - Id) e_k, phi_k) with the dual coefficients
    Y = X'^T G[p, p]^-1, read only where X' != 0: back substitution
    U conj(Y^T) = conj(U^-T X') on the same trailing triangle gives exactly
    those entries.  It is the same sum, so ``trace_agreement`` measures
    rounding only.  Measured: |trace| <= d * Card(grid).
    """
    if r <= 0 or R <= 0:
        raise ValueError("r and R must be positive")
    window = _window(family, directions, y, r)
    n, V = len(window.family), window.directions.matrix
    centered = IntervalSpec.of_length(interval.length, -0.5 * interval.length)
    grid = FourierGrid.centered(centered, directions.d, y, r + R)
    G = assemble_gram(window, centered)  # before A, whose n x n buffer would outlive the assembly
    rho, C = grid_cauchy_factors(window.family, grid)
    rho = rho.real  # exactly real on the centered interval
    CC = get_blas_funcs("syrk", (C,))(1.0, C.T, trans=1, lower=1)  # C C^T in the lower triangle; C.T is F-ordered
    defect_norms = projection_defect_norms(np.square(C, out=C), V, centered)
    del C
    V = V.real if not np.any(V.imag) else V  # real directions factor in real arithmetic
    A, X = np.einsum("kd,ld->lk", V, V.conj()).T, None  # A F-ordered; einsum, not numpy's @ (see gram)
    A *= CC
    if grid.size >= n:  # P may have rank n: the unpivoted factor, unless a pivot falls to pstrf's default stop
        stop = n * 2.0**-53 * A.diagonal().real.max()  # n * dlamch('E') * max A_kk
        L, info = get_lapack_funcs("potrf", (A,))(A, lower=1, clean=1, overwrite_a=1)  # A = L L^H in place
        if info == 0 and L.diagonal().real.min() ** 2 > stop:
            X, rank, p = L, n, slice(None)  # conj(X') X'^T = P, G in assembly order
        else:  # potrf overwrote A: build it again in its buffer
            np.einsum("kd,ld->lk", V, V.conj(), out=A.T)
            A *= CC
    del CC
    if X is None:
        c, piv, rank, _ = get_lapack_funcs("pstrf", (A,))(A, lower=1, overwrite_a=1)  # A[p, p] = L L^H
        p = piv - 1
        X = c[:, :rank]  # F-contiguous: conj(X') X'^T = P[p, p]
        np.copyto(X, 0.0, where=np.tri(rank, n, k=-1, dtype=bool).T)  # pstrf leaves A above the diagonal
        G = G[:, p]  # two plain gathers, each freeing its predecessor: G[p, p]
        G = G[p]
    X *= rho[p, None]  # X' = diag(rho[p]) L, in the factor's buffer
    U, _ = gated_cho_factor(G)  # G = U^H U, or G[p, p]: G's spectrum and Frobenius norm
    del G
    trsm = get_blas_funcs("trsm", (U, X))
    trace_direct = 0.0
    rows = np.zeros(n, dtype=X.dtype)  # rows[k] = sum_a X'[k, a] conj(Y[a, k])
    for a0 in range(0, rank, TRACE_SOLVE_BLOCK):
        a1 = min(a0 + TRACE_SOLVE_BLOCK, rank)
        if a0:  # U becomes its trailing triangle U[a0:, a0:], one copy per block (f2py would copy a view per call)
            U = np.array(U[TRACE_SOLVE_BLOCK:, TRACE_SOLVE_BLOCK:], order="F")
        Z = np.array(X[a0:, a0:a1], order="F")
        trsm(1.0, U, Z, side=0, trans_a=1, overwrite_b=1)  # U^T Z = X': rows a0.. of Z^T = (X'^T U^-1)^T
        flat = Z.reshape(-1, order="F").view(np.float64)  # a view, not a ravelled copy
        trace_direct += get_blas_funcs("dot", (flat,))(flat, flat)
        np.conjugate(Z, out=Z)
        trsm(1.0, U, Z, side=0, overwrite_b=1)  # U conj(Y^T) = conj(Z); Y[a, k] = (phi_k, f_a)
        rows[a0:] += np.einsum("ka,ka->k", X[a0:, a0:a1], Z)
    return TraceExperiment(
        y=float(y),
        r=float(r),
        R=float(R),
        d=directions.d,
        card_omega_r=n,
        card_gamma=int(grid.n_values.size),
        trace_S=complex(trace_direct, 0.0),
        trace_decomposed=complex(n + np.sum(rows - 1.0)),
        defect_norms=defect_norms,
        lemma2_bound=float(directions.d * grid.n_values.size),
    )


@dataclass
class DefectDecayFit:
    R_grid: np.ndarray
    max_defects: np.ndarray
    slope: float
    intercept: float
    degenerate_zero_defect: bool = False

    def to_rows(self) -> list[dict]:
        return [
            {"R": float(R), "max_defect": float(v), "defect_squared": float(v**2)}
            for R, v in zip(self.R_grid, self.max_defects)
        ]


def defect_decay_fit(
    family: ExponentFamily,
    directions: DirectionAssignment,
    interval: IntervalSpec,
    y: float,
    r: float,
    R_grid,
) -> DefectDecayFit:
    """Log-log fit of the worst grid-projection defect against R.

    The fitted quantity is max over k in the window of ||(Q_{r+R} - Id) e_k||.
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
    try:
        grid = FourierGrid.centered(interval, directions.d, y, r + Rs[-1])
    except ValueError as exc:  # every smaller grid is empty too
        raise GridPointFailure(f"at R={Rs[0]:.6g}: {exc}") from exc
    _, C = grid_cauchy_factors(window.family, grid)
    energy = np.square(C, out=C)  # once for every R
    maxima = np.empty(Rs.size)
    for i, R in enumerate(Rs):
        cols = np.flatnonzero(np.abs(grid.frequencies - y) < r + R)  # FourierGrid.centered's test at r + R
        if cols.size == 0:
            raise GridPointFailure(f"at R={R:.6g}: no grid frequencies inside the window")
        block = energy[:, cols[0] : cols[-1] + 1]
        maxima[i] = projection_defect_norms(block, window.directions.matrix, interval).max()
    if np.all(maxima <= 1e-7 * math.sqrt(interval.length)):
        return DefectDecayFit(R_grid=Rs, max_defects=maxima, slope=float("nan"),
                              intercept=float("nan"), degenerate_zero_defect=True)
    slope, intercept = np.polyfit(np.log(Rs), np.log(maxima), 1)
    return DefectDecayFit(R_grid=Rs, max_defects=maxima, slope=float(slope), intercept=float(intercept))


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
) -> SweepResult:
    """Condition numbers of raw-exponential vs divided-difference Grams per delta.

    The raw system on a clustered-pairs family degenerates like delta^-2;
    the divided-difference system stays bounded.  A smallest eigenvalue at
    the double-precision floor, raw or DD, makes its condition number
    "overflow" rather than a meaningless quotient, and so is the ratio
    cond_raw / cond_dd when either is.
    """
    deltas = [float(v) for v in delta_grid]
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
    return SweepResult(grid=deltas, results=rows, metadata={"normalized_dd": normalize_dd})

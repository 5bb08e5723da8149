import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack as scipy_lapack

from inghamlab import analysis
from inghamlab.analysis import (
    EIGEN_FLOOR_RTOL,
    GridPointFailure,
    conditioning_comparison,
    defect_decay_fit,
    defect_majorant,
    frame_bound_sequence,
    run_trace_experiment,
    threshold_sweep,
)
from inghamlab.basisfuncs import DirectionAssignment
from inghamlab.exponents import (
    ExponentFamily,
    build_sharpness_partition,
    detect_chains,
    generate_family,
)
from inghamlab.gram import (
    TERM_PRODUCTS_PER_BLOCK,
    DividedDifferenceSystem,
    ExponentialSystem,
    FourierGrid,
    IntervalSpec,
    NearSingularGramError,
    assemble_gram,
    exp_inner_closed_form,
    extreme_eigenvalues,
    gated_cho_factor,
    grid_cauchy_factors,
    grid_cauchy_sums,
)

from oracles import (
    coset_spectrum,
    cross_defect_norms,
    cross_gram_upper,
    cross_inner_matrix,
    dd_threshold_check,
    defect_majorant_series,
    defect_norms_exact,
    density_chain_check,
    explicit_cauchy_sums,
    hermitian_2x2_eigs,
    lattice_spectrum,
    power_extremes,
    projection_defect_norms,
    trace_by_inverse,
    trace_exact,
)

TWO_PI = 2.0 * math.pi

# measured with the eigensolve oracle at delta = 1e-3, I = (0, 2pi),
# pair spacing 2, window [0, 8], normalized divided-difference Gram
MEASURED_CONDITIONING_RATIO = 5.42e4

# largest condition number of the V_r Gram a trace case may have for the 1e-12
# oracle comparison: measured over 503 draws of ``trace_cases``' ranges, the
# worst relative difference was 2.8e-13 at cond <= 3e4, 6.7e-13 at 1e5 and
# 2.2e-12 at 1e6 (the explicit-inverse oracle loses digits with cond as well)
TRACE_COND_MAX = 3e4

# largest distance, relative to lambda_max, between a lattice Gram's eigenvalues and the prolate
# oracle: measured over TestLatticeOracle's cases, at most 2.1e-14 for the full spectrum (n = 513 at
# |I| = 0.999 * 4pi; 1.1e-14 on |I| in {3, 5, 8, 9.5, 11}) and 1.8e-14 for ``extreme_eigenvalues``' ends
LATTICE_ORACLE_RTOL = 5e-14

MPMATH_PINS = [(14, 3e-9), (27, 2e-12)]  # (seed, rtol) of the rank-deficient mpmath trace pins


def column(rows, key):
    """One value of every row, in row order."""
    return [row[key] for row in rows]


def verdict(rows):
    """The stability verdict of one length's frame-bound rows, which all carry it."""
    (value,) = set(column(rows, "verdict"))
    return value


def length_verdicts(rows, summary):
    """The verdict of each length of a threshold sweep, in order: the one on its row at the largest N."""
    return [row["verdict"] for row in rows if row["N"] == summary["N_grid"][-1]]


def lapack_spy(patch):
    """The names of the LAPACK routines ``analysis`` requests, in order, while ``patch`` holds."""
    names, lookup = [], analysis.get_lapack_funcs

    def spy(name, arrays):
        names.append(name)
        return lookup(name, arrays)

    patch.setattr(analysis, "get_lapack_funcs", spy)
    return names


def cho_factor_spy(patch):
    """The matrices ``analysis`` factors again with ``cho_factor`` while ``patch`` holds."""
    matrices, factor = [], analysis.cho_factor
    patch.setattr(analysis, "cho_factor", lambda G, **kwargs: matrices.append(G.shape) or factor(G, **kwargs))
    return matrices


def trace_run(*args):
    """The row of ``run_trace_experiment(*args)``, its trace trace_re + i trace_im, and the
    (trace_direct, trace_decomposed, defect_norms, n, card_gamma) of ``analysis._trace_routes``
    that the row was built from."""
    routes, inner = [], analysis._trace_routes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_trace_routes", lambda *a: routes.append(inner(*a)) or routes[-1])
        [row], _ = run_trace_experiment(*args)
    return row, complex(row["trace_re"], row["trace_im"]), routes[0]


@st.composite
def trace_cases(draw, r_max=12.0):
    """(family, directions, interval, y, r, R), d = 1..3, r up to r_max; half of them on
    |I| < 2 pi/d with r < 6 and R < 3, where the grid has fewer columns than the window
    has exponents (p < n)."""
    d = draw(st.integers(1, 3))
    short = draw(st.booleans())
    length = draw(st.floats(1.0, TWO_PI / d)) if short else draw(st.floats(TWO_PI / d, 9.0))
    a = draw(st.floats(-3.0, 3.0))
    y, r = draw(st.floats(-3.0, 3.0)), draw(st.floats(2.0, 6.0 if short else r_max))
    R = draw(st.floats(0.05, 3.0)) if short else draw(st.floats(0.05, 30.0))
    fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                          window=[-40, 40], seed=draw(st.integers(0, 999)))
    dirs = DirectionAssignment.random(fam, d, seed=draw(st.integers(0, 999)))
    return fam, dirs, IntervalSpec(a, a + length), y, r, R


@st.composite
def constant_direction_cases(draw):
    """(family, directions, interval, y, r, R) with constant directions, d = 2 or 3, and |I| a
    fraction 0.8..1 of 2 pi r/(r + R): mostly card(grid) < n <= p = d card(grid), where
    P = (rho rho^T) o (C C^T) has rank at most card(grid) < n although p >= n."""
    d, a, y = draw(st.integers(2, 3)), draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    r, R = draw(st.floats(2.0, 12.0)), draw(st.floats(0.05, 3.0))
    length = draw(st.floats(0.8, 1.0)) * TWO_PI * r / (r + R)
    fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                          window=[-40, 40], seed=draw(st.integers(0, 999)))
    return fam, DirectionAssignment.constant(fam, d), IntervalSpec(a, a + length), y, r, R


@st.composite
def ill_conditioned_cases(draw):
    """(family, directions, interval, y, r, R) with constant directions, d = 1..3, |I| in [3, 4.5]
    below 2 pi and R past 2 pi r/(d |I|) - r: mostly p >= n, with cond(G) in (1e6, 1e10) in about half."""
    d, a, y = draw(st.integers(1, 3)), draw(st.floats(-3.0, 3.0)), draw(st.floats(-3.0, 3.0))
    length, r = draw(st.floats(3.0, 4.5)), draw(st.floats(5.0, 10.0))
    R = max(0.05, TWO_PI * r / (d * length) - r) + draw(st.floats(0.5, 6.0))
    fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                          window=[-40, 40], seed=draw(st.integers(0, 999)))
    return fam, DirectionAssignment.constant(fam, d), IntervalSpec(a, a + length), y, r, R


class TestExtremeEigenvalues:
    def test_scaled_identity(self):
        G = TWO_PI * np.eye(7, dtype=complex)
        assert extreme_eigenvalues(G) == (pytest.approx(TWO_PI), pytest.approx(TWO_PI))

    def test_diagonal(self):
        lo, hi = extreme_eigenvalues(np.diag([1.0, 3.0]).astype(complex))
        assert (lo, hi) == (pytest.approx(1.0), pytest.approx(3.0))

    def test_two_by_two_rank_one_formula(self):
        I = IntervalSpec(0, TWO_PI)
        s = exp_inner_closed_form(0.5, I)
        G = np.array([[TWO_PI, s], [np.conj(s), TWO_PI]])
        lo, hi = extreme_eigenvalues(G)
        assert lo == pytest.approx(TWO_PI - abs(s), abs=1e-10)
        assert hi == pytest.approx(TWO_PI + abs(s), abs=1e-10)
        oracle = hermitian_2x2_eigs(TWO_PI, s, TWO_PI)
        assert (lo, hi) == (pytest.approx(oracle[0]), pytest.approx(oracle[1]))

    def test_matches_power_iteration_oracle(self):
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                              window=[-6, 6], seed=5)
        dirs = DirectionAssignment.constant(fam, 1)
        G = assemble_gram(ExponentialSystem(fam, dirs), IntervalSpec(0, TWO_PI))
        olo, ohi = power_extremes(G)  # before the read, which reduces G in its own buffer
        lo, hi = extreme_eigenvalues(G)
        assert lo == pytest.approx(olo, rel=1e-8)
        assert hi == pytest.approx(ohi, rel=1e-8)

    @staticmethod
    def kind_gram(kind):
        """A centered Gram of clustered pairs: float64, complex, or complex with a zero imaginary part."""
        fam = generate_family("clustered-pairs", spacing=1.0, delta=1e-3, window=[0.0, 8.0])
        centered = IntervalSpec(-3.0, 3.0)
        if kind == "real-valued complex":  # solved in real arithmetic, decided on the lower triangle too
            system = DividedDifferenceSystem(fam, detect_chains(fam, 0.5, 2), DirectionAssignment.constant(fam, 1))
        else:
            rule = DirectionAssignment.constant if kind == "float64" else DirectionAssignment.random
            system = ExponentialSystem(fam, rule(fam, 2))
        G = assemble_gram(system, centered)
        assert G.dtype == (np.float64 if kind == "float64" else np.complex128)
        assert np.any(G.imag) == (kind == "complex")
        return G

    @pytest.mark.parametrize("kind", ["float64", "complex", "real-valued complex"])
    def test_upper_triangle_breaks_residual_contract(self, kind):
        # the contract reads the strict upper triangle, so finite garbage there, or a NaN that
        # a plain ``residual > bound`` would let through, raises instead of returning the clean values
        G = self.kind_gram(kind)
        upper = np.triu_indices(G.shape[0], 1)
        finite = 1e3 * np.random.default_rng(0).normal(size=(2, upper[0].size))
        garbage = (np.nan, finite[0]) if kind == "float64" else (complex(np.nan, np.nan), finite[0] + 1j * finite[1])
        for value in garbage:
            H = G.copy()
            H[upper] = value
            with pytest.raises(ArithmeticError, match="residual"):
                extreme_eigenvalues(H)
        H = G.copy()
        H[0, 5] = np.nan  # one NaN suffices
        with pytest.raises(ArithmeticError, match="residual"):
            extreme_eigenvalues(H)

    @pytest.mark.parametrize("kind", ["float64", "complex", "real-valued complex"])
    def test_overwrite_reads_the_same_values(self, kind):
        # a Gram is reduced in its own buffer when that is F-ordered in the solved dtype (the
        # real-valued complex one is solved through a strided G.real, so in a copy), and the
        # contract is read from its strict upper triangle and saved diagonal
        G = self.kind_gram(kind)
        n = G.shape[0]
        kept = G.copy(order="F")
        for block in (slice(0, n), slice(1, n - 1), slice(3, n // 2)):
            section = G[block, block]  # strided but for the full block
            clean = extreme_eigenvalues(section.copy())  # C-ordered: reduced in an F-ordered copy
            H = np.array(section, order="F")
            assert extreme_eigenvalues(H) == clean
            assert np.array_equal(np.triu(H), np.triu(section))  # the upper triangle and diagonal as they were
            assert np.array_equal(H, section) == (kind == "real-valued complex")  # else T and reflectors below
            if block != slice(0, n):  # a strided view is reduced in a copy
                assert extreme_eigenvalues(section) == clean
        assert np.array_equal(G, kept)

    def test_complex_read_holds_no_second_array(self):
        # a complex Gram handed over is reduced in its own buffer, and whether it is real-valued
        # is read by column blocks of its strict lower triangle: measured at n = 1025 (random
        # d = 2), a peak of 0.57 MB against hetrd's 0.52 MB workspace, where the n x n test
        # np.tril(G.imag, -1) took 9.5 MB
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2, window=[-512, 512], seed=3)
        G = assemble_gram(ExponentialSystem(fam, DirectionAssignment.random(fam, 2, seed=3)), IntervalSpec(-2.5, 2.5))
        n = G.shape[0]
        assert (n, G.dtype, G.flags.f_contiguous) == (1025, np.complex128, True)
        extreme_eigenvalues(G.copy(order="F"))  # warm caches outside the measurement
        tracemalloc.start()
        try:
            extreme_eigenvalues(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lwork, _ = scipy_lapack.zhetrd_lwork(n, lower=1)
        assert peak <= 16 * int(np.real(lwork)) + 2 * 2**20


class TestFrameBoundSequence:
    def test_parseval_baseline_exact(self):
        fam = generate_family("lattice", spacing=1.0, window=[-80, 80])
        dirs = DirectionAssignment.constant(fam, 1)
        rows = frame_bound_sequence(fam, dirs, IntervalSpec(0, TWO_PI), [8, 16, 32, 64])
        for row in rows:
            assert row["lambda_min"] == pytest.approx(TWO_PI, abs=1e-10)
            assert row["lambda_max"] == pytest.approx(TWO_PI, abs=1e-10)
        assert verdict(rows) == "stable"

    def test_supercritical_stable(self):
        fam = generate_family("lattice", spacing=1.0, window=[-80, 80])
        dirs = DirectionAssignment.constant(fam, 1)
        rows = frame_bound_sequence(fam, dirs, IntervalSpec.of_length(2.2 * math.pi), [8, 16, 32, 64])
        assert all(v > 1.0 for v in column(rows, "lambda_min"))
        assert verdict(rows) == "stable"

    def test_subcritical_degenerating(self):
        fam = generate_family("lattice", spacing=1.0, window=[-80, 80])
        dirs = DirectionAssignment.constant(fam, 1)
        rows = frame_bound_sequence(fam, dirs, IntervalSpec.of_length(1.8 * math.pi), [8, 16, 32, 64])
        assert verdict(rows) == "degenerating"
        floor = EIGEN_FLOOR_RTOL * max(column(rows, "lambda_max"))
        above = [v for v in column(rows, "lambda_min") if v > floor]
        assert all(b < a for a, b in zip(above, above[1:]))

    def test_interlacing(self):
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.15,
                              window=[-80, 80], seed=3)
        dirs = DirectionAssignment.constant(fam, 1)
        rows = frame_bound_sequence(fam, dirs, IntervalSpec.of_length(2.3 * math.pi), [4, 8, 16, 32])
        lmins, lmaxs = column(rows, "lambda_min"), column(rows, "lambda_max")
        assert all(b <= a + 1e-10 for a, b in zip(lmins, lmins[1:]))
        assert all(b >= a - 1e-10 for a, b in zip(lmaxs, lmaxs[1:]))

    @pytest.mark.parametrize("family_seed", [3, 5])
    def test_random_directions_interlace(self, family_seed):
        # one direction per family index: every truncation is a principal
        # submatrix of the largest, so Cauchy interlacing must hold
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                              window=[-64, 64], seed=family_seed)
        dirs = DirectionAssignment.random(fam, 2, seed=5)
        rows = frame_bound_sequence(fam, dirs, IntervalSpec.of_length(5.0), [8, 16, 32, 64])
        lmins, lmaxs = column(rows, "lambda_min"), column(rows, "lambda_max")
        tol = 1e-12 * max(lmaxs)
        assert all(b <= a + tol for a, b in zip(lmins, lmins[1:]))
        assert all(b >= a - tol for a, b in zip(lmaxs, lmaxs[1:]))

    def test_peak_memory_one_gram_per_length(self):
        # each read reduces the block it is handed in place, the full one last, so a length holds
        # one n x n array: measured at n = 1025, 10.7 MB against the Gram's 8.4 MB; reads that
        # copied their block, as f2py did before a read took its Gram over, peaked at 17.1 MB
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2, window=[-512, 512], seed=3)
        n = len(fam)
        assert n == 1025
        dirs, interval, N_grid = DirectionAssignment.constant(fam, 1), IntervalSpec.of_length(5.0), [128, 256, 512]
        frame_bound_sequence(fam, dirs, interval, N_grid)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            frame_bound_sequence(fam, dirs, interval, N_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gram_bytes, row_block = 8 * n * n, 56 * TERM_PRODUCTS_PER_BLOCK  # the assembly's bound on a row block
        assert row_block < gram_bytes // 2  # so that a second n x n array cannot hide in the bound
        assert peak <= gram_bytes + 64 * n * 8 + row_block  # the blocked reduction's workspace is n x 32

    def test_short_family_names_grid_point(self):
        fam = generate_family("lattice", spacing=1.0, window=[-20, 20])
        with pytest.raises(GridPointFailure, match="at N=32: family window of 41 exponents"):
            frame_bound_sequence(fam, DirectionAssignment.constant(fam, 1), IntervalSpec(0, TWO_PI), [8, 16, 32])

    def test_rows_serialize(self):
        fam = generate_family("lattice", spacing=1.0, window=[-40, 40])
        dirs = DirectionAssignment.constant(fam, 1)
        rows = frame_bound_sequence(fam, dirs, IntervalSpec(0, TWO_PI), [8, 16])
        assert len(rows) == 2
        assert set(rows[0]) == {"interval_length", "N", "lambda_min", "lambda_max", "verdict"}


class TestThresholdSweep:
    def test_scalar_transition(self):
        fam = generate_family("lattice", spacing=1.0, window=[-80, 80])
        lengths = [1.6 * math.pi, 1.8 * math.pi, 2.2 * math.pi, 2.4 * math.pi]
        dirs = DirectionAssignment.constant(fam, 1)
        rows, summary = threshold_sweep(fam, dirs, lengths, N_max=64)
        assert length_verdicts(rows, summary) == [
            "degenerating", "degenerating", "stable", "stable",
        ]
        assert summary["transition_bracket"] == (
            pytest.approx(1.8 * math.pi), pytest.approx(2.2 * math.pi),
        )

    def test_even_odd_vector_transition(self):
        fam = generate_family("lattice", spacing=1.0, window=[-80, 80])
        class_of, _ = build_sharpness_partition(fam, d=2, alpha=0.5)
        dirs = DirectionAssignment.from_partition(class_of, 2)
        assert length_verdicts(*threshold_sweep(fam, dirs, [0.8 * math.pi, 1.2 * math.pi], N_max=64)) == [
            "degenerating", "stable",
        ]

    def test_single_class_reduces_to_scalar(self):
        fam = generate_family("lattice", spacing=1.0, window=[-80, 80])
        class_of, _ = build_sharpness_partition(fam, d=2, alpha=1.0)
        dirs = DirectionAssignment.from_partition(class_of, 2)
        assert length_verdicts(*threshold_sweep(fam, dirs, [1.8 * math.pi, 2.2 * math.pi], N_max=64)) == [
            "degenerating", "stable",
        ]

    def test_eq4_reduction_to_class_extremes(self):
        fam = generate_family("lattice", spacing=1.0, window=[-80, 80])
        class_of, _ = build_sharpness_partition(fam, d=2, alpha=0.5)
        I = IntervalSpec.of_length(1.3 * math.pi)
        first, last = len(fam) // 2 - 24, len(fam) // 2 + 24
        sub = fam.slice_positions(first, last)
        rows = DirectionAssignment.from_partition(class_of, 2).matrix[first : last + 1]
        vec = assemble_gram(ExponentialSystem(sub, DirectionAssignment(2, rows)), I)
        lo_v, hi_v = extreme_eigenvalues(vec)
        los, his = [], []
        for j in (1, 2):
            keep = np.flatnonzero(class_of[first : last + 1] == j)
            cls = sub.subfamily(keep)
            scal = assemble_gram(ExponentialSystem(cls, DirectionAssignment.constant(cls, 1)), I)
            lo, hi = extreme_eigenvalues(scal)
            los.append(lo)
            his.append(hi)
        assert lo_v == pytest.approx(min(los), abs=1e-9)
        assert hi_v == pytest.approx(max(his), abs=1e-9)


class TestLatticeOracle:
    """The integer lattice on a centered interval, against its exact prolate spectrum.

    Below 2pi lambda_min is exponentially small, under the double-precision floor of both
    sides, so only the counts of small eigenvalues are compared there.  On (2pi, 4pi) the
    spectrum lies in [2pi, 4pi], so the system is stable and both ends are compared.
    """

    @staticmethod
    def lattice_gram(n, length):
        fam = generate_family("lattice", spacing=1.0, window=[-(n // 2), n // 2])
        return assemble_gram(ExponentialSystem(fam, DirectionAssignment.constant(fam, 1)),
                             IntervalSpec.of_length(length, -0.5 * length))

    @pytest.mark.parametrize("n", [129, 513])
    @pytest.mark.parametrize("length", [0.5, 3.0, 5.0, 6.2, 6.3, 8.0, 9.5, 11.0, 0.999 * 2 * TWO_PI])
    def test_spectrum_and_extremes(self, n, length):
        G = self.lattice_gram(n, length)
        exact, computed = lattice_spectrum(n, length), np.linalg.eigvalsh(G)
        lo, hi = extreme_eigenvalues(G)
        assert np.max(np.abs(computed - exact)) <= LATTICE_ORACLE_RTOL * exact[-1]
        assert hi == pytest.approx(exact[-1], rel=LATTICE_ORACLE_RTOL)
        if length < TWO_PI:
            assert exact[-1] <= TWO_PI * (1 + 1e-14)
            tau = 1e-3 * exact[-1]
            assert np.count_nonzero(computed < tau) == np.count_nonzero(exact < tau)
        else:
            assert TWO_PI * (1 - 1e-14) <= exact[0] and exact[-1] <= 2 * TWO_PI * (1 + 1e-14)
            assert lo == pytest.approx(exact[0], abs=LATTICE_ORACLE_RTOL * hi)

    def test_sweep_is_stable_between_2pi_and_4pi(self):
        # measured: every length here is stable at N_max = 256; at 1.99 * 2pi lambda_min is still
        # falling toward its limit 2pi, which the trend rule reads as degeneration
        fam = generate_family("lattice", spacing=1.0, window=[-256, 256])
        lengths = [TWO_PI * f for f in (1.001, 1.01, 1.05, 1.25, 1.5, 1.75, 1.9, 1.95)]
        rows, _ = threshold_sweep(fam, DirectionAssignment.constant(fam, 1), lengths, N_max=256)
        for row in rows:
            assert row["verdict"] == "stable"
            lo, hi = row["lambda_min"], row["lambda_max"]
            exact = lattice_spectrum(2 * row["N"] + 1, row["interval_length"])
            assert max(abs(lo - exact[0]), abs(hi - exact[-1])) <= LATTICE_ORACLE_RTOL * hi

    @pytest.mark.xfail(strict=True, reason="the trend rule cannot tell lambda_min falling to 2pi from one falling to 0")
    def test_sweep_near_4pi_is_stable(self):
        # the spectrum lies in [2pi, 4pi] at every N, but lambda_min / 2pi reads 1.68, 1.42, 1.11
        # and 1.004 at N = 16..128, so the trend rule says degenerating; a certified lower frame
        # bound (ROADMAP item 4) would read stable, and turn this test into an XPASS
        fam = generate_family("lattice", spacing=1.0, window=[-128, 128])
        rows, _ = threshold_sweep(fam, DirectionAssignment.constant(fam, 1), [1.99 * TWO_PI], N_max=128)
        assert verdict(rows) == "stable"


class TestCosetOracle:
    """``partition`` directions with alpha = 1/d on the integer lattice, against their exact spectrum.

    Each class is a coset dZ + (j - 1), whose Gram is (1/d) times the lattice Gram at d|I|, so the
    vectorial threshold 2 pi alpha = 2 pi / d is exact at finite N and ``coset_spectrum`` gives
    the whole spectrum from ``lattice_spectrum``.
    """

    @staticmethod
    def partition(half_width, d):
        fam = generate_family("lattice", spacing=1.0, window=[-half_width, half_width])
        class_of, m = build_sharpness_partition(fam, d, 1.0 / d)
        assert m == d and np.array_equal(class_of, np.arange(len(fam)) % d + 1)  # a run of 1: the cosets
        return fam, class_of, DirectionAssignment.from_partition(class_of, d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("scaled", [0.7, 1.3, 1.9])  # d|I| / 2pi
    def test_spectrum_and_extremes(self, d, scaled):
        fam, class_of, dirs = self.partition(200, d)
        length = scaled * TWO_PI / d
        G = assemble_gram(ExponentialSystem(fam, dirs), IntervalSpec.of_length(length, 0.3))
        exact, computed = coset_spectrum(class_of, d, length), np.linalg.eigvalsh(G)
        lo, hi = extreme_eigenvalues(G)
        assert np.max(np.abs(computed - exact)) <= LATTICE_ORACLE_RTOL * exact[-1]
        assert hi == pytest.approx(exact[-1], rel=LATTICE_ORACLE_RTOL)
        if scaled < 1:
            tau = 1e-3 * exact[-1]
            assert np.count_nonzero(computed < tau) == np.count_nonzero(exact < tau)
        else:
            assert lo == pytest.approx(exact[0], abs=LATTICE_ORACLE_RTOL * hi)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_sweep_reads_the_coset_spectrum(self, d):
        fam, class_of, dirs = self.partition(128, d)
        scaled = (1.001, 1.01, 1.05, 1.25, 1.5, 1.75, 1.9, 1.95)
        rows, _ = threshold_sweep(fam, dirs, [f * TWO_PI / d for f in scaled], N_max=128)
        center = len(fam) // 2
        for row in rows:
            block = class_of[center - row["N"] : center + row["N"] + 1]
            exact = coset_spectrum(block, d, row["interval_length"])
            lo, hi = row["lambda_min"], row["lambda_max"]
            assert max(abs(lo - exact[0]), abs(hi - exact[-1])) <= LATTICE_ORACLE_RTOL * hi
        # at 1.95 the trend rule already misreads d = 3 and 4 (test_sweep_near_4pi_is_stable)
        assert all(row["verdict"] == "stable" for row in rows if row["interval_length"] <= 1.9 * TWO_PI / d)

    @pytest.mark.xfail(strict=True, reason="the trend rule cannot tell lambda_min falling to 2pi/d from one falling to 0")
    @pytest.mark.parametrize("d, scaled", [(3, 1.95), (4, 1.95), (2, 1.99), (3, 1.99), (4, 1.99)])
    def test_sweep_near_4pi_is_stable(self, d, scaled):
        # each class's spectrum lies in [2pi/d, 4pi/d] at every N, as on the lattice near 4pi
        # (TestLatticeOracle); a certified lower frame bound (ROADMAP item 4) would read stable
        fam, _, dirs = self.partition(128, d)
        rows, _ = threshold_sweep(fam, dirs, [scaled * TWO_PI / d], N_max=128)
        assert verdict(rows) == "stable"


class TestTraceExperiment:
    def setup_method(self):
        self.I = IntervalSpec(0, TWO_PI)
        self.fam = generate_family("lattice", spacing=1.0, window=[-30, 30])
        self.dirs = DirectionAssignment.constant(self.fam, 1)

    def test_large_R_trace_approaches_cardinality(self):
        [row], _ = run_trace_experiment(self.fam, self.dirs, self.I, 0.0, 5.5, 1000.0)
        assert row["card_omega_r"] == 11
        assert complex(row["trace_re"], row["trace_im"]) == pytest.approx(11.0, abs=1e-3)
        assert row["max_defect"] < 0.08

    def test_lemma2_bound(self):
        [row], summary = run_trace_experiment(self.fam, self.dirs, self.I, 0.0, 5.5, 10.0)
        assert row["card_omega_r"] == summary["card_omega_r"] == 11
        assert row["card_gamma"] == summary["card_gamma"] == 31
        assert row["lemma2_bound"] == 31.0
        assert row["lemma2_pass"]

    def test_lemma3_two_routes_agree(self):
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                              window=[-30, 30], seed=7)
        dirs = DirectionAssignment.random(fam, 2, seed=3)
        [row], _ = run_trace_experiment(fam, dirs, self.I, 0.0, 8.0, 20.0)
        assert row["trace_agreement"] <= 1e-6 * row["card_omega_r"]

    def test_randomized_invariants(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            which = rng.integers(0, 2)
            if which == 0:
                fam = generate_family("lattice", spacing=1.0, window=[-40, 40])
            else:
                fam = generate_family(
                    "perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                    window=[-40, 40], seed=int(rng.integers(100)),
                )
            d = int(rng.integers(1, 3))
            dirs = DirectionAssignment.random(fam, d, seed=int(rng.integers(100)))
            y = float(rng.uniform(-4, 4))
            r = float(rng.uniform(3, 10))
            R = float(rng.uniform(5, 40))
            [row], _ = run_trace_experiment(fam, dirs, self.I, y, r, R)
            assert row["abs_trace"] <= row["d"] * row["card_gamma"] + 1e-6
            assert row["trace_agreement"] <= 1e-6 * row["card_omega_r"]
            assert row["card_omega_r"] == int(np.sum(np.abs(fam.exponents - y) < r))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_inverse_oracle(self, d):
        # both routes against tr(G^-1 B) and Y = X^T G^-1 from the explicit inverse
        rng = np.random.default_rng(40 + d)
        I = IntervalSpec(0.0, 8.0)
        for _ in range(4):
            fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                                  window=[-40, 40], seed=int(rng.integers(1000)))
            dirs = DirectionAssignment.random(fam, d, seed=int(rng.integers(1000)))
            y, r, R = float(rng.uniform(-5, 5)), float(rng.uniform(4, 20)), float(rng.uniform(2, 30))
            row, trace_S, (_, trace_decomposed, *_) = trace_run(fam, dirs, I, y, r, R)
            direct, decomposed = trace_by_inverse(fam, dirs, I, y, r, R)
            assert abs(trace_S - direct) <= 1e-12 * abs(direct)
            assert abs(trace_decomposed - decomposed) <= 1e-12 * abs(decomposed)
            assert row["trace_im"] == 0.0
            assert row["trace_re"] >= 0.0

    @pytest.mark.parametrize("rule", ["constant", "partition"])
    def test_real_gram_matches_inverse_oracle(self, rule):
        # real directions on a centered interval: the V_r Gram is float64 and is
        # factored in real arithmetic; the oracle inverts the complex kernel's Gram
        I = IntervalSpec(-4.0, 4.0)
        fam = generate_family("lattice", spacing=1.0, window=[-40, 40])
        if rule == "constant":
            dirs = DirectionAssignment.constant(fam, 1)
        else:
            dirs = DirectionAssignment.from_partition(build_sharpness_partition(fam, d=2, alpha=0.5)[0], 2)
        assert assemble_gram(ExponentialSystem(fam, dirs), I).dtype == np.float64
        rng = np.random.default_rng(16)
        for _ in range(4):
            y, r, R = float(rng.uniform(-5, 5)), float(rng.uniform(4, 20)), float(rng.uniform(2, 30))
            row, trace_S, (_, trace_decomposed, *_) = trace_run(fam, dirs, I, y, r, R)
            direct, decomposed = trace_by_inverse(fam, dirs, I, y, r, R)
            assert abs(trace_S - direct) <= 1e-12 * abs(direct)
            assert abs(trace_decomposed - decomposed) <= 1e-12 * abs(decomposed)
            assert row["trace_im"] == 0.0

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=trace_cases())
    def test_matches_inverse_oracle_property(self, case):
        # P = conj(X) X^T is rank-deficient where p < n: X' is then the n x p
        # cross factor itself, and both routes still match the oracle
        # (measured: 80 cases pass the cond cap, 21 of them with p < n, the worst
        # relative difference 8.9e-14; the 59 with p >= n keep the inverse, within 3.8e-15)
        fam, dirs, I, y, r, R = case
        inside = np.flatnonzero(np.abs(fam.exponents - y) < r)
        first, last = int(inside[0]), int(inside[-1])
        window = ExponentialSystem(fam.slice_positions(first, last),
                                   DirectionAssignment(dirs.d, dirs.matrix[first : last + 1]))
        assume(np.linalg.cond(assemble_gram(window, I)) <= TRACE_COND_MAX)
        row, trace_S, (_, trace_decomposed, *_) = trace_run(fam, dirs, I, y, r, R)
        direct, decomposed = trace_by_inverse(fam, dirs, I, y, r, R)
        assert abs(trace_S - direct) <= 1e-12 * abs(direct)
        assert abs(trace_decomposed - decomposed) <= 1e-12 * abs(decomposed)
        assert row["trace_im"] == 0.0
        assert row["trace_re"] >= 0.0
        assert row["trace_agreement"] <= 1e-6 * row["card_omega_r"]

    @pytest.mark.parametrize("width", [3, 7])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=trace_cases(r_max=20.0))
    def test_block_boundaries_match_inverse_oracle(self, width, case):
        # most traces have p below one TRACE_SOLVE_BLOCK, so narrow blocks put block
        # boundaries inside the cross factor's solves (measured on the 40 draws per
        # width, n = 3..33: W runs in 17 at width 3 and 15 at width 7, p not a
        # multiple of the width in 5 and 15 of them; the rest keep the inverse)
        fam, dirs, I, y, r, R = case
        inside = np.flatnonzero(np.abs(fam.exponents - y) < r)
        first, last = int(inside[0]), int(inside[-1])
        window = ExponentialSystem(fam.slice_positions(first, last),
                                   DirectionAssignment(dirs.d, dirs.matrix[first : last + 1]))
        assume(np.linalg.cond(assemble_gram(window, I)) <= TRACE_COND_MAX)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "TRACE_SOLVE_BLOCK", width)
            row, trace_S, (_, trace_decomposed, *_) = trace_run(fam, dirs, I, y, r, R)
        direct, decomposed = trace_by_inverse(fam, dirs, I, y, r, R)
        assert abs(trace_S - direct) <= 1e-12 * abs(direct)
        assert abs(trace_decomposed - decomposed) <= 1e-12 * abs(decomposed)
        assert row["trace_im"] == 0.0
        assert row["trace_re"] >= 0.0
        assert row["trace_agreement"] <= 1e-8 * row["card_omega_r"]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=constant_direction_cases())
    def test_rank_deficient_projection_runs_potri(self, case):
        # p >= n, but rank P <= card(grid) < n: the inverse route does not read
        # the rank, so potri runs, and the route kept (the inverse, or the cross
        # factor W where the inverse's residual is too large) matches the inverse
        # oracle (measured on these 30 draws: 28 keep the inverse and 2 take W, the
        # worst relative difference 1.5e-13)
        fam, dirs, I, y, r, R = case
        inside = np.flatnonzero(np.abs(fam.exponents - y) < r)
        first, last = int(inside[0]), int(inside[-1])
        window = ExponentialSystem(fam.slice_positions(first, last),
                                   DirectionAssignment(dirs.d, dirs.matrix[first : last + 1]))
        card = FourierGrid.centered(I, dirs.d, y, r + R).n_values.size
        assume(card < inside.size <= dirs.d * card)
        assume(np.linalg.cond(assemble_gram(window, I)) <= TRACE_COND_MAX)
        with pytest.MonkeyPatch.context() as patch:
            names, refactored = lapack_spy(patch), cho_factor_spy(patch)
            row, trace_S, (_, trace_decomposed, *_) = trace_run(fam, dirs, I, y, r, R)
        assert names == ["potri"]
        if not refactored:
            assert row["trace_agreement"] <= analysis.INVERSE_AGREEMENT * row["card_omega_r"]
        direct, decomposed = trace_by_inverse(fam, dirs, I, y, r, R)
        assert abs(trace_S - direct) <= 1e-12 * abs(direct)
        assert abs(trace_decomposed - decomposed) <= 1e-12 * abs(decomposed)
        assert row["trace_im"] == 0.0
        assert row["trace_agreement"] <= 1e-6 * row["card_omega_r"]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(case=ill_conditioned_cases())
    def test_ill_conditioned_full_grid_never_keeps_the_inverse(self, case):
        # p >= n and cond(G) > 1e6: a sum over G^-1 o P would lose about cond(G) * eps, and the
        # inverse's residual says so, so the cross factor W runs against U = cho_factor(G)
        # (measured on 200 draws of these ranges: 103 within (1e6, 1e10), the least residual
        # |n - tr(G^-1 G)| / n among them 3.6e-12, and none kept the inverse)
        fam, dirs, I, y, r, R = case
        inside = np.flatnonzero(np.abs(fam.exponents - y) < r)
        first, last = int(inside[0]), int(inside[-1])
        window = ExponentialSystem(fam.slice_positions(first, last),
                                   DirectionAssignment(dirs.d, dirs.matrix[first : last + 1]))
        assume(inside.size <= dirs.d * FourierGrid.centered(I, dirs.d, y, r + R).n_values.size)
        assume(np.linalg.cond(assemble_gram(window, I)) > 1e6)
        with pytest.MonkeyPatch.context() as patch:
            names, refactored = lapack_spy(patch), cho_factor_spy(patch)
            try:
                [row], _ = run_trace_experiment(fam, dirs, I, y, r, R)
            except NearSingularGramError:
                assume(False)  # the gate's own rejection, beyond cond 1e10
        assert names == ["potri"]
        assert len(refactored) == 1
        assert row["trace_im"] == 0.0
        assert row["trace_agreement"] <= 1e-6 * row["card_omega_r"]

    @pytest.mark.parametrize("rule", ["random", "constant"])
    def test_translation_invariant(self, rule):
        # translating I is a diagonal unitary similarity of G and P: the trace
        # reads only |I|, so three placements of one length agree bit for bit
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                              window=[-40, 40], seed=11)
        dirs = DirectionAssignment.random(fam, 2, seed=11) if rule == "random" else DirectionAssignment.constant(fam, 2)
        runs = [analysis._trace_routes(fam, dirs, IntervalSpec(a, b), 0.5, 12.0, 9.0)
                for a, b in [(0.0, 8.0), (-4.0, 4.0), (1000.5, 1008.5)]]
        for routes in runs[1:]:  # (trace_direct, trace_decomposed, defect_norms, n, card_gamma)
            assert np.array(routes[:2], dtype=complex).tobytes() == np.array(runs[0][:2], dtype=complex).tobytes()
            assert routes[2].tobytes() == runs[0][2].tobytes()

    def test_constant_directions_stay_real_off_center(self, monkeypatch):
        # on [0, 8] the oracle's Gram and cross matrix are complex; the trace
        # runs on the centered interval, where G and its factor are float64
        dtypes = []

        def spy(G):
            dtypes.append(G.dtype)
            return gated_cho_factor(G)

        monkeypatch.setattr(analysis, "gated_cho_factor", spy)
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                              window=[-40, 40], seed=5)
        dirs = DirectionAssignment.constant(fam, 2)
        I = IntervalSpec(0.0, 8.0)
        row, trace_S, (_, trace_decomposed, *_) = trace_run(fam, dirs, I, 0.5, 12.0, 9.0)
        direct, decomposed = trace_by_inverse(fam, dirs, I, 0.5, 12.0, 9.0)
        assert dtypes == [np.float64]
        assert abs(trace_S - direct) <= 1e-12 * abs(direct)
        assert abs(trace_decomposed - decomposed) <= 1e-12 * abs(decomposed)
        assert row["trace_im"] == 0.0

    @pytest.mark.parametrize(("seed", "rtol"), MPMATH_PINS)
    def test_mpmath_pin_rank_deficient(self, seed, rtol):
        # p < n, so P has rank at most p: X' is the n x p cross factor itself,
        # and potri never runs (the inverse's sums read 9.6e-9 and 1.4e-12 here).
        # Measured off mpmath: 1.3e-9 (cond(G) = 3.0e9) and 8.7e-13
        # (cond(G) = 7.7e5); the complex cross matrix gave 1.3e-9 and 4.8e-13
        self._mpmath_pin(seed, rtol)

    @pytest.mark.parametrize(("seed", "rtol"), MPMATH_PINS)
    def test_mpmath_pin_rank_deficient_narrow_blocks(self, seed, rtol, monkeypatch):
        # the same pins with block boundaries every 3 columns of the factor
        monkeypatch.setattr(analysis, "TRACE_SOLVE_BLOCK", 3)
        self._mpmath_pin(seed, rtol)

    @staticmethod
    def _mpmath_pin(seed, rtol):
        # p < n: the cross factor, and no potri
        rng = np.random.default_rng(seed)
        d, length = int(rng.integers(1, 4)), float(rng.uniform(2, 9))
        y, r, R = float(rng.uniform(-3, 3)), float(rng.uniform(4, 15)), float(rng.uniform(0.05, 3))
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                              window=[-40, 40], seed=seed)
        dirs = DirectionAssignment.random(fam, d, seed)
        I = IntervalSpec(0.3, 0.3 + length)
        with pytest.MonkeyPatch.context() as patch:
            names = lapack_spy(patch)
            [row], _ = run_trace_experiment(fam, dirs, I, y, r, R)
        assert names == []
        assert row["d"] * row["card_gamma"] < row["card_omega_r"]
        exact = trace_exact(fam, dirs, I, y, r, R)
        assert abs(row["trace_re"] - exact) <= rtol * exact
        assert row["trace_im"] == 0.0

    def test_mpmath_pin_ill_conditioned_full_grid(self):
        # p = 42 >= n = 25 with cond(G) = 5.9e8: the inverse's residual rejects it, and
        # the cross factor W runs against U = cho_factor(G). Measured off mpmath: 1.2e-10,
        # where the inverse would read 2.1e-9
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                              window=[-40, 40], seed=5)
        dirs = DirectionAssignment.constant(fam, 2)
        I = IntervalSpec(0.3, 4.8)
        with pytest.MonkeyPatch.context() as patch:
            names, refactored = lapack_spy(patch), cho_factor_spy(patch)
            [row], _ = run_trace_experiment(fam, dirs, I, 0.0, 12.0, 3.0)
        assert names == ["potri"]
        assert len(refactored) == 1
        assert (row["card_omega_r"], row["d"] * row["card_gamma"]) == (25, 42)
        exact = trace_exact(fam, dirs, I, 0.0, 12.0, 3.0)
        assert abs(row["trace_re"] - exact) <= 3e-10 * exact
        assert row["trace_im"] == 0.0

    def test_peak_memory_below_one_cross_matrix(self):
        # with p >= 4n the trace holds n x n buffers and one column block of P (all n
        # columns here, n < TRACE_SOLVE_BLOCK), never a complex n x p one: measured peak
        # 4.1 G = 16 n p + 0.0 G (G = 16 n^2 bytes), where the complex cross matrix X
        # and its Fortran copy took 16 n p + 5.1 G (n = 200, p = 814)
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                              window=[-200, 200], seed=4)
        dirs = DirectionAssignment.random(fam, 2, seed=4)
        I = IntervalSpec(0.0, 8.0)
        run_trace_experiment(fam, dirs, I, 0.0, 100.0, 60.0)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            [row], _ = run_trace_experiment(fam, dirs, I, 0.0, 100.0, 60.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, p = row["card_omega_r"], row["d"] * row["card_gamma"]
        assert (n, p) == (200, 814)
        assert peak <= 16 * n * p + 2 * 16 * n * n

    def test_peak_memory_two_cross_matrices(self):
        # the dense work holds two n x n buffers and one column block of P. Up to
        # the gate: the V_r Gram (1.5 G at the assembly's row blocks). The gate:
        # the Gram and the gate's Fortran copy, which becomes U, with one column
        # block of |U| for the bound (a fallback adds a fresh copy for the shifted
        # certificate). The sums: G, G^-1 in U's buffer, and a column block of
        # P = (conj(rho V) (rho V)^T) o (C C^T), then P - G in place, with its closed-form
        # C C^T. Measured (n = 301, p = 966): a peak of 3.6 G in the sums, where the
        # 256-column block is all of P; a complex n x p cross matrix X and one copy
        # of it (16 n p bytes each) on top of that work break the bound
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                              window=[-200, 200], seed=4)
        dirs = DirectionAssignment.random(fam, 2, seed=4)
        I = IntervalSpec(0.0, 8.0)
        run_trace_experiment(fam, dirs, I, 0.0, 150.0, 40.0)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            [row], _ = run_trace_experiment(fam, dirs, I, 0.0, 150.0, 40.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, p = row["card_omega_r"], row["d"] * row["card_gamma"]
        assert (n, p) == (301, 966)
        x_bytes, g_bytes = 16 * n * p, 16 * n * n
        assert peak <= 2 * x_bytes + 2 * g_bytes

    def test_peak_memory_cross_factor(self, monkeypatch):
        # p < n: X' is the cross factor W itself, built after the gate, once G is
        # freed, in one F-ordered n x p buffer from C and scaled in place. The trace
        # holds G up to the gate, and U, W and one column block of W after it, never
        # a second n x p array beside them: measured (n = 301, p = 298, complex)
        # G + 0.53 G up to the gate's entry and a peak of U + 2 W + 0.05 G, where a
        # copy of W adds 16 n p bytes
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                              window=[-200, 200], seed=4)
        dirs = DirectionAssignment.random(fam, 2, seed=4)
        I = IntervalSpec(0.0, 0.995 * math.pi * 150.0 / 150.05)  # just below 2 pi/d * r/(r + R): p < n
        run_trace_experiment(fam, dirs, I, 0.0, 150.0, 0.05)  # warm caches outside the measurement
        entry = []
        monkeypatch.setattr(analysis, "gated_cho_factor",
                            lambda G: entry.append(tracemalloc.get_traced_memory()) or gated_cho_factor(G))
        tracemalloc.start()
        try:
            [row], _ = run_trace_experiment(fam, dirs, I, 0.0, 150.0, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, p = row["card_omega_r"], row["d"] * row["card_gamma"]
        assert (n, p) == (301, 298)
        x_bytes, g_bytes, c_bytes = 16 * n * p, 16 * n * n, 8 * n * row["card_gamma"]
        assert entry[0][0] <= g_bytes + x_bytes + g_bytes // 20  # the gate sees at most G and X'
        assert entry[0][1] <= g_bytes + x_bytes + c_bytes + g_bytes // 2
        assert peak <= g_bytes + 2 * x_bytes + c_bytes

    @pytest.mark.parametrize("rule", ["random", "constant"])
    def test_peak_memory_independent_of_grid(self, rule, monkeypatch):
        # p >= n: the inverse route holds G, the gate's factor (then G^-1 in place) and one column
        # block of P with its closed-form C C^T, never the factor C nor an n x n P. At block width
        # 32 (n = 301) the peak is 2 G + 4.3 (complex) or 2.1 (real) units of 16 n 32 bytes at
        # p = 966, and p = 8402 adds 26-30 kB of vectors as long as the grid, where the explicit
        # factor C took 2.4 kB per grid frequency (peaks of 3.2 G and 8.5 G, complex)
        monkeypatch.setattr(analysis, "TRACE_SOLVE_BLOCK", 32)
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                              window=[-200, 200], seed=4)
        dirs = DirectionAssignment.random(fam, 2, seed=4) if rule == "random" else DirectionAssignment.constant(fam, 2)
        I = IntervalSpec(0.0, 8.0)
        names, refactored = lapack_spy(monkeypatch), cho_factor_spy(monkeypatch)
        peaks, cards = [], []
        for R in (40.0, 1500.0):
            run_trace_experiment(fam, dirs, I, 0.0, 150.0, R)  # warm caches outside the measurement
            tracemalloc.start()
            try:
                [row], _ = run_trace_experiment(fam, dirs, I, 0.0, 150.0, R)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            cards.append(row["card_gamma"])
        assert names == ["potri"] * 4 and refactored == []  # the inverse route throughout
        n = row["card_omega_r"]
        assert (n, *cards) == (301, 483, 4201)
        g_bytes = n * n * (16 if rule == "random" else 8)
        assert max(peaks) <= 2 * g_bytes + 8 * 16 * n * 32
        assert peaks[1] - peaks[0] <= 64 * (cards[1] - cards[0])

    def test_degenerate_span_rejected(self, monkeypatch):
        # p = 23 >= n = 3, but G is singular: the gate rejects it before potri
        fam = ExponentFamily(np.array([0.0, 0.0, 1.0]))
        dirs = DirectionAssignment.constant(fam, 1)
        names = lapack_spy(monkeypatch)
        with pytest.raises(NearSingularGramError):
            run_trace_experiment(fam, dirs, self.I, 0.0, 2.0, 10.0)
        assert names == []

    @pytest.mark.parametrize("rule", ["random", "constant"])
    def test_full_grid_takes_the_inverse(self, rule, monkeypatch):
        # p = 966 >= n = 301 (the memory tests' window): potri turns the gate's factor
        # into G^-1, whose residual |n - tr(G^-1 G)| passes, so the inverse is kept and
        # G is not factored again; both routes match the inverse oracle, complex and real
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                              window=[-200, 200], seed=4)
        dirs = DirectionAssignment.random(fam, 2, seed=4) if rule == "random" else DirectionAssignment.constant(fam, 2)
        I = IntervalSpec(0.0, 8.0)
        names, refactored = lapack_spy(monkeypatch), cho_factor_spy(monkeypatch)
        row, trace_S, (_, trace_decomposed, *_) = trace_run(fam, dirs, I, 0.0, 150.0, 40.0)
        assert names == ["potri"]
        assert refactored == []
        assert (row["card_omega_r"], row["d"] * row["card_gamma"]) == (301, 966)
        assert row["trace_agreement"] <= analysis.INVERSE_AGREEMENT * row["card_omega_r"]
        direct, decomposed = trace_by_inverse(fam, dirs, I, 0.0, 150.0, 40.0)
        assert abs(trace_S - direct) <= 1e-12 * abs(direct)
        assert abs(trace_decomposed - decomposed) <= 1e-12 * abs(decomposed)
        assert row["trace_im"] == 0.0

    def test_default_geometry(self):
        # window centered on the family, r just short of the second exponent
        # from each edge: the open trace window keeps two exponents off each side
        x = self.fam.exponents
        y = 0.5 * (x[0] + x[-1])
        r = min(y - x[1], x[-2] - y) * (1.0 - 1e-12)
        [row], _ = run_trace_experiment(self.fam, self.dirs, self.I, y, r, 10.0)
        assert y == pytest.approx(0.0)
        assert row["card_omega_r"] == len(self.fam) - 4


@st.composite
def cauchy_cases(draw):
    """(window family, directions, grid) on a centered interval, d = 1..3, with real or complex directions:
    perturbed lattices, the exact lattice (every r_k = 0) and clustered pairs with delta in [1e-8, 1e-2],
    near 0 or near 600, and half of the radii R below s/2, where m_k may lie one step off the grid."""
    d, length, offset = draw(st.integers(1, 3)), draw(st.floats(1.0, 10.0)), draw(st.sampled_from([0.0, 600.0]))
    s = TWO_PI / length
    kind = draw(st.sampled_from(["perturbed", "lattice", "pairs"]))
    if kind == "lattice":  # gamma_m as FourierGrid.frequencies rounds it
        m0 = round(offset / s)
        x = 2.0 * math.pi * np.arange(m0 - 60, m0 + 61) / length
    elif kind == "pairs":
        base = offset + np.arange(-20, 21) * draw(st.floats(1.0, 3.0))
        x = np.sort(np.concatenate([base, base + 10.0 ** draw(st.floats(-8.0, -2.0))]))
    else:
        x = offset + generate_family("perturbed-lattice", spacing=draw(st.floats(0.3, 2.0)), max_perturbation=0.2,
                                     window=[-40, 40], seed=draw(st.integers(0, 999))).exponents
    y, r = offset + draw(st.floats(-3.0, 3.0)), draw(st.floats(3.0, 15.0))
    R = draw(st.floats(0.01, 0.49)) * s if draw(st.booleans()) else draw(st.floats(0.05, 30.0))
    inside = np.flatnonzero(np.abs(x - y) < r)
    assume(inside.size >= 2)
    fam = ExponentFamily(x[inside])
    Z = np.random.default_rng(draw(st.integers(0, 999))).normal(size=(len(fam), d, 2))
    U = Z[..., 0] + 1j * Z[..., 1] if draw(st.booleans()) else Z[..., 0]
    dirs = DirectionAssignment(d, U / np.linalg.norm(U, axis=1, keepdims=True))
    return fam, dirs, FourierGrid.centered(IntervalSpec.of_length(length, -0.5 * length), d, y, r + R)


# largest error of the closed forms against the explicit factor C, in units of 2^-52 times each
# quantity's scale: sum_g |C[k, g]| for T, (|I|/2)^2 for Q, |I| for squared defects and P;
# measured over the 300 draws of ``cauchy_cases`` (see its test)
CAUCHY_ULPS = {"T": 4.0, "Q": 8.0, "defect": 8.0, "P": 8.0}


def cauchy_errors(fam, dirs, grid) -> dict:
    """The errors of ``grid_cauchy_sums``' T and Q, the trace's squared defects and the upper triangle of
    its cross Gram P, formed in column blocks of 7, against the explicit factor C, in ``CAUCHY_ULPS``' units."""
    L, n, eps = grid.interval.length, len(fam), 2.0**-52
    rho, *sums = grid_cauchy_sums(fam, grid)
    T, Q = sums[3], sums[4]
    T0, Q0, _ = explicit_cauchy_sums(fam, grid)
    _, C = grid_cauchy_factors(fam, grid)
    V = dirs.matrix if np.any(dirs.matrix.imag) else dirs.matrix.real
    P, pairs = np.zeros((n, n), dtype=V.dtype, order="F"), analysis._close_pairs(fam, grid)
    for j0 in range(0, n, 7):
        j1 = min(j0 + 7, n)
        analysis._cross_gram_block(V * rho.real[:, None], sums, pairs, L, j0, j1, out=P[:j1, j0:j1])
    defects = analysis._defect_norms(Q, dirs.matrix, L)
    defects0 = projection_defect_norms(C**2, dirs.matrix, grid.interval)
    return {"T": np.max(np.abs(T - T0) / np.sum(np.abs(C), axis=1)) / eps,
            "Q": np.max(np.abs(Q - Q0)) / (eps * (L / 2) ** 2),
            "defect": np.max(np.abs(defects**2 - defects0**2)) / (eps * L),
            "P": np.max(np.abs(np.triu(P - cross_gram_upper(fam, dirs, grid)))) / (eps * L)}


class TestGridCauchySums:
    """The closed forms of ``grid_cauchy_sums`` and the trace's cross Gram P against the explicit
    factor C of ``grid_cauchy_factors``: its row sums, squares and ``syrk`` C C^T."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=cauchy_cases())
    def test_closed_forms_match_explicit_factor(self, case):
        # measured on these 300 draws (42 with an exponent off the grid, 90 on the exact lattice,
        # 236 with close pairs, 60 with a pair closer than 1e-6): at most 1.9 units for T, 2.9
        # for Q, 3.3 for the squared defects and 4.5 for P
        errors = cauchy_errors(*case)
        assert all(errors[key] <= bound for key, bound in CAUCHY_ULPS.items()), errors

    def test_off_grid_energy_matches_mpmath(self):
        # R = 0.1 < s/2 on |I| = 8: w = +-5.2 lies inside r = 5.3, but its nearest lattice
        # frequency gamma_7 = 5.50 lies outside the grid |gamma| < 5.4, so Q takes the pole term
        # and the terms between the grid and j = 0 (measured: 1.7 units of 2^-52 from mpmath, relative)
        fam = ExponentFamily(np.array([-5.2, -1.0, 0.7, 5.2]))
        dirs = DirectionAssignment.constant(fam, 1)
        grid = FourierGrid.centered(IntervalSpec(-4.0, 4.0), 1, 0.0, 5.4)
        _, m, _, _, T, Q = grid_cauchy_sums(fam, grid)
        assert list(m[[0, -1]]) == [-7, 7] and grid.n_values[[0, -1]].tolist() == [-6, 6]
        T0, Q0, _ = explicit_cauchy_sums(fam, grid)
        assert np.max(np.abs(T - T0)) <= 4 * 2.0**-52 * 4.0**2
        assert np.max(np.abs(Q - Q0)) <= 8 * 2.0**-52 * 4.0**2
        exact = defect_norms_exact(fam, dirs, grid)
        assert np.max(np.abs(analysis._defect_norms(Q, dirs.matrix, 8.0) - exact) / exact) <= 4 * 2.0**-52


class TestDefectDecay:
    def setup_method(self):
        self.I = IntervalSpec(0, TWO_PI)

    def test_aligned_lattice_zero_defect(self):
        fam = generate_family("lattice", spacing=1.0, window=[-20, 20])
        dirs = DirectionAssignment.constant(fam, 1)
        _, summary = defect_decay_fit(fam, dirs, self.I, 0.0, 4.5, [8.0, 16.0, 32.0, 64.0])
        assert summary["degenerate_zero_defect"]
        assert math.isnan(summary["slope"])

    def test_offset_lattice_slope_and_majorant(self):
        fam = generate_family("explicit", exponents=[k + 0.5 for k in range(-300, 300)])
        dirs = DirectionAssignment.constant(fam, 1)
        Rs = [8.0, 16.0, 32.0, 64.0, 128.0]
        rows, summary = defect_decay_fit(fam, dirs, self.I, 0.0, 2.0, Rs)
        assert -1.0 <= summary["slope"] <= -0.45
        for row in rows:
            assert row["max_defect"] ** 2 <= defect_majorant(1, self.I, row["R"])

    def test_maxima_match_per_R_cross_matrices(self):
        # each R's closed-form defects match those of an explicit factor C built on
        # FourierGrid.centered per R to rounding in the squared defect, as the complex
        # cross matrix's defects sqrt(|I| - sum |X|^2) do (measured: 4.0 units of
        # 2^-52 |I|), and they sit within 7.4e-16 of mpmath, where the explicit
        # factor's |I| - captured read up to 7.7e-15 off
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                              window=[-60, 60], seed=2)
        dirs = DirectionAssignment.random(fam, 2, seed=1)
        I, y, r = IntervalSpec(0.0, 8.0), 0.3, 25.0
        Rs = [5.0, 10.0, 20.0, 40.0, 80.0]
        rows, _ = defect_decay_fit(fam, dirs, I, y, r, Rs)
        inside = np.flatnonzero(np.abs(fam.exponents - y) < r)
        first, last = int(inside[0]), int(inside[-1])
        sub = fam.slice_positions(first, last)
        sdirs = DirectionAssignment(2, dirs.matrix[first : last + 1])
        for R, got in zip(Rs, column(rows, "max_defect")):
            grid = FourierGrid.centered(I, 2, y, r + R)
            _, C = grid_cauchy_factors(sub, grid)
            defects = projection_defect_norms(C**2, sdirs.matrix, I)
            assert abs(got**2 - defects.max() ** 2) <= 8 * 2.0**-52 * I.length
            oracle = cross_defect_norms(cross_inner_matrix(sub, sdirs, grid), I)
            assert np.max(np.abs(defects**2 - oracle**2)) <= 8 * 2.0**-52 * I.length
            assert abs(got - defect_norms_exact(sub, sdirs, grid).max()) <= 2e-15

    def test_peak_memory_independent_of_grid(self):
        # each R reads O(n) closed-form out-of-grid energies, never an n x card factor: measured
        # (n = 301) 75 kB at max(R) = 40 and 138 kB at max(R) = 1500, where the explicit factor
        # C at r + max(R) took 1.3 and 10.2 MB
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                              window=[-200, 200], seed=4)
        dirs, I = DirectionAssignment.random(fam, 2, seed=4), IntervalSpec(0.0, 8.0)
        peaks = []
        for top in (40.0, 1500.0):
            Rs = [5.0, 10.0, 20.0, top]
            defect_decay_fit(fam, dirs, I, 0.0, 150.0, Rs)  # warm caches outside the measurement
            tracemalloc.start()
            try:
                defect_decay_fit(fam, dirs, I, 0.0, 150.0, Rs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        cards = [FourierGrid.centered(I, 2, 0.0, 150.0 + top).n_values.size for top in (40.0, 1500.0)]
        assert cards == [483, 4201]
        assert peaks[1] - peaks[0] <= 64 * (cards[1] - cards[0])

    @pytest.mark.parametrize("Rs", [[1.0, 2.0, 3.0, 4.0], [0.25, 0.5, 1.0, 2.0]])
    def test_empty_grid_names_first_R(self, Rs):
        # on |I| = 1 the grid frequencies are 2 pi n, all at distance pi from y
        fam = generate_family("explicit", exponents=[3.0, 3.1, 3.2])
        dirs = DirectionAssignment.constant(fam, 1)
        with pytest.raises(GridPointFailure, match=f"at R={Rs[0]:.6g}: no grid frequencies"):
            defect_decay_fit(fam, dirs, IntervalSpec(0.0, 1.0), math.pi, 0.5, Rs)

    def test_grid_validation(self):
        fam = generate_family("lattice", spacing=1.0, window=[-10, 10])
        dirs = DirectionAssignment.constant(fam, 1)
        with pytest.raises(ValueError, match="at least 4"):
            defect_decay_fit(fam, dirs, self.I, 0.0, 3.0, [8.0, 16.0, 32.0])

    def test_majorant_uniform_in_window_position(self):
        # the series bound depends only on d, |I|, R: the measured defect
        # stays below it for any window center y and radius r
        fam = generate_family("explicit", exponents=[k + 0.5 for k in range(-400, 400)])
        dirs = DirectionAssignment.constant(fam, 1)
        for y in (-3.0, 7.25, 60.5):
            for r in (1.5, 4.0):
                for R in (8.0, 32.0):
                    grid = FourierGrid.centered(self.I, 1, y, r + R)
                    inside = np.flatnonzero(np.abs(fam.exponents - y) < r)
                    first, last = int(inside[0]), int(inside[-1])
                    sdirs = DirectionAssignment(1, dirs.matrix[first : last + 1])
                    _, C = grid_cauchy_factors(fam.slice_positions(first, last), grid)
                    defects = projection_defect_norms(C**2, sdirs.matrix, self.I)
                    assert float(np.max(defects)) ** 2 <= defect_majorant(1, self.I, R)

    def test_majorant_closed_form_matches_series(self):
        for length in (TWO_PI, 8.0, 1.3):
            interval = IntervalSpec(0.0, length)
            for R in (0.5, 1.0, 16.0, 200.0):
                for d in (1, 2):
                    series = defect_majorant_series(d, length, R)
                    assert defect_majorant(d, interval, R) == pytest.approx(series, rel=1e-9)

    def test_nonpositive_R_rejected(self):
        for R in (0.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match="R must be positive"):
                defect_majorant(1, self.I, R)
        fam = generate_family("lattice", spacing=1.0, window=[-10, 10])
        dirs = DirectionAssignment.constant(fam, 1)
        with pytest.raises(ValueError, match="positive"):
            defect_decay_fit(fam, dirs, self.I, 0.0, 3.0, [-0.5, 8.0, 16.0, 32.0])

    def test_majorant_series_value(self):
        # 8/(2 pi) * sum_{n>=0} 1/(n+R)^2 for |I| = 2 pi; check against the
        # integral bracket 1/R <= sum <= 1/R + 1/R^2
        R = 16.0
        value = defect_majorant(1, self.I, R)
        scale = 8.0 / TWO_PI
        assert scale / R <= value <= scale * (1.0 / R + 1.0 / R**2) + 1e-12


class TestDDThresholdCheck:
    def setup_method(self):
        self.I = IntervalSpec(0, TWO_PI)

    def test_singleton_chains_bounded_by_two(self):
        fam = generate_family("lattice", spacing=1.0, window=[-6, 6])
        chains = detect_chains(fam, gamma_prime=0.5, M=1)
        gammas = np.arange(-20, 21, dtype=float) + 0.25
        report = dd_threshold_check(fam, chains, self.I, gammas)
        assert report.empirical_C <= 2.0 + 1e-9

    def test_clustered_pairs_stable_across_delta(self):
        values = []
        for delta in (1e-2, 1e-3, 1e-4):
            fam = generate_family("clustered-pairs", spacing=2.0, delta=delta, window=[0, 8])
            chains = detect_chains(fam, gamma_prime=0.5, M=2)
            gammas = np.arange(-30, 31, dtype=float)
            report = dd_threshold_check(fam, chains, self.I, gammas)
            values.append(report.empirical_C)
        assert max(values) <= 3.0 * min(values)
        assert max(values) < 4.0 * TWO_PI  # no blow-up; scale set by the interval

    def test_decade_map_no_growth(self):
        fam = generate_family("clustered-pairs", spacing=2.0, delta=1e-3, window=[0, 8])
        chains = detect_chains(fam, gamma_prime=0.5, M=2)
        gammas = np.arange(-60, 61, dtype=float)
        report = dd_threshold_check(fam, chains, self.I, gammas)
        decades = sorted(report.max_by_separation_decade)
        assert decades
        top = max(report.max_by_separation_decade.values())
        assert report.max_by_separation_decade[decades[-1]] <= top + 1e-12


class TestConditioning:
    def test_no_clustering_parity(self):
        rows, _ = conditioning_comparison(IntervalSpec(0, TWO_PI), [1.0], window=(0.0, 8.0))
        row = rows[0]
        assert row["cond_raw"] != "overflow"
        assert row["cond_raw"] <= 10.0 * row["cond_dd"]
        assert row["cond_dd"] <= 10.0 * row["cond_raw"]

    def test_raw_degenerates_quadratically_dd_stays(self):
        rows, _ = conditioning_comparison(IntervalSpec(0, TWO_PI), [1e-4, 1e-3, 1e-2])
        conds_raw = column(rows, "cond_raw")
        conds_dd = column(rows, "cond_dd")
        assert conds_raw[1] / conds_raw[2] == pytest.approx(100.0, rel=0.05)
        assert conds_raw[0] / conds_raw[1] == pytest.approx(100.0, rel=0.05)
        assert max(conds_dd) <= 1.01 * min(conds_dd)

    def test_measured_ratio_at_delta_1e3(self):
        rows, _ = conditioning_comparison(IntervalSpec(0, TWO_PI), [1e-3])
        row = rows[0]
        ratio = row["cond_raw"] / row["cond_dd"]
        assert ratio == pytest.approx(MEASURED_CONDITIONING_RATIO, rel=0.05)

    def test_raw_gram_centered_dd_gram_on_the_given_interval(self, monkeypatch):
        # the raw condition number is spectral, so translation (a diagonal unitary
        # similarity) leaves it; the DD Gram's divided differences recombine under it
        seen, assemble = [], analysis.assemble_gram
        monkeypatch.setattr(analysis, "assemble_gram",
                            lambda system, interval: seen.append((type(system), interval)) or assemble(system, interval))
        conditioning_comparison(IntervalSpec(0.0, 10.0), [1e-3, 1e-2], window=(0.0, 20.0))
        assert seen == [(ExponentialSystem, IntervalSpec(-5.0, 5.0)), (DividedDifferenceSystem, IntervalSpec(0.0, 10.0))] * 2

    def test_floor_reported_as_overflow(self):
        rows, _ = conditioning_comparison(IntervalSpec(0, TWO_PI), [1e-9], window=(0.0, 4.0))
        assert rows[0]["cond_raw"] == "overflow"

    def test_confluent_limit_of_dd_gram(self):
        I = IntervalSpec(0, TWO_PI)
        L = I.length
        fam = ExponentFamily(np.array([0.0, 1e-6]))
        chains = detect_chains(fam, gamma_prime=0.5, M=2)
        dirs = DirectionAssignment.constant(fam, 1)
        G = assemble_gram(DividedDifferenceSystem(fam, chains, dirs), I)
        # limit system {exp(i*0*t), i*t*exp(i*0*t)}: entries [j,k] = (f_k, f_j)
        target = np.array(
            [[L, 1j * L**2 / 2], [-1j * L**2 / 2, L**3 / 3]], dtype=complex
        )
        assert np.max(np.abs(G - target)) < 1e-3


class TestDensityChain:
    def test_integers_ratio_and_inequality(self):
        fam = generate_family("lattice", spacing=1.0, window=[-30, 30])
        I = IntervalSpec(0, TWO_PI)
        report = density_chain_check(fam, 1, I, [5.5, 8.5, 12.5], 10.0)
        assert report.all_hold
        for row in report.rows:
            r = row["r"]
            assert row["ratio"] == pytest.approx(r / (r + 10.0), abs=0.05)

    def test_large_R_ratio_approaches_d(self):
        fam = generate_family("lattice", spacing=1.0, window=[-30, 30])
        I = IntervalSpec(0, TWO_PI)
        report = density_chain_check(fam, 1, I, [8.5], 500.0)
        row = report.rows[0]
        assert row["eps_R"] < 1e-3
        assert row["card_omega_r"] <= (1 + row["eps_R"]) * row["card_gamma"]

    def test_vector_case_consistent_bound(self):
        fam = generate_family("lattice", spacing=1.0, window=[-40, 40])
        class_of, _ = build_sharpness_partition(fam, d=2, alpha=0.5)
        dirs = DirectionAssignment.from_partition(class_of, 2)
        I = IntervalSpec.of_length(1.2 * math.pi)
        report = density_chain_check(fam, 2, I, [6.5, 10.5], 30.0, directions=dirs)
        assert report.all_hold
        for row in report.rows:
            assert row["implied_length_lower"] <= I.length + 1e-9


class TestExperimentRows:
    @staticmethod
    def spy_on_assembly(monkeypatch):
        seen, assemble = [], analysis.assemble_gram
        monkeypatch.setattr(analysis, "assemble_gram",
                            lambda system, interval: seen.append(interval) or assemble(system, interval))
        return seen

    def test_nonincreasing_lengths_raise_before_assembly(self, monkeypatch):
        fam = generate_family("lattice", spacing=1.0, window=[-40, 40])
        seen = self.spy_on_assembly(monkeypatch)
        with pytest.raises(ValueError, match="increasing"):
            threshold_sweep(fam, DirectionAssignment.constant(fam, 1), [2.2 * math.pi, 1.8 * math.pi], N_max=16)
        assert seen == []

    def test_nonincreasing_deltas_raise_before_assembly(self, monkeypatch):
        seen = self.spy_on_assembly(monkeypatch)
        with pytest.raises(ValueError, match="increasing"):
            conditioning_comparison(IntervalSpec(0, TWO_PI), [1e-2, 1e-3])
        assert seen == []
        # an increasing grid gives one row per delta, in grid order
        rows, summary = conditioning_comparison(IntervalSpec(0, TWO_PI), [1e-3, 1e-2])
        assert column(rows, "delta") == [1e-3, 1e-2]
        assert summary == {"normalized_dd": True}

    def test_defect_fit_rows_carry_majorant(self):
        fam = generate_family("explicit", exponents=[k + 0.5 for k in range(-100, 100)])
        I, Rs = IntervalSpec(0, TWO_PI), [8.0, 16.0, 32.0, 64.0]
        rows, summary = defect_decay_fit(fam, DirectionAssignment.constant(fam, 1), I, 0.0, 2.0, Rs)
        assert list(summary) == ["slope", "intercept", "degenerate_zero_defect"]
        assert column(rows, "R") == Rs
        for row in rows:
            assert list(row) == ["R", "max_defect", "defect_squared", "majorant", "below_majorant"]
            assert row["defect_squared"] == pytest.approx(row["max_defect"] ** 2)
            assert row["majorant"] == defect_majorant(1, I, row["R"])
            assert row["below_majorant"] is (row["defect_squared"] <= row["majorant"]) is True

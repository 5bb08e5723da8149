import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from inghamlab.basisfuncs import DirectionAssignment, divided_difference_terms
from inghamlab.cli import main
from inghamlab.exponents import (
    ExponentFamily,
    build_sharpness_partition,
    detect_chains,
    generate_family,
)
from inghamlab.gram import (
    NEAR_SINGULAR_RTOL,
    TERM_PRODUCTS_PER_BLOCK,
    DividedDifferenceSystem,
    ExponentialSystem,
    FourierGrid,
    IntervalSpec,
    NearSingularGramError,
    _extreme_spectrum,
    _lambda_min_bound,
    _spherical_jn,
    assemble_gram,
    exp_inner_closed_form,
    exp_moments,
    extreme_eigenvalues,
    gated_cho_factor,
    grid_cauchy_factors,
)

from oracles import (
    centered_sinc_gram,
    composite_gl_exp_integral,
    cross_defect_norms,
    cross_inner_matrix,
    dd_inner_quadrature,
    dd_profile,
    dd_recurrence,
    dense_panel_rule,
    eval_dd_exact,
    eval_dd_hermite_genocchi,
    exp_moments_full_sum,
    full_kernel_gram,
    grid_coefficient_exact,
    grid_inner_matrix,
    hermiticity_residual,
    inner_matrix,
    invert_2x2,
    nodes as node_sets,
    pair_switches,
    profile_terms,
    projection_defect_norms,
    vector_inner,
)

TWO_PI = 2.0 * math.pi

LATTICE = {"kind": "lattice", "params": {"spacing": 1.0, "window": [-30, 30]}}
# one small runnable config per command, each of which accepts an interval
INTERVAL_CONFIGS = {
    "density": {"command": "density", "family": LATTICE, "grids": {"r": list(range(1, 31))}},
    "gram": {"command": "gram", "family": {"kind": "lattice", "params": {"spacing": 1.0, "window": [-3, 3]}}},
    "bounds-sweep": {"command": "bounds-sweep", "family": LATTICE, "grids": {"lengths": [5.0, 8.0]},
                     "params": {"N_max": 8}},
    "trace": {"command": "trace", "family": LATTICE, "params": {"y": 0.0, "r": 5.5, "R": 10.0}},
    "defect-decay": {"command": "defect-decay", "family": LATTICE, "grids": {"R": [8.0, 16.0, 32.0, 64.0]},
                     "params": {"y": 0.5, "r": 3.0}},
    "dd-condition": {"command": "dd-condition",
                     "family": {"kind": "clustered-pairs", "params": {"spacing": 2.0, "window": [0.0, 8.0]}},
                     "grids": {"delta": [1e-3]}},
}


DD_FAR_ENDS = (1e306, 1e307, 1e-150, 1e-160, 1e-200, 1e-300)  # of the interval [0, b] of a far dd-condition


class TestIntervalSpec:
    def test_length(self):
        I = IntervalSpec(1.0, 3.5)
        assert I.length == pytest.approx(2.5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            IntervalSpec(2.0, 2.0)

    @pytest.mark.parametrize("a,b", [(-1.7e308, 1.7e308), (-math.inf, 0.0), (0.0, math.inf)])
    def test_infinite_length_rejected(self, a, b):
        # finite ends can still overflow b - a, as finite exponents can overflow a family's span
        with pytest.raises(ValueError, match="length must be finite"):
            IntervalSpec(a, b)

    @pytest.mark.parametrize("command", sorted(INTERVAL_CONFIGS))
    def test_infinite_length_is_a_config_error_for_every_command(self, tmp_path, capsys, command):
        raw = {**INTERVAL_CONFIGS[command], "output": {"path": str(tmp_path / "out.csv")}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**raw, "interval": [0.0, TWO_PI]}))
        assert main(["--config", str(path)]) == 0  # the config is otherwise runnable
        (tmp_path / "out.csv").unlink()
        path.write_text(json.dumps({**raw, "interval": [-1.7e308, 1.7e308]}))
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: interval must have a finite length b - a"]
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("raw, message", [
        ({**INTERVAL_CONFIGS["gram"], "interval": [0.0, 1.7e308]},
         "interval: the phases overflow: the exponents span 6.0 and |t| reaches 1.7e+308"),
        ({**INTERVAL_CONFIGS["bounds-sweep"], "grids": {"lengths": [1.7e308]}},
         "grid 'lengths': the phases overflow: the exponents span 16.0 and |t| reaches 8.5e+307"),
        ({**INTERVAL_CONFIGS["gram"], "interval": [1e308, 1.5e308]},
         "interval: the phases overflow: the exponents span 6.0 and |t| reaches 1.5e+308"),
        ({**INTERVAL_CONFIGS["dd-condition"], "interval": [0.0, 1e308]},
         "interval: the phases overflow: the exponents span 8.001 and |t| reaches 1e+308"),
        # a + b overflows, and 0 * inf used to write null for every value
        ({"command": "gram", "family": {"kind": "explicit", "params": {"exponents": [0.0]}},
          "interval": [1e308, 1.7e308]}, None),
        # the DD Gram's weights 1/delta times moments of size |I| used to overflow, and its squared
        # norms of about tmax^2 |I| to underflow to 0
        *(({**INTERVAL_CONFIGS["dd-condition"], "interval": [0.0, b], "params": {"M": 2, "gamma_prime": 0.5}}, None)
          for b in DD_FAR_ENDS),
    ], ids=["gram", "bounds-sweep", "gram-offset", "dd-condition", "gram-one-exponent",
            *(f"dd-condition-{b:g}" for b in DD_FAR_ENDS)])
    def test_huge_interval_exits_zero_or_two(self, tmp_path, capsys, raw, message):
        # a finite length whose phases overflow used to exit 3 with RuntimeWarnings, and so did
        # a dd-condition run far from unit scale
        out = tmp_path / "out.json"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**raw, "output": {"path": str(out), "format": "json"}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status = main(["--config", str(path)])
        if message is not None:
            assert status == 2
            assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
            assert not out.exists()
        elif raw["command"] == "gram":
            assert status == 0
            summary, [row] = (json.loads(out.read_text())[key] for key in ("summary", "rows"))
            assert summary["lambda_min"] == summary["lambda_max"] == row["re"] == 6.999999999999999e307
        else:
            assert status == 0
            [row] = json.loads(out.read_text())["rows"]
            if raw["interval"][1] > 1.0:
                # the exponentials are all but orthogonal, so each pair's normalized DD Gram is
                # [[1, -1/sqrt(2)], [-1/sqrt(2), 1]], of condition (1 + sqrt(2))^2
                assert row["cond_raw"] == pytest.approx(1.0, rel=1e-12)
                assert row["cond_dd"] == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), rel=1e-12)
            else:  # every exp(i*w*t) is 1 to rounding
                assert row["cond_raw"] == row["cond_dd"] == "overflow"

    @pytest.mark.parametrize("b", [1e306, 1e307])
    def test_raw_dd_gram_out_of_range_names_delta(self, tmp_path, capsys, b):
        # unnormalized, the DD Gram's own entries, about |I| / delta^2, exceed the double range:
        # the run stops at its delta instead of going on with RuntimeWarnings and an Inf Gram
        raw = {**INTERVAL_CONFIGS["dd-condition"], "interval": [0.0, b],
               "params": {"M": 2, "gamma_prime": 0.5, "normalize_dd": False}}
        out = tmp_path / "out.json"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**raw, "output": {"path": str(out), "format": "json"}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--config", str(path)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical failure: command 'dd-condition': at delta=0.001: overflow encountered in multiply"]
        assert not out.exists()

    def test_sweep_phase_check_reads_only_the_central_block(self, tmp_path):
        # the sweep builds the central 2*N_max + 1 = 3 exponents, which span 2: the far ones make no phase
        out = tmp_path / "out.json"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "command": "bounds-sweep", "family": {"kind": "explicit", "params": {"exponents": [-1e300, -1, 0, 1, 1e300]}},
            "grids": {"lengths": [1e9]}, "params": {"N_max": 1}, "output": {"path": str(out), "format": "json"},
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--config", str(path)]) == 0
        assert json.loads(out.read_text())["summary"]["N_grid"] == [1]

    def test_of_length(self):
        I = IntervalSpec.of_length(TWO_PI)
        assert (I.a, I.b) == (0.0, pytest.approx(TWO_PI))


class TestClosedForm:
    def test_zero_frequency(self):
        assert exp_inner_closed_form(0.0, IntervalSpec(0, 1)) == pytest.approx(1.0)

    def test_full_period(self):
        assert abs(exp_inner_closed_form(TWO_PI, IntervalSpec(0, 1))) < 1e-14

    def test_unit_frequency_on_pi(self):
        value = exp_inner_closed_form(1.0, IntervalSpec(0, math.pi))
        assert value == pytest.approx(2j, abs=1e-14)
        oracle = composite_gl_exp_integral(1.0, 0.0, math.pi)
        assert value == pytest.approx(oracle, abs=1e-13)

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            L = float(rng.uniform(0.2, 12.0))
            a = float(rng.uniform(-5.0, 5.0))
            theta = float(rng.uniform(-1.0, 1.0)) * 1e3 / L
            interval = IntervalSpec(a, a + L)
            cf = exp_inner_closed_form(theta, interval)
            oracle = composite_gl_exp_integral(theta, a, a + L)
            assert abs(cf - oracle) <= 1e-12 * L
            if abs(oracle) > 0.1 * L:
                assert abs(cf - oracle) <= 1e-12 * abs(oracle)

    def test_small_phase_branch(self):
        interval = IntervalSpec(0.3, 2.3)
        for theta in (0.0, 1e-12, -1e-10):
            cf = exp_inner_closed_form(theta, interval)
            oracle = composite_gl_exp_integral(theta, 0.3, 2.3)
            assert abs(cf - oracle) <= 1e-12 * interval.length

    def test_conjugate_symmetry(self):
        interval = IntervalSpec(-1.0, 4.0)
        thetas = np.array([0.1, 1.7, 33.0])
        fwd = exp_inner_closed_form(thetas, interval)
        rev = exp_inner_closed_form(-thetas, interval)
        assert np.array_equal(rev, np.conj(fwd))


def exact_moments(m_max, theta, a, b):
    """Integrals of (t/T)^m exp(i*theta*t) over (a, b) for m = 0..m_max, T = max(|a|, |b|), in mpmath.

    By parts, the integrals N_m of t^m exp(i*theta*t) satisfy
    N_m = [t^m exp(i*theta*t)]_a^b / (i*theta) - m N_{m-1} / (i*theta):
    the antiderivative's terms m!/(m-j)! t^(m-j) / theta^(j+1) cancel down to
    the scale T^m * |I|, so the working precision covers the digits that
    cancellation costs at small theta, plus 40.  Each N_m is divided by T^m
    before it is rounded.
    """
    import mpmath

    T = max(abs(a), abs(b))
    lost = 0.0
    if theta != 0:
        lost = max(math.lgamma(m_max + 1) / math.log(10) + (m_max - j) * math.log10(T)
                   - (j + 1) * math.log10(abs(theta)) for j in range(m_max + 1))
        lost -= m_max * math.log10(T) + math.log10(b - a)
    with mpmath.workdps(40 + max(0, math.ceil(lost))):
        theta, a, b = mpmath.mpf(float(theta)), mpmath.mpf(a), mpmath.mpf(b)
        if theta == 0:
            M = [(b ** (m + 1) - a ** (m + 1)) / (m + 1) for m in range(m_max + 1)]
        else:
            it, Ea, Eb = 1j * theta, mpmath.expj(theta * a), mpmath.expj(theta * b)
            M = [(Eb - Ea) / it]
            for m in range(1, m_max + 1):
                M.append((b**m * Eb - a**m * Ea - m * M[-1]) / it)
        return [complex(v / mpmath.mpf(T) ** m) for m, v in enumerate(M)]


class TestExpMoments:
    """M_m(theta) = integral of (t/tmax)^m exp(i*theta*t) over I, the kernel of every DD inner product."""

    THETAS = np.array([0.0, 1e-12, -1e-12, 1e-6, -0.3, 0.7, -2.5, 17.0, -300.0, 300.0])

    @pytest.mark.parametrize("a, b", [(0.0, 10.0), (990.0, 1000.0), (-4.0, 4.0), (0.0, 2000.0)])
    def test_against_exact_values(self, a, b):
        pytest.importorskip("mpmath")
        m = np.arange(81)  # past the 2(q + K) that Taylor terms of 8 nodes reach
        values = exp_moments(self.THETAS[:, None], m[None, :], IntervalSpec(a, b))
        for i, theta in enumerate(self.THETAS):
            exact = exact_moments(m[-1], theta, a, b)
            # relative to |I|, which bounds |M_m| and the mass the sum carries
            assert max(abs(values[i, k] - exact[k]) for k in m) <= 1e-14 * (b - a)

    def test_far_interval(self):
        # raw t^72 overflows on [1e6, 1e6 + 10]; in units of tmax every moment
        # is at most |I|.  A phase theta * c that is not a double rounds, and
        # the closed form M_0 carries that floor, 2^-52 * |theta * c|, as well
        pytest.importorskip("mpmath")
        a, b = 1e6, 1e6 + 10.0
        m = np.arange(81)
        values = exp_moments(self.THETAS[:, None], m[None, :], IntervalSpec(a, b))
        assert np.all(np.isfinite(values))
        for i, theta in enumerate(self.THETAS):
            exact = exact_moments(m[-1], theta, a, b)
            floor = 2.0**-52 * abs(theta * 0.5 * (a + b))
            assert max(abs(values[i, k] - exact[k]) for k in m) <= (1e-14 + floor) * (b - a)

    def test_order_zero_is_the_closed_form(self):
        interval = IntervalSpec(-1.0, 4.0)
        thetas = np.array([0.0, 1e-9, 0.1, -7.0, 300.0])
        assert np.array_equal(exp_moments(thetas, 0, interval), exp_inner_closed_form(thetas, interval))

    @pytest.mark.parametrize("a, b", [(0.0, 10.0), (990.0, 1000.0), (-4.0, 4.0), (-7.0, 3.0), (1e7, 1e7 + 10.0)])
    def test_vanishing_orders_skipped_bitwise(self, a, b):
        # a[m, n] = 0 for n > m: leaving those terms out changes no bit of any moment
        rng = np.random.default_rng(16)
        theta = np.concatenate([self.THETAS, rng.uniform(-400.0, 400.0, 200)])[:, None]
        m = rng.integers(0, 81, size=(theta.size, 3))
        interval = IntervalSpec(a, b)
        assert np.array_equal(bit_patterns(exp_moments(theta, m, interval)),
                              bit_patterns(exp_moments_full_sum(theta, m, interval)))


def exact_spherical_jn(n_max, x):
    """j_0(x)..j_nmax(x) in mpmath: the top two orders from besselj, the rest by the
    downward recurrence, which j dominates above |x| and which is neutral below it."""
    import mpmath

    if x == 0:
        return [1.0] + [0.0] * n_max
    with mpmath.workdps(50):
        X = mpmath.mpf(abs(float(x)))
        j = [mpmath.sqrt(mpmath.pi / (2 * X)) * mpmath.besselj(n + 0.5, X) for n in (n_max, n_max + 1)]
        for n in range(n_max, 0, -1):
            j.insert(0, (2 * n + 1) / X * j[0] - j[1])
        return [float(v) * (-1.0 if x < 0 and n % 2 else 1.0) for n, v in enumerate(j[: n_max + 1])]


def jn_table(x, m) -> np.ndarray:
    """The values ``_spherical_jn`` yields for lanes x with top orders m (nondecreasing), zero above m."""
    x, m = np.asarray(x, dtype=float), np.asarray(m)
    out = np.zeros((int(m.max()) + 1, x.size))
    for n, (first, j) in enumerate(_spherical_jn(x, m, np.exp(x * 1j))):
        out[n, first:] = j
    return out


J_ZEROS = [math.pi, 4.493409457909064, 5.763459196894550, 6.987932000500520]  # first zeros of j_0..j_3


class TestSphericalBessel:
    """j_n by forward recurrence up to |x| and by backward ratios above it, against mpmath."""

    # measured: 1.1e-16 absolute, and 5.0e-15 relative above |x| (orders up to 80)
    ABS_TOL = 4 * 2.0**-53

    def check(self, x, top, values):
        pytest.importorskip("mpmath")
        for i, v in enumerate(x):
            exact = np.array(exact_spherical_jn(top, v))
            err = np.abs(values[:, i] - exact)
            assert err.max() <= self.ABS_TOL, (v, int(np.argmax(err)))
            above = (np.arange(top + 1) > abs(v)) & (np.abs(exact) > 1e-290)  # no zeros there
            n = np.arange(top + 1)[above]
            assert np.all(err[above] <= (n + 1) * 2.0**-52 * np.abs(exact[above])), v

    def test_zeros_switches_and_extremes(self):
        x = [v for z in J_ZEROS for v in (z, np.nextafter(z, 0), np.nextafter(z, 9), z - 1e-9, z + 1e-9)]
        x += [n + s for n in range(1, 81) for s in (-1e-9, 1e-9)] + [5e-324, 1e-300, 1e-12, 1e4, 0.0]
        x = np.concatenate([x, np.negative(x)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow in 1/x, no division by zero
            values = jn_table(x, np.full(x.size, 80))
        self.check(x, 80, values)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 79, 80])
    def test_switch_at_the_top_order(self, n):
        # |x| just below the top order takes the fewest ratio steps above it
        x = np.array([n - 1e-9, n + 1e-9, -n + 1e-9])
        self.check(x, n, jn_table(x, np.full(x.size, n)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(log_x=st.floats(-300.0, 4.0), near=st.integers(0, 80), offset=st.floats(-1.0, 1.0),
           top=st.integers(1, 80), negative=st.booleans())
    def test_against_mpmath(self, log_x, near, offset, top, negative):
        x = np.array([10.0**log_x, near + offset])
        x = -x if negative else x
        self.check(x, top, jn_table(x, np.full(x.size, top)))

    def test_lane_values_do_not_depend_on_the_other_lanes(self):
        # so a moment, and with it a Gram entry, does not depend on the row block it is formed in
        rng = np.random.default_rng(21)
        x = np.concatenate([rng.uniform(-90.0, 90.0, 300), 10.0 ** rng.uniform(-12, 1, 100), [0.0]])
        m = rng.integers(1, 81, x.size)
        m[0] = 80
        order = np.argsort(m, kind="stable")
        together = np.zeros((81, x.size))
        together[:, order] = jn_table(x[order], m[order])
        for i in rng.choice(x.size, 40, replace=False):
            alone = jn_table(x[i : i + 1], m[i : i + 1])[:, 0]
            assert np.array_equal(bit_patterns(alone), bit_patterns(together[: m[i] + 1, i]))
            assert not together[m[i] + 1 :, i].any()

    def test_matches_scipy(self):
        from scipy.special import spherical_jn

        rng = np.random.default_rng(5)
        x = np.concatenate([rng.uniform(-100.0, 100.0, 300), 10.0 ** rng.uniform(-6, 4, 300)])
        n = np.arange(81)
        # measured 1.2e-15: scipy's own error near the turning points |x| ~ n is the larger part
        assert np.max(np.abs(jn_table(x, np.full(x.size, 80)) - spherical_jn(n[:, None], x))) <= 1e-14


def bit_patterns(A) -> np.ndarray:
    """The 64-bit patterns of the real components of A."""
    return np.ascontiguousarray(A).view(np.uint64)


class TestVectorInner:
    def test_diagonal_is_length(self):
        fam = generate_family("lattice", spacing=1.0, window=[0, 4])
        dirs = DirectionAssignment.random(fam, 3, seed=1)
        I = IntervalSpec(0, TWO_PI)
        for k in (0, 2, 4):
            assert vector_inner(k, k, fam, dirs, I) == pytest.approx(TWO_PI)

    def test_orthogonal_directions_vanish(self):
        fam = ExponentFamily(np.array([0.0, 0.3]))
        U = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        dirs = DirectionAssignment(d=2, matrix=U)
        assert vector_inner(0, 1, fam, dirs, IntervalSpec(0, 1)) == 0.0

    def test_unit_gap_on_pi(self):
        fam = ExponentFamily(np.array([0.0, 1.0]))
        dirs = DirectionAssignment.constant(fam, 1)
        # (e_1, e_0): frequency difference w_1 - w_0 = 1 on (0, pi)
        assert vector_inner(1, 0, fam, dirs, IntervalSpec(0, math.pi)) == pytest.approx(2j)

    def test_consistent_with_assembled_gram(self):
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                              window=[0, 5], seed=11)
        dirs = DirectionAssignment.random(fam, 2, seed=6)
        I = IntervalSpec(0.5, 4.0)
        G = assemble_gram(ExponentialSystem(fam, dirs), I)
        for k in range(len(fam)):
            for n in range(len(fam)):
                # entries[j, k] holds (e_k, e_j)
                assert G[n, k] == pytest.approx(vector_inner(k, n, fam, dirs, I), abs=1e-13)


class TestFourierGrid:
    def test_centered_strict_selection(self):
        I = IntervalSpec(0, TWO_PI)  # gamma_n = n
        grid = FourierGrid.centered(I, 1, y=0.0, radius=3.0)
        assert list(grid.n_values) == [-2, -1, 0, 1, 2]
        # tie at |gamma - y| = radius excluded
        grid2 = FourierGrid.centered(I, 1, y=0.5, radius=2.5)
        assert list(grid2.n_values) == [-1, 0, 1, 2]

    def test_orthonormal(self):
        I = IntervalSpec(0.7, 0.7 + 1.9)
        grid = FourierGrid.centered(I, 3, y=0.0, radius=40.0)
        G = grid_inner_matrix(grid, grid, I)
        assert np.max(np.abs(G - np.eye(grid.size))) < 1e-12

    def test_size_counts_directions(self):
        I = IntervalSpec(0, TWO_PI)
        grid = FourierGrid.centered(I, 2, y=0.0, radius=1.5)
        assert grid.n_values.size == 3
        assert grid.size == 6


class TestAssembleGram:
    def test_integer_lattice_parseval(self):
        fam = generate_family("lattice", spacing=1.0, window=[-8, 8])
        dirs = DirectionAssignment.constant(fam, 1)
        G = assemble_gram(ExponentialSystem(fam, dirs), IntervalSpec(0, TWO_PI))
        assert np.max(np.abs(G - TWO_PI * np.eye(len(fam)))) < 1e-10

    def test_single_function(self):
        fam = ExponentFamily(np.array([0.7]))
        dirs = DirectionAssignment.constant(fam, 1)
        G = assemble_gram(ExponentialSystem(fam, dirs), IntervalSpec(0, 2.0))
        assert G.shape == (1, 1)
        assert G[0, 0].real > 0

    def test_block_identity_for_partition_directions(self):
        fam = generate_family("lattice", spacing=1.0, window=[-8, 8])
        class_of, _ = build_sharpness_partition(fam, d=2, alpha=0.5)
        dirs = DirectionAssignment.from_partition(class_of, 2)
        I = IntervalSpec(0, TWO_PI)
        G = assemble_gram(ExponentialSystem(fam, dirs), I)
        for j in (1, 2):
            pos = np.flatnonzero(class_of == j)
            block = G[np.ix_(pos, pos)]
            sub = fam.subfamily(pos)
            scalar = assemble_gram(
                ExponentialSystem(sub, DirectionAssignment.constant(sub, 1)), I
            )
            assert np.max(np.abs(block - scalar)) < 1e-12
        # cross-class entries vanish exactly (orthogonal directions)
        pos1 = np.flatnonzero(class_of == 1)
        pos2 = np.flatnonzero(class_of == 2)
        assert np.max(np.abs(G[np.ix_(pos1, pos2)])) == 0.0

    def test_hermitian_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = np.sort(rng.uniform(0, 6, size=8))
            fam = ExponentFamily(x)
            dirs = DirectionAssignment.random(fam, 2, seed=int(rng.integers(100)))
            G = assemble_gram(ExponentialSystem(fam, dirs), IntervalSpec(0, 5.0))
            assert hermiticity_residual(G) < 1e-12
            evals = np.linalg.eigvalsh(G)
            assert evals[0] >= -1e-8 * max(abs(evals[0]), abs(evals[-1]))


@st.composite
def triangle_cases(draw, n):
    """n exponentials on a lattice or a perturbed lattice, directions in C^d, an interval centered or not."""
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    positions = np.arange(n) - n // 2 + (rng.uniform(-0.2, 0.2, n) if draw(st.booleans()) else 0.0)
    fam = ExponentFamily(draw(st.floats(0.5, 2.0)) * positions)
    d = draw(st.integers(1, 3))
    rule = draw(st.sampled_from(["constant", "partition", "real", "random"]))
    if rule == "constant":
        dirs = DirectionAssignment.constant(fam, d, axis=draw(st.integers(0, d - 1)))
    elif rule == "partition":  # coordinate directions per class: orthogonal across classes
        dirs = DirectionAssignment(d, np.eye(d)[rng.integers(0, d, n)])
    elif rule == "real":  # real and not coordinate: the direction sum rounds
        Z = rng.normal(size=(n, d))
        dirs = DirectionAssignment(d, Z / np.linalg.norm(Z, axis=1, keepdims=True))
    else:
        dirs = DirectionAssignment.random(fam, d, seed=int(rng.integers(1000)))
    length = draw(st.floats(0.5, 12.0))
    a = -0.5 * length if draw(st.booleans()) else draw(st.floats(-5.0, 5.0))
    return ExponentialSystem(fam, dirs), IntervalSpec.of_length(length, a)


class TestGramTriangle:
    """An exponential Gram forms one triangle of row blocks and mirrors it: the full kernel, bit for bit."""

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 513, 769])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_triangle_is_the_full_kernel(self, n, data):
        system, interval = data.draw(triangle_cases(n))
        G = assemble_gram(system, interval)
        full = full_kernel_gram(system, interval)
        if interval.a + interval.b == 0 and not np.any(system.directions.matrix.imag):
            assert G.dtype == np.float64 and not np.any(full.imag)
            full = full.real
        else:
            assert G.dtype == np.complex128
        # "+ 0.0": an entry that is exactly 0 (orthogonal directions) may be
        # mirrored with the other sign of zero; every other bit is equal
        assert np.array_equal(bit_patterns(G + 0.0), bit_patterns(full + 0.0))
        assert hermiticity_residual(G) == 0.0
        U = system.directions.matrix
        # centered truncations as frame_bound_sequence takes them, and one window that ends at the last row
        for lo, hi in {(n // 2 - N, n // 2 + N) for N in (0, n // 8, n // 4, (n - 1) // 2)} | {(n - 1 - n // 3, n - 1)}:
            rows = DirectionAssignment(U.shape[1], U[lo : hi + 1])
            sub = ExponentialSystem(system.family.slice_positions(lo, hi), rows)
            assert np.array_equal(bit_patterns(assemble_gram(sub, interval) + 0.0),
                                  bit_patterns(G[lo : hi + 1, lo : hi + 1] + 0.0))

    @pytest.mark.parametrize("d", [3, 5])
    def test_real_direction_sums_round_as_the_complex_ones(self, d):
        # a contiguous real einsum over d >= 3 sums in another order and moves the last bit of most entries
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2, window=[-150, 150], seed=d)
        Z = np.random.default_rng(d).normal(size=(len(fam), d))
        system = ExponentialSystem(fam, DirectionAssignment(d, Z / np.linalg.norm(Z, axis=1, keepdims=True)))
        I = IntervalSpec(-3.0, 3.0)
        G = assemble_gram(system, I)
        assert G.dtype == np.float64
        assert np.array_equal(bit_patterns(G), bit_patterns(full_kernel_gram(system, I).real))

    def test_centered_complex_directions_take_sinc(self, monkeypatch):
        # on a centered interval the closed form is the real |I| sin(x)/x whatever the directions:
        # no complex exp of all-zero phases, and the Gram stays complex only through U
        from inghamlab import gram

        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2, window=[-40, 40], seed=3)
        system, I = ExponentialSystem(fam, DirectionAssignment.random(fam, 2, seed=4)), IntervalSpec(-2.5, 2.5)
        calls = []
        closed_form = gram.exp_inner_closed_form
        monkeypatch.setattr(gram, "exp_inner_closed_form", lambda *args: calls.append(args) or closed_form(*args))
        G = assemble_gram(system, I)
        assert not calls
        assert G.dtype == np.complex128 and np.any(G.imag)
        assert np.array_equal(bit_patterns(G + 0.0), bit_patterns(full_kernel_gram(system, I) + 0.0))

    @pytest.mark.parametrize("rule", ["constant", "real", "random"])
    def test_centered_gram_is_the_masked_sinc_formula(self, rule):
        # duplicate exponents put x = 0 off the diagonal, and gaps of 1e-9 to 4e-9 at
        # |I| = 5 put |x| = |w_s - w_a| * 2.5 on both sides of SMALL_PHASE = 1e-8
        base = np.array([-7.0, -3.0, -3.0, 0.0, 1e-9, 3e-9, 4e-9, 4.1e-9, 2.0, 2.0, 2.0, 2.0 + 2e-9, 5.5, 9.0])
        fam = ExponentFamily(np.sort(np.r_[base, np.random.default_rng(1).uniform(-40.0, 40.0, 50)]))
        Z = np.random.default_rng(2).normal(size=(len(fam), 3))
        dirs = {"constant": DirectionAssignment.constant(fam, 2),
                "real": DirectionAssignment(3, Z / np.linalg.norm(Z, axis=1, keepdims=True)),
                "random": DirectionAssignment.random(fam, 2, seed=5)}[rule]
        system, I = ExponentialSystem(fam, dirs), IntervalSpec(-2.5, 2.5)
        G = assemble_gram(system, I)
        assert G.dtype == (np.complex128 if rule == "random" else np.float64)
        # "+ 0.0": an exact zero may carry the other sign; every other bit is equal
        assert np.array_equal(bit_patterns(G + 0.0), bit_patterns(centered_sinc_gram(system, I) + 0.0))
        theta = np.subtract.outer(fam.exponents, fam.exponents)
        kept = theta.copy()
        exp_inner_closed_form(theta, I)
        assert np.array_equal(bit_patterns(theta), bit_patterns(kept))

    @pytest.mark.parametrize("a", [-2.5, 0.0])
    def test_normalized_one_node_chains(self, a):
        # one-node chains are single nodes as well; normalized, the Gram is the exponential one over |I|
        fam = generate_family("lattice", spacing=1.0, window=[-4, 4])
        dirs, I = DirectionAssignment.constant(fam, 1), IntervalSpec.of_length(5.0, a)
        chains = [(k, k) for k in range(len(fam))]
        G = assemble_gram(DividedDifferenceSystem(fam, chains, dirs, normalize=True), I)
        assert np.allclose(G, assemble_gram(ExponentialSystem(fam, dirs), I) / I.length, rtol=0.0, atol=1e-15)
        assert np.allclose(np.diag(G), 1.0, rtol=0.0, atol=1e-15)

    def test_peak_memory_one_gram_and_one_row_block(self):
        # measured at n = 1025: 10.1 MB (float64) and 20.1 MB (complex) against bounds of
        # 12.1 and 20.5 MB (17.3 and 29.5 MB with 2^18 term products a block, against 23.1
        # and 31.5 MB); all n^2 entries at once take 34.8 MB, over both
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2, window=[-512, 512], seed=3)
        n = len(fam)
        assert n == 1025
        for dirs, interval in ((DirectionAssignment.constant(fam, 1), IntervalSpec(-2.5, 2.5)),
                               (DirectionAssignment.random(fam, 2, seed=0), IntervalSpec(0.0, 8.0))):
            system = ExponentialSystem(fam, dirs)
            assemble_gram(system, interval)  # warm caches outside the measurement
            tracemalloc.start()
            try:
                G = assemble_gram(system, interval)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= G.nbytes + 56 * TERM_PRODUCTS_PER_BLOCK

    def test_peak_memory_taylor_term_dd_gram(self):
        # eight 8-node tight chains on [0, 10]: moment orders up to 50, and most lanes
        # below their order, where the j_n take ratios; measured 5.5 MB (16.8 MB with 2^18 term
        # products a block, 20.7 MB with the per-order scipy calls, 53.2 MB with one ratio table
        # for a whole row block)
        x = (np.arange(8)[:, None] + 0.03 * np.arange(8)[None, :]).ravel()
        fam, interval = ExponentFamily(x), IntervalSpec(0.0, 10.0)
        system = DividedDifferenceSystem(fam, detect_chains(fam, 0.5, 8), DirectionAssignment.constant(fam, 1))
        assemble_gram(system, interval)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            G = assemble_gram(system, interval)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= G.nbytes + 112 * TERM_PRODUCTS_PER_BLOCK  # the 7.3 MB of temporaries of a row block


class TestDividedDifferenceGram:
    def setup_method(self):
        self.I = IntervalSpec(0, TWO_PI)
        self.fam = generate_family("clustered-pairs", spacing=2.0, delta=1e-3, window=[0, 4])
        self.chains = detect_chains(self.fam, gamma_prime=0.5, M=2)
        self.dirs = DirectionAssignment.constant(self.fam, 1)
        self.system = DividedDifferenceSystem(self.fam, self.chains, self.dirs)

    def test_singleton_chain_reduces_to_exponential(self):
        fam = generate_family("lattice", spacing=1.0, window=[0, 3])
        chains = detect_chains(fam, gamma_prime=0.5, M=1)
        system = DividedDifferenceSystem(fam, chains, DirectionAssignment.constant(fam, 1))
        assert dd_inner_quadrature(1, 1, system, self.I) == pytest.approx(TWO_PI, abs=1e-10)
        G = assemble_gram(system, self.I)
        assert np.max(np.abs(G - TWO_PI * np.eye(4))) < 1e-10

    def test_orthogonal_directions_vanish(self):
        fam = ExponentFamily(np.array([0.0, 1e-3]))
        chains = detect_chains(fam, gamma_prime=0.5, M=2)
        U = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        system = DividedDifferenceSystem(fam, chains, DirectionAssignment(d=2, matrix=U))
        assert dd_inner_quadrature(0, 1, system, self.I) == 0.0

    def test_entry_against_denser_quadrature(self):
        rate = 2 * max(float(np.max(np.abs(nodes))) for nodes in node_sets(self.system))
        t, w = dense_panel_rule(self.I.a, self.I.b, rate=rate)
        for k, n in ((1, 1), (1, 3), (0, 3)):
            fk = dd_profile(node_sets(self.system)[k], t)
            fn = dd_profile(node_sets(self.system)[n], t)
            oracle = np.sum(w * fk * np.conj(fn))
            value = dd_inner_quadrature(k, n, self.system, self.I)
            assert value == pytest.approx(oracle, abs=1e-10 * self.I.length)

    def test_pair_diagonal_confluent_limit(self):
        # as delta -> 0 the second pair function tends to i*t*exp(i*w*t),
        # whose squared norm over (0, L) is L^3/3
        L = self.I.length
        target = L**3 / 3.0
        for delta, tol in ((1e-3, 2e-2), (1e-5, 2e-4)):
            fam = ExponentFamily(np.array([0.0, delta]))
            chains = detect_chains(fam, gamma_prime=0.5, M=2)
            system = DividedDifferenceSystem(fam, chains, DirectionAssignment.constant(fam, 1))
            val = dd_inner_quadrature(1, 1, system, self.I)
            assert val.real == pytest.approx(target, rel=tol)

    def test_gram_matches_entrywise_assembly(self):
        G = assemble_gram(self.system, self.I)
        for k in range(len(self.fam)):
            for n in range(k, len(self.fam)):
                entry = dd_inner_quadrature(k, n, self.system, self.I)
                # assembly stores (f_k, f_j) at [j, k]
                assert G[n, k] == pytest.approx(entry, abs=1e-9)

    def test_normalized_diagonal(self):
        G = assemble_gram(DividedDifferenceSystem(self.fam, self.chains, self.dirs, normalize=True), self.I)
        assert np.allclose(np.diag(G).real, 1.0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 100, 250])
    def test_normalized_gram_blind_to_profile_scale(self, monkeypatch, k):
        # profile p times 2^(+-k), alternating: every product of two terms scales exactly, so
        # the normalized Gram is bitwise the same, and so it is where _unit_scaled prescales
        from inghamlab import gram

        system = DividedDifferenceSystem(self.fam, self.chains, self.dirs, normalize=True)
        G = assemble_gram(system, self.I)

        def scaled(coefs, starts, length):
            signs = np.resize([1, -1], starts.size).repeat(np.diff(starts, append=coefs.size))
            return coefs * np.ldexp(1.0, k * signs)

        monkeypatch.setattr(gram, "_unit_scaled", scaled)
        assert assemble_gram(system, self.I).tobytes() == G.tobytes()


def pairs_dd_system(window, delta):
    """The raw DD system of clustered pairs with spacing 2 over the window."""
    fam = generate_family("clustered-pairs", spacing=2.0, delta=delta, window=window)
    return DividedDifferenceSystem(fam, detect_chains(fam, gamma_prime=0.5, M=2), DirectionAssignment.constant(fam, 1))


class TestCenteredPanels:
    """The DD Gram depends on the spread of the nodes, not their position."""

    I = IntervalSpec(0.0, 10.0)

    # dyadic offsets make the shift by 1000 exact, so both windows hold the same pairs
    @pytest.mark.parametrize("delta", [2.0**-20, 2.0**-7])
    def test_gram_invariant_under_window_shift(self, delta):
        near, far = pairs_dd_system([0.0, 20.0], delta), pairs_dd_system([1000.0, 1020.0], delta)
        assert far.chains == near.chains
        G_near, G_far = assemble_gram(near, self.I), assemble_gram(far, self.I)
        assert np.max(np.abs(G_far - G_near)) <= 1e-12 * np.max(np.abs(G_near))

    def test_gram_far_from_zero_matches_simplex_reference(self):
        # the reference takes the simplex form on centered nodes, which does
        # not cancel at all
        system = pairs_dd_system([1000.0, 1010.0], 1e-3)
        nodes = node_sets(system)
        c = 0.5 * (nodes[0][0] + nodes[-1][-1])
        rate = 2.0 * max(float(np.max(np.abs(x - c))) for x in nodes)
        t, w = dense_panel_rule(self.I.a, self.I.b, rate=rate)
        F = np.stack([eval_dd_hermite_genocchi(x - c, t) for x in nodes])
        reference = (F.conj() * w) @ F.T  # [j, k] = (f_k, f_j)
        G = assemble_gram(system, self.I)
        assert np.max(np.abs(G - reference)) <= 1e-13 * np.max(np.abs(reference))


def exact_profile_gram(nodes, interval):
    """[j, k] = (f_k, f_j) from mpmath profiles (``eval_dd_exact``) on a dense panel rule."""
    t, w = dense_panel_rule(interval.a, interval.b, rate=2.0 * max(float(np.max(np.abs(x))) for x in nodes))
    F = np.stack([eval_dd_exact(x, t) for x in nodes])
    return (F.conj() * w) @ F.T


class TestSimplexOrderInGrams:
    """The DD Gram's terms follow the phase its profiles span on I."""

    def test_far_interval_gram_matches_recurrence_reference(self):
        # delta = 0.05 on [990, 1000] spans a phase of 50: explicit weights,
        # where a simplex rule of 16 points would miss by about a factor of 2
        I = IntervalSpec(990.0, 1000.0)
        system = pairs_dd_system([0.0, 6.0], 0.05)
        nodes = node_sets(system)
        c = 0.5 * (nodes[0][0] + nodes[-1][-1])
        rate = 2.0 * max(float(np.max(np.abs(x - c))) for x in nodes)
        t, w = dense_panel_rule(I.a, I.b, rate=rate)
        F = np.stack([dd_recurrence(x - c, t) for x in nodes])
        reference = (F.conj() * w) @ F.T  # [j, k] = (f_k, f_j)
        G = assemble_gram(system, I)
        assert np.max(np.abs(G - reference)) <= 1e-12 * np.max(np.abs(reference))
        lo, hi = np.linalg.eigvalsh(G)[[0, -1]]
        assert lo == pytest.approx(0.516891, rel=1e-5)
        assert hi == pytest.approx(1331.15, rel=1e-5)
        # the entrywise oracle sizes its own rule and sees the same entries
        for k, j in ((1, 1), (1, 3), (3, 7), (0, 5)):
            assert abs(G[j, k] - dd_inner_quadrature(k, j, system, I)) <= 1e-11 * np.max(np.abs(reference))

    @pytest.mark.parametrize("a", [0.0, 990.0])
    def test_tight_chain_gram_matches_exact_profiles(self, a):
        # six nodes 0.9 / tmax apart (no wide gap: one run of Taylor terms per
        # prefix of three or more nodes) and two singletons; the simplex oracle
        # behind dd_inner_quadrature would take 24^5 points per t at q = 5, so
        # the reference integrates mpmath profiles on a dense panel rule
        pytest.importorskip("mpmath")
        I = IntervalSpec(a, a + 10.0)
        chain = 0.9 / I.b * np.arange(6)
        fam = ExponentFamily(np.append(chain, chain[-1] + np.array([2.0, 5.0]) / I.b))
        system = DividedDifferenceSystem(fam, [(0, 5), (6, 6), (7, 7)], DirectionAssignment.constant(fam, 1))
        G = assemble_gram(system, I)
        reference = exact_profile_gram(node_sets(system), I)
        assert np.max(np.abs(G - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_tight_chain_gram_far_from_zero(self):
        # on [1e7, 1e7 + 10] the Taylor terms reach moment order 2 * 23, where
        # raw powers of t (1e322) overflow; the entries span 41 decades, so each
        # is compared with its own reference
        pytest.importorskip("mpmath")
        I = IntervalSpec(1e7, 1e7 + 10.0)
        fam = ExponentFamily(0.9 / I.b * np.arange(4))
        system = DividedDifferenceSystem(fam, [(0, 3)], DirectionAssignment.constant(fam, 1))
        G = assemble_gram(system, I)
        reference = exact_profile_gram(node_sets(system), I)
        assert np.all(np.isfinite(G))
        assert np.all(np.abs(G - reference) <= 1e-13 * np.abs(reference))

    def test_dd_workload_pairs_take_two_and_three_points(self):
        # clustered pairs on [0, 100], I = [0, 10]: theta = 1e-5 and 1e-3
        for delta, points in ((1e-6, 2), (1e-4, 3)):
            nodes = node_sets(pairs_dd_system([0.0, 100.0], delta))
            terms = [divided_difference_terms(x, 10.0) for x in nodes if x.size > 1]
            assert [(phases.size, orders.tolist()) for phases, _, orders in terms] == [(points, [1] * points)] * 51


@st.composite
def chain_systems(draw):
    """A chain of q + 1 <= 4 nodes and one singleton, on an interval near or far from 0.

    Each gap times max|t| is either below 1 (clustered: simplex terms) or at
    least 1 (separated: explicit weights), in any mix.
    """
    q = draw(st.integers(1, 3))
    # max|t| >= 1 keeps separated nodes within a few units, and the oracle's panels few
    a = draw(st.one_of(st.floats(-2.0, -1.0), st.floats(0.0, 1.0), st.floats(200.0, 400.0)))
    interval = IntervalSpec(a, a + draw(st.floats(1.0, 2.0)))
    tmax = max(abs(interval.a), abs(interval.b))
    clustered, separated = st.floats(-5.0, -0.3).map(lambda e: 10.0**e), st.floats(1.0, 1.5)
    phases = draw(st.lists(st.one_of(clustered, separated), min_size=q, max_size=q))
    nodes = draw(st.floats(-0.5, 0.5)) + np.concatenate([[0.0], np.cumsum(phases)]) / tmax
    fam = ExponentFamily(np.append(nodes, nodes[-1] + 1.0))
    return DividedDifferenceSystem(fam, [(0, q), (q + 1, q + 1)], DirectionAssignment.constant(fam, 1)), interval


class TestClosedFormDD:
    """DD Grams and DD -> grid cross matrices in closed form against entrywise panel quadrature."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(case=chain_systems())
    def test_matches_entrywise_quadrature(self, case):
        system, interval = case
        n = len(node_sets(system))
        Q = np.zeros((n, n), dtype=complex)  # Q[j, k] = (f_k, f_j)
        for k in range(n):
            for j in range(k, n):
                Q[j, k] = dd_inner_quadrature(k, j, system, interval)
                Q[k, j] = np.conj(Q[j, k])
        grid = FourierGrid.centered(interval, 1, y=float(node_sets(system)[0][0]), radius=4.0 * math.pi / interval.length)
        X = np.array([[dd_inner_quadrature(k, alpha, system, interval, grid) for k in range(n)]
                      for alpha in range(grid.size)])
        norms = np.sqrt(np.diag(Q).real)
        unit = DividedDifferenceSystem(system.family, system.chains, system.directions, normalize=True)
        for sources, scale in ((system, np.ones(n)), (unit, norms)):
            G, reference = assemble_gram(sources, interval), Q / np.outer(scale, scale)
            assert np.max(np.abs(G - reference)) <= 1e-12 * np.max(np.abs(reference))
            cross, reference = grid_inner_matrix(sources, grid, interval), X / scale[None, :]
            assert np.max(np.abs(cross - reference)) <= 1e-12 * np.max(np.abs(reference))


    def test_block_size_leaves_every_entry_unchanged(self, monkeypatch):
        # assemble_gram forms the term products a few whole profiles at a time;
        # one block in all, several multi-row blocks (3 rows of the 22 DD functions,
        # 9 of the 41 exponentials) and one profile per block give the same bits
        from inghamlab import gram

        raw = pairs_dd_system([0.0, 20.0], 1e-3)
        unit = DividedDifferenceSystem(raw.family, raw.chains, raw.directions, normalize=True)
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2, window=[-20, 20], seed=1)
        single = ExponentialSystem(fam, DirectionAssignment.random(fam, 2, seed=1))
        interval = IntervalSpec(0.0, 10.0)
        phases, _, _, starts = gram._terms(raw, interval.b)
        most = int(np.diff(starts, append=phases.size).max())
        runs = []
        for budget in (gram.TERM_PRODUCTS_PER_BLOCK, 3 * most * phases.size, 1):
            monkeypatch.setattr(gram, "TERM_PRODUCTS_PER_BLOCK", budget)
            runs.append([assemble_gram(s, interval) for s in (raw, unit, single)])
        assert all(np.array_equal(a, b) for run in runs[1:] for a, b in zip(runs[0], run))


PAIR_SWITCHES = pair_switches()  # where the pair rule's point count steps, by the scalar reference


@st.composite
def prefix_systems(draw):
    """Chains of 1 to 4 nodes and a tmax in [1, 1e3], as a raw DD system.

    Each gap times tmax is at or just off a switch of the pair rule's point count, 0 (a
    repeated node), anywhere below 1, or wide; the nodes start near or far from 0, on either side.
    """
    tmax = draw(st.floats(1.0, 1e3))
    switch = st.tuples(st.sampled_from(PAIR_SWITCHES), st.sampled_from([-1e-9, -2.0**-52, 0.0, 2.0**-52, 1e-9]))
    theta = st.one_of(switch.map(lambda s: s[0] * (1.0 + s[1])), st.just(0.0),
                      st.floats(0.0, 1.0, exclude_max=True), st.floats(1.0, 50.0))
    x, chains = [draw(st.sampled_from([0.0, -3.0, 7.5, -1e6, 1e6]))], []
    for gaps in draw(st.lists(st.lists(theta, max_size=3), min_size=1, max_size=6)):
        if chains:  # the next chain starts at any distance
            x.append(x[-1] + draw(st.sampled_from([0.0, 1e-3, 0.5, 7.0])))
        chains.append((len(x) - 1, len(x) - 1 + len(gaps)))
        x.extend(x[-1] + np.cumsum(gaps) / tmax)
    fam = ExponentFamily(np.array(x))
    return DividedDifferenceSystem(fam, chains, DirectionAssignment.constant(fam, 1)), tmax


class TestPrefixTerms:
    """``gram._terms`` expands every one- and two-node prefix in one pass, with the bits of one call per prefix."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=prefix_systems())
    def test_equals_one_call_per_prefix(self, case):
        from inghamlab import gram

        system, tmax = case
        for ours, reference in zip(gram._terms(system, tmax), profile_terms(system, tmax), strict=True):
            assert ours.dtype == reference.dtype and ours.shape == reference.shape
            assert ours.tobytes() == reference.tobytes()

    def test_pairs_at_every_switch_point(self):
        # gap * tmax one ulp below, at and one ulp above each switch of the rule's point count
        from inghamlab import gram

        tmax, sizes = 8.0, []  # a power of 2: gap * tmax is theta exactly
        for theta in (np.nextafter(s, to) for s in PAIR_SWITCHES for to in (0.0, s, 1.0)):
            fam = ExponentFamily(np.array([0.0, theta / tmax]))
            system = DividedDifferenceSystem(fam, [(0, 1)], DirectionAssignment.constant(fam, 1))
            ours, reference = gram._terms(system, tmax), profile_terms(system, tmax)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(ours, reference, strict=True))
            sizes.append(ours[0].size - 1)  # the pair's rule, after the first node's term
        assert sizes == [n + k for n in range(1, 7) for k in (0, 1, 1)]

    def test_clustered_pairs_make_no_chain_call(self, monkeypatch):
        # the dd benchmark's systems: clustered pairs 2 apart on [0, 100], 102 prefixes of one or two nodes each
        from inghamlab import basisfuncs, gram

        calls = []

        def spy(*args):
            calls.append(args)
            return divided_difference_terms(*args)

        monkeypatch.setattr(basisfuncs, "divided_difference_terms", spy)
        for delta in (1e-6, 1e-4, 1e-3, 1e-2):
            system = pairs_dd_system([0.0, 100.0], delta)
            phases, _, _, starts = gram._terms(system, 10.0)
            assert starts.size == 102 and phases.size > 102
        assert calls == []
        fam = ExponentFamily(np.array([0.0, 1e-3, 2e-3]))  # the spy sees a three-node prefix, and only it
        gram._terms(DividedDifferenceSystem(fam, [(0, 2)], DirectionAssignment.constant(fam, 1)), 10.0)
        assert len(calls) == 1 and calls[0][0].size == 3


@st.composite
def gram_systems(draw):
    """An exponential, raw DD, normalized DD or one-node-chain system in C^d, on an interval centered or not."""
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["exponential", "dd", "normalized-dd", "one-node-chains"]))
    if kind in ("dd", "normalized-dd"):
        fam = generate_family("clustered-pairs", spacing=2.0, delta=draw(st.floats(1e-4, 0.3)),
                              window=[draw(st.floats(-10.0, 10.0)), draw(st.floats(12.0, 30.0))])
        chains = detect_chains(fam, gamma_prime=0.5, M=2)
    else:
        fam = ExponentFamily(np.arange(draw(st.integers(1, 40))) + rng.uniform(-0.2, 0.2))
        chains = [(k, k) for k in range(len(fam))]
    rule = draw(st.sampled_from(["constant", "real", "random"]))
    rows = sum(last - first + 1 for first, last in chains)
    if rule == "constant":
        dirs = DirectionAssignment(d, np.tile(np.eye(d)[draw(st.integers(0, d - 1))], (rows, 1)))
    elif rule == "real":
        Z = rng.normal(size=(rows, d))
        dirs = DirectionAssignment(d, Z / np.linalg.norm(Z, axis=1, keepdims=True))
    else:
        Z = rng.normal(size=(rows, d)) + 1j * rng.normal(size=(rows, d))
        dirs = DirectionAssignment(d, Z / np.linalg.norm(Z, axis=1, keepdims=True))
    length = draw(st.floats(0.5, 12.0))
    interval = IntervalSpec.of_length(length, -0.5 * length if draw(st.booleans()) else draw(st.floats(-5.0, 5.0)))
    if kind == "exponential":
        return ExponentialSystem(fam, dirs), interval
    return DividedDifferenceSystem(fam, chains, dirs, normalize=kind == "normalized-dd"), interval


class TestGramHermiticity:
    """Every Gram is one triangle and its conjugate transpose: exactly Hermitian, with a real diagonal."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=gram_systems())
    # each entry formed on both sides of the diagonal left a residual of 1.5e-14 here
    @example(case=(pairs_dd_system([0.0, 20.0], 1e-3), IntervalSpec(0.0, 10.0)))
    def test_residual_is_exactly_zero(self, case):
        system, interval = case
        G = assemble_gram(system, interval)
        assert hermiticity_residual(G) == 0.0
        assert not np.any(np.diag(G).imag)


def energy(G, x) -> float:
    """The quadratic form x^H G x: the L2(I, H) energy of sum_k x_k f_k."""
    return float(np.real(x.conj() @ G @ x))


def inverse_gram(G) -> np.ndarray:
    """Biorthogonal (dual) coefficients: the inverse Gram behind the spectral gate."""
    return cho_solve(gated_cho_factor(G), np.eye(G.shape[0], dtype=complex))


def biorthogonality_residual(G, C) -> float:
    """max |(e_j, phi_k) - delta_jk| for phi_k = sum_j C[j, k] e_j."""
    return float(np.max(np.abs(G @ C - np.eye(G.shape[0]))))


class TestEnergyQuadraticForm:
    def test_unit_vector_picks_diagonal(self):
        fam = ExponentFamily(np.array([0.0, 0.5]))
        dirs = DirectionAssignment.constant(fam, 1)
        G = assemble_gram(ExponentialSystem(fam, dirs), IntervalSpec(0, 3.0))
        x = np.array([0.0, 1.0], dtype=complex)
        assert energy(G, x) == pytest.approx(G[1, 1].real)

    def test_parseval_energy(self):
        fam = generate_family("lattice", spacing=1.0, window=[-4, 4])
        dirs = DirectionAssignment.constant(fam, 1)
        G = assemble_gram(ExponentialSystem(fam, dirs), IntervalSpec(0, TWO_PI))
        rng = np.random.default_rng(0)
        x = rng.normal(size=9) + 1j * rng.normal(size=9)
        assert energy(G, x) == pytest.approx(TWO_PI * np.sum(np.abs(x) ** 2))

    def test_matches_time_domain_quadrature(self):
        fam = generate_family("clustered-pairs", spacing=1.0, delta=1e-3, window=[0, 3])
        dirs = DirectionAssignment.constant(fam, 1)
        I = IntervalSpec(0, TWO_PI)
        G = assemble_gram(ExponentialSystem(fam, dirs), I)
        rng = np.random.default_rng(8)
        x = rng.normal(size=len(fam)) + 1j * rng.normal(size=len(fam))
        t, w = dense_panel_rule(I.a, I.b, rate=2 * float(np.max(np.abs(fam.exponents))))
        signal = np.exp(1j * np.outer(t, fam.exponents)) @ x
        oracle = float(np.sum(w * np.abs(signal) ** 2))
        assert energy(G, x) == pytest.approx(oracle, rel=1e-8)


class TestDualFamily:
    def test_orthogonal_case(self):
        G = TWO_PI * np.eye(5, dtype=complex)
        C = inverse_gram(G)
        assert np.allclose(C, np.eye(5) / TWO_PI)
        assert np.allclose(np.sqrt(np.real(np.diag(C))), 1.0 / math.sqrt(TWO_PI))

    def test_two_by_two_against_hand_inverse(self):
        fam = ExponentFamily(np.array([0.0, 1.0]))
        dirs = DirectionAssignment.constant(fam, 1)
        G = assemble_gram(ExponentialSystem(fam, dirs), IntervalSpec(0, math.pi))
        C = inverse_gram(G)
        assert np.max(np.abs(C - invert_2x2(G))) < 1e-12
        assert biorthogonality_residual(G, C) < 1e-12

    def test_biorthogonality_contract(self):
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                              window=[-6, 6], seed=2)
        dirs = DirectionAssignment.random(fam, 2, seed=4)
        G = assemble_gram(ExponentialSystem(fam, dirs), IntervalSpec(0, TWO_PI))
        assert biorthogonality_residual(G, inverse_gram(G)) < 1e-8

    def test_near_singular_rejected(self):
        fam = ExponentFamily(np.array([1.0, 1.0]))  # duplicated function
        dirs = DirectionAssignment.constant(fam, 1)
        G = assemble_gram(ExponentialSystem(fam, dirs), IntervalSpec(0, 1.0))
        with pytest.raises(NearSingularGramError) as err:
            gated_cho_factor(G)
        assert err.value.min_eigenvalue <= 1e-10 * err.value.norm

    @pytest.mark.parametrize("directions", ["constant", "random"])
    def test_gate_reports_extreme_eigenvalues(self, directions):
        # a gap of 1e-5 puts lambda_min at 4e-13 (real) or 2e-11 (complex) of the norm:
        # under the gate and far above rounding
        fam = ExponentFamily(np.array([-3.0, -1.0, 0.0, 1e-5, 1.0, 2.5]))
        if directions == "constant":  # real-valued on a centered interval: gated as float64
            dirs = DirectionAssignment.constant(fam, 1)
            G = assemble_gram(ExponentialSystem(fam, dirs), IntervalSpec(-2.0, 2.0)).real
        else:
            U = DirectionAssignment.random(fam, 2, seed=3).matrix.copy()
            U[3] = U[2]  # the close pair shares a direction
            G = assemble_gram(ExponentialSystem(fam, DirectionAssignment(2, U)), IntervalSpec(0.5, 4.5))
            assert np.any(G.imag)
        evals = np.linalg.eigvalsh(G)
        gnorm = float(np.max(np.abs(evals)))
        with pytest.raises(NearSingularGramError) as err:
            gated_cho_factor(G)
        assert abs(err.value.min_eigenvalue - evals[0]) <= 1e-13 * gnorm
        assert abs(err.value.norm - gnorm) <= 1e-13 * gnorm

    @pytest.mark.parametrize("directions", ["constant", "random"])
    def test_well_conditioned_gram_factors(self, directions):
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2, window=[-6, 6], seed=5)
        real = directions == "constant"
        dirs = DirectionAssignment.constant(fam, 1) if real else DirectionAssignment.random(fam, 2, seed=6)
        G = assemble_gram(ExponentialSystem(fam, dirs), IntervalSpec(-3.0, 3.0))
        G = G.real if real else G
        U, lower = gated_cho_factor(G)
        assert not lower
        assert np.max(np.abs(np.triu(U).conj().T @ np.triu(U) - G)) <= 1e-13 * np.max(np.abs(G))


def hermitian_matrix(n, complex_, rng, spectrum=None):
    """Q diag(spectrum) Q^H for a random unitary Q; ``spectrum`` defaults to a random PSD one of random rank."""
    Z = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_ else 0)
    Q, _ = np.linalg.qr(Z)
    if spectrum is None:
        spectrum = np.abs(rng.normal(size=n)) * (rng.random(n) < rng.uniform(0.3, 1.0))
    A = (Q * spectrum) @ Q.conj().T
    return 0.5 * (A + A.conj().T)


class TestExtremeSpectrum:
    """The values-first extreme eigensolve behind the verdicts and behind the Cholesky gate's fallback."""

    @staticmethod
    def check(A):
        evals = np.linalg.eigvalsh(A)
        gnorm = float(np.max(np.abs(evals)))
        vals, V = _extreme_spectrum(np.array(A, order="F"))  # a copy: the reduction runs in its buffer
        assert np.all(np.abs(vals - evals[[0, -1]]) <= 1e-13 * gnorm)
        assert V.shape == (A.shape[0], 2) and V.dtype == A.dtype
        assert np.allclose(np.linalg.norm(V, axis=0), 1.0, rtol=0.0, atol=1e-13)
        assert np.max(np.linalg.norm(A @ V - V * vals, axis=0)) <= 1e-12 * gnorm

    @settings(max_examples=40, deadline=None, derandomize=True)
    @example(n=1, complex_=False, gram=False, seed=0)
    @example(n=1, complex_=True, gram=True, seed=1)
    @example(n=2, complex_=False, gram=True, seed=2)
    @example(n=2, complex_=True, gram=False, seed=3)
    @given(n=st.one_of(st.sampled_from([1, 2]), st.integers(3, 60)), complex_=st.booleans(),
           gram=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_extremes_match_eigvalsh(self, n, complex_, gram, seed):
        rng = np.random.default_rng(seed)
        if gram:  # an exponential Gram: real on a centered interval with one direction, complex otherwise
            fam = ExponentFamily(np.sort(rng.uniform(-3.0 * n, 3.0 * n, n)))
            dirs = DirectionAssignment.random(fam, 2, seed=seed) if complex_ else DirectionAssignment.constant(fam, 1)
            A = assemble_gram(ExponentialSystem(fam, dirs), IntervalSpec(-1.5, 1.5))
            A = A if complex_ else A.real
        else:
            A = hermitian_matrix(n, complex_, rng)
        self.check(A)

    def test_parseval_block(self):
        # 2 pi I up to rounding: bisection on index n of T fails on a top cluster of rounding
        # width (stebz info 2), so the top end is index 1 of -T, where the cluster is at the bottom
        fam = generate_family("lattice", spacing=1.0, window=[-8, 8])
        G = assemble_gram(ExponentialSystem(fam, DirectionAssignment.constant(fam, 1)), IntervalSpec(-math.pi, math.pi))
        self.check(G.real)
        self.check(G)
        self.check(TWO_PI * np.eye(17))

    @pytest.mark.parametrize("complex_", [False, True])
    def test_repeated_extremes(self, complex_):
        rng = np.random.default_rng(7)
        self.check(hermitian_matrix(9, complex_, rng, spectrum=np.array([0.5, 0.5, 0.5, 1, 2, 3, 4, 4, 4.0])))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=st.sampled_from(["bottom-cluster", "top-cluster", "split", "repeated", "small"]),
           complex_=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_tridiagonal_edge_cases(self, case, complex_, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        if case == "bottom-cluster":  # a rounding-width cluster at lambda_min
            k = int(rng.integers(2, n))
            A = hermitian_matrix(n, complex_, rng, spectrum=np.r_[np.full(k, 0.5), rng.uniform(1.0, 2.0, n - k)])
        elif case == "top-cluster":  # and at lambda_max, as in the Parseval block 2 pi I + rounding
            k = int(rng.integers(2, n))
            A = hermitian_matrix(n, complex_, rng, spectrum=np.r_[rng.uniform(0.5, 1.0, n - k), np.full(k, TWO_PI)])
        elif case == "split":  # T splits at the block boundary: lambda_max in the first block, lambda_min in the last
            k = int(rng.integers(1, n))
            high = hermitian_matrix(k, complex_, rng, spectrum=rng.uniform(5.0, 10.0, k))
            low = hermitian_matrix(n - k, complex_, rng, spectrum=rng.uniform(0.1, 1.0, n - k))
            A = np.zeros((n, n), dtype=high.dtype)
            A[:k, :k], A[k:, k:] = high, low
        elif case == "repeated":  # the same block twice: exactly equal extremes in two split blocks
            k = n // 2 + 1
            block = hermitian_matrix(k, complex_, rng, spectrum=rng.uniform(0.1, 3.0, k))
            A = np.kron(np.eye(2), block)
        else:
            n = n % 2 + 1
            A = hermitian_matrix(n, complex_, rng, spectrum=rng.uniform(-1.0, 1.0, n))
        self.check(A)
        evals = np.linalg.eigvalsh(A)
        lo, hi = extreme_eigenvalues(A)  # under the residual contract, which raises on a bad eigenpair
        assert np.all(np.abs(np.array([lo, hi]) - evals[[0, -1]]) <= 1e-13 * np.max(np.abs(evals)))

    @pytest.mark.parametrize("length", [1e-300, 1e-160, 1e200, 1e300])
    def test_lattice_far_from_unit_scale(self, length):
        # the centered Gram of 9 integer exponents: length * ones(9, 9) up to O(length^3) when
        # length is tiny, and length * I + O(1) when it is huge; unscaled, stebz fails at 1e200 and
        # 1e300 (info 4) and the residual contract at 1e-160 (squared entries under the smallest normal)
        fam = generate_family("lattice", spacing=1.0, window=[-4, 4])
        G = assemble_gram(ExponentialSystem(fam, DirectionAssignment.constant(fam, 1)), IntervalSpec.of_length(length))
        lo, hi = extreme_eigenvalues(G)
        if length < 1.0:
            assert hi == pytest.approx(9.0 * length, rel=1e-14)
            assert abs(lo) <= 1e-13 * hi
        else:
            assert lo == pytest.approx(length, rel=1e-14)
            assert hi == pytest.approx(length, rel=1e-14)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_nonzero_lapack_status_raises(self, complex_, value):
        # a non-finite lower triangle leaves T non-finite, and bisection reports it (info 4)
        A = hermitian_matrix(6, complex_, np.random.default_rng(2), spectrum=np.arange(1.0, 7.0))
        A[4, 1] = value
        with pytest.raises(ArithmeticError, match="bisection"):
            _extreme_spectrum(A)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_peak_memory_one_read(self, complex_):
        # the read takes A over: it reduces A, and scales it first when far from unit size, in A's own
        # buffer, so it holds no n x n array; measured at n = 513, reads that copied A peaked at
        # 1.07 x A.nbytes (a far read copied it even when handed over), and two n x n stemr
        # workspaces and a copy of the reflectors made it 3-4 x
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2, window=[-256, 256], seed=3)
        n = len(fam)
        assert n == 513
        dirs = DirectionAssignment.random(fam, 2, seed=0) if complex_ else DirectionAssignment.constant(fam, 1)
        G = assemble_gram(ExponentialSystem(fam, dirs), IntervalSpec(-2.5, 2.5))
        assert G.dtype == (np.complex128 if complex_ else np.float64)
        extreme_eigenvalues(G.copy(order="F"))  # warm caches outside the measurement
        for k in (0, -1000, 1000):
            A = 2.0**k * G
            assert A.flags.f_contiguous
            tracemalloc.start()
            try:
                extreme_eigenvalues(A)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 64 * n * A.itemsize + 2**16  # the blocked reduction's n x 32 workspace and a few vectors


class TestGatedCholesky:
    """The Cholesky-first gate: a shifted factorization passes it, the extreme eigenvalues decide otherwise."""

    @pytest.mark.parametrize("directions", ["constant", "random"])
    def test_well_conditioned_gram_skips_reduction(self, directions, monkeypatch):
        from inghamlab import gram

        def no_reduction(A):
            raise AssertionError("the shifted factorization should have passed the gate")

        monkeypatch.setattr(gram, "_extreme_spectrum", no_reduction)
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2, window=[-6, 6], seed=5)
        real = directions == "constant"
        dirs = DirectionAssignment.constant(fam, 1) if real else DirectionAssignment.random(fam, 2, seed=6)
        G = assemble_gram(ExponentialSystem(fam, dirs), IntervalSpec(-3.0, 3.0))
        G = G.real if real else G
        U, lower = gated_cho_factor(G)
        assert not lower
        assert np.array_equal(U, cho_factor(G, lower=False)[0])

    @pytest.mark.parametrize("complex_", [False, True])
    def test_band_between_norms_takes_fallback(self, complex_, monkeypatch):
        # 1e-10 * ||G||_2 < lambda_min <= 1e-10 * ||G||_F: the shifted factorization breaks
        # down, and the extreme eigenvalues pass the gate
        from inghamlab import gram

        calls, spectrum = [], gram._extreme_spectrum
        monkeypatch.setattr(gram, "_extreme_spectrum", lambda A: calls.append(A) or spectrum(A))
        G = hermitian_matrix(50, complex_, np.random.default_rng(11), spectrum=np.r_[3e-10, np.ones(49)])
        assert 1e-10 * np.linalg.norm(G, 2) < np.linalg.eigvalsh(G)[0] <= 1e-10 * np.linalg.norm(G)
        U, _ = gated_cho_factor(G)
        assert len(calls) == 1
        assert np.array_equal(np.triu(U), np.triu(cho_factor(G, lower=False)[0]))

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("entry", [(3, 3), (1, 4)])
    def test_non_finite_gram_rejected(self, complex_, value, entry):
        # nrm2 makes the shift NaN and potrf reports success on a NaN matrix, so the
        # certificate alone would pass such a Gram; the factorization must refuse it
        G = hermitian_matrix(6, complex_, np.random.default_rng(2), spectrum=np.arange(1.0, 7.0))
        G[entry] = G[entry[::-1]] = value
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):  # inf - inf in the shift
            gated_cho_factor(G)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("entry", [(3, 3), (1, 4)])
    def test_non_finite_gram_rejected_before_the_shift(self, complex_, value, entry, monkeypatch):
        # the entries are checked first: no Inf - Inf on the diagonal, no warning, no
        # reduction, whether or not the BLAS's nrm2 propagates NaN, and no LAPACK call at
        # all, since the first cho_factor skips its own finiteness scan
        from inghamlab import gram

        calls = []
        monkeypatch.setattr(gram, "_extreme_spectrum", lambda A: calls.append(A))
        monkeypatch.setattr(gram, "cho_factor", lambda *args, **kwargs: calls.append("cho_factor"))
        monkeypatch.setattr(gram, "lapack", type("Spy", (), {"__getattr__": lambda _, name: calls.append(name)})())
        G = hermitian_matrix(6, complex_, np.random.default_rng(2), spectrum=np.arange(1.0, 7.0))
        G[entry] = G[entry[::-1]] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                gated_cho_factor(G)
        assert calls == []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 40), complex_=st.booleans(), log_ratio=st.floats(-12.0, -8.0),
           seed=st.integers(0, 2**32 - 1))
    def test_decision_matches_eigvalsh(self, n, complex_, log_ratio, seed):
        ratio = 10.0**log_ratio
        assume(abs(ratio / 1e-10 - 1.0) > 0.01)
        rng = np.random.default_rng(seed)
        G = hermitian_matrix(n, complex_, rng, spectrum=np.r_[ratio, 1.0, rng.uniform(ratio, 1.0, n - 2)])
        evals = np.linalg.eigvalsh(G)
        accept = evals[0] > 1e-10 * np.max(np.abs(evals))
        try:
            U, _ = gated_cho_factor(G)
        except NearSingularGramError:
            assert not accept
        else:
            assert accept
            assert np.array_equal(np.triu(U), np.triu(cho_factor(G, lower=False)[0]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(d=st.integers(1, 3), real=st.booleans(), short=st.booleans(), half=st.integers(1, 40),
           seed=st.integers(0, 999))
    def test_bound_never_exceeds_lambda_min_on_exponential_grams(self, d, real, short, half, seed):
        # float64 Grams (real directions, centered) and complex ones, on lengths below
        # and above 2 pi; measured on 200 seeded draws of these ranges, 173 of which
        # factor: the bound passes tau on 154 and stays at least 8e-14 ||G||_2 below
        # eigvalsh's lambda_min; where the gate passes, its U is cho_factor's
        rng = np.random.default_rng(seed)
        length = rng.uniform(1.0, TWO_PI) if short else rng.uniform(TWO_PI, 12.0)
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2, window=[-half, half], seed=seed)
        Z = rng.normal(size=(len(fam), d)) + (0 if real else 1j * rng.normal(size=(len(fam), d)))
        dirs = DirectionAssignment(d, (Z / np.linalg.norm(Z, axis=1, keepdims=True)).astype(complex))
        G = assemble_gram(ExponentialSystem(fam, dirs), IntervalSpec.of_length(length, -0.5 * length if real else 0.0))
        assert G.dtype == (np.float64 if real else np.complex128)
        try:
            U = cho_factor(G, lower=False)[0]
        except LinAlgError:
            assume(False)
        assert _lambda_min_bound(U, float(np.trace(G).real)) <= np.linalg.eigvalsh(G)[0]
        try:
            gated, _ = gated_cho_factor(G)
        except NearSingularGramError:
            return
        assert np.array_equal(np.triu(gated), np.triu(U))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(2, 80), complex_=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_bound_never_exceeds_lambda_min_on_unitary_conjugates(self, n, complex_, seed):
        # Q diag Q^H with an unstructured Q: here the bound is pessimistic (2.4e-2
        # against lambda_min 0.5 at n = 100, 7.1e-4 at n = 400)
        rng = np.random.default_rng(seed)
        G = hermitian_matrix(n, complex_, rng, spectrum=rng.uniform(0.5, 1.0, n))
        bound = _lambda_min_bound(cho_factor(G, lower=False)[0], float(np.trace(G).real))
        assert bound <= np.linalg.eigvalsh(G)[0]

    def test_overflowing_bound_falls_back_without_a_warning(self):
        # a subcritical window (|I| = 1.99 < 2 pi / 3) that cho_factor still factors: the
        # comparison-matrix substitutions reach about 1e157 each, so their product
        # overflowed with a RuntimeWarning; the bound is now below tau, and the
        # reduction refuses the Gram with its own lambda_min and norm
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2, window=[-750, 750], seed=3)
        dirs = DirectionAssignment.random(fam, 3, seed=3)
        inside = np.flatnonzero(np.abs(fam.exponents) < 340.0)
        window = ExponentialSystem(fam.slice_positions(int(inside[0]), int(inside[-1])),
                                   DirectionAssignment(3, dirs.matrix[inside[0] : inside[-1] + 1]))
        G = assemble_gram(window, IntervalSpec(-0.995, 0.995))
        assert G.shape == (680, 680)
        evals, _ = _extreme_spectrum(np.array(G, order="F"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            U = cho_factor(G, lower=False)[0]
            assert _lambda_min_bound(U, float(np.trace(G).real)) <= NEAR_SINGULAR_RTOL * np.linalg.norm(G)
            with pytest.raises(NearSingularGramError) as caught:
                gated_cho_factor(G)
        assert caught.value.min_eigenvalue == evals[0]
        assert caught.value.norm == np.max(np.abs(evals))

    @staticmethod
    def graded_gram(n, complex_, seed, multiple):
        """Q diag Q^H with a geometric spectrum up to 1 whose lambda_min is ``multiple`` * tau."""
        spectrum = np.geomspace(1e-8, 1.0, n)
        spectrum[0] = multiple * NEAR_SINGULAR_RTOL * np.linalg.norm(spectrum)
        return hermitian_matrix(n, complex_, np.random.default_rng(seed), spectrum=spectrum)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_pessimistic_bound_takes_the_shifted_certificate(self, complex_, monkeypatch):
        # lambda_min = 10 tau, but the bound on a graded unitary conjugate is <= tau:
        # the shifted factorization decides, passes, and U is still cho_factor's
        from inghamlab import gram

        bounds, calls, bound = [], [], gram._lambda_min_bound
        monkeypatch.setattr(gram, "_lambda_min_bound", lambda U, trace: bounds.append(bound(U, trace)) or bounds[-1])
        monkeypatch.setattr(gram, "_extreme_spectrum", lambda A: calls.append(A))
        G = self.graded_gram(50, complex_, 3, 10.0)
        tau = NEAR_SINGULAR_RTOL * np.linalg.norm(G)
        assert np.linalg.eigvalsh(G)[0] == pytest.approx(10 * tau, rel=1e-3)
        U, lower = gated_cho_factor(G)
        assert len(bounds) == 1 and bounds[0] <= tau
        assert calls == []
        assert not lower and np.array_equal(U, cho_factor(G, lower=False)[0])

    @pytest.mark.parametrize("complex_", [False, True])
    def test_below_tau_raises_the_spectral_payload(self, complex_):
        # lambda_min = 0.1 tau < 1e-10 ||G||_2: the factor exists, its bound fails, the
        # shifted factorization breaks down, and the tridiagonal extremes are the payload
        G = self.graded_gram(50, complex_, 4, 0.1)
        cho_factor(G, lower=False)
        evals, _ = _extreme_spectrum(np.array(G, order="F"))
        with pytest.raises(NearSingularGramError) as info:
            gated_cho_factor(G)
        assert info.value.min_eigenvalue == float(evals[0])
        assert info.value.norm == float(np.max(np.abs(evals)))

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("k", [-900, -600, 600, 900])
    def test_far_from_unit_scale_raises_the_scaled_payload(self, complex_, k):
        # 2^k G is refused with exactly 2^k times G's payload: the fallback reads through
        # extreme_eigenvalues, scaled to unit size; unscaled, 2^-600 G and 2^-900 G passed the
        # gate (the real one read 2^k times 3.1e-8 and 0.708 where its extremes are 1.4e-11
        # and 1.0) and 2^600 G failed the bisection (info 4)
        G = self.graded_gram(50, complex_, 4, 0.1)
        with pytest.raises(NearSingularGramError) as unit:
            gated_cho_factor(G)
        with pytest.raises(NearSingularGramError) as far:
            gated_cho_factor(2.0**k * G)
        assert far.value.min_eigenvalue == math.ldexp(unit.value.min_eigenvalue, k)
        assert far.value.norm == math.ldexp(unit.value.norm, k)


class TestProjections:
    def setup_method(self):
        self.I = IntervalSpec(0, TWO_PI)

    def test_grid_onto_itself_identity(self):
        grid = FourierGrid.centered(self.I, 2, y=0.0, radius=4.0)
        coef = grid_inner_matrix(grid, grid, self.I)
        assert np.max(np.abs(coef - np.eye(grid.size))) < 1e-12

    def test_projection_idempotent_on_orthonormal_target(self):
        fam = ExponentFamily(np.array([0.5, 1.25]))
        dirs = DirectionAssignment.constant(fam, 1)
        grid = FourierGrid.centered(self.I, 1, y=0.0, radius=12.0)
        coef = grid_inner_matrix(ExponentialSystem(fam, dirs), grid, self.I)
        again = grid_inner_matrix(grid, grid, self.I) @ coef
        assert np.max(np.abs(again - coef)) < 1e-12

    def test_reconstruction_error_shrinks_with_grid(self):
        fam = ExponentFamily(np.array([0.5]))
        dirs = DirectionAssignment.constant(fam, 1)
        defects = []
        for radius in (4.0, 16.0, 64.0):
            grid = FourierGrid.centered(self.I, 1, y=0.0, radius=radius)
            defects.append(cross_defect_norms(cross_inner_matrix(fam, dirs, grid), self.I)[0])
        assert defects[0] > defects[1] > defects[2]
        assert defects[2] < 0.15

    def test_defect_matches_parseval_tail_oracle(self):
        from oracles import parseval_tail_defect

        fam = ExponentFamily(np.array([0.5]))
        dirs = DirectionAssignment.constant(fam, 1)
        for radius in (6.0, 20.0):
            grid = FourierGrid.centered(self.I, 1, y=0.0, radius=radius)
            defect = cross_defect_norms(cross_inner_matrix(fam, dirs, grid), self.I)[0]
            lower, upper = parseval_tail_defect(0.5, 0.0, radius, self.I.a, self.I.b)
            assert lower - 1e-9 <= defect <= upper + 1e-9

    def test_project_exponentials_onto_general_target(self):
        # projecting a target function onto its own span returns a unit coefficient
        fam = ExponentFamily(np.array([0.0, 1.0]))
        dirs = DirectionAssignment.constant(fam, 1)
        system = ExponentialSystem(fam, dirs)
        gram = assemble_gram(system, self.I)
        coef = cho_solve(gated_cho_factor(gram), inner_matrix(system, system, self.I))
        assert np.max(np.abs(coef - np.eye(2))) < 1e-10

    def test_project_dd_system_onto_grid(self):
        fam = generate_family("clustered-pairs", spacing=2.0, delta=1e-3, window=[0, 4])
        chains = detect_chains(fam, gamma_prime=0.5, M=2)
        system = DividedDifferenceSystem(fam, chains, DirectionAssignment.constant(fam, 1))
        grid = FourierGrid.centered(self.I, 1, y=0.0, radius=8.0)
        coef = grid_inner_matrix(system, grid, self.I)
        assert coef.shape == (grid.size, len(fam))
        # oracle: direct dense-panel quadrature of (f_s, f_alpha)
        L = self.I.length
        max_node = max(float(np.max(np.abs(nodes))) for nodes in node_sets(system))
        rate = max_node + float(np.max(np.abs(grid.frequencies)))
        t, w = dense_panel_rule(self.I.a, self.I.b, rate=rate)
        for s in (1, 3):
            fs = dd_profile(node_sets(system)[s], t)
            for alpha, gamma in enumerate(grid.frequencies):
                oracle = np.sum(w * fs * np.exp(-1j * gamma * t)) / math.sqrt(L)
                assert coef[alpha, s] == pytest.approx(oracle, abs=1e-10)

    def test_normalized_dd_projection_scales(self):
        fam = generate_family("clustered-pairs", spacing=2.0, delta=1e-3, window=[0, 2])
        chains = detect_chains(fam, gamma_prime=0.5, M=2)
        dirs = DirectionAssignment.constant(fam, 1)
        grid = FourierGrid.centered(self.I, 1, y=0.0, radius=5.0)
        raw = grid_inner_matrix(DividedDifferenceSystem(fam, chains, dirs), grid, self.I)
        unit = grid_inner_matrix(DividedDifferenceSystem(fam, chains, dirs, normalize=True), grid, self.I)
        G = assemble_gram(DividedDifferenceSystem(fam, chains, dirs), self.I)
        norms = np.sqrt(np.real(np.diag(G)))
        assert np.allclose(unit, raw / norms[None, :], atol=1e-12)

    def test_eq5_coefficient_bound(self):
        rng = np.random.default_rng(31)
        I = self.I
        for _ in range(200):
            L = float(rng.uniform(0.5, 9.0))
            interval = IntervalSpec(0, L)
            omega = float(rng.uniform(-30, 30))
            n = int(rng.integers(-40, 40))
            gamma = TWO_PI * n / L
            if abs(omega - gamma) < 1e-9:
                continue
            fam = ExponentFamily(np.array([omega]))
            d = int(rng.integers(1, 4))
            dirs = DirectionAssignment.random(fam, d, seed=int(rng.integers(1000)))
            grid = FourierGrid(interval=interval, d=d, n_values=np.array([n]))
            X = cross_inner_matrix(fam, dirs, grid)
            bound = 2.0 / (math.sqrt(L) * abs(omega - gamma))
            assert np.all(np.abs(X) <= bound + 1e-12)


LATTICE_OFFSETS = (0.0, 0.5, -0.5, 1e-12, -1e-12, 1e-9, -1e-9, 1e-4, -1e-4)  # +-0.5: in grid spacings
LATTICE_ULPS = 4.0  # measured: 0.66 on these 200 draws, 1.40 over 13,000 random ones


@st.composite
def lattice_cases(draw):
    """Exponents on, half a spacing from (rint ties) and 1e-12..1e-4 off grid frequencies; a != 0."""
    a = draw(st.one_of(st.just(1e3), st.floats(-20.0, 20.0).filter(lambda v: v != 0.0)))
    length = 8.0 if a == 1e3 else draw(st.floats(0.5, 10.0))
    interval = IntervalSpec(a, a + length)
    s = TWO_PI / length
    offsets = st.sampled_from(LATTICE_OFFSETS).map(lambda o: o * s if abs(o) == 0.5 else o)
    ms = draw(st.lists(st.integers(-800, 800), min_size=1, max_size=5))
    fam = ExponentFamily(np.sort([2.0 * math.pi * m / length + draw(offsets) for m in ms]))
    d = draw(st.integers(1, 3))
    dirs = DirectionAssignment.random(fam, d, seed=draw(st.integers(0, 1000)))
    y = draw(st.sampled_from(list(fam.exponents)))
    grid = FourierGrid.centered(interval, d, y, draw(st.floats(1.0, 8.0)) * s)
    return fam, dirs, grid


class TestLatticeCrossMatrix:
    """The scaled Cauchy factors of grid_cauchy_factors, through the oracle's complex cross matrix
    built from them, against the unblocked kernel oracle and mpmath."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=lattice_cases())
    def test_matches_generic_kernel(self, case):
        fam, dirs, grid = case
        interval = grid.interval
        X = cross_inner_matrix(fam, dirs, grid)
        reference = grid_inner_matrix(ExponentialSystem(fam, dirs), grid, interval).T
        # both forms round the phase of frequencies up to Omega at |t| up to tmax
        omega = max(np.max(np.abs(fam.exponents)), np.max(np.abs(grid.frequencies)))
        tmax = max(abs(interval.a), abs(interval.b))
        scale = 2.0**-52 * (1.0 + omega * tmax) * math.sqrt(interval.length)
        assert np.max(np.abs(X - reference)) <= LATTICE_ULPS * scale

    def test_mpmath_pin_near_grid_frequency(self):
        # 1e-4 above gamma_766 ~ 601.6, whose rounded value is 7.5e-14 off the
        # exact lattice: the naive form (-1)^n sin(w|I|/2) / (w - gamma_n) takes
        # its numerator from the exact lattice and its denominator from the
        # rounded one, and is off by 7.5e-14 / 1e-4
        I = IntervalSpec(0.0, 8.0)
        w = 2.0 * math.pi * 766 / I.length + 1e-4
        fam = ExponentFamily(np.array([w]))
        grid = FourierGrid.centered(I, 1, w, 6.0 * TWO_PI / I.length)
        exact = np.array([grid_coefficient_exact(w, n, I) for n in grid.n_values])
        X = cross_inner_matrix(fam, DirectionAssignment.constant(fam, 1), grid)[0]
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(X - exact)) <= 1e-11 * scale
        gamma, n = grid.frequencies, grid.n_values
        naive = (2.0 * np.exp(1j * (w - gamma) * 4.0) * np.where(n % 2, -1.0, 1.0) * np.sin(w * 4.0)
                 / (w - gamma) / math.sqrt(I.length))
        assert np.max(np.abs(naive - exact)) > 1e-10 * scale

    @pytest.mark.parametrize("length", [TWO_PI, 8.0, 1.3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_grid_exponent_parseval(self, length, d):
        # an exponent on a grid frequency is the grid function itself: one
        # nonzero coefficient per direction (one nonzero C), sum |X|^2 = |I| to rounding
        # (measured: at most 2.6 units of 2^-52 |I|) and a defect at the
        # rounding floor, under defect_decay_fit's zero-defect threshold
        I = IntervalSpec(-0.4, -0.4 + length)
        grid = FourierGrid.centered(I, d, 0.0, 30.0)
        fam = ExponentFamily(grid.frequencies[[3]])
        dirs = DirectionAssignment.random(fam, d, seed=5)
        X = cross_inner_matrix(fam, dirs, grid)
        assert np.count_nonzero(X) == d
        assert abs(np.sum(np.abs(X) ** 2) - length) <= 4 * 2.0**-52 * length
        _, C = grid_cauchy_factors(fam, grid)
        assert np.count_nonzero(C) == 1
        assert projection_defect_norms(C**2, dirs.matrix, I)[0] <= 1e-7 * math.sqrt(length)

    def test_rho_real_on_centered_interval(self):
        # the sign (-1)^m_k comes out of rho's phase exactly, so on an interval
        # centered at 0 rho is +-2/sqrt(|I|) with no imaginary part at all
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                              window=[-40, 40], seed=2)
        for length in (TWO_PI, 8.0, 1.3):
            grid = FourierGrid.centered(IntervalSpec.of_length(length, -0.5 * length), 2, 0.0, 30.0)
            rho, _ = grid_cauchy_factors(fam, grid)
            assert not np.any(rho.imag)
            assert np.all(np.abs(rho.real) == 2.0 / math.sqrt(length))

    def test_peak_memory(self):
        # the factors hold one float n x m array, C, built in place, and no
        # complex n x m one: measured peak 1.12 C (n = 301 exponents, m = 483
        # frequencies); a second float block, or the complex cross matrix
        # (7.2 C), breaks the bound
        fam = generate_family("perturbed-lattice", spacing=1.0, max_perturbation=0.2,
                              window=[-200, 200], seed=4)
        inside = np.flatnonzero(np.abs(fam.exponents) < 150.0)
        sub = fam.slice_positions(int(inside[0]), int(inside[-1]))
        grid = FourierGrid.centered(IntervalSpec(0.0, 8.0), 2, 0.0, 190.0)
        grid_cauchy_factors(sub, grid)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            grid_cauchy_factors(sub, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, m = len(sub), grid.n_values.size
        assert (n, m) == (301, 483)
        assert peak <= 1.25 * 8 * n * m

"""Property tests of the one inner-product kernel over every system kind,
and of the translation invariance the real-symmetric spectral core relies on."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inghamlab import analysis, gram
from inghamlab.basisfuncs import DirectionAssignment
from inghamlab.exponents import ExponentFamily, build_sharpness_partition, detect_chains, generate_family
from inghamlab.gram import (
    EIGEN_RESIDUAL_RTOL,
    DividedDifferenceSystem,
    ExponentialSystem,
    FourierGrid,
    IntervalSpec,
    _extreme_spectrum,
    assemble_gram,
    exp_inner_closed_form,
    extreme_eigenvalues,
)

from oracles import cross_inner_matrix, exp_inner_closed_form_offset, full_kernel_gram, grid_inner_matrix

KINDS = ("exponential", "divided-difference", "grid")
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)

intervals = st.builds(
    lambda a, length: IntervalSpec(a, a + length),
    st.floats(-5.0, 5.0),
    st.floats(0.5, 8.0),
)


@st.composite
def grids(draw, interval, d):
    """Grid windows of 1 to 6 spacings 2 pi/|I|: never empty."""
    y = draw(st.floats(-10.0, 10.0))
    radius = draw(st.floats(1.0, 6.0)) * 2.0 * np.pi / interval.length
    return FourierGrid.centered(interval, d, y, radius)


@st.composite
def systems(draw, kind, interval, d):
    """A small random system of the given kind in C^d."""
    seed = draw(st.integers(0, 10**6))
    if kind == "grid":
        return draw(grids(interval, d))
    if kind == "exponential":
        exps = draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=6))
        fam = ExponentFamily(np.sort(exps))
        return ExponentialSystem(fam, DirectionAssignment.random(fam, d, seed=seed))
    spacing = draw(st.floats(1.5, 3.0))
    delta = draw(st.floats(1e-4, 0.3))
    start = draw(st.floats(-8.0, 8.0))
    fam = generate_family("clustered-pairs", spacing=spacing, delta=delta, window=[start, start + 6.0])
    chains = detect_chains(fam, gamma_prime=0.5, M=2)
    normalize = draw(st.booleans())
    return DividedDifferenceSystem(fam, chains, DirectionAssignment.random(fam, d, seed=seed), normalize=normalize)


@SETTINGS
@given(data=st.data(), kind=st.sampled_from(KINDS), interval=intervals, d=st.integers(1, 3))
def test_gram_is_hermitian_psd(data, kind, interval, d):
    system = data.draw(systems(kind, interval, d))
    G = grid_inner_matrix(system, system, interval) if kind == "grid" else assemble_gram(system, interval)
    scale = float(np.max(np.abs(G)))
    assert np.max(np.abs(G - G.conj().T)) <= 1e-12 * scale
    evals = np.linalg.eigvalsh(G)
    assert evals[0] >= -1e-10 * evals[-1]


@SETTINGS
@given(data=st.data(), kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
       interval=intervals, d=st.integers(1, 3))
def test_swapping_sides_conjugates(data, kinds, interval, d):
    A = data.draw(systems(kinds[0], interval, d))
    B = data.draw(systems(kinds[1], interval, d))
    forward = grid_inner_matrix(A, B, interval)
    backward = grid_inner_matrix(B, A, interval)
    assert forward.shape == backward.T.shape
    assert np.allclose(forward, backward.conj().T, rtol=0.0, atol=1e-12 * max(1.0, np.max(np.abs(forward))))


@SETTINGS
@given(data=st.data(), interval=intervals, d=st.integers(1, 3))
def test_grid_gram_is_identity(data, interval, d):
    grid = data.draw(grids(interval, d))
    G = grid_inner_matrix(grid, grid, interval)
    assert np.max(np.abs(G - np.eye(grid.size))) < 1e-12


def test_mismatched_direction_spaces_named():
    fam = ExponentFamily(np.array([0.5, 1.5]))
    grid = FourierGrid.centered(IntervalSpec(0.0, 2.0), 2, y=0.0, radius=20.0)
    with pytest.raises(ValueError, match=r"different direction spaces: C\^1 and C\^2"):
        cross_inner_matrix(fam, DirectionAssignment.constant(fam, 1), grid)


REAL_RULES = ("constant", "partition", "real")
RULES = (*REAL_RULES, "random")


@st.composite
def exponential_systems(draw, rule, d):
    """An exponential system in C^d; every rule but ``random`` gives real directions."""
    if rule == "partition":
        # sharpness partitions need a periodic family
        spacing = draw(st.floats(0.5, 2.0))
        start = draw(st.floats(-8.0, 8.0))
        fam = generate_family("lattice", spacing=spacing, window=[start, start + spacing * draw(st.integers(3, 11))])
        alpha = draw(st.floats(1.0 / d, 1.0)) / spacing
        return ExponentialSystem(fam, DirectionAssignment.from_partition(build_sharpness_partition(fam, d, alpha)[0], d))
    exps = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8))
    fam = ExponentFamily(np.sort(exps))
    seed = draw(st.integers(0, 10**6))
    if rule == "constant":
        dirs = DirectionAssignment.constant(fam, d, axis=draw(st.integers(0, d - 1)))
    elif rule == "real":
        Z = np.random.default_rng(seed).normal(size=(len(fam), d))
        dirs = DirectionAssignment(d, Z / np.linalg.norm(Z, axis=1, keepdims=True))
    else:
        dirs = DirectionAssignment.random(fam, d, seed=seed)
    return ExponentialSystem(fam, dirs)


def centered(interval):
    return IntervalSpec.of_length(interval.length, -0.5 * interval.length)


@SETTINGS
@given(data=st.data(), rule=st.sampled_from(RULES), interval=intervals, shift=st.floats(-10.0, 10.0),
       d=st.integers(1, 3))
def test_translation_leaves_extreme_eigenvalues(data, rule, interval, shift, d):
    system = data.draw(exponential_systems(rule, d))
    lo, hi = extreme_eigenvalues(assemble_gram(system, interval))
    for moved in (IntervalSpec.of_length(interval.length, interval.a + shift), centered(interval)):
        lo2, hi2 = extreme_eigenvalues(assemble_gram(system, moved))
        assert abs(lo2 - lo) <= 1e-13 * hi
        assert abs(hi2 - hi) <= 1e-13 * hi


@SETTINGS
@given(data=st.data(), rule=st.sampled_from(REAL_RULES), interval=intervals, d=st.integers(1, 3))
def test_centered_gram_with_real_directions_is_real(data, rule, interval, d):
    G = assemble_gram(data.draw(exponential_systems(rule, d)), centered(interval))
    assert not np.any(G.imag)


def recording_spectrum(solves):
    """``gram._extreme_spectrum`` that appends (A, values, V) of every call to ``solves``."""

    def record(A):
        vals, vecs = _extreme_spectrum(A)
        solves.append((A, vals, vecs))
        return vals, vecs

    return record


@SETTINGS
@given(data=st.data(), rule=st.sampled_from(REAL_RULES), interval=intervals, d=st.integers(1, 3))
def test_real_valued_gram_is_solved_in_float64(data, rule, interval, d):
    system = data.draw(exponential_systems(rule, d))
    G = assemble_gram(system, centered(interval))
    assert G.dtype == np.float64
    assert assemble_gram(system, interval).dtype == (np.float64 if interval.a + interval.b == 0 else np.complex128)
    solves = []
    with mock.patch.object(gram, "_extreme_spectrum", recording_spectrum(solves)):
        lo, hi = extreme_eigenvalues(G)
    [(A, vals, vecs)] = solves
    assert A.dtype == np.float64 and vecs.dtype == np.float64
    assert (lo, hi) == (vals[0], vals[-1])
    gnorm = max(abs(vals[0]), abs(vals[-1]))
    complex_G = full_kernel_gram(system, centered(interval))
    for pos in (0, -1):
        # the real eigenpairs are eigenpairs of the complex kernel's Gram itself
        residual = np.linalg.norm(complex_G @ vecs[:, pos] - vals[pos] * vecs[:, pos])
        assert residual <= EIGEN_RESIDUAL_RTOL * gnorm


@pytest.mark.parametrize("normalize", [False, True])
def test_real_valued_complex_dd_gram_is_solved_in_float64(normalize):
    # a DD Gram on a centered interval with real directions is complex with every imaginary
    # part exactly zero, as dd-condition assembles it: extreme_eigenvalues solves its real part
    fam = generate_family("clustered-pairs", spacing=2.0, delta=1e-3, window=[0.0, 8.0])
    dirs = DirectionAssignment.constant(fam, 1)
    G = assemble_gram(DividedDifferenceSystem(fam, detect_chains(fam, 0.5, 2), dirs, normalize=normalize),
                      IntervalSpec(-3.5, 3.5))
    assert G.dtype == np.complex128 and not np.any(G.imag)
    solves = []
    with mock.patch.object(gram, "_extreme_spectrum", recording_spectrum(solves)):
        lo, hi = extreme_eigenvalues(G)
    [(A, vals, vecs)] = solves
    assert A.dtype == np.float64 and vecs.dtype == np.float64
    assert (lo, hi) == (vals[0], vals[-1])
    assert np.allclose([lo, hi], np.linalg.eigvalsh(G)[[0, -1]], rtol=0.0, atol=1e-13 * hi)


def test_complex_gram_stays_complex():
    fam = generate_family("lattice", spacing=1.0, window=[-4, 4])
    G = assemble_gram(ExponentialSystem(fam, DirectionAssignment.random(fam, 2, seed=1)), IntervalSpec(-2.5, 2.5))
    assert np.any(G.imag)
    evals = np.linalg.eigvalsh(G)  # before the read, which reduces G in its own buffer
    solves = []
    with mock.patch.object(gram, "_extreme_spectrum", recording_spectrum(solves)):
        lo, hi = extreme_eigenvalues(G)
    [(A, vals, vecs)] = solves
    assert A.dtype == np.complex128 and vecs.dtype == np.complex128
    assert (lo, hi) == (vals[0], vals[-1])
    assert np.allclose([lo, hi], evals[[0, -1]], rtol=0.0, atol=1e-13 * hi)


def test_corrupted_eigenvector_breaks_residual_contract():
    fam = generate_family("lattice", spacing=1.0, window=[-4, 4])
    interval = IntervalSpec(-2.5, 2.5)
    G = assemble_gram(ExponentialSystem(fam, DirectionAssignment.constant(fam, 1)), interval)

    def swapped_vectors(A):
        vals, vecs = _extreme_spectrum(A)
        return vals, vecs[:, ::-1]

    with (mock.patch.object(gram, "_extreme_spectrum", swapped_vectors),
          pytest.raises(ArithmeticError, match="residual")):
        extreme_eigenvalues(G)


@SETTINGS
@given(thetas=st.lists(st.floats(-1000.0, 1000.0), min_size=1, max_size=20), interval=intervals)
def test_closed_form_matches_offset_form(thetas, interval):
    th = np.array(thetas)
    new = exp_inner_closed_form(th, interval)
    assert new.shape == th.shape
    assert np.max(np.abs(new - exp_inner_closed_form_offset(th, interval))) <= 1e-14 * interval.length
    assert exp_inner_closed_form(thetas[0], interval) == new[0]
    assert not np.any(exp_inner_closed_form(th, centered(interval)).imag)


@st.composite
def positioned_systems(draw, rule, d):
    """A family of 9 to 41 exponents with one direction per position, by the given rule."""
    count = draw(st.integers(4, 20)) * 2 + 1
    spacing = draw(st.floats(0.5, 2.0))
    start = draw(st.floats(-8.0, 8.0))
    window = [start, start + spacing * (count - 1)]
    seed = draw(st.integers(0, 10**6))
    if rule == "partition":  # sharpness partitions need a periodic family
        fam = generate_family("lattice", spacing=spacing, window=window)
        alpha = draw(st.floats(1.0 / d, 1.0)) / spacing
        return fam, DirectionAssignment.from_partition(build_sharpness_partition(fam, d, alpha)[0], d)
    fam = generate_family("perturbed-lattice", spacing=spacing, window=window,
                          max_perturbation=0.2 * spacing, seed=seed)
    if rule == "constant":
        return fam, DirectionAssignment.constant(fam, d, axis=draw(st.integers(0, d - 1)))
    return fam, DirectionAssignment.random(fam, d, seed=seed)


@SETTINGS
@given(data=st.data(), rule=st.sampled_from(("constant", "partition", "random")), interval=intervals,
       d=st.integers(1, 3))
def test_subsystems_keep_positions(data, rule, interval, d):
    """A window or a truncation is the principal submatrix of the full Gram at the same positions."""
    fam, dirs = data.draw(positioned_systems(rule, d))
    n = len(fam)
    full = assemble_gram(ExponentialSystem(fam, dirs), interval)
    y = fam.exponents[data.draw(st.integers(0, n - 1))]
    r = data.draw(st.floats(0.1, 2.0)) * fam.span
    inside = np.flatnonzero(np.abs(fam.exponents - y) < r)
    window = analysis._window(fam, dirs, y, r)
    assert np.array_equal(assemble_gram(window, interval), full[np.ix_(inside, inside)])

    sections = []

    def recording_extremes(G):
        sections.append(G)
        return 1.0, 1.0

    N_grid = sorted(data.draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=4)))
    with mock.patch.object(analysis, "extreme_eigenvalues", recording_extremes):
        analysis.frame_bound_sequence(fam, dirs, interval, N_grid)
    full = assemble_gram(ExponentialSystem(fam, dirs), centered(interval))
    assert len(sections) == len(N_grid)
    # each section handed over as a block of the one Gram, the full F-ordered one last, read in its own buffer
    assert sections[-1].flags.f_contiguous and all(np.shares_memory(section, sections[-1]) for section in sections)
    for N, section in zip(N_grid, sections):
        block = slice(n // 2 - N, n // 2 + N + 1)
        assert np.array_equal(section, full[block, block])

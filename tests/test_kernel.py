"""Property tests of the one inner-product kernel over every system kind."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inghamlab.basisfuncs import DirectionAssignment, DividedDifferenceBasis
from inghamlab.exponents import ExponentFamily, detect_chains, generate_family
from inghamlab.gram import (
    DividedDifferenceSystem,
    ExponentialSystem,
    FourierGrid,
    IntervalSpec,
    assemble_gram,
    cross_inner_matrix,
    inner_matrix,
)

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
    basis = DividedDifferenceBasis.from_chains(fam, detect_chains(fam, gamma_prime=0.5, M=2))
    normalize = draw(st.booleans())
    return DividedDifferenceSystem(basis, DirectionAssignment.random(fam, d, seed=seed), normalize=normalize)


@SETTINGS
@given(data=st.data(), kind=st.sampled_from(KINDS), interval=intervals, d=st.integers(1, 3))
def test_gram_is_hermitian_psd(data, kind, interval, d):
    G = assemble_gram(data.draw(systems(kind, interval, d)), interval).entries
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
    forward = inner_matrix(A, B, interval)
    backward = inner_matrix(B, A, interval)
    assert forward.shape == backward.T.shape
    assert np.allclose(forward, backward.conj().T, rtol=0.0, atol=1e-12 * max(1.0, np.max(np.abs(forward))))


@SETTINGS
@given(data=st.data(), interval=intervals, d=st.integers(1, 3))
def test_grid_gram_is_identity(data, interval, d):
    grid = data.draw(grids(interval, d))
    G = assemble_gram(grid, interval).entries
    assert np.max(np.abs(G - np.eye(grid.size))) < 1e-12


def test_mismatched_direction_spaces_named():
    fam = ExponentFamily(np.array([0.5, 1.5]))
    grid = FourierGrid.centered(IntervalSpec(0.0, 2.0), 2, y=0.0, radius=20.0)
    with pytest.raises(ValueError, match=r"different direction spaces: C\^1 and C\^2"):
        cross_inner_matrix(fam, DirectionAssignment.constant(fam, 1), grid)

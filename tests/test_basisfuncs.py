import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inghamlab.basisfuncs import DirectionAssignment, divided_difference_terms
from inghamlab.exponents import ExponentFamily, detect_chains, generate_family
from inghamlab.gram import DividedDifferenceSystem, ExponentialSystem

from oracles import (
    dd_derivative,
    dd_derivative_bound,
    dd_profile,
    eval_dd_exact,
    eval_dd_hermite_genocchi,
    nodes as node_sets,
    pair_order,
    pair_switches,
)


def vector_exponential(omega, U, t):
    """U exp(i*omega*t), as a system function: a unit direction times a one-node profile."""
    return np.asarray(U, dtype=complex) * dd_profile([omega], t)


def coefficient_sum(family, directions, coeffs, t):
    """sum_k coeffs_k U_k exp(i*w_k*t) from the same one-node profiles."""
    profiles = np.array([dd_profile([w], t) for w in family.exponents])
    return (np.asarray(coeffs, dtype=complex) * profiles) @ directions.matrix


class TestEvalExponential:
    def test_zero_frequency(self):
        out = vector_exponential(0.0, np.array([1.0, 0.0]), 5.0)
        assert np.allclose(out, [1.0, 0.0])

    def test_half_turn(self):
        out = vector_exponential(math.pi, np.array([0.0, 1.0]), 1.0)
        assert np.allclose(out, [0.0, -1.0], atol=1e-15)

    def test_quarter_turn(self):
        out = vector_exponential(1.0, np.array([1.0, 0.0]), math.pi / 2)
        assert np.allclose(out, [1j, 0.0], atol=1e-15)

    def test_unit_norm_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            U = rng.normal(size=3) + 1j * rng.normal(size=3)
            U /= np.linalg.norm(U)
            out = vector_exponential(rng.normal(), U, rng.normal())
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestEvalSum:
    def test_single_term(self):
        fam = ExponentFamily(np.array([0.0]))
        dirs = DirectionAssignment.constant(fam, 2)
        assert np.allclose(coefficient_sum(fam, dirs, [1.0 + 0j], 3.7), [1.0, 0.0])

    def test_cancellation(self):
        fam = ExponentFamily(np.array([-1.0, 1.0]))
        dirs = DirectionAssignment.constant(fam, 2)
        assert np.allclose(coefficient_sum(fam, dirs, [1.0, -1.0], 0.0), [0.0, 0.0])

    def test_sum_of_ones(self):
        fam = generate_family("lattice", spacing=1.0, window=[-2, 2])
        dirs = DirectionAssignment.constant(fam, 2)
        assert np.allclose(coefficient_sum(fam, dirs, np.ones(5), 0.0), [5.0, 0.0])

    def test_index_mismatch_rejected(self):
        # one direction row per position: a matrix for another family length is rejected
        fam = ExponentFamily(np.array([0.0, 1.0]))
        other = ExponentFamily(np.array([0.0, 1.0, 2.0]))
        dirs = DirectionAssignment.constant(other, 1)
        with pytest.raises(ValueError, match="3 rows for 2 functions"):
            ExponentialSystem(fam, dirs)


class TestDividedDifference:
    def test_single_node(self):
        for omega, t in ((0.0, 1.0), (2.0, 0.3), (-1.5, 4.0)):
            assert dd_profile([omega], t) == pytest.approx(np.exp(1j * omega * t))

    def test_confluent_pair(self):
        # two equal nodes: derivative of exp(i w t) in w, so i*t at w=0
        assert dd_profile([0.0, 0.0], 2.0) == pytest.approx(2j)
        assert dd_profile([1.0, 1.0], 0.5) == pytest.approx(0.5j * np.exp(0.5j))

    def test_two_separated_nodes_closed_form(self):
        # (exp(i*pi) - 1) / pi = -2/pi; the simplex-quadrature oracle agrees
        value = dd_profile([0.0, math.pi], 1.0)
        assert value == pytest.approx(-2.0 / math.pi, abs=1e-14)
        oracle = eval_dd_hermite_genocchi([0.0, math.pi], 1.0, quad_order=20)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_unsorted_nodes_rejected(self):
        with pytest.raises(ValueError, match="unsorted"):
            dd_profile([1.0, 0.0], 1.0)

    @pytest.mark.parametrize("nodes", [[math.nan], [0.0, math.nan], [0.0, math.nan, 1.0], [math.nan, math.nan],
                                       [0.0, math.inf], [-math.inf, 0.0, 1.0], [math.inf]])
    def test_non_finite_nodes_rejected(self, nodes):
        # a NaN gap is neither negative nor wide, so the order test alone let it through
        with pytest.raises(ValueError, match="finite"):
            divided_difference_terms(nodes, 10.0)

    def test_recurrence_matches_quadrature_on_separated_sets(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            r = int(rng.integers(2, 6))
            nodes = np.sort(rng.uniform(-2.0, 2.0, size=r))
            while nodes[-1] - nodes[0] < 0.1:
                nodes = np.sort(rng.uniform(-2.0, 2.0, size=r))
            t = float(rng.uniform(0.1, 3.0))
            rec = dd_profile(nodes, t)
            quad = eval_dd_hermite_genocchi(nodes, t)
            assert abs(rec - quad) <= 1e-8

    def test_quadrature_order_contract(self):
        nodes = np.array([-0.7, 0.2, 1.4])
        t = 2.0
        rec = dd_profile(nodes, t)
        assert abs(rec - eval_dd_hermite_genocchi(nodes, t, quad_order=12)) <= 1e-8
        with pytest.raises(ValueError, match="quad_order"):
            eval_dd_hermite_genocchi(nodes, t, quad_order=1)

    def test_symmetry_under_permutation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r = int(rng.integers(2, 6))
            nodes = np.sort(rng.uniform(-1.5, 1.5, size=r))
            t = float(rng.uniform(0.2, 2.5))
            reference = dd_profile(nodes, t)
            shuffled = rng.permutation(nodes)
            assert abs(eval_dd_hermite_genocchi(shuffled, t) - reference) <= 1e-9

    def test_coalescence_continuity(self):
        for t in (0.5, 3.0, 10.0, -10.0):
            merged = dd_profile([0.0, 0.0], t)
            near = dd_profile([0.0, 1e-8], t)
            assert abs(near - merged) <= 1e-6

    def test_near_confluent_pair_value(self):
        # [0, 1e-6] at t=1 equals (exp(i*1e-6) - 1) / 1e-6 = i - 5e-7 + O(1e-12)
        value = dd_profile([0.0, 1e-6], 1.0)
        exact = (np.exp(1j * 1e-6) - 1.0) / 1e-6
        assert value == pytest.approx(exact, abs=1e-10)
        assert abs(value - 1j) < 1e-6

    def test_magnitude_bound(self):
        # |DD| <= |t|^(r-1) / (r-1)! for the unit-modulus integrand
        rng = np.random.default_rng(13)
        for _ in range(30):
            r = int(rng.integers(1, 6))
            nodes = np.sort(rng.uniform(-3, 3, size=r))
            t = float(rng.uniform(-5, 5))
            value = dd_profile(nodes, t)
            assert abs(value) <= abs(t) ** (r - 1) / math.factorial(r - 1) + 1e-12

    def test_array_t(self):
        t = np.linspace(0.0, 5.0, 11)
        vals = dd_profile([0.0, 1.0], t)
        singles = np.array([dd_profile([0.0, 1.0], float(ti)) for ti in t])
        assert np.allclose(vals, singles, atol=1e-15)


class TestSimplexOrder:
    """Clustered terms follow the phase theta = (node spread) * max|t| they must resolve."""

    def test_far_from_zero_pair_value(self):
        # spread 0.05 at |t| = 1000 is a phase of 50: separated, explicit weights
        value = dd_profile([0.0, 0.05], 1000.0)
        exact = (np.exp(50j) - 1.0) / 0.05
        assert abs(value - exact) <= 1e-12 * abs(exact)

    # theta up to 100, chains of up to 8 nodes
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        q=st.integers(1, 7),
        position=st.floats(0.0, 1.0),
        inner=st.lists(st.integers(1, 99), min_size=6, max_size=6, unique=True),
        stretch=st.floats(1.0, 10.0),
    )
    def test_clustered_value_matches_exact(self, q, position, inner, stretch):
        pytest.importorskip("mpmath")
        theta = 10.0 ** (-8.0 + position * 10.0)
        # node spreads below 1e-4 * T; parts with no gap of 1 / T or more take
        # a pair rule or Taylor terms, the others explicit weights
        T = stretch * max(1.0, math.sqrt(2.0 * theta / 1e-4))
        spread = theta / T
        assert spread < 1e-4 * T
        # distinct nodes centered at 0
        offsets = np.array(sorted([0, 100] + inner[: q - 1])) / 100.0 - 0.5
        nodes = spread * offsets
        t = T * np.array([1.0, -1.0, 0.37, 0.01])
        # relative to T^q / q!, which bounds |value| and is the mass the terms sum
        scale = T**q / math.factorial(q)
        assert np.max(np.abs(dd_profile(nodes, t) - eval_dd_exact(nodes, t))) <= 1e-13 * scale

    @pytest.mark.parametrize("r", [6, 8])
    def test_tight_chain_far_from_zero(self, r):
        # r nodes 0.9 / tmax apart near 5, seen on t in [990, 1000]: no wide gap,
        # so one run of Taylor terms about the midpoint c.  The floor is the
        # rounding of the phase c * t, 2^-52 * 5 * 1000 = 1.1e-12 of T^q / q!;
        # measured 3.7e-13 (6 nodes) and 3.4e-13 (8 nodes)
        pytest.importorskip("mpmath")
        T, q = 1000.0, r - 1
        nodes = 5.0 + 0.9 / T * np.arange(r)
        t = np.linspace(990.0, T, 41)
        phases, weights, orders = divided_difference_terms(nodes, T)
        assert np.all(phases == 0.5 * (nodes[0] + nodes[-1])) and orders[0] == q
        scale = T**q / math.factorial(q)
        assert np.max(np.abs(dd_profile(nodes, t) - eval_dd_exact(nodes, t))) <= 1e-12 * scale

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_confluent_chain_value(self, r):
        # r equal nodes: theta = 0, so one rule point (r = 2) or one Taylor term (r > 2)
        t = np.array([0.3, -2.0, 5.0])
        expected = (1j * t) ** (r - 1) / math.factorial(r - 1) * np.exp(0.7j * t)
        assert np.max(np.abs(dd_profile([0.7] * r, t) - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("theta, points", [(0.0, 1), (0.5, 6), (1.0 - 1e-12, 7)])
    def test_pair_rule_points(self, theta, points):
        # a clustered pair has theta < 1, so its rule never needs more than 7 points
        phases, weights, orders = divided_difference_terms([0.0, theta], 1.0)
        assert phases.size == points and orders.tolist() == [1] * points

    @pytest.mark.parametrize("nodes", [[0.0, 1e-4, 0.07], [0.0, 1e-4, 0.0675]])
    def test_mixed_chain_splits_at_separated_gap(self, nodes):
        # the wide gap takes explicit weights and the tiny one (theta = 0.2) a
        # 5-point rule: [x0, x1, x2] = ([x1, x2] - [x0, x1]) / (x2 - x0)
        phases, weights, orders = divided_difference_terms(nodes, 2000.0)
        assert orders.tolist() == [0, 0] + [1] * 5
        assert np.array_equal(phases[:2], nodes[1:])
        pytest.importorskip("mpmath")
        t = np.array([2000.0, -2000.0, 700.0])
        # relative to T^q / q!, as for the clustered values above
        assert np.max(np.abs(dd_profile(nodes, t) - eval_dd_exact(nodes, t))) <= 1e-13 * 2000.0**2 / 2

    @pytest.mark.parametrize("M", [4, 8])
    def test_merged_pair_chain_stays_small(self, M):
        # clustered pairs 2 apart merged into one chain on |t| <= 2 pi: every
        # part across a wide gap takes explicit weights, so only the pairs
        # carry clustered terms, a 3-point rule each (one rule over the chain
        # would need order^(M-1) points)
        T = 2.0 * math.pi
        nodes = np.repeat(2.0 * np.arange(M // 2), 2) + np.tile([0.0, 1e-3], M // 2)
        phases, weights, orders = divided_difference_terms(nodes, T)
        assert phases.size <= 3 * M and set(orders.tolist()) == {0, 1}
        pytest.importorskip("mpmath")
        t = T * np.array([1.0, -1.0, 0.37, 0.01])
        scale = T ** (M - 1) / math.factorial(M - 1)
        assert np.max(np.abs(dd_profile(nodes, t) - eval_dd_exact(nodes, t))) <= 1e-13 * scale

    def test_separated_nodes_take_explicit_weights(self):
        # every gap times tmax at least 1: the nodes themselves at order 0
        phases, weights, orders = divided_difference_terms([0.0, 0.5, 2.0], 2.0)
        assert orders.tolist() == [0, 0, 0]
        assert np.array_equal(phases, [0.0, 0.5, 2.0])
        assert np.allclose(weights, [1.0, -1 / 0.75, 1 / 3.0], rtol=1e-15)
        # no gap of tmax times at least 1: Taylor terms at the midpoint, orders q, q+1, ...
        phases, weights, orders = divided_difference_terms([0.0, 0.4, 0.8], 2.0)
        assert phases.size > 3 and np.all(phases == 0.4)
        assert np.array_equal(orders, 2 + np.arange(orders.size))
        # one gap of each kind: [0.4, 2] by explicit weights, [0, 0.4] by a pair rule at order 1
        phases, weights, orders = divided_difference_terms([0.0, 0.4, 2.0], 2.0)
        assert np.array_equal(phases[:2], [0.4, 2.0]) and orders[:2].tolist() == [0, 0]
        assert phases.size > 3 and set(orders[2:].tolist()) == {1} and np.all(phases[2:] < 0.4)
        phases, weights, orders = divided_difference_terms([3.0], 1e9)
        assert (phases.tolist(), weights.tolist(), orders.tolist()) == ([3.0], [1.0], [0])


class TestPairOrder:
    """The Gauss-Legendre point count of a clustered pair against the scalar loop it replaced."""

    def test_scalar_reference_on_a_dense_grid(self):
        from inghamlab.basisfuncs import _pair_order

        theta = np.linspace(0.0, 1.0, 20001)[:-1]
        assert _pair_order(theta).tolist() == [pair_order(v) for v in theta.tolist()]
        assert _pair_order(np.zeros(3)).tolist() == [1, 1, 1] and pair_order(0.0) == 1

    def test_scalar_reference_at_every_switch_point(self):
        from inghamlab.basisfuncs import _pair_order

        switches = pair_switches()
        assert [pair_order(s) for s in switches] == [2, 3, 4, 5, 6, 7]
        theta = np.array([np.nextafter(s, to) for s in switches for to in (0.0, s, 1.0)])
        assert _pair_order(theta).tolist() == [pair_order(v) for v in theta.tolist()]
        assert _pair_order(theta).tolist() == [n + k for n in range(1, 7) for k in (0, 1, 1)]
        assert pair_order(np.nextafter(1.0, 0.0)) == 7  # a clustered pair never needs more


class TestDerivative:
    def test_constant_profile(self):
        assert abs(dd_derivative([0.0], 0.0)) < 1e-12

    def test_single_unit_node(self):
        assert dd_derivative([1.0], 0.0) == pytest.approx(1j, abs=1e-8)

    def test_confluent_pair_slope(self):
        assert dd_derivative([0.0, 0.0], 0.0) == pytest.approx(1j, abs=1e-6)

    def test_bound_examples(self):
        assert dd_derivative_bound([0.0], 5.0) == 0.0
        assert dd_derivative_bound([0.0, 1.0], 2.0) == pytest.approx(3.0)
        gp = 0.3
        assert dd_derivative_bound([0.0, gp], 1.0) == pytest.approx(1.0 + gp)

    def test_bound_dominates_derivative_on_chain_nodes(self):
        # chain-relative convention: nodes shifted so the anchor is 0
        fam = generate_family("clustered-pairs", spacing=1.0, delta=1e-3, window=[0, 4])
        chains = detect_chains(fam, gamma_prime=0.5, M=2)
        system = DividedDifferenceSystem(fam, chains, DirectionAssignment.constant(fam, 1))
        h = 1e-5
        for nodes in node_sets(system):
            anchor = nodes[-1]
            shifted = nodes - anchor
            for t in (0.5, 1.0, 2.0, 5.0, 10.0):
                deriv = dd_derivative(shifted, t, h=h * max(1.0, t))
                bound = dd_derivative_bound(shifted, t)
                assert abs(deriv) <= bound + 10.0 * h * max(1.0, t)

    def test_bound_dominates_on_random_clusters(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            r = int(rng.integers(2, 5))
            nodes = np.sort(rng.uniform(-0.4, 0.0, size=r))
            nodes[-1] = 0.0
            for t in (0.2, 1.0, 4.0):
                h = 1e-5 * max(1.0, t)
                deriv = dd_derivative(nodes, t, h=h)
                assert abs(deriv) <= dd_derivative_bound(nodes, t) + 10.0 * h


class TestDividedDifferenceBasis:
    """The node sets of a divided-difference system: one chain prefix per position."""

    def test_descriptors_follow_chain_prefixes(self):
        fam = generate_family("clustered-pairs", spacing=1.0, delta=1e-3, window=[0, 2])
        chains = detect_chains(fam, gamma_prime=0.5, M=2)
        nodes = node_sets(DividedDifferenceSystem(fam, chains, DirectionAssignment.constant(fam, 1)))
        assert len(nodes) == len(fam)
        for position, node_set in enumerate(nodes):
            first = next(first for first, last in chains if first <= position <= last)
            assert node_set.size == position - first + 1
            assert np.allclose(node_set, fam.exponents[first : position + 1])

    def test_singleton_chain_is_plain_exponential(self):
        fam = generate_family("lattice", spacing=1.0, window=[0, 3])
        chains = detect_chains(fam, gamma_prime=0.5, M=1)
        nodes = node_sets(DividedDifferenceSystem(fam, chains, DirectionAssignment.constant(fam, 1)))
        t = 1.3
        for position, node_set in enumerate(nodes):
            assert dd_profile(node_set, t) == pytest.approx(
                np.exp(1j * fam.exponents[position] * t)
            )


class TestDirectionAssignment:
    def test_constant_and_subset(self):
        fam = generate_family("lattice", spacing=1.0, window=[0, 4])
        dirs = DirectionAssignment.constant(fam, 3, axis=1)
        assert np.allclose(dirs.matrix[2], [0, 1, 0])
        # a subfamily's directions are the same rows of the matrix
        sub = ExponentialSystem(fam.slice_positions(1, 3), DirectionAssignment(3, dirs.matrix[1:4]))
        assert np.array_equal(sub.directions.matrix, dirs.matrix[1:4])

    def test_random_unit_rows_deterministic(self):
        fam = generate_family("lattice", spacing=1.0, window=[0, 9])
        a = DirectionAssignment.random(fam, 2, seed=5)
        b = DirectionAssignment.random(fam, 2, seed=5)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.allclose(np.linalg.norm(a.matrix, axis=1), 1.0, atol=1e-12)

    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValueError, match="unit norm"):
            DirectionAssignment(d=1, matrix=np.array([[1.0], [2.0]]))

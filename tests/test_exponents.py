import numpy as np
import pytest

from inghamlab.exponents import (
    ExponentFamily,
    build_sharpness_partition,
    counting_function,
    detect_chains,
    estimate_density,
    generate_family,
)

from oracles import brute_count


def integers(lo=-8, hi=8):
    return generate_family("lattice", spacing=1.0, window=[lo, hi])


class TestDetectChains:
    def test_integers_all_singletons(self):
        dec = detect_chains(integers(), gamma_prime=0.5, M=1)
        assert all(first == last for first, last in dec)
        assert len(dec) == 17

    def test_clustered_pairs(self):
        fam = generate_family("clustered-pairs", spacing=1.0, delta=1e-3, window=[0, 1])
        dec = detect_chains(fam, gamma_prime=0.5, M=2)
        assert dec == [(0, 1), (2, 3)]

    def test_leading_triple(self):
        fam = ExponentFamily(np.array([0.0, 0.1, 0.2, 1.0]))
        dec = detect_chains(fam, gamma_prime=0.5, M=3)
        assert dec == [(0, 2), (3, 3)]

    def test_chain_exceeding_M_rejected(self):
        fam = ExponentFamily(np.array([0.0, 0.1, 0.2, 1.0]))
        with pytest.raises(ValueError, match=r"weak gap violated: chain of length 3 > M=2 at indices 0\.\.2$"):
            detect_chains(fam, gamma_prime=0.5, M=2)

    def test_concatenation_reproduces_window(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = np.sort(rng.uniform(0, 20, size=15))
            fam = ExponentFamily(x)
            dec = detect_chains(fam, gamma_prime=0.3, M=15)
            covered = np.concatenate([np.arange(first, last + 1) for first, last in dec])
            assert np.array_equal(covered, np.arange(len(fam)))


class TestCountingFunction:
    def test_integers_examples(self):
        assert counting_function(integers(), 2.5) == 3
        assert counting_function(integers(), 2.0) == 3  # closed window
        evens = generate_family("lattice", spacing=2.0, window=[-8, 8])
        assert counting_function(evens, 5.0) == 3

    def test_against_brute_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = np.sort(rng.uniform(0, 30, size=20))
            fam = ExponentFamily(x)
            r = float(rng.uniform(0.5, 15))
            assert counting_function(fam, r) == brute_count(x, r)

    def test_monotone_and_subadditive(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0, 40, size=30))
        fam = ExponentFamily(x)
        grid = np.linspace(0.5, 20, 40)
        counts = [counting_function(fam, r) for r in grid]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        for r in (0.7, 2.3, 5.1):
            for s in (0.9, 3.3, 8.2):
                assert counting_function(fam, r + s) <= (
                    counting_function(fam, r) + counting_function(fam, s) + 1
                )


class TestEstimateDensity:
    def test_integer_lattice_density_one(self):
        fam = integers(-64, 64)
        _, est = estimate_density(fam, np.arange(1.0, 65.0))
        assert est["dplus_estimate"] == pytest.approx(1.0, abs=0.05)

    def test_even_lattice_density_half(self):
        fam = generate_family("lattice", spacing=2.0, window=[-64, 64])
        _, est = estimate_density(fam, np.arange(1.0, 65.0))
        assert est["dplus_estimate"] == pytest.approx(0.5, abs=0.05)

    def test_three_quarter_periodic_pattern(self):
        vals = [4 * p + q for p in range(-24, 25) for q in (0, 1, 2)]
        fam = generate_family("explicit", exponents=vals)
        _, est = estimate_density(fam, np.arange(1.0, 49.0))
        assert est["dplus_estimate"] == pytest.approx(0.75, abs=0.05)

    def test_counts_nondecreasing_and_positive_slope(self):
        fam = integers(-64, 64)
        rows, est = estimate_density(fam, np.arange(2.0, 50.0, 1.5))
        counts = np.array([row["count"] for row in rows])
        radii = np.array([row["r"] for row in rows])
        assert np.all(np.diff(counts) >= 0)
        assert est["dplus_estimate"] >= 0
        lo, hi = est["fit_window"]
        ratios = counts[lo:hi] / radii[lo:hi]
        assert np.all(ratios >= est["dplus_estimate"] - 0.05)

    def test_scale_invariance(self):
        fam = integers(-64, 64)
        c = 2.5
        scaled = ExponentFamily(fam.exponents * c)
        _, base = estimate_density(fam, np.arange(1.0, 65.0))
        _, resc = estimate_density(scaled, np.arange(1.0, 65.0) * c)
        assert resc["dplus_estimate"] == pytest.approx(base["dplus_estimate"] / c, abs=0.05 / c)

    def test_too_few_fit_points(self):
        with pytest.raises(ValueError, match="3 grid points"):
            estimate_density(integers(), np.array([1.0, 2.0, 3.0]))

    def test_r_beyond_span_rejected(self):
        with pytest.raises(ValueError, match="span"):
            estimate_density(integers(), np.linspace(1.0, 100.0, 12))


class TestSharpnessPartition:
    def test_even_odd_split(self):
        fam = integers(-64, 64)
        class_of, _ = build_sharpness_partition(fam, d=2, alpha=0.5)
        classes = {j: np.flatnonzero(class_of == j) for j in (1, 2)}
        values1 = sorted(fam.exponents[classes[1]])
        assert all(v % 2 == 0 for v in values1)
        for j in (1, 2):
            sub = fam.subfamily(classes[j])
            _, est = estimate_density(sub, np.arange(2.0, float(int(sub.span)), 2.0))
            assert est["dplus_estimate"] == pytest.approx(0.5, abs=0.05)

    def test_alpha_one_single_class(self):
        fam = integers(-16, 16)
        class_of, _ = build_sharpness_partition(fam, d=2, alpha=1.0)
        assert np.count_nonzero(class_of == 1) == len(fam)
        assert not np.any(class_of == 2)

    def test_three_quarters_period_four(self):
        fam = integers(-32, 32)
        class_of, period_exponent_count = build_sharpness_partition(fam, d=2, alpha=0.75, period_count=4)
        assert period_exponent_count == 4
        positions = np.flatnonzero(class_of == 1)
        first = fam.subfamily(positions)
        offsets = sorted({int(i) % 4 for i in positions})
        assert offsets == [0, 1, 2]
        _, est = estimate_density(first, np.arange(2.0, 40.0))
        assert est["dplus_estimate"] == pytest.approx(0.75, abs=0.05)

    def test_classes_cover_and_bounded_by_alpha(self):
        fam = integers(-40, 40)
        for alpha, d in ((0.6, 2), (0.5, 3), (0.4, 3)):
            class_of, _ = build_sharpness_partition(fam, d=d, alpha=alpha)
            covered = sorted(i for j in range(1, d + 1) for i in np.flatnonzero(class_of == j))
            assert covered == list(range(len(fam)))
            for j in range(1, d + 1):
                positions = np.flatnonzero(class_of == j)
                if positions.size < 8:
                    continue
                sub = fam.subfamily(positions)
                grid = np.arange(2.0, max(4.0, sub.span * 0.9), 2.0)
                _, est = estimate_density(sub, grid)
                assert est["dplus_estimate"] <= alpha + 0.05

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="alpha"):
            build_sharpness_partition(integers(), d=2, alpha=0.2)

    def test_non_periodic_family_rejected(self):
        rng = np.random.default_rng(9)
        fam = ExponentFamily(np.sort(rng.uniform(0, 20, size=24)))
        with pytest.raises(ValueError, match="periodic"):
            build_sharpness_partition(fam, d=2, alpha=0.5)


class TestGenerateFamily:
    def test_lattice(self):
        fam = generate_family("lattice", spacing=1.0, window=[-8, 8])
        assert np.array_equal(fam.exponents, np.arange(-8.0, 9.0))

    def test_clustered_pairs(self):
        fam = generate_family("clustered-pairs", spacing=1.0, delta=1e-3, window=[0, 4])
        expected = sorted([k for k in range(5)] + [k + 1e-3 for k in range(5)])
        assert np.allclose(fam.exponents, expected)

    def test_perturbed_lattice_gaps(self):
        fam = generate_family(
            "perturbed-lattice", spacing=1.0, max_perturbation=0.2, window=[-32, 32], seed=7
        )
        assert np.all(np.diff(fam.exponents) >= 0.6 - 1e-12)
        again = generate_family(
            "perturbed-lattice", spacing=1.0, max_perturbation=0.2, window=[-32, 32], seed=7
        )
        assert np.array_equal(fam.exponents, again.exponents)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown family kind"):
            generate_family("fractal", window=[0, 1])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            generate_family("lattice", spacing=-1.0, window=[0, 4])
        with pytest.raises(ValueError):
            generate_family("clustered-pairs", spacing=1.0, delta=2.0, window=[0, 4])


class TestFamilyInvariants:
    def test_sorted_required(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            ExponentFamily(np.array([1.0, 0.0]))

    def test_nonempty_required(self):
        with pytest.raises(ValueError):
            ExponentFamily(np.array([]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_finite_required(self, value):
        # sorted, so only finiteness fails: a NaN passes the order test
        with pytest.raises(ValueError, match="finite"):
            ExponentFamily(np.sort([0.0, value, 1.0]))

    def test_finite_span_required(self):
        # every entry is finite, but the span and so a divided difference's divisor would overflow
        with pytest.raises(ValueError, match="span must be finite"):
            ExponentFamily(np.array([-1e308, 0.0, 1e308]))
        assert ExponentFamily(np.array([-8e307, 8e307])).span == 1.6e308

    def test_slice_preserves_index_labels(self):
        # position 0 of the slice is position 3 of the family
        fam = integers(-8, 8)
        sub = fam.slice_positions(3, 7)
        assert np.array_equal(sub.exponents, fam.exponents[3:8])
        assert sub.exponents[0] == fam.exponents[3]

    def test_subfamily_rejects_positions_outside_window(self):
        fam = integers(0, 4)
        assert np.array_equal(fam.subfamily([4, 0]).exponents, [0.0, 4.0])
        for outside in ([-1], [2, 5]):
            with pytest.raises(IndexError, match="outside window"):
                fam.subfamily(outside)

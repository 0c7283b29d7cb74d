"""Identity and oracle tests for the Bregman geometries.

The defining formula phi(x) - phi(y) - <grad phi(y), x - y> serves as the
independent oracle for every closed-form divergence, and brute-force grid
minimization checks both expectation minimizers.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from w2slab.bregman import (
    BregmanGeometry,
    DomainError,
    NegativeEntropy,
    SampleSet,
    SquaredNorm,
    clamp_simplex,
    mean_minimizer,
    stack_samples,
)

RNG = np.random.default_rng(20240811)


class Mahalanobis(BregmanGeometry):
    """phi(x) = x^T M x for a symmetric positive-definite M.  No command runs
    it; it checks the base class's generic paths on a quadratic generator
    whose dual map is not a multiple of the identity."""

    kind = "mahalanobis"

    def __init__(self, matrix) -> None:
        self.matrix = np.asarray(matrix, dtype=float)
        super().__init__(len(self.matrix))

    def potential(self, x):
        x = np.asarray(x, dtype=float)
        return np.einsum("...i,ij,...j->...", x, self.matrix, x)

    def grad(self, x):
        return 2.0 * np.asarray(x, dtype=float) @ self.matrix

    def contains(self, x, interior=False):
        return True

    def _divergence(self, x, y):
        return self.potential(x - y)

    def from_dual(self, s):
        return np.asarray(s, dtype=float) @ np.linalg.inv(self.matrix) / 2.0


def geometries():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 3))
    spd = A @ A.T + 3.0 * np.eye(3)
    return [SquaredNorm(3), Mahalanobis(spd), NegativeEntropy(3)]


def random_points(geometry, n, rng):
    if geometry.kind == "negative-entropy":
        return clamp_simplex(rng.dirichlet(np.ones(geometry.dimension), size=n))
    return rng.uniform(-2.0, 2.0, size=(n, geometry.dimension))


def generic_divergence(geometry, x, y):
    """The defining formula, evaluated from the generator directly."""
    return (
        geometry.potential(x)
        - geometry.potential(y)
        - np.sum(geometry.grad(y) * (x - y), axis=-1)
    )


class TestDivergence:
    def test_squared_norm_example(self):
        g = SquaredNorm(2)
        assert g.divergence([1.0, 2.0], [0.0, 0.0]) == pytest.approx(5.0)

    def test_one_hot_vs_uniform_is_log2(self):
        g = NegativeEntropy(2)
        x = clamp_simplex([1.0, 0.0])
        assert g.divergence(x, [0.5, 0.5]) == pytest.approx(np.log(2), abs=1e-10)

    @pytest.mark.parametrize("g", geometries(), ids=lambda g: g.kind)
    def test_zero_iff_equal(self, g):
        pts = random_points(g, 100, np.random.default_rng(1))
        np.testing.assert_allclose(g.divergence(pts, pts), 0.0, atol=1e-12)

    @pytest.mark.parametrize("g", geometries(), ids=lambda g: g.kind)
    def test_nonnegative_and_positive_when_distinct(self, g):
        rng = np.random.default_rng(2)
        x = random_points(g, 10_000, rng)
        y = random_points(g, 10_000, rng)
        d = g.divergence(x, y)
        assert np.all(d >= 0.0)
        distinct = np.max(np.abs(x - y), axis=-1) > 1e-6
        assert np.all(d[distinct] > 0.0)

    def test_kl_nonnegative_one_ulp_apart(self):
        # y sums to 1 in floats but to 1 + 2**-54 exactly; the plain sum of
        # relative entropies is -5.55e-17 here
        g = NegativeEntropy(2)
        y = np.array([0.5000000000000001, 0.49999999999999994])
        assert g.divergence([0.5, 0.5], y) >= 0.0
        assert g.divergence(np.array([[0.5, 0.5]] * 3), y).min() >= 0.0

    @pytest.mark.parametrize("g", geometries(), ids=lambda g: g.kind)
    def test_matches_generator_formula(self, g):
        rng = np.random.default_rng(3)
        x = random_points(g, 500, rng)
        y = random_points(g, 500, rng)
        np.testing.assert_allclose(
            g.divergence(x, y), generic_divergence(g, x, y), rtol=1e-9, atol=1e-10
        )

    def test_rejects_boundary_second_argument(self):
        g = NegativeEntropy(2)
        with pytest.raises(DomainError):
            g.divergence([0.5, 0.5], [1.0, 0.0])

    def test_rejects_non_simplex_point(self):
        g = NegativeEntropy(2)
        with pytest.raises(DomainError):
            g.divergence([0.9, 0.3], [0.5, 0.5])


class TestScipyOracle:
    """The numpy KL kernel against ``scipy.special``'s ``xlogy`` and
    ``rel_entr``; the gap is in the last bits of ``log``."""

    TOL = dict(atol=1e-15, rtol=1e-15)

    @staticmethod
    def quiet(f, *args):
        # a RuntimeWarning is a failure even where the value is right
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return f(*args)

    def check(self, x, y):
        from scipy import special
        g = NegativeEntropy(x.shape[-1])
        np.testing.assert_allclose(self.quiet(g.potential, x),
                                   np.sum(special.xlogy(x, x), axis=-1), **self.TOL)
        oracle = np.maximum(np.sum(special.rel_entr(x, y), axis=-1), 0.0)
        np.testing.assert_allclose(self.quiet(g._divergence, x, y), oracle, **self.TOL)

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_random_simplex_pairs(self, k):
        rng = np.random.default_rng(k)
        x, y = rng.dirichlet(np.ones(k), size=(2, 1000))
        self.check(x, y)

    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_near_equal_pairs(self, k):
        rng = np.random.default_rng(10 + k)
        x = rng.dirichlet(np.ones(k), size=1000)
        y = x * (1.0 + 1e-6 * rng.standard_normal(x.shape))
        self.check(x, y / y.sum(axis=-1, keepdims=True))

    def test_first_argument_with_exact_zeros(self):
        rng = np.random.default_rng(5)
        x = rng.dirichlet(np.ones(4), size=200)
        x[::3, 1] = 0.0
        x[::5, 2:] = 0.0
        x /= x.sum(axis=-1, keepdims=True)
        self.check(x, rng.dirichlet(np.ones(4), size=200))

    def test_one_hot_against_tiny_coordinate(self):
        x = np.array([1.0, 0.0, 0.0])
        y = clamp_simplex([0.0, 0.5, 0.5])
        assert y[0] == 1e-12
        self.check(x, y)
        g = NegativeEntropy(3)
        assert self.quiet(g._divergence, x, y) == pytest.approx(27.631021115928547, rel=1e-15)

    def test_potential_special_values(self):
        from scipy import special
        x = np.array([[0.0], [-0.0], [-0.5], [np.nan], [1.0]])
        phi = self.quiet(NegativeEntropy(1).potential, x)
        np.testing.assert_array_equal(phi, [0.0, 0.0, np.nan, np.nan, 0.0])
        np.testing.assert_array_equal(phi, special.xlogy(x, x)[:, 0])

    def test_empty_batch(self):
        g = NegativeEntropy(3)
        assert self.quiet(g.potential, np.empty((0, 3))).shape == (0,)
        assert self.quiet(g._divergence, np.empty((0, 3)), np.full(3, 1 / 3)).shape == (0,)


class TestDualMaps:
    def test_squared_norm_dual(self):
        np.testing.assert_allclose(SquaredNorm(2).to_dual([1.0, 2.0]), [2.0, 4.0])

    def test_mahalanobis_dual(self):
        g = Mahalanobis(np.diag([2.0, 3.0]))
        np.testing.assert_allclose(g.to_dual([1.0, 1.0]), [4.0, 6.0])

    def test_negative_entropy_round_trip_example(self):
        g = NegativeEntropy(2)
        x = np.array([0.3, 0.7])
        np.testing.assert_allclose(g.from_dual(g.to_dual(x)), x, rtol=1e-10)

    @pytest.mark.parametrize("g", geometries(), ids=lambda g: g.kind)
    def test_round_trip_relative_error(self, g):
        pts = random_points(g, 1000, np.random.default_rng(4))
        back = g.from_dual(g.to_dual(pts))
        np.testing.assert_allclose(back, pts, rtol=1e-10, atol=1e-13)


class TestStrictConvexity:
    @pytest.mark.parametrize("g", geometries(), ids=lambda g: g.kind)
    def test_midpoint_strictly_below_chord(self, g):
        rng = np.random.default_rng(5)
        x = random_points(g, 500, rng)
        y = random_points(g, 500, rng)
        distinct = np.max(np.abs(x - y), axis=-1) > 1e-3
        x, y = x[distinct], y[distinct]
        mid = g.potential((x + y) / 2.0)
        chord = (g.potential(x) + g.potential(y)) / 2.0
        assert np.all(chord - mid > 1e-10)


class TestLawOfCosines:
    @pytest.mark.parametrize("g", geometries(), ids=lambda g: g.kind)
    def test_residual_vanishes_on_random_triples(self, g):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(1000):
            x, y, z = random_points(g, 3, rng)
            worst = max(worst, abs(g.law_of_cosines_residual(x, y, z)))
        assert worst <= 1e-9

    @pytest.mark.parametrize("g", geometries(), ids=lambda g: g.kind)
    def test_degenerate_triple(self, g):
        rng = np.random.default_rng(7)
        x, y = random_points(g, 2, rng)
        assert g.law_of_cosines_residual(x, y, y) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("g", geometries(), ids=lambda g: g.kind)
    def test_stacked_triples_equal_per_triple_loop(self, g):
        rng = np.random.default_rng(8)
        abc = random_points(g, 3 * 200, rng).reshape(200, 3, g.dimension)
        stacked = g.law_of_cosines_residual(abc[:, 0], abc[:, 1], abc[:, 2])
        looped = [g.law_of_cosines_residual(x, y, z) for x, y, z in abc]
        assert all(isinstance(r, float) for r in looped)
        np.testing.assert_array_equal(stacked, looped)

    def test_explicit_kl_triple(self):
        # evaluate both sides with the explicit KL and log-ratio formulas
        g = NegativeEntropy(2)
        x, y, z = np.array([0.2, 0.8]), np.array([0.5, 0.5]), np.array([0.7, 0.3])

        def kl(a, b):
            return float(np.sum(a * np.log(a / b)))

        direct = kl(x, z) - kl(x, y) - kl(y, z) + float(
            np.sum((np.log(z) - np.log(y)) * (x - y))
        )
        assert abs(direct) <= 1e-10
        assert g.law_of_cosines_residual(x, y, z) == pytest.approx(direct, abs=1e-12)


class TestSampleSet:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SampleSet(np.zeros((2, 2)), np.array([0.6, 0.5]))

    def test_nan_weights_rejected(self):
        # abs(nan - 1) > tol is False, so the sum check must be written to fail on NaN
        with pytest.raises(ValueError, match="sum"):
            SampleSet(np.zeros((2, 2)), np.array([np.nan, 0.5]))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            SampleSet(np.zeros((2, 2)), np.array([1.5, -0.5]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SampleSet(np.zeros((0, 2)))


class TestMinimizers:
    def test_self_dual_means_coincide(self):
        g = SquaredNorm(2)
        s = SampleSet(np.array([[0.0, 0.0], [2.0, 2.0]]))
        np.testing.assert_allclose(mean_minimizer(s), [1.0, 1.0])
        np.testing.assert_allclose(g.dual_mean(s), [1.0, 1.0])

    def test_dual_mean_is_normalized_geometric_mean(self):
        g = NegativeEntropy(2)
        s = SampleSet(np.array([[0.8, 0.2], [0.2, 0.8]]))
        np.testing.assert_allclose(g.dual_mean(s), [0.5, 0.5], atol=1e-12)
        # per-coordinate geometric mean is (0.4, 0.4); normalization splits evenly
        geo = np.sqrt(0.8 * 0.2)
        np.testing.assert_allclose(g.dual_mean(s), [geo / (2 * geo)] * 2)

    @pytest.mark.parametrize("g", geometries(), ids=lambda g: g.kind)
    def test_single_point_degenerate(self, g):
        p = random_points(g, 1, np.random.default_rng(8))[0]
        s = SampleSet([p])
        np.testing.assert_allclose(mean_minimizer(s), p)
        np.testing.assert_allclose(g.dual_mean(s), p, rtol=1e-10, atol=1e-12)

    def test_grid_oracle_simplex(self):
        """Brute-force argmin over a binary-simplex grid of step 1e-3."""
        g = NegativeEntropy(2)
        rng = np.random.default_rng(9)
        pts = clamp_simplex(rng.dirichlet(np.ones(2), size=4))
        w = rng.dirichlet(np.ones(4))
        s = SampleSet(pts, w)
        step = 1e-3
        grid1 = np.arange(step, 1.0, step)
        grid = np.stack([grid1, 1.0 - grid1], axis=-1)

        fwd = np.array([w @ g.divergence(pts, y) for y in grid])
        assert abs(grid1[np.argmin(fwd)] - mean_minimizer(s)[0]) <= step
        rev = np.array([w @ g.divergence(y, pts) for y in grid])
        assert abs(grid1[np.argmin(rev)] - g.dual_mean(s)[0]) <= step

    def test_grid_oracle_squared(self):
        g = SquaredNorm(1)
        rng = np.random.default_rng(10)
        pts = rng.uniform(-1.0, 1.0, size=(5, 1))
        w = rng.dirichlet(np.ones(5))
        s = SampleSet(pts, w)
        step = 1e-3
        grid = np.arange(-1.0, 1.0, step)[:, None]
        objective = np.array([w @ g.divergence(pts, y) for y in grid])
        assert abs(grid[np.argmin(objective), 0] - mean_minimizer(s)[0]) <= step


class TestDecompositions:
    @pytest.mark.parametrize("g", geometries(), ids=lambda g: g.kind)
    def test_forward_reconstructs_total(self, g):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            pts = random_points(g, n, rng)
            w = rng.dirichlet(np.ones(n))
            y = random_points(g, 1, rng)[0]
            s = SampleSet(pts, w)
            variance, bias = g.forward_decomposition(s, y)
            total = float(w @ g.divergence(pts, y))
            assert variance + bias == pytest.approx(total, abs=1e-10)
            assert variance >= -1e-15 and bias >= -1e-15

    @pytest.mark.parametrize("g", geometries(), ids=lambda g: g.kind)
    def test_reverse_reconstructs_total(self, g):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            pts = random_points(g, n, rng)
            w = rng.dirichlet(np.ones(n))
            y = random_points(g, 1, rng)[0]
            s = SampleSet(pts, w)
            bias, dual_variance = g.reverse_decomposition(y, s)
            total = float(w @ g.divergence(y, pts))
            assert bias + dual_variance == pytest.approx(total, abs=1e-10)

    def test_zero_bias_at_mean(self):
        g = SquaredNorm(2)
        s = SampleSet(np.array([[0.0, 1.0], [2.0, 3.0]]))
        variance, bias = g.forward_decomposition(s, mean_minimizer(s))
        assert bias == pytest.approx(0.0, abs=1e-14)

    def test_zero_variance_for_single_point(self):
        g = NegativeEntropy(2)
        s = SampleSet([[0.4, 0.6]])
        variance, _ = g.forward_decomposition(s, np.array([0.5, 0.5]))
        assert variance == pytest.approx(0.0, abs=1e-14)
        _, dual_variance = g.reverse_decomposition(np.array([0.5, 0.5]), s)
        assert dual_variance == pytest.approx(0.0, abs=1e-14)

    def test_reverse_example_squared(self):
        # direct summation oracle: E D(y, X) = (9 + 1) / 2 = 5
        g = SquaredNorm(2)
        s = SampleSet(np.array([[0.0, 0.0], [2.0, 0.0]]))
        bias, dual_variance = g.reverse_decomposition(np.array([3.0, 0.0]), s)
        assert bias == pytest.approx(4.0, abs=1e-12)
        assert dual_variance == pytest.approx(1.0, abs=1e-12)

    def test_forward_example_entropy_oracle(self):
        g = NegativeEntropy(2)
        pts = np.array([[0.9, 0.1], [0.5, 0.5]])
        s = SampleSet(pts)
        y = np.array([0.3, 0.7])
        variance, bias = g.forward_decomposition(s, y)
        oracle = 0.5 * (g.divergence(pts[0], y) + g.divergence(pts[1], y))
        assert variance + bias == pytest.approx(oracle, abs=1e-10)


class TestSampleBlocks:
    # sample sizes: every sample but the largest of a mixed block is padded
    SIZES = [1, 5, 3, 2, 4]

    @staticmethod
    def draw(g, sizes, seed):
        """Samples of the given sizes, then one target per sample."""
        rng = np.random.default_rng(seed)
        samples = [SampleSet(random_points(g, n, rng), rng.dirichlet(np.ones(n)))
                   for n in sizes]
        return samples, random_points(g, len(sizes), rng)

    @staticmethod
    def stack(samples, g):
        """The block of the samples' (points, weights) pairs."""
        return stack_samples([(s.points, s.weights) for s in samples], g)

    @staticmethod
    def measure(g, sample, y):
        """Every result that takes a block: both minimizers and both splits."""
        return (mean_minimizer(sample), g.dual_mean(sample),
                *g.forward_decomposition(sample, y), *g.reverse_decomposition(y, sample))

    # past 8 terms numpy's own sums group terms by shape, so wide samples
    # tell an index-order sum from np.sum, einsum or @
    @pytest.mark.parametrize("sizes", [[1] * 4, [5] * 4, SIZES, [9, 16, 12, 1]],
                             ids=["n1", "n5", "mixed", "wide"])
    @pytest.mark.parametrize("g", geometries(), ids=lambda g: g.kind)
    def test_block_equals_lone_calls(self, g, sizes):
        samples, targets = self.draw(g, sizes, len(sizes))
        block = self.stack(samples, g)
        assert block.points.shape == (len(sizes), max(sizes), g.dimension)
        got = self.measure(g, block, targets)
        for row, (sample, y) in enumerate(zip(samples, targets)):
            want = self.measure(g, sample, y)
            assert all(isinstance(value, float) for value in want[2:])
            for block_value, lone_value in zip(got, want):
                np.testing.assert_array_equal(block_value[row], lone_value)

    @pytest.mark.parametrize("g", geometries(), ids=lambda g: g.kind)
    def test_padding_does_not_change_results(self, g):
        (target, small, large), ys = self.draw(g, [11, 1, 16], 9)
        want = self.measure(g, target, ys[0])
        for mates, row in (([target, small], 0), ([small, target], 1),
                           ([target, large], 0), ([large, small, target], 2)):
            targets = np.tile(ys[0], (len(mates), 1))
            got = self.measure(g, self.stack(mates, g), targets)
            for block_value, lone_value in zip(got, want):
                np.testing.assert_array_equal(block_value[row], lone_value)

    def test_point_outside_the_domain_in_last_sample_named(self):
        g = NegativeEntropy(3)
        samples, targets = self.draw(g, self.SIZES, 51)
        block = self.stack(samples, g)
        points = block.points.copy()
        points[-1, 0] = [1.5, -0.25, -0.25]
        bad = SampleSet(points, block.weights)
        for call in (lambda: g.forward_decomposition(bad, targets),
                     lambda: g.reverse_decomposition(targets, bad),
                     lambda: g.dual_mean(bad)):
            with pytest.raises(DomainError, match="block sample 4: point outside"):
                call()
        # a target on the boundary is no interior point for the forward split
        edge = targets.copy()
        edge[2] = [1.0, 0.0, 0.0]
        with pytest.raises(DomainError, match="block sample 2: point outside the interior"):
            g.forward_decomposition(block, edge)

    def test_weights_off_one_in_second_sample_named(self):
        g = SquaredNorm(2)
        block = self.stack(self.draw(g, self.SIZES, 52)[0], g)
        weights = block.weights.copy()
        weights[1] *= 1.01
        with pytest.raises(ValueError, match="weights of block sample 1 must sum to 1 "
                                             "within 1e-12, got 1.01"):
            SampleSet(block.points, weights)
        weights = block.weights.copy()
        weights[3, :2] = [1.5, -0.5]
        with pytest.raises(ValueError, match="weights of block sample 3 must be nonnegative"):
            SampleSet(block.points, weights)

    def test_stack_names_the_sample_whose_weights_fail(self):
        g = SquaredNorm(2)
        samples, _ = self.draw(g, self.SIZES, 55)
        pairs = [(s.points, s.weights) for s in samples]
        pairs[2] = (pairs[2][0], 1.01 * pairs[2][1])
        with pytest.raises(ValueError, match="weights of block sample 2 must sum to 1"):
            stack_samples(pairs, g)

    def test_stack_rejects_other_dimensions_and_blocks(self):
        g = SquaredNorm(3)
        samples, _ = self.draw(g, self.SIZES[:2], 54)
        with pytest.raises(ValueError, match="dimension 4"):
            self.stack(samples, SquaredNorm(4))
        block = self.stack(samples, g)
        with pytest.raises(ValueError):
            stack_samples([(block.points, block.weights)], g)
        with pytest.raises(ValueError):
            stack_samples([(samples[1].points, samples[0].weights)], g)
        with pytest.raises(ValueError):
            stack_samples([], g)


@st.composite
def simplex_pairs(draw):
    k = draw(st.integers(min_value=2, max_value=6))
    raw = draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0), min_size=2 * k, max_size=2 * k
        )
    )
    x = clamp_simplex(np.array(raw[:k]) / np.sum(raw[:k]))
    y = clamp_simplex(np.array(raw[k:]) / np.sum(raw[k:]))
    return x, y


class TestHypothesisProperties:
    @given(simplex_pairs())
    @settings(max_examples=200, deadline=None)
    def test_kl_nonnegative(self, pair):
        x, y = pair
        g = NegativeEntropy(x.shape[0])
        assert g.divergence(x, y) >= 0.0

    @given(simplex_pairs())
    @settings(max_examples=200, deadline=None)
    def test_dual_round_trip(self, pair):
        x, _ = pair
        g = NegativeEntropy(x.shape[0])
        np.testing.assert_allclose(g.from_dual(g.to_dual(x)), x, rtol=1e-10)

    @given(st.lists(st.floats(min_value=-3, max_value=3), min_size=3, max_size=3),
           st.lists(st.floats(min_value=-3, max_value=3), min_size=3, max_size=3),
           st.lists(st.floats(min_value=-3, max_value=3), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_squared_law_of_cosines(self, x, y, z):
        g = SquaredNorm(3)
        res = g.law_of_cosines_residual(np.array(x), np.array(y), np.array(z))
        assert abs(res) <= 1e-9

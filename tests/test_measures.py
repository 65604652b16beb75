"""Means, variances, covariances, correlations, distances, and forest
distances, checked against the cell-grid oracle and algebraic identities."""

import math

import numpy as np
import pytest

import treealgebra as ta
from treealgebra.measures import (
    _flat_pair_sum,
    _recursive_pair_sum,
    _sq_diff_term,
    tree_statistics,
)
from treealgebra.trees import ClassProbs, Scalar


@pytest.fixture
def probs_schema(d2):
    return ta.FeatureSchema(d2.features, ("a", "b"))


def constant_probs_tree(schema, probs):
    b = ta.TreeBuilder(schema)
    b.set_value(b.add_root(), ClassProbs(probs))
    return b.build()


class TestMean:
    def test_stump4(self, stump4, uniform):
        # grid oracle: cells (0,4] and (4,10] with masses 0.4 and 0.6
        assert ta.grid_integral([stump4], "raw-value", uniform) == pytest.approx(0.6, abs=1e-15)
        assert ta.tree_mean(stump4, uniform) == pytest.approx(0.6, abs=1e-15)

    def test_constant_tree(self, make_constant, uniform, d2):
        const = make_constant(7.0)
        assert ta.tree_mean(const, uniform) == 7.0
        emp = ta.Empirical.from_rows(d2, [(1, 1), (8, 8)])
        assert ta.tree_mean(const, emp) == 7.0

    def test_empirical_thirds(self, stump4, d2):
        emp = ta.Empirical.from_rows(d2, [(1, 0), (5, 0), (9, 0)])
        assert ta.tree_mean(stump4, emp) == pytest.approx(2 / 3, abs=1e-15)

    def test_class_probs_mean_is_a_vector(self, probs_schema, uniform):
        b = ta.TreeBuilder(probs_schema)
        left, right = b.split_node(b.add_root(), ta.NumericThreshold(0, 4.0))
        b.set_value(left, ClassProbs((1.0, 0.0)))
        b.set_value(right, ClassProbs((0.0, 1.0)))
        mu = ta.tree_mean(b.build(), uniform)
        assert np.allclose(mu, [0.4, 0.6], atol=1e-15)
        assert mu.sum() == pytest.approx(1.0, abs=1e-12)


class TestVariance:
    def test_stump4(self, stump4, uniform):
        assert ta.tree_variance(stump4, uniform) == pytest.approx(0.24, abs=1e-15)

    def test_constant_is_zero(self, make_constant, uniform):
        assert ta.tree_variance(make_constant(3.0), uniform) <= 1e-28

    def test_stump6_symmetric_weights(self, stump6, uniform):
        assert ta.tree_variance(stump6, uniform) == pytest.approx(0.24, abs=1e-15)

    def test_decomposition_identity(self, rng, uniform):
        """variance == norm_squared - mean^2 within 1e-12."""
        for _ in range(20):
            schema = ta.random_schema(rng, max_features=4)
            tree = ta.random_tree(schema, rng, int(rng.integers(1, 20)))
            stats = tree_statistics(tree, uniform)
            assert stats.variance >= 0.0
            assert abs(stats.variance - (stats.norm_squared - stats.mean**2)) <= 1e-12


class TestCovarianceCorrelation:
    def test_self_covariance_is_variance(self, stump4, uniform):
        assert ta.tree_covariance(stump4, stump4, uniform) == pytest.approx(0.24, abs=1e-15)

    def test_shifted_stumps(self, stump4, stump6, uniform):
        # oracle: E[T1 T2] = P(x1 > 6) = 0.4, means 0.6 and 0.4
        assert ta.grid_integral([stump4, stump6], "product", uniform) == pytest.approx(0.4, abs=1e-15)
        assert ta.tree_covariance(stump4, stump6, uniform) == pytest.approx(0.16, abs=1e-15)

    def test_constant_has_zero_covariance(self, stump4, make_constant, uniform):
        assert ta.tree_covariance(stump4, make_constant(5.0), uniform) == pytest.approx(0.0, abs=1e-15)

    def test_self_correlation(self, stump4, uniform):
        assert ta.tree_correlation(stump4, stump4, uniform) == 1.0

    def test_correlation_two_thirds(self, stump4, stump6, uniform):
        assert ta.tree_correlation(stump4, stump6, uniform) == pytest.approx(2 / 3, abs=1e-12)

    def test_negative_scaling_gives_minus_one(self, stump4, uniform):
        flipped = ta.affine_combination([stump4], [-2.0])
        assert ta.tree_correlation(stump4, flipped, uniform) == -1.0

    def test_degenerate_correlation_raises(self, stump4, make_constant, uniform):
        with pytest.raises(ta.DegenerateCorrelationError):
            ta.tree_correlation(stump4, make_constant(7.0), uniform)

    def test_covariance_identity(self, rng, uniform):
        """cov(t1,t2) == <t1,t2> - mu1*mu2 within 1e-12."""
        for _ in range(15):
            schema = ta.random_schema(rng, max_features=4)
            t1 = ta.random_tree(schema, rng, int(rng.integers(1, 15)))
            t2 = ta.random_tree(schema, rng, int(rng.integers(1, 15)))
            cov = ta.tree_covariance(t1, t2, uniform)
            identity = ta.tree_inner_product(t1, t2, uniform) - ta.tree_mean(
                t1, uniform
            ) * ta.tree_mean(t2, uniform)
            assert abs(cov - identity) <= 1e-12

    def test_sign_of_affine_transform(self, rng, uniform, d2):
        for _ in range(25):
            schema = ta.random_schema(rng, max_features=3)
            tree = ta.random_tree(schema, rng, int(rng.integers(1, 12)))
            a = float(rng.uniform(0.1, 3.0)) * (1 if rng.random() < 0.5 else -1)
            b = ta.TreeBuilder(schema)
            b.set_value(b.add_root(), Scalar(float(rng.uniform(-2, 2))))
            shifted = ta.affine_combination([tree, b.build()], [a, 1.0])
            assert ta.tree_correlation(tree, shifted, uniform) == math.copysign(1.0, a)


class TestDistance:
    def test_self_distance_zero(self, stump4, uniform):
        assert ta.tree_distance(stump4, stump4, uniform) == 0.0

    def test_shifted_stumps_sqrt_point_two(self, stump4, stump6, uniform):
        grid_sq = ta.grid_integral([stump4, stump6], "squared-difference", uniform)
        d = ta.tree_distance(stump4, stump6, uniform)
        assert abs(d - math.sqrt(grid_sq)) <= 1e-15
        assert abs(d - math.sqrt(0.2)) <= 1e-12

    def test_class_prob_distance(self, probs_schema, uniform):
        t1 = constant_probs_tree(probs_schema, (1.0, 0.0))
        t2 = constant_probs_tree(probs_schema, (0.0, 1.0))
        assert ta.tree_distance(t1, t2, uniform) == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_recursion_equals_flat_sum(self, rng, uniform):
        for _ in range(20):
            schema = ta.random_schema(rng, max_features=4)
            t1 = ta.random_tree(schema, rng, int(rng.integers(1, 20)))
            t2 = ta.random_tree(schema, rng, int(rng.integers(1, 20)))
            combined = ta.combine_pair(t1, t2)
            rec = _recursive_pair_sum(combined, uniform, _sq_diff_term)
            flat = _flat_pair_sum(combined, uniform, _sq_diff_term)
            assert abs(rec - flat) <= 1e-12

    def test_empirical_distance_ignores_empty_regions(self, stump4, stump6, d2):
        # all mass on one side: the trees agree there, so the distance is 0
        emp = ta.Empirical.from_rows(d2, [(1, 1), (2, 3)])
        assert ta.tree_distance(stump4, stump6, emp) == 0.0

    def test_empirical_distance_of_mixed_splits_is_a_point_sum(self, mixed_pair, rng):
        a, b = mixed_pair
        X = rng.uniform(0.0, 1.0, size=(400, 2))
        emp = ta.Empirical(X, np.full(len(X), 1.0 / len(X)))
        diff = ta.evaluate_batch(a, X) - ta.evaluate_batch(b, X)
        expected = math.sqrt(float((diff * diff).sum()) / len(X))
        assert abs(ta.tree_distance(a, b, emp) - expected) <= 1e-12

    def test_metric_axioms(self, rng, uniform):
        schema = ta.random_schema(rng, max_features=4)
        trees = [ta.random_tree(schema, rng, int(rng.integers(1, 12))) for _ in range(8)]
        n = len(trees)
        D = ta.distance_matrix(trees, uniform)
        assert (np.diag(D) == 0.0).all()
        assert (D == D.T).all()
        for k in range(n):
            assert (D <= D[:, [k]] + D[[k], :] + 1e-9).all()


class TestInnerProduct:
    def test_self_inner_product_is_norm_squared(self, stump4, uniform):
        assert ta.tree_inner_product(stump4, stump4, uniform) == pytest.approx(0.6, abs=1e-15)

    def test_shifted_stumps(self, stump4, stump6, uniform):
        assert ta.tree_inner_product(stump4, stump6, uniform) == pytest.approx(0.4, abs=1e-15)

    def test_zero_tree(self, stump4, make_constant, uniform):
        assert ta.tree_inner_product(stump4, make_constant(0.0), uniform) == 0.0

    def test_distance_decomposition(self, rng, uniform):
        """d^2 == |t1|^2 + |t2|^2 - 2<t1,t2> within 1e-9."""
        for _ in range(15):
            schema = ta.random_schema(rng, max_features=4)
            t1 = ta.random_tree(schema, rng, int(rng.integers(1, 15)))
            t2 = ta.random_tree(schema, rng, int(rng.integers(1, 15)))
            d = ta.tree_distance(t1, t2, uniform)
            decomposition = (
                ta.tree_inner_product(t1, t1, uniform)
                + ta.tree_inner_product(t2, t2, uniform)
                - 2.0 * ta.tree_inner_product(t1, t2, uniform)
            )
            assert abs(d * d - decomposition) <= 1e-9

    def test_bilinearity(self, rng, uniform):
        """<a t1 + b t2, t3> == a <t1,t3> + b <t2,t3> within 1e-9."""
        for _ in range(10):
            schema = ta.random_schema(rng, max_features=3)
            t1, t2, t3 = (ta.random_tree(schema, rng, int(rng.integers(1, 10))) for _ in range(3))
            a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
            mix = ta.affine_combination([t1, t2], [a, b])
            lhs = ta.tree_inner_product(mix, t3, uniform)
            rhs = a * ta.tree_inner_product(t1, t3, uniform) + b * ta.tree_inner_product(
                t2, t3, uniform
            )
            assert abs(lhs - rhs) <= 1e-9


class TestForestDistance:
    def test_identical_singletons(self, stump4, uniform):
        assert ta.forest_distance([stump4], [stump4], uniform) == 0.0

    def test_identical_forests(self, stump4, stump6, uniform):
        assert ta.forest_distance([stump4, stump6], [stump4, stump6], uniform) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_singletons_reduce_to_tree_distance(self, stump4, stump6, uniform):
        assert ta.forest_distance([stump4], [stump6], uniform) == pytest.approx(
            math.sqrt(0.2), abs=1e-12
        )

    def test_expansion_matches_combined_difference(self, rng, uniform):
        for _ in range(10):
            schema = ta.random_schema(rng, max_features=4)
            f = [ta.random_tree(schema, rng, int(rng.integers(1, 15))) for _ in range(int(rng.integers(1, 5)))]
            g = [ta.random_tree(schema, rng, int(rng.integers(1, 15))) for _ in range(int(rng.integers(1, 5)))]
            expansion = ta.forest_distance(f, g, uniform)
            direct = ta.tree_distance(
                ta.affine_combination(f, [1.0] * len(f)),
                ta.affine_combination(g, [1.0] * len(g)),
                uniform,
            )
            assert abs(expansion - direct) <= 1e-9


class TestDistanceMatrix:
    def test_two_identical_trees(self, stump4, uniform):
        D = ta.distance_matrix([stump4, stump4], uniform)
        assert (D == 0.0).all()

    def test_pair_value(self, stump4, stump6, uniform):
        D = ta.distance_matrix([stump4, stump6], uniform)
        assert D[0, 1] == pytest.approx(math.sqrt(0.2), abs=1e-12)
        assert D[0, 1] == D[1, 0]

    def test_parallel_jobs_match_serial(self, rng, uniform):
        schema = ta.random_schema(rng, max_features=3)
        trees = [ta.random_tree(schema, rng, 6) for _ in range(5)]
        serial = ta.distance_matrix(trees, uniform, jobs=1)
        parallel = ta.distance_matrix(trees, uniform, jobs=2)
        assert (serial == parallel).all()

"""Means, variances, covariances, correlations, distances, and forest
distances, checked against the cell-grid oracle and algebraic identities."""

import math
import tracemalloc

import numpy as np
import pytest

import treealgebra as ta
from treealgebra import measures
from treealgebra.measures import tree_statistics
from treealgebra.oracle import (
    goes_left,
    iter_leaves_with_regions,
    recursive_pair_sum,
    region_measure,
    sq_diff_term,
)
from treealgebra.trees import NUMERIC, ClassProbs, Scalar


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
        """The paper's recursion over the combined tree equals the flat sum
        over leaf pairs that tree_distance computes."""
        for _ in range(20):
            schema = ta.random_schema(rng, max_features=4)
            t1 = ta.random_tree(schema, rng, int(rng.integers(1, 20)))
            t2 = ta.random_tree(schema, rng, int(rng.integers(1, 20)))
            combined = ta.combine_pair(t1, t2)
            rec = recursive_pair_sum(combined, uniform, sq_diff_term)
            flat = ta.tree_distance(t1, t2, uniform) ** 2
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

    @pytest.mark.parametrize("f_empty", [True, False])
    def test_empty_forest_is_refused(self, stump4, uniform, f_empty):
        f, g = ([], [stump4]) if f_empty else ([stump4], [])
        with pytest.raises(ta.DomainError, match="^forest_distance needs nonempty forests$"):
            ta.forest_distance(f, g, uniform)

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

    def test_one_tree_is_refused(self, stump4, uniform):
        with pytest.raises(ta.DomainError, match="^distance_matrix needs at least two trees$"):
            ta.distance_matrix([stump4], uniform)

    def test_pair_value(self, stump4, stump6, uniform):
        D = ta.distance_matrix([stump4, stump6], uniform)
        assert D[0, 1] == pytest.approx(math.sqrt(0.2), abs=1e-12)
        assert D[0, 1] == D[1, 0]


# ---------------------------------------------------------------------------
# Fast paths against the paper's recursion over the combined tree


def _squared_scale(*trees):
    """Squared largest leaf magnitude (at least 1): the unit of the tolerance."""
    return max([1.0] + [float(np.abs(t.leaves.values).max()) for t in trees]) ** 2


def region_sum(tree, measure, term):
    """Sum of ``term(leaf value)`` times leaf mass, region by region."""
    total = 0.0
    for nid, region in iter_leaves_with_regions(tree):
        row = tree.leaf[np.searchsorted(tree.ids, nid)]
        total = total + term(tree.leaves.value(row)) * region_measure(region, measure)
    return total


def leaf_vector(value):
    return np.asarray(value.probs if isinstance(value, ClassProbs) else (value.value,))


def reference_statistics(tree, measure):
    """Mean (a vector, one entry per class), variance and squared norm,
    region by region."""
    mu = region_sum(tree, measure, leaf_vector)
    var = region_sum(tree, measure, lambda v: float(np.square(leaf_vector(v) - mu).sum()))
    norm_sq = region_sum(tree, measure, lambda v: float(np.square(leaf_vector(v)).sum()))
    return mu, var, norm_sq


def assert_matches_reference(t1, t2, measure):
    """Distance, inner product, covariance and correlation equal the
    recursion over combine_pair, and each tree's mean, variance and squared
    norm equal the region-by-region sum, to 1e-12 of the squared value
    scale."""
    tol = 1e-12 * _squared_scale(t1, t2)
    combined = ta.combine_pair(t1, t2)
    ref_sq = recursive_pair_sum(combined, measure, sq_diff_term)
    assert abs(ta.tree_distance(t1, t2, measure) ** 2 - ref_sq) <= tol
    refs = []
    for t in (t1, t2):
        mu, var, norm_sq = reference_statistics(t, measure)
        stats = tree_statistics(t, measure)
        assert np.abs(np.atleast_1d(stats.mean) - mu).max() <= tol
        assert np.abs(np.atleast_1d(ta.tree_mean(t, measure)) - mu).max() <= tol
        assert abs(stats.variance - var) <= tol
        assert abs(stats.norm_squared - norm_sq) <= tol
        refs.append((float(mu[0]), var))
    if t1.leaves.kind == "scalar":
        ref_ip = recursive_pair_sum(
            combined, measure, lambda tv: tv.values[0].value * tv.values[1].value
        )
        assert abs(ta.tree_inner_product(t1, t2, measure) - ref_ip) <= tol
        (mu1, var1), (mu2, var2) = refs
        ref_cov = recursive_pair_sum(
            combined,
            measure,
            lambda tv: (tv.values[0].value - mu1) * (tv.values[1].value - mu2),
        )
        assert abs(ta.tree_covariance(t1, t2, measure) - ref_cov) <= tol
        if min(var1, var2) > tol:
            # the correlation in covariance units, so the tolerance holds
            scale = math.sqrt(var1 * var2)
            rho = ta.tree_correlation(t1, t2, measure)
            assert abs(rho * scale - ref_cov) <= tol


def copy_into(builder, nid, tree, src):
    """Copy the subtree of ``tree`` at position ``src`` onto the builder's leaf ``nid``."""
    if tree.left_pos[src] < 0:
        builder.set_value(nid, tree.leaves.value(tree.leaf[src]))
        return
    left, right = builder.split_node(nid, tree.splits()[src])
    copy_into(builder, left, tree, tree.left_pos[src])
    copy_into(builder, right, tree, tree.right_pos[src])


def with_zero_mass_leaf(tree, value):
    """``tree`` behind a root split at the first feature's low bound, whose
    left leaf (the single value ``low``) has zero uniform mass."""
    b = ta.TreeBuilder(tree.schema)
    left, right = b.split_node(b.add_root(), ta.NumericThreshold(0, tree.schema.features[0].low))
    b.set_value(left, Scalar(value))
    copy_into(b, right, tree, tree.root_pos)
    return b.build()


def thresholds_of(tree):
    numeric = tree.kind == NUMERIC
    return list(zip(tree.feature[numeric].tolist(), tree.threshold[numeric].tolist()))


def boundary_sample(schema, trees, rng, n):
    """Random encoded points, a third of them moved onto split thresholds
    (or a feature's low bound), the first ten duplicated, with random
    weights of which a quarter are zero."""
    X = ta.oracle.sample_points(schema, ta.UniformBox(), n, rng)
    cuts = [c for t in trees for c in thresholds_of(t)]
    cuts += [(j, f.low) for j, f in enumerate(schema.features) if isinstance(f, ta.NumericFeature)]
    for i in rng.choice(n, size=n // 3, replace=False):
        j, t = cuts[int(rng.integers(0, len(cuts)))]
        X[i, j] = t
    X = np.vstack([X, X[:10]])
    w = rng.uniform(0.0, 1.0, len(X))
    w[rng.random(len(X)) < 0.25] = 0.0
    return ta.Empirical(X, w / w.sum())


def oblique_tree(schema, rng, n_splits):
    """A random tree of hyperplane splits with coefficients in {-1, 1, 2}
    through points of the 1/8 grid, so grid points can lie exactly on them."""
    b = ta.TreeBuilder(schema)
    leaves = [(b.add_root(), ta.Region.full(schema))]
    num = schema.numeric_indices
    for _ in range(20 * n_splits):
        if len(leaves) > n_splits:
            break
        k = int(rng.integers(0, len(leaves)))
        nid, region = leaves[k]
        coeffs = tuple(float(c) for c in rng.choice([-1.0, 1.0, 2.0], size=len(num)))
        point = [np.round(rng.uniform(*region.constraints[j][:2]) * 8) / 8 for j in num]
        split = ta.Hyperplane(coeffs, float(np.dot(coeffs, point)))
        left_region, right_region = region.split(split)
        if left_region is None or right_region is None:
            continue
        left, right = b.split_node(nid, split)
        leaves[k] = (left, left_region)
        leaves.append((right, right_region))
    for nid, _ in leaves:
        b.set_value(nid, Scalar(float(rng.uniform(-3, 3))))
    return b.build()


def through_sample_points(schema, X, rng, n_splits, on_plane):
    """A tree with a numeric root split and hyperplanes below it, each
    passing exactly through a row of ``X`` that reaches its node."""
    b = ta.TreeBuilder(schema)
    t = float(np.median(X[:, 0]))
    left, right = b.split_node(b.add_root(), ta.NumericThreshold(0, t))
    leaves = [(left, np.flatnonzero(X[:, 0] <= t)), (right, np.flatnonzero(X[:, 0] > t))]
    for _ in range(n_splits):
        k = int(rng.integers(0, len(leaves)))
        nid, rows = leaves[k]
        if rows.size == 0:
            continue
        coeffs = rng.normal(size=X.shape[1])
        split = ta.Hyperplane(tuple(coeffs), on_plane(coeffs, X[rng.choice(rows)]))
        goes = np.array([goes_left(split, X[i], schema) for i in rows], dtype=bool)
        left, right = b.split_node(nid, split)
        leaves[k] = (left, rows[goes])
        leaves.append((right, rows[~goes]))
    for nid, _ in leaves:
        b.set_value(nid, Scalar(float(rng.uniform(-1, 1))))
    return b.build()


def no_pair_block(*args):
    raise AssertionError("a pair block was built")


class TestFastPathsMatchReference:
    def test_uniform_random_pairs_with_level_subsets(self, rng, uniform):
        for k in range(30):
            schema = ta.random_schema(rng, max_features=5, max_levels=6)
            span = 1.0 if k % 2 else 40.0
            t1 = ta.random_tree(schema, rng, int(rng.integers(0, 25)), value_range=(-span, span))
            t2 = ta.random_tree(schema, rng, int(rng.integers(0, 25)), value_range=(-span, span))
            assert_matches_reference(t1, t2, uniform)

    def test_zero_mass_leaves(self, rng, uniform):
        for _ in range(15):
            schema = ta.random_schema(rng, max_features=4)
            t1 = with_zero_mass_leaf(ta.random_tree(schema, rng, int(rng.integers(1, 12))), 9.0)
            t2 = ta.random_tree(schema, rng, int(rng.integers(1, 12)))
            assert ta.validate(t1) == []
            assert_matches_reference(t1, t2, uniform)
            assert_matches_reference(t1, with_zero_mass_leaf(t2, -4.0), uniform)
            emp = boundary_sample(schema, [t1, t2], rng, 200)
            assert_matches_reference(t1, t2, emp)

    def test_splits_that_miss_their_region(self, d2, stump6, uniform):
        # x1 <= 4, then x1 <= 6 on the left and x1 <= 2 on the right: both
        # inner splits leave one child empty (validate rejects such trees)
        b = ta.TreeBuilder(d2)
        left, right = b.split_node(b.add_root(), ta.NumericThreshold(0, 4.0))
        for nid, t, values in ((left, 6.0, (1.0, 99.0)), (right, 2.0, (99.0, 3.0))):
            for child, v in zip(b.split_node(nid, ta.NumericThreshold(0, t)), values):
                b.set_value(child, Scalar(v))
        tree = b.build()
        combined = ta.combine_pair(tree, stump6)
        mean = recursive_pair_sum(combined, uniform, lambda tv: tv.values[0].value)
        assert abs(ta.tree_mean(tree, uniform) - mean) <= 1e-12
        assert abs(mean - 2.2) <= 1e-12
        expected = recursive_pair_sum(
            combined, uniform, lambda tv: (tv.values[0].value - mean) * (tv.values[1].value - 0.4)
        )
        assert abs(ta.tree_covariance(tree, stump6, uniform) - expected) <= 1e-12
        expected = recursive_pair_sum(combined, uniform, sq_diff_term)
        assert abs(ta.tree_distance(tree, stump6, uniform) ** 2 - expected) <= 1e-12
        expected = recursive_pair_sum(
            combined, uniform, lambda tv: tv.values[0].value * tv.values[1].value
        )
        assert abs(ta.tree_inner_product(tree, stump6, uniform) - expected) <= 1e-12

    def test_class_probability_leaves(self, rng, uniform):
        for _ in range(15):
            schema = ta.random_schema(rng, max_features=4, class_labels=("a", "b", "c"))
            t1 = ta.random_tree(schema, rng, int(rng.integers(0, 15)), "class_probs")
            t2 = ta.random_tree(schema, rng, int(rng.integers(0, 15)), "class_probs")
            assert_matches_reference(t1, t2, uniform)
            assert_matches_reference(t1, t2, boundary_sample(schema, [t1, t2], rng, 200))

    def test_empirical_boundaries_duplicates_and_zero_weights(self, rng):
        for _ in range(20):
            schema = ta.random_schema(rng, max_features=4)
            t1 = ta.random_tree(schema, rng, int(rng.integers(1, 15)))
            t2 = ta.random_tree(schema, rng, int(rng.integers(1, 15)))
            assert_matches_reference(t1, t2, boundary_sample(schema, [t1, t2], rng, 300))

    def test_empirical_hyperplanes_on_grid_points(self, rng, unit2, mixed_pair):
        grid = np.array([(i / 8, j / 8) for i in range(9) for j in range(9)])
        X = np.vstack([grid, grid[:20], rng.uniform(0, 1, (100, 2))])
        w = rng.uniform(0.0, 1.0, len(X))
        w[::7] = 0.0
        emp = ta.Empirical(X, w / w.sum())
        assert_matches_reference(*mixed_pair, emp)
        for _ in range(10):
            t1 = oblique_tree(unit2, rng, int(rng.integers(1, 6)))
            t2 = oblique_tree(unit2, rng, int(rng.integers(1, 6)))
            assert ta.validate(t1) == [] and ta.validate(t2) == []
            assert_matches_reference(t1, t2, emp)
            assert_matches_reference(t1, mixed_pair[1], emp)

    def test_empirical_points_on_hyperplanes_below_a_numeric_root(self, rng, on_plane):
        """Sample points lie exactly on the hyperplanes, and the root routes
        a part of them, so the fast path routes subsets of the rows that
        the reference routes all at once."""
        for p in (2, 3, 5, 8):
            schema = ta.FeatureSchema(
                tuple(ta.NumericFeature(f"x{j}", -1.0, 1.0) for j in range(p))
            )
            X = rng.uniform(-1.0, 1.0, (60, p))
            emp = ta.Empirical(X, np.full(len(X), 1 / len(X)))
            for _ in range(5):
                t1, t2 = (through_sample_points(schema, X, rng, 6, on_plane) for _ in range(2))
                assert ta.validate(t1) == [] and ta.validate(t2) == []
                assert_matches_reference(t1, t2, emp)

    def test_self_distances_are_exactly_zero(self, rng, uniform, mixed_pair):
        for _ in range(10):
            schema = ta.random_schema(rng, max_features=4)
            forest = [ta.random_tree(schema, rng, int(rng.integers(0, 20))) for _ in range(3)]
            emp = boundary_sample(schema, forest, rng, 100)
            for measure in (uniform, emp):
                for t in forest:
                    assert ta.tree_distance(t, t, measure) == 0.0
                assert ta.forest_distance(forest, forest, measure) == 0.0
                D = ta.distance_matrix(forest, measure)
                for i, j in ((0, 1), (0, 2), (1, 2)):
                    assert D[i, j] == D[j, i] == ta.tree_distance(forest[i], forest[j], measure)
        emp = ta.Empirical(rng.uniform(0, 1, (50, 2)), np.full(50, 1 / 50))
        a, b = mixed_pair
        assert ta.tree_distance(b, b, emp) == 0.0
        assert ta.forest_distance([a, b], [a, b], emp) == 0.0

    def test_uniform_measure_rejects_hyperplanes(self, mixed_pair, stump4, uniform, monkeypatch):
        # raised while preparing the trees, before any pair block is built
        monkeypatch.setattr(measures, "_pair_block", no_pair_block)
        a, b = mixed_pair
        message = "uniform measure of a region with hyperplane constraints"
        for call in (
            lambda: ta.tree_distance(a, b, uniform),
            lambda: ta.tree_inner_product(b, a, uniform),
            lambda: ta.tree_covariance(a, b, uniform),
            lambda: ta.distance_matrix([a, b], uniform),
            lambda: ta.forest_distance([a], [b], uniform),
            lambda: ta.tree_mean(a, uniform),
            lambda: ta.tree_statistics(b, uniform),
            lambda: ta.tree_correlation(a, b, uniform),
        ):
            with pytest.raises(ta.UnsupportedGeometryError, match=message):
                call()

    def test_non_finite_leaf_value_raises(self, make_stump, stump4, d2, uniform, monkeypatch):
        # raised while preparing the trees, before any pair block is built
        monkeypatch.setattr(measures, "_pair_block", no_pair_block)
        bad = make_stump(0, 4.0, high=float("inf"))
        emp = ta.Empirical.from_rows(d2, [(1, 1), (8, 8)], [1.0, 0.0])
        for measure in (uniform, emp):
            for call in (
                lambda: ta.tree_distance(stump4, bad, measure),
                lambda: ta.tree_mean(bad, measure),
                lambda: ta.distance_matrix([stump4, stump4, bad], measure),
                lambda: ta.forest_distance([stump4], [stump4, bad], measure),
            ):
                with pytest.raises(ta.DomainError, match="leaf value is not finite"):
                    call()

    def test_empirical_points_need_one_column_per_feature(self, stump4, make_constant):
        # a one-column matrix would be indexed past its end, and a
        # three-column one routed on its first two columns unnoticed
        const = make_constant(1.0)
        for points in (np.ones((3, 1)), np.ones((3, 3)), np.ones(3)):
            emp = ta.Empirical(points)
            for call in (
                lambda: ta.tree_mean(stump4, emp),
                lambda: ta.tree_distance(stump4, const, emp),
                lambda: ta.distance_matrix([stump4, const], emp),
                lambda: ta.forest_distance([stump4], [const], emp),
            ):
                with pytest.raises(ta.DomainError, match="not one column per feature"):
                    call()


# ---------------------------------------------------------------------------
# The whole-forest kernel against the single-pair path


@pytest.fixture
def mixed_schema():
    """Two numeric and two categorical features."""
    return ta.FeatureSchema(
        (
            ta.NumericFeature("x0", -2.0, 3.0),
            ta.CategoricalFeature("c1", ("a", "b", "c", "d", "e")),
            ta.NumericFeature("x2", 0.0, 1.0),
            ta.CategoricalFeature("c3", ("u", "v", "w")),
        ),
        ("p", "q", "r"),
    )


def kernel_forest(schema, rng, n, leaf_kind="scalar"):
    """Trees of 1 to about 20 leaves, every fourth a single leaf and, for
    scalar leaves, every third behind a zero-mass leaf."""
    forest = []
    for k in range(n):
        splits = 0 if k % 4 == 0 else int(rng.integers(1, 20))
        tree = ta.random_tree(schema, rng, splits, leaf_kind, value_range=(-5.0, 5.0))
        if leaf_kind == "scalar" and k % 3 == 1:
            tree = with_zero_mass_leaf(tree, float(rng.uniform(-5, 5)))
        forest.append(tree)
    return forest


def reference_forest_distance(f, g, measure):
    """``forest_distance`` as a loop over ordered pairs of single-pair
    inner products, in the kernel's order."""

    def inner(ps, qs):
        acc = 0.0
        for a in ps:
            for b in qs:
                acc += ta.tree_inner_product(a, b, measure)
        return acc

    return math.sqrt(max(inner(f, f) + inner(g, g) - 2.0 * inner(f, g), 0.0))


def count_pair_blocks(monkeypatch):
    calls = []
    block = measures._pair_block

    def counted(a, b, term):
        calls.append(len(b.values))
        return block(a, b, term)

    monkeypatch.setattr(measures, "_pair_block", counted)
    return calls


class TestForestKernel:
    # 0: one column tree per run, scored one row leaf at a time; 4 KiB:
    # runs of a few trees
    BUDGETS = (0, 4096, measures._BLOCK_BYTES)

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("leaf_kind", ["scalar", "class_probs"])
    @pytest.mark.parametrize("measure_kind", ["uniform", "empirical"])
    def test_distance_matrix_equals_tree_distance_bitwise(
        self, mixed_schema, uniform, monkeypatch, measure_kind, budget, leaf_kind
    ):
        rng = np.random.default_rng(7)
        forest = kernel_forest(mixed_schema, rng, 24, leaf_kind)
        assert all(ta.validate(t) == [] for t in forest)
        empirical = measure_kind == "empirical"
        measure = boundary_sample(mixed_schema, forest, rng, 200) if empirical else uniform
        monkeypatch.setattr(measures, "_BLOCK_BYTES", budget)
        calls = count_pair_blocks(monkeypatch)
        D = ta.distance_matrix(forest, measure)
        n = len(forest)
        if empirical:
            assert calls == []
        elif budget == 0:
            # every pair is over the budget: one block per row leaf
            assert len(calls) == sum(t.n_leaves * (n - 1 - i) for i, t in enumerate(forest))
        elif budget == 4096:
            # several runs per row, several trees per run
            assert n - 1 < len(calls) < n * (n - 1) // 2
        for i in range(n):
            assert D[i, i] == 0.0
            for j in range(i + 1, n):
                d = ta.tree_distance(forest[i], forest[j], measure)
                assert D[i, j] == D[j, i] == d

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("measure_kind", ["uniform", "empirical"])
    def test_forest_distance_equals_pair_loop_bitwise(
        self, mixed_schema, uniform, monkeypatch, measure_kind, budget
    ):
        rng = np.random.default_rng(11)
        monkeypatch.setattr(measures, "_BLOCK_BYTES", budget)
        for nf, ng in ((1, 1), (3, 17), (12, 9)):
            f = kernel_forest(mixed_schema, rng, nf)
            g = kernel_forest(mixed_schema, rng, ng)
            measure = uniform
            if measure_kind == "empirical":
                measure = boundary_sample(mixed_schema, f + g, rng, 200)
            assert ta.forest_distance(f, g, measure) == reference_forest_distance(f, g, measure)
            assert ta.forest_distance(f, f, measure) == 0.0
            assert ta.forest_distance(g + f, g + f, measure) == 0.0

    def test_distance_matrix_memory_is_bounded(self, uniform):
        # 941 leaves: the kernel peaks near 0.9 MiB; one leaf-pair block
        # over the whole forest (941 x 941) would peak near 27 MiB
        rng = np.random.default_rng(5)
        schema = ta.random_schema(rng, max_features=6)
        forest = [ta.random_tree(schema, rng, int(rng.integers(4, 14))) for _ in range(100)]
        leaves = sum(t.n_leaves for t in forest)
        assert leaves == 941
        tracemalloc.start()
        try:
            ta.distance_matrix(forest, uniform)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    def test_pair_over_the_budget_is_scored_in_chunks(self, uniform, monkeypatch):
        # 1,601 leaves each: the kernel peaks near 1.6 MiB; the whole
        # leaf-pair block (1,601 x 1,601) would peak near 79 MiB
        rng = np.random.default_rng(5)
        schema = ta.FeatureSchema(tuple(ta.NumericFeature(f"x{i}", 0.0, 1.0) for i in range(4)))
        t1, t2 = (ta.random_tree(schema, rng, 1600) for _ in range(2))
        assert t1.n_leaves == t2.n_leaves == 1601
        tracemalloc.start()
        try:
            d = ta.tree_distance(t1, t2, uniform)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20
        # 20 row leaves by 1,601 column leaves of 8 bytes fit in 256 KiB:
        # the chunk sums, added in row order
        a, b = (measures._prepare([t], uniform) for t in (t1, t2))
        acc = 0.0
        for lo in range(0, 1601, 20):
            chunk = measures._leaf_rows(a, (lo, min(lo + 20, 1601)))
            acc += float(measures._pair_block(chunk, b, measures._sq_diff).sum())
        assert d == math.sqrt(acc)
        monkeypatch.setattr(measures, "_BLOCK_BYTES", 2**40)
        assert d == pytest.approx(ta.tree_distance(t1, t2, uniform), rel=1e-12, abs=0)


class TestEmpiricalBitsPinned:
    # float.hex of each result as first recorded: a faster route or sum
    # must keep every bit
    DISTANCE = "0x1.b515bc092567bp+1"
    COVARIANCE = "0x1.f4e4dab6c6afap-3"
    MATRIX = ("0x1.b515bc092567bp+1", "0x1.d9e955ccf5da7p+2", "0x1.d3759864b2b3ap+1",
              "0x1.9256bb0584a58p+2", "0x1.ca97cca39d39ep+1", "0x1.41e2b769e3effp+2")

    def test_numeric_categorical_and_hyperplane_splits_keep_their_bits(self, mixed_schema):
        """Four trees, each the sum of a seeded random tree and a hyperplane
        stump, so each holds all three split kinds."""
        rng = np.random.default_rng(11)
        trees = []
        for _ in range(4):
            tree = ta.random_tree(mixed_schema, rng, 6, value_range=(-5.0, 5.0))
            b = ta.TreeBuilder(mixed_schema)
            plane = ta.Hyperplane(tuple(rng.choice([-1.0, 1.0, 2.0], 2)), float(rng.uniform(-1, 1)))
            for nid in b.split_node(b.add_root(), plane):
                b.set_value(nid, Scalar(float(rng.uniform(-5, 5))))
            trees.append(ta.affine_combination([tree, b.build()], [1.0, 1.0]))
        assert all(ta.validate(t) == [] for t in trees)
        assert all(set(t.kind.tolist()) == {0, 1, 2, 3} for t in trees)
        emp = ta.Empirical(ta.oracle.sample_points(mixed_schema, ta.UniformBox(), 500, rng))
        assert ta.tree_distance(trees[0], trees[1], emp).hex() == self.DISTANCE
        assert ta.tree_covariance(trees[2], trees[3], emp).hex() == self.COVARIANCE
        D = ta.distance_matrix(trees, emp)
        assert tuple(D[i, j].hex() for i in range(4) for j in range(i + 1, 4)) == self.MATRIX

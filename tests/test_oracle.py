"""The brute-force references themselves: grid exactness, Monte Carlo
behavior, equivalence checking, and the fuzzer."""

import json

import numpy as np
import pytest

import treealgebra as ta
from treealgebra import io
from treealgebra.oracle import (
    CellGrid,
    iter_leaves_with_regions,
    node_region,
    route,
    sample_points,
)
from treealgebra.trees import Hyperplane, NumericThreshold, Region, Scalar, route_batch


class TestGridIntegral:
    def test_raw_value_matches_hand_computation(self, stump4, uniform):
        # cells (0,4] and (4,10] carry masses 0.4 and 0.6
        assert ta.grid_integral([stump4], "raw-value", uniform) == pytest.approx(
            0.6, abs=1e-15
        )

    def test_squared_difference_of_shifted_stumps(self, stump4, stump6, uniform):
        # three cells; the difference is 1 exactly on (4, 6]
        assert ta.grid_integral(
            [stump4, stump6], "squared-difference", uniform
        ) == pytest.approx(0.2, abs=1e-15)

    def test_zero_tree_self_product(self, make_constant, uniform):
        zero = make_constant(0.0)
        assert ta.grid_integral([zero, zero], "product", uniform) == 0.0

    def test_weighted_sum_then_square(self, stump4, stump6, uniform):
        got = ta.grid_integral(
            [stump4, stump6], "weighted-sum-then-square", uniform, weights=[1.0, -1.0]
        )
        assert got == pytest.approx(0.2, abs=1e-15)

    def test_refining_the_grid_never_changes_the_result(self, rng, uniform):
        for _ in range(10):
            schema = ta.random_schema(rng, max_features=3)
            t1 = ta.random_tree(schema, rng, 8)
            t2 = ta.random_tree(schema, rng, 8)
            base = ta.grid_integral([t1, t2], "squared-difference", uniform)
            grid = CellGrid.from_trees(schema, [t1, t2])
            extra = [
                [rng.uniform(f.low, f.high) for _ in range(3)]
                if isinstance(f, ta.NumericFeature)
                else []
                for f in schema.features
            ]
            refined = CellGrid.from_trees(schema, [t1, t2], extra_breakpoints=extra)
            assert refined.n_cells > grid.n_cells
            reps = refined.representatives()
            from treealgebra.trees import evaluate_batch

            d = evaluate_batch(t1, reps) - evaluate_batch(t2, reps)
            refined_value = float((d * d) @ refined.masses(uniform))
            assert abs(refined_value - base) <= 1e-12

    def test_empirical_masses_respect_boundaries(self, d2, stump4):
        # a point exactly on a threshold belongs to the left cell
        emp = ta.Empirical.from_rows(d2, [(4.0, 5.0), (9.0, 5.0)])
        grid = CellGrid.from_trees(d2, [stump4])
        masses = grid.masses(emp)
        assert masses.sum() == pytest.approx(1.0, abs=1e-15)
        assert ta.grid_integral([stump4], "raw-value", emp) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_hyperplane_trees_rejected(self, d2, uniform):
        b = ta.TreeBuilder(d2)
        left, right = b.split_node(b.add_root(), ta.Hyperplane((1.0, 1.0), 10.0))
        b.set_value(left, Scalar(0.0))
        b.set_value(right, Scalar(1.0))
        with pytest.raises(ta.UnsupportedGeometryError):
            ta.grid_integral([b.build()], "raw-value", uniform)

    def test_leaf_kind_is_checked_before_the_grid(self, d2, uniform):
        # the hyperplane would be rejected by the grid if it were built
        b = ta.TreeBuilder(d2)
        left, right = b.split_node(b.add_root(), ta.Hyperplane((1.0, 1.0), 10.0))
        b.set_value(left, ta.ClassProbs((0.5, 0.5)))
        b.set_value(right, ta.ClassProbs((1.0, 0.0)))
        with pytest.raises(ta.LeafKindError, match="^grid_integral needs scalar leaves$"):
            ta.grid_integral([b.build()], "raw-value", uniform)


class TestMonteCarlo:
    def test_class_probability_tree_is_a_leaf_kind_error(self, rng, uniform):
        schema = ta.random_schema(rng, max_features=2, class_labels=("a", "b"))
        probs = ta.random_tree(schema, rng, 3, "class_probs")
        scalar = ta.random_tree(schema, rng, 3)
        message = "^monte_carlo_integral needs scalar leaves$"
        for trees, combiner in (([probs], "raw-value"), ([scalar, probs], "squared-difference")):
            with pytest.raises(ta.LeafKindError, match=message):
                ta.monte_carlo_integral(trees, combiner, uniform, 1000, seed=0)
        # checked before the sample count
        with pytest.raises(ta.LeafKindError, match=message):
            ta.monte_carlo_integral([probs], "raw-value", uniform, 50, seed=0)

    def test_matches_grid_within_four_standard_errors(self, stump4, stump6, uniform):
        exact = ta.grid_integral([stump4, stump6], "squared-difference", uniform)
        est, se = ta.monte_carlo_integral(
            [stump4, stump6], "squared-difference", uniform, 100_000, seed=11
        )
        assert abs(est - exact) <= 4 * se

    def test_constant_zero_integrand(self, make_constant, uniform):
        zero = make_constant(0.0)
        est, se = ta.monte_carlo_integral([zero], "raw-value", uniform, 1000, seed=0)
        assert est == 0.0 and se == 0.0

    def test_seed_determinism(self, stump4, uniform):
        a = ta.monte_carlo_integral([stump4], "raw-value", uniform, 5000, seed=123)
        b = ta.monte_carlo_integral([stump4], "raw-value", uniform, 5000, seed=123)
        assert a == b

    def test_error_shrinks_like_root_n(self, stump4, stump6, uniform):
        _, se_small = ta.monte_carlo_integral(
            [stump4, stump6], "squared-difference", uniform, 1000, seed=5
        )
        _, se_big = ta.monte_carlo_integral(
            [stump4, stump6], "squared-difference", uniform, 100_000, seed=5
        )
        ratio = se_small / se_big
        assert 5.0 <= ratio <= 20.0  # ideal is 10

    def test_minimum_sample_count(self, stump4, uniform):
        with pytest.raises(ta.DomainError):
            ta.monte_carlo_integral([stump4], "raw-value", uniform, 50, seed=0)

    def test_empirical_resampling(self, d2, stump4):
        emp = ta.Empirical.from_rows(d2, [(1, 1), (9, 9)], weights=[0.25, 0.75])
        est, se = ta.monte_carlo_integral([stump4], "raw-value", emp, 50_000, seed=2)
        assert abs(est - 0.75) <= 4 * se


class TestPointwiseEquivalence:
    def test_combined_pair_passes(self, stump4, stump_y5):
        combined = ta.combine_pair(stump4, stump_y5)
        assert ta.pointwise_equivalence(combined, [stump4, stump_y5], 10_000, seed=0) is None

    def test_corrupted_leaf_is_reported(self, stump4, stump_y5, d2):
        combined = ta.combine_pair(stump4, stump_y5)
        # corrupt the leaf that covers a known interior point
        target = route(combined, d2.encode_point((2.0, 2.0)))
        doc = json.loads(io.tree_to_json(combined))
        entry = next(e for e in doc["nodes"] if e["id"] == target)
        entry["value"]["values"][0]["v"] = 42.0
        corrupted = io._tree_from_body(doc, d2, "")
        counterexample = ta.pointwise_equivalence(corrupted, [stump4, stump_y5], 10_000, seed=0)
        assert counterexample is not None
        assert counterexample.combined_value.values[0] == Scalar(42.0)
        assert counterexample.expected_values[0] == Scalar(0.0)

    def test_fuzzed_multiway_combination(self, rng):
        schema = ta.random_schema(rng, max_features=5)
        trees = [ta.random_tree(schema, rng, int(rng.integers(1, 15))) for _ in range(5)]
        combined = ta.combine_many(trees)
        assert ta.pointwise_equivalence(combined, trees, 5000, seed=7) is None


class TestFuzzer:
    def test_trees_validate_clean(self, rng):
        for _ in range(30):
            schema = ta.random_schema(rng)
            tree = ta.random_tree(schema, rng, int(rng.integers(1, 60)))
            assert ta.validate(tree) == []

    def test_split_count_honored(self, rng):
        schema = ta.random_schema(rng, max_features=6)
        tree = ta.random_tree(schema, rng, 30)
        assert tree.n_nodes == 61

    def test_depth_cap(self, rng):
        schema = ta.random_schema(rng, max_features=3)
        tree = ta.random_tree(schema, rng, 40, max_depth=4)
        # a built tree's node ids are its positions
        for leaf in np.flatnonzero(tree.left < 0):
            depth = 0
            nid = leaf
            while tree.parent[nid] >= 0:
                nid = tree.parent[nid]
                depth += 1
            assert depth <= 4

    def test_class_prob_leaves(self, rng):
        schema = ta.random_schema(rng, max_features=3, class_labels=("a", "b", "c"))
        tree = ta.random_tree(schema, rng, 10, leaf_kind="class_probs")
        assert ta.validate(tree) == []

    def test_sample_points_stay_in_domain(self, rng, uniform):
        schema = ta.random_schema(rng, max_features=6)
        X = sample_points(schema, uniform, 1000, rng)
        for j, f in enumerate(schema.features):
            if isinstance(f, ta.NumericFeature):
                assert (X[:, j] >= f.low).all() and (X[:, j] <= f.high).all()
            else:
                assert set(np.unique(X[:, j])) <= set(map(float, range(len(f.levels))))


class TestSparseUnsortedIds:
    """The oracle walks on a tree whose file lists its node ids out of
    order and with gaps: every id they return or take is a file id."""

    @pytest.fixture
    def sparse(self, tmp_path, d2):
        numeric = {"type": "numeric", "feature": 0, "threshold": 4.0}
        oblique = {"type": "hyperplane", "coeffs": [1.0, 1.0], "offset": 12.0}
        nodes = [{"id": 7, "split": numeric, "left": 2, "right": 11},
                 {"id": 2, "value": {"type": "scalar", "v": 1.0}},
                 {"id": 11, "split": oblique, "left": 4, "right": 9},
                 {"id": 4, "value": {"type": "scalar", "v": 2.0}},
                 {"id": 9, "value": {"type": "scalar", "v": 3.0}}]
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps({"schema": io._schema_to_dict(d2), "nodes": nodes, "root": 7}))
        return io.load_forest(str(path)).trees[0]

    def test_routing_returns_file_ids(self, sparse):
        X = np.array([[1.0, 9.0], [5.0, 5.0], [9.0, 9.0]])
        assert [route(sparse, x) for x in X] == [2, 4, 9]
        assert route_batch(sparse, X).tolist() == [2, 4, 9]

    def test_regions_are_named_by_file_ids(self, sparse, d2):
        full = Region.full(d2)
        left, right = full.split(NumericThreshold(0, 4.0))
        right_left, right_right = right.split(Hyperplane((1.0, 1.0), 12.0))
        expected = {7: full, 2: left, 11: right, 4: right_left, 9: right_right}
        assert list(iter_leaves_with_regions(sparse)) == [(k, expected[k]) for k in (2, 4, 9)]
        for nid, region in expected.items():
            assert node_region(sparse, nid) == region
        with pytest.raises(ta.UnknownNodeError, match="^no node with id 3$"):
            node_region(sparse, 3)

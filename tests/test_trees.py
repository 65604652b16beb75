"""Schema, routing, regions, and tree validation."""

import json
import re
import warnings

import numpy as np
import pytest

import treealgebra as ta
from treealgebra import io
from treealgebra.oracle import (
    contains_batch,
    goes_left,
    iter_leaves_with_regions,
    node_region,
    route,
)
from treealgebra.trees import Region, evaluate_batch, route_batch


def tree_from_nodes(schema, nodes, root):
    """A tree read from a file body that lists ``nodes``, so it may break
    any invariant that ``validate`` checks."""
    return io._tree_from_body({"nodes": nodes, "root": root}, schema, "")


def stump_from_body(schema, split):
    """A stump read from a file body whose root has the split document
    ``split``."""
    leaves = [{"id": k, "value": {"type": "scalar", "v": float(k)}} for k in (1, 2)]
    return tree_from_nodes(schema, [{"id": 0, "split": split, "left": 1, "right": 2}] + leaves, 0)


class TestSchema:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ta.SchemaError):
            ta.NumericFeature("x", 5.0, 5.0)
        with pytest.raises(ta.SchemaError):
            ta.NumericFeature("x", 0.0, float("inf"))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ta.SchemaError):
            ta.FeatureSchema((ta.NumericFeature("x", 0, 1), ta.NumericFeature("x", 0, 2)))

    def test_rejects_duplicate_levels(self):
        with pytest.raises(ta.SchemaError):
            ta.CategoricalFeature("c", ("a", "a"))

    def test_encode_decode_roundtrip(self):
        schema = ta.FeatureSchema(
            (ta.NumericFeature("x", 0, 1), ta.CategoricalFeature("c", ("a", "b")))
        )
        x = schema.encode_point((0.5, "b"))
        assert x == (0.5, 1.0)
        assert schema.decode_point(x) == (0.5, "b")

    def test_encode_rejects_out_of_domain(self):
        schema = ta.FeatureSchema((ta.NumericFeature("x", 0, 1),))
        with pytest.raises(ta.DomainError):
            schema.encode_point((1.5,))
        with pytest.raises(ta.DomainError):
            schema.encode_point((0.5, 0.5))

    def test_encode_points_equals_pointwise_encoding(self, rng):
        schema = ta.FeatureSchema(
            (ta.NumericFeature("x", -2, 3), ta.CategoricalFeature("c", ("a", "b", "c")))
        )
        rows = [(str(x), "abc"[k]) for x, k in zip(rng.uniform(-2, 3, 50), rng.integers(0, 3, 50))]
        rows += [(-2, 0), (3.0, 2), (np.float64(0.25), "b")]
        X = schema.encode_points(rows)
        assert X.shape == (53, 2)
        assert X.tolist() == [list(schema.encode_point(r)) for r in rows]
        assert schema.encode_points([]).shape == (0, 2)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([("0.5", "a"), ("abc", "a")], "feature 'x': 'abc' is not numeric"),
            ([("0.5", "a"), ("4", "a")], "feature 'x': 4.0 outside [-2.0, 3.0]"),
            ([("nan", "a")], "feature 'x': nan outside [-2.0, 3.0]"),
            ([("0.5", "zz")], "feature 'c': unknown level 'zz'"),
            # only the points reader strips its cells
            ([("0.5", " a")], "feature 'c': unknown level ' a'"),
            ([("0.5", 7)], "feature 'c': bad level index 7"),
            ([("0.5", "a", "b")], "point has 3 values, schema has 2 features"),
            # the first bad value in row-major order is named
            ([("0.5", "zz"), ("abc", "a")], "feature 'c': unknown level 'zz'"),
            ([("0.5", "a"), ("0.5",), ("abc", "a")], "point has 1 values, schema has 2 features"),
        ],
    )
    def test_encode_points_names_the_first_bad_value(self, rows, message):
        schema = ta.FeatureSchema(
            (ta.NumericFeature("x", -2, 3), ta.CategoricalFeature("c", ("a", "b", "c")))
        )
        with pytest.raises(ta.DomainError) as err:
            schema.encode_points(rows)
        assert str(err.value) == message


class TestEvaluate:
    def test_routes_left_below_threshold(self, stump4):
        assert ta.evaluate(stump4, (3, 9)) == ta.Scalar(0.0)

    def test_boundary_belongs_to_left(self, stump4):
        assert ta.evaluate(stump4, (4, 0)) == ta.Scalar(0.0)

    def test_routes_right_above_threshold(self, stump4):
        assert ta.evaluate(stump4, (7, 2)) == ta.Scalar(1.0)

    def test_out_of_domain_rejected(self, stump4):
        with pytest.raises(ta.DomainError):
            ta.evaluate(stump4, (11, 0))
        with pytest.raises(ta.DomainError):
            ta.evaluate(stump4, (1,))

    def test_routing_reads_the_node_columns(self, monkeypatch, on_plane):
        """evaluate and evaluate_batch compare a numeric split's column with
        its threshold and never build the whole-tree split list; on a tree
        of all three split kinds they reach the reference's leaf, also from
        points exactly on a threshold or on the hyperplane."""
        schema = ta.FeatureSchema((ta.NumericFeature("x0", 0, 1), ta.NumericFeature("x1", 0, 1),
                                   ta.CategoricalFeature("c", ("a", "b", "c"))))
        b = ta.TreeBuilder(schema)
        left, right = b.split_node(b.add_root(), ta.NumericThreshold(0, 0.5))
        cat_left, cat_right = b.split_node(left, ta.CategoricalSubset(2, {0, 2}))
        plane = (1.0, -1.0)
        ends = b.split_node(right, ta.Hyperplane(plane, on_plane(plane, (0.75, 0.25))))
        ends += b.split_node(cat_left, ta.NumericThreshold(1, 0.25)) + (cat_right,)
        for k, nid in enumerate(ends):
            b.set_value(nid, ta.Scalar(float(k)))
        tree = b.build()  # its node ids are its positions
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        X = np.array([[x0, x1, c] for x0 in grid for x1 in grid for c in (0.0, 1.0, 2.0)])
        want = [route(tree, x) for x in X]
        assert len(set(want)) == len(ends)
        values = tree.leaves.values[tree.leaf[want], 0].tolist()

        def splits(self):
            raise AssertionError("routing built the split list")

        monkeypatch.setattr(ta.Tree, "splits", splits)
        assert route_batch(tree, X).tolist() == want
        assert evaluate_batch(tree, X).tolist() == values
        for x, value in zip(X, values):
            assert ta.evaluate(tree, schema.decode_point(x)) == ta.Scalar(value)

    def test_categorical_code_truncates_and_out_of_range_goes_right(self):
        """A categorical split reads a code truncated toward zero, and a code
        outside the levels goes right: negative, too large, NaN or inf."""
        schema = ta.FeatureSchema([ta.CategoricalFeature("c", ("a", "b", "c", "d"))])
        b = ta.TreeBuilder(schema)
        left, right = b.split_node(b.add_root(), ta.CategoricalSubset(0, {0, 1, 3}))
        left_left, left_right = b.split_node(left, ta.CategoricalSubset(0, {1, 3}))
        for nid, v in ((left_left, 1.0), (left_right, 2.0), (right, 3.0)):
            b.set_value(nid, ta.Scalar(v))
        tree = b.build()
        codes = np.array([[-1.0], [-0.5], [0.0], [1.5], [3.0], [4.0], [7.0], [np.nan], [np.inf]])
        want = [right, left_right, left_right, left_left, left_left, right, right, right, right]
        # casting NaN and inf to int64 warns; the cast is what routing reads
        with np.errstate(invalid="ignore"):
            assert route_batch(tree, codes).tolist() == want
            assert evaluate_batch(tree, codes).tolist() == [
                3.0, 2.0, 2.0, 1.0, 1.0, 3.0, 3.0, 3.0, 3.0]
            assert route_batch(tree, codes[:7].astype(np.int64)).tolist() == want[:7]

    def test_batch_matches_pointwise(self, rng):
        schema = ta.random_schema(rng, max_features=5)
        tree = ta.random_tree(schema, rng, 20)
        X = np.array([
            [rng.uniform(f.low, f.high) if isinstance(f, ta.NumericFeature)
             else float(rng.integers(0, len(f.levels)))
             for f in schema.features]
            for _ in range(200)
        ])
        batch = evaluate_batch(tree, X)
        for i in range(len(X)):  # a built tree's node ids are its positions
            assert batch[i] == tree.leaves.values[tree.leaf[route(tree, X[i])], 0]


class TestHyperplaneRouting:
    def test_points_on_hyperplanes_reach_one_leaf_on_every_path(self, rng, on_plane):
        """Each hyperplane passes exactly through a sample point that reaches
        its node, when one does; evaluate, routing a point alone or with all
        the others, and the point-at-a-time reference all pick the same leaf."""
        checked = 0
        for p in range(2, 9):
            schema = ta.FeatureSchema(
                tuple(ta.NumericFeature(f"x{j}", -1.0, 1.0) for j in range(p))
            )
            for _ in range(3):
                X = rng.uniform(-1.0, 1.0, (30, p))
                b = ta.TreeBuilder(schema)
                # breadth first: each open node and the rows the reference routes to it
                frontier = [(b.add_root(), np.arange(len(X)))]
                for _ in range(12):
                    nid, rows = frontier.pop(0)
                    coeffs = rng.normal(size=p)
                    point = X[rng.choice(rows)] if rows.size else X[0]
                    split = ta.Hyperplane(tuple(coeffs), on_plane(coeffs, point))
                    left = np.array([goes_left(split, X[i], schema) for i in rows], dtype=bool)
                    lw, rw = b.split_node(nid, split)
                    frontier += [(lw, rows[left]), (rw, rows[~left])]
                for k, (nid, _) in enumerate(frontier):
                    b.set_value(nid, ta.Scalar(float(k)))
                tree = b.build()  # its node ids are its positions
                together = route_batch(tree, X)
                for i, x in enumerate(X):
                    leaf = route(tree, x)
                    assert together[i] == leaf
                    assert route_batch(tree, X[i : i + 1])[0] == leaf
                    assert ta.evaluate(tree, tuple(x)) == tree.leaves.value(tree.leaf[leaf])
                    checked += 1
        assert checked == 7 * 3 * 30


class TestNodeRegion:
    def test_root_region_is_domain(self, stump4, d2):
        assert node_region(stump4, stump4.root) == Region.full(d2)

    def test_left_leaf_interval_closed_at_threshold(self, stump4):
        left = int(stump4.left[stump4.root_pos])
        region = node_region(stump4, left)
        assert region.constraints[0] == (0.0, 4.0, True)
        assert region.constraints[1] == (0.0, 10.0, True)

    def test_right_leaf_interval_open_at_threshold(self, stump4):
        right = int(stump4.right[stump4.root_pos])
        region = node_region(stump4, right)
        assert region.constraints[0] == (4.0, 10.0, False)

    def test_unknown_node(self, stump4):
        with pytest.raises(ta.UnknownNodeError):
            node_region(stump4, 99)


class TestValidate:
    def test_valid_stump(self, stump4):
        assert ta.validate(stump4) == []

    def test_leaf_without_value(self, stump4, d2):
        b = ta.TreeBuilder(d2)
        left, right = b.split_node(b.add_root(), ta.NumericThreshold(0, 4.0))
        b.set_value(left, ta.Scalar(0.0))
        broken = b.build()
        assert any("leaf without value" in v for v in ta.validate(broken))

    def test_split_outside_domain_does_not_partition(self, make_stump):
        tree = make_stump(0, 12.0)
        assert any("does not partition" in v for v in ta.validate(tree))

    def test_split_at_the_domain_ends(self, make_stump):
        # x <= 10 leaves nothing on the right of [0, 10]; x <= 0 keeps the
        # point 0 on the left, since the domain's lower end is closed
        assert ta.validate(make_stump(0, 10.0)) == ["node 0: split does not partition node region"]
        assert ta.validate(make_stump(0, 0.0)) == []

    def test_unreachable_node(self, stump4, d2):
        nodes = json.loads(io.tree_to_json(stump4))["nodes"]
        nodes.append({"id": 77, "value": {"type": "scalar", "v": 3.0}})
        broken = tree_from_nodes(d2, nodes, stump4.root)
        messages = ta.validate(broken)
        assert any("unreachable" in v for v in messages)

    def test_mixed_leaf_kinds(self, stump4, d2):
        b = ta.TreeBuilder(d2)
        left, right = b.split_node(b.add_root(), ta.NumericThreshold(0, 4.0))
        b.set_value(left, ta.Scalar(0.0))
        b.set_value(right, ta.ClassProbs((0.5, 0.5)))
        broken = b.build()
        assert any("mix kinds" in v for v in ta.validate(broken))

    def test_bad_class_probs(self, d2):
        schema = ta.FeatureSchema(d2.features, ("a", "b"))
        b = ta.TreeBuilder(schema)
        b.set_value(b.add_root(), ta.ClassProbs((0.5, 0.3)))
        assert any("sum 0.8" in v for v in ta.validate(b.build()))

    def test_class_probability_count_must_match_the_labels(self, d2):
        schema = ta.FeatureSchema(d2.features, ("a", "b"))
        b = ta.TreeBuilder(schema)
        left, right = b.split_node(b.add_root(), ta.NumericThreshold(0, 4.0))
        b.set_value(left, ta.ClassProbs((0.2, 0.3, 0.5)))
        b.set_value(right, ta.ClassProbs((0.2, 0.3, 0.5)))
        assert ta.validate(b.build()) == ["node 1: 3 probabilities for 2 class labels",
                                          "node 2: 3 probabilities for 2 class labels"]

    def test_class_probability_lengths_mixed_without_labels(self, d2):
        b = ta.TreeBuilder(d2)
        left, right = b.split_node(b.add_root(), ta.NumericThreshold(0, 4.0))
        b.set_value(left, ta.ClassProbs((0.5, 0.5)))
        b.set_value(right, ta.ClassProbs((0.2, 0.3, 0.5)))
        assert ta.validate(b.build()) == ["class-probability leaves mix lengths [2, 3]"]

    def test_numeric_split_with_no_room_left_by_a_hyperplane(self, unit2):
        # below x0 + x1 <= 0.5 no point has x0 > 0.9, though the box does
        b = ta.TreeBuilder(unit2)
        left, right = b.split_node(b.add_root(), ta.Hyperplane((1.0, 1.0), 0.5))
        b.set_value(right, ta.Scalar(2.0))
        left_left, left_right = b.split_node(left, ta.NumericThreshold(0, 0.9))
        b.set_value(left_left, ta.Scalar(0.0))
        b.set_value(left_right, ta.Scalar(1.0))
        assert ta.validate(b.build()) == [
            f"node {left}: split does not partition node region"
        ]

    # a builder refuses these thresholds, so the stumps are read from a file body

    def test_nan_threshold_is_named(self, d2):
        tree = stump_from_body(d2, {"type": "numeric", "feature": 0, "threshold": float("nan")})
        assert ta.validate(tree) == ["node 0: split threshold is NaN"]

    def test_infinite_threshold_is_named(self, d2):
        tree = stump_from_body(d2, {"type": "numeric", "feature": 0, "threshold": float("inf")})
        assert ta.validate(tree) == ["node 0: split threshold is infinite"]

    @pytest.mark.parametrize(
        "coefficients, offset, message",
        [
            ((float("nan"), 1.0), 0.5, "node 0: hyperplane coefficient is not finite"),
            ((float("inf"), 1.0), 0.5, "node 0: hyperplane coefficient is not finite"),
            ((1.0, 1.0), float("nan"), "node 0: hyperplane offset is not finite"),
            ((1.0, 1.0), float("-inf"), "node 0: hyperplane offset is not finite"),
            # each product is finite on [0, 1], their sum is not
            ((1e308, 1e308), 0.5, "node 0: hyperplane overflows on the domain box"),
            ((1e308, 1.0), -1e308, "node 0: hyperplane overflows on the domain box"),
        ],
    )
    def test_non_finite_hyperplane_is_named(self, unit2, coefficients, offset, message):
        # a builder refuses these hyperplanes, so the stumps are read from a file body
        tree = stump_from_body(unit2, {"type": "hyperplane", "coeffs": list(coefficients),
                                       "offset": offset})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no simplex on NaN rows
            assert ta.validate(tree) == [message]

    def test_non_finite_leaf_values_are_named(self, make_stump, d2):
        assert ta.validate(make_stump(0, 4.0, high=float("nan"))) == [
            "node 2: leaf value is not finite"
        ]
        assert ta.validate(make_stump(0, 4.0, low=float("-inf"))) == [
            "node 1: leaf value is not finite"
        ]
        schema = ta.FeatureSchema(d2.features, ("a", "b"))
        b = ta.TreeBuilder(schema)
        b.set_value(b.add_root(), ta.ClassProbs((float("nan"), 1.0)))
        assert ta.validate(b.build()) == ["node 0: class probability is not finite"]
        pair = ta.TupleValue((ta.Scalar(1.0), ta.Scalar(float("inf"))), (0, 1))
        b = ta.TreeBuilder(d2)
        b.set_value(b.add_root(), pair)
        assert ta.validate(b.build()) == ["node 0: leaf value is not finite"]

    def test_cycle_of_consistent_links_terminates(self, unit2):
        # 0 -> 1 -> 0 through identical hyperplanes: node 1 repeats node 0's
        # on the side the path took, so it leaves its right side empty
        h = {"type": "hyperplane", "coeffs": [1.0, 1.0], "offset": 1.0}
        nodes = [
            {"id": 0, "split": h, "left": 1, "right": 2},
            {"id": 1, "split": h, "left": 0, "right": 3},
            {"id": 2, "value": {"type": "scalar", "v": 1.0}},
            {"id": 3, "value": {"type": "scalar", "v": 2.0}},
        ]
        messages = ta.validate(tree_from_nodes(unit2, nodes, 0))
        assert messages == ["expected exactly one parentless node 0, found []",
                            "node 1: split does not partition node region"]
        # through two hyperplanes that cut each other's regions, only the
        # once-per-node rule ends the geometric pass
        nodes[1]["split"] = {"type": "hyperplane", "coeffs": [1.0, -1.0], "offset": 0.0}
        messages = ta.validate(tree_from_nodes(unit2, nodes, 0))
        assert messages == ["expected exactly one parentless node 0, found []"]

    def test_fuzzer_trees_are_clean(self, rng):
        for _ in range(25):
            schema = ta.random_schema(rng, max_features=6)
            tree = ta.random_tree(schema, rng, int(rng.integers(1, 40)))
            assert ta.validate(tree) == []


class TestRegionPartitions:
    """Every in-domain point lands in exactly one leaf region, and child
    regions partition their parent's region."""

    def _random_points(self, schema, rng, n):
        cols = []
        for f in schema.features:
            if isinstance(f, ta.NumericFeature):
                cols.append(rng.uniform(f.low, f.high, n))
            else:
                cols.append(rng.integers(0, len(f.levels), n).astype(float))
        return np.column_stack(cols)

    def test_leaf_regions_partition_domain(self, rng):
        for _ in range(10):
            schema = ta.random_schema(rng, max_features=5)
            tree = ta.random_tree(schema, rng, int(rng.integers(1, 30)))
            X = self._random_points(schema, rng, 300)
            inside = {nid: contains_batch(r, X) for nid, r in iter_leaves_with_regions(tree)}
            for i in range(len(X)):
                hits = [nid for nid, mask in inside.items() if mask[i]]
                assert hits == [route(tree, X[i])]

    def test_children_partition_parent(self, rng):
        schema = ta.random_schema(rng, max_features=4)
        tree = ta.random_tree(schema, rng, 15)
        X = self._random_points(schema, rng, 500)
        for i in np.flatnonzero(tree.left >= 0):
            region = node_region(tree, tree.ids[i])
            left = node_region(tree, tree.left[i])
            right = node_region(tree, tree.right[i])
            inside = contains_batch(region, X)
            in_left = contains_batch(left, X)
            in_right = contains_batch(right, X)
            assert ((in_left.astype(int) + in_right.astype(int)) == inside.astype(int)).all()


class TestNumericSplitBoundaries:
    """Region.split of ``x <= t`` at each end of a numeric side of the box."""

    @pytest.fixture
    def line(self):
        return Region.full(ta.FeatureSchema((ta.NumericFeature("x", 0.0, 10.0),)))

    def test_left_keeps_the_closed_lower_end_and_right_is_open_at_t(self, line):
        left, right = line.split(ta.NumericThreshold(0, 4.0))
        assert left.constraints == ((0.0, 4.0, True),)
        assert right.constraints == ((4.0, 10.0, False),)

    def test_threshold_at_or_above_high_leaves_the_region_left(self, line):
        for t in (10.0, 12.0):
            left, right = line.split(ta.NumericThreshold(0, t))
            assert left is line and right is None

    def test_threshold_below_low_leaves_the_region_right(self, line):
        left, right = line.split(ta.NumericThreshold(0, -1.0))
        assert left is None and right is line

    def test_threshold_on_a_closed_lower_end_splits_off_the_point(self, line):
        left, right = line.split(ta.NumericThreshold(0, 0.0))
        assert left.constraints == ((0.0, 0.0, True),)
        assert right.constraints == ((0.0, 10.0, False),)
        assert left.split(ta.NumericThreshold(0, -1.0)) == (None, left)
        assert left.split(ta.NumericThreshold(0, 0.0)) == (left, None)

    def test_threshold_on_an_open_lower_end_leaves_no_left_side(self, line):
        right = line.split(ta.NumericThreshold(0, 4.0))[1]
        left, same = right.split(ta.NumericThreshold(0, 4.0))
        assert left is None and same is right

    def test_sides_hold_the_points_that_route_to_them(self, line):
        X = np.array([[0.0], [2.0], [4.0], [7.0], [10.0]])
        regions = [line, *line.split(ta.NumericThreshold(0, 4.0)),
                   line.split(ta.NumericThreshold(0, 0.0))[0]]
        for region in regions:
            inside = contains_batch(region, X)
            for t in (-1.0, 0.0, 2.0, 4.0, 10.0, 12.0):
                split = ta.NumericThreshold(0, t)
                go = np.array([goes_left(split, x, region.schema) for x in X])
                for side, expected in zip(region.split(split), (inside & go, inside & ~go)):
                    got = np.zeros(len(X), dtype=bool) if side is None else contains_batch(side, X)
                    assert got.tolist() == expected.tolist(), (region, t)


def _split_document(split):
    """A split in the form a tree file gives it."""
    if isinstance(split, ta.NumericThreshold):
        return {"type": "numeric", "feature": split.feature, "threshold": split.threshold}
    if isinstance(split, ta.CategoricalSubset):
        return {"type": "categorical", "feature": split.feature,
                "left_levels": sorted(split.left_levels)}
    return {"type": "hyperplane", "coeffs": list(split.coefficients), "offset": split.offset}


class TestSplitsFitTheSchema:
    """A split enters a tree only without a fault that validate names: the
    builder and Region.split refuse it in validate's words, naming the
    first, and leave the node a leaf."""

    @pytest.mark.parametrize("split, texts", [
        (ta.Hyperplane((1.0, 1.0), 5.0), ["hyperplane arity != number of numeric features"]),
        (ta.Hyperplane((1.0, 1.0, 1.0), 5.0), ["hyperplane arity != number of numeric features"]),
        (ta.Hyperplane((float("nan"),), 5.0), ["hyperplane coefficient is not finite"]),
        (ta.Hyperplane((float("inf"),), 5.0), ["hyperplane coefficient is not finite"]),
        (ta.Hyperplane((1.0,), float("nan")), ["hyperplane offset is not finite"]),
        (ta.Hyperplane((1.0,), float("-inf")), ["hyperplane offset is not finite"]),
        # each term is finite on [0, 1], their sum is not
        (ta.Hyperplane((1e308,), -1e308), ["hyperplane overflows on the domain box"]),
        (ta.Hyperplane((1.0, float("nan")), 5.0),
         ["hyperplane arity != number of numeric features", "hyperplane coefficient is not finite"]),
        (ta.NumericThreshold(1, 0.5), ["numeric split on categorical feature"]),
        (ta.NumericThreshold(5, 0.5), ["split feature index 5 out of range"]),
        (ta.NumericThreshold(-1, 0.5), ["split feature index -1 out of range"]),
        (ta.CategoricalSubset(0, {0}), ["categorical split on numeric feature"]),
        (ta.CategoricalSubset(2, {0}), ["split feature index 2 out of range"]),
        (ta.NumericThreshold(0, float("nan")), ["split threshold is NaN"]),
        (ta.NumericThreshold(0, float("inf")), ["split threshold is infinite"]),
        (ta.NumericThreshold(0, -float("inf")), ["split threshold is infinite"]),
        (ta.CategoricalSubset(1, set()), ["empty left level set"]),
        (ta.CategoricalSubset(1, {5}), ["left levels not a proper subset of the levels"]),
        (ta.CategoricalSubset(1, {0, 5}), ["left levels not a proper subset of the levels"]),
        (ta.CategoricalSubset(1, {0, 1}), ["left levels not a proper subset of the levels"]),
    ])
    def test_a_split_with_a_fault_is_refused_in_the_words_of_validate(self, split, texts):
        schema = ta.FeatureSchema((ta.NumericFeature("x", 0, 1),
                                   ta.CategoricalFeature("c", ("a", "b"))))
        assert ta.validate(stump_from_body(schema, _split_document(split))) == [
            f"node 0: {text}" for text in texts]
        b = ta.TreeBuilder(schema)
        root = b.add_root()
        with pytest.raises(ta.SchemaError, match=f"^{re.escape(texts[0])}$"):
            b.split_node(root, split)
        with pytest.raises(ta.SchemaError, match=f"^{re.escape(texts[0])}$"):
            Region.full(schema).split(split)
        # the node stays a leaf
        b.set_value(root, ta.Scalar(1.0))
        assert ta.validate(b.build()) == []


class TestLeafTables:
    def test_kind_is_tuple_with_sources_else_the_entry_and_none_when_ragged(self, d2):
        def leaves(*values):
            b = ta.TreeBuilder(d2)
            nodes = b.split_node(b.add_root(), ta.NumericThreshold(0, 4.0))
            for nid, value in zip(nodes, values):
                b.set_value(nid, value)
            return b.build().leaves

        pair = ta.TupleValue((ta.Scalar(1.0), ta.Scalar(2.0)), (0, 1))
        for table, kind, entry in (
            (leaves(ta.Scalar(0.0), ta.Scalar(1.0)), "scalar", "scalar"),
            (leaves(ta.ClassProbs((0.5, 0.5)), ta.ClassProbs((1.0, 0.0))),
             "class_probs", "class_probs"),
            (leaves(pair, pair), "tuple", "scalar"),
            (leaves(ta.Scalar(0.0), ta.ClassProbs((0.5, 0.5))), None, None),
        ):
            assert (table.kind, table.entry) == (kind, entry)
            assert (table.ragged is None) == (kind is not None)

"""Schema, routing, regions, and tree validation."""

import warnings

import numpy as np
import pytest

import treealgebra as ta
from treealgebra.trees import (
    Interval,
    Node,
    Region,
    Side,
    evaluate_batch,
    iter_leaves_with_regions,
    route,
)


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
        for i in range(len(X)):
            assert batch[i] == tree.nodes[route(tree, X[i])].value.value


class TestNodeRegion:
    def test_root_region_is_domain(self, stump4, d2):
        assert ta.node_region(stump4, stump4.root) == Region.full(d2)

    def test_left_leaf_interval_closed_at_threshold(self, stump4):
        left = stump4.nodes[stump4.root].left
        region = ta.node_region(stump4, left)
        assert region.constraints[0] == Interval(0.0, 4.0, True, True)
        assert region.constraints[1] == Interval(0.0, 10.0, True, True)

    def test_right_leaf_interval_open_at_threshold(self, stump4):
        right = stump4.nodes[stump4.root].right
        region = ta.node_region(stump4, right)
        assert region.constraints[0] == Interval(4.0, 10.0, False, True)

    def test_unknown_node(self, stump4):
        with pytest.raises(ta.UnknownNodeError):
            ta.node_region(stump4, 99)


class TestValidate:
    def test_valid_stump(self, stump4):
        assert ta.validate(stump4) == []

    def test_leaf_without_value(self, stump4, d2):
        nodes = dict(stump4.nodes)
        right = nodes[stump4.root].right
        nodes[right] = Node(parent=stump4.root)
        broken = ta.Tree(d2, nodes, stump4.root)
        assert any("leaf without value" in v for v in ta.validate(broken))

    def test_split_outside_domain_does_not_partition(self, make_stump):
        tree = make_stump(0, 12.0)
        assert any("does not partition" in v for v in ta.validate(tree))

    def test_unreachable_node(self, stump4, d2):
        nodes = dict(stump4.nodes)
        nodes[77] = Node(parent=stump4.root, value=ta.Scalar(3.0))
        broken = ta.Tree(d2, nodes, stump4.root)
        messages = ta.validate(broken)
        assert any("unreachable" in v for v in messages)

    def test_mixed_leaf_kinds(self, stump4, d2):
        nodes = dict(stump4.nodes)
        right = nodes[stump4.root].right
        nodes[right] = Node(parent=stump4.root, value=ta.ClassProbs((0.5, 0.5)))
        broken = ta.Tree(d2, nodes, stump4.root)
        assert any("mix kinds" in v for v in ta.validate(broken))

    def test_bad_class_probs(self, d2):
        schema = ta.FeatureSchema(d2.features, ("a", "b"))
        b = ta.TreeBuilder(schema)
        b.set_value(b.add_root(), ta.ClassProbs((0.5, 0.3)))
        assert any("sum 0.8" in v for v in ta.validate(b.build()))

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

    def test_nan_threshold_is_named(self, make_stump):
        tree = make_stump(0, float("nan"))
        assert ta.validate(tree) == ["node 0: split threshold is NaN"]

    def test_infinite_threshold_is_named(self, make_stump):
        tree = make_stump(0, float("inf"))
        assert ta.validate(tree) == ["node 0: split threshold is infinite"]

    @pytest.mark.parametrize(
        "coefficients, offset, message",
        [
            ((float("nan"), 1.0), 0.5, "node 0: hyperplane coefficient is not finite"),
            ((float("inf"), 1.0), 0.5, "node 0: hyperplane coefficient is not finite"),
            ((1.0, 1.0), float("nan"), "node 0: hyperplane offset is not finite"),
            ((1.0, 1.0), float("-inf"), "node 0: hyperplane offset is not finite"),
        ],
    )
    def test_non_finite_hyperplane_is_named(self, unit2, coefficients, offset, message):
        b = ta.TreeBuilder(unit2)
        left, right = b.split_node(b.add_root(), ta.Hyperplane(coefficients, offset))
        b.set_value(left, ta.Scalar(0.0))
        b.set_value(right, ta.Scalar(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no simplex on NaN rows
            assert ta.validate(b.build()) == [message]

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
        # 0 -> 1 -> 0 through identical hyperplanes, which keep touching the
        # region, so only the once-per-node rule ends the geometric pass
        h = ta.Hyperplane((1.0, 1.0), 1.0)
        nodes = {
            0: Node(parent=1, split=h, left=1, right=2),
            1: Node(parent=0, split=h, left=0, right=3),
            2: Node(parent=0, value=ta.Scalar(1.0)),
            3: Node(parent=1, value=ta.Scalar(2.0)),
        }
        messages = ta.validate(ta.Tree(unit2, nodes, 0))
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
            regions = dict(iter_leaves_with_regions(tree))
            for i in range(len(X)):
                hits = [nid for nid, r in regions.items() if r.contains(X[i])]
                assert len(hits) == 1
                assert tree.nodes[hits[0]].value == tree.nodes[route(tree, X[i])].value

    def test_children_partition_parent(self, rng):
        schema = ta.random_schema(rng, max_features=4)
        tree = ta.random_tree(schema, rng, 15)
        X = self._random_points(schema, rng, 500)
        for nid, node in tree.nodes.items():
            if node.left is None:
                continue
            region = ta.node_region(tree, nid)
            left = ta.node_region(tree, node.left)
            right = ta.node_region(tree, node.right)
            inside = region.contains_batch(X)
            in_left = left.contains_batch(X)
            in_right = right.contains_batch(X)
            assert ((in_left.astype(int) + in_right.astype(int)) == inside.astype(int)).all()


class TestInterval:
    def test_point_interval_needs_closed_ends(self):
        Interval(2.0, 2.0, True, True)
        with pytest.raises(ta.DomainError):
            Interval(2.0, 2.0, True, False)
        with pytest.raises(ta.DomainError):
            Interval(3.0, 2.0, True, True)

    def test_clip_le_keeps_flags(self):
        iv = Interval(0.0, 10.0, True, True)
        assert iv.clip_le(4.0) == Interval(0.0, 4.0, True, True)
        assert iv.clip_le(12.0) is iv
        assert iv.clip_gt(4.0) == Interval(4.0, 10.0, False, True)
        assert iv.clip_gt(-1.0) is iv
        assert iv.clip_gt(10.0) is None
        open_low = Interval(4.0, 10.0, False, True)
        assert open_low.clip_le(4.0) is None

"""Partition predicates, identical-split detection, measures, and the
hyperplane-polyhedron LP test."""

import itertools

import numpy as np
import pytest

import treealgebra as ta
from treealgebra.geometry import (
    Empirical,
    HyperplaneTestResult,
    PartitionOutcome,
    hyperplane_intersects_polyhedron,
    region_measure,
    same_partition_in_region,
    split_partitions_region,
)
from treealgebra.trees import Hyperplane, NumericThreshold, Region, Side

SPLITS = PartitionOutcome.SPLITS_REGION
IN_LEFT = PartitionOutcome.REGION_IN_LEFT
IN_RIGHT = PartitionOutcome.REGION_IN_RIGHT


class TestSplitPartitionsRegion:
    def test_threshold_inside_box(self, d2):
        assert split_partitions_region(NumericThreshold(0, 4.0), Region.full(d2)) is SPLITS

    def test_region_right_of_threshold(self, d2):
        region = Region.full(d2).try_refine(NumericThreshold(0, 6.0), Side.RIGHT)
        assert split_partitions_region(NumericThreshold(0, 4.0), region) is IN_RIGHT

    def test_region_left_of_threshold_boundary_closed(self, d2):
        region = Region.full(d2).try_refine(NumericThreshold(0, 4.0), Side.LEFT)
        assert split_partitions_region(NumericThreshold(0, 4.0), region) is IN_LEFT

    def test_categorical(self):
        schema = ta.FeatureSchema((ta.CategoricalFeature("c", ("a", "b", "c")),))
        region = Region.full(schema)
        split = ta.CategoricalSubset(0, frozenset({0}))
        assert split_partitions_region(split, region) is SPLITS
        left = region.try_refine(split, Side.LEFT)
        assert split_partitions_region(ta.CategoricalSubset(0, frozenset({0, 1})), left) is IN_LEFT

    def test_hyperplane_delegates_to_lp(self, d2):
        region = Region.full(d2)
        assert split_partitions_region(Hyperplane((1.0, 1.0), 10.0), region) is SPLITS
        assert split_partitions_region(Hyperplane((1.0, 1.0), 25.0), region) is IN_LEFT
        assert split_partitions_region(Hyperplane((1.0, 1.0), -5.0), region) is IN_RIGHT

    def test_kind_mismatch(self, d2):
        with pytest.raises(ta.SchemaError):
            split_partitions_region(ta.CategoricalSubset(0, frozenset({0})), Region.full(d2))


class TestSamePartitionInRegion:
    def test_identical_same_orientation(self, d2):
        out = same_partition_in_region(
            NumericThreshold(0, 4.0), NumericThreshold(0, 4.0), Region.full(d2)
        )
        assert out == "same"

    def test_identical_swapped_categorical(self):
        schema = ta.FeatureSchema((ta.CategoricalFeature("c", ("a", "b", "c")),))
        out = same_partition_in_region(
            ta.CategoricalSubset(0, frozenset({0})),
            ta.CategoricalSubset(0, frozenset({1, 2})),
            Region.full(schema),
        )
        assert out == "swapped"

    def test_identical_categorical_restricted_to_region(self):
        # left sets differ as sets but agree inside the region
        schema = ta.FeatureSchema((ta.CategoricalFeature("c", ("a", "b", "c", "d")),))
        region = Region.full(schema).try_refine(
            ta.CategoricalSubset(0, frozenset({0, 1})), Side.LEFT
        )
        split_u = ta.CategoricalSubset(0, frozenset({0}))
        split_v = ta.CategoricalSubset(0, frozenset({0, 2}))
        assert same_partition_in_region(split_u, split_v, region) == "same"
        assert same_partition_in_region(split_u, split_v, Region.full(schema)) is None

    def test_swap_symmetry(self, d2, rng):
        """Swapping the arguments never changes the answer."""
        region = Region.full(d2)
        seen = set()
        for _ in range(200):
            u = NumericThreshold(int(rng.integers(0, 2)), float(rng.choice([2.0, 4.0, 6.0])))
            v = NumericThreshold(int(rng.integers(0, 2)), float(rng.choice([2.0, 4.0, 6.0])))
            out_uv = same_partition_in_region(u, v, region)
            assert same_partition_in_region(v, u, region) == out_uv
            seen.add(out_uv)
        schema = ta.FeatureSchema((ta.CategoricalFeature("c", ("a", "b", "c", "d")),))
        region = Region.full(schema)

        def subset():
            levels = rng.choice(4, int(rng.integers(1, 4)), replace=False)
            return ta.CategoricalSubset(0, frozenset(levels.tolist()))

        for _ in range(200):
            u, v = subset(), subset()
            out_uv = same_partition_in_region(u, v, region)
            assert same_partition_in_region(v, u, region) == out_uv
            seen.add(out_uv)
        assert seen == {"same", "swapped", None}


class TestRegionMeasure:
    def test_strip_measure(self, d2, uniform):
        region = (
            Region.full(d2)
            .try_refine(NumericThreshold(0, 4.0), Side.RIGHT)
            .try_refine(NumericThreshold(0, 6.0), Side.LEFT)
        )
        assert region_measure(region, uniform) == 0.2

    def test_full_box_measure(self, d2, uniform):
        assert region_measure(Region.full(d2), uniform) == 1.0

    def test_empirical_counts_points(self, d2):
        emp = Empirical.from_rows(d2, [(1, 0), (5, 0), (9, 0)])
        region = Region.full(d2).try_refine(NumericThreshold(0, 4.0), Side.RIGHT)
        assert region_measure(region, emp) == pytest.approx(2 / 3, abs=1e-15)

    def test_uniform_rejects_half_spaces(self, d2, uniform):
        region = Region.full(d2).try_refine(Hyperplane((1.0, 1.0), 10.0), Side.LEFT)
        with pytest.raises(ta.UnsupportedGeometryError):
            region_measure(region, uniform)

    def test_empirical_weights_must_sum_to_one(self, d2):
        with pytest.raises(ta.DomainError):
            Empirical.from_rows(d2, [(1, 1), (2, 2)], weights=[0.5, 0.4])

    def test_split_measures_add_up(self, rng, uniform):
        """Refining by a partitioning split conserves mass, and the pieces
        are disjoint (checked by membership on random points)."""
        for _ in range(30):
            schema = ta.random_schema(rng, max_features=5)
            tree = ta.random_tree(schema, rng, 12)
            region = Region.full(schema)
            emp = Empirical(
                np.column_stack(
                    [
                        rng.uniform(f.low, f.high, 50)
                        if isinstance(f, ta.NumericFeature)
                        else rng.integers(0, len(f.levels), 50).astype(float)
                        for f in schema.features
                    ]
                ),
                np.full(50, 1 / 50),
            )
            for nid, node in tree.nodes.items():
                if node.left is None:
                    continue
                region = ta.node_region(tree, nid)
                assert split_partitions_region(node.split, region) is SPLITS
                left = region.try_refine(node.split, Side.LEFT)
                right = region.try_refine(node.split, Side.RIGHT)
                total = region_measure(region, uniform)
                assert abs(
                    region_measure(left, uniform) + region_measure(right, uniform) - total
                ) <= 1e-12
                # empirical: the point sets partition exactly (no point lost or
                # double-counted); the float masses agree to the last ulp or two
                in_region = region.contains_batch(emp.points)
                in_left = left.contains_batch(emp.points)
                in_right = right.contains_batch(emp.points)
                assert not (in_left & in_right).any()
                assert ((in_left | in_right) == in_region).all()
                e_total = region_measure(region, emp)
                assert abs(
                    region_measure(left, emp) + region_measure(right, emp) - e_total
                ) <= 1e-15

    def test_monte_carlo_consistency(self, rng, uniform):
        """Uniform region mass matches the fraction of 1e5 uniform samples
        within four standard errors."""
        schema = ta.random_schema(rng, max_features=4)
        n = 100_000
        X = np.column_stack(
            [
                rng.uniform(f.low, f.high, n)
                if isinstance(f, ta.NumericFeature)
                else rng.integers(0, len(f.levels), n).astype(float)
                for f in schema.features
            ]
        )
        for _ in range(10):
            tree = ta.random_tree(schema, rng, 8)
            leaf = tree.leaf_ids()[int(rng.integers(0, tree.n_leaves))]
            region = ta.node_region(tree, leaf)
            p = region_measure(region, uniform)
            frac = float(region.contains_batch(X).mean())
            se = np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(frac - p) <= 4 * se + 1e-9


def classify_by_vertices(vertices, coeffs, offset):
    vals = vertices @ np.asarray(coeffs)
    lo, hi = float(vals.min()), float(vals.max())
    if hi < offset:
        return HyperplaneTestResult.POLYHEDRON_IN_LOWER
    if lo > offset:
        return HyperplaneTestResult.POLYHEDRON_IN_UPPER
    return HyperplaneTestResult.INTERSECTS


class TestHyperplaneLP:
    """Expected outcomes derived by enumerating box vertices."""

    def unit_square_rows(self):
        return [((1.0, 0.0), 1.0), ((-1.0, 0.0), 0.0), ((0.0, 1.0), 1.0), ((0.0, -1.0), 0.0)]

    def test_plane_above_square(self):
        verts = np.array(list(itertools.product([0, 1], repeat=2)), dtype=float)
        h = Hyperplane((1.0, 1.0), 3.0)
        expected = classify_by_vertices(verts, h.coefficients, h.offset)
        assert expected is HyperplaneTestResult.POLYHEDRON_IN_LOWER
        assert hyperplane_intersects_polyhedron(h, self.unit_square_rows()) is expected

    def test_plane_through_square(self):
        verts = np.array(list(itertools.product([0, 1], repeat=2)), dtype=float)
        h = Hyperplane((1.0, 1.0), 1.0)
        expected = classify_by_vertices(verts, h.coefficients, h.offset)
        assert expected is HyperplaneTestResult.INTERSECTS
        assert hyperplane_intersects_polyhedron(h, self.unit_square_rows()) is expected

    def test_plane_below_square(self):
        verts = np.array(list(itertools.product([0, 1], repeat=2)), dtype=float)
        h = Hyperplane((1.0, 0.0), -1.0)
        expected = classify_by_vertices(verts, h.coefficients, h.offset)
        assert expected is HyperplaneTestResult.POLYHEDRON_IN_UPPER
        assert hyperplane_intersects_polyhedron(h, self.unit_square_rows()) is expected

    def test_empty_polyhedron(self):
        rows = [((1.0,), 0.0), ((-1.0,), -1.0)]  # x <= 0 and x >= 1
        out = hyperplane_intersects_polyhedron(Hyperplane((1.0,), 5.0), rows)
        assert out is HyperplaneTestResult.EMPTY_POLYHEDRON

    def test_unbounded_rejected(self):
        # only an upper bound: the minimum of c'x is unbounded below
        with pytest.raises(ta.UnboundedProblemError):
            hyperplane_intersects_polyhedron(Hyperplane((1.0,), 0.0), [((1.0,), 10.0)])

    def test_touching_counts_as_intersection(self):
        out = hyperplane_intersects_polyhedron(Hyperplane((1.0, 0.0), 1.0), self.unit_square_rows())
        assert out is HyperplaneTestResult.INTERSECTS

    def test_random_boxes_agree_with_enumeration(self, rng):
        for _ in range(400):
            n = int(rng.integers(2, 4))
            lows = rng.uniform(-5, 5, n)
            highs = lows + rng.uniform(0.1, 5, n)
            rows = []
            for i in range(n):
                e = np.zeros(n)
                e[i] = 1.0
                rows.append((e.copy(), highs[i]))
                rows.append((-e, -lows[i]))
            coeffs = rng.normal(size=n)
            while not coeffs.any():
                coeffs = rng.normal(size=n)
            verts = np.array(list(itertools.product(*zip(lows, highs))))
            vals = verts @ coeffs
            offset = float(rng.uniform(vals.min() - 1.0, vals.max() + 1.0))
            if min(abs(vals.min() - offset), abs(vals.max() - offset)) <= 1e-9:
                continue
            expected = classify_by_vertices(verts, coeffs, offset)
            got = hyperplane_intersects_polyhedron(Hyperplane(tuple(coeffs), offset), rows)
            assert got is expected

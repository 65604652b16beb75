"""Region.split (which sides of a split a region meets, with at most one
feasibility LP), identical-split detection and measures."""

import itertools

import numpy as np
import pytest

import treealgebra as ta
from treealgebra import io, simplex
from treealgebra.geometry import Empirical
from treealgebra.oracle import (
    contains_batch,
    iter_leaves_with_regions,
    node_region,
    region_measure,
    same_partition_in_region,
)
from treealgebra.trees import Hyperplane, NumericThreshold, Region, Side


def nonempty(sides):
    """The (left, right) verdict of Region.split."""
    return tuple(side is not None for side in sides)


@pytest.fixture
def count_lps(monkeypatch):
    """The list of feasibility LPs run from now on, as (a, b) pairs."""
    calls = []
    feasible = simplex.feasible

    def counted(a, b):
        calls.append((np.array(a), np.array(b)))
        return feasible(a, b)

    monkeypatch.setattr(simplex, "feasible", counted)
    return calls


class TestSplitPartitionsRegion:
    """Region.split: which sides of a split a region meets."""

    def test_threshold_inside_box(self, d2):
        assert nonempty(Region.full(d2).split(NumericThreshold(0, 4.0))) == (True, True)

    def test_region_right_of_threshold(self, d2):
        region = Region.full(d2).split(NumericThreshold(0, 6.0))[1]
        left, right = region.split(NumericThreshold(0, 4.0))
        assert left is None and right is region

    def test_region_left_of_threshold_boundary_closed(self, d2):
        region = Region.full(d2).split(NumericThreshold(0, 4.0))[0]
        left, right = region.split(NumericThreshold(0, 4.0))
        assert left is region and right is None

    def test_categorical(self):
        schema = ta.FeatureSchema((ta.CategoricalFeature("c", ("a", "b", "c")),))
        region = Region.full(schema)
        split = ta.CategoricalSubset(0, frozenset({0}))
        assert nonempty(region.split(split)) == (True, True)
        left = region.split(split)[0]
        assert nonempty(left.split(ta.CategoricalSubset(0, frozenset({0, 1})))) == (True, False)

    def test_hyperplane_delegates_to_lp(self, d2):
        region = Region.full(d2)
        assert nonempty(region.split(Hyperplane((1.0, 1.0), 10.0))) == (True, True)
        assert nonempty(region.split(Hyperplane((1.0, 1.0), 25.0))) == (True, False)
        assert nonempty(region.split(Hyperplane((1.0, 1.0), -5.0))) == (False, True)

    def test_kind_mismatch(self, d2):
        with pytest.raises(ta.SchemaError):
            Region.full(d2).split(ta.CategoricalSubset(0, frozenset({0})))

    def test_touching_counts_as_splitting(self, d2):
        # the hyperplane meets the box only in its corner (0, 0)
        assert nonempty(Region.full(d2).split(Hyperplane((1.0, 1.0), 0.0))) == (True, True)
        # x0 > 5 meets x0 + x1 <= 5 only on the segment's end (5, 0)
        region = Region.full(d2).split(Hyperplane((1.0, 1.0), 5.0))[0]
        assert nonempty(region.split(NumericThreshold(0, 5.0))) == (True, True)

    def test_numeric_split_the_half_space_leaves_no_room_for(self, d2):
        region = Region.full(d2).split(Hyperplane((1.0, 1.0), 5.0))[0]
        # the box (6, 10] x [0, 10] is nonempty, but x0 + x1 <= 5 keeps x0 <= 5
        left, right = region.split(NumericThreshold(0, 6.0))
        assert right is None
        assert left.constraints[0] == (0.0, 6.0, True)

    def test_witness_on_the_hyperplane_frees_both_sides(self, d2, count_lps):
        # the box centre (5, 5) lies on x0 + x1 = 10
        left, right = Region.full(d2).split(Hyperplane((1.0, 1.0), 10.0))
        assert left is not None and right is not None
        assert count_lps == []
        assert list(left.witness) == list(right.witness) == [5.0, 5.0]

    def test_at_most_one_lp_per_split(self, d2, count_lps):
        region = Region.full(d2)
        for split in (Hyperplane((1.0, 2.0), 12.0), NumericThreshold(0, 7.0),
                      Hyperplane((-1.0, 1.0), 1.0), NumericThreshold(1, 1.0)):
            before = len(count_lps)
            left, right = region.split(split)
            assert len(count_lps) - before <= 1
            region = left if left is not None else right
            a, b = region.lp_rows()
            assert (a @ region.witness <= b + 1e-9).all()

    def test_region_without_a_witness_runs_both_lps(self, d2, count_lps):
        half = ((Hyperplane((1.0, 1.0), 5.0), Side.LEFT),)
        region = Region(d2, Region.full(d2).constraints, half)
        assert region == Region.full(d2).split(half[0][0])[0]
        count_lps.clear()
        assert nonempty(region.split(Hyperplane((1.0, -1.0), 0.0))) == (True, True)
        assert len(count_lps) == 2


def reference_sides(region, split):
    """Each side of a numeric or hyperplane split in a region, decided apart
    from Region.split: the box side's ends, then a plain feasibility LP on
    the region's rows plus the side's closed row."""
    a, b = region.lp_rows()
    num = region.schema.numeric_indices
    out = []
    for sign, side in ((1.0, Side.LEFT), (-1.0, Side.RIGHT)):
        if isinstance(split, NumericThreshold):
            low, high, low_closed = region.constraints[split.feature]
            t = split.threshold
            # x <= t holds no point below the lower end or on an open one,
            # and x > t none from the closed upper end up
            if (t < low or (t == low and not low_closed)) if side is Side.LEFT else t >= high:
                out.append(False)
                continue
            row = np.zeros(len(num))
            row[num.index(split.feature)] = sign
            rhs = sign * split.threshold
        else:
            row, rhs = sign * np.asarray(split.coefficients), sign * split.offset
        out.append(simplex.feasible(np.vstack([a, row]), np.append(b, rhs)) is not None)
    return tuple(out)


def random_mixed_tree(schema, rng, n_splits, numeric_share=0.3):
    """Hyperplanes through random box points, mixed with numeric thresholds
    at the rate ``numeric_share``."""
    num = schema.numeric_indices
    b = ta.TreeBuilder(schema)
    leaves = [(b.add_root(), Region.full(schema))]
    for _ in range(20 * n_splits):
        if len(leaves) > n_splits:
            break
        k = int(rng.integers(0, len(leaves)))
        nid, region = leaves[k]
        if rng.random() < numeric_share:
            j = num[int(rng.integers(0, len(num)))]
            low, high, _ = region.constraints[j]
            split = NumericThreshold(j, float(rng.uniform(low, high)))
        else:
            coeffs = rng.normal(size=len(num))
            point = [rng.uniform(*region.constraints[j][:2]) for j in num]
            split = Hyperplane(tuple(coeffs), float(coeffs @ point))
        left, right = region.split(split)
        if left is None or right is None:
            continue
        lw, rw = b.split_node(nid, split)
        leaves[k] = (lw, left)
        leaves.append((rw, right))
    for nid, _ in leaves:
        b.set_value(nid, ta.Scalar(float(rng.uniform(-1, 1))))
    return b.build()


def node_regions(tree):
    """Every node's region, each reached by Region.split from the root."""
    splits = tree.splits()
    out, stack = [], [(tree.root_pos, Region.full(tree.schema))]
    while stack:
        i, region = stack.pop()
        out.append(region)
        if tree.left_pos[i] >= 0:
            left, right = region.split(splits[i])
            stack.append((tree.left_pos[i], left))
            stack.append((tree.right_pos[i], right))
    return out


class TestSplitMatchesPlainLP:
    def test_random_oblique_and_mixed_pair_trees(self, rng, mixed_pair):
        """Every verdict of Region.split, whose witness spares one side's LP,
        equals a plain LP on both sides, on every region of random oblique
        trees, of the mixed_pair trees and of their combinations."""
        forests = [list(mixed_pair) + [ta.combine_pair(*mixed_pair)]]
        for _ in range(6):
            schema = ta.FeatureSchema(
                tuple(ta.NumericFeature(f"x{i}", -1.0, float(i + 1)) for i in range(3))
            )
            t1, t2 = (random_mixed_tree(schema, rng, 8) for _ in range(2))
            forests.append([t1, t2, ta.combine_pair(t1, t2)])
        checked = 0
        for trees in forests:
            splits = [s for t in trees[:2] for s in t.splits() if s is not None]
            for region in node_regions(trees[2]):
                for split in splits:
                    assert nonempty(region.split(split)) == reference_sides(region, split)
                    checked += 1
        assert checked > 1000


class TestFeasibilityLPCount:
    """Each region decides each split once, with at most one LP.

    On oblique trees every region on a different path is cut out by its own
    set of LP rows, so an LP that repeats its rows, in any order, can only
    be a split decided twice. (Regions that differ only in categorical
    levels or in nested thresholds can share rows.)
    """

    def test_no_lp_repeats_in_combine_or_validate(self, rng, count_lps):
        schema = ta.FeatureSchema(
            tuple(ta.NumericFeature(f"x{i}", 0.0, 1.0) for i in range(3))
        )
        for _ in range(3):
            t1, t2 = (random_mixed_tree(schema, rng, 25, 0.0) for _ in range(2))
            count_lps.clear()
            combined = ta.combine_pair(t1, t2)
            assert len(count_lps) > 50
            self.assert_no_repeats(count_lps)
            count_lps.clear()
            assert ta.validate(combined) == []
            self.assert_no_repeats(count_lps)
            internal = int(np.count_nonzero(combined.left >= 0))
            assert len(count_lps) <= internal

    def test_categorical_split_over_a_hyperplane_adds_no_lp(self, count_lps):
        schema = ta.FeatureSchema(
            (ta.NumericFeature("x", 0, 1), ta.NumericFeature("y", 0, 1),
             ta.CategoricalFeature("c", ("a", "b")))
        )
        trees = []
        for split in (ta.CategoricalSubset(2, frozenset({0})), Hyperplane((1.0, 1.0), 0.3)):
            b = ta.TreeBuilder(schema)
            left, right = b.split_node(b.add_root(), split)
            b.set_value(left, ta.Scalar(1.0))
            b.set_value(right, ta.Scalar(2.0))
            trees.append(b.build())
        assert ta.combine_pair(*trees).n_leaves == 4
        # the hyperplane is decided once, in the root region
        assert len(count_lps) == 1

    def test_lp_count_of_a_fixed_hyperplane_overlay(self, mixed_pair, count_lps):
        """The overlay runs as many LPs as the per-node overlay it replaced
        (4, 4 and 466 for these inputs), so no region decides a split twice."""
        a, b = mixed_pair
        counts = []
        for trees in ([a, b], [b, a]):
            count_lps.clear()
            ta.combine_pair(*trees)
            counts.append(len(count_lps))
        schema = ta.FeatureSchema(
            tuple(ta.NumericFeature(f"x{i}", 0.0, 1.0) for i in range(3))
        )
        rng = np.random.default_rng(11)
        trees = [random_mixed_tree(schema, rng, 12) for _ in range(3)]
        count_lps.clear()
        assert ta.combine_many(trees).n_nodes == 349
        counts.append(len(count_lps))
        assert counts == [4, 4, 466]

    def test_lp_count_of_validating_a_fixed_hyperplane_forest(self, count_lps, tmp_path):
        """Validating runs as many LPs as the per-node validation did (8, 12,
        12 and 170 for these trees, 32 for a file of the first three and an
        axis-aligned tree): trees with hyperplanes keep their Region.split
        walk, and the box frontier of the others runs none."""
        schema = ta.FeatureSchema(
            tuple(ta.NumericFeature(f"x{i}", 0.0, 1.0) for i in range(3))
        )
        rng = np.random.default_rng(11)
        trees = [random_mixed_tree(schema, rng, 12) for _ in range(3)]
        trees.append(ta.combine_many(trees))
        counts = []
        for tree in trees:
            count_lps.clear()
            assert ta.validate(tree) == []
            counts.append(len(count_lps))
        path = str(tmp_path / "forest.json")
        io.save_forest(io.ForestFile(schema, trees[:3] + [ta.random_tree(schema, rng, 10)]), path)
        count_lps.clear()
        io.load_forest(path)
        counts.append(len(count_lps))
        assert counts == [8, 12, 12, 170, 32]

    @staticmethod
    def assert_no_repeats(calls):
        keys = [tuple(sorted(zip(map(bytes, a), b.tolist()))) for a, b in calls]
        assert len(set(keys)) == len(keys)


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
        region = Region.full(schema).split(ta.CategoricalSubset(0, frozenset({0, 1})))[0]
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
            .split(NumericThreshold(0, 4.0))[1]
            .split(NumericThreshold(0, 6.0))[0]
        )
        assert region_measure(region, uniform) == 0.2

    def test_full_box_measure(self, d2, uniform):
        assert region_measure(Region.full(d2), uniform) == 1.0

    def test_empirical_counts_points(self, d2):
        emp = Empirical.from_rows(d2, [(1, 0), (5, 0), (9, 0)])
        region = Region.full(d2).split(NumericThreshold(0, 4.0))[1]
        assert region_measure(region, emp) == pytest.approx(2 / 3, abs=1e-15)

    def test_uniform_rejects_half_spaces(self, d2, uniform):
        region = Region.full(d2).split(Hyperplane((1.0, 1.0), 10.0))[0]
        with pytest.raises(ta.UnsupportedGeometryError):
            region_measure(region, uniform)

    def test_empirical_weights_must_sum_to_one(self, d2):
        with pytest.raises(ta.DomainError):
            Empirical.from_rows(d2, [(1, 1), (2, 2)], weights=[0.5, 0.4])

    @pytest.mark.parametrize("point, weight, message", [
        (np.nan, 0.5, "empirical point is not finite"),
        (2.0, np.nan, "empirical weight is not finite"),
        (2.0, np.inf, "empirical weight is not finite"),
    ])
    def test_empirical_rejects_non_finite_input(self, point, weight, message):
        with pytest.raises(ta.DomainError, match=message):
            Empirical(np.array([[1.0, 1.0], [point, 2.0]]), np.array([0.5, weight]))

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
            splits = tree.splits()
            for i in np.flatnonzero(tree.left >= 0):
                region = node_region(tree, tree.ids[i])
                left, right = region.split(splits[i])
                assert left is not None and right is not None
                total = region_measure(region, uniform)
                assert abs(
                    region_measure(left, uniform) + region_measure(right, uniform) - total
                ) <= 1e-12
                # empirical: the point sets partition exactly (no point lost or
                # double-counted); the float masses agree to the last ulp or two
                in_region = contains_batch(region, emp.points)
                in_left = contains_batch(left, emp.points)
                in_right = contains_batch(right, emp.points)
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
            leaves = [nid for nid, _ in iter_leaves_with_regions(tree)]
            region = node_region(tree, leaves[int(rng.integers(0, tree.n_leaves))])
            p = region_measure(region, uniform)
            frac = float(contains_batch(region, X).mean())
            se = np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(frac - p) <= 4 * se + 1e-9


def classify_by_vertices(vertices, coeffs, offset):
    """(left nonempty, right nonempty) of ``c'x <= offset`` on a box."""
    vals = vertices @ np.asarray(coeffs)
    return bool(vals.min() <= offset), bool(vals.max() >= offset)


def box_region(lows, highs):
    schema = ta.FeatureSchema(
        tuple(ta.NumericFeature(f"x{i}", lo, hi) for i, (lo, hi) in enumerate(zip(lows, highs)))
    )
    return Region.full(schema)


def test_lp_rows_are_pinned():
    """The rows of a box with a categorical feature between two numeric
    ones, a LEFT and two RIGHT half-spaces: +x_j then -x_j per numeric
    feature, then the half-spaces in path order, a RIGHT one negated;
    the bytes pin the signs of zero entries too."""
    schema = ta.FeatureSchema((ta.NumericFeature("x", -1.0, 2.0),
                               ta.CategoricalFeature("c", ("a", "b")),
                               ta.NumericFeature("y", 0.0, 3.0)))
    box = ((-1.0, 1.5, True), frozenset({1}), (0.0, 3.0, False))
    half_spaces = ((Hyperplane((0.0, 1.0), 2.0), Side.LEFT),
                   (Hyperplane((1.0, -0.0), 0.0), Side.RIGHT),
                   (Hyperplane((-0.5, 2.0), -1.25), Side.RIGHT))
    a, b = Region(schema, box, half_spaces).lp_rows()
    expected_a = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                           [0.0, 1.0], [-1.0, 0.0], [0.5, -2.0]])
    expected_b = np.array([1.5, 1.0, 3.0, -0.0, 2.0, -0.0, 1.25])
    for got, want in ((a, expected_a), (b, expected_b)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


class TestHyperplaneLP:
    """Region.split of a hyperplane on boxes, against box vertex enumeration."""

    verts = np.array(list(itertools.product([0, 1], repeat=2)), dtype=float)

    def unit_square(self):
        return box_region([0.0, 0.0], [1.0, 1.0])

    def test_plane_above_square(self):
        h = Hyperplane((1.0, 1.0), 3.0)
        expected = classify_by_vertices(self.verts, h.coefficients, h.offset)
        assert expected == (True, False)
        assert nonempty(self.unit_square().split(h)) == expected

    def test_plane_through_square(self):
        h = Hyperplane((1.0, 1.0), 1.0)
        expected = classify_by_vertices(self.verts, h.coefficients, h.offset)
        assert expected == (True, True)
        assert nonempty(self.unit_square().split(h)) == expected

    def test_plane_below_square(self):
        h = Hyperplane((1.0, 0.0), -1.0)
        expected = classify_by_vertices(self.verts, h.coefficients, h.offset)
        assert expected == (False, True)
        assert nonempty(self.unit_square().split(h)) == expected

    def test_empty_polyhedron(self):
        # x in [0, 1] and x <= -1: a hand-built empty region meets neither side
        schema = ta.FeatureSchema((ta.NumericFeature("x", 0, 1),))
        region = Region(schema, Region.full(schema).constraints,
                        ((Hyperplane((1.0,), -1.0), Side.LEFT),))
        assert region.split(Hyperplane((1.0,), 5.0)) == (None, None)

    def test_touching_counts_as_intersection(self):
        out = self.unit_square().split(Hyperplane((1.0, 0.0), 1.0))
        assert nonempty(out) == (True, True)

    def test_random_boxes_agree_with_enumeration(self, rng):
        for _ in range(400):
            n = int(rng.integers(2, 4))
            lows = rng.uniform(-5, 5, n)
            highs = lows + rng.uniform(0.1, 5, n)
            coeffs = rng.normal(size=n)
            while not coeffs.any():
                coeffs = rng.normal(size=n)
            verts = np.array(list(itertools.product(*zip(lows, highs))))
            vals = verts @ coeffs
            offset = float(rng.uniform(vals.min() - 1.0, vals.max() + 1.0))
            if min(abs(vals.min() - offset), abs(vals.max() - offset)) <= 1e-9:
                continue
            expected = classify_by_vertices(verts, coeffs, offset)
            got = box_region(lows, highs).split(Hyperplane(tuple(coeffs), offset))
            assert nonempty(got) == expected

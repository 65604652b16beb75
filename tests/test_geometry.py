"""Region.split (which sides of a split a region meets, with at most one
feasibility LP) and measures."""

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

    def counted(a, b, start=None):
        calls.append((np.array(a), np.array(b)))
        return feasible(a, b, start)

    monkeypatch.setattr(simplex, "feasible", counted)
    return calls


@pytest.fixture
def certificates(monkeypatch, count_phase1):
    """The (a, b, point) of every feasibility decision from now on that a
    certificate settled, with no Phase-I run."""
    out = []
    feasible = simplex.feasible

    def recorded(a, b, start=None):
        runs = len(count_phase1)
        point = feasible(a, b, start)
        if point is not None and len(count_phase1) == runs:
            out.append((np.array(a), np.array(b), point))
        return point

    monkeypatch.setattr(simplex, "feasible", recorded)
    return out


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

    def test_a_hyperplane_past_the_float_range_warns_of_nothing(self, d2):
        # c'x would overflow at the certificate's start (5.75, 4.25) for
        # x0 - x1 >= 1, where a sum of overflowed terms has no sign to
        # trust: Region.split and the builder refuse such a hyperplane, in
        # validate's words, before any arithmetic on it; any warning fails
        # the test
        region = Region.full(d2).split(Hyperplane((1.0, -1.0), 1.0))[1]
        assert list(region.witness) == [5.75, 4.25]
        message = "^hyperplane overflows on the domain box$"
        for h in (Hyperplane((1e308, 1e308), 1e308), Hyperplane((1e308, -1e308), 0.0)):
            with pytest.raises(ta.SchemaError, match=message):
                region.split(h)
            builder = ta.TreeBuilder(d2)
            with pytest.raises(ta.SchemaError, match=message):
                builder.split_node(builder.add_root(), h)

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

    def test_a_hyperplane_on_the_path_keeps_its_side_without_an_lp(self, d2, count_lps):
        # the region touches x1 + x2 = 5 all along its edge, so under the
        # closed relaxation an LP would find the other side nonempty
        h = Hyperplane((1.0, 1.0), 5.0)
        left, right = Region.full(d2).split(h)
        left = left.split(NumericThreshold(0, 4.0))[1]
        count_lps.clear()
        assert left.split(h) == (left, None) and right.split(h) == (None, right)
        assert left.split(Hyperplane((1.0, 1.0), 5.0))[1] is None
        assert count_lps == []

    def test_region_without_a_witness_runs_both_lps(self, d2, count_lps):
        half = ((Hyperplane((1.0, 1.0), 5.0), Side.LEFT),)
        region = Region(d2, Region.full(d2).constraints, half)
        assert region == Region.full(d2).split(half[0][0])[0]
        count_lps.clear()
        assert nonempty(region.split(Hyperplane((1.0, -1.0), 0.0))) == (True, True)
        assert len(count_lps) == 2


def reference_sides(region, split):
    """Each side of a numeric or hyperplane split in a region, decided apart
    from Region.split: a hyperplane already on the path holds the region on
    the side the path took; otherwise the box side's ends, then a plain
    feasibility LP on the region's rows plus the side's closed row."""
    for h, side in region.half_spaces:
        if h == split:
            return side is Side.LEFT, side is Side.RIGHT
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


def random_mixed_tree(schema, rng, n_splits, numeric_share=0.3, level_share=0.0):
    """Hyperplanes through random box points, mixed with numeric thresholds
    at the rate ``numeric_share`` and, when ``level_share`` is not zero,
    random level subsets of a categorical feature at that rate."""
    num = schema.numeric_indices
    cat = [j for j in range(schema.n_features) if j not in num]
    b = ta.TreeBuilder(schema)
    leaves = [(b.add_root(), Region.full(schema))]
    for _ in range(20 * n_splits):
        if len(leaves) > n_splits:
            break
        k = int(rng.integers(0, len(leaves)))
        nid, region = leaves[k]
        if level_share and rng.random() < level_share:
            j = cat[int(rng.integers(0, len(cat)))]
            n = len(schema.features[j].levels)
            levels = frozenset(np.flatnonzero(rng.random(n) < 0.5).tolist())
            if not 0 < len(levels) < n:
                continue
            split = ta.CategoricalSubset(j, levels)
        elif rng.random() < numeric_share:
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


class TestDerivedRows:
    """The rows a side of Region.split derives from its parent's are the
    rows lp_rows builds from the box and half-spaces, bit for bit."""

    def test_every_region_split_reaches_has_the_reference_rows(self, rng, monkeypatch):
        """On random trees that mix hyperplanes, thresholds and level
        subsets, on their overlays and on the validation of those."""
        reached = []
        split = Region.split

        def recorded(region, s):
            sides = split(region, s)
            kind = type(s).__name__ if region.half_spaces or isinstance(s, Hyperplane) else "box"
            reached.extend((kind, side) for side in sides if side is not None)
            return sides

        monkeypatch.setattr(Region, "split", recorded)
        schema = ta.FeatureSchema((
            ta.NumericFeature("x0", -1.0, 1.0),
            ta.CategoricalFeature("c", ("a", "b", "c", "d")),
            ta.NumericFeature("x1", 0.0, 2.0),
            ta.NumericFeature("x2", -3.0, 0.5),
        ))
        for _ in range(4):
            t1, t2 = (random_mixed_tree(schema, rng, 10, 0.3, 0.25) for _ in range(2))
            assert ta.validate(ta.combine_pair(t1, t2)) == []
        for kind, region in reached:
            # a side with half-spaces is made with its derived rows
            assert kind == "box" or region.rows is not None
            got = region.lp_rows()
            want = Region(schema, region.constraints, region.half_spaces).lp_rows()
            for g, w in zip(got, want):
                assert (g.dtype, g.shape) == (w.dtype, w.shape)
                assert g.tobytes() == w.tobytes()
        # each way a side derives its rows, and the box-only sides that
        # build them from the box, is seen many times
        kinds = [kind for kind, _ in reached]
        counts = {kind: kinds.count(kind) for kind in set(kinds)}
        assert set(counts) == {"Hyperplane", "NumericThreshold", "CategoricalSubset", "box"}
        assert min(counts.values()) > 20

    def test_a_side_split_by_levels_or_a_threshold_costs_no_extra_lp(self, count_lps):
        schema = ta.FeatureSchema((ta.NumericFeature("x", 0.0, 10.0),
                                   ta.CategoricalFeature("c", ("a", "b", "c")),
                                   ta.NumericFeature("y", 0.0, 10.0)))
        # the centre (5, 5) lies in x + y <= 12, so that side runs no LP
        region = Region.full(schema).split(Hyperplane((1.0, 1.0), 12.0))[0]
        count_lps.clear()
        left, right = region.split(ta.CategoricalSubset(1, frozenset({0})))
        assert isinstance(region.rows, tuple)
        assert left.rows is right.rows is region.rows
        # the witness's x = 5 holds the cut, so neither side runs an LP
        left, right = left.split(NumericThreshold(0, 5.0))
        assert count_lps == []
        # the witness's y = 5 lies above y <= 4, so only that side is decided,
        # on its parent's rows with y's bounds set
        below, above = left.split(NumericThreshold(2, 4.0))
        assert below is not None and above is not None
        assert len(count_lps) == 1
        ref = Region(schema, below.constraints, below.half_spaces).lp_rows()
        for got, want in zip(count_lps[0], ref):
            assert got.tobytes() == want.tobytes()


def touching_planes(region, rng):
    """Hyperplanes that meet a region's box or polytope only in a vertex, an
    edge or a face: through a random vertex of the box, with coefficient
    signs that put the rest of the box on the right side (one coefficient
    zero for an edge, one nonzero for a face); and through the point Phase
    I gives, with a normal that weights two or all of its tight rows, so
    that the rest of the region lies on the left side. (That point need not
    be a vertex of the region, as splitting free variables adds bounds of
    its own, so it may have fewer tight rows.)"""
    num = region.schema.numeric_indices
    at_low = rng.random(len(num)) < 0.5
    vertex = np.array([region.constraints[j][0 if low else 1] for j, low in zip(num, at_low)])
    coeffs = np.where(at_low, 1.0, -1.0) * rng.uniform(0.5, 2.0, len(num))
    planes = [Hyperplane(tuple(coeffs), float(coeffs @ vertex))]
    coeffs[int(rng.integers(0, len(num)))] = 0.0
    planes.append(Hyperplane(tuple(coeffs), float(coeffs @ vertex)))
    face = np.where(at_low, 1.0, -1.0) * (np.arange(len(num)) == rng.integers(0, len(num)))
    planes.append(Hyperplane(tuple(face), float(face @ vertex)))
    a, b = region.lp_rows()
    vertex = simplex.feasible(a, b)
    tight = a[np.abs(a @ vertex - b) <= 1e-9]
    for k in {min(2, len(tight)), len(tight)} - {0}:
        coeffs = rng.uniform(0.5, 2.0, k) @ tight[rng.permutation(len(tight))[:k]]
        if coeffs.any():
            planes.append(Hyperplane(tuple(coeffs), float(coeffs @ vertex)))
    return planes


class TestCertificates:
    def test_certified_sides_are_nonempty_for_phase1(self, rng, mixed_pair, certificates):
        """Every point a certificate gives meets its rows exactly, and Phase I
        on the same rows finds a point too: on every region of random
        oblique trees and their combinations, split by every split of the
        trees and by hyperplanes that only touch the region."""
        forests = [list(mixed_pair) + [ta.combine_pair(*mixed_pair)]]
        schema = ta.FeatureSchema(
            tuple(ta.NumericFeature(f"x{i}", -1.0, float(i + 1)) for i in range(3))
        )
        for _ in range(4):
            t1, t2 = (random_mixed_tree(schema, rng, 8) for _ in range(2))
            forests.append([t1, t2, ta.combine_pair(t1, t2)])
        touching = 0
        for trees in forests:
            splits = [s for t in trees[:2] for s in t.splits() if s is not None]
            for region in node_regions(trees[2]):
                for split in splits:
                    region.split(split)
                before = len(certificates)
                for plane in touching_planes(region, rng):
                    region.split(plane)
                touching += len(certificates) - before
        assert len(certificates) > 500 and touching > 50
        for a, b, point in certificates:
            assert (a @ point <= b).all()
            assert simplex._phase1(np.hstack([a, -a]), b) is not None


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

    def test_lp_count_of_a_fixed_hyperplane_overlay(self, mixed_pair, count_lps, count_phase1):
        """The depth-first overlay runs as many LPs as it always has (4, 4
        and 466 for these inputs), so no region decides a split twice. A
        certificate settles all but 1, 1 and 250 of them: 172 of those sides
        are empty, which no certificate shows, and the others are thin
        wedges that three moves do not reach."""
        a, b = mixed_pair
        counts = []
        for trees in ([a, b], [b, a]):
            count_lps.clear()
            count_phase1.clear()
            ta.combine_pair(*trees)
            counts.append((len(count_lps), len(count_phase1)))
        schema = ta.FeatureSchema(
            tuple(ta.NumericFeature(f"x{i}", 0.0, 1.0) for i in range(3))
        )
        rng = np.random.default_rng(11)
        trees = [random_mixed_tree(schema, rng, 12) for _ in range(3)]
        count_lps.clear()
        count_phase1.clear()
        assert ta.combine_many(trees).n_nodes == 349
        counts.append((len(count_lps), len(count_phase1)))
        assert counts == [(4, 1), (4, 1), (466, 250)]

    def test_lp_count_of_validating_a_fixed_hyperplane_forest(self, count_lps, count_phase1,
                                                               tmp_path):
        """Validating runs as many LPs as the per-node validation did (8, 12,
        12 and 170 for these trees, 32 for a file of the first three and an
        axis-aligned tree): trees with hyperplanes keep their Region.split
        walk, and the box frontier of the others runs none. A certificate
        settles all but 0, 2, 4, 48 and 6 of them."""
        schema = ta.FeatureSchema(
            tuple(ta.NumericFeature(f"x{i}", 0.0, 1.0) for i in range(3))
        )
        rng = np.random.default_rng(11)
        trees = [random_mixed_tree(schema, rng, 12) for _ in range(3)]
        trees.append(ta.combine_many(trees))
        counts = []
        for tree in trees:
            count_lps.clear()
            count_phase1.clear()
            assert ta.validate(tree) == []
            counts.append((len(count_lps), len(count_phase1)))
        path = str(tmp_path / "forest.json")
        io.save_forest(io.ForestFile(schema, trees[:3] + [ta.random_tree(schema, rng, 10)]), path)
        count_lps.clear()
        count_phase1.clear()
        io.load_forest(path)
        counts.append((len(count_lps), len(count_phase1)))
        assert counts == [(8, 0), (12, 2), (12, 4), (170, 48), (32, 6)]

    @staticmethod
    def assert_no_repeats(calls):
        keys = [tuple(sorted(zip(map(bytes, a), b.tolist()))) for a, b in calls]
        assert len(set(keys)) == len(keys)


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
        # the sum is a Python float's text whatever numpy's scalar repr is
        with pytest.raises(ta.DomainError, match=r"^empirical weights sum 0\.9 != 1$"):
            Empirical.from_rows(d2, [(1, 1), (2, 2)], weights=[0.5, 0.4])

    def test_empirical_weights_default_to_equal(self, d2):
        rows = [(1, 1), (2, 2), (3, 5), (9, 0), (4, 4), (7, 7), (0, 10)]
        default = Empirical(d2.encode_points(rows))
        assert default.weights.tobytes() == Empirical.from_rows(d2, rows).weights.tobytes()
        assert default.weights.tobytes() == np.full(7, 1.0 / 7).tobytes()

    def test_empirical_refuses_an_empty_point_set(self, d2):
        for make in (lambda: Empirical.from_rows(d2, []),
                     lambda: Empirical(np.zeros((0, 2))),
                     lambda: Empirical(np.zeros((0, 2)), np.zeros(0))):
            with pytest.raises(ta.DomainError, match="^empirical measure needs at least one point$"):
                make()

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

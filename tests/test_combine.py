"""Pairwise and multiway combination, affine sums."""

import numpy as np
import pytest

import treealgebra as ta
from treealgebra import simplex
from treealgebra.combine import CombineBudget
from treealgebra.oracle import (
    combine_many_reference,
    iter_leaves_with_regions,
    node_region,
    route,
)
from treealgebra.trees import (
    Hyperplane,
    NodeTable,
    NumericThreshold,
    Region,
    Scalar,
    evaluate_batch,
)


def region_subset(inner, outer):
    """Containment of axis-aligned regions, endpoint flags included."""
    for ci, co in zip(inner.constraints, outer.constraints):
        if isinstance(ci, frozenset):
            if not ci <= co:
                return False
            continue
        (lo_i, hi_i, closed_i), (lo_o, hi_o, closed_o) = ci, co
        # both upper ends are closed
        if not ((lo_i > lo_o or (lo_i == lo_o and (closed_o or not closed_i))) and hi_i <= hi_o):
            return False
    return True


def interior_point(region):
    """An encoded point inside an axis-aligned region: interval midpoints and
    the smallest admissible level."""
    return tuple(
        float(min(c)) if isinstance(c, frozenset) else (c[0] + c[1]) / 2
        for c in region.constraints
    )


def leaf_values(tree):
    return [tree.leaves.value(r) for r in tree.leaf[tree.left < 0].tolist()]


def scalar_leaves(tree):
    return sorted(v.value for v in leaf_values(tree))


class TestCombinePair:
    def test_crossing_stumps_make_four_cells(self, stump4, stump_y5):
        combined = ta.combine_pair(stump4, stump_y5)
        assert combined.n_leaves == 4
        def at(x1, x2):
            tv = ta.evaluate(combined, (x1, x2))
            return tuple(v.value for v in tv.values)
        assert at(2, 2) == (0.0, 0.0)
        assert at(7, 2) == (1.0, 0.0)
        assert at(7, 8) == (1.0, 1.0)

    def test_parallel_stumps_make_three_cells(self, stump4, stump6, uniform):
        # expected cells derived from the exact threshold grid {4, 6}
        grid_sq = ta.grid_integral([stump4, stump6], "squared-difference", uniform)
        assert grid_sq == pytest.approx(0.2, abs=1e-15)
        combined = ta.combine_pair(stump4, stump6)
        assert combined.n_leaves == 3
        pairs = sorted(
            tuple(v.value for v in tv.values) for tv in leaf_values(combined)
        )
        assert pairs == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]

    def test_identical_stumps_merge(self, stump4):
        combined = ta.combine_pair(stump4, stump4)
        assert combined.n_leaves == 2
        pairs = sorted(tuple(v.value for v in tv.values) for tv in leaf_values(combined))
        assert pairs == [(0.0, 0.0), (1.0, 1.0)]

    def test_budget_abort_reports_partial_size(self, stump4, stump_y5):
        with pytest.raises(ta.BudgetExceededError) as err:
            ta.combine_pair(stump4, stump_y5, CombineBudget(max_nodes=3))
        assert "3 nodes" in str(err.value)

    @pytest.mark.parametrize("max_nodes", [1, 2, 5, 6])
    def test_budget_message_when_the_first_fold_step_overflows(
            self, stump4, stump_y5, stump6, max_nodes):
        # stump4 x stump_y5 has 7 nodes
        with pytest.raises(ta.BudgetExceededError) as err:
            ta.combine_many([stump4, stump_y5, stump6], CombineBudget(max_nodes=max_nodes))
        assert str(err.value) == (f"node budget exceeded: combined tree already has "
                                  f"{max_nodes} nodes (max_nodes={max_nodes})")

    @pytest.mark.parametrize("max_nodes", [7, 8, 10])
    def test_budget_message_when_only_the_last_fold_step_overflows(
            self, stump4, stump_y5, stump6, max_nodes):
        # the first step has 7 nodes, the second 11
        trees = [stump4, stump_y5, stump6]
        assert ta.combine_many(trees[:2], CombineBudget(max_nodes=max_nodes)).n_nodes == 7
        with pytest.raises(ta.BudgetExceededError) as err:
            ta.combine_many(trees, CombineBudget(max_nodes=max_nodes))
        assert str(err.value) == (f"node budget exceeded: combined tree already has "
                                  f"{max_nodes} nodes (max_nodes={max_nodes})")
        assert ta.combine_many(trees, CombineBudget(max_nodes=11)).n_nodes == 11


class TestCombineMany:
    def test_singleton_fold_wraps_leaves(self, stump4):
        out = ta.combine_many([stump4])
        assert out.n_leaves == 2
        for tv in leaf_values(out):
            assert tv.source_ids == (0,)

    def test_three_stumps_make_six_cells(self, stump4, stump6, stump_y5, uniform):
        # cell grid over thresholds x1 in {4, 6} and x2 in {5}: 3 x 2 cells
        grid = ta.CellGrid.from_trees(stump4.schema, [stump4, stump6, stump_y5])
        assert grid.n_cells == 6
        out = ta.combine_many([stump4, stump6, stump_y5])
        assert out.n_leaves == 6
        for tv in leaf_values(out):
            assert tv.source_ids == (0, 1, 2)

    def test_pointwise_equals_individual_evaluations(self, stump4, stump6, stump_y5):
        out = ta.combine_many([stump4, stump6, stump_y5])
        assert ta.pointwise_equivalence(out, [stump4, stump6, stump_y5], 2000, seed=1) is None

    def test_single_split_trees_grow_exponentially(self):
        for m in range(1, 7):
            schema = ta.FeatureSchema(
                tuple(ta.NumericFeature(f"x{j}", 0, 1) for j in range(m))
            )
            trees = []
            for j in range(m):
                b = ta.TreeBuilder(schema)
                left, right = b.split_node(b.add_root(), NumericThreshold(j, 0.5))
                b.set_value(left, Scalar(0.0))
                b.set_value(right, Scalar(1.0))
                trees.append(b.build())
            assert ta.combine_many(trees).n_nodes == 2 ** (m + 1) - 1

    def test_an_axis_aligned_fold_is_one_walk(self, d2, make_stump, monkeypatch):
        """An axis-aligned fold walks all its trees in one node table; from
        a tree with a hyperplane split on, each tree is overlaid on the fold
        so far depth first, with no table."""
        built = []
        init = NodeTable.__init__
        monkeypatch.setattr(NodeTable, "__init__",
                            lambda self, trees: built.append(len(trees)) or init(self, trees))
        stumps = [make_stump(k % 2, 1.0 + k) for k in range(5)]
        assert ta.combine_many(stumps).n_leaves == 4 * 3
        assert built == [5]
        b = ta.TreeBuilder(d2)
        for node, value in zip(b.split_node(b.add_root(), Hyperplane((1.0, 1.0), 10.0)), (0.0, 1.0)):
            b.set_value(node, Scalar(value))
        hyper = b.build()
        built.clear()
        ta.combine_many([hyper] + stumps[:4])
        assert built == []
        built.clear()
        ta.combine_many(stumps[:3] + [hyper] + stumps[3:])
        assert built == [3]


class TestAffineCombination:
    def test_scaling(self, stump4):
        out = ta.affine_combination([stump4], [3.0])
        assert scalar_leaves(out) == [0.0, 3.0]

    def test_half_half_mix(self, stump4, stump6):
        out = ta.affine_combination([stump4, stump6], [0.5, 0.5])
        assert scalar_leaves(out) == [0.0, 0.5, 1.0]

    def test_self_cancellation_is_exact(self, stump4):
        out = ta.affine_combination([stump4, stump4], [1.0, -1.0])
        assert scalar_leaves(out) == [0.0, 0.0]

    def test_weight_length_mismatch(self, stump4, stump6):
        with pytest.raises(ta.DomainError, match="^2 weights for 1 tree$"):
            ta.affine_combination([stump4], [1.0, 2.0])
        with pytest.raises(ta.DomainError, match="^1 weight for 2 trees$"):
            ta.affine_combination([stump4, stump6], [1.0])

    def test_weights_must_be_a_vector(self, stump4, stump6):
        with pytest.raises(ta.DomainError) as raised:
            ta.affine_combination([stump4, stump6], np.array([[1.0], [2.0]]))
        assert str(raised.value) == "affine weights have shape (2, 1), not one weight per tree"
        # the count is checked first
        with pytest.raises(ta.DomainError, match="^3 weights for 2 trees$"):
            ta.affine_combination([stump4, stump6], np.ones((3, 1)))

    def test_pointwise_weighted_sum(self, rng):
        schema = ta.random_schema(rng, max_features=5)
        trees = [ta.random_tree(schema, rng, int(rng.integers(1, 20))) for _ in range(4)]
        weights = [float(w) for w in rng.normal(size=4)]
        out = ta.affine_combination(trees, weights)
        X = np.column_stack(
            [
                rng.uniform(f.low, f.high, 500)
                if isinstance(f, ta.NumericFeature)
                else rng.integers(0, len(f.levels), 500).astype(float)
                for f in schema.features
            ]
        )
        got = evaluate_batch(out, X)
        expected = np.zeros(500)
        for w, t in zip(weights, trees):
            expected = expected + w * evaluate_batch(t, X)
        assert np.allclose(got, expected, atol=1e-12)

    def test_left_fold_grouping_matches_exactly(self, rng):
        """(w1 a + w2 b) + w3 c computed through a nested affine combination
        reproduces the flat three-way combination bit for bit."""
        schema = ta.random_schema(rng, max_features=4)
        a, b, c = (ta.random_tree(schema, rng, int(rng.integers(1, 12))) for _ in range(3))
        w1, w2, w3 = 0.3, -1.7, 0.9
        flat = ta.affine_combination([a, b, c], [w1, w2, w3])
        nested = ta.affine_combination([ta.affine_combination([a, b], [w1, w2]), c], [1.0, w3])
        X = np.column_stack(
            [
                rng.uniform(f.low, f.high, 2000)
                if isinstance(f, ta.NumericFeature)
                else rng.integers(0, len(f.levels), 2000).astype(float)
                for f in schema.features
            ]
        )
        assert (evaluate_batch(flat, X) == evaluate_batch(nested, X)).all()


class TestSimplify:
    def test_cancelled_tree_collapses_to_one_leaf(self, stump4):
        out = ta.simplify(ta.affine_combination([stump4, stump4], [1.0, -1.0]))
        assert out.n_nodes == 1
        assert out.leaves.value(out.leaf[out.root_pos]) == Scalar(0.0)

    def test_distinct_leaves_untouched(self, stump4):
        out = ta.simplify(stump4)
        assert out.n_nodes == 3
        assert scalar_leaves(out) == [0.0, 1.0]

    def test_projection_recovers_first_tree(self, stump4, stump6, rng):
        projected = ta.simplify(ta.affine_combination([stump4, stump6], [1.0, 0.0]))
        assert projected.n_leaves == 2
        X = np.column_stack([rng.uniform(0, 10, 1000), rng.uniform(0, 10, 1000)])
        assert (evaluate_batch(projected, X) == evaluate_batch(stump4, X)).all()

    def test_function_unchanged_on_random_trees(self, rng):
        schema = ta.random_schema(rng, max_features=4)
        tree = ta.affine_combination(
            [ta.random_tree(schema, rng, 10), ta.random_tree(schema, rng, 10)],
            [1.0, -1.0],
        )
        simplified = ta.simplify(tree)
        assert simplified.n_nodes <= tree.n_nodes
        X = np.column_stack(
            [
                rng.uniform(f.low, f.high, 1000)
                if isinstance(f, ta.NumericFeature)
                else rng.integers(0, len(f.levels), 1000).astype(float)
                for f in schema.features
            ]
        )
        assert (evaluate_batch(simplified, X) == evaluate_batch(tree, X)).all()


class TestCombineProperties:
    def test_product_correctness_and_bounds(self, rng):
        for trial in range(60):
            schema = ta.random_schema(rng, max_features=8)
            t1 = ta.random_tree(schema, rng, int(rng.integers(1, 100)))
            t2 = ta.random_tree(schema, rng, int(rng.integers(1, 100)))
            budget = CombineBudget()
            combined = ta.combine_pair(t1, t2, budget)
            assert budget.calls_made <= t1.n_nodes * t2.n_nodes
            assert combined.n_leaves <= t1.n_leaves * t2.n_leaves
            assert ta.validate(combined) == []
            assert ta.pointwise_equivalence(combined, [t1, t2], 2000, seed=trial) is None

    def test_working_region_stays_inside_node_regions(self, rng):
        """Every leaf region of the overlay lies inside the regions of the
        two source leaves that an interior point of it routes to."""
        for _ in range(10):
            schema = ta.random_schema(rng, max_features=5)
            t1 = ta.random_tree(schema, rng, 25)
            t2 = ta.random_tree(schema, rng, 25)
            combined = ta.combine_pair(t1, t2)
            for _, region in iter_leaves_with_regions(combined):
                x = interior_point(region)
                for source in (t1, t2):
                    leaf = route(source, x)
                    assert region_subset(region, node_region(source, leaf))

    def test_fold_order_agrees_pointwise(self, rng):
        schema = ta.random_schema(rng, max_features=4)
        trees = [ta.random_tree(schema, rng, 8) for _ in range(3)]
        abc = ta.combine_many(trees)
        bca = ta.combine_many([trees[1], trees[2], trees[0]])
        X = np.column_stack(
            [
                rng.uniform(f.low, f.high, 1000)
                if isinstance(f, ta.NumericFeature)
                else rng.integers(0, len(f.levels), 1000).astype(float)
                for f in schema.features
            ]
        )
        from treealgebra.trees import route_batch

        # combined trees are built, so their node ids are their positions
        rows_abc = abc.leaf[route_batch(abc, X)]
        rows_bca = bca.leaf[route_batch(bca, X)]
        for i in range(len(X)):
            va = abc.leaves.value(rows_abc[i]).values
            vb = bca.leaves.value(rows_bca[i]).values
            assert (va[0], va[1], va[2]) == (vb[2], vb[0], vb[1])

    def test_mixed_hyperplane_and_numeric_splits_combine(self, mixed_pair):
        a, b = mixed_pair
        for t1, t2 in ((a, b), (b, a)):
            combined = ta.combine_pair(t1, t2)
            assert ta.validate(combined) == []
            assert ta.pointwise_equivalence(combined, [t1, t2], 4000, seed=0) is None

    def test_hyperplane_splits_combine(self, d2, stump4, rng):
        b = ta.TreeBuilder(d2)
        left, right = b.split_node(b.add_root(), ta.Hyperplane((1.0, 1.0), 10.0))
        b.set_value(left, Scalar(0.0))
        b.set_value(right, Scalar(2.0))
        hyper = b.build()
        combined = ta.combine_pair(hyper, stump4)
        assert ta.validate(combined) == []
        assert ta.pointwise_equivalence(combined, [hyper, stump4], 4000, seed=0) is None


def assert_same_overlay(got, want):
    """Equal node arrays, split columns and leaf tables."""
    for name in ("ids", "left", "right", "parent", "kind", "feature", "threshold", "leaf"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b, equal_nan=name == "threshold"), name
    assert got.root == want.root
    assert got.split.dtype == want.split.dtype == object
    assert got.split.tolist() == want.split.tolist()
    assert (got.leaves.kind, got.leaves.entry) == (want.leaves.kind, want.leaves.entry)
    assert np.array_equal(got.leaves.values, want.leaves.values)
    assert np.array_equal(got.leaves.sources, want.leaves.sources)


def pool_tree(schema, rng, n_splits, pool):
    """A random valid tree whose splits come from ``pool``, a list of
    functions of the rng that each return a split: every split cuts its
    node's region, as decided by Region.split."""
    b = ta.TreeBuilder(schema)
    leaves = [(b.add_root(), Region.full(schema))]
    for _ in range(20 * n_splits):
        if len(leaves) > n_splits:
            break
        k = int(rng.integers(0, len(leaves)))
        nid, region = leaves[k]
        split = pool[int(rng.integers(0, len(pool)))](rng)
        left, right = region.split(split)
        if left is None or right is None:
            continue
        lw, rw = b.split_node(nid, split)
        leaves[k] = (lw, left)
        leaves.append((rw, right))
    for nid, _ in leaves:
        b.set_value(nid, Scalar(float(rng.uniform(-1, 1))))
    return b.build()


def grid_pool(schema, steps):
    """Numeric thresholds on a grid of ``steps`` + 1 points per feature, its
    lower bound included, and random categorical level subsets."""
    pool = []
    for j, f in enumerate(schema.features):
        if isinstance(f, ta.NumericFeature):
            grid = np.linspace(f.low, f.high, steps + 1)[:-1]
            pool.append(lambda rng, j=j, grid=grid: NumericThreshold(j, float(rng.choice(grid))))
        else:
            n = len(f.levels)
            pool.append(lambda rng, j=j, n=n: ta.CategoricalSubset(
                j, frozenset(rng.choice(n, int(rng.integers(1, n)), replace=False).tolist())))
    return pool


def mixed_pool():
    """A schema, five hyperplanes and a split pool that draws them with the
    grid of :func:`grid_pool`. The pool is small, so identical hyperplanes
    recur within and across trees; x0 + x1 <= 0 only touches the domain at
    a corner, and x0 <= 0.5 as a hyperplane only touches the region right
    of the same threshold."""
    schema = ta.FeatureSchema((
        ta.CategoricalFeature("many", tuple(f"m{i}" for i in range(70))),
        ta.NumericFeature("x0", 0.0, 1.0),
        ta.NumericFeature("x1", 0.0, 1.0),
        ta.CategoricalFeature("c", ("a", "b", "c")),
    ))
    planes = [Hyperplane((1.0, 1.0), 0.0), Hyperplane((1.0, 1.0), 1.0),
              Hyperplane((1.0, -1.0), 0.25), Hyperplane((1.0, 0.0), 0.5),
              Hyperplane((-1.0, 2.0), 0.5)]
    pool = grid_pool(schema, 2) + [lambda rng: planes[int(rng.integers(0, len(planes)))]] * 4
    return schema, planes, pool


class TestFrontierOverlayMatchesReference:
    """The walk of an axis-aligned fold builds the tree the depth-first
    reference fold builds, array for array, on pairs and on folds of 3-10
    trees; a fold with hyperplanes is depth first from its first tree with
    one on, and matches too."""

    def check(self, trees, lps=None):
        """The overlay of some trees by both; with ``lps``, the list that
        records feasibility LPs, both must run as many."""
        budget = CombineBudget()
        start = len(lps or ())
        if len(trees) == 2:
            got = ta.combine_pair(*trees, budget)
            assert budget.calls_made <= trees[0].n_nodes * trees[1].n_nodes
        else:
            got = ta.combine_many(trees, budget)
        middle = len(lps or ())
        assert_same_overlay(got, combine_many_reference(trees))
        assert len(lps or ()) - middle == middle - start
        return got

    def test_random_trees(self, rng):
        for _ in range(80):
            schema = ta.random_schema(rng, max_features=5)
            k = int(rng.choice([2, 2, 3, 4, 5]))
            self.check([ta.random_tree(schema, rng, int(rng.integers(0, 12))) for _ in range(k)])

    def test_shared_grid_thresholds_and_many_levels(self, rng):
        # thresholds coincide, nest and sit on a closed lower bound; the
        # 70-level feature puts the level masks of the next one across
        # two 64-bit words
        schema = ta.FeatureSchema((
            ta.NumericFeature("x", 0.0, 1.0),
            ta.CategoricalFeature("many", tuple(f"m{i}" for i in range(70))),
            ta.NumericFeature("y", -2.0, 2.0),
            ta.CategoricalFeature("few", ("a", "b", "c")),
        ))
        pool = grid_pool(schema, 4)
        sizes = {}
        for _ in range(60):
            k = int(rng.choice([2, 2, 3, 4, 5]))
            trees = [pool_tree(schema, rng, int(rng.integers(1, 7)), pool) for _ in range(k)]
            out = self.check(trees)
            sizes[k] = max(sizes.get(k, 0), out.n_nodes)
        assert sizes[2] > 20 and max(sizes.values()) > 100

    def test_long_folds_with_one_leaf_trees(self, rng):
        # a one-leaf tree first, in the middle and last: the walk skips
        # each, with its leaf row filled in from the start
        schema = ta.FeatureSchema((
            ta.NumericFeature("x", 0.0, 1.0),
            ta.CategoricalFeature("c", ("a", "b", "c", "d")),
            ta.NumericFeature("y", -2.0, 2.0),
        ))
        pool = grid_pool(schema, 4)
        sizes = []
        for _ in range(15):
            k = int(rng.integers(4, 8))
            trees = [pool_tree(schema, rng, int(rng.integers(1, 3)), pool) for _ in range(k)]
            for at in (0, k // 2 + 1, k + 2):
                trees.insert(at, pool_tree(schema, rng, 0, pool))
            sizes.append(self.check(trees).n_nodes)
        self.check([pool_tree(schema, rng, 0, pool) for _ in range(3)])
        assert max(sizes) > 50

    def test_hyperplane_and_numeric_mixes(self, rng, monkeypatch):
        schema, planes, pool = mixed_pool()
        calls = []
        feasible = simplex.feasible

        def counted(a, b, start=None):
            calls.append(1)
            return feasible(a, b, start)

        monkeypatch.setattr(simplex, "feasible", counted)
        # a row that meets a hyperplane right of x0 <= 0, whose region is
        # open at the domain's lower bound, then meets x0 <= 0 again
        a = ta.TreeBuilder(schema)
        left, right = a.split_node(a.add_root(), NumericThreshold(1, 0.0))
        a.set_value(left, Scalar(1.0))
        for node, value in zip(a.split_node(right, planes[1]), (2.0, 3.0)):
            a.set_value(node, Scalar(value))
        stump = ta.TreeBuilder(schema)
        for node, value in zip(stump.split_node(stump.add_root(), NumericThreshold(1, 0.0)),
                               (4.0, 5.0)):
            stump.set_value(node, Scalar(value))
        folds = [[a.build(), stump.build()]]
        for _ in range(50):
            k = int(rng.choice([2, 2, 3, 4]))
            folds.append([pool_tree(schema, rng, int(rng.integers(1, 6)), pool) for _ in range(k)])
        # a one-leaf first tree has the second copied below its leaf, one
        # state per node of the second, within the n1 * n2 bound of check
        folds.append([pool_tree(schema, rng, 0, pool), a.build()])
        for _ in range(10):
            folds.append([pool_tree(schema, rng, 0, pool),
                          pool_tree(schema, rng, int(rng.integers(1, 6)), pool)])
        for trees in folds:
            # the fold of a tree with a hyperplane is the reference's own
            # overlay, so it is also checked against its sources
            got = self.check(trees, calls)
            assert ta.pointwise_equivalence(got, trees, 200, seed=0) is None
        assert len(calls) > 100

    def test_budget_overflow_matches(self, rng):
        schema = ta.random_schema(rng, max_features=4)
        trees = [ta.random_tree(schema, rng, 6) for _ in range(3)]
        size = ta.combine_many(trees).n_nodes
        for max_nodes in (1, 2, size // 2, size - 1):
            with pytest.raises(ta.BudgetExceededError) as got:
                ta.combine_many(trees, CombineBudget(max_nodes=max_nodes))
            with pytest.raises(ta.BudgetExceededError) as want:
                combine_many_reference(trees, CombineBudget(max_nodes=max_nodes))
            assert str(got.value) == str(want.value)
        assert ta.combine_many(trees, CombineBudget(max_nodes=size)).n_nodes == size


def repeated_hyperplanes(tree):
    """The number of nodes whose hyperplane split is already on their path,
    which leaves one of their sides empty."""
    left, right, splits = tree.left_pos.tolist(), tree.right_pos.tolist(), tree.splits()
    count, stack = 0, [(tree.root_pos, ())]
    while stack:
        i, path = stack.pop()
        if left[i] < 0:
            continue
        if isinstance(splits[i], Hyperplane):
            count += splits[i] in path
            path += (splits[i],)
        stack += [(left[i], path), (right[i], path)]
    return count


def build(schema, node):
    """A tree from nested ``(split, left, right)`` tuples with scalar leaves."""
    b = ta.TreeBuilder(schema)
    stack = [(b.add_root(), node)]
    while stack:
        nid, node = stack.pop()
        if isinstance(node, tuple):
            lw, rw = b.split_node(nid, node[0])
            stack += [(lw, node[1]), (rw, node[2])]
        else:
            b.set_value(nid, Scalar(node))
    return b.build()


class TestSplitsAlreadyOnThePath:
    """The depth-first overlay descends both trees at once where a split of
    the second tree is already settled on the path, whether both trees
    stand at it together or it comes back deeper: no node is added for it."""

    SCHEMA = ta.FeatureSchema((ta.NumericFeature("x", 0.0, 1.0), ta.NumericFeature("y", 0.0, 1.0),
                               ta.CategoricalFeature("c", ("a", "b", "c", "d"))))
    H, G = Hyperplane((1.0, 1.0), 1.0), Hyperplane((1.0, -1.0), 0.0)

    @pytest.mark.parametrize("split, again", [
        (NumericThreshold(0, 0.25), NumericThreshold(0, 0.25)),
        # the complement: the same bipartition, sides swapped
        (ta.CategoricalSubset(2, {0}), ta.CategoricalSubset(2, {1, 2, 3})),
        # different level sets that agree on the region's levels {a, b}
        (ta.CategoricalSubset(2, {0}), ta.CategoricalSubset(2, {0, 2})),
        (G, G),
    ], ids=["numeric", "swapped-categorical", "region-categorical", "hyperplane"])
    def test_a_repeated_split_adds_no_node(self, split, again):
        # a hyperplane at the root makes the fold depth first; the split
        # stands in the region left of it with levels {a, b}
        def tree(s):
            levels = ta.CategoricalSubset(2, {0, 1})
            return build(self.SCHEMA, (self.H, (levels, (s, 1.0, 2.0), 3.0), 4.0))

        t, t2 = tree(split), tree(again)
        for pair in ([t, t2], [t2, t]):
            got = ta.combine_many(pair)
            assert got.n_nodes == t.n_nodes == 7
            assert ta.validate(got) == []
            assert ta.pointwise_equivalence(got, pair, 200, seed=0) is None

    def test_a_hyperplane_deeper_on_the_path_adds_no_node(self):
        # the stump's hyperplane comes back under both children of the
        # second tree's root: the overlay writes it once, not 15 nodes
        stump = build(self.SCHEMA, (self.H, 1.0, 2.0))
        tree = build(self.SCHEMA, (self.G, (self.H, 3.0, 4.0), (self.H, 5.0, 6.0)))
        for pair in ([stump, tree], [tree, stump]):
            got = ta.combine_many(pair)
            assert got.n_nodes == 7
            assert repeated_hyperplanes(got) == 0
            assert ta.validate(got) == []
            assert ta.pointwise_equivalence(got, pair, 200, seed=0) is None

    def test_a_hyperplane_below_itself_does_not_validate(self):
        tree = build(self.SCHEMA, (self.G, (self.G, 1.0, 2.0), 3.0))
        assert ta.validate(tree) == ["node 1: split does not partition node region"]

    def test_fuzzed_folds_repeat_no_hyperplane(self):
        """Folds of pool trees whose hyperplanes recur across trees write
        none below itself, and each equals its sources pointwise."""
        schema, _, pool = mixed_pool()
        rng = np.random.default_rng(7)
        nodes = shared = 0
        for _ in range(80):
            k = int(rng.integers(2, 5))
            trees = [pool_tree(schema, rng, int(rng.integers(0, 6)), pool) for _ in range(k)]
            got = ta.combine_many(trees)
            assert repeated_hyperplanes(got) == 0
            assert ta.validate(got) == []
            assert ta.pointwise_equivalence(got, trees, 200, seed=0) is None
            nodes += got.n_nodes
            used = [{s for s in t.splits() if isinstance(s, Hyperplane)} for t in trees]
            shared += any(a & b for m, a in enumerate(used) for b in used[m + 1:])
        assert shared > 20 and nodes > 1000

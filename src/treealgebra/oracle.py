"""Brute-force reference computations, random-tree generation and the
per-node validation walk.

The cell grid enumerates the exact refinement of the domain by every
threshold appearing in a set of axis-aligned trees; each tree is constant on
each cell, so any integral of a pointwise combination of the trees reduces
to an exact finite sum. That makes :func:`grid_integral` an independent
check for every exact quantity in :mod:`treealgebra.measures`.
:func:`monte_carlo_integral` is the statistical fallback for trees the grid
cannot handle (hyperplane splits). :func:`recursive_pair_sum` is the
paper's conditional-proportion recursion down a combined tree, the
reference for the pair statistics, which :mod:`treealgebra.measures`
computes without building that tree.

The region functions are reference code too, since the library never
needs the region of a node or the mass of a region: :func:`node_region`
and :func:`iter_leaves_with_regions` give the regions of a tree's nodes,
:func:`contains_batch` and :func:`region_measure` the points and the mass
in a region. :func:`route` routes one point at a time, one split at a time
(:func:`goes_left`), as the check on the library's batch routing.
:func:`combine_many_reference` folds every tree with the depth-first pair
overlay of :mod:`treealgebra.combine`, which the library uses only from
the first tree with a hyperplane split on: the check on its walk of an
axis-aligned fold.

:func:`validate_reference` checks a tree one node at a time, depth first,
and is the only code that writes validation messages: the stacked pass of
:func:`treealgebra.trees.check_trees` decides which trees may be invalid
and imports this module to describe only those. So the library needs this
module on the error path, and a valid file never loads it. Both find the
splits that leave a side of their region empty with the one partition
walk, :func:`treealgebra.trees.partition_faults`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import (
    DomainError,
    SchemaError,
    UnknownNodeError,
    UnsupportedGeometryError,
)
from .combine import CombineBudget, _combine, _tuple_tree
from .geometry import Empirical, Measure, UniformBox
from .trees import (
    HYPERPLANE,
    NUMERIC,
    CategoricalFeature,
    CategoricalSubset,
    ClassProbs,
    FeatureSchema,
    Leaves,
    LeafValue,
    NumericFeature,
    NumericThreshold,
    Region,
    Rule,
    Scalar,
    Side,
    Split,
    Tree,
    TreeBuilder,
    TupleValue,
    _entry,
    _goes_left_batch,
    _operands,
    _pack,
    _positions,
    _route_batch,
    _value_rules,
    evaluate_batch,
    partition_faults,
    split_faults,
)

__all__ = [
    "CellGrid",
    "grid_integral",
    "monte_carlo_integral",
    "goes_left",
    "route",
    "contains_batch",
    "region_measure",
    "node_region",
    "iter_leaves_with_regions",
    "combine_many_reference",
    "validate_reference",
    "recursive_pair_sum",
    "sq_diff_term",
    "pointwise_equivalence",
    "Counterexample",
    "sample_points",
    "random_schema",
    "random_tree",
]

_MAX_CELLS = 4_000_000


# ---------------------------------------------------------------------------
# Cell grid


@dataclass(frozen=True)
class CellGrid:
    """The exact product grid refined by every threshold of a tree set.

    ``breakpoints[k]`` holds the sorted cut points (including the domain
    bounds) for the k-th numeric feature; categorical features contribute one
    cell per level. Every input tree is constant on every cell, except for
    the degenerate point region created by a threshold exactly at a domain
    bound, which has measure zero and is attributed to its neighboring cell.
    """

    schema: FeatureSchema
    breakpoints: tuple[tuple[float, ...], ...]

    @classmethod
    def from_trees(
        cls,
        schema: FeatureSchema,
        trees: Sequence[Tree],
        extra_breakpoints: Optional[Sequence[Sequence[float]]] = None,
    ) -> "CellGrid":
        cuts: list[set[float]] = [
            {f.low, f.high} if isinstance(f, NumericFeature) else set()
            for f in schema.features
        ]
        for t in trees:
            if t.schema != schema:
                raise SchemaError("tree schema differs from grid schema")
            if (t.kind == HYPERPLANE).any():
                raise UnsupportedGeometryError("cell grid cannot refine by hyperplane splits")
            numeric = t.kind == NUMERIC
            for j, s in zip(t.feature[numeric].tolist(), t.threshold[numeric].tolist()):
                if schema.features[j].low < s < schema.features[j].high:
                    cuts[j].add(s)
        if extra_breakpoints is not None:
            for j, extras in enumerate(extra_breakpoints):
                f = schema.features[j]
                if isinstance(f, NumericFeature):
                    cuts[j].update(x for x in extras if f.low < x < f.high)
        return cls(
            schema,
            tuple(
                tuple(sorted(cuts[j]))
                if isinstance(f, NumericFeature)
                else ()
                for j, f in enumerate(schema.features)
            ),
        )

    def _axes(self):
        """Per-feature (representatives, uniform weights, cut arrays)."""
        reps, weights, cut_arrays = [], [], []
        for f, cuts in zip(self.schema.features, self.breakpoints):
            if isinstance(f, NumericFeature):
                b = np.asarray(cuts)
                reps.append((b[:-1] + b[1:]) / 2.0)
                weights.append(np.diff(b) / (f.high - f.low))
                cut_arrays.append(b)
            else:
                k = len(f.levels)
                reps.append(np.arange(k, dtype=float))
                weights.append(np.full(k, 1.0 / k))
                cut_arrays.append(None)
        return reps, weights, cut_arrays

    @property
    def n_cells(self) -> int:
        n = 1
        for f, cuts in zip(self.schema.features, self.breakpoints):
            n *= len(cuts) - 1 if isinstance(f, NumericFeature) else len(f.levels)
        return n

    def representatives(self) -> np.ndarray:
        """Encoded interior representative of every cell, shape (n_cells, p).

        Representatives are interval midpoints, so routing never lands on a
        threshold and the boundary convention cannot matter.
        """
        reps, _, _ = self._axes()
        mesh = np.meshgrid(*reps, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    def masses(self, measure: Measure) -> np.ndarray:
        """Probability mass of every cell, aligned with :meth:`representatives`."""
        reps, weights, cut_arrays = self._axes()
        if isinstance(measure, UniformBox):
            mass = np.ones(1)
            for w in weights:
                mass = np.multiply.outer(mass, w).ravel()
            return mass
        # empirical: assign each sample point to its cell. Cells are
        # [b0, b1], (b1, b2], ... so a point equal to an interior cut
        # belongs to the cell on its left, matching the routing convention.
        shape = tuple(len(r) for r in reps)
        idx = np.zeros((len(measure.points), len(shape)), dtype=np.int64)
        for j, cuts in enumerate(cut_arrays):
            col = measure.points[:, j]
            if cuts is None:
                idx[:, j] = col.astype(np.int64)
            else:
                idx[:, j] = np.maximum(np.searchsorted(cuts, col, side="left") - 1, 0)
        flat = np.ravel_multi_index(tuple(idx.T), shape)
        return np.bincount(flat, weights=measure.weights, minlength=self.n_cells)


# ---------------------------------------------------------------------------
# Combiners


def _raw_value(values, weights=None):
    return values[0]


def _product(values, weights=None):
    return values[0] * values[1]


def _squared_difference(values, weights=None):
    d = values[0] - values[1]
    sq = d * d
    return sq if sq.ndim == 1 else sq.sum(axis=1)


def _weighted_sum_then_square(values, weights=None):
    if weights is None:
        raise DomainError("weighted-sum-then-square needs weights")
    acc = float(weights[0]) * values[0]
    for w, v in zip(weights[1:], values[1:]):
        acc = acc + float(w) * v
    return acc * acc


_COMBINERS: dict[str, Callable] = {
    "raw-value": _raw_value,
    "product": _product,
    "squared-difference": _squared_difference,
    "weighted-sum-then-square": _weighted_sum_then_square,
}

Combiner = Union[str, Callable]


def _resolve_combiner(combiner: Combiner, weights):
    if callable(combiner):
        return lambda values: combiner(values)
    try:
        fn = _COMBINERS[combiner]
    except KeyError:
        raise DomainError(
            f"unknown combiner {combiner!r}; choose from {sorted(_COMBINERS)}"
        )
    return lambda values: fn(values, weights=weights)


def grid_integral(
    trees: Sequence[Tree],
    combiner: Combiner,
    measure: Measure,
    weights: Optional[Sequence[float]] = None,
) -> float:
    """Exact integral of a pointwise combination of axis-aligned trees.

    Enumerates the cell grid, evaluates every tree once per cell at the
    cell's interior representative, combines the values pointwise and sums
    against the cell masses. Exact (up to float summation) because each tree
    is constant on each cell.
    """
    _operands(trees, "grid_integral", scalar=True)
    schema = trees[0].schema
    grid = CellGrid.from_trees(schema, trees)
    if grid.n_cells > _MAX_CELLS:
        raise DomainError(f"cell grid too large ({grid.n_cells} cells)")
    reps = grid.representatives()
    values = [evaluate_batch(t, reps) for t in trees]
    combined = _resolve_combiner(combiner, weights)(values)
    return float(combined @ grid.masses(measure))


# ---------------------------------------------------------------------------
# Point-at-a-time routing and regions


def goes_left(split: Split, x: Sequence[float], schema: FeatureSchema) -> bool:
    """Route an encoded point through one split condition."""
    if isinstance(split, NumericThreshold):
        return x[split.feature] <= split.threshold
    if isinstance(split, CategoricalSubset):
        return int(x[split.feature]) in split.left_levels
    acc = 0.0
    for c, j in zip(split.coefficients, schema.numeric_indices):
        acc += c * x[j]
    return acc <= split.offset


def route(tree: Tree, x: Sequence[float]) -> int:
    """Leaf id reached by an encoded in-domain point."""
    left, right = tree.left_pos.tolist(), tree.right_pos.tolist()
    splits, i = tree.splits(), tree.root_pos
    while left[i] >= 0:
        i = left[i] if goes_left(splits[i], x, tree.schema) else right[i]
    return int(tree.ids[i])


def contains_batch(region: Region, X: np.ndarray) -> np.ndarray:
    """Membership of every row of an (n, p) encoded matrix in a region,
    honoring endpoint flags and half-spaces."""
    mask = np.ones(len(X), dtype=bool)
    for j, cons in enumerate(region.constraints):
        col = X[:, j]
        if isinstance(cons, frozenset):
            mask &= np.isin(col.astype(np.int64), np.fromiter(cons, dtype=np.int64))
        else:
            low, high, low_closed = cons
            mask &= (col >= low if low_closed else col > low) & (col <= high)
    for h, side in region.half_spaces:
        left = _goes_left_batch(h, X, region.schema)
        mask &= left if side is Side.LEFT else ~left
    return mask


def region_measure(region: Region, measure: Measure) -> float:
    """Probability mass of a region.

    The uniform measure is a product over features of normalized interval
    lengths and level fractions; it cannot handle half-space constraints
    (that would mean computing polyhedral volumes). The empirical measure
    sums the weights of the sample points inside the region and supports
    half-spaces.
    """
    if isinstance(measure, UniformBox):
        if region.half_spaces:
            raise UnsupportedGeometryError(
                "uniform measure of a region with hyperplane constraints"
            )
        mass = 1.0
        for f, cons in zip(region.schema.features, region.constraints):
            if isinstance(f, NumericFeature):
                mass *= (cons[1] - cons[0]) / (f.high - f.low)
            else:
                mass *= len(cons) / len(f.levels)
        return mass
    mask = contains_batch(region, measure.points)
    return float(measure.weights[mask].sum())


def node_region(tree: Tree, nid: int) -> Region:
    """The region of a node: the root domain refined by the splits on its path."""
    parent = _positions(tree.ids, tree.parent).tolist()
    i = int(_positions(tree.ids, np.array([nid]))[0])
    if i < 0:
        raise UnknownNodeError(f"no node with id {nid}")
    splits, left, path = tree.splits(), tree.left_pos.tolist(), []
    while parent[i] >= 0:
        path.append((splits[parent[i]], 0 if left[parent[i]] == i else 1))
        i = parent[i]
    region = Region.full(tree.schema)
    for split, side in reversed(path):
        region = region.split(split)[side]
        if region is None:
            raise DomainError(f"node {nid} has an empty derived region")
    return region


def iter_leaves_with_regions(tree: Tree) -> Iterator[tuple[int, Region]]:
    """Yield (leaf id, region) depth-first, left before right.

    The fixed order makes downstream sums bit-reproducible.
    """
    ids, left, right = (a.tolist() for a in (tree.ids, tree.left_pos, tree.right_pos))
    splits = tree.splits()
    stack = [(tree.root_pos, Region.full(tree.schema))]
    while stack:
        i, region = stack.pop()
        if left[i] < 0:
            yield ids[i], region
            continue
        left_side, right_side = region.split(splits[i])
        if left_side is None or right_side is None:
            raise DomainError(f"split at node {ids[i]} does not partition its region")
        stack.append((right[i], right_side))
        stack.append((left[i], left_side))


# ---------------------------------------------------------------------------
# Overlay reference


def combine_many_reference(
    trees: Sequence[Tree], budget: Optional[CombineBudget] = None
) -> Tree:
    """:func:`~treealgebra.combine.combine_many` as a left fold of the
    depth-first pair overlay, one output node at a time: the reference for
    the walk of an axis-aligned fold, which must give the same node arrays,
    split columns and leaf tables."""
    budget = budget if budget is not None else CombineBudget()
    result = _tuple_tree(trees[0])
    for m in range(1, len(trees)):
        result = _combine(result, trees[m], budget, m)
    return result


# ---------------------------------------------------------------------------
# Per-node validation


def _messages(rules: Sequence[Rule], k: int) -> list[str]:
    return [text for mask, texts in rules if mask[k] for text in texts(k)]


def _ragged_faults(value: LeafValue, schema: FeatureSchema) -> list[str]:
    """The messages of one value of a ragged table. A value that packs alone
    is checked as a table of one row; a tuple that does not is named nested
    or mixed, and its source ids and other entries are checked."""
    one = _pack([value])
    if one.ragged is None:
        return _messages(_value_rules(one, schema), 0)
    kinds = {type(e) for e in value.values}
    out = (["nested tuple value"] if TupleValue in kinds
           else ["tuple mixes value kinds"] if len(kinds) > 1 else [])
    ids = Leaves(None, np.zeros((1, 0)), np.array([value.source_ids], dtype=np.int64))
    out += _messages(_value_rules(ids, schema), 0)
    for e in value.values:
        if not isinstance(e, TupleValue):
            out += _ragged_faults(e, schema)
    return out


def _node_faults(tree: Tree) -> tuple[list[str], list[bool]]:
    """Every per-node violation, in node order, and which nodes are well
    formed: internal nodes with a sound split and both children linked
    back, and leaves with a value. Leaf values are checked a whole table at
    a time (:func:`_value_rules`), a ragged table's rows one at a time; only
    a flagged row is looked at again."""
    parent, splits = tree.parent.tolist(), tree.splits()
    leaves, schema = tree.leaves, tree.schema
    rules = (_value_rules(leaves, schema) if leaves.ragged is None else
             [(np.ones(len(leaves.ragged), dtype=bool),
               lambda r: _ragged_faults(leaves.ragged[r], schema))])
    flagged = {r for mask, _ in rules for r in np.flatnonzero(mask).tolist()}
    v: list[str] = []
    well = []
    for i, (nid, left, right, left_pos, right_pos, kind, row) in enumerate(zip(*(
            a.tolist() for a in (tree.ids, tree.left, tree.right, tree.left_pos, tree.right_pos,
                                 tree.kind, tree.leaf)))):
        if left >= 0 and right >= 0:
            ok = kind > 0
            if not ok:
                v.append(f"node {nid}: internal node without split")
            if row >= 0:
                v.append(f"node {nid}: internal node with value")
            for name, child, pos in (("left", left, left_pos), ("right", right, right_pos)):
                if pos < 0:
                    v.append(f"node {nid}: {name} child {child} missing from arena")
                    ok = False
                elif parent[pos] != nid:
                    v.append(f"node {child}: parent link does not point to {nid}")
                    ok = False
            if ok:
                faults = split_faults(splits[i], schema)
                v.extend(f"node {nid}: {text}" for text in faults)
                ok = not faults
            well.append(ok)
            continue
        one_child = left >= 0 or right >= 0
        if one_child:
            v.append(f"node {nid}: has exactly one child")
        if row < 0:
            v.append(f"node {nid}: leaf without value")
        elif row in flagged:
            v.extend(f"node {nid}: {text}" for text in _messages(rules, row))
        if kind > 0:
            v.append(f"node {nid}: leaf with split")
        well.append(row >= 0 and not one_child)
    return v, well


def _reached(tree: Tree) -> np.ndarray:
    """The nodes reachable from the root through children in the tree."""
    left, right = tree.left_pos.tolist(), tree.right_pos.tolist()
    seen, stack = set(), [tree.root_pos]
    while stack:
        i = stack.pop()
        if i >= 0 and i not in seen:
            seen.add(i)
            stack += (left[i], right[i])
    out = np.zeros(tree.n_nodes, dtype=bool)
    out[list(seen)] = True
    return out


def _tuple_faults(values: Sequence[LeafValue], schema: FeatureSchema) -> list[str]:
    """The ways tuple leaves differ from each other, so that no one matrix
    can hold them."""
    tuples = [v for v in values if isinstance(v, TupleValue)]
    out = []
    lengths = sorted({len(v.values) for v in tuples} | {len(v.source_ids) for v in tuples})
    if len(lengths) > 1:
        out.append(f"tuple leaves mix lengths {lengths}")
    inner = [_pack([e for e in v.values if not isinstance(e, TupleValue)]).kinds()
             for v in tuples]
    kinds = sorted({k[0] for k, _ in inner if len(k) == 1})
    if len(kinds) > 1:
        out.append(f"tuple leaves mix value kinds {kinds}")
    lengths = sorted({n for _, ns in inner for n in ns})
    if schema.class_labels is None and len(lengths) > 1:
        out.append(f"tuple leaves mix class-probability lengths {lengths}")
    return out


def validate_reference(tree: Tree) -> list[str]:
    """The violations of a tree, found one node at a time, depth first, in
    the order :func:`~treealgebra.trees.validate` gives them; the stacked
    pass calls it for each tree it cannot show valid."""
    if tree.root_pos < 0:
        return [f"root id {tree.root} not in arena"]
    ids, schema = tree.ids, tree.schema
    v: list[str] = []
    roots = ids[tree.parent < 0].tolist()
    if roots != [tree.root]:
        v.append(f"expected exactly one parentless node {tree.root}, found {roots}")

    faults, well = _node_faults(tree)
    v.extend(faults)

    seen = _reached(tree)
    v.extend(f"node {i}: unreachable from root" for i in ids[~seen].tolist())

    # leaf kind consistency
    rows = tree.leaf[seen & (tree.left < 0) & (tree.leaf >= 0)]
    kinds, lengths = tree.leaves.kinds(rows)
    if len(kinds) > 1:
        v.append(f"leaf values mix kinds {kinds}")
    # with class labels every leaf's length is checked against them
    if schema.class_labels is None and len(lengths) > 1:
        v.append(f"class-probability leaves mix lengths {lengths}")
    if tree.leaves.ragged is not None:
        v.extend(_tuple_faults([tree.leaves.ragged[r] for r in rows.tolist()], schema))

    v.extend(f"node {ids[i]}: split does not partition node region"
             for i in partition_faults(tree, well)[0])
    return v


# ---------------------------------------------------------------------------
# Conditional-proportion recursion over a combined tree


def recursive_pair_sum(
    combined: Tree, measure: Measure, term: Callable[[TupleValue], float]
) -> float:
    """Integral of ``term`` over a tree with pair-valued leaves (the output
    of :func:`~treealgebra.combine.combine_pair`).

    Conditional-proportion recursion: a leaf returns its term, an internal
    node returns the measure-weighted average of its children, each child
    weighted by its share of the parent's mass. Zero-mass subtrees are
    skipped. The root value, scaled by the root mass, is the integral.
    """
    left, right = combined.left_pos.tolist(), combined.right_pos.tolist()
    splits, leaf = combined.splits(), combined.leaf.tolist()
    order: list[int] = []
    mass: dict[int, float] = {}
    stack = [(combined.root_pos, Region.full(combined.schema))]
    while stack:
        i, region = stack.pop()
        m = region_measure(region, measure)
        mass[i] = m
        order.append(i)
        if left[i] < 0 or m == 0.0:
            continue
        left_side, right_side = region.split(splits[i])
        stack.append((right[i], right_side))
        stack.append((left[i], left_side))
    value: dict[int, float] = {}
    for i in reversed(order):
        if left[i] < 0:
            value[i] = term(combined.leaves.value(leaf[i]))
        elif mass[i] == 0.0:
            value[i] = 0.0
        else:
            p_l = mass[left[i]] / mass[i]
            p_r = mass[right[i]] / mass[i]
            value[i] = p_l * value[left[i]] + p_r * value[right[i]]
    return value[combined.root_pos] * mass[combined.root_pos]


def sq_diff_term(tv: TupleValue) -> float:
    """Squared difference of a pair of scalar or class-probability values."""
    a, b = tv.values
    if isinstance(a, Scalar):
        d = a.value - b.value
        return d * d
    acc = 0.0
    for pa, pb in zip(a.probs, b.probs):
        d = pa - pb
        acc += d * d
    return acc


# ---------------------------------------------------------------------------
# Monte Carlo


def sample_points(
    schema: FeatureSchema, measure: Measure, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw n encoded points from a measure (uniform box or weighted resampling)."""
    if isinstance(measure, Empirical):
        idx = rng.choice(len(measure.points), size=n, p=measure.weights)
        return measure.points[idx]
    cols = []
    for f in schema.features:
        if isinstance(f, NumericFeature):
            cols.append(rng.uniform(f.low, f.high, size=n))
        else:
            cols.append(rng.integers(0, len(f.levels), size=n).astype(float))
    return np.column_stack(cols)


def monte_carlo_integral(
    trees: Sequence[Tree],
    combiner: Combiner,
    measure: Measure,
    n: int,
    seed: int,
    weights: Optional[Sequence[float]] = None,
) -> tuple[float, float]:
    """Sample-mean estimate of an integral plus its standard error.

    Reproducible: identical inputs and seed give bit-identical results.
    """
    _operands(trees, "monte_carlo_integral", scalar=True)
    if n < 100:
        raise DomainError("monte_carlo_integral needs n >= 100")
    rng = np.random.default_rng(seed)
    X = sample_points(trees[0].schema, measure, n, rng)
    values = [evaluate_batch(t, X) for t in trees]
    y = _resolve_combiner(combiner, weights)(values)
    estimate = float(y.mean())
    std_error = float(y.std(ddof=1) / np.sqrt(n))
    return estimate, std_error


# ---------------------------------------------------------------------------
# Pointwise equivalence


@dataclass(frozen=True)
class Counterexample:
    point: tuple
    combined_value: LeafValue
    expected_values: tuple[LeafValue, ...]


def pointwise_equivalence(
    t_combined: Tree, originals: Sequence[Tree], n: int, seed: int
) -> Optional[Counterexample]:
    """Check that a tuple-leaf tree evaluates to the vector of its sources.

    Samples n uniform in-domain points and requires exact equality at every
    point; returns None on success or the first failing point.
    """
    schema = t_combined.schema
    for t in originals:
        if t.schema != schema:
            raise SchemaError("original tree schema differs from combined tree")
    rng = np.random.default_rng(seed)
    X = sample_points(schema, UniformBox(), n, rng)
    rows = t_combined.leaf[_route_batch(t_combined, X)]
    blocks = t_combined.leaves.blocks()[rows]
    per_source = [evaluate_batch(orig, X).reshape(n, -1) for orig in originals]
    bad = np.zeros(n, dtype=bool)
    for m, values in enumerate(per_source):
        bad |= (blocks[:, m] != values).any(axis=1)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return Counterexample(
        schema.decode_point(X[i]),
        t_combined.leaves.value(int(rows[i])),
        tuple(_entry(orig.leaves.entry, values[i].tolist())
              for orig, values in zip(originals, per_source)),
    )


# ---------------------------------------------------------------------------
# Random trees


def random_schema(
    rng: np.random.Generator,
    max_features: int = 8,
    max_levels: int = 5,
    class_labels: Optional[Sequence[str]] = None,
) -> FeatureSchema:
    """A random mixed numeric/categorical schema (at least one numeric feature)."""
    p = int(rng.integers(1, max_features + 1))
    features = []
    for j in range(p):
        if j == 0 or rng.random() < 0.7:
            low = float(rng.uniform(-10, 10))
            width = float(rng.uniform(0.5, 20))
            features.append(NumericFeature(f"x{j}", low, low + width))
        else:
            k = int(rng.integers(2, max_levels + 1))
            features.append(
                CategoricalFeature(f"c{j}", tuple(f"l{j}_{i}" for i in range(k)))
            )
    labels = tuple(class_labels) if class_labels is not None else None
    return FeatureSchema(tuple(features), labels)


def random_tree(
    schema: FeatureSchema,
    rng: np.random.Generator,
    n_splits: int,
    leaf_kind: str = "scalar",
    max_depth: Optional[int] = None,
    value_range: tuple[float, float] = (-1.0, 1.0),
) -> Tree:
    """Grow a random valid tree: pick a leaf, a feature, and a split value
    uniform over the leaf's current interval (or a random proper level
    subset), until the split count or depth cap is reached."""
    builder = TreeBuilder(schema)
    root = builder.add_root()
    leaves: list[tuple[int, Region, int]] = [(root, Region.full(schema), 0)]
    done = 0
    attempts = 0
    while done < n_splits and attempts < 50 * (n_splits + 1):
        attempts += 1
        eligible = [
            k
            for k, (_, _, d) in enumerate(leaves)
            if max_depth is None or d < max_depth
        ]
        if not eligible:
            break
        k = eligible[int(rng.integers(0, len(eligible)))]
        nid, region, depth = leaves[k]
        j = int(rng.integers(0, schema.n_features))
        f = schema.features[j]
        if isinstance(f, NumericFeature):
            low, high, _ = region.constraints[j]
            split = NumericThreshold(j, float(rng.uniform(low, high)))
        else:
            admissible = sorted(region.constraints[j])
            if len(admissible) < 2:
                continue
            size = int(rng.integers(1, len(admissible)))
            chosen = rng.choice(len(admissible), size=size, replace=False)
            split = CategoricalSubset(j, frozenset(admissible[i] for i in chosen))
        left, right = region.split(split)
        if left is None or right is None:
            continue
        lw, rw = builder.split_node(nid, split)
        leaves[k] = (lw, left, depth + 1)
        leaves.append((rw, right, depth + 1))
        done += 1
    lo, hi = value_range
    for nid, _, _ in leaves:
        if leaf_kind == "scalar":
            builder.set_value(nid, Scalar(float(rng.uniform(lo, hi))))
        elif leaf_kind == "class_probs":
            n_classes = len(schema.class_labels) if schema.class_labels else 2
            raw = rng.random(n_classes) + 1e-3
            raw /= raw.sum()
            builder.set_value(nid, ClassProbs(tuple(float(x) for x in raw)))
        else:
            raise DomainError(f"unsupported leaf kind {leaf_kind!r}")
    return builder.build()

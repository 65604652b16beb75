"""Brute-force reference computations and random-tree generation.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, SchemaError, UnsupportedGeometryError
from .geometry import Empirical, Measure, UniformBox, region_measure
from .trees import (
    CategoricalFeature,
    CategoricalSubset,
    ClassProbs,
    FeatureSchema,
    Hyperplane,
    LeafValue,
    NumericFeature,
    NumericThreshold,
    Region,
    Scalar,
    Side,
    Tree,
    TreeBuilder,
    TupleValue,
    evaluate_batch,
    route_batch,
)

__all__ = [
    "CellGrid",
    "grid_integral",
    "monte_carlo_integral",
    "recursive_pair_sum",
    "sq_diff_term",
    "pointwise_equivalence",
    "Counterexample",
    "sample_points",
    "random_schema",
    "random_tree",
    "random_forest",
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
            for node in t.nodes.values():
                s = node.split
                if s is None:
                    continue
                if isinstance(s, Hyperplane):
                    raise UnsupportedGeometryError(
                        "cell grid cannot refine by hyperplane splits"
                    )
                if isinstance(s, NumericThreshold):
                    if schema.features[s.feature].low < s.threshold < schema.features[s.feature].high:
                        cuts[s.feature].add(s.threshold)
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
    schema = trees[0].schema
    grid = CellGrid.from_trees(schema, trees)
    if grid.n_cells > _MAX_CELLS:
        raise DomainError(f"cell grid too large ({grid.n_cells} cells)")
    reps = grid.representatives()
    values = [evaluate_batch(t, reps) for t in trees]
    combined = _resolve_combiner(combiner, weights)(values)
    return float(combined @ grid.masses(measure))


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
    root_region = Region.full(combined.schema)
    order: list[int] = []
    mass: dict[int, float] = {}
    stack = [(combined.root, root_region)]
    while stack:
        nid, region = stack.pop()
        m = region_measure(region, measure)
        mass[nid] = m
        order.append(nid)
        node = combined.nodes[nid]
        if node.left is None or m == 0.0:
            continue
        stack.append((node.right, region.try_refine(node.split, Side.RIGHT)))
        stack.append((node.left, region.try_refine(node.split, Side.LEFT)))
    value: dict[int, float] = {}
    for nid in reversed(order):
        node = combined.nodes[nid]
        if node.left is None:
            value[nid] = term(node.value)
        elif mass[nid] == 0.0:
            value[nid] = 0.0
        else:
            p_l = mass[node.left] / mass[nid]
            p_r = mass[node.right] / mass[nid]
            value[nid] = p_l * value[node.left] + p_r * value[node.right]
    return value[combined.root] * mass[combined.root]


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
    leaf_ids = route_batch(t_combined, X)
    leaf_list = t_combined.leaf_ids()
    bad = np.zeros(n, dtype=bool)
    per_source = []
    for m, orig in enumerate(originals):
        orig_vals = evaluate_batch(orig, X)
        if orig_vals.ndim == 1:
            comb = np.empty(n)
            for nid in leaf_list:
                comb[leaf_ids == nid] = t_combined.nodes[nid].value.values[m].value
            bad |= comb != orig_vals
        else:
            comb = np.empty_like(orig_vals)
            for nid in leaf_list:
                comb[leaf_ids == nid] = np.asarray(
                    t_combined.nodes[nid].value.values[m].probs
                )
            bad |= (comb != orig_vals).any(axis=1)
        per_source.append(orig_vals)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    expected = []
    for m, orig in enumerate(originals):
        vals = per_source[m]
        if vals.ndim == 1:
            expected.append(Scalar(float(vals[i])))
        else:
            expected.append(ClassProbs(tuple(float(p) for p in vals[i])))
    return Counterexample(
        schema.decode_point(X[i]),
        t_combined.nodes[int(leaf_ids[i])].value,
        tuple(expected),
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
    from .geometry import PartitionOutcome, split_partitions_region

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
            iv = region.constraints[j]
            split = NumericThreshold(j, float(rng.uniform(iv.low, iv.high)))
        else:
            admissible = sorted(region.constraints[j])
            if len(admissible) < 2:
                continue
            size = int(rng.integers(1, len(admissible)))
            chosen = rng.choice(len(admissible), size=size, replace=False)
            split = CategoricalSubset(j, frozenset(admissible[i] for i in chosen))
        if split_partitions_region(split, region) is not PartitionOutcome.SPLITS_REGION:
            continue
        lw, rw = builder.split_node(nid, split)
        leaves[k] = (lw, region.try_refine(split, Side.LEFT), depth + 1)
        leaves.append((rw, region.try_refine(split, Side.RIGHT), depth + 1))
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


def random_forest(
    schema: FeatureSchema,
    rng: np.random.Generator,
    n_trees: int,
    max_splits: int,
    leaf_kind: str = "scalar",
) -> list[Tree]:
    return [
        random_tree(schema, rng, int(rng.integers(1, max_splits + 1)), leaf_kind)
        for _ in range(n_trees)
    ]

"""Exact means, variances, covariances, correlations, and L2 distances.

All quantities are integrals of piecewise-constant functions against a
probability measure, so they reduce to finite sums. Every statistic
prepares its trees as one *stack* (:func:`_prepare`), a single tree or each
tree of a pair as a stack of one. Under the uniform measure a stack is one
leaf table: a walk per tree records the numeric bounds, admissible
categorical levels and value of every leaf, and each tree holds a
contiguous run of the table's leaves. A box's mass is the product of its
per-feature fractions, so a single-tree integral is a sum over leaves, e.g.
``sum(v * mass)``, and a pair integral is a sum over leaf pairs weighted by
the mass of their intersection, e.g. ``sum((v1 - v2)**2 * overlap)``; the
combined tree is never built. Hyperplane splits are unsupported there, as
the uniform mass of a polyhedron is. Under the empirical measure a stack
holds each tree's values at the sample points, and every integral is a
weighted sum over the points, for any split geometry and with the
``x <= t`` boundary rule of routing. Every pair integral comes from one
kernel, :func:`_row_integrals`, which scores one tree against the trees of
a stack; a single pair is its one-tree case. The region-by-region sum and
the paper's recursion down the combined tree,
:func:`treealgebra.oracle.recursive_pair_sum`, are the references these
sums are tested against. Every sum runs in a fixed order, so results are
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign, sqrt
from typing import Sequence, Union

import numpy as np

from .errors import (
    DegenerateCorrelationError,
    DomainError,
    UnsupportedGeometryError,
)
from .geometry import Measure, UniformBox
from .trees import (
    HYPERPLANE,
    NUMERIC,
    CategoricalFeature,
    FeatureSchema,
    NumericFeature,
    Tree,
    _operands,
    _route_batch,
    box_sides,
    full_box,
)

__all__ = [
    "TreeStatistics",
    "tree_mean",
    "tree_variance",
    "tree_statistics",
    "tree_covariance",
    "tree_correlation",
    "tree_distance",
    "tree_inner_product",
    "forest_distance",
    "distance_matrix",
]

_CORRELATION_SNAP = 1e-12


@dataclass(frozen=True)
class TreeStatistics:
    """Mean, variance, and squared norm of one tree under one measure."""

    mean: Union[float, np.ndarray]
    variance: float
    norm_squared: float


def tree_mean(tree: Tree, measure: Measure) -> Union[float, np.ndarray]:
    """Integral of the tree function: sum of leaf value times leaf mass.

    Returns a float for scalar trees and a per-class vector for
    class-probability trees.
    """
    _operands([tree], "tree_mean")
    return _statistics(tree, measure)[1].mean


def tree_variance(tree: Tree, measure: Measure) -> float:
    """Integral of the squared deviation from the mean (never negative)."""
    _operands([tree], "tree_variance")
    return _statistics(tree, measure)[1].variance


def tree_statistics(tree: Tree, measure: Measure) -> TreeStatistics:
    _operands([tree], "tree_statistics")
    return _statistics(tree, measure)[1]


def _statistics(tree: Tree, measure: Measure):
    """The tree prepared as a stack of one, and its statistics; the caller
    has checked the tree (:func:`~treealgebra.trees._operands`)."""
    prepared = _prepare([tree], measure)
    if isinstance(measure, UniformBox):
        weights, values = _masses(prepared), prepared.values
    else:
        weights, values = measure.weights, prepared[0]
    mu = weights @ values
    stats = TreeStatistics(
        float(mu[0]) if tree.leaves.kind == "scalar" else mu,
        float(weights @ np.square(values - mu).sum(axis=1)),
        float(weights @ np.square(values).sum(axis=1)),
    )
    return prepared, stats


# ---------------------------------------------------------------------------
# Integrals on prepared trees


@dataclass(frozen=True)
class _LeafTable:
    """The leaf boxes and values of a stack of axis-aligned trees, as arrays.

    ``lo``/``hi`` have shape (numeric features, leaves) and hold each leaf's
    numeric bounds; ``levels`` holds one (leaves, levels) 0/1 matrix of
    admissible levels per categorical feature; ``values`` has shape
    (leaves, width), width 1 for scalar leaves. Tree ``k`` holds leaves
    ``offsets[k]:offsets[k + 1]``, in depth-first, left-before-right order.
    """

    schema: FeatureSchema
    lo: np.ndarray
    hi: np.ndarray
    levels: tuple[np.ndarray, ...]
    values: np.ndarray
    offsets: tuple[int, ...]


def _finite(values: np.ndarray) -> np.ndarray:
    # a non-finite value would turn a zero mass or weight into nan
    if not np.isfinite(values).all():
        raise DomainError("leaf value is not finite")
    return values


def _leaf_table(trees: Sequence[Tree]) -> _LeafTable:
    """One depth-first walk over each tree's node arrays that records every
    leaf's box and value row; the boxes of all trees become arrays at once."""
    schema = trees[0].schema
    boxes, values, offsets = [], [], [0]
    for tree in trees:
        left, right, leaf, kind, feature, threshold, split = (a.tolist() for a in (
            tree.left_pos, tree.right_pos, tree.leaf, tree.kind, tree.feature, tree.threshold,
            tree.split))
        rows = []
        stack = [(tree.root_pos, full_box(schema))]
        while stack:
            i, box = stack.pop()
            if left[i] < 0:
                boxes.append(box)
                rows.append(leaf[i])
                continue
            if kind[i] == HYPERPLANE:
                raise UnsupportedGeometryError(
                    "uniform measure of a region with hyperplane constraints"
                )
            cut = threshold[i] if kind[i] == NUMERIC else split[i].left_levels
            left_box, right_box, _ = box_sides(box, feature[i], cut)
            stack.append((right[i], right_box))
            stack.append((left[i], left_box))
        values.append(_finite(tree.leaves.values[rows]))
        offsets.append(len(boxes))
    num, n = schema.numeric_indices, len(boxes)
    lo, hi = (np.fromiter((box[j][end] for j in num for box in boxes), float, len(num) * n)
              .reshape(len(num), n) for end in (0, 1))
    levels = tuple(
        np.fromiter((k in box[j] for box in boxes for k in range(len(f.levels))), float,
                    n * len(f.levels)).reshape(n, len(f.levels))
        for j, f in enumerate(schema.features)
        if isinstance(f, CategoricalFeature)
    )
    return _LeafTable(schema, lo, hi, levels, np.concatenate(values), tuple(offsets))


def _leaf_rows(t: _LeafTable, offsets: Sequence[int]) -> _LeafTable:
    """Leaves ``offsets[0]`` to ``offsets[-1] - 1`` of the stack ``t``, as
    views of it, as a stack whose trees start at each offset but the last:
    ``t`` itself when those are its own offsets."""
    if tuple(offsets) == t.offsets:
        return t
    lo, hi = offsets[0], offsets[-1]
    return _LeafTable(
        t.schema,
        t.lo[:, lo:hi],
        t.hi[:, lo:hi],
        tuple(m[lo:hi] for m in t.levels),
        t.values[lo:hi],
        tuple(o - lo for o in offsets),
    )


def _box_mass(schema: FeatureSchema, widths, counts):
    """Uniform mass of boxes from iterators over their numeric widths (one
    array per numeric feature) and admissible level counts (one per
    categorical feature): a product of per-feature fractions, in schema
    order, as the reference :func:`~treealgebra.oracle.region_measure`
    computes it. A negative width, from disjoint intervals, gives exactly
    0."""
    mass = 1.0
    for f in schema.features:
        if isinstance(f, NumericFeature):
            mass = mass * (np.maximum(next(widths), 0.0) / (f.high - f.low))
        else:
            mass = mass * (next(counts) / len(f.levels))
    return mass


def _masses(t: _LeafTable) -> np.ndarray:
    """Uniform mass of every leaf of ``t``."""
    return _box_mass(t.schema, iter(t.hi - t.lo), (m.sum(axis=1) for m in t.levels))


def _overlap(a: _LeafTable, b: _LeafTable) -> np.ndarray:
    """Uniform mass of the intersection of every leaf of ``a`` with every
    leaf of ``b``, one pair-sized array per feature. Disjoint leaves get
    exactly 0."""
    widths = (
        np.minimum.outer(a_hi, b_hi) - np.maximum.outer(a_lo, b_lo)
        for a_lo, a_hi, b_lo, b_hi in zip(a.lo, a.hi, b.lo, b.hi)
    )
    return _box_mass(a.schema, widths, (x @ y.T for x, y in zip(a.levels, b.levels)))


def _prepare(trees: Sequence[Tree], measure: Measure) -> Union[_LeafTable, list]:
    """The trees as one stack: under the uniform measure the leaf table of
    all their leaves, under the empirical one the list of each tree's
    (points, width) values, routed by :func:`~treealgebra.trees._route_batch`.
    Each tree's values are checked once it is read."""
    if isinstance(measure, UniformBox):
        return _leaf_table(trees)
    return [_finite(t.leaves.values[t.leaf[_route_batch(t, measure.points)]]) for t in trees]


def _parts(stack) -> list:
    """Each tree of a stack, as a stack of one."""
    if isinstance(stack, list):
        return [[v] for v in stack]
    return [_leaf_rows(stack, stack.offsets[k : k + 2]) for k in range(len(stack.offsets) - 1)]


def _pair_block(a: _LeafTable, b: _LeafTable, term) -> np.ndarray:
    """``term`` of every leaf pair of ``a`` and ``b`` times the mass of the
    pair's intersection, shape (leaves of ``a``, leaves of ``b``)."""
    return term(a.values[:, None], b.values[None]) * _overlap(a, b)


# Under the uniform measure one row tree is scored against a run of whole
# column trees at once; a run grows while its largest pair-sized temporary,
# (row leaves, run leaves, width) floats, stays within this many bytes, and
# holds at least one tree. A run is scored in chunks of the row tree's
# leaves, each within the budget: one chunk when the run is.
_BLOCK_BYTES = 256 * 1024


def _row_integrals(a, cols, first: int, measure: Measure, term) -> list[float]:
    """The one kernel of every pair integral: the integral of ``term(f, g)``
    for the tree ``f`` of the stack of one ``a`` and every tree ``g`` of the
    stack ``cols`` from index ``first`` on, in order. ``term`` maps arrays
    of values (width on the last axis) to that axis summed out. A single
    pair is the one-tree case. Under the uniform measure each chunk of a
    run of column trees costs one :func:`_pair_block`, and each tree adds
    its chunks' sums in row order, each taken over a contiguous copy of its
    columns, so it adds the same floats in the same order whether its run
    holds it alone or among others."""
    if not isinstance(measure, UniformBox):
        return [float(measure.weights @ term(a[0], b)) for b in cols[first:]]
    offsets, row_bytes, rows = cols.offsets, a.values.nbytes, len(a.values)
    out: list[float] = []
    k, n = first, len(offsets) - 1
    while k < n:
        stop = k + 1
        while stop < n and row_bytes * (offsets[stop + 1] - offsets[k]) <= _BLOCK_BYTES:
            stop += 1
        run = _leaf_rows(cols, offsets[k : stop + 1])
        k = stop
        step = max(1, _BLOCK_BYTES * rows // (row_bytes * run.offsets[-1]))
        sums = [0.0] * (len(run.offsets) - 1)
        for lo in range(0, rows, step):
            block = _pair_block(_leaf_rows(a, (lo, min(lo + step, rows))), run, term)
            for t, (c0, c1) in enumerate(zip(run.offsets, run.offsets[1:])):
                sums[t] += float(np.ascontiguousarray(block[:, c0:c1]).sum())
        out += sums
    return out


def _sq_diff(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.square(x - y).sum(axis=-1)


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x * y).sum(axis=-1)


def tree_distance(t1: Tree, t2: Tree, measure: Measure, budget: object = None) -> float:
    """L2 distance between two tree functions under a probability measure.

    Scalar leaves use the squared scalar difference; class-probability
    leaves use the squared Euclidean distance of the probability vectors.
    No combined tree is built, so ``budget``, a ``CombineBudget``, bounds
    nothing; it stays in the signature for callers that pass it positionally.
    """
    _operands([t1, t2], "tree_distance")
    a, b = _prepare([t1], measure), _prepare([t2], measure)
    return sqrt(max(_row_integrals(a, b, 0, measure, _sq_diff)[0], 0.0))


def tree_inner_product(t1: Tree, t2: Tree, measure: Measure) -> float:
    """Integral of the product of two scalar tree functions."""
    _operands([t1, t2], "tree_inner_product", scalar=True)
    a, b = _prepare([t1], measure), _prepare([t2], measure)
    return _row_integrals(a, b, 0, measure, _product)[0]


def _covariance(a, b, mu1: float, mu2: float, measure: Measure) -> float:
    return _row_integrals(a, b, 0, measure, lambda x, y: _product(x - mu1, y - mu2))[0]


def tree_covariance(t1: Tree, t2: Tree, measure: Measure) -> float:
    """Integral of the product of the two trees' deviations from their means."""
    _operands([t1, t2], "tree_covariance", scalar=True)
    a, stats1 = _statistics(t1, measure)
    b, stats2 = _statistics(t2, measure)
    return _covariance(a, b, stats1.mean, stats2.mean, measure)


def _max_abs_leaf(tree: Tree) -> float:
    return float(np.abs(tree.leaves.values).max(initial=0.0))


def tree_correlation(t1: Tree, t2: Tree, measure: Measure) -> float:
    """Pearson-style correlation of two scalar tree functions, in [-1, 1].

    A tree whose variance is indistinguishable from accumulated rounding
    (at the 1e-12 level relative to its value scale) counts as constant and
    raises :class:`DegenerateCorrelationError`. A result within 1e-12 of
    unit magnitude snaps to exactly +-1, so correlations of exact affine
    transforms compare exactly.
    """
    _operands([t1, t2], "tree_correlation", scalar=True)
    a, stats1 = _statistics(t1, measure)
    b, stats2 = _statistics(t2, measure)
    for name, stats, tree in (("first", stats1, t1), ("second", stats2, t2)):
        scale = max(1.0, _max_abs_leaf(tree))
        if stats.variance <= (1e-12 * scale) ** 2:
            raise DegenerateCorrelationError(
                f"zero variance in the {name} tree"
            )
    cov = _covariance(a, b, stats1.mean, stats2.mean, measure)
    rho = cov / (sqrt(stats1.variance) * sqrt(stats2.variance))
    if abs(abs(rho) - 1.0) <= _CORRELATION_SNAP:
        return copysign(1.0, rho)
    return rho


# ---------------------------------------------------------------------------
# Forests


def forest_distance(f: Sequence[Tree], g: Sequence[Tree], measure: Measure) -> float:
    """L2 distance between the aggregate (sum) functions of two forests.

    Expands the squared difference into pairwise tree inner products, so no
    integral ever involves more than two source trees. Each forest is
    prepared as one stack, and each tree is scored against runs of a stack's
    trees in blocks of bounded size.
    """
    if not f or not g:
        raise DomainError("forest_distance needs nonempty forests")
    _operands([*f, *g], "forest_distance", scalar=True)
    sf, sg = _prepare(f, measure), _prepare(g, measure)

    # all ordered pairs, in the same loop order for each of the three sums:
    # identical forests then produce bitwise-equal sums that cancel exactly
    def inner(rows, cols):
        acc = 0.0
        for a in _parts(rows):
            for x in _row_integrals(a, cols, 0, measure, _product):
                acc += x
        return acc

    return sqrt(max(inner(sf, sf) + inner(sg, sg) - 2.0 * inner(sf, sg), 0.0))


def distance_matrix(trees: Sequence[Tree], measure: Measure) -> np.ndarray:
    """Symmetric matrix of pairwise tree distances with a zero diagonal.

    The trees are prepared as one stack and each unordered pair is computed
    once; each tree is scored against runs of the later trees in blocks of
    bounded size. Every entry equals :func:`tree_distance` of its pair, bit
    for bit.
    """
    if len(trees) < 2:
        raise DomainError("distance_matrix needs at least two trees")
    _operands(trees, "distance_matrix")
    stack = _prepare(trees, measure)
    n = len(trees)
    out = np.zeros((n, n))
    for i, a in enumerate(_parts(stack)[:-1]):
        row = _row_integrals(a, stack, i + 1, measure, _sq_diff)
        for j, x in enumerate(row, i + 1):
            out[i, j] = out[j, i] = sqrt(max(x, 0.0))
    return out

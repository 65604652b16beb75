"""Exact means, variances, covariances, correlations, and L2 distances.

All quantities are integrals of piecewise-constant functions against a
probability measure, so they reduce to finite sums, and every one of them
starts from the same preparation of each tree (:func:`_prepare`). Under the
uniform measure, one walk turns an axis-aligned tree into a leaf table:
numeric bounds, admissible categorical levels and the value of every leaf.
A box's mass is the product of its per-feature fractions, so a single-tree
integral is a sum over leaves, e.g. ``sum(v * mass)``, and a pair integral
is one vectorised sum over leaf pairs weighted by the mass of their
intersection, e.g. ``sum((v1 - v2)**2 * overlap)``; the combined tree is
never built. Hyperplane splits are unsupported there, as the uniform mass
of a polyhedron is. Under the empirical measure, each tree is evaluated
once at the sample points and every integral is a weighted sum over the
points, for any split geometry and with the ``x <= t`` boundary rule of
routing. The region-by-region sum and the paper's recursion down the
combined tree, :func:`treealgebra.oracle.recursive_pair_sum`, are the
references these sums are tested against. Every sum runs in a fixed order,
so results are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign, sqrt
from typing import Optional, Sequence, Union

import numpy as np

from .combine import CombineBudget, _require_schema_and_kind
from .errors import (
    DegenerateCorrelationError,
    DomainError,
    LeafKindError,
    UnsupportedGeometryError,
)
from .geometry import Measure, UniformBox
from .trees import (
    CategoricalFeature,
    CategoricalSubset,
    FeatureSchema,
    NumericFeature,
    NumericThreshold,
    Scalar,
    Tree,
    evaluate_batch,
    leaf_kind_of,
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
    return tree_statistics(tree, measure).mean


def tree_variance(tree: Tree, measure: Measure) -> float:
    """Integral of the squared deviation from the mean (never negative)."""
    return tree_statistics(tree, measure).variance


def tree_statistics(tree: Tree, measure: Measure) -> TreeStatistics:
    return _statistics(tree, measure)[1]


def _statistics(tree: Tree, measure: Measure):
    """The prepared tree and its statistics, from one preparation."""
    kind = leaf_kind_of(tree)
    if kind not in ("scalar", "class_probs"):
        raise LeafKindError("tree_mean needs scalar or class_probs leaves")
    prepared = _prepare(tree, measure)
    if isinstance(measure, UniformBox):
        weights, values = _masses(prepared), prepared.values
    else:
        weights, values = measure.weights, prepared
    mu = weights @ values
    stats = TreeStatistics(
        float(mu[0]) if kind == "scalar" else mu,
        float(weights @ np.square(values - mu).sum(axis=1)),
        float(weights @ np.square(values).sum(axis=1)),
    )
    return prepared, stats


# ---------------------------------------------------------------------------
# Integrals on prepared trees


@dataclass(frozen=True)
class _LeafTable:
    """The leaf boxes and values of one axis-aligned tree, as arrays.

    ``lo``/``hi`` have shape (numeric features, leaves) and hold each leaf's
    numeric bounds; ``levels`` holds one (leaves, levels) 0/1 matrix of
    admissible levels per categorical feature; ``values`` has shape
    (leaves, width), width 1 for scalar leaves. Leaves are in depth-first,
    left-before-right order.
    """

    schema: FeatureSchema
    lo: np.ndarray
    hi: np.ndarray
    levels: tuple[np.ndarray, ...]
    values: np.ndarray


def _finite(values: np.ndarray) -> np.ndarray:
    # a non-finite value would turn a zero mass or weight into nan
    if not np.isfinite(values).all():
        raise DomainError("leaf value is not finite")
    return values


def _leaf_table(tree: Tree) -> _LeafTable:
    """One depth-first walk that records every leaf's box and value."""
    schema = tree.schema
    full = tuple(
        (f.low, f.high) if isinstance(f, NumericFeature) else frozenset(range(len(f.levels)))
        for f in schema.features
    )
    boxes, values = [], []
    stack = [(tree.root, full)]
    while stack:
        nid, box = stack.pop()
        node = tree.nodes[nid]
        if node.left is None:
            boxes.append(box)
            values.append(node.value)
            continue
        split = node.split
        if isinstance(split, NumericThreshold):
            lo, hi = box[split.feature]
            left = (lo, min(hi, split.threshold))
            right = (max(lo, split.threshold), hi)
        elif isinstance(split, CategoricalSubset):
            left = box[split.feature] & split.left_levels
            right = box[split.feature] - split.left_levels
        else:
            raise UnsupportedGeometryError(
                "uniform measure of a region with hyperplane constraints"
            )
        j = split.feature
        stack.append((node.right, box[:j] + (right,) + box[j + 1 :]))
        stack.append((node.left, box[:j] + (left,) + box[j + 1 :]))
    num = schema.numeric_indices
    bounds = np.array([[box[j] for j in num] for box in boxes]).reshape(len(boxes), len(num), 2)
    levels = tuple(
        np.array([[float(k in box[j]) for k in range(len(f.levels))] for box in boxes])
        for j, f in enumerate(schema.features)
        if isinstance(f, CategoricalFeature)
    )
    rows = [(v.value,) if isinstance(v, Scalar) else v.probs for v in values]
    return _LeafTable(
        schema,
        np.ascontiguousarray(bounds[:, :, 0].T),
        np.ascontiguousarray(bounds[:, :, 1].T),
        levels,
        _finite(np.array(rows, dtype=float)),
    )


def _box_mass(schema: FeatureSchema, widths, counts):
    """Uniform mass of boxes from iterators over their numeric widths (one
    array per numeric feature) and admissible level counts (one per
    categorical feature): a product of per-feature fractions, in schema
    order, as :func:`~treealgebra.geometry.region_measure` computes it. A
    negative width, from disjoint intervals, gives exactly 0."""
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


def _prepare(tree: Tree, measure: Measure) -> Union[_LeafTable, np.ndarray]:
    """What an integral needs of one tree: its leaf table under the uniform
    measure, its (points, width) values under the empirical one."""
    if isinstance(measure, UniformBox):
        return _leaf_table(tree)
    values = evaluate_batch(tree, measure.points)
    return _finite(values.reshape(len(values), -1))


def _pair_integral(a, b, measure: Measure, term) -> float:
    """Integral of ``term(f1, f2)`` for two prepared trees; ``term`` maps
    arrays of values (width on the last axis) to that axis summed out."""
    if isinstance(measure, UniformBox):
        return float((term(a.values[:, None], b.values[None]) * _overlap(a, b)).sum())
    return float(measure.weights @ term(a, b))


def _sq_diff(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.square(x - y).sum(axis=-1)


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x * y).sum(axis=-1)


def _distance(a, b, measure: Measure) -> float:
    return sqrt(max(_pair_integral(a, b, measure, _sq_diff), 0.0))


def _require_scalar(trees: Sequence[Tree], name: str) -> None:
    if any(leaf_kind_of(t) != "scalar" for t in trees):
        raise LeafKindError(f"{name} needs scalar leaves")


def tree_distance(
    t1: Tree, t2: Tree, measure: Measure, budget: Optional[CombineBudget] = None
) -> float:
    """L2 distance between two tree functions under a probability measure.

    Scalar leaves use the squared scalar difference; class-probability
    leaves use the squared Euclidean distance of the probability vectors.
    No combined tree is built, so ``budget`` bounds nothing; it stays in
    the signature for callers that pass it positionally.
    """
    _require_schema_and_kind([t1, t2])
    return _distance(_prepare(t1, measure), _prepare(t2, measure), measure)


def tree_inner_product(t1: Tree, t2: Tree, measure: Measure) -> float:
    """Integral of the product of two scalar tree functions."""
    _require_scalar([t1, t2], "tree_inner_product")
    _require_schema_and_kind([t1, t2])
    return _pair_integral(_prepare(t1, measure), _prepare(t2, measure), measure, _product)


def _covariance(a, b, mu1: float, mu2: float, measure: Measure) -> float:
    return _pair_integral(a, b, measure, lambda x, y: _product(x - mu1, y - mu2))


def tree_covariance(t1: Tree, t2: Tree, measure: Measure) -> float:
    """Integral of the product of the two trees' deviations from their means."""
    _require_scalar([t1, t2], "tree_covariance")
    a, stats1 = _statistics(t1, measure)
    b, stats2 = _statistics(t2, measure)
    _require_schema_and_kind([t1, t2])
    return _covariance(a, b, stats1.mean, stats2.mean, measure)


def _max_abs_leaf(tree: Tree) -> float:
    out = 0.0
    for nid in tree.leaf_ids():
        out = max(out, abs(tree.nodes[nid].value.value))
    return out


def tree_correlation(t1: Tree, t2: Tree, measure: Measure) -> float:
    """Pearson-style correlation of two scalar tree functions, in [-1, 1].

    A tree whose variance is indistinguishable from accumulated rounding
    (at the 1e-12 level relative to its value scale) counts as constant and
    raises :class:`DegenerateCorrelationError`. A result within 1e-12 of
    unit magnitude snaps to exactly +-1, so correlations of exact affine
    transforms compare exactly.
    """
    a, stats1 = _statistics(t1, measure)
    b, stats2 = _statistics(t2, measure)
    _require_scalar([t1, t2], "tree_correlation")
    for name, stats, tree in (("first", stats1, t1), ("second", stats2, t2)):
        scale = max(1.0, _max_abs_leaf(tree))
        if stats.variance <= (1e-12 * scale) ** 2:
            raise DegenerateCorrelationError(
                f"zero variance in the {name} tree"
            )
    _require_schema_and_kind([t1, t2])
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
    integral ever involves more than two source trees. Each tree is prepared
    once.
    """
    if not f or not g:
        raise DomainError("forest_distance needs nonempty forests")
    _require_scalar([*f, *g], "tree_inner_product")
    _require_schema_and_kind([*f, *g])
    pf = [_prepare(t, measure) for t in f]
    pg = [_prepare(t, measure) for t in g]

    # all ordered pairs, in the same loop order for each of the three sums:
    # identical forests then produce bitwise-equal sums that cancel exactly
    def inner(ps, qs):
        acc = 0.0
        for a in ps:
            for b in qs:
                acc += _pair_integral(a, b, measure, _product)
        return acc

    return sqrt(max(inner(pf, pf) + inner(pg, pg) - 2.0 * inner(pf, pg), 0.0))


def distance_matrix(trees: Sequence[Tree], measure: Measure) -> np.ndarray:
    """Symmetric matrix of pairwise tree distances with a zero diagonal.

    Each tree is prepared once and each unordered pair is computed once.
    """
    if len(trees) < 2:
        raise DomainError("distance_matrix needs at least two trees")
    _require_schema_and_kind(trees)
    prepared = [_prepare(t, measure) for t in trees]
    n = len(trees)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = _distance(prepared[i], prepared[j], measure)
    return out

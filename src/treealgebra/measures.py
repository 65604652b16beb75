"""Exact means, variances, covariances, correlations, and L2 distances.

All quantities are integrals of piecewise-constant functions against a
probability measure, so they reduce to finite sums. Single-tree quantities
(mean, variance, norm) sum over the tree's leaf regions depth-first, left
before right.

Pair quantities (distance, inner product, covariance) never build the
combined tree. Under the uniform measure, one walk turns each axis-aligned
tree into a leaf table: numeric bounds, admissible categorical levels and
the value of every leaf. Two leaves intersect in a box whose mass is the
product of per-feature overlaps, so a pair integral is one vectorised sum
over leaf pairs, e.g. ``sum((v1 - v2)**2 * overlap)``; hyperplane splits
are unsupported there, as the uniform mass of a polyhedron is. Under the
empirical measure, each tree is evaluated once at the sample points and a
pair integral is a weighted sum over the points, for any split geometry and
with the ``x <= t`` boundary rule of routing. The paper's recursion down the
combined tree, :func:`treealgebra.oracle.recursive_pair_sum`, is the
reference these sums are tested against. Every sum runs in a fixed order,
so results are bit-reproducible.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
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
from .geometry import Measure, UniformBox, region_measure
from .trees import (
    CategoricalFeature,
    CategoricalSubset,
    FeatureSchema,
    NumericFeature,
    NumericThreshold,
    Scalar,
    Tree,
    evaluate_batch,
    iter_leaves_with_regions,
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


def _leaf_terms(tree: Tree, measure: Measure):
    for nid, region in iter_leaves_with_regions(tree):
        yield tree.nodes[nid].value, region_measure(region, measure)


def tree_mean(tree: Tree, measure: Measure) -> Union[float, np.ndarray]:
    """Integral of the tree function: sum of leaf value times leaf mass.

    Returns a float for scalar trees and a per-class vector for
    class-probability trees.
    """
    kind = leaf_kind_of(tree)
    if kind == "scalar":
        acc = 0.0
        for value, mass in _leaf_terms(tree, measure):
            acc += value.value * mass
        return acc
    if kind == "class_probs":
        acc_vec: Optional[np.ndarray] = None
        for value, mass in _leaf_terms(tree, measure):
            term = np.asarray(value.probs) * mass
            acc_vec = term if acc_vec is None else acc_vec + term
        return acc_vec
    raise LeafKindError("tree_mean needs scalar or class_probs leaves")


def tree_variance(tree: Tree, measure: Measure) -> float:
    """Integral of the squared deviation from the mean (never negative)."""
    return tree_statistics(tree, measure).variance


def tree_statistics(tree: Tree, measure: Measure) -> TreeStatistics:
    mu = tree_mean(tree, measure)
    norm_sq = 0.0
    var = 0.0
    if isinstance(mu, float):
        for value, mass in _leaf_terms(tree, measure):
            norm_sq += value.value * value.value * mass
            d = value.value - mu
            var += d * d * mass
    else:
        for value, mass in _leaf_terms(tree, measure):
            p = np.asarray(value.probs)
            norm_sq += float(p @ p) * mass
            d = p - mu
            var += float(d @ d) * mass
    return TreeStatistics(mu, var, norm_sq)


# ---------------------------------------------------------------------------
# Pair integrals without the combined tree


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


def _overlap(a: _LeafTable, b: _LeafTable) -> np.ndarray:
    """Uniform mass of the intersection of every leaf of ``a`` with every
    leaf of ``b``: a product of per-feature overlaps, in schema order, as
    :func:`~treealgebra.geometry.region_measure` computes it. Disjoint
    leaves get exactly 0."""
    mass = np.ones((len(a.values), len(b.values)))
    q = r = 0
    for f in a.schema.features:
        if isinstance(f, NumericFeature):
            width = np.minimum.outer(a.hi[q], b.hi[q]) - np.maximum.outer(a.lo[q], b.lo[q])
            mass *= np.maximum(width, 0.0) / (f.high - f.low)
            q += 1
        else:
            mass *= (a.levels[r] @ b.levels[r].T) / len(f.levels)
            r += 1
    return mass


def _prepare(tree: Tree, measure: Measure) -> Union[_LeafTable, np.ndarray]:
    """What a pair integral needs of one tree: its leaf table under the
    uniform measure, its (points, width) values under the empirical one."""
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
    No combined tree is built, so ``budget`` bounds nothing.
    """
    _require_schema_and_kind([t1, t2])
    return _distance(_prepare(t1, measure), _prepare(t2, measure), measure)


def tree_inner_product(
    t1: Tree, t2: Tree, measure: Measure, budget: Optional[CombineBudget] = None
) -> float:
    """Integral of the product of two scalar tree functions (``budget``
    bounds nothing)."""
    _require_scalar([t1, t2], "tree_inner_product")
    _require_schema_and_kind([t1, t2])
    return _pair_integral(_prepare(t1, measure), _prepare(t2, measure), measure, _product)


def tree_covariance(
    t1: Tree, t2: Tree, measure: Measure, budget: Optional[CombineBudget] = None
) -> float:
    """Integral of the product of the two trees' deviations from their means
    (``budget`` bounds nothing)."""
    _require_scalar([t1, t2], "tree_covariance")
    mu1 = tree_mean(t1, measure)
    mu2 = tree_mean(t2, measure)
    _require_schema_and_kind([t1, t2])
    return _pair_integral(
        _prepare(t1, measure),
        _prepare(t2, measure),
        measure,
        lambda x, y: _product(x - mu1, y - mu2),
    )


def _max_abs_leaf(tree: Tree) -> float:
    out = 0.0
    for nid in tree.leaf_ids():
        out = max(out, abs(tree.nodes[nid].value.value))
    return out


def tree_correlation(
    t1: Tree, t2: Tree, measure: Measure, budget: Optional[CombineBudget] = None
) -> float:
    """Pearson-style correlation of two scalar tree functions, in [-1, 1].

    A tree whose variance is indistinguishable from accumulated rounding
    (at the 1e-12 level relative to its value scale) counts as constant and
    raises :class:`DegenerateCorrelationError`. A result within 1e-12 of
    unit magnitude snaps to exactly +-1, so correlations of exact affine
    transforms compare exactly. ``budget`` bounds nothing.
    """
    var1 = tree_variance(t1, measure)
    var2 = tree_variance(t2, measure)
    _require_scalar([t1, t2], "tree_correlation")
    for name, var, tree in (("first", var1, t1), ("second", var2, t2)):
        scale = max(1.0, _max_abs_leaf(tree))
        if var <= (1e-12 * scale) ** 2:
            raise DegenerateCorrelationError(
                f"zero variance in the {name} tree"
            )
    rho = tree_covariance(t1, t2, measure, budget) / (sqrt(var1) * sqrt(var2))
    if abs(abs(rho) - 1.0) <= _CORRELATION_SNAP:
        return copysign(1.0, rho)
    return rho


# ---------------------------------------------------------------------------
# Forests


def forest_distance(
    f: Sequence[Tree],
    g: Sequence[Tree],
    measure: Measure,
    budget: Optional[CombineBudget] = None,
) -> float:
    """L2 distance between the aggregate (sum) functions of two forests.

    Expands the squared difference into pairwise tree inner products, so no
    integral ever involves more than two source trees. Each tree is prepared
    once; ``budget`` bounds nothing.
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


_POOL_PREPARED: Optional[list] = None
_POOL_MEASURE: Optional[Measure] = None


def _pool_init(prepared, measure):
    global _POOL_PREPARED, _POOL_MEASURE
    _POOL_PREPARED = prepared
    _POOL_MEASURE = measure


def _pool_pair(pair):
    i, j = pair
    return _distance(_POOL_PREPARED[i], _POOL_PREPARED[j], _POOL_MEASURE)


def distance_matrix(
    trees: Sequence[Tree], measure: Measure, jobs: int = 1
) -> np.ndarray:
    """Symmetric matrix of pairwise tree distances with a zero diagonal.

    Each tree is prepared once and each unordered pair is computed once;
    with ``jobs > 1`` the independent pairs run in a process pool and are
    assembled in a fixed order.
    """
    if len(trees) < 2:
        raise DomainError("distance_matrix needs at least two trees")
    _require_schema_and_kind(trees)
    prepared = [_prepare(t, measure) for t in trees]
    n = len(trees)
    out = np.zeros((n, n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if jobs <= 1:
        dists = [_distance(prepared[i], prepared[j], measure) for i, j in pairs]
    else:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_pool_init, initargs=(prepared, measure)
        ) as pool:
            dists = list(pool.map(_pool_pair, pairs, chunksize=32))
    for (i, j), d in zip(pairs, dists):
        out[i, j] = out[j, i] = d
    return out

"""Exact means, variances, covariances, correlations, and L2 distances.

All quantities are integrals of piecewise-constant functions against a
probability measure, so they reduce to finite sums over leaf regions.
Pair quantities (distance, inner product, covariance) first overlay the two
trees with :func:`~treealgebra.combine.combine_pair` and then run a
conditional-proportion recursion down the combined tree: a node's value is
the measure-weighted average of its children's values, and a leaf
contributes the pointwise term of its pair of values. Leaf sums always run
depth-first, left before right, so results are bit-reproducible.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import copysign, sqrt
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .combine import CombineBudget, combine_pair
from .errors import DegenerateCorrelationError, DomainError, LeafKindError
from .geometry import Measure, region_measure
from .trees import (
    Region,
    Scalar,
    Side,
    Tree,
    TupleValue,
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
# Pair sums over a combined tree


def _recursive_pair_sum(
    combined: Tree, measure: Measure, term: Callable[[TupleValue], float]
) -> float:
    """Conditional-proportion recursion: a leaf returns its term, an internal
    node returns the measure-weighted average of its children, each child
    weighted by its share of the parent's mass. Zero-mass subtrees are
    skipped. The root value, scaled by the root mass, is the integral."""
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


def _flat_pair_sum(
    combined: Tree, measure: Measure, term: Callable[[TupleValue], float]
) -> float:
    """Plain leaf sum over the same combined tree (cross-check twin of the
    recursion above; both must agree to float accumulation error)."""
    acc = 0.0
    for value, mass in _leaf_terms(combined, measure):
        acc += term(value) * mass
    return acc


def _sq_diff_term(tv: TupleValue) -> float:
    a, b = tv.values
    if isinstance(a, Scalar):
        d = a.value - b.value
        return d * d
    acc = 0.0
    for pa, pb in zip(a.probs, b.probs):
        d = pa - pb
        acc += d * d
    return acc


def tree_distance(
    t1: Tree, t2: Tree, measure: Measure, budget: Optional[CombineBudget] = None
) -> float:
    """L2 distance between two tree functions under a probability measure.

    Scalar leaves use the squared scalar difference; class-probability
    leaves use the squared Euclidean distance of the probability vectors.
    """
    combined = combine_pair(t1, t2, budget)
    sq = _recursive_pair_sum(combined, measure, _sq_diff_term)
    return sqrt(max(sq, 0.0))


def tree_inner_product(
    t1: Tree, t2: Tree, measure: Measure, budget: Optional[CombineBudget] = None
) -> float:
    """Integral of the product of two scalar tree functions."""
    if leaf_kind_of(t1) != "scalar" or leaf_kind_of(t2) != "scalar":
        raise LeafKindError("tree_inner_product needs scalar leaves")
    combined = combine_pair(t1, t2, budget)
    return _recursive_pair_sum(
        combined, measure, lambda tv: tv.values[0].value * tv.values[1].value
    )


def tree_covariance(
    t1: Tree, t2: Tree, measure: Measure, budget: Optional[CombineBudget] = None
) -> float:
    """Integral of the product of the two trees' deviations from their means."""
    if leaf_kind_of(t1) != "scalar" or leaf_kind_of(t2) != "scalar":
        raise LeafKindError("tree_covariance needs scalar leaves")
    mu1 = tree_mean(t1, measure)
    mu2 = tree_mean(t2, measure)
    combined = combine_pair(t1, t2, budget)
    return _recursive_pair_sum(
        combined,
        measure,
        lambda tv: (tv.values[0].value - mu1) * (tv.values[1].value - mu2),
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
    transforms compare exactly.
    """
    var1 = tree_variance(t1, measure)
    var2 = tree_variance(t2, measure)
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
    combined tree ever involves more than two source trees.
    """
    if not f or not g:
        raise DomainError("forest_distance needs nonempty forests")
    # all ordered pairs, in the same loop order for each of the three sums:
    # identical forests then produce bitwise-equal sums that cancel exactly
    ff = 0.0
    for fi in f:
        for fj in f:
            ff += tree_inner_product(fi, fj, measure, budget)
    gg = 0.0
    for gi in g:
        for gj in g:
            gg += tree_inner_product(gi, gj, measure, budget)
    fg = 0.0
    for fi in f:
        for gj in g:
            fg += tree_inner_product(fi, gj, measure, budget)
    return sqrt(max(ff + gg - 2.0 * fg, 0.0))


_POOL_TREES: Optional[Sequence[Tree]] = None
_POOL_MEASURE: Optional[Measure] = None


def _pool_init(trees, measure):
    global _POOL_TREES, _POOL_MEASURE
    _POOL_TREES = trees
    _POOL_MEASURE = measure


def _pool_pair(pair):
    i, j = pair
    return tree_distance(_POOL_TREES[i], _POOL_TREES[j], _POOL_MEASURE)


def distance_matrix(
    trees: Sequence[Tree], measure: Measure, jobs: int = 1
) -> np.ndarray:
    """Symmetric matrix of pairwise tree distances with a zero diagonal.

    Each unordered pair is computed once; with ``jobs > 1`` the independent
    pairs run in a process pool and are assembled in a fixed order.
    """
    if len(trees) < 2:
        raise DomainError("distance_matrix needs at least two trees")
    n = len(trees)
    out = np.zeros((n, n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if jobs <= 1:
        dists = [tree_distance(trees[i], trees[j], measure) for i, j in pairs]
    else:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_pool_init, initargs=(list(trees), measure)
        ) as pool:
            dists = list(pool.map(_pool_pair, pairs, chunksize=32))
    for (i, j), d in zip(pairs, dists):
        out[i, j] = out[j, i] = d
    return out

"""Combining trees: product trees and affine sums.

``combine_pair`` overlays two recursive partitions into one tree whose
tuple-valued leaves carry both source values; ``combine_many`` folds that
over a list; ``affine_combination`` collapses the tuples into weighted sums.
The recursion works region by region: when both splits genuinely cut the
working region it always splits by the first tree's condition and routes the
second tree into whichever children its condition still cuts (a fixed
tie-break that makes the output deterministic and keeps the call count
within ``n1 * n2``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, LeafKindError, SchemaError
from .geometry import same_partition_in_region
from .trees import Leaves, Region, Tree, TreeBuilder, leaf_kind_of

__all__ = [
    "CombineBudget",
    "combine_pair",
    "combine_many",
    "affine_combination",
    "simplify",
]

@dataclass
class CombineBudget:
    """Guard against the multiplicative blow-up of combined trees.

    ``max_nodes`` caps the size of any produced tree (the blow-up can be
    exponential in the number of combined trees, so hitting the cap is a
    clean reported failure instead of memory exhaustion). ``calls_made``
    counts the recursive combine steps, copies of one tree below a leaf of
    the other included, which lets tests assert the ``n1 * n2`` cost bound.
    """

    max_nodes: int = 10_000_000
    calls_made: int = 0


def _arrays(tree: Tree):
    """A tree's child positions, leaf rows and splits, as lists."""
    return tree.left_pos.tolist(), tree.right_pos.tolist(), tree.leaf.tolist(), tree.splits()


def _descend(tree, i: int, sides):
    """Where a tree continues in a region, given the sides of its split
    there: the node and those sides when the split cuts the region, else the
    child whose side holds the region, whose split is not yet decided."""
    left, right = sides
    if left is None:
        return tree[1][i], None
    if right is None:
        return tree[0][i], None
    return i, sides


def _collect_into(builder, w, region, tree, v, budget, value_fn, sides=None):
    """Copy ``tree`` (its :func:`_arrays`) below node ``v`` into ``builder``
    at ``w``, keeping only the splits that cut ``region``; ``sides`` is
    ``v``'s split already decided in ``region``, when known."""
    left, right, leaf, splits = tree
    stack = [(w, region, v, sides)]
    while stack:
        w, region, v, sides = stack.pop()
        budget.calls_made += 1
        if left[v] < 0:
            builder.set_value(w, value_fn(leaf[v]))
            continue
        u, sides = _descend(tree, v, sides or region.split(splits[v]))
        if sides is None:
            stack.append((w, region, u, None))
            continue
        lw, rw = builder.split_node(w, splits[v])
        stack.append((rw, sides[1], right[v], None))
        stack.append((lw, sides[0], left[v], None))


def _blocks(leaves: Leaves, source: int) -> tuple[np.ndarray, np.ndarray]:
    """The values and source ids of some leaves as tuple blocks; a leaf
    that is not a tuple is one block from ``source``."""
    if leaves.sources is not None:
        return leaves.values, leaves.sources
    return leaves.values, np.full((len(leaves.values), 1), source)


def _combine(t1: Tree, t2: Tree, budget: CombineBudget, second: int) -> Tree:
    """The overlay of two trees; its leaf joining leaf rows ``i`` of ``t1``
    and ``j`` of ``t2`` holds the blocks of both, ``t1``'s first. A leaf
    that is not a tuple is one block, from source 0 in ``t1`` and from
    source ``second`` in ``t2``."""
    schema = t1.schema
    builder = TreeBuilder(schema, budget.max_nodes)
    w0 = builder.add_root()
    a, b = _arrays(t1), _arrays(t2)
    (left1, right1, leaf1, splits1), (left2, right2, leaf2, splits2) = a, b
    # each entry carries the sides of u's and v's splits in its region when
    # an earlier step already decided them, so no region decides a split twice
    stack = [(t1.root_pos, t2.root_pos, w0, Region.full(schema), None, None)]
    while stack:
        u, v, w, region, su, sv = stack.pop()
        budget.calls_made += 1
        if left1[u] < 0 and left2[v] < 0:
            builder.set_value(w, (leaf1[u], leaf2[v]))
            continue
        if left1[u] < 0:
            _collect_into(builder, w, region, b, v, budget, lambda j, i=leaf1[u]: (i, j), sv)
            continue
        if left2[v] < 0:
            _collect_into(builder, w, region, a, u, budget, lambda i, j=leaf2[v]: (i, j), su)
            continue
        cu, cv = splits1[u], splits2[v]
        u2, su = _descend(a, u, su or region.split(cu))
        v2, sv = _descend(b, v, sv or region.split(cv))
        if su is None or sv is None:
            # at least one condition misses the working region: descend into
            # whichever children contain it without adding a node. (The case
            # where both conditions cut the region never reaches this branch;
            # it is handled below.)
            stack.append((u2, v2, w, region, su, sv))
            continue
        ident = same_partition_in_region(cu, cv, region)
        lw, rw = builder.split_node(w, cu)
        left_region, right_region = su
        if ident == "same":
            stack.append((right1[u], right2[v], rw, right_region, None, None))
            stack.append((left1[u], left2[v], lw, left_region, None, None))
            continue
        if ident == "swapped":
            stack.append((right1[u], left2[v], rw, right_region, None, None))
            stack.append((left1[u], right2[v], lw, left_region, None, None))
            continue
        # crossing or parallel splits: split by the first tree's condition;
        # each child keeps the second tree's node if its condition still cuts
        # the child region and otherwise descends to the matching daughter.
        # The child's sides of cv are cv's sides split by cu, which start from
        # their own witnesses (a categorical cu needs no LP at all).
        (ll, lr), (rl, rr) = sv[0].split(cu), sv[1].split(cu)
        for child_u, child_w, child_region, child_sides in (
            (right1[u], rw, right_region, (lr, rr)),
            (left1[u], lw, left_region, (ll, rl)),
        ):
            child_v, child_sv = _descend(b, v, child_sides)
            stack.append((child_u, child_v, child_w, child_region, None, child_sv))

    def pack(pairs) -> Leaves:
        (va, sa), (vb, sb) = _blocks(t1.leaves, 0), _blocks(t2.leaves, second)
        i, j = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2).T
        return Leaves("tuple", t2.leaves.entry, np.hstack((va[i], vb[j])),
                      np.hstack((sa[i], sb[j])))

    return builder.build(pack)


def _require_schema_and_kind(trees: Sequence[Tree]) -> str:
    schema = trees[0].schema
    for t in trees[1:]:
        if t.schema != schema:
            raise SchemaError("trees use different schemas")
    kinds, lengths = set(), set()
    for t in trees:
        kinds.add(leaf_kind_of(t))
        if t.leaves.kind == "class_probs":
            lengths.add(t.leaves.values.shape[1])
    kinds = sorted(kinds)
    if len(kinds) > 1:
        raise LeafKindError(f"trees mix leaf kinds {kinds}")
    if kinds == ["tuple"]:
        raise LeafKindError("input trees must have scalar or class_probs leaves")
    if len(lengths) > 1:
        raise LeafKindError(f"trees mix class-probability lengths {sorted(lengths)}")
    return kinds[0]


def combine_pair(
    t1: Tree, t2: Tree, budget: Optional[CombineBudget] = None
) -> Tree:
    """Overlay two trees into one tree with pair-valued leaves.

    For every in-domain point the result evaluates to the pair of the source
    evaluations. Hyperplane splits are supported, also in trees that mix them
    with numeric and categorical splits; note that two hyperplanes that
    coincide only up to a scale factor are not recognized as identical,
    so the overlay may assign points exactly on their shared boundary (a
    measure-zero set) the value from the wrong side of the second tree.
    """
    _require_schema_and_kind([t1, t2])
    budget = budget if budget is not None else CombineBudget()
    return _combine(t1, t2, budget, 1)


def combine_many(trees: Sequence[Tree], budget: Optional[CombineBudget] = None) -> Tree:
    """Left fold of :func:`combine_pair` with flattened tuple leaves.

    Each leaf of the result holds one value per input tree, in input order,
    with source ids recording the positions so weights align.
    """
    if not trees:
        raise DomainError("combine_many needs at least one tree")
    _require_schema_and_kind(trees)
    budget = budget if budget is not None else CombineBudget()
    values, sources = _blocks(trees[0].leaves, 0)
    result = replace(trees[0], leaves=Leaves("tuple", trees[0].leaves.kind, values, sources))
    for m in range(1, len(trees)):
        result = _combine(result, trees[m], budget, m)
    return result


def affine_combination(
    trees: Sequence[Tree],
    weights: Sequence[float],
    budget: Optional[CombineBudget] = None,
) -> Tree:
    """A single tree representing the weighted sum of the input trees.

    Combines the trees, then replaces each tuple leaf by the weighted sum of
    its entries, accumulated left to right over the value columns, so that
    every leaf uses the exact same float summation order. For
    class-probability trees the sum is componentwise; with weights that are
    not a convex combination the resulting vectors can leave the probability
    simplex, which ``validate`` then reports.
    """
    if len(weights) != len(trees):
        raise DomainError(
            f"{len(weights)} weights for {len(trees)} trees"
        )
    ws = [float(w) for w in weights]
    combined = combine_many(trees, budget)
    blocks = combined.leaves.blocks()
    acc = ws[0] * blocks[:, 0]
    for m in range(1, len(ws)):
        acc = acc + ws[m] * blocks[:, m]
    kind = combined.leaves.entry
    return replace(combined, leaves=Leaves(kind, kind, acc))


def simplify(tree: Tree) -> Tree:
    """Merge sibling leaves carrying exactly equal values, repeatedly.

    The represented function is unchanged; only redundant structure is
    dropped. Disabled by default everywhere (call it explicitly).
    """
    left, right, leaf, splits = _arrays(tree)
    values = [tree.leaves.value(r) for r in range(len(tree.leaves.values))]
    order = []
    stack = [tree.root_pos]
    while stack:
        i = stack.pop()
        order.append(i)
        if left[i] >= 0:
            stack.append(left[i])
            stack.append(right[i])
    # the leaf row whose value the whole subtree holds, -1 when none does
    constant: dict[int, int] = {}
    for i in reversed(order):
        if left[i] < 0:
            constant[i] = leaf[i]
        else:
            lv, rv = constant[left[i]], constant[right[i]]
            constant[i] = lv if (lv >= 0 and rv >= 0 and values[lv] == values[rv]) else -1
    builder = TreeBuilder(tree.schema)
    stack2 = [(tree.root_pos, builder.add_root())]
    while stack2:
        old, new = stack2.pop()
        if constant[old] >= 0 or left[old] < 0:
            if constant[old] >= 0:
                builder.set_value(new, values[constant[old]])
            continue
        lw, rw = builder.split_node(new, splits[old])
        stack2.append((right[old], rw))
        stack2.append((left[old], lw))
    return builder.build()

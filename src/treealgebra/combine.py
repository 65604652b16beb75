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
from typing import Callable, Optional, Sequence

from .errors import DomainError, LeafKindError, SchemaError
from .geometry import same_partition_in_region
from .trees import (
    ClassProbs,
    LeafValue,
    Node,
    Region,
    Scalar,
    Tree,
    TreeBuilder,
    TupleValue,
    _kind_of,
    kinds_and_lengths,
)

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


def _descend(node: Node, nid: int, sides):
    """Where a tree continues in a region, given the sides of its split
    there: the node and those sides when the split cuts the region, else the
    child whose side holds the region, whose split is not yet decided."""
    left, right = sides
    if left is None:
        return node.right, None
    if right is None:
        return node.left, None
    return nid, sides


def _collect_into(builder, w, region, tree, v, budget, value_fn, sides=None):
    """Copy ``tree`` below node ``v`` into ``builder`` at ``w``, keeping only
    the splits that cut ``region``; ``sides`` is ``v``'s split already
    decided in ``region``, when known."""
    stack = [(w, region, v, sides)]
    while stack:
        w, region, v, sides = stack.pop()
        budget.calls_made += 1
        node = tree.nodes[v]
        if node.left is None:
            builder.set_value(w, value_fn(node.value))
            continue
        v, sides = _descend(node, v, sides or region.split(node.split))
        if sides is None:
            stack.append((w, region, v, None))
            continue
        lw, rw = builder.split_node(w, node.split)
        stack.append((rw, sides[1], node.right, None))
        stack.append((lw, sides[0], node.left, None))


def _combine(
    t1: Tree,
    t2: Tree,
    budget: CombineBudget,
    pair_fn: Callable[[LeafValue, LeafValue], LeafValue],
) -> Tree:
    schema = t1.schema
    builder = TreeBuilder(schema, budget.max_nodes)
    w0 = builder.add_root()
    # each entry carries the sides of u's and v's splits in its region when
    # an earlier step already decided them, so no region decides a split twice
    stack = [(t1.root, t2.root, w0, Region.full(schema), None, None)]
    while stack:
        u, v, w, region, su, sv = stack.pop()
        budget.calls_made += 1
        nu = t1.nodes[u]
        nv = t2.nodes[v]
        if nu.left is None and nv.left is None:
            builder.set_value(w, pair_fn(nu.value, nv.value))
            continue
        if nu.left is None:
            _collect_into(
                builder, w, region, t2, v, budget,
                lambda fv, a=nu.value: pair_fn(a, fv), sv,
            )
            continue
        if nv.left is None:
            _collect_into(
                builder, w, region, t1, u, budget,
                lambda fu, b=nv.value: pair_fn(fu, b), su,
            )
            continue
        cu, cv = nu.split, nv.split
        u2, su = _descend(nu, u, su or region.split(cu))
        v2, sv = _descend(nv, v, sv or region.split(cv))
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
            stack.append((nu.right, nv.right, rw, right_region, None, None))
            stack.append((nu.left, nv.left, lw, left_region, None, None))
            continue
        if ident == "swapped":
            stack.append((nu.right, nv.left, rw, right_region, None, None))
            stack.append((nu.left, nv.right, lw, left_region, None, None))
            continue
        # crossing or parallel splits: split by the first tree's condition;
        # each child keeps the second tree's node if its condition still cuts
        # the child region and otherwise descends to the matching daughter.
        # The child's sides of cv are cv's sides split by cu, which start from
        # their own witnesses (a categorical cu needs no LP at all).
        (ll, lr), (rl, rr) = sv[0].split(cu), sv[1].split(cu)
        for child_u, child_w, child_region, child_sides in (
            (nu.right, rw, right_region, (lr, rr)),
            (nu.left, lw, left_region, (ll, rl)),
        ):
            child_v, child_sv = _descend(nv, v, child_sides)
            stack.append((child_u, child_v, child_w, child_region, None, child_sv))
    return builder.build()


def _require_schema_and_kind(trees: Sequence[Tree]) -> str:
    schema = trees[0].schema
    for t in trees[1:]:
        if t.schema != schema:
            raise SchemaError("trees use different schemas")
    firsts = []
    for t in trees:
        values = [t.nodes[i].value for i in t.leaf_ids()]
        _kind_of(values)
        firsts.append(values[0])
    # each tree's leaves share one kind and length, so its first leaf stands for it
    kinds, lengths = kinds_and_lengths(firsts)
    if len(kinds) > 1:
        raise LeafKindError(f"trees mix leaf kinds {kinds}")
    if kinds == ["tuple"]:
        raise LeafKindError("input trees must have scalar or class_probs leaves")
    if len(lengths) > 1:
        raise LeafKindError(f"trees mix class-probability lengths {lengths}")
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
    return _combine(t1, t2, budget, lambda a, b: TupleValue((a, b), (0, 1)))


def _map_leaves(tree: Tree, fn: Callable[[LeafValue], LeafValue]) -> Tree:
    nodes = {
        i: (replace(n, value=fn(n.value)) if n.left is None else n)
        for i, n in tree.nodes.items()
    }
    return Tree(tree.schema, nodes, tree.root)


def combine_many(trees: Sequence[Tree], budget: Optional[CombineBudget] = None) -> Tree:
    """Left fold of :func:`combine_pair` with flattened tuple leaves.

    Each leaf of the result holds one value per input tree, in input order,
    with source ids recording the positions so weights align.
    """
    if not trees:
        raise DomainError("combine_many needs at least one tree")
    _require_schema_and_kind(trees)
    budget = budget if budget is not None else CombineBudget()
    result = _map_leaves(trees[0], lambda v: TupleValue((v,), (0,)))
    for m in range(1, len(trees)):
        result = _combine(
            result,
            trees[m],
            budget,
            lambda a, b, m=m: TupleValue(a.values + (b,), a.source_ids + (m,)),
        )
    return result


def _collapse_tuple(tv: TupleValue, weights: Sequence[float]) -> LeafValue:
    first = tv.values[0]
    if isinstance(first, Scalar):
        acc = weights[0] * first.value
        for w, val in zip(weights[1:], tv.values[1:]):
            acc = acc + w * val.value
        return Scalar(acc)
    n = len(first.probs)
    out = []
    for s in range(n):
        acc = weights[0] * first.probs[s]
        for w, val in zip(weights[1:], tv.values[1:]):
            acc = acc + w * val.probs[s]
        out.append(acc)
    return ClassProbs(tuple(out))


def affine_combination(
    trees: Sequence[Tree],
    weights: Sequence[float],
    budget: Optional[CombineBudget] = None,
) -> Tree:
    """A single tree representing the weighted sum of the input trees.

    Combines the trees, then replaces each tuple leaf by the weighted sum of
    its entries, accumulated left to right so that every leaf uses the exact
    same float summation order. For class-probability trees the sum is
    componentwise; with weights that are not a convex combination the
    resulting vectors can leave the probability simplex, which ``validate``
    then reports.
    """
    if len(weights) != len(trees):
        raise DomainError(
            f"{len(weights)} weights for {len(trees)} trees"
        )
    ws = [float(w) for w in weights]
    combined = combine_many(trees, budget)
    return _map_leaves(combined, lambda tv: _collapse_tuple(tv, ws))


def simplify(tree: Tree) -> Tree:
    """Merge sibling leaves carrying exactly equal values, repeatedly.

    The represented function is unchanged; only redundant structure is
    dropped. Disabled by default everywhere (call it explicitly).
    """
    order = []
    stack = [tree.root]
    while stack:
        nid = stack.pop()
        order.append(nid)
        node = tree.nodes[nid]
        if node.left is not None:
            stack.append(node.left)
            stack.append(node.right)
    constant: dict[int, Optional[LeafValue]] = {}
    for nid in reversed(order):
        node = tree.nodes[nid]
        if node.left is None:
            constant[nid] = node.value
        else:
            lv = constant[node.left]
            rv = constant[node.right]
            constant[nid] = lv if (lv is not None and lv == rv) else None
    builder = TreeBuilder(tree.schema)
    new_root = builder.add_root()
    stack2 = [(tree.root, new_root)]
    while stack2:
        old, new = stack2.pop()
        node = tree.nodes[old]
        if constant[old] is not None or node.left is None:
            builder.set_value(new, constant[old] if constant[old] is not None else node.value)
            continue
        lw, rw = builder.split_node(new, node.split)
        stack2.append((node.right, rw))
        stack2.append((node.left, lw))
    return builder.build()

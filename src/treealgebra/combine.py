"""Combining trees: product trees and affine sums.

``combine_many`` overlays recursive partitions into one tree whose
tuple-valued leaves carry every source value; ``combine_pair`` overlays
two; ``affine_combination`` collapses the tuples into weighted sums.

The overlay is the paper's recursion on the product of two partitions,
folded left over the trees. Where two splits both cut a region the first
tree's wins (a fixed tie-break that makes the output deterministic).

A box cut is exact, so the trees before the first with a hyperplane split
are overlaid in one walk through the trees of one :class:`NodeTable`, a
frontier at a time, with no intermediate tree. A row is a node position
and the region of one output node: a row of one box matrix, two bounds per
numeric feature, plus a bitmask of admissible levels when some split is
categorical. A split that does not cut the region moves the row to the
child that holds it, a split that cuts makes two rows, and a row at a leaf
goes on at the next tree's root, or after the last tree becomes an output
leaf. Nodes are numbered at the end in the order a depth-first build gives
them.

From the first tree with a hyperplane split on, each tree is overlaid on
the fold so far by the paper's depth-first recursion, one output node at a
time, in :class:`Region` objects from :meth:`Region.full`: each step
decides the splits of the tree folded so far again with
:meth:`Region.split`. A state splits by the first tree's split, or by the
second's when the first is at a leaf, and a split that misses the region
descends. Where both trees share a split, the second tree's split is
already settled in each child region (a threshold or level set by the box,
a hyperplane by the path that holds it), so both trees descend together
with no special case and no LP, and no hyperplane is written below itself.
:func:`treealgebra.oracle.combine_many_reference`
folds every tree with that recursion, the reference the tests compare the
walk with array for array.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .trees import (
    HYPERPLANE,
    Leaves,
    NodeTable,
    Region,
    Tree,
    TreeBuilder,
    _operands,
    check_node_budget,
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
    clean reported failure instead of memory exhaustion): the walk checks
    it once per round, the depth-first steps once per node. ``calls_made``
    counts the overlay's node-pair states: in the walk one per round a row
    spends at a node, where a row at a leaf goes on in the next tree in the
    same round, so a pair takes at most ``(n1 - L1) + L1 * n2`` (``L1``: the
    first tree's leaves); then, in each depth-first step, one per pair of
    node positions it visits in a region, pairs of two leaves and pairs
    with one tree at a leaf included, and no pair arises twice. Either way
    a pair of trees takes at most ``n1 * n2``.
    """

    max_nodes: int = 10_000_000
    calls_made: int = 0


def _arrays(tree: Tree):
    """A tree's child positions, leaf rows and splits, as lists."""
    return tree.left_pos.tolist(), tree.right_pos.tolist(), tree.leaf.tolist(), tree.splits()


def _blocks(leaves: Leaves, source: int) -> tuple[np.ndarray, np.ndarray]:
    """The values and source ids of some leaves as tuple blocks; a leaf
    that is not a tuple is one block from ``source``."""
    if leaves.sources is not None:
        return leaves.values, leaves.sources
    return leaves.values, np.full((len(leaves.values), 1), source)


def _tuple_tree(tree: Tree) -> Tree:
    """A tree with its leaves as tuples of one block from source 0, the
    start of a fold."""
    values, sources = _blocks(tree.leaves, 0)
    return replace(tree, leaves=Leaves(tree.leaves.entry, values, sources))


def _pack_rows(trees: Sequence[Tree], sources: Sequence[int], rows: np.ndarray) -> Leaves:
    """The leaf table of an overlay whose leaves join leaf rows ``rows[:, k]``
    of ``trees[k]``: the blocks of every tree in turn. A leaf that is not a
    tuple is one block, from source ``sources[k]``."""
    values, ids = zip(*(_blocks(t.leaves, s) for t, s in zip(trees, sources)))
    return Leaves(trees[-1].leaves.entry, np.hstack([v[r] for v, r in zip(values, rows.T)]),
                  np.hstack([i[r] for i, r in zip(ids, rows.T)]))


class _Overlay:
    """The output of an overlay while it grows. The root is node 0; the
    ``k``-th split made gives its node children ``1 + 2k`` and ``2 + 2k``.
    ``parents``/``sources`` hold each split's node and the stacked position
    of the split it copies, one array per batch of splits; ``leaves`` holds
    leaf nodes and the leaf rows they join, one column per tree."""

    def __init__(self, max_nodes: Optional[int]):
        self.max_nodes = max_nodes
        self.n_splits = 0
        self.parents, self.sources = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        self.leaves = []
        check_node_budget(1, max_nodes)

    def add_splits(self, parents: np.ndarray, sources: np.ndarray) -> np.ndarray:
        """Split some nodes none of which has a child yet; returns their left
        children (the right ones are one more)."""
        k = self.n_splits
        self.n_splits += len(parents)
        check_node_budget(1 + 2 * self.n_splits, self.max_nodes)
        self.parents.append(parents)
        self.sources.append(sources)
        return np.arange(1 + 2 * k, 1 + 2 * self.n_splits, 2)

    def tree(self, nodes: NodeTable) -> Tree:
        """The overlay as a tree with the leaves of :func:`_pack_rows`, numbered
        as a depth-first build numbers it: internal node ``p`` with preorder
        rank ``r`` among the internal nodes gets children ``1 + 2r`` and
        ``2 + 2r``, and leaves get their leaf rows in preorder."""
        k, n = self.n_splits, 1 + 2 * self.n_splits
        parents, sources = np.concatenate(self.parents), np.concatenate(self.sources)
        bounds = np.cumsum([0] + [len(p) for p in self.parents]).tolist()
        # each batch's nodes and their left and right children; a batch
        # splits nodes made by earlier batches, so subtree sizes come from
        # the last batch up and preorder positions from the first down
        batches = [(parents[a:b], slice(1 + 2 * a, 1 + 2 * b, 2), slice(2 + 2 * a, 2 + 2 * b, 2))
                   for a, b in zip(bounds, bounds[1:]) if b > a]
        size = np.ones(n, dtype=np.int64)
        for p, lc, rc in reversed(batches):
            size[p] = 1 + size[lc] + size[rc]
        pre = np.zeros(n, dtype=np.int64)
        for p, lc, rc in batches:
            pre[lc] = pre[p] + 1
            pre[rc] = pre[lc] + size[lc]
        rank = np.empty(k, dtype=np.int64)
        rank[np.argsort(pre[parents])] = np.arange(k)
        new = np.zeros(n, dtype=np.int64)
        new[1::2] = 1 + 2 * rank
        new[2::2] = 2 + 2 * rank
        at = new[parents]
        left, right, parent = (np.full(n, -1, dtype=np.int64) for _ in range(3))
        left[at], right[at] = new[1::2], new[2::2]
        parent[new[1::2]] = parent[new[2::2]] = at
        kind, feature, threshold = np.zeros(n, dtype=np.int8), np.full(n, -1), np.full(n, np.nan)
        split = np.full(n, None, dtype=object)
        kind[at], feature[at], threshold[at], split[at] = (a[sources] for a in (
            nodes.kind, nodes.feature, nodes.threshold, nodes.split))
        w, rows = (np.concatenate(c) for c in zip(*self.leaves))
        order = np.argsort(pre[w])
        leaf = np.full(n, -1, dtype=np.int64)
        leaf[new[w[order]]] = np.arange(len(w))
        leaves = _pack_rows(nodes.trees, range(len(nodes.trees)), rows[order])
        return Tree(nodes.trees[0].schema, 0, np.arange(n), left, right, parent, kind, feature,
                    threshold, split, leaf, leaves)


def _walk(trees: Sequence[Tree], budget: CombineBudget) -> Tree:
    """The overlay of trees without hyperplanes, with the leaf table of
    :func:`_pack_rows`, as rounds of box rows over one :class:`NodeTable`:
    node positions ``pos[r]`` for output nodes ``w[r]``, with the boxes
    ``box[r]``, the level masks ``masks[r]`` (None when no split is
    categorical) and the trees' leaf rows ``rows[r]``."""
    nodes, out = NodeTable(trees), _Overlay(budget.max_nodes)
    # a row leaves a tree's leaf for the root of the next tree with a
    # split, or -1 after the last; a one-leaf tree's row is known up front
    roots = nodes.roots
    later = np.flatnonzero(nodes.left[roots] >= 0)
    after = np.append(roots[later], -1)[np.searchsorted(later, np.arange(len(roots)), "right")]
    pos, w, rows = roots[:1].copy(), np.zeros(1, dtype=np.int64), nodes.leaf[roots][None]
    box, masks = nodes.full_box(1)
    while len(pos):
        budget.calls_made += len(pos)
        at = (nodes.left[pos] < 0).nonzero()[0]
        t = nodes.tree_of[pos[at]]
        rows[at, t] = nodes.leaf[pos[at]]
        pos[at] = after[t]
        done = pos < 0
        out.leaves.append((w[done], rows[done]))
        on_left, on_right = nodes.meets(pos, box, masks)
        cut = on_left & on_right & ~done
        stay, cut = (~(cut | done)).nonzero()[0], cut.nonzero()[0]
        src = pos[cut]
        first = out.add_splits(w[cut], src)
        take = np.concatenate((stay, cut, cut))
        pos = np.where(on_left, nodes.left[pos], nodes.right[pos])
        pos = np.concatenate((pos[stay], nodes.left[src], nodes.right[src]))
        w = np.concatenate((w[stay], first, first + 1))
        box, rows = box[take], rows[take]
        masks = None if masks is None else masks[take]
        to_left = np.arange(len(stay), len(stay) + len(cut))
        nodes.narrow(src, box, masks, to_left, True)
        nodes.narrow(src, box, masks, to_left + len(cut), False)
    return out.tree(nodes)


# ---------------------------------------------------------------------------
# Depth-first overlay


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


def _combine(t1: Tree, t2: Tree, budget: CombineBudget, second: int) -> Tree:
    """The overlay of two trees; its leaf joining leaf rows ``i`` of ``t1``
    and ``j`` of ``t2`` holds the blocks of both, ``t1``'s first. A leaf
    that is not a tuple is one block, from source 0 in ``t1`` and from
    source ``second`` in ``t2``."""
    schema = t1.schema
    builder = TreeBuilder(schema, budget.max_nodes)
    a, b = _arrays(t1), _arrays(t2)
    (left1, right1, leaf1, splits1), (left2, right2, leaf2, splits2) = a, b
    # each entry carries the sides of u's and v's splits in its region when
    # an earlier step already decided them, so no region decides a split twice
    stack = [(t1.root_pos, t2.root_pos, builder.add_root(), Region.full(schema), None, None)]
    while stack:
        u, v, w, region, su, sv = stack.pop()
        budget.calls_made += 1
        if left1[u] < 0 and left2[v] < 0:
            builder.set_value(w, (leaf1[u], leaf2[v]))
            continue
        # a tree at a leaf stays there; a split that misses the region
        # descends without adding a node
        u2, su = (u, None) if left1[u] < 0 else _descend(a, u, su or region.split(splits1[u]))
        v2, sv = (v, None) if left2[v] < 0 else _descend(b, v, sv or region.split(splits2[v]))
        if u2 != u or v2 != v:
            stack.append((u2, v2, w, region, su, sv))
            continue
        if su is None:
            # the first tree is at a leaf: copy the second tree's split
            lw, rw = builder.split_node(w, splits2[v])
            stack.append((u, right2[v], rw, sv[1], None, None))
            stack.append((u, left2[v], lw, sv[0], None, None))
            continue
        # split by the first tree's condition cu; each child keeps the second
        # tree's node v if its split still cuts the child region and
        # otherwise descends to the matching daughter, so a split both trees
        # share descends both at once. The child's sides of v's split are its
        # sides split by cu, which start from their own witnesses (a
        # categorical cu, or one already on the path, needs no LP at all).
        cu = splits1[u]
        lw, rw = builder.split_node(w, cu)
        (vl, sl), (vr, sr) = (v, None), (v, None)
        if sv is not None:
            (ll, lr), (rl, rr) = sv[0].split(cu), sv[1].split(cu)
            (vl, sl), (vr, sr) = _descend(b, v, (ll, rl)), _descend(b, v, (lr, rr))
        stack.append((right1[u], vr, rw, su[1], None, sr))
        stack.append((left1[u], vl, lw, su[0], None, sl))

    return builder.build(lambda pairs: _pack_rows(
        (t1, t2), (0, second), np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)))


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
    return _combine_many([t1, t2], budget, "combine_pair")


def combine_many(trees: Sequence[Tree], budget: Optional[CombineBudget] = None) -> Tree:
    """Left fold of :func:`combine_pair` with flattened tuple leaves.

    Each leaf of the result holds one value per input tree, in input order,
    with source ids recording the positions so weights align. The trees
    before the first with a hyperplane split are overlaid by one walk, and
    each later tree is overlaid on the fold so far, depth first.
    """
    return _combine_many(trees, budget, "combine_many")


def _combine_many(trees: Sequence[Tree], budget: Optional[CombineBudget], name: str) -> Tree:
    """:func:`combine_many` for the operation ``name``."""
    _operands(trees, name)
    budget = budget if budget is not None else CombineBudget()
    k = next((k for k, t in enumerate(trees) if (t.kind == HYPERPLANE).any()), len(trees))
    result = _tuple_tree(trees[0]) if k < 2 else _walk(trees[:k], budget)
    for m in range(max(k, 1), len(trees)):
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
    n, m = len(weights), len(trees)
    if n != m:
        raise DomainError(f"{n} weight{'s' * (n != 1)} for {m} tree{'s' * (m != 1)}")
    if np.ndim(weights) != 1:
        raise DomainError(f"affine weights have shape {np.shape(weights)}, not one weight per tree")
    ws = [float(w) for w in weights]
    if not np.isfinite(ws).all():
        raise DomainError(f"affine weights must be finite, got {ws}")
    combined = _combine_many(trees, budget, "affine_combination")
    blocks = combined.leaves.blocks()
    with np.errstate(over="ignore", invalid="ignore"):
        acc = ws[0] * blocks[:, 0]
        for m in range(1, len(ws)):
            acc = acc + ws[m] * blocks[:, m]
    if not np.isfinite(acc).all():
        raise DomainError("affine combination overflows to a non-finite leaf value")
    return replace(combined, leaves=Leaves(combined.leaves.entry, acc))


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

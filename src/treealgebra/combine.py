"""Combining trees: product trees and affine sums.

``combine_many`` overlays recursive partitions into one tree whose
tuple-valued leaves carry every source value; ``combine_pair`` overlays
two; ``affine_combination`` collapses the tuples into weighted sums.

The overlay is the paper's recursion on the product of two partitions,
folded left over the trees and evaluated one frontier at a time. Where two
splits both cut a region the first tree's wins (a fixed tie-break that
makes the output deterministic), and a box cut is exact, so a fold without
hyperplanes is one walk through the trees of one :class:`NodeTable`, with
no intermediate tree. A row is a node position and the region of one
output node: a row of one box matrix, two bounds per numeric feature, plus
a bitmask of admissible levels when some split is categorical. A split that
does not cut the region moves the row to the child that holds it, a split
that cuts makes two rows, and a row at a leaf goes on at the next tree's
root, or after the last tree becomes an output leaf.

A fold that meets a hyperplane goes on a pair at a time, as the reference
does, since each step decides the splits of the tree folded so far again:
a row is a pair of node positions with a :class:`Region` from
:meth:`Region.full` and the sides of its splits already decided, and is
decided one row at a time by exactly the :meth:`Region.split` calls of the
depth-first overlay, so the LPs are the reference's. Nodes are numbered at
the end in the order a depth-first build gives them;
:func:`treealgebra.oracle.combine_many_reference` is that build, the
reference the tests compare with array for array.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, LeafKindError, SchemaError
from .trees import (
    HYPERPLANE,
    Hyperplane,
    Leaves,
    NodeTable,
    Region,
    Tree,
    TreeBuilder,
    check_node_budget,
    leaf_kind_of,
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
    counts the overlay rows processed, one per round a row spends at a node
    (a node pair once a fold meets a hyperplane); a row at a leaf goes on in
    the next tree in the same round, so a pair takes at most
    ``(n1 - L1) + L1 * n2 <= n1 * n2`` rows (``L1``: the first tree's leaves).
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
    return replace(tree, leaves=Leaves("tuple", tree.leaves.kind, values, sources))


def _pack_rows(trees: Sequence[Tree], sources: Sequence[int], rows: np.ndarray) -> Leaves:
    """The leaf table of an overlay whose leaves join leaf rows ``rows[:, k]``
    of ``trees[k]``: the blocks of every tree in turn. A leaf that is not a
    tuple is one block, from source ``sources[k]``."""
    values, ids = zip(*(_blocks(t.leaves, s) for t, s in zip(trees, sources)))
    return Leaves("tuple", trees[-1].leaves.entry, np.hstack([v[r] for v, r in zip(values, rows.T)]),
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

    def tree(self, nodes: NodeTable, source_ids: Sequence[int]) -> Tree:
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
        return Tree(nodes.trees[0].schema, 0, np.arange(n), left, right, parent, kind, feature,
                    threshold, split, leaf, _pack_rows(nodes.trees, source_ids, rows[order]))


def _walk(nodes: NodeTable, out: _Overlay, budget: CombineBudget) -> None:
    """The overlay of the trees of a table without hyperplanes, as rounds
    of box rows: node positions ``pos[r]`` for output nodes ``w[r]``, with
    the boxes ``box[r]`` of :class:`NodeTable`, the level masks ``masks[r]``
    (None when no split is categorical) and the trees' leaf rows ``rows[r]``."""
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


def _region_round(nodes: NodeTable, out: _Overlay, rows: list) -> list:
    """One round over rows whose regions are :class:`Region` objects, one
    row at a time: ``(u, v, w, region, su, sv)``, where ``su``/``sv`` are
    the sides of ``u``'s/``v``'s split in the region once decided. The
    splits are decided by exactly the :meth:`Region.split` calls of the
    depth-first overlay. Returns the next rows."""
    left, right, leaf, splits = nodes.lists

    def descend(i, sides):
        # the node and its sides when its split cuts, else the child that
        # holds the region, whose split is not yet decided
        if sides[0] is None:
            return right[i], None
        if sides[1] is None:
            return left[i], None
        return i, sides

    nxt, parents, sources, children, leaves = [], [], [], [], []
    for u, v, w, region, su, sv in rows:
        inner_u, inner_v = left[u] >= 0, left[v] >= 0
        if not (inner_u or inner_v):
            leaves.append((w, leaf[u], leaf[v]))
            continue
        cu, cv = splits[u], splits[v]
        u2, su = descend(u, su or region.split(cu)) if inner_u else (u, None)
        v2, sv = descend(v, sv or region.split(cv)) if inner_v else (v, None)
        if (inner_u and su is None) or (inner_v and sv is None):
            nxt.append((u2, v2, w, region, su, sv))
            continue
        parents.append(w)
        sources.append(u if inner_u else v)
        if not inner_v:
            children.append(((left[u], v, su[0], None, None), (right[u], v, su[1], None, None)))
        elif not inner_u:
            children.append(((u, left[v], sv[0], None, None), (u, right[v], sv[1], None, None)))
        elif isinstance(cu, Hyperplane) and cu == cv:
            # under the closed relaxation each side of a hyperplane meets
            # the other side, so an identical one must not be split again
            children.append(((left[u], left[v], su[0], None, None),
                             (right[u], right[v], su[1], None, None)))
        else:
            # each child keeps v's split where it still cuts the child's
            # region; its sides there are v's sides split by u's split
            (ll, lr), (rl, rr) = sv[0].split(cu), sv[1].split(cu)
            (vl, sl), (vr, sr) = descend(v, (ll, rl)), descend(v, (lr, rr))
            children.append(((left[u], vl, su[0], None, sl), (right[u], vr, su[1], None, sr)))
    if leaves:
        w, i, j = zip(*leaves)
        out.leaves.append((np.array(w), np.array([i, j]).T))
    if parents:
        first = out.add_splits(np.array(parents), np.array(sources)).tolist()
        for k, pair in zip(first, children):
            for node, (a, b, region, su, sv) in zip((k, k + 1), pair):
                nxt.append((a, b, node, region, su, sv))
    return nxt


def _overlay(nodes: NodeTable, budget: CombineBudget, source_ids: Sequence[int]) -> Tree:
    """The overlay of the trees of a table, with the leaf table of
    :func:`_pack_rows`: rounds of :class:`Region` rows when a split of
    its two trees is a hyperplane, else one :func:`_walk`."""
    out = _Overlay(budget.max_nodes)
    if nodes.hyperplanes:
        rows = [(*nodes.roots.tolist(), 0, Region.full(nodes.trees[0].schema), None, None)]
        while rows:
            budget.calls_made += len(rows)
            rows = _region_round(nodes, out, rows)
    else:
        _walk(nodes, out, budget)
    return out.tree(nodes, source_ids)


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
    return combine_many([t1, t2], budget)


def combine_many(trees: Sequence[Tree], budget: Optional[CombineBudget] = None) -> Tree:
    """Left fold of :func:`combine_pair` with flattened tuple leaves.

    Each leaf of the result holds one value per input tree, in input order,
    with source ids recording the positions so weights align. The trees
    before the first with a hyperplane split are overlaid by one walk, and
    each later tree is overlaid on the fold so far.
    """
    if not trees:
        raise DomainError("combine_many needs at least one tree")
    _require_schema_and_kind(trees)
    budget = budget if budget is not None else CombineBudget()
    k = next((k for k, t in enumerate(trees) if (t.kind == HYPERPLANE).any()), len(trees))
    result = _tuple_tree(trees[0]) if k < 2 else _overlay(NodeTable(trees[:k]), budget, range(k))
    for m in range(max(k, 1), len(trees)):
        result = _overlay(NodeTable((result, trees[m])), budget, (0, m))
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
    if not np.isfinite(ws).all():
        raise DomainError(f"affine weights must be finite, got {ws}")
    combined = combine_many(trees, budget)
    blocks = combined.leaves.blocks()
    with np.errstate(over="ignore", invalid="ignore"):
        acc = ws[0] * blocks[:, 0]
        for m in range(1, len(ws)):
            acc = acc + ws[m] * blocks[:, m]
    if not np.isfinite(acc).all():
        raise DomainError("affine combination overflows to a non-finite leaf value")
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

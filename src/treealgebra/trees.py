"""Domains, splits, regions, and binary trees over them.

A tree here is a binary arena of nodes: every internal node carries a split
condition that bipartitions its region, every leaf carries a constant value,
and the whole tree represents a piecewise-constant function on the domain
described by a :class:`FeatureSchema`.

Boundary convention: a numeric split ``x_j <= t`` routes to the left child,
so the left child's interval is closed at ``t`` and the right child's is
open at ``t``. Categorical splits route left when the point's level is in
``left_levels``; hyperplane splits route left when ``c'x <= b``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, partial
from itertools import accumulate
from math import isfinite
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import simplex
from .errors import BudgetExceededError, DomainError, LeafKindError, SchemaError

__all__ = [
    "NumericFeature",
    "CategoricalFeature",
    "FeatureSchema",
    "NumericThreshold",
    "CategoricalSubset",
    "Hyperplane",
    "Split",
    "Side",
    "Region",
    "Scalar",
    "ClassProbs",
    "TupleValue",
    "LeafValue",
    "Tree",
    "TreeBuilder",
    "evaluate",
    "route_batch",
    "evaluate_batch",
    "leaf_kind_of",
    "validate",
]


# ---------------------------------------------------------------------------
# Schema


@dataclass(frozen=True)
class NumericFeature:
    """A bounded real-valued feature; the domain is the closed box side [low, high]."""

    name: str
    low: float
    high: float

    def __post_init__(self):
        object.__setattr__(self, "low", float(self.low))
        object.__setattr__(self, "high", float(self.high))
        if not (np.isfinite(self.low) and np.isfinite(self.high)):
            raise SchemaError(f"feature {self.name!r}: bounds must be finite")
        if not self.low < self.high:
            raise SchemaError(
                f"feature {self.name!r}: low {self.low} must be < high {self.high}"
            )


@dataclass(frozen=True)
class CategoricalFeature:
    """A feature taking one of finitely many named levels."""

    name: str
    levels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise SchemaError(f"feature {self.name!r}: empty level set")
        if len(set(self.levels)) != len(self.levels):
            raise SchemaError(f"feature {self.name!r}: duplicate levels")


Feature = Union[NumericFeature, CategoricalFeature]


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature list plus optional class labels for classification trees."""

    features: tuple[Feature, ...]
    class_labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        if self.class_labels is not None:
            object.__setattr__(self, "class_labels", tuple(self.class_labels))
            if len(set(self.class_labels)) != len(self.class_labels):
                raise SchemaError("duplicate class labels")
        if not self.features:
            raise SchemaError("schema needs at least one feature")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature names")

    @property
    def n_features(self) -> int:
        return len(self.features)

    @cached_property
    def numeric_indices(self) -> tuple[int, ...]:
        """Positions of numeric features, in schema order.

        Hyperplane coefficient vectors are aligned to this ordering.
        """
        return tuple(
            j for j, f in enumerate(self.features) if isinstance(f, NumericFeature)
        )

    def encode_value(self, j: int, value) -> float:
        """Encode one raw feature value to its internal float form."""
        f = self.features[j]
        if isinstance(f, NumericFeature):
            try:
                x = float(value)
            except (TypeError, ValueError):
                raise DomainError(f"feature {f.name!r}: {value!r} is not numeric")
            if not np.isfinite(x) or x < f.low or x > f.high:
                raise DomainError(
                    f"feature {f.name!r}: {x} outside [{f.low}, {f.high}]"
                )
            return x
        if isinstance(value, str):
            try:
                return float(f.levels.index(value))
            except ValueError:
                raise DomainError(f"feature {f.name!r}: unknown level {value!r}")
        k = int(value)
        if k != value or not 0 <= k < len(f.levels):
            raise DomainError(f"feature {f.name!r}: bad level index {value!r}")
        return float(k)

    def encode_point(self, values: Sequence) -> tuple[float, ...]:
        """Encode a raw point (numbers and level names) and check it is in-domain."""
        if len(values) != self.n_features:
            raise DomainError(
                f"point has {len(values)} values, schema has {self.n_features} features"
            )
        return tuple(self.encode_value(j, v) for j, v in enumerate(values))

    def encode_points(self, rows: Sequence[Sequence]) -> np.ndarray:
        """Encode many raw points into an (n, p) float matrix.

        Encodes column by column; when any cell fails that fast path, the
        points are encoded again one value at a time, in row-major order, so
        the error names the first bad value exactly as :meth:`encode_point`
        does.
        """
        n, p = len(rows), self.n_features
        if all(len(r) == p for r in rows):
            X = np.empty((n, p))
            try:
                for j, column in enumerate(zip(*rows)):
                    X[:, j] = self._encode_column(j, column)
                return X
            except (KeyError, TypeError, ValueError):
                pass
        return np.array([self.encode_point(r) for r in rows], dtype=float).reshape(n, p)

    def _encode_column(self, j: int, column: Sequence) -> np.ndarray:
        """Encode one column of level names or in-range numbers; raises
        KeyError, TypeError or ValueError on any other value."""
        f = self.features[j]
        if isinstance(f, NumericFeature):
            x = np.fromiter(map(float, column), float, len(column))
            if not (np.isfinite(x) & (x >= f.low) & (x <= f.high)).all():
                raise ValueError
            return x
        # only names are keys: a level index or any other value misses
        index = {name: float(k) for k, name in enumerate(f.levels) if isinstance(name, str)}
        return np.fromiter(map(index.__getitem__, column), float, len(column))

    def decode_point(self, x: Sequence[float]) -> tuple:
        """Inverse of :meth:`encode_point`: level indices back to level names."""
        return tuple(float(xj) if isinstance(f, NumericFeature) else f.levels[int(xj)]
                     for f, xj in zip(self.features, x))


# ---------------------------------------------------------------------------
# Splits


@dataclass(frozen=True)
class NumericThreshold:
    """Split condition ``x_feature <= threshold`` (left side includes the threshold)."""

    feature: int
    threshold: float

    def __post_init__(self):
        object.__setattr__(self, "threshold", float(self.threshold))


@dataclass(frozen=True)
class CategoricalSubset:
    """Split condition ``level(x_feature) in left_levels`` (level indices)."""

    feature: int
    left_levels: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "left_levels", frozenset(self.left_levels))


@dataclass(frozen=True)
class Hyperplane:
    """Split condition ``c'x <= offset`` over the schema's numeric features."""

    coefficients: tuple[float, ...]
    offset: float

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", tuple(float(c) for c in self.coefficients)
        )
        object.__setattr__(self, "offset", float(self.offset))
        if not any(c != 0.0 for c in self.coefficients):
            raise SchemaError("hyperplane coefficient vector is zero")


Split = Union[NumericThreshold, CategoricalSubset, Hyperplane]


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


def _goes_left_batch(
    split: Split,
    X: np.ndarray,
    schema: FeatureSchema,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Route the rows of an encoded matrix (all rows, or the index array
    ``rows``) through one split, gathering only the columns it reads.

    A hyperplane sums ``c_k * x_k`` left to right, one column at a time, so
    each row gets the same bits however many other rows are routed with it
    (a matrix product may round differently with the number of rows).
    """
    if isinstance(split, Hyperplane):
        acc = 0.0
        for c, j in zip(split.coefficients, schema.numeric_indices):
            acc = acc + c * (X[:, j] if rows is None else X[rows, j])
        return acc <= split.offset
    col = X[:, split.feature] if rows is None else X[rows, split.feature]
    if isinstance(split, NumericThreshold):
        return col <= split.threshold
    return np.isin(col.astype(np.int64), np.fromiter(split.left_levels, dtype=np.int64))


# ---------------------------------------------------------------------------
# Regions


def full_box(schema: FeatureSchema) -> tuple:
    """The whole domain as a box. A box has one entry per feature: for a
    numeric feature its bounds and whether the lower one is closed,
    ``(low, high, low_closed)``, the upper one always being closed; for a
    categorical feature the frozenset of its admissible level indices."""
    return tuple((f.low, f.high, True) if isinstance(f, NumericFeature)
                 else frozenset(range(len(f.levels))) for f in schema.features)


def box_sides(box: tuple, j: int, cut) -> tuple:
    """The boxes on the two sides of a split of feature ``j`` within ``box``,
    and whether both sides hold a point. ``cut`` is a numeric split's
    threshold ``t``, whose left side ``x_j <= t`` is closed at ``t`` and
    whose right side is open there, or a categorical split's left levels.
    A left side that holds the whole box keeps the box's entry as it is. A
    side without points has low > high, low == high with an open lower end
    (a cut at ``high``, or at an open lower end), or no levels."""
    if isinstance(cut, frozenset):
        left, right = box[j] & cut, box[j] - cut
        both = bool(left and right)
    else:
        lo, hi, closed = box[j]
        left, right = (lo, cut if cut < hi else hi, closed), (cut if cut > lo else lo, hi, False)
        both = (lo < cut or (cut == lo and closed)) and cut < hi
    return box[:j] + (left,) + box[j + 1 :], box[:j] + (right,) + box[j + 1 :], both


@dataclass(frozen=True)
class Region:
    """A box plus half-space constraints.

    ``constraints`` is a box (:func:`full_box`): ``(low, high, low_closed)``
    per numeric feature, closed at ``high``, and a frozenset of admissible
    level indices per categorical feature. Half-spaces record hyperplane
    splits applied along a path: side LEFT means ``c'x <= b`` and side RIGHT
    means ``c'x > b``.

    Regions are built by :meth:`full` and :meth:`split`, which keep them
    nonempty by construction. A numeric or categorical split cuts the box
    by :func:`box_sides`, the rule that the leaf tables of
    :mod:`treealgebra.measures` and the oracle's validation walk follow too.
    Emptiness under half-spaces is decided by a feasibility LP that relaxes
    strict inequalities to closed ones, so a region touching a hyperplane
    in a measure-zero set counts as nonempty.

    ``witness`` is a point of the numeric subspace (in
    ``schema.numeric_indices`` order) that meets the closed constraints. A
    split side that holds it is nonempty under the closed relaxation, which
    is what the LP would report, so :meth:`split` skips that LP and no result
    changes; the witness is left out of equality and hashing. A region
    without half-spaces keeps None and uses its box centre, computed only
    when a hyperplane cuts the box, so ``full`` starts from the centre and
    axis-aligned splits never pay for a witness.
    """

    schema: FeatureSchema
    constraints: tuple
    half_spaces: tuple[tuple[Hyperplane, Side], ...] = ()
    witness: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    @classmethod
    def full(cls, schema: FeatureSchema) -> "Region":
        """The root domain: the full box times all levels."""
        return cls(schema, full_box(schema))

    def lp_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Closed-inequality rows ``A x <= b`` over the numeric subspace:
        ``+x_j`` and then ``-x_j`` per numeric feature, then the half-spaces
        in path order, a RIGHT one negated. Strict parts are relaxed to
        closed, which is what the LP machinery expects."""
        num, hs, box = self.schema.numeric_indices, self.half_spaces, self.constraints
        d = len(num)
        a, b = np.zeros((2 * d + len(hs), d)), np.empty(2 * d + len(hs))
        a[np.arange(2 * d), np.arange(2 * d) // 2] = np.tile([1.0, -1.0], d)
        b[: 2 * d] = [bound for j in num for bound in (box[j][1], -box[j][0])]
        sign = np.array([1.0 if side is Side.LEFT else -1.0 for _, side in hs])
        a[2 * d :] = sign[:, None] * np.reshape([h.coefficients for h, _ in hs], (-1, d))
        b[2 * d :] = sign * [h.offset for h, _ in hs]
        return a, b

    def split(self, split: Split) -> tuple[Optional["Region"], Optional["Region"]]:
        """The two sides of a split within this region, each None when empty.

        One None means the region lies in the other side, which is then the
        region itself. Each side is decided under the closed relaxation, so
        a split that only touches the region still splits it. Without
        half-spaces a numeric or categorical split runs no LP; otherwise the
        side that holds the witness is nonempty for free and the other side
        runs one feasibility LP.
        """
        if isinstance(split, Hyperplane):
            w = self._witness()
            s = np.nan if w is None else float(np.asarray(split.coefficients) @ w)
            left, right = (
                Region(self.schema, self.constraints, self.half_spaces + ((split, side),), w)
                for side in (Side.LEFT, Side.RIGHT)
            )
            return self._checked(left, s <= split.offset), self._checked(right, s >= split.offset)
        j, schema = split.feature, self.schema
        numeric = isinstance(split, NumericThreshold)
        if not (0 <= j < schema.n_features and isinstance(
                schema.features[j], NumericFeature if numeric else CategoricalFeature)):
            raise SchemaError(f"{'numeric' if numeric else 'categorical'} split on feature index {j}")
        cut = split.threshold if numeric else split.left_levels
        left, right, both = box_sides(self.constraints, j, cut)
        if not both:
            # the side that is not empty keeps the whole box
            return (self, None) if left[j] == self.constraints[j] else (None, self)
        left, right = (Region(schema, box, self.half_spaces, self.witness) for box in (left, right))
        if not (numeric and self.half_spaces):
            return left, right
        # a box that is still nonempty can leave the half-spaces no room
        # (categorical levels stay outside the LP, so only here)
        w = self.witness
        wj = np.nan if w is None else w[schema.numeric_indices.index(j)]
        return self._checked(left, wj <= cut), self._checked(right, wj >= cut)

    def _witness(self) -> Optional[np.ndarray]:
        if self.half_spaces:
            return self.witness
        return np.array([(self.constraints[j][0] + self.constraints[j][1]) / 2
                         for j in self.schema.numeric_indices])

    def _checked(self, side: "Region", inside: bool) -> Optional["Region"]:
        """A side built with this region's witness, kept as it is when the
        witness lies inside it and otherwise decided by one feasibility LP,
        whose point becomes the side's witness."""
        if inside:
            return side
        point = simplex.feasible(*side.lp_rows())
        return None if point is None else replace(side, witness=point)


# ---------------------------------------------------------------------------
# Leaf values


@dataclass(frozen=True)
class Scalar:
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class ClassProbs:
    """A vector of class probabilities aligned to the schema's class labels."""

    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))


@dataclass(frozen=True)
class TupleValue:
    """One value per source tree, produced by tree combination."""

    values: tuple
    source_ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "source_ids", tuple(self.source_ids))


LeafValue = Union[Scalar, ClassProbs, TupleValue]

_KIND_NAMES = {Scalar: "scalar", ClassProbs: "class_probs", TupleValue: "tuple"}


def kinds_and_lengths(values: Sequence[LeafValue]) -> tuple[list[str], list[int]]:
    """The distinct kinds of some leaf values and the distinct lengths of
    their class-probability vectors, each sorted.

    Leaves that are meant to go together have one kind, and, when the schema
    has no class labels to fix each length, at most one length.
    """
    return (sorted({_KIND_NAMES[type(v)] for v in values}),
            sorted({len(v.probs) for v in values if isinstance(v, ClassProbs)}))


def _kind_of(values: Sequence[LeafValue]) -> str:
    kinds, lengths = kinds_and_lengths(values)
    if len(kinds) != 1:
        raise LeafKindError(f"mixed leaf kinds {kinds}")
    if len(lengths) > 1:
        raise LeafKindError(f"class-probability leaves mix lengths {lengths}")
    return kinds[0]


def _entry(kind: str, row: list) -> LeafValue:
    return Scalar(row[0]) if kind == "scalar" else ClassProbs(row)


@dataclass(frozen=True, eq=False)
class Leaves:
    """The values of a tree's leaves, one row per leaf.

    ``values`` is a (leaves, width) float matrix: width 1 for scalar leaves,
    one column per class for class-probability leaves. A tuple leaf holds one
    column block per source, each of kind ``entry``, and ``sources`` is the
    (leaves, sources) matrix of their source ids. Leaves that cannot share
    one matrix (mixed kinds or lengths, nested tuples), which ``validate``
    names, keep their value objects in ``ragged`` and have no kind.
    """

    kind: Optional[str]
    entry: Optional[str]
    values: np.ndarray
    sources: Optional[np.ndarray] = None
    ragged: Optional[tuple] = None

    def blocks(self) -> np.ndarray:
        """``values`` as a (leaves, sources, entry width) array."""
        m = 1 if self.sources is None else self.sources.shape[1]
        return self.values.reshape(len(self.values), m, self.values.shape[1] // m)

    def value(self, row: int) -> Optional[LeafValue]:
        """The value object of one row; None for row -1."""
        if row < 0:
            return None
        if self.ragged is not None:
            return self.ragged[row]
        if self.sources is None:
            return _entry(self.kind, self.values[row].tolist())
        return TupleValue(tuple(_entry(self.entry, b) for b in self.blocks()[row].tolist()),
                          tuple(self.sources[row].tolist()))


def _document(value: LeafValue) -> dict:
    """A leaf value in the form a tree file gives it."""
    if isinstance(value, Scalar):
        return {"type": "scalar", "v": value.value}
    if isinstance(value, ClassProbs):
        return {"type": "class_probs", "probs": value.probs}
    return {"type": "tuple", "values": [_document(e) for e in value.values],
            "source_ids": value.source_ids}


def pack_documents(docs: Sequence[dict]) -> Optional[Leaves]:
    """The leaf table of leaf values in the form a tree file gives them, one
    row each, in order; None unless they share one kind and shape (one
    class-probability length, one tuple length, one entry kind that is not
    a tuple) and every number has its field's type: a float for a value, an
    int for a source id."""
    try:
        (kind,) = {d["type"] for d in docs}
        entries, sources = docs, None
        if kind == "tuple":
            (m,) = {len(d["values"]) for d in docs} | {len(d["source_ids"]) for d in docs}
            flat = [i for d in docs for i in d["source_ids"]]
            if not set(map(type, flat)) <= {int}:
                return None
            sources = np.array(flat, dtype=np.int64).reshape(len(docs), m)
            entries = [e for d in docs for e in d["values"]]
        (entry,) = {d["type"] for d in entries}
        if entry == "scalar":
            flat = [d["v"] for d in entries]
        elif entry == "class_probs":
            (_width,) = {len(d["probs"]) for d in entries}
            flat = [p for d in entries for p in d["probs"]]
        else:
            return None
        if not set(map(type, flat)) <= {float}:
            return None
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    values = np.array(flat, dtype=float)
    return Leaves(kind, entry, values.reshape(len(docs), values.size // len(docs)), sources)


def _pack(values: Sequence[LeafValue]) -> Leaves:
    """The leaf table of some leaf values, one row each, in order; values
    that no matrix can hold keep their objects."""
    packed = pack_documents([_document(v) for v in values])
    if packed is None:
        return Leaves(None, None, np.zeros((len(values), 0)), None, tuple(values))
    return packed


def leaf_kind_of(tree: "Tree") -> str:
    """The single leaf-value kind of a tree; raises when leaves mix kinds."""
    leaves = tree.leaves
    return leaves.kind if leaves.ragged is None else _kind_of(leaves.ragged)


# ---------------------------------------------------------------------------
# Trees

# split kinds in Tree.kind; 0 is a node without a split
NUMERIC, CATEGORICAL, HYPERPLANE = 1, 2, 3
_KIND_CODES = {NumericThreshold: NUMERIC, CategoricalSubset: CATEGORICAL, Hyperplane: HYPERPLANE}


@dataclass(frozen=True, eq=False)
class Tree:
    """A recursive partition function, stored as parallel node arrays in
    ascending node-id order, like scikit-learn's ``tree_``.

    ``ids`` are the node ids; ``left``, ``right`` and ``parent`` hold node
    ids, -1 for none. ``kind`` is each node's split kind (0 for none, else
    :data:`NUMERIC`, :data:`CATEGORICAL` or :data:`HYPERPLANE`). A numeric
    split is ``feature`` and ``threshold``; ``side`` maps the position of
    every categorical or hyperplane node to its split, and ``feature`` holds
    a categorical split's feature too. ``leaf`` is each node's row in
    ``leaves``, -1 for a node without a value.
    """

    schema: FeatureSchema
    root: Optional[int]
    ids: np.ndarray
    left: np.ndarray
    right: np.ndarray
    parent: np.ndarray
    kind: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    side: dict
    leaf: np.ndarray
    leaves: Leaves
    # positions of the root and of every node's children, -1 where the
    # node is absent or not in the tree
    root_pos: int = field(init=False, repr=False)
    left_pos: np.ndarray = field(init=False, repr=False)
    right_pos: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        at = len(self.ids) if self.root is None else int(np.searchsorted(self.ids, self.root))
        found = at < len(self.ids) and self.ids[at] == self.root
        object.__setattr__(self, "root_pos", at if found else -1)
        object.__setattr__(self, "left_pos", _positions(self.ids, self.left))
        object.__setattr__(self, "right_pos", _positions(self.ids, self.right))

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    @property
    def n_leaves(self) -> int:
        """The number of nodes without a left child."""
        return int(np.count_nonzero(self.left < 0))

    def splits(self) -> Sequence[Optional[Split]]:
        """The split object of every node, None for a node without one."""
        return [NumericThreshold(f, t) if k == NUMERIC else self.side.get(i)
                for i, (k, f, t) in enumerate(zip(self.kind.tolist(), self.feature.tolist(),
                                                  self.threshold.tolist()))]


def _positions(ids: np.ndarray, children: np.ndarray) -> np.ndarray:
    """The positions in the ascending node ids ``ids`` of some child ids
    (-1 for none), -1 for ids not among them."""
    n = len(ids)
    if n and ids[0] == 0 and ids[-1] == n - 1:
        # n distinct ascending ids from 0 to n - 1: each id is its position
        return np.where((children >= 0) & (children < n), children, -1)
    pos = np.minimum(np.searchsorted(ids, children), max(n - 1, 0))
    return np.where((ids[pos] == children) if n else False, pos, -1)


def _split_arrays(splits: Sequence[Optional[Split]]):
    """Kind, feature and threshold arrays and the side table of some splits."""
    return (np.array([_KIND_CODES.get(type(s), 0) for s in splits], dtype=np.int8),
            np.array([getattr(s, "feature", -1) for s in splits], dtype=np.int64),
            np.array([getattr(s, "threshold", np.nan) for s in splits], dtype=float),
            {i: s for i, s in enumerate(splits) if isinstance(s, (CategoricalSubset, Hyperplane))})


def _assemble(schema, root, ids, left, right, kind, feature, threshold, side, leaf,
              leaves) -> Tree:
    """A tree from per-node lists in any order, e.g. a file's: sorted by
    id, with each node's parent the last node in the given order that names
    it as a child. Ids must be distinct and non-negative."""
    as_int = partial(np.array, dtype=np.int64)
    columns = [as_int(ids), as_int(left), as_int(right), np.array(kind, dtype=np.int8),
               as_int(feature), np.array(threshold, dtype=float), as_int(leaf)]
    ids = columns[0]
    # every child link in the given order, left before right, and its node
    links, namer = np.empty(2 * len(ids), dtype=np.int64), np.repeat(ids, 2)
    links[0::2], links[1::2] = columns[1], columns[2]
    if not (ids[1:] > ids[:-1]).all():
        order = np.argsort(ids)
        columns = [c[order] for c in columns]
        side = {r: side[k] for r, k in enumerate(order.tolist()) if k in side}
    ids, left, right, kind, feature, threshold, leaf = columns
    # a stable sort keeps the links to each child in the given order
    pos = _positions(ids, links)
    by = np.argsort(pos, kind="stable")
    pos, namer = pos[by], namer[by]
    last = pos >= 0
    last[:-1] &= pos[1:] != pos[:-1]
    parent = np.full(len(ids), -1, dtype=np.int64)
    parent[pos[last]] = namer[last]
    return Tree(schema, root, ids, left, right, parent, kind, feature, threshold, side, leaf,
                leaves)


def check_node_budget(n_nodes: int, max_nodes: Optional[int]) -> None:
    """Raise :class:`~treealgebra.errors.BudgetExceededError` when a tree of
    ``n_nodes`` nodes exceeds the cap ``max_nodes`` (None for none). Trees
    grow one node at a time, so the message names the size reached at the
    cap: ``max_nodes``, or 0 for a negative cap."""
    if max_nodes is not None and n_nodes > max_nodes:
        raise BudgetExceededError(f"node budget exceeded: combined tree already has "
                                  f"{max(max_nodes, 0)} nodes (max_nodes={max_nodes})")


class TreeBuilder:
    """Mutable arena used while growing a tree; ``build`` freezes it.

    ``max_nodes`` caps the arena size; exceeding it raises
    :class:`~treealgebra.errors.BudgetExceededError` with the partial size.
    """

    def __init__(self, schema: FeatureSchema, max_nodes: Optional[int] = None):
        self.schema = schema
        self.max_nodes = max_nodes
        self._parent: list[int] = []
        self._split: list[Optional[Split]] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._leaf: list[int] = []
        self._values: list = []
        self.root: Optional[int] = None

    @property
    def n_nodes(self) -> int:
        return len(self._parent)

    def _new(self, parent: int) -> int:
        check_node_budget(self.n_nodes + 1, self.max_nodes)
        self._parent.append(parent)
        self._split.append(None)
        self._left.append(-1)
        self._right.append(-1)
        self._leaf.append(-1)
        return self.n_nodes - 1

    def add_root(self) -> int:
        if self.root is not None:
            raise ValueError("root already created")
        self.root = self._new(-1)
        return self.root

    def split_node(self, nid: int, split: Split) -> tuple[int, int]:
        """Turn a leaf of the arena into an internal node; returns (left, right)."""
        if self._split[nid] is not None or self._leaf[nid] >= 0:
            raise ValueError(f"node {nid} already finished")
        self._split[nid] = split
        left = self._new(nid)
        right = self._new(nid)
        self._left[nid] = left
        self._right[nid] = right
        return left, right

    def set_value(self, nid: int, value) -> None:
        """Make ``nid`` a leaf holding ``value``: a leaf value, or whatever
        the ``pack`` given to :meth:`build` turns into a row."""
        if self._split[nid] is not None:
            raise ValueError(f"node {nid} is internal")
        if self._leaf[nid] >= 0:
            self._values[self._leaf[nid]] = value
        else:
            self._leaf[nid] = len(self._values)
            self._values.append(value)

    def build(self, pack: Optional[Callable[[list], Leaves]] = None) -> Tree:
        """Freeze the arena into arrays. ``pack`` turns the values, one per
        leaf in the order their leaves were first set, into the leaf table;
        by default they are leaf values."""
        as_array = partial(np.array, dtype=np.int64)
        return Tree(self.schema, self.root, np.arange(self.n_nodes), as_array(self._left),
                    as_array(self._right), as_array(self._parent), *_split_arrays(self._split),
                    as_array(self._leaf), (pack or _pack)(self._values))


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(tree: Tree, point: Sequence) -> LeafValue:
    """Evaluate the tree function at a raw point (numbers / level names)."""
    x = tree.schema.encode_point(point)
    return tree.leaves.value(int(tree.leaf[_route_batch(tree, np.array([x]))[0]]))


def _route_batch(tree: Tree, X: np.ndarray) -> np.ndarray:
    """The position of the leaf that every row of an encoded (n, p) matrix
    reaches."""
    left, right = (a.tolist() for a in (tree.left_pos, tree.right_pos))
    splits = tree.splits()
    out = np.empty(len(X), dtype=np.int64)
    stack = [(tree.root_pos, np.arange(len(X)))]
    while stack:
        i, idx = stack.pop()
        if idx.size == 0:
            continue
        if left[i] < 0:
            out[idx] = i
            continue
        go = _goes_left_batch(splits[i], X, tree.schema, idx)
        stack.append((right[i], idx[~go]))
        stack.append((left[i], idx[go]))
    return out


def route_batch(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf ids for every row of an encoded (n, p) matrix."""
    return tree.ids[_route_batch(tree, X)]


def evaluate_batch(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Vectorized evaluation for scalar or class-probability trees.

    Returns shape (n,) for scalar leaves and (n, n_classes) for
    class-probability leaves.
    """
    kind = leaf_kind_of(tree)
    if kind not in ("scalar", "class_probs"):
        raise LeafKindError("evaluate_batch supports scalar and class_probs leaves")
    table = tree.leaves.values[:, 0] if kind == "scalar" else tree.leaves.values
    return table[tree.leaf[_route_batch(tree, X)]]


# ---------------------------------------------------------------------------
# Stacked node tables

_WORD = (1 << 64) - 1


class NodeTable:
    """The nodes of some trees on one schema in one table, each tree's
    positions after the previous tree's (from ``starts``): children as
    table positions, each tree's own leaf rows, and splits, with ``side``
    holding split objects by position.

    A box is a row of ``2 * slots`` floats, two blocks of one slot per
    numeric feature plus a spare slot: the bound ``g`` below which a
    threshold leaves the left side empty, and the upper bound. A numeric
    split ``x_j <= t`` meets the box's left side when ``t > g`` and its right
    side when ``t < hi``. A lower bound is closed only where no split has
    cut the domain from below, and then ``g`` is the float just below it;
    else it is open and equals ``g``. Every other node reads and writes the
    spare slot with its NaN threshold, which meets no side."""

    def __init__(self, trees: Sequence[Tree]):
        self.trees, schema = trees, trees[0].schema
        sizes = [t.n_nodes for t in trees]
        self.starts = list(accumulate(sizes[:-1], initial=0))
        stacked = lambda name: np.concatenate([getattr(t, name) for t in trees])
        offset = np.repeat(self.starts, sizes)
        self.left, self.right = (np.where(p >= 0, p + offset, -1)
                                 for p in (stacked("left_pos"), stacked("right_pos")))
        self.leaf, self.kind, self.feature, self.threshold = map(
            stacked, ("leaf", "kind", "feature", "threshold"))
        self.side = {s + i: split for s, t in zip(self.starts, trees)
                     for i, split in t.side.items()}
        numeric = schema.numeric_indices
        self.slots = len(numeric) + 1
        slot_of = np.full(schema.n_features + 1, len(numeric))
        slot_of[list(numeric)] = np.arange(len(numeric))
        # a feature out of range reads the spare slot, as -1 does
        self.slot = np.where(self.kind == NUMERIC, slot_of[np.minimum(
            np.maximum(self.feature, -1), schema.n_features)], len(numeric))
        self.offsets, n_levels = {}, 0
        for j, f in enumerate(schema.features):
            if isinstance(f, CategoricalFeature):
                self.offsets[j] = n_levels
                n_levels += len(f.levels)
        self.words = -(-n_levels // 64)
        kinds = np.bincount(self.kind, minlength=HYPERPLANE + 1)
        self.hyperplanes, self.categorical = bool(kinds[HYPERPLANE]), bool(kinds[CATEGORICAL])
        self.proper = np.zeros(len(self.kind), dtype=bool)
        if self.categorical:
            self._level_masks(schema)

    def _level_masks(self, schema) -> None:
        """``on_sides``: the levels each categorical split sends left and
        right, as bits of two level masks of ``words`` 64-bit words;
        ``proper``: whether a split sends some, not all, levels left."""
        pos = (self.kind == CATEGORICAL).nonzero()[0]
        masks, proper, cache = [], [], {}
        for split in self.splits(pos):
            j, levels = key = split.feature, split.left_levels
            if key not in cache:
                n = len(schema.features[j].levels) if j in self.offsets else 0
                bits = sum(1 << (self.offsets[j] + x) for x in range(n) if x in levels)
                every = ((1 << n) - 1) << self.offsets.get(j, 0)
                cache[key] = ([(b >> (64 * k)) & _WORD for b in (bits, every & ~bits)
                               for k in range(self.words)],
                              n > 0 and bool(levels) and levels < set(range(n)))
            masks.append(cache[key][0])
            proper.append(cache[key][1])
        self.on_sides = np.zeros((len(self.kind), 2 * self.words), dtype=np.uint64)
        self.on_sides[pos] = np.array(masks, dtype=np.uint64).reshape(len(pos), 2 * self.words)
        self.proper[pos] = proper

    def full_box(self) -> np.ndarray:
        """The box of the whole domain, as a matrix of one row."""
        schema = self.trees[0].schema
        low, high = ([getattr(schema.features[j], a) for j in schema.numeric_indices]
                     for a in ("low", "high"))
        return np.array([np.nextafter(low, -np.inf).tolist() + [0.0] + high + [0.0]])

    def meets(self, at: np.ndarray, box: np.ndarray, masks: Optional[np.ndarray],
              per_row: int) -> tuple[np.ndarray, np.ndarray]:
        """Which sides of the splits at positions ``at`` their boxes meet;
        the rows of ``box`` and ``masks`` (None: every level) each serve
        ``per_row`` positions in turn."""
        cell = np.arange(len(at)) // per_row * (2 * self.slots) + self.slot[at]
        t, flat = self.threshold[at], box.ravel()
        on_left, on_right = t > flat[cell], t < flat[cell + self.slots]
        if masks is not None:
            masks = np.repeat(masks, per_row, axis=0) if per_row > 1 else masks
            hits = np.concatenate((masks, masks), axis=1) & self.on_sides[at]
            hits = hits.reshape(len(at), 2, self.words).any(axis=2)
            on_left |= hits[:, 0]
            on_right |= hits[:, 1]
        return on_left, on_right

    def narrow(self, src: np.ndarray, box: np.ndarray, masks: Optional[np.ndarray],
               rows: np.ndarray, left: bool) -> None:
        """Narrow rows ``rows`` of ``box`` and ``masks`` to the left (or
        right) sides of the splits at positions ``src``."""
        # x_j <= t leaves the left side's box below t and the right one open above t
        j, t = self.slot[src], self.threshold[src]
        box[rows, self.slots + j if left else j] = t
        if masks is not None:
            # a side keeps every level but those the split sends the other way
            other = self.on_sides[src, self.words:] if left else self.on_sides[src, :self.words]
            masks[rows] &= ~other

    def region(self, box: np.ndarray, mask: Optional[np.ndarray]) -> Region:
        """The :class:`Region` of a box and its level mask (None: every
        level)."""
        schema = self.trees[0].schema
        g, hi = box.reshape(2, self.slots).tolist()
        bits = -1 if mask is None else sum(w << (64 * k) for k, w in enumerate(mask.tolist()))
        cons = [frozenset(x for x in range(len(f.levels)) if bits >> (self.offsets[j] + x) & 1)
                if j in self.offsets else None for j, f in enumerate(schema.features)]
        for k, j in enumerate(schema.numeric_indices):
            low = schema.features[j].low
            closed = g[k] < low
            cons[j] = (low if closed else g[k], hi[k], closed)
        return Region(schema, tuple(cons))

    @cached_property
    def lists(self) -> tuple[list, list, list, list]:
        """The child positions, leaf rows and split objects as lists, for
        one row at a time."""
        return (self.left.tolist(), self.right.tolist(), self.leaf.tolist(),
                [s for t in self.trees for s in t.splits()])

    def splits(self, pos: np.ndarray) -> list:
        """The split objects of some categorical or hyperplane nodes."""
        return list(map(self.side.__getitem__, pos.tolist()))


# ---------------------------------------------------------------------------
# Validation

# A rule of validate over the rows of a leaf table: a mask of the rows it
# flags, and the messages of a flagged row
Rule = tuple[np.ndarray, Callable[[int], list[str]]]


def _value_rules(leaves: Leaves, schema: FeatureSchema) -> list[Rule]:
    """The rules of the rows of a leaf table that is not ragged, in order."""
    rules = []
    if leaves.sources is not None:
        s = np.sort(leaves.sources, axis=1)
        rules.append(((s[:, 1:] == s[:, :-1]).any(axis=1),
                      lambda r: ["duplicate source ids in tuple value"]))
    if leaves.entry is None:
        return rules
    labels, blocks = schema.class_labels, leaves.blocks()
    for b in range(blocks.shape[1]):  # each source's (leaves, width) block
        V = blocks[:, b]
        if leaves.entry == "scalar":
            rules.append((~np.isfinite(V[:, 0]), lambda r: ["leaf value is not finite"]))
            continue
        total = np.zeros(len(V))
        with np.errstate(invalid="ignore", over="ignore"):
            for c in range(V.shape[1]):  # left to right, as sum() adds
                total = total + V[:, c]
        rules += [(~np.isfinite(V).all(axis=1), lambda r: ["class probability is not finite"]),
                  ((V < 0).any(axis=1), lambda r: ["negative class probability"]),
                  (abs(total - 1.0) > 1e-9,
                   lambda r, total=total: [f"class probabilities sum {total[r]:.9g} != 1"])]
        if labels is not None and V.shape[1] != len(labels):
            text = f"{V.shape[1]} probabilities for {len(labels)} class labels"
            rules.append((np.ones(len(V), dtype=bool), lambda r, text=text: [text]))
    return rules


def value_kinds(tree: Tree, nodes: np.ndarray) -> tuple[list[str], list[int], list]:
    """:func:`kinds_and_lengths` of the values of some nodes (a mask), and
    those values when the leaves are ragged (else an empty list)."""
    rows = tree.leaf[nodes & (tree.leaf >= 0)]
    leaves = tree.leaves
    if leaves.ragged is not None:
        values = [leaves.ragged[r] for r in rows.tolist()]
        return (*kinds_and_lengths(values), values)
    if not rows.size:
        return [], [], []
    return [leaves.kind], [leaves.values.shape[1]] if leaves.kind == "class_probs" else [], []


def _cut_reach(nodes: NodeTable, roots: np.ndarray) -> np.ndarray:
    """The positions reached from ``roots`` through splits that leave
    neither side of their node's box empty: one frontier of boxes over all
    the trees. Every node of those trees must be the child of at most one
    split, on one side, so that no node is reached twice."""
    reached = np.zeros(len(nodes.kind), dtype=bool)
    pos = roots
    box = np.repeat(nodes.full_box(), len(pos), axis=0)
    masks = np.full((len(pos), nodes.words), _WORD, dtype=np.uint64) if nodes.categorical else None
    while pos.size:
        reached[pos] = True
        rows = (nodes.left[pos] >= 0).nonzero()[0]
        rows = rows[np.logical_and(*nodes.meets(pos[rows], box[rows],
                                                None if masks is None else masks[rows], 1))]
        pos, k = pos[rows], len(rows)
        rows = np.concatenate((rows, rows))
        box, masks = box[rows], None if masks is None else masks[rows]
        nodes.narrow(pos, box, masks, np.arange(k), True)
        nodes.narrow(pos, box, masks, np.arange(k, 2 * k), False)
        pos = np.concatenate((nodes.left[pos], nodes.right[pos]))
    return reached


def _regions_cut(tree: Tree) -> bool:
    """Whether the root of a tree with hyperplane splits reaches every node
    through splits that leave neither side of their node's region empty,
    each decided by one :meth:`Region.split`, depth first; the tree must be
    one as for :func:`_cut_reach`."""
    left, right, splits = tree.left_pos.tolist(), tree.right_pos.tolist(), tree.splits()
    stack, reached = [(tree.root_pos, Region.full(tree.schema))], 0
    while stack:
        i, region = stack.pop()
        reached += 1
        if left[i] >= 0:
            sides = region.split(splits[i])
            if None in sides:
                return False
            stack += zip((left[i], right[i]), sides)
    return reached == tree.n_nodes


def check_trees(trees: Sequence[Tree]) -> list[list[str]]:
    """The violations of each of some trees on one schema, as :func:`validate`
    gives them.

    The trees are decided together over one :class:`NodeTable` of all
    their nodes: each node rule is a mask, and the splits of the trees
    without hyperplanes one frontier of boxes, which also finds the nodes
    the root reaches. A tree that may be invalid is then checked alone, one
    node at a time (:func:`treealgebra.oracle.validate_reference`), and that
    check writes its messages; a tree found valid never loads the oracle.
    """
    if not trees:
        return []
    nodes, schema = NodeTable(trees), trees[0].schema
    tree_of = np.repeat(np.arange(len(trees)), [t.n_nodes for t in trees])
    ids, left, right, parent = (np.concatenate([getattr(t, a) for t in trees])
                                for a in ("ids", "left", "right", "parent"))
    kind, leaf, at_left, at_right = nodes.kind, nodes.leaf, nodes.left, nodes.right
    # two distinct children that name the node as their parent; a child
    # named on both sides (a twin) is left to the walk, which places it once
    linked = ((at_left >= 0) & (at_right >= 0) & (at_left != at_right)
              & (parent[at_left] == ids) & (parent[at_right] == ids))
    # a numeric split reads a spare slot unless its feature is numeric
    faulty = np.where(kind == NUMERIC, (nodes.slot == nodes.slots - 1) | ~np.isfinite(nodes.threshold),
                      (kind == CATEGORICAL) & ~nodes.proper)
    at = (kind == HYPERPLANE).nonzero()[0]
    faulty[at] = [len(h.coefficients) != len(schema.numeric_indices)
                  or not all(map(isfinite, h.coefficients + (h.offset,))) for h in nodes.splits(at)]
    sound = np.where(linked, (kind > 0) & (leaf < 0) & ~faulty,
                     (left < 0) & (right < 0) & (leaf >= 0) & (kind == 0))
    root_pos = np.array([t.root_pos for t in trees])
    live, roots = root_pos >= 0, np.array(nodes.starts) + root_pos
    is_root = np.zeros(len(kind), dtype=bool)
    is_root[roots[live]] = True
    # a ragged leaf table holds values of more than one kind or shape
    suspect = ~live | [t.leaves.ragged is not None
                       or any(mask.any() for mask, _ in _value_rules(t.leaves, schema))
                       for t in trees]
    suspect[tree_of[~sound | ((parent < 0) != is_root)]] = True

    oblique = np.zeros(len(trees), dtype=bool)
    oblique[tree_of[kind == HYPERPLANE]] = True
    boxed = ~suspect & ~oblique
    suspect[tree_of[~_cut_reach(nodes, roots[boxed]) & boxed[tree_of]]] = True
    for t in (~suspect & oblique).nonzero()[0].tolist():
        suspect[t] = not _regions_cut(trees[t])
    if not suspect.any():
        return [[] for _ in trees]
    from .oracle import validate_reference
    return [validate_reference(t) if s else [] for t, s in zip(trees, suspect.tolist())]


def validate(tree: Tree) -> list[str]:
    """Check every tree invariant; an empty list means the tree is valid.

    In order: the parentless nodes; each node's faults, in node order; the
    nodes the root does not reach; leaves that mix kinds; and last the
    reachable well-formed splits that leave a side of their region empty,
    depth first, right before left. This is :func:`check_trees` of the
    tree alone: the messages of a tree it cannot show valid are written by
    :func:`treealgebra.oracle.validate_reference`.
    """
    return check_trees([tree])[0]

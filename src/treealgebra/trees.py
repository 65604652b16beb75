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
    "Interval",
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
        out = []
        for f, xj in zip(self.features, x):
            if isinstance(f, NumericFeature):
                out.append(float(xj))
            else:
                out.append(f.levels[int(xj)])
        return tuple(out)


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


@dataclass(frozen=True)
class Interval:
    """A nonempty interval with explicit closed/open endpoint flags."""

    low: float
    high: float
    low_closed: bool
    high_closed: bool

    def __post_init__(self):
        if self.low > self.high or (
            self.low == self.high and not (self.low_closed and self.high_closed)
        ):
            raise DomainError(f"empty interval {self}")

    @property
    def length(self) -> float:
        return self.high - self.low

    def clip_le(self, t: float) -> Optional["Interval"]:
        """Intersect with ``{x <= t}``; None when empty."""
        if t >= self.high:
            return self
        if t < self.low or (t == self.low and not self.low_closed):
            return None
        return Interval(self.low, t, self.low_closed, True)

    def clip_gt(self, t: float) -> Optional["Interval"]:
        """Intersect with ``{x > t}``; None when empty."""
        if t < self.low or (t == self.low and not self.low_closed):
            return self
        if t >= self.high:
            return None
        return Interval(t, self.high, False, self.high_closed)


Constraint = Union[Interval, frozenset]


@dataclass(frozen=True)
class Region:
    """Axis-aligned constraints per feature plus optional half-space constraints.

    ``constraints[j]`` is an :class:`Interval` for numeric features and a
    ``frozenset`` of admissible level indices for categorical features.
    Half-spaces record hyperplane splits applied along a path: side LEFT
    means ``c'x <= b`` and side RIGHT means ``c'x > b``.

    Regions are built by :meth:`full` and :meth:`split`, which keep them
    nonempty by construction. Emptiness under half-spaces is decided by a
    feasibility LP that relaxes strict inequalities to closed ones, so a
    region touching a hyperplane in a measure-zero set counts as nonempty.

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
    constraints: tuple[Constraint, ...]
    half_spaces: tuple[tuple[Hyperplane, Side], ...] = ()
    witness: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    @classmethod
    def full(cls, schema: FeatureSchema) -> "Region":
        """The root domain: the full box times all levels."""
        cons = tuple(
            Interval(f.low, f.high, True, True)
            if isinstance(f, NumericFeature)
            else frozenset(range(len(f.levels)))
            for f in schema.features
        )
        return cls(schema, cons)

    def lp_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Closed-inequality rows ``A x <= b`` over the numeric subspace.

        Interval bounds and half-spaces are emitted with strict parts relaxed
        to closed, which is what the LP machinery expects.
        """
        num = self.schema.numeric_indices
        pos = {j: k for k, j in enumerate(num)}
        rows, rhs = [], []
        for j in num:
            iv = self.constraints[j]
            row = np.zeros(len(num))
            row[pos[j]] = 1.0
            rows.append(row.copy())
            rhs.append(iv.high)
            row[pos[j]] = -1.0
            rows.append(row)
            rhs.append(-iv.low)
        for h, side in self.half_spaces:
            c = np.asarray(h.coefficients, dtype=float)
            if side is Side.LEFT:
                rows.append(c)
                rhs.append(h.offset)
            else:
                rows.append(-c)
                rhs.append(-h.offset)
        return np.array(rows), np.array(rhs)

    def split(self, split: Split) -> tuple[Optional["Region"], Optional["Region"]]:
        """The two sides of a split within this region, each None when empty.

        One None means the region lies in the other side; a numeric or
        categorical side that leaves the region unchanged is the region
        itself. Each side is decided under the closed relaxation, so a split
        that only touches the region still splits it. Without half-spaces a
        numeric or categorical split runs no LP; otherwise the side that holds
        the witness is nonempty for free and the other side runs one
        feasibility LP.
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
        if isinstance(split, CategoricalSubset):
            if not (0 <= j < schema.n_features
                    and isinstance(schema.features[j], CategoricalFeature)):
                raise SchemaError(f"categorical split on feature index {j}")
            levels = self.constraints[j]
            left = levels & split.left_levels
            return self._narrowed(j, left, levels), self._narrowed(j, levels - left, levels)
        if not (0 <= j < schema.n_features and isinstance(schema.features[j], NumericFeature)):
            raise SchemaError(f"numeric split on feature index {j}")
        iv, t = self.constraints[j], split.threshold
        left, right = self._narrowed(j, iv.clip_le(t), iv), self._narrowed(j, iv.clip_gt(t), iv)
        if not self.half_spaces:
            return left, right
        # a box that is still nonempty can leave the half-spaces no room
        # (categorical levels stay outside the LP, so only here)
        w = self.witness
        wj = np.nan if w is None else w[schema.numeric_indices.index(j)]
        return self._checked(left, wj <= t), self._checked(right, wj >= t)

    def _witness(self) -> Optional[np.ndarray]:
        if self.half_spaces:
            return self.witness
        return np.array([(self.constraints[j].low + self.constraints[j].high) / 2
                         for j in self.schema.numeric_indices])

    def _narrowed(self, j: int, new: Optional[Constraint], old: Constraint) -> Optional["Region"]:
        """This region with constraint ``j`` narrowed from ``old`` to ``new``,
        or None when ``new`` is empty. It keeps the witness, which
        :meth:`_checked` confirms where a narrowed box meets half-spaces."""
        if not new:
            return None
        if new is old:
            return self
        cons = self.constraints[:j] + (new,) + self.constraints[j + 1 :]
        return Region(self.schema, cons, self.half_spaces, self.witness)

    def _checked(self, side: Optional["Region"], inside: bool) -> Optional["Region"]:
        """A side built with this region's witness, kept as it is when the
        witness lies inside it and otherwise decided by one feasibility LP,
        whose point becomes the side's witness."""
        if side is None or side is self or inside:
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
    parent_of = {}
    for i, l, r in zip(ids, left, right):
        parent_of[l] = parent_of[r] = i
    columns = [ids, left, right, kind, feature, threshold, leaf]
    if ids != sorted(ids):
        order = sorted(range(len(ids)), key=ids.__getitem__)
        columns = [[c[k] for k in order] for c in columns]
        side = {r: side[k] for r, k in enumerate(order) if k in side}
    ids, left, right, kind, feature, threshold, leaf = columns
    as_int = partial(np.array, dtype=np.int64)
    return Tree(schema, root, as_int(ids), as_int(left), as_int(right),
                as_int([parent_of.get(i, -1) for i in ids]), np.array(kind, dtype=np.int8),
                as_int(feature), np.array(threshold, dtype=float), side, as_int(leaf), leaves)


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
# Boxes


def full_box(schema: FeatureSchema) -> tuple:
    """The whole domain as a box: per numeric feature its bounds and whether
    the lower one is closed (the upper one always is), per categorical
    feature the set of its level indices."""
    return tuple((f.low, f.high, True) if isinstance(f, NumericFeature)
                 else frozenset(range(len(f.levels))) for f in schema.features)


def box_columns(tree: Tree) -> tuple:
    """What :func:`box_sides` reads of a tree: its kind, feature and
    threshold lists and its side table."""
    return (*(a.tolist() for a in (tree.kind, tree.feature, tree.threshold)), tree.side)


def box_sides(columns: tuple, i: int, box: tuple) -> tuple:
    """The boxes on the two sides of the numeric or categorical split of the
    node at position ``i`` (of a tree's :func:`box_columns`) within ``box``,
    and whether both sides hold a point. A side without points has
    low > high, or no levels."""
    kind, feature, threshold, side = columns
    j = feature[i]
    if kind[i] == NUMERIC:
        lo, hi, closed = box[j]
        t = threshold[i]
        left, right = (lo, t if t < hi else hi, closed), (t if t > lo else lo, hi, False)
        cut = (lo < t or (t == lo and closed)) and t < hi
    else:
        levels = side[i].left_levels
        left, right = box[j] & levels, box[j] - levels
        cut = bool(left and right)
    return box[:j] + (left,) + box[j + 1 :], box[:j] + (right,) + box[j + 1 :], cut


# ---------------------------------------------------------------------------
# Validation

# A rule of validate over the rows of a leaf table: a mask of the rows it
# flags, and the messages of a flagged row
Rule = tuple[np.ndarray, Callable[[int], list[str]]]


def _split_faults(kind: int, j: int, t: float, split: Optional[Split],
                  schema: FeatureSchema) -> list[str]:
    """What is wrong with a split on a schema: a numeric split is feature
    ``j`` and threshold ``t``, the others are ``split``."""
    if kind == HYPERPLANE:
        return [text for bad, text in (
            (len(split.coefficients) != len(schema.numeric_indices),
             "hyperplane arity != number of numeric features"),
            (not all(map(isfinite, split.coefficients)), "hyperplane coefficient is not finite"),
            (not isfinite(split.offset), "hyperplane offset is not finite")) if bad]
    if not 0 <= j < schema.n_features:
        return [f"split feature index {j} out of range"]
    on_numeric = isinstance(schema.features[j], NumericFeature)
    if kind == NUMERIC:
        if not on_numeric:
            return ["numeric split on categorical feature"]
        if t != t:
            return ["split threshold is NaN"]
        return [] if isfinite(t) else ["split threshold is infinite"]
    if on_numeric:
        return ["categorical split on numeric feature"]
    if not split.left_levels:
        return ["empty left level set"]
    if not split.left_levels < set(range(len(schema.features[j].levels))):
        return ["left levels not a proper subset of the levels"]
    return []


def _value_rules(leaves: Leaves, schema: FeatureSchema) -> list[Rule]:
    """The rules of the rows of a leaf table, in order; a ragged table's
    rows are looked at one at a time."""
    if leaves.ragged is not None:
        return [(np.ones(len(leaves.ragged), dtype=bool),
                 lambda r: _ragged_faults(leaves.ragged[r], schema))]
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


def _messages(rules: Sequence[Rule], k: int) -> list[str]:
    return [text for mask, texts in rules if mask[k] for text in texts(k)]


def _ragged_faults(value: LeafValue, schema: FeatureSchema) -> list[str]:
    """The messages of one value of a ragged table. A value that packs alone
    is checked as a table of one row; a tuple that does not is named nested
    or mixed, and its source ids and other entries are checked."""
    one = _pack([value])
    if one.ragged is None:
        return _messages(_value_rules(one, schema), 0)
    kinds = {type(e) for e in value.values}
    out = (["nested tuple value"] if TupleValue in kinds
           else ["tuple mixes value kinds"] if len(kinds) > 1 else [])
    ids = Leaves(None, None, np.zeros((1, 0)), np.array([value.source_ids], dtype=np.int64))
    out += _messages(_value_rules(ids, schema), 0)
    for e in value.values:
        if not isinstance(e, TupleValue):
            out += _ragged_faults(e, schema)
    return out


def _node_faults(tree: Tree) -> tuple[list[str], list[bool]]:
    """Every per-node violation, in node order, and which nodes are well
    formed: internal nodes with a sound split and both children linked
    back, and leaves with a value. Leaf values are checked a whole table at
    a time (:func:`_value_rules`); only a flagged row is looked at again."""
    parent, feature, threshold = (a.tolist() for a in (tree.parent, tree.feature, tree.threshold))
    rules = _value_rules(tree.leaves, tree.schema)
    flagged = {r for mask, _ in rules for r in np.flatnonzero(mask).tolist()}
    v: list[str] = []
    well = []
    for i, (nid, left, right, left_pos, right_pos, kind, row) in enumerate(zip(*(
            a.tolist() for a in (tree.ids, tree.left, tree.right, tree.left_pos, tree.right_pos,
                                 tree.kind, tree.leaf)))):
        if left >= 0 and right >= 0:
            ok = kind > 0
            if not ok:
                v.append(f"node {nid}: internal node without split")
            if row >= 0:
                v.append(f"node {nid}: internal node with value")
            for name, child, pos in (("left", left, left_pos), ("right", right, right_pos)):
                if pos < 0:
                    v.append(f"node {nid}: {name} child {child} missing from arena")
                    ok = False
                elif parent[pos] != nid:
                    v.append(f"node {child}: parent link does not point to {nid}")
                    ok = False
            if ok:
                faults = _split_faults(kind, feature[i], threshold[i], tree.side.get(i),
                                       tree.schema)
                v.extend(f"node {nid}: {text}" for text in faults)
                ok = not faults
            well.append(ok)
            continue
        one_child = left >= 0 or right >= 0
        if one_child:
            v.append(f"node {nid}: has exactly one child")
        if row < 0:
            v.append(f"node {nid}: leaf without value")
        elif row in flagged:
            v.extend(f"node {nid}: {text}" for text in _messages(rules, row))
        if kind > 0:
            v.append(f"node {nid}: leaf with split")
        well.append(row >= 0 and not one_child)
    return v, well


def _reached(tree: Tree) -> np.ndarray:
    """The nodes reachable from the root through children in the tree."""
    left, right = tree.left_pos.tolist(), tree.right_pos.tolist()
    seen, stack = set(), [tree.root_pos]
    while stack:
        i = stack.pop()
        if i >= 0 and i not in seen:
            seen.add(i)
            stack += (left[i], right[i])
    out = np.zeros(tree.n_nodes, dtype=bool)
    out[list(seen)] = True
    return out


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


def _tuple_faults(values: Sequence[LeafValue], schema: FeatureSchema) -> list[str]:
    """The ways tuple leaves differ from each other, so that no one matrix
    can hold them."""
    tuples = [v for v in values if isinstance(v, TupleValue)]
    out = []
    lengths = sorted({len(v.values) for v in tuples} | {len(v.source_ids) for v in tuples})
    if len(lengths) > 1:
        out.append(f"tuple leaves mix lengths {lengths}")
    inner = [kinds_and_lengths([e for e in v.values if not isinstance(e, TupleValue)])
             for v in tuples]
    kinds = sorted({k[0] for k, _ in inner if len(k) == 1})
    if len(kinds) > 1:
        out.append(f"tuple leaves mix value kinds {kinds}")
    lengths = sorted({n for _, ns in inner for n in ns})
    if schema.class_labels is None and len(lengths) > 1:
        out.append(f"tuple leaves mix class-probability lengths {lengths}")
    return out


def _partition_faults(tree: Tree, well: list[bool]) -> list[int]:
    """The positions of the well-formed splits reachable from the root that
    leave a side of their node's region empty, depth first, right before
    left. Each node is placed once, so a cycle of consistent links cannot
    loop. An axis-aligned tree carries boxes (:func:`box_sides`), a tree
    with hyperplane splits :class:`Region` objects."""
    left, right = tree.left_pos.tolist(), tree.right_pos.tolist()
    if (tree.kind == HYPERPLANE).any():
        splits, region = tree.splits(), Region.full(tree.schema)

        def sides_of(i, region):
            left, right = region.split(splits[i])
            return left, right, left is not None and right is not None
    else:
        sides_of, region = partial(box_sides, box_columns(tree)), full_box(tree.schema)

    placed, faults, stack = set(), [], [(tree.root_pos, region)]
    while stack:
        i, region = stack.pop()
        if not well[i] or i in placed:
            continue
        placed.add(i)
        if left[i] < 0:
            continue
        left_side, right_side, cut = sides_of(i, region)
        if not cut:
            faults.append(i)
            continue
        stack.append((left[i], left_side))
        stack.append((right[i], right_side))
    return faults


def validate(tree: Tree) -> list[str]:
    """Check every tree invariant; an empty list means the tree is valid.

    Structural problems (broken links, missing values) are reported first;
    the geometric pass (nonempty regions, genuinely partitioning splits) runs
    over whatever part of the tree is reachable and well-formed.
    """
    if tree.root_pos < 0:
        return [f"root id {tree.root} not in arena"]
    ids, schema = tree.ids, tree.schema
    v: list[str] = []
    roots = ids[tree.parent < 0].tolist()
    if roots != [tree.root]:
        v.append(f"expected exactly one parentless node {tree.root}, found {roots}")

    faults, well = _node_faults(tree)
    v.extend(faults)

    seen = _reached(tree)
    v.extend(f"node {i}: unreachable from root" for i in ids[~seen].tolist())

    # leaf kind consistency
    kinds, lengths, values = value_kinds(tree, seen & (tree.left < 0))
    if len(kinds) > 1:
        v.append(f"leaf values mix kinds {kinds}")
    # with class labels every leaf's length is checked against them
    if schema.class_labels is None and len(lengths) > 1:
        v.append(f"class-probability leaves mix lengths {lengths}")
    if values:
        v.extend(_tuple_faults(values, schema))

    v.extend(f"node {ids[i]}: split does not partition node region"
             for i in _partition_faults(tree, well))
    return v

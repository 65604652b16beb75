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

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from math import isfinite
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from . import simplex
from .errors import (
    DomainError,
    LeafKindError,
    SchemaError,
    UnknownNodeError,
)

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
    "Node",
    "Tree",
    "TreeBuilder",
    "evaluate",
    "route",
    "route_batch",
    "evaluate_batch",
    "node_region",
    "iter_leaves_with_regions",
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


def goes_left(split: Split, x: Sequence[float], schema: FeatureSchema) -> bool:
    """Route an encoded point through one split condition."""
    if isinstance(split, NumericThreshold):
        return x[split.feature] <= split.threshold
    if isinstance(split, CategoricalSubset):
        return int(x[split.feature]) in split.left_levels
    acc = 0.0
    for c, j in zip(split.coefficients, schema.numeric_indices):
        acc += c * x[j]
    return acc <= split.offset


def _goes_left_batch(
    split: Split,
    X: np.ndarray,
    schema: FeatureSchema,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Route the rows of an encoded matrix (all rows, or the index array
    ``rows``) through one split, gathering only the columns it reads."""
    if isinstance(split, Hyperplane):
        num = list(schema.numeric_indices)
        sub = X[:, num] if rows is None else X[np.ix_(rows, num)]
        return sub @ np.asarray(split.coefficients) <= split.offset
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

    def contains(self, x: float) -> bool:
        if x < self.low or (x == self.low and not self.low_closed):
            return False
        if x > self.high or (x == self.high and not self.high_closed):
            return False
        return True

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

    Regions are only built by :meth:`full` and :meth:`try_refine`, which keep
    them nonempty by construction (hyperplane emptiness is decided by a
    feasibility LP that relaxes strict inequalities to closed ones, so a
    region touching a hyperplane in a measure-zero set counts as nonempty).
    """

    schema: FeatureSchema
    constraints: tuple[Constraint, ...]
    half_spaces: tuple[tuple[Hyperplane, Side], ...] = ()

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

    def contains(self, x: Sequence[float]) -> bool:
        """Membership of an encoded point, honoring endpoint flags and half-spaces."""
        for cons, xj in zip(self.constraints, x):
            if isinstance(cons, Interval):
                if not cons.contains(xj):
                    return False
            elif int(xj) not in cons:
                return False
        for h, side in self.half_spaces:
            left = goes_left(h, x, self.schema)
            if (side is Side.LEFT) != left:
                return False
        return True

    def contains_batch(self, X: np.ndarray) -> np.ndarray:
        """Vectorized membership over an (n, p) encoded matrix."""
        mask = np.ones(len(X), dtype=bool)
        for j, cons in enumerate(self.constraints):
            col = X[:, j]
            if isinstance(cons, Interval):
                lo = col >= cons.low if cons.low_closed else col > cons.low
                hi = col <= cons.high if cons.high_closed else col < cons.high
                mask &= lo & hi
            else:
                mask &= np.isin(col.astype(np.int64), np.fromiter(cons, dtype=np.int64))
        for h, side in self.half_spaces:
            left = _goes_left_batch(h, X, self.schema)
            mask &= left if side is Side.LEFT else ~left
        return mask

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

    def try_refine(self, split: Split, side: Side) -> Optional["Region"]:
        """Intersect with one side of a split; None when the result is empty."""
        if isinstance(split, NumericThreshold):
            iv = self.constraints[split.feature]
            new = iv.clip_le(split.threshold) if side is Side.LEFT else iv.clip_gt(
                split.threshold
            )
            if new is None:
                return None
            if new is iv:
                return self
            refined = Region(
                self.schema,
                self.constraints[: split.feature]
                + (new,)
                + self.constraints[split.feature + 1 :],
                self.half_spaces,
            )
            # a box that is still nonempty can leave the half-spaces with no
            # room (categorical levels stay outside the LP, so only here)
            if self.half_spaces and not simplex.feasible(*refined.lp_rows()):
                return None
            return refined
        if isinstance(split, CategoricalSubset):
            levels = self.constraints[split.feature]
            new = (
                levels & split.left_levels
                if side is Side.LEFT
                else levels - split.left_levels
            )
            if not new:
                return None
            cons = (
                self.constraints[: split.feature]
                + (new,)
                + self.constraints[split.feature + 1 :]
            )
            return Region(self.schema, cons, self.half_spaces)
        refined = Region(
            self.schema, self.constraints, self.half_spaces + ((split, side),)
        )
        a, b = refined.lp_rows()
        if not simplex.feasible(a, b):
            return None
        return refined


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


def value_kind(value: LeafValue) -> str:
    return _KIND_NAMES[type(value)]


def _kind_of(values: Sequence[LeafValue]) -> str:
    kinds = {value_kind(v) for v in values}
    if len(kinds) != 1:
        raise LeafKindError(f"mixed leaf kinds {sorted(kinds)}")
    return kinds.pop()


def leaf_kind_of(tree: "Tree") -> str:
    """The single leaf-value kind of a tree; raises when leaves mix kinds."""
    return _kind_of([tree.nodes[i].value for i in tree.leaf_ids()])


# ---------------------------------------------------------------------------
# Trees


@dataclass(frozen=True)
class Node:
    parent: Optional[int]
    split: Optional[Split] = None
    left: Optional[int] = None
    right: Optional[int] = None
    value: Optional[LeafValue] = None


@dataclass(frozen=True)
class Tree:
    """An immutable arena of nodes representing a recursive partition function."""

    schema: FeatureSchema
    nodes: dict[int, Node]
    root: int

    def node(self, nid: int) -> Node:
        try:
            return self.nodes[nid]
        except KeyError:
            raise UnknownNodeError(f"no node with id {nid}")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def leaf_ids(self) -> list[int]:
        """Leaf node ids in depth-first, left-before-right order."""
        out, stack = [], [self.root]
        while stack:
            nid = stack.pop()
            node = self.nodes[nid]
            if node.left is None:
                out.append(nid)
            else:
                stack.append(node.right)
                stack.append(node.left)
        return out

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_ids())


class TreeBuilder:
    """Mutable arena used while growing a tree; ``build`` freezes it.

    ``max_nodes`` caps the arena size; exceeding it raises
    :class:`~treealgebra.errors.BudgetExceededError` with the partial size.
    """

    def __init__(self, schema: FeatureSchema, max_nodes: Optional[int] = None):
        from .errors import BudgetExceededError

        self.schema = schema
        self.max_nodes = max_nodes
        self._exc = BudgetExceededError
        self._parent: list[Optional[int]] = []
        self._split: list[Optional[Split]] = []
        self._left: list[Optional[int]] = []
        self._right: list[Optional[int]] = []
        self._value: list[Optional[LeafValue]] = []
        self.root: Optional[int] = None

    @property
    def n_nodes(self) -> int:
        return len(self._parent)

    def _new(self, parent: Optional[int]) -> int:
        if self.max_nodes is not None and self.n_nodes >= self.max_nodes:
            raise self._exc(
                f"node budget exceeded: combined tree already has "
                f"{self.n_nodes} nodes (max_nodes={self.max_nodes})"
            )
        self._parent.append(parent)
        self._split.append(None)
        self._left.append(None)
        self._right.append(None)
        self._value.append(None)
        return self.n_nodes - 1

    def add_root(self) -> int:
        if self.root is not None:
            raise ValueError("root already created")
        self.root = self._new(None)
        return self.root

    def split_node(self, nid: int, split: Split) -> tuple[int, int]:
        """Turn a leaf of the arena into an internal node; returns (left, right)."""
        if self._split[nid] is not None or self._value[nid] is not None:
            raise ValueError(f"node {nid} already finished")
        self._split[nid] = split
        left = self._new(nid)
        right = self._new(nid)
        self._left[nid] = left
        self._right[nid] = right
        return left, right

    def set_value(self, nid: int, value: LeafValue) -> None:
        if self._split[nid] is not None:
            raise ValueError(f"node {nid} is internal")
        self._value[nid] = value

    def build(self) -> Tree:
        nodes = {
            i: Node(self._parent[i], self._split[i], self._left[i], self._right[i], self._value[i])
            for i in range(self.n_nodes)
        }
        return Tree(self.schema, nodes, self.root)


# ---------------------------------------------------------------------------
# Evaluation


def route(tree: Tree, x: Sequence[float]) -> int:
    """Leaf id reached by an encoded in-domain point."""
    nid = tree.root
    node = tree.nodes[nid]
    while node.left is not None:
        nid = node.left if goes_left(node.split, x, tree.schema) else node.right
        node = tree.nodes[nid]
    return nid


def evaluate(tree: Tree, point: Sequence) -> LeafValue:
    """Evaluate the tree function at a raw point (numbers / level names)."""
    x = tree.schema.encode_point(point)
    return tree.nodes[route(tree, x)].value


def _route_batch(
    tree: Tree, X: np.ndarray, label: Optional[dict[int, int]] = None
) -> np.ndarray:
    """Route every row of an encoded (n, p) matrix to a leaf and return the
    leaf's id, or ``label[leaf id]`` when a label map is given."""
    n = len(X)
    out = np.empty(n, dtype=np.int64)
    stack = [(tree.root, np.arange(n))]
    while stack:
        nid, idx = stack.pop()
        if idx.size == 0:
            continue
        node = tree.nodes[nid]
        if node.left is None:
            out[idx] = nid if label is None else label[nid]
            continue
        left = _goes_left_batch(node.split, X, tree.schema, idx)
        stack.append((node.right, idx[~left]))
        stack.append((node.left, idx[left]))
    return out


def route_batch(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf ids for every row of an encoded (n, p) matrix."""
    return _route_batch(tree, X)


def evaluate_batch(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Vectorized evaluation for scalar or class-probability trees.

    Returns shape (n,) for scalar leaves and (n, n_classes) for
    class-probability leaves.
    """
    leaves = tree.leaf_ids()
    values = [tree.nodes[i].value for i in leaves]
    kind = _kind_of(values)
    if kind == "scalar":
        table = np.array([v.value for v in values])
    elif kind == "class_probs":
        table = np.array([v.probs for v in values])
    else:
        raise LeafKindError("evaluate_batch supports scalar and class_probs leaves")
    return table[_route_batch(tree, X, {nid: k for k, nid in enumerate(leaves)})]


# ---------------------------------------------------------------------------
# Regions of nodes


def node_region(tree: Tree, nid: int) -> Region:
    """The region of a node: the root domain refined by the splits on its path."""
    path = []
    cur = tree.node(nid)
    cur_id = nid
    while cur.parent is not None:
        parent = tree.nodes[cur.parent]
        side = Side.LEFT if parent.left == cur_id else Side.RIGHT
        path.append((parent.split, side))
        cur_id = cur.parent
        cur = parent
    region = Region.full(tree.schema)
    for split, side in reversed(path):
        region = region.try_refine(split, side)
        if region is None:
            raise DomainError(f"node {nid} has an empty derived region")
    return region


def iter_leaves_with_regions(tree: Tree) -> Iterator[tuple[int, Region]]:
    """Yield (leaf id, region) depth-first, left before right.

    The fixed order makes downstream sums bit-reproducible.
    """
    stack = [(tree.root, Region.full(tree.schema))]
    while stack:
        nid, region = stack.pop()
        node = tree.nodes[nid]
        if node.left is None:
            yield nid, region
            continue
        left = region.try_refine(node.split, Side.LEFT)
        right = region.try_refine(node.split, Side.RIGHT)
        if left is None or right is None:
            raise DomainError(f"split at node {nid} does not partition its region")
        stack.append((node.right, right))
        stack.append((node.left, left))


# ---------------------------------------------------------------------------
# Validation


def _check_split_schema(split: Split, schema: FeatureSchema, where: str) -> list[str]:
    out = []
    if isinstance(split, NumericThreshold):
        if not 0 <= split.feature < schema.n_features:
            out.append(f"{where}: split feature index {split.feature} out of range")
        elif not isinstance(schema.features[split.feature], NumericFeature):
            out.append(f"{where}: numeric split on categorical feature")
        elif np.isnan(split.threshold):
            out.append(f"{where}: split threshold is NaN")
        elif not isfinite(split.threshold):
            out.append(f"{where}: split threshold is infinite")
    elif isinstance(split, CategoricalSubset):
        if not 0 <= split.feature < schema.n_features:
            out.append(f"{where}: split feature index {split.feature} out of range")
        elif not isinstance(schema.features[split.feature], CategoricalFeature):
            out.append(f"{where}: categorical split on numeric feature")
        else:
            levels = set(range(len(schema.features[split.feature].levels)))
            if not split.left_levels:
                out.append(f"{where}: empty left level set")
            elif not split.left_levels < levels:
                out.append(f"{where}: left levels not a proper subset of the levels")
    else:
        if len(split.coefficients) != len(schema.numeric_indices):
            out.append(f"{where}: hyperplane arity != number of numeric features")
        if not all(isfinite(c) for c in split.coefficients):
            out.append(f"{where}: hyperplane coefficient is not finite")
        if not isfinite(split.offset):
            out.append(f"{where}: hyperplane offset is not finite")
    return out


def _check_value(value: LeafValue, schema: FeatureSchema, where: str) -> list[str]:
    out = []
    if isinstance(value, Scalar):
        if not isfinite(value.value):
            out.append(f"{where}: leaf value is not finite")
    elif isinstance(value, ClassProbs):
        if not all(isfinite(p) for p in value.probs):
            out.append(f"{where}: class probability is not finite")
        total = sum(value.probs)
        if any(p < 0 for p in value.probs):
            out.append(f"{where}: negative class probability")
        if abs(total - 1.0) > 1e-9:
            out.append(f"{where}: class probabilities sum {total:.9g} != 1")
        if schema.class_labels is not None and len(value.probs) != len(
            schema.class_labels
        ):
            out.append(f"{where}: {len(value.probs)} probabilities for "
                       f"{len(schema.class_labels)} class labels")
    elif isinstance(value, TupleValue):
        kinds = {type(v) for v in value.values}
        if TupleValue in kinds:
            out.append(f"{where}: nested tuple value")
        elif len(kinds) > 1:
            out.append(f"{where}: tuple mixes value kinds")
        if len(set(value.source_ids)) != len(value.source_ids):
            out.append(f"{where}: duplicate source ids in tuple value")
        for v in value.values:
            if not isinstance(v, TupleValue):
                out.extend(_check_value(v, schema, where))
    return out


def validate(tree: Tree) -> list[str]:
    """Check every tree invariant; an empty list means the tree is valid.

    Structural problems (broken links, missing values) are reported first;
    the geometric pass (nonempty regions, genuinely partitioning splits) runs
    over whatever part of the tree is reachable and well-formed.
    """
    v: list[str] = []
    nodes = tree.nodes
    if tree.root not in nodes:
        return [f"root id {tree.root} not in arena"]
    roots = sorted(i for i, n in nodes.items() if n.parent is None)
    if roots != [tree.root]:
        v.append(f"expected exactly one parentless node {tree.root}, found {roots}")

    well_formed = set()
    for i in sorted(nodes):
        n = nodes[i]
        ok = True
        if (n.left is None) != (n.right is None):
            v.append(f"node {i}: has exactly one child")
            ok = False
        internal = n.left is not None and n.right is not None
        if internal:
            if n.split is None:
                v.append(f"node {i}: internal node without split")
                ok = False
            if n.value is not None:
                v.append(f"node {i}: internal node with value")
            for side, ch in (("left", n.left), ("right", n.right)):
                if ch not in nodes:
                    v.append(f"node {i}: {side} child {ch} missing from arena")
                    ok = False
                elif nodes[ch].parent != i:
                    v.append(f"node {ch}: parent link does not point to {i}")
                    ok = False
            if ok and n.split is not None:
                errs = _check_split_schema(n.split, tree.schema, f"node {i}")
                v.extend(errs)
                ok = ok and not errs
        else:
            if n.value is None:
                v.append(f"node {i}: leaf without value")
                ok = False
            else:
                v.extend(_check_value(n.value, tree.schema, f"node {i}"))
            if n.split is not None:
                v.append(f"node {i}: leaf with split")
        if ok:
            well_formed.add(i)

    # reachability
    seen = set()
    stack = [tree.root]
    while stack:
        i = stack.pop()
        if i in seen or i not in nodes:
            continue
        seen.add(i)
        n = nodes[i]
        if n.left is not None and n.left in nodes:
            stack.append(n.left)
        if n.right is not None and n.right in nodes:
            stack.append(n.right)
    for i in sorted(set(nodes) - seen):
        v.append(f"node {i}: unreachable from root")

    # leaf kind consistency
    kinds = {value_kind(nodes[i].value) for i in seen
             if nodes[i].left is None and nodes[i].value is not None}
    if len(kinds) > 1:
        v.append(f"leaf values mix kinds {sorted(kinds)}")

    # geometric pass over the well-formed reachable part
    from .geometry import PartitionOutcome, split_partitions_region

    # each node is placed once, so a cycle of consistent links cannot loop
    placed: set[int] = set()
    stack2 = [(tree.root, Region.full(tree.schema))]
    while stack2:
        i, region = stack2.pop()
        if i not in well_formed or i in placed:
            continue
        placed.add(i)
        n = nodes[i]
        if n.left is None:
            continue
        outcome = split_partitions_region(n.split, region)
        if outcome is not PartitionOutcome.SPLITS_REGION:
            v.append(f"node {i}: split does not partition node region")
            continue
        left = region.try_refine(n.split, Side.LEFT)
        right = region.try_refine(n.split, Side.RIGHT)
        for ch, r in ((n.left, left), (n.right, right)):
            if r is None:
                v.append(f"node {ch}: empty region")
            else:
                stack2.append((ch, r))
    return v

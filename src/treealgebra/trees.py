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

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial
from math import isfinite
from operator import mul
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
    "split_faults",
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

    @cached_property
    def magnitudes(self) -> tuple[float, ...]:
        """``max(|low|, |high|)`` per numeric feature, in :attr:`numeric_indices` order."""
        return tuple(max(abs(self.features[j].low), abs(self.features[j].high))
                     for j in self.numeric_indices)

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
        X = self._encode_columns(list(zip(*rows)), n) if all(len(r) == p for r in rows) else None
        if X is None:
            X = np.array([self.encode_point(r) for r in rows], dtype=float).reshape(n, p)
        return X

    def _encode_columns(self, columns: Sequence[Sequence], n: int) -> Optional[np.ndarray]:
        """The (n, p) matrix of ``columns`` of n raw values each, in schema
        feature order, or None unless every value is a level name or an
        in-range number."""
        X = np.empty((n, self.n_features))
        try:
            for j, (f, column) in enumerate(zip(self.features, columns)):
                if isinstance(f, CategoricalFeature):
                    # only names are keys: a level index or any other value misses
                    index = {name: float(k) for k, name in enumerate(f.levels)
                             if isinstance(name, str)}
                    X[:, j] = np.fromiter(map(index.__getitem__, column), float, len(column))
                    continue
                x = X[:, j] = np.fromiter(map(float, column), float, len(column))
                if not (np.isfinite(x) & (x >= f.low) & (x <= f.high)).all():
                    return None
        except (KeyError, TypeError, ValueError):
            return None
        return X

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


def split_faults(split: Split, schema: FeatureSchema) -> list[str]:
    """The faults of a split on a schema, in :func:`validate`'s words and
    order; empty when the split may enter a tree. A hyperplane's value must
    not overflow on the box: the sum of ``|offset|`` and then every
    ``|c_k| * max(|low_k|, |high_k|)``, left to right, must be finite."""
    if isinstance(split, Hyperplane):
        c, mags = split.coefficients, schema.magnitudes
        if len(c) == len(mags) and isfinite(sum(map(mul, map(abs, c), mags), abs(split.offset))):
            return []
        faults = [text for bad, text in (
            (len(c) != len(mags), "hyperplane arity != number of numeric features"),
            (not all(map(isfinite, c)), "hyperplane coefficient is not finite"),
            (not isfinite(split.offset), "hyperplane offset is not finite")) if bad]
        return faults or ["hyperplane overflows on the domain box"]
    j = split.feature
    if not 0 <= j < schema.n_features:
        return [f"split feature index {j} out of range"]
    f = schema.features[j]
    if isinstance(split, NumericThreshold):
        if not isinstance(f, NumericFeature):
            return ["numeric split on categorical feature"]
        t = split.threshold
        return [] if isfinite(t) else ["split threshold is NaN" if t != t
                                       else "split threshold is infinite"]
    if isinstance(f, NumericFeature):
        return ["categorical split on numeric feature"]
    if not split.left_levels:
        return ["empty left level set"]
    if not split.left_levels < set(range(len(f.levels))):
        return ["left levels not a proper subset of the levels"]
    return []


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


def _goes_left_batch(
    split: Hyperplane,
    X: np.ndarray,
    schema: FeatureSchema,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Route the rows of an encoded matrix (all rows, or the index array
    ``rows``) through one hyperplane split, gathering only the columns it
    reads. The router and :func:`treealgebra.oracle.contains_batch` call it,
    so both put a point that lies on the hyperplane on the same side.

    It sums ``c_k * x_k`` left to right, one column at a time, so each row
    gets the same bits however many other rows are routed with it (a matrix
    product may round differently with the number of rows).
    """
    acc = 0.0
    for c, j in zip(split.coefficients, schema.numeric_indices):
        col = X[:, j]
        acc = acc + c * (col if rows is None else col[rows])
    return acc <= split.offset


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


def _with_row(a: np.ndarray, b: np.ndarray, row: np.ndarray, rhs: float) -> tuple:
    """The rows ``a x <= b`` and then ``row x <= rhs``."""
    return np.concatenate((a, [row])), np.concatenate((b, [rhs]))


def _with_bounds(a: np.ndarray, b: np.ndarray, k: int, high: float, neg_low: float) -> tuple:
    """The rows ``a x <= b`` (``a`` shared) with one feature's bounds ``b[k : k + 2]`` set."""
    b = b.copy()
    b[k], b[k + 1] = high, neg_low
    return a, b


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
    A hyperplane already among the half-spaces keeps the region on the
    side the path took, exactly, as a repeated threshold does in the box.
    Any other emptiness under half-spaces is decided under the closed
    relaxation of strict inequalities, so a region touching a hyperplane in
    a measure-zero set counts as nonempty: by a certificate point when one
    is found, else by a Phase-I feasibility LP (:func:`simplex.feasible`).

    ``witness`` is a point of the numeric subspace (in
    ``schema.numeric_indices`` order) that meets the closed constraints:
    the parent's witness when it lies in the side, else the point that
    decided the side, which an over-relaxed certificate leaves inside it
    rather than on the row it crossed. A split side that holds the witness
    is nonempty under the closed relaxation, which is what the LP would
    report, so :meth:`split` skips that LP and no result changes. A side
    that does not hold it starts its certificate from it. A region without
    half-spaces keeps None and uses its box centre, computed only when a
    hyperplane cuts the box, so ``full`` starts from the centre and
    axis-aligned splits never pay for a witness. ``rows`` caches
    :meth:`lp_rows`; a side of :meth:`split` is made with them, derived
    from its parent's. Neither takes part in equality or hashing.
    """

    schema: FeatureSchema
    constraints: tuple
    half_spaces: tuple[tuple[Hyperplane, Side], ...] = ()
    witness: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    rows: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def full(cls, schema: FeatureSchema) -> "Region":
        """The root domain: the full box times all levels."""
        return cls(schema, full_box(schema))

    def lp_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Closed-inequality rows ``A x <= b`` over the numeric subspace:
        ``+x_j`` and then ``-x_j`` per numeric feature, then the half-spaces
        in path order, a RIGHT one negated. Strict parts are relaxed to
        closed, which is what the LP machinery expects. A side of
        :meth:`split` is made with them derived from its parent's, the same
        bits: a hyperplane appends its signed row, a numeric cut sets its
        feature's bounds, and a categorical side shares them. The arrays
        are kept and shared, so they are not to be written to."""
        if self.rows is None:
            num, hs, box = self.schema.numeric_indices, self.half_spaces, self.constraints
            d = len(num)
            a, b = np.zeros((2 * d + len(hs), d)), np.empty(2 * d + len(hs))
            np.fill_diagonal(a[: 2 * d : 2], 1.0)
            np.fill_diagonal(a[1 : 2 * d : 2], -1.0)
            b[: 2 * d] = [bound for j in num for bound in (box[j][1], -box[j][0])]
            if hs:
                a[2 * d :] = [h.coefficients if side is Side.LEFT else [-c for c in h.coefficients]
                              for h, side in hs]
                b[2 * d :] = [h.offset if side is Side.LEFT else -h.offset for h, side in hs]
            object.__setattr__(self, "rows", (a, b))
        return self.rows

    def split(self, split: Split) -> tuple[Optional["Region"], Optional["Region"]]:
        """The two sides of a split within this region, each None when empty.

        One None means the region lies in the other side, which is then the
        region itself. A hyperplane equal to one on the path gives the side
        the path took, with no LP. Any other side is decided under the
        closed relaxation, so a split that only touches the region still
        splits it. Without half-spaces a numeric or categorical split runs
        no LP; otherwise the side that holds the witness is nonempty for
        free and the other side is one feasibility decision, which runs a
        Phase-I LP only when no certificate is found. A split with a fault
        (:func:`split_faults`) raises :class:`SchemaError` naming the first.
        """
        if faults := split_faults(split, self.schema):
            raise SchemaError(faults[0])
        schema, box, hs, w = self.schema, self.constraints, self.half_spaces, self.witness
        if isinstance(split, Hyperplane):
            for h, side in hs:
                if h == split:
                    return (self, None) if side is Side.LEFT else (None, self)
            if not hs:
                w = np.array([(box[j][0] + box[j][1]) / 2 for j in schema.numeric_indices])
            c, o = np.asarray(split.coefficients), split.offset
            with np.errstate(all="ignore"):  # a value past the float range is no fault
                s = np.nan if w is None else float(c @ w)
            a, b = self.lp_rows()
            return (self._side(box, hs + ((split, Side.LEFT),), w, s <= o, _with_row(a, b, c, o)),
                    self._side(box, hs + ((split, Side.RIGHT),), w, s >= o, _with_row(a, b, -c, -o)))
        j = split.feature
        numeric = isinstance(split, NumericThreshold)
        cut = split.threshold if numeric else split.left_levels
        left, right, both = box_sides(box, j, cut)
        if not both:
            # the side that is not empty keeps the whole box
            return (self, None) if left[j] == box[j] else (None, self)
        if not (numeric and hs):
            rows = None if numeric else self.rows
            return tuple(self._side(side, hs, w, True, rows) for side in (left, right))
        # a box that is still nonempty can leave the half-spaces no room
        # (categorical levels stay outside the LP, so only here)
        k = 2 * schema.numeric_indices.index(j)
        wj = np.nan if w is None else w[k // 2]
        a, b = self.lp_rows()
        return (self._side(left, hs, w, wj <= cut, _with_bounds(a, b, k, left[j][1], -left[j][0])),
                self._side(right, hs, w, wj >= cut,
                           _with_bounds(a, b, k, right[j][1], -right[j][0])))

    def _side(self, box: tuple, half_spaces: tuple, w: Optional[np.ndarray], inside: bool,
              rows: Optional[tuple]) -> Optional["Region"]:
        """The side with ``box``, ``half_spaces`` and LP ``rows``: with the
        witness ``w`` when that lies ``inside`` it, else decided by one call
        of :func:`simplex.feasible` on ``rows`` from ``w`` (a certificate
        point when its moves reach the side, else Phase I's verdict) with
        the point found as its witness."""
        if not inside and (w := simplex.feasible(*rows, w)) is None:
            return None
        side = Region(self.schema, box, half_spaces, w)
        object.__setattr__(side, "rows", rows)
        return side


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

    entry: Optional[str]
    values: np.ndarray
    sources: Optional[np.ndarray] = None
    ragged: Optional[tuple] = None

    @property
    def kind(self) -> Optional[str]:
        """``"tuple"`` when there are sources, else ``entry``; None when ragged."""
        if self.ragged is not None:
            return None
        return "tuple" if self.sources is not None else self.entry

    def kinds(self, rows: Optional[np.ndarray] = None) -> tuple[list[str], list[int]]:
        """The distinct kinds of some rows (by default every row) and the
        distinct lengths of their class-probability vectors, each sorted.
        Only a ragged table reads its value objects.

        Leaves that are meant to go together have one kind, and, when the
        schema has no class labels to fix each length, at most one length.
        """
        if self.ragged is not None:
            values = self.ragged if rows is None else [self.ragged[r] for r in rows.tolist()]
            return (sorted({_KIND_NAMES[type(v)] for v in values}),
                    sorted({len(v.probs) for v in values if isinstance(v, ClassProbs)}))
        if rows is not None and not rows.size:
            return [], []
        return [self.kind], [self.values.shape[1]] if self.kind == "class_probs" else []

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
            return _entry(self.entry, self.values[row].tolist())
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
    return Leaves(entry, values.reshape(len(docs), values.size // len(docs)), sources)


def _pack(values: Sequence[LeafValue]) -> Leaves:
    """The leaf table of some leaf values, one row each, in order; values
    that no matrix can hold keep their objects."""
    packed = pack_documents([_document(v) for v in values])
    if packed is None:
        return Leaves(None, np.zeros((len(values), 0)), None, tuple(values))
    return packed


def _operands(trees: Sequence["Tree"], name: str, scalar: bool = False) -> str:
    """The check of an operation's input trees, which names the operation
    ``name``: at least one tree, then one schema, then only leaf kinds it
    takes (scalar, and class-probability unless ``scalar``), then one kind,
    then one class-probability length. A ragged tree counts each of its
    kinds, and a leaf without a value counts as no kind the operation takes.
    Returns the kind."""
    if not trees:
        raise DomainError(f"{name} needs at least one tree")
    if any(t.schema != trees[0].schema for t in trees[1:]):
        raise SchemaError("trees use different schemas")
    kinds, lengths = set(), set()
    for t in trees:
        k, n = t.leaves.kinds()
        kinds.update(k)
        lengths.update(n)
        # each value sits on one leaf, so fewer rows than leaves leave one unset
        if not k or len(t.leaves.values) < t.n_leaves:
            kinds.add(None)
    takes = ("scalar",) if scalar else ("scalar", "class_probs")
    if not kinds <= set(takes):
        raise LeafKindError(f"{name} needs {' or '.join(takes)} leaves")
    if len(kinds) > 1:
        raise LeafKindError(f"trees mix leaf kinds {sorted(kinds)}")
    if len(lengths) > 1:
        raise LeafKindError(f"trees mix class-probability lengths {sorted(lengths)}")
    return kinds.pop()


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
    split is ``feature`` and ``threshold``; ``split`` is an object column
    that holds the split of every categorical or hyperplane node and None
    elsewhere, and ``feature`` holds a categorical split's feature too.
    ``leaf`` is each node's row in ``leaves``, -1 for a node without a
    value.
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
    split: np.ndarray
    leaf: np.ndarray
    leaves: Leaves
    # positions of the root and of every node's children, -1 where the
    # node is absent or not in the tree
    root_pos: int = field(init=False, repr=False)
    left_pos: np.ndarray = field(init=False, repr=False)
    right_pos: np.ndarray = field(init=False, repr=False)
    # the number of nodes without a left child
    n_leaves: int = field(init=False, repr=False)

    def __post_init__(self):
        at = len(self.ids) if self.root is None else int(np.searchsorted(self.ids, self.root))
        found = at < len(self.ids) and self.ids[at] == self.root
        object.__setattr__(self, "root_pos", at if found else -1)
        object.__setattr__(self, "left_pos", _positions(self.ids, self.left))
        object.__setattr__(self, "right_pos", _positions(self.ids, self.right))
        object.__setattr__(self, "n_leaves", int(np.count_nonzero(self.left < 0)))

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    def splits(self) -> Sequence[Optional[Split]]:
        """The split object of every node, None for a node without one."""
        return [NumericThreshold(f, t) if k == NUMERIC else s for k, f, t, s in zip(
            self.kind.tolist(), self.feature.tolist(), self.threshold.tolist(), self.split)]


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
    """Kind, feature, threshold and split columns of some splits."""
    return (np.array([_KIND_CODES.get(type(s), 0) for s in splits], dtype=np.int8),
            np.array([getattr(s, "feature", -1) for s in splits], dtype=np.int64),
            np.array([getattr(s, "threshold", np.nan) for s in splits], dtype=float),
            np.fromiter((s if isinstance(s, (CategoricalSubset, Hyperplane)) else None
                         for s in splits), dtype=object, count=len(splits)))


def _assemble(schema, root, ids, left, right, kind, feature, threshold, split, leaf,
              leaves) -> Tree:
    """A tree from per-node lists in any order, e.g. a file's: sorted by
    id, with each node's parent the last node in the given order that names
    it as a child. Ids must be distinct and non-negative."""
    as_int = partial(np.array, dtype=np.int64)
    columns = [as_int(ids), as_int(left), as_int(right), np.array(kind, dtype=np.int8),
               as_int(feature), np.array(threshold, dtype=float),
               np.fromiter(split, dtype=object, count=len(split)), as_int(leaf)]
    ids = columns[0]
    # every child link in the given order, left before right, and its node
    links, namer = np.empty(2 * len(ids), dtype=np.int64), np.repeat(ids, 2)
    links[0::2], links[1::2] = columns[1], columns[2]
    if not (ids[1:] > ids[:-1]).all():
        order = np.argsort(ids)
        columns = [c[order] for c in columns]
    ids, left, right, kind, feature, threshold, split, leaf = columns
    # a stable sort keeps the links to each child in the given order
    pos = _positions(ids, links)
    by = np.argsort(pos, kind="stable")
    pos, namer = pos[by], namer[by]
    last = pos >= 0
    last[:-1] &= pos[1:] != pos[:-1]
    parent = np.full(len(ids), -1, dtype=np.int64)
    parent[pos[last]] = namer[last]
    return Tree(schema, root, ids, left, right, parent, kind, feature, threshold, split, leaf,
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
        """Turn a leaf of the arena into an internal node; returns (left, right).
        A split with a fault (:func:`split_faults`) raises
        :class:`SchemaError` naming the first, in ``validate``'s words."""
        if self._split[nid] is not None or self._leaf[nid] >= 0:
            raise ValueError(f"node {nid} already finished")
        if faults := split_faults(split, self.schema):
            raise SchemaError(faults[0])
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
    reaches; a :class:`DomainError` unless ``X`` has one column per feature
    and holds bools, ints or floats. A nested list routes as its array does.
    Each split reads its column as a view and gathers the node's rows from
    it. A numeric split compares them with its threshold. A categorical
    split truncates each code toward zero, as ``astype(int64)`` does, and
    looks it up in a table of its left levels with one slot below and one
    above them, so a code outside the levels (negative, too large, NaN or
    inf) goes right. A hyperplane is :func:`_goes_left_batch`. Only the
    visited nodes' cells are read, so a point costs its path."""
    X, p = np.asarray(X), tree.schema.n_features
    if X.ndim != 2 or X.shape[1] != p:
        raise DomainError(f"points have shape {X.shape}, not one column per feature ({p})")
    if X.dtype.kind not in "biuf":
        raise DomainError(f"points have dtype {X.dtype}, not bool, int or float")
    left, right, kind, feature, threshold, split = (
        tree.left_pos, tree.right_pos, tree.kind, tree.feature, tree.threshold, tree.split)
    out = np.empty(len(X), dtype=np.int64)
    stack = [(tree.root_pos, np.arange(len(X)))] if len(X) else []
    while stack:
        i, idx = stack.pop()
        if left.item(i) < 0:
            out[idx] = i
            continue
        k = kind.item(i)
        if k == NUMERIC:
            go = X[:, feature.item(i)][idx] <= threshold.item(i)
        elif k == HYPERPLANE:
            go = _goes_left_batch(split[i], X, tree.schema, idx)
        else:
            j = feature.item(i)
            n = len(tree.schema.features[j].levels)
            table = np.zeros(n + 2, dtype=bool)
            table[[level + 1 for level in split[i].left_levels]] = True
            code = X[:, j][idx].astype(np.int64)
            go = table[np.clip(code, -1, n, out=code) + 1]
        for child, rows in ((right.item(i), idx[~go]), (left.item(i), idx[go])):
            if rows.size:
                stack.append((child, rows))
    return out


def route_batch(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf ids for every row of an encoded (n, p) matrix."""
    return tree.ids[_route_batch(tree, X)]


def evaluate_batch(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Vectorized evaluation for scalar or class-probability trees.

    Returns shape (n,) for scalar leaves and (n, n_classes) for
    class-probability leaves.
    """
    kind = _operands([tree], "evaluate_batch")
    table = tree.leaves.values[:, 0] if kind == "scalar" else tree.leaves.values
    return table[tree.leaf[_route_batch(tree, X)]]


# ---------------------------------------------------------------------------
# Stacked node tables

_WORD = (1 << 64) - 1


class NodeTable:
    """The nodes of some trees on one schema in one table, each tree's
    positions after the previous tree's (``tree_of`` holds each position's
    tree, ``roots`` each tree's root, -1 for none): the trees' node columns
    stacked, with children as table positions and each tree's own leaf
    rows. Boxes and level masks are derived from these columns; a region
    with half-spaces is left to :class:`Region`.

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
        starts, root_pos = np.cumsum([0] + sizes[:-1]), np.array([t.root_pos for t in trees])
        self.roots = np.where(root_pos >= 0, starts + root_pos, -1)
        self.tree_of = np.repeat(np.arange(len(trees)), sizes)
        stacked = lambda name: np.concatenate([getattr(t, name) for t in trees])
        offset = np.repeat(starts, sizes)
        self.left, self.right = (np.where(p >= 0, p + offset, -1)
                                 for p in (stacked("left_pos"), stacked("right_pos")))
        self.leaf, self.kind, self.feature, self.threshold, self.split = map(
            stacked, ("leaf", "kind", "feature", "threshold", "split"))
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
        self.categorical = bool((self.kind == CATEGORICAL).any())
        self.proper = np.zeros(len(self.kind), dtype=bool)
        if self.categorical:
            self._level_masks(schema)

    def _level_masks(self, schema) -> None:
        """``on_sides``: the levels each categorical split sends left and
        right, as bits of two level masks of ``words`` 64-bit words;
        ``proper``: whether a split sends some, not all, levels left."""
        pos = (self.kind == CATEGORICAL).nonzero()[0]
        masks, proper, cache = [], [], {}
        for split in self.split[pos].tolist():
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

    def full_box(self, rows: int) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """The box and level masks (None when no split is categorical) of
        the whole domain, as matrices of ``rows`` equal rows."""
        schema = self.trees[0].schema
        low, high = ([getattr(schema.features[j], a) for j in schema.numeric_indices]
                     for a in ("low", "high"))
        box = np.array([np.nextafter(low, -np.inf).tolist() + [0.0] + high + [0.0]] * rows)
        return box, np.full((rows, self.words), _WORD, dtype=np.uint64) if self.categorical else None

    def meets(self, at: np.ndarray, box: np.ndarray,
              masks: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Which sides of the splits at positions ``at`` the rows of ``box``
        and ``masks`` (None: every level) meet, a row per position."""
        cell = np.arange(len(at)) * (2 * self.slots) + self.slot[at]
        t, flat = self.threshold[at], box.ravel()
        on_left, on_right = t > flat[cell], t < flat[cell + self.slots]
        if masks is not None:
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


def _cut_reach(nodes: NodeTable, roots: np.ndarray) -> np.ndarray:
    """The positions reached from ``roots`` through splits that leave
    neither side of their node's box empty: one frontier of boxes over all
    the trees. Every node of those trees must be the child of at most one
    split, on one side, so that no node is reached twice."""
    reached = np.zeros(len(nodes.kind), dtype=bool)
    pos = roots
    box, masks = nodes.full_box(len(pos))
    while pos.size:
        reached[pos] = True
        rows = (nodes.left[pos] >= 0).nonzero()[0]
        rows = rows[np.logical_and(*nodes.meets(pos[rows], box[rows],
                                                None if masks is None else masks[rows]))]
        pos, k = pos[rows], len(rows)
        rows = np.concatenate((rows, rows))
        box, masks = box[rows], None if masks is None else masks[rows]
        nodes.narrow(pos, box, masks, np.arange(k), True)
        nodes.narrow(pos, box, masks, np.arange(k, 2 * k), False)
        pos = np.concatenate((nodes.left[pos], nodes.right[pos]))
    return reached


def partition_faults(tree: Tree, well: Optional[Sequence[bool]] = None) -> tuple[list[int], int]:
    """The positions of the splits reachable from the root that leave a side
    of their node's region empty, each decided by one :meth:`Region.split`,
    depth first, right before left, and the number of nodes placed. Each
    node that is ``well`` (by default every node) is placed at most once, so
    a cycle of consistent links cannot loop; it never goes below a fault."""
    left, right, splits = tree.left_pos.tolist(), tree.right_pos.tolist(), tree.splits()
    placed, faults, stack = set(), [], [(tree.root_pos, Region.full(tree.schema))]
    while stack:
        i, region = stack.pop()
        if i in placed or not (well is None or well[i]):
            continue
        placed.add(i)
        if left[i] >= 0:
            sides = region.split(splits[i])
            if None in sides:
                faults.append(i)
            else:
                stack += zip((left[i], right[i]), sides)
    return faults, len(placed)


def check_trees(trees: Sequence[Tree]) -> list[list[str]]:
    """The violations of each of some trees on one schema, as :func:`validate`
    gives them.

    The trees are decided together over one :class:`NodeTable` of all
    their nodes: each node rule is a mask, and the splits of the trees
    without hyperplanes one frontier of boxes, which also finds the nodes
    the root reaches. A tree with hyperplanes that passes the masks is valid
    when :func:`partition_faults` finds no fault and places every node. A
    tree that may be invalid is then checked alone, one node at a time
    (:func:`treealgebra.oracle.validate_reference`), and that check writes
    its messages; a tree found valid never loads the oracle.
    """
    if not trees:
        return []
    nodes, schema = NodeTable(trees), trees[0].schema
    ids, left, right, parent = (np.concatenate([getattr(t, a) for t in trees])
                                for a in ("ids", "left", "right", "parent"))
    tree_of, kind, leaf = nodes.tree_of, nodes.kind, nodes.leaf
    at_left, at_right = nodes.left, nodes.right
    # two distinct children that name the node as their parent; a child
    # named on both sides (a twin) is left to the walk, which places it once
    linked = ((at_left >= 0) & (at_right >= 0) & (at_left != at_right)
              & (parent[at_left] == ids) & (parent[at_right] == ids))
    # a numeric split reads a spare slot unless its feature is numeric
    faulty = np.where(kind == NUMERIC, (nodes.slot == nodes.slots - 1) | ~np.isfinite(nodes.threshold),
                      (kind == CATEGORICAL) & ~nodes.proper)
    at = (kind == HYPERPLANE).nonzero()[0]
    faulty[at] = [bool(split_faults(h, schema)) for h in nodes.split[at].tolist()]
    sound = np.where(linked, (kind > 0) & (leaf < 0) & ~faulty,
                     (left < 0) & (right < 0) & (leaf >= 0) & (kind == 0))
    live, roots = nodes.roots >= 0, nodes.roots
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
        suspect[t] = partition_faults(trees[t]) != ([], trees[t].n_nodes)
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

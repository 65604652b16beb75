"""Geometric predicates and measures over regions.

Everything the combination and distance algorithms need to ask about
geometry lives here: does a split bipartition a region, do two splits
induce the same bipartition of a region, how much mass does a region carry,
and does a hyperplane intersect a polyhedron (a linear-programming test).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from . import simplex
from .errors import (
    DomainError,
    SchemaError,
    UnboundedProblemError,
    UnsupportedGeometryError,
)
from .trees import (
    CategoricalFeature,
    CategoricalSubset,
    FeatureSchema,
    Hyperplane,
    Interval,
    NumericFeature,
    NumericThreshold,
    Region,
    Side,
    Split,
)

__all__ = [
    "PartitionOutcome",
    "HyperplaneTestResult",
    "UniformBox",
    "Empirical",
    "Measure",
    "UNIFORM",
    "split_partitions_region",
    "region_measure",
    "hyperplane_intersects_polyhedron",
]


class PartitionOutcome(Enum):
    SPLITS_REGION = "splits_region"
    REGION_IN_LEFT = "region_in_left"
    REGION_IN_RIGHT = "region_in_right"


class HyperplaneTestResult(Enum):
    INTERSECTS = "intersects"
    POLYHEDRON_IN_UPPER = "polyhedron_in_upper"
    POLYHEDRON_IN_LOWER = "polyhedron_in_lower"
    EMPTY_POLYHEDRON = "empty_polyhedron"


# ---------------------------------------------------------------------------
# Measures


@dataclass(frozen=True)
class UniformBox:
    """The uniform probability measure: independent uniform marginals on the
    bounding box intervals and uniform weights on categorical levels."""


UNIFORM = UniformBox()


@dataclass(frozen=True, eq=False)
class Empirical:
    """Point masses at encoded sample points; weights sum to one."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        if len(pts) != len(w):
            raise DomainError("points and weights differ in length")
        if np.any(w < 0):
            raise DomainError("negative empirical weight")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise DomainError(f"empirical weights sum {w.sum()!r} != 1")

    @classmethod
    def from_rows(
        cls,
        schema: FeatureSchema,
        rows: Sequence[Sequence],
        weights: Optional[Sequence[float]] = None,
    ) -> "Empirical":
        pts = schema.encode_points(rows)
        if weights is None:
            w = np.full(len(pts), 1.0 / len(pts))
        else:
            w = np.asarray(list(weights), dtype=float)
        return cls(pts, w)


Measure = Union[UniformBox, Empirical]


def region_measure(region: Region, measure: Measure) -> float:
    """Probability mass of a region.

    The uniform measure is a product over features of normalized interval
    lengths and level fractions; it cannot handle half-space constraints
    (that would mean computing polyhedral volumes). The empirical measure
    sums the weights of the sample points inside the region and supports
    half-spaces.
    """
    if isinstance(measure, UniformBox):
        if region.half_spaces:
            raise UnsupportedGeometryError(
                "uniform measure of a region with hyperplane constraints"
            )
        mass = 1.0
        for f, cons in zip(region.schema.features, region.constraints):
            if isinstance(f, NumericFeature):
                mass *= cons.length / (f.high - f.low)
            else:
                mass *= len(cons) / len(f.levels)
        return mass
    mask = region.contains_batch(measure.points)
    return float(measure.weights[mask].sum())


# ---------------------------------------------------------------------------
# Split vs region


def split_partitions_region(split: Split, region: Region) -> PartitionOutcome:
    """Report whether a split bipartitions a region, or which side holds it."""
    schema = region.schema
    if isinstance(split, NumericThreshold):
        f = schema.features[split.feature] if 0 <= split.feature < schema.n_features else None
        if not isinstance(f, NumericFeature):
            raise SchemaError(f"numeric split on feature index {split.feature}")
        if region.half_spaces:
            left_nonempty = region.try_refine(split, Side.LEFT) is not None
            right_nonempty = region.try_refine(split, Side.RIGHT) is not None
        else:
            iv: Interval = region.constraints[split.feature]
            t = split.threshold
            left_nonempty = iv.low < t or (iv.low == t and iv.low_closed)
            right_nonempty = iv.high > t
    elif isinstance(split, CategoricalSubset):
        f = schema.features[split.feature] if 0 <= split.feature < schema.n_features else None
        if not isinstance(f, CategoricalFeature):
            raise SchemaError(f"categorical split on feature index {split.feature}")
        levels: frozenset = region.constraints[split.feature]
        inter = levels & split.left_levels
        left_nonempty = bool(inter)
        right_nonempty = inter != levels
    else:
        a, b = region.lp_rows()
        result = hyperplane_intersects_polyhedron(split, list(zip(a, b)))
        if result is HyperplaneTestResult.INTERSECTS:
            return PartitionOutcome.SPLITS_REGION
        if result is HyperplaneTestResult.POLYHEDRON_IN_LOWER:
            return PartitionOutcome.REGION_IN_LEFT
        if result is HyperplaneTestResult.POLYHEDRON_IN_UPPER:
            return PartitionOutcome.REGION_IN_RIGHT
        raise DomainError("region is empty")
    if left_nonempty and right_nonempty:
        return PartitionOutcome.SPLITS_REGION
    if left_nonempty:
        return PartitionOutcome.REGION_IN_LEFT
    if right_nonempty:
        return PartitionOutcome.REGION_IN_RIGHT
    raise DomainError("region is empty")


def same_partition_in_region(
    split_u: Split, split_v: Split, region: Region
) -> Optional[str]:
    """``"same"``/``"swapped"`` when two splits induce one bipartition of the
    region, else None.

    Numeric thresholds and hyperplanes are compared by exact equality (trees
    built from the same data reuse exact split values; epsilon-merging would
    silently change the represented function). Categorical splits compare
    their left level sets restricted to the region.
    """
    if isinstance(split_u, NumericThreshold) and isinstance(split_v, NumericThreshold):
        if split_u.feature == split_v.feature and split_u.threshold == split_v.threshold:
            return "same"
        return None
    if isinstance(split_u, CategoricalSubset) and isinstance(split_v, CategoricalSubset):
        if split_u.feature != split_v.feature:
            return None
        admissible: frozenset = region.constraints[split_u.feature]
        lu = split_u.left_levels & admissible
        lv = split_v.left_levels & admissible
        if lu == lv:
            return "same"
        if lu == admissible - lv:
            return "swapped"
        return None
    if isinstance(split_u, Hyperplane) and isinstance(split_v, Hyperplane):
        if (
            split_u.coefficients == split_v.coefficients
            and split_u.offset == split_v.offset
        ):
            return "same"
        return None
    return None


# ---------------------------------------------------------------------------
# Hyperplane vs polyhedron


def hyperplane_intersects_polyhedron(
    h: Hyperplane, constraints: Sequence[tuple[Sequence[float], float]]
) -> HyperplaneTestResult:
    """Linear-programming test: does ``{c'x = b}`` meet ``{A x <= b_A}``?

    ``constraints`` are closed half-space rows ``(a_i, b_i)`` meaning
    ``a_i'x <= b_i`` and must include a bounding box so the polyhedron is
    bounded. Maximizes ``c'x`` under the extra cap ``c'x <= b + 1``; when
    that is infeasible the test is rerun with signs reversed to distinguish
    an empty polyhedron from one entirely above the hyperplane. Otherwise
    the maximum and minimum of ``c'x`` locate the polyhedron: below the
    hyperplane, above it, or straddling (touching counts as intersecting).
    """
    c = np.asarray(h.coefficients, dtype=float)
    if len(constraints) == 0:
        raise UnboundedProblemError("no constraints: polyhedron is unbounded")
    a = np.array([np.asarray(row, dtype=float) for row, _ in constraints])
    b = np.array([float(rhs) for _, rhs in constraints])
    capped = simplex.solve_max(c, np.vstack([a, c]), np.append(b, h.offset + 1.0))
    if capped.status == simplex.INFEASIBLE:
        reverse = simplex.solve_max(
            -c, np.vstack([a, -c]), np.append(b, -h.offset + 1.0)
        )
        if reverse.status == simplex.INFEASIBLE:
            return HyperplaneTestResult.EMPTY_POLYHEDRON
        if reverse.status == simplex.UNBOUNDED:
            raise UnboundedProblemError("polyhedron is unbounded")
        return HyperplaneTestResult.POLYHEDRON_IN_UPPER
    if capped.status == simplex.UNBOUNDED:
        raise UnboundedProblemError("polyhedron is unbounded")
    if capped.value < h.offset:
        return HyperplaneTestResult.POLYHEDRON_IN_LOWER
    lowest = simplex.solve_max(-c, a, b)
    if lowest.status == simplex.UNBOUNDED:
        raise UnboundedProblemError("polyhedron is unbounded")
    if -lowest.value > h.offset:
        return HyperplaneTestResult.POLYHEDRON_IN_UPPER
    return HyperplaneTestResult.INTERSECTS

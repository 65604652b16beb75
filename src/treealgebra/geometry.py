"""The probability measures, and the comparison of two splits within a region.

Do two splits induce the same bipartition of a region? Which sides of a
split a region meets is :meth:`treealgebra.trees.Region.split`, which
answers it with at most one feasibility LP (:mod:`treealgebra.simplex`).
The mass of a region is reference code,
:func:`treealgebra.oracle.region_measure`; the statistics in
:mod:`treealgebra.measures` never build regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError
from .trees import (
    CategoricalSubset,
    FeatureSchema,
    Hyperplane,
    NumericThreshold,
    Region,
    Split,
)

__all__ = [
    "UniformBox",
    "Empirical",
    "Measure",
    "UNIFORM",
]


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


# ---------------------------------------------------------------------------
# Split vs split


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

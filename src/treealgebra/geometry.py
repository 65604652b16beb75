"""The probability measures.

Which sides of a split a region meets is decided by
:meth:`treealgebra.trees.Region.split`, with at most one feasibility LP
(:mod:`treealgebra.simplex`). The mass of a region is reference code
(:func:`treealgebra.oracle.region_measure`): the statistics in
:mod:`treealgebra.measures` never build regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError
from .trees import FeatureSchema

__all__ = [
    "UniformBox",
    "Empirical",
    "Measure",
]


# ---------------------------------------------------------------------------
# Measures


@dataclass(frozen=True)
class UniformBox:
    """The uniform probability measure: independent uniform marginals on the
    bounding box intervals and uniform weights on categorical levels."""


@dataclass(frozen=True, eq=False)
class Empirical:
    """Point masses at encoded sample points; weights sum to one, and are
    equal when none are given."""

    points: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if not len(pts):
            raise DomainError("empirical measure needs at least one point")
        w = np.asarray(np.full(len(pts), 1.0 / len(pts)) if self.weights is None
                       else self.weights, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1:
            raise DomainError(f"empirical weights have shape {w.shape}, not one weight per point")
        if len(pts) != len(w):
            raise DomainError("points and weights differ in length")
        if not np.isfinite(pts).all():
            raise DomainError("empirical point is not finite")
        if not np.isfinite(w).all():
            raise DomainError("empirical weight is not finite")
        if np.any(w < 0):
            raise DomainError("negative empirical weight")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise DomainError(f"empirical weights sum {float(w.sum())!r} != 1")

    @classmethod
    def from_rows(
        cls,
        schema: FeatureSchema,
        rows: Sequence[Sequence],
        weights: Optional[Sequence[float]] = None,
    ) -> "Empirical":
        return cls(schema.encode_points(rows), None if weights is None else list(weights))


Measure = Union[UniformBox, Empirical]

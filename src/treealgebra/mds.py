"""Classical (Torgerson) multidimensional scaling.

Double-centers the squared distance matrix and eigendecomposes the
resulting Gram matrix with ``numpy.linalg.eigh``; coordinates come from
the top eigenpairs, with negative eigenvalues truncated to zero. Meant for
the small matrices produced by pairwise tree distances, not large-scale
embedding work.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["classical_mds", "mds_stress", "pairwise_distances"]


def _check_distance_matrix(dist: np.ndarray) -> np.ndarray:
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DomainError("distance matrix must be square")
    if not np.isfinite(d).all():
        raise DomainError("distance matrix has non-finite entries")
    if np.any(d < -1e-12):
        raise DomainError("distance matrix has negative entries")
    if np.max(np.abs(d - d.T)) > 1e-9:
        raise DomainError("distance matrix is not symmetric")
    if np.max(np.abs(np.diag(d))) > 1e-9:
        raise DomainError("distance matrix has a nonzero diagonal")
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


def classical_mds(dist: np.ndarray, dims: int) -> np.ndarray:
    """Coordinates whose Euclidean distances best approximate ``dist``.

    Returns an (n, dims) matrix. When fewer than ``dims`` eigenvalues are
    positive the trailing columns are zero (the effective dimension is the
    number of nonzero columns); the embedding is unique only up to an
    orthogonal transform, so compare recovered distances rather than raw
    coordinates.
    """
    d = _check_distance_matrix(dist)
    n = d.shape[0]
    if not 1 <= dims <= n:
        raise DomainError(f"dims must be in [1, {n}]")
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ (d * d) @ j
    evals, evecs = np.linalg.eigh(b)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    coords = np.zeros((n, dims))
    k = min(dims, int(np.sum(evals > 0.0)))
    if k:
        coords[:, :k] = evecs[:, :k] * np.sqrt(evals[:k])
    return coords


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix of a coordinate configuration."""
    c = np.asarray(coords, dtype=float)
    diff = c[:, None, :] - c[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def mds_stress(dist: np.ndarray, coords: np.ndarray) -> float:
    """Sum of squared distance residuals over the sum of squared distances;
    0 when every distance is 0."""
    d, c = _check_distance_matrix(dist), np.asarray(coords, dtype=float)
    if c.ndim != 2 or len(c) != len(d):
        raise DomainError(f"coordinates have shape {c.shape}, not one row per point ({len(d)})")
    if not np.isfinite(c).all():
        raise DomainError("coordinates must be finite")
    rec = pairwise_distances(c)
    iu = np.triu_indices(len(d), k=1)
    denom = float((d[iu] ** 2).sum())
    if denom == 0.0:
        return 0.0
    return float(((d[iu] - rec[iu]) ** 2).sum() / denom)

"""A small dense Phase-I simplex: one point of ``{x : A x <= b}``, or None.

That is all the region tests need: the constraint rows always include a
bounding box, so the set is a (possibly empty) polytope in a handful of
dimensions (on the empirical-sample benchmark inputs, seeds 1-3, the LPs of
``affine``, ``combine`` and ``validate`` have 11-20 rows over 5 unknowns).
Free variables are handled with the classic ``x = x+ - x-`` splitting and
Bland's rule keeps the tiny tableaus from cycling. The tableau is built
and pivoted as arrays; two loops stay because an array form could change
a result: Bland's ratio scan, whose running ``best`` decides ties between
rows, and the row-by-row subtraction that builds the Phase-I cost row,
which a numpy sum could round differently. Not for large programs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


_TOL = 1e-9


def feasible(a, b) -> Optional[np.ndarray]:
    """A point of ``{x : a x <= b}``, or None when that set is empty.

    The point is the basic solution Phase I ends on, a vertex of the set; it
    meets every row to within the solver tolerance.
    """
    a = np.asarray(a, dtype=float)
    b = np.atleast_1d(np.asarray(b, dtype=float))
    n = a.shape[1]
    y = _phase1(np.hstack([a, -a]), b)
    return None if y is None else y[:n] - y[n:]


def _phase1(a, b) -> Optional[np.ndarray]:
    """A point of ``{y >= 0 : a y <= b}``, or None when that set is empty."""
    m, n = a.shape
    art_rows = np.flatnonzero(b < 0)
    k = len(art_rows)
    sign = np.where(b < 0, -1.0, 1.0)
    t = np.zeros((m + 1, n + m + k + 1))
    t[:m, :n] = sign[:, None] * a
    t[:m, n : n + m] = np.diag(sign)
    t[:m, -1] = sign * b
    # a row with a negative right-hand side starts on its artificial column
    basis = np.arange(n, n + m)
    basis[art_rows] = np.arange(n + m, n + m + k)
    t[art_rows, basis[art_rows]] = 1.0

    if k:
        # minimize the sum of artificials (stored as a cost row)
        for i in art_rows:
            t[-1, :] -= t[i, :]
        t[-1, n + m : n + m + k] = 0.0
        _pivot_until_optimal(t, basis, n + m + k)
        if -t[-1, -1] > _TOL:
            return None
    # an artificial still basic sits at zero level and leaves y unchanged
    y = np.zeros(t.shape[1] - 1)
    y[basis] = t[:m, -1]
    return y[:n]


def _pivot_until_optimal(t, basis, n_cols):
    while True:
        negative = t[-1, :n_cols] < -_TOL
        col = negative.argmax()
        if not negative[col]:
            return
        rows = (t[:-1, col] > _TOL).nonzero()[0]
        leave, best = -1, np.inf
        for i, ratio in zip(rows.tolist(), (t[rows, -1] / t[rows, col]).tolist()):
            if ratio < best - _TOL or (abs(ratio - best) <= _TOL and basis[i] < basis[leave]):
                leave, best = i, ratio
        if leave < 0:
            # cannot happen in Phase I: its objective is bounded below by 0
            return
        t[leave, :] /= t[leave, col]
        others = t[:, col] != 0.0
        others[leave] = False
        t[others, :] -= t[others, col, None] * t[leave, :]
        basis[leave] = col

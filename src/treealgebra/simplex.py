"""A small dense Phase-I simplex: one point of ``{x : A x <= b}``, or None.

That is all the region tests need: the constraint rows always include a
bounding box, so the set is a (possibly empty) polytope in a handful of
dimensions. Free variables are handled with the classic ``x = x+ - x-``
splitting and Bland's rule keeps the tiny tableaus from cycling. Not
intended for large programs.
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
    if y is None:
        return None
    return y[:n] - y[n:]


def _phase1(a, b) -> Optional[np.ndarray]:
    """A point of ``{y >= 0 : a y <= b}``, or None when that set is empty."""
    m, n = a.shape
    art_rows = [i for i in range(m) if b[i] < 0]
    k = len(art_rows)
    width = n + m + k + 1
    t = np.zeros((m + 1, width))
    basis = np.empty(m, dtype=int)
    art_col = {}
    for pos, i in enumerate(art_rows):
        art_col[i] = n + m + pos
    for i in range(m):
        sign = -1.0 if b[i] < 0 else 1.0
        t[i, :n] = sign * a[i]
        t[i, n + i] = sign
        t[i, -1] = sign * b[i]
        if i in art_col:
            t[i, art_col[i]] = 1.0
            basis[i] = art_col[i]
        else:
            basis[i] = n + i

    if k:
        # minimize the sum of artificials (stored as a cost row)
        for i in art_rows:
            t[-1, :] -= t[i, :]
        t[-1, n + m : n + m + k] = 0.0
        _pivot_until_optimal(t, basis, n + m + k)
        if -t[-1, -1] > _TOL:
            return None
    # an artificial still basic sits at zero level and leaves y unchanged
    y = np.zeros(width - 1)
    y[basis] = t[:m, -1]
    return y[:n]


def _pivot_until_optimal(t, basis, n_cols):
    m = t.shape[0] - 1
    while True:
        enter = -1
        for j in range(n_cols):
            if t[-1, j] < -_TOL:
                enter = j
                break
        if enter < 0:
            return
        leave, best = -1, np.inf
        for i in range(m):
            if t[i, enter] > _TOL:
                ratio = t[i, -1] / t[i, enter]
                if ratio < best - _TOL or (
                    abs(ratio - best) <= _TOL
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    leave, best = i, ratio
        if leave < 0:
            # cannot happen in Phase I: its objective is bounded below by 0
            return
        _pivot(t, basis, leave, enter)


def _pivot(t, basis, row, col):
    t[row, :] /= t[row, col]
    for i in range(t.shape[0]):
        if i != row and t[i, col] != 0.0:
            t[i, :] -= t[i, col] * t[row, :]
    basis[row] = col

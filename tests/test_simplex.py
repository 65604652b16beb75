"""The dense Phase-I simplex: its empty/nonempty verdict against box vertex
enumeration, the point it returns against every row, and that point bit
for bit on degenerate systems."""

import itertools

import numpy as np
import pytest

from treealgebra import simplex


def box_rows(lows, highs):
    n = len(lows)
    rows, rhs = [], []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append(e.copy())
        rhs.append(highs[i])
        rows.append(-e)
        rhs.append(-lows[i])
    return np.array(rows), np.array(rhs)


def box_vertices(lows, highs):
    return np.array(list(itertools.product(*zip(lows, highs))))


def assert_point_of(x, a, b):
    assert x is not None
    assert (a @ x <= b + 1e-9).all()


def test_known_lp():
    # x + y >= 2 leaves the unit square only its corner (1, 1)
    a, b = box_rows([0, 0], [1, 1])
    a2, b2 = np.vstack([a, [-1.0, -1.0]]), np.append(b, -2.0)
    x = simplex.feasible(a2, b2)
    assert_point_of(x, a2, b2)
    assert np.allclose(x, [1.0, 1.0], atol=1e-9)


def test_extra_row_binds():
    a, b = box_rows([0, 0], [1, 1])
    a2 = np.vstack([a, [1.0, 1.0], [-1.0, -1.0]])
    b2 = np.append(b, [0.5, -0.5])  # x + y = 0.5
    x = simplex.feasible(a2, b2)
    assert_point_of(x, a2, b2)
    assert abs(x.sum() - 0.5) <= 1e-9


def test_infeasible():
    a = np.array([[1.0], [-1.0]])
    b = np.array([0.0, -1.0])  # x <= 0 and x >= 1
    assert simplex.feasible(a, b) is None


def test_negative_coordinates():
    # the box [-5, -1] x [-3, 4] cut down to its corner x >= -1, y <= -3
    a, b = box_rows([-5, -3], [-1, 4])
    a2, b2 = np.vstack([a, [-1.0, 0.0], [0.0, 1.0]]), np.append(b, [1.0, -3.0])
    x = simplex.feasible(a2, b2)
    assert_point_of(x, a2, b2)
    assert np.allclose(x, [-1.0, -3.0], atol=1e-9)


def test_random_boxes_match_vertex_enumeration(rng):
    """A box cut by one half-space is empty exactly when every vertex lies
    outside it."""
    verdicts = set()
    for _ in range(300):
        n = int(rng.integers(1, 5))
        lows = rng.uniform(-10, 5, n)
        highs = lows + rng.uniform(0.1, 8, n)
        c = rng.normal(size=n)
        vals = box_vertices(lows, highs) @ c
        d = float(rng.uniform(vals.min() - 2.0, vals.max()))
        if abs(vals.min() - d) <= 1e-9:
            continue
        a, b = box_rows(lows, highs)
        a2, b2 = np.vstack([a, c]), np.append(b, d)
        x = simplex.feasible(a2, b2)
        assert (x is not None) == (vals.min() <= d)
        if x is not None:
            assert_point_of(x, a2, b2)
        verdicts.add(x is None)
    assert verdicts == {True, False}


def test_random_boxes_with_cut_rows(rng):
    for _ in range(200):
        n = int(rng.integers(2, 4))
        lows = rng.uniform(-5, 0, n)
        highs = lows + rng.uniform(0.5, 5, n)
        cuts = rng.normal(size=(2, n))
        # both cuts pass through the box center, so the set is never empty
        center = (lows + highs) / 2
        a, b = box_rows(lows, highs)
        a2 = np.vstack([a, cuts])
        b2 = np.append(b, cuts @ center)
        assert_point_of(simplex.feasible(a2, b2), a2, b2)


def stacked(lows, highs, rows, rhs):
    a, b = box_rows(lows, highs)
    return np.vstack([a, rows]), np.append(b, rhs)


# Degenerate systems whose vertex Bland's tie rule picks, with the exact
# point (``float.hex`` per coordinate) the solver returns, or None.
PINNED = {
    # x + y >= 1.3, 2x - y <= 0.5 and x - 3y <= -1.5 all pass through (0.6, 0.7)
    "three_rows_one_vertex": (
        stacked([0.0, 0.0], [1.0, 1.0], [[-1.0, -1.0], [2.0, -1.0], [1.0, -3.0]],
                [-1.3, 0.5, -1.5]),
        ["0x1.3333333333333p-1", "0x1.6666666666667p-1"]),
    # four rows through (0.5, 0.25, 1.0)
    "four_rows_one_vertex_3d": (
        stacked([-0.5, -0.25, 0.0], [1.5, 0.75, 2.0],
                [[-1.0, -1.0, -1.0], [-1.0, 0.0, -2.0], [0.0, -3.0, -1.0], [-2.0, -1.0, 0.0]],
                [-1.75, -2.5, -1.75, -1.25]),
        ["0x1.0000000000000p-1", "0x1.0000000000001p-2", "0x1.0000000000000p+0"]),
    # x + y = 0 twice over, y - x >= 0.5 twice, and an all-zero row
    "duplicate_rows_zero_rhs": (
        stacked([-1.0, -1.0], [1.0, 1.0],
                [[1.0, 1.0], [1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [1.0, -1.0], [0.0, 0.0]],
                [0.0, 0.0, 0.0, -0.5, -0.5, 0.0]),
        ["-0x1.0000000000000p-2", "0x1.0000000000000p-2"]),
    # every box row of a negative box and three cuts need artificials
    "negative_rhs_artificials": (
        stacked([-5.0, -3.0, -2.0], [-1.0, 4.0, 3.0],
                [[0.3, -0.7, 1.1], [-1.0, -1.0, 0.0], [0.0, 1.0, -2.0]], [-0.2, -0.9, -1.7]),
        ["-0x1.1c71c71c71c74p+1", "0x1.8fa4fa4fa4fa8p+1", "0x1.349f49f49f4a0p+1"]),
    # x <= 0.25 and x >= 0.25 + 2e-9: empty by twice the tolerance
    "infeasible_by_2e-9": (stacked([0.0], [1.0], [[1.0], [-1.0]], [0.25, -(0.25 + 2e-9)]), None),
    # the same gap of 5e-10 lies within the tolerance
    "within_tol_5e-10": (stacked([0.0], [1.0], [[1.0], [-1.0]], [0.25, -(0.25 + 5e-10)]),
                         ["0x1.0000000000000p-2"]),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_degenerate_systems_end_on_pinned_point(name):
    (a, b), expected = PINNED[name]
    x = simplex.feasible(a, b)
    assert (None if x is None else [float(v).hex() for v in x]) == expected

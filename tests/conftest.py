import json

import numpy as np
import pytest

from treealgebra import io, simplex
from treealgebra import (
    FeatureSchema,
    Hyperplane,
    NumericFeature,
    NumericThreshold,
    Scalar,
    TreeBuilder,
    UniformBox,
)


@pytest.fixture
def count_phase1(monkeypatch):
    """The list of Phase-I simplex runs from now on, as (a, b) pairs: the
    feasibility decisions that no certificate settled."""
    calls = []
    phase1 = simplex._phase1

    def counted(a, b):
        calls.append((np.array(a), np.array(b)))
        return phase1(a, b)

    monkeypatch.setattr(simplex, "_phase1", counted)
    return calls


@pytest.fixture
def d2():
    """The two-feature box [0,10] x [0,10] used by the worked examples."""
    return FeatureSchema((NumericFeature("x1", 0, 10), NumericFeature("x2", 0, 10)))


@pytest.fixture
def make_stump(d2):
    def _make(feature, threshold, low=0.0, high=1.0, schema=None):
        b = TreeBuilder(schema or d2)
        root = b.add_root()
        left, right = b.split_node(root, NumericThreshold(feature, threshold))
        b.set_value(left, Scalar(low))
        b.set_value(right, Scalar(high))
        return b.build()

    return _make


@pytest.fixture
def make_constant(d2):
    def _make(value, schema=None):
        b = TreeBuilder(schema or d2)
        b.set_value(b.add_root(), Scalar(value))
        return b.build()

    return _make


@pytest.fixture
def stump4(make_stump):
    return make_stump(0, 4.0)


@pytest.fixture
def stump6(make_stump):
    return make_stump(0, 6.0)


@pytest.fixture
def stump_y5(make_stump):
    return make_stump(1, 5.0)


@pytest.fixture
def unit2():
    """The unit square [0,1] x [0,1]."""
    return FeatureSchema((NumericFeature("x0", 0, 1), NumericFeature("x1", 0, 1)))


@pytest.fixture
def mixed_pair(unit2):
    """Two trees on the unit square that mix hyperplane and numeric splits.

    A is the stump ``x0 + x1 <= 0.5``. B splits on ``x0 <= 0.8`` and then,
    on its right, on ``x0 - x1 <= 0.9``. Inside A's left side the box still
    reaches ``x0 > 0.8`` but the half-space does not, so only the LP sees
    that B's first split misses that region.
    """
    a = TreeBuilder(unit2)
    left, right = a.split_node(a.add_root(), Hyperplane((1.0, 1.0), 0.5))
    a.set_value(left, Scalar(1.0))
    a.set_value(right, Scalar(2.0))
    b = TreeBuilder(unit2)
    left, right = b.split_node(b.add_root(), NumericThreshold(0, 0.8))
    b.set_value(left, Scalar(3.0))
    right_left, right_right = b.split_node(right, Hyperplane((1.0, -1.0), 0.9))
    b.set_value(right_left, Scalar(5.0))
    b.set_value(right_right, Scalar(7.0))
    return a.build(), b.build()


@pytest.fixture
def on_plane():
    """The offset that puts an encoded point exactly on the hyperplane
    ``c'x <= offset``: ``c'x`` summed left to right over the numeric
    features, as routing sums it."""

    def _offset(coefficients, x):
        acc = 0.0
        for c, xj in zip(coefficients, x):
            acc += c * xj
        return acc

    return _offset


@pytest.fixture
def uniform():
    return UniformBox()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def workdir(tmp_path, d2, make_stump, make_constant):
    stumps = {
        "stump4": make_stump(0, 4.0),
        "stump6": make_stump(0, 6.0),
        "stump_y5": make_stump(1, 5.0),
    }
    io.save_tree(stumps["stump4"], str(tmp_path / "stump4.json"))
    io.save_tree(stumps["stump6"], str(tmp_path / "stump6.json"))
    io.save_tree(make_constant(7.0), str(tmp_path / "const7.json"))
    forest = io.ForestFile(d2, list(stumps.values()), {"note": "three stumps"})
    io.save_forest(forest, str(tmp_path / "three.json"))
    (tmp_path / "schema.json").write_text(
        json.dumps({"schema": io._schema_to_dict(d2)}) + "\n"
    )
    (tmp_path / "w.csv").write_text("0.5\n0.25\n0.25\n")
    return tmp_path

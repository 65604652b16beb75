"""The operand rule: every operation on trees checks its input trees in one
place, in one order, and names itself when it cannot take their leaves."""

import tracemalloc

import numpy as np
import pytest

import treealgebra as ta
from treealgebra import io, measures
from treealgebra.cli import run_cli
from treealgebra.trees import ClassProbs, NumericThreshold, Scalar

U = ta.UniformBox()

# each operation as a call on a list of two trees (one-tree operations take
# the first), and whether it takes scalar leaves only
OPERATIONS = {
    "tree_mean": (lambda ts: ta.tree_mean(ts[0], U), False),
    "tree_variance": (lambda ts: ta.tree_variance(ts[0], U), False),
    "tree_statistics": (lambda ts: ta.tree_statistics(ts[0], U), False),
    "evaluate_batch": (lambda ts: ta.evaluate_batch(ts[0], np.zeros((1, 2))), False),
    "tree_distance": (lambda ts: ta.tree_distance(*ts, U), False),
    "tree_inner_product": (lambda ts: ta.tree_inner_product(*ts, U), True),
    "tree_covariance": (lambda ts: ta.tree_covariance(*ts, U), True),
    "tree_correlation": (lambda ts: ta.tree_correlation(*ts, U), True),
    "forest_distance": (lambda ts: ta.forest_distance(ts[:1], ts[1:], U), True),
    "distance_matrix": (lambda ts: ta.distance_matrix(ts, U), False),
    "combine_pair": (lambda ts: ta.combine_pair(*ts), False),
    "combine_many": (lambda ts: ta.combine_many(ts), False),
    "affine_combination": (lambda ts: ta.affine_combination(ts, [1.0] * len(ts)), False),
    "grid_integral": (lambda ts: ta.grid_integral(ts, "product", U), True),
    "monte_carlo_integral": (lambda ts: ta.monte_carlo_integral(ts, "product", U, 1000, 0), True),
}
ONE_TREE = {"tree_mean", "tree_variance", "tree_statistics", "evaluate_batch"}

MIX_KINDS = "trees mix leaf kinds ['class_probs', 'scalar']"
MIX_LENGTHS = "trees mix class-probability lengths [2, 3]"
# each bad input: its error class and its text for a scalar-only operation
# and for any other (None where the input is valid)
SCHEMAS = "trees use different schemas"
CASES = {
    "two schemas": (ta.SchemaError, SCHEMAS, SCHEMAS),
    # the schema is checked before the kinds
    "two schemas and two kinds": (ta.SchemaError, SCHEMAS, SCHEMAS),
    "tuple leaves": (ta.LeafKindError, "{} needs scalar leaves",
                     "{} needs scalar or class_probs leaves"),
    "class_probs leaves": (ta.LeafKindError, "{} needs scalar leaves", None),
    "kinds mixed across trees": (ta.LeafKindError, "{} needs scalar leaves", MIX_KINDS),
    "scalar and tuple across trees": (ta.LeafKindError, "{} needs scalar leaves",
                                      "{} needs scalar or class_probs leaves"),
    "one tree of mixed kinds": (ta.LeafKindError, "{} needs scalar leaves", MIX_KINDS),
    "one tree of mixed lengths": (ta.LeafKindError, "{} needs scalar leaves", MIX_LENGTHS),
    "lengths mixed across trees": (ta.LeafKindError, "{} needs scalar leaves", MIX_LENGTHS),
    # a leaf row -1 would read the last value of the table
    "a leaf without a value": (ta.LeafKindError, "{} needs scalar leaves",
                               "{} needs scalar or class_probs leaves"),
}


def _stump(schema, low, high):
    b = ta.TreeBuilder(schema)
    left, right = b.split_node(b.add_root(), NumericThreshold(0, 4.0))
    b.set_value(left, low)
    b.set_value(right, high)
    return b.build()


@pytest.fixture
def inputs(d2, stump4, stump6):
    """Each bad input as two trees; the one-tree inputs repeat one tree."""
    other = ta.FeatureSchema((ta.NumericFeature("x1", 0, 10), ta.NumericFeature("z", 0, 10)))
    combined = ta.combine_pair(stump4, stump6)
    p2 = _stump(d2, ClassProbs((0.5, 0.5)), ClassProbs((1.0, 0.0)))
    p3 = _stump(d2, ClassProbs((0.2, 0.3, 0.5)), ClassProbs((1.0, 0.0, 0.0)))
    kinds = _stump(d2, Scalar(1.0), ClassProbs((0.5, 0.5)))
    lengths = _stump(d2, ClassProbs((0.5, 0.5)), ClassProbs((0.2, 0.3, 0.5)))
    labelled = ta.FeatureSchema(d2.features, ("a", "b"))
    b = ta.TreeBuilder(d2)
    b.set_value(b.split_node(b.add_root(), NumericThreshold(0, 4.0))[0], Scalar(1.0))
    unset = b.build()
    return {
        "two schemas": [stump4, _stump(other, Scalar(0.0), Scalar(1.0))],
        "two schemas and two kinds": [
            stump4, _stump(labelled, ClassProbs((0.5, 0.5)), ClassProbs((1.0, 0.0)))],
        "tuple leaves": [combined, combined],
        "class_probs leaves": [p2, p2],
        "kinds mixed across trees": [stump4, p2],
        "scalar and tuple across trees": [stump4, combined],
        "one tree of mixed kinds": [kinds, kinds],
        "one tree of mixed lengths": [lengths, lengths],
        "lengths mixed across trees": [p2, p3],
        "a leaf without a value": [unset, unset],
    }


@pytest.mark.parametrize("name", OPERATIONS)
def test_every_operation_names_each_bad_input_by_one_rule(name, inputs, monkeypatch):
    def no_work(*args):
        raise AssertionError("trees were prepared before their check")

    # the check comes before any measure work
    monkeypatch.setattr(measures, "_prepare", no_work)
    call, scalar = OPERATIONS[name]
    checked = 0
    for case, (error, scalar_text, text) in CASES.items():
        trees = inputs[case]
        message = scalar_text if scalar else text
        if message is None or (name in ONE_TREE and trees[0] is not trees[1]):
            continue
        with pytest.raises(error) as raised:
            call(trees)
        assert str(raised.value) == message.format(name), case
        checked += 1
    assert checked == (5 if name in ONE_TREE else 10) - (not scalar)


def test_a_tree_without_leaf_values_has_no_kind_an_operation_takes(d2):
    with pytest.raises(ta.LeafKindError, match="^tree_mean needs scalar or class_probs leaves$"):
        ta.tree_mean(ta.TreeBuilder(d2).build(), U)


# each operation that routes points, as a call on a tree and a points matrix
ROUTERS = {
    "evaluate_batch": ta.evaluate_batch,
    "route_batch": ta.trees.route_batch,
    "tree_distance": lambda t, X: ta.tree_distance(t, t, ta.Empirical(X)),
    "distance_matrix": lambda t, X: ta.distance_matrix([t, t], ta.Empirical(X)),
    "forest_distance": lambda t, X: ta.forest_distance([t], [t], ta.Empirical(X)),
}


@pytest.mark.parametrize("name", ROUTERS)
def test_points_of_the_wrong_shape_are_refused_in_one_text(name, stump4):
    # evaluate_batch and route_batch routed a matrix of any width
    for X in (np.ones((2, 3)), np.ones((2, 1)), np.ones(2), np.ones((2, 2, 1))):
        with pytest.raises(ta.DomainError) as raised:
            ROUTERS[name](stump4, X)
        assert str(raised.value) == f"points have shape {X.shape}, not one column per feature (2)"
    ROUTERS[name](stump4, np.ones((2, 2)))  # one column per feature routes


@pytest.mark.parametrize("route", [ta.evaluate_batch, ta.trees.route_batch])
def test_points_that_are_not_bools_ints_or_floats_are_refused_by_dtype(route, stump4):
    # no conversion to float either: it would turn None into NaN and route it
    for X in (np.array([["1.0", "2.0"]]), np.array([[None, 1.0]]), np.array([[1j, 2.0]])):
        with pytest.raises(ta.DomainError) as raised:
            route(stump4, X)
        assert str(raised.value) == f"points have dtype {X.dtype}, not bool, int or float"


@pytest.mark.parametrize("route", [ta.evaluate_batch, ta.trees.route_batch])
def test_a_nested_list_routes_as_its_array_does(route, stump4):
    # a nested list ended in a bare TypeError at the first split
    X = [[1, 2], [5, 0], [4, 9]]
    expected = route(stump4, np.array(X, dtype=float))
    for points in (X, np.array(X), [[1.0, 2.0], [5.0, 0.0], [4.0, 9.0]]):
        np.testing.assert_array_equal(route(stump4, points), expected)
    np.testing.assert_array_equal(route(stump4, np.array(X) > 4),
                                  route(stump4, (np.array(X) > 4).astype(float)))


def test_a_float_matrix_is_routed_without_a_copy():
    # a stump on the first of 50 features reads one column of the points
    schema = ta.FeatureSchema(tuple(ta.NumericFeature(f"x{j}", 0.0, 1.0) for j in range(50)))
    b = ta.TreeBuilder(schema)
    for k, leaf in enumerate(b.split_node(b.add_root(), NumericThreshold(0, 0.5))):
        b.set_value(leaf, Scalar(float(k)))
    X = np.random.default_rng(0).random((1000, 50))
    tracemalloc.start()
    try:
        ta.trees.route_batch(b.build(), X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes / 4, peak


# each operation on a sequence of trees, called with none, and its text
EMPTY = [
    ("combine_many", "combine_many needs at least one tree"),
    ("affine_combination", "affine_combination needs at least one tree"),
    ("grid_integral", "grid_integral needs at least one tree"),
    ("monte_carlo_integral", "monte_carlo_integral needs at least one tree"),
    ("distance_matrix", "distance_matrix needs at least two trees"),
    ("forest_distance", "forest_distance needs nonempty forests"),
]


@pytest.mark.parametrize("name, text", EMPTY)
def test_no_trees_is_a_domain_error(name, text):
    with pytest.raises(ta.DomainError) as raised:
        OPERATIONS[name][0]([])
    assert str(raised.value) == text


def test_operands_are_checked_before_a_zero_variance(inputs, make_constant):
    with pytest.raises(ta.SchemaError, match="^trees use different schemas$"):
        ta.tree_correlation(make_constant(1.0), inputs["two schemas"][1], U)


# each command on files of tuple-leaf trees, and the operation it names
COMMANDS = [
    ("dist --a {one} --b {one}", "tree_distance needs scalar or class_probs leaves"),
    ("corr --a {one} --b {one}", "tree_correlation needs scalar leaves"),
    ("dist-matrix --forest {two} --out {out}",
     "distance_matrix needs scalar or class_probs leaves"),
    ("forest-dist --f {two} --g {two}", "forest_distance needs scalar leaves"),
    ("oracle-check --forest {two} --samples 200", "oracle-check needs scalar leaves"),
    ("combine --forest {two} --out {out}", "combine_many needs scalar or class_probs leaves"),
    ("affine --forest {two} --weights {w} --out {out}",
     "affine_combination needs scalar or class_probs leaves"),
]


@pytest.mark.parametrize("command, text", COMMANDS)
def test_every_command_names_its_operation_on_tuple_leaves(
    command, text, tmp_path, d2, stump4, stump6, capsys
):
    combined = ta.combine_pair(stump4, stump6)
    paths = {k: str(tmp_path / k) for k in ("one", "two", "out", "w")}
    io.save_tree(combined, paths["one"])
    io.save_forest(io.ForestFile(d2, [combined, combined]), paths["two"])
    (tmp_path / "w").write_text("0.5\n0.5\n")
    assert run_cli(command.format(**paths).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f'code=LEAF_KIND msg="{text}"\n'
    assert not (tmp_path / "out").exists()

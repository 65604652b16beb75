"""The file format on node arrays: strict numbers, tuple leaves, the writer
against a reference serializer, the full list of validation messages, and
the command line and batch evaluation on the arrays."""

import json
import time

import numpy as np
import pytest

import treealgebra as ta
from treealgebra import io
from treealgebra.cli import run_cli


# ---------------------------------------------------------------------------
# Reference serializer: per-node dicts and json.dumps, the writer's old way


def split_dict(split) -> dict:
    if isinstance(split, ta.NumericThreshold):
        return {"type": "numeric", "feature": split.feature, "threshold": split.threshold}
    if isinstance(split, ta.CategoricalSubset):
        return {"type": "categorical", "feature": split.feature,
                "left_levels": sorted(split.left_levels)}
    return {"type": "hyperplane", "coeffs": list(split.coefficients), "offset": split.offset}


def value_dict(value) -> dict:
    if isinstance(value, ta.Scalar):
        return {"type": "scalar", "v": value.value}
    if isinstance(value, ta.ClassProbs):
        return {"type": "class_probs", "probs": list(value.probs)}
    return {"type": "tuple", "values": [value_dict(v) for v in value.values],
            "source_ids": list(value.source_ids)}


def body_dict(tree) -> dict:
    nodes = []
    for nid, split, left, right, row in zip(tree.ids.tolist(), tree.splits(), tree.left.tolist(),
                                            tree.right.tolist(), tree.leaf.tolist()):
        entry = {"id": nid}
        if split is not None:
            entry.update(split=split_dict(split), left=left, right=right)
        else:
            entry["value"] = value_dict(tree.leaves.value(row))
        nodes.append(entry)
    return {"nodes": nodes, "root": tree.root}


def dumps(doc) -> str:
    return json.dumps(doc, separators=(", ", ": "), allow_nan=False) + "\n"


def reference_tree_json(tree) -> str:
    return dumps({"schema": io._schema_to_dict(tree.schema), **body_dict(tree)})


def reference_forest_json(forest) -> str:
    return dumps({"schema": io._schema_to_dict(forest.schema),
                  "trees": [body_dict(t) for t in forest.trees],
                  "metadata": dict(sorted(forest.metadata.items()))})


# floats whose shortest decimal forms differ in shape
AWKWARD = (-0.0, 0.1 + 0.2, 1e16, 1.5e-300, -2.5e22, 123456789.125, 5e-324)


def mixed_tree(schema, rng, n_splits, leaf_kind):
    """A random tree of numeric, categorical and hyperplane splits (not
    necessarily valid: a split may miss its region)."""
    b = ta.TreeBuilder(schema)
    open_nodes = [b.add_root()]
    numeric = schema.numeric_indices
    categorical = [j for j, f in enumerate(schema.features)
                   if isinstance(f, ta.CategoricalFeature)]
    for _ in range(n_splits):
        nid = open_nodes.pop(int(rng.integers(len(open_nodes))))
        kind = int(rng.integers(3))
        if kind == 1 and categorical:
            j = categorical[int(rng.integers(len(categorical)))]
            levels = len(schema.features[j].levels)
            split = ta.CategoricalSubset(j, {int(k) for k in rng.choice(levels, levels - 1, False)})
        elif kind == 2:
            split = ta.Hyperplane(tuple(rng.normal(size=len(numeric))), float(rng.normal()))
        else:
            j = numeric[int(rng.integers(len(numeric)))]
            f = schema.features[j]
            split = ta.NumericThreshold(j, float(rng.uniform(f.low, f.high)))
        open_nodes += b.split_node(nid, split)
    for k, nid in enumerate(open_nodes):
        if leaf_kind == "scalar":
            v = AWKWARD[k] if k < len(AWKWARD) else float(rng.normal())
            b.set_value(nid, ta.Scalar(v))
        else:
            p = rng.random(3) + 1e-3
            b.set_value(nid, ta.ClassProbs(tuple(p / p.sum())))
    return b.build()


class TestWriterParity:
    def test_every_split_and_leaf_kind_matches_the_reference(self, rng, tmp_path):
        checked = set()
        for _ in range(12):
            labels = ("a", "b", "c") if rng.random() < 0.5 else None
            schema = ta.random_schema(rng, max_features=5, class_labels=labels)
            kind = "class_probs" if labels else "scalar"
            trees = [mixed_tree(schema, rng, int(rng.integers(0, 7)), kind) for _ in range(3)]
            combined = [ta.combine_many(trees)]
            if kind == "scalar":
                combined.append(ta.affine_combination(trees, [0.5, -2.0, 3.0]))
            for tree in trees + combined:
                text = io.tree_to_json(tree)
                assert text == reference_tree_json(tree)
                checked |= {type(s).__name__ for s in tree.splits() if s is not None}
                checked.add(tree.leaves.kind + ":" + tree.leaves.entry)
                if ta.validate(tree) == []:
                    path = tmp_path / "t.json"
                    path.write_text(text)
                    assert io.tree_to_json(io.load_forest(str(path)).trees[0]) == text
            forest = io.ForestFile(schema, trees, {"b": "2", "a": "1"})
            assert io.forest_to_json(forest) == reference_forest_json(forest)
        assert checked == {"NumericThreshold", "CategoricalSubset", "Hyperplane",
                           "scalar:scalar", "class_probs:class_probs",
                           "tuple:scalar", "tuple:class_probs"}

    def test_floats_are_written_by_bit_pattern_not_by_value(self):
        # 0.0 and -0.0 compare equal but read differently, so a table of
        # distinct floats keyed on values would write one of them wrongly
        schema = ta.FeatureSchema((ta.NumericFeature("x", -1.0, 1.0),
                                   ta.NumericFeature("y", -1.0, 1.0)))

        def chain(thresholds, values):
            """A right-leaning chain of numeric splits with leaf values
            ``values``, one more than ``thresholds``."""
            b = ta.TreeBuilder(schema)
            nid = b.add_root()
            for k, t in enumerate(thresholds):
                left, nid = b.split_node(nid, ta.NumericThreshold(k % 2, t))
                b.set_value(left, values[k])
            b.set_value(nid, values[-1])
            return b.build()

        scalars = [chain([0.0, -0.0, 0.0, 0.5], list(map(ta.Scalar, (-0.0, 0.0, 0.5, -0.0, 0.5)))),
                   chain([-0.0, 0.25], list(map(ta.Scalar, (0.25, -0.0, 1.0))))]
        probs = [chain([-0.0, 0.0], list(map(ta.ClassProbs, ((0.0, 1.0), (-0.0, 1.0), (1.0, -0.0))))),
                 chain([0.0], list(map(ta.ClassProbs, ((-0.0, 0.0), (0.5, 0.5)))))]
        combined = [ta.combine_many(scalars), ta.combine_many(probs)]
        assert combined[1].leaves.kind == "tuple" and combined[1].leaves.entry == "class_probs"
        for tree in scalars + probs + combined:
            text = io.tree_to_json(tree)
            assert text == reference_tree_json(tree)
        for trees in (scalars, probs, combined):
            forest = io.ForestFile(schema, trees, {})
            text = io.forest_to_json(forest)
            assert text == reference_forest_json(forest)
            assert '"threshold": -0.0' in text and '"threshold": 0.0' in text
        # two hyperplanes equal by value keep their own texts
        b = ta.TreeBuilder(schema)
        nodes = [b.add_root()]
        for coefficients in ((0.0, 1.0), (-0.0, 1.0)):
            nodes[:1] = b.split_node(nodes[0], ta.Hyperplane(coefficients, 0.5))
        for nid in nodes:
            b.set_value(nid, ta.Scalar(1.0))
        text = io.tree_to_json(b.build())
        assert '"coeffs": [0.0, 1.0]' in text and '"coeffs": [-0.0, 1.0]' in text

    def test_non_finite_value_is_refused_as_json_refuses_it(self, make_stump):
        tree = make_stump(0, 4.0, high=float("inf"))
        with pytest.raises(ValueError) as ours:
            io.tree_to_json(tree)
        with pytest.raises(ValueError) as reference:
            reference_tree_json(tree)
        assert str(ours.value) == str(reference.value)


# ---------------------------------------------------------------------------
# Strict numbers


def stump_text(stump4) -> str:
    return io.tree_to_json(stump4)


class TestStrictNumbers:
    def test_duplicate_node_id_is_named(self, tmp_path, stump4):
        path = tmp_path / "t.json"
        path.write_text(stump_text(stump4).replace('{"id": 2, ', '{"id": 1, '))
        with pytest.raises(ta.ParseError) as err:
            io.load_forest(str(path))
        assert str(err.value) == f"{path}: nodes[2].id: duplicate node id 1"
        # in a forest file the field is under its tree
        doc = json.loads(path.read_text())
        doc = {"schema": doc["schema"], "trees": [{"nodes": doc["nodes"], "root": 0}]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ta.ParseError) as err:
            io.load_forest(str(path))
        assert str(err.value) == f"{path}: trees[0].nodes[2].id: duplicate node id 1"

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('{"id": 0, ', '{"id": 0.9, ', "nodes[0].id must be a non-negative integer, got 0.9"),
            ('"left": 1', '"left": 1.2', "nodes[0].left must be a non-negative integer, got 1.2"),
            ('"feature": 0', '"feature": false',
             "nodes[0].split.feature must be an integer, got false"),
            ('"threshold": 4.0', '"threshold": "0.5"',
             'nodes[0].split.threshold must be a number, got "0.5"'),
            ('"v": 0.0', '"v": true', "nodes[1].value.v must be a number, got true"),
            ('"v": 1.0', '"v": "nan"', 'nodes[2].value.v must be a number, got "nan"'),
            ('{"id": 1, ', '{"id": -1, ', "nodes[1].id must be a non-negative integer, got -1"),
            ('"root": 0', '"root": 0.0', "root must be an integer, got 0.0"),
            ('"low": 0.0', '"low": "0"', 'schema.features[0].low must be a number, got "0"'),
        ],
    )
    def test_wrongly_typed_number_is_named(self, tmp_path, stump4, capsys, old, new, message):
        text = stump_text(stump4)
        assert old in text
        path = tmp_path / "t.json"
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(ta.ParseError) as err:
            io.load_forest(str(path))
        assert str(err.value) == f"{path}: {message}"
        assert run_cli(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f'code=PARSE msg="{path}: {message}"\n'

    @pytest.mark.parametrize(
        "where, bad, message",
        [
            ((0, "split", "left_levels", 0), True,
             "trees[0].nodes[0].split.left_levels[0] must be an integer, got true"),
            ((1, "value", "source_ids", 1), 1.0,
             "trees[1].nodes[0].value.source_ids[1] must be an integer, got 1.0"),
            ((1, "value", "values", 0, "probs", 1), "0.75",
             'trees[1].nodes[0].value.values[0].probs[1] must be a number, got "0.75"'),
            ((2, "split", "coeffs", 1), None,
             "trees[2].nodes[0].split.coeffs[1] must be a number, got null"),
            ((2, "split", "offset"), "0.5",
             'trees[2].nodes[0].split.offset must be a number, got "0.5"'),
        ],
    )
    def test_forest_fields_are_named_with_their_tree(self, tmp_path, where, bad, message):
        schema = ta.FeatureSchema(
            (ta.NumericFeature("x", 0, 1), ta.NumericFeature("y", 0, 1),
             ta.CategoricalFeature("c", ("a", "b"))), ("u", "v"))
        trees = []
        for split in (ta.CategoricalSubset(2, {1}), ta.Hyperplane((1.0, -1.0), 0.5)):
            b = ta.TreeBuilder(schema)
            left, right = b.split_node(b.add_root(), split)
            b.set_value(left, ta.ClassProbs((0.25, 0.75)))
            b.set_value(right, ta.ClassProbs((1.0, 0.0)))
            trees.append(b.build())
        constants = []
        for probs in ((0.25, 0.75), (1.0, 0.0)):
            b = ta.TreeBuilder(schema)
            b.set_value(b.add_root(), ta.ClassProbs(probs))
            constants.append(b.build())
        trees.insert(1, ta.combine_pair(*constants))
        doc = json.loads(io.forest_to_json(io.ForestFile(schema, trees, {})))
        target = doc["trees"][where[0]]["nodes"][0]
        for key in where[1:-1]:
            target = target[key]
        target[where[-1]] = bad
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ta.ParseError) as err:
            io.load_forest(str(path))
        assert str(err.value) == f"{path}: {message}"


# ---------------------------------------------------------------------------
# Tuple leaves


def tuple_tree(schema, values):
    """A stump on feature 0 whose two leaves hold ``values``."""
    b = ta.TreeBuilder(schema)
    left, right = b.split_node(b.add_root(), ta.NumericThreshold(0, 4.0))
    b.set_value(left, values[0])
    b.set_value(right, values[1])
    return b.build()


S = ta.Scalar


class TestTupleLeaves:
    def test_differing_source_ids_round_trip_byte_for_byte(self, d2, tmp_path):
        tree = tuple_tree(d2, (ta.TupleValue((S(1.0), S(2.0)), (0, 1)),
                               ta.TupleValue((S(3.0), S(4.0)), (1, 0))))
        assert tree.leaves.sources.tolist() == [[0, 1], [1, 0]]
        path = tmp_path / "t.json"
        io.save_tree(tree, str(path))
        first = path.read_bytes()
        loaded = io.load_forest(str(path)).trees[0]
        assert loaded.leaves.sources.tolist() == [[0, 1], [1, 0]]
        io.save_tree(loaded, str(path))
        assert path.read_bytes() == first

    @pytest.mark.parametrize(
        "values, message",
        [
            ((ta.TupleValue((S(1.0), S(2.0)), (0, 1)),
              ta.TupleValue((S(1.0), S(2.0), S(3.0)), (0, 1, 2))),
             "tuple leaves mix lengths [2, 3]"),
            ((ta.TupleValue((S(1.0), S(2.0)), (0, 1)),
              ta.TupleValue((ta.ClassProbs((0.5, 0.5)), ta.ClassProbs((1.0, 0.0))), (0, 1))),
             "tuple leaves mix value kinds ['class_probs', 'scalar']"),
            ((ta.TupleValue((ta.ClassProbs((0.5, 0.5)),), (0,)),
              ta.TupleValue((ta.ClassProbs((0.2, 0.3, 0.5)),), (0,))),
             "tuple leaves mix class-probability lengths [2, 3]"),
        ],
    )
    def test_tuple_leaves_no_matrix_can_hold_are_named(self, d2, tmp_path, values, message):
        tree = tuple_tree(d2, values)
        assert tree.leaves.kind is None
        assert ta.validate(tree) == [message]
        path = tmp_path / "t.json"
        io.save_tree(tree, str(path))
        with pytest.raises(ta.ValidationError) as err:
            io.load_forest(str(path))
        assert err.value.violations == [f"tree 0: {message}"]


# ---------------------------------------------------------------------------
# Every validation message of one document, in order


def scalar(v=0.5):
    return {"type": "scalar", "v": v}


NUM = {"type": "numeric", "feature": 0, "threshold": 4.0}
# "+inf" and "-inf" stand for 1e999 and -1e999 in the file
MALFORMED = {
    "schema": {"features": [
        {"name": "x", "kind": "numeric", "low": 0.0, "high": 10.0},
        {"name": "y", "kind": "numeric", "low": 0.0, "high": 10.0},
        {"name": "c", "kind": "categorical", "levels": ["a", "b", "c"]},
    ], "class_labels": None},
    "trees": [
        {"nodes": [{"id": 0, "value": scalar()}], "root": 5},
        # links, splits and values of single nodes
        {"nodes": [
            {"id": 0, "split": NUM, "left": 1, "right": 2},
            {"id": 1, "left": 3, "right": 4},
            {"id": 2, "split": NUM, "left": 3, "right": 9, "value": scalar()},
            {"id": 3, "split": NUM, "left": 5},
            {"id": 4, "value": scalar("+inf")},
            {"id": 5, "split": {"type": "numeric", "feature": 7, "threshold": 1.0},
             "left": 6, "right": 7},
            {"id": 6, "split": {"type": "numeric", "feature": 2, "threshold": 1.0},
             "left": 8, "right": 10},
            {"id": 7, "split": NUM, "value": scalar()},
            {"id": 8},
            {"id": 10, "split": {"type": "numeric", "feature": 0, "threshold": "-inf"},
             "left": 11, "right": 12},
            {"id": 11, "split": {"type": "categorical", "feature": 0, "left_levels": [0]},
             "left": 13, "right": 14},
            {"id": 12, "split": {"type": "categorical", "feature": 2, "left_levels": []},
             "left": 15, "right": 16},
            {"id": 13, "split": {"type": "categorical", "feature": 2, "left_levels": [0, 1, 2]},
             "left": 17, "right": 18},
            {"id": 14, "split": {"type": "hyperplane", "coeffs": [1.0], "offset": "+inf"},
             "left": 19, "right": 20},
            {"id": 15, "split": {"type": "hyperplane", "coeffs": ["+inf", 1.0], "offset": 1.0},
             "left": 21, "right": 22},
            {"id": 30, "value": scalar()},
        ] + [{"id": k, "value": scalar()} for k in range(16, 23)], "root": 0},
        # leaf values
        {"nodes": [
            {"id": 0, "split": NUM, "left": 1, "right": 2},
            {"id": 1, "split": {"type": "numeric", "feature": 1, "threshold": 5.0},
             "left": 3, "right": 4},
            {"id": 2, "split": {"type": "numeric", "feature": 1, "threshold": 5.0},
             "left": 5, "right": 6},
            {"id": 3, "value": {"type": "class_probs", "probs": ["+inf", -0.5]}},
            {"id": 4, "value": {"type": "class_probs", "probs": [0.2, 0.3, 0.5]}},
            {"id": 5, "value": scalar()},
            {"id": 6, "value": {"type": "tuple", "values": [
                scalar(), {"type": "tuple", "values": [scalar()], "source_ids": [0]}],
                "source_ids": [0, 0]}},
        ], "root": 0},
        # tuple leaves
        {"nodes": [
            {"id": 0, "split": NUM, "left": 1, "right": 2},
            {"id": 1, "value": {"type": "tuple", "values": [
                scalar(), {"type": "class_probs", "probs": [0.5, 0.5]}], "source_ids": [0, 1]}},
            {"id": 2, "value": {"type": "tuple", "values": [
                {"type": "class_probs", "probs": [1.5, -0.5, 0.0]}], "source_ids": [0]}},
        ], "root": 0},
        # regions: boxes
        {"nodes": [
            {"id": 0, "split": NUM, "left": 1, "right": 2},
            {"id": 1, "split": {"type": "numeric", "feature": 0, "threshold": 6.0},
             "left": 3, "right": 4},
            {"id": 2, "split": {"type": "categorical", "feature": 2, "left_levels": [1]},
             "left": 5, "right": 6},
            {"id": 3, "value": scalar()},
            {"id": 4, "value": scalar()},
            {"id": 5, "split": {"type": "categorical", "feature": 2, "left_levels": [0, 2]},
             "left": 7, "right": 8},
            {"id": 6, "split": {"type": "numeric", "feature": 0, "threshold": 4.0},
             "left": 9, "right": 10},
        ] + [{"id": k, "value": scalar()} for k in range(7, 11)], "root": 0},
        # regions: half-spaces
        {"nodes": [
            {"id": 0, "split": {"type": "hyperplane", "coeffs": [1.0, 1.0], "offset": 5.0},
             "left": 1, "right": 2},
            {"id": 1, "split": {"type": "numeric", "feature": 0, "threshold": 9.0},
             "left": 3, "right": 4},
            {"id": 2, "value": scalar()},
            {"id": 3, "value": scalar()},
            {"id": 4, "value": scalar()},
        ], "root": 0},
        # a child that two well-formed nodes name belongs to the last of them
        {"nodes": [
            {"id": 0, "split": NUM, "left": 1, "right": 2},
            {"id": 1, "split": {"type": "numeric", "feature": 1, "threshold": 5.0},
             "left": 3, "right": 4},
            {"id": 2, "split": {"type": "numeric", "feature": 1, "threshold": 5.0},
             "left": 3, "right": 5},
        ] + [{"id": k, "value": scalar()} for k in range(3, 6)], "root": 0},
        # class probabilities that only a negative entry spoils
        {"nodes": [
            {"id": 0, "split": NUM, "left": 1, "right": 2},
            {"id": 1, "value": {"type": "class_probs", "probs": [0.5, 0.5]}},
            {"id": 2, "value": {"type": "class_probs", "probs": [1.5, -0.5]}},
        ], "root": 0},
    ],
    "metadata": {},
}

EVERY_MESSAGE = [
    "tree 0: root id 5 not in arena",
    "tree 1: expected exactly one parentless node 0, found [0, 30]",
    "tree 1: node 1: internal node without split",
    "tree 1: node 3: parent link does not point to 1",
    "tree 1: node 2: internal node with value",
    "tree 1: node 2: right child 9 missing from arena",
    "tree 1: node 3: has exactly one child",
    "tree 1: node 3: leaf without value",
    "tree 1: node 3: leaf with split",
    "tree 1: node 4: leaf value is not finite",
    "tree 1: node 5: split feature index 7 out of range",
    "tree 1: node 6: numeric split on categorical feature",
    "tree 1: node 7: leaf with split",
    "tree 1: node 8: leaf without value",
    "tree 1: node 10: split threshold is infinite",
    "tree 1: node 11: categorical split on numeric feature",
    "tree 1: node 12: empty left level set",
    "tree 1: node 13: left levels not a proper subset of the levels",
    "tree 1: node 14: hyperplane arity != number of numeric features",
    "tree 1: node 14: hyperplane offset is not finite",
    "tree 1: node 15: hyperplane coefficient is not finite",
    "tree 1: node 30: unreachable from root",
    "tree 2: node 3: class probability is not finite",
    "tree 2: node 3: negative class probability",
    "tree 2: node 3: class probabilities sum inf != 1",
    "tree 2: node 6: nested tuple value",
    "tree 2: node 6: duplicate source ids in tuple value",
    "tree 2: leaf values mix kinds ['class_probs', 'scalar', 'tuple']",
    "tree 2: class-probability leaves mix lengths [2, 3]",
    "tree 3: node 1: tuple mixes value kinds",
    "tree 3: node 2: negative class probability",
    "tree 3: tuple leaves mix lengths [1, 2]",
    "tree 3: tuple leaves mix class-probability lengths [2, 3]",
    "tree 4: node 6: split does not partition node region",
    "tree 4: node 5: split does not partition node region",
    "tree 4: node 1: split does not partition node region",
    "tree 5: node 1: split does not partition node region",
    "tree 6: node 3: parent link does not point to 1",
    "tree 7: node 2: negative class probability",
    "forest mixes leaf kinds ['class_probs', 'scalar', 'tuple']",
    "forest mixes class-probability lengths [2, 3]",
]


class TestEveryValidationMessage:
    def test_full_message_list_in_order(self, tmp_path):
        """One document that carries every violation a file can hold. A
        NaN threshold cannot be written in a file, and a class-label count
        needs a schema with labels, where leaves of mixed lengths are named
        per leaf instead (both have their own tests)."""
        path = tmp_path / "bad.json"
        # JSON has no infinity, but 1e999 reads as one
        path.write_text(json.dumps(MALFORMED).replace('"+inf"', "1e999").replace('"-inf"', "-1e999"))
        with pytest.raises(ta.ValidationError) as err:
            io.load_forest(str(path))
        assert err.value.violations == EVERY_MESSAGE

    def test_children_named_by_many_nodes_are_walked_once(self, tmp_path):
        """64 diamonds in a row: both middle nodes of each name the next
        diamond's top as both children, so a walk that followed every link
        would visit the last top 2**64 times."""
        nodes = []
        for k in range(64):
            top, nxt = 3 * k, 3 * k + 3
            nodes += [{"id": top, "split": NUM, "left": top + 1, "right": top + 2},
                      {"id": top + 1, "split": NUM, "left": nxt, "right": nxt},
                      {"id": top + 2, "split": NUM, "left": nxt, "right": nxt}]
        nodes.append({"id": 192, "value": scalar()})
        path = tmp_path / "diamonds.json"
        path.write_text(json.dumps({"schema": MALFORMED["schema"], "nodes": nodes, "root": 0}))
        with pytest.raises(ta.ValidationError) as err:
            io.load_forest(str(path))
        assert "tree 0: node 3: parent link does not point to 1" in err.value.violations
        assert not any("unreachable" in m for m in err.value.violations)

    @pytest.mark.parametrize("split", [NUM, {"type": "hyperplane", "coeffs": [1.0, 1.0],
                                             "offset": 5.0}])
    def test_detached_cycle_is_unreachable(self, tmp_path, split):
        """Nodes 3 and 4 are each other's parent: every node is linked back
        and only the root is parentless, yet the root reaches neither."""
        nodes = [{"id": 0, "split": split, "left": 1, "right": 2},
                 {"id": 3, "split": NUM, "left": 4, "right": 5},
                 {"id": 4, "split": NUM, "left": 3, "right": 6}]
        nodes += [{"id": k, "value": scalar()} for k in (1, 2, 5, 6)]
        path = tmp_path / "detached.json"
        path.write_text(json.dumps({"schema": MALFORMED["schema"], "nodes": nodes, "root": 0}))
        with pytest.raises(ta.ValidationError) as err:
            io.load_forest(str(path))
        assert err.value.violations == [f"tree 0: node {k}: unreachable from root"
                                        for k in (3, 4, 5, 6)]

    def test_twin_child_is_placed_from_the_right(self, tmp_path):
        """A node that names one child on both sides: the child is placed
        once, in the right-hand box (x > 4), where its split x <= 7 cuts;
        in the left-hand box it would not."""
        nodes = [{"id": 0, "split": NUM, "left": 1, "right": 1},
                 {"id": 1, "split": {"type": "numeric", "feature": 0, "threshold": 7.0},
                  "left": 2, "right": 3},
                 {"id": 2, "value": scalar()}, {"id": 3, "value": scalar()}]
        path = tmp_path / "twin.json"
        path.write_text(json.dumps({"schema": MALFORMED["schema"], "nodes": nodes, "root": 0}))
        (tree,) = io.load_forest(str(path)).trees
        assert ta.validate(tree) == []

    def test_twin_chain_is_walked_once_per_node(self, tmp_path):
        """64 twin links in a row, each split on its own feature so that
        every one cuts: a pass that carried one box per path would carry
        2**64 of them."""
        features = [{"name": f"x{k}", "kind": "numeric", "low": 0.0, "high": 1.0}
                    for k in range(64)]
        nodes = [{"id": k, "split": {"type": "numeric", "feature": k, "threshold": 0.5},
                  "left": k + 1, "right": k + 1} for k in range(64)]
        nodes.append({"id": 64, "value": scalar()})
        path = tmp_path / "twins.json"
        path.write_text(json.dumps({"schema": {"features": features}, "nodes": nodes, "root": 0}))
        start = time.perf_counter()
        io.load_forest(str(path))
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# The stacked validation pass against the per-node reference


def internal_entries(nodes):
    return [e for e in nodes if "left" in e and "right" in e]


def numeric_entries(nodes):
    return [e for e in internal_entries(nodes) if e["split"]["type"] == "numeric"]


def pick(rng, entries):
    return entries[int(rng.integers(len(entries)))] if entries else None


def drop_child(rng, nodes, schema, root):
    victim = pick(rng, [e for e in nodes if e["id"] != root])
    if victim is not None:
        nodes.remove(victim)


def reparent_child(rng, nodes, schema, root):
    a, b = pick(rng, internal_entries(nodes)), pick(rng, internal_entries(nodes))
    if a is not None and a is not b:
        a["left"] = b["right"]


def cycle_to_root(rng, nodes, schema, root):
    a = pick(rng, internal_entries(nodes))
    if a is not None:
        a["right"] = root


def diamond(rng, nodes, schema, root):
    a = pick(rng, internal_entries(nodes))
    if a is not None:
        a["right"] = a["left"]


def one_child(rng, nodes, schema, root):
    a = pick(rng, internal_entries(nodes))
    if a is not None:
        del a["right"]


def second_parentless(rng, nodes, schema, root):
    nodes.append({"id": max(e["id"] for e in nodes) + 1, "value": scalar()})


def internal_value(rng, nodes, schema, root):
    a = pick(rng, internal_entries(nodes))
    if a is not None:
        a["value"] = scalar()


def infinite_threshold(rng, nodes, schema, root):
    a = pick(rng, numeric_entries(nodes))
    if a is not None:
        a["split"] = {**a["split"], "threshold": ["+inf", "-inf"][int(rng.integers(2))]}


def empty_or_full_levels(rng, nodes, schema, root):
    a = pick(rng, [e for e in internal_entries(nodes) if e["split"]["type"] == "categorical"])
    if a is not None:
        n = len(schema.features[a["split"]["feature"]].levels)
        a["split"] = {**a["split"], "left_levels": [[], list(range(n))][int(rng.integers(2))]}


def repeated_split(rng, nodes, schema, root):
    """A child that repeats its parent's split, so one of its sides is empty."""
    by_id = {e["id"]: e for e in nodes}
    pairs = [(a, by_id[a[side]]) for a in internal_entries(nodes) for side in ("left", "right")
             if "right" in by_id.get(a[side], {}) and "left" in by_id[a[side]]]
    if pairs:
        parent, child = pick(rng, pairs)
        child["split"] = parent["split"]


def closed_lower_bound(rng, nodes, schema, root):
    """A numeric split at its feature's low end: the left side keeps only
    that value, which is empty unless the bound is still closed."""
    a = pick(rng, numeric_entries(nodes))
    if a is not None:
        low = schema.features[a["split"]["feature"]].low
        a["split"] = {**a["split"], "threshold": low}


def other_leaf_kind(rng, nodes, schema, root):
    a = pick(rng, [e for e in nodes if "value" in e])
    if a is not None:
        a["value"] = {"type": "class_probs", "probs": [0.25, 0.75]}


# the faults that empty a side come up more often, so trees carry several
FAULTS = (drop_child, reparent_child, cycle_to_root, diamond, one_child, second_parentless,
          internal_value, infinite_threshold, empty_or_full_levels, other_leaf_kind,
          *(repeated_split, closed_lower_bound) * 3)


def read_unchecked(path):
    """The trees of a tree or forest file, not validated."""
    doc = json.loads(path.read_text())
    schema = io._schema_from_dict(doc["schema"], "")
    return [io._tree_from_body(body, schema, "") for body in doc.get("trees", [doc])]


def reference_violations(trees):
    """``io._validate_forest``'s messages, made one node at a time."""
    problems = [f"tree {ti}: {m}" for ti, t in enumerate(trees)
                for m in ta.oracle.validate_reference(t)]
    kinds, lengths = set(), set()
    for tree in trees:
        k, n = tree.leaves.kinds(tree.leaf[(tree.left < 0) & (tree.leaf >= 0)])
        kinds.update(k)
        lengths.update(n)
    if len(kinds) > 1:
        problems.append(f"forest mixes leaf kinds {sorted(kinds)}")
    if trees[0].schema.class_labels is None and len(lengths) > 1:
        problems.append(f"forest mixes class-probability lengths {sorted(lengths)}")
    return problems


class TestStackedValidation:
    def test_fuzzed_forests_match_the_per_node_reference(self, tmp_path):
        """Random forests, every third with a tree of hyperplane splits among
        the axis-aligned ones, with faults of every kind injected and node
        order shuffled: the messages of the file, of its trees checked
        together and of each tree checked alone are the reference's, in
        its order."""
        rng = np.random.default_rng(12)
        path = tmp_path / "fuzz.json"
        messages = 0
        for case in range(100):
            schema = ta.random_schema(rng, max_features=4, max_levels=4)
            trees = [ta.random_tree(schema, rng, int(rng.integers(0, 20)))
                     for _ in range(int(rng.integers(1, 6)))]
            if case % 3 == 0:
                oblique = mixed_tree(schema, rng, 6, "scalar")
                trees.insert(int(rng.integers(len(trees) + 1)), oblique)
            bodies = []
            for tree in trees:
                body = body_dict(tree)
                for fault in FAULTS:
                    if rng.random() < 0.12:
                        fault(rng, body["nodes"], schema, body["root"])
                if rng.random() < 0.3:
                    rng.shuffle(body["nodes"])
                bodies.append(body)
            doc = {"schema": io._schema_to_dict(schema), "trees": bodies, "metadata": {}}
            path.write_text(json.dumps(doc).replace('"+inf"', "1e999").replace('"-inf"', "-1e999"))
            loaded = read_unchecked(path)
            expected = reference_violations(loaded)
            if expected:
                with pytest.raises(ta.ValidationError) as err:
                    io.load_forest(str(path))
                assert err.value.violations == expected
            else:
                io.load_forest(str(path))
            assert ta.trees.check_trees(loaded) == [
                ta.oracle.validate_reference(t) for t in loaded]
            for tree in loaded:
                assert ta.validate(tree) == ta.oracle.validate_reference(tree)
            messages += len(expected)
        assert messages > 200

    def test_unreachable_cycle_of_hyperplanes_is_left_unplaced(self, tmp_path):
        """Nodes 3 and 4 are each other's child, so every node has one
        parent and the masks pass; the partition walk from the root places
        only the stump's three nodes and finds no fault."""
        h = {"type": "hyperplane", "coeffs": [1.0, 1.0], "offset": 10.0}
        nodes = [{"id": 0, "split": h, "left": 1, "right": 2},
                 {"id": 1, "value": scalar()}, {"id": 2, "value": scalar()},
                 {"id": 3, "split": h, "left": 4, "right": 5},
                 {"id": 4, "split": {**h, "offset": 5.0}, "left": 3, "right": 6},
                 {"id": 5, "value": scalar()}, {"id": 6, "value": scalar()}]
        schema = {"features": [{"name": n, "kind": "numeric", "low": 0.0, "high": 10.0}
                               for n in "xy"], "class_labels": None}
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"schema": schema, "nodes": nodes, "root": 0}))
        (tree,) = read_unchecked(path)
        assert ta.trees.partition_faults(tree) == ([], 3)
        expected = ta.oracle.validate_reference(tree)
        assert expected == [f"node {i}: unreachable from root" for i in range(3, 7)]
        assert ta.trees.check_trees([tree]) == [expected]

    def test_dense_ids_map_a_child_beyond_them_to_no_position(self, tmp_path):
        nodes = [{"id": 0, "split": NUM, "left": 1, "right": 6},
                 {"id": 1, "value": scalar()}, {"id": 2, "value": scalar()}]
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({"schema": MALFORMED["schema"], "nodes": nodes, "root": 0}))
        (tree,) = read_unchecked(path)
        assert tree.right_pos.tolist() == [-1, -1, -1]
        assert tree.left_pos.tolist() == [1, -1, -1]
        assert "node 0: right child 6 missing from arena" in ta.validate(tree)


# ---------------------------------------------------------------------------
# The hot paths read the arrays


class TestHotPathsReadArrays:
    def test_cli_requests(self, workdir, unit2, capsys):
        oblique = ta.TreeBuilder(unit2)
        left, right = oblique.split_node(oblique.add_root(), ta.Hyperplane((1.0, 1.0), 1.0))
        oblique.set_value(left, ta.Scalar(0.0))
        oblique.set_value(right, ta.Scalar(1.0))
        io.save_tree(oblique.build(), str(workdir / "oblique.json"))
        (workdir / "pts.csv").write_text("1,2\n3,4\n5,6\n7,8\n")
        three, out = str(workdir / "three.json"), str(workdir / "out.json")
        requests = [
            ["combine", "--forest", three, "--out", out],
            ["validate", out],
            ["affine", "--forest", three, "--weights", str(workdir / "w.csv"), "--out", out,
             "--simplify"],
            ["validate", out],
            ["validate", str(workdir / "oblique.json")],
            ["dist", "--a", str(workdir / "stump4.json"), "--b", str(workdir / "stump6.json")],
            ["dist", "--a", str(workdir / "stump4.json"), "--b", str(workdir / "stump6.json"),
             "--measure", "empirical", "--data", str(workdir / "pts.csv")],
            ["dist-matrix", "--forest", three, "--out", str(workdir / "D.csv")],
            ["forest-dist", "--f", three, "--g", three],
        ]
        for argv in requests:
            assert run_cli(argv) == 0, capsys.readouterr().err

    def test_evaluate_batch(self, rng):
        schema = ta.random_schema(rng, max_features=4, class_labels=("a", "b"))
        for kind in ("scalar", "class_probs"):
            tree = ta.random_tree(schema, rng, 12, kind)
            X = ta.oracle.sample_points(schema, ta.UniformBox(), 50, rng)
            assert len(ta.evaluate_batch(tree, X)) == 50

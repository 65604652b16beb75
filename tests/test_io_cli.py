"""Serialization, the flat-table import dialect, and the CLI surface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import treealgebra as ta
from treealgebra import io
from treealgebra.cli import run_cli

FLAT_HEADER = ",".join(io.FLAT_TABLE_COLUMNS) + "\n"


def stump_json(split=None, value=None, feature=None) -> str:
    """A stump over two numeric features as the text of a tree file, with
    the root's split, the left leaf's value or the second feature replaced."""
    features = [{"name": name, "kind": "numeric", "low": 0.0, "high": 10.0} for name in "xy"]
    features[1] = feature or features[1]
    nodes = [{"id": 0, "split": split or {"type": "numeric", "feature": 0, "threshold": 4.0},
              "left": 1, "right": 2},
             {"id": 1, "value": value or {"type": "scalar", "v": 0.0}},
             {"id": 2, "value": {"type": "scalar", "v": 1.0}}]
    return json.dumps({"schema": {"features": features, "class_labels": None},
                       "nodes": nodes, "root": 0})


def stump_with(*keys, to, forest=False) -> str:
    """The stump of :func:`stump_json` with the field reached by ``keys``
    set to ``to``; as a one-tree forest file first when ``forest``."""
    doc = json.loads(stump_json())
    if forest:
        doc = {"schema": doc["schema"], "trees": [{"nodes": doc["nodes"], "root": 0}],
               "metadata": {}}
    field = doc
    for key in keys[:-1]:
        field = field[key]
    field[keys[-1]] = to
    return json.dumps(doc)

GOLDEN_USAGE = """\
usage: treealgebra [-h] COMMAND ...

Exact algebra on decision-tree functions.

positional arguments:
  COMMAND
    combine     combine a forest into one tuple-leaf tree
    affine      weighted sum of a forest as one tree
    dist        L2 distance between two trees
    corr        correlation between two scalar trees
    dist-matrix
                pairwise distance matrix of a forest
    forest-dist
                distance between two forests' sum functions
    mds         classical MDS embedding of a distance matrix
    oracle-check
                compare exact statistics against brute-force oracles
    validate    validate a tree or forest JSON file
    import      import a flat node-table CSV as a forest

options:
  -h, --help    show this help message and exit
"""


class TestJsonRoundTrip:
    def test_spec_stump_layout_loads(self, tmp_path):
        doc = {
            "schema": {
                "features": [
                    {"name": "x1", "kind": "numeric", "low": 0, "high": 10},
                    {"name": "c", "kind": "categorical", "levels": ["a", "b"]},
                ],
                "class_labels": None,
            },
            "nodes": [
                {"id": 0, "split": {"type": "numeric", "feature": 0, "threshold": 4.0},
                 "left": 1, "right": 2},
                {"id": 1, "value": {"type": "scalar", "v": 0.0}},
                {"id": 2, "value": {"type": "scalar", "v": 1.0}},
            ],
            "root": 0,
        }
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        forest = io.load_forest(str(path))
        assert len(forest.trees) == 1
        assert ta.evaluate(forest.trees[0], (3.0, "a")) == ta.Scalar(0.0)

    def test_byte_identical_roundtrip(self, workdir):
        original = (workdir / "three.json").read_bytes()
        loaded = io.load_forest(str(workdir / "three.json"))
        io.save_forest(loaded, str(workdir / "again.json"))
        assert (workdir / "again.json").read_bytes() == original

    def test_tree_roundtrip_with_all_split_and_value_kinds(self, tmp_path, rng):
        schema = ta.FeatureSchema(
            (
                ta.NumericFeature("x", 0, 1),
                ta.CategoricalFeature("c", ("a", "b", "c")),
            ),
            ("yes", "no"),
        )
        b = ta.TreeBuilder(schema)
        left, right = b.split_node(b.add_root(), ta.CategoricalSubset(1, frozenset({0, 2})))
        b.set_value(left, ta.ClassProbs((0.25, 0.75)))
        b.set_value(right, ta.ClassProbs((1.0, 0.0)))
        tree = b.build()
        path = tmp_path / "t.json"
        io.save_tree(tree, str(path))
        first = path.read_bytes()
        io.save_tree(io.load_forest(str(path)).trees[0], str(path))
        assert path.read_bytes() == first

    def test_tuple_leaf_tree_roundtrips(self, workdir, stump4, stump6):
        combined = ta.combine_pair(stump4, stump6)
        path = workdir / "combined.json"
        io.save_tree(combined, str(path))
        loaded = io.load_forest(str(path)).trees[0]
        assert ta.pointwise_equivalence(loaded, [stump4, stump6], 2000, 0) is None

    def test_shortest_roundtrip_numerals(self, tmp_path, d2, make_stump):
        tree = make_stump(0, 0.1 + 0.2)  # 0.30000000000000004
        path = tmp_path / "t.json"
        io.save_tree(tree, str(path))
        reloaded = io.load_forest(str(path)).trees[0]
        assert reloaded.threshold[reloaded.root_pos] == 0.1 + 0.2

    def test_bad_probs_name_tree_and_node(self, tmp_path, d2):
        schema = ta.FeatureSchema(d2.features, ("a", "b"))
        b = ta.TreeBuilder(schema)
        left, right = b.split_node(b.add_root(), ta.NumericThreshold(0, 4.0))
        b.set_value(left, ta.ClassProbs((0.5, 0.5)))
        b.set_value(right, ta.ClassProbs((0.5, 0.3)))
        path = tmp_path / "bad.json"
        io.save_tree(b.build(), str(path))
        with pytest.raises(ta.ValidationError) as err:
            io.load_forest(str(path))
        message = str(err.value)
        assert "tree 0" in message and "node 2" in message and "sum 0.8" in message

    def test_null_value_or_split_counts_as_absent(self, tmp_path, d2):
        # the writer emits "value": null for a leaf that was never set
        b = ta.TreeBuilder(d2)
        left, _right = b.split_node(b.add_root(), ta.NumericThreshold(0, 4.0))
        b.set_value(left, ta.Scalar(1.0))
        path = tmp_path / "unset.json"
        io.save_tree(b.build(), str(path))
        assert '{"id": 2, "value": null}' in path.read_text()
        with pytest.raises(ta.ValidationError) as err:
            io.load_forest(str(path))
        assert err.value.violations == ["tree 0: node 2: leaf without value"]
        doc = json.loads(path.read_text())
        doc["nodes"][0]["split"] = None
        doc["nodes"][2]["value"] = {"type": "scalar", "v": 2.0}
        path.write_text(json.dumps(doc))
        with pytest.raises(ta.ValidationError) as err:
            io.load_forest(str(path))
        assert err.value.violations == ["tree 0: node 0: internal node without split"]

    def test_forest_mixing_class_probability_lengths_is_named(self, tmp_path, d2):
        trees = []
        for probs in ((0.5, 0.5), (0.2, 0.3, 0.5)):
            b = ta.TreeBuilder(d2)
            b.set_value(b.add_root(), ta.ClassProbs(probs))
            trees.append(b.build())
        path = tmp_path / "mixed.json"
        io.save_forest(io.ForestFile(d2, trees, {}), str(path))
        with pytest.raises(ta.ValidationError) as err:
            io.load_forest(str(path))
        assert err.value.violations == ["forest mixes class-probability lengths [2, 3]"]

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": \n  oops')
        with pytest.raises(ta.ParseError) as err:
            io.load_forest(str(path))
        assert "line 2" in str(err.value)


    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literals_rejected(self, tmp_path, stump4, d2, literal):
        tree_path = tmp_path / "tree.json"
        tree_path.write_text(
            io.tree_to_json(stump4).replace('"threshold": 4.0', f'"threshold": {literal}')
        )
        with pytest.raises(ta.ParseError, match=f"non-finite number {literal} is not allowed"):
            io.load_forest(str(tree_path))
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(
            json.dumps({"schema": io._schema_to_dict(d2)}).replace("10.0", literal, 1)
        )
        with pytest.raises(ta.ParseError, match=f"non-finite number {literal} is not allowed"):
            io.load_schema(str(schema_path))

    @pytest.mark.parametrize("key, text", [("features[1].levels", "abc"), ("class_labels", "xy")])
    def test_name_lists_must_be_lists(self, tmp_path, key, text):
        # a string would otherwise be read as one name per character
        levels, labels = (text, ["u", "v"]) if key != "class_labels" else (["a", "b"], text)
        schema = {"features": [{"name": "x", "kind": "numeric", "low": 0, "high": 1},
                               {"name": "c", "kind": "categorical", "levels": levels}],
                  "class_labels": labels}
        leaf = {"id": 0, "value": {"type": "class_probs", "probs": [0.5, 0.5]}}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"schema": schema, "nodes": [leaf], "root": 0}))
        for load in (io.load_forest, io.load_schema):
            with pytest.raises(ta.ParseError) as err:
                load(str(path))
            assert str(err.value) == f'{path}: schema.{key} must be a list of names, got "{text}"'

    @pytest.mark.parametrize("levels, labels, message", [
        ([1, 2], None, "schema.features[1].levels[0] must be a string, got 1"),
        (["a", None], None, "schema.features[1].levels[1] must be a string, got null"),
        (["a", "b"], ["u", 2.0], "schema.class_labels[1] must be a string, got 2.0"),
    ])
    def test_names_must_be_strings(self, tmp_path, capsys, levels, labels, message):
        # points name their levels with CSV text, so no point could use the
        # level 1; the name is refused at load rather than later
        schema = {"features": [{"name": "x", "kind": "numeric", "low": 0, "high": 1},
                               {"name": "c", "kind": "categorical", "levels": levels}],
                  "class_labels": labels}
        leaf = {"id": 0, "value": {"type": "scalar", "v": 0.5}}
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"schema": schema, "nodes": [leaf], "root": 0}))
        for load in (io.load_forest, io.load_schema):
            with pytest.raises(ta.ParseError) as err:
                load(str(path))
            assert str(err.value) == f"{path}: {message}"
        assert run_cli(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f'code=PARSE msg="{path}: {message}"\n'

    def test_non_finite_literal_exits_2(self, tmp_path, stump4, capsys):
        path = tmp_path / "tree.json"
        path.write_text(io.tree_to_json(stump4).replace('"v": 1.0', '"v": NaN'))
        assert run_cli(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f'code=PARSE msg="{path}: non-finite number NaN is not allowed"'
        )


class TestReadPointsCsv:
    @pytest.fixture
    def schema(self):
        return ta.FeatureSchema(
            (ta.NumericFeature("x1", 0, 10), ta.CategoricalFeature("c", ("a", "b")))
        )

    def test_reads_points_in_schema_order(self, tmp_path, schema):
        path = tmp_path / "pts.csv"
        path.write_text("1.5, a\n\n  10,b  \n0,a")
        assert io.read_points_csv(str(path), schema).tolist() == [[1.5, 0.0], [10.0, 1.0], [0.0, 0.0]]

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("1,a\nabc,b\n", ta.DomainError, "feature 'x1': 'abc' is not numeric"),
            ("1,a\n11,b\n", ta.DomainError, "feature 'x1': 11.0 outside [0.0, 10.0]"),
            ("nan,a\n", ta.DomainError, "feature 'x1': nan outside [0.0, 10.0]"),
            ("1,zz\n", ta.DomainError, "feature 'c': unknown level 'zz'"),
            ("1,zz\n-1,a\n", ta.DomainError, "feature 'c': unknown level 'zz'"),
            ("1,a\n\n1,a,3\n", ta.ParseError, "{path}: line 3: 3 columns, expected 2"),
            ("\n \n", ta.ParseError, "{path}: no data points"),
        ],
    )
    def test_bad_input_names_the_first_bad_value(self, tmp_path, schema, text, error, message):
        path = tmp_path / "pts.csv"
        path.write_text(text)
        with pytest.raises(error) as err:
            io.read_points_csv(str(path), schema)
        assert str(err.value) == message.format(path=path)


class TestAtomicWrites:
    def test_no_temp_files_left_behind(self, workdir):
        names = {p.name for p in workdir.iterdir()}
        assert not any(n.startswith(".tmp-") for n in names)

    def test_failed_run_leaves_no_output(self, workdir):
        out = workdir / "never.json"
        code = run_cli(
            ["combine", "--forest", str(workdir / "three.json"),
             "--out", str(out), "--max-nodes", "2"]
        )
        assert code == 2
        assert not out.exists()

    def test_written_file_gets_the_mode_open_gives(self, tmp_path, stump4):
        """0o666 less the umask for a new file, the old mode for a replaced one."""
        path = tmp_path / "tree.json"
        old = os.umask(0o022)
        try:
            io.save_tree(stump4, str(path))
            assert path.stat().st_mode & 0o777 == 0o644
            os.umask(0o077)
            io.save_tree(stump4, str(tmp_path / "private.json"))
            assert (tmp_path / "private.json").stat().st_mode & 0o777 == 0o600
            path.chmod(0o640)
            io.save_tree(stump4, str(path))
            assert path.stat().st_mode & 0o777 == 0o640
        finally:
            os.umask(old)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["private.json", "tree.json"]

    @pytest.mark.parametrize("max_nodes", ["2", "5"])
    def test_budget_abort_prints_one_line_and_writes_nothing(self, workdir, capsys,
                                                             max_nodes):
        # three.json folds to 5 nodes after its first step and to 11 after its last
        out = workdir / "never.json"
        code = run_cli(["combine", "--forest", str(workdir / "three.json"),
                        "--out", str(out), "--max-nodes", max_nodes])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f'code=BUDGET_EXCEEDED msg="node budget exceeded: combined tree already has '
            f'{max_nodes} nodes (max_nodes={max_nodes})"\n')
        assert not out.exists()


class TestFlatTableImport:
    STUMP_TABLE = (
        "tree_id,node_id,parent_id,is_left_child,split_feature,split_threshold_or_levels,leaf_value\n"
        "0,0,,,0,4.0,\n"
        "0,1,0,1,,,0.0\n"
        "0,2,0,0,,,1.0\n"
    )

    def test_stump_import_matches_stump(self, tmp_path, d2, stump4):
        path = tmp_path / "table.csv"
        path.write_text(self.STUMP_TABLE)
        forest = io.import_external_forest(str(path), "flat-table", d2)
        combined = ta.combine_pair(forest.trees[0], stump4)
        assert ta.pointwise_equivalence(combined, [forest.trees[0], stump4], 3000, 0) is None

    def test_orphan_node_named_in_error(self, tmp_path, d2):
        path = tmp_path / "table.csv"
        path.write_text(
            "tree_id,node_id,parent_id,is_left_child,split_feature,split_threshold_or_levels,leaf_value\n"
            "0,0,,,0,4.0,\n"
            "0,1,0,1,,,0.0\n"
            "0,2,5,0,,,1.0\n"
        )
        with pytest.raises(ta.ParseError) as err:
            io.import_external_forest(str(path), "flat-table", d2)
        assert "tree 0 node 2" in str(err.value)

    @pytest.mark.parametrize("rows, message", [
        ("0,0,,,0,4.0,\n0,1,0,1,,,0.0\n0,1,0,0,,,1.0\n",
         "line 4: tree 0 node 1: duplicate node id"),
        ("0,0,,,0,4.0,\n0,1,0,1,,,0.0\n0,2,0,1,,,1.0\n",
         "line 4: tree 0 node 0: two left children"),
        ("0,0,,,0,4.0,\n0,1,0,1,,,0.0\n",
         "line 2: tree 0 node 0: needs both a left and a right child"),
        ("0,0,,,0,4.0,\n0,1,0,1,,,0.0\n0,2,5,0,,,1.0\n",
         "line 4: tree 0 node 2: orphan node (parent 5 missing)"),
        ("0,0,,,0,4.0,\n0,1,0,1,,,0.0\n0,2,,,,,1.0\n",
         "line 4: tree 0: expected one root, found [0, 2]"),
        ("0,0,1,1,,,0.0\n0,1,0,1,,,1.0\n",
         "line 2: tree 0: expected one root, found []"),
        ("0,0,,,2,4.0,\n0,1,0,1,,,0.0\n0,2,0,0,,,1.0\n",
         "line 2: tree 0 node 0: split feature 2 out of range"),
        ("0,0,,,0,four,\n0,1,0,1,,,0.0\n0,2,0,0,,,1.0\n",
         "line 2: tree 0 node 0: bad numeric threshold 'four'"),
        ("0,0,,,0,4.0,\n0,1,0,1,,,0.0\n0,2,0,0,,,one\n",
         "line 4: tree 0 node 2: bad leaf_value 'one'"),
    ])
    def test_node_messages_name_the_file_and_line(self, tmp_path, d2, capsys, rows, message):
        path = tmp_path / "table.csv"
        path.write_text(FLAT_HEADER + rows)
        with pytest.raises(ta.ParseError) as err:
            io.import_external_forest(str(path), "flat-table", d2)
        assert str(err.value) == f"{path}: {message}"
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"schema": io._schema_to_dict(d2)}))
        argv = ["import", "--table", str(path), "--schema", str(schema), "--out", str(tmp_path / "o")]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f'code=PARSE msg="{path}: {message}"\n'

    def test_unknown_dialect(self, tmp_path, d2):
        path = tmp_path / "table.csv"
        path.write_text(self.STUMP_TABLE)
        with pytest.raises(ta.ParseError):
            io.import_external_forest(str(path), "pmml", d2)

    def test_categorical_and_probs_columns(self, tmp_path):
        schema = ta.FeatureSchema(
            (ta.CategoricalFeature("c", ("a", "b", "x")),), ("u", "v")
        )
        path = tmp_path / "table.csv"
        path.write_text(
            "tree_id,node_id,parent_id,is_left_child,split_feature,split_threshold_or_levels,leaf_value\n"
            "0,0,,,0,a|x,\n"
            "0,1,0,1,,,1.0|0.0\n"
            "0,2,0,0,,,0.5|0.5\n"
        )
        forest = io.import_external_forest(str(path), "flat-table", schema)
        assert ta.evaluate(forest.trees[0], ("x",)) == ta.ClassProbs((1.0, 0.0))
        assert ta.evaluate(forest.trees[0], ("b",)) == ta.ClassProbs((0.5, 0.5))

    def test_fuzzed_forest_export_import_roundtrip(self, tmp_path, rng, uniform):
        """A 50-tree forest rendered to the dialect reloads and its distance
        matrix completes."""
        schema = ta.FeatureSchema(
            (
                ta.NumericFeature("x0", 0, 1),
                ta.NumericFeature("x1", -2, 3),
                ta.CategoricalFeature("c", ("a", "b", "c")),
            )
        )
        trees = [ta.random_tree(schema, rng, int(rng.integers(1, 15)), max_depth=4)
                 for _ in range(50)]
        lines = [",".join(io.FLAT_TABLE_COLUMNS)]
        for ti, tree in enumerate(trees):
            # a built tree's node ids are its positions
            for nid, split, row in zip(tree.ids.tolist(), tree.splits(), tree.leaf.tolist()):
                up = int(tree.parent[nid])
                parent = "" if up < 0 else str(up)
                is_left = ""
                if up >= 0:
                    is_left = "1" if tree.left[up] == nid else "0"
                if split is not None:
                    if isinstance(split, ta.NumericThreshold):
                        feat, payload = split.feature, repr(split.threshold)
                    else:
                        feat = split.feature
                        levels = schema.features[split.feature].levels
                        payload = "|".join(levels[i] for i in sorted(split.left_levels))
                    lines.append(f"{ti},{nid},{parent},{is_left},{feat},{payload},")
                else:
                    lines.append(f"{ti},{nid},{parent},{is_left},,,{tree.leaves.value(row).value!r}")
        path = tmp_path / "forest.csv"
        path.write_text("\n".join(lines) + "\n")
        forest = io.import_external_forest(str(path), "flat-table", schema)
        assert len(forest.trees) == 50
        for original, imported in zip(trees, forest.trees):
            combined = ta.combine_pair(original, imported)
            assert ta.pointwise_equivalence(combined, [original, imported], 500, 1) is None
        D = ta.distance_matrix(forest.trees[:10], uniform)
        assert (D >= 0).all()


class TestCli:
    def test_dist_prints_nine_significant_digits(self, workdir, capsys):
        code = run_cli(
            ["dist", "--a", str(workdir / "stump4.json"), "--b", str(workdir / "stump6.json"),
             "--measure", "uniform"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.447213595"

    def test_dist_is_bit_reproducible(self, workdir, capsys):
        argv = ["dist", "--a", str(workdir / "stump4.json"), "--b", str(workdir / "stump6.json")]
        run_cli(argv)
        first = capsys.readouterr().out
        run_cli(argv)
        assert capsys.readouterr().out == first

    def test_corr_degenerate_exits_2(self, workdir, capsys):
        code = run_cli(
            ["corr", "--a", str(workdir / "stump4.json"), "--b", str(workdir / "const7.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("code=DEGENERATE_CORRELATION msg=")
        assert "zero variance" in err

    def test_combine_weights_then_validate(self, workdir, capsys):
        out = workdir / "c.json"
        assert run_cli(
            ["combine", "--forest", str(workdir / "three.json"),
             "--weights", str(workdir / "w.csv"), "--out", str(out)]
        ) == 0
        assert run_cli(["validate", str(out)]) == 0

    @pytest.mark.parametrize("command", ["affine", "combine"])
    def test_weight_count_must_match_tree_count(self, workdir, capsys, command):
        (workdir / "w2.csv").write_text("0.5\n0.5\n")
        out = workdir / "c.json"
        assert run_cli(
            [command, "--forest", str(workdir / "three.json"),
             "--weights", str(workdir / "w2.csv"), "--out", str(out)]
        ) == 2
        assert capsys.readouterr().err == 'code=DOMAIN msg="2 weights for 3 trees"\n'
        assert not out.exists()

    def test_combine_without_weights_keeps_tuples(self, workdir):
        out = workdir / "tuples.json"
        assert run_cli(
            ["combine", "--forest", str(workdir / "three.json"), "--out", str(out)]
        ) == 0
        tree = io.load_forest(str(out)).trees[0]
        assert isinstance(tree.leaves.value(0), ta.TupleValue)

    def test_affine_simplify(self, workdir, capsys):
        (workdir / "wz.csv").write_text("1.0\n-1.0\n")
        two = io.ForestFile(
            io.load_forest(str(workdir / "three.json")).schema,
            io.load_forest(str(workdir / "three.json")).trees[:1] * 2,
        )
        io.save_forest(two, str(workdir / "twice.json"))
        out = workdir / "zero.json"
        assert run_cli(
            ["affine", "--forest", str(workdir / "twice.json"),
             "--weights", str(workdir / "wz.csv"), "--out", str(out), "--simplify"]
        ) == 0
        tree = io.load_forest(str(out)).trees[0]
        assert tree.n_nodes == 1

    def test_dist_matrix_and_mds_pipeline(self, workdir, capsys):
        matrix_path = workdir / "D.csv"
        assert run_cli(
            ["dist-matrix", "--forest", str(workdir / "three.json"), "--out", str(matrix_path)]
        ) == 0
        D = io.read_matrix_csv(str(matrix_path))
        assert D.shape == (3, 3) and (np.diag(D) == 0).all() and (D == D.T).all()
        coords_path = workdir / "coords.csv"
        svg_path = workdir / "cloud.svg"
        assert run_cli(
            ["mds", "--matrix", str(matrix_path), "--dims", "2",
             "--out", str(coords_path), "--svg", str(svg_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "stress=" in out
        assert io.read_matrix_csv(str(coords_path)).shape == (3, 2)
        assert svg_path.read_text().startswith("<svg")

    def test_mds_svg_of_one_dim_exits_2_before_writing(self, workdir, capsys):
        (workdir / "D.csv").write_text("0,1\n1,0\n")
        out, svg = workdir / "coords.csv", workdir / "cloud.svg"
        assert run_cli(["mds", "--matrix", str(workdir / "D.csv"), "--dims", "1",
                        "--out", str(out), "--svg", str(svg)]) == 2
        assert capsys.readouterr() == ("", 'code=DOMAIN msg="--svg needs at least 2 dims"\n')
        assert not out.exists() and not svg.exists()

    def test_forest_dist(self, workdir, capsys):
        code = run_cli(
            ["forest-dist", "--f", str(workdir / "stump4.json"), "--g", str(workdir / "stump6.json")]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.447213595"

    def test_empirical_measure_flags(self, workdir, capsys):
        (workdir / "pts.csv").write_text("1,0\n5,0\n9,0\n")
        code = run_cli(
            ["dist", "--a", str(workdir / "stump4.json"), "--b", str(workdir / "stump6.json"),
             "--measure", "empirical", "--data", str(workdir / "pts.csv")]
        )
        assert code == 0
        # the trees differ only at x1=5: mass 1/3, distance sqrt(1/3)
        assert capsys.readouterr().out.strip() == "0.577350269"

    def test_oracle_check(self, workdir, capsys):
        code = run_cli(
            ["oracle-check", "--forest", str(workdir / "three.json"),
             "--samples", "1000", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean exact=" in out and "dist 0,1" in out

    def test_oracle_check_rejects_class_probability_forest(self, tmp_path, d2, capsys):
        schema = ta.FeatureSchema(d2.features, ("a", "b"))
        trees = [ta.random_tree(schema, np.random.default_rng(k), 3, "class_probs") for k in range(2)]
        io.save_forest(io.ForestFile(schema, trees), str(tmp_path / "probs.json"))
        code = run_cli(["oracle-check", "--forest", str(tmp_path / "probs.json"), "--samples", "200"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == 'code=LEAF_KIND msg="oracle-check needs scalar leaves"\n'

    def test_import_command(self, workdir):
        (workdir / "table.csv").write_text(TestFlatTableImport.STUMP_TABLE)
        out = workdir / "imported.json"
        assert run_cli(
            ["import", "--table", str(workdir / "table.csv"),
             "--schema", str(workdir / "schema.json"), "--out", str(out)]
        ) == 0
        assert len(io.load_forest(str(out)).trees) == 1

    def test_validation_failure_exits_2(self, workdir, capsys):
        bad = workdir / "bad.json"
        doc = json.loads((workdir / "stump4.json").read_text())
        doc["nodes"][1].pop("value")
        bad.write_text(json.dumps(doc))
        assert run_cli(["validate", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("code=VALIDATION")

    @pytest.mark.parametrize("split_0, split_1", [
        ({"type": "numeric", "feature": 0, "threshold": 4.0},
         {"type": "numeric", "feature": 0, "threshold": 2.0}),
        ({"type": "hyperplane", "coeffs": [1.0, 1.0], "offset": 10.0},) * 2,
    ])
    def test_cyclic_node_table_exits_2(self, workdir, capsys, split_0, split_1):
        # node 1's left child is the root
        doc = json.loads((workdir / "stump4.json").read_text())
        doc["nodes"] = [
            {"id": 0, "split": split_0, "left": 1, "right": 2},
            {"id": 1, "split": split_1, "left": 0, "right": 3},
            {"id": 2, "value": {"type": "scalar", "v": 1.0}},
            {"id": 3, "value": {"type": "scalar", "v": 2.0}},
        ]
        cyclic = workdir / "cyclic.json"
        cyclic.write_text(json.dumps(doc))
        assert run_cli(["validate", str(cyclic)]) == 2
        assert capsys.readouterr().err.startswith("code=VALIDATION")

    def test_input_checks_run_before_any_work(self, workdir, capsys):
        missing = str(workdir / "missing.csv")
        forest = str(workdir / "three.json")
        runs = [
            (["combine", "--forest", forest, "--out", str(workdir / "o.json"),
              "--max-nodes", "0", "--weights", missing],
             "--max-nodes must be at least 1"),
            (["affine", "--forest", forest, "--out", str(workdir / "o.json"),
              "--weights", missing],
             f"input file does not exist: {missing}"),
            (["dist", "--a", str(workdir / "nowhere.json"), "--b", str(workdir / "nowhere.json"),
              "--measure", "empirical", "--data", missing],
             f"input file does not exist: {missing}"),
        ]
        for argv, message in runs:
            assert run_cli(argv) == 2
            assert capsys.readouterr().err == f'code=DOMAIN msg="{message}"\n'
        assert not (workdir / "o.json").exists()

    @pytest.mark.parametrize("text, command, err", [
        ("0,1\n1,x\n", "mds --matrix {} --dims 1 --out {out}",
         "PARSE msg=\"{}: line 2: could not convert string to float: 'x'\""),
        ("0,1\n1,0,2\n", "mds --matrix {} --dims 1 --out {out}",
         'PARSE msg="{}: line 2: 3 columns, expected 2"'),
        ("0,nan\nnan,0\n", "mds --matrix {} --dims 1 --out {out}",
         'DOMAIN msg="distance matrix has non-finite entries"'),
        ("0,inf\ninf,0\n", "mds --matrix {} --dims 1 --out {out}",
         'DOMAIN msg="distance matrix has non-finite entries"'),
        ("0.5\nabc\n0.25\n", "affine --forest {three} --weights {} --out {out}",
         "PARSE msg=\"{}: line 2: could not convert string to float: 'abc'\""),
        ("0.5\nabc\n0.25\n", "combine --forest {three} --weights {} --out {out}",
         "PARSE msg=\"{}: line 2: could not convert string to float: 'abc'\""),
        ("0.5\nabc\n0.25\n", "dist --a {stump4} --b {stump6} --measure empirical "
         "--data {pts} --weights {}",
         "PARSE msg=\"{}: line 2: could not convert string to float: 'abc'\""),
        ("0.5\nnan\n0.5\n", "dist --a {stump4} --b {stump6} --measure empirical "
         "--data {pts} --weights {}", 'DOMAIN msg="empirical weight is not finite"'),
        ("0.5\nnan\n0.5\n", "corr --a {stump4} --b {stump6} --measure empirical "
         "--data {pts} --weights {}", 'DOMAIN msg="empirical weight is not finite"'),
        ("0.5\nnan\n0.5\n", "affine --forest {three} --weights {} --out {out}",
         'DOMAIN msg="affine weights must be finite, got [0.5, nan, 0.5]"'),
        ("1e308\n1e308\n1e308\n", "affine --forest {three} --weights {} --out {out}",
         'DOMAIN msg="affine combination overflows to a non-finite leaf value"'),
        ("{}", "import --table {table} --schema {} --out {out}",
         "PARSE msg=\"{}: malformed document ('features')\""),
        ("[1, 2]", "import --table {table} --schema {} --out {out}",
         "PARSE msg=\"{}: malformed document ('list' object has no attribute 'get')\""),
        (FLAT_HEADER + "0,0,,,0,4.0,\n0,1,x,1,,,0.0\n0,2,0,0,,,1.0\n",
         "import --table {} --schema {schema} --out {out}",
         "PARSE msg=\"{}: line 3: bad parent_id 'x'\""),
        (FLAT_HEADER + "0,0,,,0.5,4.0,\n0,1,0,1,,,0.0\n0,2,0,0,,,1.0\n",
         "import --table {} --schema {schema} --out {out}",
         "PARSE msg=\"{}: line 2: bad split_feature '0.5'\""),
        (FLAT_HEADER + "0,0,,,0,4.0,\n0,1,0,1,,,0.0,9\n0,2,0,0,,,1.0\n",
         "import --table {} --schema {schema} --out {out}",
         'PARSE msg="{}: line 3: 8 fields, expected 7"'),
        (stump_json(split={"type": "x", "feature": 0}), "validate {}",
         'PARSE msg="{}: nodes[0].split.type must be "numeric", "categorical" or '
         '"hyperplane", got "x""'),
        (stump_json(value={"type": "x", "v": 0.0}), "validate {}",
         'PARSE msg="{}: nodes[1].value.type must be "scalar", "class_probs" or "tuple", '
         'got "x""'),
        (stump_json(feature={"name": "y", "kind": "x"}), "dist --a {} --b {stump4}",
         'PARSE msg="{}: schema.features[1].kind must be "numeric" or "categorical", got "x""'),
        (stump_json(split={"type": "hyperplane", "coeffs": [0.0, -0.0], "offset": 1.0}),
         "validate {}",
         'PARSE msg="{}: nodes[0].split.coeffs must not all be zero, got [0.0, -0.0]"'),
        (stump_json(feature={"name": ["y"], "kind": "numeric", "low": 0.0, "high": 1.0}),
         "validate {}", 'PARSE msg="{}: schema.features[1].name must be a string, got ["y"]"'),
        (stump_json(feature={"name": 1, "kind": "numeric", "low": 0.0, "high": 1.0}),
         "dist-matrix --forest {} --out {out}",
         'PARSE msg="{}: schema.features[1].name must be a string, got 1"'),
        ("[1, 2]", "validate {}", 'PARSE msg="{}: document must be an object, got [1, 2]"'),
        (stump_with("nodes", 1, "value", to=5), "validate {}",
         'PARSE msg="{}: nodes[1].value must be an object, got 5"'),
        (stump_with("nodes", 0, "split", to=5), "validate {}",
         'PARSE msg="{}: nodes[0].split must be an object, got 5"'),
        (stump_with("nodes", 2, to="leaf"), "validate {}",
         'PARSE msg="{}: nodes[2] must be an object, got "leaf""'),
        (stump_json(value={"type": "tuple", "values": [None], "source_ids": [0]}), "validate {}",
         'PARSE msg="{}: nodes[1].value.values[0] must be an object, got null"'),
        (stump_json(split={"type": "hyperplane", "coeffs": 1.0, "offset": 1.0}), "validate {}",
         'PARSE msg="{}: nodes[0].split.coeffs must be a list, got 1.0"'),
        (stump_json(value={"type": "class_probs", "probs": 1.0}), "validate {}",
         'PARSE msg="{}: nodes[1].value.probs must be a list, got 1.0"'),
        (stump_json(split={"type": "categorical", "feature": 0, "left_levels": "ab"}),
         "validate {}", 'PARSE msg="{}: nodes[0].split.left_levels must be a list, got "ab""'),
        (stump_with("nodes", to={"0": {"id": 0}}), "validate {}",
         'PARSE msg="{}: nodes must be a list, got {{"0": {{"id": 0}}}}"'),
        (stump_with("trees", to=5, forest=True), "validate {}",
         'PARSE msg="{}: trees must be a list, got 5"'),
        (stump_with("metadata", to=[1], forest=True), "validate {}",
         'PARSE msg="{}: metadata must be an object, got [1]"'),
        (stump_with("schema", "features", to=5), "dist --a {} --b {stump4}",
         'PARSE msg="{}: schema.features must be a list, got 5"'),
        (stump_with("trees", 0, "nodes", 1, "value", to="x" * 50, forest=True), "validate {}",
         'PARSE msg="{}: trees[0].nodes[1].value must be an object, got "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx..."'),
    ])
    def test_malformed_or_non_finite_input_exits_2(self, workdir, capsys, text, command, err):
        """A bad input file gets one diagnostic line and exit 2, and no
        output is written."""
        bad, out = workdir / "bad.txt", workdir / "out.txt"
        bad.write_text(text)
        (workdir / "pts.csv").write_text("1,0\n5,0\n9,0\n")
        (workdir / "table.csv").write_text(TestFlatTableImport.STUMP_TABLE)
        files = {name: str(workdir / f"{name}.{ext}") for name, ext in (
            ("three", "json"), ("stump4", "json"), ("stump6", "json"), ("pts", "csv"),
            ("table", "csv"), ("schema", "json"))}
        argv = [arg.format(str(bad), out=str(out), **files) for arg in command.split()]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"code={err.format(bad)}\n"
        assert not out.exists()

    def test_unknown_flag_exits_1(self, workdir, capsys):
        assert run_cli(["dist", "--bogus"]) == 1

    def test_dist_matrix_has_no_jobs_flag(self, workdir, capsys):
        code = run_cli(
            ["dist-matrix", "--forest", str(workdir / "three.json"),
             "--out", str(workdir / "D.csv"), "--jobs", "2"]
        )
        assert code == 1
        assert capsys.readouterr().err == "usage error: unrecognized arguments: --jobs 2\n"
        assert not (workdir / "D.csv").exists()

    def test_missing_command_exits_1(self, capsys):
        assert run_cli([]) == 1

    def test_usage_text_is_pinned(self, capsys):
        assert run_cli(["--help"]) == 0
        assert capsys.readouterr().out == GOLDEN_USAGE

    def test_every_flag_documented_in_subcommand_help(self, capsys):
        expected = {
            "combine": ["--forest", "--out", "--weights", "--simplify", "--max-nodes"],
            "affine": ["--forest", "--out", "--weights", "--simplify", "--max-nodes"],
            "dist": ["--a", "--b", "--measure", "--data", "--weights"],
            "corr": ["--a", "--b", "--measure", "--data", "--weights"],
            "dist-matrix": ["--forest", "--out", "--measure", "--data", "--weights"],
            "forest-dist": ["--f", "--g", "--measure", "--data", "--weights"],
            "mds": ["--matrix", "--dims", "--out", "--svg"],
            "oracle-check": ["--forest", "--samples", "--seed", "--measure", "--data", "--weights"],
            "import": ["--table", "--schema", "--dialect", "--out"],
        }
        for command, flags in expected.items():
            assert run_cli([command, "--help"]) == 0
            text = capsys.readouterr().out
            for flag in flags:
                assert flag in text, (command, flag)

    def test_seed_env_var_is_default(self, workdir, capsys, monkeypatch):
        monkeypatch.setenv("TREEALG_SEED", "99")
        code = run_cli(
            ["oracle-check", "--forest", str(workdir / "three.json"), "--samples", "500"]
        )
        assert code == 0
        first = capsys.readouterr().out
        code = run_cli(
            ["oracle-check", "--forest", str(workdir / "three.json"),
             "--samples", "500", "--seed", "99"]
        )
        assert capsys.readouterr().out == first


class TestStartUp:
    def test_import_leaves_the_oracle_unloaded(self):
        """The brute-force oracle is imported on first use: a fresh import
        without cached bytecode compiles the library but not the oracle."""
        src = os.path.dirname(os.path.dirname(ta.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
        code = "import treealgebra, sys; print('treealgebra.oracle' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout == "False\n"

    def test_loading_valid_files_leaves_the_oracle_unloaded(self, workdir, unit2):
        """Only a tree that may be invalid is checked by the per-node walk
        in the oracle: loading valid files of every split and leaf kind,
        and of combine and affine output, never imports it."""
        cat = ta.FeatureSchema((ta.NumericFeature("x", 0, 1),
                                ta.CategoricalFeature("c", ("a", "b", "c"))))
        b = ta.TreeBuilder(cat)
        left, right = b.split_node(b.add_root(), ta.CategoricalSubset(1, {0, 2}))
        b.set_value(left, ta.Scalar(1.0))
        low, high = b.split_node(right, ta.NumericThreshold(0, 0.5))
        b.set_value(low, ta.Scalar(2.0))
        b.set_value(high, ta.Scalar(3.0))
        io.save_tree(b.build(), str(workdir / "categorical.json"))
        b = ta.TreeBuilder(unit2)
        left, right = b.split_node(b.add_root(), ta.Hyperplane((1.0, 1.0), 1.0))
        b.set_value(left, ta.ClassProbs((0.25, 0.75)))
        b.set_value(right, ta.ClassProbs((1.0, 0.0)))
        io.save_tree(b.build(), str(workdir / "oblique.json"))
        three = str(workdir / "three.json")
        assert run_cli(["combine", "--forest", three, "--out", str(workdir / "tuples.json")]) == 0
        assert run_cli(["affine", "--forest", three, "--weights", str(workdir / "w.csv"),
                        "--out", str(workdir / "affine.json")]) == 0
        paths = [str(workdir / f"{name}.json") for name in
                 ("three", "stump4", "categorical", "oblique", "tuples", "affine")]
        src = os.path.dirname(os.path.dirname(ta.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=path)
        code = ("import sys; from treealgebra import io\n"
                "for p in sys.argv[1:]: io.load_forest(p)\n"
                "print('treealgebra.oracle' in sys.modules)")
        run = subprocess.run([sys.executable, "-c", code, *paths], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout == "False\n"

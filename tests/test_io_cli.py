"""Serialization, the flat-table import dialect, and the CLI surface."""

import gc
import json
import os
import subprocess
import sys
import warnings

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

# a forest file of two stumps
TWO_STUMPS = stump_with("trees", to=[{"nodes": json.loads(stump_json())["nodes"], "root": 0}] * 2,
                        forest=True)

# a categorical second feature, and a split by its level 1
LEVELS = {"name": "c", "kind": "categorical", "levels": ["a", "b"]}
LEVEL_1 = {"type": "categorical", "feature": 1, "left_levels": [1]}


def forest_of(*roots, feature=None) -> str:
    """A forest file of stumps of :func:`stump_json` (with its ``feature``),
    one per entry of ``roots``, a dict of fields that replace the root's."""
    doc = json.loads(stump_json(feature=feature))
    bodies = [{"nodes": [{**doc["nodes"][0], **root}, *doc["nodes"][1:]], "root": 0}
              for root in roots]
    return json.dumps({"schema": doc["schema"], "trees": bodies, "metadata": {}})


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


# what a mutation sets a field to; () deletes the field instead
MUTANT_VALUES = ((), None, True, 0, -1, 2**63, 1e308, -1e308, "", [], {})


def single_mutations(doc):
    """Every copy of a JSON document with one field deleted (a key of an
    object) or set to one of :data:`MUTANT_VALUES`, with the field's path."""

    def paths(node, path):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,)
            if isinstance(value, (dict, list)):
                yield from paths(value, path + (key,))

    for path in paths(doc, ()):
        for value in MUTANT_VALUES[isinstance(path[-1], int):]:
            mutant = json.loads(json.dumps(doc))
            field = mutant
            for key in path[:-1]:
                field = field[key]
            if value == ():
                del field[path[-1]]
            else:
                field[path[-1]] = value
            yield path, value, mutant


# what a mutation sets one cell of a CSV file to
CSV_MUTANTS = ("", "nan", "inf", "-1", "1e309", "x")


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

    def test_equal_categorical_splits_share_one_object(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(forest_of({"split": LEVEL_1}, {"split": LEVEL_1},
                                  {"split": {**LEVEL_1, "left_levels": [0]}}, feature=LEVELS))
        forest = io.load_forest(str(path))
        (a, b, c) = (t.split[t.root_pos] for t in forest.trees)
        assert a is b and a is not c and c.left_levels == {0}
        assert io.forest_to_json(forest) == path.read_text() + "\n"

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_load_restores_the_collector_state(self, tmp_path, enabled):
        files = {name: tmp_path / f"{name}.json" for name in ("ok", "parse", "validation")}
        files["ok"].write_text(stump_json())
        files["parse"].write_text(stump_json(split={"type": "x"}))
        files["validation"].write_text(stump_with("nodes", 2, "value", to=None))
        before = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            io.load_forest(str(files["ok"]))
            assert gc.isenabled() is enabled
            for name, error in (("parse", ta.ParseError), ("validation", ta.ValidationError)):
                with pytest.raises(error):
                    io.load_forest(str(files[name]))
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if before else gc.disable)()

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
            # a column at a time would name 'abc' first
            ("1,zz\nabc,a\n", ta.DomainError, "feature 'c': unknown level 'zz'"),
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

    @pytest.mark.parametrize("text, expected", [
        ("1,a\r\n2,a b\r\n", [[1.0, 0.0], [2.0, 1.0]]),
        ("1,a\r2,a b\r", [[1.0, 0.0], [2.0, 1.0]]),
        ("\t\n1,a\n \r\n\x0c\n2,a\n", [[1.0, 0.0], [2.0, 0.0]]),
        ("1\x0c,\x0ca\n2\x1c,a\x1c\n", [[1.0, 0.0], [2.0, 0.0]]),
        ("  1 ,  a b \n", [[1.0, 1.0]]),
        ("1_0,a", [[10.0, 0.0]]),
        # newlines alone end a line, so \x0c and \x1c do not move line 2
        ("1,\x0ca\x1c2\n1,a,3\n", "{path}: line 2: 3 columns, expected 2"),
        ("\r\n \r\n1,a\r\n1\r\n", "{path}: line 4: 1 columns, expected 2"),
    ])
    def test_line_ends_whitespace_and_numbers(self, tmp_path, text, expected):
        schema = ta.FeatureSchema((ta.NumericFeature("x", 0, 10),
                                   ta.CategoricalFeature("c", ("a", "a b"))))
        path = tmp_path / "pts.csv"
        path.write_bytes(text.encode())
        if isinstance(expected, str):
            with pytest.raises(ta.ParseError) as err:
                io.read_points_csv(str(path), schema)
            assert str(err.value) == expected.format(path=path)
        else:
            assert io.read_points_csv(str(path), schema).tolist() == expected

    @pytest.mark.parametrize("seed", [0, 7])
    def test_reader_equals_the_row_rule(self, tmp_path, seed):
        # the points a row at a time: each non-blank line stripped and split
        # on commas, and once every line has its width, the stripped cells
        # encoded one value at a time
        schema = ta.FeatureSchema((ta.NumericFeature("x", -1, 1),
                                   ta.CategoricalFeature("c", ("a", "b", "a b")),
                                   ta.NumericFeature("y", 0, 100)))

        def row_rule(path):
            with open(path) as handle:
                lines = handle.read().split("\n")
            rows = []
            for line_no, line in enumerate(lines, 1):
                cells = line.strip().split(",")
                if cells == [""]:
                    continue
                if len(cells) != 3:
                    raise ta.ParseError(f"{path}: line {line_no}: {len(cells)} columns, expected 3")
                rows.append([c.strip() for c in cells])
            if not rows:
                raise ta.ParseError(f"{path}: no data points")
            return np.array([schema.encode_point(row) for row in rows])

        def outcome(read, path):
            try:
                X = read(path)
            except (ta.ParseError, ta.DomainError) as e:
                return type(e), str(e)
            return X.shape, X.tobytes()

        columns = [["0.5", " -1", "1 ", "1e-3", "0_1", "\x0c.25", "-0.0"],
                   ["a", " b", "a b", "\x0ca", "b\x1c"],
                   ["2", "1_0", " 100\t", "77", "\x1c3"]]
        bad = ["nan", "x", "", "1e309", "a", "-5", "c", "0.5"]
        ends = ["\n", "\r\n", "\r", "\n \n", "\n\x0c\n"]
        rng = np.random.default_rng(seed)
        path = tmp_path / "pts.csv"
        kinds = set()
        for _ in range(300):
            lines = [",".join(rng.choice(bad if rng.random() < 0.02 else column)
                              for column in (columns * 2)[:rng.choice([3] * 30 + [2, 4])])
                     for _ in range(rng.integers(0, 8))]
            text = "".join(line + rng.choice(ends) for line in lines)
            path.write_bytes(text[:len(text) - rng.integers(0, 2)].encode())
            expected = outcome(row_rule, str(path))
            assert outcome(lambda p: io.read_points_csv(p, schema), str(path)) == expected, text
            kinds.add(expected[0] if expected[0] in (ta.ParseError, ta.DomainError) else "points")
        assert kinds == {"points", ta.ParseError, ta.DomainError}


class TestMatrixCsv:
    def test_each_float_keeps_its_own_text(self, tmp_path):
        # texts are shared by bit pattern: 0.0 and -0.0 are equal but
        # written apart, and non-finite values are written, not refused
        path = tmp_path / "m.csv"
        matrix = np.array([[0.0, -0.0, np.nan], [np.inf, -np.inf, 0.1], [0.1, -0.0, 0.0]])
        io.write_matrix_csv(str(path), matrix)
        assert path.read_text() == "0.0, -0.0, nan\ninf, -inf, 0.1\n0.1, -0.0, 0.0\n"
        assert io.read_matrix_csv(str(path)).tobytes() == matrix.tobytes()
        io.write_matrix_csv(str(path), np.array([1, 2]))
        assert path.read_text() == "1.0, 2.0\n"


class TestAtomicWrites:
    def test_no_temp_files_left_behind(self, workdir):
        names = {p.name for p in workdir.iterdir()}
        assert not any(n.startswith(".tmp-") for n in names)

    def test_failed_write_removes_its_temp_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        # a lone surrogate has no UTF-8 encoding, so the write itself fails
        with pytest.raises(UnicodeEncodeError):
            io.write_text_atomic(str(path), "new \ud800\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert path.read_text() == "old\n"

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
        ("0,0,,,0,4.0,\n0,1,0,maybe,,,0.0\n0,2,0,0,,,1.0\n",
         "line 3: tree 0 node 1: bad is_left_child 'maybe'"),
        ("x,0,,,0,4.0,\n0,1,0,1,,,0.0\n0,2,0,0,,,1.0\n", "line 2: bad tree_id/node_id"),
        ("0,-1,,,0,4.0,\n0,1,0,1,,,0.0\n0,2,0,0,,,1.0\n", "line 2: bad tree_id/node_id"),
        ("0,0,,,,4.0,\n0,1,0,1,,,0.0\n0,2,0,0,,,1.0\n",
         "line 2: tree 0 node 0: internal node without split_feature"),
        ("0,0,,,0,4.0,\n0,1,0,1,,,\n0,2,0,0,,,1.0\n",
         "line 3: tree 0 node 1: leaf without leaf_value"),
        ("", "no nodes"),
    ])
    def test_node_messages_name_the_file_and_line(self, tmp_path, d2, capsys, rows, message):
        self.assert_refused(tmp_path, d2, capsys, FLAT_HEADER + rows, message)

    @staticmethod
    def assert_refused(tmp_path, schema, capsys, text, message):
        """The table ``text`` is refused with ``message`` after its path, by
        the import function and by the command."""
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(ta.ParseError) as err:
            io.import_external_forest(str(path), "flat-table", schema)
        assert str(err.value) == f"{path}: {message}"
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps({"schema": io._schema_to_dict(schema)}))
        argv = ["import", "--table", str(path), "--schema", str(schema_path),
                "--out", str(tmp_path / "o")]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f'code=PARSE msg="{path}: {message}"\n'

    def test_header_must_name_every_column_in_order(self, tmp_path, d2, capsys):
        header = ",".join(io.FLAT_TABLE_COLUMNS[::-1]) + "\n"
        self.assert_refused(tmp_path, d2, capsys, header + "0,0,,,0,4.0,\n",
                            f"header must be exactly {','.join(io.FLAT_TABLE_COLUMNS)}")

    def test_unknown_level_is_named(self, tmp_path, capsys):
        schema = ta.FeatureSchema((ta.CategoricalFeature("c", ("a", "b")),))
        self.assert_refused(tmp_path, schema, capsys,
                            FLAT_HEADER + "0,0,,,0,a|zz,\n0,1,0,1,,,0.0\n0,2,0,0,,,1.0\n",
                            "line 2: tree 0 node 0: unknown level 'zz'")

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

    def test_forest_dist_rejects_class_probability_forests(self, tmp_path, d2, capsys):
        schema = ta.FeatureSchema(d2.features, ("a", "b"))
        trees = [ta.random_tree(schema, np.random.default_rng(k), 3, "class_probs") for k in range(2)]
        path = str(tmp_path / "probs.json")
        io.save_forest(io.ForestFile(schema, trees), path)
        assert run_cli(["forest-dist", "--f", path, "--g", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == 'code=LEAF_KIND msg="forest_distance needs scalar leaves"\n'

    def test_import_command(self, workdir):
        (workdir / "table.csv").write_text(TestFlatTableImport.STUMP_TABLE)
        out = workdir / "imported.json"
        assert run_cli(
            ["import", "--table", str(workdir / "table.csv"),
             "--schema", str(workdir / "schema.json"), "--out", str(out)]
        ) == 0
        assert len(io.load_forest(str(out)).trees) == 1

    def test_import_of_a_padded_header_writes_the_same_bytes(self, workdir):
        plain, padded = workdir / "plain.json", workdir / "padded.json"
        header, body = TestFlatTableImport.STUMP_TABLE.split("\n", 1)
        cells = header.split(",")
        (workdir / "padded.csv").write_text(",".join(
            (" " if k % 2 else "\t") + c + (" " if k % 2 else "\t")
            for k, c in enumerate(cells)) + "\n" + body)
        (workdir / "table.csv").write_text(TestFlatTableImport.STUMP_TABLE)
        for table, out in (("table.csv", plain), ("padded.csv", padded)):
            assert run_cli(["import", "--table", str(workdir / table),
                            "--schema", str(workdir / "schema.json"), "--out", str(out)]) == 0
        assert padded.read_bytes() == plain.read_bytes()

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

    @pytest.mark.parametrize("split_0, split_1, message", [
        # a hyperplane below itself leaves its right side empty
        ({"type": "hyperplane", "coeffs": [1.0, 1.0], "offset": 5.0},) * 2
        + ("node 1: split does not partition node region",),
        # 1e308 * x overflows on [0, 10], so no LP may run on it
        ({"type": "hyperplane", "coeffs": [1e308, 1.0], "offset": 5.0}, None,
         "node 0: hyperplane overflows on the domain box"),
        # the sum stays finite, but the LP's ratios overflow past the float
        # range, and such a ratio bounds nothing
        ({"type": "hyperplane", "coeffs": [0.3, -0.7], "offset": 1e308}, None,
         "node 0: split does not partition node region"),
    ], ids=["repeated", "overflow", "offset"])
    def test_hyperplane_files_that_do_not_validate(self, tmp_path, capsys, split_0, split_1,
                                                   message):
        doc = json.loads(stump_json(split=split_0))
        if split_1:
            doc["nodes"][1:2] = [{"id": 1, "split": split_1, "left": 3, "right": 4},
                                 {"id": 3, "value": {"type": "scalar", "v": 3.0}},
                                 {"id": 4, "value": {"type": "scalar", "v": 4.0}}]
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning
            assert run_cli(["validate", str(path)]) == 2
        assert capsys.readouterr() == ("", f'code=VALIDATION msg="tree 0: {message}"\n')

    def test_every_single_mutation_of_an_oblique_forest_fails_cleanly(self, tmp_path, capsys):
        # one stump is the offset case above before its mutation; the last
        # repeats the categorical split before it, which a load builds once
        schema = ta.FeatureSchema((ta.NumericFeature("x", 0.0, 10.0),
                                   ta.NumericFeature("y", 0.0, 10.0),
                                   ta.CategoricalFeature("c", ("a", "b", "c"))))
        trees = []
        for splits in ([ta.Hyperplane((0.3, -0.7), 1.0)],
                       [ta.Hyperplane((1.0, 1.0), 10.0), ta.NumericThreshold(0, 2.0),
                        ta.CategoricalSubset(2, {0, 2})],
                       [ta.CategoricalSubset(2, {0, 2})]):
            b = ta.TreeBuilder(schema)
            nodes = [b.add_root()]
            for split in splits:
                nodes[:1] = b.split_node(nodes[0], split)
            for k, nid in enumerate(nodes):
                b.set_value(nid, ta.Scalar(float(k)))
            trees.append(b.build())
        doc = json.loads(io.forest_to_json(io.ForestFile(schema, trees)))
        path, runs = tmp_path / "mutant.json", 0
        for field, value, mutant in single_mutations(doc):
            path.write_text(json.dumps(mutant))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run_cli(["validate", str(path)])
            err = capsys.readouterr().err
            assert code in (0, 2), (field, value)
            assert caught == [], (field, value, str(caught[0].message))
            assert err == "" or (err.startswith("code=") and err.count("\n") == 1), (field, value)
            assert "malformed document (" not in err, (field, value)
            runs += 1
        assert runs == 1279

    def test_every_single_cell_mutation_of_a_csv_input_fails_cleanly(self, tmp_path, capsys):
        # a points, weights and matrix CSV and a flat table, each given to
        # the command that reads it, with one cell replaced by each of
        # CSV_MUTANTS, padded with spaces or followed by an extra field
        forest = tmp_path / "two.json"
        forest.write_text(forest_of({}, {"split": LEVEL_1}, feature=LEVELS))
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"schema": json.loads(forest.read_text())["schema"]}))
        out = str(tmp_path / "out")
        inputs = [
            ("1.0,a\n5.0,b\n9.0,a\n",
             ["dist-matrix", "--forest", str(forest), "--out", out, "--measure", "empirical",
              "--data"]),
            ("0.25\n0.75\n", ["affine", "--forest", str(forest), "--out", out, "--weights"]),
            ("0,1,2\n1,0,1\n2,1,0\n", ["mds", "--dims", "2", "--out", out, "--matrix"]),
            (FLAT_HEADER + "0,0,,,0,4.0,\n0,1,0,1,,,0.0\n0,2,0,0,,,1.0\n1,0,,,1,b,\n"
             "1,1,0,true,,,2.0\n1,2,0,false,,,3.0\n",
             ["import", "--schema", str(schema), "--out", out, "--table"]),
        ]
        path, runs = tmp_path / "mutant.csv", 0
        for text, argv in inputs:
            path.write_text(text)
            assert run_cli(argv + [str(path)]) == 0, capsys.readouterr().err
            rows = [line.split(",") for line in text.splitlines()]
            for r, row in enumerate(rows):
                for c, cell in enumerate(row):
                    for value in CSV_MUTANTS + (" " + cell + " ", cell + ",1"):
                        mutant = [list(line) for line in rows]
                        mutant[r][c] = value
                        path.write_text("".join(",".join(line) + "\n" for line in mutant))
                        with warnings.catch_warnings(record=True) as caught:
                            warnings.simplefilter("always")
                            code = run_cli(argv + [str(path)])
                        err = capsys.readouterr().err
                        where = (argv[0], r, c, value)
                        assert code in (0, 2), where
                        assert caught == [], (where, str(caught[0].message))
                        assert err == "" or (err.startswith("code=") and err.count("\n") == 1), (
                            where, err)
                        runs += 1
        assert runs == 8 * (6 + 2 + 9 + 7 * 7)

    def test_every_single_mutation_of_a_schema_file_fails_cleanly(self, tmp_path, capsys):
        # a schema of a numeric and a categorical feature and class labels,
        # each mutant given to import with a table that fits the original
        doc = {"schema": {"features": [{"name": "x", "kind": "numeric", "low": 0.0, "high": 10.0},
                                       {"name": "c", "kind": "categorical",
                                        "levels": ["a", "b"]}],
                          "class_labels": ["u", "v"]}}
        table = tmp_path / "table.csv"
        table.write_text(FLAT_HEADER + "0,0,,,0,4.0,\n0,1,0,1,,,0.25|0.75\n0,2,0,0,1,b,\n"
                         "0,3,2,1,,,1.0|0.0\n0,4,2,0,,,0.5|0.5\n")
        path, runs = tmp_path / "schema.json", 0
        argv = ["import", "--table", str(table), "--schema", str(path), "--out",
                str(tmp_path / "out.json")]
        path.write_text(json.dumps(doc))
        assert run_cli(argv) == 0, capsys.readouterr().err
        for field, value, mutant in single_mutations(doc):
            path.write_text(json.dumps(mutant))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run_cli(argv)
            err = capsys.readouterr().err
            assert code in (0, 2), (field, value)
            assert caught == [], (field, value, str(caught[0].message))
            assert err == "" or (err.startswith("code=") and err.count("\n") == 1), (field, value)
            assert "malformed document (" not in err, (field, value)
            runs += 1
        assert runs == 170

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
        ("0.5\n0.5\n", "dist --a {stump4} --b {stump6} --measure empirical "
         "--data {pts} --weights {}", 'DOMAIN msg="points and weights differ in length"'),
        ("0.5\n0.7\n-0.2\n", "dist --a {stump4} --b {stump6} --measure empirical "
         "--data {pts} --weights {}", 'DOMAIN msg="negative empirical weight"'),
        ("0.5\n0.4\n0.0\n", "dist --a {stump4} --b {stump6} --measure empirical "
         "--data {pts} --weights {}", 'DOMAIN msg="empirical weights sum 0.9 != 1"'),
        ("", "dist --a {stump4} --b {stump6} --measure empirical --data {}",
         'PARSE msg="{}: no data points"'),
        ("0.5\nnan\n0.5\n", "affine --forest {three} --weights {} --out {out}",
         'DOMAIN msg="affine weights must be finite, got [0.5, nan, 0.5]"'),
        ("1e308\n1e308\n1e308\n", "affine --forest {three} --weights {} --out {out}",
         'DOMAIN msg="affine combination overflows to a non-finite leaf value"'),
        ("{}", "import --table {table} --schema {} --out {out}",
         'PARSE msg="{}: schema.features is missing"'),
        ("[1, 2]", "import --table {table} --schema {} --out {out}",
         'PARSE msg="{}: document must be an object, got [1, 2]"'),
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
        ('{"features": 5}', "import --table {table} --schema {} --out {out}",
         'PARSE msg="{}: schema.features must be a list, got 5"'),
        ('{"features": [5]}', "import --table {table} --schema {} --out {out}",
         'PARSE msg="{}: schema.features[0] must be an object, got 5"'),
        ("0,1,2\n1,0,2\n", "mds --matrix {} --dims 1 --out {out}",
         'DOMAIN msg="distance matrix must be square"'),
        ("0,-1\n-1,0\n", "mds --matrix {} --dims 1 --out {out}",
         'DOMAIN msg="distance matrix has negative entries"'),
        ("0,1\n1,0\n", "mds --matrix {} --dims 3 --out {out}", 'DOMAIN msg="dims must be in [1, 2]"'),
        ("0,1\n1,0\n", "mds --matrix {} --dims 0 --out {out}", 'DOMAIN msg="dims must be in [1, 2]"'),
        ("", "mds --matrix {} --dims 1 --out {out}", 'PARSE msg="{}: empty matrix"'),
        ("", "affine --forest {three} --weights {} --out {out}", 'PARSE msg="{}: no weights"'),
        # a split that repeats an earlier one is the same split only when
        # its feature and levels are JSON integers too
        (forest_of({"split": LEVEL_1}, {"split": {**LEVEL_1, "left_levels": [True]}},
                   feature=LEVELS), "validate {}",
         'PARSE msg="{}: trees[1].nodes[0].split.left_levels[0] must be an integer, got true"'),
        (forest_of({"split": LEVEL_1}, {"split": {**LEVEL_1, "left_levels": [1.0]}},
                   feature=LEVELS), "validate {}",
         'PARSE msg="{}: trees[1].nodes[0].split.left_levels[0] must be an integer, got 1.0"'),
        (forest_of({"split": LEVEL_1}, {"split": {**LEVEL_1, "feature": True}},
                   feature=LEVELS), "validate {}",
         'PARSE msg="{}: trees[1].nodes[0].split.feature must be an integer, got true"'),
        # the first tree's fault is named, though the second's is in a field
        # a load reads first
        (forest_of({"left": -1}, {"id": "x"}), "validate {}",
         'PARSE msg="{}: trees[0].nodes[0].left must be a non-negative integer, got -1"'),
        # a key of the other form is not looked at: a forest's stray nodes
        # and a tree's stray metadata leave the loader's own message
        (json.dumps({**json.loads(stump_with("trees", 0, "nodes", 1, "value", "v", to="x",
                                             forest=True)), "nodes": 5}), "validate {}",
         'PARSE msg="{}: trees[0].nodes[1].value.v must be a number, got "x""'),
        (json.dumps({**json.loads(stump_json(value={"type": "scalar", "v": "x"})), "metadata": 5}),
         "validate {}", 'PARSE msg="{}: nodes[1].value.v must be a number, got "x""'),
        # README's example of a missing key
        (stump_json().replace('{"id": 1, ', "{"), "validate {}",
         'PARSE msg="{}: nodes[1].id is missing"'),
        # null is absent only for a split or a value; any other field is named
        (stump_with("nodes", to=None), "validate {}", 'PARSE msg="{}: nodes must be a list, got null"'),
        (stump_with("trees", to=None, forest=True), "validate {}",
         'PARSE msg="{}: trees must be a list, got null"'),
        (stump_with("metadata", to=None, forest=True), "validate {}",
         'PARSE msg="{}: metadata must be an object, got null"'),
        (stump_with("schema", to=None), "validate {}",
         'PARSE msg="{}: schema must be an object, got null"'),
        (stump_with("schema", "features", to=None), "dist --a {} --b {stump4}",
         'PARSE msg="{}: schema.features must be a list, got null"'),
        (stump_json(value={"type": "class_probs", "probs": None}), "validate {}",
         'PARSE msg="{}: nodes[1].value.probs must be a list, got null"'),
        # ... but not in place of a message that names the fault
        (stump_json(value={"type": "scalar", "v": "x", "probs": None}), "validate {}",
         'PARSE msg="{}: nodes[1].value.v must be a number, got "x""'),
        # nor does a field the value's or split's type never reads
        (stump_json(value={"type": "scalar", "v": "x", "probs": 5}), "validate {}",
         'PARSE msg="{}: nodes[1].value.v must be a number, got "x""'),
        (stump_json(split={"type": "numeric", "feature": 0, "threshold": "x", "coeffs": 5}),
         "validate {}", 'PARSE msg="{}: nodes[0].split.threshold must be a number, got "x""'),
        ('{"features": null}', "import --table {table} --schema {} --out {out}",
         'PARSE msg="{}: schema.features must be a list, got null"'),
        ('{"schema": null}', "import --table {table} --schema {} --out {out}",
         'PARSE msg="{}: schema must be an object, got null"'),
        (stump_json(), "dist --a {stump4} --b {stump6} --measure empirical",
         'DOMAIN msg="--measure empirical needs --data"'),
        # a forest of no trees loads, and an operation on it names itself
        (stump_with("trees", to=[], forest=True), "oracle-check --forest {} --samples 200",
         'DOMAIN msg="oracle-check needs at least one tree"'),
        (stump_with("trees", to=[], forest=True), "combine --forest {} --out {out}",
         'DOMAIN msg="combine_many needs at least one tree"'),
        (TWO_STUMPS, "dist --a {} --b {stump4}", 'DOMAIN msg="{} holds 2 trees, expected 1"'),
        (TWO_STUMPS, "corr --a {stump4} --b {}", 'DOMAIN msg="{} holds 2 trees, expected 1"'),
        (stump_json(feature={"name": "z", "kind": "numeric", "low": 0.0, "high": 10.0}),
         "dist --a {} --b {stump4}", 'SCHEMA msg="trees use different schemas"'),
        (stump_json(feature={"name": "z", "kind": "numeric", "low": 0.0, "high": 10.0}),
         "corr --a {stump4} --b {}", 'SCHEMA msg="trees use different schemas"'),
        (stump_json(feature={"name": "z", "kind": "numeric", "low": 0.0, "high": 10.0}),
         "forest-dist --f {three} --g {}", 'SCHEMA msg="trees use different schemas"'),
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

    @pytest.mark.parametrize("name, command", [
        ("pts.csv", "dist-matrix --forest {three} --out {out} --measure empirical --data {}"),
        ("w.csv", "affine --forest {three} --weights {} --out {out}"),
        ("D.csv", "mds --matrix {} --dims 1 --out {out}"),
        ("table.csv", "import --table {} --schema {schema} --out {out}"),
        ("schema.json", "import --table {table} --schema {} --out {out}"),
        ("stump4.json", "validate {}"),
    ])
    def test_a_byte_that_is_not_utf8_is_a_parse_error(self, workdir, capsys, name, command):
        """A \\xff byte in an input file that is valid without it gets one
        code=PARSE line naming the file and the byte's offset, and exit 2."""
        (workdir / "pts.csv").write_text("1,0\n5,0\n9,0\n")
        (workdir / "D.csv").write_text("0,1\n1,0\n")
        (workdir / "table.csv").write_text(TestFlatTableImport.STUMP_TABLE)
        good = (workdir / name).read_bytes()
        # on the second line of a CSV file, inside a feature name of a JSON one
        at = good.index(b"\n") + 1 if name.endswith(".csv") else good.index(b'"x1"') + 2
        bad, out = workdir / f"bad_{name}", workdir / "out.txt"
        bad.write_bytes(good[:at] + b"\xff" + good[at:])
        files = {key: str(workdir / f"{key}.{ext}") for key, ext in (
            ("three", "json"), ("table", "csv"), ("schema", "json"))}
        argv = [arg.format(str(bad), out=str(out), **files) for arg in command.split()]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f'code=PARSE msg="{bad}: not utf-8 text: byte 0xff at offset {at} '
                                '(invalid start byte)"\n')
        assert not out.exists()

    def test_a_directory_as_input_is_an_io_error(self, workdir, capsys):
        out = workdir / "o.json"
        assert run_cli(["combine", "--forest", str(workdir), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith('code=IO msg="') and str(workdir) in err
        assert not out.exists()

    def test_mds_notes_fewer_positive_eigenvalues_than_dims(self, workdir, capsys):
        (workdir / "D.csv").write_text("0,1\n1,0\n")
        out = workdir / "coords.csv"
        assert run_cli(["mds", "--matrix", str(workdir / "D.csv"), "--dims", "2",
                        "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "note: only 1 positive eigenvalue; trailing coordinates are zero\n"
        assert captured.out == "stress=0\n"
        assert (io.read_matrix_csv(str(out))[:, 1] == 0.0).all()

    def test_mds_of_zero_distances_has_zero_stress(self, workdir, capsys):
        (workdir / "D.csv").write_text("0,0\n0,0\n")
        out = workdir / "coords.csv"
        assert run_cli(["mds", "--matrix", str(workdir / "D.csv"), "--dims", "1",
                        "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "note: only 0 positive eigenvalues; trailing coordinates are zero\n"
        assert captured.out == "stress=0\n"
        assert (io.read_matrix_csv(str(out)) == 0.0).all()

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

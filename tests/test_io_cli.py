"""Serialization, the flat-table import dialect, and the CLI surface."""

import json
import os

import numpy as np
import pytest

import treealgebra as ta
from treealgebra import io
from treealgebra.cli import run_cli

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
        assert reloaded.nodes[reloaded.root].split.threshold == 0.1 + 0.2

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
            for nid in sorted(tree.nodes):
                node = tree.nodes[nid]
                parent = "" if node.parent is None else str(node.parent)
                is_left = ""
                if node.parent is not None:
                    is_left = "1" if tree.nodes[node.parent].left == nid else "0"
                if node.split is not None:
                    split = node.split
                    if isinstance(split, ta.NumericThreshold):
                        feat, payload = split.feature, repr(split.threshold)
                    else:
                        feat = split.feature
                        levels = schema.features[split.feature].levels
                        payload = "|".join(levels[i] for i in sorted(split.left_levels))
                    lines.append(f"{ti},{nid},{parent},{is_left},{feat},{payload},")
                else:
                    lines.append(f"{ti},{nid},{parent},{is_left},,,{node.value.value!r}")
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

    def test_combine_without_weights_keeps_tuples(self, workdir):
        out = workdir / "tuples.json"
        assert run_cli(
            ["combine", "--forest", str(workdir / "three.json"), "--out", str(out)]
        ) == 0
        tree = io.load_forest(str(out)).trees[0]
        assert isinstance(tree.nodes[tree.leaf_ids()[0]].value, ta.TupleValue)

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

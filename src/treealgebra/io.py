"""Serialization: the canonical JSON tree/forest format, CSV helpers, and
the flat-table import dialect.

The canonical JSON format round-trips byte-exactly: fields are emitted in a
fixed order, nodes in ascending id order, and numbers as Python's shortest
round-trippable decimals. A single tree file looks like::

    {"schema": {"features": [{"name": "x1", "kind": "numeric", "low": 0.0,
     "high": 10.0}], "class_labels": null},
     "nodes": [{"id": 0, "split": {"type": "numeric", "feature": 0,
     "threshold": 4.0}, "left": 1, "right": 2},
     {"id": 1, "value": {"type": "scalar", "v": 0.0}},
     {"id": 2, "value": {"type": "scalar", "v": 1.0}}],
     "root": 0}

A forest file replaces ``nodes``/``root`` with ``"trees": [{"nodes": ...,
"root": ...}, ...]`` plus a free-form string ``"metadata"`` map; both forms
load through :func:`load_forest`.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .trees import (
    CategoricalFeature,
    CategoricalSubset,
    ClassProbs,
    FeatureSchema,
    Hyperplane,
    Node,
    NumericFeature,
    NumericThreshold,
    Scalar,
    Tree,
    TupleValue,
    kinds_and_lengths,
    validate,
)

__all__ = [
    "ForestFile",
    "load_forest",
    "save_forest",
    "save_tree",
    "import_external_forest",
    "write_text_atomic",
    "write_matrix_csv",
    "read_matrix_csv",
    "read_points_csv",
    "read_weights_csv",
    "load_schema",
]

FLAT_TABLE_COLUMNS = [
    "tree_id",
    "node_id",
    "parent_id",
    "is_left_child",
    "split_feature",
    "split_threshold_or_levels",
    "leaf_value",
]


@dataclass
class ForestFile:
    """A validated collection of trees sharing one schema and leaf kind."""

    schema: FeatureSchema
    trees: list[Tree]
    metadata: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Atomic writes


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file plus rename, so readers never see a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# JSON encoding


def _schema_to_dict(schema: FeatureSchema) -> dict:
    features = []
    for f in schema.features:
        if isinstance(f, NumericFeature):
            features.append(
                {"name": f.name, "kind": "numeric", "low": f.low, "high": f.high}
            )
        else:
            features.append(
                {"name": f.name, "kind": "categorical", "levels": list(f.levels)}
            )
    labels = list(schema.class_labels) if schema.class_labels is not None else None
    return {"features": features, "class_labels": labels}


def _schema_from_dict(doc: dict) -> FeatureSchema:
    features = []
    for fd in doc["features"]:
        if fd["kind"] == "numeric":
            features.append(NumericFeature(fd["name"], float(fd["low"]), float(fd["high"])))
        elif fd["kind"] == "categorical":
            features.append(CategoricalFeature(fd["name"], tuple(fd["levels"])))
        else:
            raise ParseError(f"unknown feature kind {fd['kind']!r}")
    labels = doc.get("class_labels")
    return FeatureSchema(tuple(features), tuple(labels) if labels is not None else None)


def _split_to_dict(split) -> dict:
    if isinstance(split, NumericThreshold):
        return {"type": "numeric", "feature": split.feature, "threshold": split.threshold}
    if isinstance(split, CategoricalSubset):
        return {
            "type": "categorical",
            "feature": split.feature,
            "left_levels": sorted(split.left_levels),
        }
    return {"type": "hyperplane", "coeffs": list(split.coefficients), "offset": split.offset}


def _split_from_dict(doc: dict):
    kind = doc.get("type")
    if kind == "numeric":
        return NumericThreshold(int(doc["feature"]), float(doc["threshold"]))
    if kind == "categorical":
        return CategoricalSubset(int(doc["feature"]), frozenset(int(i) for i in doc["left_levels"]))
    if kind == "hyperplane":
        return Hyperplane(tuple(float(c) for c in doc["coeffs"]), float(doc["offset"]))
    raise ParseError(f"unknown split type {kind!r}")


def _value_to_dict(value) -> dict:
    if isinstance(value, Scalar):
        return {"type": "scalar", "v": value.value}
    if isinstance(value, ClassProbs):
        return {"type": "class_probs", "probs": list(value.probs)}
    return {
        "type": "tuple",
        "values": [_value_to_dict(v) for v in value.values],
        "source_ids": list(value.source_ids),
    }


def _value_from_dict(doc: dict):
    kind = doc.get("type")
    if kind == "scalar":
        return Scalar(float(doc["v"]))
    if kind == "class_probs":
        return ClassProbs(tuple(float(p) for p in doc["probs"]))
    if kind == "tuple":
        return TupleValue(
            tuple(_value_from_dict(v) for v in doc["values"]),
            tuple(int(i) for i in doc["source_ids"]),
        )
    raise ParseError(f"unknown value type {kind!r}")


def _tree_body_to_dict(tree: Tree) -> dict:
    nodes = []
    for nid in sorted(tree.nodes):
        n = tree.nodes[nid]
        entry: dict = {"id": nid}
        if n.split is not None:
            entry["split"] = _split_to_dict(n.split)
            entry["left"] = n.left
            entry["right"] = n.right
        else:
            entry["value"] = _value_to_dict(n.value)
        nodes.append(entry)
    return {"nodes": nodes, "root": tree.root}


def _tree_from_body(doc: dict, schema: FeatureSchema) -> Tree:
    parent_of: dict[int, int] = {}
    raw = {}
    for entry in doc["nodes"]:
        nid = int(entry["id"])
        if nid in raw:
            raise ParseError(f"duplicate node id {nid}")
        raw[nid] = entry
        for side in ("left", "right"):
            if entry.get(side) is not None:
                parent_of[int(entry[side])] = nid
    nodes = {}
    for nid, entry in raw.items():
        split = _split_from_dict(entry["split"]) if "split" in entry else None
        value = _value_from_dict(entry["value"]) if "value" in entry else None
        nodes[nid] = Node(
            parent=parent_of.get(nid),
            split=split,
            left=int(entry["left"]) if entry.get("left") is not None else None,
            right=int(entry["right"]) if entry.get("right") is not None else None,
            value=value,
        )
    return Tree(schema, nodes, int(doc["root"]))


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(", ", ": "), allow_nan=False) + "\n"


def forest_to_json(forest: ForestFile) -> str:
    doc = {
        "schema": _schema_to_dict(forest.schema),
        "trees": [_tree_body_to_dict(t) for t in forest.trees],
        "metadata": dict(sorted(forest.metadata.items())),
    }
    return _dumps(doc)


def tree_to_json(tree: Tree) -> str:
    doc = {"schema": _schema_to_dict(tree.schema)}
    doc.update(_tree_body_to_dict(tree))
    return _dumps(doc)


def save_forest(forest: ForestFile, path: str) -> None:
    write_text_atomic(path, forest_to_json(forest))


def save_tree(tree: Tree, path: str) -> None:
    write_text_atomic(path, tree_to_json(tree))


def _validate_forest(schema: FeatureSchema, trees: Sequence[Tree]) -> None:
    problems: list[str] = []
    values = []
    for ti, tree in enumerate(trees):
        for violation in validate(tree):
            problems.append(f"tree {ti}: {violation}")
        values += [n.value for n in tree.nodes.values()
                   if n.left is None and n.value is not None]
    kinds, lengths = kinds_and_lengths(values)
    if len(kinds) > 1:
        problems.append(f"forest mixes leaf kinds {kinds}")
    if schema.class_labels is None and len(lengths) > 1:
        problems.append(f"forest mixes class-probability lengths {lengths}")
    if problems:
        raise ValidationError(problems)


def _parse_json(text: str, path: str):
    """Parse a JSON document, rejecting the non-standard ``NaN``,
    ``Infinity`` and ``-Infinity`` literals."""

    def reject(literal):
        raise ParseError(f"{path}: non-finite number {literal} is not allowed")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}")


def load_forest(path: str) -> ForestFile:
    """Load and fully validate a tree or forest JSON file.

    Violations name the tree index and node id; parse failures report the
    line and column.
    """
    with open(path) as handle:
        text = handle.read()
    doc = _parse_json(text, path)
    try:
        schema = _schema_from_dict(doc["schema"])
        if "trees" in doc:
            trees = [_tree_from_body(td, schema) for td in doc["trees"]]
            metadata = {str(k): str(v) for k, v in doc.get("metadata", {}).items()}
        else:
            trees = [_tree_from_body(doc, schema)]
            metadata = {}
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: malformed document ({e})")
    _validate_forest(schema, trees)
    return ForestFile(schema, trees, metadata)


def load_schema(path: str) -> FeatureSchema:
    """Load a bare schema JSON file (the ``schema`` object on its own)."""
    with open(path) as handle:
        doc = _parse_json(handle.read(), path)
    return _schema_from_dict(doc.get("schema", doc))


# ---------------------------------------------------------------------------
# CSV helpers


def write_matrix_csv(path: str, matrix: np.ndarray) -> None:
    """Plain headerless reals, row-major, shortest round-trippable decimals."""
    rows = [", ".join(repr(float(x)) for x in row) for row in np.atleast_2d(matrix)]
    write_text_atomic(path, "\n".join(rows) + "\n")


def read_matrix_csv(path: str) -> np.ndarray:
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise ParseError(f"{path}: empty matrix")
    return np.array(rows)


def read_points_csv(path: str, schema: FeatureSchema) -> np.ndarray:
    """Headerless data points, columns in schema feature order, categorical
    values given by level name."""
    raw = []
    with open(path) as handle:
        lines = handle.read().split("\n")
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        toks = line.split(",")
        if len(toks) != schema.n_features:
            raise ParseError(
                f"{path}: line {line_no}: {len(toks)} columns, expected {schema.n_features}"
            )
        raw.append([t.strip() for t in toks])
    if not raw:
        raise ParseError(f"{path}: no data points")
    return schema.encode_points(raw)


def read_weights_csv(path: str) -> np.ndarray:
    values = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                values.extend(float(tok) for tok in line.split(","))
    if not values:
        raise ParseError(f"{path}: no weights")
    return np.array(values)


# ---------------------------------------------------------------------------
# Flat-table import


def _parse_levels(token: str, feature: CategoricalFeature, where: str) -> frozenset[int]:
    out = set()
    for name in token.split("|"):
        try:
            out.add(feature.levels.index(name))
        except ValueError:
            raise ParseError(f"{where}: unknown level {name!r}")
    return frozenset(out)


def _parse_leaf(token: str):
    if "|" in token:
        return ClassProbs(tuple(float(p) for p in token.split("|")))
    return Scalar(float(token))


def import_external_forest(path: str, dialect: str, schema: FeatureSchema) -> ForestFile:
    """Translate a flat node-table CSV dump into a validated forest.

    The only dialect is ``flat-table``: one row per node with columns
    ``tree_id, node_id, parent_id, is_left_child, split_feature,
    split_threshold_or_levels, leaf_value``. Numeric splits carry the
    threshold; categorical splits carry ``|``-joined level names routed
    left; leaves carry a scalar or ``|``-joined class probabilities. The
    schema cannot be recovered from such a dump, so it is a required input.
    Constructs the dialect cannot express (hyperplane splits, surrogate
    splits) are rejected with named diagnostics.
    """
    if dialect != "flat-table":
        raise ParseError(f"unknown dialect {dialect!r} (supported: flat-table)")
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != FLAT_TABLE_COLUMNS:
            raise ParseError(
                f"{path}: header must be exactly {','.join(FLAT_TABLE_COLUMNS)}"
            )
        rows = [{k: (v or "").strip() for k, v in row.items()} for row in reader]
    by_tree: dict[int, list[dict]] = {}
    for line_no, row in enumerate(rows, 2):
        try:
            tid = int(row["tree_id"])
            int(row["node_id"])
        except ValueError:
            raise ParseError(f"{path}: line {line_no}: bad tree_id/node_id")
        by_tree.setdefault(tid, []).append(row)

    trees = []
    for tid in sorted(by_tree):
        nodes_raw: dict[int, dict] = {}
        for row in by_tree[tid]:
            nid = int(row["node_id"])
            if nid in nodes_raw:
                raise ParseError(f"tree {tid} node {nid}: duplicate node id")
            nodes_raw[nid] = row
        children: dict[int, dict[str, int]] = {}
        roots = []
        for nid, row in nodes_raw.items():
            if row["parent_id"] == "":
                roots.append(nid)
                continue
            pid = int(row["parent_id"])
            if pid not in nodes_raw:
                raise ParseError(
                    f"tree {tid} node {nid}: orphan node (parent {pid} missing)"
                )
            flag = row["is_left_child"].lower()
            if flag not in ("0", "1", "true", "false"):
                raise ParseError(f"tree {tid} node {nid}: bad is_left_child {flag!r}")
            side = "left" if flag in ("1", "true") else "right"
            slot = children.setdefault(pid, {})
            if side in slot:
                raise ParseError(f"tree {tid} node {pid}: two {side} children")
            slot[side] = nid
        if len(roots) != 1:
            raise ParseError(f"tree {tid}: expected one root, found {sorted(roots)}")

        nodes: dict[int, Node] = {}
        for nid, row in nodes_raw.items():
            where = f"tree {tid} node {nid}"
            kids = children.get(nid, {})
            if kids:
                if set(kids) != {"left", "right"}:
                    raise ParseError(f"{where}: needs both a left and a right child")
                if row["split_feature"] == "":
                    raise ParseError(f"{where}: internal node without split_feature")
                j = int(row["split_feature"])
                if not 0 <= j < schema.n_features:
                    raise ParseError(f"{where}: split feature {j} out of range")
                f = schema.features[j]
                token = row["split_threshold_or_levels"]
                if isinstance(f, NumericFeature):
                    try:
                        split = NumericThreshold(j, float(token))
                    except ValueError:
                        raise ParseError(f"{where}: bad numeric threshold {token!r}")
                else:
                    split = CategoricalSubset(j, _parse_levels(token, f, where))
                parent = None if row["parent_id"] == "" else int(row["parent_id"])
                nodes[nid] = Node(parent, split, kids["left"], kids["right"], None)
            else:
                if row["leaf_value"] == "":
                    raise ParseError(f"{where}: leaf without leaf_value")
                try:
                    value = _parse_leaf(row["leaf_value"])
                except ValueError:
                    raise ParseError(f"{where}: bad leaf_value {row['leaf_value']!r}")
                parent = None if row["parent_id"] == "" else int(row["parent_id"])
                nodes[nid] = Node(parent, None, None, None, value)
        trees.append(Tree(schema, nodes, roots[0]))
    if not trees:
        raise ParseError(f"{path}: no nodes")
    _validate_forest(schema, trees)
    return ForestFile(schema, trees, {"source": "flat-table import"})

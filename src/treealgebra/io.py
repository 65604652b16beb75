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

The writer formats a tree a column at a time from its node arrays, and each
distinct float bit pattern once; the bytes are those of formatting every
number on its own.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .trees import (
    CATEGORICAL,
    HYPERPLANE,
    NUMERIC,
    CategoricalFeature,
    CategoricalSubset,
    ClassProbs,
    FeatureSchema,
    Hyperplane,
    Leaves,
    NumericFeature,
    Scalar,
    Tree,
    TupleValue,
    _assemble,
    _document,
    _pack,
    check_trees,
    pack_documents,
    value_kinds,
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
    """Write via a temp file plus rename, so readers never see a partial
    file, with the mode ``open(path, "w")`` would give: the replaced file's,
    or else 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            if os.path.exists(path):
                os.chmod(fd, os.stat(path).st_mode & 0o7777)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# JSON encoding

_INT64 = 2 ** 63


def _int(x, where: str, key: str, low: int = -_INT64) -> int:
    """A JSON integer (not a bool or a float) in [low, 2**63); the error
    names it ``where`` + ``key``."""
    if type(x) is not int or not low <= x < _INT64:
        kind = "a non-negative integer" if low == 0 else "an integer"
        raise ParseError(f"{where}{key} must be {kind}, got {json.dumps(x)}")
    return x


def _real(x, where: str, key: str) -> float:
    """A JSON number (not a string or a bool) that a float can hold."""
    if type(x) is float or (type(x) is int and abs(x) <= 1e308):
        return float(x)
    raise ParseError(f"{where}{key} must be a number, got {json.dumps(x)}")


def _ints(xs: list, where: str, key: str, low: int = -_INT64, at=None) -> list:
    """``xs``, each checked as :func:`_int` checks it; ``key`` names element
    ``k`` with ``at[k]`` (or ``k``) in place of ``{}``."""
    if set(map(type, xs)) <= {int} and low <= min(xs, default=low) and max(xs, default=0) < _INT64:
        return xs
    return [_int(x, where, key.format(k if at is None else at[k]), low) for k, x in enumerate(xs)]


def _str(x, where: str, key: str) -> str:
    # every name is a string: a level name that is not one could never be
    # used, as points name levels with CSV text
    if type(x) is not str:
        raise ParseError(f"{where}{key} must be a string, got {json.dumps(x)}")
    return x


def _names(x, where: str, key: str) -> tuple:
    # a JSON string is a sequence too, but of characters
    if not isinstance(x, list):
        raise ParseError(f"{where}{key} must be a list of names, got {json.dumps(x)}")
    return tuple(_str(name, where, f"{key}[{k}]") for k, name in enumerate(x))


def _reals(xs: list, where: str, key: str, at=None) -> list:
    """``xs`` as floats, each checked as :func:`_real` checks it."""
    if set(map(type, xs)) <= {float}:
        return xs
    return [_real(x, where, key.format(k if at is None else at[k])) for k, x in enumerate(xs)]


def _schema_to_dict(schema: FeatureSchema) -> dict:
    features = [{"name": f.name, "kind": "numeric", "low": f.low, "high": f.high}
                if isinstance(f, NumericFeature) else
                {"name": f.name, "kind": "categorical", "levels": list(f.levels)}
                for f in schema.features]
    labels = list(schema.class_labels) if schema.class_labels is not None else None
    return {"features": features, "class_labels": labels}


def _schema_from_dict(doc: dict, where: str) -> FeatureSchema:
    features = []
    for k, fd in enumerate(doc["features"]):
        at = f"{where}features[{k}]"
        name = _str(fd["name"], at, ".name")
        if fd["kind"] == "numeric":
            features.append(NumericFeature(name, _real(fd["low"], at, ".low"),
                                           _real(fd["high"], at, ".high")))
        elif fd["kind"] == "categorical":
            features.append(CategoricalFeature(name, _names(fd["levels"], at, ".levels")))
        else:
            raise ParseError(f'{at}.kind must be "numeric" or "categorical", '
                             f'got {json.dumps(fd["kind"])}')
    labels = doc.get("class_labels")
    return FeatureSchema(tuple(features),
                         None if labels is None else _names(labels, where, "class_labels"))


def _split_from_dict(doc: dict, where: str):
    """A categorical or hyperplane split; numeric ones are read as columns."""
    kind = doc.get("type")
    if kind == "categorical":
        return CategoricalSubset(_int(doc["feature"], where, ".feature"),
                                 frozenset(_ints(doc["left_levels"], where, ".left_levels[{}]")))
    if kind == "hyperplane":
        coeffs = _reals(doc["coeffs"], where, ".coeffs[{}]")
        if not any(coeffs):
            raise ParseError(f"{where}.coeffs must not all be zero, got {json.dumps(coeffs)}")
        return Hyperplane(tuple(coeffs), _real(doc["offset"], where, ".offset"))
    raise ParseError(f'{where}.type must be "numeric", "categorical" or "hyperplane", '
                     f"got {json.dumps(kind)}")


def _value_from_dict(doc: dict, where: str):
    kind = doc.get("type")
    if kind == "scalar":
        return Scalar(_real(doc["v"], where, ".v"))
    if kind == "class_probs":
        return ClassProbs(_reals(doc["probs"], where, ".probs[{}]"))
    if kind == "tuple":
        return TupleValue(
            tuple(_value_from_dict(v, f"{where}.values[{k}]") for k, v in enumerate(doc["values"])),
            _ints(doc["source_ids"], where, ".source_ids[{}]"),
        )
    raise ParseError(f'{where}.type must be "scalar", "class_probs" or "tuple", '
                     f"got {json.dumps(kind)}")


def _tree_from_body(doc: dict, schema: FeatureSchema, where: str) -> Tree:
    """One tree body, read a field at a time into the node arrays;
    ``where`` prefixes the field names in errors.

    Node ids and child ids are non-negative JSON integers; feature and level
    indices and source ids are JSON integers; every real is a JSON number.
    A null ``split``, ``value``, ``left`` or ``right`` counts as absent.
    Splits other than numeric ones, and leaf values that are not all floats
    of one kind and shape, are read one at a time into objects.
    """
    entries = doc["nodes"]
    ids = _ints([e["id"] for e in entries], where, "nodes[{}].id", 0)
    if len(set(ids)) != len(ids):
        seen: set = set()  # the first id seen twice
        raise ParseError(f"duplicate node id {next(i for i in ids if i in seen or seen.add(i))}")
    links = []
    for side_name in ("left", "right"):
        children = [e.get(side_name) for e in entries]
        _ints([0 if x is None else x for x in children], where, f"nodes[{{}}].{side_name}", 0)
        links.append([-1 if x is None else x for x in children])
    n = len(entries)
    kind, feature, threshold, side = [0] * n, [-1] * n, [np.nan] * n, {}
    at = [k for k, e in enumerate(entries) if e.get("split") is not None]
    numeric = [k for k in at if entries[k]["split"].get("type") == "numeric"]
    features = _ints([entries[k]["split"]["feature"] for k in numeric], where,
                     "nodes[{}].split.feature", at=numeric)
    thresholds = _reals([entries[k]["split"]["threshold"] for k in numeric], where,
                        "nodes[{}].split.threshold", at=numeric)
    for k, f, t in zip(numeric, features, thresholds):
        kind[k], feature[k], threshold[k] = NUMERIC, f, t
    for k in at:
        d = entries[k]["split"]
        if d.get("type") != "numeric":
            side[k] = split = _split_from_dict(d, f"{where}nodes[{k}].split")
            kind[k] = CATEGORICAL if isinstance(split, CategoricalSubset) else HYPERPLANE
            feature[k] = getattr(split, "feature", -1)
    at = [k for k, e in enumerate(entries) if e.get("value") is not None]
    leaf = [-1] * n
    for row, k in enumerate(at):
        leaf[k] = row
    docs = [entries[k]["value"] for k in at]
    leaves = pack_documents(docs)
    if leaves is None:
        leaves = _pack([_value_from_dict(d, f"{where}nodes[{k}].value") for k, d in zip(at, docs)])
    return _assemble(schema, _int(doc["root"], where, "root"), ids, *links, kind, feature,
                     threshold, side, leaf, leaves)


# The objects and lists of a tree or forest file: an object maps keys to the
# shapes of their values, a list holds the shape of its elements, if checked.
_VALUE_SHAPE: dict = {"probs": [], "source_ids": []}
_VALUE_SHAPE["values"] = [_VALUE_SHAPE]
_BODY_SHAPE = {"nodes": [{"split": {"coeffs": [], "left_levels": []}, "value": _VALUE_SHAPE}]}
_FILE_SHAPE = {"schema": {"features": [{}]}, "trees": [_BODY_SHAPE], "metadata": {},
               **_BODY_SHAPE}


def _check_shape(x, shape, path: str, where: str = "") -> None:
    """Raise a ParseError naming the first field of ``x`` (the field
    ``where`` of the file ``path``, or the whole document) that should hold
    a JSON object or list but holds another value; a null field counts as
    absent. Run only once loading has failed, so valid loads pay nothing."""
    kind, name = (dict, "an object") if isinstance(shape, dict) else (list, "a list")
    if not isinstance(x, kind):
        text = json.dumps(x)
        raise ParseError(f"{path}: {where or 'document'} must be {name}, "
                         f"got {text if len(text) <= 40 else text[:37] + '...'}")
    if kind is dict:
        for key, inner in shape.items():
            if x.get(key) is not None:
                _check_shape(x[key], inner, path, f"{where}.{key}".lstrip("."))
    elif shape:
        for k, item in enumerate(x):
            _check_shape(item, shape[0], path, f"{where}[{k}]")


def _real_texts(values: np.ndarray) -> np.ndarray:
    """The text of every float of a 1-D array, as an object array. Each
    distinct bit pattern is formatted once: keyed on the value instead,
    ``0.0`` and ``-0.0`` would share one text."""
    bad = values[~np.isfinite(values)]
    if bad.size:
        _dumps(float(bad[0]))  # raises json's ValueError
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(list(map(repr, keys.view(float).tolist())), dtype=object)[inverse]


def _leaf_fields(leaves: Leaves, texts: np.ndarray,
                 ragged: list | None) -> tuple[str, list[np.ndarray]]:
    """A leaf value's template and its fields, a column each with a row per
    leaf, from ``texts`` of the value matrix or the ``ragged`` leaf texts."""
    if ragged is not None:
        return "%s", [np.array(ragged, dtype=object)]
    width = leaves.blocks().shape[2]
    entry = ('{"type": "scalar", "v": %s}' if leaves.entry == "scalar" else
             '{"type": "class_probs", "probs": [%s]}' % ", ".join(["%s"] * width))
    columns = list(texts.reshape(leaves.values.shape).T)
    if leaves.sources is None:
        return entry, columns
    m = leaves.sources.shape[1]
    return '{"type": "tuple", "values": [%s], "source_ids": [%s]}' % (
        ", ".join([entry] * m), ", ".join(["%d"] * m)), columns + list(leaves.sources.T)


def _links(children: np.ndarray) -> list:
    """Child ids as the writer fills them in: "null" for none."""
    out = children.tolist()
    return out if children.min(initial=0) >= 0 else [c if c >= 0 else "null" for c in out]


def _body_text(tree: Tree) -> str:
    """``"nodes": [...], "root": ...`` of one tree in ascending id order,
    formatted a column at a time: the floats of the leaf values and numeric
    thresholds through one table of distinct texts, then the lines of the
    leaves and of the numeric splits with one template each."""
    leaves, numeric = tree.leaves, np.flatnonzero(tree.kind == NUMERIC)
    # ragged leaves have no value matrix; they are written, and refused, first
    ragged = None if leaves.ragged is None else [_dumps(_document(v)) for v in leaves.ragged]
    size = leaves.values.size
    texts = _real_texts(np.concatenate([leaves.values.ravel(), tree.threshold[numeric]]))
    (template, fields), thresholds = _leaf_fields(leaves, texts[:size], ragged), texts[size:]
    out = np.empty(len(tree.ids), dtype=object)
    leaf = tree.kind == 0
    at, none = np.flatnonzero(leaf & (tree.leaf >= 0)), np.flatnonzero(leaf & (tree.leaf < 0))
    rows = tree.leaf[at]
    out[at] = list(map(('{"id": %%d, "value": %s}' % template).__mod__,
                       zip(tree.ids[at].tolist(), *(c[rows].tolist() for c in fields))))
    out[none] = ['{"id": %d, "value": null}' % i for i in tree.ids[none].tolist()]
    out[numeric] = list(map(
        '{"id": %d, "split": {"type": "numeric", "feature": %d, "threshold": %s}, '
        '"left": %s, "right": %s}'.__mod__,
        zip(tree.ids[numeric].tolist(), tree.feature[numeric].tolist(), thresholds.tolist(),
            _links(tree.left[numeric]), _links(tree.right[numeric]))))
    at = np.flatnonzero(tree.kind > NUMERIC)
    for i, nid, k, left, right in zip(at.tolist(), tree.ids[at].tolist(), tree.kind[at].tolist(),
                                      _links(tree.left[at]), _links(tree.right[at])):
        s = tree.side[i]
        split = ('{"type": "categorical", "feature": %d, "left_levels": [%s]}' % (
            s.feature, ", ".join(map(repr, sorted(s.left_levels)))) if k == CATEGORICAL else
            '{"type": "hyperplane", "coeffs": %s, "offset": %s}' % (
                _dumps(s.coefficients), _dumps(s.offset)))
        out[i] = '{"id": %d, "split": %s, "left": %s, "right": %s}' % (nid, split, left, right)
    return '"nodes": [%s], "root": %s' % (", ".join(out.tolist()), json.dumps(tree.root))


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(", ", ": "), allow_nan=False)


def forest_to_json(forest: ForestFile) -> str:
    return '{"schema": %s, "trees": [%s], "metadata": %s}\n' % (
        _dumps(_schema_to_dict(forest.schema)),
        ", ".join("{%s}" % _body_text(t) for t in forest.trees),
        _dumps(dict(sorted(forest.metadata.items()))),
    )


def tree_to_json(tree: Tree) -> str:
    return '{"schema": %s, %s}\n' % (_dumps(_schema_to_dict(tree.schema)), _body_text(tree))


def save_forest(forest: ForestFile, path: str) -> None:
    write_text_atomic(path, forest_to_json(forest))


def save_tree(tree: Tree, path: str) -> None:
    write_text_atomic(path, tree_to_json(tree))


def _validate_forest(schema: FeatureSchema, trees: Sequence[Tree]) -> None:
    """Raise :class:`ValidationError` with the violations of the trees of
    one file, checked together (:func:`~treealgebra.trees.check_trees`),
    each prefixed with its tree's index, then the leaf kinds or
    class-probability lengths that differ between the trees."""
    problems: list[str] = []
    kinds, lengths = set(), set()
    for ti, (tree, violations) in enumerate(zip(trees, check_trees(trees))):
        for violation in violations:
            problems.append(f"tree {ti}: {violation}")
        k, n, _ = value_kinds(tree, tree.left < 0)
        kinds.update(k)
        lengths.update(n)
    if len(kinds) > 1:
        problems.append(f"forest mixes leaf kinds {sorted(kinds)}")
    if schema.class_labels is None and len(lengths) > 1:
        problems.append(f"forest mixes class-probability lengths {sorted(lengths)}")
    if problems:
        raise ValidationError(problems)


def _parse_json(path: str):
    """Read and parse a JSON file, rejecting the non-standard ``NaN``,
    ``Infinity`` and ``-Infinity`` literals."""

    def reject(literal):
        raise ParseError(f"{path}: non-finite number {literal} is not allowed")

    try:
        with open(path) as handle:
            return json.load(handle, parse_constant=reject)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}")


def load_forest(path: str) -> ForestFile:
    """Load and fully validate a tree or forest JSON file.

    Violations name the tree index and node id; parse failures report the
    line and column, or name the field.
    """
    doc = _parse_json(path)
    try:
        schema = _schema_from_dict(doc["schema"], f"{path}: schema.")
        if "trees" in doc:
            trees = [_tree_from_body(td, schema, f"{path}: trees[{ti}].")
                     for ti, td in enumerate(doc["trees"])]
            metadata = {str(k): str(v) for k, v in doc.get("metadata", {}).items()}
        else:
            trees = [_tree_from_body(doc, schema, f"{path}: ")]
            metadata = {}
    except (ParseError, KeyError, TypeError, ValueError, AttributeError) as e:
        # a field of the wrong JSON type can fail far from where it is read
        _check_shape(doc, _FILE_SHAPE, path)
        if isinstance(e, ParseError):
            raise
        raise ParseError(f"{path}: malformed document ({e})")
    # the parsed document goes before the validation arrays are made
    del doc
    _validate_forest(schema, trees)
    return ForestFile(schema, trees, metadata)


def load_schema(path: str) -> FeatureSchema:
    """Load a bare schema JSON file (the ``schema`` object on its own)."""
    doc = _parse_json(path)
    try:
        return _schema_from_dict(doc.get("schema", doc), f"{path}: schema.")
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ParseError(f"{path}: malformed document ({e})")


# ---------------------------------------------------------------------------
# CSV helpers


def write_matrix_csv(path: str, matrix: np.ndarray) -> None:
    """Plain headerless reals, row-major, shortest round-trippable decimals."""
    rows = [", ".join(repr(float(x)) for x in row) for row in np.atleast_2d(matrix)]
    write_text_atomic(path, "\n".join(rows) + "\n")


def _real_rows(path: str) -> list[tuple[int, list[float]]]:
    """The non-blank lines of a headerless CSV file of reals, each with its
    line number."""
    rows = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if line:
                try:
                    rows.append((line_no, [float(tok) for tok in line.split(",")]))
                except ValueError as e:
                    raise ParseError(f"{path}: line {line_no}: {e}")
    return rows


def read_matrix_csv(path: str) -> np.ndarray:
    rows = _real_rows(path)
    if not rows:
        raise ParseError(f"{path}: empty matrix")
    width = len(rows[0][1])
    for line_no, row in rows:
        if len(row) != width:
            raise ParseError(f"{path}: line {line_no}: {len(row)} columns, expected {width}")
    return np.array([row for _, row in rows])


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
    values = [x for _, row in _real_rows(path) for x in row]
    if not values:
        raise ParseError(f"{path}: no weights")
    return np.array(values)


# ---------------------------------------------------------------------------
# Flat-table import


def _parse_levels(token: str, feature: CategoricalFeature, where: str) -> list[int]:
    out = set()
    for name in token.split("|"):
        try:
            out.add(feature.levels.index(name))
        except ValueError:
            raise ParseError(f"{where}: unknown level {name!r}")
    return sorted(out)


def _parse_leaf(token: str) -> dict:
    if "|" in token:
        return {"type": "class_probs", "probs": [float(p) for p in token.split("|")]}
    return {"type": "scalar", "v": float(token)}


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
        rows = list(reader)
    by_tree: dict[int, list[tuple[int, dict]]] = {}
    for line_no, row in enumerate(rows, 2):
        if None in row:  # the fields past the header's
            raise ParseError(f"{path}: line {line_no}: {len(FLAT_TABLE_COLUMNS) + len(row[None])} "
                             f"fields, expected {len(FLAT_TABLE_COLUMNS)}")
        row = {k: (v or "").strip() for k, v in row.items()}
        try:
            tid = int(row["tree_id"])
            if int(row["node_id"]) < 0:
                raise ValueError
        except ValueError:
            raise ParseError(f"{path}: line {line_no}: bad tree_id/node_id")
        for key in ("parent_id", "split_feature"):
            try:
                int(row[key] or 0)
            except ValueError:
                raise ParseError(f"{path}: line {line_no}: bad {key} {row[key]!r}")
        by_tree.setdefault(tid, []).append((line_no, row))

    trees = []
    for tid in sorted(by_tree):
        # each node's row and the line it came from
        nodes_raw: dict[int, tuple[int, dict]] = {}
        for line_no, row in by_tree[tid]:
            nid = int(row["node_id"])
            if nid in nodes_raw:
                raise ParseError(f"{path}: line {line_no}: tree {tid} node {nid}: duplicate node id")
            nodes_raw[nid] = line_no, row
        children: dict[int, dict[str, int]] = {}
        roots = []
        for nid, (line_no, row) in nodes_raw.items():
            at = f"{path}: line {line_no}: tree {tid}"
            if row["parent_id"] == "":
                roots.append(nid)
                continue
            pid = int(row["parent_id"])
            if pid not in nodes_raw:
                raise ParseError(f"{at} node {nid}: orphan node (parent {pid} missing)")
            flag = row["is_left_child"].lower()
            if flag not in ("0", "1", "true", "false"):
                raise ParseError(f"{at} node {nid}: bad is_left_child {flag!r}")
            side = "left" if flag in ("1", "true") else "right"
            slot = children.setdefault(pid, {})
            if side in slot:
                raise ParseError(f"{at} node {pid}: two {side} children")
            slot[side] = nid
        if len(roots) != 1:
            # the second root's line, or the tree's first line when none is
            line_no = nodes_raw[roots[1]][0] if roots else by_tree[tid][0][0]
            raise ParseError(f"{path}: line {line_no}: tree {tid}: expected one root, "
                             f"found {sorted(roots)}")

        nodes = []
        for nid, (line_no, row) in nodes_raw.items():
            where = f"{path}: line {line_no}: tree {tid} node {nid}"
            kids = children.get(nid, {})
            entry = {"id": nid}
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
                        entry["split"] = {"type": "numeric", "feature": j, "threshold": float(token)}
                    except ValueError:
                        raise ParseError(f"{where}: bad numeric threshold {token!r}")
                else:
                    entry["split"] = {"type": "categorical", "feature": j,
                                      "left_levels": _parse_levels(token, f, where)}
                entry.update(kids)
            else:
                if row["leaf_value"] == "":
                    raise ParseError(f"{where}: leaf without leaf_value")
                try:
                    entry["value"] = _parse_leaf(row["leaf_value"])
                except ValueError:
                    raise ParseError(f"{where}: bad leaf_value {row['leaf_value']!r}")
            nodes.append(entry)
        trees.append(_tree_from_body({"nodes": nodes, "root": roots[0]}, schema, f"{path}: "))
    if not trees:
        raise ParseError(f"{path}: no nodes")
    _validate_forest(schema, trees)
    return ForestFile(schema, trees, {"source": "flat-table import"})

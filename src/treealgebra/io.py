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

import contextlib
import csv
import gc
import itertools
import json
import os
from dataclasses import dataclass, field
from io import StringIO
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


def _tree_from_body(doc: dict, schema: FeatureSchema, where: str,
                    built: dict | None = None) -> Tree:
    """One tree body, read a field at a time into the node arrays;
    ``where`` prefixes the field names in errors, and ``built`` holds the
    categorical splits built so far for the file.

    Node ids and child ids are non-negative JSON integers; feature and level
    indices and source ids are JSON integers; every real is a JSON number.
    A null ``split``, ``value``, ``left`` or ``right`` counts as absent.
    Splits other than numeric ones, and leaf values that are not all floats
    of one kind and shape, are read one at a time into objects; categorical
    splits with equal JSON integers for feature and levels share one.
    """
    built = {} if built is None else built
    entries = doc["nodes"]
    ids = _ints([e["id"] for e in entries], where, "nodes[{}].id", 0)
    if len(set(ids)) != len(ids):
        seen: set = set()  # the first entry whose id an earlier entry has
        k = next(k for k, i in enumerate(ids) if i in seen or seen.add(i))
        raise ParseError(f"{where}nodes[{k}].id: duplicate node id {ids[k]}")
    links = []
    for side_name in ("left", "right"):
        children = [e.get(side_name) for e in entries]
        _ints([0 if x is None else x for x in children], where, f"nodes[{{}}].{side_name}", 0)
        links.append([-1 if x is None else x for x in children])
    n = len(entries)
    kind, feature, threshold, split = [0] * n, [-1] * n, [np.nan] * n, [None] * n
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
            # exact ints only: true and 1.0 equal 1 but are not valid levels
            f, levels = d.get("feature"), d.get("left_levels")
            key = ((f, tuple(levels)) if d.get("type") == "categorical" and type(levels) is list
                   and {type(f), *map(type, levels)} == {int} else None)
            s = built.get(key) if key else None
            if s is None:
                s = _split_from_dict(d, f"{where}nodes[{k}].split")
                if key:
                    built[key] = s
            split[k] = s
            kind[k] = CATEGORICAL if isinstance(s, CategoricalSubset) else HYPERPLANE
            feature[k] = getattr(s, "feature", -1)
    at = [k for k, e in enumerate(entries) if e.get("value") is not None]
    leaf = [-1] * n
    for row, k in enumerate(at):
        leaf[k] = row
    docs = [entries[k]["value"] for k in at]
    leaves = pack_documents(docs)
    if leaves is None:
        leaves = _pack([_value_from_dict(d, f"{where}nodes[{k}].value") for k, d in zip(at, docs)])
    return _assemble(schema, _int(doc["root"], where, "root"), ids, *links, kind, feature,
                     threshold, split, leaf, leaves)


class _ByType(dict):
    """The shape of an object by its ``key`` field (``type``), added to the
    shape ``base`` of every such object; another type adds nothing."""

    def __init__(self, key: str = "type", base: dict | None = None, **shapes):
        super().__init__(shapes)
        self.key, self.base = key, base or {}


# The objects and lists of a tree or forest file: an object maps the keys it
# may hold to the shapes of their values (None: any value), a list holds the
# shape of its elements, if checked.
_VALUE_SHAPE = _ByType(scalar={"v": None}, class_probs={"probs": []}, tuple={"source_ids": []})
_VALUE_SHAPE["tuple"]["values"] = [_VALUE_SHAPE]
_SPLIT_SHAPE = _ByType(numeric={"feature": None, "threshold": None},
                       categorical={"feature": None, "left_levels": []},
                       hyperplane={"coeffs": [], "offset": None})
_FEATURE_SHAPE = _ByType("kind", {"name": None, "kind": None},
                         numeric={"low": None, "high": None}, categorical={"levels": None})
_SCHEMA_SHAPE = {"features": [_FEATURE_SHAPE]}
_BODY_SHAPE = {"nodes": [{"id": None, "split": _SPLIT_SHAPE, "value": _VALUE_SHAPE}],
               "root": None}
_TREE_SHAPE = {"schema": _SCHEMA_SHAPE, **_BODY_SHAPE}
_FOREST_SHAPE = {"schema": _SCHEMA_SHAPE, "trees": [_BODY_SHAPE], "metadata": {}}


def _check_shape(x, shape, path: str, where: str = "", nulls: bool = True,
                 missing=None) -> None:
    """Raise a ParseError naming the first field of ``x`` (the field
    ``where`` of the file ``path``, or the whole document) that should hold
    a JSON object or list but holds another value, with ``nulls`` null too
    unless it is a ``split`` or ``value``, or the first object that lacks
    the key ``missing`` where its shape has it. A split or value is checked
    only for the fields its ``type`` reads. Run only once loading has
    failed, so valid loads pay nothing."""
    kind, name = (dict, "an object") if isinstance(shape, dict) else (list, "a list")
    if not isinstance(x, kind):
        text = json.dumps(x)
        raise ParseError(f"{path}: {where or 'document'} must be {name}, "
                         f"got {text if len(text) <= 40 else text[:37] + '...'}")
    if isinstance(shape, _ByType):
        t = x.get(shape.key)
        shape = {**shape.base, **(shape.get(t, {}) if isinstance(t, str) else {})}
    if kind is dict:
        for key, inner in shape.items():
            at = f"{where}.{key}".lstrip(".")
            if key == missing and key not in x:
                raise ParseError(f"{path}: {at} is missing")
            if inner is not None and key in x and (
                    x[key] is not None or nulls and key not in ("split", "value")):
                _check_shape(x[key], inner, path, at, nulls, missing)
    elif shape:
        for k, item in enumerate(x):
            _check_shape(item, shape[0], path, f"{where}[{k}]", nulls, missing)


def _real_texts(values: np.ndarray) -> np.ndarray:
    """The ``repr`` of every float of a 1-D array, as an object array. Each
    distinct bit pattern is formatted once: keyed on the value instead,
    ``0.0`` and ``-0.0`` would share one text."""
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
    values = np.concatenate([leaves.values.ravel(), tree.threshold[numeric]])
    _dumps(values[~np.isfinite(values)][:1].tolist())  # json's ValueError on a non-finite one
    texts = _real_texts(values)
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
    # each split object once, by identity (0.0 == -0.0): combined trees share them
    at, split_texts = np.flatnonzero(tree.kind > NUMERIC), {}
    for i, nid, k, left, right in zip(at.tolist(), tree.ids[at].tolist(), tree.kind[at].tolist(),
                                      _links(tree.left[at]), _links(tree.right[at])):
        s = tree.split[i]
        split = split_texts.get(id(s)) or split_texts.setdefault(id(s), (
            '{"type": "categorical", "feature": %d, "left_levels": [%s]}' % (
                s.feature, ", ".join(map(repr, sorted(s.left_levels)))) if k == CATEGORICAL else
            '{"type": "hyperplane", "coeffs": %s, "offset": %s}' % (
                _dumps(s.coefficients), _dumps(s.offset))))
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
        k, n = tree.leaves.kinds(tree.leaf[(tree.left < 0) & (tree.leaf >= 0)])
        kinds.update(k)
        lengths.update(n)
    if len(kinds) > 1:
        problems.append(f"forest mixes leaf kinds {sorted(kinds)}")
    if schema.class_labels is None and len(lengths) > 1:
        problems.append(f"forest mixes class-probability lengths {sorted(lengths)}")
    if problems:
        raise ValidationError(problems)


def _read_text(path: str, newline: str | None = None) -> str:
    """The text of a file, read whole with ``open(path, newline=newline)``;
    bytes that do not decode are a ParseError naming the first of them and
    its offset in the file."""
    with open(path, newline=newline) as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not {e.encoding} text: byte {e.object[e.start]:#04x} "
                             f"at offset {e.start} ({e.reason})") from None


def _parse_json(path: str):
    """Read and parse a JSON file, rejecting the non-standard ``NaN``,
    ``Infinity`` and ``-Infinity`` literals."""

    def reject(literal):
        raise ParseError(f"{path}: non-finite number {literal} is not allowed")

    try:
        return json.loads(_read_text(path), parse_constant=reject)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}")


@contextlib.contextmanager
def _collector_paused():
    """Each call with the cyclic collector off, then as it was: a parsed
    document is many young objects and no cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def load_forest(path: str) -> ForestFile:
    """Load and fully validate a tree or forest JSON file.

    Violations name the tree index and node id; parse failures report the
    line and column, or name the field.
    """
    doc = _parse_json(path)
    # a file is a forest or a single tree, and only its own form's keys count
    forest = isinstance(doc, dict) and "trees" in doc
    try:
        schema = _schema_from_dict(doc["schema"], f"{path}: schema.")
        built: dict = {}  # the file's categorical splits, shared by its trees
        trees = [_tree_from_body(body, schema, f"{path}: trees[{ti}]." if forest else f"{path}: ", built)
                 for ti, body in enumerate(doc["trees"] if forest else [doc])]
        metadata = {str(k): str(v) for k, v in doc.get("metadata", {}).items()} if forest else {}
    except (ParseError, KeyError, TypeError, ValueError, AttributeError) as e:
        # a field of the wrong JSON type can fail far from where it is read;
        # a null or missing one is named only in place of Python's own text
        shape = _FOREST_SHAPE if forest else _TREE_SHAPE
        _check_shape(doc, shape, path, nulls=False)
        if isinstance(e, ParseError):
            raise
        _check_shape(doc, shape, path, missing=e.args[0] if isinstance(e, KeyError) else None)
        raise ParseError(f"{path}: malformed document ({e})")
    # the parsed document goes before the validation arrays are made
    del doc
    _validate_forest(schema, trees)
    return ForestFile(schema, trees, metadata)


def load_schema(path: str) -> FeatureSchema:
    """Load a bare schema JSON file (the ``schema`` object on its own, or
    in a document under ``schema``); a field of the wrong JSON type, or a
    missing one, is named as ``schema.`` and its path."""
    doc = _parse_json(path)
    try:
        return _schema_from_dict(doc.get("schema", doc), f"{path}: schema.")
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        _check_shape(doc, {}, path)
        _check_shape(doc.get("schema", doc), _SCHEMA_SHAPE, path, "schema",
                     missing=e.args[0] if isinstance(e, KeyError) else None)
        raise ParseError(f"{path}: malformed document ({e})")


# ---------------------------------------------------------------------------
# CSV helpers


def write_matrix_csv(path: str, matrix: np.ndarray) -> None:
    """Plain headerless reals, row-major, shortest round-trippable decimals
    (``nan`` and ``inf`` included), each distinct float formatted once."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    rows = _real_texts(matrix.ravel()).reshape(matrix.shape).tolist()
    write_text_atomic(path, "\n".join(map(", ".join, rows)) + "\n")


def _csv_lines(path: str) -> tuple[list[str], list[str]]:
    """The stripped lines of a headerless CSV file, split on newlines only
    (reading turns CRLF and CR into one), and the non-blank ones."""
    lines = list(map(str.strip, _read_text(path).split("\n")))
    return lines, list(filter(None, lines))


def _check_width(path: str, lines: list[str], rows: list[str], width: int) -> None:
    """Raise a ParseError naming the first non-blank line without ``width`` cells."""
    if list(map(str.count, rows, itertools.repeat(","))).count(width - 1) != len(rows):
        line_no, line = next((i, s) for i, s in enumerate(lines, 1)
                             if s and s.count(",") != width - 1)
        raise ParseError(f"{path}: line {line_no}: {line.count(',') + 1} columns, "
                         f"expected {width}")


def _real_cells(path: str, lines: list[str]) -> np.ndarray:
    """The cells of the non-blank ``lines`` as floats, row-major; the first
    that ``float`` cannot read is named with its line."""
    values: list[float] = []
    for line_no, line in enumerate(lines, 1):
        try:
            values.extend(map(float, line.split(",")) if line else ())
        except ValueError as e:
            raise ParseError(f"{path}: line {line_no}: {e}")
    return np.array(values)


def read_matrix_csv(path: str) -> np.ndarray:
    lines, rows = _csv_lines(path)
    if not rows:
        raise ParseError(f"{path}: empty matrix")
    values = _real_cells(path, lines)
    _check_width(path, lines, rows, rows[0].count(",") + 1)
    return values.reshape(len(rows), -1)


def read_points_csv(path: str, schema: FeatureSchema) -> np.ndarray:
    """Headerless data points, columns in schema feature order, categorical
    values given by level name; read a column at a time, and again a row at
    a time when a value is bad, so that the first one is named."""
    lines, rows = _csv_lines(path)
    p = schema.n_features
    _check_width(path, lines, rows, p)
    if not rows:
        raise ParseError(f"{path}: no data points")
    cells = ",".join(rows).split(",")
    # numbers are not stripped: float() ignores the spaces around them, and a
    # cell it cannot read goes to the row pass
    columns = [cells[j::p] if isinstance(f, NumericFeature) else list(map(str.strip, cells[j::p]))
               for j, f in enumerate(schema.features)]
    X = schema._encode_columns(columns, len(rows))
    if X is None:
        X = schema.encode_points([[t.strip() for t in row.split(",")] for row in rows])
    return X


def read_weights_csv(path: str) -> np.ndarray:
    lines, rows = _csv_lines(path)
    if not rows:
        raise ParseError(f"{path}: no weights")
    return _real_cells(path, lines)


# ---------------------------------------------------------------------------
# Flat-table import


def _node_entry(schema: FeatureSchema, row: tuple, kids: dict) -> dict:
    """The body entry of a table row: a leaf when its node has no ``kids``."""
    at, nid, _, feature, _, token, value = row
    where = f"{at} node {nid}"
    if not kids:
        if value == "":
            raise ParseError(f"{where}: leaf without leaf_value")
        try:
            probs = [float(p) for p in value.split("|")]
        except ValueError:
            raise ParseError(f"{where}: bad leaf_value {value!r}")
        return {"id": nid, "value": {"type": "class_probs", "probs": probs} if "|" in value
                else {"type": "scalar", "v": probs[0]}}
    if len(kids) != 2:
        raise ParseError(f"{where}: needs both a left and a right child")
    if feature is None:
        raise ParseError(f"{where}: internal node without split_feature")
    if not 0 <= feature < schema.n_features:
        raise ParseError(f"{where}: split feature {feature} out of range")
    f = schema.features[feature]
    if isinstance(f, NumericFeature):
        try:
            split = {"type": "numeric", "feature": feature, "threshold": float(token)}
        except ValueError:
            raise ParseError(f"{where}: bad numeric threshold {token!r}")
    else:
        left = set()
        for name in token.split("|"):
            if name not in f.levels:
                raise ParseError(f"{where}: unknown level {name!r}")
            left.add(f.levels.index(name))
        split = {"type": "categorical", "feature": feature, "left_levels": sorted(left)}
    return {"id": nid, "split": split, **kids}


@_collector_paused()
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
    reader = csv.reader(StringIO(_read_text(path, newline=""), newline=""))
    header, width = next(reader, None), len(FLAT_TABLE_COLUMNS)
    if header is None or [c.strip() for c in header] != FLAT_TABLE_COLUMNS:
        raise ParseError(f"{path}: header must be exactly {','.join(FLAT_TABLE_COLUMNS)}")
    # every row, named by the line it starts on, as (where, node id, parent
    # id, split feature, is_left_child, threshold or levels, leaf value)
    by_tree: dict[int, list[tuple]] = {}
    start = reader.line_num + 1
    for cells in reader:
        at, start = f"{path}: line {start}", reader.line_num + 1
        if not cells:
            continue
        if len(cells) > width:
            raise ParseError(f"{at}: {len(cells)} fields, expected {width}")
        tid, nid, parent, flag, feature, token, value = (
            [c.strip() for c in cells] + [""] * (width - len(cells)))
        try:
            tid, nid = int(tid), int(nid)
            if not 0 <= nid < _INT64:
                raise ValueError
        except ValueError:
            raise ParseError(f"{at}: bad tree_id/node_id")
        row = [f"{at}: tree {tid}", nid]
        for key, cell in (("parent_id", parent), ("split_feature", feature)):
            try:
                row.append(int(cell) if cell else None)
            except ValueError:
                raise ParseError(f"{at}: bad {key} {cell!r}")
        by_tree.setdefault(tid, []).append((*row, flag.lower(), token, value))

    trees, built = [], {}  # the trees, and the file's categorical splits
    for tid in sorted(by_tree):
        rows: dict[int, tuple] = {}  # each node's row, in row order
        for row in by_tree[tid]:
            if rows.setdefault(row[1], row) is not row:
                raise ParseError(f"{row[0]} node {row[1]}: duplicate node id")
        children, roots = {}, []  # each parent's child by side, and the roots
        for at, nid, pid, _, flag, *_ in rows.values():
            if pid is None:
                roots.append(nid)
            elif pid not in rows:
                raise ParseError(f"{at} node {nid}: orphan node (parent {pid} missing)")
            elif flag not in ("0", "1", "true", "false"):
                raise ParseError(f"{at} node {nid}: bad is_left_child {flag!r}")
            else:
                side = "left" if flag in ("1", "true") else "right"
                if children.setdefault(pid, {}).setdefault(side, nid) != nid:
                    raise ParseError(f"{at} node {pid}: two {side} children")
        if len(roots) != 1:
            # the second root's row, or the tree's first row when none is
            at = rows[roots[1]][0] if roots else by_tree[tid][0][0]
            raise ParseError(f"{at}: expected one root, found {sorted(roots)}")
        nodes = [_node_entry(schema, row, children.get(nid, {})) for nid, row in rows.items()]
        trees.append(_tree_from_body(dict(nodes=nodes, root=roots[0]), schema, f"{path}: ", built))
    if not trees:
        raise ParseError(f"{path}: no nodes")
    _validate_forest(schema, trees)
    return ForestFile(schema, trees, {"source": "flat-table import"})

"""Deterministic input generator for the benchmark.

Writes forest JSON files, weights CSVs and (for ``empirical-sample``) a
points CSV in the library's file formats, without importing the library:
the program under test only ever sees these files.

    python3 bench/gen.py --workload uniform-forest --seed 1 --out bench/inputs/uniform-forest-1

The same workload and seed always give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

WORKLOADS = ("uniform-forest", "empirical-sample", "combine-write")


# ---------------------------------------------------------------------------
# Schemas


def _numeric(name, low, high):
    return {"name": name, "kind": "numeric", "low": float(low), "high": float(high)}


def _categorical(name, n_levels):
    return {"name": name, "kind": "categorical",
            "levels": [f"{name}_{k}" for k in range(n_levels)]}


def _schema(features, class_labels=None):
    return {"features": features, "class_labels": class_labels}


def is_numeric(feature) -> bool:
    return feature["kind"] == "numeric"


# ---------------------------------------------------------------------------
# Tree growth
#
# A tree is grown by splitting its largest splittable leaf (by share of the
# feature box, or by sample points) with a split that cuts the leaf's region
# into two nonempty parts near its middle. Trees grown this way are close to
# balanced, as fitted trees usually are, so the cost of comparing two of them
# varies little from pair to pair and from seed to seed. ``_Leaf`` tracks the
# region (numeric box, admissible levels) and, for sample-based trees, the
# indices of the sample points inside it.


class _Leaf:
    __slots__ = ("nid", "lo", "hi", "levels", "rows", "size")

    def __init__(self, nid, lo, hi, levels, rows, size):
        self.nid, self.lo, self.hi, self.levels, self.rows = nid, lo, hi, levels, rows
        self.size = size


class _Grower:
    def __init__(self, schema, rows=None):
        self.features = schema["features"]
        self.nodes = [{"id": 0}]
        self.box_lo = [f["low"] if is_numeric(f) else None for f in self.features]
        self.box_hi = [f["high"] if is_numeric(f) else None for f in self.features]
        levels = [None if is_numeric(f) else tuple(range(len(f["levels"])))
                  for f in self.features]
        self.leaves = [self._leaf(0, self.box_lo, self.box_hi, levels, rows)]
        self.stuck = set()

    def _leaf(self, nid, lo, hi, levels, rows):
        if rows is not None:
            size = float(rows.size)
        else:
            size = 1.0
            for j, f in enumerate(self.features):
                if is_numeric(f):
                    size *= (hi[j] - lo[j]) / (self.box_hi[j] - self.box_lo[j])
                else:
                    size *= len(levels[j]) / len(f["levels"])
        return _Leaf(nid, lo, hi, levels, rows, size)

    def largest(self):
        """Index of the largest leaf not yet found unsplittable, or None."""
        best = None
        for k, leaf in enumerate(self.leaves):
            if k not in self.stuck and (best is None or leaf.size > self.leaves[best].size):
                best = k
        return best

    def split(self, k, split, left_rows=None, right_rows=None, box=None):
        """Split leaf ``k``; ``box`` is ``(feature, t)`` for a numeric threshold
        or ``(feature, left_levels)`` for a categorical subset."""
        leaf = self.leaves[k]
        left_id, right_id = len(self.nodes), len(self.nodes) + 1
        node = self.nodes[leaf.nid]
        node.update({"split": split, "left": left_id, "right": right_id})
        self.nodes.extend([{"id": left_id}, {"id": right_id}])
        l_lo, l_hi, l_lv = list(leaf.lo), list(leaf.hi), list(leaf.levels)
        r_lo, r_hi, r_lv = list(leaf.lo), list(leaf.hi), list(leaf.levels)
        if box is not None:
            j, arg = box
            if is_numeric(self.features[j]):
                l_hi[j] = arg
                r_lo[j] = arg
            else:
                l_lv[j] = tuple(v for v in leaf.levels[j] if v in arg)
                r_lv[j] = tuple(v for v in leaf.levels[j] if v not in arg)
        self.leaves[k] = self._leaf(left_id, l_lo, l_hi, l_lv, left_rows)
        self.leaves.append(self._leaf(right_id, r_lo, r_hi, r_lv, right_rows))

    def grow(self, n_splits, try_split):
        """Make ``n_splits`` splits; ``try_split(k)`` splits leaf ``k`` and
        returns True, or returns False when it cannot."""
        done = 0
        while done < n_splits:
            k = self.largest()
            if k is None:
                raise RuntimeError(f"no leaf can be split after {done} splits")
            if try_split(k):
                done += 1
                self.stuck.clear()
            else:
                self.stuck.add(k)

    def finish(self, values):
        for leaf, value in zip(self.leaves, values):
            self.nodes[leaf.nid]["value"] = value
        return {"nodes": sorted(self.nodes, key=lambda n: n["id"]), "root": 0}


def _middle(values):
    """The middle half of a sorted array (all of it when that is empty)."""
    n = values.size
    mid = values[n // 4: n - n // 4]
    return mid if mid.size else values


def _categorical_split(rng, leaf, j):
    admissible = leaf.levels[j]
    if len(admissible) < 2:
        return None
    size = int(rng.integers(1, len(admissible)))
    chosen = sorted(int(v) for v in rng.choice(admissible, size=size, replace=False))
    return {"type": "categorical", "feature": j, "left_levels": chosen}


def _scalar(rng):
    return {"type": "scalar", "v": float(rng.uniform(-1.0, 1.0))}


def _class_probs(rng, n_classes):
    raw = rng.random(n_classes) + 1e-3
    return {"type": "class_probs", "probs": [float(p) for p in raw / raw.sum()]}


def pool_tree(rng, schema, pools, n_splits, features=None):
    """Axis-aligned scalar tree with exactly ``n_splits`` splits whose
    thresholds come from the shared per-feature ``pools``; ``features``
    restricts the features it may split on."""
    g = _Grower(schema)
    allowed = list(range(len(schema["features"]))) if features is None else list(features)

    def try_split(k):
        leaf = g.leaves[k]
        for j in rng.permutation(allowed):
            j = int(j)
            if is_numeric(schema["features"][j]):
                pool = pools[j]
                inside = _middle(pool[(pool > leaf.lo[j]) & (pool < leaf.hi[j])])
                if inside.size == 0:
                    continue
                t = float(inside[int(rng.integers(0, inside.size))])
                g.split(k, {"type": "numeric", "feature": j, "threshold": t}, box=(j, t))
                return True
            split = _categorical_split(rng, leaf, j)
            if split is not None:
                g.split(k, split, box=(j, split["left_levels"]))
                return True
        return False

    g.grow(n_splits, try_split)
    return g.finish([_scalar(rng) for _ in g.leaves])


def sample_axis_tree(rng, schema, X, n_splits, n_classes):
    """Axis-aligned class-probability tree whose thresholds are sample
    values, so that sample points lie exactly on thresholds."""
    g = _Grower(schema, rows=np.arange(len(X)))

    def try_split(k):
        leaf = g.leaves[k]
        for j in rng.permutation(len(schema["features"])):
            j = int(j)
            col = X[leaf.rows, j]
            if is_numeric(schema["features"][j]):
                values = _middle(np.unique(col)[:-1])
                if values.size == 0:
                    continue
                t = float(values[int(rng.integers(0, values.size))])
                left = col <= t
                g.split(k, {"type": "numeric", "feature": j, "threshold": t},
                        leaf.rows[left], leaf.rows[~left], box=(j, t))
                return True
            split = _categorical_split(rng, leaf, j)
            if split is None:
                continue
            left = np.isin(col.astype(np.int64), split["left_levels"])
            if left.all() or not left.any():
                continue
            g.split(k, split, leaf.rows[left], leaf.rows[~left],
                    box=(j, split["left_levels"]))
            return True
        return False

    g.grow(n_splits, try_split)
    return g.finish([_class_probs(rng, n_classes) for _ in g.leaves])


# split kinds of an oblique tree, by split number: a fixed cycle rather than
# random draws, so that the number of LP-solving splits hardly varies by seed
OBLIQUE_KINDS = ("hyperplane", "axis", "hyperplane", "categorical", "axis",
                 "hyperplane", "axis", "hyperplane", "categorical", "hyperplane")


def sample_oblique_tree(rng, schema, X, n_splits, features=None):
    """Scalar tree with hyperplane and categorical-subset splits only.

    Hyperplanes with several nonzero coefficients sit halfway between two
    neighbouring projections of the sample, so no point lies near them;
    hyperplanes with one unit coefficient ("axis") sit exactly on a sample
    value. The kind of each split follows ``OBLIQUE_KINDS``.
    Every split leaves sample points on both sides, so both sides of it
    are nonempty. ``features`` restricts the features a split may involve.
    """
    num = [j for j, f in enumerate(schema["features"]) if is_numeric(f)]
    allowed = set(range(len(schema["features"])) if features is None else features)
    cats = [j for j, f in enumerate(schema["features"]) if not is_numeric(f) and j in allowed]
    support = [k for k, j in enumerate(num) if j in allowed]
    g = _Grower(schema, rows=np.arange(len(X)))

    def try_split(k):
        leaf = g.leaves[k]
        if leaf.rows.size < 4:
            return False
        for attempt in range(20):
            kind = OBLIQUE_KINDS[(len(g.leaves) - 1 + attempt) % len(OBLIQUE_KINDS)]
            if kind == "categorical" and cats:
                j = cats[int(rng.integers(0, len(cats)))]
                split = _categorical_split(rng, leaf, j)
                if split is None:
                    continue
                left = np.isin(X[leaf.rows, j].astype(np.int64), split["left_levels"])
                if left.all() or not left.any():
                    continue
                g.split(k, split, leaf.rows[left], leaf.rows[~left],
                        box=(j, split["left_levels"]))
                return True
            coeffs = np.zeros(len(num))
            if kind != "hyperplane":
                coeffs[support[int(rng.integers(0, len(support)))]] = 1.0
                proj = X[np.ix_(leaf.rows, num)] @ coeffs
                values = _middle(np.unique(proj)[:-1])
                if values.size == 0:
                    continue
                offset = float(values[int(rng.integers(0, values.size))])
            else:
                coeffs[support] = rng.normal(size=len(support))
                proj = X[np.ix_(leaf.rows, num)] @ coeffs
                values = np.unique(proj)
                gaps = np.flatnonzero(np.diff(values) > 1e-6 * (1.0 + np.abs(values[1:])))
                gaps = _middle(gaps)
                if gaps.size == 0:
                    continue
                i = int(gaps[int(rng.integers(0, gaps.size))])
                offset = float((values[i] + values[i + 1]) / 2.0)
            left = proj <= offset
            split = {"type": "hyperplane", "coeffs": [float(c) for c in coeffs],
                     "offset": offset}
            g.split(k, split, leaf.rows[left], leaf.rows[~left])
            return True
        return False

    g.grow(n_splits, try_split)
    return g.finish([_scalar(rng) for _ in g.leaves])


def stump(schema, j, t, low, high):
    return {"nodes": [
        {"id": 0, "split": {"type": "numeric", "feature": j, "threshold": float(t)},
         "left": 1, "right": 2},
        {"id": 1, "value": {"type": "scalar", "v": float(low)}},
        {"id": 2, "value": {"type": "scalar", "v": float(high)}},
    ], "root": 0}


# ---------------------------------------------------------------------------
# Writers (the library's canonical layout; it reads any valid JSON)


def _write(path, text):
    with open(path, "w") as handle:
        handle.write(text)


def write_forest(path, schema, trees, note):
    doc = {"schema": schema, "trees": trees, "metadata": {"generator": note}}
    _write(path, json.dumps(doc, separators=(", ", ": "), allow_nan=False) + "\n")


def write_weights(path, weights):
    _write(path, "\n".join(repr(float(w)) for w in weights) + "\n")


def write_points(path, schema, X):
    lines = []
    for row in X:
        toks = []
        for f, x in zip(schema["features"], row):
            toks.append(repr(float(x)) if is_numeric(f) else f["levels"][int(x)])
        lines.append(",".join(toks))
    _write(path, "\n".join(lines) + "\n")


def _pools(rng, schema, size):
    return [np.sort(rng.uniform(f["low"], f["high"], size)) if is_numeric(f) else None
            for f in schema["features"]]


def _weights(rng, n):
    return [float(w) for w in rng.uniform(-1.0, 1.0, n)]


# ---------------------------------------------------------------------------
# Workloads
#
# Tree sizes follow fixed cycles rather than random draws, so that the seed
# changes the trees but not how much work they make.


def _cycle(n_trees, low, high):
    """Split counts low, low+1, ..., high, low, ... for ``n_trees`` trees."""
    return [low + i % (high - low + 1) for i in range(n_trees)]


# uniform-forest: pairs of 40-split trees (the ROADMAP baseline shape), a
# 100-tree forest of 1-15 splits for dist-matrix + mds, two forests for
# forest-dist and a 3-tree forest for one affine request. With 100 distinct
# pairs the 90th percentile of their latencies varies little by seed.
UNIFORM_PAIRS, UNIFORM_PAIR_SPLITS = 100, 40
UNIFORM_FOREST = 100
UNIFORM_FD_TREES, UNIFORM_FD_SPLITS = 6, 8
UNIFORM_POOL = 12  # thresholds per numeric feature shared by all trees
# the affine forest splits each tree on its own features, so the combined
# tree is the full product of the trees' partitions (see combine-write)
UNIFORM_GROUPS = ((0, 1), (2, 3), (4, 5, 6))


def uniform_schema():
    bounds = [(0.0, 1.0), (-5.0, 5.0), (0.0, 100.0), (10.0, 12.5), (-1.0, 3.0), (0.0, 8.0)]
    feats = [_numeric(f"x{j}", lo, hi) for j, (lo, hi) in enumerate(bounds)]
    return _schema(feats + [_categorical("c6", 5)])


def gen_uniform(rng, out):
    schema = uniform_schema()
    pools = _pools(rng, schema, UNIFORM_POOL)
    note = "uniform-forest"
    pairs = [pool_tree(rng, schema, pools, UNIFORM_PAIR_SPLITS)
             for _ in range(2 * UNIFORM_PAIRS)]
    write_forest(os.path.join(out, "pairs.json"), schema, pairs, note)
    forest = [pool_tree(rng, schema, pools, n) for n in _cycle(UNIFORM_FOREST, 1, 15)]
    write_forest(os.path.join(out, "forest.json"), schema, forest, note)
    for name in ("fd_f", "fd_g"):
        trees = [pool_tree(rng, schema, pools, UNIFORM_FD_SPLITS)
                 for _ in range(UNIFORM_FD_TREES)]
        write_forest(os.path.join(out, f"{name}.json"), schema, trees, note)
    comb = [pool_tree(rng, schema, pools, 5, features=group) for group in UNIFORM_GROUPS]
    write_forest(os.path.join(out, "comb.json"), schema, comb, note)
    write_weights(os.path.join(out, "comb_w.csv"), _weights(rng, len(comb)))


# empirical-sample: 10^4 points on 5 numeric features (two decimals, so many
# ties) and one categorical feature; an axis-aligned class-probability
# population and an oblique scalar population, each with a pair list and a
# forest for dist-matrix + mds; small oblique forests for forest-dist and
# affine. Every axis pair is faster than every oblique pair, so with twice as
# many axis pairs the median latency lies inside the axis population and the
# 90th percentile inside the oblique one, never at the seam between them.
EMPIRICAL_POINTS = 10_000
EMPIRICAL_AXIS_PAIRS, EMPIRICAL_OBLIQUE_PAIRS = 32, 16
EMPIRICAL_AXIS_SPLITS, EMPIRICAL_OBLIQUE_SPLITS = 8, 5
EMPIRICAL_FOREST = 8
N_CLASSES = 3
EMPIRICAL_GROUPS = ((0, 1), (2, 3), (4, 5))


def empirical_schema():
    feats = [_numeric(f"x{j}", 0.0, 10.0) for j in range(5)]
    return _schema(feats + [_categorical("c5", 4)], [f"k{i}" for i in range(N_CLASSES)])


def empirical_points(rng, schema):
    n_num = sum(1 for f in schema["features"] if is_numeric(f))
    X = np.empty((EMPIRICAL_POINTS, len(schema["features"])))
    X[:, :n_num] = np.round(rng.uniform(0.0, 10.0, (EMPIRICAL_POINTS, n_num)), 2)
    X[:, n_num:] = rng.integers(0, 4, (EMPIRICAL_POINTS, 1))
    return X


def gen_empirical(rng, out):
    schema = empirical_schema()
    X = empirical_points(rng, schema)
    write_points(os.path.join(out, "points.csv"), schema, X)
    note = "empirical-sample"
    axis_pairs = [sample_axis_tree(rng, schema, X, EMPIRICAL_AXIS_SPLITS, N_CLASSES)
                  for _ in range(2 * EMPIRICAL_AXIS_PAIRS)]
    write_forest(os.path.join(out, "axis_pairs.json"), schema, axis_pairs, note)
    axis_forest = [sample_axis_tree(rng, schema, X, n, N_CLASSES)
                   for n in _cycle(EMPIRICAL_FOREST, 1, 15)]
    write_forest(os.path.join(out, "axis_forest.json"), schema, axis_forest, note)
    obl_pairs = [sample_oblique_tree(rng, schema, X, EMPIRICAL_OBLIQUE_SPLITS)
                 for _ in range(2 * EMPIRICAL_OBLIQUE_PAIRS)]
    write_forest(os.path.join(out, "obl_pairs.json"), schema, obl_pairs, note)
    obl_forest = [sample_oblique_tree(rng, schema, X, n) for n in _cycle(EMPIRICAL_FOREST, 1, 9)]
    write_forest(os.path.join(out, "obl_forest.json"), schema, obl_forest, note)
    for name in ("fd_f", "fd_g"):
        trees = [sample_oblique_tree(rng, schema, X, 3) for _ in range(2)]
        write_forest(os.path.join(out, f"{name}.json"), schema, trees, note)
    comb = [sample_oblique_tree(rng, schema, X, 4, features=group)
            for group in EMPIRICAL_GROUPS]
    write_forest(os.path.join(out, "comb.json"), schema, comb, note)
    write_weights(os.path.join(out, "comb_w.csv"), _weights(rng, len(comb)))


# combine-write: every combined forest splits each tree on its own group of
# features, so the overlay is a full product of the trees' partitions and
# has exactly 2 * prod(leaves) - 1 nodes whatever the seed. The sizes are
# far enough apart that the median request is the same one in every run.
COMBINE_REQUESTS = (
    # (file stem, CLI command, leaves per tree, weighted)
    ("stumps10", "affine", (2,) * 10, True),
    ("prod5", "affine", (6, 6, 6, 6, 6), True),
    ("prod3", "combine", (24, 24, 24), False),
    ("prod4", "affine", (12, 12, 12, 12), True),
    ("prod2", "combine", (150, 150), True),
)
COMBINE_GROUPS = ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11, 12))
COMBINE_GROUPS5 = ((0, 1), (2, 3, 4), (5, 6), (7, 8, 9), (10, 11, 12))
COMBINE_SMALL_PAIRS, COMBINE_SMALL_FOREST = 36, 12


def combine_schema():
    feats = [_numeric(f"x{j}", 0.0, float(j + 1)) for j in range(12)]
    return _schema(feats + [_categorical("c12", 4)])


def gen_combine(rng, out):
    schema = combine_schema()
    pools = _pools(rng, schema, 64)
    note = "combine-write"
    for stem, _cmd, leaves, weighted in COMBINE_REQUESTS:
        if stem == "stumps10":
            trees = []
            for j in range(10):
                lo, hi = rng.uniform(-1.0, 1.0, 2)
                trees.append(stump(schema, j, pools[j][int(rng.integers(8, 56))], lo, hi))
        else:
            if len(leaves) == 5:
                groups = COMBINE_GROUPS5
            elif len(leaves) == 2:
                groups = (COMBINE_GROUPS[0] + COMBINE_GROUPS[1],
                          COMBINE_GROUPS[2] + COMBINE_GROUPS[3])
            else:
                groups = COMBINE_GROUPS
            trees = [pool_tree(rng, schema, pools, n - 1, features=groups[m])
                     for m, n in enumerate(leaves)]
        write_forest(os.path.join(out, f"{stem}.json"), schema, trees, note)
        if weighted:
            write_weights(os.path.join(out, f"{stem}_w.csv"), _weights(rng, len(trees)))
    small = [pool_tree(rng, schema, pools, n) for n in _cycle(2 * COMBINE_SMALL_PAIRS, 4, 11)]
    write_forest(os.path.join(out, "pairs.json"), schema, small, note)
    forest = [pool_tree(rng, schema, pools, n) for n in _cycle(COMBINE_SMALL_FOREST, 1, 11)]
    write_forest(os.path.join(out, "forest.json"), schema, forest, note)
    for name in ("fd_f", "fd_g"):
        trees = [pool_tree(rng, schema, pools, 5) for _ in range(3)]
        write_forest(os.path.join(out, f"{name}.json"), schema, trees, note)


_GENERATORS = {
    "uniform-forest": gen_uniform,
    "empirical-sample": gen_empirical,
    "combine-write": gen_combine,
}


def generate(workload: str, seed: int, out: str) -> str:
    """Write the inputs of ``workload`` for ``seed`` into ``out``."""
    os.makedirs(out, exist_ok=True)
    # one stream per workload and seed; the workload index keeps streams apart
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    _GENERATORS[workload](rng, out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the input files")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

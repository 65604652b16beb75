"""Reference computations the benchmark checks the program against.

Everything here works from the input and output files alone (parsed with
the ``json`` module) and never calls the library, so a fault in the library
cannot hide itself:

- uniform measure: each tree's leaf boxes come from a walk down the tree;
  the squared distance of two trees is the sum over leaf pairs of
  ``(v1 - v2)^2`` times the product of per-feature overlaps;
- empirical measure: a point evaluator that sends ``x <= t`` left gives
  ``sum_i w_i * ||f(x_i) - g(x_i)||^2``;
- classical MDS via ``np.linalg.eigh``.

Each ``check_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Relative tolerances (see README "Reference checks").
TOL_EXACT = 1e-12      # squared distances, at the scale of the leaf values
TOL_FOREST = 1e-12     # forest-dist, relative to the sum of |terms| it cancels
# eigensolver residual, relative to the matrix norm: mds.jacobi_eigh stops
# when a difference of two sums of squares reads zero, which it does once the
# off-diagonal norm is near sqrt(machine epsilon) = 1.5e-8 of the matrix norm
TOL_EIGEN = 1e-7
TOL_STRESS = 1e-8      # stress printed with 9 significant digits


# ---------------------------------------------------------------------------
# Parsing


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def trees_of(doc):
    """Tree bodies of a forest or single-tree document."""
    return doc["trees"] if "trees" in doc else [doc]


def read_csv_matrix(path) -> np.ndarray:
    with open(path) as handle:
        rows = [[float(t) for t in line.split(",")] for line in handle if line.strip()]
    return np.array(rows)


def read_weights(path) -> list[float]:
    with open(path) as handle:
        return [float(t) for line in handle if line.strip() for t in line.split(",")]


def read_points(path, schema) -> np.ndarray:
    feats = schema["features"]
    rows = []
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            toks = [t.strip() for t in line.split(",")]
            rows.append([float(t) if f["kind"] == "numeric" else float(f["levels"].index(t))
                         for f, t in zip(feats, toks)])
    return np.array(rows)


def numeric_indices(schema) -> list[int]:
    return [j for j, f in enumerate(schema["features"]) if f["kind"] == "numeric"]


def leaf_scale(values) -> float:
    """Squared scale of the leaf values: the unit of a squared distance."""
    return max(1.0, float(np.max(np.abs(values)))) ** 2


# ---------------------------------------------------------------------------
# Uniform measure: leaf boxes


class Boxes:
    """Leaf boxes of one tree: numeric ``lo``/``hi`` (L, p), level masks per
    categorical feature (L, K_c), and leaf values (L,) or (L, k)."""

    def __init__(self, schema, body):
        feats = schema["features"]
        num = numeric_indices(schema)
        cats = [j for j in range(len(feats)) if j not in num]
        nodes = {n["id"]: n for n in body["nodes"]}
        lo0 = [feats[j]["low"] for j in num]
        hi0 = [feats[j]["high"] for j in num]
        masks0 = [np.ones(len(feats[j]["levels"]), dtype=bool) for j in cats]
        pos = {j: k for k, j in enumerate(num)}
        cpos = {j: k for k, j in enumerate(cats)}
        lo, hi, masks, values = [], [], [[] for _ in cats], []
        stack = [(body["root"], lo0, hi0, masks0)]
        while stack:
            nid, l, h, m = stack.pop()
            node = nodes[nid]
            if "value" in node:
                lo.append(l)
                hi.append(h)
                for c, mc in enumerate(m):
                    masks[c].append(mc)
                values.append(value_array(node["value"]))
                continue
            s = node["split"]
            if s["type"] == "numeric":
                k, t = pos[s["feature"]], s["threshold"]
                lh, rl = list(h), list(l)
                lh[k] = min(h[k], t)
                rl[k] = max(l[k], t)
                stack.append((node["right"], rl, h, m))
                stack.append((node["left"], l, lh, m))
            elif s["type"] == "categorical":
                c = cpos[s["feature"]]
                sel = np.zeros_like(m[c])
                sel[s["left_levels"]] = True
                lm, rm = list(m), list(m)
                lm[c] = m[c] & sel
                rm[c] = m[c] & ~sel
                stack.append((node["right"], l, h, rm))
                stack.append((node["left"], l, h, lm))
            else:
                raise ValueError("uniform leaf boxes need axis-aligned trees")
        self.lo = np.array(lo)
        self.hi = np.array(hi)
        self.width = np.array(hi0) - np.array(lo0)
        self.masks = [np.array(mc, dtype=float) for mc in masks]
        self.levels = [len(feats[j]["levels"]) for j in cats]
        self.values = np.array(values)


def value_array(value):
    if value["type"] == "scalar":
        return value["v"]
    if value["type"] == "class_probs":
        return value["probs"]
    raise ValueError(f"no array form for {value['type']} leaves")


def overlap(a: Boxes, b: Boxes) -> np.ndarray:
    """Uniform mass of every leaf-pair intersection, shape (La, Lb)."""
    lo = np.maximum(a.lo[:, None, :], b.lo[None, :, :])
    hi = np.minimum(a.hi[:, None, :], b.hi[None, :, :])
    out = np.prod(np.clip(hi - lo, 0.0, None) / a.width, axis=2)
    for ma, mb, k in zip(a.masks, b.masks, a.levels):
        out = out * ((ma @ mb.T) / k)
    return out


def uniform_sq_distance(a: Boxes, b: Boxes) -> float:
    diff = a.values[:, None] - b.values[None, :]
    d2 = diff * diff
    if d2.ndim == 3:
        d2 = d2.sum(axis=2)
    return float((d2 * overlap(a, b)).sum())


def uniform_forest_terms(f: list, g: list) -> tuple[float, float]:
    """Squared distance of the sum functions of two forests, and the sum of
    the absolute values of the terms it cancels (the scale of its error)."""
    sq = scale = 0.0
    signed = [(t, 1.0) for t in f] + [(t, -1.0) for t in g]
    for a, sa in signed:
        for b, sb in signed:
            prod = sa * sb * np.outer(a.values, b.values) * overlap(a, b)
            sq += float(prod.sum())
            scale += float(np.abs(prod).sum())
    return sq, scale


# ---------------------------------------------------------------------------
# Point evaluation


class PointTree:
    """A tree walked point by point: ``x <= t`` goes left, categorical levels
    in ``left_levels`` go left, hyperplanes go left when ``c'x <= b``."""

    def __init__(self, schema, body):
        self.num = numeric_indices(schema)
        self.nodes = {n["id"]: n for n in body["nodes"]}
        self.root = body["root"]
        for node in self.nodes.values():
            s = node.get("split")
            if s is not None and s["type"] == "categorical":
                s["_levels"] = frozenset(s["left_levels"])
            elif s is not None and s["type"] == "hyperplane":
                s["_coeffs"] = np.array(s["coeffs"])

    def goes_left(self, s, x) -> bool:
        if s["type"] == "numeric":
            return x[s["feature"]] <= s["threshold"]
        if s["type"] == "categorical":
            return int(x[s["feature"]]) in s["_levels"]
        return float(x[self.num] @ s["_coeffs"]) <= s["offset"]

    def leaf(self, x) -> dict:
        node = self.nodes[self.root]
        while "value" not in node:
            node = self.nodes[node["left"] if self.goes_left(node["split"], x) else node["right"]]
        return node["value"]

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf values for every row of X, routed as whole index sets."""
        out = None
        stack = [(self.root, np.arange(len(X)))]
        while stack:
            nid, idx = stack.pop()
            node = self.nodes[nid]
            if idx.size == 0:
                continue
            if "value" in node:
                v = np.asarray(value_array(node["value"]), dtype=float)
                if out is None:
                    out = np.empty((len(X),) + v.shape)
                out[idx] = v
                continue
            s = node["split"]
            if s["type"] == "numeric":
                left = X[idx, s["feature"]] <= s["threshold"]
            elif s["type"] == "categorical":
                left = np.isin(X[idx, s["feature"]].astype(np.int64), s["left_levels"])
            else:
                left = X[np.ix_(idx, self.num)] @ s["_coeffs"] <= s["offset"]
            stack.append((node["right"], idx[~left]))
            stack.append((node["left"], idx[left]))
        return out


def empirical_sq_distance(fa: np.ndarray, fb: np.ndarray, w: np.ndarray) -> float:
    d = fa - fb
    if d.ndim == 2:
        d2 = (d * d).sum(axis=1)
    else:
        d2 = d * d
    return float(w @ d2)


def empirical_forest_terms(fv: list, gv: list, w: np.ndarray) -> tuple[float, float]:
    diff = np.sum(fv, axis=0) - np.sum(gv, axis=0)
    absum = np.sum(np.abs(fv), axis=0) + np.sum(np.abs(gv), axis=0)
    return float(w @ (diff * diff)), float(w @ (absum * absum))


# ---------------------------------------------------------------------------
# Checks


def check_sq_distance(got: float, ref_sq: float, scale: float, what: str) -> list[str]:
    err = abs(got * got - ref_sq)
    if not err <= TOL_EXACT * scale:
        return [f"{what}: distance {got!r} squared is {got * got!r}, reference {ref_sq!r}"]
    return []


def check_forest_distance(got: float, ref_sq: float, cancel_scale: float, what: str) -> list[str]:
    err = abs(got * got - ref_sq)
    if not err <= TOL_FOREST * max(1.0, cancel_scale):
        return [f"{what}: forest distance {got!r} squared is {got * got!r}, reference {ref_sq!r}"]
    return []


def check_printed(text: str, value: float, what: str) -> list[str]:
    """The CLI prints numbers with 9 significant digits."""
    if text != format(float(value), ".9g"):
        return [f"{what}: printed {text!r}, expected {format(float(value), '.9g')!r}"]
    return []


def check_distance_matrix(D: np.ndarray, ref_sq: np.ndarray, scale: np.ndarray,
                          what: str) -> list[str]:
    """Upper-triangle entries of ``dist-matrix`` against reference squares."""
    iu = np.triu_indices(len(D), k=1)
    err = np.abs(D[iu] ** 2 - ref_sq[iu])
    bad = int(np.sum(~(err <= TOL_EXACT * scale[iu])))
    return [f"{what}: {bad} dist-matrix entries differ from the reference"] if bad else []


def check_matrix_properties(D: np.ndarray, rng: np.random.Generator, n_triples: int,
                            what: str) -> list[str]:
    problems = []
    if not np.array_equal(D, D.T):
        problems.append(f"{what}: matrix is not symmetric")
    if np.any(np.diag(D) != 0.0):
        problems.append(f"{what}: nonzero diagonal")
    n = len(D)
    ijk = rng.integers(0, n, size=(n_triples, 3))
    i, j, k = ijk[:, 0], ijk[:, 1], ijk[:, 2]
    slack = 1e-12 * max(1.0, float(D.max()))
    bad = D[i, k] > D[i, j] + D[j, k] + slack
    if np.any(bad):
        problems.append(f"{what}: triangle inequality fails on {int(bad.sum())} triples")
    return problems


def mds_gram(D: np.ndarray) -> np.ndarray:
    """The double-centred Gram matrix ``-1/2 J D^2 J`` of classical MDS."""
    n = len(D)
    j = np.eye(n) - np.ones((n, n)) / n
    return -0.5 * j @ (D * D) @ j


def mds_reference(D: np.ndarray, dims: int) -> np.ndarray:
    n = len(D)
    evals, evecs = np.linalg.eigh(mds_gram(D))
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    coords = np.zeros((n, dims))
    k = min(dims, int(np.sum(evals > 0.0)))
    coords[:, :k] = evecs[:, :k] * np.sqrt(evals[:k])
    return coords


def pairwise(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def stress(D: np.ndarray, coords: np.ndarray) -> float:
    rec = pairwise(coords)
    iu = np.triu_indices(len(D), k=1)
    denom = float((D[iu] ** 2).sum())
    return 0.0 if denom == 0.0 else float(((D[iu] - rec[iu]) ** 2).sum() / denom)


def mds_tolerances(D: np.ndarray, dims: int) -> dict:
    """What ``check_mds`` allows on ``D``.

    ``residual`` bounds each eigenpair's backward error and does not depend
    on the spectrum. ``distances`` bounds the recovered squared distances:
    ``residual`` widened by ``gap_factor = 1 + 4 * lambda_1 / gap``, where
    ``gap`` separates the last kept eigenvalue from the first dropped one,
    because near a repeated eigenvalue the kept subspace itself is loose.
    """
    evals = np.sort(np.linalg.eigvalsh(mds_gram(D)))[::-1]
    n = len(D)
    kept = min(dims, int(np.sum(evals > 0.0)))
    dropped = max(float(evals[kept]), 0.0) if kept < n else 0.0
    gap = float(evals[kept - 1]) - dropped if kept else math.inf
    residual = TOL_EIGEN * float(np.sqrt(np.sum(evals * evals)))
    gap_factor = 1.0 + 4.0 * max(float(evals[0]), 0.0) / gap
    return {"evals": evals, "residual": residual, "gap_factor": gap_factor,
            "distances": residual * gap_factor}


def check_mds(D: np.ndarray, coords: np.ndarray, printed_stress: float, dims: int,
              what: str) -> list[str]:
    """Coordinates and stress of ``mds --dims`` against ``np.linalg.eigh``.

    Each coordinate column ``x`` must be an eigenpair of the Gram matrix B
    to within ``residual`` (see ``mds_tolerances``): ``|x|^2`` is the
    matching eigenvalue of ``eigh`` (zero where that is not positive),
    ``||B x - |x|^2 x|| <= residual * |x|`` and the columns are orthogonal.
    These hold whatever the eigengap. The recovered squared distances, which
    do not depend on the sign or rotation of the eigenvectors, must match
    those of ``eigh`` to within ``distances``. The printed stress must match
    the stress of the written coordinates, and that must be as close to the
    reference stress as the distances allow.
    """
    ref_coords = mds_reference(D, dims)
    if coords.shape != ref_coords.shape:
        return [f"{what}: coordinates have shape {coords.shape}, expected {ref_coords.shape}"]
    n = len(D)
    tol = mds_tolerances(D, dims)
    B = mds_gram(D)
    problems = []
    mu = (coords * coords).sum(axis=0)
    for i in range(dims):
        want = max(float(tol["evals"][i]), 0.0) if i < n else 0.0
        if not abs(mu[i] - want) <= tol["residual"]:
            problems.append(f"{what}: column {i} has squared norm {mu[i]!r},"
                            f" eigenvalue {want!r}")
        resid = float(np.linalg.norm(B @ coords[:, i] - mu[i] * coords[:, i]))
        if not resid <= tol["residual"] * math.sqrt(mu[i]):
            problems.append(f"{what}: column {i} is not an eigenvector (residual {resid!r})")
    gram = coords.T @ coords
    off = np.abs(gram - np.diag(mu))
    if not np.all(off <= TOL_EIGEN * np.sqrt(np.outer(mu, mu))):
        problems.append(f"{what}: coordinate columns are not orthogonal")
    rec, rec_ref = pairwise(coords), pairwise(ref_coords)
    err = float(np.max(np.abs(rec ** 2 - rec_ref ** 2)))
    if not err <= tol["distances"]:
        problems.append(f"{what}: recovered squared distances differ from eigh by {err!r}"
                        f" (allowed {tol['distances']!r})")
    s_got, s_ref = stress(D, coords), stress(D, ref_coords)
    if not abs(printed_stress - s_got) <= TOL_STRESS * s_got + 1e-12:
        problems.append(f"{what}: printed stress {printed_stress!r}, coordinates give {s_got!r}")
    # |a - b| <= sqrt(|a^2 - b^2|) bounds how far each recovered distance moved
    iu = np.triu_indices(n, k=1)
    denom = float((D[iu] ** 2).sum())
    slack = 0.0 if denom == 0.0 else float(
        (math.sqrt(tol["distances"]) * (2.0 * D[iu] + rec[iu] + rec_ref[iu])).sum() / denom)
    if not abs(s_got - s_ref) <= slack + 1e-12:
        problems.append(f"{what}: stress {s_got!r}, reference {s_ref!r}")
    return problems


def combined_value(source_values: list[dict], weights) -> dict:
    """What a combined tree's leaf must hold: the tuple of source values, or
    their weighted sum accumulated left to right."""
    if weights is None:
        return {"type": "tuple", "values": source_values,
                "source_ids": list(range(len(source_values)))}
    first = source_values[0]
    if first["type"] == "scalar":
        acc = weights[0] * first["v"]
        for w, v in zip(weights[1:], source_values[1:]):
            acc = acc + w * v["v"]
        return {"type": "scalar", "v": acc}
    out = []
    for s in range(len(first["probs"])):
        acc = weights[0] * first["probs"][s]
        for w, v in zip(weights[1:], source_values[1:]):
            acc = acc + w * v["probs"][s]
        out.append(acc)
    return {"type": "class_probs", "probs": out}


def same_value(a: dict, b: dict) -> bool:
    """Bitwise equality of two leaf values (``==`` on floats, same kind)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def threshold_points(schema, sources: list, rng: np.random.Generator, n: int) -> np.ndarray:
    """Random in-domain points, half of them with coordinates moved exactly
    onto split thresholds of the source trees."""
    feats = schema["features"]
    X = np.empty((n, len(feats)))
    for j, f in enumerate(feats):
        if f["kind"] == "numeric":
            X[:, j] = rng.uniform(f["low"], f["high"], n)
        else:
            X[:, j] = rng.integers(0, len(f["levels"]), n)
    cuts: dict[int, list[float]] = {}
    for body in sources:
        for node in body["nodes"]:
            s = node.get("split")
            if s is not None and s["type"] == "numeric":
                cuts.setdefault(s["feature"], []).append(s["threshold"])
    for j, ts in cuts.items():
        rows = rng.random(n) < 0.5
        X[rows, j] = rng.choice(ts, size=int(rows.sum()))
    return X


def expected_nodes(leaves_per_tree) -> int:
    return 2 * math.prod(leaves_per_tree) - 1


def check_combined(out_doc: dict, sources: list, schema, weights, X: np.ndarray,
                   closed_form_nodes: int, what: str) -> list[str]:
    """A written combined tree: closed-form size, and at every point of X the
    value the sources give, bit for bit."""
    problems = []
    n_nodes = len(out_doc["nodes"])
    if n_nodes != closed_form_nodes:
        problems.append(f"{what}: {n_nodes} nodes, closed form {closed_form_nodes}")
    out = PointTree(schema, out_doc)
    srcs = [PointTree(schema, b) for b in sources]
    bad = 0
    for x in X:
        want = combined_value([t.leaf(x) for t in srcs], weights)
        if not same_value(out.leaf(x), want):
            bad += 1
    if bad:
        problems.append(f"{what}: wrong value at {bad} of {len(X)} points")
    return problems

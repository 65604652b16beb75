"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that the input generator is deterministic for a seed, that every
reference check accepts the exact result and rejects one perturbed by 1e-9
(1e-5 for MDS coordinates, see ``reference.TOL_EIGEN``),
and that one pass of each workload completes with every output correct.
On the distance matrices that pass writes, it prints the tolerances the MDS
check allows and shows that the check rejects the perturbed coordinates.
Exits nonzero on the first failure.
"""

from __future__ import annotations

import filecmp
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

import gen
import reference as ref
import run

SEED = 5
PERTURB = 1e-9
# the MDS check allows the 1e-8 error of the library's eigensolver
# (reference.TOL_EIGEN), so it is shown to reject a larger perturbation
MDS_PERTURB = 1e-5


SCRATCH = run.BENCH / "work" / "selftest"


def _scratch(name: str) -> Path:
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _inputs(workload: str, seed: int = SEED) -> Path:
    out = _scratch(f"{workload}-{seed}")
    gen.generate(workload, seed, str(out))
    return out


def test_generator_deterministic():
    for workload in gen.WORKLOADS:
        a, b = _inputs(workload), _scratch(f"{workload}-again")
        gen.generate(workload, SEED, str(b))
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir()), workload
        _match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert not mismatch and not errors, (workload, mismatch, errors)
        _match, differ, _errors = filecmp.cmpfiles(a, _inputs(workload, SEED + 1), names,
                                                   shallow=False)
        assert differ, f"{workload}: another seed gives the same inputs"


def _rejects(check, exact, perturbed) -> None:
    assert check(exact) == [], check(exact)
    assert check(perturbed) != [], "a result perturbed by 1e-9 was accepted"


def test_checks_reject_perturbed_results():
    up = 1.0 + PERTURB
    # uniform pair and forest distances, from leaf boxes
    uni = _inputs("uniform-forest")
    doc = ref.read_json(uni / "pairs.json")
    a, b = (ref.Boxes(doc["schema"], t) for t in doc["trees"][:2])
    sq, scale = ref.uniform_sq_distance(a, b), max(ref.leaf_scale(a.values),
                                                   ref.leaf_scale(b.values))
    _rejects(lambda d: ref.check_sq_distance(d, sq, scale, "pair"),
             math.sqrt(sq), math.sqrt(sq) * up)
    f, g = ([ref.Boxes(doc["schema"], t) for t in ref.read_json(uni / n)["trees"]]
            for n in ("fd_f.json", "fd_g.json"))
    sq, cancel = ref.uniform_forest_terms(f, g)
    _rejects(lambda d: ref.check_forest_distance(d, sq, cancel, "forest"),
             math.sqrt(sq), math.sqrt(sq) * up)
    # empirical pair distances, from the point evaluator
    emp = _inputs("empirical-sample")
    doc = ref.read_json(emp / "obl_pairs.json")
    X = ref.read_points(emp / "points.csv", doc["schema"])
    w = np.full(len(X), 1.0 / len(X))
    fa, fb = (ref.PointTree(doc["schema"], t).leaf_values(X) for t in doc["trees"][:2])
    sq = ref.empirical_sq_distance(fa, fb, w)
    _rejects(lambda d: ref.check_sq_distance(d, sq, 1.0, "empirical pair"),
             math.sqrt(sq), math.sqrt(sq) * up)
    # distance matrix entries and properties
    boxes = [ref.Boxes(doc_u["schema"], t) for doc_u in [ref.read_json(uni / "forest.json")]
             for t in doc_u["trees"][:6]]
    n = len(boxes)
    R, S = np.zeros((n, n)), np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            R[i, j] = R[j, i] = ref.uniform_sq_distance(boxes[i], boxes[j])
    D = np.sqrt(R)
    bad = D.copy()
    bad[0, 1] *= up
    _rejects(lambda m: ref.check_distance_matrix(m, R, S, "matrix"), D, bad)
    rng = np.random.default_rng(0)
    _rejects(lambda m: ref.check_matrix_properties(m, rng, 100, "matrix"), D, bad)
    # MDS: a configuration in three dimensions with distinct spreads
    P = rng.normal(size=(8, 3)) * np.array([3.0, 2.0, 1.0])
    D = ref.pairwise(P)
    coords = ref.mds_reference(D, 3)
    s = ref.stress(D, coords)
    moved = coords.copy()
    moved[0, 0] += MDS_PERTURB * np.abs(coords).max()
    _rejects(lambda c: ref.check_mds(D, c, s, 3, "mds"), coords, moved)
    # combined tree: closed-form size and bit-for-bit leaf values
    cw = _inputs("combine-write")
    lib = run.import_library()
    forest = lib.io.load_forest(str(cw / "stumps10.json"))
    weights = ref.read_weights(cw / "stumps10_w.csv")
    out = json.loads(lib.io.tree_to_json(lib.ta.affine_combination(forest.trees, weights)))
    sources = ref.read_json(cw / "stumps10.json")["trees"]
    schema = ref.read_json(cw / "stumps10.json")["schema"]
    points = ref.threshold_points(schema, sources, rng, 200)
    nodes = ref.expected_nodes([2] * 10)
    shifted = json.loads(json.dumps(out))
    for node in shifted["nodes"]:
        if "value" in node:
            node["value"]["v"] *= up
    _rejects(lambda d: ref.check_combined(d, sources, schema, weights, points, nodes, "comb"),
             out, shifted)


def _mds_rejects_on_written_matrices(workload: str, ops, outputs) -> None:
    """The MDS check on the workload's own matrices: print what it allows,
    and show that it accepts the library's coordinates and that its
    eigenpair part, whose tolerance does not grow as the eigengap closes,
    rejects them perturbed by MDS_PERTURB."""
    pipelines = {id(op): op for op in ops if op.metric == "pipeline_s"}
    for op in pipelines.values():
        stdouts = outputs.first[id(op)][1]
        for k in range(len(op.outputs) // 2):
            d_path, c_path = op.outputs[2 * k: 2 * k + 2]
            D, coords = ref.read_csv_matrix(d_path), ref.read_csv_matrix(c_path)
            printed = float(stdouts[2 * k + 1].strip().split("=", 1)[1])
            tol = ref.mds_tolerances(D, run.MDS_DIMS)
            print(f"  {workload} {Path(d_path).name}: n={len(D)} lambda_1={tol['evals'][0]:.4g}"
                  f" residual tol {tol['residual']:.3g}, gap factor {tol['gap_factor']:.3g},"
                  f" distance tol {tol['distances']:.3g}")
            moved = coords.copy()
            moved[0, 0] += MDS_PERTURB * np.abs(coords).max()
            _rejects(lambda c: ref.check_mds(D, c, printed, run.MDS_DIMS, "mds"),
                     coords, moved)
            found = ref.check_mds(D, moved, printed, run.MDS_DIMS, "mds")
            assert any("column" in problem for problem in found), found


def test_one_pass_of_each_workload():
    for workload in run.WORKLOADS:
        inputs = _inputs(workload)
        work = _scratch(f"{workload}-work")
        _spans, lib, ops = run.prepare(workload, SEED, inputs, work)
        tally, outputs = run.Tally(run.Clock()), run.Outputs()
        run.run_pass(ops, lib, tally, outputs)
        tally.problems += outputs.check()
        tally.settle(outputs)
        assert tally.attempted == len(ops), workload
        assert tally.failed == 0 and tally.correct, (workload, tally.errors[:5],
                                                      tally.problems[:5])
        values = run.end_to_end(tally, 1.0, run.peak_rss_mib())
        assert set(values) == {name for name, _unit in run.END_TO_END}, (workload, values)
        assert values["pair_ms_p50"] > 0.0, workload
        _mds_rejects_on_written_matrices(workload, ops, outputs)


def main() -> int:
    tests = [test_generator_deterministic, test_checks_reject_perturbed_results,
             test_one_pass_of_each_workload]
    try:
        for test in tests:
            test()
            print(f"PASS {test.__name__}", flush=True)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

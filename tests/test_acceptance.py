"""End-to-end acceptance checks.

One test per criterion; each prints a single ``ACCEPTANCE <n> ...: PASS``
line when it succeeds (run with ``pytest -s`` to see the lines). Tolerances
are pinned here and nowhere else.
"""

import itertools
import math
import time

import numpy as np
import pytest

import treealgebra as ta
from treealgebra.cli import run_cli
from treealgebra.combine import CombineBudget
from treealgebra.geometry import HyperplaneTestResult, hyperplane_intersects_polyhedron
from treealgebra.io import read_matrix_csv, save_forest, ForestFile
from treealgebra.mds import classical_mds, mds_stress, pairwise_distances
from treealgebra.oracle import recursive_pair_sum, sq_diff_term
from treealgebra.trees import Hyperplane, NumericThreshold, Scalar

UNIFORM = ta.UniformBox()


def _single_split_trees(m):
    schema = ta.FeatureSchema(tuple(ta.NumericFeature(f"x{j}", 0, 1) for j in range(m)))
    trees = []
    for j in range(m):
        b = ta.TreeBuilder(schema)
        left, right = b.split_node(b.add_root(), NumericThreshold(j, 0.2 + 0.6 * (j + 1) / (m + 1)))
        b.set_value(left, Scalar(0.0))
        b.set_value(right, Scalar(1.0))
        trees.append(b.build())
    return trees


def test_01_exponential_growth():
    for m in range(1, 11):
        trees = _single_split_trees(m)
        assert sum(t.n_nodes for t in trees) == 3 * m
        start = time.perf_counter()
        combined = ta.combine_many(trees)
        elapsed = time.perf_counter() - start
        assert combined.n_nodes == 2 ** (m + 1) - 1
        if m == 10:
            assert elapsed < 1.0
    print("\nACCEPTANCE 01 exponential-growth: PASS")


_PAIR_RESULTS = {}


def _fuzz_500_pairs():
    if "pairs" not in _PAIR_RESULTS:
        rng = np.random.default_rng(500500)
        pairs = []
        for _ in range(500):
            schema = ta.random_schema(rng, max_features=8)
            t1 = ta.random_tree(schema, rng, int(rng.integers(1, 100)))
            t2 = ta.random_tree(schema, rng, int(rng.integers(1, 100)))
            pairs.append((t1, t2))
        _PAIR_RESULTS["pairs"] = pairs
    return _PAIR_RESULTS["pairs"]


def test_02_product_correctness_500_pairs():
    start = time.perf_counter()
    pairs = _fuzz_500_pairs()
    combined_and_budgets = []
    counterexamples = 0
    for i, (t1, t2) in enumerate(pairs):
        budget = CombineBudget()
        combined = ta.combine_pair(t1, t2, budget)
        combined_and_budgets.append((combined, budget))
        if ta.pointwise_equivalence(combined, [t1, t2], 10_000, seed=i) is not None:
            counterexamples += 1
    elapsed = time.perf_counter() - start
    _PAIR_RESULTS["combined"] = combined_and_budgets
    assert counterexamples == 0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 02 product-correctness (500 pairs, {elapsed:.1f}s): PASS")


def test_03_cost_bound_500_pairs():
    pairs = _fuzz_500_pairs()
    if "combined" not in _PAIR_RESULTS:
        test_02_product_correctness_500_pairs()
    call_violations = 0
    leaf_violations = 0
    for (t1, t2), (combined, budget) in zip(pairs, _PAIR_RESULTS["combined"]):
        if budget.calls_made > t1.n_nodes * t2.n_nodes:
            call_violations += 1
        if combined.n_leaves > t1.n_leaves * t2.n_leaves:
            leaf_violations += 1
    assert call_violations == 0
    assert leaf_violations == 0
    print("\nACCEPTANCE 03 cost-bound (500 pairs): PASS")


def test_04_exact_vs_oracle_agreement():
    rng = np.random.default_rng(404404)
    grid_tol = 1e-12
    mc_cases = 0
    mc_hits = 0
    for pair_index in range(200):
        schema = ta.random_schema(rng, max_features=4)
        t1 = ta.random_tree(schema, rng, int(rng.integers(1, 16)))
        t2 = ta.random_tree(schema, rng, int(rng.integers(1, 16)))

        grid_mu1 = ta.grid_integral([t1], "raw-value", UNIFORM)
        grid_mu2 = ta.grid_integral([t2], "raw-value", UNIFORM)
        quantities = [
            (
                ta.tree_distance(t1, t2, UNIFORM),
                math.sqrt(max(ta.grid_integral([t1, t2], "squared-difference", UNIFORM), 0.0)),
                [t1, t2],
                "squared-difference",
                True,
            ),
            (ta.tree_mean(t1, UNIFORM), grid_mu1, [t1], "raw-value", False),
            (
                ta.tree_variance(t1, UNIFORM),
                ta.grid_integral([t1], lambda v: (v[0] - grid_mu1) ** 2, UNIFORM),
                [t1],
                lambda v: (v[0] - grid_mu1) ** 2,
                False,
            ),
            (
                ta.tree_covariance(t1, t2, UNIFORM),
                ta.grid_integral(
                    [t1, t2], lambda v: (v[0] - grid_mu1) * (v[1] - grid_mu2), UNIFORM
                ),
                [t1, t2],
                lambda v: (v[0] - grid_mu1) * (v[1] - grid_mu2),
                False,
            ),
            (
                ta.tree_inner_product(t1, t2, UNIFORM),
                ta.grid_integral([t1, t2], "product", UNIFORM),
                [t1, t2],
                "product",
                False,
            ),
        ]
        for exact, grid_value, mc_trees, mc_combiner, is_sqrt in quantities:
            assert abs(exact - grid_value) <= grid_tol
            est, se = ta.monte_carlo_integral(
                mc_trees, mc_combiner, UNIFORM, 100_000, seed=pair_index
            )
            target = exact * exact if is_sqrt else exact
            mc_cases += 1
            if abs(est - target) <= 4.0 * se + 1e-15:
                mc_hits += 1
    assert mc_hits / mc_cases >= 0.99, f"{mc_hits}/{mc_cases}"
    print(f"\nACCEPTANCE 04 exact-vs-oracle (200 pairs, MC hits {mc_hits}/{mc_cases}): PASS")


def test_05_metric_and_algebraic_identities():
    rng = np.random.default_rng(505505)
    schema = ta.random_schema(rng, max_features=5)
    trees = [ta.random_tree(schema, rng, int(rng.integers(1, 16))) for _ in range(50)]

    D = ta.distance_matrix(trees, UNIFORM)
    for k in range(len(trees)):
        assert (D <= D[:, [k]] + D[[k], :] + 1e-9).all()

    norms = [ta.tree_inner_product(t, t, UNIFORM) for t in trees]
    check_pairs = [
        (int(i), int(j))
        for i, j in zip(rng.integers(0, 50, 300), rng.integers(0, 50, 300))
        if i != j
    ]
    for i, j in check_pairs:
        inner = ta.tree_inner_product(trees[i], trees[j], UNIFORM)
        assert abs(D[i, j] ** 2 - (norms[i] + norms[j] - 2 * inner)) <= 1e-9
        combined = ta.combine_pair(trees[i], trees[j])
        rec = recursive_pair_sum(combined, UNIFORM, sq_diff_term)
        assert abs(rec - D[i, j] ** 2) <= 1e-12
        rho = ta.tree_correlation(trees[i], trees[j], UNIFORM)
        assert abs(rho) <= 1.0 + 1e-12

    sign_hits = 0
    for _ in range(100):
        t = trees[int(rng.integers(0, 50))]
        a = float(rng.uniform(0.1, 4.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        b = ta.TreeBuilder(schema)
        b.set_value(b.add_root(), Scalar(float(rng.uniform(-3, 3))))
        transformed = ta.affine_combination([t, b.build()], [a, 1.0])
        if ta.tree_correlation(t, transformed, UNIFORM) == math.copysign(1.0, a):
            sign_hits += 1
    assert sign_hits == 100
    print("\nACCEPTANCE 05 metric-and-algebraic-identities: PASS")


def test_06_forest_distance_consistency():
    rng = np.random.default_rng(606606)
    for _ in range(50):
        schema = ta.random_schema(rng, max_features=4)
        f = [
            ta.random_tree(schema, rng, int(rng.integers(1, 16)))
            for _ in range(int(rng.integers(1, 5)))
        ]
        g = [
            ta.random_tree(schema, rng, int(rng.integers(1, 16)))
            for _ in range(int(rng.integers(1, 5)))
        ]
        expansion = ta.forest_distance(f, g, UNIFORM)
        direct = ta.tree_distance(
            ta.affine_combination(f, [1.0] * len(f)),
            ta.affine_combination(g, [1.0] * len(g)),
            UNIFORM,
        )
        assert abs(expansion - direct) <= 1e-9
    print("\nACCEPTANCE 06 forest-distance-consistency: PASS")


def test_07_worked_examples(d2, stump4, stump6):
    # cell-grid oracle first, then the frozen constants
    assert ta.grid_integral([stump4, stump6], "squared-difference", UNIFORM) == pytest.approx(
        0.2, abs=1e-15
    )
    assert abs(ta.tree_distance(stump4, stump6, UNIFORM) - math.sqrt(0.2)) <= 1e-12
    assert abs(ta.tree_correlation(stump4, stump6, UNIFORM) - 2.0 / 3.0) <= 1e-12
    from treealgebra.trees import Region, Side

    strip = (
        Region.full(d2)
        .try_refine(NumericThreshold(0, 4.0), Side.RIGHT)
        .try_refine(NumericThreshold(0, 6.0), Side.LEFT)
    )
    assert ta.region_measure(strip, UNIFORM) == 0.2
    print("\nACCEPTANCE 07 worked-examples: PASS")


def test_08_lp_against_vertex_enumeration():
    rng = np.random.default_rng(808808)
    agreements = 0
    tested = 0
    while tested < 1000:
        n = int(rng.integers(2, 4))
        lows = rng.uniform(-5, 5, n)
        highs = lows + rng.uniform(0.1, 5, n)
        coeffs = rng.normal(size=n)
        if not coeffs.any():
            continue
        verts = np.array(list(itertools.product(*zip(lows, highs))))
        vals = verts @ coeffs
        offset = float(rng.uniform(vals.min() - 1.0, vals.max() + 1.0))
        if min(abs(vals.min() - offset), abs(vals.max() - offset)) <= 1e-9:
            continue
        if vals.max() < offset:
            expected = HyperplaneTestResult.POLYHEDRON_IN_LOWER
        elif vals.min() > offset:
            expected = HyperplaneTestResult.POLYHEDRON_IN_UPPER
        else:
            expected = HyperplaneTestResult.INTERSECTS
        rows = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            rows.append((e.copy(), highs[i]))
            rows.append((-e, -lows[i]))
        got = hyperplane_intersects_polyhedron(Hyperplane(tuple(coeffs), offset), rows)
        tested += 1
        if got is expected:
            agreements += 1
    assert agreements == 1000
    print("\nACCEPTANCE 08 lp-vs-vertex-enumeration (1000 cases): PASS")


def test_09_mds_roundtrip():
    rng = np.random.default_rng(909909)
    config = rng.normal(size=(20, 2)) * 5.0
    dist = pairwise_distances(config)
    coords = classical_mds(dist, 2)
    recovered = pairwise_distances(coords)
    assert np.max(np.abs(recovered - dist)) <= 1e-6
    print("\nACCEPTANCE 09 mds-roundtrip: PASS")


def test_10_end_to_end_forest_pipeline(tmp_path, capsys):
    rng = np.random.default_rng(101010)
    schema = ta.random_schema(rng, max_features=5)
    trees = [ta.random_tree(schema, rng, int(rng.integers(1, 16))) for _ in range(100)]
    forest_path = tmp_path / "forest.json"
    save_forest(ForestFile(schema, trees), str(forest_path))
    matrix_path = tmp_path / "D.csv"
    coords_path = tmp_path / "coords.csv"

    start = time.perf_counter()
    assert run_cli(["dist-matrix", "--forest", str(forest_path), "--out", str(matrix_path)]) == 0
    assert run_cli(
        ["mds", "--matrix", str(matrix_path), "--dims", "3", "--out", str(coords_path)]
    ) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert elapsed < 120.0, f"took {elapsed:.1f}s"

    D = read_matrix_csv(str(matrix_path))
    assert D.shape == (100, 100)
    assert (D == D.T).all()
    assert (np.diag(D) == 0.0).all()
    stress_lines = [line for line in out.splitlines() if line.startswith("stress=")]
    assert len(stress_lines) == 1
    stress = float(stress_lines[0].split("=", 1)[1])
    assert np.isfinite(stress)
    coords = read_matrix_csv(str(coords_path))
    assert coords.shape == (100, 3)
    assert abs(mds_stress(D, coords) - stress) <= 1e-9
    print(f"\nACCEPTANCE 10 end-to-end-pipeline ({elapsed:.1f}s, stress={stress:.3g}): PASS")

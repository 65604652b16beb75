"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors, 2 on computation errors
(budget exceeded, degenerate correlation, unsupported geometry, bad input
files). Computation errors print one machine-parseable line on stderr:
``code=<NAME> msg="..."``.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, partial
from typing import Sequence

import numpy as np

from . import io, measures, mds
from .combine import CombineBudget, affine_combination, combine_many, simplify
from .errors import DomainError, LeafKindError, TreeAlgebraError
from .geometry import Empirical, UniformBox
from .trees import leaf_kind_of

PROG = "treealgebra"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _add_measure_args(sub):
    sub.add_argument("--measure", choices=["uniform", "empirical"], default="uniform",
                     help="probability measure for integrals")
    sub.add_argument("--data", help="points CSV for the empirical measure "
                     "(columns in schema order, categorical values by level name)")
    sub.add_argument("--weights", help="weights CSV for the empirical points "
                     "(defaults to equal weights)")


def _check_inputs(args) -> None:
    """Reject a bad ``--max-nodes``, an ``--svg`` of fewer than 2 dims and
    missing ``--data``/``--weights`` files before any work starts."""
    if getattr(args, "max_nodes", 1) < 1:
        raise DomainError("--max-nodes must be at least 1")
    if getattr(args, "svg", None) is not None and args.dims < 2:
        raise DomainError("--svg needs at least 2 dims")
    for path in (getattr(args, "data", None), getattr(args, "weights", None)):
        if path is not None and not os.path.exists(path):
            raise DomainError(f"input file does not exist: {path}")


def _build_measure(args, schema):
    if args.measure == "uniform":
        return UniformBox()
    if args.data is None:
        raise DomainError("--measure empirical needs --data")
    points = io.read_points_csv(args.data, schema)
    if args.weights is not None:
        weights = io.read_weights_csv(args.weights)
    else:
        weights = np.full(len(points), 1.0 / len(points))
    return Empirical(points, weights)


@cache  # once per process: a default read from the environment is read per request
def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description="Exact algebra on decision-tree functions.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("combine", help="combine a forest into one tuple-leaf tree")
    p.add_argument("--forest", required=True, help="forest JSON file")
    p.add_argument("--out", required=True, help="output tree JSON file")
    p.add_argument("--weights", help="weights CSV; collapses tuples to a weighted sum")
    p.add_argument("--simplify", action="store_true", help="merge equal-valued sibling leaves")
    p.add_argument("--max-nodes", type=int, default=10_000_000, dest="max_nodes",
                   help="abort when the combined tree exceeds this many nodes")

    p = sub.add_parser("affine", help="weighted sum of a forest as one tree")
    p.add_argument("--forest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--weights", required=True, help="weights CSV, one weight per tree")
    p.add_argument("--simplify", action="store_true")
    p.add_argument("--max-nodes", type=int, default=10_000_000, dest="max_nodes")

    p = sub.add_parser("dist", help="L2 distance between two trees")
    p.add_argument("--a", required=True, help="first tree JSON file")
    p.add_argument("--b", required=True, help="second tree JSON file")
    _add_measure_args(p)

    p = sub.add_parser("corr", help="correlation between two scalar trees")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    _add_measure_args(p)

    p = sub.add_parser("dist-matrix", help="pairwise distance matrix of a forest")
    p.add_argument("--forest", required=True)
    p.add_argument("--out", required=True, help="output CSV file")
    _add_measure_args(p)

    p = sub.add_parser("forest-dist", help="distance between two forests' sum functions")
    p.add_argument("--f", required=True, help="first forest JSON file")
    p.add_argument("--g", required=True, help="second forest JSON file")
    _add_measure_args(p)

    p = sub.add_parser("mds", help="classical MDS embedding of a distance matrix")
    p.add_argument("--matrix", required=True, help="distance matrix CSV")
    p.add_argument("--dims", type=int, required=True)
    p.add_argument("--out", required=True, help="output coordinates CSV")
    p.add_argument("--svg", help="optional 2-D scatter SVG of the first two coordinates")

    p = sub.add_parser("oracle-check", help="compare exact statistics against brute-force oracles")
    p.add_argument("--forest", required=True)
    p.add_argument("--samples", type=int, default=100_000, help="Monte Carlo sample count")
    p.add_argument("--seed", type=int)
    _add_measure_args(p)

    p = sub.add_parser("validate", help="validate a tree or forest JSON file")
    p.add_argument("path", help="tree or forest JSON file")

    p = sub.add_parser("import", help="import a flat node-table CSV as a forest")
    p.add_argument("--table", required=True, help="flat-table CSV file")
    p.add_argument("--schema", required=True, help="schema JSON file")
    p.add_argument("--dialect", default="flat-table", help="input dialect")
    p.add_argument("--out", required=True, help="output forest JSON file")
    return parser


# ---------------------------------------------------------------------------
# Handlers


def _cmd_combine(args) -> int:
    forest = io.load_forest(args.forest)
    budget = CombineBudget(max_nodes=args.max_nodes)
    if args.weights is not None:
        tree = affine_combination(forest.trees, io.read_weights_csv(args.weights), budget)
    else:
        tree = combine_many(forest.trees, budget)
    if args.simplify:
        tree = simplify(tree)
    io.save_tree(tree, args.out)
    print(f"{tree.n_nodes} nodes, {tree.n_leaves} leaves -> {args.out}")
    return 0


def _load_single_tree(path):
    forest = io.load_forest(path)
    if len(forest.trees) != 1:
        raise DomainError(f"{path} holds {len(forest.trees)} trees, expected 1")
    return forest.schema, forest.trees[0]


def _cmd_pair(statistic, args) -> int:
    schema, a = _load_single_tree(args.a)
    schema_b, b = _load_single_tree(args.b)
    if schema != schema_b:
        raise DomainError("the two trees use different schemas")
    measure = _build_measure(args, schema)
    print(_fmt(statistic(a, b, measure)))
    return 0


def _cmd_dist_matrix(args) -> int:
    forest = io.load_forest(args.forest)
    measure = _build_measure(args, forest.schema)
    matrix = measures.distance_matrix(forest.trees, measure)
    io.write_matrix_csv(args.out, matrix)
    print(f"{matrix.shape[0]}x{matrix.shape[1]} matrix -> {args.out}")
    return 0


def _cmd_forest_dist(args) -> int:
    f = io.load_forest(args.f)
    g = io.load_forest(args.g)
    if f.schema != g.schema:
        raise DomainError("the two forests use different schemas")
    measure = _build_measure(args, f.schema)
    print(_fmt(measures.forest_distance(f.trees, g.trees, measure)))
    return 0


def _scatter_svg(coords: np.ndarray) -> str:
    xs, ys = coords[:, 0], coords[:, 1]
    size, margin = 600.0, 40.0
    span_x = max(xs.max() - xs.min(), 1e-12)
    span_y = max(ys.max() - ys.min(), 1e-12)
    scale = (size - 2 * margin) / max(span_x, span_y)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" height="{size:.0f}" '
        f'viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white" stroke="black"/>',
    ]
    for x, y in zip(xs, ys):
        cx = margin + (x - xs.min()) * scale
        cy = size - margin - (y - ys.min()) * scale
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="steelblue"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_mds(args) -> int:
    matrix = io.read_matrix_csv(args.matrix)
    coords = mds.classical_mds(matrix, args.dims)
    effective = int(np.sum(np.any(coords != 0.0, axis=0)))
    if effective < args.dims:
        print(
            f"note: only {effective} positive eigenvalues; trailing coordinates are zero",
            file=sys.stderr,
        )
    io.write_matrix_csv(args.out, coords)
    if args.svg is not None:
        io.write_text_atomic(args.svg, _scatter_svg(coords[:, :2]))
    print(f"stress={_fmt(mds.mds_stress(matrix, coords))}")
    return 0


def _cmd_oracle_check(args) -> int:
    from . import oracle

    forest = io.load_forest(args.forest)
    if any(leaf_kind_of(t) != "scalar" for t in forest.trees):
        raise LeafKindError("oracle-check needs scalar leaves")
    measure = _build_measure(args, forest.schema)
    trees = forest.trees
    seed = int(os.environ.get("TREEALG_SEED", "0")) if args.seed is None else args.seed
    for i, t in enumerate(trees):
        stats = measures.tree_statistics(t, measure)
        grid_mean = oracle.grid_integral([t], "raw-value", measure)
        grid_norm = oracle.grid_integral([t, t], "product", measure)
        grid_var = grid_norm - grid_mean * grid_mean
        mc_mean, mc_se = oracle.monte_carlo_integral(
            [t], "raw-value", measure, args.samples, seed
        )
        print(
            f"tree {i} mean exact={_fmt(stats.mean)} grid_delta={_fmt(stats.mean - grid_mean)} "
            f"mc={_fmt(mc_mean)} mc_se={_fmt(mc_se)}"
        )
        print(f"tree {i} var exact={_fmt(stats.variance)} grid_delta={_fmt(stats.variance - grid_var)}")
        print(f"tree {i} norm_sq exact={_fmt(stats.norm_squared)} grid_delta={_fmt(stats.norm_squared - grid_norm)}")
    for i in range(len(trees)):
        for j in range(i + 1, len(trees)):
            exact = measures.tree_distance(trees[i], trees[j], measure)
            grid = oracle.grid_integral([trees[i], trees[j]], "squared-difference", measure)
            print(
                f"dist {i},{j} exact={_fmt(exact)} grid_delta={_fmt(exact - np.sqrt(max(grid, 0.0)))}"
            )
    return 0


def _cmd_validate(args) -> int:
    io.load_forest(args.path)
    print("ok")
    return 0


def _cmd_import(args) -> int:
    schema = io.load_schema(args.schema)
    forest = io.import_external_forest(args.table, args.dialect, schema)
    io.save_forest(forest, args.out)
    print(f"{len(forest.trees)} trees -> {args.out}")
    return 0


_HANDLERS = {
    "combine": _cmd_combine,
    "affine": _cmd_combine,
    "dist": partial(_cmd_pair, measures.tree_distance),
    "corr": partial(_cmd_pair, measures.tree_correlation),
    "dist-matrix": _cmd_dist_matrix,
    "forest-dist": _cmd_forest_dist,
    "mds": _cmd_mds,
    "oracle-check": _cmd_oracle_check,
    "validate": _cmd_validate,
    "import": _cmd_import,
}


def run_cli(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        _check_inputs(args)
        return _HANDLERS[args.command](args)
    except TreeAlgebraError as e:
        print(f'code={e.code} msg="{e}"', file=sys.stderr)
        return 2
    except OSError as e:
        print(f'code=IO msg="{e}"', file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()

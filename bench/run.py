"""Benchmark for treealgebra: three workloads, end to end and per layer.

    python3 bench/run.py --workload uniform-forest --seed 1 --seconds 30 --trace 0

Generates the workload's inputs for the seed (``bench/gen.py``), imports the
library from ``src/`` of this checkout, and repeats whole passes of the
workload's operations for ``--seconds`` seconds. Every operation goes through
the public library API (``tree_distance``) or the CLI (``run_cli`` called in
this process); each is timed on its own, and the metrics are medians and
percentiles of those times. Later passes must reproduce the outputs of the
first exactly; once the last pass has ended and the peak memory has been
read, the first outputs are checked against the computations in
``bench/reference.py``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 1`` the run first makes untraced passes for a third of the
time, then wraps the library's functions (``bench/tracer.py``) and reports
per-layer counts and self times per traced pass, plus each end-to-end
metric traced over untraced (``overhead.*``).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io as _io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import gen  # noqa: E402  (bench/ is on sys.path as the script's directory)
import reference as ref  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_REPS = 5
P90_MIN_SAMPLES = 100  # a 90th percentile with ten samples beyond it
# Times are scaled to a machine that runs the calibration loop in CAL_REF_S,
# by the calibrations made within CAL_WINDOW_S of each timed operation.
CAL_REF_S = 0.002
CAL_EVERY_S = 0.1
CAL_WINDOW_S = 1.0
MDS_DIMS = 3
TRIPLES = 2000

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pair_ms_p50", "ms"),
    ("pair_ms_p90", "ms"),
    ("pipeline_s", "s"),
    ("forest_dist_s", "s"),
    ("combine_s", "s"),
    ("validate_s", "s"),
)


class OpError(Exception):
    """An operation that did not complete (nonzero CLI exit code)."""


class LibraryMissing(Exception):
    pass


# ---------------------------------------------------------------------------
# Timing on a shared machine
#
# On a host shared with other machines' work the speed of the same code drifts
# by 20% and more over seconds. A fixed loop of pure-Python arithmetic slows
# with the program (its time correlates 0.96 with pair latencies), so a timer
# runs it every CAL_EVERY_S throughout the run, and each operation's time,
# less the calibrations inside it, is scaled by the calibrations made around
# it. The loop touches only a few cache lines, so the program's own memory
# traffic cannot change its time and with it the scaled results.

_CAL_TABLE = {k: k * 31 % 97 for k in range(64)}


def calibration_seconds() -> float:
    """Wall time of a fixed loop that allocates nothing (garbage collection
    off, so the program's heap cannot slow it)."""
    table = _CAL_TABLE
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    acc = 0
    for i in range(12_000):
        acc = (acc + table[i & 63] * i) % 1_000_003
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class Clock:
    """Calibrations made on a timer signal, and times scaled by them."""

    def __init__(self):
        self.starts: list[float] = []
        self.took: list[float] = []

    def __enter__(self) -> "Clock":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, _signum, _frame) -> None:
        start = perf_counter()
        self.took.append(calibration_seconds())
        self.starts.append(start)

    def scaled(self, start: float, end: float) -> float:
        """``end - start``, less the calibrations inside it, at the reference
        speed judged by the median calibration within CAL_WINDOW_S of it."""
        starts, took = self.starts[:], self.took[:len(self.starts)]
        lo = bisect.bisect_left(starts, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(starts, end + CAL_WINDOW_S)
        local = took[lo:hi] or took or [CAL_REF_S]
        busy = end - start
        for i in range(bisect.bisect_left(starts, start - CAL_EVERY_S),
                       bisect.bisect_right(starts, end)):
            busy -= max(0.0, min(end, starts[i] + took[i]) - max(start, starts[i]))
        return busy * CAL_REF_S / statistics.median(local)


# ---------------------------------------------------------------------------
# Library import (the set-up that setup_s times)


class Lib:
    """The library modules of one import."""

    def __init__(self):
        self.ta = sys.modules["treealgebra"]
        self.cli = sys.modules["treealgebra.cli"]
        self.io = sys.modules["treealgebra.io"]
        self.measures = sys.modules["treealgebra.measures"]
        self.errors = sys.modules["treealgebra.errors"]


def import_library() -> Lib:
    """Import treealgebra afresh from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "treealgebra" or n.startswith("treealgebra.")]:
        del sys.modules[name]
    try:
        import treealgebra
        import treealgebra.cli  # noqa: F401
    except ImportError as e:
        raise LibraryMissing(f"cannot import treealgebra from {SRC}: {e}")
    if Path(treealgebra.__file__).resolve().parent.parent != SRC:
        raise LibraryMissing(f"treealgebra imported from {treealgebra.__file__}, not {SRC}")
    return Lib()


def load_inputs(lib: Lib, inputs: Path) -> dict:
    """Load and validate every input file of the workload."""
    forests = {p.name: lib.io.load_forest(str(p)) for p in sorted(inputs.glob("*.json"))}
    loaded = {"forests": forests}
    points = inputs / "points.csv"
    if points.exists():
        schema = next(iter(forests.values())).schema
        loaded["points"] = lib.io.read_points_csv(str(points), schema)
    return loaded


def setup(inputs: Path) -> tuple[list, Lib, dict]:
    """SETUP_REPS fresh imports, each loading and validating the inputs:
    returns their (start, loading start, end) times and the last import."""
    spans = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        lib = import_library()
        mid = perf_counter()
        loaded = load_inputs(lib, inputs)
        end = perf_counter()
        spans.append((start, mid, end))
    gc.collect()
    return spans, lib, loaded


def setup_seconds(clock: Clock, spans) -> tuple[float, float]:
    """Median scaled time of a set-up, and of its loading alone."""
    return (statistics.median(clock.scaled(a, c) for a, _b, c in spans),
            statistics.median(clock.scaled(b, c) for _a, b, c in spans))


# ---------------------------------------------------------------------------
# Operations


class PairOp:
    """One library ``tree_distance`` call (what ``treealgebra dist`` runs)."""

    metric = "pair_ms"

    def __init__(self, a, b, measure, expect):
        self.a, self.b, self.measure, self.expect = a, b, measure, expect
        self.budget = None

    def run(self, lib):
        self.budget = lib.ta.CombineBudget()
        return lib.measures.tree_distance(self.a, self.b, self.measure, self.budget)

    def fingerprint(self, out):
        return out

    def check(self, out):
        return self.expect(out)


class CliOp:
    """One or more CLI requests run back to back and timed as one."""

    def __init__(self, metric, argvs, outputs, expect):
        self.metric, self.argvs, self.outputs, self.expect = metric, argvs, outputs, expect

    def run(self, lib):
        stdouts = []
        for argv in self.argvs:
            out, err = _io.StringIO(), _io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = lib.cli.run_cli(argv)
            if rc != 0:
                raise OpError(f"{' '.join(argv[:1])} exited {rc}: {err.getvalue().strip()}")
            stdouts.append(out.getvalue())
        return stdouts

    def fingerprint(self, out):
        digests = []
        for path in self.outputs:
            with open(path, "rb") as handle:  # read in chunks: no memory peak
                digests.append(hashlib.file_digest(handle, "sha256").hexdigest())
        return tuple(out), tuple(digests)

    def check(self, out):
        return self.expect(out)


# ---------------------------------------------------------------------------
# Workloads


class Context:
    """Paths, loaded library objects and parsed input documents of one run."""

    def __init__(self, inputs: Path, work: Path, lib: Lib, loaded: dict, seed: int):
        self.inputs, self.work, self.lib = inputs, work, lib
        self.forests = loaded["forests"]
        self.points = loaded.get("points")
        self.rng = np.random.default_rng([seed, 7])
        self._docs = {}

    def doc(self, name):
        if name not in self._docs:
            self._docs[name] = ref.read_json(self.inputs / name)
        return self._docs[name]

    def schema(self, name):
        return self.doc(name)["schema"]

    def src(self, name) -> str:
        return str(self.inputs / name)

    def out(self, name) -> str:
        return str(self.work / name)


class Uniform:
    """Reference values under the uniform measure, from leaf boxes."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.measure = ctx.lib.ta.UniformBox()
        self.cli_args = []
        self._boxes = {}

    def boxes(self, name):
        if name not in self._boxes:
            schema = self.ctx.schema(name)
            self._boxes[name] = [ref.Boxes(schema, b) for b in ref.trees_of(self.ctx.doc(name))]
        return self._boxes[name]

    def pair(self, name, i, j):
        a, b = self.boxes(name)[i], self.boxes(name)[j]
        return (ref.uniform_sq_distance(a, b),
                max(ref.leaf_scale(a.values), ref.leaf_scale(b.values)))

    def forest_terms(self, f_name, g_name):
        return ref.uniform_forest_terms(self.boxes(f_name), self.boxes(g_name))


class EmpiricalRef:
    """Reference values under the empirical measure, from point evaluation."""

    def __init__(self, ctx):
        self.ctx = ctx
        n = len(ctx.points)
        self.measure = ctx.lib.ta.Empirical(ctx.points, np.full(n, 1.0 / n))
        self.cli_args = ["--measure", "empirical", "--data", ctx.src("points.csv")]
        self.w = np.full(n, 1.0 / n)
        self._X = None
        self._values = {}

    def values(self, name):
        if self._X is None:
            self._X = ref.read_points(self.ctx.src("points.csv"), self.ctx.schema(name))
        if name not in self._values:
            schema = self.ctx.schema(name)
            self._values[name] = [ref.PointTree(schema, b).leaf_values(self._X)
                                  for b in ref.trees_of(self.ctx.doc(name))]
        return self._values[name]

    def pair(self, name, i, j):
        fa, fb = self.values(name)[i], self.values(name)[j]
        return ref.empirical_sq_distance(fa, fb, self.w), max(ref.leaf_scale(fa), ref.leaf_scale(fb))

    def forest_terms(self, f_name, g_name):
        return ref.empirical_forest_terms(self.values(f_name), self.values(g_name), self.w)


def pair_ops(ctx, meas, name, n_pairs):
    trees = ctx.forests[name].trees
    ops = []
    for k in range(n_pairs):
        i, j = 2 * k, 2 * k + 1

        def expect(got, i=i, j=j, k=k):
            ref_sq, scale = meas.pair(name, i, j)
            return ref.check_sq_distance(got, ref_sq, scale, f"{name} pair {k}")

        ops.append(PairOp(trees[i], trees[j], meas.measure, expect))
    return ops


def self_distance_problems(ctx, meas, name, count=3):
    """d(T, T) must be exactly zero."""
    problems = []
    for t in ctx.forests[name].trees[:count]:
        d = ctx.lib.measures.tree_distance(t, t, meas.measure)
        if d != 0.0:
            problems.append(f"{name}: d(T, T) = {d!r}")
    return problems


def pipeline_op(ctx, meas, forests):
    """``dist-matrix`` and then ``mds --dims 3`` on its output, for each
    ``(forest file, tag)`` in turn, timed as one operation."""
    argvs, checks = [], []
    for name, tag in forests:
        d_path, c_path = ctx.out(f"{tag}.D.csv"), ctx.out(f"{tag}.coords.csv")
        argvs += [["dist-matrix", "--forest", ctx.src(name), "--out", d_path] + meas.cli_args,
                  ["mds", "--matrix", d_path, "--dims", str(MDS_DIMS), "--out", c_path]]
        checks.append((name, tag, d_path, c_path))

    def expect_one(stdouts, name, tag, d_path, c_path):
        n = len(ctx.forests[name].trees)
        problems = []
        if stdouts[0] != f"{n}x{n} matrix -> {d_path}\n":
            problems.append(f"{tag}: dist-matrix printed {stdouts[0]!r}")
        D = ref.read_csv_matrix(d_path)
        if D.shape != (n, n):
            return problems + [f"{tag}: matrix shape {D.shape}"]
        R, S = np.zeros((n, n)), np.ones((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                R[i, j], S[i, j] = meas.pair(name, i, j)
        problems += ref.check_distance_matrix(D, R, S, tag)
        problems += ref.check_matrix_properties(D, ctx.rng, TRIPLES, tag)
        if not stdouts[1].startswith("stress="):
            return problems + [f"{tag}: mds printed {stdouts[1]!r}"]
        problems += ref.check_mds(D, ref.read_csv_matrix(c_path),
                                  float(stdouts[1].strip().split("=", 1)[1]), MDS_DIMS, tag)
        problems += self_distance_problems(ctx, meas, name)
        return problems

    def expect(stdouts):
        problems = []
        for k, check in enumerate(checks):
            problems += expect_one(stdouts[2 * k: 2 * k + 2], *check)
        return problems

    outputs = [path for _n, _t, d, c in checks for path in (d, c)]
    return CliOp("pipeline_s", argvs, outputs, expect)


def forest_dist_op(ctx, meas, f_name, g_name):
    argv = ["forest-dist", "--f", ctx.src(f_name), "--g", ctx.src(g_name)] + meas.cli_args

    def expect(stdouts):
        lib = ctx.lib
        value = lib.measures.forest_distance(ctx.forests[f_name].trees,
                                             ctx.forests[g_name].trees, meas.measure)
        ref_sq, cancel = meas.forest_terms(f_name, g_name)
        return (ref.check_printed(stdouts[0].strip(), value, "forest-dist")
                + ref.check_forest_distance(value, ref_sq, cancel, "forest-dist"))

    return CliOp("forest_dist_s", [argv], [], expect)


def combine_ops(ctx, cmd, stem, weighted):
    """A combine/affine request and a validate request on what it wrote."""
    name = f"{stem}.json"
    out = ctx.out(f"{stem}.out.json")
    argv = [cmd, "--forest", ctx.src(name), "--out", out]
    if weighted:
        argv += ["--weights", ctx.src(f"{stem}_w.csv")]

    def expect(stdouts):
        sources = ref.trees_of(ctx.doc(name))
        schema = ctx.schema(name)
        weights = ref.read_weights(ctx.src(f"{stem}_w.csv")) if weighted else None
        leaves = [sum(1 for n in body["nodes"] if "value" in n) for body in sources]
        nodes = ref.expected_nodes(leaves)
        problems = []
        if stdouts[0] != f"{nodes} nodes, {(nodes + 1) // 2} leaves -> {out}\n":
            problems.append(f"{stem}: {cmd} printed {stdouts[0]!r}")
        X = ref.threshold_points(schema, sources, ctx.rng, 300)
        problems += ref.check_combined(ref.read_json(out), sources, schema, weights, X,
                                       nodes, stem)
        with open(out) as handle:
            text = handle.read()
        tree = ctx.lib.io.load_forest(out).trees[0]
        if ctx.lib.io.tree_to_json(tree) != text:
            problems.append(f"{stem}: saving the reloaded tree changes the file")
        return problems

    def expect_ok(stdouts):
        return [] if stdouts == ["ok\n"] else [f"{stem}: validate printed {stdouts!r}"]

    return (CliOp("combine_s", [argv], [out], expect),
            CliOp("validate_s", [["validate", out]], [], expect_ok))


def interleave(ops, units):
    """Spread ``units`` (short lists of operations) evenly among ``ops``, so
    that the short operations are timed throughout a pass rather than in one
    burst that catches the machine at one moment."""
    out = list(ops)
    for k in reversed(range(len(units))):
        at = round((k + 1) * len(ops) / (len(units) + 1))
        out[at:at] = units[k]
    return out


def uniform_forest(ctx):
    meas = Uniform(ctx)
    forest_dist = [forest_dist_op(ctx, meas, "fd_f.json", "fd_g.json")]
    affine = list(combine_ops(ctx, "affine", "comb", True))
    ops = interleave(pair_ops(ctx, meas, "pairs.json", gen.UNIFORM_PAIRS),
                     [forest_dist, affine, affine] * 5)
    return ops + [pipeline_op(ctx, meas, [("forest.json", "forest")])]


def empirical_sample(ctx):
    meas = EmpiricalRef(ctx)
    axis = pair_ops(ctx, meas, "axis_pairs.json", gen.EMPIRICAL_AXIS_PAIRS)
    oblique = pair_ops(ctx, meas, "obl_pairs.json", gen.EMPIRICAL_OBLIQUE_PAIRS)
    forest_dist = [forest_dist_op(ctx, meas, "fd_f.json", "fd_g.json")]
    affine = list(combine_ops(ctx, "affine", "comb", True))
    ops = interleave(interleave(axis, [[op] for op in oblique]),
                     [forest_dist, affine, affine, affine] * 2)
    return ops + [pipeline_op(ctx, meas, [("axis_forest.json", "axis"),
                                          ("obl_forest.json", "obl")])]


def combine_write(ctx):
    meas = Uniform(ctx)
    requests = [list(combine_ops(ctx, cmd, stem, weighted))
                for stem, cmd, _leaves, weighted in gen.COMBINE_REQUESTS]
    pipeline = [pipeline_op(ctx, meas, [("forest.json", "forest")])]
    forest_dist = [forest_dist_op(ctx, meas, "fd_f.json", "fd_g.json")]
    small = interleave(pair_ops(ctx, meas, "pairs.json", gen.COMBINE_SMALL_PAIRS),
                       [pipeline, forest_dist, forest_dist] * 5)
    return interleave(small, requests)


WORKLOADS = {
    "uniform-forest": uniform_forest,
    "empirical-sample": empirical_sample,
    "combine-write": combine_write,
}


# ---------------------------------------------------------------------------
# Measuring


class Tally:
    """Timed operations, operation counts and problems collected over passes."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.timed: list[tuple[object, tuple[float, float]]] = []  # (op, (start, end))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []    # operations that raised
        self.problems: list[str] = []  # outputs that disagree with the reference
        self.passes = 0
        self.seconds = 0.0

    @property
    def correct(self) -> bool:
        return not self.problems and not self.errors

    def samples(self, metric: str) -> list[float]:
        scale = 1e3 if metric == "pair_ms" else 1.0
        return [self.clock.scaled(a, b) * scale for op, (a, b) in self.timed
                if op.metric == metric]

    def settle(self, outputs: "Outputs") -> None:
        """Count the runs of operations whose output failed its check as
        failed, and drop their times."""
        kept = [(op, span) for op, span in self.timed if id(op) not in outputs.wrong]
        self.failed += len(self.timed) - len(kept)
        self.timed = kept


class Outputs:
    """The first output of every operation. Later runs must reproduce it;
    it is checked against the reference once, after measuring, so that the
    reference computations add nothing to the measured peak memory."""

    def __init__(self):
        self.first: dict[int, tuple[object, object, object]] = {}  # id(op) -> (op, out, fp)
        self.wrong: set[int] = set()

    def matches(self, op, out) -> bool:
        fp = op.fingerprint(out)
        if id(op) not in self.first:
            self.first[id(op)] = (op, out, fp)
        return self.first[id(op)][2] == fp

    def check(self) -> list[str]:
        """Check every first output; outputs of a CLI request are read back
        from its files, which every later run reproduced byte for byte."""
        problems = []
        for key, (op, out, _fp) in self.first.items():
            found = op.check(out)
            if found:
                self.wrong.add(key)
                problems += found
        return problems


class Steps:
    """Overlay steps and combined nodes of the traced ``tree_distance`` calls."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.calls_made = 0
        self.out_nodes = 0


def run_pass(ops, lib, tally: Tally, outputs: Outputs, steps: Steps | None = None) -> None:
    """Run every operation once, timing each; each output must equal the
    operation's first."""
    results = []
    gc.collect()
    pass_start = perf_counter()
    for op in ops:
        nodes_before = steps.tracer.counters["combine.combine_pair.out_nodes"] if steps else 0
        start = perf_counter()
        try:
            out, error = op.run(lib), None
        except (lib.errors.TreeAlgebraError, OpError) as e:
            out, error = None, e
        end = perf_counter()
        if steps is not None and isinstance(op, PairOp) and error is None:
            steps.calls_made += op.budget.calls_made
            steps.out_nodes += (steps.tracer.counters["combine.combine_pair.out_nodes"]
                                - nodes_before)
        results.append((op, (start, end), out, error))
    tally.seconds += perf_counter() - pass_start
    tally.passes += 1
    for op, span, out, error in results:
        tally.attempted += 1
        if error is not None:
            tally.failed += 1
            tally.errors.append(f"{op.metric}: {error}")
        elif not outputs.matches(op, out):
            tally.failed += 1
            tally.problems.append(f"{op.metric}: output differs from the first pass")
        else:
            tally.timed.append((op, span))


def min_passes(ops) -> int:
    """Enough passes for a 90th percentile of pair latencies and a median of
    at least two pipeline times."""
    pairs = sum(isinstance(op, PairOp) for op in ops)
    return max(2, math.ceil(P90_MIN_SAMPLES / pairs))


def measure(ops, lib, tally, outputs, seconds, passes, steps=None):
    """At least ``passes`` whole passes, then more while they end nearer to
    ``seconds`` of passes than stopping would."""
    while tally.passes < passes or tally.seconds * (1.0 + 0.5 / tally.passes) < seconds:
        run_pass(ops, lib, tally, outputs, steps)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(tally: Tally, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics that have samples; a metric whose operations
    all failed is left out (the run is then not correct)."""
    out = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    pairs = tally.samples("pair_ms")
    if pairs:
        out["pair_ms_p50"] = statistics.median(pairs)
    if len(pairs) >= 2:
        out["pair_ms_p90"] = statistics.quantiles(pairs, n=10, method="inclusive")[-1]
    for metric in ("pipeline_s", "forest_dist_s", "combine_s", "validate_s"):
        samples = tally.samples(metric)
        if samples:
            out[metric] = statistics.median(samples)
    return out


def per_layer(counts, passes, steps: Steps, overhead) -> dict:
    """Per traced pass: calls and self time of every traced function, the
    extra counts, and each end-to-end metric traced over untraced."""
    out = {}
    for layer, qual in tracing.TRACED:
        name = f"{layer}.{qual}"
        out[f"{name}.calls"] = (counts.calls[name] / passes, "count")
        out[f"{name}.self_ms"] = (counts.self_ns[name] / 1e6 / passes, "ms")
    c = counts.counters
    refines = counts.calls["trees.Region.try_refine"]
    measures_ = counts.calls["geometry.region_measure"]
    out["io.save_tree.bytes"] = (c["io.save_tree.bytes"] / passes, "bytes")
    out["trees.Region.try_refine.empty_share"] = (
        c["trees.Region.try_refine.empty"] / refines if refines else 0.0, "ratio")
    out["trees.Region.contains_batch.rows"] = (c["trees.Region.contains_batch.rows"] / passes,
                                               "count")
    out["geometry.region_measure.zero_share"] = (
        c["geometry.region_measure.zero"] / measures_ if measures_ else 0.0, "ratio")
    out["combine.combine_pair.out_nodes"] = (c["combine.combine_pair.out_nodes"] / passes, "count")
    out["combine.CombineBudget.calls_made"] = (steps.calls_made / passes, "count")
    out["combine.combine_pair.nodes_per_step"] = (
        steps.out_nodes / steps.calls_made if steps.calls_made else 0.0, "ratio")
    for name, _unit in END_TO_END:
        if name in overhead:
            out[f"overhead.{name}"] = (overhead[name], "ratio")
    return out


def measure_traced(ops, lib, tally: Tally, seconds: float, spans, inputs: Path) -> dict:
    """Untraced passes for a third of ``seconds``, for the overhead ratios,
    then traced passes for the rest; checks the outputs and returns the
    per-layer metrics."""
    clock, outputs = tally.clock, Outputs()
    measure(ops, lib, tally, outputs, seconds / 3.0, 1)
    plain_peak = peak_rss_mib()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, steps = Tally(clock), Steps(tracer)
        measure(ops, lib, traced, outputs, seconds - tally.seconds, 1, steps)
        counts = tracer.snapshot()
        loads = []  # traced set-up, for overhead.setup_s only
        for _ in range(SETUP_REPS):
            start = perf_counter()
            load_inputs(lib, inputs)
            loads.append((start, start, perf_counter()))
    finally:
        tracer.uninstall()
    traced_peak = peak_rss_mib()
    tally.problems += outputs.check()
    tally.settle(outputs)
    traced.settle(outputs)
    setup_s, load_s = setup_seconds(clock, spans)
    plain = end_to_end(tally, setup_s, plain_peak)
    traced_setup_s = setup_s - load_s + setup_seconds(clock, loads)[1]
    traced_e2e = end_to_end(traced, traced_setup_s, traced_peak)
    overhead = {k: traced_e2e[k] / plain[k] for k in plain if k in traced_e2e}
    tally.attempted += traced.attempted
    tally.failed += traced.failed
    tally.errors += traced.errors
    tally.problems += traced.problems
    tally.passes += traced.passes
    return per_layer(counts, traced.passes, steps, overhead)


def prepare(workload: str, seed: int, inputs: Path, work: Path):
    """Set up a run: returns (set-up spans, library, ops)."""
    spans, lib, loaded = setup(inputs)
    ctx = Context(inputs, work, lib, loaded, seed)
    return spans, lib, WORKLOADS[workload](ctx)


def generate(workload: str, seed: int, inputs: Path) -> None:
    """Write the workload's inputs with ``gen.py`` in a child process, so
    that generating them adds nothing to this process's peak memory."""
    subprocess.run([sys.executable, str(BENCH / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(inputs)],
                   check=True, stdout=subprocess.DEVNULL)


def run(workload: str, seed: int, seconds: float, traced: bool) -> int:
    inputs = BENCH / "inputs" / f"{workload}-{seed}"
    generate(workload, seed, inputs)
    work = BENCH / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with Clock() as clock:
            try:
                spans, lib, ops = prepare(workload, seed, inputs, work)
            except LibraryMissing as e:
                print(f"error: {e}", file=sys.stderr)
                return 2
            tally = Tally(clock)
            if traced:
                metrics = measure_traced(ops, lib, tally, seconds, spans, inputs)
            else:
                outputs = Outputs()
                measure(ops, lib, tally, outputs, seconds, min_passes(ops))
                peak = peak_rss_mib()
                tally.problems += outputs.check()
                tally.settle(outputs)
                setup_s, _load_s = setup_seconds(clock, spans)
                values = end_to_end(tally, setup_s, peak)
                metrics = {name: (values[name], unit) for name, unit in END_TO_END
                           if name in values}
                for name, _unit in END_TO_END:
                    if name not in values:
                        tally.problems.append(f"{name}: no operation of it succeeded")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in tally.errors[:10]:
        print(f"failed: {error}", file=sys.stderr)
    for problem in tally.problems[:10]:
        print(f"wrong: {problem}", file=sys.stderr)
    print(f"workload={workload} seed={seed} passes={tally.passes} "
          f"attempted={tally.attempted} failed={tally.failed} correct={tally.correct}")
    print(f"calibration: median {statistics.median(clock.took) * 1e3:.4g} ms over "
          f"{len(clock.took)}, reference {CAL_REF_S * 1e3:.4g} ms (times below are scaled "
          f"by the calibrations around each operation)")
    if not traced:
        for name, (value, unit) in metrics.items():
            key = "pair_ms" if name.startswith("pair_ms") else name
            count = sum(op.metric == key for op, _span in tally.timed)
            n = f" (n={count})" if count else ""
            print(f"{name} = {value:.6g} {unit}{n}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if tally.correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="treealgebra benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

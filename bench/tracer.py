"""Per-layer tracing from outside the library.

``Tracer.install`` replaces the traced functions of ``treealgebra`` with
timing wrappers: module attributes (including the names other modules
imported, such as ``measures.combine_pair``) and class methods (such as
``Region.try_refine``). No library source changes. A function's self time
is its wall time minus the time spent inside other wrapped functions.
"""

from __future__ import annotations

import importlib
import os
import sys
from time import perf_counter_ns

# (layer module, function or Class.method) in layer order
TRACED = (
    ("cli", "run_cli"),
    ("io", "load_forest"),
    ("io", "save_tree"),
    ("io", "read_points_csv"),
    ("io", "read_matrix_csv"),
    ("io", "write_matrix_csv"),
    ("trees", "Region.try_refine"),
    ("trees", "Region.contains_batch"),
    ("trees", "TreeBuilder.split_node"),
    ("trees", "TreeBuilder.build"),
    ("trees", "validate"),
    ("trees", "route_batch"),
    ("trees", "evaluate_batch"),
    ("geometry", "region_measure"),
    ("geometry", "split_partitions_region"),
    ("geometry", "same_partition_in_region"),
    ("geometry", "hyperplane_intersects_polyhedron"),
    ("simplex", "feasible"),
    ("simplex", "solve_max"),
    ("combine", "combine_pair"),
    ("combine", "combine_many"),
    ("combine", "affine_combination"),
    ("combine", "simplify"),
    ("measures", "tree_distance"),
    ("measures", "tree_inner_product"),
    ("measures", "distance_matrix"),
    ("measures", "forest_distance"),
    ("mds", "classical_mds"),
    ("mds", "jacobi_eigh"),
    ("mds", "mds_stress"),
)

# extra counters, each kept by the wrapper of one function
COUNTERS = (
    "io.save_tree.bytes",
    "trees.Region.try_refine.empty",
    "trees.Region.contains_batch.rows",
    "geometry.region_measure.zero",
    "combine.combine_pair.out_nodes",
)
_EXTRA = {name.rsplit(".", 1)[0] for name in COUNTERS}


def _count_extra(name, counters, args, result):
    if name == "io.save_tree":
        counters["io.save_tree.bytes"] += os.path.getsize(args[1])
    elif name == "trees.Region.try_refine":
        counters["trees.Region.try_refine.empty"] += result is None
    elif name == "trees.Region.contains_batch":
        counters["trees.Region.contains_batch.rows"] += len(args[1])
    elif name == "geometry.region_measure":
        counters["geometry.region_measure.zero"] += result == 0.0
    elif name == "combine.combine_pair":
        counters["combine.combine_pair.out_nodes"] += result.n_nodes



class Tracer:
    """Call counts, self times and extra counters of the traced functions."""

    def __init__(self):
        self.calls = {f"{m}.{f}": 0 for m, f in TRACED}
        self.self_ns = {f"{m}.{f}": 0 for m, f in TRACED}
        self.counters = {k: 0 for k in COUNTERS}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        calls, self_ns, counters, stack = self.calls, self.self_ns, self.counters, self._stack
        extra = name in _EXTRA

        def traced(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                children = stack.pop()
                calls[name] += 1
                self_ns[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if extra:
                _count_extra(name, counters, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever the library holds a reference.

        A function the library no longer has keeps zero counts, so the
        benchmark still runs after a change removes it.
        """
        layers = {layer: importlib.import_module(f"treealgebra.{layer}") for layer, _ in TRACED}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "treealgebra" or n.startswith("treealgebra.")]
        for layer, qual in TRACED:
            module = layers[layer]
            name = f"{layer}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name, None)
                if cls is not None and meth in cls.__dict__:
                    self._set(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            original = getattr(module, qual, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def snapshot(self) -> "Tracer":
        """A copy of the counts so far, unaffected by later calls."""
        copy = Tracer()
        copy.calls, copy.self_ns, copy.counters = (dict(self.calls), dict(self.self_ns),
                                                   dict(self.counters))
        return copy

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr) if not isinstance(owner, type)
                              else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

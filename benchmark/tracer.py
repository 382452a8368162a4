"""Span tracing of wcr's public entry points, from outside the program.

The tracer replaces each entry point listed in ``ENTRY_POINTS`` with a
wrapper in every ``wcr`` namespace that holds the same function object
(``from .core import is_blocking`` makes a second reference), and puts
the originals back when the ``installed`` block ends.  Spans are kept in
memory as ``[name, start_ns, end_ns, parent, op]`` lists; work counts are
read from arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute); "core.validate" is Configuration.__post_init__.
ENTRY_POINTS = (
    ("cli", "main"),
    ("serialize", "read_instance"), ("serialize", "read_solution"),
    ("serialize", "read_formula"), ("serialize", "read_meta"),
    ("serialize", "write_instance"), ("serialize", "write_solution"),
    ("serialize", "write_meta"),
    ("core", "validate"), ("core", "is_blocking"),
    ("core", "solution_costs"),
    ("minnum", "solve_minnum"), ("minnum", "classify"),
    ("minnum", "build_free_graph"), ("minnum", "max_free_set"),
    ("matching", "minimum_edge_cover"),
    ("minsum", "solve_minsum_manhattan"), ("minsum", "solve_minsum_1d"),
    ("minsum", "candidate_targets"),
    ("minmax", "solve_minmax"), ("minmax", "decide_vh"),
    ("minmax", "move_domain"), ("minmax", "verify_vh"),
    ("reductions", "gen_vh"), ("reductions", "extract_vh"),
)
MODULES = ("cli", "serialize", "core", "minnum", "matching", "minsum",
           "minmax", "reductions")

# Work counts read at the boundaries, reported per op.
COUNTS = ("serialize.bytes_in", "serialize.bytes_out", "matching.vertices",
          "matching.edges", "minsum.grid_points", "minsum.dp_cells",
          "minmax.search_limits", "minmax.domain_points")
# Entry points whose arguments or results feed a count.
_COUNTED = frozenset({
    "serialize.read_instance", "serialize.read_solution",
    "serialize.read_formula", "serialize.read_meta",
    "serialize.write_instance", "serialize.write_solution",
    "serialize.write_meta", "matching.minimum_edge_cover",
    "minsum.candidate_targets", "minmax.move_domain", "minmax.decide_vh"})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def _count(self, name: str, args, result) -> None:
        c = self.counts
        module, func = name.split(".")
        if module == "serialize":
            if func.startswith("read_"):
                c["serialize.bytes_in"] += len(args[0])
            else:
                c["serialize.bytes_out"] += len(result)
        elif name == "matching.minimum_edge_cover":
            c["matching.vertices"] += args[0].vertex_count
            c["matching.edges"] += len(args[0].edges)
        elif name == "minsum.candidate_targets":
            c["minsum.grid_points"] += len(result)
            parent = self._stack[-1] if self._stack else -1
            if parent >= 0 and self.spans[parent][0] == "minsum.solve_minsum_1d":
                # computed as n * |C|, not counted inside the DP
                c["minsum.dp_cells"] += len(args[0].points) * len(result)
        elif name == "minmax.move_domain":
            c["minmax.domain_points"] += len(result)
        elif name == "minmax.decide_vh":
            c["minmax.decide_calls"] += 1
            c["minmax.decide_feasible"] += bool(result[0])

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counted = name in _COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name == "minmax.decide_vh":
                    self.counts["minmax.decide_calls"] += 1
                    self.counts["minmax.search_limits"] += \
                        type(exc).__name__ == "SearchLimit"
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if counted:
                self._count(name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace every entry point while the block runs."""
        namespaces = [m for n, m in sys.modules.items()
                      if n == "wcr" or n.startswith("wcr.")]
        config = sys.modules["wcr.core"].Configuration
        undo = []
        try:
            for module, attr in ENTRY_POINTS:
                name = f"{module}.{attr}"
                if name == "core.validate":
                    original = config.__dict__["__post_init__"]
                    config.__post_init__ = self.wrap(name, original)
                    undo.append((config, "__post_init__", original))
                    continue
                original = getattr(sys.modules[f"wcr.{module}"], attr)
                wrapper = self.wrap(name, original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapper)
                            undo.append((ns, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, ops: int, op_ns: int) -> dict:
    """Per-op calls and self time of every entry point, module shares of
    the traced op time, and the per-op work counts."""
    calls: Counter = Counter()
    own: Counter = Counter()
    for span, self_ns in zip(tracer.spans, tracer.self_ns()):
        calls[span[0]] += 1
        own[span[0]] += self_ns
    out = {}
    for module, attr in ENTRY_POINTS:
        name = f"{module}.{attr}"
        out[f"{name}.calls"] = (calls[name] / ops, "1/op")
        if name != "cli.main":  # its self time is cli.self_ms below
            out[f"{name}.self_ms"] = (own[name] / ops / 1e6, "ms/op")
    out["cli.self_ms"] = (own["cli.main"] / ops / 1e6, "ms/op")
    for module in MODULES:
        module_ns = sum(v for k, v in own.items()
                        if k.startswith(module + "."))
        out[f"{module}.share"] = (module_ns / op_ns, "ratio")
    c = tracer.counts
    for name in COUNTS:
        out[name] = (c[name] / ops, "1/op")
    decided = c["minmax.decide_calls"]
    out["minmax.decide_feasible_ratio"] = (
        c["minmax.decide_feasible"] / decided if decided else 0.0, "ratio")
    return out

"""Span tracing around orckit's layer entry points, from outside the package.

Each traced entry point is replaced, in the namespace of every module that
calls it, by a wrapper that records a span (name, start, end, parent, run
id). The wrappers are removed by `Tracer.uninstall`, which puts back the
exact objects it replaced. Spans stay in memory until the run ends.

Self time of a span is its duration minus the durations of its direct child
spans. The program is single-threaded under `--threads 1`, so spans nest
properly and direct children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from time import perf_counter

# (module that calls the function, attribute there, span name "layer.function").
# One function imported into several modules is wrapped at each of them.
SITES = (
    ("orckit.graphs", "bfs_distances", "graphs.bfs_distances"),
    ("orckit.transport", "bfs_distances", "graphs.bfs_distances"),
    ("orckit.curvature", "bfs_distances", "graphs.bfs_distances"),
    ("orckit.diagnostics", "bfs_distances", "graphs.bfs_distances"),
    ("orckit.rewiring", "from_edges", "graphs.from_edges"),
    ("orckit.cli", "parse_edge_list", "graphs.parse_edge_list"),
    ("orckit.curvature", "wasserstein1", "transport.wasserstein1"),
    ("orckit.curvature", "edge_report", "curvature.edge_report"),
    ("orckit.curvature", "bottleneck_sets", "curvature.bottleneck_sets"),
    ("orckit.mpnn", "bottleneck_sets", "curvature.bottleneck_sets"),
    ("orckit.rewiring", "bottleneck_sets", "curvature.bottleneck_sets"),
    ("orckit.cli", "curvature_profile", "curvature.curvature_profile"),
    ("orckit.diagnostics", "curvature_profile", "curvature.curvature_profile"),
    ("orckit.rewiring", "curvature_profile", "curvature.curvature_profile"),
    ("orckit.mpnn", "ricci_curvature", "curvature.ricci_curvature"),
    ("orckit.diagnostics", "ricci_curvature", "curvature.ricci_curvature"),
    ("orckit.mpnn", "walk_counts", "mpnn.walk_counts"),
    ("orckit.diagnostics", "alpha_beta", "mpnn.alpha_beta"),
    ("orckit.mpnn", "forward", "mpnn.forward"),
    ("orckit.diagnostics", "forward", "mpnn.forward"),
    ("orckit.cli", "forward", "mpnn.forward"),
    ("orckit.cli", "run_suite", "diagnostics.run_suite"),
    ("orckit.diagnostics", "verify_one_layer", "diagnostics.verify_one_layer"),
    ("orckit.diagnostics", "verify_jacobian_ratio", "diagnostics.verify_jacobian_ratio"),
    ("orckit.diagnostics", "verify_multilayer", "diagnostics.verify_multilayer"),
    ("orckit.diagnostics", "verify_diameter", "diagnostics.verify_diameter"),
    ("orckit.cli", "rewire_loop", "rewiring.rewire_loop"),
    ("orckit.rewiring", "rewire_step", "rewiring.rewire_step"),
)

ROOT = "cli.main"

# span names whose calls, self time or both are reported as per-layer metrics
CALLS = (
    "graphs.bfs_distances",
    "graphs.from_edges",
    "transport.wasserstein1",
    "curvature.edge_report",
    "curvature.bottleneck_sets",
    "curvature.curvature_profile",
    "curvature.ricci_curvature",
    "mpnn.walk_counts",
    "mpnn.alpha_beta",
    "mpnn.forward",
    "rewiring.rewire_step",
)
SELF = (
    "graphs.bfs_distances",
    "graphs.from_edges",
    "graphs.parse_edge_list",
    "transport.wasserstein1",
    "curvature.edge_report",
    "curvature.bottleneck_sets",
    "mpnn.walk_counts",
    "mpnn.alpha_beta",
    "mpnn.forward",
    "diagnostics.run_suite",
    "diagnostics.verify_one_layer",
    "diagnostics.verify_jacobian_ratio",
    "diagnostics.verify_multilayer",
    "diagnostics.verify_diameter",
    "rewiring.rewire_loop",
    "rewiring.rewire_step",
)


class Tracer:
    """Records spans while installed. Not thread-safe by design: the
    benchmark runs every command with `--threads 1`."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.edges_profiled = 0
        self._walk_graphs: dict[int, object] = {}
        self.run_id = 0

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run_id)
            if name == "curvature.curvature_profile":
                self.edges_profiled += len(result.reports)
            elif name == "mpnn.walk_counts":
                # keep the graph alive so its id is never reused in this run
                self._walk_graphs[id(args[0])] = args[0]
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                # a later refactor removed this import; its calls read as 0
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))
        if self.missing:
            print(f"perfbench: entry points not found: {self.missing}", file=sys.stderr)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def command(self, fn, *args):
        """Call fn as the root span of one request (one CLI command)."""
        return self._wrap(ROOT, fn)(*args)

    def metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and ratios over all recorded spans."""
        spans = self.spans
        if None in spans:
            raise RuntimeError("metrics read while a span is still open")
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        edge_us: list[float] = []
        bfs_in_solve = 0
        for idx, (name, t0, t1, parent, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[idx]
            if name == "curvature.edge_report":
                edge_us.append((t1 - t0) * 1e6)
            elif name == "graphs.bfs_distances" and parent >= 0:
                if spans[parent][0] == "transport.wasserstein1":
                    bfs_in_solve += 1

        out: dict[str, float] = {}
        for name in CALLS:
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in SELF:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["cli.self_s"] = self_s.get(ROOT, 0.0)
        solves = calls.get("transport.wasserstein1", 0)
        out["curvature.edges_profiled"] = self.edges_profiled
        out["transport.solves_per_edge"] = _ratio(solves, self.edges_profiled)
        out["transport.bfs_per_solve"] = _ratio(bfs_in_solve, solves)
        out["mpnn.walk_counts.calls_per_graph"] = _ratio(
            calls.get("mpnn.walk_counts", 0), len(self._walk_graphs)
        )
        if len(edge_us) >= 2:
            q = statistics.quantiles(edge_us, n=100, method="inclusive")
            out["curvature.edge_report.p50_us"] = statistics.median(edge_us)
            out["curvature.edge_report.p99_us"] = q[98]
        else:
            out["curvature.edge_report.p50_us"] = 0.0
            out["curvature.edge_report.p99_us"] = 0.0
        out["trace.spans"] = len(spans)
        return out

    def write(self, path) -> None:
        """One JSON array per line: [name, start, end, parent, run_id]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

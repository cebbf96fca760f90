"""Command-line surface.

Exit codes: 0 success, 1 a checked inequality was violated, 2 usage or
input error. stdout carries data (when --out is absent); diagnostics go
to stderr. JSON output is key-sorted with a fixed layout, so repeated
runs with the same inputs are byte-identical. verify streams its report
in chunks (`SuiteReport.write_json`) with the same bytes as the one-string
rendering the other commands use. --threads is accepted and reported on
stderr only; it changes neither the work nor the output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .curvature import curvature_profile, profile_to_json_obj
from .diagnostics import run_suite, smoothing_metrics
from .graphs import Graph, GraphError, generate, parse_edge_list, parse_graph_json
from .mpnn import (
    DimensionMismatch,
    SpecError,
    demo_instance,
    forward,
    parse_spec,
    smoothing_demo,
)
from .rewiring import RewireConfig, rewire_loop

# anything a user can cause with bad flags or bad files
_INPUT_ERRORS = (GraphError, SpecError, DimensionMismatch, OSError, ValueError)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_graph(path: str, fmt: str) -> Graph:
    text = Path(path).read_text()
    if fmt == "auto":
        fmt = "json" if path.endswith(".json") else "edgelist"
    return parse_graph_json(text) if fmt == "json" else parse_edge_list(text)


def _graph_text(g: Graph, path: str | None, fmt: str) -> str:
    if fmt == "auto":
        fmt = "json" if path is not None and path.endswith(".json") else "edgelist"
    if fmt == "json":
        return _dump_json(g.to_json_obj())
    return g.to_edge_list_text()


def _resolve_threads(requested: int) -> int:
    if requested < 0:
        raise ValueError("--threads must be >= 0")
    return requested if requested > 0 else (os.cpu_count() or 1)


def _cmd_generate(args) -> int:
    params = {}
    for key in ("n", "k", "m", "a", "b", "p", "seed"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    g = generate(args.family, **params)
    _emit(_graph_text(g, args.out, args.format), args.out)
    return 0


def _cmd_curvature(args) -> int:
    g = _read_graph(args.graph, args.format)
    threads = _resolve_threads(args.threads)
    profile = curvature_profile(g)
    print(f"threads used: {threads}", file=sys.stderr)
    obj = profile_to_json_obj(profile)
    if g.id_map is not None:
        # input used sparse labels; vertex i in this report was label id_map[i]
        obj["vertex_ids"] = list(g.id_map)
    _emit(_dump_json(obj), args.out)
    return 0


def _cmd_verify(args) -> int:
    threads = _resolve_threads(args.threads)
    report = run_suite(
        trials=args.trials,
        seed=args.seed,
        suite=args.suite,
        fail_fast=args.fail_fast,
    )
    print(f"threads used: {threads}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            report.write_json(f.write)
    else:
        report.write_json(sys.stdout.write)
    violations = report.violations
    if violations:
        print(f"{len(violations)} bound violation(s)", file=sys.stderr)
        return 1
    return 0


def _write_layers(trajectory, out_dir: str) -> None:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for k, xk in enumerate(trajectory):
        np.savetxt(directory / f"layer_{k:02d}.csv", xk, delimiter=",")


def _simulate_report(g: Graph, trajectory, demo: bool) -> dict:
    smoothing = smoothing_metrics(g, trajectory)
    series = [[k, e] for k, e in enumerate(smoothing.dirichlet)]
    monotone = all(
        smoothing.dirichlet[k + 1] <= smoothing.dirichlet[k]
        for k in range(len(smoothing.dirichlet) - 1)
    )
    return {
        "graph": g.to_json_obj(),
        "layer_states": len(trajectory),
        "demo": demo,
        "monotone": monotone,
        "series": series,
        "smoothing": smoothing.to_json_obj(g),
    }


def _cmd_simulate(args) -> int:
    if args.demo_smoothing:
        g, x = demo_instance()
        trajectory, _ = smoothing_demo(g, x, args.demo_iterations)
        report = _simulate_report(g, trajectory, demo=True)
    else:
        if args.graph is None or args.features is None or args.spec is None:
            raise ValueError("simulate needs a graph, --features, and --spec (or --demo-smoothing)")
        g = _read_graph(args.graph, args.format)
        x = np.loadtxt(args.features, delimiter=",", ndmin=2)
        spec = parse_spec(Path(args.spec).read_text())
        trajectory = forward(g, x, spec)
        report = _simulate_report(g, trajectory, demo=False)
    if args.layers_out:
        _write_layers(trajectory, args.layers_out)
    _emit(_dump_json(report), args.out)
    if args.demo_smoothing and not report["monotone"]:
        print("demo energy series is not monotone", file=sys.stderr)
        return 1
    return 0


def _cmd_rewire(args) -> int:
    g = _read_graph(args.graph, args.format)
    cfg = RewireConfig(
        tau_neg=args.tau_neg,
        tau_pos=args.tau_pos,
        max_iterations=args.iterations,
        additions_per_step=args.additions,
        removals_per_step=args.removals,
    )
    rewired, trace = rewire_loop(g, cfg)
    wrote = False
    if args.out_graph:
        _emit(_graph_text(rewired, args.out_graph, "auto"), args.out_graph)
        wrote = True
    if args.out_trace:
        _emit(_dump_json(trace.to_json_obj()), args.out_trace)
        wrote = True
    if not wrote:
        combined = {"graph": rewired.to_json_obj(), "trace": trace.to_json_obj()}
        _emit(_dump_json(combined), None)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orckit",
        description="Exact graph curvature, message-passing diagnostics, and rewiring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a graph from a named family")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("auto", "edgelist", "json"), default="auto")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("curvature", help="exact curvature profile of a graph")
    p.add_argument("graph")
    p.add_argument("--format", choices=("auto", "edgelist", "json"), default="auto")
    p.add_argument("--threads", type=int, default=1, help="0 means auto")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("verify", help="run the bound-check suite over the corpus")
    p.add_argument("--suite", default="all")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--threads", type=int, default=1, help="0 means auto")
    p.add_argument("--fail-fast", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="run message passing and report smoothing")
    p.add_argument("graph", nargs="?")
    p.add_argument("--features", help="CSV, one row per vertex")
    p.add_argument("--spec", help="layer-spec JSON file")
    p.add_argument("--format", choices=("auto", "edgelist", "json"), default="auto")
    p.add_argument("--layers-out", help="directory for per-layer feature CSVs")
    p.add_argument("--demo-smoothing", action="store_true")
    p.add_argument("--demo-iterations", type=int, default=25)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("rewire", help="curvature-guided rewiring")
    p.add_argument("graph")
    p.add_argument("--tau-neg", type=float, default=-0.5)
    p.add_argument("--tau-pos", type=float, default=0.99)
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--additions", type=int, default=1)
    p.add_argument("--removals", type=int, default=1)
    p.add_argument("--format", choices=("auto", "edgelist", "json"), default="auto")
    p.add_argument("--out-graph")
    p.add_argument("--out-trace")
    p.set_defaults(func=_cmd_rewire)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface.

Exit codes: 0 success, 1 a checked inequality was violated, 2 usage or
input error. stdout carries data (when --out is absent); diagnostics go
to stderr. This module only wires: each command hands its result to
`emit`, which renders every report, graph file and layer CSV, so repeated
runs with the same inputs are byte-identical. Input errors come before the
output opens, so they leave no --out file, and a command that fails once
its --out file is open (verify computes checks while it writes them)
deletes it; on stdout a failed run's partial text stays, with a non-zero
exit code. --threads is accepted and reported on stderr only; it changes
neither the work nor the output.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import emit
from .curvature import curvature_profile
from .diagnostics import MAX_TRIALS, smoothing_metrics, suite_checks
from .graphs import Graph, GraphError, generate, parse_edge_list, parse_graph_json
from .mpnn import (
    MAX_DEMO_ITERATIONS,
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


@contextmanager
def _output(out: str | None):
    """The write function of the file out, or of stdout when out is None;
    sys.stdout is looked up here, so a redirected stdout receives the text.
    If the command raises once the file is open, a regular file is deleted;
    a device or pipe, such as /dev/null, is left in place."""
    if not out:
        yield sys.stdout.write
        return
    f = open(out, "w")
    try:
        with f:
            yield f.write
    except BaseException:
        if os.path.isfile(out):
            os.remove(out)
        raise


def _is_json(path: str | None, fmt: str) -> bool:
    """Whether --format selects JSON for path: auto does for a .json path."""
    return fmt == "json" or (fmt == "auto" and path is not None and path.endswith(".json"))


def _read_graph(path: str, fmt: str) -> Graph:
    text = Path(path).read_text()
    return parse_graph_json(text) if _is_json(path, fmt) else parse_edge_list(text)


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
    with _output(args.out) as write:
        emit.write_graph(g, _is_json(args.out, args.format), write)
    return 0


def _cmd_curvature(args) -> int:
    g = _read_graph(args.graph, args.format)
    threads = _resolve_threads(args.threads)
    profile = curvature_profile(g)
    print(f"threads used: {threads}", file=sys.stderr)
    with _output(args.out) as write:
        emit.write_profile(profile, g, write)
    return 0


def _cmd_verify(args) -> int:
    threads = _resolve_threads(args.threads)
    checks = suite_checks(
        trials=args.trials,
        seed=args.seed,
        suite=args.suite,
        fail_fast=args.fail_fast,
    )
    print(f"threads used: {threads}", file=sys.stderr)
    with _output(args.out) as write:
        summary = emit.write_suite(args.suite, args.trials, args.seed, checks, write)
    violations = summary["violations"]
    if violations:
        print(f"{violations} bound violation(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_simulate(args) -> int:
    if args.demo_smoothing:
        g, x = demo_instance()
        trajectory = smoothing_demo(g, x, args.demo_iterations)
    else:
        if args.graph is None or args.features is None or args.spec is None:
            raise ValueError("simulate needs a graph, --features, and --spec (or --demo-smoothing)")
        g = _read_graph(args.graph, args.format)
        x = np.loadtxt(args.features, delimiter=",", ndmin=2)
        spec = parse_spec(Path(args.spec).read_text())
        trajectory = forward(g, x, spec)
    smoothing = smoothing_metrics(g, trajectory)
    if args.layers_out:
        emit.write_layers(trajectory, args.layers_out)
    with _output(args.out) as write:
        emit.write_obj(emit.simulate_obj(g, smoothing, args.demo_smoothing), write)
    if args.demo_smoothing and not smoothing.monotone:
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
    if args.out_graph:
        with _output(args.out_graph) as write:
            emit.write_graph(rewired, _is_json(args.out_graph, "auto"), write)
    if args.out_trace:
        with _output(args.out_trace) as write:
            emit.write_trace(trace, rewired, write)
    if not (args.out_graph or args.out_trace):
        with _output(None) as write:
            emit.write_rewire(rewired, trace, write)
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
    p.add_argument("--trials", type=int, default=200, help=f"at most {MAX_TRIALS}")
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
    p.add_argument(
        "--demo-iterations", type=int, default=25, help=f"at most {MAX_DEMO_ITERATIONS}"
    )
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

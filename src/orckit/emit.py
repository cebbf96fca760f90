"""Every byte the CLI writes: each report, graph file and layer CSV. A JSON
report is json.dumps(obj, sort_keys=True, indent=2) plus a newline, and
echoes a sparse-labelled input's labels as "vertex_ids". The two large
reports, a curvature profile and a suite report, are streamed from fixed
per-item templates with those bytes (their dict shapes are in
`tests/emit_reference.py`), so neither the object tree nor the whole string
is built. write_suite takes any iterable of checks, such as the lazy stream
of `diagnostics.suite_checks`, keeps none once its batch is written, and
writes the summary last from tallies it counted on the way. A suite report
repeats few distinct values, so each write_suite call renders each distinct
one once: the value block of each exact Fraction, keyed by (numerator,
denominator), and the text around a check's values, keyed by (name, reason,
holds, tolerance, the tolerance's sign). Both caches die with the call.
Only `cli` imports this module."""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from fractions import Fraction
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .curvature import CurvatureProfile, EdgeCurvatureReport, frac_str
from .diagnostics import TOLERANCE, BoundCheck, SmoothingReport, suite_summary
from .graphs import Graph
from .rewiring import HISTOGRAM_BINS, RewireTrace

Write = Callable[[str], object]

# items rendered per write call: fewer, larger writes are faster than one
# per item, and a batch stays a few hundred kB
_WRITE_BATCH = 512


def write_obj(obj, write: Write) -> None:
    """Write obj as json.dumps(obj, sort_keys=True, indent=2) + "\n"."""
    write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_profile(profile: CurvatureProfile, g: Graph, write: Write) -> None:
    """Write the profile of g: its edges and summary, rationals as "p/q"
    strings with advisory floats."""
    s = profile.summary()
    summary = {key: s[key] for key in ("edge_count", "negative_count", "positive_count")}
    for key in ("kappa_min", "kappa_max", "kappa_mean"):
        summary[key], summary[f"{key}_float"] = frac_str(s[key]), float(s[key])
    rest = _labelled({"summary": summary}, g)
    _write_list("edges", profile.reports, _edge_json, lambda: rest, write)


def write_suite(
    suite: str, trials: int, seed: int, checks: Iterable[BoundCheck], write: Write
) -> dict:
    """Write the checks as they come, then the run parameters and the
    summary tallies of the checks written; return that summary."""
    outcomes: Counter = Counter()
    render = _check_renderer()

    def counted(c: BoundCheck) -> str:
        outcomes[c.name, c.holds] += 1
        return render(c)

    def rest() -> dict:
        return {
            "suite": suite,
            "trials": trials,
            "seed": seed,
            "norm": "euclidean",
            "tolerance": TOLERANCE,
            "summary": suite_summary(outcomes),
        }

    return _write_list("checks", checks, counted, rest, write)["summary"]


def write_graph(g: Graph, as_json: bool, write: Write) -> None:
    """Write g as a JSON graph or an edge list; either reads back to g."""
    if as_json:
        write_obj(_labelled(g.to_json_obj(), g), write)
    else:
        write(g.to_edge_list_text())


def write_layers(trajectory: Sequence[np.ndarray], directory: str) -> None:
    """Write layer state k as directory/layer_{k:02d}.csv, one row per vertex."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    for k, xk in enumerate(trajectory):
        np.savetxt(Path(directory, f"layer_{k:02d}.csv"), xk, delimiter=",")


def trace_obj(trace: RewireTrace) -> dict:
    """The trace's fields, plus "histogram_bins" and two config keys with
    fixed values: "seed" is 0 because rewiring draws no random numbers, and
    "preserve_connectivity" is true because the Graph type always enforces
    connectivity, so a removal that would disconnect the graph is skipped."""
    obj = dataclasses.asdict(trace)
    obj["config"].update(seed=0, preserve_connectivity=True)
    return {**obj, "histogram_bins": HISTOGRAM_BINS}


def write_trace(trace: RewireTrace, rewired: Graph, write: Write) -> None:
    write_obj(_labelled(trace_obj(trace), rewired), write)


def write_rewire(rewired: Graph, trace: RewireTrace, write: Write) -> None:
    write_obj(_labelled({"graph": rewired.to_json_obj(), "trace": trace_obj(trace)}, rewired), write)


def simulate_obj(g: Graph, smoothing: SmoothingReport, demo: bool) -> dict:
    """g, the smoothing report of its layer states and their energy series."""
    obj = {"graph": g.to_json_obj(), "demo": demo, "monotone": smoothing.monotone}
    obj["layer_states"] = len(smoothing.dirichlet)
    obj["series"] = list(enumerate(smoothing.dirichlet))
    obj["smoothing"] = {"norm": "euclidean", "edges": g.edges, **dataclasses.asdict(smoothing)}
    return _labelled(obj, g)


def _labelled(obj: dict, g: Graph) -> dict:
    """obj, plus "vertex_ids" when g's input used sparse labels: vertex i of
    the report was label id_map[i]."""
    if g.id_map is not None:
        obj["vertex_ids"] = list(g.id_map)
    return obj


def _write_list(
    key: str, items: Iterable, render: Callable, rest: Callable[[], dict], write: Write
) -> dict:
    """Write {key: items, **rest()} with each item rendered by render,
    _WRITE_BATCH items per write, and return rest(). items is read once,
    one item ahead, and a batch's text is dropped once written. key sorts
    before every key of rest, so the list comes first, and rest() is called
    after the last item is rendered; json.dumps renders it, minus its
    opening brace."""
    items = iter(items)
    head = next(items, None)  # no item is None
    write(f'{{\n  "{key}": [' + ("\n" if head is not None else ""))
    while head is not None:
        write(",\n".join(map(render, chain((head,), islice(items, _WRITE_BATCH - 1)))))
        head = next(items, None)
        write(",\n" if head is not None else "\n  ")
    obj = rest()
    write(f"],\n{json.dumps(obj, sort_keys=True, indent=2)[2:]}\n")
    return obj


def _edge_json(r: EdgeCurvatureReport) -> str:
    """One element of the profile's "edges" as json.dumps(sort_keys=True,
    indent=2) renders it: a fixed template whose keys are in sorted order.
    For kappa = p/q in lowest terms, W1 = 1 - kappa is (q - p)/q, also in
    lowest terms, and the float is p / q, as Fraction.__float__ gives it."""
    s = r.sets
    p, q = r.kappa.as_integer_ratio()
    return (
        f'    {{\n      "common_neighbors": {s.n0},'
        f'\n      "kappa": "{p}/{q}",'
        f'\n      "kappa_float": {float.__repr__(p / q)},'
        f'\n      "n0": {s.n0},'
        f'\n      "n1": {s.n1},'
        f'\n      "s_size": {s.s_size},'
        f'\n      "u": {r.edge[0]},'
        f'\n      "v": {r.edge[1]},'
        f'\n      "w1": "{q - p}/{q}"\n    }}'
    )


def _value_block(exact: str, number: float) -> str:
    """A check's lhs, rhs or slack that is not null: its exact "p/q" (or
    null) and its float, by json's float rule: repr, and json's own spelling
    of NaN and +-inf."""
    number_text = float.__repr__(number) if math.isfinite(number) else json.dumps(number)
    return f'{{\n        "exact": {exact},\n        "float": {number_text}\n      }}'


def _check_frame(c: BoundCheck) -> tuple[str, str, str, str]:
    """The text of one element of "checks" that follows its graph, lhs, rhs
    and slack: all of it that depends on neither context, graph nor the
    three values."""
    return (
        f',\n      "holds": {json.dumps(c.holds)},\n      "lhs": ',
        f',\n      "name": {_json_str(c.name)},\n      "reason": {_json_str(c.reason)},\n      "rhs": ',
        f',\n      "skipped": {json.dumps(c.skipped)},\n      "slack": ',
        f',\n      "tolerance": {json.dumps(c.tolerance)}\n    }}',
    )


def _check_renderer() -> Callable[[BoundCheck], str]:
    """A renderer of one element of "checks", as `_edge_json` is one of
    "edges", with its own caches (see the module docstring). Fractions are
    keyed by their integers because Fraction.__hash__ is slow; a frame's key
    holds the tolerance's sign because -0.0 == 0.0. A Fraction's float is
    numerator / denominator, the correctly rounded quotient
    Fraction.__float__ also returns, without its dispatch."""
    blocks: dict[tuple[int, int], str] = {}
    frames: dict[tuple, tuple[str, str, str, str]] = {}

    def value(x: Fraction | float | None) -> str:
        if x is None:
            return "null"
        if type(x) is float or not isinstance(x, Fraction):
            return _value_block("null", float(x))
        key = x.as_integer_ratio()
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = _value_block(f'"{frac_str(x)}"', key[0] / key[1])
        return block

    def render(c: BoundCheck) -> str:
        tolerance = c.tolerance
        key = (c.name, c.reason, c.holds, tolerance, math.copysign(1.0, tolerance))
        frame = frames.get(key)
        if frame is None:
            frame = frames[key] = _check_frame(c)
        holds, name, skipped, end = frame
        return (
            f'    {{\n      "context": {_json_str(c.context)},'
            f'\n      "graph": {_json_str(c.graph)}'
            f"{holds}{value(c.lhs)}{name}{value(c.rhs)}{skipped}{value(c.slack)}{end}"
        )

    return render

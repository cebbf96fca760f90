"""Every byte the CLI writes, as json.dumps(obj, sort_keys=True, indent=2)
plus a newline renders it. The two large reports, a curvature profile and a
suite report, are streamed from fixed per-item templates with those bytes
(their dict shapes are in `tests/emit_reference.py`), so neither the object
tree nor the whole string is built. Only `cli` imports this module."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Sequence

from .curvature import CurvatureProfile, EdgeCurvatureReport, frac_str
from .diagnostics import TOLERANCE, BoundCheck, SuiteReport

Write = Callable[[str], object]

# items rendered per write call: fewer, larger writes are faster than one
# per item, and a batch stays a few hundred kB
_WRITE_BATCH = 512

_JSON_CONST = {True: "true", False: "false", None: "null"}


def write_obj(obj, write: Write) -> None:
    """Write obj as json.dumps(obj, sort_keys=True, indent=2) + "\n"."""
    write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_profile(profile: CurvatureProfile, tail: dict, write: Write) -> None:
    """Write profile's edges and summary, rationals as "p/q" strings with
    advisory floats, plus tail's keys (the CLI's vertex_ids)."""
    s = profile.summary()
    summary = {key: s[key] for key in ("edge_count", "negative_count", "positive_count")}
    for key in ("kappa_min", "kappa_max", "kappa_mean"):
        summary[key], summary[f"{key}_float"] = frac_str(s[key]), float(s[key])
    _write_list("edges", profile.reports, _edge_json, {"summary": summary, **tail}, write)


def write_suite(report: SuiteReport, write: Write) -> None:
    """Write report's checks, run parameters and summary tallies."""
    rest = {
        "suite": report.suite,
        "trials": report.trials,
        "seed": report.seed,
        "norm": "euclidean",
        "tolerance": TOLERANCE,
        "summary": report.summary(),
    }
    _write_list("checks", report.checks, _check_json, rest, write)


def _write_list(key: str, items: Sequence, render: Callable, rest: dict, write: Write) -> None:
    """Write {key: items, **rest} with each item rendered by render,
    _WRITE_BATCH items per write. key sorts before every key of rest, so the
    list comes first; json.dumps renders rest, minus its opening brace."""
    tail = json.dumps(rest, sort_keys=True, indent=2)[2:]
    if not items:
        write(f'{{\n  "{key}": [],\n{tail}\n')
        return
    write(f'{{\n  "{key}": [\n')
    for i in range(0, len(items), _WRITE_BATCH):
        if i:
            write(",\n")
        write(",\n".join(map(render, items[i : i + _WRITE_BATCH])))
    write(f"\n  ],\n{tail}\n")


def _edge_json(r: EdgeCurvatureReport) -> str:
    """One element of the profile's "edges" as json.dumps(sort_keys=True,
    indent=2) renders it: a fixed template whose keys are in sorted order."""
    s = r.sets
    return (
        f'    {{\n      "common_neighbors": {s.n0},'
        f'\n      "kappa": "{frac_str(r.kappa)}",'
        f'\n      "kappa_float": {float.__repr__(r.kappa_float)},'
        f'\n      "n0": {s.n0},'
        f'\n      "n1": {s.n1},'
        f'\n      "s_size": {s.s_size},'
        f'\n      "u": {r.edge[0]},'
        f'\n      "v": {r.edge[1]},'
        f'\n      "w1": "{frac_str(r.w1)}"\n    }}'
    )


def _json_float(x: float) -> str:
    """json's float rule: repr, and json's own spelling of NaN and +-inf."""
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def _value_json(x: Fraction | float | None) -> str:
    """A check's lhs, rhs or slack: null, or its exact "p/q" and float. A
    Fraction's float is numerator / denominator, the correctly rounded
    quotient Fraction.__float__ also returns, without its dispatch."""
    if x is None:
        return "null"
    if isinstance(x, Fraction):
        exact, number = f'"{frac_str(x)}"', x.numerator / x.denominator
    else:
        exact, number = "null", float(x)
    return f'{{\n        "exact": {exact},\n        "float": {_json_float(number)}\n      }}'


def _check_json(c: BoundCheck) -> str:
    """One element of "checks", as `_edge_json` is one of "edges"."""
    return (
        f'    {{\n      "context": {_json_str(c.context)},'
        f'\n      "graph": {_json_str(c.graph)},'
        f'\n      "holds": {_JSON_CONST[c.holds]},'
        f'\n      "lhs": {_value_json(c.lhs)},'
        f'\n      "name": {_json_str(c.name)},'
        f'\n      "reason": {_json_str(c.reason)},'
        f'\n      "rhs": {_value_json(c.rhs)},'
        f'\n      "skipped": {_JSON_CONST[c.skipped]},'
        f'\n      "slack": {_value_json(c.slack)},'
        f'\n      "tolerance": {_json_float(c.tolerance)}\n    }}'
    )

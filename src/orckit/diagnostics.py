"""Machine checks for the smoothing and squashing bounds.

This module is the one place that states each inequality the library
claims; every check re-evaluates one on concrete graphs and features.
Checks whose hypotheses fail on an input are recorded as skipped with a
reason, never as passes. Inequalities that mix exact curvature with
floating-point feature norms carry an additive 1e-9 tolerance on the bound
side; purely structural inequalities are checked in exact rational
arithmetic. Feature gaps use the Euclidean norm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Iterable, Sequence

import numpy as np

from .curvature import (
    CurvatureProfile,
    EdgeCurvatureReport,
    curvature_profile,
    edge_report,
    frac_str,
)
from .graphs import Graph, bfs_distances, corpus as default_corpus, neighborhoods
from .mpnn import AlphaBeta, LayerSpec, MpnnSpec, Update, _alpha_beta, alpha_beta, forward

TOLERANCE = 1e-9

CHECK_NAMES = (
    "shared_neighbor",
    "one_layer_sum",
    "one_layer_mean",
    "multilayer",
    "bottleneck_statement",
    "bottleneck_strong",
    "jacobian_ratio",
    "diameter",
)


class HypothesisNotMet(Exception):
    """The check's precondition fails on this input; nothing is claimed."""


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated inequality, normalized to the orientation lhs <= rhs.

    holds is None when the hypothesis failed (skipped); reason says why.
    Exact checks carry Fractions and tolerance 0; float checks carry the
    declared additive tolerance on the rhs.
    """

    name: str
    graph: str
    context: str
    lhs: Fraction | float | None
    rhs: Fraction | float | None
    holds: bool | None
    slack: Fraction | float | None
    tolerance: float
    reason: str = ""

    @property
    def skipped(self) -> bool:
        return self.holds is None

    @property
    def violated(self) -> bool:
        return self.holds is False

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "graph": self.graph,
            "context": self.context,
            "holds": self.holds,
            "skipped": self.skipped,
            "reason": self.reason,
            "tolerance": self.tolerance,
            "lhs": _value_obj(self.lhs),
            "rhs": _value_obj(self.rhs),
            "slack": _value_obj(self.slack),
        }


def _value_obj(x: Fraction | float | None) -> dict | None:
    if x is None:
        return None
    if isinstance(x, Fraction):
        return {"exact": frac_str(x), "float": float(x)}
    return {"exact": None, "float": float(x)}


def _json_float(x: float) -> str:
    """json's float rule: repr, with NaN and the infinities spelled as
    JavaScript constants."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _value_json(x: Fraction | float | None) -> str:
    """_value_obj(x) as json.dumps(indent=2) renders it at a check's key depth."""
    if x is None:
        return "null"
    exact = f'"{frac_str(x)}"' if isinstance(x, Fraction) else "null"
    return f'{{\n        "exact": {exact},\n        "float": {_json_float(float(x))}\n      }}'


# checks rendered per write call: fewer, larger writes are faster than one
# per check, and a batch stays a few hundred kB
_WRITE_BATCH = 512

_JSON_CONST = {True: "true", False: "false", None: "null"}


def _check_json(c: BoundCheck) -> str:
    """c.to_json_obj() as json.dumps(sort_keys=True, indent=2) renders it as
    an element of the report's "checks" list: a fixed template whose keys
    are in sorted order."""
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


def _exact(name: str, graph: str, context: str, lhs: Fraction, rhs: Fraction) -> BoundCheck:
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    return BoundCheck(name, graph, context, lhs, rhs, lhs <= rhs, rhs - lhs, 0.0)


def _approx(name: str, graph: str, context: str, lhs: float, rhs: float) -> BoundCheck:
    lhs, rhs = float(lhs), float(rhs)
    return BoundCheck(name, graph, context, lhs, rhs, lhs <= rhs + TOLERANCE, rhs - lhs, TOLERANCE)


def _skip(name: str, graph: str, context: str, reason: str) -> BoundCheck:
    return BoundCheck(name, graph, context, None, None, None, None, 0.0, reason)


@dataclass(frozen=True)
class SmoothingReport:
    """Per-layer per-edge feature gaps and their per-layer totals.

    gaps[k][i] is the Euclidean gap across edge i at layer k, edges in
    graph order; dirichlet[k] is the sum of row k.
    """

    gaps: tuple[tuple[float, ...], ...]
    dirichlet: tuple[float, ...]

    def to_json_obj(self, g: Graph) -> dict:
        return {
            "norm": "euclidean",
            "edges": [[u, v] for (u, v) in g.edges],
            "gaps": [list(row) for row in self.gaps],
            "dirichlet": list(self.dirichlet),
        }


def smoothing_metrics(g: Graph, trajectory: Sequence[np.ndarray]) -> SmoothingReport:
    gaps = []
    for x in trajectory:
        x = np.asarray(x, dtype=float)
        row = tuple(float(np.linalg.norm(x[u] - x[v])) for (u, v) in g.edges)
        gaps.append(row)
    return SmoothingReport(
        gaps=tuple(gaps),
        dirichlet=tuple(math.fsum(row) for row in gaps),
    )


def _one_layer_rhs(aggregator: str, kappa: Fraction, n: int, L: float, C: float, M: float) -> float:
    """(1 - kappa) * h(kappa) with the aggregator's explicit h:
    h = 2 L C M n for sum, h = L C M ((n + 1)/(kappa n) + 2n/(n kappa + 1))
    for mean, which falls to 0 as kappa -> 1."""
    kf = float(kappa)
    if aggregator == "sum":
        h = 2.0 * L * C * M * n
    else:
        h = L * C * M * ((n + 1) / (kf * n) + 2.0 * n / (n * kf + 1.0))
    return (1.0 - kf) * h


def verify_one_layer(
    g: Graph,
    spec: MpnnSpec,
    x: np.ndarray,
    edge: tuple[int, int],
    graph_name: str = "graph",
) -> BoundCheck:
    """Check the positive-curvature one-layer gap bound on one edge.

    Runs the first layer of spec, measures the realized gap across the
    edge, and compares against (1 - kappa) * h(kappa) with L, M certified
    by the spec and C measured from the realized features over the two
    endpoint neighborhoods.
    """
    u, v = edge
    kappa = edge_report(g, u, v).kappa
    if kappa <= 0:
        raise HypothesisNotMet(f"kappa({u},{v}) = {frac_str(kappa)} is not positive")
    return _one_layer_checks(g, spec.layers[0], x, [(edge, kappa)], graph_name)[0]


def _one_layer_checks(
    g: Graph,
    layer: LayerSpec,
    x: np.ndarray,
    edges: Sequence[tuple[tuple[int, int], Fraction]],
    graph_name: str,
    prefix: str = "",
) -> list[BoundCheck]:
    """The one-layer gap check on each (edge, kappa) with kappa > 0, from
    one pass of layer over x; every context starts with prefix."""
    name = "one_layer_sum" if layer.aggregator == "sum" else "one_layer_mean"
    x0, x1 = forward(g, x, MpnnSpec((layer,)))
    big_l = layer.update.lipschitz()
    big_m = layer.operator_bound()
    checks = []
    for (u, v), kappa in edges:
        gap = float(np.linalg.norm(x1[u] - x1[v]))
        nb_u, _ = neighborhoods(g, u)
        nb_v, _ = neighborhoods(g, v)
        big_c = max(float(np.linalg.norm(x0[p])) for p in sorted(nb_u | nb_v))
        rhs = _one_layer_rhs(
            layer.aggregator, kappa, max(g.degree(u), g.degree(v)), big_l, big_c, big_m
        )
        context = f"{prefix}edge=({u},{v}) kappa={frac_str(kappa)}"
        checks.append(_approx(name, graph_name, context, gap, rhs))
    return checks


def _positive_delta(g: Graph, profile: CurvatureProfile | None) -> Fraction:
    """delta = the minimum edge curvature, the hypothesis delta > 0 of the
    multilayer and diameter bounds; raises HypothesisNotMet otherwise."""
    if profile is None:
        profile = curvature_profile(g)
    delta = min(r.kappa for r in profile.reports)
    if delta <= 0:
        raise HypothesisNotMet(f"minimum curvature {frac_str(delta)} is not positive")
    return delta


def verify_multilayer(
    g: Graph,
    spec: MpnnSpec,
    x: np.ndarray,
    k_max: int,
    graph_name: str = "graph",
    profile: CurvatureProfile | None = None,
) -> list[BoundCheck]:
    """Check the regular-graph multilayer gap bound for every edge and
    every layer 1..k_max.

    Requires a regular graph whose minimum edge curvature delta is
    positive and mean aggregation in every layer. The bound at layer k is
    (2/3) * C * (3 L M floor((1 - delta) n) / (n + 1))^k with C the max
    initial feature norm and L, M the largest certified constants among
    the layers used.
    """
    degrees = {g.degree(p) for p in range(g.vertex_count)}
    if len(degrees) != 1:
        raise HypothesisNotMet(f"graph is not regular (degrees {sorted(degrees)})")
    n = degrees.pop()
    delta = _positive_delta(g, profile)
    if any(layer.aggregator != "mean" for layer in spec.layers):
        raise HypothesisNotMet("every layer must use the mean aggregator")

    k_max = min(k_max, len(spec.layers))
    used = spec.layers[:k_max]
    big_l = max(layer.update.lipschitz() for layer in used)
    big_m = max(layer.operator_bound() for layer in used)
    x = np.asarray(x, dtype=float)
    big_c = max(float(np.linalg.norm(x[p])) for p in range(g.vertex_count))
    # floor of (1 - delta) * n taken in exact arithmetic; a float round
    # here could flip the floor next to an integer boundary
    floor_term = math.floor((1 - delta) * n)
    base = 3.0 * big_l * big_m * floor_term / (n + 1.0)

    trajectory = forward(g, x, spec)
    checks = []
    for k in range(1, k_max + 1):
        rhs = (2.0 / 3.0) * big_c * base**k
        xk = trajectory[k]
        for (u, v) in g.edges:
            gap = float(np.linalg.norm(xk[u] - xk[v]))
            context = f"edge=({u},{v}) k={k} delta={frac_str(delta)}"
            checks.append(_approx("multilayer", graph_name, context, gap, rhs))
    return checks


def verify_jacobian_ratio(
    g: Graph,
    spec: MpnnSpec,
    edge: tuple[int, int],
    k: int = 0,
    graph_name: str = "graph",
) -> tuple[BoundCheck, BoundCheck]:
    """Check the two-layer Jacobian mass ratios across an edge.

    Returns the (alpha, beta) pair checked against the curvature bound
    with the denominator over the receiving vertex's extended
    neighborhood, all in exact rationals.
    """
    u, v = edge
    return _jacobian_checks(graph_name, edge, k, alpha_beta(g, spec, u, v, k))


def _jacobian_checks(
    graph_name: str, edge: tuple[int, int], k: int, ab: AlphaBeta
) -> tuple[BoundCheck, BoundCheck]:
    u, v = edge
    context = f"edge=({u},{v}) k={k} side="
    return (
        _exact("jacobian_ratio", graph_name, context + "alpha", ab.alpha, ab.alpha_proof_rhs),
        _exact("jacobian_ratio", graph_name, context + "beta", ab.beta, ab.beta_proof_rhs),
    )


def verify_diameter(
    g: Graph, graph_name: str = "graph", profile: CurvatureProfile | None = None
) -> BoundCheck:
    """diameter <= floor(2 / delta) whenever delta = min edge curvature > 0."""
    delta = _positive_delta(g, profile)
    diameter = 0
    for s in range(g.vertex_count):
        diameter = max(diameter, max(bfs_distances(g, s)))
    bound = math.floor(Fraction(2) / delta)
    context = f"delta={frac_str(delta)}"
    return _exact("diameter", graph_name, context, Fraction(diameter), Fraction(bound))


def verify_shared_neighbor(r: EdgeCurvatureReport, graph_name: str = "graph") -> BoundCheck:
    """Shared-neighbour bound: kappa(u,v) <= |N_u cap N_v| / max(deg u, deg v)."""
    rhs = Fraction(r.common_neighbors, max(r.deg_u, r.deg_v))
    context = f"edge=({r.edge[0]},{r.edge[1]})"
    return _exact("shared_neighbor", graph_name, context, r.kappa, rhs)


def verify_bottleneck(
    r: EdgeCurvatureReport, graph_name: str = "graph"
) -> tuple[BoundCheck, BoundCheck]:
    """The (statement, strong) bottleneck bounds, n = max(deg u, deg v):

    statement: |S_statement| <= n (kappa + 2) / 2, claimed only when the
    per-vertex participation hypothesis holds (skipped otherwise);
    strong: 3 n0 + 2 n1 <= n (kappa + 2), with n0 mutual neighbours and n1
    vertex-disjoint connecting edges.
    """
    n = max(r.deg_u, r.deg_v)
    context = f"edge=({r.edge[0]},{r.edge[1]})"
    strong_lhs = 3 * r.sets.n0 + 2 * r.sets.n1
    strong = _exact("bottleneck_strong", graph_name, context, strong_lhs, n * (r.kappa + 2))
    if not r.sets.hypothesis_holds:
        reason = "per-vertex participation hypothesis fails"
        return _skip("bottleneck_statement", graph_name, context, reason), strong
    s_size, rhs = len(r.sets.s_statement), n * (r.kappa + 2) / 2
    return _exact("bottleneck_statement", graph_name, context, s_size, rhs), strong


# updates drawn for one-layer trials; all certified 1-Lipschitz
def _draw_update(rng: np.random.Generator) -> Update:
    pick = int(rng.integers(0, 4))
    if pick == 0:
        return Update("identity")
    if pick == 1:
        return Update("clamp", bound=float(rng.uniform(0.5, 3.0)))
    if pick == 2:
        return Update("abs")
    return Update("leaky", slope=float(rng.uniform(0.0, 1.0)))


def _draw_one_layer(rng: np.random.Generator, aggregator: str) -> tuple[MpnnSpec, int]:
    channels = int(rng.integers(1, 5))
    message = rng.standard_normal((channels, channels))
    layer = LayerSpec(aggregator=aggregator, message=message, update=_draw_update(rng))
    return MpnnSpec((layer,)), channels


def _draw_multilayer(rng: np.random.Generator, layers: int) -> tuple[MpnnSpec, int]:
    channels = int(rng.integers(1, 4))
    out = []
    for _ in range(layers):
        message = rng.standard_normal((channels, channels))
        update = Update("linear", matrix=rng.standard_normal((channels, channels)))
        out.append(LayerSpec(aggregator="mean", message=message, update=update))
    return MpnnSpec(tuple(out)), channels


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    trials: int
    seed: int
    checks: tuple[BoundCheck, ...]

    @property
    def violations(self) -> tuple[BoundCheck, ...]:
        return tuple(c for c in self.checks if c.violated)

    def summary(self) -> dict:
        by_name: dict[str, dict[str, int]] = {}
        for name in CHECK_NAMES:
            by_name[name] = {"passed": 0, "violated": 0, "skipped": 0}
        for c in self.checks:
            row = by_name.setdefault(c.name, {"passed": 0, "violated": 0, "skipped": 0})
            if c.holds is None:
                row["skipped"] += 1
            elif c.holds:
                row["passed"] += 1
            else:
                row["violated"] += 1
        return {
            "total": len(self.checks),
            "violations": len(self.violations),
            "skipped": sum(1 for c in self.checks if c.skipped),
            "by_name": by_name,
        }

    def to_json_obj(self) -> dict:
        return {**self._envelope(), "checks": [c.to_json_obj() for c in self.checks]}

    def _envelope(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "norm": "euclidean",
            "tolerance": TOLERANCE,
            "summary": self.summary(),
        }

    def write_json(self, write: Callable[[str], object]) -> None:
        """Write json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"
        through write, _WRITE_BATCH checks at a time, without building either
        the object tree or the whole string.

        "checks" sorts first among the envelope keys, so the checks come
        straight after the opening brace; json.dumps renders the small rest
        of the envelope, whose opening brace is dropped.
        """
        rest = json.dumps(self._envelope(), sort_keys=True, indent=2)[2:]
        if not self.checks:
            write(f'{{\n  "checks": [],\n{rest}\n')
            return
        write('{\n  "checks": [\n')
        for i in range(0, len(self.checks), _WRITE_BATCH):
            if i:
                write(",\n")
            write(",\n".join(map(_check_json, self.checks[i : i + _WRITE_BATCH])))
        write(f"\n  ],\n{rest}\n")


class _Abort(Exception):
    pass


MULTILAYER_DEPTH = 6


def run_suite(
    corpus: Iterable[tuple[str, Graph]] | None = None,
    trials: int = 200,
    seed: int = 1,
    suite: str = "all",
    fail_fast: bool = False,
) -> SuiteReport:
    """Evaluate every applicable bound over a corpus of named graphs.

    Structural checks (shared_neighbor, bottleneck pair, jacobian_ratio,
    diameter) run once per graph or edge. The one-layer bounds run
    `trials` seeded random draws per aggregator, cycling through the
    corpus; the multilayer bound runs one seeded draw per eligible graph.
    Results are deterministic for a fixed (corpus, trials, seed); with
    fail_fast the report is truncated at the first violation. An unknown
    suite or a negative trials or seed raises ValueError.
    """
    if suite != "all" and suite not in CHECK_NAMES:
        raise ValueError(f"unknown suite {suite!r}")
    for label, value in (("trials", trials), ("seed", seed)):
        if value < 0:
            raise ValueError(f"{label} must be a non-negative integer, got {value}")
    want = set(CHECK_NAMES) if suite == "all" else {suite}
    entries = list(default_corpus() if corpus is None else corpus)
    checks: list[BoundCheck] = []

    def emit(check: BoundCheck) -> None:
        checks.append(check)
        if fail_fast and check.violated:
            raise _Abort

    try:
        profiles = [curvature_profile(g) for _, g in entries]
        positive_edges = [
            [(r.edge, r.kappa) for r in profile.reports if r.kappa > 0] for profile in profiles
        ]

        for gi, (name, g) in enumerate(entries):
            profile = profiles[gi]
            for r in profile.reports:
                if "shared_neighbor" in want:
                    emit(verify_shared_neighbor(r, name))
                if {"bottleneck_statement", "bottleneck_strong"} & want:
                    for check in verify_bottleneck(r, name):
                        if check.name in want:
                            emit(check)
                if "jacobian_ratio" in want:
                    # the identity two-layer sum spec, fed the report's kappa and |S|
                    ab = _alpha_beta(g, *r.edge, r.kappa, len(r.sets.s_statement))
                    for check in _jacobian_checks(name, r.edge, 0, ab):
                        emit(check)
            if "diameter" in want:
                try:
                    emit(verify_diameter(g, name, profile))
                except HypothesisNotMet as exc:
                    emit(_skip("diameter", name, "", str(exc)))
            if "multilayer" in want:
                rng = np.random.default_rng((seed, 2, gi))
                spec, channels = _draw_multilayer(rng, MULTILAYER_DEPTH)
                x = rng.standard_normal((g.vertex_count, channels))
                try:
                    for check in verify_multilayer(g, spec, x, MULTILAYER_DEPTH, name, profile):
                        emit(check)
                except HypothesisNotMet as exc:
                    emit(_skip("multilayer", name, "", str(exc)))

        if entries:
            for agg_index, aggregator in enumerate(("sum", "mean")):
                name = f"one_layer_{aggregator}"
                if name not in want:
                    continue
                for t in range(trials):
                    gi = t % len(entries)
                    graph_name, g = entries[gi]
                    rng = np.random.default_rng((seed, agg_index, t))
                    spec, channels = _draw_one_layer(rng, aggregator)
                    x = rng.standard_normal((g.vertex_count, channels))
                    if not positive_edges[gi]:
                        emit(_skip(name, graph_name, f"trial={t}", "no positively curved edge"))
                        continue
                    for check in _one_layer_checks(
                        g, spec.layers[0], x, positive_edges[gi], graph_name, f"trial={t} "
                    ):
                        emit(check)
    except _Abort:
        pass
    return SuiteReport(suite=suite, trials=trials, seed=seed, checks=tuple(checks))

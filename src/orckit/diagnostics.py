"""Machine checks for the smoothing and squashing bounds.

This module is the one place that states each inequality the library claims
and its hypotheses, the participation hypothesis of the bottleneck statement
among them; every check re-evaluates one on concrete graphs and features,
from the counts in `curvature`'s reports and the quantities `mpnn` measures.
Each bound has one public entry point, verify_*, which takes the edge
curvature report(s) or the graph's curvature profile it checks and returns
every check it decides, and the suite is built from exactly these. A check
whose hypothesis fails on an input is returned as a skip with a reason,
never as a pass or an exception. Inequalities that mix exact curvature with
floating-point feature norms carry an additive 1e-9 tolerance on the bound
side; purely structural inequalities are checked in exact rational
arithmetic. Feature gaps use the Euclidean norm.

`suite_checks` is the one way to run the suite: it checks its arguments at
once and returns the suite as a lazy stream, so a caller that writes each
check and drops it holds none. `emit.write_suite` renders any stream of
checks as JSON and tallies it as it writes, through `suite_summary`, the
one builder of the summary tallies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .curvature import CurvatureProfile, EdgeCurvatureReport, curvature_profile, frac_str
from .graphs import Graph, bfs_distances, corpus as default_corpus
from .mpnn import (
    LayerSpec,
    MpnnSpec,
    Update,
    WalkRows,
    alpha_beta,
    edge_gaps,
    forward,
    vertex_norms,
)

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


@dataclass(frozen=True, slots=True)
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


def _exact(name: str, graph: str, context: str, lhs: Fraction, num: int, den: int) -> BoundCheck:
    """The exact check lhs <= num / den, den > 0, decided on the integer
    cross-products; the only Fractions built are the reported rhs and slack."""
    a, b = lhs.numerator, lhs.denominator
    rhs, slack = Fraction(num, den), Fraction(num * b - a * den, b * den)
    return BoundCheck(name, graph, context, lhs, rhs, a * den <= num * b, slack, 0.0)


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

    @property
    def monotone(self) -> bool:
        """Whether the energy never rises from one layer to the next."""
        return all(b <= a for a, b in zip(self.dirichlet, self.dirichlet[1:]))


def smoothing_metrics(g: Graph, trajectory: Sequence[np.ndarray]) -> SmoothingReport:
    gaps = tuple(edge_gaps(np.asarray(x, dtype=float), g.edges) for x in trajectory)
    return SmoothingReport(gaps=gaps, dirichlet=tuple(math.fsum(row) for row in gaps))


def _one_layer_rhs(aggregator: str, kappa: Fraction, n: int, L: float, C: float, M: float) -> float:
    """(1 - kappa) * h(kappa) with the aggregator's explicit h:
    h = 2 L C M n for sum, h = L C M ((n + 1)/(kappa n) + 2n/(n kappa + 1))
    for mean, which falls to 0 as kappa -> 1. kappa's float is the quotient
    Fraction.__float__ also returns, without its dispatch."""
    kf = kappa.numerator / kappa.denominator
    if aggregator == "sum":
        h = 2.0 * L * C * M * n
    else:
        h = L * C * M * ((n + 1) / (kf * n) + 2.0 * n / (n * kf + 1.0))
    return (1.0 - kf) * h


def verify_one_layer(
    g: Graph,
    layer: LayerSpec,
    x: np.ndarray,
    reports: Sequence[EdgeCurvatureReport],
    graph_name: str = "graph",
    prefix: str = "",
) -> list[BoundCheck]:
    """Check the positive-curvature one-layer gap bound on each report's edge.

    Runs layer once over x, measures the realized gap across each edge, and
    compares against (1 - kappa) * h(kappa) with L, M certified by the layer
    and C measured from the input features over the two endpoint
    neighborhoods. Every context starts with prefix. A report whose kappa
    is not positive fails the hypothesis and gets a skip.
    """
    name = "one_layer_sum" if layer.aggregator == "sum" else "one_layer_mean"
    x0, x1 = forward(g, x, MpnnSpec((layer,)))
    big_l = layer.update.lipschitz()
    big_m = layer.operator_bound()
    norms = vertex_norms(x0)
    # the largest norm over each vertex's neighbours; N_u and N_v hold v and
    # u, so C over the two closed neighbourhoods is the larger at u and v
    near = [max(map(norms.__getitem__, nbrs), default=0.0) for nbrs in g.adjacency]
    checks = []
    for r, gap in zip(reports, edge_gaps(x1, [r.edge for r in reports])):
        (u, v), kappa = r.edge, r.kappa
        context = f"{prefix}edge=({u},{v}) kappa={frac_str(kappa)}"
        if kappa.numerator <= 0:  # a Fraction's denominator is positive
            reason = f"kappa({u},{v}) = {frac_str(kappa)} is not positive"
            checks.append(_skip(name, graph_name, context, reason))
            continue
        big_c = max(near[u], near[v])
        rhs = _one_layer_rhs(layer.aggregator, kappa, max(r.deg_u, r.deg_v), big_l, big_c, big_m)
        checks.append(_approx(name, graph_name, context, gap, rhs))
    return checks


def _min_curvature(profile: CurvatureProfile) -> tuple[Fraction, str]:
    """delta = the minimum edge curvature, and the reason the hypothesis
    delta > 0 of the multilayer and diameter bounds fails ("" if it holds)."""
    delta = min(r.kappa for r in profile.reports)
    return delta, "" if delta > 0 else f"minimum curvature {frac_str(delta)} is not positive"


def verify_multilayer(
    g: Graph,
    spec: MpnnSpec,
    x: np.ndarray,
    profile: CurvatureProfile,
    graph_name: str = "graph",
) -> list[BoundCheck]:
    """Check the regular-graph multilayer gap bound for every edge and
    every layer of spec.

    Requires a regular graph whose minimum edge curvature delta (read from
    profile) is positive and mean aggregation in every layer; when one of
    these fails, in that order, the result is a single skip naming it. The
    bound at layer k is (2/3) * C * (3 L M floor((1 - delta) n) / (n + 1))^k
    with C the max initial feature norm and L, M the largest certified
    constants among the layers.
    """
    degrees = {g.degree(p) for p in range(g.vertex_count)}
    delta, reason = _min_curvature(profile)
    if len(degrees) != 1:
        reason = f"graph is not regular (degrees {sorted(degrees)})"
    elif not reason and any(layer.aggregator != "mean" for layer in spec.layers):
        reason = "every layer must use the mean aggregator"
    if reason:
        return [_skip("multilayer", graph_name, "", reason)]
    n = degrees.pop()

    big_l = max(layer.update.lipschitz() for layer in spec.layers)
    big_m = max(layer.operator_bound() for layer in spec.layers)
    x = np.asarray(x, dtype=float)
    big_c = max(vertex_norms(x))
    # floor of (1 - delta) * n taken in exact arithmetic; a float round
    # here could flip the floor next to an integer boundary
    floor_term = math.floor((1 - delta) * n)
    base = 3.0 * big_l * big_m * floor_term / (n + 1.0)

    trajectory = forward(g, x, spec)
    checks = []
    for k in range(1, len(spec.layers) + 1):
        rhs = (2.0 / 3.0) * big_c * base**k
        for (u, v), gap in zip(g.edges, edge_gaps(trajectory[k], g.edges)):
            context = f"edge=({u},{v}) k={k} delta={frac_str(delta)}"
            checks.append(_approx("multilayer", graph_name, context, gap, rhs))
    return checks


def verify_jacobian_ratio(
    g: Graph, r: EdgeCurvatureReport, graph_name: str = "graph", rows: WalkRows | None = None
) -> tuple[BoundCheck, BoundCheck]:
    """Check the two-layer Jacobian mass ratios across the edge (u, v) of r.

    Returns the (alpha, beta) pair, each checked in exact rationals against
    (n (kappa + 2) + 4) / (2 * row sum), n = max(deg u, deg v), with the
    row sum of (A+I)^2 at the receiving vertex: u for alpha, v for beta.
    That is the pairing the derivation supports; the paper's statement,
    with the other endpoint's row sum, is not asserted. The ratios do not
    depend on the linear sum stack (see `mpnn.alpha_beta`), so the context
    always names the window starting at layer k=0. rows, a `WalkRows` table
    of g, is passed on to `alpha_beta`.
    """
    u, v = r.edge
    ab = alpha_beta(g, u, v, rows)
    # n (kappa + 2) + 4 over kappa's denominator: kappa = p/q
    p, q = r.kappa.numerator, r.kappa.denominator
    kappa_form = max(r.deg_u, r.deg_v) * (p + 2 * q) + 4 * q
    name, context = "jacobian_ratio", f"edge=({u},{v}) k=0 side="
    return (
        _exact(name, graph_name, context + "alpha", ab.alpha, kappa_form, 2 * q * ab.row_sum_u),
        _exact(name, graph_name, context + "beta", ab.beta, kappa_form, 2 * q * ab.row_sum_v),
    )


def verify_diameter(g: Graph, profile: CurvatureProfile, graph_name: str = "graph") -> BoundCheck:
    """diameter <= floor(2 / delta) whenever delta = min edge curvature of
    profile > 0; a skip naming delta otherwise."""
    delta, reason = _min_curvature(profile)
    if reason:
        return _skip("diameter", graph_name, "", reason)
    diameter = 0
    for s in range(g.vertex_count):
        diameter = max(diameter, max(bfs_distances(g, s)))
    bound = 2 * delta.denominator // delta.numerator  # floor(2 / delta), delta > 0
    context = f"delta={frac_str(delta)}"
    return _exact("diameter", graph_name, context, Fraction(diameter), bound, 1)


def verify_shared_neighbor(r: EdgeCurvatureReport, graph_name: str = "graph") -> BoundCheck:
    """Shared-neighbour bound: kappa(u,v) <= |N_u cap N_v| / max(deg u, deg v)."""
    n = max(r.deg_u, r.deg_v)
    context = f"edge=({r.edge[0]},{r.edge[1]})"
    return _exact("shared_neighbor", graph_name, context, r.kappa, r.sets.n0, n)


def verify_bottleneck(
    r: EdgeCurvatureReport, graph_name: str = "graph"
) -> tuple[BoundCheck, BoundCheck]:
    """The (statement, strong) bottleneck bounds, n, m = max, min(deg u, deg v):

    statement: |S_statement| <= n (kappa + 2) / 2, claimed only under the
    per-vertex participation hypothesis max_load <= n / m (skipped otherwise);
    strong: 3 n0 + 2 n1 <= n (kappa + 2), with n0 mutual neighbours and n1
    vertex-disjoint connecting edges.

    On a dense graph the hypothesis fails on every edge (max_load is near a
    degree, n / m near 1): all 1,067 statement checks of ER(60, 0.6) are
    skips. The corpus verify decides 412 statement checks and skips 3,139.
    """
    n, m = max(r.deg_u, r.deg_v), min(r.deg_u, r.deg_v)
    context = f"edge=({r.edge[0]},{r.edge[1]})"
    # n (kappa + 2) = n (p + 2q) / q for kappa = p/q
    q = r.kappa.denominator
    bound = n * (r.kappa.numerator + 2 * q)
    strong_lhs = Fraction(3 * r.sets.n0 + 2 * r.sets.n1)
    strong = _exact("bottleneck_strong", graph_name, context, strong_lhs, bound, q)
    if r.sets.max_load * m > n:
        reason = "per-vertex participation hypothesis fails"
        return _skip("bottleneck_statement", graph_name, context, reason), strong
    statement_lhs = Fraction(r.sets.s_size)
    return _exact("bottleneck_statement", graph_name, context, statement_lhs, bound, 2 * q), strong


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


def suite_summary(outcomes: Mapping[tuple[str, bool | None], int]) -> dict:
    """The summary tallies of a suite's checks from how many have each
    (name, holds): the one place they are built, for `emit.write_suite`,
    which counts a stream as it writes it."""
    by_name = {name: {"passed": 0, "violated": 0, "skipped": 0} for name in CHECK_NAMES}
    for (name, holds), count in outcomes.items():
        row = by_name.setdefault(name, {"passed": 0, "violated": 0, "skipped": 0})
        row["skipped" if holds is None else "passed" if holds else "violated"] += count
    return {
        "total": sum(outcomes.values()),
        "violations": sum(row["violated"] for row in by_name.values()),
        "skipped": sum(row["skipped"] for row in by_name.values()),
        "by_name": by_name,
    }


MULTILAYER_DEPTH = 6
# Checks are streamed, so memory does not grow with the trial count; the
# output's size and the run time do, linearly.
MAX_TRIALS = 10_000


def _corpus_walk(
    corpus: Iterable[tuple[str, Graph]] | None, want: set[str], trials: int, seed: int
) -> Iterator[BoundCheck]:
    """Every check of the suite in report order; a bound pair may also
    yield its member that want does not name."""
    entries = list(default_corpus() if corpus is None else corpus)
    profiles = [curvature_profile(g) for _, g in entries]
    positive = [[r for r in profile.reports if r.kappa > 0] for profile in profiles]

    for gi, ((name, g), profile) in enumerate(zip(entries, profiles)):
        rows = WalkRows(g)  # filled only by the jacobian_ratio checks
        for r in profile.reports:
            if "shared_neighbor" in want:
                yield verify_shared_neighbor(r, name)
            if {"bottleneck_statement", "bottleneck_strong"} & want:
                yield from verify_bottleneck(r, name)
            if "jacobian_ratio" in want:
                yield from verify_jacobian_ratio(g, r, name, rows)
        del rows  # the graph's structural checks are done
        if "diameter" in want:
            yield verify_diameter(g, profile, name)
        if "multilayer" in want:
            rng = np.random.default_rng((seed, 2, gi))
            spec, channels = _draw_multilayer(rng, MULTILAYER_DEPTH)
            x = rng.standard_normal((g.vertex_count, channels))
            yield from verify_multilayer(g, spec, x, profile, name)

    for agg_index, aggregator in enumerate(("sum", "mean")):
        name = f"one_layer_{aggregator}"
        if name not in want or not entries:
            continue
        for t in range(trials):
            gi = t % len(entries)
            graph_name, g = entries[gi]
            rng = np.random.default_rng((seed, agg_index, t))
            spec, channels = _draw_one_layer(rng, aggregator)
            x = rng.standard_normal((g.vertex_count, channels))
            if not positive[gi]:
                yield _skip(name, graph_name, f"trial={t}", "no positively curved edge")
                continue
            yield from verify_one_layer(
                g, spec.layers[0], x, positive[gi], graph_name, f"trial={t} "
            )


def _through_first_violation(checks: Iterator[BoundCheck]) -> Iterator[BoundCheck]:
    for check in checks:
        yield check
        if check.violated:
            return


def suite_checks(
    corpus: Iterable[tuple[str, Graph]] | None = None,
    trials: int = 200,
    seed: int = 1,
    suite: str = "all",
    fail_fast: bool = False,
) -> Iterator[BoundCheck]:
    """Every applicable bound over a corpus of named graphs, as a lazy
    stream of checks in report order.

    Each graph's curvature profile is computed once, and every check comes
    from the public verify_* function for its bound, fed the edge reports
    or the profile it reads, skips included.
    Structural checks (shared_neighbor, bottleneck pair, jacobian_ratio,
    diameter) run once per edge or graph. The one-layer bounds run
    `trials` seeded random draws per aggregator, cycling through the
    corpus, each checked on the graph's positively curved edges; the
    multilayer bound runs one seeded draw per graph.
    Results are deterministic for a fixed (corpus, trials, seed); with
    fail_fast the stream ends at the first violation. An unknown suite, a
    negative trials or seed, or trials above MAX_TRIALS raises ValueError
    here, before any work is done; the corpus is read and every check
    computed only as the stream is consumed.
    """
    if suite != "all" and suite not in CHECK_NAMES:
        raise ValueError(f"unknown suite {suite!r}")
    for label, value in (("trials", trials), ("seed", seed)):
        if value < 0:
            raise ValueError(f"{label} must be a non-negative integer, got {value}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {trials}")
    want = set(CHECK_NAMES) if suite == "all" else {suite}
    checks = (c for c in _corpus_walk(corpus, want, trials, seed) if c.name in want)
    return _through_first_violation(checks) if fail_fast else checks


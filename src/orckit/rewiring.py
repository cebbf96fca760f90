"""Curvature-guided rewiring.

Edges whose curvature exceeds tau_pos get trimmed (most positive first);
edges below tau_neg get one extra support edge bridging their exclusive
neighborhoods, placed to spread the load of `curvature._statement_loads`
rather than concentrate it on one vertex. A step (`rewire_step`) adds
and removes each edge by a local edit (`graphs.edit_edge`) and skips a
removal that would disconnect the graph. The loop reads only each edge's
curvature, `curvature.edge_curvatures` of every graph it makes, and rolls
back any step that increases the number of out-of-band edges, so that count
is non-increasing across accepted steps. After a step it hands
`edge_curvatures` the graph before the step and its kappas, so only the
edges whose W1 problem the edits changed are solved again. The loop builds
each step's record once, carrying each graph's out-of-band count and
histogram into the next. RewireTrace is data; `emit.trace_obj` renders it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .curvature import CurvatureProfile, _statement_loads, edge_curvatures
from .graphs import UNREACHABLE, Graph, NeighborIndex, _hub_first, bfs_distances, edit_edge

HISTOGRAM_BINS = 12  # width 1/4 over [-2, 1], last bin closed
Edges = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RewireConfig:
    """Rewiring thresholds and per-step budgets."""

    tau_neg: float = -0.5
    tau_pos: float = 0.99
    max_iterations: int = 10
    additions_per_step: int = 1
    removals_per_step: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.tau_neg) and math.isfinite(self.tau_pos)):
            raise ValueError(f"thresholds must be finite, got {self.tau_neg} and {self.tau_pos}")
        if not self.tau_neg < self.tau_pos:
            raise ValueError(f"tau_neg {self.tau_neg} must be below tau_pos {self.tau_pos}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.additions_per_step < 1 or self.removals_per_step < 1:
            raise ValueError("per-step budgets must be positive")


@dataclass(frozen=True)
class RewireStep:
    """One iteration of `rewire_loop`: the edges it added and removed, and
    the out-of-band count and kappa histogram of the graph before and after
    it. A rolled-back step's after-fields describe the graph it reverted."""

    added: Edges
    removed: Edges
    out_of_band_before: int
    histogram_before: tuple[int, ...]
    out_of_band_after: int
    histogram_after: tuple[int, ...]
    rolled_back: bool


@dataclass(frozen=True)
class RewireTrace:
    config: RewireConfig
    steps: tuple[RewireStep, ...]
    initial_out_of_band: int
    final_out_of_band: int


def kappa_histogram(profile: CurvatureProfile) -> tuple[int, ...]:
    """Edge counts in 12 quarter-width curvature bins spanning [-2, 1]."""
    return _histogram(r.kappa for r in profile.reports)


def _histogram(kappas) -> tuple[int, ...]:
    counts = [0] * HISTOGRAM_BINS
    for kappa in kappas:
        # exact bin floor(4 (kappa + 2)) of kappa = p/q >= -2 in integers;
        # kappa = 1 lands in the closed last bin
        p, q = kappa.numerator, kappa.denominator
        counts[min(4 * (p + 2 * q) // q, HISTOGRAM_BINS - 1)] += 1
    return tuple(counts)


def _out_of_band(kappas: tuple, cfg: RewireConfig) -> tuple[list[int], list[int]]:
    """(positions of the kappas below tau_neg, of those above tau_pos),
    compared exactly in integers: kappa = p/q < a/b, with q, b > 0, exactly
    when p b < a q, and a float threshold is the ratio a/b of
    `as_integer_ratio()`."""
    a, b = cfg.tau_neg.as_integer_ratio()
    c, d = cfg.tau_pos.as_integer_ratio()
    below, above = [], []
    for k, kappa in enumerate(kappas):
        p, q = kappa.numerator, kappa.denominator
        if p * b < a * q:
            below.append(k)
        elif p * d > c * q:
            above.append(k)
    return below, above


def out_of_band_count(kappas: tuple, cfg: RewireConfig) -> int:
    return sum(map(len, _out_of_band(kappas, cfg)))


def _support_candidate(g: Graph, u: int, v: int) -> tuple[int, int] | None:
    """Best absent edge bridging the exclusive neighborhoods of (u, v).

    Candidates run p in N_u \\ N~_v against q in N_v \\ N~_u; the winner
    minimizes the max per-vertex edge count of the enlarged connecting
    set, then breaks ties lexicographically. None when no pair is absent.
    With the edge's `_statement_loads` (hub first), (p, q) adds one such edge
    at p and one at q, so its key is (max(load[p] + 1, load[q] + 1,
    max_load), (min(p, q), max(p, q))); the absent pairs are the exclusive
    columns off an exclusive row's cost-1 mask.
    """
    u, v = _hub_first(g, u, v)
    index = NeighborIndex(g, u)
    load, exclusive, common = _statement_loads(g, u, v, index)
    cols = g.adjacency[u]
    left = index.full & ~common & ~index.pos[v]
    max_load = max(load.values())
    best = None
    for q, ones in exclusive:
        absent = left & ~ones
        while absent:
            bit = absent & -absent
            absent ^= bit
            p = cols[bit.bit_length() - 1]
            key = (max(load.get(p, 0) + 1, load[q] + 1, max_load), (min(p, q), max(p, q)))
            if best is None or key < best:
                best = key
    return None if best is None else best[1]


def rewire_step(g: Graph, kappas: tuple, cfg: RewireConfig) -> tuple[Graph, Edges, Edges]:
    """One round of removals and additions guided by kappas, the curvature
    of each edge in `g.edges` order: (the new graph, the edges added, the
    edges removed), each in the order it was edited.

    The graph is `g` itself when no edge crosses either threshold. It may
    also equal `g` when every action was skipped (a removal that would
    disconnect the graph, no absent support pair).
    """
    too_neg, too_pos = _out_of_band(kappas, cfg)
    work = g
    removed: list[tuple[int, int]] = []
    # the k most extreme, by the (-kappa, edge) and (kappa, edge) keys
    edges = g.edges
    trims = [(-kappas[k], edges[k]) for k in too_pos]
    bridges = [(kappas[k], edges[k]) for k in too_neg]
    for _, edge in heapq.nsmallest(cfg.removals_per_step, trims):
        cut = edit_edge(work, edge, add=False)
        if bfs_distances(cut, edge[0])[edge[1]] == UNREACHABLE:
            continue  # the graph type requires connectivity
        work = cut
        removed.append(edge)

    added: list[tuple[int, int]] = []
    for _, edge in heapq.nsmallest(cfg.additions_per_step, bridges):
        candidate = _support_candidate(work, *edge)
        if candidate is None:
            continue
        work = edit_edge(work, candidate, add=True)
        added.append(candidate)
    return work, tuple(added), tuple(removed)


def rewire_loop(g: Graph, cfg: RewireConfig) -> tuple[Graph, RewireTrace]:
    """Iterate rewire_step with the new graph's curvature until nothing
    changes; each new graph's kappas are solved only where the step
    changed an edge's problem, the rest carried from the graph before it
    (see `edge_curvatures`).

    Stops after max_iterations steps; when a step leaves the edges as they
    were (no edge out of band, or every action skipped), and records no
    step for it; or after reverting a step that raised the out-of-band
    count, recorded with rolled_back set. The returned graph is `g` or an
    `edit_edge` of it, so it keeps `g.id_map`.
    """
    kappas = edge_curvatures(g)
    initial = out_of_band_count(kappas, cfg)
    steps: list[RewireStep] = []
    current, current_kappas, current_oob, current_hist = g, kappas, initial, _histogram(kappas)
    for _ in range(cfg.max_iterations):
        candidate, added, removed = rewire_step(current, current_kappas, cfg)
        if candidate.edges == current.edges:
            break
        new_kappas = edge_curvatures(candidate, (current, current_kappas))
        new_oob = out_of_band_count(new_kappas, cfg)
        new_hist = _histogram(new_kappas)
        rolled_back = new_oob > current_oob
        steps.append(RewireStep(added, removed, current_oob, current_hist, new_oob, new_hist, rolled_back))
        if rolled_back:
            break
        current, current_kappas, current_oob, current_hist = candidate, new_kappas, new_oob, new_hist
    return current, RewireTrace(
        config=cfg,
        steps=tuple(steps),
        initial_out_of_band=initial,
        final_out_of_band=current_oob,
    )

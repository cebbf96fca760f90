"""Ollivier-Ricci curvature per edge plus the structural sets behind the
bottleneck inequalities.

kappa(u,v) = 1 - W1(m_u, m_v)/d(u,v), exact rationals throughout, with W1
from `transport.wasserstein1`. For adjacent pairs that solve is local: every
support distance is 0-3 and follows from adjacency, because any p in N_u
reaches any q in N_v through p-u-v-q.

The per-edge calls, `wasserstein1`, `edge_report` and `bottleneck_sets`,
check that (u, v) is an edge (NotAnEdge, or ValueError for an id out of
range) and that an index they are given is u's on g (ValueError). Given
u's index, the edge test reads it (`NeighborIndex.has_edge`), so neither
walk probes adjacency: `curvature_profile` hands each edge of `g.edges`
to `edge_report` with its hub's index, and `edge_curvatures` calls the
unchecked `transport.edge_cost` and builds kappa once, as the Fraction
(T - cost)/T of its integer cost and scale.

`curvature_profile` groups the edges under their endpoint of higher degree
u (the smaller id on a tie; standalone calls orient the same way) and builds
one `NeighborIndex` of u per group; the W1 solve and the bottleneck counts
of every edge (u, v) read their masks and the cached cost levels of the rows
q in N_v from it, so no per-edge structure is built twice, and the rows of
every edge's problem are the smaller neighbourhood. The reports come back in
`g.edges` order. They keep counts of the lemma's connecting set
S_statement, not its edges, from the load pass `_statement_loads` that
rewiring's support candidate also reads; `diagnostics.verify_bottleneck`
judges its hypothesis, and `emit.write_profile` renders a profile as JSON.
`edge_curvatures` walks the same hub groups for kappa alone, the one fact
rewiring reads; through the memo it is given, an edge whose problem is
unchanged since an earlier call keeps its kappa.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .graphs import Graph, NeighborIndex, _hub_first, bfs_distances
from .transport import edge_cost, wasserstein1


class SameVertex(Exception):
    pass


class NotAnEdge(Exception):
    pass


def frac_str(x: Fraction) -> str:
    """Canonical "p/q" rendering; whole numbers keep an explicit /1."""
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True, slots=True)
class BottleneckSets:
    """s_size = |S_statement|, the extended-neighborhood connecting-edge set
    from the lemma statement, and max_load the most edges of it meeting one
    vertex; (n0, n1) are the proof-side counts: n0 mutual neighbors,
    n1 vertex-disjoint connecting edges between the exclusive neighborhoods
    (a maximum matching; disjointness is what makes the proof's transport
    plan feasible)."""

    s_size: int
    max_load: int
    n0: int
    n1: int


@dataclass(frozen=True, slots=True)
class EdgeCurvatureReport:
    """Edge (u, v), u < v, with its curvature kappa = 1 - W1, the degrees of
    u and v and its bottleneck counts."""

    edge: tuple[int, int]
    kappa: Fraction
    deg_u: int
    deg_v: int
    sets: BottleneckSets


@dataclass(frozen=True)
class CurvatureProfile:
    reports: tuple[EdgeCurvatureReport, ...]

    def summary(self) -> dict:
        ks = [r.kappa for r in self.reports]
        return {
            "edge_count": len(ks),
            "kappa_min": min(ks),
            "kappa_max": max(ks),
            "kappa_mean": _mean(ks),
            "negative_count": sum(1 for k in ks if k.numerator < 0),
            "positive_count": sum(1 for k in ks if k.numerator > 0),
        }


def _mean(xs: list[Fraction]) -> Fraction:
    """The exact mean, summed over one common denominator rather than
    reduced after every addition."""
    den = lcm(*(x.denominator for x in xs))
    return Fraction(sum(x.numerator * (den // x.denominator) for x in xs), den * len(xs))


def ricci_curvature(g: Graph, u: int, v: int) -> Fraction:
    """Exact curvature for any distinct vertex pair; d(u,v) > 1 uses the
    general definition with the distance in the denominator."""
    if u == v:
        raise SameVertex(f"curvature needs two distinct vertices, got {u} twice")
    d = 1 if g.has_edge(u, v) else bfs_distances(g, u)[v]
    return 1 - wasserstein1(g, u, v) / d


def edge_report(
    g: Graph, u: int, v: int, index: NeighborIndex | None = None
) -> EdgeCurvatureReport:
    """The report of edge (u, v), checked by `_checked`. index is u's
    NeighborIndex, shared by the W1 solve and the bottleneck counts;
    without one, `_hub_first`'s is built."""
    u, v, index = _checked(g, u, v, index)
    return EdgeCurvatureReport(
        edge=(min(u, v), max(u, v)),
        kappa=1 - wasserstein1(g, u, v, index=index),
        deg_u=g.degree(min(u, v)),
        deg_v=g.degree(max(u, v)),
        sets=bottleneck_sets(g, u, v, index=index),
    )


def _checked(g: Graph, u: int, v: int, index: NeighborIndex | None) -> tuple[int, int, NeighborIndex]:
    """(u, v, index) for a per-edge call: a non-edge raises NotAnEdge and an
    index that is not u's on g ValueError; with no index, the edge hub
    first with its own."""
    edge = g.has_edge(u, v) if index is None else index.has_edge(g, u, v)
    if not edge:
        raise NotAnEdge(f"({u},{v}) is not an edge")
    if index is None:
        u, v = _hub_first(g, u, v)
        index = NeighborIndex(g, u)
    return u, v, index


def _hub_edges(g: Graph):
    """(k, u, v, index) for each edge g.edges[k], grouped under its endpoint
    u of higher degree (the smaller id on a tie), so the rows of its W1
    problem are the smaller neighbourhood. A group's edges come together and
    share one NeighborIndex of u, built when the group comes up and dropped
    when it ends."""
    groups: dict[int, list[int]] = {}
    edges = g.edges
    for k, (a, b) in enumerate(edges):
        groups.setdefault(_hub_first(g, a, b)[0], []).append(k)
    for u, ks in groups.items():
        index = NeighborIndex(g, u)
        for k in ks:
            a, b = edges[k]
            yield k, u, b if a == u else a, index


def curvature_profile(g: Graph) -> CurvatureProfile:
    """One report per edge, in the order of g.edges; the edges of a hub
    group share one index of their hub (see `_hub_edges`), so checking
    them probes no adjacency."""
    reports: list[EdgeCurvatureReport | None] = [None] * len(g.edges)
    for k, u, v, index in _hub_edges(g):
        reports[k] = edge_report(g, u, v, index=index)
    return CurvatureProfile(reports=tuple(reports))


def edge_curvatures(g: Graph, memo: dict) -> tuple[Fraction, ...]:
    """kappa of every edge, in the order of g.edges, grouped and solved as in
    `curvature_profile` but with nothing else of a report built.

    memo carries curvatures from one call to the next, as
    `rewiring.rewire_loop` does across its steps; a fresh call passes {}. It maps the hub-first edge
    (u, v) to (N_u, N_v, levels, kappa), levels being the rows `index[q]`
    for q in N_v that the W1 solve reads, and an edge reuses the stored
    kappa only when all three inputs are equal; otherwise it is solved and
    stored afresh. That is exact: the solve reads the rows, u's position in
    N_v (fixed by N_v) and, from the index, `near[v]` (the OR of the rows'
    cost-0 masks) and `full` (fixed by N_u), and its scale is the lcm of the
    lengths of N_u and N_v. Every reuse is checked by equality, so a stale
    entry, left by a removed edge, an earlier iteration or a rolled-back
    step, can only miss, never mislead.
    """
    kappas: list[Fraction | None] = [None] * len(g.edges)
    adjacency = g.adjacency
    for k, u, v, index in _hub_edges(g):
        levels = list(map(index.__getitem__, adjacency[v]))
        inputs = (adjacency[u], adjacency[v], levels)
        entry = memo.get((u, v))
        if entry is not None and entry[:3] == inputs:
            kappas[k] = entry[3]
        else:
            cost, T = edge_cost(index, u, v, levels)
            kappas[k] = Fraction(T - cost, T)
            memo[u, v] = (*inputs, kappas[k])
    return tuple(kappas)


def _max_matching(options: list[int]) -> int:
    """Maximum bipartite matching size; options[i] is the mask of the
    columns row i may take (Kuhn's augmenting paths, searched depth first
    on an explicit stack, so a path may be as long as the graph allows)."""
    owner: dict[int, int] = {}  # column bit -> its matched row
    count = 0
    for root in range(len(options)):
        seen = 0
        path = [root]  # the rows of the alternating path being searched
        taken = []  # taken[t]: the column path[t] tries, owned by path[t + 1]
        while path:
            i = path[-1]
            free = options[i] & ~seen
            if not free:
                path.pop()
                if taken:
                    taken.pop()
                continue
            bit = free & -free
            seen |= bit
            taken.append(bit)
            if bit in owner:
                path.append(owner[bit])
                continue
            # every row on the path takes the column it tried
            for row, col in zip(path, taken):
                owner[col] = row
            count += 1
            break
    return count


def _statement_loads(g: Graph, u: int, v: int, index: NeighborIndex) -> tuple[dict, list, int]:
    """The load of S_statement at each vertex of edge (u, v), from u's
    NeighborIndex as in the W1 solve: columns N_u, rows q in N_v as their
    cached `index[q]` (a cost-0 cell marks one of the n0 common neighbours,
    cost-1 cells are q's neighbours in N_u). With N~ the closed
    neighbourhood, S_statement holds every edge between N~_u - {v} and
    N~_v - {u}: the edge (u, v), the edges from u and v to each common
    neighbour, and the adjacent pairs (cost-1 cells) off row u and column v.
    load[w] counts those at w: 1 + n0 at u and v, 2 more at a common row, 1
    at each end of a cell; a common row skips the common columns, since an
    edge inside the common set is a cell of both rows. Returns load
    (vertices without any left out), the exclusive rows N_v - N~_u as
    (q, its cost-1 mask off column v) and the mask of the common columns."""
    cols = g.adjacency[u]
    skip_v = ~index.pos[v]
    common = index.near.get(v, 0)
    load = dict.fromkeys((u, v), 1 + common.bit_count())
    exclusive = []
    for q in g.adjacency[v]:
        if q == u:
            continue
        row = index[q]
        ones = row.get(1, 0) & skip_v
        if 0 in row:
            load[q] = load.get(q, 0) + 2 + ones.bit_count()
            ones &= ~common
        else:
            load[q] = ones.bit_count()
            exclusive.append((q, ones))
        while ones:
            bit = ones & -ones
            ones ^= bit
            p = cols[bit.bit_length() - 1]
            load[p] = load.get(p, 0) + 1
    return load, exclusive, common


def bottleneck_sets(g: Graph, u: int, v: int, index: NeighborIndex | None = None) -> BottleneckSets:
    """The counts of edge (u, v), checked by `_checked`, from its
    `_statement_loads` (u's index, or `_hub_first`'s when None) plus n1, a
    maximum matching of the exclusive rows to the exclusive columns
    N_u - N~_v over their cost-1 cells. All of it is symmetric in u and v."""
    u, v, index = _checked(g, u, v, index)
    load, exclusive, common = _statement_loads(g, u, v, index)
    n1 = _max_matching([ones & ~common for _, ones in exclusive if ones & ~common])
    return BottleneckSets(sum(load.values()) // 2, max(load.values()), common.bit_count(), n1)

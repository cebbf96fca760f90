"""Ollivier-Ricci curvature per edge plus the structural sets behind the
bottleneck inequalities.

kappa(u,v) = 1 - W1(m_u, m_v)/d(u,v), exact rationals throughout, with W1
from `transport.wasserstein1`, or for an edge from its integer kernel
`transport.edge_cost`. For adjacent pairs that solve is local: every
support distance is 0-3 and follows from adjacency, because any p in N_u
reaches any q in N_v through p-u-v-q.

The per-edge calls, `wasserstein1`, `edge_report` and `bottleneck_sets`,
go through one front door, `graphs._edge_index`, which tests the edge
(NotAnEdge here, or ValueError for an id out of range), checks that an
index they are given is u's on g (ValueError) and otherwise builds the
hub's. Given u's index, the edge test reads it, so neither walk probes
adjacency. Behind the door, each edge's facts come from the unchecked
kernels on the hub's index: its integer cost and scale from
`transport.edge_cost`, with kappa built once as the Fraction (T - cost)/T,
and its counts from `_counts`. `curvature_profile` calls `edge_report`
once per edge of `g.edges` with its hub's index, and that one check is all
the checking an edge gets; `edge_curvatures` calls `edge_cost` alone.

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
rewiring reads. Given the graph before an edit and its kappas, it solves
only the edges whose problem the edit changed, found from the edit alone
(`_reached`); every other edge keeps its kappa.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .graphs import Graph, NeighborIndex, _edge_index, _hub_first, bfs_distances
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
    """The report of edge (u, v), checked once by `_checked`. index is u's
    NeighborIndex; without one, the hub's is built. The kernels behind
    the check share it: kappa = (T - cost)/T from `edge_cost`, the counts
    from `_counts`, the degrees from its adjacency. The same kappa as
    `1 - wasserstein1(g, u, v)`, the same counts as `bottleneck_sets`."""
    index, v = _checked(g, u, v, index)
    cost, T = edge_cost(index, v)
    u = index.hub
    a, b = (u, v) if u < v else (v, u)
    adjacency = index.adjacency
    return EdgeCurvatureReport(
        edge=(a, b),
        kappa=Fraction(T - cost, T),
        deg_u=len(adjacency[a]),
        deg_v=len(adjacency[b]),
        sets=_counts(index, v),
    )


def _checked(g: Graph, u: int, v: int, index: NeighborIndex | None) -> tuple[NeighborIndex, int]:
    """`graphs._edge_index` of a per-edge call, or NotAnEdge."""
    edge = _edge_index(g, u, v, index)
    if edge is None:
        raise NotAnEdge(f"({u},{v}) is not an edge")
    return edge


def _hub_edges(g: Graph, positions=None):
    """(k, v, index) for each edge g.edges[k], k in positions (every
    position when None): v is its other endpoint and index the NeighborIndex
    of its hub u, the endpoint of higher degree (the smaller id on a tie),
    so the rows of its W1 problem are the smaller neighbourhood. A hub's
    edges come together and share its index, built when the group comes up
    and dropped when it ends; a hub with no edge among positions gets none."""
    groups: dict[int, list[int]] = {}
    edges = g.edges
    for k in range(len(edges)) if positions is None else positions:
        a, b = edges[k]
        groups.setdefault(_hub_first(g, a, b)[0], []).append(k)
    for u, ks in groups.items():
        index = NeighborIndex(g, u)
        for k in ks:
            a, b = edges[k]
            yield k, b if a == u else a, index


def curvature_profile(g: Graph) -> CurvatureProfile:
    """One report per edge, in the order of g.edges; the edges of a hub
    group share one index of their hub (see `_hub_edges`), so checking
    them probes no adjacency."""
    reports: list[EdgeCurvatureReport | None] = [None] * len(g.edges)
    for k, v, index in _hub_edges(g):
        reports[k] = edge_report(g, index.hub, v, index=index)
    return CurvatureProfile(reports=tuple(reports))


def edge_curvatures(g: Graph, before: tuple[Graph, tuple[Fraction, ...]] | None = None) -> tuple[Fraction, ...]:
    """kappa of every edge, in the order of g.edges, grouped and solved as in
    `curvature_profile` but with nothing else of a report built.

    before is an earlier graph on the same vertices and its kappas, as
    `rewiring.rewire_loop` passes the graph a step edited; a fresh call
    (None) solves every edge. Given before, only the edges of
    `_reached(old, g)` are solved, and only their hubs get an index; every
    other edge keeps its previous kappa, looked up by edge, since its W1
    problem is the one it posed in old (the proof is `_reached`'s).
    """
    edges = g.edges
    if before is None:
        kappas: list[Fraction | None] = [None] * len(edges)
        positions = None
    else:
        old, old_kappas = before
        reached = _reached(old, g)
        kappas = list(map(dict(zip(old.edges, old_kappas)).get, edges))
        positions = [k for k, e in enumerate(edges) if e in reached]
    for k, v, index in _hub_edges(g, positions):
        cost, T = edge_cost(index, v)
        kappas[k] = Fraction(T - cost, T)
    return tuple(kappas)


def _level(adjacency, p: int, q: int) -> int:
    """min(d(p, q), 3) over the graph of adjacency."""
    if p == q:
        return 0
    if q in adjacency[p]:
        return 1
    return 3 if set(adjacency[p]).isdisjoint(adjacency[q]) else 2


def _reached(old: Graph, g: Graph) -> set[tuple[int, int]]:
    """The edges of g whose W1 problem differs from the one they posed in
    old, every edge new to g included; old and g share their vertices.

    The solve of edge (u, v), hub u, reads N_u, N_v and the costs d(p, q)
    for p in N_u and q in N_v, and nothing else (`transport.edge_cost`):
    the rows `index[q]` hold the costs; u's position in N_v, `near[v]`,
    `full` and the scale lcm(deg u, deg v) follow from N_u and N_v; the hub
    follows from the two degrees.

    Let C be the symmetric difference of the two edge sets and X the
    endpoints of C, the vertices whose adjacency differs. An edge with an
    endpoint in X has another N_u or N_v, or is new, so its problem
    differs. Any other edge is an edge of both graphs with the same N_u and
    N_v, hence the same degrees and hub: degrees change only at X, and
    kappa is symmetric, so a hub flip matters only there. Its problem
    differs exactly when some cost d(p, q) does, and each is at most 3 in
    both graphs (p-u-v-q), so exactly when some min(d(p, q), 3) does.

    Take the graph in which that is smaller, hence at most 2: a shortest
    p-q path there is missing from the other graph, so one of its edges
    lies in C. A path of one edge is (p, q) in C. A path
    p-w-q with (p, w) in C gives changed edge (x, y) = (p, w) and q in N(y);
    with (w, q) in C, (x, y) = (q, w) and p in N(y). So every pair whose
    cost differs is, in either order, (x, y) or (x, w) with w in N(y) in
    either graph, for a changed edge (x, y) in either orientation. Those
    candidates whose truncated distance differs between the graphs are the
    changed pairs, and the edges (u, v) of g with p in N_u and q in N_v,
    in either order, for a changed pair (p, q), are the rest of the edges
    whose problem differs."""
    before, after = old.adjacency, g.adjacency
    moved = [x for x in range(g.vertex_count) if before[x] != after[x]]
    reached = {(x, y) if x < y else (y, x) for x in moved for y in after[x]}
    candidates = set()
    for x in moved:
        for y in set(before[x]).symmetric_difference(after[x]):
            for w in (y, *before[y], *after[y]):
                candidates.add((x, w) if x < w else (w, x))
    for p, q in candidates:
        if _level(before, p, q) != _level(after, p, q):
            # an edge (u, v) is unordered: u the endpoint next to p covers both orders
            far = set(after[q])
            for u in after[p]:
                reached.update((u, v) if u < v else (v, u) for v in far.intersection(after[u]))
    return reached


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


def _statement_loads(index: NeighborIndex, v: int) -> tuple[dict, list, int]:
    """The load of S_statement at each vertex of edge (u, v), u the hub of
    index, read as in the W1 solve: columns N_u, rows q in N_v as their
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
    u = index.hub
    cols = index.adjacency[u]
    skip_v = ~index.pos[v]
    common = index.near.get(v, 0)
    load = dict.fromkeys((u, v), 1 + common.bit_count())
    exclusive = []
    for q in index.adjacency[v]:
        if q == u:
            continue
        row = index[q]
        ones = row[1] & skip_v
        if row[0]:
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
    """The counts of edge (u, v), checked by `_checked`, from `_counts`
    on u's index, or the hub's when None: the standalone form of a
    report's `sets`."""
    return _counts(*_checked(g, u, v, index))


def _counts(index: NeighborIndex, v: int) -> BottleneckSets:
    """The counts of edge (u, v), u the hub of index, unchecked: its
    `_statement_loads` plus n1, a maximum matching of the exclusive rows
    to the exclusive columns N_u - N~_v over their cost-1 cells. All of it
    is symmetric in u and v."""
    load, exclusive, common = _statement_loads(index, v)
    n1 = _max_matching([ones & ~common for _, ones in exclusive if ones & ~common])
    return BottleneckSets(sum(load.values()) // 2, max(load.values()), common.bit_count(), n1)

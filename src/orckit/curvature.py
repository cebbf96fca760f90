"""Ollivier-Ricci curvature per edge plus the structural sets behind the
bottleneck inequalities.

kappa(u,v) = 1 - W1(m_u, m_v)/d(u,v), exact rationals throughout, with W1
from `transport.wasserstein1`. For adjacent pairs that solve is local: every
support distance is 0-3 and follows from adjacency, because any p in N_u
reaches any q in N_v through p-u-v-q.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, bfs_distances, neighborhoods
from .transport import wasserstein1


class SameVertex(Exception):
    pass


class NotAnEdge(Exception):
    pass


def frac_str(x: Fraction) -> str:
    """Canonical "p/q" rendering; whole numbers keep an explicit /1."""
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class BottleneckSets:
    """S_statement is the extended-neighborhood connecting-edge set from the
    lemma statement; (n0, n1) are the proof-side counts: n0 mutual neighbors,
    n1 vertex-disjoint connecting edges between the exclusive neighborhoods
    (a maximum matching; disjointness is what makes the proof's transport
    plan feasible)."""

    s_statement: tuple[tuple[int, int], ...]
    n0: int
    n1: int
    hypothesis_holds: bool


@dataclass(frozen=True)
class EdgeCurvatureReport:
    edge: tuple[int, int]
    kappa: Fraction
    w1: Fraction
    deg_u: int
    deg_v: int
    sets: BottleneckSets

    @property
    def kappa_float(self) -> float:
        return float(self.kappa)


@dataclass(frozen=True)
class CurvatureProfile:
    reports: tuple[EdgeCurvatureReport, ...]

    def summary(self) -> dict:
        ks = [r.kappa for r in self.reports]
        return {
            "edge_count": len(ks),
            "kappa_min": min(ks),
            "kappa_max": max(ks),
            "kappa_mean": sum(ks, Fraction(0)) / len(ks),
            "negative_count": sum(1 for k in ks if k < 0),
            "positive_count": sum(1 for k in ks if k > 0),
        }


def ricci_curvature(g: Graph, u: int, v: int) -> Fraction:
    """Exact curvature for any distinct vertex pair; d(u,v) > 1 uses the
    general definition with the distance in the denominator."""
    if u == v:
        raise SameVertex(f"curvature needs two distinct vertices, got {u} twice")
    d = 1 if g.has_edge(u, v) else bfs_distances(g, u)[v]
    return 1 - wasserstein1(g, u, v) / d


def edge_report(g: Graph, u: int, v: int) -> EdgeCurvatureReport:
    if not g.has_edge(u, v):
        raise NotAnEdge(f"({u},{v}) is not an edge")
    w1 = wasserstein1(g, u, v)
    sets = bottleneck_sets(g, u, v)
    return EdgeCurvatureReport(
        edge=(min(u, v), max(u, v)),
        kappa=1 - w1,
        w1=w1,
        deg_u=g.degree(min(u, v)),
        deg_v=g.degree(max(u, v)),
        sets=sets,
    )


def curvature_profile(g: Graph) -> CurvatureProfile:
    """One report per edge in canonical order."""
    return CurvatureProfile(reports=tuple(edge_report(g, u, v) for u, v in g.edges))


def _max_bipartite_matching(left: list[int], adj: dict[int, frozenset[int]]) -> int:
    match: dict[int, int] = {}

    def augment(p: int, seen: set[int]) -> bool:
        for q in adj.get(p, ()):
            if q in seen:
                continue
            seen.add(q)
            if q not in match or augment(match[q], seen):
                match[q] = p
                return True
        return False

    count = 0
    for p in left:
        if augment(p, set()):
            count += 1
    return count


def bottleneck_sets(g: Graph, u: int, v: int) -> BottleneckSets:
    if not g.has_edge(u, v):
        raise NotAnEdge(f"({u},{v}) is not an edge")
    # orientation convention: deg(hu) = n >= m = deg(hv)
    hu, hv = (u, v) if g.degree(u) >= g.degree(v) else (v, u)
    n, m = g.degree(hu), g.degree(hv)
    n_u, nt_u = neighborhoods(g, hu)
    n_v, nt_v = neighborhoods(g, hv)

    side_u = nt_u - {hv}
    side_v = nt_v - {hu}
    # every edge with one end in side_u and the other in side_v, in g.edges
    # order; the tuples are g.edges' own, so reports hold no copies
    sets = g.neighbor_sets
    found = {(a, b) if a < b else (b, a) for a in side_u for b in sets[a] & side_v}
    s_statement = tuple(g.edges[bisect_left(g.edges, e)] for e in sorted(found))

    n0 = len(n_u & n_v)
    excl_u = sorted(n_u - {hv} - n_v)
    excl_v = n_v - {hu} - n_u
    adj = {p: sets[p] & excl_v for p in excl_u}
    n1 = _max_bipartite_matching(excl_u, adj)

    participation: dict[int, int] = {}
    for a, b in s_statement:
        participation[a] = participation.get(a, 0) + 1
        participation[b] = participation.get(b, 0) + 1
    # count <= n/m, in integers
    hypothesis = all(c * m <= n for c in participation.values())
    return BottleneckSets(
        s_statement=s_statement, n0=n0, n1=n1, hypothesis_holds=hypothesis
    )


def profile_to_json_obj(profile: CurvatureProfile) -> dict:
    """Schema-shaped dict: rationals as "p/q" strings with advisory floats."""
    edges = []
    for r in profile.reports:
        edges.append(
            {
                "u": r.edge[0],
                "v": r.edge[1],
                "kappa": frac_str(r.kappa),
                "kappa_float": r.kappa_float,
                "w1": frac_str(r.w1),
                "common_neighbors": r.sets.n0,
                "s_size": len(r.sets.s_statement),
                "n0": r.sets.n0,
                "n1": r.sets.n1,
            }
        )
    s = profile.summary()
    return {
        "edges": edges,
        "summary": {
            "edge_count": s["edge_count"],
            "kappa_min": frac_str(s["kappa_min"]),
            "kappa_min_float": float(s["kappa_min"]),
            "kappa_max": frac_str(s["kappa_max"]),
            "kappa_max_float": float(s["kappa_max"]),
            "kappa_mean": frac_str(s["kappa_mean"]),
            "kappa_mean_float": float(s["kappa_mean"]),
            "negative_count": s["negative_count"],
            "positive_count": s["positive_count"],
        },
    }

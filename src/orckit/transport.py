"""Exact discrete Wasserstein-1 between local measures.

Two independent solvers: the production path scales both measures to a
common integer grid and runs a primal-dual min-cost flow (one Dijkstra per
phase for potentials, then augmentations along zero-reduced-cost paths);
the oracle solves the same integer transportation problem with the
classical simplex (northwest-corner start + MODI pivots). Every number in
either path is an int or a Fraction; no floats anywhere.

`wasserstein1(g, u, v)` is the production W1 between the uniform measures
on N_u and N_v. For an edge it reads the support distances from adjacency
alone (each is 0-3); for any other pair it takes them from BFS. The oracle
takes arbitrary measures, so tests can pose problems of their own.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .graphs import Graph, bfs_distances


class TooLarge(Exception):
    """Oracle support product exceeds the configured cap."""


@dataclass(frozen=True)
class LocalMeasure:
    """Probability distribution with rational masses on a sorted vertex support."""

    support: tuple[int, ...]
    mass: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.support) != len(self.mass):
            raise ValueError("support and mass lengths differ")
        if list(self.support) != sorted(set(self.support)):
            raise ValueError("support must be sorted and distinct")
        if any(m <= 0 for m in self.mass):
            raise ValueError("masses must be strictly positive")
        if sum(self.mass) != 1:
            raise ValueError("masses must sum to exactly 1")

    def as_dict(self) -> dict[int, Fraction]:
        return dict(zip(self.support, self.mass))


def local_measure(g: Graph, u: int) -> LocalMeasure:
    """Uniform random-walk measure: mass 1/deg(u) on each neighbor of u."""
    deg = g.degree(u)
    if deg == 0:
        raise ValueError(f"vertex {u} is isolated")
    w = Fraction(1, deg)
    return LocalMeasure(support=g.adjacency[u], mass=(w,) * deg)


def _support_distances(g: Graph, rows: tuple[int, ...], cols: tuple[int, ...]) -> list[list[int]]:
    """Hop distances between two arbitrary supports, one BFS per row vertex."""
    out = []
    for p in rows:
        dist = bfs_distances(g, p)
        out.append([dist[q] for q in cols])
    return out


def _edge_distances(g: Graph, rows: tuple[int, ...], cols: tuple[int, ...]) -> list[list[int]]:
    """Hop distances between N_u and N_v for an edge (u, v), from adjacency alone.

    Any p in N_u reaches any q in N_v along p-u-v-q, so d(p, q) <= 3, and the
    shorter cases are local: 0 if p == q, 1 if p and q are adjacent, 2 if
    they share a neighbour.
    """
    sets = g.neighbor_sets
    out = []
    for p in rows:
        near = sets[p]
        out.append(
            [
                0 if q == p else 1 if q in near else 3 if near.isdisjoint(sets[q]) else 2
                for q in cols
            ]
        )
    return out


def _integer_problem(mu: LocalMeasure, mv: LocalMeasure) -> tuple[int, list[int], list[int]]:
    """Common scale T plus integer supplies/demands (each summing to T)."""
    T = lcm(*(m.denominator for m in mu.mass + mv.mass))
    supplies = [int(m * T) for m in mu.mass]
    demands = [int(m * T) for m in mv.mass]
    return T, supplies, demands


def wasserstein1(g: Graph, u: int, v: int) -> Fraction:
    """W1 between the uniform measures on N_u and N_v, hop-count ground distance.

    The integer problem is built directly on the scale T = lcm(deg u, deg v).
    For an edge (u, v) the support distances are the closed-form 0-3 of
    `_edge_distances`; any other pair takes them from BFS.
    """
    rows, cols = g.adjacency[u], g.adjacency[v]
    du, dv = len(rows), len(cols)
    T = lcm(du, dv)
    supplies = [T // du] * du
    demands = [T // dv] * dv
    distances = _edge_distances if g.has_edge(u, v) else _support_distances
    cost_m = distances(g, rows, cols)
    flow = _min_cost_flow(supplies, demands, cost_m)
    _check_marginals(flow, supplies, demands)
    total = sum(f * c for frow, crow in zip(flow, cost_m) for f, c in zip(frow, crow))
    return Fraction(total, T)


def _check_marginals(flow: list[list[int]], supplies: list[int], demands: list[int]) -> None:
    rows = [sum(r) for r in flow]
    cols = [sum(c) for c in zip(*flow)]
    if rows != supplies or cols != demands or any(f < 0 for r in flow for f in r):
        raise RuntimeError("transport plan marginals do not match the measures")


# ---------------------------------------------------------------------------
# Production solver: primal-dual min-cost flow on the transportation network.
# Node layout: 0..m-1 sources, m..m+n-1 sinks. All arcs integer.


def _min_cost_flow(
    supplies: list[int], demands: list[int], cost: list[list[int]]
) -> list[list[int]]:
    """Min-cost transportation flow for non-negative integer costs.

    Arc i -> j (source to sink) is uncapacitated with cost c_ij; the residual
    arc j -> i carries flow[i][j] back at cost -c_ij. Potentials keep every
    residual reduced cost c_ij + pot_i - pot_j non-negative. Each phase runs
    one Dijkstra (`_raise_potentials`) and then augments along paths of
    zero reduced cost until none is left: one-arc paths first, straight from
    the phase's zero-reduced-cost cells, then the rest by search
    (`_admissible_path`).

    At most C + 1 phases run, C = max c_ij, so at most four for an edge's
    0-3 distances:
    - Sources with supply left are Dijkstra roots, so their potential stays
      0; sinks with demand left all gain the same D per phase, so they share
      one potential P. A zero-reduced-cost path from one to the other
      therefore costs exactly P, and P is the cost of a cheapest augmenting
      path.
    - A phase ends only when no zero-reduced-cost path is left. Reduced
      costs are non-negative integers, so the next phase has D >= 1: the
      augmenting-path cost P rises by at least 1 per phase.
    - P >= 0 in the first phase, and P <= C in every phase, because the
      direct arc i -> j from any source with supply left to any sink with
      demand left is uncapacitated and always in the residual network.
    """
    m, n = len(supplies), len(demands)
    left = sum(supplies)
    if left != sum(demands):
        raise RuntimeError("unbalanced transportation problem")
    flow = [[0] * n for _ in range(m)]
    if left == 0:
        return flow
    supply = list(supplies)
    demand = list(demands)
    pot = [0] * (m + n)
    far = 1 + max(map(max, cost))

    for _ in range(far):  # the C + 1 phases argued above
        _raise_potentials(supply, demand, cost, flow, pot, far)
        # cells of zero reduced cost; fixed for the phase, as pot is
        sink_pot = pot[m:]
        tight = [
            [j for j, c, pj in zip(range(n), cost[i], sink_pot) if pj - c == pot[i]]
            for i in range(m)
        ]
        tight_cols: list[list[int]] = [[] for _ in range(n)]
        for i, js in enumerate(tight):
            for j in js:
                tight_cols[j].append(i)
        # one-arc paths need no search
        for i, js in enumerate(tight):
            for j in js:
                if supply[i] == 0:
                    break
                if demand[j] > 0:
                    amount = min(supply[i], demand[j])
                    flow[i][j] += amount
                    supply[i] -= amount
                    demand[j] -= amount
                    left -= amount
        while left > 0:
            cells = _admissible_path(supply, demand, flow, tight, tight_cols)
            if cells is None:
                break
            start, sink = cells[-1][0], cells[0][1]
            amount = min(supply[start], demand[sink], *(flow[i][j] for i, j in cells[1::2]))
            for k, (i, j) in enumerate(cells):
                flow[i][j] += amount if k % 2 == 0 else -amount
            supply[start] -= amount
            demand[sink] -= amount
            left -= amount
        if left == 0:
            return flow
    raise RuntimeError("min-cost flow ran past its phase bound")


def _raise_potentials(supply, demand, cost, flow, pot, far) -> None:
    """One Dijkstra over reduced costs from every source with supply left.

    It stops at the first sink with demand left, at distance D, and raises
    each potential by min(distance, D): vertices not settled by then are at
    least D away. Arcs on shortest paths to that sink get reduced cost 0,
    and no reduced cost turns negative. D <= max c_ij (see `_min_cost_flow`),
    so `far` = max c_ij + 1 stands for "not reached".
    """
    m, n = len(supply), len(demand)
    dist = [far] * (m + n)
    done = [False] * (m + n)
    pq = [(0, i) for i in range(m) if supply[i] > 0]  # sorted, hence a heap
    for _, i in pq:
        dist[i] = 0
    sink_pot = pot[m:]
    while pq:
        d, node = heapq.heappop(pq)
        if done[node]:
            continue
        done[node] = True
        # a settled node is never relaxed again: reduced costs are >= 0
        if node < m:
            base = d + pot[node]
            for k, c, pk in zip(range(m, m + n), cost[node], sink_pot):
                nd = base + c - pk
                if nd < dist[k]:
                    dist[k] = nd
                    heapq.heappush(pq, (nd, k))
        elif demand[node - m] > 0:
            for k in range(m + n):
                pot[k] += dist[k] if done[k] else d
            return
        else:
            j = node - m
            base = d + pot[node]
            for i in range(m):
                if flow[i][j] > 0:
                    nd = base - cost[i][j] - pot[i]
                    if nd < dist[i]:
                        dist[i] = nd
                        heapq.heappush(pq, (nd, i))
    raise RuntimeError("unbalanced transportation problem")


def _admissible_path(supply, demand, flow, tight, tight_cols) -> list[tuple[int, int]] | None:
    """Search over zero-reduced-cost residual arcs from every source with
    supply left to a sink with demand left.

    Returns the path's cells from that sink back to its source: even
    positions are arcs i -> j (they gain flow), odd ones residual arcs
    j -> i (they lose it). None when no such sink is reachable.
    """
    m, n = len(supply), len(demand)
    via_sink = [-1] * n  # the source each reached sink was reached from
    via_source: list[int | None] = [None] * m  # likewise; -1 marks a root
    stack = [i for i in range(m) if supply[i] > 0]
    for i in stack:
        via_source[i] = -1
    while stack:
        i = stack.pop()
        for j in tight[i]:
            if via_sink[j] >= 0:
                continue
            via_sink[j] = i
            if demand[j] > 0:
                cells = []
                while j >= 0:
                    i = via_sink[j]
                    cells.append((i, j))
                    j = via_source[i]
                    if j >= 0:
                        cells.append((i, j))
                return cells
            for k in tight_cols[j]:
                if via_source[k] is None and flow[k][j] > 0:
                    via_source[k] = j
                    stack.append(k)
    return None


# ---------------------------------------------------------------------------
# Oracle: integer transportation simplex (northwest corner + MODI).
# Deliberately a different algorithm family from the production solver.

ORACLE_SUPPORT_CAP = 64


def wasserstein1_oracle(
    g: Graph, mu: LocalMeasure, mv: LocalMeasure, cap: int = ORACLE_SUPPORT_CAP
) -> Fraction:
    if len(mu.support) * len(mv.support) > cap:
        raise TooLarge(
            f"support product {len(mu.support)}x{len(mv.support)} exceeds cap {cap}"
        )
    cost_m = _support_distances(g, mu.support, mv.support)
    T, supplies, demands = _integer_problem(mu, mv)
    total = _transportation_simplex(supplies, demands, cost_m)
    return Fraction(total, T)


def _transportation_simplex(
    supplies: list[int], demands: list[int], cost: list[list[int]]
) -> int:
    m, n = len(supplies), len(demands)
    x = [[0] * n for _ in range(m)]
    basis: set[tuple[int, int]] = set()

    # northwest-corner start; keep zero cells basic so the basis is a
    # spanning tree of m+n-1 cells even under degeneracy
    a = list(supplies)
    b = list(demands)
    i = j = 0
    while len(basis) < m + n - 1:
        basis.add((i, j))
        t = min(a[i], b[j])
        x[i][j] = t
        a[i] -= t
        b[j] -= t
        if i == m - 1 and j == n - 1:
            break
        if a[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1

    while True:
        u, v = _solve_duals(m, n, cost, basis)
        entering = None
        for ii in range(m):  # Bland: first negative reduced cost in row-major order
            for jj in range(n):
                if (ii, jj) in basis:
                    continue
                if cost[ii][jj] - u[ii] - v[jj] < 0:
                    entering = (ii, jj)
                    break
            if entering:
                break
        if entering is None:
            return sum(
                x[i][j] * cost[i][j] for i in range(m) for j in range(n) if x[i][j]
            )

        cycle = _basis_cycle(basis, entering)
        minus = cycle[1::2]
        theta = min(x[i][j] for i, j in minus)
        leaving = min((c for c in minus if x[c[0]][c[1]] == theta))
        for k, (ci, cj) in enumerate(cycle):
            x[ci][cj] += theta if k % 2 == 0 else -theta
        basis.add(entering)
        basis.remove(leaving)


def _solve_duals(m, n, cost, basis):
    """Solve u_i + v_j = c_ij over the basis spanning tree, anchored at u_0 = 0."""
    u: list[int | None] = [None] * m
    v: list[int | None] = [None] * n
    u[0] = 0
    by_row: dict[int, list[int]] = {}
    by_col: dict[int, list[int]] = {}
    for i, j in basis:
        by_row.setdefault(i, []).append(j)
        by_col.setdefault(j, []).append(i)
    stack = [("r", 0)]
    while stack:
        kind, k = stack.pop()
        if kind == "r":
            for j in by_row.get(k, ()):
                if v[j] is None:
                    v[j] = cost[k][j] - u[k]
                    stack.append(("c", j))
        else:
            for i in by_col.get(k, ()):
                if u[i] is None:
                    u[i] = cost[i][k] - v[k]
                    stack.append(("r", i))
    if any(val is None for val in u) or any(val is None for val in v):
        raise RuntimeError("basis is not a spanning tree")
    return u, v


def _basis_cycle(basis, entering):
    """Unique alternating cycle formed by the entering cell and the basis tree.

    Returns cells starting at `entering`, alternating row/column moves, so
    even positions gain flow and odd positions lose it.
    """
    ei, ej = entering
    # find a path from row ei to column ej through basis cells
    by_row: dict[int, list[int]] = {}
    by_col: dict[int, list[int]] = {}
    for i, j in basis:
        by_row.setdefault(i, []).append(j)
        by_col.setdefault(j, []).append(i)

    # DFS over alternating row/col moves; nodes are ("r", i) / ("c", j)
    target = ("c", ej)
    stack: list[tuple[tuple[str, int], list[tuple[int, int]]]] = [(("r", ei), [])]
    seen = {("r", ei)}
    while stack:
        (kind, k), path = stack.pop()
        if (kind, k) == target:
            return [entering] + path[::-1]
        if kind == "r":
            for j in by_row.get(k, ()):
                node = ("c", j)
                if node not in seen:
                    seen.add(node)
                    stack.append((node, path + [(k, j)]))
        else:
            for i in by_col.get(k, ()):
                node = ("r", i)
                if node not in seen:
                    seen.add(node)
                    stack.append((node, path + [(i, k)]))
    raise RuntimeError("entering cell closes no cycle; basis is inconsistent")

"""Exact discrete Wasserstein-1 between local measures.

Two independent solvers: the production path scales both measures to a
common integer grid and runs a primal-dual min-cost flow (augmentations
along zero-reduced-cost paths, and a Hungarian dual step on the potentials
whenever a search finds none); the oracle solves the same integer
transportation problem with the classical simplex (northwest-corner start +
MODI pivots). Every number in either path is an int or a Fraction; no
floats anywhere.

`wasserstein1(g, u, v)` is the production W1 between the uniform measures
on N_u and N_v. For an edge it reads the support distances from adjacency
alone (each is 0-3); for any other pair it takes them from BFS. The oracle
takes arbitrary measures, so tests can pose problems of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from operator import eq, mul

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
    total = sum(sum(map(mul, frow, crow)) for frow, crow in zip(flow, cost_m))
    return Fraction(total, T)


def _check_marginals(flow: list[list[int]], supplies: list[int], demands: list[int]) -> None:
    rows = list(map(sum, flow))
    cols = list(map(sum, zip(*flow)))
    if rows != supplies or cols != demands or min(map(min, flow)) < 0:
        raise RuntimeError("transport plan marginals do not match the measures")


# ---------------------------------------------------------------------------
# Production solver: primal-dual min-cost flow on the transportation network.
# Rows are sources, columns sinks. All arithmetic is integer.


def _min_cost_flow(
    supplies: list[int], demands: list[int], cost: list[list[int]]
) -> list[list[int]]:
    """Min-cost transportation flow for non-negative integer costs.

    Arc i -> j (source to sink) is uncapacitated with cost c_ij; the residual
    arc j -> i carries flow[i][j] back at cost -c_ij. Potentials keep every
    reduced cost c_ij + row_pot[i] - col_pot[j] non-negative, and zero on
    every cell that carries flow. Flow moves only along paths of zero-reduced-cost
    arcs: forward arcs from `tight[i]`, back arcs from `carriers[j]` (the
    rows with flow into sink j). A search from every source with supply
    left either reaches a sink with demand left, and that path is
    augmented, or fails; then the Hungarian dual step (Kuhn 1955,
    `_raise_potentials`) makes a new arc tight and the search runs again.

    At most C dual steps run, C = max c_ij, so at most C + 1 phases, four
    for an edge's 0-3 distances:
    - Sources start at potential 0 and each sink at its column minimum, so
      no reduced cost starts negative.
    - A source with supply left is a root of every search, so it is always
      reached and its potential never moves from 0.
    - A sink with demand left is never reached by a failed search, and
      demand only falls, so every dual step so far raised such a sink's
      potential by delta >= 1 (reduced costs are integers).
    - That potential starts >= 0 and stays <= c_ij + 0 <= C for any source
      i with supply left, so there is room for at most C steps.
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
    row_pot = [0] * m
    col_pot = list(map(min, zip(*cost)))
    tight = [list(compress(range(n), map(eq, row, col_pot))) for row in cost]
    carriers: list[list[int]] = [[] for _ in range(n)]
    phases = max(map(max, cost)) + 1  # the bound argued above

    while True:
        # one-arc paths need no search; they appear only where tight grows
        for i, js in enumerate(tight):
            for j in js:
                if supply[i] == 0:
                    break
                if demand[j] > 0:
                    amount = min(supply[i], demand[j])
                    if flow[i][j] == 0:
                        carriers[j].append(i)
                    flow[i][j] += amount
                    supply[i] -= amount
                    demand[j] -= amount
                    left -= amount
        while left > 0:
            via_col = [-1] * n  # the row each reached column was reached from
            via_row: list[int | None] = [None] * m  # likewise; -1 marks a root
            stack = [i for i in range(m) if supply[i] > 0]
            for i in stack:
                via_row[i] = -1
            sink = -1
            while stack and sink < 0:
                i = stack.pop()
                for j in tight[i]:
                    if via_col[j] >= 0:
                        continue
                    via_col[j] = i
                    if demand[j] > 0:
                        sink = j
                        break
                    for k in carriers[j]:
                        if via_row[k] is None:
                            via_row[k] = j
                            stack.append(k)
            if sink < 0:
                break
            # the path alternates arcs i -> j (gain flow) and j -> i (lose it)
            amount = demand[sink]
            j = sink
            while j >= 0:
                i = via_col[j]
                j = via_row[i]
                amount = min(amount, supply[i] if j < 0 else flow[i][j])
            j = sink
            while j >= 0:
                i = via_col[j]
                if flow[i][j] == 0:
                    carriers[j].append(i)
                flow[i][j] += amount
                j = via_row[i]
                if j < 0:
                    supply[i] -= amount
                else:
                    flow[i][j] -= amount
                    if flow[i][j] == 0:
                        carriers[j].remove(i)
            demand[sink] -= amount
            left -= amount
        if left == 0:
            return flow
        phases -= 1
        if phases == 0:
            raise RuntimeError("min-cost flow ran past its phase bound")
        _raise_potentials(cost, row_pot, col_pot, tight, via_row, via_col)


def _raise_potentials(cost, row_pot, col_pot, tight, via_row, via_col) -> None:
    """The dual step after a failed search, in place.

    delta is the least reduced cost from a row the search reached to a
    column it did not; every unreached row and column rises by delta.
    - Reached row -> unreached column cells fall by delta, so none turns
      negative, and those that reach 0 join `tight`.
    - Unreached row -> reached column cells rise by delta and leave
      `tight`. None carries flow, or the search would have reached its row.
    - delta >= 1: a failed search reached every column into which a
      reached row has a tight cell.
    """
    out = [j for j, i in enumerate(via_col) if i < 0]
    reached = [i for i, j in enumerate(via_row) if j is not None]
    slacks = [[cost[i][j] + row_pot[i] - col_pot[j] for j in out] for i in reached]
    delta = min(map(min, slacks))
    for i, slack in zip(reached, slacks):
        tight[i] += [j for j, s in zip(out, slack) if s == delta]
    for j in out:
        col_pot[j] += delta
    for i, j in enumerate(via_row):
        if j is None:
            row_pot[i] += delta
            tight[i] = [k for k in tight[i] if via_col[k] < 0]


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

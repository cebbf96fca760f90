"""Exact discrete Wasserstein-1 between local measures.

Two independent solvers: the production path scales both measures to a
common integer grid and runs a primal-dual min-cost flow (augmentations
along zero-reduced-cost paths, and a Hungarian dual step on the potentials
whenever a search finds none); the oracle solves the same integer
transportation problem with the classical simplex (northwest-corner start +
MODI pivots). Every number in either path is an int or a Fraction; no
floats anywhere.

`wasserstein1(g, u, v)` is the production W1 between the uniform measures
on N_u and N_v, and the checked entry point: it tests that the ids are in
range, whether (u, v) is an edge, and that an index it is given is u's;
with u's index the edge test reads the index and probes no adjacency.
Every edge's solve is `edge_cost(index, u, v)`, which reads the edge's
rows from the index, checks nothing and returns the integer cost with its
scale T, so a caller that already knows its pair is an edge and its index
u's (`curvature`'s kappa walk) calls it directly and forms one Fraction
from the two integers.

Every problem the solver is given is between two uniform measures, so it
takes its marginals as two numbers, S per row and D per column
(S m = D n = T = lcm(m, n)), and its costs as levels: per row, a tuple of
column bitmasks indexed by cost, (mask_0, ..., mask_C), that split the
columns. It runs at most C + 1 phases, C the largest cost with a cell,
which the caller passes in. For an edge the rows are the 4-tuples
`index[q]` of u's `graphs.NeighborIndex`, the 0-3 hop distances read from
adjacency alone, and one loop over them (`_edge_start`) gives C and the
starting dual: the best dual in which only u's row leaves potential 0,
each column at min(its least cost over the other rows, 1 + h_u), each row
tight on its cost-c cells in the columns at potential c. For any other
pair a dense BFS distance matrix goes through `_cost_levels`, C is its
largest distance, and the solve starts from the zero dual. Every solve
ends with one pass over the plan (`_plan_cost`) that checks its marginals
and sums its cost. The oracle takes arbitrary measures, so tests can pose
problems of their own.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .graphs import Graph, NeighborIndex, _hub_first, bfs_distances


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


def _cost_levels(cost: list[list[int]]) -> list[tuple[int, ...]]:
    """A dense cost matrix as the solver's input: per row, the tuple
    (mask_0, ..., mask_C) of the columns at each cost, C the matrix's top."""
    top = max(map(max, cost))
    out = []
    for row in cost:
        levels = [0] * (top + 1)
        for j, c in enumerate(row):
            levels[c] |= 1 << j
        out.append(tuple(levels))
    return out


def _integer_problem(mu: LocalMeasure, mv: LocalMeasure) -> tuple[int, list[int], list[int]]:
    """Common scale T plus integer supplies/demands (each summing to T)."""
    T = lcm(*(m.denominator for m in mu.mass + mv.mass))
    supplies = [int(m * T) for m in mu.mass]
    demands = [int(m * T) for m in mv.mass]
    return T, supplies, demands


def wasserstein1(g: Graph, u: int, v: int, index: NeighborIndex | None = None) -> Fraction:
    """W1 between the uniform measures on N_u and N_v, hop-count ground distance.

    This is the checked entry point: ids out of range raise ValueError (from
    `has_edge`), and so does an index that is not u's on g. Given u's index,
    whether (u, v) is an edge is read from it (`NeighborIndex.has_edge`),
    with no adjacency probe. For an edge (u, v) the integer cost comes from
    `edge_cost` on u's index and its rows for N_v; a call without one
    builds `_hub_first`'s, since every per-row step of the solver scales
    with the row count and the rows are N_v. Any other pair takes its
    distances from BFS and starts from the zero dual: every potential 0,
    each row tight on its cost-0 cells.
    """
    edge = g.has_edge(u, v) if index is None else index.has_edge(g, u, v)
    if edge:
        if index is None:
            u, v = _hub_first(g, u, v)
            index = NeighborIndex(g, u)
        return Fraction(*edge_cost(index, u, v))
    levels = _cost_levels(_support_distances(g, g.adjacency[u], g.adjacency[v]))
    n = g.degree(v)
    zero = len(levels[0]) - 1, {0: (1 << n) - 1}, [row[0] for row in levels], [0] * len(levels)
    return Fraction(*_uniform_cost(levels, n, zero))


def edge_cost(index: NeighborIndex, u: int, v: int) -> tuple[int, int]:
    """The integer W1 of edge (u, v) and its scale: (cost, T) with
    W1 = cost / T, T = lcm(deg u, deg v).

    index is u's `NeighborIndex`; its rows `index[q]` for q in N_v, in
    order, are the problem's levels: the rows are N_v and the columns N_u
    (W1 is symmetric). The solve starts from `_edge_start`, which also
    reads u's position in N_v, and `_plan_cost` checks the plan it ends
    with. Nothing here checks that (u, v) is an edge or that index is u's:
    `wasserstein1` does, and `curvature.edge_curvatures` takes its edges
    from `g.edges` and passes the index it built for the hub.
    """
    rows = index.adjacency[v]
    levels = list(map(index.__getitem__, rows))
    start = _edge_start(index, v, levels, bisect_left(rows, u))
    return _uniform_cost(levels, len(index.adjacency[u]), start)


def _uniform_cost(levels: list[tuple[int, ...]], n: int, start) -> tuple[int, int]:
    """(cost, T) of the problem between the uniform measures on the rows of
    levels and n columns, on the scale T = lcm(m, n): every row supplies
    S = T/m and every column takes D = T/n. start is (C, col_pot, tight,
    row_pot), and `_plan_cost` checks the plan."""
    m = len(levels)
    T = lcm(m, n)
    S, D = T // m, T // n
    flow = _min_cost_flow(S, D, n, levels, *start)
    return _plan_cost(flow, S, D, n, levels), T


def _edge_start(index: NeighborIndex, v: int, levels: list[tuple[int, ...]], at_u: int):
    """The start of edge (u, v), from its structure alone: C, the largest
    cost with a cell, then the starting dual: the column potentials as
    {value: mask}, each row's tight columns and the row potentials. It is
    the best dual in which every row but u's stays at potential 0.

    The rows are N_v, u's row (position at_u) among them, and the columns
    N_u. Every other row q is at potential 0, so column j can start at most
    at its least cost over those rows: 0 on the common neighbours
    N_u & N_v (`index.near[v]`; a cost-0 cell (q, p) needs p == q), then 1,
    2 or 3, read from the ORs of their cost-1 and cost-2 masks. Row u costs
    1 in every column, so with potential h_u it caps every column at
    1 + h_u. Raising h_u from t - 2 to t - 1 (t in {2, 3}) lifts the k_t
    columns whose other-row minimum is >= t by one each: the dual objective
    gains D k_t - S, D = T/n per column and S = T/m per row, which is
    positive exactly when m k_t > n. k_t falls as t grows, so h_u counts the
    t that pass, and every column starts at min(its other-row minimum,
    1 + h_u). A cell is tight when its reduced cost is zero: on a row q its
    cost-c cells in the columns at potential c, on row u the columns at the
    cap. On dense edges h_u stays 0, so the columns are 0 on the common
    neighbours and 1 elsewhere. The loop over the other rows ORs their
    cost-3 masks too, so C comes free: 3 if any is set, else 2 if a cost-2
    mask is, else 1, row u's cost everywhere.
    """
    common = index.near.get(v, 0)
    # the other rows, told from u's by identity: each row is its own tuple,
    # the index's entry for its q, so no copy of levels is needed
    u_row = levels[at_u]
    ones = twos = threes = 0
    for row in levels:
        if row is not u_row:
            ones |= row[1]
            twos |= row[2]
            threes |= row[3]
    m, n = len(levels), index.full.bit_count()
    far = index.full & ~(common | ones)  # other-row minimum >= 2
    h_u = 0
    if m * far.bit_count() > n:
        h_u = 2 if m * (far & ~twos).bit_count() > n else 1
    cap = 1 + h_u
    # at_least[c] masks the columns whose other-row minimum is >= c, c <= cap
    at_least = (index.full, index.full ^ common, far, far & ~twos)
    col_pot = {c: at_least[c] ^ at_least[c + 1] for c in range(cap) if at_least[c] != at_least[c + 1]}
    col_pot[cap] = at_least[cap]  # never empty: v's own column, or the lift's k_t columns
    # each row's cost-c cells in the columns at potential c, for the costs 0-3
    g0, g1, g2, g3 = (col_pot.get(c, 0) for c in range(4))
    tight = [d0 & g0 | d1 & g1 | d2 & g2 | d3 & g3 for d0, d1, d2, d3 in levels]
    tight[at_u] = col_pot[cap]
    row_pot = [0] * m
    row_pot[at_u] = h_u
    return 3 if threes else 2 if twos else 1, col_pot, tight, row_pot


def _plan_cost(flow: list[dict[int, int]], S: int, D: int, n: int, levels: list[tuple[int, ...]]) -> int:
    """The integer cost of a plan, after checking in the same pass that it
    has one row per row of levels, that its entries are non-negative, that
    each row sends S and that each of the n columns gets D; a plan that
    fails raises RuntimeError. A cell's cost is the index of the first mask
    of its row that holds its column, so the masks of a row must not
    overlap."""
    cols = [0] * n
    total = 0
    valid = len(flow) == len(levels)
    for row, row_levels in zip(flow, levels):
        sent = 0
        for j, amount in row.items():
            cols[j] += amount
            sent += amount
            if amount < 0:
                valid = False
            c = 0
            while not row_levels[c] >> j & 1:
                c += 1
            total += c * amount
        if sent != S:
            valid = False
    if not valid or cols != [D] * n:
        raise RuntimeError("transport plan marginals do not match the measures")
    return total


# ---------------------------------------------------------------------------
# Production solver: primal-dual min-cost flow on the transportation network.
# Rows are sources, columns sinks. All arithmetic is integer; every set of
# columns or rows is an int bitmask (bit j stands for column j, bit i for
# row i).


def _min_cost_flow(
    S: int, D: int, n: int, levels: list[tuple[int, ...]], top: int,
    col_pot: dict[int, int], tight: list[int], row_pot: list[int],
) -> list[dict[int, int]]:
    """Min-cost transportation flow for non-negative integer costs between
    uniform marginals: each of the m = len(levels) rows supplies S and each
    of the n columns takes D, with S m = D n, so every row and column
    starts with mass left and its mask bit set.

    levels[i][c] masks the columns at cost c in row i; the masks of a row
    cover every column once. top is C, the largest cost with a cell.
    col_pot, tight and row_pot are the starting dual, the zero dual or
    `_edge_start`'s for an edge; it must be feasible and tight must hold
    exactly its zero-reduced-cost cells. All three are updated in place.
    The flow comes back sparse: flow[i] maps column j to its amount.

    Arc i -> j (source to sink) is uncapacitated with cost c_ij; the residual
    arc j -> i carries flow[i][j] back at cost -c_ij. Potentials (row_pot per
    row; col_pot as {value: mask of the columns at that value}) keep every
    reduced cost c_ij + row_pot[i] - col_pot[j] non-negative, and zero on
    every cell that carries flow. Flow moves only along paths of
    zero-reduced-cost arcs: forward arcs to `tight[i]`, back arcs to
    `carriers[j]` (the rows with flow into sink j). A search from every
    source with supply left either reaches a sink with demand left, and that
    path is augmented, or fails; then the Hungarian dual step (Kuhn 1955,
    `_raise_potentials`) makes a new arc tight and the search runs again.
    Arcs without a search (a supplied row's tight cell into an open column)
    are taken first, by every supplied row in each phase. After a dual step
    only the rows it gave new tight cells have such arcs: after a failed
    search no supplied row has a tight cell into an open column, so the
    others count 0, sort first and move nothing.

    At most C dual steps run, C = max c_ij, so at most C + 1 phases, at
    most four for an edge's 0-3 distances:
    - The start is feasible: no reduced cost starts negative, and every
      sink starts at potential >= 0.
    - A source with supply left is a root of every search, so it is always
      reached and its potential h_i never moves from its start.
    - A sink with demand left is never reached by a failed search, and
      demand only falls, so every dual step so far raised such a sink's
      potential by delta >= 1 (reduced costs are integers).
    - That potential stays <= c_ij + h_i for any source i with supply left,
      and c_ij + h_i <= C: the zero start has every h_i = 0, and
      `_edge_start` lifts only row u, whose cost is 1 everywhere, and to h_u
      only if some column costs >= 1 + h_u in every other row. So there is
      room for at most C steps.
    """
    m = len(levels)
    left = S * m
    if left != D * n:
        raise RuntimeError("unbalanced transportation problem")
    flow: list[dict[int, int]] = [{} for _ in range(m)]
    supply = [S] * m
    demand = [D] * n
    # rows with supply left, columns with demand left
    supplied = (1 << m) - 1
    open_cols = (1 << n) - 1
    carriers = [0] * n
    phases = top + 1  # the bound argued above
    while True:
        # one-arc paths need no search. Rows with the fewest open tight
        # columns go first, so fewer of them find those columns already full
        # and need a search.
        order = []
        rows = supplied
        while rows:
            low = rows & -rows
            rows ^= low
            i = low.bit_length() - 1
            order.append(((tight[i] & open_cols).bit_count(), i))
        order.sort()
        for _, i in order:
            hit = tight[i] & open_cols
            row, have, row_bit = flow[i], supply[i], 1 << i
            while hit and have:
                bit = hit & -hit
                hit ^= bit
                j = bit.bit_length() - 1
                amount = min(have, demand[j])
                row[j] = row.get(j, 0) + amount
                carriers[j] |= row_bit
                have -= amount
                demand[j] -= amount
                left -= amount
                if demand[j] == 0:
                    open_cols ^= bit
            supply[i] = have
            if not have:
                supplied ^= row_bit
        while left > 0:
            via_col = [-1] * n  # the row each reached column was reached from
            via_row = [-1] * m  # likewise for rows; -1 marks a root
            stack = []
            rows = supplied
            while rows:
                low = rows & -rows
                rows ^= low
                stack.append(low.bit_length() - 1)
            seen_rows = supplied
            seen_cols = 0
            sink = -1
            while stack:
                i = stack.pop()
                new = tight[i] & ~seen_cols
                hit = new & open_cols
                if hit:
                    sink = (hit & -hit).bit_length() - 1
                    via_col[sink] = i
                    break
                seen_cols |= new
                while new:
                    bit = new & -new
                    new ^= bit
                    j = bit.bit_length() - 1
                    via_col[j] = i
                    fresh = carriers[j] & ~seen_rows
                    seen_rows |= fresh
                    while fresh:
                        low = fresh & -fresh
                        fresh ^= low
                        k = low.bit_length() - 1
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
                row = flow[i]
                row[j] = row.get(j, 0) + amount
                carriers[j] |= 1 << i
                j = via_row[i]
                if j >= 0:
                    if row[j] == amount:
                        del row[j]
                        carriers[j] ^= 1 << i
                    else:
                        row[j] -= amount
                else:
                    supply[i] -= amount
                    if not supply[i]:
                        supplied ^= 1 << i
            demand[sink] -= amount
            if not demand[sink]:
                open_cols ^= 1 << sink
            left -= amount
        if left == 0:
            return flow
        phases -= 1
        if phases == 0:
            raise RuntimeError("min-cost flow ran past its phase bound")
        _raise_potentials(levels, row_pot, col_pot, tight, seen_rows, ((1 << n) - 1) & ~seen_cols)


def _raise_potentials(levels, row_pot, col_pot, tight, reached, out) -> None:
    """The dual step after a failed search, in place.

    reached masks the rows the search reached and out the columns it did
    not. delta is the least reduced cost from a reached row to an out
    column; every unreached row and every out column rises by delta.
    - Reached row -> out column cells fall by delta, so none turns negative,
      and those that reach 0 join `tight`.
    - Unreached row -> reached column cells rise by delta and leave `tight`.
      None carries flow, or the search would have reached its row.
    - delta >= 1: a failed search reached every column into which a
      reached row has a tight cell.
    """
    out_groups = [(value, group & out) for value, group in col_pot.items() if group & out]
    delta = None
    best = []  # (row, cells) toward the out columns at reduced cost delta
    rows = reached
    while rows:
        low = rows & -rows
        rows ^= low
        i = low.bit_length() - 1
        pot = row_pot[i]
        for c, mask in enumerate(levels[i]):
            mask &= out
            if mask:
                for value, group in out_groups:
                    cells = mask & group
                    if cells:
                        slack = c + pot - value
                        if delta is None or slack < delta:
                            delta = slack
                            best = [(i, cells)]
                        elif slack == delta:
                            best.append((i, cells))
    for i, cells in best:
        tight[i] |= cells
    rows = ((1 << len(row_pot)) - 1) & ~reached
    while rows:
        low = rows & -rows
        rows ^= low
        i = low.bit_length() - 1
        row_pot[i] += delta
        tight[i] &= out
    raised: dict[int, int] = {}
    for value, group in col_pot.items():
        for pot, part in ((value, group & ~out), (value + delta, group & out)):
            if part:
                raised[pot] = raised.get(pot, 0) | part
    col_pot.clear()
    col_pot.update(raised)


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

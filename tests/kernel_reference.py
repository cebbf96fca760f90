"""Independent references the tests hold the fast kernels to: decoded cost
levels against BFS distances, an edge's structural starting dual against
its BFS cost matrix, the dual with every column at its least cost and the
brute-forced best dual in which only u's row leaves potential 0, the
transportation dual's objective and feasibility, the edge set
S_statement and the set formulation of `curvature.bottleneck_sets` that
the mask counts replaced, the dense (A+I)^k product that the local
walk rows of `mpnn` replaced, and the edges whose problem a graph edit
changes, from dense BFS cost matrices."""

from bisect import bisect_left
from math import lcm
from operator import mul

from orckit.curvature import BottleneckSets
from orckit.graphs import NeighborIndex, bfs_distances
from orckit.transport import _edge_start, _support_distances


def decoded(levels, n):
    """Per-row levels, each a tuple of column masks indexed by cost, as a
    dense m x n matrix, after checking that each row's masks split the n
    columns exactly."""
    out = []
    for row in levels:
        assert isinstance(row, tuple)
        assert sum(mask.bit_count() for mask in row) == n
        full = 0
        for mask in row:
            full |= mask
        assert full == (1 << n) - 1
        out.append([next(c for c, mask in enumerate(row) if mask >> j & 1) for j in range(n)])
    return out


def potentials(col_pot, n):
    """The column potentials {value: mask} as a list of n values."""
    return decoded([tuple(col_pot.get(c, 0) for c in range(max(col_pot) + 1))], n)[0]


def edge_levels_match_bfs(g, u, v):
    """The cost levels of edge (u, v) from u's index (rows N_v, columns
    N_u) decode to the BFS distances between those supports."""
    index = NeighborIndex(g, u)
    rows, cols = g.adjacency[v], g.adjacency[u]
    levels = [index[q] for q in rows]
    return decoded(levels, len(cols)) == _support_distances(g, rows, cols)


def all_distances(g):
    """dist[a][b], the BFS hop distance between every pair of vertices."""
    return [bfs_distances(g, s) for s in range(g.vertex_count)]


def dual_value(supplies, demands, row_pot, col_values):
    """The transportation dual objective sum d_j g_j - sum s_i h_i."""
    return sum(map(mul, demands, col_values)) - sum(map(mul, supplies, row_pot))


def dual_feasible(cost, row_pot, col_values):
    """Every reduced cost c_ij + h_i - g_j is non-negative."""
    return all(c + h >= gj for row, h in zip(cost, row_pot) for c, gj in zip(row, col_values))


def edge_start_holds(g, u, v, dist):
    """The start that edge (u, v) reads from its structure (rows N_v,
    columns N_u), held to the dense BFS cost matrix of those supports, dist
    being `all_distances(g)`: its C is the matrix's largest cost, its dual
    is feasible on every cell, its tight masks are exactly the cells of
    zero reduced cost, and its dual value is at least that of the dual
    whose columns sit at their least costs and whose rows all sit at 0."""
    index = NeighborIndex(g, u)
    rows, cols = g.adjacency[v], g.adjacency[u]
    m, n = len(rows), len(cols)
    levels = [index[q] for q in rows]
    cost = [[dist[q][p] for p in cols] for q in rows]
    top, col_pot, tight, row_pot = _edge_start(index, v, levels, rows.index(u))
    col_values = potentials(col_pot, n)
    zero = [sum(1 << j for j in range(n) if cost[i][j] + row_pot[i] == col_values[j]) for i in range(m)]
    T = lcm(m, n)
    supplies, demands = [T // m] * m, [T // n] * n
    minima = [min(column) for column in zip(*cost)]
    return (
        top == max(map(max, cost))
        and dual_feasible(cost, row_pot, col_values)
        and tight == zero
        and dual_value(supplies, demands, row_pot, col_values) >= dual_value(supplies, demands, [0] * m, minima)
    )


def one_free_row_dual_values(g, u, v, dist):
    """The dual values of edge (u, v) (rows N_v, columns N_u) in which row u
    sits at h and every other row at 0, for h in 0, 1, 2, with each column
    at min(its least BFS cost over the other rows, 1 + h): the best dual of
    that shape for each h, since row u costs 1 in every column."""
    rows, cols = g.adjacency[v], g.adjacency[u]
    m, n = len(rows), len(cols)
    others = [[dist[q][p] for p in cols] for q in rows if q != u]
    # with no other row (deg v = 1) every column sits at the cap 1 + h <= 3
    minima = [min(column) for column in zip(*others)] if others else [3] * n
    T = lcm(m, n)
    supplies, demands = [T // m] * m, [T // n] * n
    values = []
    for h in range(3):
        row_pot = [h if q == u else 0 for q in rows]
        values.append(dual_value(supplies, demands, row_pot, [min(c, 1 + h) for c in minima]))
    return values


def edge_start_is_best_one_free_row(g, u, v, dist):
    """`_edge_start`'s dual for edge (u, v) is worth the most of
    `one_free_row_dual_values`, and its h_u is the least h that gets it."""
    index = NeighborIndex(g, u)
    rows, cols = g.adjacency[v], g.adjacency[u]
    m, n = len(rows), len(cols)
    _, col_pot, _, row_pot = _edge_start(index, v, [index[q] for q in rows], rows.index(u))
    T = lcm(m, n)
    value = dual_value([T // m] * m, [T // n] * n, row_pot, potentials(col_pot, n))
    values = one_free_row_dual_values(g, u, v, dist)
    return value == max(values) and row_pot[rows.index(u)] == values.index(max(values))


def _max_bipartite_matching(left, adj):
    match = {}

    def augment(p, seen):
        for q in adj.get(p, ()):
            if q in seen:
                continue
            seen.add(q)
            if q not in match or augment(match[q], seen):
                match[q] = p
                return True
        return False

    return sum(1 for p in left if augment(p, set()))


def statement_edges(g, u, v):
    """S_statement of edge (u, v) as g.edges' own tuples, in its order: every
    edge between N~_u - {v} and N~_v - {u}, N~ the closed neighbourhood."""
    adj = g.adjacency
    side_u = (set(adj[u]) | {u}) - {v}
    side_v = (set(adj[v]) | {v}) - {u}
    found = {(a, b) if a < b else (b, a) for a in side_u for b in side_v.intersection(adj[a])}
    return tuple(g.edges[bisect_left(g.edges, e)] for e in sorted(found))


def participation(edges):
    """{vertex: the number of the edges that meet it}."""
    count = {}
    for a, b in edges:
        count[a] = count.get(a, 0) + 1
        count[b] = count.get(b, 0) + 1
    return count


def participation_hypothesis_holds(g, u, v):
    """No vertex meets more than n/m edges of S_statement, n and m the larger
    and the smaller degree of u and v."""
    n, m = sorted((g.degree(u), g.degree(v)), reverse=True)
    return all(c * m <= n for c in participation(statement_edges(g, u, v)).values())


def bottleneck_sets_from_sets(g, u, v):
    # orientation convention: deg(hu) = n >= m = deg(hv)
    hu, hv = (u, v) if g.degree(u) >= g.degree(v) else (v, u)
    n_u, n_v = set(g.adjacency[hu]), set(g.adjacency[hv])
    s_statement = statement_edges(g, hu, hv)

    n0 = len(n_u & n_v)
    excl_u = sorted(n_u - {hv} - n_v)
    excl_v = n_v - {hu} - n_u
    adj = {p: excl_v.intersection(g.adjacency[p]) for p in excl_u}
    n1 = _max_bipartite_matching(excl_u, adj)
    max_load = max(participation(s_statement).values())
    return BottleneckSets(s_size=len(s_statement), max_load=max_load, n0=n0, n1=n1)


def dense_walk_counts(g, depth):
    """(A+I)^depth as a dense matrix product over all n vertices."""
    n = g.vertex_count
    base = [[1 if i == j or g.has_edge(i, j) else 0 for j in range(n)] for i in range(n)]
    result = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(depth):
        result = [
            [sum(row[t] * base[t][j] for t in range(n)) for j in range(n)] for row in result
        ]
    return result


def _edge_problems(g):
    """{(u, v): (N_u, N_v, cost matrix)} per edge, u the endpoint of higher
    degree (the smaller id on a tie); the matrix holds the BFS distance from
    each row q in N_v to each column p in N_u, both in adjacency order."""
    dist = all_distances(g)
    out = {}
    for a, b in g.edges:
        da, db = g.degree(a), g.degree(b)
        u, v = (a, b) if (da, -a) > (db, -b) else (b, a)
        rows, cols = g.adjacency[v], g.adjacency[u]
        out[u, v] = (rows, cols, [[dist[q][p] for p in cols] for q in rows])
    return out


def changed_edge_problems(before, after):
    """The edges (a, b), a < b, of `after` that pose a W1 problem (hub-first
    orientation, supports and cost matrix) other than the one the same edge
    posed in `before`; an edge new to `after` is among them."""
    old = _edge_problems(before)
    return {(min(key), max(key)) for key, problem in _edge_problems(after).items() if old.get(key) != problem}

"""A fixed pure-Python kernel that measures how fast the machine is right now.

On a shared VM the same orckit command can run 35% slower for minutes at a
time. The kernel does the kind of work orckit's per-edge curvature does:
a depth-3 BFS from each neighbour of u, then shortest-path searches over
the dense cost matrix between the neighbourhoods of u and v. It is the
benchmark's own code and never changes, so its time follows the machine,
not the program. A time multiplied by KERNEL_REF_S / (median kernel time
over a run) is in reference seconds: seconds on a machine where one kernel
pass takes KERNEL_REF_S.
"""

from __future__ import annotations

import heapq
from time import perf_counter

from workloads import er_edges

KERNEL_REF_S = 0.1
_N = 120
_EDGES = er_edges(_N, 0.06, 12345)[::3]
_ADJ: list[list[int]] = [[] for _ in range(_N)]
for _u, _v in er_edges(_N, 0.06, 12345):
    _ADJ[_u].append(_v)
    _ADJ[_v].append(_u)


def _bfs(source: int, limit: int) -> list[int]:
    dist = [-1] * _N
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier and d < limit:
        d += 1
        nxt = []
        for u in frontier:
            for w in _ADJ[u]:
                if dist[w] == -1:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def _dijkstra(cost: list[list[int]], source: int) -> list[int | None]:
    """Shortest paths from row `source` over the complete bipartite graph
    rows <-> columns with arc lengths cost[i][j]."""
    m, n = len(cost), len(cost[0])
    dist: list[int | None] = [None] * (m + n)
    dist[source] = 0
    pq = [(0, source)]
    while pq:
        d, node = heapq.heappop(pq)
        if d > dist[node]:
            continue
        if node < m:
            arcs = [(m + j, cost[node][j]) for j in range(n)]
        else:
            arcs = [(i, cost[i][node - m]) for i in range(m)]
        for nxt, c in arcs:
            nd = d + c
            if dist[nxt] is None or nd < dist[nxt]:
                dist[nxt] = nd
                heapq.heappush(pq, (nd, nxt))
    return dist


def kernel_s() -> float:
    """Seconds for one pass of the kernel."""
    t0 = perf_counter()
    for u, v in _EDGES:
        rows = [_bfs(p, 3) for p in _ADJ[u]]
        cost = [[r[q] for q in _ADJ[v]] for r in rows]
        for i in range(len(cost)):
            _dijkstra(cost, i)
    return perf_counter() - t0

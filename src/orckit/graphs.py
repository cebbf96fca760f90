"""Graph representation, shortest-path distances, the per-vertex
`NeighborIndex` (a dict of an edge kernel's cost rows, `index[q]`, each
a tuple of masks indexed by cost), generators of at most
MAX_GENERATED_EDGES edges, and the test corpus.

Vertices are dense 0-based integers. Graphs are simple, undirected,
connected and have at least one edge; those invariants are enforced at
construction time because the curvature definitions downstream are
meaningless without them. `has_edge` bisects the sorted adjacency rows and
refuses a vertex id outside 0..n-1. `edit_edge` adds or removes one edge
by editing those rows and the edge tuple, with no rebuild.
"""

from __future__ import annotations

import itertools
import json
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field


class GraphError(Exception):
    """Base class for graph construction problems."""


class ParseError(GraphError):
    """Malformed edge-list or JSON input."""


class GraphInvalid(GraphError):
    """Structurally invalid graph (no edges, self-loop, duplicate edge, disconnected)."""


class Unsatisfiable(GraphError):
    """A random family could not produce a connected graph within its retry budget."""


class TooManyEdges(GraphError):
    """A generated family would have more than MAX_GENERATED_EDGES edges."""


UNREACHABLE = -1


@dataclass(frozen=True)
class Graph:
    """Immutable simple connected undirected graph with at least one edge.

    adjacency[u] is sorted ascending; edges are canonical (u < v, sorted
    lexicographically). id_map holds the original vertex labels when the
    input used sparse ids (id_map[i] = original label of vertex i), and is
    None for dense inputs.
    """

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    id_map: tuple[int, ...] | None = field(default=None, compare=False)

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether (u, v) is an edge. An id outside 0..n-1 raises ValueError
        rather than wrap round as a negative tuple index would."""
        n = self.vertex_count
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex {v if 0 <= u < n else u} out of range for {n} vertices")
        row = self.adjacency[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def to_json_obj(self) -> dict:
        return {"n": self.vertex_count, "edges": [[u, v] for u, v in self.edges]}

    def to_edge_list_text(self) -> str:
        """One "u v" line per edge, in the input's labels when id_map is set,
        so that parse_edge_list reads the text back to this graph."""
        ids = self.id_map or range(self.vertex_count)
        return "".join(f"{ids[u]} {ids[v]}\n" for u, v in self.edges)


def _build(vertex_count: int, edge_pairs, id_map=None) -> Graph:
    pairs = list(edge_pairs)
    if not pairs:
        raise GraphInvalid("graph has no edges")
    # a connected graph has at least n - 1 edges; checking that first keeps
    # a huge declared n from allocating adjacency it can never fill
    if vertex_count > len(pairs) + 1:
        raise GraphInvalid(
            f"graph is disconnected ({vertex_count} vertices but only {len(pairs)} edges)"
        )
    seen = set()
    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in pairs:
        if u == v:
            raise GraphInvalid(f"self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphInvalid(f"edge ({u},{v}) out of range for {vertex_count} vertices")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphInvalid(f"duplicate edge ({key[0]},{key[1]})")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    g = Graph(
        vertex_count=vertex_count,
        adjacency=tuple(tuple(sorted(ns)) for ns in adj),
        edges=tuple(sorted(seen)),
        id_map=tuple(id_map) if id_map is not None else None,
    )
    _check_connected(g)
    return g


def _check_connected(g: Graph) -> None:
    dist = bfs_distances(g, 0)
    bad = [v for v in range(g.vertex_count) if dist[v] == UNREACHABLE]
    if bad:
        raise GraphInvalid(f"graph is disconnected ({len(bad)} vertices unreachable from 0)")


def from_edges(vertex_count: int, edge_pairs) -> Graph:
    """Build a validated Graph from explicit edge pairs over 0..vertex_count-1."""
    return _build(vertex_count, edge_pairs)


def edit_edge(g: Graph, edge: tuple[int, int], add: bool) -> Graph:
    """g with the edge (a, b), a < b, added (add) or removed by one local
    edit of a's and b's sorted adjacency rows and the sorted edges; the
    result equals `from_edges` of the edited edges. Adding a present edge or
    removing an absent one raises ValueError. A removal may disconnect g,
    so a caller that needs a valid Graph tests that a still reaches b."""
    a, b = edge
    if g.has_edge(a, b) == add:
        raise ValueError(f"({a},{b}) is {'already' if add else 'not'} an edge")
    change = insort if add else list.remove
    adjacency = list(g.adjacency)
    for x, y in ((a, b), (b, a)):
        row = list(adjacency[x])
        change(row, y)
        adjacency[x] = tuple(row)
    edges = list(g.edges)
    change(edges, edge)
    return Graph(g.vertex_count, tuple(adjacency), tuple(edges), g.id_map)


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v" lines; '#' starts a comment line.

    Sparse vertex ids are compacted to 0..k-1 with the original labels kept
    in id_map for report emission.
    """
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two vertex ids, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex id in {line!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id in {line!r}")
        pairs.append((u, v))
    if not pairs:
        raise ParseError("no edges found")
    used = sorted({x for e in pairs for x in e})
    dense = used == list(range(len(used)))
    remap = {orig: i for i, orig in enumerate(used)}
    return _build(
        len(used),
        [(remap[u], remap[v]) for u, v in pairs],
        id_map=None if dense else used,
    )


def parse_graph_json(text: str) -> Graph:
    """Parse the JSON graph format {"n": int, "edges": [[u,v],...]}, with
    an optional "vertex_ids" list that becomes the graph's id_map."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ParseError('graph JSON must be an object with "n" and "edges"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ParseError('"n" must be a non-negative integer')
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise ParseError('"edges" must be a list of [u, v] pairs')
    pairs = []
    for e in edges:
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in e)
        ):
            raise ParseError(f"bad edge entry {e!r}")
        pairs.append((e[0], e[1]))
    return _build(n, pairs, id_map=_vertex_ids(obj, n))


def _vertex_ids(obj: dict, n: int) -> list[int] | None:
    """The optional "vertex_ids" of a graph JSON: n distinct non-negative
    labels, as `rewire --out-graph` writes them for sparse-labelled input.
    Labels 0..n-1 in order are the dense ids, so they give no id_map."""
    if "vertex_ids" not in obj:
        return None
    ids = obj["vertex_ids"]
    if (
        not isinstance(ids, list)
        or len(ids) != n
        or not all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in ids)
        or len(set(ids)) != n
    ):
        raise ParseError(f'"vertex_ids" must be a list of {n} distinct non-negative integers')
    return None if ids == list(range(n)) else ids


def bfs_distances(g: Graph, source: int) -> tuple[int, ...]:
    """Hop distances from source to every vertex; UNREACHABLE marks the rest."""
    if not (0 <= source < g.vertex_count):
        raise ValueError(f"source {source} out of range")
    dist = [UNREACHABLE] * g.vertex_count
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in g.adjacency[u]:
                if dist[w] == UNREACHABLE:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return tuple(dist)


def _hub_first(g: Graph, u: int, v: int) -> tuple[int, int]:
    """(u, v) led by the endpoint of higher degree, the smaller id on a tie."""
    du, dv = len(g.adjacency[u]), len(g.adjacency[v])
    return (u, v) if du > dv or (du == dv and u < v) else (v, u)


class NeighborIndex(dict):
    """Bitmask view of one vertex u's neighbourhood, for every edge (u, v),
    and the table of those edges' cost-level rows.

    Bit i stands for the i-th neighbour of u in adjacency order. pos[p] is
    p's bit for p in N_u, and near[w] is the mask of u's neighbours adjacent
    to w, for each w within two hops of u. Building both costs the sum of
    the degrees in N_u, and the index holds nothing beyond u's 2-hop
    neighbourhood.

    index[q] is row q of an edge's cost levels, for q a neighbour of some v
    in N_u: the tuple (d0, d1, d2, d3), dd the mask of u's neighbours at hop
    distance d from q, so a row is indexed by cost and its four masks split
    `full`. Any p in N_u reaches such a q along p-u-v-q, so
    d(p, q) <= 3, and the shorter cases are local: 0 if p == q, 1 if p and q
    are adjacent, 2 if they share a neighbour. The rows of the edges (u, v)
    overlap, so each q is worked out once, on its first lookup. An index
    starts with no rows, so it is falsy: test it with `is None`.

    hub is u and adjacency g's rows; `has_edge` holds a caller's index to
    them.
    """

    __slots__ = ("adjacency", "hub", "pos", "near", "full")

    def __init__(self, g: Graph, u: int):
        super().__init__()
        adjacency = self.adjacency = g.adjacency
        self.hub = u
        pos: dict[int, int] = {}
        near: dict[int, int] = {}
        for i, p in enumerate(adjacency[u]):
            bit = 1 << i
            pos[p] = bit
            for w in adjacency[p]:
                near[w] = near.get(w, 0) | bit
        self.pos, self.near = pos, near
        self.full = (1 << len(adjacency[u])) - 1

    def has_edge(self, g: Graph, u: int, v: int) -> bool:
        """Whether (u, v) is an edge, read from pos, so a v among u's
        neighbours needs no adjacency probe; any other v goes to
        `Graph.has_edge` for its range check. Raises ValueError unless this
        is u's index on g: any other index poses another vertex's or another
        graph's problem, and W1 or the counts come out wrong or fail at
        random."""
        if self.hub != u:
            raise ValueError(f"index is vertex {self.hub}'s, not vertex {u}'s")
        if self.adjacency is not g.adjacency:
            raise ValueError("index was built on another graph")
        return v in self.pos or g.has_edge(u, v)

    def __missing__(self, q: int) -> tuple[int, int, int, int]:
        near = self.near.get
        d0 = self.pos.get(q, 0)
        d1 = near(q, 0)
        shared = 0  # the neighbours of u that share a neighbour with q
        for w in self.adjacency[q]:
            shared |= near(w, 0)
        row = self[q] = d0, d1, shared & ~(d0 | d1), self.full & ~(d0 | d1 | shared)
        return row


# ---------------------------------------------------------------------------
# Generators


def _complete(n: int) -> Graph:
    return _build(n, itertools.combinations(range(n), 2))


def _path(n: int) -> Graph:
    return _build(n, ((i, i + 1) for i in range(n - 1)))


def _cycle(n: int) -> Graph:
    if n < 3:
        raise GraphInvalid("cycle needs at least 3 vertices")
    return _build(n, [(i, (i + 1) % n) for i in range(n)])


def _star(n: int) -> Graph:
    # n leaves around center 0, n+1 vertices total
    if n < 1:
        raise GraphInvalid("star needs at least 1 leaf")
    return _build(n + 1, ((0, i) for i in range(1, n + 1)))


def _double_star(a: int, b: int) -> Graph:
    # centers 0 and 1 adjacent with degrees a and b: a-1 leaves on 0, b-1 on 1
    if a < 1 or b < 1:
        raise GraphInvalid("center degrees must be at least 1")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a - 1)]
    edges += [(1, 1 + a + i) for i in range(b - 1)]
    return _build(a + b, edges)


def _barbell(k: int) -> Graph:
    # two k-cliques {0..k-1} and {k..2k-1} joined by the bridge (k-1, k)
    if k < 3:
        raise GraphInvalid("barbell cliques need at least 3 vertices")
    edges = list(itertools.combinations(range(k), 2))
    edges += [(k + i, k + j) for i, j in itertools.combinations(range(k), 2)]
    edges.append((k - 1, k))
    return _build(2 * k, edges)


def _cocktail_party(m: int) -> Graph:
    # K_{2m} minus the perfect matching {(2i, 2i+1)}
    if m < 2:
        raise GraphInvalid("cocktail_party needs at least 2 pairs")
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(2 * m), 2)
        if not (u // 2 == v // 2)
    ]
    return _build(2 * m, edges)


_ER_RETRY_BUDGET = 1000
_ER_PAIR_BUDGET = 5 * 10**7  # pairs drawn over all tries of one call: 5-6 s at ~9 M draws/s
MAX_GENERATED_EDGES = 10**6


def _erdos_renyi(n: int, p: float, seed: int) -> Graph:
    if n < 2:
        raise GraphInvalid("erdos_renyi needs at least 2 vertices")
    if not 0.0 <= p <= 1.0:
        raise GraphInvalid("p must lie in [0, 1]")
    per_try = n * (n - 1) // 2  # every try draws each pair once
    if per_try > _ER_PAIR_BUDGET:
        raise Unsatisfiable(f"erdos_renyi(n={n}) draws {per_try} pairs a try, past its bound of {_ER_PAIR_BUDGET}")
    tries = min(_ER_RETRY_BUDGET, _ER_PAIR_BUDGET // per_try)
    for salt in range(tries):
        # string seeds hash stably (sha512) across processes and versions,
        # unlike tuple seeds which go through randomized hash()
        rng = random.Random(f"er:{n}:{seed}:{salt}")
        drawn = (e for e in itertools.combinations(range(n), 2) if rng.random() < p)
        pairs = list(itertools.islice(drawn, MAX_GENERATED_EDGES + 1))
        if len(pairs) > MAX_GENERATED_EDGES:
            raise TooManyEdges(f"erdos_renyi drew more than generate's bound of {MAX_GENERATED_EDGES} edges")
        try:
            return _build(n, pairs)
        except GraphInvalid:
            continue
    raise Unsatisfiable(
        f"erdos_renyi(n={n}, p={p}, seed={seed}) stayed disconnected after {tries} tries, "
        f"within its bounds of {_ER_RETRY_BUDGET} tries and {_ER_PAIR_BUDGET} drawn pairs"
    )


def _random_tree(n: int, seed: int) -> Graph:
    if n < 2:
        raise GraphInvalid("random_tree needs at least 2 vertices")
    if n == 2:
        return _build(2, [(0, 1)])
    rng = random.Random(f"tree:{n}:{seed}")
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    edges = []
    # standard Prufer decode: repeatedly attach the smallest leaf
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return _build(n, edges)


# family: (builder, its parameters, its edge count where that has a closed
# form); the quadratic counts clamp negative sizes, which build no edges
_FAMILIES = {
    "complete": (_complete, ("n",), lambda n: max(n, 0) * (n - 1) // 2),
    "path": (_path, ("n",), lambda n: n - 1),
    "cycle": (_cycle, ("n",), lambda n: n),
    "star": (_star, ("n",), lambda n: n),
    "double_star": (_double_star, ("a", "b"), lambda a, b: a + b - 1),
    "barbell": (_barbell, ("k",), lambda k: max(k, 0) * (k - 1) + 1),
    "cocktail_party": (_cocktail_party, ("m",), lambda m: 2 * max(m, 0) * (m - 1)),
    "erdos_renyi": (_erdos_renyi, ("n", "p", "seed"), None),
    "random_tree": (_random_tree, ("n", "seed"), lambda n, seed: n - 1),
}


def generate(family: str, **params) -> Graph:
    """Deterministic graph families for the corpus and the CLI.

    Families: complete(n), path(n), cycle(n), star(n), double_star(a, b),
    barbell(k), cocktail_party(m), erdos_renyi(n, p, seed), random_tree(n, seed).
    A family of more than MAX_GENERATED_EDGES edges raises TooManyEdges:
    before any edge is built where its count has a closed form, and once
    erdos_renyi has drawn that many otherwise.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    build, names, edge_count = _FAMILIES[family]
    missing = [name for name in names if name not in params]
    if missing:
        raise ValueError(f"family {family!r} is missing parameter {missing[0]!r}")
    args = [params[name] for name in names]
    count = edge_count(*args) if edge_count else 0
    if count > MAX_GENERATED_EDGES:
        raise TooManyEdges(f"{family} would have {count} edges, over generate's bound of {MAX_GENERATED_EDGES}")
    return build(*args)


# ---------------------------------------------------------------------------
# Test corpus


def enumerate_connected_five_vertex() -> list[Graph]:
    """All connected simple graphs on 5 vertices, one labeled representative
    per isomorphism class (there are 21)."""
    pair_list = list(itertools.combinations(range(5), 2))
    perms = list(itertools.permutations(range(5)))
    seen_masks: set[int] = set()
    reps: list[Graph] = []
    for mask in range(1 << 10):
        if mask in seen_masks:
            continue
        edges = [e for i, e in enumerate(pair_list) if mask >> i & 1]
        try:
            g = _build(5, edges)
        except GraphInvalid:
            continue
        reps.append(g)
        # mark the whole isomorphism orbit as seen
        index = {e: i for i, e in enumerate(pair_list)}
        for perm in perms:
            pm = 0
            for u, v in edges:
                a, b = perm[u], perm[v]
                pm |= 1 << index[(min(a, b), max(a, b))]
            seen_masks.add(pm)
    return reps


def corpus() -> list[tuple[str, Graph]]:
    """Deterministic named graph corpus used by the verification suite and tests."""
    out: list[tuple[str, Graph]] = []
    for n in range(3, 9):
        out.append((f"complete_{n}", _complete(n)))
    for n in (2, 3, 4, 5, 10, 20):
        out.append((f"path_{n}", _path(n)))
    for n in (3, 4, 5, 6, 10, 20):
        out.append((f"cycle_{n}", _cycle(n)))
    for n in (3, 4, 5, 10, 19):
        out.append((f"star_{n}", _star(n)))
    for a, b in ((3, 3), (2, 4), (5, 5)):
        out.append((f"double_star_{a}_{b}", _double_star(a, b)))
    for k in (3, 4, 5):
        out.append((f"barbell_{k}", _barbell(k)))
    for m in (2, 3, 4, 5):
        out.append((f"cocktail_party_{m}", _cocktail_party(m)))
    for seed in range(50):
        out.append((f"erdos_renyi_20_03_s{seed}", _erdos_renyi(20, 0.3, seed)))
    for n in (10, 20):
        for seed in range(3):
            out.append((f"random_tree_{n}_s{seed}", _random_tree(n, seed)))
    for i, g in enumerate(enumerate_connected_five_vertex()):
        out.append((f"five_vertex_{i:02d}", g))
    return out

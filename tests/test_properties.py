"""Property-based checks on random connected graphs of at most 12 vertices:
`wasserstein1` against the simplex oracle on edges and on non-adjacent
pairs, curvature reports under relabelling, every structural bound of
`run_suite` beyond the fixed corpus, and the one-layer gap bounds under
drawn layer specs and features.

`derandomize=True` makes hypothesis draw the same examples on every run, so
these tests are as deterministic as the rest of the suite.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from orckit.curvature import curvature_profile, ricci_curvature
from orckit.diagnostics import _one_layer_checks, run_suite
from orckit.graphs import bfs_distances, from_edges
from orckit.mpnn import LayerSpec, Update
from orckit.transport import (
    _edge_distances,
    _support_distances,
    local_measure,
    wasserstein1,
    wasserstein1_oracle,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150, database=None)


@st.composite
def connected_graphs(draw, max_vertices=12):
    """A random spanning tree (vertex i hangs off one of 0..i-1) plus each
    remaining pair with a drawn density, from trees to complete graphs."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    edges = {(draw(st.integers(min_value=0, max_value=i - 1)), i) for i in range(1, n)}
    others = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    density = draw(st.integers(min_value=0, max_value=10))
    rolls = draw(st.lists(st.integers(0, 9), min_size=len(others), max_size=len(others)))
    edges |= {pair for pair, r in zip(others, rolls) if r < density}
    return from_edges(n, sorted(edges))


def _oracle(g, u, v):
    return wasserstein1_oracle(g, local_measure(g, u), local_measure(g, v), cap=4096)


@PROPERTY
@given(connected_graphs(), st.data())
def test_edge_kernel_matches_bfs_path_and_oracle(g, data):
    """Edges take the closed-form 0-3 support distances, and up to five drawn
    non-adjacent pairs the BFS ones; both must equal the oracle."""
    for u, v in g.edges:
        w1 = wasserstein1(g, u, v)
        assert w1 == _oracle(g, u, v)
        assert ricci_curvature(g, u, v) == 1 - w1
    n = g.vertex_count
    apart = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    if not apart:
        return
    picked = st.lists(st.sampled_from(apart), min_size=min(5, len(apart)), max_size=5, unique=True)
    for u, v in data.draw(picked):
        w1 = wasserstein1(g, u, v)
        assert w1 == _oracle(g, u, v)
        assert ricci_curvature(g, u, v) == 1 - w1 / bfs_distances(g, u)[v]


@PROPERTY
@given(connected_graphs())
def test_closed_form_distances_match_bfs(g):
    for u, v in g.edges:
        rows, cols = g.adjacency[u], g.adjacency[v]
        assert _edge_distances(g, rows, cols) == _support_distances(g, rows, cols)


@PROPERTY
@given(connected_graphs(), st.data())
def test_reports_are_invariant_under_relabelling(g, data):
    n = g.vertex_count
    perm = data.draw(st.permutations(range(n)))

    def image(e):
        a, b = perm[e[0]], perm[e[1]]
        return (a, b) if a < b else (b, a)

    h = from_edges(n, [image(e) for e in g.edges])
    mapped = {r.edge: r for r in curvature_profile(h).reports}
    for r in curvature_profile(g).reports:
        s = mapped[image(r.edge)]
        assert (s.kappa, s.w1, s.common_neighbors) == (r.kappa, r.w1, r.common_neighbors)
        assert {s.deg_u, s.deg_v} == {r.deg_u, r.deg_v}
        assert (s.sets.n0, s.sets.n1) == (r.sets.n0, r.sets.n1)
        assert s.sets.hypothesis_holds == r.sets.hypothesis_holds
        assert set(s.sets.s_statement) == {image(e) for e in r.sets.s_statement}


@PROPERTY
@given(connected_graphs())
def test_structural_bounds_hold_beyond_the_corpus(g):
    # every structural check is exact, so a violation here is a counterexample
    report = run_suite(corpus=[("g", g)], trials=0)
    assert report.violations == (), [c.to_json_obj() for c in report.violations]


def _matrices(rows, cols, bound):
    row = st.lists(st.floats(-bound, bound), min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows).map(np.array)


@st.composite
def updates(draw, dim):
    """Any update kind the spec format offers that keeps dim channels."""
    kind = draw(st.sampled_from(["identity", "linear", "clamp", "abs", "leaky"]))
    if kind == "linear":
        return Update("linear", matrix=draw(_matrices(dim, dim, 3.0)))
    if kind == "clamp":
        return Update("clamp", bound=draw(st.floats(0.01, 5.0)))
    if kind == "leaky":
        return Update("leaky", slope=draw(st.floats(-1.0, 1.0)))
    return Update(kind)


@PROPERTY
@given(connected_graphs(), st.data())
def test_one_layer_bounds_hold_beyond_the_corpus(g, data):
    d_in, d_out = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    aggregator = data.draw(st.sampled_from(["sum", "mean"]))
    layer = LayerSpec(aggregator, data.draw(_matrices(d_out, d_in, 3.0)), data.draw(updates(d_out)))
    x = data.draw(_matrices(g.vertex_count, d_in, 10.0))
    edges = [(r.edge, r.kappa) for r in curvature_profile(g).reports if r.kappa > 0]
    checks = _one_layer_checks(g, layer, x, edges, "g")
    assert len(checks) == len(edges)
    assert not [c for c in checks if c.violated], [c.to_json_obj() for c in checks if c.violated]

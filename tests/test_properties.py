"""Property-based checks on random connected graphs of at most 12 vertices:
the edge kernel against the general BFS path and the simplex oracle, and
every structural bound of `run_suite` beyond the fixed corpus.

`derandomize=True` makes hypothesis draw the same examples on every run, so
these tests are as deterministic as the rest of the suite.
"""

from hypothesis import given, settings, strategies as st

from orckit.curvature import ricci_curvature
from orckit.diagnostics import run_suite
from orckit.graphs import from_edges
from orckit.transport import (
    _edge_distances,
    _support_distances,
    edge_wasserstein1,
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


@PROPERTY
@given(connected_graphs())
def test_edge_kernel_matches_bfs_path_and_oracle(g):
    for u, v in g.edges:
        mu, mv = local_measure(g, u), local_measure(g, v)
        w1 = edge_wasserstein1(g, u, v)
        assert w1 == wasserstein1(g, mu, mv).cost
        assert w1 == wasserstein1_oracle(g, mu, mv, cap=4096)
        assert ricci_curvature(g, u, v) == 1 - w1


@PROPERTY
@given(connected_graphs())
def test_closed_form_distances_match_bfs(g):
    for u, v in g.edges:
        rows, cols = g.adjacency[u], g.adjacency[v]
        assert _edge_distances(g, rows, cols) == _support_distances(g, rows, cols)


@PROPERTY
@given(connected_graphs())
def test_structural_bounds_hold_beyond_the_corpus(g):
    # every structural check is exact, so a violation here is a counterexample
    report = run_suite(corpus=[("g", g)], trials=0)
    assert report.violations == (), [c.to_json_obj() for c in report.violations]

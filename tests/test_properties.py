"""Property-based checks on random connected graphs of at most 12 vertices:
`wasserstein1` against the simplex oracle on edges and on non-adjacent
pairs, the edge cost levels against BFS, the structural starting dual of
an edge against its BFS cost matrix, the bitmask bottleneck sets
against their set-based reference, curvature reports under relabelling,
the edges an edit reaches and the kappas carried across random edits
against the BFS reference and fresh ones, every
structural bound of `suite_checks` beyond the fixed corpus, the one-layer gap
bounds under drawn layer specs and features, the local
walk rows and alpha/beta against the dense (A+I)^k product, and the
feature norms and gaps against np.linalg.norm bit for bit.

`derandomize=True` makes hypothesis draw the same examples on every run, so
these tests are as deterministic as the rest of the suite.
"""

import numpy as np
from emit_reference import check_obj
from hypothesis import given, settings, strategies as st
from kernel_reference import (
    bottleneck_sets_from_sets,
    changed_edge_problems,
    dense_walk_counts,
    all_distances,
    edge_levels_match_bfs,
    edge_start_holds,
    participation_hypothesis_holds,
    statement_edges,
)

from orckit.curvature import _reached, bottleneck_sets, curvature_profile, edge_curvatures, ricci_curvature
from orckit.diagnostics import suite_checks, verify_bottleneck, verify_one_layer
from orckit.graphs import GraphInvalid, bfs_distances, from_edges
from orckit.mpnn import LayerSpec, Update, _walk_row, alpha_beta, edge_gaps, vertex_norms
from orckit.transport import local_measure, wasserstein1, wasserstein1_oracle

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
    # and the starting dual read from the same structure
    dist = all_distances(g)
    for u, v in g.edges:
        assert edge_levels_match_bfs(g, u, v)
        assert edge_levels_match_bfs(g, v, u)
        assert edge_start_holds(g, u, v, dist)
        assert edge_start_holds(g, v, u, dist)


@PROPERTY
@given(connected_graphs())
def test_bottleneck_sets_match_set_reference(g):
    reports = curvature_profile(g).reports
    for r in reports:
        u, v = r.edge
        expected = bottleneck_sets_from_sets(g, u, v)
        assert r.sets == expected
        assert bottleneck_sets(g, v, u) == expected
        # diagnostics states the participation hypothesis on the counts
        assert verify_bottleneck(r)[0].skipped != participation_hypothesis_holds(g, u, v)


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
        assert s.kappa == r.kappa
        assert {s.deg_u, s.deg_v} == {r.deg_u, r.deg_v}
        assert (s.sets.n0, s.sets.n1) == (r.sets.n0, r.sets.n1)
        assert (s.sets.s_size, s.sets.max_load) == (r.sets.s_size, r.sets.max_load)
        assert set(statement_edges(h, *s.edge)) == {image(e) for e in statement_edges(g, *r.edge)}


def _toggled(g, pairs):
    """g with each drawn pair added when absent and removed when present,
    skipping a removal that would disconnect it."""
    for a, b in pairs:
        if a == b:
            continue
        e = (min(a, b), max(a, b))
        edges = [f for f in g.edges if f != e] if g.has_edge(a, b) else [*g.edges, e]
        try:
            g = from_edges(g.vertex_count, edges)
        except GraphInvalid:
            continue
    return g


@PROPERTY
@given(connected_graphs(), st.data())
def test_carried_kappas_match_fresh_profiles(g, data):
    """Along a chain of drawn edits, which both add and remove edges, the
    edges `_reached` picks are exactly those whose problem an edit changed,
    by the BFS reference; the kappas carried from the graph before it
    through `edge_curvatures(g, before)` are the fresh kappas of every
    edited graph, and those are the kappas of its full reports."""
    vertex = st.integers(0, g.vertex_count - 1)
    kappas = edge_curvatures(g)
    for _ in range(3):
        edited = _toggled(g, data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=4)))
        assert _reached(g, edited) == changed_edge_problems(g, edited)
        carried = edge_curvatures(edited, (g, kappas))
        fresh = edge_curvatures(edited)
        assert carried == fresh
        assert list(fresh) == [r.kappa for r in curvature_profile(edited).reports]
        g, kappas = edited, carried


@PROPERTY
@given(connected_graphs())
def test_structural_bounds_hold_beyond_the_corpus(g):
    # every structural check is exact, so a violation here is a counterexample
    violations = [check_obj(c) for c in suite_checks([("g", g)], trials=0) if c.violated]
    assert not violations, violations


@PROPERTY
@given(connected_graphs())
def test_walk_rows_match_dense_walk_counts(walk_count_ratios, g):
    for depth in range(5):
        dense = dense_walk_counts(g, depth)
        for u in range(g.vertex_count):
            assert _walk_row(g, depth, u) == {w: c for w, c in enumerate(dense[u]) if c}
    counts = dense_walk_counts(g, 2)
    for u, v in g.edges:
        ab = alpha_beta(g, u, v)
        assert (ab.alpha, ab.beta) == walk_count_ratios(g, counts, u, v)
        assert (ab.row_sum_u, ab.row_sum_v) == (sum(counts[u]), sum(counts[v]))


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
    reports = [r for r in curvature_profile(g).reports if r.kappa > 0]
    checks = verify_one_layer(g, layer, x, reports, "g")
    assert len(checks) == len(reports)
    assert not [c for c in checks if c.violated], [check_obj(c) for c in checks if c.violated]


# zeros of both signs, subnormals and magnitudes whose squares stay finite
_SPECIAL_ENTRIES = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2e-308, 1e150, -1e150])


@PROPERTY
@given(st.data())
def test_norms_and_gaps_are_np_linalg_norm_bit_for_bit(data):
    """vertex_norms and edge_gaps take sqrt(d . d) themselves; each value
    must be float(np.linalg.norm(...)) of the same row to the last bit, in
    either memory layout of x. Entries are standard normal, whose sums of
    squares round in the last bit, with drawn ones overwritten by special
    values."""
    n, channels = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    x = np.random.default_rng(data.draw(st.integers(0, 2**32))).standard_normal((n, channels))
    cell = st.integers(0, n * channels - 1)
    for i, value in data.draw(st.lists(st.tuples(cell, _SPECIAL_ENTRIES), max_size=n * channels)):
        x.flat[i] = value
    if data.draw(st.booleans()):
        x = np.asfortranarray(x)
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = data.draw(st.lists(pair, max_size=8))
    expected = [float(np.linalg.norm(row)).hex() for row in x]
    assert [norm.hex() for norm in vertex_norms(x)] == expected
    expected = [float(np.linalg.norm(x[u] - x[v])).hex() for u, v in edges]
    assert [gap.hex() for gap in edge_gaps(x, edges)] == expected

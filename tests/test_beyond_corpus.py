"""Bound checks on graphs outside the built-in corpus, chosen so that the
hypotheses the corpus rarely meets do hold.

The positively curved regular graphs meet the diameter and multilayer
hypotheses (regular, delta > 0); every edge of the triangle-free graphs
meets the participation hypothesis of the bottleneck statement. A
violation here is a counterexample to a certified bound, not a test to
loosen.
"""

import itertools

import pytest
from emit_reference import summary_obj

from orckit.diagnostics import suite_checks
from orckit.graphs import from_edges


def graph_on(vertices, adjacent):
    """The graph on vertices (any hashables, numbered in the given order)
    with an edge wherever adjacent(a, b) holds."""
    index = {x: i for i, x in enumerate(vertices)}
    pairs = itertools.combinations(vertices, 2)
    return from_edges(len(vertices), [(index[a], index[b]) for a, b in pairs if adjacent(a, b)])


def rook(k):
    """K_k box K_k: cells of a k x k board, adjacent in a row or a column."""
    cells = list(itertools.product(range(k), repeat=2))
    return graph_on(cells, lambda a, b: a[0] == b[0] or a[1] == b[1])


def johnson(n):
    """J(n, 2): the 2-subsets of n points, adjacent when they share one."""
    pairs = list(itertools.combinations(range(n), 2))
    return graph_on(pairs, lambda a, b: len(set(a) & set(b)) == 1)


def petersen():
    """The Kneser graph K(5, 2): 2-subsets of 5 points, adjacent when disjoint."""
    return graph_on(list(itertools.combinations(range(5), 2)), lambda a, b: not set(a) & set(b))


def multipartite(parts, size):
    """The complete multipartite graph with parts of equal size."""
    cells = list(itertools.product(range(parts), range(size)))
    return graph_on(cells, lambda a, b: a[0] != b[0])


def paley(q):
    """Paley graph of a prime q = 1 mod 4: adjacent when the difference is a
    nonzero square mod q."""
    squares = {x * x % q for x in range(1, q)}
    return graph_on(list(range(q)), lambda a, b: (a - b) % q in squares)


def hypercube(d):
    """Q_d: d-bit words, adjacent when they differ in one bit."""
    return graph_on(list(range(2**d)), lambda a, b: (a ^ b).bit_count() == 1)


# name: (graph, vertex count, degree)
POSITIVE = {
    "k3_box_k3": (rook(3), 9, 4),
    "k4_box_k4": (rook(4), 16, 6),
    "johnson_5_2": (johnson(5), 10, 6),
    "johnson_6_2": (johnson(6), 15, 8),
    "k3_3_3": (multipartite(3, 3), 9, 6),
    "k2_2_2_2": (multipartite(4, 2), 8, 6),
    "paley_13": (paley(13), 13, 6),
}
TRIANGLE_FREE = {
    "q3": (hypercube(3), 8, 3),
    "q4": (hypercube(4), 16, 4),
    "petersen": (petersen(), 10, 3),
}
GRAPHS = {**POSITIVE, **TRIANGLE_FREE}


@pytest.fixture(scope="module")
def suite():
    return tuple(suite_checks([(name, g) for name, (g, _, _) in GRAPHS.items()], trials=5, seed=1))


@pytest.mark.parametrize("name", GRAPHS)
def test_builders_give_the_named_regular_graph(name):
    g, n, degree = GRAPHS[name]
    assert g.vertex_count == n
    assert {g.degree(p) for p in range(n)} == {degree}
    if name in TRIANGLE_FREE:
        assert not any(set(g.adjacency[u]).intersection(g.adjacency[v]) for u, v in g.edges)


def test_no_bound_is_violated(suite):
    assert not any(c.violated for c in suite)


def checks_of(suite, name, graphs):
    return [c for c in suite if c.name == name and c.graph in graphs]


@pytest.mark.parametrize("check_name", ["diameter", "multilayer"])
def test_regular_hypotheses_hold_on_positive_graphs(suite, check_name):
    checks = checks_of(suite, check_name, POSITIVE)
    assert checks and not any(c.skipped for c in checks)


def test_statement_hypothesis_holds_on_triangle_free_graphs(suite):
    checks = checks_of(suite, "bottleneck_statement", TRIANGLE_FREE)
    assert len(checks) == sum(len(g.edges) for g, _, _ in TRIANGLE_FREE.values()) == 59
    assert not any(c.skipped for c in checks)


def test_check_counts(suite):
    by_name = summary_obj(suite)["by_name"]
    assert by_name["diameter"] == {"passed": 7, "violated": 0, "skipped": 3}
    assert by_name["multilayer"] == {"passed": 1476, "violated": 0, "skipped": 3}

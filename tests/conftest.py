import random
from fractions import Fraction

import pytest
from kernel_reference import statement_edges

from orckit.curvature import curvature_profile
from orckit.diagnostics import verify_jacobian_ratio
from orckit.graphs import corpus, from_edges, generate
from orckit.mpnn import alpha_beta

ER_SWEEP = ((100, 0.08), (200, 0.05), (400, 0.03))


@pytest.fixture(scope="session")
def corpus_entries():
    return corpus()


@pytest.fixture(scope="session")
def corpus_profiles(corpus_entries):
    # computed once; several suites reuse the exact per-edge reports
    return {name: curvature_profile(g) for name, g in corpus_entries}


def barabasi_albert(n, m, seed):
    """Preferential attachment: a clique on m + 1 vertices, then each new
    vertex joins m distinct vertices drawn with probability proportional to
    their degree. Hubs next to many leaves make its degrees very uneven."""
    rng = random.Random(f"ba:{n}:{m}:{seed}")
    edges = [(a, b) for a in range(m + 1) for b in range(a + 1, m + 1)]
    ends = [x for e in edges for x in e]
    for w in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(rng.choice(ends))
        for t in sorted(targets):
            edges.append((t, w))
            ends += [t, w]
    return from_edges(n, edges)


@pytest.fixture(scope="session")
def irregular_graphs():
    """Named graphs whose edges mostly join endpoints of unequal degree: the
    ER sweep of the benchmark (seed 0), stars and double stars with hubs,
    and a Barabasi-Albert-like graph."""
    out = [(f"er_{n}", generate("erdos_renyi", n=n, p=p, seed=0)) for n, p in ER_SWEEP]
    out += [
        ("star_60", generate("star", n=60)),
        ("double_star_40_3", generate("double_star", a=40, b=3)),
        ("double_star_25_25", generate("double_star", a=25, b=25)),
        ("ba_150_2", barabasi_albert(150, 2, 0)),
    ]
    return out


@pytest.fixture(scope="session")
def irregular_profiles(irregular_graphs):
    return {name: curvature_profile(g) for name, g in irregular_graphs}


@pytest.fixture(scope="session")
def dense_graph():
    """ER(60, 0.6), seed 0: mean degree 35.6, about that of the dense
    heterophilic benchmarks curvature rewiring is evaluated on."""
    g = generate("erdos_renyi", n=60, p=0.6, seed=0)
    assert 2 * len(g.edges) >= 30 * g.vertex_count
    return g


@pytest.fixture(scope="session")
def dense_profile(dense_graph):
    return curvature_profile(dense_graph)


@pytest.fixture(scope="session")
def walk_count_ratios():
    """Reference alpha/beta for edge (u, v): the maxima over rows u and v of
    counts = dense_walk_counts(g, 2), the dense (A+I)^2 of kernel_reference."""

    def ratios(g, counts, u, v):
        row_u, row_v = counts[u], counts[v]
        alpha = max(Fraction(row_u[q], sum(row_u)) for q in [*g.adjacency[v], v] if q != u)
        beta = max(Fraction(row_v[p], sum(row_v)) for p in [*g.adjacency[u], u] if p != v)
        return alpha, beta

    return ratios


@pytest.fixture(scope="session")
def ratio_bounds_hold():
    """Assert every inequality on alpha/beta across the edge of report r:
    the structural step ratio <= (|S_statement| + 2) / row sum, with the
    row sums of counts = dense_walk_counts(g, 2) and |S_statement| the
    report's s_size (checked against `statement_edges`), and the curvature
    bound that verify_jacobian_ratio checks. Returns (alpha_beta(g, u, v),
    the two checks)."""

    def check(g, counts, r):
        u, v = r.edge
        ab = alpha_beta(g, u, v)
        row_u, row_v = sum(counts[u]), sum(counts[v])
        assert (ab.row_sum_u, ab.row_sum_v) == (row_u, row_v)
        s_size = r.sets.s_size
        assert s_size == len(statement_edges(g, u, v))
        assert ab.alpha <= Fraction(s_size + 2, row_u)
        assert ab.beta <= Fraction(s_size + 2, row_v)
        alpha_check, beta_check = verify_jacobian_ratio(g, r)
        assert (alpha_check.lhs, beta_check.lhs) == (ab.alpha, ab.beta)
        assert alpha_check.holds and beta_check.holds
        return ab, alpha_check, beta_check

    return check

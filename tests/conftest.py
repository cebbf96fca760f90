from fractions import Fraction

import pytest

from orckit.curvature import curvature_profile
from orckit.graphs import corpus


@pytest.fixture(scope="session")
def corpus_entries():
    return corpus()


@pytest.fixture(scope="session")
def corpus_profiles(corpus_entries):
    # computed once; several suites reuse the exact per-edge reports
    return {name: curvature_profile(g) for name, g in corpus_entries}


@pytest.fixture(scope="session")
def walk_count_ratios():
    """Reference alpha/beta for edge (u, v): the maxima over rows u and v of
    counts = walk_counts(g, 2), the dense (A+I)^2."""

    def ratios(g, counts, u, v):
        row_u, row_v = counts[u], counts[v]
        alpha = max(Fraction(row_u[q], sum(row_u)) for q in [*g.adjacency[v], v] if q != u)
        beta = max(Fraction(row_v[p], sum(row_v)) for p in [*g.adjacency[u], u] if p != v)
        return alpha, beta

    return ratios

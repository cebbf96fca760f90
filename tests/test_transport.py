import random
from fractions import Fraction
from math import lcm

import pytest
from kernel_reference import (
    all_distances,
    decoded,
    dual_feasible,
    dual_value,
    edge_levels_match_bfs,
    edge_start_holds,
    edge_start_is_best_one_free_row,
    potentials,
)

from orckit import transport
from orckit.curvature import curvature_profile
from orckit.graphs import NeighborIndex, _edge_index, _hub_first, bfs_distances, generate
from orckit.transport import (
    LocalMeasure,
    TooLarge,
    _cost_levels,
    _edge_start,
    _support_distances,
    edge_cost,
    local_measure,
    wasserstein1,
    wasserstein1_oracle,
)

F = Fraction


def brute_force_w1(g, mu, mv):
    """Third opinion: enumerate every integer coupling of the scaled problem.

    Only usable on tiny supports; exists so the production solver and the
    simplex oracle are not allowed to agree with each other by sharing a bug.
    """
    scale = lcm(*[m.denominator for m in mu.mass + mv.mass])
    rows = [int(m * scale) for m in mu.mass]
    cols = [int(m * scale) for m in mv.mass]
    dist = {}
    for p in mu.support:
        d = bfs_distances(g, p)
        for q in mv.support:
            dist[(p, q)] = d[q]

    best = [None]

    def fill(i, remaining_cols, cost):
        if i == len(rows):
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return
        def split(j, left, acc):
            if j == len(cols) - 1:
                if left <= remaining_cols[j]:
                    remaining_cols[j] -= left
                    fill(i + 1, remaining_cols, acc + left * dist[(mu.support[i], mv.support[j])])
                    remaining_cols[j] += left
                return
            for take in range(min(left, remaining_cols[j]) + 1):
                remaining_cols[j] -= take
                split(j + 1, left - take, acc + take * dist[(mu.support[i], mv.support[j])])
                remaining_cols[j] += take
        split(0, rows[i], cost)

    fill(0, list(cols), 0)
    return F(best[0], scale)


class TestLocalMeasure:
    def test_triangle_vertex(self):
        m = local_measure(generate("complete", n=3), 0)
        assert m.support == (1, 2) and m.mass == (F(1, 2), F(1, 2))

    def test_path_leaf(self):
        m = local_measure(generate("path", n=3), 0)
        assert m.support == (1,) and m.mass == (F(1),)

    def test_star_center(self):
        m = local_measure(generate("star", n=4), 0)
        assert m.support == (1, 2, 3, 4) and m.mass == (F(1, 4),) * 4

    def test_masses_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LocalMeasure(support=(0, 1), mass=(F(1, 2), F(1, 3)))

    def test_masses_must_be_positive(self):
        with pytest.raises(ValueError):
            LocalMeasure(support=(0, 1), mass=(F(3, 2), F(-1, 2)))

    def test_support_must_be_sorted_and_distinct(self):
        with pytest.raises(ValueError):
            LocalMeasure(support=(1, 0), mass=(F(1, 2), F(1, 2)))
        with pytest.raises(ValueError):
            LocalMeasure(support=(1, 1), mass=(F(1, 2), F(1, 2)))


class TestWasserstein:
    def test_triangle_edge(self):
        assert wasserstein1(generate("complete", n=3), 0, 1) == F(1, 2)

    def test_path_leaf_edge(self):
        # m0 = delta_1, m1 = uniform{0,2}: half the mass moves one hop each way
        assert wasserstein1(generate("path", n=3), 0, 1) == F(1)

    def test_double_star_center_edge(self):
        assert wasserstein1(generate("double_star", a=3, b=3), 0, 1) == F(5, 3)

    def test_cycle_edge(self):
        assert wasserstein1(generate("cycle", n=4), 0, 1) == F(1)

    def test_identical_measures_cost_zero(self):
        assert wasserstein1(generate("barbell", k=3), 2, 2) == 0

    def test_vertex_out_of_range_rejected(self):
        # -1 would wrap round to vertex 4, and W1 to that of N_4 and N_2
        g = generate("cycle", n=5)
        with pytest.raises(ValueError, match="vertex -1 out of range"):
            wasserstein1(g, -1, 2)
        with pytest.raises(ValueError, match="vertex 5 out of range"):
            wasserstein1(g, 5, 0)

    def test_symmetry(self):
        g = generate("double_star", a=2, b=4)
        for u, v in g.edges:
            assert wasserstein1(g, u, v) == wasserstein1(g, v, u)

    def test_closed_form_distances_match_bfs(self, corpus_entries):
        # every support distance of an edge follows from adjacency alone,
        # from the index of either endpoint
        graphs = [g for _, g in corpus_entries]
        graphs += [generate("erdos_renyi", n=60, p=0.1, seed=s) for s in range(3)]
        for g in graphs:
            for u, v in g.edges:
                assert edge_levels_match_bfs(g, u, v)
                assert edge_levels_match_bfs(g, v, u)

    def test_structural_start_against_bfs_costs(self, corpus_entries, irregular_graphs):
        graphs = [g for _, g in corpus_entries] + [g for _, g in irregular_graphs]
        for g in graphs:
            dist = all_distances(g)
            for u, v in g.edges:
                assert edge_start_holds(g, u, v, dist)
                assert edge_start_holds(g, v, u, dist)

    def test_structural_start_is_the_best_one_free_row_dual(self, corpus_entries):
        graphs = [g for _, g in corpus_entries]
        graphs += [generate("erdos_renyi", n=60, p=p, seed=0) for p in (0.08, 0.2, 0.5)]
        for g in graphs:
            dist = all_distances(g)
            for u, v in g.edges:
                assert edge_start_is_best_one_free_row(g, u, v, dist), (u, v)
                assert edge_start_is_best_one_free_row(g, v, u, dist), (v, u)

    def test_dense_costs_round_trip_through_levels(self):
        cost = [[0, 3, 3, 1], [2, 2, 0, 7], [5, 5, 5, 5]]
        assert _cost_levels(cost) == [
            (0b0001, 0b1000, 0, 0b0110, 0, 0, 0, 0),
            (0b0100, 0, 0b0011, 0, 0, 0, 0, 0b1000),
            (0, 0, 0, 0, 0, 0b1111, 0, 0),
        ]
        assert decoded(_cost_levels(cost), 4) == cost

    def test_index_rows_partition_their_columns(self, corpus_entries):
        """Every cost row of every edge is a 4-tuple whose masks split the
        index's columns (`decoded` checks the split): a column in two masks
        would be charged the first of their costs by `_plan_cost`."""
        graphs = [g for _, g in corpus_entries]
        graphs += [generate("erdos_renyi", n=60, p=p, seed=0) for p in (0.1, 0.3)]
        for g in graphs:
            for u in range(g.vertex_count):
                index = NeighborIndex(g, u)
                for v in g.adjacency[u]:
                    levels = [index[q] for q in g.adjacency[v]]
                    assert all(len(row) == 4 for row in levels)
                    decoded(levels, index.full.bit_count())

    @pytest.mark.parametrize("family", ["path", "cycle"])
    def test_far_pair_rows_partition_their_columns(self, family):
        g = generate(family, n=20)
        for u in range(20):
            for v in range(20):
                if u != v and not g.has_edge(u, v):
                    cost = _support_distances(g, g.adjacency[u], g.adjacency[v])
                    levels = _cost_levels(cost)
                    assert all(len(row) == max(map(max, cost)) + 1 for row in levels)
                    assert decoded(levels, g.degree(v)) == cost

    def test_shared_index_gives_the_same_w1(self):
        g = generate("erdos_renyi", n=40, p=0.15, seed=2)
        for u in range(g.vertex_count):
            index = NeighborIndex(g, u)
            for v in g.adjacency[u]:
                assert wasserstein1(g, u, v, index=index) == wasserstein1(g, u, v)

    def test_edge_kernel_matches_oracle_on_er100(self):
        g = generate("erdos_renyi", n=100, p=0.08, seed=4)
        for u, v in random.Random(4).sample(g.edges, 40):
            mu, mv = local_measure(g, u), local_measure(g, v)
            assert wasserstein1(g, u, v) == wasserstein1_oracle(g, mu, mv, cap=4096)


def random_problem(rng, max_cost):
    """A balanced integer transportation problem with m, n <= 7 and uniform
    marginals: each row supplies S and each column takes D, S m = D n = T,
    T a random multiple of lcm(m, n) up to 42."""
    m, n = rng.randint(1, 7), rng.randint(1, 7)
    T = lcm(m, n) * rng.randint(1, max(1, 42 // lcm(m, n)))
    cost = [[rng.randint(0, max_cost) for _ in range(n)] for _ in range(m)]
    return T // m, T // n, cost


def edge_shaped_problem(rng, max_cost):
    """Uniform supplies T/m and demands T/n, T = lcm(m, n), as an edge's W1
    poses them, with m, n <= 20."""
    m, n = rng.randint(1, 20), rng.randint(1, 20)
    T = lcm(m, n)
    cost = [[rng.randint(0, max_cost) for _ in range(n)] for _ in range(m)]
    return T // m, T // n, cost


def skipping_problem(rng):
    """An edge-shaped problem whose rows take only costs 0 and 3, so every
    row's levels skip 1 and 2."""
    S, D, cost = edge_shaped_problem(rng, 1)
    return S, D, [[3 * c for c in row] for row in cost]


def edge_problems(g):
    """((S, D, cost), start) for every edge of g as `wasserstein1` poses
    it: hub-first, rows N_v, columns N_u, and the structural start (its
    levels, C, column potentials, tight masks and row potentials) from u's
    index."""
    for a, b in g.edges:
        u, v = _hub_first(g, a, b)
        index = NeighborIndex(g, u)
        rows = g.adjacency[v]
        m, n = len(rows), len(g.adjacency[u])
        levels = [index[q] for q in rows]
        T = lcm(m, n)
        start = (levels, *_edge_start(index, v, levels, rows.index(u)))
        yield (T // m, T // n, decoded(levels, n)), start


def zero_start(levels, n):
    """The start of a non-adjacent pair's solve: C from the rows, every
    potential 0, and each row tight on its cost-0 cells."""
    return len(levels[0]) - 1, {0: (1 << n) - 1}, [row[0] for row in levels], [0] * len(levels)


@pytest.fixture
def phases(monkeypatch):
    """Counts the solver's dual steps."""
    calls = [0]
    original = transport._raise_potentials

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(transport, "_raise_potentials", counted)
    return calls


class TestMinCostFlow:
    """The solver on its mask input, each problem posed as a dense matrix
    and converted by `_cost_levels`, or as an edge's levels with its
    structural start."""

    def check(self, S, D, cost, phases, start=None):
        """Solve the problem whose every row supplies S and every column
        takes D from start, the zero start when None, and certify the plan:
        its marginals and cost, and the final potentials as a dual that is
        feasible on every cell and worth exactly the plan's cost. Problems
        without a start are also held to the simplex."""
        phases[0] = 0
        m, n = len(cost), len(cost[0])
        supplies, demands = [S] * m, [D] * n
        generic = start is None
        if generic:
            levels = _cost_levels(cost)
            start = (levels, *zero_start(levels, n))
        levels, top, col_pot, tight, row_pot = start
        assert top == max(map(max, cost))
        flow = transport._min_cost_flow(S, D, n, levels, top, col_pot, tight, row_pot)
        plan_cost = transport._plan_cost(flow, S, D, n, levels)
        assert [sum(row.values()) for row in flow] == supplies
        assert [sum(row.get(j, 0) for row in flow) for j in range(n)] == demands
        assert all(f >= 0 for row in flow for f in row.values())
        total = sum(f * cost[i][j] for i, row in enumerate(flow) for j, f in row.items())
        assert total == plan_cost
        col_values = potentials(col_pot, n)
        assert dual_feasible(cost, row_pot, col_values)
        assert dual_value(supplies, demands, row_pot, col_values) == plan_cost
        # the docstring's bound: at most C dual steps, C + 1 phases
        assert phases[0] <= top
        if generic:
            assert total == transport._transportation_simplex(supplies, demands, cost)

    @pytest.mark.parametrize("max_cost", [3, 10])
    def test_matches_simplex_on_random_problems(self, max_cost, phases):
        rng = random.Random(max_cost)
        for _ in range(300):
            self.check(*random_problem(rng, max_cost), phases)

    @pytest.mark.parametrize("max_cost", [3, 10])
    def test_matches_simplex_on_edge_shaped_problems(self, max_cost, phases):
        rng = random.Random(100 + max_cost)
        for _ in range(200):
            self.check(*edge_shaped_problem(rng, max_cost), phases)

    def test_levels_that_skip_costs(self, phases):
        rng = random.Random(7)
        for _ in range(200):
            self.check(*skipping_problem(rng), phases)
        self.check(2, 2, [[0, 3], [3, 3]], phases)
        self.check(1, 1, [[3, 3, 0], [3, 0, 3], [3, 3, 0]], phases)

    def test_degenerate_problems(self, phases):
        self.check(5, 5, [[3]], phases)
        self.check(1, 1, [[0]], phases)
        self.check(2, 3, [[0, 0], [0, 0], [0, 0]], phases)
        self.check(3, 2, [[0] * 3] * 2, phases)
        self.check(1, 1, [[3, 3, 3]] * 3, phases)

    def test_certifies_edge_problems_from_their_structural_start(self, corpus_entries, phases):
        graphs = [g for _, g in corpus_entries]
        graphs += [generate("erdos_renyi", n=60, p=p, seed=0) for p in (0.08, 0.2, 0.5)]
        for g in graphs:
            for problem, start in edge_problems(g):
                self.check(*problem, phases, start)

    @pytest.mark.parametrize("family, farthest", [("path", 19), ("cycle", 10)])
    def test_far_pairs_from_the_zero_start(self, family, farthest, phases, monkeypatch):
        """Every non-adjacent pair of the 20-vertex graph: its W1 equals the
        simplex's, and the start `wasserstein1` gives its solve is certified
        like any other."""
        solves = []
        solve = transport._min_cost_flow

        def recorded(S, D, n, levels, top, col_pot, tight, row_pot):
            solves.append((S, D, n, (levels, top, dict(col_pot), list(tight), list(row_pot))))
            return solve(S, D, n, levels, top, col_pot, tight, row_pot)

        monkeypatch.setattr(transport, "_min_cost_flow", recorded)
        g = generate(family, n=20)
        dist = all_distances(g)
        pairs = [(u, v) for u in range(20) for v in range(u + 1, 20) if not g.has_edge(u, v)]
        assert max(dist[u][v] for u, v in pairs) == farthest
        for u, v in pairs:
            assert wasserstein1(g, u, v) == wasserstein1_oracle(g, local_measure(g, u), local_measure(g, v))
        assert len(solves) == len(pairs)
        for S, D, n, start in list(solves):
            cost = decoded(start[0], n)
            self.check(S, D, cost, phases, start)

    def test_unbalanced_problem_is_rejected(self):
        levels = _cost_levels([[1], [1]])
        with pytest.raises(RuntimeError, match="unbalanced"):
            transport._min_cost_flow(2, 1, 1, levels, *zero_start(levels, 1))  # 2 * 2 != 1 * 1
        levels = [(0b11,), (0, 0, 0, 0b11)]
        with pytest.raises(RuntimeError, match="unbalanced"):
            transport._min_cost_flow(1, 2, 2, levels, 3, {0: 0b11}, [0b11, 0], [0, 0])  # 1 * 2 != 2 * 2

    # two rows supplying 3 each, three columns taking 2 each
    PLAN_LEVELS = _cost_levels([[1, 2, 0], [0, 3, 1]])

    def test_marginal_check_passes_a_good_plan(self):
        assert transport._plan_cost([{0: 2, 1: 1}, {1: 1, 2: 2}], 3, 2, 3, self.PLAN_LEVELS) == 9

    @pytest.mark.parametrize(
        "flow",
        [
            [{0: 2, 1: 1}, {1: 1, 2: 1}],  # a row sums short of its supply
            [{0: 2, 1: 1}, {0: 1, 2: 2}],  # a column sums past its demand
            [{0: 3, 1: -1, 2: 1}, {0: -1, 1: 3, 2: 1}],  # right sums through negative entries
        ],
    )
    def test_marginal_check_rejects_bad_plans(self, flow):
        with pytest.raises(RuntimeError, match="marginals"):
            transport._plan_cost(flow, 3, 2, 3, self.PLAN_LEVELS)


def stalled_solve(solve, monkeypatch):
    """The number of dual steps solve() takes before it raises, with every
    dual step stubbed to change nothing, so every search after the first
    failed one fails too and only the phase bound ends the solve."""
    calls = [0]

    def stalled(*args):
        calls[0] += 1

    monkeypatch.setattr(transport, "_raise_potentials", stalled)
    with pytest.raises(RuntimeError, match="phase bound"):
        solve()
    return calls[0]


class TestPhaseBound:
    """The solver runs exactly C + 1 phases before it gives up, C the
    largest cost with a cell: C dual steps, however many a fixed bound
    would allow."""

    @pytest.mark.parametrize("a, b, top", [(1, 19, 2), (0, 1, 3)])
    def test_edge(self, a, b, top, phases, monkeypatch):
        g = generate("erdos_renyi", n=20, p=0.3, seed=0)
        index, v = _edge_index(g, a, b)
        levels = [index[q] for q in g.adjacency[v]]
        assert max(map(max, decoded(levels, g.degree(index.hub)))) == top
        edge_cost(index, v)
        assert phases[0] >= 1  # the real solve needs a dual step
        assert stalled_solve(lambda: edge_cost(index, v), monkeypatch) == top

    def test_far_pair(self, monkeypatch):
        g = generate("path", n=20)
        assert stalled_solve(lambda: wasserstein1(g, 0, 19), monkeypatch) == bfs_distances(g, 1)[18] == 17


class TestDualSteps:
    """The dual steps a whole profile takes, exactly: a change to the start,
    the one-arc order or amounts, the searches or the dual step shows here.
    They are at most half what the start with every row at potential 0
    took (482, 1,350 and 3,634 on the ER sweep; 1,771 on the corpus)."""

    @pytest.mark.parametrize("n, p, steps", [(100, 0.08, 237), (200, 0.05, 666), (400, 0.03, 1767)])
    def test_er_sweep(self, n, p, steps, phases):
        curvature_profile(generate("erdos_renyi", n=n, p=p, seed=0))
        assert phases[0] == steps

    def test_corpus(self, corpus_entries, phases):
        for _, g in corpus_entries:
            curvature_profile(g)
        assert phases[0] == 1325


class TestOracle:
    def test_matches_examples(self):
        g = generate("complete", n=3)
        assert wasserstein1_oracle(g, local_measure(g, 0), local_measure(g, 1)) == F(1, 2)
        g = generate("path", n=3)
        assert wasserstein1_oracle(g, local_measure(g, 0), local_measure(g, 1)) == F(1)
        g = generate("cycle", n=4)
        assert wasserstein1_oracle(g, local_measure(g, 0), local_measure(g, 1)) == F(1)

    def test_cap(self):
        g = generate("complete", n=10)
        mu, mv = local_measure(g, 0), local_measure(g, 1)
        with pytest.raises(TooLarge):
            wasserstein1_oracle(g, mu, mv)  # 9x9 support product over default 64
        assert wasserstein1_oracle(g, mu, mv, cap=100) == wasserstein1(g, 0, 1)

    def test_three_way_agreement_on_small_graphs(self):
        graphs = [
            generate("path", n=4),
            generate("cycle", n=5),
            generate("complete", n=4),
            generate("double_star", a=3, b=3),
            generate("barbell", k=3),
        ]
        for g in graphs:
            for u, v in g.edges:
                mu, mv = local_measure(g, u), local_measure(g, v)
                fast = wasserstein1(g, u, v)
                assert fast == wasserstein1_oracle(g, mu, mv)
                assert fast == brute_force_w1(g, mu, mv)

    def test_three_way_agreement_on_arbitrary_pairs(self):
        # non-adjacent supports too, not just the edge case
        g = generate("erdos_renyi", n=10, p=0.3, seed=11)
        pairs = [
            (u, v)
            for u in range(10)
            for v in range(u + 1, 10)
            if g.degree(u) <= 3 and g.degree(v) <= 3
        ][:12]
        assert pairs
        for u, v in pairs:
            mu, mv = local_measure(g, u), local_measure(g, v)
            fast = wasserstein1(g, u, v)
            assert fast == wasserstein1_oracle(g, mu, mv)
            assert fast == brute_force_w1(g, mu, mv)

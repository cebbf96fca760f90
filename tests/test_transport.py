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
)

from orckit import transport
from orckit.curvature import curvature_profile
from orckit.graphs import NeighborIndex, _hub_first, bfs_distances, generate
from orckit.transport import (
    LocalMeasure,
    TooLarge,
    _cost_levels,
    _edge_start,
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
        assert m.as_dict() == {1: F(1, 2), 2: F(1, 2)}

    def test_path_leaf(self):
        m = local_measure(generate("path", n=3), 0)
        assert m.as_dict() == {1: F(1)}

    def test_star_center(self):
        m = local_measure(generate("star", n=4), 0)
        assert m.as_dict() == {1: F(1, 4), 2: F(1, 4), 3: F(1, 4), 4: F(1, 4)}

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
        assert _cost_levels(cost) == [{0: 0b0001, 3: 0b0110, 1: 0b1000}, {2: 0b0011, 0: 0b0100, 7: 0b1000}, {5: 0b1111}]
        assert decoded(_cost_levels(cost), 4) == cost

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
    """A balanced integer transportation problem with m, n <= 7."""
    m, n = rng.randint(1, 7), rng.randint(1, 7)
    total = rng.randint(max(m, n), 40)

    def split(parts):
        cuts = sorted(rng.sample(range(1, total), parts - 1))
        return [b - a for a, b in zip([0, *cuts], [*cuts, total])]

    cost = [[rng.randint(0, max_cost) for _ in range(n)] for _ in range(m)]
    return split(m), split(n), cost


def zero_margin_problem(rng, max_cost):
    """A `random_problem` with one to three rows of supply 0 or columns of
    demand 0 put in at random places: margins no edge poses, which the
    solver must still leave out of its search."""
    supplies, demands, cost = random_problem(rng, max_cost)
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            i = rng.randint(0, len(supplies))
            supplies.insert(i, 0)
            cost.insert(i, [rng.randint(0, max_cost) for _ in demands])
        else:
            j = rng.randint(0, len(demands))
            demands.insert(j, 0)
            for row in cost:
                row.insert(j, rng.randint(0, max_cost))
    return supplies, demands, cost


def edge_shaped_problem(rng, max_cost):
    """Uniform supplies T/m and demands T/n, T = lcm(m, n), as an edge's W1
    poses them, with m, n <= 20."""
    m, n = rng.randint(1, 20), rng.randint(1, 20)
    T = lcm(m, n)
    cost = [[rng.randint(0, max_cost) for _ in range(n)] for _ in range(m)]
    return [T // m] * m, [T // n] * n, cost


def skipping_problem(rng):
    """An edge-shaped problem whose rows take only costs 0 and 3, so every
    row's levels skip 1 and 2."""
    supplies, demands, cost = edge_shaped_problem(rng, 1)
    return supplies, demands, [[3 * c for c in row] for row in cost]


def edge_problems(g):
    """((supplies, demands, cost), start) for every edge of g as
    `wasserstein1` poses it: hub-first, rows N_v, columns N_u, and the
    structural start (its levels, column potentials, tight masks and row
    potentials) from u's index."""
    for a, b in g.edges:
        u, v = _hub_first(g, a, b)
        index = NeighborIndex(g, u)
        rows = g.adjacency[v]
        m, n = len(rows), len(g.adjacency[u])
        levels = [index[q] for q in rows]
        T = lcm(m, n)
        start = (levels, *_edge_start(index, v, levels, rows.index(u)))
        yield ([T // m] * m, [T // n] * n, decoded(levels, n)), start


def zero_start(levels, n):
    """The start of a non-adjacent pair's solve: every potential 0, and each
    row tight on its cost-0 cells."""
    return {0: (1 << n) - 1}, [row.get(0, 0) for row in levels], [0] * len(levels)


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

    def check(self, supplies, demands, cost, phases, start=None):
        """Solve from start, the zero start when None, and certify the
        plan: its marginals and cost, and the final potentials as a dual
        that is feasible on every cell and worth exactly the plan's cost.
        Problems without a start are also held to the simplex."""
        phases[0] = 0
        generic = start is None
        if generic:
            levels = _cost_levels(cost)
            start = (levels, *zero_start(levels, len(demands)))
        levels, col_pot, tight, row_pot = start
        flow = transport._min_cost_flow(supplies, demands, levels, col_pot, tight, row_pot)
        plan_cost = transport._plan_cost(flow, supplies, demands, levels)
        assert [sum(row.values()) for row in flow] == supplies
        assert [sum(row.get(j, 0) for row in flow) for j in range(len(demands))] == demands
        assert all(f >= 0 for row in flow for f in row.values())
        total = sum(f * cost[i][j] for i, row in enumerate(flow) for j, f in row.items())
        assert total == plan_cost
        col_values = decoded([col_pot], len(demands))[0]
        assert dual_feasible(cost, row_pot, col_values)
        assert dual_value(supplies, demands, row_pot, col_values) == plan_cost
        # the docstring's bound: at most max cost + 1 phases
        assert phases[0] <= max(map(max, cost)) + 1
        if generic:
            assert total == transport._transportation_simplex(supplies, demands, cost)

    @pytest.mark.parametrize("max_cost", [3, 10])
    def test_matches_simplex_on_random_problems(self, max_cost, phases):
        rng = random.Random(max_cost)
        for _ in range(300):
            self.check(*random_problem(rng, max_cost), phases)

    @pytest.mark.parametrize("max_cost", [3, 10])
    def test_matches_simplex_with_zero_margins(self, max_cost, phases):
        rng = random.Random(200 + max_cost)
        for _ in range(300):
            self.check(*zero_margin_problem(rng, max_cost), phases)
        self.check([0, 2], [1, 0, 1], [[0, 0, 0], [3, 1, 2]], phases)

    @pytest.mark.parametrize("max_cost", [3, 10])
    def test_matches_simplex_on_edge_shaped_problems(self, max_cost, phases):
        rng = random.Random(100 + max_cost)
        for _ in range(200):
            self.check(*edge_shaped_problem(rng, max_cost), phases)

    def test_levels_that_skip_costs(self, phases):
        rng = random.Random(7)
        for _ in range(200):
            self.check(*skipping_problem(rng), phases)
        self.check([2, 2], [1, 3], [[0, 3], [3, 3]], phases)
        self.check([1, 1, 1], [1, 1, 1], [[3, 3, 0], [3, 0, 3], [3, 3, 0]], phases)

    def test_degenerate_problems(self, phases):
        self.check([5], [5], [[3]], phases)
        self.check([1], [1], [[0]], phases)
        self.check([2, 3, 1], [4, 2], [[0, 0], [0, 0], [0, 0]], phases)
        self.check([3, 3], [2, 2, 2], [[0] * 3] * 2, phases)
        self.check([1, 1, 1], [1, 1, 1], [[3, 3, 3]] * 3, phases)

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

        def recorded(supplies, demands, levels, col_pot, tight, row_pot):
            solves.append((supplies, demands, (levels, dict(col_pot), list(tight), list(row_pot))))
            return solve(supplies, demands, levels, col_pot, tight, row_pot)

        monkeypatch.setattr(transport, "_min_cost_flow", recorded)
        g = generate(family, n=20)
        dist = all_distances(g)
        pairs = [(u, v) for u in range(20) for v in range(u + 1, 20) if not g.has_edge(u, v)]
        assert max(dist[u][v] for u, v in pairs) == farthest
        for u, v in pairs:
            assert wasserstein1(g, u, v) == wasserstein1_oracle(g, local_measure(g, u), local_measure(g, v))
        assert len(solves) == len(pairs)
        for supplies, demands, start in list(solves):
            cost = decoded(start[0], len(demands))
            self.check(supplies, demands, cost, phases, start)
            assert phases[0] <= max(map(max, cost))  # C dual steps, C + 1 phases

    def test_unbalanced_problem_is_rejected(self):
        levels = _cost_levels([[1], [1]])
        with pytest.raises(RuntimeError, match="unbalanced"):
            transport._min_cost_flow([2, 1], [2], levels, *zero_start(levels, 1))
        levels = [{0: 0b11}, {3: 0b11}]
        with pytest.raises(RuntimeError, match="unbalanced"):
            transport._min_cost_flow([1, 1], [1, 2], levels, *zero_start(levels, 2))

    @pytest.mark.parametrize(
        "flow",
        [
            [{0: 2}, {0: 1, 1: 1}],  # a row sums short of its supply
            [{0: 3}, {1: 2}],  # a column sums past its demand
            [{0: 3, 1: -1}, {0: 0, 1: 3}],  # right sums through a negative entry
        ],
    )
    def test_marginal_check_rejects_bad_plans(self, flow):
        with pytest.raises(RuntimeError, match="marginals"):
            transport._plan_cost(flow, [2, 3], [3, 2], _cost_levels([[1, 2], [0, 3]]))


class TestDualSteps:
    """A guard on the structural start: the dual steps a whole profile
    takes, at most half what the start with every row at potential 0 took
    (482, 1,350 and 3,634 on the ER sweep; 1,771 on the corpus)."""

    @pytest.mark.parametrize("n, p, most", [(100, 0.08, 237), (200, 0.05, 666), (400, 0.03, 1767)])
    def test_er_sweep(self, n, p, most, phases):
        curvature_profile(generate("erdos_renyi", n=n, p=p, seed=0))
        assert phases[0] <= most

    def test_corpus(self, corpus_entries, phases):
        for _, g in corpus_entries:
            curvature_profile(g)
        assert phases[0] <= 1325


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

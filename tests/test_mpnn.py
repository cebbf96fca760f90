import json
import math
from fractions import Fraction

import numpy as np
import pytest
from kernel_reference import dense_walk_counts, statement_edges

from orckit.curvature import bottleneck_sets, edge_report
from orckit.diagnostics import smoothing_metrics
from orckit.graphs import generate
from orckit.mpnn import (
    MAX_DEMO_ITERATIONS,
    DegenerateNormalizer,
    DimensionMismatch,
    LayerSpec,
    MpnnSpec,
    NotLinear,
    SpecError,
    Update,
    _walk_row,
    alpha_beta,
    demo_instance,
    edge_gaps,
    forward,
    identity_spec,
    influence_distribution,
    linear_jacobians,
    parse_spec,
    smoothing_demo,
    vertex_norms,
    walk_counts,
)

F = Fraction


class TestUpdate:
    def test_clamp(self):
        u = Update("clamp", bound=1.0)
        assert np.array_equal(u.apply(np.array([-2.0, 0.5, 3.0])), [-1.0, 0.5, 1.0])
        assert u.lipschitz() == 1.0
        assert u.linear_matrix(3) is None

    def test_abs(self):
        u = Update("abs")
        assert np.array_equal(u.apply(np.array([-2.0, 3.0])), [2.0, 3.0])
        assert u.lipschitz() == 1.0

    def test_leaky(self):
        u = Update("leaky", slope=0.25)
        assert np.array_equal(u.apply(np.array([-4.0, 2.0])), [-1.0, 2.0])
        assert u.lipschitz() == 1.0

    def test_identity(self):
        u = Update("identity")
        assert u.lipschitz() == 1.0
        assert np.array_equal(u.linear_matrix(2), np.eye(2))

    def test_linear(self):
        m = np.array([[3.0]])
        u = Update("linear", matrix=m)
        assert u.apply(np.array([2.0])) == 6.0
        assert 3.0 <= u.lipschitz() <= 3.0 + 1e-6
        assert np.array_equal(u.linear_matrix(1), m)

    def test_composition_applies_left_to_right(self):
        u = Update("composition", parts=(Update("linear", matrix=np.array([[-2.0]])), Update("abs")))
        assert u.apply(np.array([1.5])) == 3.0

    def test_composition_of_linears_is_linear(self):
        a = Update("linear", matrix=np.array([[2.0]]))
        b = Update("linear", matrix=np.array([[5.0]]))
        comp = Update("composition", parts=(a, b))
        assert np.allclose(comp.linear_matrix(1), [[10.0]])
        # one nonlinear part poisons the whole composition
        assert Update("composition", parts=(a, Update("abs"))).linear_matrix(1) is None


class TestParseSpec:
    def test_minimal(self):
        spec = parse_spec('{"layers": [{"aggregator": "mean", "message": [[1.0]]}]}')
        assert len(spec.layers) == 1
        assert spec.layers[0].update.kind == "identity"

    def test_update_kinds(self):
        text = json.dumps(
            {
                "layers": [
                    {"aggregator": "sum", "message": [[1.0]], "update": {"kind": "clamp", "bound": 2.0}},
                    {"aggregator": "sum", "message": [[1.0]], "update": {"kind": "leaky", "slope": 0.1}},
                    {
                        "aggregator": "sum",
                        "message": [[1.0]],
                        "update": {"kind": "composition", "parts": [{"kind": "abs"}, {"kind": "identity"}]},
                    },
                ]
            }
        )
        spec = parse_spec(text)
        assert [l.update.kind for l in spec.layers] == ["clamp", "leaky", "composition"]

    def test_integers_are_numbers(self):
        layers = [
            {"aggregator": "sum", "message": [[1]], "update": {"kind": "clamp", "bound": 2}},
            {"aggregator": "sum", "message": [[1]], "update": {"kind": "leaky", "slope": 0}},
        ]
        spec = parse_spec(json.dumps({"layers": layers}))
        assert (spec.layers[0].update.bound, spec.layers[1].update.slope) == (2.0, 0.0)

    @pytest.mark.parametrize(
        "text",
        [
            "{broken",
            '{"layers": {}}',
            '{"layers": [{"aggregator": "max", "message": [[1]]}]}',
            '{"layers": [{"aggregator": "sum"}]}',
            '{"layers": [{"aggregator": "sum", "message": [1, 2]}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "huh"}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "clamp", "bound": 0}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "leaky", "slope": 2}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "linear"}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "composition", "parts": []}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[NaN]]}]}',
            '{"layers": [{"aggregator": "sum", "message": [[-Infinity]]}]}',
            '{"layers": [1]}',
            '{"layers": [null]}',
            '{"layers": [{"aggregator": "sum", "message": [[{}]]}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": 5}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "composition", "parts": [3]}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "composition", "parts": {"a": 1}}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "clamp", "bound": "x"}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "clamp", "bound": null}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "clamp", "bound": [1]}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "clamp"}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "leaky", "slope": null}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "leaky", "slope": "0.5"}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "linear", "matrix": 3}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "linear", "matrix": [1, 2]}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "linear", "matrix": [[{}]]}}]}',
            # non-finite numbers: null reads as NaN, 1e400 as inf
            '{"layers": [{"aggregator": "sum", "message": [[null]]}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1e400]]}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "linear", "matrix": [[null]]}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "clamp", "bound": 1e400}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "leaky", "slope": -1e400}}]}',
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(SpecError):
            parse_spec(text)

    @pytest.mark.parametrize(
        "layer, field",
        [
            ('"message": [[null]]', "layer 0: message"),
            ('"message": [[1]], "update": {"kind": "linear", "matrix": [[1, null]]}', "linear update matrix"),
            ('"message": [[1]], "update": {"kind": "clamp", "bound": 1e400}', '"bound"'),
            ('"message": [[1]], "update": {"kind": "leaky", "slope": 1e400}', '"slope"'),
        ],
    )
    def test_non_finite_names_the_field(self, layer, field):
        text = '{"layers": [{"aggregator": "sum", %s}]}' % layer
        with pytest.raises(SpecError, match="finite") as err:
            parse_spec(text)
        assert field in str(err.value)


class TestForward:
    def test_path_mean_layer(self):
        g = generate("path", n=3)
        x = np.array([[0.0], [0.0], [3.0]])
        traj = forward(g, x, identity_spec(1, 1, "mean"))
        assert np.allclose(traj[1].ravel(), [0.0, 1.0, 1.5])

    def test_path_sum_layer(self):
        g = generate("path", n=3)
        x = np.array([[0.0], [0.0], [3.0]])
        traj = forward(g, x, identity_spec(1, 1, "sum"))
        assert np.allclose(traj[1].ravel(), [0.0, 3.0, 3.0])

    def test_constant_features_are_a_mean_fixed_point(self):
        g = generate("barbell", k=3)
        x = np.full((6, 2), 7.0)
        traj = forward(g, x, identity_spec(2, 3, "mean"))
        for xs in traj:
            assert np.allclose(xs, x)

    def test_sum_identity_equals_augmented_adjacency(self):
        g = generate("barbell", k=3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 2))
        a = np.zeros((6, 6))
        for u, v in g.edges:
            a[u, v] = a[v, u] = 1.0
        a += np.eye(6)
        traj = forward(g, x, identity_spec(2, 1, "sum"))
        assert np.allclose(traj[1], a @ x)
        traj = forward(g, x, identity_spec(2, 1, "mean"))
        assert np.allclose(traj[1], a @ x / a.sum(axis=1, keepdims=True))

    def test_zero_layers_echo_input(self):
        g = generate("path", n=3)
        x = np.zeros((3, 1))
        assert len(forward(g, x, MpnnSpec(()))) == 1

    def test_row_count_must_match(self):
        g = generate("path", n=3)
        with pytest.raises(DimensionMismatch):
            forward(g, np.zeros((4, 1)), identity_spec(1, 1, "mean"))

    def test_channel_chain_must_match(self):
        g = generate("path", n=3)
        spec = MpnnSpec(
            (LayerSpec(aggregator="sum", message=np.ones((2, 2)), update=Update("identity")),)
        )
        with pytest.raises(DimensionMismatch):
            forward(g, np.zeros((3, 1)), spec)

    def test_overflow_is_rejected(self):
        g = generate("path", n=3)
        spec = parse_spec('{"layers": [{"aggregator": "sum", "message": [[1e308]]}]}')
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            forward(g, np.array([[1.0], [2.0], [3.0]]), spec)

    def test_popular_layer_shapes_instantiate(self):
        # mean-normalized convolution, mean sampler, and a sum MLP stack
        g = generate("complete", n=4)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 3))
        gcn_mean = MpnnSpec(
            (LayerSpec("mean", rng.standard_normal((3, 3)), Update("leaky", slope=0.2)),)
        )
        sage_mean = MpnnSpec(
            (LayerSpec("mean", rng.standard_normal((3, 3)), Update("identity")),)
        )
        gin0 = MpnnSpec(
            (
                LayerSpec(
                    "sum",
                    np.eye(3),
                    Update(
                        "composition",
                        parts=(
                            Update("linear", matrix=rng.standard_normal((3, 3))),
                            Update("clamp", bound=1.0),
                            Update("linear", matrix=rng.standard_normal((3, 3))),
                        ),
                    ),
                ),
            )
        )
        for spec in (gcn_mean, sage_mean, gin0):
            traj = forward(g, x, spec)
            assert traj[-1].shape == (4, 3)


def test_dirichlet_energy():
    g = generate("path", n=3)
    traj = [np.array([[0.0], [0.0], [3.0]]), np.zeros((3, 2))]
    assert smoothing_metrics(g, traj).dirichlet == (3.0, 0.0)


def test_feature_measures():
    x = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
    norms, gaps = vertex_norms(x), edge_gaps(x, generate("path", n=3).edges)
    assert norms == [5.0, 0.0, 1.0] and gaps == (5.0, 1.0)
    assert all(type(c) is float for c in norms + list(gaps))
    assert edge_gaps(x, [(2, 0)]) == (math.sqrt(20.0),)


class TestSmoothingDemo:
    def test_zero_iterations(self):
        g = generate("path", n=3)
        x = np.array([[0.0], [0.0], [3.0]])
        traj = smoothing_demo(g, x, 0)
        assert len(traj) == 1
        assert np.array_equal(traj[0], x)

    def test_negative_iterations_rejected(self):
        g = generate("path", n=3)
        with pytest.raises(ValueError, match="iterations must be a non-negative integer, got -3"):
            smoothing_demo(g, np.array([[0.0], [0.0], [3.0]]), -3)

    def test_iterations_over_cap_rejected(self):
        g = generate("path", n=3)
        with pytest.raises(ValueError, match=f"iterations must be at most {MAX_DEMO_ITERATIONS}"):
            smoothing_demo(g, np.array([[0.0], [0.0], [3.0]]), MAX_DEMO_ITERATIONS + 1)

    def test_path_energy_halves(self):
        g = generate("path", n=3)
        traj = smoothing_demo(g, np.array([[0.0], [0.0], [3.0]]), 1)
        assert smoothing_metrics(g, traj).dirichlet == (3.0, 1.5)

    def test_demo_instance_shape(self):
        g, x = demo_instance()
        assert g.vertex_count == 6
        assert len(g.edges) == 12
        assert x.shape == (6, 3)

    def test_demo_converges_monotonically(self):
        g, x = demo_instance()
        energies = smoothing_metrics(g, smoothing_demo(g, x, 10)).dirichlet
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        assert energies[10] < energies[0]

    def test_averaging_can_raise_energy_on_a_bridge(self):
        # two tight blocks with distinct values: the first averaging step
        # spreads the disagreement from the bridge onto six edges, 3 -> 9/2;
        # edge-difference energy is NOT monotone under mean aggregation in
        # general, which is exactly what this pins down
        g = generate("barbell", k=3)
        x = np.array([[0.0], [0.0], [0.0], [3.0], [3.0], [3.0]])
        energies = smoothing_metrics(g, smoothing_demo(g, x, 1)).dirichlet
        assert energies[0] == 3.0
        assert energies[1] == pytest.approx(4.5)

    def test_energies_equal_smoothing_metrics_on_corpus(self, corpus_entries):
        for name, g in corpus_entries:
            x = np.random.default_rng((215, g.vertex_count)).standard_normal((g.vertex_count, 3))
            traj = smoothing_demo(g, x, 5)
            # summed here edge by edge, not through edge_gaps
            expected = [
                math.fsum(float(np.linalg.norm(xs[u] - xs[v])) for u, v in g.edges)
                for xs in traj
            ]
            assert list(smoothing_metrics(g, traj).dirichlet) == expected, name


class TestWalkCounts:
    def test_path_depth_two(self):
        g = generate("path", n=3)
        assert walk_counts(g, 2) == [[2, 2, 1], [2, 3, 2], [1, 2, 2]]

    def test_depth_zero_is_identity(self):
        g = generate("cycle", n=4)
        assert walk_counts(g, 0) == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]

    def test_triangle_depth_one_is_all_ones(self):
        g = generate("complete", n=3)
        assert walk_counts(g, 1) == [[1, 1, 1], [1, 1, 1], [1, 1, 1]]


class TestLinearJacobians:
    def test_identity_blocks_are_walk_counts(self):
        g = generate("path", n=3)
        stack = linear_jacobians(g, identity_spec(1, 2, "sum"), 2)
        assert stack.block(0, 2) == np.array([[1.0]])
        assert stack.block(1, 1) == np.array([[3.0]])

    def test_scaled_messages_multiply_through(self):
        g = generate("path", n=3)
        layer = LayerSpec("sum", np.array([[2.0]]), Update("identity"))
        stack = linear_jacobians(g, MpnnSpec((layer, layer)), 2)
        assert stack.block(0, 0) == np.array([[8.0]])  # 2 walks x 2 x 2

    def test_requires_sum_aggregation(self):
        g = generate("path", n=3)
        with pytest.raises(NotLinear):
            linear_jacobians(g, identity_spec(1, 2, "mean"), 2)

    def test_requires_linear_updates(self):
        g = generate("path", n=3)
        layer = LayerSpec("sum", np.eye(1), Update("abs"))
        with pytest.raises(NotLinear):
            linear_jacobians(g, MpnnSpec((layer, layer)), 2)

    def test_depth_cannot_exceed_layers(self):
        g = generate("path", n=3)
        with pytest.raises(SpecError):
            linear_jacobians(g, identity_spec(1, 1, "sum"), 2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_blocks_match_finite_differences(self, seed):
        g = generate("barbell", k=3)
        rng = np.random.default_rng(seed)
        layers = tuple(
            LayerSpec(
                "sum",
                rng.uniform(-1, 1, (2, 2)),
                Update("linear", matrix=rng.uniform(-1, 1, (2, 2))),
            )
            for _ in range(2)
        )
        spec = MpnnSpec(layers)
        x = rng.standard_normal((6, 2))
        stack = linear_jacobians(g, spec, 2)
        h = 1e-6
        for u in range(6):
            for w in range(6):
                fd = np.zeros((2, 2))
                for c in range(2):
                    xp, xm = x.copy(), x.copy()
                    xp[w, c] += h
                    xm[w, c] -= h
                    fd[:, c] = (forward(g, xp, spec)[2][u] - forward(g, xm, spec)[2][u]) / (2 * h)
                block = stack.block(u, w)
                assert np.max(np.abs(fd - block)) <= 1e-5 * max(1.0, np.max(np.abs(block)))


class TestInfluence:
    def test_path_leaf_depth_two(self):
        g = generate("path", n=3)
        row = influence_distribution(g, identity_spec(1, 2, "sum"), 2, 0)
        assert row == [F(2, 5), F(2, 5), F(1, 5)]

    def test_depth_zero_is_an_indicator(self):
        g = generate("cycle", n=4)
        spec = identity_spec(1, 2, "sum")
        assert influence_distribution(g, spec, 0, 2) == [0, 0, 1, 0]

    def test_triangle_depth_one_is_uniform(self):
        g = generate("complete", n=3)
        row = influence_distribution(g, identity_spec(1, 1, "sum"), 1, 0)
        assert row == [F(1, 3)] * 3

    def test_rows_sum_to_one_exactly(self):
        g = generate("barbell", k=4)
        spec = identity_spec(1, 4, "sum")
        for depth in range(5):
            for u in range(g.vertex_count):
                assert sum(influence_distribution(g, spec, depth, u)) == 1

    def test_sparse_rows_match_dense_walk_counts(self, corpus_entries):
        spec = identity_spec(1, 4, "sum")
        for name, g in corpus_entries:
            for depth in range(5):
                dense = dense_walk_counts(g, depth)
                assert walk_counts(g, depth) == dense, f"{name} depth {depth}"
                for u in range(g.vertex_count):
                    # the local row holds exactly the nonzero entries: u's depth-ball
                    ball = {w: c for w, c in enumerate(dense[u]) if c}
                    assert _walk_row(g, depth, u) == ball, f"{name} depth {depth} u={u}"
                    total = sum(dense[u])
                    expected = [F(c, total) for c in dense[u]]
                    assert influence_distribution(g, spec, depth, u) == expected

    def test_zero_message_degenerates(self):
        g = generate("path", n=3)
        layer = LayerSpec("sum", np.zeros((1, 1)), Update("identity"))
        with pytest.raises(DegenerateNormalizer):
            influence_distribution(g, MpnnSpec((layer, layer)), 2, 0)


class TestAlphaBeta:
    def test_path_edge(self, ratio_bounds_hold):
        g = generate("path", n=3)
        counts = dense_walk_counts(g, 2)
        ab, alpha_check, beta_check = ratio_bounds_hold(g, counts, edge_report(g, 0, 1))
        assert ab.alpha == F(2, 5)
        assert ab.beta == F(2, 7)
        # the far-leaf sender alone contributes ratio 1/5
        assert F(counts[0][2], sum(counts[0])) == F(1, 5)
        # denominator is the extended-neighborhood degree sum
        assert ab.row_sum_u == (g.degree(0) + 1) + (g.degree(1) + 1)
        assert alpha_check.rhs == F(4, 5)
        assert beta_check.rhs == F(4, 7)
        s_size = bottleneck_sets(g, 0, 1).s_size
        assert s_size == len(statement_edges(g, 0, 1))
        assert F(s_size + 2, ab.row_sum_u) == F(3, 5)

    def test_double_star_centers(self, ratio_bounds_hold):
        g = generate("double_star", a=3, b=3)
        ab, alpha_check, _ = ratio_bounds_hold(g, dense_walk_counts(g, 2), edge_report(g, 0, 1))
        assert ab.alpha == F(1, 6)
        s_size = bottleneck_sets(g, 0, 1).s_size
        assert s_size == len(statement_edges(g, 0, 1))
        assert F(s_size + 2, ab.row_sum_u) == F(1, 4)
        assert alpha_check.rhs == F(1, 3)

    def test_non_edge_rejected(self):
        g = generate("path", n=3)
        for u, v in ((0, 2), (1, 1)):
            with pytest.raises(ValueError, match=rf"\({u},{v}\) is not an edge"):
                alpha_beta(g, u, v)

    def test_triangle_is_symmetric(self):
        g = generate("complete", n=3)
        ab = alpha_beta(g, 0, 1)
        assert ab.alpha == ab.beta

    def test_bounds_hold_on_denser_graphs(self, walk_count_ratios, ratio_bounds_hold):
        graphs = [generate("cocktail_party", m=3), generate("erdos_renyi", n=12, p=0.4, seed=9)]
        graphs += [generate("erdos_renyi", n=15, p=0.3, seed=s) for s in range(3)]
        for g in graphs:
            counts = dense_walk_counts(g, 2)
            for u, v in g.edges:
                ab, _, _ = ratio_bounds_hold(g, counts, edge_report(g, u, v))
                # the local walk rows agree with rows of the dense (A+I)^2
                assert (ab.alpha, ab.beta) == walk_count_ratios(g, counts, u, v)

    def test_structural_bound_uses_the_connecting_set(self):
        # alpha <= (|S_statement| + 2) / row sum: a proof step that tests
        # assert and the suite does not check
        g = generate("path", n=3)
        ab = alpha_beta(g, 0, 1)
        s_size = bottleneck_sets(g, 0, 1).s_size
        assert s_size == len(statement_edges(g, 0, 1))
        assert ab.row_sum_u == 5
        assert ab.alpha <= F(s_size + 2, ab.row_sum_u) == F(3, 5)

import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from emit_reference import suite_report_obj, summary_obj
from hypothesis import given, settings, strategies as st
from kernel_reference import dense_walk_counts

from orckit import diagnostics, mpnn
from orckit.curvature import curvature_profile, edge_report, ricci_curvature
from orckit.diagnostics import (
    CHECK_NAMES,
    TOLERANCE,
    BoundCheck,
    _draw_one_layer,
    _one_layer_rhs,
    _skip,
    smoothing_metrics,
    suite_checks,
    suite_summary,
    verify_bottleneck,
    verify_diameter,
    verify_jacobian_ratio,
    verify_multilayer,
    verify_one_layer,
    verify_shared_neighbor,
)
from orckit.emit import _WRITE_BATCH, simulate_obj, write_suite
from orckit.graphs import generate
from orckit.mpnn import LayerSpec, MpnnSpec, Update, WalkRows, alpha_beta, forward, identity_spec

F = Fraction


class TestSmoothingMetrics:
    def test_path_example(self):
        g = generate("path", n=3)
        traj = forward(g, np.array([[0.0], [0.0], [3.0]]), identity_spec(1, 1, "mean"))
        report = smoothing_metrics(g, traj)
        assert report.dirichlet == (3.0, 1.5)
        assert report.gaps[0] == (0.0, 3.0)
        assert report.gaps[1] == (1.0, 0.5)

    def test_constant_features(self):
        g = generate("cycle", n=5)
        traj = forward(g, np.full((5, 3), 2.0), identity_spec(3, 2, "mean"))
        report = smoothing_metrics(g, traj)
        assert all(gap == 0.0 for row in report.gaps for gap in row)

    def test_triangle_collapses_in_one_mean_step(self):
        # every vertex of K3 averages over the same extended neighborhood
        g = generate("complete", n=3)
        rng = np.random.default_rng(4)
        traj = forward(g, rng.standard_normal((3, 2)), identity_spec(2, 1, "mean"))
        report = smoothing_metrics(g, traj)
        assert report.dirichlet[1] == pytest.approx(0.0, abs=1e-12)

    def test_json_obj(self):
        g = generate("path", n=3)
        traj = forward(g, np.array([[0.0], [0.0], [3.0]]), identity_spec(1, 1, "mean"))
        # as written: json renders the report's tuples as lists
        obj = json.loads(json.dumps(simulate_obj(g, smoothing_metrics(g, traj), demo=False)))
        obj = obj["smoothing"]
        assert obj["norm"] == "euclidean"
        assert obj["edges"] == [[0, 1], [1, 2]]
        assert obj["dirichlet"] == [3.0, 1.5]


def one_layer_check(g, spec, x, edge):
    """The one-layer check of spec's first layer on a single edge."""
    (check,) = verify_one_layer(g, spec.layers[0], x, [edge_report(g, *edge)])
    return check


class TestOneLayer:
    def test_triangle_sum_identity(self):
        g = generate("complete", n=3)
        x = np.array([[1.0], [-1.0], [1.0]])  # max norm 1 over both neighborhoods
        check = one_layer_check(g, identity_spec(1, 1, "sum"), x, (0, 1))
        assert check.name == "one_layer_sum"
        assert check.holds
        assert check.lhs == 0.0  # identical extended neighborhoods
        assert check.rhs == pytest.approx(2.0, rel=1e-6)

    def test_zero_features(self):
        g = generate("barbell", k=3)
        check = one_layer_check(g, identity_spec(1, 1, "mean"), np.zeros((6, 1)), (0, 1))
        assert check.holds and check.lhs == 0.0

    def test_random_mean_layer_on_k4(self):
        g = generate("complete", n=4)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        check = one_layer_check(g, identity_spec(3, 1, "mean"), x, (0, 1))
        assert check.name == "one_layer_mean"
        assert check.holds

    def test_flat_curvature_fails_the_hypothesis(self):
        g = generate("path", n=3)
        check = one_layer_check(g, identity_spec(1, 1, "mean"), np.zeros((3, 1)), (0, 1))
        assert check.skipped and check.context == "edge=(0,1) kappa=0/1"
        assert check.reason == "kappa(0,1) = 0/1 is not positive"

    @pytest.mark.parametrize("agg_index, aggregator", [(0, "sum"), (1, "mean")])
    def test_suite_matches_per_edge_checks(self, corpus_entries, agg_index, aggregator):
        # the suite checks each trial's layer on every positively curved edge;
        # rebuilt here edge by edge from ricci_curvature, a separate
        # first-layer pass for the gap and C over the two closed neighbourhoods
        entries = list(corpus_entries)
        entries += [(f"er{s}", generate("erdos_renyi", n=15, p=0.3, seed=s)) for s in range(3)]
        name = f"one_layer_{aggregator}"
        checks = tuple(suite_checks(entries, trials=len(entries), seed=3, suite=name))
        expected = []
        for t, (graph_name, g) in enumerate(entries):
            rng = np.random.default_rng((3, agg_index, t))
            spec, channels = _draw_one_layer(rng, aggregator)
            x = rng.standard_normal((g.vertex_count, channels))
            x1 = forward(g, x, spec)[1]
            layer = spec.layers[0]
            edge_checks = []
            for u, v in g.edges:
                kappa = ricci_curvature(g, u, v)
                if kappa <= 0:
                    continue
                gap = float(np.linalg.norm(x1[u] - x1[v]))
                closed = {u, v, *g.adjacency[u], *g.adjacency[v]}
                big_c = max(float(np.linalg.norm(x[p])) for p in closed)
                n = max(g.degree(u), g.degree(v))
                big_l, big_m = layer.update.lipschitz(), layer.operator_bound()
                rhs = _one_layer_rhs(aggregator, kappa, n, big_l, big_c, big_m)
                context = f"trial={t} edge=({u},{v}) kappa={kappa.numerator}/{kappa.denominator}"
                holds = gap <= rhs + TOLERANCE
                slack = rhs - gap
                edge_checks.append(
                    BoundCheck(name, graph_name, context, gap, rhs, holds, slack, TOLERANCE)
                )
            expected += edge_checks or [
                _skip(name, graph_name, f"trial={t}", "no positively curved edge")
            ]
        assert list(checks) == expected


class TestMultilayer:
    def test_k4_identity_layers(self):
        g = generate("complete", n=4)
        x = np.array([[1.0], [0.5], [-0.5], [-1.0]])  # C = 1
        checks = verify_multilayer(g, identity_spec(1, 2, "mean"), x, curvature_profile(g))
        assert len(checks) == 12  # 6 edges x 2 layers
        k1 = [c for c in checks if "k=1" in c.context]
        # (2/3) * C * (3 * floor((1 - 2/3) * 3) / 4) = 1/2
        assert all(c.rhs == pytest.approx(0.5, rel=1e-6) for c in k1)
        assert all(c.holds for c in checks)

    def test_random_linear_layers_hold(self):
        rng = np.random.default_rng(3)
        for m in (3, 4):
            g = generate("cocktail_party", m=m)
            layers = tuple(
                LayerSpec(
                    "mean",
                    rng.uniform(-1, 1, (2, 2)),
                    Update("linear", matrix=rng.uniform(-1, 1, (2, 2))),
                )
                for _ in range(4)
            )
            x = rng.standard_normal((g.vertex_count, 2))
            checks = verify_multilayer(g, MpnnSpec(layers), x, curvature_profile(g))
            assert checks and all(c.holds for c in checks)

    @staticmethod
    def skip_reason(g, aggregator):
        (check,) = verify_multilayer(
            g, identity_spec(1, 2, aggregator), np.zeros((4, 1)), curvature_profile(g)
        )
        assert check.skipped and check.context == ""
        return check.reason

    def test_irregular_graph_rejected(self):
        reason = self.skip_reason(generate("star", n=3), "mean")
        assert reason == "graph is not regular (degrees [1, 3])"

    def test_flat_curvature_rejected(self):
        reason = self.skip_reason(generate("cycle", n=4), "mean")
        assert reason == "minimum curvature 0/1 is not positive"

    def test_sum_aggregation_rejected(self):
        reason = self.skip_reason(generate("complete", n=4), "sum")
        assert reason == "every layer must use the mean aggregator"

    def test_hypotheses_are_named_in_order(self):
        # regularity first, then delta > 0, then the aggregator
        reason = self.skip_reason(generate("star", n=3), "sum")
        assert reason == "graph is not regular (degrees [1, 3])"
        reason = self.skip_reason(generate("cycle", n=4), "sum")
        assert reason == "minimum curvature 0/1 is not positive"


class TestJacobianRatio:
    def test_path_edge_pair(self):
        g = generate("path", n=3)
        alpha, beta = verify_jacobian_ratio(g, edge_report(g, 0, 1))
        assert alpha.holds and beta.holds
        assert "side=alpha" in alpha.context and "side=beta" in beta.context
        assert alpha.lhs == F(2, 5) and alpha.rhs == F(4, 5)
        assert beta.lhs == F(2, 7) and beta.rhs == F(4, 7)

    def test_triangle_has_slack(self):
        g = generate("complete", n=3)
        alpha, _ = verify_jacobian_ratio(g, edge_report(g, 0, 1))
        assert alpha.holds and alpha.slack > 0

    def test_suite_matches_per_edge_checks(self, corpus_entries, walk_count_ratios):
        # the suite checks alpha/beta on every edge; rebuilt here from rows of
        # the dense (A+I)^2 and ricci_curvature, the bound being
        # (n (kappa + 2) + 4) / (2 * row sum of the receiving vertex)
        entries = list(corpus_entries)
        entries += [(f"er{s}", generate("erdos_renyi", n=15, p=0.3, seed=s)) for s in range(3)]
        checks = tuple(suite_checks(entries, trials=0, suite="jacobian_ratio"))
        expected = []
        for name, g in entries:
            counts = dense_walk_counts(g, 2)
            for u, v in g.edges:
                ratios = walk_count_ratios(g, counts, u, v)
                kappa_form = max(g.degree(u), g.degree(v)) * (ricci_curvature(g, u, v) + 2) + 4
                for side, lhs, row in zip(("alpha", "beta"), ratios, (counts[u], counts[v])):
                    rhs = kappa_form / (2 * sum(row))
                    context = f"edge=({u},{v}) k=0 side={side}"
                    holds, slack = lhs <= rhs, rhs - lhs
                    expected.append(
                        BoundCheck("jacobian_ratio", name, context, lhs, rhs, holds, slack, 0.0)
                    )
        assert list(checks) == expected


def fraction_formula_checks(g, r, graph_name):
    """The shared-neighbour, bottleneck and Jacobian-ratio checks of the edge
    report r, stated in Fraction arithmetic: the reference for the integer
    cross-products the verify_* functions decide them by."""

    def exact(name, context, lhs, rhs):
        lhs, rhs = Fraction(lhs), Fraction(rhs)
        return BoundCheck(name, graph_name, context, lhs, rhs, lhs <= rhs, rhs - lhs, 0.0)

    (u, v), kappa, sets = r.edge, r.kappa, r.sets
    n, m = max(r.deg_u, r.deg_v), min(r.deg_u, r.deg_v)
    edge = f"edge=({u},{v})"
    checks = [exact("shared_neighbor", edge, kappa, Fraction(sets.n0, n))]
    if sets.max_load * m <= n:
        checks.append(exact("bottleneck_statement", edge, sets.s_size, n * (kappa + 2) / 2))
    checks.append(exact("bottleneck_strong", edge, 3 * sets.n0 + 2 * sets.n1, n * (kappa + 2)))
    ab = alpha_beta(g, u, v)
    kappa_form = n * (kappa + 2) + 4
    for side, lhs, row_sum in (("alpha", ab.alpha, ab.row_sum_u), ("beta", ab.beta, ab.row_sum_v)):
        rhs = kappa_form / (2 * row_sum)
        checks.append(exact("jacobian_ratio", f"{edge} k=0 side={side}", lhs, rhs))
    return checks


class TestComputedOnce:
    """The verify path builds each walk row once per graph and decides its
    exact checks on integers, with the results of the direct formulas."""

    def test_corpus_verify_builds_each_walk_row_once(self, corpus_entries, monkeypatch):
        built = Counter()
        walk_row = mpnn._walk_row

        def counted(g, depth, u):
            built[id(g), u] += 1  # corpus_entries keeps every graph, so no id is reused
            return walk_row(g, depth, u)

        monkeypatch.setattr(mpnn, "_walk_row", counted)
        tuple(suite_checks(corpus_entries, trials=2, seed=1))
        assert len(built) == sum(g.vertex_count for _, g in corpus_entries)
        assert max(built.values()) == 1

    @pytest.mark.parametrize("graphs", ["corpus", "irregular", "dense"])
    def test_integer_checks_equal_fraction_formulas(self, request, graphs):
        if graphs == "corpus":
            entries = request.getfixturevalue("corpus_entries")
            profiles = request.getfixturevalue("corpus_profiles")
        elif graphs == "irregular":
            entries = request.getfixturevalue("irregular_graphs")
            profiles = request.getfixturevalue("irregular_profiles")
        else:
            entries = [("dense", request.getfixturevalue("dense_graph"))]
            profiles = {"dense": request.getfixturevalue("dense_profile")}
        for name, g in entries:
            rows = WalkRows(g)
            for r in profiles[name].reports:
                checks = [verify_shared_neighbor(r, name), *verify_bottleneck(r, name)]
                checks = [c for c in checks if not c.skipped]
                checks += verify_jacobian_ratio(g, r, name, rows)
                assert checks == fraction_formula_checks(g, r, name)
                # equal values could still be floats, which emit would render
                # without their exact "p/q"
                values = [x for c in checks for x in (c.lhs, c.rhs, c.slack)]
                assert all(type(x) is Fraction for x in values)

    def test_alpha_beta_with_and_without_rows_on_two_graphs(self):
        # the two graphs share vertex ids, so rows filed under the wrong
        # graph would give wrong ratios
        graphs = [generate("erdos_renyi", n=15, p=0.3, seed=0), generate("double_star", a=3, b=4)]
        tables = [WalkRows(g) for g in graphs]
        for _ in range(2):
            for g, rows in zip(graphs, tables):
                for u, v in g.edges:
                    assert alpha_beta(g, u, v, rows) == alpha_beta(g, u, v)
        with pytest.raises(ValueError, match="another graph"):
            alpha_beta(graphs[0], *graphs[0].edges[0], tables[1])


def diameter_check(g):
    return verify_diameter(g, curvature_profile(g))


class TestDiameter:
    def test_triangle(self):
        check = diameter_check(generate("complete", n=3))
        assert check.holds
        assert (check.lhs, check.rhs) == (F(1), F(4))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_complete_family(self, n):
        check = diameter_check(generate("complete", n=n))
        assert check.holds
        assert check.rhs == (2 * (n - 1)) // (n - 2)

    def test_flat_curvature_rejected(self):
        check = diameter_check(generate("path", n=4))
        assert check.skipped and check.context == ""
        assert check.reason == "minimum curvature 0/1 is not positive"


def test_mean_case_rhs_decreases_toward_one():
    def rhs(kappa, n):
        return _one_layer_rhs("mean", kappa, n, 1.0, 1.0, 1.0)

    for n in (2, 3, 5):
        grid = [rhs(F(x, 1000), n) for x in (900, 990, 999)]
        assert grid[0] > grid[1] > grid[2] > 0
    assert rhs(F(999999, 1000000), 3) < 1e-4


class TestSharedNeighborBound:
    def test_tight_on_triangle(self):
        check = verify_shared_neighbor(edge_report(generate("complete", n=3), 0, 1))
        assert check.holds and check.slack == 0

    def test_tight_on_four_cycle(self):
        check = verify_shared_neighbor(edge_report(generate("cycle", n=4), 0, 1))
        assert check.holds and check.slack == 0

    def test_slack_on_double_star(self):
        g = generate("double_star", a=3, b=3)
        check = verify_shared_neighbor(edge_report(g, 0, 1))
        assert check.holds and check.slack == F(2, 3)


class TestBottleneckBound:
    def test_double_star(self):
        r = edge_report(generate("double_star", a=3, b=3), 0, 1)
        assert r.kappa == F(-2, 3)
        statement, strong = verify_bottleneck(r)
        assert statement.holds is True
        assert (statement.lhs, statement.rhs) == (1, F(2))
        assert strong.holds
        assert (strong.lhs, strong.rhs) == (0, F(4))

    def test_triangle_statement_is_skipped(self):
        r = edge_report(generate("complete", n=3), 0, 1)
        assert r.kappa == F(1, 2)
        statement, strong = verify_bottleneck(r)
        assert statement.skipped
        assert strong.holds
        assert (strong.lhs, strong.rhs) == (3, F(5))

    def test_four_cycle_statement_is_tight(self):
        r = edge_report(generate("cycle", n=4), 0, 1)
        assert r.kappa == 0
        statement, strong = verify_bottleneck(r)
        assert statement.holds is True
        assert statement.lhs == statement.rhs == 2
        assert (strong.lhs, strong.rhs) == (2, F(4))

    @pytest.mark.parametrize(
        "name, floor",
        [
            ("bottleneck_statement", 412),
            ("diameter", 17),
            ("multilayer", 1032),
            ("one_layer_sum", 4944),
            ("one_layer_mean", 4944),
        ],
    )
    def test_corpus_decides_a_floor_of_statement_checks(self, name, floor):
        # e.g. the participation hypothesis holds on 412 of the corpus's
        # 3,551 edges; a change that narrows a bound's hypothesis would turn
        # its checks into skips without a failing check
        row = summary_obj(tuple(suite_checks(suite=name)))["by_name"][name]
        assert row["passed"] + row["violated"] >= floor


def written_check(check: BoundCheck) -> dict:
    """check as a one-check suite report renders it, after the report's bytes
    are checked against the reference shape."""
    report = ("all", 0, 0, (check,))
    _assert_writes_as_dumps(*report)
    return json.loads(streamed(*report)[0])["checks"][0]


class TestBoundCheckShape:
    def test_exact_json(self):
        check = diameter_check(generate("complete", n=3))
        obj = written_check(check)
        assert obj["name"] == "diameter"
        assert obj["holds"] is True
        assert obj["lhs"] == {"exact": "1/1", "float": 1.0}
        assert not check.skipped and not check.violated

    def test_approx_json(self):
        g = generate("complete", n=3)
        check = one_layer_check(g, identity_spec(1, 1, "sum"), np.ones((3, 1)), (0, 1))
        obj = written_check(check)
        assert obj["lhs"]["exact"] is None
        assert obj["tolerance"] == 1e-9


class TestSuiteChecks:
    def test_empty_corpus(self):
        assert tuple(suite_checks([], trials=5, seed=1)) == ()
        assert streamed("all", 5, 1, ())[1]["total"] == 0

    def test_single_triangle_coverage(self):
        checks = tuple(suite_checks([("k3", generate("complete", n=3))], trials=2, seed=1))
        assert {c.name for c in checks} == set(CHECK_NAMES)
        assert not any(c.violated for c in checks)
        # the statement-side bottleneck hypothesis fails on K3, so those
        # entries must be skips, not passes
        statement = [c for c in checks if c.name == "bottleneck_statement"]
        assert statement and all(c.skipped and c.reason for c in statement)

    def test_skips_carry_reasons(self):
        checks = suite_checks([("p4", generate("path", n=4))], trials=1, seed=1)
        diameter = [c for c in checks if c.name == "diameter"]
        assert len(diameter) == 1 and diameter[0].skipped
        assert "not positive" in diameter[0].reason

    def test_named_suite_filters(self):
        checks = tuple(suite_checks([("k3", generate("complete", n=3))], trials=1, suite="diameter"))
        assert checks and all(c.name == "diameter" for c in checks)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            suite_checks([], suite="bogus")

    def test_deterministic(self):
        entries = [("k3", generate("complete", n=3)), ("b3", generate("barbell", k=3))]
        a = tuple(suite_checks(entries, trials=4, seed=5))
        b = tuple(suite_checks(entries, trials=4, seed=5))
        assert suite_report_obj("all", 4, 5, a) == suite_report_obj("all", 4, 5, b)
        assert streamed("all", 4, 5, a) == streamed("all", 4, 5, b)

    def test_summary_tallies_match(self):
        checks = tuple(suite_checks([("b3", generate("barbell", k=3))], trials=3, seed=2))
        s = streamed("all", 3, 2, checks)[1]
        assert s["total"] == len(checks)
        assert set(s["by_name"]) == set(CHECK_NAMES)
        tallied = sum(sum(row.values()) for row in s["by_name"].values())
        assert tallied == s["total"]

    def test_fail_fast_smoke(self):
        # nothing violates on this corpus; the flag must not change results
        entries = [("k3", generate("complete", n=3))]
        checks = tuple(suite_checks(entries, trials=1, seed=1, fail_fast=True))
        assert checks == tuple(suite_checks(entries, trials=1, seed=1))
        assert not any(c.violated for c in checks)


def streamed(suite: str, trials: int, seed: int, checks) -> tuple[str, dict]:
    """The text write_suite writes and the summary it returns, given a
    suite's name, trials and seed and its checks, as a one-shot iterator."""
    parts = []
    summary = write_suite(suite, trials, seed, iter(checks), parts.append)
    return "".join(parts), summary


def _assert_writes_as_dumps(suite: str, trials: int, seed: int, checks, stream=None) -> None:
    """Streaming checks, or stream, a stream that yields the same checks,
    writes json.dumps of the report's reference shape and returns the
    reference summary."""
    written, summary = streamed(suite, trials, seed, checks if stream is None else stream)
    obj = suite_report_obj(suite, trials, seed, checks)
    assert summary == obj["summary"]
    dumped = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if written != dumped:
        # a short window, not pytest's diff of two large strings, which
        # would make every failing example slow to shrink
        i = next((i for i, (a, b) in enumerate(zip(written, dumped)) if a != b), len(dumped))
        lo = max(0, i - 60)
        pytest.fail(f"differs at {i}: {written[lo : i + 60]!r} != {dumped[lo : i + 60]!r}")


_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\xe9\u20ac\U0001f600'), st.characters()))
_FLOATS = st.one_of(
    st.sampled_from([-0.0, 1e-09, 1e16, 5e-324, 2.2e-308, math.nan, math.inf, -math.inf]),
    st.floats(),
)
_FRACTIONS = st.one_of(
    st.sampled_from([F(3, 7), F(-5, 2), F(4), F(-1), F(0)]),
    st.fractions(),
    st.integers().map(Fraction),
)
_VALUES = st.one_of(st.none(), _FRACTIONS, _FLOATS)
_CHECKS = st.builds(
    BoundCheck,
    name=st.one_of(st.sampled_from(CHECK_NAMES), _TEXT),
    graph=_TEXT,
    context=_TEXT,
    lhs=_VALUES,
    rhs=_VALUES,
    holds=st.sampled_from([True, False, None]),
    slack=_VALUES,
    tolerance=_FLOATS,
    reason=_TEXT,
)
# A few values, each drawn many times, so that a report repeats Fractions
# (as distinct but equal objects), frames and tolerances as the corpus
# report does; a cached rendering that is keyed too coarsely then shows.
_POOL_FLOATS = st.sampled_from([0.0, -0.0, 0.25, math.nan, math.inf, -math.inf])
_POOL_VALUES = st.one_of(
    st.none(),
    _POOL_FLOATS,
    st.sampled_from([(1, 3), (-2, 1), (0, 1), (6, 4)]).map(lambda pq: F(*pq)),
)
_POOL_CHECKS = st.builds(
    BoundCheck,
    name=st.sampled_from(CHECK_NAMES[:2]),
    graph=st.sampled_from(["g", "h"]),
    context=st.sampled_from(["", "edge=(0,1)"]),
    lhs=_POOL_VALUES,
    rhs=_POOL_VALUES,
    holds=st.sampled_from([True, False, None]),
    slack=_POOL_VALUES,
    tolerance=st.sampled_from([0.0, -0.0, TOLERANCE, math.nan, math.inf]),
    reason=st.sampled_from(["", "not positive"]),
)
# 0, 1 and many checks, on both sides of every write-batch boundary
_COUNTS = st.sampled_from(
    [0, 1, 2, _WRITE_BATCH - 1, _WRITE_BATCH, _WRITE_BATCH + 1, 2 * _WRITE_BATCH + 3]
)
_FILLER = BoundCheck("shared_neighbor", "g", "edge=(0,1)", F(1, 2), F(2, 3), True, F(1, 6), 0.0)


@st.composite
def suite_reports(draw, checks=_CHECKS, max_drawn=6):
    """A report's (suite, trials, seed, checks): a few drawn checks, padded
    with a fixed one up to a drawn count, so a failure in a drawn check
    shrinks to a small report quickly, and one at a batch boundary still
    shows."""
    count = draw(_COUNTS)
    checks = draw(st.lists(checks, max_size=max_drawn))
    padding = max(0, count - len(checks))
    suite, trials, seed = draw(_TEXT), draw(st.integers(min_value=0)), draw(st.integers(min_value=0))
    return suite, trials, seed, tuple(checks) + (_FILLER,) * padding


@settings(derandomize=True, deadline=None, max_examples=50, database=None)
@given(suite_reports())
def test_summary_tallies_each_check_once(report):
    checks = report[3]
    expected = summary_obj(checks)
    outcomes = Counter((c.name, c.holds) for c in checks)
    first = suite_summary(outcomes)
    assert first == expected
    first["by_name"].clear()  # a caller's copy, not shared tallies
    assert suite_summary(outcomes) == expected
    assert streamed(*report)[1] == expected


class TestWriteJson:
    """The streamed writer must give json.dumps(suite_report_obj(suite,
    trials, seed, checks), sort_keys=True, indent=2) + newline byte for
    byte; `verify`'s golden hash rests on it."""

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(suite_reports())
    def test_drawn_reports_match_dumps(self, report):
        _assert_writes_as_dumps(*report)

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(st.lists(suite_reports(_POOL_CHECKS, max_drawn=40), min_size=1, max_size=3))
    def test_reports_of_repeated_values_match_dumps(self, reports):
        # several reports in a row: nothing one call renders may reach the next
        for report in reports:
            _assert_writes_as_dumps(*report)

    def test_every_cached_rendering_matches_dumps(self):
        third, other_third = F(1, 3), F(2, 6)
        assert third == other_third and third is not other_third
        name, reason = "one_layer_sum", "why"
        checks = (
            BoundCheck(name, "g", "a", third, F(1, 2), True, F(1, 6), 0.0, reason),
            BoundCheck(name, "g", "b", F(1, 4), other_third, True, F(1, 12), 0.0, reason),
            BoundCheck(name, "g", "c", third, third, True, F(0), -0.0, reason),
            BoundCheck(name, "h", "d", 0.0, -0.0, False, math.nan, TOLERANCE, reason),
            BoundCheck(name, "h", "e", math.inf, -math.inf, None, -0.0, TOLERANCE, reason),
            BoundCheck(name, "h", "f", None, None, None, None, 0.0, reason),
            BoundCheck(name, "h", "g", -0.0, math.nan, True, math.inf, -0.0, reason),
        )
        text = streamed("all", 1, 0, checks)[0]
        assert '"tolerance": 0.0\n' in text and '"tolerance": -0.0\n' in text
        assert text.count('"exact": "1/3"') == 4
        _assert_writes_as_dumps("all", 1, 0, checks)
        # the same frames and values in a second call, in the other order
        _assert_writes_as_dumps("all", 1, 0, checks[::-1])

    def test_corpus_report_matches_dumps(self, corpus_entries):
        checks = tuple(suite_checks(corpus_entries, trials=200, seed=1))
        assert len(checks) > 2 * _WRITE_BATCH
        _assert_writes_as_dumps("all", 200, 1, checks, suite_checks(corpus_entries, trials=200, seed=1))

    @pytest.mark.parametrize(
        "corpus, suite, names",
        [([], "all", set()), (None, "diameter", {"diameter"}), (None, "one_layer_mean", {"one_layer_mean"})],
    )
    def test_streamed_suite_matches_dumps(self, corpus_entries, corpus, suite, names):
        # the empty corpus and two named suites (None: the corpus fixture)
        corpus = corpus_entries if corpus is None else corpus
        checks = tuple(suite_checks(corpus, trials=7, seed=4, suite=suite))
        assert {c.name for c in checks} == names
        _assert_writes_as_dumps(suite, 7, 4, checks, suite_checks(corpus, trials=7, seed=4, suite=suite))

    def test_fail_fast_truncated_report_matches_dumps(self, corpus_entries, monkeypatch):
        # no corpus check violates, so make every one-layer bound negative
        monkeypatch.setattr(diagnostics, "_one_layer_rhs", lambda *args: -1.0)
        checks = tuple(suite_checks(corpus_entries, trials=200, seed=1, fail_fast=True))
        assert sum(c.violated for c in checks) == 1 and checks[-1].violated
        stream = suite_checks(corpus_entries, trials=200, seed=1, fail_fast=True)
        _assert_writes_as_dumps("all", 200, 1, checks, stream)

    def test_memory_does_not_grow_with_trials(self):
        """Streamed from suite_checks, no check outlives its written batch:
        from 20 to 2,000 trials the output grows more than 50 times and the
        traced peak by at most 256 kB. Both runs write more than one batch,
        so both hold a full one at their peak. An untraced 2,000-trial run
        first fills the interpreter's free lists, which keep up to 2,000
        freed tuples of each small size, so that neither traced run counts
        that bounded one-time growth."""
        corpus = [("k5", generate("complete", n=5)), ("k6", generate("complete", n=6))]
        assert len(tuple(suite_checks(corpus, trials=20, seed=1))) > _WRITE_BATCH

        def run(trials: int, traced: bool = True) -> tuple[int, int]:
            size = 0

            def write(text: str) -> None:
                nonlocal size
                size += len(text)

            if traced:
                tracemalloc.start()
            try:
                write_suite("all", trials, 1, suite_checks(corpus, trials, 1), write)
                return size, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run(2000, traced=False)
        (small, small_peak), (large, large_peak) = run(20), run(2000)
        assert large > 50 * small
        assert large_peak - small_peak <= 256 * 1024, (small_peak, large_peak)

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orckit import diagnostics
from orckit.curvature import NotAnEdge, edge_report
from orckit.diagnostics import (
    _WRITE_BATCH,
    CHECK_NAMES,
    BoundCheck,
    HypothesisNotMet,
    SuiteReport,
    _draw_one_layer,
    _one_layer_rhs,
    _skip,
    run_suite,
    smoothing_metrics,
    verify_bottleneck,
    verify_diameter,
    verify_jacobian_ratio,
    verify_multilayer,
    verify_one_layer,
    verify_shared_neighbor,
)
from orckit.graphs import generate
from orckit.mpnn import LayerSpec, MpnnSpec, Update, forward, identity_spec

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
        obj = smoothing_metrics(g, traj).to_json_obj(g)
        assert obj["norm"] == "euclidean"
        assert obj["edges"] == [[0, 1], [1, 2]]
        assert obj["dirichlet"] == [3.0, 1.5]


class TestOneLayer:
    def test_triangle_sum_identity(self):
        g = generate("complete", n=3)
        x = np.array([[1.0], [-1.0], [1.0]])  # max norm 1 over both neighborhoods
        check = verify_one_layer(g, identity_spec(1, 1, "sum"), x, (0, 1))
        assert check.name == "one_layer_sum"
        assert check.holds
        assert check.lhs == 0.0  # identical extended neighborhoods
        assert check.rhs == pytest.approx(2.0, rel=1e-6)

    def test_zero_features(self):
        g = generate("barbell", k=3)
        check = verify_one_layer(g, identity_spec(1, 1, "mean"), np.zeros((6, 1)), (0, 1))
        assert check.holds and check.lhs == 0.0

    def test_random_mean_layer_on_k4(self):
        g = generate("complete", n=4)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        check = verify_one_layer(g, identity_spec(3, 1, "mean"), x, (0, 1))
        assert check.name == "one_layer_mean"
        assert check.holds

    def test_flat_curvature_fails_the_hypothesis(self):
        g = generate("path", n=3)
        with pytest.raises(HypothesisNotMet):
            verify_one_layer(g, identity_spec(1, 1, "mean"), np.zeros((3, 1)), (0, 1))

    def test_not_an_edge(self):
        g = generate("path", n=3)
        with pytest.raises(NotAnEdge):
            verify_one_layer(g, identity_spec(1, 1, "mean"), np.zeros((3, 1)), (0, 2))

    @pytest.mark.parametrize("agg_index, aggregator", [(0, "sum"), (1, "mean")])
    def test_suite_matches_per_edge_checks(self, corpus_entries, agg_index, aggregator):
        # run_suite runs the first layer once per trial; the public per-edge
        # check gets kappa from its own edge report and must agree check for
        # check, with gaps equal to an independent first-layer pass
        entries = list(corpus_entries)
        entries += [(f"er{s}", generate("erdos_renyi", n=15, p=0.3, seed=s)) for s in range(3)]
        name = f"one_layer_{aggregator}"
        report = run_suite(corpus=entries, trials=len(entries), seed=3, suite=name)
        expected = []
        for t, (graph_name, g) in enumerate(entries):
            rng = np.random.default_rng((3, agg_index, t))
            spec, channels = _draw_one_layer(rng, aggregator)
            x = rng.standard_normal((g.vertex_count, channels))
            x1 = forward(g, x, spec)[1]
            checks = []
            for u, v in g.edges:
                try:
                    check = verify_one_layer(g, spec, x, (u, v), graph_name)
                except HypothesisNotMet:
                    continue
                assert check.lhs == float(np.linalg.norm(x1[u] - x1[v]))
                checks.append(dataclasses.replace(check, context=f"trial={t} " + check.context))
            expected += checks or [
                _skip(name, graph_name, f"trial={t}", "no positively curved edge")
            ]
        assert list(report.checks) == expected


class TestMultilayer:
    def test_k4_identity_layers(self):
        g = generate("complete", n=4)
        x = np.array([[1.0], [0.5], [-0.5], [-1.0]])  # C = 1
        checks = verify_multilayer(g, identity_spec(1, 2, "mean"), x, 2)
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
            checks = verify_multilayer(g, MpnnSpec(layers), x, 4)
            assert checks and all(c.holds for c in checks)

    def test_irregular_graph_rejected(self):
        g = generate("star", n=3)
        with pytest.raises(HypothesisNotMet):
            verify_multilayer(g, identity_spec(1, 2, "mean"), np.zeros((4, 1)), 2)

    def test_flat_curvature_rejected(self):
        g = generate("cycle", n=4)
        with pytest.raises(HypothesisNotMet):
            verify_multilayer(g, identity_spec(1, 2, "mean"), np.zeros((4, 1)), 2)

    def test_sum_aggregation_rejected(self):
        g = generate("complete", n=4)
        with pytest.raises(HypothesisNotMet):
            verify_multilayer(g, identity_spec(1, 2, "sum"), np.zeros((4, 1)), 2)


class TestJacobianRatio:
    def test_path_edge_pair(self):
        g = generate("path", n=3)
        alpha, beta = verify_jacobian_ratio(g, identity_spec(1, 2, "sum"), (0, 1))
        assert alpha.holds and beta.holds
        assert "side=alpha" in alpha.context and "side=beta" in beta.context
        assert alpha.lhs == F(2, 5) and alpha.rhs == F(4, 5)
        assert beta.lhs == F(2, 7) and beta.rhs == F(4, 7)

    def test_triangle_has_slack(self):
        g = generate("complete", n=3)
        alpha, _ = verify_jacobian_ratio(g, identity_spec(1, 2, "sum"), (0, 1))
        assert alpha.holds and alpha.slack > 0

    def test_suite_matches_per_edge_checks(self, corpus_entries):
        # run_suite feeds alpha/beta from its curvature reports; the public
        # per-edge check recomputes them and must agree check for check
        entries = list(corpus_entries)
        entries += [(f"er{s}", generate("erdos_renyi", n=15, p=0.3, seed=s)) for s in range(3)]
        report = run_suite(corpus=entries, trials=0, suite="jacobian_ratio")
        spec = identity_spec(1, 2, "sum")
        expected = [
            check
            for name, g in entries
            for edge in g.edges
            for check in verify_jacobian_ratio(g, spec, edge, 0, name)
        ]
        assert list(report.checks) == expected


class TestDiameter:
    def test_triangle(self):
        check = verify_diameter(generate("complete", n=3))
        assert check.holds
        assert (check.lhs, check.rhs) == (F(1), F(4))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_complete_family(self, n):
        check = verify_diameter(generate("complete", n=n))
        assert check.holds
        assert check.rhs == (2 * (n - 1)) // (n - 2)

    def test_flat_curvature_rejected(self):
        with pytest.raises(HypothesisNotMet):
            verify_diameter(generate("path", n=4))


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


class TestBoundCheckShape:
    def test_exact_json(self):
        check = verify_diameter(generate("complete", n=3))
        obj = check.to_json_obj()
        assert obj["name"] == "diameter"
        assert obj["holds"] is True
        assert obj["lhs"] == {"exact": "1/1", "float": 1.0}
        assert not check.skipped and not check.violated

    def test_approx_json(self):
        g = generate("complete", n=3)
        check = verify_one_layer(g, identity_spec(1, 1, "sum"), np.ones((3, 1)), (0, 1))
        obj = check.to_json_obj()
        assert obj["lhs"]["exact"] is None
        assert obj["tolerance"] == 1e-9


class TestRunSuite:
    def test_empty_corpus(self):
        report = run_suite(corpus=[], trials=5, seed=1)
        assert report.checks == ()
        assert report.summary()["total"] == 0

    def test_single_triangle_coverage(self):
        report = run_suite(corpus=[("k3", generate("complete", n=3))], trials=2, seed=1)
        names = {c.name for c in report.checks}
        assert {
            "shared_neighbor",
            "one_layer_sum",
            "one_layer_mean",
            "bottleneck_statement",
            "bottleneck_strong",
            "jacobian_ratio",
            "diameter",
            "multilayer",
        } <= names
        assert not report.violations
        # the statement-side bottleneck hypothesis fails on K3, so those
        # entries must be skips, not passes
        statement = [c for c in report.checks if c.name == "bottleneck_statement"]
        assert statement and all(c.skipped and c.reason for c in statement)

    def test_skips_carry_reasons(self):
        report = run_suite(corpus=[("p4", generate("path", n=4))], trials=1, seed=1)
        diameter = [c for c in report.checks if c.name == "diameter"]
        assert len(diameter) == 1 and diameter[0].skipped
        assert "not positive" in diameter[0].reason

    def test_named_suite_filters(self):
        report = run_suite(corpus=[("k3", generate("complete", n=3))], trials=1, suite="diameter")
        assert report.checks and all(c.name == "diameter" for c in report.checks)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite(corpus=[], suite="bogus")

    def test_deterministic(self):
        entries = [("k3", generate("complete", n=3)), ("b3", generate("barbell", k=3))]
        a = run_suite(corpus=entries, trials=4, seed=5)
        b = run_suite(corpus=entries, trials=4, seed=5)
        assert a.to_json_obj() == b.to_json_obj()

    def test_summary_tallies_match(self):
        report = run_suite(corpus=[("b3", generate("barbell", k=3))], trials=3, seed=2)
        s = report.summary()
        assert s["total"] == len(report.checks)
        assert set(s["by_name"]) == set(CHECK_NAMES)
        tallied = sum(sum(row.values()) for row in s["by_name"].values())
        assert tallied == s["total"]

    def test_fail_fast_smoke(self):
        # nothing violates on this corpus; the flag must not change results
        report = run_suite(corpus=[("k3", generate("complete", n=3))], trials=1, seed=1, fail_fast=True)
        assert not report.violations


def _assert_writes_as_dumps(report: SuiteReport) -> None:
    parts = []
    report.write_json(parts.append)
    written = "".join(parts)
    dumped = json.dumps(report.to_json_obj(), sort_keys=True, indent=2) + "\n"
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
# 0, 1 and many checks, on both sides of every write-batch boundary
_COUNTS = st.sampled_from(
    [0, 1, 2, _WRITE_BATCH - 1, _WRITE_BATCH, _WRITE_BATCH + 1, 2 * _WRITE_BATCH + 3]
)
_FILLER = BoundCheck("shared_neighbor", "g", "edge=(0,1)", F(1, 2), F(2, 3), True, F(1, 6), 0.0)


@st.composite
def suite_reports(draw):
    """A SuiteReport of a few drawn checks, padded with a fixed one up to a
    drawn count: a failure in a drawn check then shrinks to a small report
    quickly, and one at a batch boundary still shows."""
    count = draw(_COUNTS)
    checks = draw(st.lists(_CHECKS, max_size=6))
    padding = max(0, count - len(checks))
    return SuiteReport(
        suite=draw(_TEXT),
        trials=draw(st.integers(min_value=0)),
        seed=draw(st.integers(min_value=0)),
        checks=tuple(checks) + (_FILLER,) * padding,
    )


class TestWriteJson:
    """The streamed writer must give json.dumps(to_json_obj(), sort_keys=True,
    indent=2) + newline byte for byte; `verify`'s golden hash rests on it."""

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(suite_reports())
    def test_drawn_reports_match_dumps(self, report):
        _assert_writes_as_dumps(report)

    def test_corpus_report_matches_dumps(self, corpus_entries):
        report = run_suite(corpus=corpus_entries, trials=200, seed=1)
        assert len(report.checks) > 2 * _WRITE_BATCH
        _assert_writes_as_dumps(report)

    def test_fail_fast_truncated_report_matches_dumps(self, corpus_entries, monkeypatch):
        # no corpus check violates, so make every one-layer bound negative
        monkeypatch.setattr(diagnostics, "_one_layer_rhs", lambda *args: -1.0)
        report = run_suite(corpus=corpus_entries, trials=200, seed=1, fail_fast=True)
        assert len(report.violations) == 1 and report.checks[-1].violated
        _assert_writes_as_dumps(report)

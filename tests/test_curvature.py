import dataclasses
import json
import random
from fractions import Fraction

import jsonschema
import pytest
from emit_reference import profile_to_json_obj
from kernel_reference import (
    bottleneck_sets_from_sets,
    participation,
    participation_hypothesis_holds,
    statement_edges,
)

from orckit import curvature, transport
from orckit.curvature import (
    BottleneckSets,
    CurvatureProfile,
    EdgeCurvatureReport,
    NotAnEdge,
    SameVertex,
    bottleneck_sets,
    curvature_profile,
    edge_curvatures,
    edge_report,
    frac_str,
    ricci_curvature,
)
from orckit.diagnostics import verify_bottleneck
from orckit.emit import _WRITE_BATCH, write_profile
from orckit.graphs import Graph, NeighborIndex, enumerate_connected_five_vertex, from_edges, generate
from orckit.transport import wasserstein1
from pathlib import Path

F = Fraction

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "schemas" / "curvature_report.schema.json").read_text()
)


def test_frac_str():
    assert frac_str(F(3)) == "3/1"
    assert frac_str(F(-2, 3)) == "-2/3"
    assert frac_str(F(0)) == "0/1"


class TestRicciCurvature:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_complete_graphs(self, n):
        g = generate("complete", n=n)
        assert ricci_curvature(g, 0, 1) == F(n - 2, n - 1)

    def test_zero_curvature_families(self):
        for g in (generate("cycle", n=4), generate("cycle", n=5), generate("cycle", n=6)):
            assert ricci_curvature(g, 0, 1) == 0
        p4 = generate("path", n=4)
        assert ricci_curvature(p4, 0, 1) == 0  # end edge
        assert ricci_curvature(p4, 1, 2) == 0  # interior edge

    def test_double_star_center_edge(self):
        g = generate("double_star", a=3, b=3)
        assert ricci_curvature(g, 0, 1) == F(-2, 3)

    def test_barbell_edges(self):
        g = generate("barbell", k=3)
        assert ricci_curvature(g, 2, 3) == F(-2, 3)  # bridge
        assert ricci_curvature(g, 0, 1) == F(1, 2)  # triangle edge off the bridge
        assert ricci_curvature(g, 4, 5) == F(1, 2)

    def test_non_adjacent_pair_uses_distance(self):
        # both endpoints of P3 see the same measure, so W1 = 0 over d = 2
        g = generate("path", n=3)
        assert ricci_curvature(g, 0, 2) == 1

    def test_same_vertex_rejected(self):
        with pytest.raises(SameVertex):
            ricci_curvature(generate("path", n=3), 1, 1)

    def test_vertex_out_of_range_rejected(self):
        # -1 would wrap round to vertex 4, whose edge (4, 0) exists
        g = generate("cycle", n=5)
        with pytest.raises(ValueError, match="vertex -1 out of range"):
            ricci_curvature(g, -1, 0)
        with pytest.raises(ValueError, match="vertex 5 out of range"):
            ricci_curvature(g, 0, 5)

    def test_tree_closed_form(self):
        # on trees the exact value is min(0, -2 + 2/deg(u) + 2/deg(v))
        trees = [
            generate("random_tree", n=10, seed=0),
            generate("random_tree", n=20, seed=1),
            generate("double_star", a=2, b=4),
            generate("star", n=5),
            generate("path", n=5),
        ]
        for g in trees:
            for u, v in g.edges:
                expected = min(F(0), F(-2) + F(2, g.degree(u)) + F(2, g.degree(v)))
                assert ricci_curvature(g, u, v) == expected

    def test_range_on_five_vertex_graphs(self):
        for g in enumerate_connected_five_vertex():
            for u, v in g.edges:
                k = ricci_curvature(g, u, v)
                assert F(-2) <= k <= F(1)


class TestEdgeReport:
    def test_fields(self):
        g = generate("barbell", k=3)
        r = edge_report(g, 2, 3)
        assert r.edge == (2, 3)
        assert r.kappa == F(-2, 3)
        assert r.kappa == 1 - wasserstein1(g, 2, 3)
        assert (r.deg_u, r.deg_v) == (3, 3)
        assert r.sets.n0 == 0

    def test_not_an_edge(self):
        with pytest.raises(NotAnEdge):
            edge_report(generate("path", n=3), 0, 2)

    def test_vertex_out_of_range_rejected(self):
        g = generate("cycle", n=5)
        with pytest.raises(ValueError, match="vertex -1 out of range"):
            edge_report(g, -1, 0)
        with pytest.raises(ValueError, match="vertex 5 out of range"):
            edge_report(g, 5, 4)


def statement_skipped(g, u, v):
    """Whether verify_bottleneck skips the statement bound on edge (u, v)."""
    return verify_bottleneck(edge_report(g, u, v))[0].skipped


class TestBottleneckSets:
    def test_double_star_centers(self):
        g = generate("double_star", a=3, b=3)
        s = bottleneck_sets(g, 0, 1)
        assert statement_edges(g, 0, 1) == ((0, 1),)
        assert (s.s_size, s.max_load) == (1, 1)
        assert (s.n0, s.n1) == (0, 0)
        assert not statement_skipped(g, 0, 1)

    def test_triangle(self):
        # vertex 0 sits in two connecting edges while n/m = 1
        g = generate("complete", n=3)
        s = bottleneck_sets(g, 0, 1)
        assert (s.n0, s.n1) == (1, 0)
        assert (s.s_size, s.max_load) == (3, 2)
        assert statement_skipped(g, 0, 1)

    def test_barbell_bridge(self):
        g = generate("barbell", k=3)
        s = bottleneck_sets(g, 2, 3)
        assert statement_edges(g, 2, 3) == ((2, 3),)
        assert (s.s_size, s.max_load) == (1, 1)
        assert (s.n0, s.n1) == (0, 0)
        assert not statement_skipped(g, 2, 3)

    def test_four_cycle(self):
        g = generate("cycle", n=4)
        s = bottleneck_sets(g, 0, 1)
        assert (s.n0, s.n1) == (0, 1)
        assert set(statement_edges(g, 0, 1)) == {(0, 1), (2, 3)}
        assert (s.s_size, s.max_load) == (2, 1)

    def test_not_an_edge(self):
        with pytest.raises(NotAnEdge):
            bottleneck_sets(generate("path", n=4), 0, 3)

    def test_vertex_out_of_range_rejected(self):
        g = generate("cycle", n=5)
        with pytest.raises(ValueError, match="vertex -1 out of range"):
            bottleneck_sets(g, 0, -1)
        with pytest.raises(ValueError, match="vertex 7 out of range"):
            bottleneck_sets(g, 7, 0)

    def test_statement_set_matches_edge_scan(self, corpus_entries):
        graphs = [g for _, g in corpus_entries]
        graphs += [generate("erdos_renyi", n=40, p=0.15, seed=s) for s in range(3)]
        for g in graphs:
            for u, v in g.edges:
                expected = s_statement_by_edge_scan(g, u, v)
                assert statement_edges(g, u, v) == expected
                assert statement_edges(g, v, u) == expected
                counts = (len(expected), max(participation(expected).values()))
                for a, b in ((u, v), (v, u)):
                    s = bottleneck_sets(g, a, b)
                    assert (s.s_size, s.max_load) == counts


    def test_matches_set_reference(
        self, corpus_entries, corpus_profiles, irregular_graphs, irregular_profiles
    ):
        # through the profile, which shares one index per higher-degree
        # endpoint, and through standalone calls in both orientations
        graphs = [(g, corpus_profiles[name]) for name, g in corpus_entries]
        graphs += [(g, irregular_profiles[name]) for name, g in irregular_graphs]
        for g, profile in graphs:
            for r in profile.reports:
                u, v = r.edge
                expected = bottleneck_sets_from_sets(g, u, v)
                assert r.sets == expected
                assert bottleneck_sets(g, u, v) == expected
                assert bottleneck_sets(g, v, u) == expected

    def test_counts_match_set_reference_on_a_dense_graph(self, dense_graph, dense_profile):
        # mean degree >= 30, where S_statement grows with d^2 per edge
        g = dense_graph
        skipped = 0
        for r in dense_profile.reports:
            u, v = r.edge
            expected = bottleneck_sets_from_sets(g, u, v)
            assert r.sets == expected
            assert bottleneck_sets(g, u, v) == expected
            assert bottleneck_sets(g, v, u) == expected
            skip = verify_bottleneck(r)[0].skipped
            assert skip != participation_hypothesis_holds(g, u, v)
            skipped += skip
        # max_load is near a degree here, so the hypothesis fails on every
        # edge; test_bottleneck_sets_match_set_reference covers both sides
        assert skipped == len(dense_profile.reports)

    def test_standalone_calls_index_the_higher_degree_endpoint(self, monkeypatch):
        # double_star(3, 3): leaf 2 hangs off centre 0, and the centres 0
        # and 1 tie on degree 3, which goes to the smaller id
        g = generate("double_star", a=3, b=3)
        built = []

        class Recorded(NeighborIndex):
            def __init__(self, g, u):
                built.append(u)
                super().__init__(g, u)

        monkeypatch.setattr(curvature, "NeighborIndex", Recorded)
        monkeypatch.setattr(transport, "NeighborIndex", Recorded)
        for a, b in ((2, 0), (1, 0)):
            wasserstein1(g, a, b)
            ricci_curvature(g, a, b)
            edge_report(g, a, b)
            bottleneck_sets(g, a, b)
        assert built == [0] * 8

    def test_shared_index_gives_the_same_report(self):
        g = generate("erdos_renyi", n=40, p=0.15, seed=3)
        for u in range(g.vertex_count):
            index = NeighborIndex(g, u)
            for v in g.adjacency[u]:
                assert edge_report(g, u, v, index=index) == edge_report(g, u, v)

    def test_matching_takes_an_augmenting_path_longer_than_the_recursion_limit(self):
        # the greedy first pass matches Q_i to P_i, so Q_k's path runs
        # back through all of Q_0..Q_(k-1)
        s = bottleneck_sets(ladder(1200), 0, 1)
        assert (s.n0, s.n1) == (0, 1201)

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_ladder_matches_set_reference(self, k):
        g = ladder(k)
        assert bottleneck_sets(g, 0, 1) == bottleneck_sets_from_sets(g, 0, 1)
        assert bottleneck_sets(g, 0, 1).n1 == k + 1


@pytest.mark.parametrize("entry", [wasserstein1, edge_report, bottleneck_sets], ids=lambda f: f.__name__)
def test_an_index_not_of_u_on_g_is_rejected(entry):
    """A caller's index must be u's on g. The other endpoint's poses
    another problem, and one built on another graph may not match g, even
    when that graph has the same edges; both once gave a wrong W1 with no
    error, or failed at random."""
    g = generate("erdos_renyi", n=16, p=0.35, seed=0)
    twin = from_edges(g.vertex_count, g.edges)
    for u, v in g.edges:
        assert entry(g, u, v, index=NeighborIndex(g, u)) == entry(g, u, v)
        with pytest.raises(ValueError, match=f"index is vertex {v}'s, not vertex {u}'s"):
            entry(g, u, v, index=NeighborIndex(g, v))
        with pytest.raises(ValueError, match="another graph"):
            entry(g, u, v, index=NeighborIndex(twin, u))


def test_walks_make_no_adjacency_probe(corpus_entries, monkeypatch):
    """Given their hub's index, the walks' edge tests read it, so neither
    probes adjacency; a public per-edge call without an index probes once."""
    graphs = [dict(corpus_entries)["barbell_5"], generate("erdos_renyi", n=60, p=0.1, seed=0)]
    probes = []
    probe = Graph.has_edge

    def counted(self, u, v):
        probes.append((u, v))
        return probe(self, u, v)

    monkeypatch.setattr(Graph, "has_edge", counted)
    for g in graphs:
        curvature_profile(g)
        edge_curvatures(g)
    assert probes == []
    g = graphs[1]
    u, v = 0, next(w for w in range(1, g.vertex_count) if w not in g.adjacency[0])
    for entry in (edge_report, bottleneck_sets):
        with pytest.raises(NotAnEdge):
            entry(g, u, v)
    assert edge_report(g, *g.edges[0]) == curvature_profile(g).reports[0]
    assert probes == [(u, v), (u, v), g.edges[0]]


def test_profile_reports_through_the_public_entry_points(monkeypatch):
    """Each report of `curvature_profile` comes from one `edge_report` call,
    with one `wasserstein1` and one `bottleneck_sets` call under it, each
    looked up by name in `curvature`: per-layer counters that wrap those
    names see every profiled edge."""
    g = generate("erdos_renyi", n=60, p=0.1, seed=0)
    calls = []
    for name in ("edge_report", "wasserstein1", "bottleneck_sets"):
        fn = getattr(curvature, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(curvature, name, counted)
    profile = curvature_profile(g)
    m = len(g.edges)
    assert len(profile.reports) == m
    assert sorted(calls) == ["bottleneck_sets"] * m + ["edge_report"] * m + ["wasserstein1"] * m


def ladder(k):
    """Edge (0, 1) with u = 0 adjacent to P_0..P_k and v = 1 to Q_0..Q_k
    (ids ascending), and a cycle Q_i - P_i, Q_i - P_(i+1), Q_k - P_0 through
    the exclusive neighbours: a perfect matching of k + 1 connecting edges."""
    P = [2 + i for i in range(k + 1)]
    Q = [3 + k + i for i in range(k + 1)]
    edges = [(0, 1)] + [(0, p) for p in P] + [(1, q) for q in Q]
    edges += [(Q[i], P[i]) for i in range(k + 1)]
    edges += [(Q[i], P[i + 1]) for i in range(k)] + [(Q[k], P[0])]
    return from_edges(2 * k + 4, edges)


def s_statement_by_edge_scan(g, u, v):
    """Reference S_statement: every edge of g, in g.edges order, with one end
    in the extended neighbourhood of the higher-degree endpoint (minus the
    other endpoint) and the other end in that of the lower-degree one."""
    hu, hv = (u, v) if g.degree(u) >= g.degree(v) else (v, u)
    side_u = set(g.adjacency[hu]) | {hu}
    side_u.discard(hv)
    side_v = set(g.adjacency[hv]) | {hv}
    side_v.discard(hu)
    return tuple(
        e
        for e in g.edges
        if (e[0] in side_u and e[1] in side_v) or (e[1] in side_u and e[0] in side_v)
    )


class TestCurvatureProfile:
    def test_complete_four(self):
        profile = curvature_profile(generate("complete", n=4))
        assert len(profile.reports) == 6
        assert all(r.kappa == F(2, 3) for r in profile.reports)

    def test_barbell_values(self):
        profile = curvature_profile(generate("barbell", k=3))
        kappas = {r.edge: r.kappa for r in profile.reports}
        assert kappas == {
            (0, 1): F(1, 2),
            (0, 2): F(1, 3),
            (1, 2): F(1, 3),
            (2, 3): F(-2, 3),
            (3, 4): F(1, 3),
            (3, 5): F(1, 3),
            (4, 5): F(1, 2),
        }

    def test_reports_follow_edge_order(self):
        g = generate("erdos_renyi", n=12, p=0.3, seed=5)
        profile = curvature_profile(g)
        assert tuple(r.edge for r in profile.reports) == g.edges

    def test_reports_match_edge_reports_in_both_orientations(
        self, irregular_graphs, irregular_profiles
    ):
        # the profile solves each edge from its higher-degree endpoint;
        # standalone reports from either endpoint must agree
        for name, g in irregular_graphs:
            reports = irregular_profiles[name].reports
            assert tuple(r.edge for r in reports) == g.edges
            for r in reports:
                u, v = r.edge
                assert edge_report(g, u, v) == r
                assert edge_report(g, v, u) == r

    def test_edge_curvatures_are_the_reports_kappas(self, corpus_entries, corpus_profiles):
        for name, g in corpus_entries:
            kappas = tuple(r.kappa for r in corpus_profiles[name].reports)
            assert edge_curvatures(g) == kappas

    @pytest.mark.parametrize("profile", [curvature_profile, edge_curvatures])
    def test_one_index_per_grouping_vertex(self, profile, monkeypatch):
        g = generate("erdos_renyi", n=400, p=0.03, seed=0)
        built = []

        class Counted(NeighborIndex):
            def __init__(self, g, u):
                built.append(u)
                super().__init__(g, u)

        monkeypatch.setattr(curvature, "NeighborIndex", Counted)
        profile(g)
        deg = g.degree
        grouping = {a if deg(a) >= deg(b) else b for a, b in g.edges}
        assert len(built) == len(grouping)
        assert set(built) == grouping

    def test_summary(self):
        s = curvature_profile(generate("barbell", k=3)).summary()
        assert s["edge_count"] == 7
        assert s["kappa_min"] == F(-2, 3)
        assert s["kappa_max"] == F(1, 2)
        assert s["negative_count"] == 1
        assert s["positive_count"] == 6

    def test_json_obj_matches_schema(self):
        g = generate("barbell", k=3)
        obj = json.loads(profile_text(curvature_profile(g), g))
        jsonschema.validate(obj, SCHEMA)
        bridge = [e for e in obj["edges"] if (e["u"], e["v"]) == (2, 3)][0]
        assert bridge["kappa"] == "-2/3"
        assert bridge["kappa_float"] == -2 / 3
        assert bridge["w1"] == "5/3"
        assert bridge["s_size"] == 1


def profile_text(profile, g):
    parts = []
    write_profile(profile, g, parts.append)
    return "".join(parts)


def test_profile_json_matches_json_dumps(
    corpus_entries, corpus_profiles, irregular_graphs, irregular_profiles
):
    # the template renders exactly what json.dumps(indent=2) renders, also
    # across the batch joins of profiles longer than one write batch
    cases = [(name, g, corpus_profiles[name]) for name, g in corpus_entries[::5]]
    cases += [(name, g, irregular_profiles[name]) for name, g in irregular_graphs]
    assert max(len(profile.reports) for _, _, profile in cases) > 2 * _WRITE_BATCH
    for name, g, profile in cases:
        for ids in (None, tuple(3 * i + 1 for i in range(g.vertex_count))):
            tail = {} if ids is None else {"vertex_ids": list(ids)}
            expected = json.dumps({**profile_to_json_obj(profile), **tail}, sort_keys=True, indent=2)
            labelled = dataclasses.replace(g, id_map=ids)
            assert profile_text(profile, labelled) == expected + "\n", name


def test_edge_spellings_match_the_reference_past_two_to_the_53():
    # "w1" and "kappa_float" are written from kappa's integers; the
    # reference spells them frac_str(1 - kappa) and float(kappa)
    rng = random.Random(53)
    kappas = [F(1), F(0), F(-2), F(2**53 + 1, 2**54), F(3 - 2**70, 2**69)]
    for _ in range(1000):
        q = rng.randrange(1, 2 ** rng.randrange(1, 120))
        kappas.append(F(rng.randint(-2 * q, q), q))
    assert sum(k.denominator > 2**53 for k in kappas) > 300
    g = from_edges(2, [(0, 1)])
    sets = BottleneckSets(s_size=1, max_load=1, n0=0, n1=0)
    for kappa in kappas:
        profile = CurvatureProfile(reports=(EdgeCurvatureReport((0, 1), kappa, 1, 1, sets),))
        expected = json.dumps(profile_to_json_obj(profile), sort_keys=True, indent=2)
        assert profile_text(profile, g) == expected + "\n", kappa


def test_kappa_equals_one_minus_w1_on_a_corpus_slice(corpus_entries, corpus_profiles):
    for name, g in corpus_entries[:30]:
        for r in corpus_profiles[name].reports:
            assert r.kappa == 1 - wasserstein1(g, *r.edge)

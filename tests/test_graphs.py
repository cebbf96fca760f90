import json
import random
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest

from orckit import graphs
from orckit.graphs import (
    MAX_GENERATED_EDGES,
    GraphInvalid,
    ParseError,
    TooManyEdges,
    Unsatisfiable,
    bfs_distances,
    corpus,
    enumerate_connected_five_vertex,
    from_edges,
    generate,
    parse_edge_list,
    parse_graph_json,
)


class TestParseEdgeList:
    def test_basic(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2))
        assert g.id_map is None

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# triangle\n\n0 1\n 1 2 \n2 0\n")
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_sparse_ids_are_compacted(self):
        g = parse_edge_list("5 9\n9 12\n")
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2))
        assert g.id_map == (5, 9, 12)

    def test_orientation_is_normalized(self):
        assert parse_edge_list("1 0\n").edges == ((0, 1),)

    def test_rejects_junk_token(self):
        with pytest.raises(ParseError):
            parse_edge_list("0 x\n")

    def test_rejects_three_columns(self):
        with pytest.raises(ParseError):
            parse_edge_list("0 1 2\n")

    def test_rejects_negative_id(self):
        with pytest.raises(ParseError):
            parse_edge_list("-1 0\n")

    def test_rejects_empty_input(self):
        with pytest.raises(ParseError):
            parse_edge_list("# nothing here\n")

    def test_rejects_self_loop(self):
        with pytest.raises(GraphInvalid):
            parse_edge_list("0 0\n0 1\n")

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphInvalid):
            parse_edge_list("0 1\n1 0\n")

    def test_rejects_disconnected(self):
        with pytest.raises(GraphInvalid):
            parse_edge_list("0 1\n2 3\n")


class TestParseGraphJson:
    def test_basic(self):
        g = parse_graph_json('{"n": 3, "edges": [[0, 1], [1, 2]]}')
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_roundtrip(self):
        g = generate("barbell", k=3)
        again = parse_graph_json(json.dumps(g.to_json_obj()))
        assert again.edges == g.edges
        assert again.vertex_count == g.vertex_count

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse_graph_json("{not json")

    def test_missing_keys(self):
        with pytest.raises(ParseError):
            parse_graph_json('{"edges": []}')
        with pytest.raises(ParseError):
            parse_graph_json('{"n": 3}')

    def test_vertex_ids_become_the_id_map(self):
        g = parse_graph_json('{"n": 3, "edges": [[0, 1], [1, 2]], "vertex_ids": [12, 5, 9]}')
        assert g.id_map == (12, 5, 9)
        assert g.edges == ((0, 1), (1, 2))
        assert g.to_edge_list_text() == "12 5\n5 9\n"

    def test_dense_vertex_ids_give_no_id_map(self):
        g = parse_graph_json('{"n": 3, "edges": [[0, 1], [1, 2]], "vertex_ids": [0, 1, 2]}')
        assert g.id_map is None

    @pytest.mark.parametrize(
        "ids", ["[5, 9]", "[5, 9, 9]", "[5, -1, 12]", "[5, true, 12]", "[5, 9.0, 12]", '"5 9 12"', "null"]
    )
    def test_bad_vertex_ids(self, ids):
        with pytest.raises(ParseError, match="vertex_ids"):
            parse_graph_json(f'{{"n": 3, "edges": [[0, 1], [1, 2]], "vertex_ids": {ids}}}')

    def test_bool_is_not_a_vertex_id(self):
        with pytest.raises(ParseError):
            parse_graph_json('{"n": 2, "edges": [[true, 1]]}')

    @pytest.mark.parametrize("n", ["true", "false"])
    def test_bool_is_not_a_vertex_count(self, n):
        with pytest.raises(ParseError, match='"n"'):
            parse_graph_json(f'{{"n": {n}, "edges": [[0, 1]]}}')

    def test_edge_out_of_range(self):
        with pytest.raises(GraphInvalid):
            parse_graph_json('{"n": 2, "edges": [[0, 5]]}')

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_edgeless_graph_rejected(self, n):
        with pytest.raises(GraphInvalid, match="graph has no edges"):
            parse_graph_json(f'{{"n": {n}, "edges": []}}')

    def test_too_few_edges_rejected_before_allocating(self):
        # n = 3,000,000 with one edge cannot be connected; adjacency for it
        # would take hundreds of MB
        tracemalloc.start()
        try:
            with pytest.raises(GraphInvalid, match="disconnected"):
                parse_graph_json('{"n": 3000000, "edges": [[0, 1]]}')
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestGenerators:
    def test_complete(self):
        g = generate("complete", n=4)
        assert g.vertex_count == 4
        assert len(g.edges) == 6
        assert all(g.degree(u) == 3 for u in range(4))

    def test_path(self):
        g = generate("path", n=4)
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_cycle(self):
        g = generate("cycle", n=5)
        assert len(g.edges) == 5
        assert all(g.degree(u) == 2 for u in range(5))

    def test_star(self):
        g = generate("star", n=4)
        assert g.vertex_count == 5
        assert g.degree(0) == 4
        assert all(g.degree(u) == 1 for u in range(1, 5))

    def test_double_star(self):
        # parameters are the two center degrees, centers adjacent
        g = generate("double_star", a=3, b=3)
        assert g.vertex_count == 6
        assert len(g.edges) == 5
        assert g.has_edge(0, 1)
        assert g.degree(0) == 3 and g.degree(1) == 3

    def test_barbell(self):
        g = generate("barbell", k=3)
        assert g.vertex_count == 6
        assert len(g.edges) == 7
        assert g.has_edge(2, 3)  # the bridge

    def test_cocktail_party(self):
        # m=3 is the octahedron: 6 vertices, 4-regular
        g = generate("cocktail_party", m=3)
        assert g.vertex_count == 6
        assert len(g.edges) == 12
        assert all(g.degree(u) == 4 for u in range(6))

    def test_erdos_renyi_deterministic(self):
        a = generate("erdos_renyi", n=20, p=0.3, seed=42)
        b = generate("erdos_renyi", n=20, p=0.3, seed=42)
        assert a.edges == b.edges
        c = generate("erdos_renyi", n=20, p=0.3, seed=43)
        assert c.edges != a.edges

    def test_erdos_renyi_p_one_is_complete(self):
        g = generate("erdos_renyi", n=6, p=1.0, seed=0)
        assert len(g.edges) == 15

    @pytest.mark.parametrize("family", ["complete", "path"])
    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_vertices_give_no_edges(self, family, n):
        with pytest.raises(GraphInvalid, match="graph has no edges"):
            generate(family, n=n)

    @pytest.mark.parametrize("n", [0, 1])
    def test_erdos_renyi_needs_two_vertices(self, n):
        # rejected before any draw, not reported as 1000 disconnected tries
        with pytest.raises(GraphInvalid, match="at least 2 vertices"):
            generate("erdos_renyi", n=n, p=0.5, seed=0)

    def test_erdos_renyi_unsatisfiable(self):
        with pytest.raises(Unsatisfiable):
            generate("erdos_renyi", n=5, p=0.0, seed=0)

    def test_erdos_renyi_past_its_pair_bound_is_refused_before_drawing(self, monkeypatch):
        # n = 200,000 would draw some 2e10 pairs in its first try alone
        def no_draw(seed):
            raise AssertionError("erdos_renyi drew pairs it was bound to refuse")

        monkeypatch.setattr(graphs, "random", SimpleNamespace(Random=no_draw))
        with pytest.raises(Unsatisfiable, match=f"erdos_renyi.* bound of {graphs._ER_PAIR_BUDGET}"):
            generate("erdos_renyi", n=200_000, p=1e-7, seed=0)

    def test_erdos_renyi_stops_at_its_pair_bound(self, monkeypatch):
        # n = 5 draws 10 pairs a try, so a bound of 35 pairs allows 3 tries
        drawn = []

        class Counting(random.Random):
            def random(self):
                drawn.append(1)
                return super().random()

        monkeypatch.setattr(graphs, "_ER_PAIR_BUDGET", 35)
        monkeypatch.setattr(graphs, "random", SimpleNamespace(Random=Counting))
        message = r"erdos_renyi\(n=5, p=0.0, seed=0\) stayed disconnected after 3 tries, .* and 35 drawn pairs"
        with pytest.raises(Unsatisfiable, match=message):
            generate("erdos_renyi", n=5, p=0.0, seed=0)
        assert len(drawn) == 30

    @pytest.mark.parametrize(
        "family, params",
        [
            ("complete", {"n": 1415}),  # 1,000,405 edges
            ("path", {"n": MAX_GENERATED_EDGES + 2}),
            ("barbell", {"k": 1001}),  # 1,001,001 edges
            ("cocktail_party", {"m": 708}),  # 1,001,112 edges
            ("random_tree", {"n": MAX_GENERATED_EDGES + 2, "seed": 0}),
        ],
    )
    def test_closed_form_counts_past_the_bound_are_refused(self, family, params):
        with pytest.raises(TooManyEdges, match=f"{family} would have .* bound of {MAX_GENERATED_EDGES}"):
            generate(family, **params)

    def test_refusal_comes_before_any_edge_is_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(TooManyEdges):
                generate("complete", n=1415)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_erdos_renyi_stops_drawing_past_the_bound(self):
        # 1,000,405 pairs drawn with p = 1: the draw ends one edge past it
        with pytest.raises(TooManyEdges, match=f"erdos_renyi .* bound of {MAX_GENERATED_EDGES}"):
            generate("erdos_renyi", n=1415, p=1.0, seed=0)

    def test_random_tree(self):
        g = generate("random_tree", n=10, seed=0)
        assert g.vertex_count == 10
        assert len(g.edges) == 9
        again = generate("random_tree", n=10, seed=0)
        assert again.edges == g.edges

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate("torus", n=3)

    def test_missing_parameter(self):
        with pytest.raises(ValueError):
            generate("complete")


def test_five_vertex_enumeration_counts():
    reps = enumerate_connected_five_vertex()
    assert len(reps) == 21
    assert all(g.vertex_count == 5 for g in reps)
    # connected graphs on 5 vertices by edge count: 3 trees, then 5,5,4,2,1,1
    by_edges = Counter(len(g.edges) for g in reps)
    assert by_edges == {4: 3, 5: 5, 6: 5, 7: 4, 8: 2, 9: 1, 10: 1}


def test_corpus_shape():
    entries = corpus()
    assert len(entries) == 110
    names = [name for name, _ in entries]
    assert len(set(names)) == len(names)
    assert all(g.vertex_count <= 20 for _, g in entries)


def test_has_edge_matches_set_membership(corpus_entries):
    """Every ordered vertex pair of the corpus, star_19 among it, probing
    each adjacency row below its first entry, above its last and in its
    gaps."""
    assert "star_19" in dict(corpus_entries)
    below = above = gaps = 0
    for name, g in corpus_entries:
        for a, row in enumerate(g.adjacency):
            members = set(row)
            for b in range(g.vertex_count):
                assert g.has_edge(a, b) == (b in members), (name, a, b)
                if b not in members:
                    below += b < row[0]
                    above += b > row[-1]
                    gaps += row[0] < b < row[-1]
    assert below and above and gaps


def test_corpus_is_stable_across_calls():
    a = {name: g.edges for name, g in corpus()}
    b = {name: g.edges for name, g in corpus()}
    assert a == b


class TestBfs:
    def test_barbell_distances(self):
        g = generate("barbell", k=3)
        assert bfs_distances(g, 0) == (0, 1, 1, 2, 3, 3)

    def test_source_out_of_range(self):
        g = generate("path", n=3)
        with pytest.raises(ValueError):
            bfs_distances(g, 3)


def test_edge_list_roundtrip():
    g = generate("barbell", k=4)
    assert parse_edge_list(g.to_edge_list_text()).edges == g.edges


def test_from_edges_rejects_edgeless_graph():
    with pytest.raises(GraphInvalid, match="graph has no edges"):
        from_edges(1, [])


def test_from_edges_matches_generate():
    g = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edges == generate("cycle", n=3).edges

import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from referencing import Registry, Resource

from orckit import cli, diagnostics
from orckit.diagnostics import MAX_TRIALS
from orckit.graphs import _ER_PAIR_BUDGET, generate, parse_edge_list
from orckit.mpnn import MAX_DEMO_ITERATIONS

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def _registry():
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        resources.append((path.name, Resource.from_contents(json.loads(path.read_text()))))
    return Registry().with_resources(resources)


def validate(obj, schema_name):
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.Draft202012Validator(schema, registry=_registry()).validate(obj)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "orckit.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_main(capsys, *args):
    """cli.main in this process: (exit code, stdout, stderr)."""
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def barbell_file(tmp_path):
    code, out, _ = run_cli("generate", "--family", "barbell", "--k", "3")
    assert code == 0
    path = tmp_path / "barbell.txt"
    path.write_text(out)
    return str(path)


class TestGenerate:
    def test_complete(self):
        code, out, err = run_cli("generate", "--family", "complete", "--n", "4")
        assert code == 0
        assert len(out.strip().splitlines()) == 6
        assert err == ""

    def test_barbell_edge_count(self):
        code, out, _ = run_cli("generate", "--family", "barbell", "--k", "3")
        assert code == 0
        assert len(out.strip().splitlines()) == 7

    def test_erdos_renyi_is_byte_stable(self):
        args = ("generate", "--family", "erdos_renyi", "--n", "20", "--p", "0.3", "--seed", "42")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a == b and a[0] == 0

    def test_json_format(self):
        code, out, _ = run_cli("generate", "--family", "complete", "--n", "3", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 3
        validate(obj, "graph.schema.json")

    def test_unknown_family(self):
        code, out, err = run_cli("generate", "--family", "mystery")
        assert code == 2
        assert out == "" and err != ""

    def test_missing_parameter(self):
        code, _, _ = run_cli("generate", "--family", "complete")
        assert code == 2

    def test_past_the_edge_bound(self):
        code, out, err = run_cli("generate", "--family", "complete", "--n", "1415")
        assert (code, out) == (2, "")
        assert "complete would have 1000405 edges, over generate's bound of 1000000" in err

    def test_out_file(self, tmp_path):
        target = tmp_path / "g.txt"
        code, out, _ = run_cli("generate", "--family", "path", "--n", "3", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().strip().splitlines() == ["0 1", "1 2"]

    def test_package_runs_as_module(self):
        args = ("generate", "--family", "path", "--n", "3")
        proc = subprocess.run(
            [sys.executable, "-m", "orckit", *args], capture_output=True, text=True, timeout=300
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(*args)
        assert proc.stdout == "0 1\n1 2\n"


def rewire_files(capsys, source, tmp_path):
    """rewire source with --out-graph as an edge list, then as JSON, and
    --out-trace: the (edge list, JSON graph, trace) file texts."""
    texts = []
    for suffix in (".txt", ".json"):
        graph_out = tmp_path / f"{source.stem}_rewired{suffix}"
        trace_out = tmp_path / f"{source.stem}_trace.json"
        args = ("rewire", str(source), "--out-graph", str(graph_out), "--out-trace", str(trace_out))
        assert run_main(capsys, *args)[:2] == (0, "")
        texts.append(graph_out.read_text())
    return (*texts, trace_out.read_text())


class TestCurvature:
    def test_barbell_bridge(self, barbell_file):
        code, out, err = run_cli("curvature", barbell_file)
        assert code == 0
        obj = json.loads(out)
        validate(obj, "curvature_report.schema.json")
        bridge = [e for e in obj["edges"] if [e["u"], e["v"]] == [2, 3]][0]
        assert bridge["kappa"] == "-2/3"

    def test_triangle(self, tmp_path):
        path = tmp_path / "k3.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        code, out, _ = run_cli("curvature", str(path))
        assert code == 0
        obj = json.loads(out)
        assert [e["kappa"] for e in obj["edges"]] == ["1/2", "1/2", "1/2"]

    def test_sparse_ids_are_reported(self, tmp_path):
        path = tmp_path / "sparse.txt"
        path.write_text("5 9\n9 12\n")
        code, out, _ = run_cli("curvature", str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["vertex_ids"] == [5, 9, 12]
        validate(obj, "curvature_report.schema.json")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 not-a-vertex\n")
        code, out, err = run_cli("curvature", str(path))
        assert code == 2
        assert out == "" and err != ""

    def test_missing_file(self):
        code, _, _ = run_cli("curvature", "/nonexistent/graph.txt")
        assert code == 2

    def test_threads_do_not_change_bytes(self, barbell_file):
        a = run_cli("curvature", barbell_file, "--threads", "1")
        b = run_cli("curvature", barbell_file, "--threads", "2")
        assert a[0] == b[0] == 0
        assert a[1] == b[1]
        assert "threads" in b[2]  # the note goes to stderr, not the report

    def test_impossible_vertex_count(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"n": 3000000, "edges": [[0, 1]]}')
        code, out, err = run_cli("curvature", str(path))
        assert code == 2
        assert out == "" and "disconnected" in err

    def test_sparse_relabelling_changes_only_vertex_ids(self, corpus_entries, tmp_path, capsys):
        # order-preserving sparse labels compact back to the dense ids, so each
        # report (curvature, rewire, simulate) differs from the dense run only
        # by its vertex_ids echo; rewire's files do too, and its edge list
        # keeps the input's labels
        spec = tmp_path / "spec.json"
        spec.write_text('{"layers": [{"aggregator": "mean", "message": [[1.0]]}]}')
        for name, g in corpus_entries[::22]:
            dense, sparse = tmp_path / f"{name}.txt", tmp_path / f"{name}_sparse.txt"
            dense.write_text(g.to_edge_list_text())
            sparse.write_text("".join(f"{10 * u + 7} {10 * v + 7}\n" for u, v in g.edges))
            feats = tmp_path / f"{name}.csv"
            np.savetxt(feats, np.arange(g.vertex_count, dtype=float)[:, None], delimiter=",")
            for command, *extra in (
                ("curvature",),
                ("rewire",),
                ("simulate", "--features", str(feats), "--spec", str(spec)),
            ):
                code, dense_out, _ = run_main(capsys, command, str(dense), *extra)
                assert code == 0 and "vertex_ids" not in json.loads(dense_out)
                code, sparse_out, _ = run_main(capsys, command, str(sparse), *extra)
                assert code == 0
                obj = json.loads(sparse_out)
                ids = obj.pop("vertex_ids")
                assert ids == [10 * i + 7 for i in range(g.vertex_count)], (command, name)
                assert json.dumps(obj, sort_keys=True, indent=2) + "\n" == dense_out, (command, name)
                if command == "simulate":
                    validate({**obj, "vertex_ids": ids}, "simulate_report.schema.json")
                if command == "rewire":
                    combined = json.loads(dense_out)
            dense_files = rewire_files(capsys, dense, tmp_path)
            sparse_files = rewire_files(capsys, sparse, tmp_path)
            edges = combined["graph"]["edges"]
            assert dense_files[0] == "".join(f"{u} {v}\n" for u, v in edges), name
            assert sparse_files[0] == "".join(f"{10 * u + 7} {10 * v + 7}\n" for u, v in edges)
            reread = parse_edge_list(sparse_files[0])
            assert reread == parse_edge_list(dense_files[0]) and list(reread.id_map) == ids
            for key, dense_text, sparse_text, schema in (
                ("graph", dense_files[1], sparse_files[1], "graph.schema.json"),
                ("trace", dense_files[2], sparse_files[2], "rewire_trace.schema.json"),
            ):
                assert dense_text == json.dumps(combined[key], sort_keys=True, indent=2) + "\n"
                obj = json.loads(sparse_text)
                validate(obj, schema)
                assert obj.pop("vertex_ids") == ids and obj == combined[key], (key, name)

    def test_rewired_json_graph_keeps_its_labels(self, tmp_path, capsys):
        # rewire --out-graph writes vertex_ids into a .json graph; curvature
        # reads them back and echoes them, byte for byte as it does for the
        # edge list that rewire writes with the same labels
        source = tmp_path / "sparse.txt"
        source.write_text("".join(f"{10 * u + 7} {10 * v + 7}\n" for u, v in generate("barbell", k=4).edges))
        outputs = []
        for suffix in (".txt", ".json"):
            graph_out = tmp_path / f"rewired{suffix}"
            assert run_main(capsys, "rewire", str(source), "--out-graph", str(graph_out))[:2] == (0, "")
            code, out, _ = run_main(capsys, "curvature", str(graph_out))
            assert code == 0
            outputs.append(out)
        edge_list_out, json_out = outputs
        assert json.loads(json_out)["vertex_ids"] == [10 * i + 7 for i in range(8)]
        assert json_out == edge_list_out

    def test_bad_vertex_ids_are_an_input_error(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n": 3, "edges": [[0, 1], [1, 2]], "vertex_ids": [4, 4, 5]}')
        code, out, err = run_cli("curvature", str(path))
        assert (code, out) == (2, "")
        assert "vertex_ids" in err

    def test_bool_vertex_count_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text('{"n": true, "edges": [[0, 1]]}')
        code, out, err = run_main(capsys, "curvature", str(path))
        assert (code, out) == (2, "")
        assert err == 'error: "n" must be a non-negative integer\n'

    def test_json_input(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}')
        code, out, _ = run_cli("curvature", str(path))
        assert code == 0
        assert json.loads(out)["summary"]["edge_count"] == 3


class TestVerify:
    def test_named_suite_passes(self):
        code, out, _ = run_cli("verify", "--suite", "diameter", "--trials", "1")
        assert code == 0
        obj = json.loads(out)
        validate(obj, "verify_report.schema.json")
        assert obj["summary"]["violations"] == 0
        # flat and negatively curved corpus graphs must show up as skips
        assert obj["summary"]["skipped"] > 0

    def test_unknown_suite(self):
        code, out, err = run_cli("verify", "--suite", "nonexistent")
        assert code == 2
        assert err != ""

    def test_report_written_to_file(self, tmp_path):
        # the streamed file must hold exactly the bytes streamed to stdout
        args = [sys.executable, "-m", "orckit.cli", "verify", "--suite", "shared_neighbor"]
        target = tmp_path / "report.json"
        to_file = subprocess.run([*args, "--out", str(target)], capture_output=True, timeout=300)
        to_stdout = subprocess.run(args, capture_output=True, timeout=300)
        assert to_file.returncode == to_stdout.returncode == 0
        assert to_file.stdout == b""
        assert target.read_bytes() == to_stdout.stdout
        obj = json.loads(target.read_text())
        assert obj["suite"] == "shared_neighbor"
        assert obj["summary"]["violations"] == 0

    def test_negative_trials_is_an_input_error(self):
        code, out, err = run_cli("verify", "--suite", "diameter", "--trials", "-3")
        assert code == 2
        assert out == "" and "error: trials must be a non-negative integer" in err

    def test_trials_over_cap_rejected_before_any_work(self, capsys, monkeypatch):
        def no_work(g):
            raise AssertionError("a profile was computed")

        monkeypatch.setattr(diagnostics, "curvature_profile", no_work)
        code, out, err = run_main(capsys, "verify", "--trials", str(MAX_TRIALS + 1))
        assert code == 2 and out == ""
        assert f"error: trials must be at most {MAX_TRIALS}, got {MAX_TRIALS + 1}" in err

    def test_trials_cap_is_named_in_help(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["verify", "--help"])
        assert f"at most {MAX_TRIALS}" in capsys.readouterr().out

    @pytest.mark.parametrize("suite", ["diameter", "one_layer_sum"])
    def test_negative_seed_is_an_input_error(self, suite):
        code, out, err = run_cli("verify", "--suite", suite, "--seed", "-1")
        assert code == 2
        assert out == "" and "error: seed must be a non-negative integer" in err


class TestSimulate:
    def test_path_mean_layer(self, tmp_path):
        graph = tmp_path / "p3.txt"
        graph.write_text("0 1\n1 2\n")
        feats = tmp_path / "x.csv"
        feats.write_text("0\n0\n3\n")
        spec = tmp_path / "spec.json"
        spec.write_text('{"layers": [{"aggregator": "mean", "message": [[1.0]]}]}')
        layers_dir = tmp_path / "layers"
        code, out, _ = run_cli(
            "simulate", str(graph),
            "--features", str(feats),
            "--spec", str(spec),
            "--layers-out", str(layers_dir),
        )
        assert code == 0
        obj = json.loads(out)
        validate(obj, "simulate_report.schema.json")
        assert obj["smoothing"]["dirichlet"] == [3.0, 1.5]
        assert obj["series"] == [[0, 3.0], [1, 1.5]]
        rows = (layers_dir / "layer_01.csv").read_text().strip().splitlines()
        assert [float(r) for r in rows] == [0.0, 1.0, 1.5]

    def test_zero_layers_echo(self, tmp_path):
        graph = tmp_path / "p3.txt"
        graph.write_text("0 1\n1 2\n")
        feats = tmp_path / "x.csv"
        feats.write_text("1\n2\n3\n")
        spec = tmp_path / "spec.json"
        spec.write_text('{"layers": []}')
        code, out, _ = run_cli("simulate", str(graph), "--features", str(feats), "--spec", str(spec))
        assert code == 0
        assert len(json.loads(out)["series"]) == 1

    def test_dimension_mismatch(self, tmp_path):
        graph = tmp_path / "p3.txt"
        graph.write_text("0 1\n1 2\n")
        feats = tmp_path / "x.csv"
        feats.write_text("1\n2\n")  # two rows for a three-vertex graph
        spec = tmp_path / "spec.json"
        spec.write_text('{"layers": [{"aggregator": "mean", "message": [[1.0]]}]}')
        code, out, err = run_cli("simulate", str(graph), "--features", str(feats), "--spec", str(spec))
        assert code == 2 and err != ""

    @pytest.mark.parametrize("message", ["[[NaN]]", "[[1e308]]"], ids=["nan_spec", "overflow"])
    def test_non_finite_is_an_input_error(self, tmp_path, message):
        graph = tmp_path / "p3.txt"
        graph.write_text("0 1\n1 2\n")
        feats = tmp_path / "x.csv"
        feats.write_text("1\n2\n3\n")
        spec = tmp_path / "spec.json"
        spec.write_text('{"layers": [{"aggregator": "sum", "message": %s}]}' % message)
        code, out, err = run_cli("simulate", str(graph), "--features", str(feats), "--spec", str(spec))
        assert code == 2
        assert out == "" and "error:" in err

    @pytest.mark.parametrize("message", ["[[null]]", "[[1e400]]"], ids=["null", "inf"])
    def test_non_finite_spec_number_is_a_spec_error(self, capsys, tmp_path, message):
        # blamed on the spec field, not on the layer output it would spoil
        graph, feats, spec_file = tmp_path / "p3.txt", tmp_path / "x.csv", tmp_path / "spec.json"
        graph.write_text("0 1\n1 2\n")
        feats.write_text("1\n2\n3\n")
        spec_file.write_text('{"layers": [{"aggregator": "sum", "message": %s}]}' % message)
        args = ("simulate", str(graph), "--features", str(feats), "--spec", str(spec_file))
        code, out, err = run_main(capsys, *args)
        assert (code, out) == (2, "")
        assert err.startswith("error: layer 0: message") and "not finite" not in err

    @pytest.mark.parametrize(
        "spec",
        [
            '{"layers": [1]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": 5}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "clamp", "bound": null}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1]], "update": {"kind": "linear", "matrix": 3}}]}',
            '{"layers": [{"aggregator": "sum", "message": [[1%s]]}]}' % ("0" * 400),
        ],
        ids=["layer", "update", "clamp_bound", "linear_matrix", "huge_integer"],
    )
    def test_malformed_spec_is_an_input_error(self, capsys, tmp_path, spec):
        graph, feats, spec_file = tmp_path / "p3.txt", tmp_path / "x.csv", tmp_path / "spec.json"
        graph.write_text("0 1\n1 2\n")
        feats.write_text("1\n2\n3\n")
        spec_file.write_text(spec)
        args = ("simulate", str(graph), "--features", str(feats), "--spec", str(spec_file))
        code, out, err = run_main(capsys, *args)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    def test_demo_mode(self):
        code, out, _ = run_cli("simulate", "--demo-smoothing")
        assert code == 0
        obj = json.loads(out)
        validate(obj, "simulate_report.schema.json")
        assert obj["monotone"] is True
        series = obj["series"]
        assert len(series) == 26
        assert series[-1][1] < 1e-3 * series[0][1]

    def test_negative_demo_iterations(self):
        code, out, err = run_cli("simulate", "--demo-smoothing", "--demo-iterations", "-3")
        assert code == 2 and out == ""
        assert "iterations must be a non-negative integer, got -3" in err

    def test_demo_iterations_over_cap_rejected_before_allocating(self, capsys):
        # 10**9 steps would need terabytes; the cap check must come first
        tracemalloc.start()
        try:
            code, out, err = run_main(
                capsys, "simulate", "--demo-smoothing", "--demo-iterations", str(10**9)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert f"iterations must be at most {MAX_DEMO_ITERATIONS}, got {10**9}" in err
        assert peak < 1_000_000

    def test_demo_iterations_at_cap(self, capsys):
        code, out, _ = run_main(
            capsys, "simulate", "--demo-smoothing", "--demo-iterations", str(MAX_DEMO_ITERATIONS)
        )
        assert code == 0
        assert json.loads(out)["layer_states"] == MAX_DEMO_ITERATIONS + 1


class TestRewire:
    def test_barbell_defaults(self, barbell_file):
        code, out, _ = run_cli("rewire", barbell_file)
        assert code == 0
        obj = json.loads(out)
        trace = obj["trace"]
        validate(trace, "rewire_trace.schema.json")
        assert len(trace["steps"]) >= 1
        assert trace["steps"][0]["added"] == [[0, 4]]
        assert trace["final_out_of_band"] <= trace["initial_out_of_band"]
        validate(obj["graph"], "graph.schema.json")

    def test_separate_outputs(self, barbell_file, tmp_path):
        out_graph = tmp_path / "g.txt"
        out_trace = tmp_path / "t.json"
        code, out, _ = run_cli(
            "rewire", barbell_file, "--out-graph", str(out_graph), "--out-trace", str(out_trace)
        )
        assert code == 0 and out == ""
        assert "0 4" in out_graph.read_text().splitlines()
        validate(json.loads(out_trace.read_text()), "rewire_trace.schema.json")

    def test_in_band_graph_is_identity(self, tmp_path):
        path = tmp_path / "p4.txt"
        path.write_text("0 1\n1 2\n2 3\n")
        code, out, _ = run_cli("rewire", str(path))
        assert code == 0
        obj = json.loads(out)
        assert obj["trace"]["steps"] == []
        assert obj["graph"]["edges"] == [[0, 1], [1, 2], [2, 3]]

    def test_bad_thresholds(self, barbell_file):
        code, _, err = run_cli("rewire", barbell_file, "--tau-neg", "0.5", "--tau-pos", "0.2")
        assert code == 2 and err != ""

    @pytest.mark.parametrize("flag", ["--tau-neg=-inf", "--tau-pos=inf"])
    def test_infinite_threshold_is_an_input_error(self, capsys, barbell_file, flag):
        # an infinite threshold would be echoed as -Infinity, which is not JSON
        code, out, err = run_main(capsys, "rewire", barbell_file, flag)
        assert code == 2 and out == ""
        assert "thresholds must be finite" in err


class TestEdgelessGraph:
    """A graph without edges is an input error for every command."""

    @pytest.fixture()
    def lone_vertex(self, tmp_path):
        path = tmp_path / "lone.json"
        path.write_text('{"n": 1, "edges": []}')
        return str(path)

    @pytest.mark.parametrize("command", ["curvature", "rewire"])
    def test_rejected_on_input(self, capsys, lone_vertex, command):
        code, out, err = run_main(capsys, command, lone_vertex)
        assert (code, out) == (2, "")
        assert "graph has no edges" in err

    def test_simulate_rejects_it(self, capsys, lone_vertex, tmp_path):
        features, spec = tmp_path / "x.csv", tmp_path / "spec.json"
        features.write_text("1.0\n")
        spec.write_text('{"layers": []}')
        args = ("--features", str(features), "--spec", str(spec))
        code, out, err = run_main(capsys, "simulate", lone_vertex, *args)
        assert (code, out) == (2, "")
        assert "graph has no edges" in err

    @pytest.mark.parametrize("family", ["path", "complete"])
    def test_one_vertex_family_is_not_generated(self, capsys, family):
        code, out, err = run_main(capsys, "generate", "--family", family, "--n", "1")
        assert (code, out) == (2, "")
        assert "graph has no edges" in err

    def test_erdos_renyi_needs_two_vertices(self, capsys):
        args = ("--family", "erdos_renyi", "--n", "0", "--p", "0.5", "--seed", "0")
        code, out, err = run_main(capsys, "generate", *args)
        assert (code, out) == (2, "")
        assert "at least 2 vertices" in err

    def test_erdos_renyi_past_its_pair_bound(self, capsys):
        args = ("--family", "erdos_renyi", "--n", "200000", "--p", "0.0000001", "--seed", "0")
        code, out, err = run_main(capsys, "generate", *args)
        assert (code, out) == (2, "")
        assert "erdos_renyi" in err and f"bound of {_ER_PAIR_BUDGET}" in err


class TestOutputPath:
    """Every command writes through one output path: an --out file holds the
    bytes stdout would, and an input error leaves no --out file."""

    @pytest.fixture()
    def graph_file(self, tmp_path):
        path = tmp_path / "barbell.txt"
        path.write_text(generate("barbell", k=3).to_edge_list_text())
        return str(path)

    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, graph_file):
        for args in (
            ("generate", "--family", "barbell", "--k", "3", "--format", "json"),
            ("curvature", graph_file),
            ("simulate", "--demo-smoothing"),
        ):
            code, out, _ = run_main(capsys, *args)
            target = tmp_path / "out"
            assert run_main(capsys, *args, "--out", str(target))[:2] == (code, ""), args
            assert target.read_bytes() == out.encode(), args

    def test_trace_file_holds_the_rendered_trace(self, capsys, tmp_path, graph_file):
        code, out, _ = run_main(capsys, "rewire", graph_file)
        target = tmp_path / "trace.json"
        assert run_main(capsys, "rewire", graph_file, "--out-trace", str(target))[:2] == (code, "")
        trace = json.loads(out)["trace"]
        assert target.read_bytes() == (json.dumps(trace, sort_keys=True, indent=2) + "\n").encode()

    def test_input_error_leaves_no_out_file(self, capsys, tmp_path, graph_file):
        """An input error is found before the output opens: no file is made,
        and a file already at the path keeps its bytes, which opening it
        would have truncated."""
        bad_thresholds = ("--tau-neg", "0.5", "--tau-pos", "0.2")
        for args in (
            ("generate", "--family", "mystery", "--out"),
            ("curvature", str(tmp_path / "missing.txt"), "--out"),
            ("verify", "--trials", "-3", "--out"),
            ("verify", "--suite", "bogus", "--out"),
            ("verify", "--seed", "-1", "--out"),
            ("verify", "--trials", str(MAX_TRIALS + 1), "--out"),
            ("simulate", "--demo-smoothing", "--demo-iterations", "-3", "--out"),
            ("rewire", graph_file, *bad_thresholds, "--out-graph"),
            ("rewire", graph_file, *bad_thresholds, "--out-trace"),
        ):
            target = tmp_path / "out.json"
            code, out, err = run_main(capsys, *args, str(target))
            assert (code, out) == (2, "") and "error: " in err, args
            assert not target.exists(), args
            target.write_text("kept")
            assert run_main(capsys, *args, str(target))[0] == 2, args
            assert target.read_text() == "kept", args
            target.unlink()

    def test_failure_after_the_output_opens_leaves_no_out_file(self, capsys, tmp_path, monkeypatch):
        """verify computes its checks while it writes them. A check that
        raises once some are written exits 2 and deletes the --out file,
        unless it is not a regular file (a pipe here, /dev/null in use); on
        stdout the partial text is not a JSON document."""
        target = tmp_path / "out.json"
        sizes = []

        def failing(*args, **kwargs):
            sizes.append(target.stat().st_size if target.exists() else 0)
            raise ValueError("no layer")

        monkeypatch.setattr(diagnostics, "verify_one_layer", failing)
        code, out, err = run_main(capsys, "verify", "--trials", "1", "--out", str(target))
        assert (code, out) == (2, "") and "error: no layer" in err
        assert sizes[0] > 0  # the structural checks were written first
        assert not target.exists()
        code, out, _ = run_main(capsys, "verify", "--trials", "1")
        assert code == 2 and out.startswith('{\n  "checks": [\n')
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        # an --out that is not a regular file, here a pipe, is not removed
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
        reader.start()
        assert run_main(capsys, "verify", "--trials", "1", "--out", str(pipe))[0] == 2
        reader.join(timeout=60)
        assert not reader.is_alive() and received[0].startswith('{\n  "checks": [\n')
        assert pipe.is_fifo()


class TestGoldenHashes:
    """stdout sha256 of `curvature`, `rewire` and `simulate` on fixed inputs,
    run in process; `verify`'s hash is pinned by
    test_criterion_13_cli_contract."""

    @staticmethod
    def _er_file(capsys, tmp_path, n, p):
        path = tmp_path / f"er_{n}.txt"
        args = ("--n", str(n), "--p", str(p), "--seed", "0", "--out", str(path))
        assert run_main(capsys, "generate", "--family", "erdos_renyi", *args)[0] == 0
        return str(path)

    def test_curvature_er400(self, tmp_path, capsys):
        path = self._er_file(capsys, tmp_path, 400, 0.03)
        code, out, _ = run_main(capsys, "curvature", path)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "32d33754b3890f60886a414900e3b6374facc762ac75e795f8af21949f74c778"

    def test_rewire_er100(self, tmp_path, capsys):
        path = self._er_file(capsys, tmp_path, 100, 0.08)
        args = ("--tau-neg", "-0.3", "--additions", "3", "--iterations", "1")
        code, out, _ = run_main(capsys, "rewire", path, *args)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "8dc165da102bbd585f1cadea5a8307f62213ca9716b0138a3339e8d62b709f27"

    def test_simulate_demo(self, capsys):
        code, out, _ = run_main(capsys, "simulate", "--demo-smoothing")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "cfc06592fe9837be0ddc219d4c681cf316c57a01f11d07403f3e66690d7acf1d"

    def test_simulate_er60_three_layers(self, tmp_path, capsys):
        graph = self._er_file(capsys, tmp_path, 60, 0.1)
        feats = tmp_path / "x.csv"
        np.savetxt(feats, np.random.default_rng(0).standard_normal((60, 3)), delimiter=",")
        layers = [
            {
                "aggregator": "sum",
                "message": [[0.5, -0.25, 0.0], [0.1, 0.2, 0.3], [0.0, 0.0, 1.0]],
                "update": {"kind": "leaky", "slope": 0.1},
            },
            {
                "aggregator": "mean",
                "message": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                "update": {"kind": "clamp", "bound": 2.0},
            },
            {
                "aggregator": "mean",
                "message": [[0.3, 0.3, 0.3], [0.0, -1.0, 0.5], [0.2, 0.0, 0.1]],
                "update": {"kind": "abs"},
            },
        ]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"layers": layers}))
        args = ("--features", str(feats), "--spec", str(spec))
        code, out, _ = run_main(capsys, "simulate", graph, *args)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "b1f8735409c6b4ae6b976d5ef633de39378a89e3bb61ce6d4fab6c32b4356258"

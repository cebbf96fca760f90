import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from referencing import Registry, Resource

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

    def test_demo_mode(self):
        code, out, _ = run_cli("simulate", "--demo-smoothing")
        assert code == 0
        obj = json.loads(out)
        validate(obj, "simulate_report.schema.json")
        assert obj["monotone"] is True
        series = obj["series"]
        assert len(series) == 26
        assert series[-1][1] < 1e-3 * series[0][1]


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

"""The benchmark in perfbench/ checks its outputs through the package API:
`workloads._histogram_errors` recomputes a rewired graph's histogram with
`kappa_histogram(curvature_profile(g))`, and `workloads._oracle_errors`
parses a curvature input and compares sampled kappas with the simplex
oracle. These tests run both checks on the outputs the benchmark's own
commands produce, so an API change that would break them fails here. The
module is loaded from its file and never modified."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from orckit import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def first_command(workloads, workload, tmp_path):
    """The workload's first command at its default seed, inputs written."""
    cmd = workloads.setup(workload, workloads.DEFAULT_SEED[workload], tmp_path)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(cmd.argv) == 0
    return cmd, out.getvalue()


def test_rewire_histogram_check_passes_on_the_golden_output(workloads, tmp_path):
    cmd, out = first_command(workloads, "rewire_er", tmp_path)
    assert (cmd.n, cmd.seed) == (100, 0)
    assert workloads.hashlib.sha256(out.encode()).hexdigest() == cmd.golden
    assert workloads._histogram_errors(json.loads(out)) == []


def test_curvature_oracle_check_passes_on_er100(workloads, tmp_path):
    cmd, out = first_command(workloads, "curvature_er_sweep", tmp_path)
    assert (cmd.n, cmd.seed) == (100, 0)
    assert workloads._oracle_errors(cmd, json.loads(out)) == []

"""Fast self-tests of the benchmark itself, on tiny inputs (a few seconds).

    python3 perfbench/selftest.py

They check that the ER inputs match `orckit generate`, that the tracer puts
back every function it wrapped, that every metric named in BENCHMARK.json is
emitted with its unit, and that a corrupted output is counted as failed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from orckit import cli  # noqa: E402
from orckit.graphs import generate  # noqa: E402
from tracing import SITES, Tracer  # noqa: E402
from worker import round_report  # noqa: E402
from workloads import Command  # noqa: E402

SCHEMAS = ROOT / "docs" / "schemas"


def tiny_commands(tmp: Path) -> list[Command]:
    """One command of each kind, each well under a second except verify."""
    er = tmp / "er.txt"
    er.write_text("".join(f"{u} {v}\n" for u, v in workloads.er_edges(24, 0.25, 5)))
    barbell = tmp / "barbell.txt"
    barbell.write_text(generate("barbell", k=3).to_edge_list_text())
    return [
        Command(["curvature", str(er), "--threads", "1"], "curvature", 5, 24, er),
        Command(["rewire", str(barbell), *workloads.REWIRE_ARGS], "rewire", 0, 6, barbell),
        Command(["verify", "--suite", "diameter", "--trials", "1", "--seed", "3", "--threads", "1"], "verify", 3),
    ]


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.tmp = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def test_er_inputs_match_orckit_generate(self):
        for n, p, seed in ((30, 0.2, 3), (100, 0.08, 0)):
            g = generate("erdos_renyi", n=n, p=p, seed=seed)
            self.assertEqual(workloads.er_edges(n, p, seed), list(g.edges))

    def test_wrappers_restore_originals(self):
        originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in SITES}
        tracer = Tracer()
        tracer.install()
        try:
            self.assertEqual(tracer.missing, [])
            for (m, a), fn in originals.items():
                wrapped = getattr(importlib.import_module(m), a)
                self.assertIsNot(wrapped, fn, f"{m}.{a}")
                self.assertIs(wrapped.__wrapped__, fn, f"{m}.{a}")
        finally:
            tracer.uninstall()
        for (m, a), fn in originals.items():
            self.assertIs(getattr(importlib.import_module(m), a), fn, f"{m}.{a}")

    def test_every_named_metric_is_emitted(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        commands = tiny_commands(self.tmp)
        plain = round_report(cli.main, commands, 0, SCHEMAS, check=True)
        plain["setup_s"] = 0.1  # the worker adds this around round_report
        traced = round_report(cli.main, commands, 0, SCHEMAS, traced=True)
        rounds = [(plain, traced)]
        self.assertEqual(run.failures(rounds)[1], 0, run.failures(rounds)[2])

        e2e = run.end_to_end([{"setup_s": 0.1, "kernel_s": 0.1}], rounds)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(set(e2e), set(run.END_TO_END))
        self.assertTrue(all(v > 0 for v in e2e.values()), e2e)

        layers = run.per_layer(rounds)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(set(layers), set(run.PER_LAYER))
        self.assertGreater(layers["curvature.edge_report.calls"], 0)
        self.assertGreater(layers["rewiring.rewire_step.calls"], 0)
        self.assertGreater(layers["diagnostics.checks.total"], 0)

    def test_corrupted_output_is_counted_as_failed(self):
        def corrupting_main(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            text = buf.getvalue()
            if argv[0] == "curvature":  # wrong but well-formed curvatures
                obj = json.loads(text)
                for e in obj["edges"]:
                    e["kappa"] = "1/9" if e["kappa"] == "7/9" else "7/9"
                text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
            sys.stdout.write(text)
            return code

        commands = tiny_commands(self.tmp)[:2]
        report = round_report(corrupting_main, commands, 0, SCHEMAS, check=True)
        attempted, failed, messages = run.failures([(report, None)])
        self.assertEqual((attempted, failed), (2, 1), messages)
        self.assertIn("oracle gives", messages[0])

    def test_golden_hash_mismatch_is_an_error(self):
        cmd = Command(["verify"], "verify", 1)
        errors, _ = workloads.analyse(cmd, 0, b"{}", workloads.Schemas(SCHEMAS), deep=False)
        self.assertEqual(errors, ["stdout differs from the golden hash"])

    def test_traced_stdout_mismatch_is_counted(self):
        commands = tiny_commands(self.tmp)[:1]
        plain = round_report(cli.main, commands, 0, SCHEMAS, check=True)
        traced = json.loads(json.dumps(plain))
        traced["commands"][0]["sha256"] = "0" * 64
        self.assertEqual(run.failures([(plain, traced)])[:2], (2, 1))


if __name__ == "__main__":
    unittest.main()

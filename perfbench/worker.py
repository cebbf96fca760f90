"""One round of a workload, in a fresh interpreter started by run.py.

Set-up (interpreter start, imports, writing the inputs) ends when the first
command starts. Each command then calls `orckit.cli.main(argv)` in this
process with stdout captured, timed around that call alone. Passes of the
calibration kernel run in the gaps, untimed, to measure how fast the
machine is meanwhile. Checks run after the last command, untimed. The
round's result is one JSON line on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --t-spawn T
        [--setup-only] [--traced] [--check] [--spans FILE]

Run it from the root of an orckit checkout; `T` is the parent's
`time.perf_counter()` just before it started this process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads
from calibration import kernel_s
from tracing import Tracer

# about 1 s of calibration kernel per round, spread over the gaps before,
# between and after the commands, so it samples the spell they ran in
KERNEL_PASSES_PER_ROUND = 10


def run_commands(cli_main, commands, tracer=None) -> tuple[list[tuple[int, bytes, float]], list[float]]:
    """(exit code, stdout bytes, seconds inside cli.main) per command, and
    the calibration kernel's pass times around them."""
    per_gap = max(1, round(KERNEL_PASSES_PER_ROUND / (len(commands) + 1)))
    kernels = [kernel_s() for _ in range(per_gap)]
    results = []
    for run_id, cmd in enumerate(commands):
        out = io.StringIO()
        # the CLI's stderr notes ("threads used: 1") are discarded
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            try:
                if tracer is None:
                    code = cli_main(cmd.argv)
                else:
                    tracer.run_id = run_id
                    code = tracer.command(cli_main, cmd.argv)
            except SystemExit as exc:  # argparse rejects bad argv this way
                code = exc.code if isinstance(exc.code, int) else 2
            t1 = perf_counter()
        results.append((code, out.getvalue().encode(), t1 - t0))
        kernels += [kernel_s() for _ in range(per_gap)]
    return results, kernels


def round_report(cli_main, commands, seed: int, schema_dir: Path, traced: bool = False,
                 check: bool = False, spans: str | None = None) -> dict:
    """Run the commands once and describe them: exit code, time, stdout
    size and hash; per-layer metrics when traced; check results and output
    counts when checked."""
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    try:
        results, kernels = run_commands(cli_main, commands, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = {
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kernel_s": statistics.median(kernels),
        "commands": [
            {
                "argv": cmd.argv,
                "n": cmd.n,
                "code": code,
                "wall_s": wall,
                "bytes": len(out),
                "sha256": hashlib.sha256(out).hexdigest(),
            }
            for cmd, (code, out, wall) in zip(commands, results)
        ],
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["missing_sites"] = tracer.missing
        if spans:
            tracer.write(spans)
    t_check = perf_counter()
    if check:
        schemas = workloads.Schemas(schema_dir)
        deep = workloads.deep_checked(commands, seed)
        for i, (cmd, (code, out, _)) in enumerate(zip(commands, results)):
            errors, counts = workloads.analyse(cmd, code, out, schemas, i in deep)
            report["commands"][i].update(errors=errors, counts=counts)
    report["check_s"] = perf_counter() - t_check
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import numpy
    from orckit import cli

    commands = workloads.setup(args.workload, args.seed, root / "perfbench" / "out" / "inputs")
    setup_s = perf_counter() - args.t_spawn
    if args.setup_only:
        kernel = statistics.median(kernel_s() for _ in range(2))
        print(json.dumps({"setup_s": setup_s, "kernel_s": kernel}))
        return 0

    report = round_report(cli.main, commands, args.seed, root / "docs" / "schemas",
                          traced=args.traced, check=args.check, spans=args.spans)
    report.update(setup_s=setup_s, numpy=numpy.__version__)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

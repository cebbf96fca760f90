"""orckit benchmark: closed-loop, single-process workloads run through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an orckit checkout. A run repeats rounds of the
workload's commands until the next round would end after `--seconds`. Each
round is a fresh interpreter (perfbench/worker.py), so nothing cached in
memory carries from one round to the next. With `--trace 0` the last line
of stdout holds the end-to-end metrics, with times in reference seconds
(see calibration.py); with `--trace 1` each round runs once untraced and
once traced, and the line holds the per-layer metrics, in raw seconds.
The full record, with machine and code identity, goes to
perfbench/out/result-<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibration import KERNEL_REF_S  # noqa: E402
from tracing import CALLS, SELF  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402

SETUP_PROBES = 5  # extra set-ups per run, so setup_s is a median of several
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "edges_per_s": "1/s",
}

PER_LAYER = {
    **{f"{name}.calls": "count" for name in CALLS},
    **{f"{name}.self_s": "s" for name in SELF},
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "curvature.edges_profiled": "count",
    "curvature.edge_report.p50_us": "us",
    "curvature.edge_report.p99_us": "us",
    "transport.solves_per_edge": "ratio",
    "transport.bfs_per_solve": "ratio",
    "mpnn.walk_counts.calls_per_graph": "ratio",
    "diagnostics.checks.total": "count",
    "diagnostics.checks.passed": "count",
    "diagnostics.checks.violated": "count",
    "diagnostics.checks.skipped": "count",
    "rewiring.steps_accepted": "count",
    "rewiring.steps_rolled_back": "count",
    "checks_per_s": "1/s",
    "us_per_edge.n100": "us",
    "us_per_edge.n200": "us",
    "us_per_edge.n400": "us",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "calibration.kernel_s": "s",
}


class ChildFailed(Exception):
    pass


def spawn(root: Path, workload: str, seed: int, *flags: str) -> dict:
    """Run one worker to completion and return its JSON report."""
    t_spawn = perf_counter()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--t-spawn", repr(t_spawn), *flags,
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def failures(rounds: list[tuple[dict, dict | None]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every command run in every child.

    A command fails on a wrong exit code, a failed check, or stdout bytes
    that differ from the first round's (which covers traced vs untraced).
    """
    first = rounds[0][0]["commands"]
    attempted = failed = 0
    messages = []
    for r, pair in enumerate(rounds):
        for child in pair:
            if child is None:
                continue
            for i, c in enumerate(child["commands"]):
                attempted += 1
                problems = list(c.get("errors", []))
                if c["code"] != 0:
                    problems.append(f"exit code {c['code']}")
                if c["sha256"] != first[i]["sha256"]:
                    problems.append("stdout differs from the first round")
                if problems:
                    failed += 1
                    messages.append(f"round {r} {' '.join(c['argv'])}: {'; '.join(sorted(set(problems)))}")
    return attempted, failed, messages


def scale(child: dict) -> float:
    """Converts the child's seconds to reference seconds (calibration.py)."""
    return KERNEL_REF_S / child["kernel_s"]


def command_walls(children: list[dict], scaled: bool) -> list[float]:
    """Median over rounds of each command's time. The same command repeats
    in every round, so a slow spell of the machine moves one sample, not
    the median."""
    return [statistics.median(c["commands"][i]["wall_s"] * (scale(c) if scaled else 1.0) for c in children)
            for i in range(len(children[0]["commands"]))]


def end_to_end(setup_children: list[dict], rounds, scaled: bool = True) -> dict[str, float]:
    """Times in reference seconds, or in raw seconds with scaled=False."""
    plains = [plain for plain, _ in rounds]
    edges = sum(c["counts"].get("edges", 0) for c in plains[0]["commands"])
    wall = sum(command_walls(plains, scaled))
    setups = [c["setup_s"] * (scale(c) if scaled else 1.0) for c in setup_children + plains]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(plain["rss_mb"] for plain in plains),
        "edges_per_s": edges / wall,
    }


def per_layer(rounds) -> dict[str, float]:
    """Per-layer figures, in raw seconds."""
    checked = rounds[0][0]["commands"]
    traced = [t for _, t in rounds]
    out = {key: statistics.median(t["layers"][key] for t in traced) for key in traced[0]["layers"]}

    def total(name: str) -> int:
        return sum(c["counts"].get(name, 0) for c in checked)

    out["cli.stdout_bytes"] = sum(c["bytes"] for c in checked)
    for name in ("passed", "violated", "skipped"):
        out[f"diagnostics.checks.{name}"] = total(name)
    out["diagnostics.checks.total"] = total("checks")
    out["rewiring.steps_accepted"] = total("steps_accepted")
    out["rewiring.steps_rolled_back"] = total("steps_rolled_back")

    # rates from the untraced children, so tracing cost stays out of them
    plains = [plain for plain, _ in rounds]
    walls = command_walls(plains, scaled=False)
    out["checks_per_s"] = total("checks") / sum(walls)
    for size in (100, 200, 400):
        idx = [i for i, c in enumerate(checked) if c["n"] == size]
        edges = sum(checked[i]["counts"]["edges"] for i in idx)
        out[f"us_per_edge.n{size}"] = 1e6 * sum(walls[i] for i in idx) / edges if edges else 0.0
    out["trace.overhead_s"] = sum(command_walls(traced, scaled=False)) - sum(walls)
    out["calibration.kernel_s"] = statistics.median(c["kernel_s"] for c in plains)
    return out


def machine(root: Path, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEED))
    ap.add_argument("--seed", type=int, help="default: the workload's golden-hash seed")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seed = DEFAULT_SEED[args.workload] if args.seed is None else args.seed

    root = Path.cwd()
    if not (root / "src" / "orckit" / "cli.py").is_file() or not (root / "docs" / "schemas").is_dir():
        print("perfbench: run from the root of an orckit checkout (src/orckit, docs/schemas)", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{seed}-trace{args.trace}"

    # exiting through SystemExit lets subprocess.run kill and reap the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = perf_counter()
    try:
        probes = [spawn(root, args.workload, seed, "--setup-only") for _ in range(SETUP_PROBES)]
        rounds: list[tuple[dict, dict | None]] = []
        while True:
            t_round = perf_counter()
            plain = spawn(root, args.workload, seed, *([] if rounds else ["--check"]))
            traced = None
            if args.trace:
                traced = spawn(root, args.workload, seed, "--traced", "--spans", str(out_dir / f"spans-{name}.jsonl"))
            rounds.append((plain, traced))
            now = perf_counter()
            # stop when a round like this one, without its checks, would overrun
            if now - start + (now - t_round - plain["check_s"]) > args.seconds:
                break
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, messages = failures(rounds)
    if args.trace:
        metrics, units = per_layer(rounds), PER_LAYER
    else:
        metrics, units = end_to_end(probes, rounds), END_TO_END
    info = machine(root, rounds[0][0]["numpy"])
    record = {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "probes": probes,
        "raw": end_to_end(probes, rounds, scaled=False),
        "rounds": rounds,
        "failures": messages,
        "metrics": metrics,
    }
    (out_dir / f"result-{name}.json").write_text(json.dumps(record, indent=1))
    for message in messages:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={seed} rounds={len(rounds)} {json.dumps(info)}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

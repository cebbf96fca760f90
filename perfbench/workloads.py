"""The three workloads: their inputs, their commands and their output checks.

Inputs come only from the benchmark seed. Graphs are generated here, not by
the program, so a change to orckit's generator cannot change what is
measured; the golden hash of ER(400, 0.03) seed 0 pins the two together.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

# sha256 of stdout. verify and ER(400) come from ROADMAP's baseline; rewire
# was recorded from the seed commit for ER(100, 0.08) seed 0.
GOLDEN = {
    ("verify", 1): "e9edf5b0043ae27930074a3db50007d5adc3841b29feaea9e278b9f85852de32",
    ("curvature", 400, 0): "32d33754b3890f60886a414900e3b6374facc762ac75e795f8af21949f74c778",
    ("rewire", 100, 0): "8dc165da102bbd585f1cadea5a8307f62213ca9716b0138a3339e8d62b709f27",
}

ER_SWEEP = ((100, 0.08), (200, 0.05), (400, 0.03))
REWIRE_GRAPH = (100, 0.08)
# graphs per rewire round: one graph takes about 1.2 s, and the per-graph
# spread in edge count and degree averages out over this many
REWIRE_GRAPHS = 12
REWIRE_ARGS = ("--tau-neg", "-0.3", "--additions", "3", "--iterations", "1")
REWIRE_RECHECKED = 3  # graphs per round whose final histogram is recomputed
ORACLE_EDGES = 6  # edges per ER graph checked against the simplex oracle
ORACLE_CAP = 4096  # support product cap for the oracle (the default is 64)
ER_RETRY_BUDGET = 1000

DEFAULT_SEED = {"verify_corpus": 1, "curvature_er_sweep": 0, "rewire_er": 0}


@dataclass
class Command:
    argv: list[str]
    kind: str  # verify | curvature | rewire
    seed: int  # the program seed (verify) or graph seed
    n: int = 0  # vertex count of the input graph, 0 for verify
    path: Path | None = None

    @property
    def golden(self) -> str | None:
        key = (self.kind, self.seed) if self.kind == "verify" else (self.kind, self.n, self.seed)
        return GOLDEN.get(key)


def er_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """Connected G(n, p), drawn exactly as `orckit generate --family
    erdos_renyi` draws it, so the golden hashes apply."""
    for salt in range(ER_RETRY_BUDGET):
        rng = random.Random(f"er:{n}:{seed}:{salt}")
        pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
        if _connected(n, pairs):
            return pairs
    raise RuntimeError(f"ER({n}, {p}) seed {seed} stayed disconnected")


def _connected(n: int, pairs) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _write_graph(path: Path, pairs) -> None:
    path.write_text("".join(f"{u} {v}\n" for u, v in pairs))


def setup(workload: str, seed: int, input_dir: Path) -> list[Command]:
    """Write the workload's input files and return its commands in order."""
    input_dir.mkdir(parents=True, exist_ok=True)
    if workload == "verify_corpus":
        argv = ["verify", "--suite", "all", "--trials", "200", "--seed", str(seed), "--threads", "1"]
        return [Command(argv, "verify", seed)]
    if workload == "curvature_er_sweep":
        commands = []
        for n, p in ER_SWEEP:
            path = input_dir / f"er_n{n}.txt"
            _write_graph(path, er_edges(n, p, seed))
            commands.append(Command(["curvature", str(path), "--threads", "1"], "curvature", seed, n, path))
        return commands
    if workload == "rewire_er":
        n, p = REWIRE_GRAPH
        commands = []
        for i in range(REWIRE_GRAPHS):
            graph_seed = seed * REWIRE_GRAPHS + i
            path = input_dir / f"rewire_{i}.txt"
            _write_graph(path, er_edges(n, p, graph_seed))
            commands.append(Command(["rewire", str(path), *REWIRE_ARGS], "rewire", graph_seed, n, path))
        return commands
    raise ValueError(f"unknown workload {workload!r}")


def deep_checked(commands: list[Command], seed: int) -> set[int]:
    """Indices of the commands that get the costly oracle/recompute checks."""
    if commands[0].kind == "rewire":
        k = min(REWIRE_RECHECKED, len(commands))
        return set(random.Random(f"recheck:{seed}").sample(range(len(commands)), k))
    return set(range(len(commands)))


# ---------------------------------------------------------------------------
# Output checks. Each returns a list of failure messages; empty means correct.


class Schemas:
    def __init__(self, schema_dir: Path):
        import jsonschema
        from referencing import Registry, Resource

        self._dir = schema_dir
        self._registry = Registry().with_resources(
            (p.name, Resource.from_contents(json.loads(p.read_text())))
            for p in schema_dir.glob("*.schema.json")
        )
        self._jsonschema = jsonschema

    def errors(self, obj, name: str) -> list[str]:
        schema = json.loads((self._dir / name).read_text())
        validator = self._jsonschema.Draft202012Validator(schema, registry=self._registry)
        return [f"{name}: {e.message[:200]}" for e in itertools.islice(validator.iter_errors(obj), 3)]


def analyse(cmd: Command, code: int, out: bytes, schemas: Schemas, deep: bool) -> tuple[list[str], dict]:
    """Untimed checks on one command's exit code and stdout, plus the counts
    read from its output. An empty error list means the output is correct.

    Exit code, golden hash, schema and violation count are checked on every
    command; `deep` adds the oracle and recompute checks, which cost about
    as much as the command itself.
    """
    if code != 0:
        return [f"exit code {code}"], {}
    golden = cmd.golden
    if golden is not None and hashlib.sha256(out).hexdigest() != golden:
        return ["stdout differs from the golden hash"], {}
    try:
        obj = json.loads(out)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"], {}
    if cmd.kind == "verify":
        errors = schemas.errors(obj, "verify_report.schema.json")
        if errors:
            return errors, {}
        s = obj["summary"]
        if s["violations"] != 0:
            errors.append(f"{s['violations']} bound violations")
        row = s["by_name"]["shared_neighbor"]  # one check per profiled edge
        return errors, {
            "edges": row["passed"] + row["violated"] + row["skipped"],
            "checks": s["total"],
            "passed": s["total"] - s["violations"] - s["skipped"],
            "violated": s["violations"],
            "skipped": s["skipped"],
        }
    if cmd.kind == "curvature":
        errors = schemas.errors(obj, "curvature_report.schema.json")
        if errors:
            return errors, {}
        if deep:
            errors += _oracle_errors(cmd, obj)
        return errors, {"edges": obj["summary"]["edge_count"]}
    errors = schemas.errors(obj.get("graph"), "graph.schema.json")
    errors += schemas.errors(obj.get("trace"), "rewire_trace.schema.json")
    if errors:
        return errors, {}
    if deep:
        errors += _histogram_errors(obj)
    steps = obj["trace"]["steps"]
    if steps:
        # the initial profile, then one full profile per step
        edges = sum(steps[0]["histogram_before"]) + sum(sum(s["histogram_after"]) for s in steps)
    else:
        edges = len(obj["graph"]["edges"])
    rolled = sum(1 for s in steps if s["rolled_back"])
    return errors, {"edges": edges, "steps_accepted": len(steps) - rolled, "steps_rolled_back": rolled}


def _oracle_errors(cmd: Command, obj: dict) -> list[str]:
    """The input's edges are exactly the reported ones, and a seeded sample
    of reported curvatures equals 1 - W1 from the simplex oracle."""
    from fractions import Fraction

    from orckit.graphs import parse_edge_list
    from orckit.transport import local_measure, wasserstein1_oracle

    g = parse_edge_list(cmd.path.read_text())
    reported = {(e["u"], e["v"]): e["kappa"] for e in obj["edges"]}
    if sorted(reported) != list(g.edges):
        return ["reported edges differ from the input edges"]
    k = min(ORACLE_EDGES, len(g.edges))
    sample = random.Random(f"oracle:{cmd.n}:{cmd.seed}").sample(list(g.edges), k)
    errors = []
    for u, v in sample:
        w1 = wasserstein1_oracle(g, local_measure(g, u), local_measure(g, v), cap=ORACLE_CAP)
        if Fraction(reported[(u, v)]) != 1 - w1:
            errors.append(f"kappa({u},{v}) = {reported[(u, v)]}, oracle gives {1 - w1}")
    return errors


def _histogram_errors(obj: dict) -> list[str]:
    """The final graph's histogram, recomputed from scratch, equals the one
    the trace reports for it."""
    from orckit.curvature import curvature_profile
    from orckit.graphs import from_edges
    from orckit.rewiring import kappa_histogram

    steps = obj["trace"]["steps"]
    accepted = [s for s in steps if not s["rolled_back"]]
    if accepted:
        expected = accepted[-1]["histogram_after"]
    elif steps:
        expected = steps[0]["histogram_before"]
    else:
        return []
    g = from_edges(obj["graph"]["n"], [tuple(e) for e in obj["graph"]["edges"]])
    actual = list(kappa_histogram(curvature_profile(g)))
    if actual != expected:
        return [f"final histogram {expected} != recomputed {actual}"]
    return []

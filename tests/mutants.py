"""Mutants the tests were shown to kill, and a runner that shows it again.

Each mutant is one exact text edit to one file: its id, the file (from the
repository root), the old text, which must occur exactly once there, the
new text, and the test node ids that must fail once it is applied.
`tests/test_mutants.py` checks that every old text still occurs exactly
once, so a refactor that moves the code has to update the catalogue.

    python tests/mutants.py

runs every mutant in turn. It copies src/, tests/, docs/ (whose schemas two
test modules read when imported) and pyproject.toml to a temporary
directory (pyproject's `pythonpath = ["src"]` resolves against the
rootdir, so the copy imports its own src), applies the edit and runs
the mutant's tests with -x. A mutant is killed when pytest reports a failed
test (exit status 1). Before any mutant, the same tests must pass on an
unmutated copy. The runner prints each mutant's outcome and its time, lists
the survivors (every mutant not killed, a timeout or a collection error
included) and exits 1 if any survive.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


TRANSPORT = "src/orckit/transport.py"
CURVATURE = "src/orckit/curvature.py"
REWIRING = "src/orckit/rewiring.py"
GRAPHS = "src/orckit/graphs.py"

MUTANTS = (
    Mutant(
        "phase-bound-fixed-at-4",
        TRANSPORT,
        "    phases = top + 1  # the bound argued above\n",
        "    phases = 4  # the bound argued above\n",
        (
            "tests/test_transport.py::TestPhaseBound::test_edge[1-19-2]",
            "tests/test_transport.py::TestPhaseBound::test_far_pair",
        ),
    ),
    Mutant(
        "plan-cost-no-column-check",
        TRANSPORT,
        "    if not valid or cols != [D] * n:\n",
        "    if not valid:\n",
        ("tests/test_transport.py::TestMinCostFlow::test_marginal_check_rejects_bad_plans[flow1]",),
    ),
    Mutant(
        "edge-start-cost-2-3-swapped",
        TRANSPORT,
        "            twos |= row[2]\n            threes |= row[3]\n",
        "            twos |= row[3]\n            threes |= row[2]\n",
        (
            "tests/test_transport.py::TestWasserstein::test_structural_start_against_bfs_costs",
            "tests/test_transport.py::TestDualSteps::test_corpus",
        ),
    ),
    Mutant(
        "plan-cost-S-D-swapped",
        TRANSPORT,
        "        if sent != S:\n            valid = False\n    if not valid or cols != [D] * n:\n",
        "        if sent != D:\n            valid = False\n    if not valid or cols != [S] * n:\n",
        (
            "tests/test_transport.py::TestWasserstein::test_path_leaf_edge",
            "tests/test_transport.py::TestMinCostFlow::test_marginal_check_passes_a_good_plan",
        ),
    ),
    Mutant(
        "index-cost-2-overlaps-cost-1",
        GRAPHS,
        "        row = self[q] = d0, d1, shared & ~(d0 | d1), self.full & ~(d0 | d1 | shared)\n",
        "        row = self[q] = d0, d1, shared & ~d0, self.full & ~(d0 | d1 | shared)\n",
        (
            "tests/test_transport.py::TestWasserstein::test_index_rows_partition_their_columns",
            "tests/test_transport.py::TestPhaseBound::test_edge[0-1-3]",
        ),
    ),
    Mutant(
        "reached-no-old-adjacency",
        CURVATURE,
        "            for w in (y, *before[y], *after[y]):\n",
        "            for w in (y, *after[y]):\n",
        ("tests/test_properties.py::test_carried_kappas_match_fresh_profiles",),
    ),
    Mutant(
        "reached-one-orientation",
        CURVATURE,
        "        for y in set(before[x]).symmetric_difference(after[x]):\n",
        "        for y in [y for y in set(before[x]).symmetric_difference(after[x]) if x < y]:\n",
        (
            "tests/test_rewiring.py::test_post_step_pass_solves_exactly_the_changed_edges[golden]",
            "tests/test_properties.py::test_carried_kappas_match_fresh_profiles",
        ),
    ),
    Mutant(
        "reached-no-endpoint-rule",
        CURVATURE,
        "    reached = {(x, y) if x < y else (y, x) for x in moved for y in after[x]}\n",
        "    reached = set()\n",
        (
            "tests/test_rewiring.py::test_post_step_pass_solves_exactly_the_changed_edges[k4_removals]",
            "tests/test_properties.py::test_carried_kappas_match_fresh_profiles",
        ),
    ),
    Mutant(
        "reached-no-level-comparison",
        CURVATURE,
        "        if _level(before, p, q) != _level(after, p, q):\n",
        "        if True:\n",
        (
            "tests/test_rewiring.py::test_post_step_pass_solves_exactly_the_changed_edges[barbell_3]",
            "tests/test_properties.py::test_carried_kappas_match_fresh_profiles",
        ),
    ),
    Mutant(
        "removal-no-reachability-test",
        REWIRING,
        "        if bfs_distances(cut, edge[0])[edge[1]] == UNREACHABLE:\n",
        "        if False:\n",
        (
            "tests/test_rewiring.py::TestRewireStep::test_disconnecting_removal_is_skipped[path_5]",
            "tests/test_rewiring.py::TestRewireStep::test_disconnecting_removal_is_skipped[triangle_pendant]",
        ),
    ),
    Mutant(
        "loop-no-unchanged-graph-stop",
        REWIRING,
        "        if candidate.edges == current.edges:\n",
        "        if False:\n",
        ("tests/test_rewiring.py::TestRewireLoop::test_in_band_graph_is_identity",),
    ),
    Mutant(
        "loop-histogram-not-carried",
        REWIRING,
        "        current_oob, current_hist = new_oob, new_hist\n",
        "        current_oob, current_hist = new_oob, current_hist\n",
        ("tests/test_rewiring.py::test_loop_reusing_reports_matches_fresh_profiles[k4_removals]",),
    ),
    Mutant(
        "edge-index-no-hub-check",
        GRAPHS,
        "    if index.hub != u:\n",
        "    if False:\n",
        (
            "tests/test_curvature.py::test_an_index_not_of_u_on_g_is_rejected[wasserstein1]",
            "tests/test_curvature.py::test_an_index_not_of_u_on_g_is_rejected[edge_report]",
            "tests/test_curvature.py::test_an_index_not_of_u_on_g_is_rejected[bottleneck_sets]",
        ),
    ),
    Mutant(
        "edge-index-no-graph-check",
        GRAPHS,
        "    if index.adjacency is not g.adjacency:\n",
        "    if False:\n",
        (
            "tests/test_curvature.py::test_an_index_not_of_u_on_g_is_rejected[wasserstein1]",
            "tests/test_curvature.py::test_an_index_not_of_u_on_g_is_rejected[edge_report]",
            "tests/test_curvature.py::test_an_index_not_of_u_on_g_is_rejected[bottleneck_sets]",
        ),
    ),
    Mutant(
        "report-kappa-is-w1",
        CURVATURE,
        "        kappa=Fraction(T - cost, T),\n",
        "        kappa=Fraction(cost, T),\n",
        (
            "tests/test_curvature.py::TestEdgeReport::test_fields",
            "tests/test_curvature.py::test_kappa_equals_one_minus_w1_on_the_corpus",
        ),
    ),
    Mutant(
        "report-degrees-swapped",
        CURVATURE,
        "        deg_u=len(adjacency[a]),\n        deg_v=len(adjacency[b]),\n",
        "        deg_u=len(adjacency[b]),\n        deg_v=len(adjacency[a]),\n",
        ("tests/test_curvature.py::TestEdgeReport::test_fields_on_irregular_edges[centres]",),
    ),
    Mutant(
        "profile-mean-not-divided-by-count",
        CURVATURE,
        "    return Fraction(sum(x.numerator * (den // x.denominator) for x in xs), den * len(xs))\n",
        "    return Fraction(sum(x.numerator * (den // x.denominator) for x in xs), den)\n",
        (
            "tests/test_curvature.py::TestCurvatureProfile::test_summary",
            "tests/test_curvature.py::test_profile_json_matches_json_dumps",
        ),
    ),
)


def _pytest(tmp: Path, tests) -> int:
    """pytest's exit status on tests in the copy at tmp, -x; -1 on timeout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1
    return done.returncode


def _copy(tmp: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests", "docs"):
        shutil.copytree(ROOT / name, tmp / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", tmp)


def run(mutant: Mutant) -> int:
    """pytest's exit status on the mutant's tests with the mutant applied."""
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        _copy(tmp)
        path = tmp / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise ValueError(f"{mutant.id}: old text does not occur exactly once in {mutant.file}")
        path.write_text(text.replace(mutant.old, mutant.new))
        return _pytest(tmp, mutant.tests)


def main() -> int:
    started = time.perf_counter()
    tests = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory() as name:
        _copy(Path(name))
        status = _pytest(Path(name), tests)
    if status != 0:
        print(f"the catalogued tests do not pass unmutated (pytest status {status})")
        return 1
    survivors = []
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        status = run(mutant)
        outcome = {1: "killed", 0: "survived", -1: "timed out"}.get(status, f"pytest status {status}")
        print(f"{mutant.id}: {outcome} in {time.perf_counter() - t0:.1f} s", flush=True)
        if status != 1:
            survivors.append(mutant.id)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed in {time.perf_counter() - started:.1f} s")
    if survivors:
        print("survivors: " + ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

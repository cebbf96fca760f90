"""Acceptance gate: one test per numbered criterion, at the stated tolerances.

Run with `pytest -v` to get one PASS/FAIL line per criterion (the test names
carry the criterion numbers); each test also prints a `criterion NN: PASS`
line with the check counts it performed.

Criterion 11 is split: the 6-vertex demo clause passes, while the
corpus-wide energy-monotonicity clause is asserted faithfully and fails,
because edge-difference energy is not monotone under mean averaging (see
test_criterion_11_energy_monotone_on_corpus for the exact counterexample).
"""

import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from orckit.diagnostics import (
    TOLERANCE,
    run_suite,
    verify_bottleneck,
    verify_diameter,
    verify_multilayer,
    verify_shared_neighbor,
)
from orckit.graphs import generate
from orckit.mpnn import (
    LayerSpec,
    MpnnSpec,
    Update,
    alpha_beta,
    demo_instance,
    forward,
    identity_spec,
    influence_distribution,
    linear_jacobians,
    smoothing_demo,
    walk_counts,
)
from orckit.rewiring import RewireConfig, rewire_loop
from orckit.transport import local_measure, wasserstein1, wasserstein1_oracle

F = Fraction

# the densest corpus graphs have adjacent supports up to 9x14; the default
# desk-scale oracle cap is meant for interactive use, not this sweep
ORACLE_SWEEP_CAP = 400

# sha256 of `orckit verify --suite all --trials 200 --seed 1` stdout (ROADMAP)
VERIFY_GOLDEN_SHA256 = "e9edf5b0043ae27930074a3db50007d5adc3841b29feaea9e278b9f85852de32"


def report(criterion, detail):
    print(f"criterion {criterion}: PASS - {detail}")


def test_criterion_01_transport_matches_oracle(corpus_entries):
    names = [name for name, _ in corpus_entries]
    assert sum(1 for n in names if n.startswith("five_vertex_")) == 21
    assert sum(1 for n in names if n.startswith("erdos_renyi_20_03_")) == 50
    assert all(g.vertex_count <= 20 for _, g in corpus_entries)

    started = time.perf_counter()
    edges = 0
    for name, g in corpus_entries:
        for u, v in g.edges:
            mu, mv = local_measure(g, u), local_measure(g, v)
            fast = wasserstein1(g, u, v)
            slow = wasserstein1_oracle(g, mu, mv, cap=ORACLE_SWEEP_CAP)
            assert fast == slow, f"{name} edge ({u},{v}): {fast} != {slow}"
            edges += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"single-threaded oracle sweep took {elapsed:.1f}s"
    report("01", f"exact agreement on {edges} edges in {elapsed:.1f}s")


def test_criterion_02_curvature_range(corpus_profiles):
    edges = 0
    for name, profile in corpus_profiles.items():
        for r in profile.reports:
            assert F(-2) <= r.kappa <= F(1), f"{name} edge {r.edge}: {r.kappa}"
            edges += 1
    report("02", f"-2 <= kappa <= 1 on all {edges} corpus edges")


def test_criterion_03_closed_forms(corpus_profiles):
    for n in range(3, 9):
        profile = corpus_profiles[f"complete_{n}"]
        assert all(r.kappa == F(n - 2, n - 1) for r in profile.reports)
    assert all(r.kappa == 0 for r in corpus_profiles["path_4"].reports)
    for n in (4, 5, 6):
        assert all(r.kappa == 0 for r in corpus_profiles[f"cycle_{n}"].reports)
    center = [r for r in corpus_profiles["double_star_3_3"].reports if r.edge == (0, 1)]
    assert center[0].kappa == F(-2, 3)
    report("03", "complete 3..8, path_4, cycles 4..6, double_star(3,3) all exact")


def test_criterion_04_shared_neighbor_bound(corpus_profiles):
    edges = 0
    for name, profile in corpus_profiles.items():
        for r in profile.reports:
            check = verify_shared_neighbor(r, name)
            assert check.holds and check.slack >= 0, f"{name} edge {r.edge}"
            edges += 1
    for tight in ("complete_3", "cycle_4"):
        slacks = [verify_shared_neighbor(r).slack for r in corpus_profiles[tight].reports]
        assert all(s == 0 for s in slacks), tight
    report("04", f"zero violations on {edges} edges; tight on complete_3 and cycle_4")


def test_criterion_05_one_layer_gap_bound(corpus_entries):
    assert TOLERANCE == 1e-9
    started = time.perf_counter()
    totals = {}
    for aggregator in ("sum", "mean"):
        suite = run_suite(corpus=corpus_entries, trials=200, seed=1, suite=f"one_layer_{aggregator}")
        assert suite.violations == (), [c.to_json_obj() for c in suite.violations]
        ran = [c for c in suite.checks if not c.skipped]
        assert ran, "no positively curved edge was ever drawn"
        totals[aggregator] = len(ran)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"200-trial one-layer sweep took {elapsed:.1f}s"
    report(
        "05",
        f"200 trials per aggregator, {totals['sum']}+{totals['mean']} gap checks, "
        f"0 violations in {elapsed:.1f}s",
    )


def test_criterion_06_multilayer_gap_bound():
    assert TOLERANCE == 1e-9
    graphs = [(f"complete_{n}", generate("complete", n=n)) for n in range(4, 9)]
    graphs += [(f"cocktail_party_{m}", generate("cocktail_party", m=m)) for m in (3, 4, 5)]
    checks = 0
    for name, g in graphs:
        specs = [identity_spec(2, 6, "mean")]
        for s in range(3):
            rng = np.random.default_rng((61, s))
            layers = tuple(
                LayerSpec(
                    "mean",
                    rng.uniform(-1, 1, (2, 2)),
                    Update("linear", matrix=rng.uniform(-1, 1, (2, 2))),
                )
                for _ in range(6)
            )
            specs.append(MpnnSpec(layers))
        rng = np.random.default_rng((62, g.vertex_count))
        x = rng.standard_normal((g.vertex_count, 2))
        for spec in specs:
            results = verify_multilayer(g, spec, x, 6, name)
            assert len(results) == 6 * len(g.edges)
            bad = [c for c in results if not c.holds]
            assert not bad, f"{name}: {[c.to_json_obj() for c in bad]}"
            checks += len(results)
    report("06", f"{checks} layer-gap checks over K4..K8 and cocktail parties, 0 violations")


def test_criterion_07_bottleneck_bounds(corpus_profiles):
    strong = 0
    statement = 0
    for name, profile in corpus_profiles.items():
        for r in profile.reports:
            statement_check, strong_check = verify_bottleneck(r, name)
            assert strong_check.holds, f"{name} edge {r.edge}"
            strong += 1
            if not statement_check.skipped:
                assert statement_check.holds, f"{name} edge {r.edge}"
                statement += 1
    assert statement > 0
    report("07", f"strong bound on {strong} edges; statement bound on {statement} eligible edges")


def test_criterion_08_jacobian_ratios_and_blocks(corpus_entries, walk_count_ratios):
    spec = identity_spec(1, 2, "sum")
    edges = 0
    for name, g in corpus_entries:
        counts = walk_counts(g, 2)
        for u, v in g.edges:
            ab = alpha_beta(g, spec, u, v)
            assert ab.bound_ok, f"{name} edge ({u},{v})"
            # the closed form agrees with rows of the dense (A+I)^2
            assert (ab.alpha, ab.beta) == walk_count_ratios(g, counts, u, v), f"{name} ({u},{v})"
            edges += 1

    pool = [
        generate("barbell", k=3),
        generate("cocktail_party", m=3),
        generate("path", n=5),
        generate("cycle", n=6),
        generate("complete", n=5),
    ]
    h = 1e-6
    for seed in range(20):
        rng = np.random.default_rng((81, seed))
        g = pool[seed % len(pool)]
        d = int(rng.integers(1, 4))
        layers = tuple(
            LayerSpec(
                "sum",
                rng.uniform(-1, 1, (d, d)),
                Update("linear", matrix=rng.uniform(-1, 1, (d, d))),
            )
            for _ in range(2)
        )
        spec_s = MpnnSpec(layers)
        x = rng.standard_normal((g.vertex_count, d))
        stack = linear_jacobians(g, spec_s, 2)
        for u in range(g.vertex_count):
            for w in range(g.vertex_count):
                fd = np.zeros((d, d))
                for c in range(d):
                    xp, xm = x.copy(), x.copy()
                    xp[w, c] += h
                    xm[w, c] -= h
                    fd[:, c] = (forward(g, xp, spec_s)[2][u] - forward(g, xm, spec_s)[2][u]) / (2 * h)
                block = stack.block(u, w)
                scale = max(1.0, float(np.max(np.abs(block))))
                assert np.max(np.abs(fd - block)) <= 1e-5 * scale, f"seed {seed} block ({u},{w})"
    report("08", f"exact ratio bounds on {edges} edges; 20 seeded specs match finite differences")


def test_criterion_09_influence_distributions(corpus_entries):
    spec = identity_spec(1, 4, "sum")
    rows = 0
    for name, g in corpus_entries:
        for depth in range(5):
            for u in range(g.vertex_count):
                total = sum(influence_distribution(g, spec, depth, u))
                assert abs(float(total) - 1.0) <= 1e-12, f"{name} depth {depth} u={u}"
                rows += 1
    leaf = influence_distribution(generate("path", n=3), spec, 2, 0)
    assert leaf == [F(2, 5), F(2, 5), F(1, 5)]
    report("09", f"{rows} influence rows sum to 1; path_3 leaf row is (2/5, 2/5, 1/5)")


def test_criterion_10_diameter_bound(corpus_entries, corpus_profiles):
    eligible = 0
    for name, g in corpus_entries:
        profile = corpus_profiles[name]
        if min(r.kappa for r in profile.reports) <= 0:
            continue
        check = verify_diameter(g, name, profile)
        assert check.holds, check.to_json_obj()
        eligible += 1
    assert eligible > 0
    report("10", f"diameter <= floor(2/delta) on all {eligible} positively curved corpus graphs")


def test_criterion_11_demo_energy_collapse():
    g, x = demo_instance()
    _, energies = smoothing_demo(g, x, 25)
    assert energies[25] < 1e-3 * energies[0]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    report("11", f"demo energy {energies[0]:.4f} -> {energies[25]:.2e} in 25 iterations, monotone")


def test_criterion_11_energy_monotone_on_corpus(corpus_entries):
    """Faithful check of the corpus-wide monotonicity clause; expected to FAIL.

    Mean aggregation contracts features toward local averages, but the
    edge-difference energy it is measured with here is not a Lyapunov
    function for it. Deterministic witness: barbell(3,3) with features
    (0,0,0,3,3,3). Only the bridge disagrees, so the initial energy is 3;
    one averaging step moves the bridge endpoints to 3/4 and 9/4, which
    spreads disagreement onto all six triangle edges and raises the energy
    to 9/2. The demo clause above holds; this universal clause cannot.
    """
    violations = []
    for name, g in corpus_entries:
        rng = np.random.default_rng((111, g.vertex_count, len(g.edges)))
        feature_sets = [rng.standard_normal((g.vertex_count, 3))]
        if name.startswith("barbell_"):
            half = g.vertex_count // 2
            block = np.zeros((g.vertex_count, 1))
            block[half:] = 3.0
            feature_sets.append(block)
        for x in feature_sets:
            _, energies = smoothing_demo(g, x, 25)
            for k in range(25):
                if energies[k + 1] > energies[k] + 1e-12:
                    violations.append(f"{name}: step {k}: {energies[k]:.6g} -> {energies[k + 1]:.6g}")
                    break
    if violations:
        pytest.fail(
            "criterion 11: FAIL - Dirichlet energy rose under pure averaging on: "
            + "; ".join(violations)
            + " (the corpus-wide monotonicity clause is false as stated; "
            "see this test's docstring for the hand-checkable barbell witness)"
        )
    report("11", "energy series monotone on every corpus graph")


def test_criterion_12_rewiring_loop():
    for k in (3, 4):
        g = generate("barbell", k=k)
        cfg = RewireConfig(tau_neg=-0.5, tau_pos=0.99, max_iterations=10)
        final, trace = rewire_loop(g, cfg)
        assert len(trace.steps) <= 10
        # the Graph constructor revalidates simplicity and connectivity
        from orckit.graphs import from_edges

        rebuilt = from_edges(final.vertex_count, final.edges)
        assert rebuilt.edges == final.edges
        for step in trace.steps:
            if not step.rolled_back:
                assert step.out_of_band_after <= step.out_of_band_before
        assert trace.final_out_of_band <= trace.initial_out_of_band
    report("12", "barbell(3,3) and barbell(4,4) rewired within 10 iterations, non-worsening")


def test_criterion_13_cli_contract(tmp_path):
    def verify_bytes(threads):
        proc = subprocess.run(
            [
                sys.executable, "-m", "orckit.cli",
                "verify", "--suite", "all", "--trials", "200", "--seed", "1",
                "--threads", str(threads),
            ],
            capture_output=True,
            timeout=500,
        )
        return proc.returncode, proc.stdout

    code_a, bytes_a = verify_bytes(1)
    assert code_a == 0
    code_b, bytes_b = verify_bytes(1)
    code_c, bytes_c = verify_bytes(4)
    assert code_b == 0 and code_c == 0
    assert bytes_a == bytes_b, "same flags must reproduce identical bytes"
    assert bytes_a == bytes_c, "thread count must not change report bytes"
    assert hashlib.sha256(bytes_a).hexdigest() == VERIFY_GOLDEN_SHA256
    summary = json.loads(bytes_a)["summary"]
    assert summary["violations"] == 0

    bad = tmp_path / "corrupt.txt"
    bad.write_text("0 1\n1 oops\n")
    proc = subprocess.run(
        [sys.executable, "-m", "orckit.cli", "curvature", str(bad)],
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 2

    report(
        "13",
        f"verify exits 0 with {summary['total']} checks, byte-identical across runs, "
        "thread counts and the golden hash; corrupt input exits 2",
    )

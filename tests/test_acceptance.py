"""End-to-end verdicts for the package's nine headline guarantees.

Each test checks one guarantee, registers a single PASS/FAIL line with the
terminal-summary reporter (see conftest), and pins its tolerance inline.
The rotated-benchmark test also emits its full per-cell accuracy table.
"""

import itertools
import json
import time

import numpy as np

from fedalign.aggregation import (
    AlignConfig,
    ClientUpdate,
    aggregate_aligned,
    aggregate_fedavg,
    align_pair,
)
from fedalign.cli import main
from fedalign.domains import SyntheticSpec, default_benchmark_spec, generate
from fedalign.federation import FedConfig, run_experiment
from fedalign.hekit import (
    ALLOWED_TAGS,
    aligned_aggregate_encrypted,
    dec_vec,
    enc_vec,
    transparent_cipher,
)
from fedalign.models import ModelSpec, loss_and_grad
from fedalign.sweep import SweepSpec, run_sweep
from _oracles import fd_gradient, max_rel_error, random_case


def updates(grads):
    return [ClientUpdate(f"c{i}", np.asarray(g, dtype=np.float64), 1, 0.0) for i, g in enumerate(grads)]


def test_1_gradients_match_finite_differences(acceptance_report):
    rng = np.random.default_rng(2024)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        params, x, y = random_case(rng)
        _, grad = loss_and_grad(params, x, y)
        numeric = fd_gradient(params, x, y, h=1e-6)
        worst = max(worst, max_rel_error(grad, numeric))
    elapsed = time.time() - t0
    acceptance_report(
        1,
        "analytic gradients vs central differences",
        worst < 1e-5 and elapsed < 10.0,
        f"max rel error {worst:.2e} over 100 draws in {elapsed:.1f}s",
    )


def test_2_pair_alignment_algebra(acceptance_report):
    rng = np.random.default_rng(7)
    worst_form = 0.0
    worst_dist = 0.0
    improvements_ok = True
    for lam in (0.05, 0.1, 0.25, 0.5):
        for _ in range(200):
            dim = int(rng.integers(1, 7))
            g_i = rng.uniform(-10, 10, size=dim)
            g_j = rng.uniform(-10, 10, size=dim)
            out = align_pair(g_i, g_j, lam)

            closed = (1.0 - 2.0 * lam) * g_i + 2.0 * lam * g_j
            worst_form = max(worst_form, float(np.max(np.abs(out - closed))))

            # One step toward g_j contracts the gap by exactly |1 - 2*lam|.
            lhs = float(np.linalg.norm(out - g_j))
            rhs = abs(1.0 - 2.0 * lam) * float(np.linalg.norm(g_i - g_j))
            denom = max(rhs, 1e-30)
            worst_dist = max(worst_dist, abs(lhs - rhs) / denom)

            ip_before = float(g_i @ g_j)
            if ip_before < 0.0 and np.any(g_j != 0):
                improvements_ok &= float(out @ g_j) > ip_before
    acceptance_report(
        2,
        "pairwise alignment closed form and contraction",
        worst_form <= 1e-12 and worst_dist <= 1e-12 and improvements_ok,
        f"closed-form err {worst_form:.1e}, distance-identity rel err {worst_dist:.1e}, "
        f"conflict inner products strictly improve",
    )


def _bruteforce_align(grads, lam):
    """Independent transcription of the alignment loop in plain Python:
    fixed visiting order, working-copy accumulation, conflict test against
    original gradients, uniform averaging.  No library helpers."""
    k = len(grads)
    originals = [[float(v) for v in g] for g in grads]
    working = [list(g) for g in originals]
    a = 1.0 - 2.0 * lam
    b = 2.0 * lam
    for i in range(k):
        for j in range(k):
            if j == i:
                continue
            ip = 0.0
            for c in range(len(working[i])):
                ip += working[i][c] * originals[j][c]
            if ip < 0.0:
                working[i] = [
                    a * working[i][c] + b * originals[j][c] for c in range(len(working[i]))
                ]
    w = 1.0 / k
    agg = [w * v for v in working[0]]
    for t in range(1, k):
        agg = [acc + w * v for acc, v in zip(agg, working[t])]
    return working, agg


def test_3_pair_loop_matches_bruteforce(acceptance_report):
    grid = [
        (-1.0, -1.0),
        (-1.0, 1.0),
        (1.0, -1.0),
        (1.0, 1.0),
        (0.0, 0.0),
        (2.0, -1.0),
    ]
    sets = 0
    exact = True
    for lam in (0.1, 0.3):
        for k in range(1, 5):
            for combo in itertools.combinations_with_replacement(grid, k):
                rep = aggregate_aligned(
                    updates(combo), AlignConfig(lam=lam, order_mode="fixed")
                )
                ref_working, ref_agg = _bruteforce_align(combo, lam)
                exact &= np.array_equal(rep.aggregated, np.array(ref_agg))
                for lib, ref in zip(rep.aligned, ref_working):
                    exact &= np.array_equal(lib, np.array(ref))
                sets += 1
    acceptance_report(
        3,
        "alignment loop vs independent brute force",
        exact,
        f"bit-for-bit over {sets} update sets (K<=4, 2-D grid, two step sizes)",
    )


def test_4_no_conflict_transparency(acceptance_report):
    rng = np.random.default_rng(11)
    ok = True
    for trial in range(20):
        k = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 6))
        # Positive-orthant gradients: every pairwise inner product >= 0.
        grads = [rng.uniform(0.0, 3.0, size=dim) for _ in range(k)]
        al = aggregate_aligned(updates(grads), AlignConfig(lam=0.25, order_seed=trial))
        fa = aggregate_fedavg(updates(grads), weighting="uniform")
        ok &= al.num_conflicts == 0
        ok &= np.array_equal(al.aggregated, fa.aggregated)
        ok &= al.variance_after == al.variance_before
    # Orthogonal pair: inner product exactly zero must not trigger alignment.
    ortho = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    al = aggregate_aligned(updates(ortho), AlignConfig(lam=0.5))
    ok &= al.num_conflicts == 0 and np.array_equal(
        al.aggregated, aggregate_fedavg(updates(ortho), weighting="uniform").aggregated
    )
    acceptance_report(
        4,
        "conflict-free aggregation is plain averaging",
        ok,
        "bit-for-bit equality and unchanged variance over 21 conflict-free sets",
    )


def test_5_single_client_strategy_equivalence(acceptance_report):
    suite = generate(
        SyntheticSpec(num_domains=2, rotation_degrees=(0.0, 30.0), samples_per_domain=60, seed=3)
    )
    model = ModelSpec(input_dim=2, hidden_dim=4, num_classes=2, activation="relu")
    digests = {}
    trajectories = {}
    for strategy in ("fedavg", "fedprox", "aligned", "deepall"):
        cfg = FedConfig(strategy=strategy, rounds=6, batch_size=8, lr=0.1, seed=2)
        res = run_experiment(suite, "dom1", model, cfg)
        digests[strategy] = res.params_digest()
        trajectories[strategy] = res.csv_rows()
    ok = len(set(digests.values())) == 1
    ref = trajectories["fedavg"]
    ok &= all(trajectories[s] == ref for s in trajectories)
    acceptance_report(
        5,
        "single-client, single-local-step strategies coincide",
        ok,
        f"fedavg = fedprox = aligned = deepall, digest {digests['fedavg'][:12]}…",
    )


def test_6_encrypted_pipeline_fidelity(acceptance_report):
    rng = np.random.default_rng(5)
    worst = 0.0
    tags_ok = True
    for trial in range(50):
        k = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 11))
        grads = [rng.normal(size=dim) for _ in range(k)]
        rep = aggregate_aligned(updates(grads), AlignConfig(lam=0.1, order_seed=trial))

        cipher = transparent_cipher()
        enc = [enc_vec(cipher, g) for g in grads]
        index_of = {cid: i for i, cid in enumerate(rep.client_ids)}
        conflicts = [(index_of[a], index_of[b]) for a, b, _ in rep.conflict_pairs]
        handles, audit = aligned_aggregate_encrypted(
            enc, 0.1, rep.order_used, cipher, conflicts, weights=list(rep.weights)
        )
        got = dec_vec(cipher, handles)
        worst = max(worst, float(np.max(np.abs(got - rep.aggregated))))
        tags_ok &= set(audit.tag_counts) <= ALLOWED_TAGS
    acceptance_report(
        6,
        "encrypted aggregation matches plaintext",
        worst <= 1e-6 and tags_ok,
        f"max coordinate error {worst:.2e} over 50 cases; "
        f"traces contain only ENC/ADD/SUB/MUL",
    )


def test_7_rotated_benchmark_generalization(acceptance_report, acceptance_table):
    t0 = time.time()
    suite = generate(default_benchmark_spec())
    model = ModelSpec(input_dim=2, hidden_dim=8, num_classes=2, activation="relu")
    spec = SweepSpec(
        strategies=("fedavg", "aligned"),
        seeds=tuple(range(10)),
        targets=suite.domain_ids,
    )
    result = run_sweep(suite, model, {}, spec)
    elapsed = time.time() - t0

    table = ["strategy,target,seed,final_target_accuracy,conflict_round_fraction"]
    for c in result.cells:
        table.append(
            f"{c.strategy},{c.target},{c.seed},"
            f"{c.final_target_accuracy:.4f},{c.conflict_round_fraction:.3f}"
        )
    for row in result.aggregate_rows():
        cells = ",".join(f"{row[t]:.4f}" for t in spec.targets)
        table.append(f"mean {row['strategy']}: {cells} -> average {row['average']:.4f}")
    acceptance_table(table)

    aligned_mean = result.mean_accuracy("aligned")
    fedavg_mean = result.mean_accuracy("fedavg")
    aligned_cells = [c for c in result.cells if c.strategy == "aligned" and c.error is None]
    conflict_fraction = float(np.mean([c.conflict_round_fraction for c in aligned_cells]))
    var_before = float(np.mean([c.mean_variance_before for c in aligned_cells]))
    var_after = float(np.mean([c.mean_variance_after for c in aligned_cells]))

    ok = (
        len(aligned_cells) == 40
        and aligned_mean >= fedavg_mean
        and conflict_fraction > 0.10
        and var_after <= var_before
        and elapsed < 300.0
    )
    acceptance_report(
        7,
        "rotated-domain generalization benchmark",
        ok,
        f"aligned {aligned_mean:.4f} >= fedavg {fedavg_mean:.4f} over 4 targets x 10 seeds; "
        f"conflicts in {conflict_fraction:.0%} of rounds; domain variance "
        f"{var_before:.3f} -> {var_after:.3f} on conflicting rounds; {elapsed:.0f}s",
    )


def test_8_manifest_replay_determinism(acceptance_report, tmp_path):
    config = {
        "target": "dom2",
        "model": {"hidden_dim": 4},
        "data": {
            "synthetic": {
                "num_domains": 3,
                "samples_per_domain": 40,
                "rotation_degrees": [0.0, 20.0, 40.0],
                "seed": 1,
            }
        },
        "federation": {"strategy": "aligned", "rounds": 30, "batch_size": 4, "lr": 0.2,
                       "lr_decay": None, "seed": 5},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    first, second = tmp_path / "a", tmp_path / "b"
    rc1 = main(["run", "--config", str(cfg_path), "--out", str(first), "--quiet"])
    rc2 = main(["run", "--config", str(first / "manifest.json"), "--out", str(second), "--quiet"])
    same_summary = (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()
    same_rounds = (first / "rounds.csv").read_bytes() == (second / "rounds.csv").read_bytes()
    digest = json.loads((first / "summary.json").read_text())["final_params_sha256"]
    acceptance_report(
        8,
        "manifest replay reproduces outputs",
        rc1 == 0 and rc2 == 0 and same_summary and same_rounds,
        f"summary.json and rounds.csv byte-identical; params sha256 {digest[:12]}…",
    )


def test_9_shipped_defaults_snapshot(acceptance_report):
    snapshot = {
        "strategy": "aligned",
        "rounds": 600,
        "local_steps": 1,
        "batch_size": 2,
        "lr": 0.2,
        "lr_decay": {"every_n_rounds": 400, "factor": 10.0},
        "lambda": 0.1,
        "mu": None,
        "weighting": None,
        "seed": 0,
        "encrypt": False,
        "scale": 16777216,
        "accumulate": True,
        "align_target": "original",
        "order_mode": "random",
    }
    d = FedConfig().to_dict()
    ok = d == snapshot and d["lambda"] == 0.1 and d["local_steps"] == 1
    ok &= FedConfig(strategy="aligned").lam == 0.1
    ok &= FedConfig(strategy="fedprox").mu == 0.01
    acceptance_report(
        9,
        "shipped defaults snapshot",
        bool(ok),
        "step-size lambda = 0.1, local_steps = 1 (plus full config snapshot)",
    )

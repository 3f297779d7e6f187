"""Reduced-size self-test of the benchmark: ``python3 -m pytest bench -q``.

Runs every workload for a few rounds through ``run.py`` and checks that
every metric named in ``BENCHMARK.json`` prints with its unit, then feeds
corrupted results to the output checks and expects each to count as a
failure.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL_ROUNDS = 3


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_prints_with_unit(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
        "--rounds", str(SMALL_ROUNDS),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    text = "\n".join(lines[:-1])
    for name, unit in [*units.items(), ("error_rate", "fraction")]:
        assert any(name in line.split() and unit in line.split() for line in text.splitlines()), name
    assert "final_params_sha256" in text and "environment" in text


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "encrypted", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _rep(*digests: str) -> workloads.Rep:
    return workloads.Rep(wall_s=1.0, runs=[workloads.Run(label=f"r{i}", digest=d) for i, d in enumerate(digests)])


def test_flipped_digest_counts_as_failure():
    assert workloads.tally([_rep("a", "b"), _rep("a", "b")])[:2] == (4, 0)
    assert workloads.tally([_rep("a", "b"), _rep("a", "c")])[:2] == (4, 1)
    assert workloads.tally([_rep("a", None)])[:2] == (2, 1)


@pytest.fixture(scope="module")
def encrypted_result():
    inp = workloads.build("encrypted", seed=2, rounds=SMALL_ROUNDS)
    return workloads.run_experiment(inp.suite, inp.target, inp.model, inp.configs["aligned"])


def _with_record(result, index, **changes):
    records = list(result.records)
    records[index] = dataclasses.replace(records[index], **changes)
    return dataclasses.replace(result, records=tuple(records))


def test_clean_encrypted_run_passes(encrypted_result):
    run_ = workloads.run_from_result("enc", encrypted_result, SMALL_ROUNDS)
    assert run_.problems == [] and run_.cipher_ops > 0


def test_out_of_bound_decrypt_counts_as_failure(encrypted_result):
    agg = encrypted_result.records[1].aggregation
    shifted = agg.aggregated.copy()
    shifted[0] += 10 * checks.ENCRYPT_TOLERANCE
    bad = _with_record(encrypted_result, 1, aggregation=dataclasses.replace(agg, aggregated=shifted))
    run_ = workloads.run_from_result("enc", bad, SMALL_ROUNDS)
    assert any("decrypted aggregate" in p for p in run_.problems)
    assert workloads.tally([workloads.Rep(wall_s=1.0, runs=[run_])])[:2] == (1, 1)


def test_foreign_trace_tag_counts_as_failure(encrypted_result):
    audit = dict(encrypted_result.records[0].trace_audit)
    audit["tag_counts"] = {**audit["tag_counts"], "DEC": 1}
    bad = _with_record(encrypted_result, 0, trace_audit=audit)
    assert any("trace tags" in p for p in workloads.run_from_result("enc", bad, SMALL_ROUNDS).problems)


def test_wrong_round_count_and_nan_loss_count_as_failure(encrypted_result):
    assert checks.check_result(encrypted_result, SMALL_ROUNDS + 1)
    record = encrypted_result.records[0]
    nan_metrics = dataclasses.replace(record.target_metrics, loss=float(np.nan))
    assert checks.check_result(_with_record(encrypted_result, 0, target_metrics=nan_metrics), SMALL_ROUNDS)


def test_cli_failure_counts_every_cell(tmp_path):
    inp = workloads.build("lodo-grid", seed=1, rounds=SMALL_ROUNDS)
    inp.sweep_doc["federation"]["lr"] = -1.0  # a config error: the CLI exits 2
    rep = workloads.run_rep(inp, str(tmp_path))
    assert all(any("cli exit 2" in p for p in r.problems) for r in rep.runs)
    assert workloads.tally([rep])[:2] == (8, 8)

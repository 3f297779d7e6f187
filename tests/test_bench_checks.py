"""The benchmark's output checks against the records the package writes.

``bench/checks.py`` reads an ``ExperimentResult``'s records by field name,
and the benchmark's self-test edits a record and a result with
``dataclasses.replace``.  These tests import the checks from the
checkout's ``bench`` directory, so a refactor of ``RoundRecord`` or
``ExperimentResult`` that the benchmark can no longer read fails here too.
"""

import dataclasses
import math
import pathlib

import pytest

from fedalign.domains import SyntheticSpec, generate
from fedalign.federation import FedConfig, run_experiment
from fedalign.models import ModelSpec

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
ROUNDS = 3


@pytest.fixture
def checks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks

    return checks


@pytest.mark.parametrize("encrypt", [False, True], ids=["plaintext", "encrypted"])
def test_a_short_run_passes_the_benchmark_checks(checks, encrypt):
    suite = generate(SyntheticSpec(num_domains=3, rotation_degrees=(0.0, 20.0, 40.0), samples_per_domain=30))
    cfg = FedConfig(strategy="aligned", rounds=ROUNDS, batch_size=2, encrypt=encrypt)
    result = run_experiment(suite, "dom2", ModelSpec(input_dim=2, hidden_dim=4), cfg)
    summary = checks.summarize(result, ROUNDS)
    assert summary["problems"] == []
    assert summary["rounds"] == ROUNDS and summary["digest"] == result.params_digest()
    assert summary["accuracy"] == result.final_target_accuracy
    assert summary["records_bytes"] > 0 and (summary["cipher_ops"] > 0) is encrypt

    # The edits the benchmark's self-test makes to a record and a result.
    record = result.records[0]
    nan_loss = dataclasses.replace(record.target_metrics, loss=math.nan)
    bad = dataclasses.replace(result, records=(dataclasses.replace(record, target_metrics=nan_loss), *result.records[1:]))
    assert checks.check_result(bad, ROUNDS) == ["non-finite loss"]

"""Output checks on an ``ExperimentResult``; every problem found counts the
run as failed."""

from __future__ import annotations

import math

import numpy as np

# Criterion 6: a decrypted aggregate is within 1e-6 per coordinate of the
# plaintext weighted sum of the aligned gradients.
ENCRYPT_TOLERANCE = 1e-6
ALLOWED_TAGS = frozenset({"ENC", "ADD", "SUB", "MUL"})


def check_result(result, rounds: int) -> list[str]:
    """Round count, finite losses and accuracies in [0, 1]."""
    problems = []
    if len(result.records) != rounds:
        problems.append(f"{len(result.records)} rounds, expected {rounds}")
    losses = [result.final_target.loss]
    accuracies = [result.final_target.accuracy]
    for r in result.records:
        losses.append(r.target_metrics.loss)
        losses.extend(c["local_loss"] for c in r.per_client)
        accuracies.append(r.target_metrics.accuracy)
    if not all(math.isfinite(v) for v in losses):
        problems.append("non-finite loss")
    if not all(0.0 <= a <= 1.0 for a in accuracies):
        problems.append("accuracy outside [0, 1]")
    return problems


def check_encrypted(records) -> list[str]:
    """Each round's decrypted aggregate against a plaintext weighted sum of
    the aligned gradients, and each trace audit against {ENC, ADD, SUB, MUL}."""
    problems = []
    for r in records:
        agg = r.aggregation
        expected = agg.weights[0] * agg.aligned[0]
        for w, g in zip(agg.weights[1:], agg.aligned[1:]):
            expected = expected + w * g
        err = float(np.max(np.abs(agg.aggregated - expected)))
        if not err <= ENCRYPT_TOLERANCE:
            problems.append(f"round {r.round}: decrypted aggregate off by {err:.3g}")
        audit = r.trace_audit
        if audit is None:
            problems.append(f"round {r.round}: no trace audit")
        elif not set(audit["tag_counts"]) <= ALLOWED_TAGS:
            problems.append(f"round {r.round}: trace tags {sorted(audit['tag_counts'])}")
    return problems


def records_bytes(result) -> int:
    """Bytes of the per-round gradient vectors a result retains."""
    return sum(
        r.aggregation.aggregated.nbytes + sum(g.nbytes for g in r.aggregation.aligned)
        for r in result.records
    )


def summarize(result, rounds: int) -> dict:
    """Digest, checks and retained-record size of one finished run."""
    problems = check_result(result, rounds)
    cipher_ops = 0
    if result.config.encrypt:
        problems += check_encrypted(result.records)
        cipher_ops = sum(r.trace_audit["total_tags"] for r in result.records if r.trace_audit)
    return {
        "digest": result.params_digest(),
        "accuracy": result.final_target_accuracy,
        "rounds": len(result.records),
        "problems": problems,
        "records_bytes": records_bytes(result),
        "cipher_ops": cipher_ops,
    }

"""fedalign benchmark: one workload, end-to-end or per-layer figures.

    python3 bench/run.py --workload lodo-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; fedalign is imported from its ``src``.
Workloads (see ``workloads.py``): ``lodo-grid``, ``many-clients``,
``encrypted``.  Each run times the set-up in fresh processes, before and
after it runs the workload in one more fresh process for ``--seconds``.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``rounds_per_s``,
``peak_rss_mb`` and ``target_accuracy``; ``error_rate`` is printed as a
line and carried by the result's ``attempted`` and ``failed``.
``--trace 1`` prints the per-layer metrics of a traced run instead.
``setup_s`` and ``rounds_per_s`` are scaled to a nominal host speed by a
reference pass timed next to them (see ``worker.py``).
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with the
environment and every run's ``final_params_sha256``, is written to
``.bench_out/``.  ``--rounds`` shrinks every run for a quick check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("lodo-grid", "many-clients", "encrypted")

# Set-up probes: half before the measured run, after one discarded warm-up
# probe, and half after it, so that they sample the host at two times.
SETUP_PROBES = 8
TIME_LIMIT_S = 170  # a run that is not done by then is killed and fails

END_TO_END_UNITS = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "target_accuracy": "fraction",
}

PER_LAYER_UNITS = {
    "numcore.shuffle.calls": "count",
    "numcore.shuffle.ms": "ms",
    "numcore.shuffle.draws": "count",
    "numcore.rng_init.calls": "count",
    "numcore.rng_init.ms": "ms",
    "domains.minibatch.calls": "count",
    "domains.minibatch.ms": "ms",
    "domains.minibatch.useful_ratio": "fraction",
    "models.loss_and_grad.calls": "count",
    "models.loss_and_grad.ms": "ms",
    "models.sgd_step.ms": "ms",
    "models.evaluate.calls": "count",
    "models.evaluate.ms": "ms",
    "models.evaluate.rows": "count",
    "aggregation.aggregate_aligned.ms.p50": "ms",
    "aggregation.aggregate_aligned.ms.p99": "ms",
    "aggregation.aggregate_fedavg.ms.p50": "ms",
    "aggregation.aggregate_fedavg.ms.p99": "ms",
    "aggregation.domain_variance.ms": "ms",
    "aggregation.bytes_in": "bytes",
    "aggregation.pairs_tested": "count",
    "aggregation.conflicts": "count",
    "aggregation.conflict_ratio": "fraction",
    "hekit.enc_vec.ms": "ms",
    "hekit.aligned_aggregate_encrypted.ms": "ms",
    "hekit.weighted_sum_encrypted.ms": "ms",
    "hekit.audit_trace.ms": "ms",
    "hekit.dec_vec.ms": "ms",
    "hekit.cipher_ops": "count",
    "federation.run_round.calls": "count",
    "federation.run_round.ms.p50": "ms",
    "federation.run_round.ms.p99": "ms",
    "federation.client_local_step.ms": "ms",
    "federation.records_mb": "MB",
    "sweep.cell_s.p50": "s",
    "sweep.cell_s.max": "s",
    "sweep.pool_busy_fraction": "fraction",
    "cli.self_ms": "ms",
    "cli.bytes_written": "bytes",
    "numcore.self_ms": "ms",
    "domains.self_ms": "ms",
    "models.self_ms": "ms",
    "aggregation.self_ms": "ms",
    "hekit.self_ms": "ms",
    "federation.self_ms": "ms",
    "numcore.round_share": "fraction",
    "domains.round_share": "fraction",
    "models.round_share": "fraction",
    "aggregation.round_share": "fraction",
    "hekit.round_share": "fraction",
    "federation.round_share": "fraction",
    "trace.untraced_rounds_per_s": "1/s",
    "trace.traced_rounds_per_s": "1/s",
    "trace.overhead": "fraction",
}


class BenchError(Exception):
    pass


def _worker(mode: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload, "--seed", str(args.seed)]
    if mode == "measure":
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.rounds is not None:
        cmd += ["--rounds", str(args.rounds)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(deadline - time.monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker still running at the {TIME_LIMIT_S} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run(args) -> dict:
    if not (ROOT / "src" / "fedalign" / "__init__.py").is_file():
        raise BenchError(f"no fedalign sources under {ROOT / 'src'}")
    deadline = time.monotonic() + TIME_LIMIT_S
    probes = [_worker("setup", args, deadline) for _ in range(SETUP_PROBES // 2 + 1)][1:]
    res = _worker("measure", args, deadline)
    probes += [_worker("setup", args, deadline) for _ in range(SETUP_PROBES // 2)]
    res["setup_s"] = statistics.median(p["setup_s"] for p in probes)
    res["setup_samples"] = probes
    res["workload"], res["seed"], res["trace"] = args.workload, args.seed, args.trace
    if args.trace:
        res["metrics"] = _metrics(res["per_layer"], PER_LAYER_UNITS)
    else:
        res["metrics"] = _metrics(res, END_TO_END_UNITS)
    return res


def report(res: dict) -> None:
    """Human-readable lines before the final JSON line."""
    print(
        f"workload {res['workload']} seed {res['seed']}: {res['repetitions']} untraced repetition(s) of "
        f"{res['runs_per_repetition']} run(s), {res['rounds_per_repetition']} rounds each"
    )
    if not res["trace"]:
        notes = {
            "setup_s": f"median of {len(res['setup_samples'])} set-ups, at nominal host speed",
            "rounds_per_s": f"median of {res['repetitions']} repetitions, at nominal host speed",
            "peak_rss_mb": "workload process plus largest child",
            "target_accuracy": f"mean final held-out accuracy of {res['runs_per_repetition']} run(s)",
        }
    else:
        notes = {}
        print(f"traced repetitions: {res['traced_repetitions']}; spans in {res['spans_file']}")
    for name, m in res["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<8} {notes.get(name, '')}")
    rate = res["failed"] / res["attempted"]
    print(f"  {'error_rate':<40} {rate:>14.6g} {'fraction':<8} {res['failed']} failed of {res['attempted']} runs")
    for problem in res["problems"]:
        print(f"  problem: {problem}")
    print(f"environment: {json.dumps(res['environment'])}")
    print(f"final_params_sha256: {json.dumps(res['digests'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None, help="rounds per run (default: the workload's own)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        res = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
    report(res)
    final = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

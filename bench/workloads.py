"""The three benchmark workloads: inputs made from a seed, one timed
repetition, and the checks on each repetition's outputs.

* ``lodo-grid`` — the CLI ``sweep`` (``fedalign.cli.main``) over the
  paper's leave-one-domain-out grid: aligned and fedavg x dom0..dom3 x one
  seed on the 4-domain rotated-moons suite (n=500, hidden 8, P=42,
  batch 2), ``--jobs 2``.
* ``many-clients`` — ``run_experiment`` on a 33-domain suite (target
  dom32, K=32 clients, n=50, hidden 400, P=2002, batch 10), aligned then
  fedavg.
* ``encrypted`` — ``run_experiment`` with ``encrypt=True``, aligned, on
  the default 4-domain suite with hidden 128 (P=642).

The seed makes both the suite and the federation seed, so the same seed
gives the same inputs and the same ``final_params_sha256`` on every
repetition.  Every workload runs the shipped schedule shortened to
``rounds``: lr 0.2, divided by 10 after two thirds of the rounds.

This module imports ``fedalign``; the caller puts the checkout's ``src``
on ``sys.path`` first.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import fedalign
import fedalign.cli
from fedalign import FedConfig, ModelSpec, SweepSpec, SyntheticSpec, generate, run_experiment

import checks
import instrument

NAMES = ("lodo-grid", "many-clients", "encrypted")

# Rounds per run, sized so one repetition takes one to two seconds on a
# 2-core host and a 30 s run holds 15 to 25 repetitions.
ROUNDS = {"lodo-grid": 40, "many-clients": 20, "encrypted": 30}

SWEEP_JOBS = 2
LODO_STRATEGIES = ("aligned", "fedavg")
LODO_TARGETS = ("dom0", "dom1", "dom2", "dom3")
MANY_CLIENTS_DOMAINS = 33
MANY_CLIENTS_STRATEGIES = ("aligned", "fedavg")


@dataclass
class Run:
    """One experiment's outcome: a sweep cell or one ``run_experiment``."""

    label: str
    digest: str | None = None
    accuracy: float | None = None
    rounds: int = 0
    problems: list[str] = field(default_factory=list)
    records_bytes: int = 0
    cipher_ops: int = 0


@dataclass
class Rep:
    """One repetition of a workload: its wall time and its runs."""

    wall_s: float
    runs: list[Run]
    bytes_written: int = 0
    slowdown: float = 1.0  # host speed factor while it ran (see worker.py)

    @property
    def rounds(self) -> int:
        return sum(r.rounds for r in self.runs)


@dataclass
class Inputs:
    name: str
    seed: int
    rounds: int
    suite: object
    model: ModelSpec
    configs: dict
    target: str
    sweep_doc: dict | None = None


def _schedule(rounds: int) -> dict:
    return {"rounds": rounds, "lr_decay": {"every_n_rounds": max(1, (2 * rounds) // 3), "factor": 10.0}}


def build(name: str, seed: int, rounds: int | None = None) -> Inputs:
    """Everything a workload needs before its first round: the suite, the
    model and the federation configs (the set-up that ``setup_s`` times)."""
    rounds = ROUNDS[name] if rounds is None else rounds
    schedule = _schedule(rounds)
    if name == "lodo-grid":
        data = {
            "family": "rotated_two_moons",
            "num_domains": 4,
            "samples_per_domain": 500,
            "rotation_degrees": [0.0, 15.0, 30.0, 45.0],
            "noise_sigma": 0.3,
            "seed": seed,
        }
        doc = {
            "sweep": {"strategies": list(LODO_STRATEGIES), "seeds": [seed], "targets": list(LODO_TARGETS)},
            "model": {"hidden_dim": 8},
            "data": {"synthetic": data},
            "federation": schedule,
        }
        suite = generate(SyntheticSpec(**data))
        model = ModelSpec(input_dim=suite.num_features, hidden_dim=8, num_classes=suite.num_classes)
        spec = SweepSpec.from_dict(doc["sweep"])
        configs = {s: FedConfig.from_dict({**schedule, "strategy": s, "seed": seed}) for s in spec.strategies}
        return Inputs(name, seed, rounds, suite, model, configs, target="", sweep_doc=doc)
    if name == "many-clients":
        k = MANY_CLIENTS_DOMAINS
        spec = SyntheticSpec(
            num_domains=k,
            samples_per_domain=50,
            rotation_degrees=tuple(90.0 * d / (k - 1) for d in range(k)),
            seed=seed,
        )
        suite = generate(spec)
        model = ModelSpec(input_dim=suite.num_features, hidden_dim=400, num_classes=suite.num_classes)
        configs = {
            s: FedConfig.from_dict({**schedule, "strategy": s, "seed": seed, "batch_size": 10})
            for s in MANY_CLIENTS_STRATEGIES
        }
        return Inputs(name, seed, rounds, suite, model, configs, target=f"dom{k - 1}")
    if name == "encrypted":
        suite = generate(fedalign.default_benchmark_spec(seed=seed))
        model = ModelSpec(input_dim=suite.num_features, hidden_dim=128, num_classes=suite.num_classes)
        cfg = FedConfig.from_dict({**schedule, "strategy": "aligned", "seed": seed, "encrypt": True})
        return Inputs(name, seed, rounds, suite, model, {"aligned": cfg}, target="dom3")
    raise ValueError(f"unknown workload {name!r}")


def run_from_result(label: str, result, rounds: int) -> Run:
    return Run(label=label, **checks.summarize(result, rounds))


def tally(reps: list[Rep]) -> tuple[int, int, dict]:
    """(attempted, failed, digests): one operation per run per repetition.
    A run fails on any output problem, or when its digest differs from the
    first repetition's digest for the same run."""
    first: dict[str, str | None] = {}
    attempted = failed = 0
    for rep in reps:
        for run in rep.runs:
            attempted += 1
            first.setdefault(run.label, run.digest)
            if run.problems or run.digest is None or run.digest != first[run.label]:
                failed += 1
    return attempted, failed, first


# ------------------------------------------------------------ repetitions


def _lodo_rep(inp: Inputs, workdir: str, tracer) -> Rep:
    outdir = tempfile.mkdtemp(prefix="sweep-", dir=workdir)
    spec_path = os.path.join(outdir, "grid.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(inp.sweep_doc, fh)
    argv = ["sweep", "--spec", spec_path, "--out", outdir, "--jobs", str(SWEEP_JOBS), "--quiet"]
    main = tracer.wrap("cli.main", fedalign.cli.main) if tracer else fedalign.cli.main
    cell_dir = instrument.begin_sweep(outdir)
    t0 = time.perf_counter()
    code = main(argv)
    wall = time.perf_counter() - t0
    cells = instrument.collect_cells(cell_dir)
    if tracer:
        tracer.add_cells(cells)

    rows = {}
    results_path = os.path.join(outdir, "results.csv")
    if os.path.exists(results_path):
        with open(results_path, newline="", encoding="utf-8") as fh:
            rows = {f"{r['strategy']}/{r['target']}/seed{r['seed']}": r for r in csv.DictReader(fh)}
    os.remove(spec_path)
    written = sum(os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir))
    shutil.rmtree(outdir)

    runs = []
    for strategy in LODO_STRATEGIES:
        for target in LODO_TARGETS:
            label = f"{strategy}/{target}/seed{inp.seed}"
            cell = cells.get(label, {})
            run = Run(
                label=label,
                digest=cell.get("digest"),
                rounds=cell.get("rounds", 0),
                problems=list(cell.get("problems", ["no result captured"])),
                records_bytes=cell.get("records_bytes", 0),
            )
            if code != 0:
                run.problems.append(f"cli exit {code}")
            row = rows.get(label)
            if row is None:
                run.problems.append("missing from results.csv")
            elif row["error"]:
                run.problems.append(f"cell error: {row['error']}")
            else:
                run.accuracy = float(row["final_target_accuracy"])
                if not 0.0 <= run.accuracy <= 1.0 or not math.isfinite(float(row["final_target_loss"])):
                    run.problems.append("results.csv accuracy or loss out of range")
            runs.append(run)
    return Rep(wall_s=wall, runs=runs, bytes_written=written)


def _experiment_rep(inp: Inputs) -> Rep:
    wall = 0.0
    runs = []
    for strategy, cfg in inp.configs.items():
        label = f"{strategy}/{inp.target}/seed{inp.seed}"
        t0 = time.perf_counter()
        try:
            result = run_experiment(inp.suite, inp.target, inp.model, cfg)
        except Exception as exc:  # a failed run counts against error_rate
            wall += time.perf_counter() - t0
            runs.append(Run(label=label, problems=[f"{type(exc).__name__}: {exc}"]))
            continue
        wall += time.perf_counter() - t0
        runs.append(run_from_result(label, result, inp.rounds))
        del result  # hold one run's records at a time
    return Rep(wall_s=wall, runs=runs)


def run_rep(inp: Inputs, workdir: str, tracer=None) -> Rep:
    """One repetition, traced when ``tracer`` is given."""
    with instrument.installed(tracer):
        if inp.name == "lodo-grid":
            return _lodo_rep(inp, workdir, tracer)
        return _experiment_rep(inp)

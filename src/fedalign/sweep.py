"""Strategy x target x seed benchmark grids.

A sweep is the cross product of aggregation strategies, leave-one-out
target domains and seeds, each cell one full experiment.  Cells are
independent — every cell derives all of its randomness from its own seed —
so they may run in parallel; results are always reported in grid order
(strategy-major, then target, then seed) regardless of run order.  Cells
run seed by seed: a process memoizes the batch rows of one seed at a time
(``federation.client_rows``), and every cell at a seed draws the same rows.
A failing cell is recorded with its error message and does not stop the
rest of the grid.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .domains import DomainSuite
from .errors import ConfigError, from_json, is_int
from .federation import STRATEGIES, FedConfig, run_experiment
from .models import ModelSpec

__all__ = [
    "SweepSpec",
    "CellResult",
    "SweepResult",
    "RESULT_CSV_COLUMNS",
    "cell_config",
    "run_sweep",
]

RESULT_CSV_COLUMNS = (
    "strategy",
    "target",
    "seed",
    "final_target_accuracy",
    "final_target_loss",
    "conflict_round_fraction",
    "mean_variance_before",
    "mean_variance_after",
    "error",
)


@dataclass(frozen=True)
class SweepSpec:
    """The grid: which strategies, which held-out targets, which seeds,
    plus optional per-strategy config patches (e.g. a lambda override for
    the aligned row only)."""

    strategies: tuple[str, ...]
    seeds: tuple[int, ...]
    targets: tuple[str, ...]
    overrides: dict[str, dict] | None = None

    def __post_init__(self):
        object.__setattr__(self, "overrides", dict(self.overrides or {}))
        if len(self.strategies) == 0:
            raise ConfigError("sweep.strategies", "must be nonempty")
        if len(self.seeds) == 0:
            raise ConfigError("sweep.seeds", "must be nonempty")
        if len(self.targets) == 0:
            raise ConfigError("sweep.targets", "must be nonempty")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ConfigError("sweep.strategies", f"unknown strategy {s!r}")
        for seed in self.seeds:
            if not is_int(seed) or seed < 0:
                raise ConfigError("sweep.seeds", f"must be nonnegative integers, got {seed!r}")
        # A repeated entry would run its cells twice and count them twice
        # in every mean.
        for name in ("strategies", "seeds", "targets"):
            values = getattr(self, name)
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ConfigError(f"sweep.{name}", f"repeats {v!r}")
        for s, patch in self.overrides.items():
            if s not in self.strategies:
                raise ConfigError("sweep.overrides", f"override for strategy {s!r} not in the sweep")
            if not isinstance(patch, Mapping):
                raise ConfigError(f"sweep.overrides.{s}", "must be a JSON object")
            for key in ("strategy", "seed"):
                if key in patch:
                    raise ConfigError(f"sweep.overrides.{s}.{key}", "is set by the sweep grid")

    @classmethod
    def from_dict(cls, d: Mapping) -> "SweepSpec":
        return from_json(cls, d, "sweep")


@dataclass(frozen=True)
class CellResult:
    """Outcome of one grid cell; ``error`` is None on success."""

    strategy: str
    target: str
    seed: int
    final_target_accuracy: float | None
    final_target_loss: float | None
    conflict_round_fraction: float | None
    mean_variance_before: float | None
    mean_variance_after: float | None
    error: str | None = None

    def row(self) -> dict:
        return {
            "strategy": self.strategy,
            "target": self.target,
            "seed": self.seed,
            "final_target_accuracy": self.final_target_accuracy,
            "final_target_loss": self.final_target_loss,
            "conflict_round_fraction": self.conflict_round_fraction,
            "mean_variance_before": self.mean_variance_before,
            "mean_variance_after": self.mean_variance_after,
            "error": self.error or "",
        }


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    cells: tuple[CellResult, ...]

    def results_rows(self) -> list[dict]:
        """One dict per cell in grid order, keys RESULT_CSV_COLUMNS."""
        return [c.row() for c in self.cells]

    def mean_accuracy(self, strategy: str, target: str | None = None) -> float:
        """Mean final target accuracy over successful cells of a strategy,
        optionally restricted to one target; NaN when no cell qualifies."""
        vals = [
            c.final_target_accuracy
            for c in self.cells
            if c.strategy == strategy
            and c.error is None
            and (target is None or c.target == target)
        ]
        return float(np.mean(vals)) if vals else float("nan")

    def aggregate_rows(self) -> list[dict]:
        """One row per strategy: per-target mean accuracies plus the
        cross-target average (the comparison-table shape)."""
        rows = []
        for strat in self.spec.strategies:
            row: dict = {"strategy": strat}
            per_target = []
            for tgt in self.spec.targets:
                m = self.mean_accuracy(strat, tgt)
                row[tgt] = m
                per_target.append(m)
            row["average"] = float(np.mean(per_target)) if per_target else float("nan")
            rows.append(row)
        return rows

    def aggregate_columns(self) -> tuple[str, ...]:
        return ("strategy",) + tuple(self.spec.targets) + ("average",)

    def to_dict(self) -> dict:
        def denan(v):
            return None if isinstance(v, float) and v != v else v

        return {
            "strategies": list(self.spec.strategies),
            "targets": list(self.spec.targets),
            "seeds": list(self.spec.seeds),
            "cells": self.results_rows(),
            "aggregate": [{k: denan(v) for k, v in row.items()} for row in self.aggregate_rows()],
        }


def cell_config(base: Mapping, spec: SweepSpec, strategy: str, seed: int) -> FedConfig:
    """One cell's config; an error in a strategy's override names it as
    ``sweep.overrides.<strategy>.<field>``."""
    d = dict(base)
    # A strategy-specific field left over from the base config would be
    # rejected for other strategies, so drop and re-patch per cell.
    d.pop("lambda", None)
    d.pop("mu", None)
    d["strategy"] = strategy
    d["seed"] = seed
    patch = spec.overrides.get(strategy, {})
    try:
        return FedConfig.from_dict({**d, **patch})
    except ConfigError as exc:
        if exc.field.split(".")[0] in patch:
            raise ConfigError(f"sweep.overrides.{strategy}.{exc.field}", exc.message) from exc
        raise


def _run_cell(args) -> CellResult:
    suite, model, base, spec, strategy, target, seed = args
    try:
        cfg = cell_config(base, spec, strategy, seed)
        result = run_experiment(suite, target, model, cfg)
        vb, va = result.variance_means_on_conflict_rounds()
        return CellResult(
            strategy=strategy,
            target=target,
            seed=seed,
            final_target_accuracy=result.final_target_accuracy,
            final_target_loss=result.final_target.loss,
            conflict_round_fraction=result.conflict_round_fraction(),
            mean_variance_before=None if vb != vb else vb,
            mean_variance_after=None if va != va else va,
        )
    except Exception as exc:  # a broken cell must not sink the grid
        return CellResult(
            strategy=strategy,
            target=target,
            seed=seed,
            final_target_accuracy=None,
            final_target_loss=None,
            conflict_round_fraction=None,
            mean_variance_before=None,
            mean_variance_after=None,
            error=f"{type(exc).__name__}: {exc}",
        )


def run_sweep(
    suite: DomainSuite,
    model: ModelSpec,
    base_config: Mapping,
    spec: SweepSpec,
    jobs: int = 1,
    progress: Callable[[str], None] | None = None,
) -> SweepResult:
    """Run the full grid.  ``base_config`` is the shared federation config
    as a plain dict (strategy and seed are filled per cell).  ``jobs`` > 1
    runs cells in ``min(jobs, cells)`` worker processes (the pool starts
    every worker at once, so never more than there are cells).  Cells run
    seed by seed, in grid order within a seed, so each process's batch-row
    memo serves every cell at a seed it runs; ``progress`` lines come in
    that run order and results in grid order, with any ``jobs``.
    """
    grid = [
        (suite, model, dict(base_config), spec, strategy, target, seed)
        for strategy in spec.strategies
        for target in spec.targets
        for seed in spec.seeds
    ]
    run_order = sorted(range(len(grid)), key=lambda i: spec.seeds.index(grid[i][-1]))
    cells: list[CellResult | None] = [None] * len(grid)
    workers = min(jobs, len(grid))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        # _run_cell is looked up here, not bound at import, so a replacement
        # installed on the module is the one that runs.
        ran = (pool.map if workers > 1 else map)(_run_cell, [grid[i] for i in run_order])
        for done, (i, cell) in enumerate(zip(run_order, ran), 1):
            cells[i] = cell
            if progress is not None:
                status = "failed" if cell.error else f"acc={cell.final_target_accuracy:.4f}"
                progress(
                    f"[{done}/{len(grid)}] {cell.strategy} target={cell.target} "
                    f"seed={cell.seed} {status}"
                )
    return SweepResult(spec=spec, cells=tuple(cells))

"""Strategy x target x seed benchmark grids.

A sweep is the cross product of aggregation strategies, leave-one-out
target domains and seeds, each cell one full experiment.  Cells are
independent — every cell derives all of its randomness from its own seed —
so they may run in parallel; results are always reported in grid order
(strategy-major, then target, then seed) regardless of run order.  Cells
run seed by seed: a process memoizes the batch rows of one seed at a time
(``federation.client_rows``), and every cell at a seed draws the same rows.
Each strategy's config is built once, by :func:`strategy_configs`, before
the first cell runs, so a bad shared field or override raises
:class:`ConfigError` there, as the CLI's exit 2 reports it; a cell carries
its own :class:`FedConfig`.  A cell that fails at run time is recorded with
its error message and no figures, and does not stop the rest of the grid.
Each cell is one :class:`CellResult`, whose fields are the columns of
``results.csv``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .domains import DomainSuite
from .errors import ConfigError, as_tuple, from_json, is_int
from .federation import STRATEGIES, FedConfig, run_experiment
from .models import ModelSpec

__all__ = [
    "SweepSpec",
    "CellResult",
    "SweepResult",
    "RESULT_CSV_COLUMNS",
    "strategy_configs",
    "run_sweep",
]

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
        overrides = {} if self.overrides is None else self.overrides
        if not isinstance(overrides, Mapping):
            raise ConfigError("sweep.overrides", "must be a mapping of strategy to config patch")
        object.__setattr__(self, "overrides", dict(overrides))
        for name in ("strategies", "seeds", "targets"):
            values = as_tuple(getattr(self, name))
            if values is None:
                raise ConfigError(f"sweep.{name}", "must be a sequence")
            if not values:
                raise ConfigError(f"sweep.{name}", "must be nonempty")
            object.__setattr__(self, name, values)
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
    """Outcome of one grid cell, and the one list of a results row: its
    fields, in order, are ``RESULT_CSV_COLUMNS``.  A failed cell has only its
    ``error`` message, and None for every figure; ``error`` is None on
    success."""

    strategy: str
    target: str
    seed: int
    final_target_accuracy: float | None = None
    final_target_loss: float | None = None
    conflict_round_fraction: float | None = None
    mean_variance_before: float | None = None
    mean_variance_after: float | None = None
    error: str | None = None

    def row(self) -> dict:
        return {**vars(self), "error": self.error or ""}


RESULT_CSV_COLUMNS = tuple(f.name for f in fields(CellResult))


@dataclass(frozen=True)
class SweepResult:
    """The grid's cells, in grid order.  ``configs`` is each strategy's
    :class:`FedConfig` at the grid's first seed, as
    :func:`strategy_configs` built it for the run."""

    spec: SweepSpec
    cells: tuple[CellResult, ...]
    configs: dict[str, FedConfig] = field(compare=False)

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


def strategy_configs(base: Mapping, spec: SweepSpec) -> dict[str, FedConfig]:
    """Each strategy's config at the grid's first seed, built once: the
    shared ``base`` block with the strategy's override on top, and
    ``strategy`` and ``seed`` from the grid.  ``lambda`` and ``mu`` belong
    to one strategy, so the shared block may not set them; an error in a
    strategy's override names it as ``sweep.overrides.<strategy>.<field>``."""
    for key in ("lambda", "mu"):
        if key in base:
            raise ConfigError(
                f"federation.{key}", "belongs to one strategy; set it in sweep.overrides for that strategy"
            )
    configs = {}
    for strategy in spec.strategies:
        patch = spec.overrides.get(strategy, {})
        try:
            configs[strategy] = FedConfig.from_dict({**base, **patch, "strategy": strategy, "seed": spec.seeds[0]})
        except ConfigError as exc:
            if exc.field.split(".")[0] in patch:
                raise ConfigError(f"sweep.overrides.{strategy}.{exc.field}", exc.message) from exc
            raise
    return configs


def _run_cell(args) -> CellResult:
    suite, model, cfg, target = args
    try:
        summary = run_experiment(suite, target, model, cfg).summary()
        return CellResult(
            strategy=cfg.strategy,
            target=target,
            seed=cfg.seed,
            final_target_accuracy=summary["final_target_accuracy"],
            final_target_loss=summary["final_target_loss"],
            conflict_round_fraction=summary["conflict_round_fraction"],
            mean_variance_before=summary["mean_variance_before_on_conflict_rounds"],
            mean_variance_after=summary["mean_variance_after_on_conflict_rounds"],
        )
    except Exception as exc:  # a broken cell must not sink the grid
        return CellResult(cfg.strategy, target, cfg.seed, error=f"{type(exc).__name__}: {exc}")


def run_sweep(
    suite: DomainSuite,
    model: ModelSpec,
    base_config: Mapping,
    spec: SweepSpec,
    jobs: int = 1,
    progress: Callable[[str], None] | None = None,
) -> SweepResult:
    """Run the full grid.  ``base_config`` is the shared federation config
    as a plain dict; :func:`strategy_configs` builds each strategy's config
    from it once.  Before any cell runs, :class:`ConfigError` names a
    ``jobs`` that is not a positive integer, then a shared ``lambda`` or
    ``mu`` or a bad field, then a target the suite does not hold.
    ``jobs`` > 1 runs cells in ``min(jobs, cells)`` worker processes (the
    pool starts every worker at once, so never more than there are cells).
    Cells run seed by seed, in grid order within a seed, so each process's
    batch-row memo serves every cell at a seed it runs; ``progress`` lines
    come in that run order and results in grid order, with any ``jobs``.
    """
    if not (is_int(jobs) and jobs >= 1):
        raise ConfigError("jobs", "must be a positive integer")
    configs = strategy_configs(base_config, spec)
    for t in spec.targets:
        if t not in suite.domain_ids:
            raise ConfigError("sweep.targets", f"unknown domain {t!r}")
    grid = [
        (suite, model, replace(cfg, seed=seed), target)
        for cfg in configs.values()
        for target in spec.targets
        for seed in spec.seeds
    ]
    run_order = sorted(range(len(grid)), key=lambda i: spec.seeds.index(grid[i][2].seed))
    cells: list[CellResult | None] = [None] * len(grid)
    workers = min(jobs, len(grid))
    if workers > 1:
        # Imported here, not with the module: the pool loads multiprocessing,
        # socket, subprocess and logging, which only a parallel sweep uses.
        from concurrent.futures import ProcessPoolExecutor
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
    return SweepResult(spec=spec, cells=tuple(cells), configs=configs)

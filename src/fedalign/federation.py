"""Simulated federated round protocol.

A central server holds the global parameters; one client per source domain
draws minibatches locally, returns a gradient-shaped update, and the server
aggregates with the configured strategy and applies a single SGD step.  The
held-out target domain is evaluated every round, which is cheap at this
scale and lets tests reason about whole trajectories instead of endpoints.

All randomness is derived from the run seed through fixed key paths —
``(seed, 0)`` for initialization, ``(seed, 1, client_index, round)`` for
each client's batch stream and ``(seed, 2, round)`` for the aggregation
visiting order — so a run replays bit-for-bit regardless of client
execution order, and every strategy sees the same batch stream under the
same seed.

With ``encrypt=True`` each round's aggregation arithmetic is re-executed in
the homomorphic operator algebra (encrypt, align/average on handles,
decrypt) and the decrypted result, audited for operator-trace purity, is
what the server applies.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .aggregation import (
    ORDER_MODES,
    TARGETS,
    WEIGHTINGS,
    AggregationReport,
    AlignConfig,
    ClientUpdate,
    aggregate_aligned,
    aggregate_fedavg,
)
from .domains import DomainDataset, DomainSuite, leave_one_out, minibatch
from .errors import (
    ConfigError,
    EmptyDataset,
    NonFiniteResult,
    OverflowAtScale,
    from_json,
    is_finite_real,
    is_int,
    is_real,
    to_json,
)
from .hekit import (
    DEFAULT_SCALE,
    aligned_aggregate_encrypted,
    dec_vec,
    enc_vec,
    transparent_cipher,
    weighted_sum_encrypted,
)
from .models import LossKind, Metrics, ModelSpec, ParamVector, evaluate, init_params, loss_and_grad, sgd_step
from .numcore import Rng, dot

__all__ = [
    "STRATEGIES",
    "LrDecay",
    "FedConfig",
    "default_config",
    "effective_lr",
    "ClientState",
    "ServerState",
    "RoundRecord",
    "ExperimentResult",
    "ROUND_CSV_COLUMNS",
    "client_local_step",
    "run_round",
    "run_experiment",
    "run_deepall",
]

STRATEGIES = ("fedavg", "fedprox", "aligned", "deepall")


@dataclass(frozen=True)
class LrDecay:
    """Step decay: lr is divided by ``factor`` every ``every_n_rounds``."""

    every_n_rounds: int
    factor: float

    def __post_init__(self):
        if not is_int(self.every_n_rounds) or self.every_n_rounds < 1:
            raise ConfigError("lr_decay.every_n_rounds", "must be a positive integer")
        if not (is_finite_real(self.factor) and self.factor > 0):
            raise ConfigError("lr_decay.factor", "must be a positive real")


# JSON names of the FedConfig fields whose Python name differs.
_JSON_NAMES = {"lam": "lambda"}


@dataclass(frozen=True)
class FedConfig:
    """One experiment's training schedule and aggregation strategy.

    ``lam`` applies only to the aligned strategy and ``mu`` only to fedprox;
    setting either for a strategy that does not use it is a configuration
    error.  Left unset, they take the shipped defaults (0.1 and 0.01) when
    their strategy is selected.
    """

    strategy: str = "aligned"
    rounds: int = 600
    local_steps: int = 1
    batch_size: int = 2
    lr: float = 0.2
    lr_decay: LrDecay | None = LrDecay(every_n_rounds=400, factor=10.0)
    lam: float | None = None
    mu: float | None = None
    weighting: str | None = None
    seed: int = 0
    encrypt: bool = False
    scale: int = DEFAULT_SCALE
    accumulate: bool = True
    align_target: str = "original"
    order_mode: str = "random"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError("strategy", f"must be one of {STRATEGIES}, got {self.strategy!r}")
        if not is_int(self.rounds) or self.rounds < 0:
            raise ConfigError("rounds", "must be a nonnegative integer")
        if not is_int(self.local_steps) or self.local_steps < 1:
            raise ConfigError("local_steps", "must be a positive integer")
        if not is_int(self.batch_size) or self.batch_size < 1:
            raise ConfigError("batch_size", "must be a positive integer")
        if not (is_finite_real(self.lr) and self.lr > 0):
            raise ConfigError("lr", "must be a positive real")
        if self.strategy == "aligned":
            if self.lam is None:
                object.__setattr__(self, "lam", 0.1)
            if not (is_real(self.lam) and 0.0 < self.lam <= 0.5):
                raise ConfigError("lambda", f"must be in (0, 0.5], got {self.lam}")
        elif self.lam is not None:
            raise ConfigError("lambda", f"only valid for the aligned strategy, not {self.strategy!r}")
        if self.strategy == "fedprox":
            if self.mu is None:
                object.__setattr__(self, "mu", 0.01)
            if not (is_finite_real(self.mu) and self.mu >= 0):
                raise ConfigError("mu", "must be a nonnegative real")
        elif self.mu is not None:
            raise ConfigError("mu", f"only valid for the fedprox strategy, not {self.strategy!r}")
        if self.weighting is not None and self.weighting not in WEIGHTINGS:
            raise ConfigError("weighting", f"must be one of {WEIGHTINGS}, got {self.weighting!r}")
        if not is_int(self.seed) or self.seed < 0:
            raise ConfigError("seed", "must be a nonnegative integer")
        if not is_int(self.scale) or self.scale < 1 or (self.scale & (self.scale - 1)) != 0:
            raise ConfigError("scale", "must be a positive power of two")
        for name in ("encrypt", "accumulate"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(name, "must be true or false")
        if self.align_target not in TARGETS:
            raise ConfigError("align_target", f"must be one of {TARGETS}")
        if self.order_mode not in ORDER_MODES:
            raise ConfigError("order_mode", f"must be one of {ORDER_MODES}")

    @property
    def resolved_weighting(self) -> str:
        """Uniform 1/K for the aligned strategy, sample-proportional for
        the rest, unless overridden."""
        if self.weighting is not None:
            return self.weighting
        return "uniform" if self.strategy == "aligned" else "sample_weighted"

    def to_dict(self) -> dict:
        return to_json(self, rename=_JSON_NAMES)

    @classmethod
    def from_dict(cls, d: dict) -> "FedConfig":
        """Fields are named bare (``lr``, ``lr_decay.factor``) in errors, as
        the class's own checks name them."""
        return from_json(cls, d, "", rename=_JSON_NAMES)


def default_config(strategy: str = "aligned", seed: int = 0) -> FedConfig:
    """The shipped defaults: the rotated-domain benchmark schedule.

    Small noisy batches (size 2) keep client gradients disagreeing so the
    alignment step has conflicts to resolve; the late lr drop (/10 at round
    400) settles the endpoint so final accuracies are comparable across
    strategies rather than snapshots of SGD noise.
    """
    return FedConfig(strategy=strategy, seed=seed)


def effective_lr(cfg: FedConfig, round_index: int) -> float:
    """Learning rate at a given round under the step-decay schedule."""
    if cfg.lr_decay is None:
        return cfg.lr
    return cfg.lr / cfg.lr_decay.factor ** (round_index // cfg.lr_decay.every_n_rounds)


@dataclass
class ClientState:
    """One data-holding participant: a domain and its dataset."""

    client_id: str
    dataset: DomainDataset


@dataclass
class ServerState:
    """Coordinator state carried across rounds."""

    params: ParamVector
    round_index: int = 0


@dataclass(frozen=True)
class RoundRecord:
    round: int
    lr: float
    per_client: tuple[dict, ...]
    aggregation: AggregationReport
    target_metrics: Metrics
    source_metrics: dict
    trace_audit: dict | None = None


ROUND_CSV_COLUMNS = (
    "round",
    "lr",
    "target_accuracy",
    "target_loss",
    "mean_source_accuracy",
    "mean_source_loss",
    "mean_local_loss",
    "mean_grad_norm",
    "num_conflicts",
    "variance_before",
    "variance_after",
)


@dataclass(frozen=True)
class ExperimentResult:
    """Full trajectory of one leave-one-domain-out run."""

    config: FedConfig
    model: ModelSpec
    target: str
    source_ids: tuple[str, ...]
    records: tuple[RoundRecord, ...]
    initial_params: ParamVector = field(repr=False)
    final_params: ParamVector = field(repr=False)
    final_target: Metrics

    @property
    def final_target_accuracy(self) -> float:
        return self.final_target.accuracy

    def conflict_round_fraction(self) -> float:
        if not self.records:
            return 0.0
        hits = sum(1 for r in self.records if r.aggregation.num_conflicts > 0)
        return hits / len(self.records)

    def variance_means_on_conflict_rounds(self) -> tuple[float, float]:
        """Mean domain variance (before, after) over rounds with >= 1 conflict;
        NaNs if no round conflicted."""
        before = [r.aggregation.variance_before for r in self.records if r.aggregation.num_conflicts > 0]
        after = [r.aggregation.variance_after for r in self.records if r.aggregation.num_conflicts > 0]
        if not before:
            return (float("nan"), float("nan"))
        return (float(np.mean(before)), float(np.mean(after)))

    def params_digest(self) -> str:
        text = ",".join(f"{v:.17g}" for v in self.final_params.values)
        return hashlib.sha256(text.encode("ascii")).hexdigest()

    def summary(self) -> dict:
        vb, va = self.variance_means_on_conflict_rounds()
        if vb != vb:  # no conflicting rounds: JSON-friendly null, not NaN
            vb = va = None
        best = max((r.target_metrics.accuracy for r in self.records), default=self.final_target.accuracy)
        return {
            "strategy": self.config.strategy,
            "target": self.target,
            "sources": list(self.source_ids),
            "seed": self.config.seed,
            "rounds": len(self.records),
            "encrypt": self.config.encrypt,
            "final_target_accuracy": self.final_target.accuracy,
            "final_target_loss": self.final_target.loss,
            "best_target_accuracy": best,
            "conflict_round_fraction": self.conflict_round_fraction(),
            "mean_variance_before_on_conflict_rounds": vb,
            "mean_variance_after_on_conflict_rounds": va,
            "final_params_sha256": self.params_digest(),
        }

    def csv_rows(self) -> list[dict]:
        """Per-round scalar metrics, one dict per round, keys ROUND_CSV_COLUMNS."""
        rows = []
        for r in self.records:
            src_acc = [m.accuracy for m in r.source_metrics.values()]
            src_loss = [m.loss for m in r.source_metrics.values()]
            rows.append(
                {
                    "round": r.round,
                    "lr": r.lr,
                    "target_accuracy": r.target_metrics.accuracy,
                    "target_loss": r.target_metrics.loss,
                    "mean_source_accuracy": float(np.mean(src_acc)),
                    "mean_source_loss": float(np.mean(src_loss)),
                    "mean_local_loss": float(np.mean([c["local_loss"] for c in r.per_client])),
                    "mean_grad_norm": float(np.mean([c["grad_norm"] for c in r.per_client])),
                    "num_conflicts": r.aggregation.num_conflicts,
                    "variance_before": r.aggregation.variance_before,
                    "variance_after": r.aggregation.variance_after,
                }
            )
        return rows


def client_local_step(
    state: ClientState,
    global_params: ParamVector,
    cfg: FedConfig,
    rng: Rng,
    lr: float | None = None,
    loss: LossKind = LossKind(),
) -> ClientUpdate:
    """One client's contribution for the round, drawing its minibatches
    from ``rng``.

    With ``local_steps == 1`` this is exactly the minibatch gradient at the
    global parameters.  With more local steps the client walks ``local_steps``
    SGD steps (fedprox adds its proximal pull mu*(w - w_global) to each
    step's gradient) and reports the total displacement divided by lr, so
    that one server-side application of lr lands on the local endpoint.
    """
    if state.dataset.num_rows == 0:
        raise EmptyDataset(f"client {state.client_id} has no data")
    if lr is None:
        lr = cfg.lr
    if cfg.local_steps == 1:
        x, y = minibatch(state.dataset, cfg.batch_size, rng)
        value, grad = loss_and_grad(global_params, x, y, loss)
        return ClientUpdate(
            client_id=state.client_id,
            gradient=grad,
            num_samples=state.dataset.num_rows,
            local_loss=value,
        )
    w = global_params
    losses = []
    for _ in range(cfg.local_steps):
        x, y = minibatch(state.dataset, cfg.batch_size, rng)
        value, grad = loss_and_grad(w, x, y, loss)
        if cfg.strategy == "fedprox":
            grad = grad + cfg.mu * (w.values - global_params.values)
        losses.append(value)
        w = sgd_step(w, grad, lr)
    effective = (global_params.values - w.values) / lr
    return ClientUpdate(
        client_id=state.client_id,
        gradient=effective,
        num_samples=state.dataset.num_rows,
        local_loss=float(np.mean(losses)),
    )


def _aggregate(updates: list[ClientUpdate], cfg: FedConfig, round_index: int) -> AggregationReport:
    if cfg.strategy == "aligned":
        acfg = AlignConfig(
            lam=cfg.lam,
            order_seed=cfg.seed,
            weighting=cfg.resolved_weighting,
            accumulate=cfg.accumulate,
            target=cfg.align_target,
            order_mode=cfg.order_mode,
        )
        return aggregate_aligned(updates, acfg, rng=Rng(cfg.seed, 2, round_index))
    return aggregate_fedavg(updates, weighting=cfg.resolved_weighting)


def _encrypted_replay(
    updates: list[ClientUpdate], report: AggregationReport, cfg: FedConfig
) -> tuple[np.ndarray, dict]:
    """Re-run the round's aggregation arithmetic on cipher handles and
    return (decrypted aggregate, audit dict)."""
    cipher = transparent_cipher(cfg.scale)
    enc = [enc_vec(cipher, u.gradient) for u in updates]
    if report.strategy == "aligned":
        index_of = {u.client_id: i for i, u in enumerate(updates)}
        conflicts = {(index_of[a], index_of[b]) for a, b, _ in report.conflict_pairs}
        handle, audit = aligned_aggregate_encrypted(
            enc,
            cfg.lam,
            report.order_used,
            cipher,
            conflicts,
            weights=list(report.weights),
            accumulate=cfg.accumulate,
            target=cfg.align_target,
        )
    else:
        handle, audit = weighted_sum_encrypted(enc, list(report.weights), cipher)
    return dec_vec(cipher, handle), audit.to_dict()


def run_round(
    server: ServerState,
    clients: list[ClientState],
    cfg: FedConfig,
    target_dataset: DomainDataset,
    loss: LossKind = LossKind(),
) -> RoundRecord:
    """Advance the federation by one round, mutating ``server`` in place."""
    t = server.round_index
    lr = effective_lr(cfg, t)
    updates = []
    try:
        for k, state in enumerate(clients):
            rng = Rng(cfg.seed, 1, k, t)
            updates.append(client_local_step(state, server.params, cfg, rng, lr=lr, loss=loss))
    except (NonFiniteResult, OverflowAtScale) as exc:
        raise type(exc)(f"round {t}, client {state.client_id}: {exc}") from exc

    try:
        report = _aggregate(updates, cfg, t)
        audit_dict = None
        if cfg.encrypt:
            decrypted, audit_dict = _encrypted_replay(updates, report, cfg)
            report = replace(report, aggregated=decrypted)
        server.params = sgd_step(server.params, report.aggregated, lr)
    except (NonFiniteResult, OverflowAtScale) as exc:
        raise type(exc)(f"round {t}: {exc}") from exc
    server.round_index = t + 1

    per_client = tuple(
        {
            "client_id": u.client_id,
            "local_loss": u.local_loss,
            "grad_norm": float(math.sqrt(dot(u.gradient, u.gradient))),
        }
        for u in updates
    )
    target_metrics = evaluate(server.params, target_dataset, loss)
    source_metrics = {s.dataset.domain_id: evaluate(server.params, s.dataset, loss) for s in clients}
    return RoundRecord(
        round=t,
        lr=lr,
        per_client=per_client,
        aggregation=report,
        target_metrics=target_metrics,
        source_metrics=source_metrics,
        trace_audit=audit_dict,
    )


def _run_protocol(
    sources: Sequence[DomainDataset],
    target_dataset: DomainDataset,
    target_id: str,
    model: ModelSpec,
    cfg: FedConfig,
    loss: LossKind,
    reported_config: FedConfig,
) -> ExperimentResult:
    initial = init_params(model, Rng(cfg.seed, 0))
    server = ServerState(params=initial)
    clients = [ClientState(client_id=ds.domain_id, dataset=ds) for ds in sources]
    records = []
    # A diverging run overflows inside the model math long before a check
    # sees it; NonFiniteResult reports it, so numpy's warnings would only be
    # noise.  Set once per run: the model layer is called thousands of times.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.rounds):
            records.append(run_round(server, clients, cfg, target_dataset, loss))
        final_metrics = evaluate(server.params, target_dataset, loss)
    return ExperimentResult(
        config=reported_config,
        model=model,
        target=target_id,
        source_ids=tuple(ds.domain_id for ds in sources),
        records=tuple(records),
        initial_params=initial,
        final_params=server.params,
        final_target=final_metrics,
    )


def run_experiment(
    suite: DomainSuite,
    target: str,
    model: ModelSpec,
    cfg: FedConfig,
    loss: LossKind = LossKind(),
) -> ExperimentResult:
    """Leave-one-domain-out: train on every domain except ``target``, then
    judge the final model on the held-out one."""
    if cfg.strategy == "deepall":
        return run_deepall(suite, target, model, cfg, loss)
    sources, target_dataset = leave_one_out(suite, target)
    return _run_protocol(sources, target_dataset, target, model, cfg, loss, reported_config=cfg)


def run_deepall(
    suite: DomainSuite,
    target: str,
    model: ModelSpec,
    cfg: FedConfig,
    loss: LossKind = LossKind(),
) -> ExperimentResult:
    """Centralized baseline: all source domains pooled into one dataset,
    trained as a single-client federation with the same schedule."""
    sources, target_dataset = leave_one_out(suite, target)
    pooled = DomainDataset(
        domain_id="pooled",
        features=np.vstack([s.features for s in sources]),
        labels=np.concatenate([s.labels for s in sources]),
    )
    inner = replace(cfg, strategy="fedavg", lam=None, mu=None)
    return _run_protocol([pooled], target_dataset, target, model, inner, loss, reported_config=cfg)

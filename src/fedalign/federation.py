"""Simulated federated round protocol.

A central server holds the global parameters; one client per source domain
draws minibatches locally, returns a gradient-shaped update, and the server
aggregates with the configured strategy and applies a single SGD step.
Each round records its post-step parameters and evaluates the held-out
target domain at them, so a run's figures are read from its records.  The
source domains are not evaluated while training: ``ExperimentResult.csv_rows``
evaluates them at each record's parameters only when a reader asks for the
per-round table.

The client phase is one batched step: each local step stacks the K
clients' minibatches and takes one ``loss_and_grad`` over the stack, with
every update byte-identical to the client's own pass (see
:func:`client_phase`, and :func:`client_local_step`, its one-client case).
A round checks each client's data first; then each row of the stack keeps
the first check it fails, and the lowest-index failing client is named, as
``round <t>, client <id>: ``, as stepping the clients one at a time would.

All randomness is derived from the run seed through fixed key paths —
``(seed, 0)`` for initialization, ``(seed, 1, client_index, round)`` for
each client's batch stream and ``(seed, 2, round)`` for the aggregation
visiting order — so a run replays bit-for-bit regardless of client
execution order, and every strategy sees the same batch stream under the
same seed.  A client's batch rows are thus a pure function of their key,
and :func:`client_rows` memoizes them per process, one seed at a time (so
a sweep runs its cells seed by seed) and at most ``ROWS_MEMO_BYTES``: the
cells of a sweep that share a seed draw each client-round's rows once per
worker.  A hit returns the rows a fresh draw would.

With ``encrypt=True`` each round's aggregation arithmetic is re-executed in
the homomorphic operator algebra (encrypt, align/average on handles,
decrypt) and the decrypted result, audited for operator-trace purity, is
what the server applies.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

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
# ``minibatch`` is not called here (the client phase gathers the memoized
# rows itself); it stays a module attribute for callers that look it up on
# this module, such as the benchmark's tracer.
from .domains import DomainDataset, DomainSuite, batch_rows, leave_one_out, minibatch  # noqa: F401
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyDataset,
    InvalidSpec,
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
from .models import Metrics, ModelSpec, ParamVector, evaluate, init_params, loss_and_grad, sgd_step
from .numcore import RealMat, Rng, nonfinite_rows

__all__ = [
    "STRATEGIES",
    "LrDecay",
    "FedConfig",
    "effective_lr",
    "RoundRecord",
    "ExperimentResult",
    "ROUND_CSV_COLUMNS",
    "ROWS_MEMO_BYTES",
    "RowsMemo",
    "client_rows",
    "client_phase",
    "client_local_step",
    "run_round",
    "run_experiment",
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

    The other defaults are the rotated-domain benchmark schedule.  Small
    noisy batches (size 2) keep client gradients disagreeing, so the
    alignment step has conflicts to resolve.  The late lr drop (/10 at
    round 400) settles the endpoint, so final accuracies are comparable
    across strategies rather than snapshots of SGD noise.
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
        if self.lr_decay is not None and self.rounds > 0:
            # The decayed lr is monotone in the round, so the last round's
            # is the one that can leave (0, inf) first.
            try:
                last = effective_lr(self, self.rounds - 1)
            except (OverflowError, ZeroDivisionError):
                last = 0.0
            if not 0.0 < last < math.inf:
                raise ConfigError(
                    "lr_decay", f"the decayed lr leaves (0, inf) within {self.rounds} rounds (lr {self.lr})"
                )
        if self.strategy == "aligned":
            if self.lam is None:
                object.__setattr__(self, "lam", 0.1)
            if not (is_real(self.lam) and 0.0 < self.lam <= 0.5):
                shown = self.lam if is_real(self.lam) else repr(self.lam)
                raise ConfigError("lambda", f"must be in (0, 0.5], got {shown}")
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


def effective_lr(cfg: FedConfig, round_index: int) -> float:
    """Learning rate at a given round under the step-decay schedule."""
    if cfg.lr_decay is None:
        return cfg.lr
    return cfg.lr / cfg.lr_decay.factor ** (round_index // cfg.lr_decay.every_n_rounds)


@dataclass(frozen=True)
class RoundRecord:
    """One round: ``params`` are the server's parameters after its step,
    and ``target_metrics`` the held-out target evaluated at them."""

    round: int
    lr: float
    per_client: tuple[dict, ...]
    aggregation: AggregationReport
    params: ParamVector = field(repr=False)
    target_metrics: Metrics
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
    """Full trajectory of one leave-one-domain-out run.

    ``sources`` are the training clients' datasets in client order (the one
    pooled dataset for deepall); ``csv_rows`` evaluates them at each
    record's parameters.  ``final_target`` is the last record's
    ``target_metrics`` (the initial parameters' with no rounds).  The model
    is ``initial_params.spec``.  ``summary()`` finds the rounds with at
    least one conflict in one pass over the records, and takes their
    fraction and mean domain variance before and after alignment from that
    one list (``None`` for both means when no round conflicted).
    """

    config: FedConfig
    target: str
    sources: tuple[DomainDataset, ...] = field(repr=False)
    records: tuple[RoundRecord, ...]
    initial_params: ParamVector = field(repr=False)
    final_target: Metrics

    @property
    def source_ids(self) -> tuple[str, ...]:
        return tuple(ds.domain_id for ds in self.sources)

    @property
    def final_params(self) -> ParamVector:
        return self.records[-1].params if self.records else self.initial_params

    @property
    def final_target_accuracy(self) -> float:
        return self.final_target.accuracy

    def _conflict_reports(self) -> list[AggregationReport]:
        """The reports of the rounds with at least one conflict, in order."""
        return [r.aggregation for r in self.records if r.aggregation.num_conflicts > 0]

    def conflict_round_fraction(self) -> float:
        return len(self._conflict_reports()) / len(self.records) if self.records else 0.0

    def params_digest(self) -> str:
        text = ",".join(f"{v:.17g}" for v in self.final_params.values)
        return hashlib.sha256(text.encode("ascii")).hexdigest()

    def summary(self) -> dict:
        hits = self._conflict_reports()
        vb = va = None  # no conflicting rounds: JSON-friendly null, not NaN
        if hits:
            vb = float(np.mean([a.variance_before for a in hits]))
            va = float(np.mean([a.variance_after for a in hits]))
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
            "conflict_round_fraction": len(hits) / len(self.records) if self.records else 0.0,
            "mean_variance_before_on_conflict_rounds": vb,
            "mean_variance_after_on_conflict_rounds": va,
            "final_params_sha256": self.params_digest(),
        }

    def csv_rows(self) -> list[dict]:
        """Per-round scalar metrics, one dict per round, keys ROUND_CSV_COLUMNS;
        every source is evaluated, in client order, at each record's
        parameters."""
        rows = []
        with np.errstate(over="ignore", invalid="ignore"):
            for r in self.records:
                src = [evaluate(r.params, ds) for ds in self.sources]
                rows.append(
                    {
                        "round": r.round,
                        "lr": r.lr,
                        "target_accuracy": r.target_metrics.accuracy,
                        "target_loss": r.target_metrics.loss,
                        "mean_source_accuracy": float(np.mean([m.accuracy for m in src])),
                        "mean_source_loss": float(np.mean([m.loss for m in src])),
                        "mean_local_loss": float(np.mean([c["local_loss"] for c in r.per_client])),
                        "mean_grad_norm": float(np.mean([c["grad_norm"] for c in r.per_client])),
                        "num_conflicts": r.aggregation.num_conflicts,
                        "variance_before": r.aggregation.variance_before,
                        "variance_after": r.aggregation.variance_after,
                    }
                )
        return rows


# The client_rows memo's budget in one process: one cell's draws fit many
# times over (the README config's 3 clients x 600 rounds take 0.8 MB).
ROWS_MEMO_BYTES = 2**22
# What an entry takes beside its indices, rounded up from tracemalloc over
# 10,000 entries (220-365 bytes at one local step, 566 at three): the key,
# the tuple and the dict slot, then each selection's array header.
_ENTRY_BYTES = 200
_SELECTION_BYTES = 150


def _draw_rows(num_rows: int, batch_size: int, local_steps: int, rng: Rng) -> tuple[np.ndarray | slice, ...]:
    """One client's rows for a round: one read-only ``batch_rows`` selection
    per local step, drawn in step order from ``rng``."""
    return tuple(batch_rows(num_rows, batch_size, rng) for _ in range(local_steps))


class RowsMemo:
    """Client batch rows memoized per process (see the module docstring).

    A lookup at another seed empties it first.  It stores a drawn entry only
    while the entries fit in ``budget`` bytes and never evicts one, so
    traffic past the budget still hits on what was stored first.
    """

    def __init__(self, budget: int = ROWS_MEMO_BYTES):
        self.budget = budget
        self.clear()

    def clear(self) -> None:
        self.seed: int | None = None
        self.entries: dict[tuple[int, ...], tuple[np.ndarray | slice, ...]] = {}
        self.nbytes = 0

    def __call__(
        self, seed: int, client_index: int, round_index: int, num_rows: int, batch_size: int, local_steps: int
    ) -> tuple[np.ndarray | slice, ...]:
        """Client ``client_index``'s batch rows in round ``round_index``, one
        read-only selection per local step, drawn from its stream
        ``Rng(seed, 1, client_index, round_index)``."""
        if seed != self.seed:
            self.clear()
            self.seed = seed
        key = (client_index, round_index, num_rows, batch_size, local_steps)
        rows = self.entries.get(key)
        if rows is None:
            rows = _draw_rows(num_rows, batch_size, local_steps, Rng(seed, 1, client_index, round_index))
            size = _ENTRY_BYTES + sum(
                _SELECTION_BYTES + (sel.nbytes if isinstance(sel, np.ndarray) else 0) for sel in rows
            )
            if self.nbytes + size <= self.budget:
                self.entries[key] = rows
                self.nbytes += size
        return rows


client_rows = RowsMemo()


def _check_data(clients: list[DomainDataset], spec: ModelSpec, batch_size: int) -> None:
    """Raise for the first client, in client order, whose data cannot make
    a batch for ``spec``: no rows, then the wrong feature width."""
    for ds in clients:
        rows, width = ds.features.shape
        if rows == 0:
            raise EmptyDataset(f"client {ds.domain_id} has no data")
        if width != spec.input_dim:
            raise DimensionMismatch(f"batch shape {(batch_size, width)} does not match input_dim={spec.input_dim}")


def client_phase(
    clients: list[DomainDataset],
    global_params: ParamVector,
    cfg: FedConfig,
    rows: list[tuple[np.ndarray | slice, ...]],
    lr: float | None = None,
) -> tuple[np.ndarray, RealMat]:
    """Every client's contribution for the round: the K local losses and
    the C-contiguous K×P matrix of updates, row k for client k (its
    dataset, named by its ``domain_id``) training at local step ``s`` on the
    rows ``rows[k][s]`` of its dataset (as :func:`client_rows` draws them).

    With ``local_steps == 1`` each update is exactly the client's minibatch
    gradient at the global parameters.  With more local steps each client
    walks ``local_steps`` SGD steps (fedprox adds its proximal pull
    mu*(w - w_global) to each step's gradient) and reports the total
    displacement divided by lr, so that one server-side application of lr
    lands on the local endpoint.

    The clients move together: each step stacks their K batches and takes
    one ``loss_and_grad`` over the stack, the first at the shared global
    parameters and each later one at the (K, P) stack of per-client
    parameters.  Clients never mix, so every update is byte-identical to the
    client's walk alone.  The steps run to the end, each row keeping the
    first check it fails (``gradient``, then ``updated parameters``, then a
    ``displacement`` that is not finite), and the lowest-index failing
    client raises :class:`NonFiniteResult`, ``client <id>: <check> contains
    NaN or Inf``, which ``run_round`` prefixes with the round.  A batch
    label the model has no class for raises :class:`InvalidSpec` at its
    step, ``client <id>: labels outside [0, C)``, for the lowest-index
    client whose batch holds one.
    """
    lr = cfg.lr if lr is None else lr
    w = global_params
    losses = []
    failed: dict[int, str] = {}
    for step in range(cfg.local_steps):
        try:
            xs = np.array([ds.features[sel[step]] for ds, sel in zip(clients, rows)])
        except ValueError:
            # The batches do not stack: name the first client at fault.
            _check_data(clients, global_params.spec, cfg.batch_size)
            raise
        ys = np.array([ds.labels[sel[step]] for ds, sel in zip(clients, rows)])
        try:
            values, grads = loss_and_grad(w, xs, ys)
        except InvalidSpec as exc:
            # A label the model has no class for: name the first client whose batch holds one.
            k = next(k for k, y in enumerate(ys) if y.min() < 0 or y.max() >= w.spec.num_classes)
            raise InvalidSpec(f"client {clients[k].domain_id}: {exc}") from exc
        for k in nonfinite_rows(grads):
            failed.setdefault(k, "gradient")
        if cfg.local_steps > 1:
            losses.append(values)
            if cfg.strategy == "fedprox":
                grads = grads + cfg.mu * (w.values - global_params.values)
            # sgd_step's arithmetic, checked per row rather than per stack.
            w = ParamVector(w.spec, w.values - lr * grads)
            for k in nonfinite_rows(w.values):
                failed.setdefault(k, "updated parameters")
    if cfg.local_steps > 1:
        grads = (global_params.values - w.values) / lr
        # A displacement that is not finite fails its row after the steps.
        failed = dict.fromkeys(nonfinite_rows(grads), "displacement") | failed
        # Row k holds client k's losses, so each mean reduces a contiguous
        # row as the mean of that client's own list would.
        values = np.mean(np.stack(losses, axis=1), axis=1)
    if failed:
        k = min(failed)
        raise NonFiniteResult(f"client {clients[k].domain_id}: {failed[k]} contains NaN or Inf")
    return values, grads


def _updates(clients: list[DomainDataset], values: np.ndarray, grads: RealMat) -> list[ClientUpdate]:
    return [
        ClientUpdate(
            client_id=ds.domain_id,
            gradient=grad,
            num_samples=ds.num_rows,
            local_loss=float(value),
        )
        for ds, grad, value in zip(clients, grads, values)
    ]


def client_local_step(
    dataset: DomainDataset,
    global_params: ParamVector,
    cfg: FedConfig,
    rng: Rng,
    lr: float | None = None,
) -> ClientUpdate:
    """One client's contribution for the round, its batch rows drawn from
    ``rng``: the one-client case of :func:`client_phase`."""
    _check_data([dataset], global_params.spec, cfg.batch_size)
    rows = _draw_rows(dataset.num_rows, cfg.batch_size, cfg.local_steps, rng)
    return _updates([dataset], *client_phase([dataset], global_params, cfg, [rows], lr))[0]


def _aggregate(updates: list[ClientUpdate], cfg: FedConfig, round_index: int) -> AggregationReport:
    if cfg.strategy == "aligned":
        acfg = AlignConfig(
            lam=cfg.lam,
            weighting=cfg.resolved_weighting,
            accumulate=cfg.accumulate,
            target=cfg.align_target,
            order_mode=cfg.order_mode,
        )
        return aggregate_aligned(updates, acfg, rng=Rng(cfg.seed, 2, round_index))
    return aggregate_fedavg(updates, weighting=cfg.resolved_weighting)


def _encrypted_replay(report: AggregationReport, scale: int) -> tuple[np.ndarray, dict]:
    """Re-run the round's aggregation arithmetic on cipher handles, one per
    row of ``report.originals``, with the semantics of ``report.config``,
    and return (decrypted aggregate, audit dict)."""
    cipher = transparent_cipher(scale)
    enc = [enc_vec(cipher, g) for g in report.originals]
    if report.config is not None:
        handle, audit = aligned_aggregate_encrypted(enc, report.config, cipher, report.conflict_pairs, report.weights)
    else:
        handle, audit = weighted_sum_encrypted(enc, report.weights, cipher)
    return dec_vec(cipher, handle), audit.to_dict()


def run_round(
    params: ParamVector,
    t: int,
    clients: list[DomainDataset],
    cfg: FedConfig,
    target_dataset: DomainDataset,
) -> RoundRecord:
    """Round ``t`` of the federation from the global parameters ``params``:
    a pure step, which mutates none of its arguments and returns the
    round's record, whose ``params`` start round ``t + 1``."""
    lr = effective_lr(cfg, t)
    _check_data(clients, params.spec, cfg.batch_size)
    rows = [client_rows(cfg.seed, k, t, ds.num_rows, cfg.batch_size, cfg.local_steps) for k, ds in enumerate(clients)]
    try:
        values, grads = client_phase(clients, params, cfg, rows, lr)
        updates = _updates(clients, values, grads)
        report = _aggregate(updates, cfg, t)
        audit_dict = None
        if cfg.encrypt:
            decrypted, audit_dict = _encrypted_replay(report, cfg.scale)
            report = replace(report, aggregated=decrypted)
        params = sgd_step(params, report.aggregated, lr)
    except (NonFiniteResult, OverflowAtScale, InvalidSpec) as exc:
        # An error that names its client joins the round as "round t, client <id>: ".
        sep = ", " if str(exc).startswith("client ") else ": "
        raise type(exc)(f"round {t}{sep}{exc}") from exc

    # Each norm is sqrt(dot(g, g)) bit for bit: the report's row squares are
    # the pairwise np.sum(g * g).
    norms = np.sqrt(report.row_squares).tolist()
    per_client = tuple(
        {"client_id": u.client_id, "local_loss": u.local_loss, "grad_norm": norm}
        for u, norm in zip(updates, norms)
    )
    return RoundRecord(
        round=t,
        lr=lr,
        per_client=per_client,
        aggregation=report,
        params=params,
        target_metrics=evaluate(params, target_dataset),
        trace_audit=audit_dict,
    )


def run_experiment(
    suite: DomainSuite,
    target: str,
    model: ModelSpec,
    cfg: FedConfig,
) -> ExperimentResult:
    """Leave-one-domain-out: train on every domain except ``target``, then
    judge the final model on the held-out one.

    The deepall baseline pools the source domains into one dataset and
    trains it as a single-client fedavg federation with the same schedule.
    """
    sources, target_dataset = leave_one_out(suite, target)
    train_cfg = cfg
    if cfg.strategy == "deepall":
        sources = [
            DomainDataset(
                domain_id="pooled",
                features=np.vstack([s.features for s in sources]),
                labels=np.concatenate([s.labels for s in sources]),
            )
        ]
        train_cfg = replace(cfg, strategy="fedavg", lam=None, mu=None)
    initial = init_params(model, Rng(cfg.seed, 0))
    # A diverging run overflows inside the model math long before a check
    # sees it; NonFiniteResult reports it, so numpy's warnings would only be
    # noise.  Set once per run: the model layer is called thousands of times.
    with np.errstate(over="ignore", invalid="ignore"):
        records, params = [], initial
        for t in range(cfg.rounds):
            records.append(run_round(params, t, sources, train_cfg, target_dataset))
            params = records[-1].params
        final_target = records[-1].target_metrics if records else evaluate(initial, target_dataset)
    return ExperimentResult(
        config=cfg,
        target=target,
        sources=tuple(sources),
        records=tuple(records),
        initial_params=initial,
        final_target=final_target,
    )

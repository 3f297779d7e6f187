"""fedalign: a deterministic federated-learning simulator with
gradient-alignment aggregation.

The library simulates a server coordinating one client per data domain,
detects conflicting client gradients (negative inner products), aligns them
pairwise before averaging, and evaluates generalization to a held-out
domain.  All arithmetic is plain numpy with hand-derived gradients; an
optional homomorphic-operator facade re-executes the aggregation on
encrypted handles to show the protocol needs nothing beyond add/sub/mul in
cipher space.

Quick start::

    from fedalign import (
        FedConfig, ModelSpec, default_benchmark_spec, generate, run_experiment,
    )

    suite = generate(default_benchmark_spec(seed=0))
    model = ModelSpec(input_dim=suite.num_features, hidden_dim=8, num_classes=2)
    result = run_experiment(suite, "dom3", model, FedConfig(strategy="aligned", seed=0))
    print(result.summary())
"""

from .aggregation import (
    AggregationReport,
    AlignConfig,
    ClientUpdate,
    aggregate_aligned,
    aggregate_fedavg,
    align_pair,
    detect_conflict,
    domain_variance,
)
from .domains import (
    CsvSchema,
    DomainDataset,
    DomainSuite,
    SyntheticSpec,
    default_benchmark_spec,
    generate,
    leave_one_out,
    load_csv,
    minibatch,
    save_csv,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyBatch,
    EmptyDataset,
    EmptyUpdateSet,
    FedAlignError,
    InconsistentDimension,
    InsufficientDomains,
    InvalidLambda,
    InvalidSpec,
    NonFiniteResult,
    OverflowAtScale,
    ParseError,
    TraceViolation,
    UnknownDomain,
)
from .federation import (
    ExperimentResult,
    FedConfig,
    LrDecay,
    RoundRecord,
    ServerState,
    client_local_step,
    effective_lr,
    run_experiment,
    run_round,
)
from .hekit import (
    CipherHandle,
    FixedPointCodec,
    TraceAudit,
    TransparentCipher,
    aligned_aggregate_encrypted,
    audit_trace,
    dec_vec,
    enc_vec,
    transparent_cipher,
    weighted_sum_encrypted,
)
from .models import (
    Metrics,
    ModelSpec,
    ParamVector,
    evaluate,
    forward,
    init_params,
    loss_and_grad,
    sgd_step,
)
from .numcore import Rng
from .sweep import CellResult, SweepResult, SweepSpec, run_sweep

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # numcore
    "Rng",
    # errors
    "FedAlignError",
    "DimensionMismatch",
    "NonFiniteResult",
    "EmptyBatch",
    "EmptyDataset",
    "EmptyUpdateSet",
    "InvalidLambda",
    "InvalidSpec",
    "UnknownDomain",
    "InsufficientDomains",
    "ParseError",
    "InconsistentDimension",
    "OverflowAtScale",
    "TraceViolation",
    "ConfigError",
    # domains
    "DomainDataset",
    "DomainSuite",
    "SyntheticSpec",
    "CsvSchema",
    "default_benchmark_spec",
    "generate",
    "leave_one_out",
    "minibatch",
    "load_csv",
    "save_csv",
    # models
    "ModelSpec",
    "ParamVector",
    "Metrics",
    "init_params",
    "forward",
    "loss_and_grad",
    "sgd_step",
    "evaluate",
    # aggregation
    "ClientUpdate",
    "AlignConfig",
    "AggregationReport",
    "detect_conflict",
    "align_pair",
    "domain_variance",
    "aggregate_aligned",
    "aggregate_fedavg",
    # hekit
    "CipherHandle",
    "FixedPointCodec",
    "TransparentCipher",
    "TraceAudit",
    "transparent_cipher",
    "enc_vec",
    "dec_vec",
    "audit_trace",
    "aligned_aggregate_encrypted",
    "weighted_sum_encrypted",
    # federation
    "FedConfig",
    "LrDecay",
    "ServerState",
    "RoundRecord",
    "ExperimentResult",
    "effective_lr",
    "client_local_step",
    "run_round",
    "run_experiment",
    # sweep
    "SweepSpec",
    "CellResult",
    "SweepResult",
    "run_sweep",
]

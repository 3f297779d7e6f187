import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedalign.aggregation import AggregationReport, AlignConfig
from fedalign.domains import (
    DomainDataset,
    DomainSuite,
    SyntheticSpec,
    default_benchmark_spec,
    generate,
    leave_one_out,
    minibatch,
)
from fedalign.errors import (
    ConfigError,
    DimensionMismatch,
    EmptyDataset,
    InvalidSpec,
    NonFiniteResult,
    OverflowAtScale,
    from_json,
    to_json,
)
from fedalign import federation
from fedalign.federation import (
    ROUND_CSV_COLUMNS,
    ROWS_MEMO_BYTES,
    RowsMemo,
    FedConfig,
    LrDecay,
    client_local_step,
    client_phase,
    client_rows,
    effective_lr,
    run_experiment,
    run_round,
)
from fedalign.models import ModelSpec, evaluate, init_params, loss_and_grad, sgd_step
from fedalign.numcore import Rng, dot, weighted_sum
from fedalign.sweep import SweepSpec, run_sweep

from _oracles import broadcast_client_phase, one_at_a_time_round_error, reference_run, reference_source_means

MODEL = ModelSpec(input_dim=2, hidden_dim=4, num_classes=2, activation="relu")
LOGREG = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2, activation="relu")


def count_client_streams(monkeypatch) -> list:
    """The keys ``(seed, 1, client, round)`` of the client batch streams
    that ``federation`` builds from here on, in order."""
    built = []

    def counting_rng(*key):
        if key[1:2] == (1,):
            built.append(key)
        return Rng(*key)

    monkeypatch.setattr(federation, "Rng", counting_rng)
    return built


def small_suite(seed=0, domains=3, samples=40):
    degrees = tuple(float(15 * i) for i in range(domains))
    return generate(
        SyntheticSpec(
            family="rotated_two_moons",
            num_domains=domains,
            rotation_degrees=degrees,
            samples_per_domain=samples,
            seed=seed,
        )
    )


class TestFedConfig:
    def test_defaults_resolve_strategy_fields(self):
        cfg = FedConfig(strategy="aligned")
        assert cfg.lam == 0.1 and cfg.mu is None
        cfg = FedConfig(strategy="fedprox")
        assert cfg.mu == 0.01 and cfg.lam is None

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(strategy="fedsgd"), "strategy"),
            (dict(rounds=-1), "rounds"),
            (dict(rounds=1.5), "rounds"),
            (dict(local_steps=0), "local_steps"),
            (dict(batch_size=0), "batch_size"),
            (dict(lr=0.0), "lr"),
            (dict(lr=float("inf")), "lr"),
            (dict(strategy="aligned", lam=0.7), "lambda"),
            (dict(strategy="aligned", lam=0.0), "lambda"),
            (dict(strategy="fedavg", lam=0.1), "lambda"),
            (dict(strategy="fedprox", mu=-0.5), "mu"),
            (dict(strategy="fedavg", mu=0.01), "mu"),
            (dict(weighting="even"), "weighting"),
            (dict(seed=-3), "seed"),
            (dict(scale=1000), "scale"),
            (dict(align_target="latest"), "align_target"),
            (dict(order_mode="alphabetical"), "order_mode"),
            # Decayed lrs that leave (0, inf): 0.2 / 10**329 underflows to
            # 0.0, 10**330 overflows, 0.1**399 underflows (a zero divisor),
            # and 1e-300 / 10**39 underflows.
            (dict(rounds=330, lr_decay=LrDecay(1, 10.0)), "lr_decay"),
            (dict(rounds=400, lr_decay=LrDecay(1, 0.1)), "lr_decay"),
            (dict(rounds=40, lr=1e-300, lr_decay=LrDecay(1, 10.0)), "lr_decay"),
            (dict(rounds=2**62, lr_decay=LrDecay(1, 1.5)), "lr_decay"),
            (dict(strategy="aligned", lam="0.1"), "lambda"),
            (dict(strategy="aligned", lam=np.float64(0.7)), "lambda"),
            (dict(lr_decay={"every_n_rounds": 1, "factor": 2.0}), "lr_decay"),
        ],
    )
    def test_validation_names_field(self, kwargs, field):
        with pytest.raises(ConfigError) as err:
            FedConfig(**kwargs)
        assert err.value.field == field

    @pytest.mark.parametrize(
        "lam, shown", [("0.1", "'0.1'"), ([0.1], "[0.1]"), (np.float64(0.7), "0.7"), (0.0, "0.0")]
    )
    def test_lambda_that_is_not_a_number_is_quoted(self, lam, shown):
        with pytest.raises(ConfigError) as err:
            FedConfig(strategy="aligned", lam=lam)
        assert (err.value.field, err.value.message) == ("lambda", f"must be in (0, 0.5], got {shown}")

    @pytest.mark.parametrize(
        "kwargs", [dict(every_n_rounds=0, factor=2.0), dict(every_n_rounds=5, factor=0.0)]
    )
    def test_decay_validation(self, kwargs):
        with pytest.raises(ConfigError):
            LrDecay(**kwargs)

    def test_resolved_weighting(self):
        assert FedConfig(strategy="aligned").resolved_weighting == "uniform"
        assert FedConfig(strategy="fedavg").resolved_weighting == "sample_weighted"
        assert FedConfig(strategy="aligned", weighting="sample_weighted").resolved_weighting == (
            "sample_weighted"
        )

    def test_align_is_derived_not_a_field(self):
        cfg = FedConfig(strategy="aligned", lam=0.2, accumulate=False, align_target="current", order_mode="fixed")
        assert cfg.align == AlignConfig(0.2, "uniform", False, "current", "fixed")
        assert cfg.align is cfg.align
        for strategy in ("fedavg", "fedprox", "deepall"):
            assert FedConfig(strategy=strategy).align is None
        assert replace(cfg, lam=0.3).align.lam == 0.3
        assert pickle.loads(pickle.dumps(cfg)).align == cfg.align
        assert "align" not in cfg.to_dict()
        assert FedConfig.from_dict(cfg.to_dict()) == cfg

    def test_dict_round_trip(self):
        cfg = FedConfig(
            strategy="aligned",
            rounds=10,
            lam=0.25,
            lr_decay=LrDecay(5, 2.0),
            encrypt=True,
        )
        assert FedConfig.from_dict(cfg.to_dict()) == cfg
        for obj, path, rename in [
            (FedConfig(strategy="fedprox", mu=0.2, lr_decay=None), "", {"lam": "lambda"}),
            (SyntheticSpec(num_domains=2, rotation_degrees=(5, 10.5), seed=3), "data.synthetic", {}),
            (SweepSpec(("fedavg", "aligned"), (0, 2), ("dom1",), {"aligned": {"lambda": 0.2}}), "sweep", {}),
        ]:
            assert from_json(type(obj), to_json(obj, rename), path, rename) == obj

    def test_from_dict_maps_lambda_key(self):
        cfg = FedConfig.from_dict({"strategy": "aligned", "lambda": 0.3})
        assert cfg.lam == 0.3

    def test_from_dict_rejects_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            FedConfig.from_dict({"strategy": "fedavg", "momentum": 0.9})
        assert err.value.field == "momentum"

    def test_from_dict_rejects_malformed_decay(self):
        with pytest.raises(ConfigError):
            FedConfig.from_dict({"lr_decay": {"every": 5}})

    def test_default_config_strategies(self):
        for s in ("fedavg", "fedprox", "aligned", "deepall"):
            cfg = FedConfig(strategy=s)
            assert cfg.strategy == s
            assert cfg.lam == (0.1 if s == "aligned" else None)
            assert cfg.mu == (0.01 if s == "fedprox" else None)


class TestEffectiveLr:
    def test_no_decay(self):
        cfg = FedConfig(strategy="fedavg", lr=0.1, lr_decay=None)
        assert effective_lr(cfg, 0) == effective_lr(cfg, 999) == 0.1

    @pytest.mark.parametrize(
        "rounds, decay", [(309, LrDecay(1, 10.0)), (10**6, LrDecay(1, 1.0)), (600, LrDecay(400, 10.0))]
    )
    def test_accepted_schedules_stay_positive_and_finite(self, rounds, decay):
        cfg = FedConfig(strategy="fedavg", rounds=rounds, lr_decay=decay)
        for t in range(min(rounds, 1000)):
            assert 0.0 < effective_lr(cfg, t) < math.inf
        assert 0.0 < effective_lr(cfg, rounds - 1) < math.inf

    def test_step_schedule(self):
        cfg = FedConfig(strategy="fedavg", lr=0.8, lr_decay=LrDecay(10, 2.0))
        assert effective_lr(cfg, 0) == 0.8
        assert effective_lr(cfg, 9) == 0.8
        assert effective_lr(cfg, 10) == 0.4
        assert effective_lr(cfg, 25) == 0.2


class TestClientLocalStep:
    def setup_method(self):
        self.ds = small_suite().domains[0]
        self.params = init_params(MODEL, Rng(1))

    def test_single_step_is_raw_minibatch_gradient(self):
        cfg = FedConfig(strategy="fedavg", batch_size=8, lr=0.1)
        update = client_local_step(self.ds, self.params, cfg, Rng(7))
        x, y = minibatch(self.ds, 8, Rng(7))
        value, grad = loss_and_grad(self.params, x, y)
        assert np.array_equal(update.gradient, grad)
        assert update.local_loss == value
        assert update.num_samples == self.ds.num_rows

    def test_two_local_steps_compose(self):
        cfg = FedConfig(strategy="fedavg", local_steps=2, batch_size=4, lr=0.1)
        update = client_local_step(self.ds, self.params, cfg, Rng(9))

        rng = Rng(9)
        w = self.params
        for _ in range(2):
            x, y = minibatch(self.ds, 4, rng)
            _, grad = loss_and_grad(w, x, y)
            w = sgd_step(w, grad, 0.1)
        expected = (self.params.values - w.values) / 0.1
        assert np.array_equal(update.gradient, expected)

    def test_fedprox_proximal_pull(self):
        cfg = FedConfig(strategy="fedprox", local_steps=2, batch_size=4, lr=0.1, mu=0.5)
        update = client_local_step(self.ds, self.params, cfg, Rng(9))

        rng = Rng(9)
        w = self.params
        for _ in range(2):
            x, y = minibatch(self.ds, 4, rng)
            _, grad = loss_and_grad(w, x, y)
            grad = grad + 0.5 * (w.values - self.params.values)
            w = sgd_step(w, grad, 0.1)
        expected = (self.params.values - w.values) / 0.1
        assert np.array_equal(update.gradient, expected)

    def test_fedprox_single_step_equals_plain_gradient(self):
        # With one local step the proximal term is evaluated at w == w_global
        # and vanishes, so fedprox and fedavg send identical updates.
        prox = FedConfig(strategy="fedprox", batch_size=8, mu=10.0)
        avg = FedConfig(strategy="fedavg", batch_size=8)
        u1 = client_local_step(self.ds, self.params, prox, Rng(3))
        u2 = client_local_step(self.ds, self.params, avg, Rng(3))
        assert np.array_equal(u1.gradient, u2.gradient)


class TestClientPhase:
    """The batched client phase steps all clients together and equals each
    client's own walk, byte for byte."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(strategy="fedavg", batch_size=2),
            dict(strategy="aligned", batch_size=45),
            dict(strategy="fedavg", batch_size=40),
            dict(strategy="fedavg", local_steps=2, batch_size=4, lr=0.1),
            dict(strategy="fedprox", local_steps=9, batch_size=3, lr=0.3, mu=0.5),
        ],
        ids=["batch2", "with-replacement", "full-batch", "two-steps", "fedprox-nine-steps"],
    )
    @pytest.mark.parametrize("model", [MODEL, LOGREG], ids=["mlp", "logreg"])
    def test_matches_each_client_alone(self, kwargs, model):
        clients = small_suite(domains=4).domains
        params = init_params(model, Rng(1))
        cfg = FedConfig(**kwargs)
        rows = [client_rows(5, k, 0, ds.num_rows, cfg.batch_size, cfg.local_steps) for k, ds in enumerate(clients)]
        losses, grads = client_phase(clients, params, cfg, rows)
        assert grads.shape == (len(clients), model.param_count) and grads.flags.c_contiguous
        assert losses.shape == (len(clients),)
        for k, ds in enumerate(clients):
            alone = client_local_step(ds, params, cfg, Rng(5, 1, k, 0))
            assert alone.client_id == ds.domain_id
            assert grads[k].tobytes() == alone.gradient.tobytes()
            assert float(losses[k]).hex() == float(alone.local_loss).hex()
            assert alone.num_samples == ds.num_rows

    @pytest.mark.parametrize("local_steps", [1, 2, 3])
    @pytest.mark.parametrize("strategy", ["fedavg", "fedprox"])
    @pytest.mark.parametrize(
        "model,clients,batch",
        [
            (MODEL, 3, 2),
            (LOGREG, 3, 4),
            (ModelSpec(input_dim=2, hidden_dim=8), 3, 2),
            (ModelSpec(input_dim=2, hidden_dim=128, activation="tanh"), 4, 3),
            (ModelSpec(input_dim=2, hidden_dim=400), 32, 10),
        ],
        ids=["mlp4", "logreg", "mlp8", "tanh128", "k32-mlp400"],
    )
    def test_shared_first_step_matches_broadcast_stack(self, local_steps, strategy, model, clients, batch):
        suite = small_suite(domains=clients, samples=50)
        params = init_params(model, Rng(3))
        cfg = FedConfig(strategy=strategy, local_steps=local_steps, batch_size=batch, lr=0.3)
        rows = [client_rows(7, k, 1, ds.num_rows, batch, local_steps) for k, ds in enumerate(suite.domains)]
        losses, grads = client_phase(list(suite.domains), params, cfg, rows)
        ref_losses, ref_grads = broadcast_client_phase(suite.domains, params, cfg, rows, cfg.lr)
        assert grads.tobytes() == ref_grads.tobytes()
        assert losses.tobytes() == ref_losses.tobytes()

    def test_run_round_calls_client_phase_once_per_round(self, monkeypatch):
        # The benchmark's tracer wraps this module attribute: a round that
        # bypassed it would leave the traced client phase reading 0.
        calls = []
        original = federation.client_phase

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(federation, "client_phase", counting)
        run_experiment(small_suite(), "dom2", MODEL, FedConfig(rounds=3, batch_size=4))
        assert len(calls) == 3

    def test_empty_client_named(self):
        ds = small_suite().domains[0]
        empty = DomainDataset("void", np.zeros((0, 2)), np.zeros(0, dtype=int))
        clients = [ds, empty]
        with pytest.raises(EmptyDataset, match="client void has no data"):
            client_phase(clients, init_params(MODEL, Rng(1)), FedConfig(), [(slice(None),)] * 2)


class TestClientRows:
    """Batch rows are a pure function of their key, memoized per process:
    a cache hit must give the same rows, so the same run, as a fresh draw."""

    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param(dict(strategy="aligned"), id="aligned"),
            pytest.param(dict(strategy="fedavg"), id="fedavg"),
            pytest.param(dict(strategy="fedprox", local_steps=3, lr=0.1), id="fedprox-local3"),
            pytest.param(dict(strategy="deepall"), id="deepall"),
            pytest.param(dict(strategy="fedavg", batch_size=40), id="full-batch"),
            pytest.param(dict(strategy="aligned", batch_size=45), id="with-replacement"),
        ],
    )
    def test_cold_and_warm_cache_give_same_bits(self, extra, monkeypatch):
        suite = small_suite()
        cfg = FedConfig(**{"rounds": 6, "batch_size": 4, "seed": 3, **extra})
        client_streams = count_client_streams(monkeypatch)
        client_rows.clear()
        cold = run_experiment(suite, "dom2", MODEL, cfg)
        misses = len(client_streams)
        warm = run_experiment(suite, "dom2", MODEL, cfg)
        assert len(client_streams) == misses > 0
        assert warm.final_params.values.tobytes() == cold.final_params.values.tobytes()
        for a, b in zip(cold.records, warm.records):
            assert a.aggregation.aggregated.tobytes() == b.aggregation.aggregated.tobytes()

    def test_rows_are_the_client_streams_draws(self):
        # Same stream key, two row counts: each gets its own rows.
        full = small_suite().domains[0]
        for ds in (full, DomainDataset("short", full.features[:25], full.labels[:25])):
            for batch, steps in [(4, 1), (4, 3), (40, 2), (45, 2)]:
                rng = Rng(7, 1, 2, 9)
                rows = client_rows(7, 2, 9, ds.num_rows, batch, steps)
                assert len(rows) == steps
                for sel in rows:
                    x, y = minibatch(ds, batch, rng)
                    assert np.array_equal(ds.features[sel], x) and np.array_equal(ds.labels[sel], y)

    def test_cached_rows_are_read_only(self):
        rows = client_rows(0, 0, 0, 40, 4, 2)
        assert client_rows(0, 0, 0, 40, 4, 2) is rows
        for sel in rows:
            with pytest.raises(ValueError):
                sel[0] = 1
        # with replacement, too
        (sel,) = client_rows(0, 0, 0, 40, 45, 1)
        with pytest.raises(ValueError):
            sel[0] = 1

    def test_bound_is_the_module_constant(self):
        assert ROWS_MEMO_BYTES == 2**22
        assert client_rows.budget == ROWS_MEMO_BYTES

    def test_stores_nothing_past_the_budget(self, monkeypatch):
        # Room for two entries of one batch-4 selection: the third is drawn
        # exactly as a fresh draw but not stored, and the first two still hit.
        client_streams = count_client_streams(monkeypatch)
        memo = RowsMemo(budget=2 * (200 + 150 + 4 * 8))
        first = [memo(0, 0, t, 40, 4, 1) for t in range(3)]
        assert len(memo.entries) == 2 and memo.nbytes <= memo.budget
        again = [memo(0, 0, t, 40, 4, 1) for t in range(3)]
        assert [a is b for a, b in zip(first, again)] == [True, True, False]
        assert np.array_equal(first[2][0], again[2][0]) and len(client_streams) == 4

    def test_holds_one_seed_at_a_time(self):
        memo = RowsMemo()
        rows = memo(0, 0, 0, 40, 4, 1)
        memo(1, 0, 0, 40, 4, 1)
        assert memo.seed == 1 and len(memo.entries) == 1
        again = memo(0, 0, 0, 40, 4, 1)
        assert again is not rows and np.array_equal(again[0], rows[0])

    def test_sweep_cells_at_one_seed_share_client_streams(self, monkeypatch):
        # Two strategies at one seed and target: the second cell reuses the
        # first cell's rows, so K * R client streams are built, not 2 * K * R.
        client_streams = count_client_streams(monkeypatch)
        client_rows.clear()
        spec = SweepSpec(strategies=("fedavg", "aligned"), seeds=(0,), targets=("dom2",))
        result = run_sweep(small_suite(), MODEL, {"rounds": 5, "batch_size": 4}, spec, jobs=1)
        assert all(c.error is None for c in result.cells)
        assert sorted(client_streams) == sorted((0, 1, k, t) for k in range(2) for t in range(5))

    def test_sweep_runs_seed_by_seed(self, monkeypatch):
        # The memo holds one seed, so the cells must run seed by seed for
        # every seed's K * R client streams to be built once, however many
        # seeds there are; results stay in grid order.
        client_streams = count_client_streams(monkeypatch)
        client_rows.clear()
        spec = SweepSpec(strategies=("fedavg", "aligned"), seeds=(4, 2, 9), targets=("dom2",))
        lines = []
        result = run_sweep(
            small_suite(), MODEL, {"rounds": 3, "batch_size": 4}, spec, jobs=1, progress=lines.append
        )
        assert [(c.strategy, c.seed) for c in result.cells] == [
            (s, seed) for s in spec.strategies for seed in spec.seeds
        ]
        assert [line.split()[1:4:2] for line in lines] == [
            [s, f"seed={seed}"] for seed in spec.seeds for s in spec.strategies
        ]
        assert sorted(client_streams) == sorted(
            (seed, 1, k, t) for seed in spec.seeds for k in range(2) for t in range(3)
        )

    def test_empty_client_named_by_run_round(self):
        suite = small_suite()
        empty = DomainDataset("void", np.zeros((0, 2)), np.zeros(0, dtype=int))
        clients = [suite.domains[0], empty]
        with pytest.raises(EmptyDataset, match="^client void has no data$"):
            run_round(init_params(MODEL, Rng(0, 0)), 0, clients, FedConfig(), suite.domains[2])


class TestRunRound:
    def test_applies_lr_times_aggregate(self):
        suite = small_suite()
        sources, target = leave_one_out(suite, "dom2")
        cfg = FedConfig(strategy="fedavg", batch_size=8, lr=0.05)
        params = init_params(MODEL, Rng(cfg.seed, 0))
        record = run_round(params, 0, sources, cfg, target)
        expected = sgd_step(params, record.aggregation.aggregated, 0.05)
        assert np.array_equal(record.params.values, expected.values)
        assert record.round == 0 and record.lr == 0.05

    def test_round_record_shape(self):
        suite = small_suite()
        sources, target = leave_one_out(suite, "dom2")
        cfg = FedConfig(strategy="aligned", batch_size=8)
        record = run_round(init_params(MODEL, Rng(cfg.seed, 0)), 0, sources, cfg, target)
        assert {c["client_id"] for c in record.per_client} == {"dom0", "dom1"}
        assert 0.0 <= record.target_metrics.accuracy <= 1.0
        assert record.trace_audit is None

    def test_mismatched_client_batches_raise_dimension_mismatch(self):
        suite = small_suite()
        wide = DomainDataset("wide", np.zeros((40, 3)), suite.domains[1].labels)
        clients = [suite.domains[0], wide]
        with pytest.raises(DimensionMismatch, match=r"batch shape \(8, 3\)"):
            run_round(init_params(MODEL, Rng(0, 0)), 0, clients, FedConfig(strategy="fedavg", batch_size=8), suite.domains[2])

    def test_errors_name_round_and_client(self):
        suite = small_suite()
        diverging = FedConfig(strategy="fedavg", rounds=30, batch_size=8, lr=1e30, lr_decay=None)
        with pytest.raises(NonFiniteResult, match=r"^round \d+, client dom\d: gradient contains NaN or Inf"):
            run_experiment(suite, "dom2", MODEL, diverging)
        # Client dom1's first local step overflows, while dom0 only diverges
        # after a few; stepped one client at a time, dom0 fails first, so
        # the error names it.
        far = DomainDataset("dom1", np.full((40, 2), 1e300), suite.domains[1].labels)
        suite_far = DomainSuite((suite.domains[0], far, suite.domains[2]), num_classes=2)
        walking = FedConfig(strategy="fedavg", rounds=1, local_steps=12, batch_size=8, lr=1e30, lr_decay=None)
        with pytest.raises(NonFiniteResult, match=r"^round 0, client dom0: gradient contains NaN or Inf$"):
            run_experiment(suite_far, "dom2", MODEL, walking)
        with pytest.raises(NonFiniteResult, match=r"^round 0, client dom1: updated parameters contains NaN or Inf$"):
            run_experiment(suite_far, "dom2", MODEL, FedConfig.from_dict({**walking.to_dict(), "local_steps": 2}))
        too_fine = FedConfig(strategy="aligned", rounds=1, batch_size=8, encrypt=True, scale=2**62)
        with pytest.raises(OverflowAtScale, match=r"^round 0: encoded magnitude"):
            run_experiment(suite, "dom2", MODEL, too_fine)

    def test_label_outside_classes_names_round_and_lowest_client(self):
        # The suite checks labels for the CLI; the API can pair a suite with
        # a model that has fewer classes.
        suite = small_suite()
        params = init_params(MODEL, Rng(0, 0))
        d0, d1, target = suite.domains
        shifted = [replace(d, labels=d.labels + 2) for d in (d0, d1)]
        cfg = FedConfig(strategy="fedavg", batch_size=8)
        with pytest.raises(InvalidSpec, match=r"^round 5, client dom1: labels outside \[0, 2\)$"):
            run_round(params, 5, [d0, shifted[1]], cfg, target)
        with pytest.raises(InvalidSpec, match=r"^round 0, client dom0: labels outside \[0, 2\)$"):
            run_round(params, 0, shifted, cfg, target)
        with pytest.raises(InvalidSpec, match=r"^round 3, client dom1: labels outside \[0, 2\)$"):
            run_round(params, 3, [d0, shifted[1]], replace(cfg, strategy="fedprox", local_steps=3, mu=0.1), target)

    @pytest.mark.parametrize("strategy", ["aligned", "deepall"])
    def test_label_outside_classes_in_a_run_names_its_round(self, strategy):
        suite = small_suite()
        three = DomainSuite(
            tuple(replace(d, labels=d.labels + (d.domain_id == "dom1")) for d in suite.domains), num_classes=3
        )
        client = "pooled" if strategy == "deepall" else "dom1"
        with pytest.raises(InvalidSpec, match=rf"^round \d+, client {client}: labels outside \[0, 2\)$"):
            run_experiment(three, "dom0", MODEL, FedConfig(strategy=strategy, rounds=20, batch_size=2))


class TestPureRound:
    """A round is a pure step over its record: from record t-1's parameters,
    round t gives back record t bit for bit and mutates no argument."""

    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param(dict(strategy="aligned"), id="aligned"),
            pytest.param(dict(strategy="fedavg"), id="fedavg"),
            pytest.param(dict(strategy="fedprox", local_steps=2, lr=0.1), id="fedprox-local2"),
            pytest.param(dict(strategy="aligned", encrypt=True), id="aligned-encrypt"),
        ],
    )
    def test_round_from_a_record_gives_the_next_record(self, extra):
        suite = small_suite()
        cfg = FedConfig(**{"rounds": 4, "batch_size": 4, "seed": 3, **extra})
        records = run_experiment(suite, "dom2", MODEL, cfg).records
        sources, target = leave_one_out(suite, "dom2")
        data = [(ds.features.tobytes(), ds.labels.tobytes()) for ds in sources]
        for t in range(1, cfg.rounds):
            start = records[t - 1].params
            before = start.values.tobytes()
            record = run_round(start, t, sources, cfg, target)
            assert start.values.tobytes() == before
            assert record.round == records[t].round == t
            assert record.params.values.tobytes() == records[t].params.values.tobytes()
            assert record.aggregation.aggregated.tobytes() == records[t].aggregation.aggregated.tobytes()
            assert record.target_metrics == records[t].target_metrics
            assert record.trace_audit == records[t].trace_audit
        assert [(ds.features.tobytes(), ds.labels.tobytes()) for ds in sources] == data
        assert (records[-1].trace_audit is not None) == cfg.encrypt


class TestRoundFailures:
    """A failing round names its client from that client's own row of the
    stacked client phase, as stepping the clients one at a time would."""

    def test_pinned_failures_need_no_client_local_step(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the round stepped a client alone")

        monkeypatch.setattr(federation, "client_local_step", refuse)
        TestRunRound().test_errors_name_round_and_client()
        TestRunRound().test_mismatched_client_batches_raise_dimension_mismatch()
        TestClientRows().test_empty_client_named_by_run_round()

    def test_data_checked_before_any_row_is_drawn(self, monkeypatch):
        suite = small_suite()
        wide = DomainDataset("wide", np.zeros((40, 3)), suite.domains[1].labels)
        empty = DomainDataset("void", np.zeros((0, 2)), np.zeros(0, dtype=int))
        monkeypatch.setattr(federation, "client_rows", None)
        params = init_params(MODEL, Rng(0, 0))
        with pytest.raises(DimensionMismatch, match=r"^batch shape \(8, 3\) does not match input_dim=2$"):
            run_round(params, 0, [suite.domains[0], wide, empty], FedConfig(batch_size=8), suite.domains[2])
        with pytest.raises(EmptyDataset, match="^client void has no data$"):
            run_round(params, 0, [suite.domains[0], empty, wide], FedConfig(batch_size=8), suite.domains[2])

    def test_overflowing_displacement_named_before_a_later_client(self, monkeypatch):
        # Client 0's two steps stay finite: 1.7e308 added to its last
        # coordinate's gradient twice, at lr 0.5, takes that parameter to
        # about -1.7e308.  Its displacement (w_global - w) / lr overflows.
        # Client 1's first gradient is NaN.  Stepped one at a time, client 0
        # fails first, on its displacement.
        def inject(client, step, grad):
            grad = grad.copy()
            if client == 0:
                grad[-1] += 1.7e308
            elif client == 1 and step == 0:
                grad[-1] = math.nan
            return grad

        real = federation.loss_and_grad

        def injecting(w, xs, ys):
            losses, grads = real(w, xs, ys)
            step = injecting.steps
            injecting.steps += 1
            return losses, np.array([inject(k, step, g) for k, g in enumerate(grads)])

        injecting.steps = 0
        suite = small_suite(domains=3, samples=20)
        sources, _ = leave_one_out(suite, "dom2")
        cfg = FedConfig(strategy="fedavg", rounds=1, local_steps=2, batch_size=4, lr=0.5, lr_decay=None, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = one_at_a_time_round_error(sources, init_params(MODEL, Rng(1, 0)), cfg, 0, inject)
        message = "round 0, client dom0: displacement contains NaN or Inf"
        assert type(expected) is NonFiniteResult and str(expected) == message
        monkeypatch.setattr(federation, "loss_and_grad", injecting)
        with pytest.raises(NonFiniteResult, match=f"^{message}$"):
            run_experiment(suite, "dom2", MODEL, cfg)
        assert injecting.steps == 2

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(2, 5),
        local_steps=st.integers(1, 4),
        strategy=st.sampled_from(["fedavg", "fedprox"]),
        lr=st.sampled_from([0.1, 0.5, 1e30]),
        seed=st.integers(0, 3),
        data=st.data(),
    )
    def test_matches_one_client_at_a_time(self, k, local_steps, strategy, lr, seed, data):
        # Injected values add to one coordinate of a client's gradient at one
        # local step, so a gradient that was not finite stays so.  1e300
        # stays finite, but at lr 1e30 its step overflows.  1.7e308 at lr 0.5
        # keeps a step finite, and twice it overflows the displacement.
        inject_at = data.draw(
            st.dictionaries(
                st.tuples(st.integers(0, k - 1), st.integers(0, local_steps - 1)),
                st.sampled_from([math.nan, math.inf, -math.inf, 1e300, 1.7e308]),
                max_size=4,
            )
        )

        def inject(client, step, grad):
            value = inject_at.get((client, step))
            if value is None:
                return grad
            grad = grad.copy()
            grad[0] += value
            return grad

        real, steps = federation.loss_and_grad, []

        def injecting(w, xs, ys):
            losses, grads = real(w, xs, ys)
            step = len(steps)
            steps.append(step)
            for client in range(len(grads)):
                grads[client] = inject(client, step, grads[client])
            return losses, grads

        suite = small_suite(domains=k + 1, samples=20)
        sources, _ = leave_one_out(suite, f"dom{k}")
        cfg = FedConfig(
            strategy=strategy, rounds=1, local_steps=local_steps, batch_size=4, lr=lr, lr_decay=None, seed=seed
        )
        with np.errstate(over="ignore", invalid="ignore"):
            expected = one_at_a_time_round_error(sources, init_params(MODEL, Rng(seed, 0)), cfg, 0, inject)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(federation, "loss_and_grad", injecting)
            if expected is None:
                run_experiment(suite, f"dom{k}", MODEL, cfg)
            else:
                with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
                    run_experiment(suite, f"dom{k}", MODEL, cfg)
        assert len(steps) == local_steps


class TestRunExperiment:
    def test_replay_bit_for_bit(self):
        suite = small_suite()
        cfg = FedConfig(strategy="aligned", rounds=5, batch_size=8, seed=4)
        a = run_experiment(suite, "dom2", MODEL, cfg)
        b = run_experiment(suite, "dom2", MODEL, cfg)
        assert a.params_digest() == b.params_digest()
        assert a.summary() == b.summary()

    @pytest.mark.parametrize("encrypt", [False, True])
    def test_every_record_shares_the_runs_align_config(self, encrypt):
        cfg = FedConfig(strategy="aligned", rounds=4, batch_size=8, seed=4, encrypt=encrypt)
        res = run_experiment(small_suite(), "dom2", MODEL, cfg)
        assert all(r.aggregation.config is cfg.align for r in res.records)

    def test_seed_changes_trajectory(self):
        suite = small_suite()
        runs = {
            run_experiment(
                suite, "dom2", MODEL, FedConfig(strategy="aligned", rounds=3, batch_size=8, seed=s)
            ).params_digest()
            for s in range(3)
        }
        assert len(runs) == 3

    def test_zero_rounds(self):
        suite = small_suite()
        cfg = FedConfig(strategy="fedavg", rounds=0)
        res = run_experiment(suite, "dom1", MODEL, cfg)
        assert res.records == ()
        assert np.array_equal(res.final_params.values, res.initial_params.values)
        assert res.final_target == evaluate(res.initial_params, suite.by_id("dom1"))
        assert res.conflict_round_fraction() == 0.0

    def test_full_batch_single_client_is_centralized_gd(self):
        # One source domain, batch == dataset: every round must reproduce a
        # textbook full-batch gradient step exactly.
        suite = small_suite(domains=2)
        source = suite.domains[0]
        cfg = FedConfig(strategy="fedavg", rounds=3, batch_size=source.num_rows, lr=0.2, seed=6)
        res = run_experiment(suite, "dom1", MODEL, cfg)

        params = init_params(MODEL, Rng(6, 0))
        for _ in range(3):
            _, grad = loss_and_grad(params, source.features, source.labels)
            params = sgd_step(params, grad, 0.2)
        assert np.array_equal(res.final_params.values, params.values)

    def test_all_strategies_coincide_in_degenerate_case(self):
        # Single source client, one local step: alignment has no pairs,
        # fedprox's pull vanishes, and pooling pools one dataset.
        suite = small_suite(domains=2)
        digests = set()
        for strategy in ("fedavg", "fedprox", "aligned", "deepall"):
            cfg = FedConfig(strategy=strategy, rounds=4, batch_size=8, seed=2)
            digests.add(run_experiment(suite, "dom1", MODEL, cfg).params_digest())
        assert len(digests) == 1

    def test_deepall_pools_sources(self):
        suite = small_suite(domains=3)
        cfg = FedConfig(strategy="deepall", rounds=3, batch_size=8, seed=1)
        res = run_experiment(suite, "dom2", MODEL, cfg)

        sources, _ = leave_one_out(suite, "dom2")
        pooled = DomainDataset(
            "pooled",
            np.vstack([s.features for s in sources]),
            np.concatenate([s.labels for s in sources]),
        )
        manual_suite = DomainSuite((pooled, suite.by_id("dom2")), num_classes=2)
        manual = run_experiment(
            manual_suite, "dom2", MODEL, FedConfig(strategy="fedavg", rounds=3, batch_size=8, seed=1)
        )
        assert res.params_digest() == manual.params_digest()
        assert res.config.strategy == "deepall"
        assert res.source_ids == ("pooled",)

    def test_encrypted_run_matches_plain_within_tolerance(self):
        suite = small_suite()
        base = dict(strategy="aligned", rounds=20, batch_size=8, lr=0.1, seed=3)
        plain = run_experiment(suite, "dom2", MODEL, FedConfig(**base))
        enc = run_experiment(suite, "dom2", MODEL, FedConfig(**base, encrypt=True))
        diff = np.max(np.abs(plain.final_params.values - enc.final_params.values))
        assert diff <= 1e-6
        assert all(r.trace_audit is not None for r in enc.records)
        assert all(
            set(r.trace_audit["tag_counts"]) <= {"ENC", "ADD", "SUB", "MUL"} for r in enc.records
        )

    def test_encrypted_fedavg_also_audited(self):
        suite = small_suite()
        cfg = FedConfig(strategy="fedavg", rounds=3, batch_size=8, encrypt=True)
        res = run_experiment(suite, "dom1", MODEL, cfg)
        assert all(r.trace_audit is not None for r in res.records)

    def test_encrypted_replay_takes_the_reports_config_and_weights(self, monkeypatch):
        calls = []
        replay = federation.aligned_aggregate_encrypted
        monkeypatch.setattr(
            federation, "aligned_aggregate_encrypted", lambda *a: calls.append((a[1], a[4])) or replay(*a)
        )
        cfg = FedConfig(
            strategy="aligned", rounds=3, batch_size=8, encrypt=True,
            weighting="sample_weighted", accumulate=False, align_target="current",
        )
        res = run_experiment(small_suite(), "dom1", MODEL, cfg)
        assert len(calls) == len(res.records) == 3
        for (config, weights), r in zip(calls, res.records):
            assert config is r.aggregation.config
            assert (config.weighting, config.accumulate, config.target) == ("sample_weighted", False, "current")
            assert weights is r.aggregation.weights

    def test_encrypted_many_clients_matches_plain_aggregate(self):
        # The benchmark's many-clients shape: K=32 sources, P=2002.
        k = 32
        degrees = tuple(90.0 * d / k for d in range(k + 1))
        suite = generate(SyntheticSpec(num_domains=k + 1, samples_per_domain=50, rotation_degrees=degrees))
        cfg = FedConfig(strategy="aligned", rounds=2, batch_size=10, encrypt=True)
        res = run_experiment(suite, f"dom{k}", ModelSpec(2, 400, 2), cfg)
        for r in res.records:
            rep = r.aggregation
            assert rep.aligned.shape == (k, 2002)
            plain = weighted_sum(list(rep.aligned), rep.weights)
            assert np.max(np.abs(rep.aggregated - plain)) <= 1e-6
            assert r.trace_audit["coordinates"] == 2002

    def test_trajectory_stays_finite(self):
        suite = small_suite()
        cfg = FedConfig(strategy="aligned", rounds=25, batch_size=4, lr=0.3)
        res = run_experiment(suite, "dom0", MODEL, cfg)
        for r in res.records:
            assert math.isfinite(r.target_metrics.loss)
            assert all(math.isfinite(c["grad_norm"]) for c in r.per_client)
        assert np.all(np.isfinite(res.final_params.values))

    def test_lr_decay_visible_in_records(self):
        suite = small_suite()
        cfg = FedConfig(strategy="fedavg", rounds=6, batch_size=8, lr=0.4, lr_decay=LrDecay(3, 2.0))
        res = run_experiment(suite, "dom1", MODEL, cfg)
        assert [r.lr for r in res.records] == [0.4, 0.4, 0.4, 0.2, 0.2, 0.2]

    def test_summary_contents(self):
        suite = small_suite()
        cfg = FedConfig(strategy="aligned", rounds=4, batch_size=8, seed=5)
        s = run_experiment(suite, "dom0", MODEL, cfg).summary()
        assert s["strategy"] == "aligned" and s["target"] == "dom0"
        assert s["sources"] == ["dom1", "dom2"]
        assert s["rounds"] == 4 and s["seed"] == 5
        assert 0.0 <= s["final_target_accuracy"] <= 1.0
        assert s["best_target_accuracy"] >= s["final_target_accuracy"] - 1e-12
        assert len(s["final_params_sha256"]) == 64

    def test_summary_variance_null_without_conflicts(self):
        suite = small_suite()
        cfg = FedConfig(strategy="fedavg", rounds=0)
        s = run_experiment(suite, "dom1", MODEL, cfg).summary()
        assert s["mean_variance_before_on_conflict_rounds"] is None
        assert s["mean_variance_after_on_conflict_rounds"] is None
        assert s["conflict_round_fraction"] == 0.0
        # Rounds with one client test no pair, so none conflicts.
        res = run_experiment(small_suite(domains=2), "dom1", MODEL, FedConfig(strategy="aligned", rounds=3, batch_size=8))
        s = res.summary()
        assert len(res.records) == 3 and s["conflict_round_fraction"] == res.conflict_round_fraction() == 0.0
        assert s["mean_variance_before_on_conflict_rounds"] is None
        assert s["mean_variance_after_on_conflict_rounds"] is None

    def test_summary_reads_each_records_conflicts_once(self, monkeypatch):
        res = run_experiment(small_suite(), "dom0", MODEL, FedConfig(strategy="aligned", rounds=12, batch_size=2))
        hits = [r.aggregation for r in res.records if r.aggregation.num_conflicts > 0]
        assert 0 < len(hits) < len(res.records), "the run must mix conflict and no-conflict rounds"
        reads = []
        count = AggregationReport.num_conflicts.fget
        monkeypatch.setattr(AggregationReport, "num_conflicts", property(lambda rep: reads.append(rep) or count(rep)))
        s = res.summary()
        assert [id(rep) for rep in reads] == [id(r.aggregation) for r in res.records]
        assert s["conflict_round_fraction"] == len(hits) / len(res.records)
        assert s["mean_variance_before_on_conflict_rounds"] == float(np.mean([a.variance_before for a in hits]))
        assert s["mean_variance_after_on_conflict_rounds"] == float(np.mean([a.variance_after for a in hits]))

    def test_csv_rows_columns(self):
        suite = small_suite()
        cfg = FedConfig(strategy="aligned", rounds=3, batch_size=8)
        rows = run_experiment(suite, "dom2", MODEL, cfg).csv_rows()
        assert len(rows) == 3
        assert all(tuple(r.keys()) == ROUND_CSV_COLUMNS for r in rows)

    def test_logreg_model_supported(self):
        suite = small_suite()
        cfg = FedConfig(strategy="aligned", rounds=3, batch_size=8)
        res = run_experiment(suite, "dom1", LOGREG, cfg)
        assert np.all(np.isfinite(res.final_params.values))


class TestCsvRowsReplay:
    """``csv_rows`` evaluates the sources at each record's parameters; the
    mean source figures must equal evaluating every source right after each
    round, bit for bit.  The schedule decays lr every 3 rounds."""

    @pytest.mark.parametrize(
        "strategy, extra",
        [
            pytest.param("aligned", {}, id="aligned"),
            pytest.param("fedavg", {}, id="fedavg"),
            pytest.param("fedprox", {"local_steps": 2}, id="fedprox-local2"),
            pytest.param("deepall", {}, id="deepall"),
            pytest.param("aligned", {"encrypt": True}, id="aligned-encrypted"),
        ],
    )
    # "weighted" evaluates the sources as the removed class-weighted loss
    # did at weights of one (see ``_oracles``).
    @pytest.mark.parametrize("unit_weights", [False, True], ids=["plain", "weighted"])
    def test_matches_reference(self, strategy, extra, unit_weights):
        suite = small_suite()
        cfg = FedConfig(
            strategy=strategy, rounds=8, batch_size=4, lr=0.5, lr_decay=LrDecay(3, 4.0), seed=5, **extra
        )
        res = run_experiment(suite, "dom2", MODEL, cfg)
        means, final = reference_source_means(suite, "dom2", MODEL, cfg, unit_weights)
        rows = res.csv_rows()
        got = [(r["mean_source_accuracy"].hex(), r["mean_source_loss"].hex()) for r in rows]
        assert got == [(acc.hex(), value.hex()) for acc, value in means]
        assert res.final_params.values.tobytes() == final.values.tobytes()


class TestReferenceRun:
    """A run against ``_oracles.reference_run``, the simulator written the
    slow, obvious way: every record's parameters, target figures, client
    figures, ``rounds.csv`` row and encryption audit, the final parameters,
    and a failing run's error type and message, bit for bit."""

    @staticmethod
    def suite_of(sizes, seed):
        # Client k keeps its first sizes[k] rows, so a batch can be below,
        # at or above a client's row count, and the sample weights differ.
        full = small_suite(seed=seed, domains=len(sizes) + 1, samples=12)
        kept = [replace(d, features=d.features[:n], labels=d.labels[:n]) for d, n in zip(full.domains, sizes)]
        return DomainSuite((*kept, full.domains[-1]), num_classes=2), full.domains[-1].domain_id

    @staticmethod
    def assert_same_run(res, expected, final):
        assert len(res.records) == len(expected) == res.config.rounds
        for record, ref in zip(res.records, expected):
            assert record.params.values.tobytes() == ref["params"].values.tobytes()
            assert repr(record.target_metrics) == repr(ref["target_metrics"])
            assert repr(list(record.per_client)) == repr(ref["per_client"])
            assert repr(record.trace_audit) == repr(ref["trace_audit"])
        assert repr(res.csv_rows()) == repr([ref["csv_row"] for ref in expected])
        assert res.final_params.values.tobytes() == final.values.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        strategy=st.sampled_from(["fedavg", "fedprox", "aligned", "deepall"]),
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=5),
        local_steps=st.integers(1, 3),
        batch_size=st.integers(1, 6),
        rounds=st.integers(0, 8),
        accumulate=st.booleans(),
        align_target=st.sampled_from(["original", "current"]),
        order_mode=st.sampled_from(["random", "fixed"]),
        weighting=st.sampled_from([None, "uniform", "sample_weighted"]),
        lr=st.sampled_from([0.3, 0.5]),
        decay=st.sampled_from([None, LrDecay(2, 4.0)]),
        model=st.sampled_from([MODEL, LOGREG, ModelSpec(input_dim=2, hidden_dim=3, activation="tanh")]),
        seed=st.integers(0, 3),
    )
    def test_matches_reference(
        self, strategy, sizes, local_steps, batch_size, rounds, accumulate, align_target, order_mode, weighting,
        lr, decay, model, seed,
    ):
        suite, target = self.suite_of(sizes, seed)
        cfg = FedConfig(
            strategy=strategy, rounds=rounds, local_steps=local_steps, batch_size=batch_size, lr=lr,
            lr_decay=decay, weighting=weighting, seed=seed, accumulate=accumulate, align_target=align_target,
            order_mode=order_mode,
        )
        self.assert_same_run(run_experiment(suite, target, model, cfg), *reference_run(suite, target, model, cfg))

    def assert_same_outcome(self, suite, target, model, cfg):
        """The run equals the reference's, or fails with its error: the
        same type and message."""
        try:
            expected = reference_run(suite, target, model, cfg)
        except (NonFiniteResult, OverflowAtScale) as exc:
            with pytest.raises(type(exc)) as raised:
                run_experiment(suite, target, model, cfg)
            assert type(raised.value) is type(exc)
            assert str(raised.value) == str(exc)
        else:
            self.assert_same_run(run_experiment(suite, target, model, cfg), *expected)

    @settings(max_examples=100, deadline=None)
    @given(
        strategy=st.sampled_from(["fedavg", "fedprox", "aligned", "deepall"]),
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=5),
        local_steps=st.integers(1, 3),
        batch_size=st.integers(1, 6),
        rounds=st.integers(1, 6),
        accumulate=st.booleans(),
        align_target=st.sampled_from(["original", "current"]),
        order_mode=st.sampled_from(["random", "fixed"]),
        weighting=st.sampled_from([None, "uniform", "sample_weighted"]),
        lr=st.sampled_from([0.3, 0.5]),
        model=st.sampled_from([MODEL, LOGREG, ModelSpec(input_dim=2, hidden_dim=3, activation="tanh")]),
        seed=st.integers(0, 3),
        scale=st.sampled_from([2**16, 2**24, 2**28, 2**30]),
    )
    def test_encrypted_runs_match_reference(
        self, strategy, sizes, local_steps, batch_size, rounds, accumulate, align_target, order_mode, weighting,
        lr, model, seed, scale,
    ):
        # At 2**30 the aligned replay's E(2) overflows the codec range, so
        # those runs fail in their first round.
        suite, target = self.suite_of(sizes, seed)
        cfg = FedConfig(
            strategy=strategy, rounds=rounds, local_steps=local_steps, batch_size=batch_size, lr=lr,
            weighting=weighting, seed=seed, accumulate=accumulate, align_target=align_target,
            order_mode=order_mode, encrypt=True, scale=scale,
        )
        self.assert_same_outcome(suite, target, model, cfg)

    @settings(max_examples=100, deadline=None)
    @given(
        strategy=st.sampled_from(["fedavg", "fedprox", "aligned", "deepall"]),
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=5),
        local_steps=st.integers(1, 3),
        batch_size=st.integers(1, 6),
        rounds=st.integers(1, 8),
        accumulate=st.booleans(),
        align_target=st.sampled_from(["original", "current"]),
        lr=st.sampled_from([3e5, 1e30, 1e200]),
        model=st.sampled_from([MODEL, LOGREG, ModelSpec(input_dim=2, hidden_dim=3, activation="tanh")]),
        seed=st.integers(0, 3),
        encrypt=st.booleans(),
        scale=st.sampled_from([2**10, 2**24, 2**28]),
    )
    def test_failing_runs_match_reference(
        self, strategy, sizes, local_steps, batch_size, rounds, accumulate, align_target, lr, model, seed,
        encrypt, scale,
    ):
        # A large lr diverges within a few rounds, in the model or past the
        # cipher's fixed-point range.
        suite, target = self.suite_of(sizes, seed)
        cfg = FedConfig(
            strategy=strategy, rounds=rounds, local_steps=local_steps, batch_size=batch_size, lr=lr, seed=seed,
            accumulate=accumulate, align_target=align_target, encrypt=encrypt, scale=scale,
        )
        self.assert_same_outcome(suite, target, model, cfg)


class TestGradNorms:
    """Each client's recorded ``grad_norm`` is ``sqrt(dot(g, g))`` of its
    update, and the ``mean_grad_norm`` column their mean, bit for bit.  The
    updates are recomputed from the recorded steps with ``client_phase``."""

    @pytest.mark.parametrize("hidden", [8, 128, 400], ids=["P42", "P642", "P2002"])
    @pytest.mark.parametrize(
        "strategy, extra", [("aligned", {}), ("fedprox", {"local_steps": 2})], ids=["aligned", "fedprox-local2"]
    )
    def test_norms_are_dot_products(self, hidden, strategy, extra):
        model = ModelSpec(input_dim=2, hidden_dim=hidden, num_classes=2)
        assert model.param_count == 5 * hidden + 2
        cfg = FedConfig(
            strategy=strategy, rounds=4, batch_size=4, lr=0.5, lr_decay=LrDecay(2, 4.0), seed=5, **extra
        )
        res = run_experiment(small_suite(), "dom2", model, cfg)
        sources = list(res.sources)
        params = res.initial_params
        for record, row in zip(res.records, res.csv_rows()):
            rows = [
                client_rows(cfg.seed, k, record.round, ds.num_rows, cfg.batch_size, cfg.local_steps)
                for k, ds in enumerate(sources)
            ]
            _, grads = client_phase(sources, params, cfg, rows, record.lr)
            norms = [math.sqrt(dot(g, g)) for g in grads]
            assert [c["grad_norm"].hex() for c in record.per_client] == [v.hex() for v in norms]
            assert row["mean_grad_norm"].hex() == float(np.mean(norms)).hex()
            params = replace(params, values=params.values - record.lr * record.aggregation.aggregated)

    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param(dict(strategy="aligned"), id="aligned"),
            pytest.param(dict(strategy="fedavg"), id="fedavg"),
            pytest.param(dict(strategy="fedprox", local_steps=2, lr=0.1), id="fedprox-local2"),
            pytest.param(dict(strategy="deepall"), id="deepall"),
            pytest.param(dict(strategy="aligned", encrypt=True), id="aligned-encrypt"),
            pytest.param(dict(strategy="fedavg", encrypt=True), id="fedavg-encrypt"),
        ],
    )
    def test_norms_are_the_reports_row_squares(self, extra):
        # Every strategy reads its norms from the one source, the report.
        cfg = FedConfig(**{"rounds": 4, "batch_size": 4, "seed": 3, **extra})
        res = run_experiment(small_suite(), "dom2", MODEL, cfg)
        for record in res.records:
            squares = record.aggregation.row_squares
            assert len(squares) == len(record.per_client) == len(res.sources)
            norms = [math.sqrt(v) for v in squares.tolist()]
            assert [c["grad_norm"].hex() for c in record.per_client] == [v.hex() for v in norms]


class TestPlainGoldenDigests:
    """Final parameters of 50 plaintext rounds on the default benchmark,
    pinned so a change to the sampler or the training loop that moves a
    single bit of any strategy's trajectory shows up here."""

    @pytest.mark.parametrize(
        "strategy, extra, digest",
        [
            ("aligned", {}, "e7aff87f90519b62fc777a83d8a65e8959dcd8714b3cbf2d2e2ca50000383117"),
            ("fedavg", {}, "31c59b761ffc78bd35465e263bdfc4a5508f457bfe7a89174eadd32689c3bff9"),
            ("fedprox", {"local_steps": 3}, "1604da21e8a783c22c4c2aefd2e205786750173317ab7eeb81501b0fafcbf4aa"),
            ("deepall", {}, "80321d8d820777b6f17935d69cf06986a4fd1e22d82ed3851aa658bbf59eae67"),
        ],
    )
    def test_pinned(self, strategy, extra, digest):
        cfg = FedConfig(strategy=strategy, rounds=50, seed=0, **extra)
        res = run_experiment(generate(default_benchmark_spec(0)), "dom3", ModelSpec(2, 8, 2), cfg)
        assert res.summary()["final_params_sha256"] == digest


class TestEncryptedGoldenDigests:
    """Final parameters and per-run trace-tag totals of 50 encrypted rounds
    on the default benchmark, pinned so a change to the cipher handles that
    moves a single bit of any decrypted aggregate shows up here."""

    @pytest.mark.parametrize(
        "strategy, digest, total_tags",
        [
            ("aligned", "a7e370f49419ad795c763f151d6f91816c1c5501770b2c1767cc57f0a1109bb3", 70140),
            ("fedavg", "2662df2570e31a048775df7cf5db085d1be6e14f711abcf24f1cca678830f732", 23100),
        ],
    )
    def test_pinned(self, strategy, digest, total_tags):
        cfg = FedConfig(strategy=strategy, rounds=50, seed=0, encrypt=True)
        res = run_experiment(generate(default_benchmark_spec(seed=0)), "dom3", ModelSpec(2, 8, 2), cfg)
        assert res.summary()["final_params_sha256"] == digest
        assert sum(r.trace_audit["total_tags"] for r in res.records) == total_tags

    def test_pinned_at_benchmark_shape(self):
        # The encrypted benchmark workload's shape and schedule: aligned,
        # hidden 128 (P=642), 30 rounds, lr 0.2 divided by 10 every 20.
        cfg = FedConfig(strategy="aligned", rounds=30, seed=0, encrypt=True, lr=0.2, lr_decay=LrDecay(20, 10.0))
        res = run_experiment(generate(default_benchmark_spec(seed=0)), "dom3", ModelSpec(2, 128, 2), cfg)
        assert sum(r.aggregation.num_conflicts for r in res.records) == 64
        assert res.summary()["final_params_sha256"] == "22001a0a7813a5b72685160f3bf2f7defc8be70e6a422264d251cd26ee74042c"
        assert sum(r.trace_audit["total_tags"] for r in res.records) == 607332


# (strategy, scale exponent, lr, final params digest or (round, magnitude)),
# pinned from a cipher that range-scanned after every operator.
ENCRYPTED_OUTCOMES = [
    ("aligned", 26, 0.2, "5514a57491ea8799d9887e579c12a274cfa115282f904762f828a301b9a85802"),
    ("aligned", 26, 2, "83725e21439ad2d20797378bbaaf99e2be8b8fb1112a22f583d0b38060d78b9c"),
    ("aligned", 26, 20, (2, "3.81525e+09")),
    ("aligned", 27, 0.2, "c5c15a2c8b6eb1560721ad09d4f581332d85707128f537b96c6acc18e82a6e1a"),
    ("aligned", 27, 2, "efcbd5cd070ee96f0c0ba4caf996dd4c8d07dd9eeaf2253d56c6c85ec1c39736"),
    ("aligned", 27, 20, (2, "7.63051e+09")),
    ("aligned", 28, 0.2, "0d01e280880564c98001fa0da2082ab3c469a3fafd9f5750e9281d974fc2d9c8"),
    ("aligned", 28, 2, "c5c6ab65bc04b634c28e52b538946215cdd7a6a017de7a56d074652239b70078"),
    ("aligned", 28, 20, (2, "1.5261e+10")),
    ("aligned", 29, 0.2, "41017eddbd3161004b12283b5798f6f3927bfbce67237596bcf1b5a29128bb4c"),
    ("aligned", 29, 2, (10, "2.44062e+09")),
    ("aligned", 29, 20, (1, "3.3138e+09")),
    ("aligned", 30, 0.2, (0, "2.14748e+09")),
    ("aligned", 30, 2, (0, "2.14748e+09")),
    ("aligned", 30, 20, (0, "2.14748e+09")),
    ("aligned", 31, 0.2, (0, "4.29497e+09")),
    ("aligned", 31, 2, (0, "4.29497e+09")),
    ("aligned", 31, 20, (0, "4.29497e+09")),
    ("fedavg", 26, 0.2, "194ed9717feb97722d164f77467e2220cd05bc8ebe1c40b9f19acfea0756fc34"),
    ("fedavg", 26, 2, "7cc1fea72a9f6083c8d4d04126a3e7e727559400f118c5e5caf273236dad828d"),
    ("fedavg", 26, 20, (2, "3.81523e+09")),
    ("fedavg", 27, 0.2, "4078fd0faf60c7f39d8150637b635fcddd22cd7b8112f50966a8b1a6778e27f5"),
    ("fedavg", 27, 2, "1ab16509c2b8169b6d8fdfed43edeb401c83c177b29c76b541e094bb646c66d8"),
    ("fedavg", 27, 20, (2, "7.63046e+09")),
    ("fedavg", 28, 0.2, "4861b0d884b20a6a7cd138863ba69b7501bd5693493a3afcb0c23a2d2bd2a99a"),
    ("fedavg", 28, 2, "2f6b662cbd9f1a02c819b5ae561d6c8fdc77e7ff1c8a3b77ea3c8c7dac0702fa"),
    ("fedavg", 28, 20, (2, "1.52609e+10")),
    ("fedavg", 29, 0.2, "2c61288d7975a2b3ccbcb783ec50ea5cedb4189c7c2f1669af6cdc16556983f2"),
    ("fedavg", 29, 2, (10, "2.41478e+09")),
    ("fedavg", 29, 20, (1, "3.3138e+09")),
    ("fedavg", 30, 0.2, "f94f90665fc7806fce02347d0f88cc412ad3495fa8e01fca005505cec75fd444"),
    ("fedavg", 30, 2, (8, "3.75436e+09")),
    ("fedavg", 30, 20, (1, "6.6276e+09")),
    ("fedavg", 31, 0.2, (3, "2.18771e+09")),
    ("fedavg", 31, 2, (1, "2.72802e+09")),
    ("fedavg", 31, 20, (1, "1.32552e+10")),
]


class TestEncryptedOverflowOutcomes:
    """How each of 36 encrypted runs ends, pinned: its final parameters, or
    the round and full message of its ``OverflowAtScale``.  The grid walks
    the codec scale up to the limit where encoding 2.0 overflows (2^30),
    and lr up to where the weights outgrow the range, so an operator that
    skipped or moved a range check would change an entry."""

    @pytest.mark.parametrize(
        "strategy, exponent, lr, outcome",
        [pytest.param(*row, id=f"{row[0]}-2^{row[1]}-lr{row[2]}") for row in ENCRYPTED_OUTCOMES],
    )
    def test_pinned(self, strategy, exponent, lr, outcome):
        cfg = FedConfig(
            strategy=strategy, rounds=40, seed=0, encrypt=True, scale=2**exponent, lr=lr, lr_decay=None
        )
        suite = generate(default_benchmark_spec(0))
        if isinstance(outcome, str):
            res = run_experiment(suite, "dom3", ModelSpec(2, 8, 2), cfg)
            assert res.summary()["final_params_sha256"] == outcome
            return
        round_index, magnitude = outcome
        with pytest.raises(OverflowAtScale) as err:
            run_experiment(suite, "dom3", ModelSpec(2, 8, 2), cfg)
        assert str(err.value) == (
            f"round {round_index}: encoded magnitude {magnitude} exceeds the codec range "
            f"(|value| must stay below {2 ** (31 - exponent)} at scale {2**exponent})"
        )

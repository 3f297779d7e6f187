import math

import numpy as np
import pytest

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
    ServerState,
    client_local_step,
    client_phase,
    client_rows,
    effective_lr,
    run_experiment,
    run_round,
)
from fedalign.models import ModelSpec, init_params, loss_and_grad, sgd_step
from fedalign.numcore import Rng
from fedalign.sweep import SweepSpec, run_sweep

from _oracles import reference_source_means

MODEL = ModelSpec(input_dim=2, hidden_dim=4, num_classes=2, activation="relu")
LOGREG = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2, activation="relu")


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
        ],
    )
    def test_validation_names_field(self, kwargs, field):
        with pytest.raises(ConfigError) as err:
            FedConfig(**kwargs)
        assert err.value.field == field

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
        updates = client_phase(clients, params, cfg, rows)
        for k, (ds, update) in enumerate(zip(clients, updates)):
            alone = client_local_step(ds, params, cfg, Rng(5, 1, k, 0))
            assert update.client_id == ds.domain_id
            assert update.gradient.tobytes() == alone.gradient.tobytes()
            assert float(update.local_loss).hex() == float(alone.local_loss).hex()
            assert update.num_samples == alone.num_samples

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
    def test_cold_and_warm_cache_give_same_bits(self, extra):
        suite = small_suite()
        cfg = FedConfig(**{"rounds": 6, "batch_size": 4, "seed": 3, **extra})
        client_rows.clear()
        cold = run_experiment(suite, "dom2", MODEL, cfg)
        misses = client_rows.misses
        warm = run_experiment(suite, "dom2", MODEL, cfg)
        assert client_rows.misses == misses > 0
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

    def test_stores_nothing_past_the_budget(self):
        # Room for two entries of one batch-4 selection: the third is drawn
        # exactly as a fresh draw but not stored, and the first two still hit.
        memo = RowsMemo(budget=2 * (200 + 150 + 4 * 8))
        first = [memo(0, 0, t, 40, 4, 1) for t in range(3)]
        assert len(memo.entries) == 2 and memo.nbytes <= memo.budget
        again = [memo(0, 0, t, 40, 4, 1) for t in range(3)]
        assert [a is b for a, b in zip(first, again)] == [True, True, False]
        assert np.array_equal(first[2][0], again[2][0]) and memo.misses == 4

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
        built = []

        def counting_rng(*key):
            built.append(key)
            return Rng(*key)

        monkeypatch.setattr(federation, "Rng", counting_rng)
        client_rows.clear()
        spec = SweepSpec(strategies=("fedavg", "aligned"), seeds=(0,), targets=("dom2",))
        result = run_sweep(small_suite(), MODEL, {"rounds": 5, "batch_size": 4}, spec, jobs=1)
        assert all(c.error is None for c in result.cells)
        client_streams = [key for key in built if key[1:2] == (1,)]
        assert sorted(client_streams) == sorted((0, 1, k, t) for k in range(2) for t in range(5))

    def test_sweep_runs_seed_by_seed(self, monkeypatch):
        # The memo holds one seed, so the cells must run seed by seed for
        # every seed's K * R client streams to be built once, however many
        # seeds there are; results stay in grid order.
        built = []

        def counting_rng(*key):
            built.append(key)
            return Rng(*key)

        monkeypatch.setattr(federation, "Rng", counting_rng)
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
        client_streams = [key for key in built if key[1:2] == (1,)]
        assert sorted(client_streams) == sorted(
            (seed, 1, k, t) for seed in spec.seeds for k in range(2) for t in range(3)
        )

    def test_empty_client_named_by_run_round(self):
        suite = small_suite()
        empty = DomainDataset("void", np.zeros((0, 2)), np.zeros(0, dtype=int))
        clients = [suite.domains[0], empty]
        server = ServerState(params=init_params(MODEL, Rng(0, 0)))
        with pytest.raises(EmptyDataset, match="^client void has no data$"):
            run_round(server, clients, FedConfig(), suite.domains[2])


class TestRunRound:
    def test_applies_lr_times_aggregate(self):
        suite = small_suite()
        sources, target = leave_one_out(suite, "dom2")
        cfg = FedConfig(strategy="fedavg", batch_size=8, lr=0.05)
        params = init_params(MODEL, Rng(cfg.seed, 0))
        server = ServerState(params=params)
        record = run_round(server, sources, cfg, target)
        expected = sgd_step(params, record.aggregation.aggregated, 0.05)
        assert np.array_equal(server.params.values, expected.values)
        assert server.round_index == 1
        assert record.round == 0 and record.lr == 0.05

    def test_round_record_shape(self):
        suite = small_suite()
        sources, target = leave_one_out(suite, "dom2")
        cfg = FedConfig(strategy="aligned", batch_size=8)
        server = ServerState(params=init_params(MODEL, Rng(cfg.seed, 0)))
        record = run_round(server, sources, cfg, target)
        assert {c["client_id"] for c in record.per_client} == {"dom0", "dom1"}
        assert 0.0 <= record.target_metrics.accuracy <= 1.0
        assert record.trace_audit is None

    def test_mismatched_client_batches_raise_dimension_mismatch(self):
        suite = small_suite()
        wide = DomainDataset("wide", np.zeros((40, 3)), suite.domains[1].labels)
        clients = [suite.domains[0], wide]
        server = ServerState(params=init_params(MODEL, Rng(0, 0)))
        with pytest.raises(DimensionMismatch, match=r"batch shape \(8, 3\)"):
            run_round(server, clients, FedConfig(strategy="fedavg", batch_size=8), suite.domains[2])

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


class TestRunExperiment:
    def test_replay_bit_for_bit(self):
        suite = small_suite()
        cfg = FedConfig(strategy="aligned", rounds=5, batch_size=8, seed=4)
        a = run_experiment(suite, "dom2", MODEL, cfg)
        b = run_experiment(suite, "dom2", MODEL, cfg)
        assert a.params_digest() == b.params_digest()
        assert a.summary() == b.summary()

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
    """``csv_rows`` derives the mean source figures by replaying the
    recorded steps; they must equal evaluating every source right after
    each round, bit for bit.  The schedule decays lr every 3 rounds, so
    replaying with the base lr instead of the recorded one shows."""

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

import concurrent.futures
import math
import subprocess
import sys

import pytest

from fedalign import federation, sweep
from fedalign.domains import SyntheticSpec, generate
from fedalign.errors import ConfigError
from fedalign.federation import FedConfig, run_experiment
from fedalign.models import ModelSpec
from fedalign.sweep import RESULT_CSV_COLUMNS, SweepSpec, run_sweep, strategy_configs

from _oracles import checkout_env

MODEL = ModelSpec(input_dim=2, hidden_dim=4, num_classes=2, activation="relu")
BASE = {"rounds": 4, "batch_size": 8, "lr": 0.1, "lr_decay": None}
# A strategy override whose cells diverge and fail, at round 6.
DIVERGING = {"lr": 1e30, "rounds": 10}


@pytest.fixture(scope="module")
def suite():
    return generate(
        SyntheticSpec(
            num_domains=3,
            rotation_degrees=(0.0, 20.0, 40.0),
            samples_per_domain=30,
        )
    )


class TestSweepSpec:
    def test_round_trip(self):
        d = {
            "strategies": ["fedavg", "aligned"],
            "seeds": [0, 1],
            "targets": ["dom0"],
            "overrides": {"aligned": {"lambda": 0.2}},
        }
        spec = SweepSpec.from_dict(d)
        assert spec.strategies == ("fedavg", "aligned")
        assert spec.seeds == (0, 1)
        assert spec.overrides == {"aligned": {"lambda": 0.2}}

    @pytest.mark.parametrize(
        "patch",
        [
            {"strategies": []},
            {"seeds": []},
            {"targets": []},
            {"strategies": ["fedsgd"]},
            {"overrides": {"fedprox": {}}},  # strategy not in the sweep
            {"overrides": {"fedavg": 0.1}},
            {"overrides": {"fedavg": {"strategy": "aligned"}}},
            {"overrides": {"fedavg": {"seed": 3}}},
        ],
    )
    def test_validation(self, patch):
        base = {"strategies": ["fedavg"], "seeds": [0], "targets": ["dom0"]}
        with pytest.raises(ConfigError):
            SweepSpec.from_dict({**base, **patch})

    @pytest.mark.parametrize(
        "patch, field",
        [
            (dict(seeds=5), "sweep.seeds"),
            (dict(strategies="aligned"), "sweep.strategies"),
            (dict(targets=None), "sweep.targets"),
            (dict(overrides=[1]), "sweep.overrides"),
            (dict(overrides=[("aligned", {})]), "sweep.overrides"),
        ],
        ids=["seeds-int", "strategies-string", "targets-none", "overrides-list", "overrides-pairs"],
    )
    def test_python_api_names_field(self, patch, field):
        # from_dict checks the JSON types first; only the Python API reaches these.
        with pytest.raises(ConfigError) as err:
            SweepSpec(**{**dict(strategies=("aligned",), seeds=(0,), targets=("dom0",)), **patch})
        assert err.value.field == field and err.value.message.startswith("must be a ")

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            SweepSpec.from_dict(
                {"strategies": ["fedavg"], "seeds": [0], "targets": ["dom0"], "repeat": 3}
            )
        assert err.value.field == "sweep.repeat"

    def test_missing_key(self):
        with pytest.raises(ConfigError):
            SweepSpec.from_dict({"strategies": ["fedavg"], "seeds": [0]})

    def test_override_error_names_strategy(self):
        spec = SweepSpec(
            strategies=("fedavg", "aligned"),
            seeds=(0,),
            targets=("dom0",),
            overrides={"aligned": {"lambda": 0.9}},
        )
        fedavg_only = SweepSpec(strategies=("fedavg",), seeds=(0,), targets=("dom0",))
        assert strategy_configs(BASE, fedavg_only)["fedavg"].strategy == "fedavg"
        with pytest.raises(ConfigError) as err:
            strategy_configs(BASE, spec)
        assert err.value.field == "sweep.overrides.aligned.lambda"

    def test_deepall_is_a_valid_strategy(self):
        spec = SweepSpec(strategies=("deepall",), seeds=(0,), targets=("dom0",))
        assert spec.strategies == ("deepall",)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and maps
    in this process."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestRunSweep:
    @pytest.mark.parametrize("jobs, cells, workers", [(5000, 2, [2]), (2, 4, [2]), (3, 1, []), (1, 4, [])])
    def test_workers_at_most_one_per_cell(self, suite, monkeypatch, jobs, cells, workers):
        monkeypatch.setattr(_RecordingPool, "started", [])
        # run_sweep imports the pool from concurrent.futures when it starts one.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        spec = SweepSpec(strategies=("fedavg",), seeds=tuple(range(cells)), targets=("dom0",))
        result = run_sweep(suite, MODEL, BASE, spec, jobs=jobs)
        assert _RecordingPool.started == workers
        assert len(result.cells) == cells and all(c.error is None for c in result.cells)

    def test_grid_order_and_shape(self, suite):
        spec = SweepSpec(
            strategies=("fedavg", "aligned"), seeds=(0, 1, 2), targets=("dom0", "dom2")
        )
        result = run_sweep(suite, MODEL, BASE, spec)
        assert len(result.cells) == 2 * 2 * 3
        # Strategy-major, then target, then seed.
        keys = [(c.strategy, c.target, c.seed) for c in result.cells]
        assert keys == [
            (s, t, d) for s in ("fedavg", "aligned") for t in ("dom0", "dom2") for d in (0, 1, 2)
        ]
        assert all(c.error is None for c in result.cells)

    def test_rows_match_columns(self, suite):
        spec = SweepSpec(strategies=("fedavg",), seeds=(0,), targets=("dom1",))
        rows = run_sweep(suite, MODEL, BASE, spec).results_rows()
        assert tuple(rows[0].keys()) == RESULT_CSV_COLUMNS

    def test_aggregate_table(self, suite):
        spec = SweepSpec(strategies=("fedavg", "deepall"), seeds=(0, 1), targets=("dom0", "dom1"))
        result = run_sweep(suite, MODEL, BASE, spec)
        agg = result.aggregate_rows()
        assert [r["strategy"] for r in agg] == ["fedavg", "deepall"]
        for row in agg:
            per_target = [row["dom0"], row["dom1"]]
            assert abs(row["average"] - sum(per_target) / 2) < 1e-12
        assert result.aggregate_columns() == ("strategy", "dom0", "dom1", "average")

    def test_mean_accuracy_matches_cells(self, suite):
        spec = SweepSpec(strategies=("fedavg",), seeds=(0, 1), targets=("dom0",))
        result = run_sweep(suite, MODEL, BASE, spec)
        manual = sum(c.final_target_accuracy for c in result.cells) / 2
        assert abs(result.mean_accuracy("fedavg", "dom0") - manual) < 1e-12

    def test_overrides_apply_per_strategy(self, suite):
        spec = SweepSpec(
            strategies=("fedavg", "aligned"),
            seeds=(0,),
            targets=("dom0",),
            overrides={"aligned": {"lambda": 0.5}},
        )
        result = run_sweep(suite, MODEL, BASE, spec)
        assert all(c.error is None for c in result.cells)

    def test_failed_cell_recorded_not_fatal(self, suite):
        # A diverging strategy breaks its cell at run time but the grid finishes.
        spec = SweepSpec(
            strategies=("fedavg", "aligned"), seeds=(0,), targets=("dom0",), overrides={"aligned": DIVERGING}
        )
        result = run_sweep(suite, MODEL, BASE, spec)
        ok = {c.strategy: c for c in result.cells}
        assert ok["fedavg"].error is None
        assert ok["aligned"].error is not None and "NonFiniteResult: round 6" in ok["aligned"].error
        assert ok["aligned"].final_target_accuracy is None
        # The aggregate mean over the broken column is NaN, not a crash.
        assert math.isnan(result.mean_accuracy("aligned", "dom0"))

    def test_parallel_matches_sequential(self, suite):
        spec = SweepSpec(strategies=("fedavg", "aligned"), seeds=(0, 1), targets=("dom1",))
        seq = run_sweep(suite, MODEL, BASE, spec, jobs=1)
        par = run_sweep(suite, MODEL, BASE, spec, jobs=2)
        assert seq.cells == par.cells

    def test_progress_callback(self, suite):
        spec = SweepSpec(strategies=("fedavg",), seeds=(0, 1), targets=("dom0",))
        lines = []
        run_sweep(suite, MODEL, BASE, spec, progress=lines.append)
        assert len(lines) == 2
        assert lines[0].startswith("[1/2]")

    def test_progress_same_for_parallel(self, suite):
        # Worker processes report through the same loop, in run order.
        spec = SweepSpec(
            strategies=("fedavg", "aligned"), seeds=(0, 1), targets=("dom0", "dom1"), overrides={"aligned": DIVERGING}
        )
        serial, parallel = [], []
        run_sweep(suite, MODEL, BASE, spec, jobs=1, progress=serial.append)
        run_sweep(suite, MODEL, BASE, spec, jobs=2, progress=parallel.append)
        assert len(serial) == 8 and serial[-1].startswith("[8/8]")
        assert sum(line.endswith(" failed") for line in serial) == 4
        assert parallel == serial

    def test_to_dict_json_safe(self, suite):
        spec = SweepSpec(
            strategies=("fedavg", "aligned"), seeds=(0,), targets=("dom0",), overrides={"aligned": DIVERGING}
        )
        result = run_sweep(suite, MODEL, BASE, spec)
        assert math.isnan(result.mean_accuracy("aligned"))
        __import__("json").dumps(result.to_dict(), allow_nan=False)

    def test_unknown_target_raises_before_any_cell(self, suite, monkeypatch):
        ran = []
        monkeypatch.setattr(sweep, "run_experiment", lambda *args: ran.append(args))
        monkeypatch.setattr(_RecordingPool, "started", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        spec = SweepSpec(strategies=("fedavg", "aligned"), seeds=(0, 1), targets=("dom0", "ghost"))
        with pytest.raises(ConfigError) as err:
            run_sweep(suite, MODEL, BASE, spec, jobs=2)
        assert (err.value.field, err.value.message) == ("sweep.targets", "unknown domain 'ghost'")
        assert ran == [] and _RecordingPool.started == []

    @pytest.mark.parametrize(
        "key, strategies", [("lambda", ("fedavg", "aligned")), ("mu", ("fedprox", "fedavg"))]
    )
    def test_strategy_fields_in_base_are_rejected(self, suite, monkeypatch, key, strategies):
        # lambda or mu belongs to one strategy: in the shared base it raises
        # before any cell runs, as the CLI's exit 2 does, instead of being
        # dropped so that the strategy runs at its default.
        ran = []
        monkeypatch.setattr(sweep, "run_experiment", lambda *args: ran.append(args))
        spec = SweepSpec(strategies=strategies, seeds=(0,), targets=("dom0",))
        with pytest.raises(ConfigError) as err:
            run_sweep(suite, MODEL, {**BASE, key: 0.3}, spec)
        assert err.value.field == f"federation.{key}"
        assert "sweep.overrides" in err.value.message
        assert ran == []

    def test_bad_override_raises_before_any_cell(self, suite, monkeypatch):
        ran = []
        monkeypatch.setattr(sweep, "run_experiment", lambda *args: ran.append(args))
        spec = SweepSpec(
            strategies=("fedavg", "aligned"), seeds=(0,), targets=("dom0",), overrides={"aligned": {"lr": -1}}
        )
        with pytest.raises(ConfigError) as err:
            run_sweep(suite, MODEL, BASE, spec)
        assert err.value.field == "sweep.overrides.aligned.lr"
        assert ran == []

    @pytest.mark.parametrize("jobs", [0, -2, True, 2.5, "2", None])
    def test_jobs_must_be_a_positive_integer(self, suite, monkeypatch, jobs):
        ran = []
        monkeypatch.setattr(sweep, "run_experiment", lambda *args: ran.append(args))
        monkeypatch.setattr(_RecordingPool, "started", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
        spec = SweepSpec(strategies=("fedavg",), seeds=(0, 1), targets=("dom0",))
        with pytest.raises(ConfigError) as err:
            run_sweep(suite, MODEL, BASE, spec, jobs=jobs)
        assert (err.value.field, err.value.message) == ("jobs", "must be a positive integer")
        assert ran == [] and _RecordingPool.started == []

    def test_one_config_parse_per_strategy(self, suite, monkeypatch):
        parsed = []
        original = FedConfig.from_dict.__func__
        monkeypatch.setattr(FedConfig, "from_dict", classmethod(lambda cls, d: parsed.append(d) or original(cls, d)))
        spec = SweepSpec(
            strategies=("fedavg", "aligned", "deepall"), seeds=(0, 1), targets=("dom0", "dom1")
        )
        result = run_sweep(suite, MODEL, BASE, spec)
        assert all(c.error is None for c in result.cells) and len(result.cells) == 3 * 2 * 2
        assert [d["strategy"] for d in parsed] == ["fedavg", "aligned", "deepall"]

    def test_cells_run_their_strategy_config_at_each_seed(self, suite, monkeypatch):
        seen = []

        def recording(suite, target, model, cfg):
            seen.append((target, cfg))
            return run_experiment(suite, target, model, cfg)

        monkeypatch.setattr(sweep, "run_experiment", recording)
        spec = SweepSpec(
            strategies=("fedavg", "aligned"), seeds=(3, 1), targets=("dom0",), overrides={"aligned": {"lambda": 0.4}}
        )
        run_sweep(suite, MODEL, BASE, spec)
        expected = [
            (target, FedConfig.from_dict({**BASE, **spec.overrides.get(s, {}), "strategy": s, "seed": seed}))
            for seed in spec.seeds
            for s in spec.strategies
            for target in spec.targets
        ]
        assert seen == expected


@pytest.fixture
def evaluate_calls(monkeypatch):
    """The number of ``evaluate`` calls the federation has made so far."""
    calls = []
    original = federation.evaluate

    def counting(*args, **kwargs):
        calls.append(args[1].domain_id)
        return original(*args, **kwargs)

    monkeypatch.setattr(federation, "evaluate", counting)
    return calls


class TestEvaluationCount:
    """Training evaluates the target alone, once each round (the last
    round's figures are the final ones); ``csv_rows`` evaluates every source
    once per round, in client order."""

    ROUNDS = 4

    @pytest.mark.parametrize(
        "strategy,sources",
        [
            pytest.param("aligned", ["dom1", "dom2"], id="aligned"),
            pytest.param("fedavg", ["dom1", "dom2"], id="fedavg"),
            pytest.param("deepall", ["pooled"], id="deepall"),
        ],
    )
    def test_run_experiment_evaluates_only_the_target(self, suite, evaluate_calls, strategy, sources):
        cfg = strategy_configs(BASE, SweepSpec((strategy,), (0,), ("dom0",)))[strategy]
        result = run_experiment(suite, "dom0", MODEL, cfg)
        assert evaluate_calls == ["dom0"] * self.ROUNDS
        rows = result.csv_rows()
        assert evaluate_calls[self.ROUNDS :] == sources * self.ROUNDS
        assert len(rows) == self.ROUNDS
        assert all(0.0 <= row["mean_source_accuracy"] <= 1.0 for row in rows)
        assert all(math.isfinite(row["mean_source_loss"]) for row in rows)

    @pytest.mark.parametrize("strategy", ["aligned", "fedavg", "deepall"])
    def test_sweep_cell_evaluates_only_the_target(self, suite, evaluate_calls, monkeypatch, strategy):
        results = []

        def capturing(*args, **kwargs):
            results.append(run_experiment(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(sweep, "run_experiment", capturing)
        spec = SweepSpec(strategies=(strategy,), seeds=(0,), targets=("dom0",))
        cell = run_sweep(suite, MODEL, BASE, spec, jobs=1).cells[0]
        assert cell.error is None
        assert evaluate_calls == ["dom0"] * self.ROUNDS
        (result,) = results
        assert len(result.records) == self.ROUNDS
        for r in result.records:
            assert math.isfinite(r.target_metrics.loss) and 0.0 <= r.target_metrics.accuracy <= 1.0
            assert r.per_client

        full = run_experiment(suite, "dom0", MODEL, result.config)
        assert result.params_digest() == full.params_digest()
        assert result.summary() == full.summary()
        assert [r.target_metrics for r in result.records] == [r.target_metrics for r in full.records]


def test_import_loads_no_process_pool():
    # Only a parallel sweep needs the process pool; importing the package
    # and its CLI must not load it (or multiprocessing with it).
    code = (
        "import sys, fedalign, fedalign.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=checkout_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

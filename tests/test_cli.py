import contextlib
import csv
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedalign import cli
from fedalign.cli import main
from fedalign.domains import SyntheticSpec, generate, save_csv

from _oracles import checkout_env

SMALL_DATA = {
    "synthetic": {
        "family": "rotated_two_moons",
        "num_domains": 3,
        "samples_per_domain": 30,
        "rotation_degrees": [0.0, 20.0, 40.0],
        "noise_sigma": 0.3,
        "seed": 0,
    }
}
SMALL_FED = {"strategy": "aligned", "rounds": 4, "batch_size": 8, "lr": 0.1, "lr_decay": None}


def write_nan_csv(synthetic: dict, domain: str, path: str) -> None:
    """The suite as CSV, with the first feature of ``domain``'s first row
    replaced by ``nan``."""
    save_csv(generate(SyntheticSpec(**synthetic)), path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith(domain + ","))
    cells = lines[row].split(",")
    cells[1] = "nan"
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_edge_csv(synthetic: dict, domain: str, path: str) -> None:
    """The suite as CSV, with every feature of ``domain`` at the edge of the
    float range (+-1.7e308): finite, so it loads, but its logits overflow."""
    save_csv(generate(SyntheticSpec(**synthetic)), path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for i, line in enumerate(lines):
        if line.startswith(domain + ","):
            cells = line.split(",")
            cells[1:-1] = ["1.7e308" if (i + c) % 2 else "-1.7e308" for c in range(len(cells) - 2)]
            lines[i] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_config(tmp_path, **overrides):
    doc = {
        "target": "dom2",
        "model": {"hidden_dim": 4},
        "data": SMALL_DATA,
        "federation": dict(SMALL_FED),
    }
    doc.update(overrides)
    return write_config(tmp_path, "exp.json", doc)


class TestRun:
    def test_writes_run_directory(self, tmp_path, capsys):
        cfg = run_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json",
            "rounds.csv",
            "summary.json",
        ]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["strategy"] == "aligned" and summary["rounds"] == 4
        with open(out / "rounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert rows[0]["round"] == "0"
        stdout = capsys.readouterr().out
        assert "target accuracy" in stdout

    def test_manifest_contents(self, tmp_path):
        cfg = run_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "run"
        assert manifest["seed_list"] == [0]
        assert manifest["config"]["federation"]["strategy"] == "aligned"
        assert manifest["config"]["federation"]["lambda"] == 0.1
        assert set(manifest["outputs"]) == {"manifest", "rounds", "summary"}

    def test_replay_from_manifest_is_byte_identical(self, tmp_path):
        cfg = run_config(tmp_path)
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(first), "--quiet"]) == 0
        manifest_path = str(first / "manifest.json")
        assert main(["run", "--config", manifest_path, "--out", str(second), "--quiet"]) == 0
        assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()
        assert (first / "rounds.csv").read_bytes() == (second / "rounds.csv").read_bytes()

    def test_seed_override_recorded(self, tmp_path):
        cfg = run_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out), "--seed", "9", "--quiet"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed_list"] == [9]
        assert manifest["config"]["federation"]["seed"] == 9

    def test_bad_lambda_names_field_and_range(self, tmp_path, capsys):
        cfg = run_config(tmp_path, federation={**SMALL_FED, "lambda": 0.9})
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "lambda" in err and "0.5" in err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = run_config(tmp_path, optimizer={"name": "adam"})
        assert main(["run", "--config", cfg]) == 2
        assert "optimizer" in capsys.readouterr().err

    def test_missing_target_rejected(self, tmp_path):
        doc = {"data": SMALL_DATA, "federation": SMALL_FED}
        cfg = write_config(tmp_path, "exp.json", doc)
        assert main(["run", "--config", cfg]) == 2

    def test_unknown_target_rejected_before_running(self, tmp_path, capsys):
        cfg = run_config(tmp_path, target="domX")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'target'" in err and "domX" in err
        assert not out.exists()

    def test_malformed_json_positions(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"target": "dom0",\n  "data": }', encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "line 2" in err

    def test_diverging_run_reports_error_without_numpy_warnings(self, tmp_path):
        cfg = run_config(tmp_path, federation={**SMALL_FED, "rounds": 30, "lr": 1e30})
        proc = subprocess.run(
            [sys.executable, "-m", "fedalign.cli", "run", "--config", cfg, "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert proc.returncode == 1, proc.stderr
        assert re.search(r"^error: round \d+, client dom\d: ", proc.stderr, re.MULTILINE), proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        cfg = run_config(tmp_path)
        main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        assert capsys.readouterr().out == ""

    def test_default_outdir_uses_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDALIGN_OUT", str(tmp_path / "root"))
        cfg = run_config(tmp_path)
        assert main(["run", "--config", cfg, "--quiet"]) == 0
        assert (tmp_path / "root" / "exp-run" / "summary.json").exists()

    def test_csv_data_source(self, tmp_path):
        gen_spec = write_config(tmp_path, "spec.json", SMALL_DATA["synthetic"])
        data_csv = tmp_path / "suite.csv"
        assert main(["gen-data", "--spec", gen_spec, "--out", str(data_csv), "--quiet"]) == 0
        doc = {
            "target": "dom1",
            "data": {
                "csv": {
                    "path": str(data_csv),
                    "feature_cols": ["x0", "x1"],
                    "label_col": "label",
                    "domain_col": "domain",
                }
            },
            "federation": SMALL_FED,
        }
        cfg = write_config(tmp_path, "csvexp.json", doc)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert json.loads((out / "summary.json").read_text())["target"] == "dom1"


CSV_BLOCK = {"path": "suite.csv", "feature_cols": ["x0", "x1"], "label_col": "label", "domain_col": "domain"}


def _with_fed(**fields):
    return {"federation": {**SMALL_FED, **fields}}


BAD_VALUES = [
    pytest.param(
        _with_fed(lr_decay={"every_n_rounds": 2, "factor": "10"}), "lr_decay.factor", id="lr_decay.factor-str"
    ),
    pytest.param({"model": {"hidden_dim": "x"}}, "model.hidden_dim", id="hidden_dim-str"),
    pytest.param(
        {"sweep": {"strategies": ["fedavg"], "seeds": ["a"], "targets": ["dom0"]}}, "sweep.seeds", id="seeds-str"
    ),
    pytest.param(
        {"data": {"synthetic": {**SMALL_DATA["synthetic"], "rotation_degrees": "ab"}}},
        "data.synthetic.rotation_degrees",
        id="rotation_degrees-str",
    ),
    pytest.param(
        {"data": {"csv": {"path": "suite.csv", "feature_cols": 5, "label_col": "label", "domain_col": "domain"}}},
        "data.csv.feature_cols",
        id="feature_cols-int",
    ),
    pytest.param(_with_fed(accumulate="no"), "accumulate", id="accumulate-str"),
    pytest.param(_with_fed(encrypt="yes"), "encrypt", id="encrypt-str"),
    pytest.param(_with_fed(rounds=True), "rounds", id="rounds-bool"),
    pytest.param(_with_fed(lr=True), "lr", id="lr-bool"),
    pytest.param(_with_fed(seed=True), "seed", id="seed-bool"),
    pytest.param(_with_fed(scale=True), "scale", id="scale-bool"),
    pytest.param(_with_fed(lr=10**400), "lr", id="lr-huge-int"),
    pytest.param(_with_fed(strategy="fedprox", mu=10**400), "mu", id="mu-huge-int"),
    pytest.param(
        _with_fed(lr_decay={"every_n_rounds": 2, "factor": 10**400}), "lr_decay.factor", id="lr_decay.factor-huge-int"
    ),
    pytest.param(
        {"data": {"synthetic": {**SMALL_DATA["synthetic"], "num_domains": True}}},
        "data.synthetic.num_domains",
        id="num_domains-bool",
    ),
    pytest.param(
        {"data": {"synthetic": {**SMALL_DATA["synthetic"], "seed": True}}},
        "data.synthetic.seed",
        id="synthetic-seed-bool",
    ),
    pytest.param(
        {"data": {"synthetic": {**SMALL_DATA["synthetic"], "rotation_degrees": [0, 20, float("inf")]}}},
        "data.synthetic.rotation_degrees",
        id="rotation_degrees-inf",
    ),
    pytest.param(
        {"data": {"synthetic": {**SMALL_DATA["synthetic"], "rotation_degrees": [0, 20, 10**400]}}},
        "data.synthetic.rotation_degrees",
        id="rotation_degrees-huge-int",
    ),
    pytest.param({"model": "x"}, "model", id="model-str"),
    pytest.param({"model": {"hidden_dim": 10**400}}, "model.hidden_dim", id="hidden_dim-huge-int"),
    pytest.param(_with_fed(rounds=10**400), "rounds", id="rounds-huge-int"),
    pytest.param(_with_fed(local_steps=10**400), "local_steps", id="local_steps-huge-int"),
    pytest.param(_with_fed(batch_size=10**400), "batch_size", id="batch_size-huge-int"),
    pytest.param(
        {"data": {"synthetic": {**SMALL_DATA["synthetic"], "samples_per_domain": 10**400}}},
        "data.synthetic.samples_per_domain",
        id="samples_per_domain-huge-int",
    ),
    pytest.param(
        {"sweep": {"strategies": ["fedavg"], "seeds": [0], "targets": ["dom0"]}, "federation": True},
        "federation",
        id="sweep-federation-bool",
    ),
    pytest.param({"federation": False}, "federation", id="federation-false"),
    pytest.param({"federation": []}, "federation", id="federation-empty-list"),
    pytest.param({"model": False}, "model", id="model-false"),
    pytest.param(
        {"sweep": {"strategies": ["fedavg"], "seeds": [0], "targets": ["dom0"]}, "federation": False},
        "federation",
        id="sweep-federation-false",
    ),
    pytest.param(
        {"sweep": {"strategies": ["fedavg"], "seeds": [0], "targets": ["dom0"]}, "model": []},
        "model",
        id="sweep-model-empty-list",
    ),
    pytest.param(
        _with_fed(rounds=330, lr_decay={"every_n_rounds": 1, "factor": 10}), "lr_decay", id="lr_decay-overflows"
    ),
    pytest.param(
        _with_fed(rounds=400, lr_decay={"every_n_rounds": 1, "factor": 0.1}), "lr_decay", id="lr_decay-grows-to-inf"
    ),
    pytest.param(
        _with_fed(rounds=40, lr=1e-300, lr_decay={"every_n_rounds": 1, "factor": 10}),
        "lr_decay",
        id="lr_decay-underflows",
    ),
    pytest.param({"data": {"csv": {**CSV_BLOCK, "path": None}}}, "data.csv.path", id="csv-path-null"),
    pytest.param({"data": {"csv": {**CSV_BLOCK, "path": []}}}, "data.csv.path", id="csv-path-list"),
    pytest.param({"data": {"csv": {**CSV_BLOCK, "path": True}}}, "data.csv.path", id="csv-path-bool"),
    pytest.param({"data": {"csv": {**CSV_BLOCK, "sep": ";"}}}, "data.csv.sep", id="csv-unknown-field"),
    pytest.param({"data": {"csv": {**CSV_BLOCK, "label_col": None}}}, "data.csv.label_col", id="csv-label_col-null"),
]


class TestBadValues:
    @pytest.mark.parametrize("patch, field", BAD_VALUES)
    def test_exit_2_names_field(self, tmp_path, capsys, monkeypatch, patch, field):
        monkeypatch.chdir(tmp_path)  # a data.csv case reads a valid ./suite.csv
        save_csv(generate(SyntheticSpec(**SMALL_DATA["synthetic"])), "suite.csv")
        doc = {"model": {"hidden_dim": 4}, "data": SMALL_DATA, "federation": dict(SMALL_FED), **patch}
        if "sweep" in doc:
            command = ["sweep", "--spec"]
        else:
            command = ["run", "--config"]
            doc["target"] = "dom2"
        path = write_config(tmp_path, "bad.json", doc)
        assert main([*command, path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert f"config field {field!r}" in capsys.readouterr().err

    def test_non_finite_csv_cell_exit_2_names_cell(self, tmp_path, capsys):
        # A nan in the target domain used to train, then fail writing the
        # nan target losses to summary.json.
        data_csv = tmp_path / "suite.csv"
        write_nan_csv(SMALL_DATA["synthetic"], "dom2", str(data_csv))
        doc = {
            "target": "dom2",
            "model": {"hidden_dim": 4},
            "data": {"csv": {**CSV_BLOCK, "path": str(data_csv)}},
            "federation": dict(SMALL_FED),
        }
        path = write_config(tmp_path, "nan.json", doc)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert "column 'x0': not a finite number: 'nan'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, jobs):
        doc = {
            "sweep": {"strategies": ["fedavg"], "seeds": [0], "targets": ["dom0"]},
            "data": SMALL_DATA,
            "federation": dict(SMALL_FED),
        }
        path = write_config(tmp_path, "grid.json", doc)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--spec", path, "--out", str(tmp_path / "out"), "--quiet", "--jobs", jobs])
        assert exc.value.code == 2
        assert "argument --jobs: must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestNonFiniteMetrics:
    """A target domain at the edge of the float range trains, but its loss
    overflows to nan; summary.json records it as null, and no command
    ends in a traceback."""

    @pytest.fixture
    def edge_csv(self, tmp_path):
        path = tmp_path / "edge.csv"
        write_edge_csv(SMALL_DATA["synthetic"], "dom2", str(path))
        return {"csv": {**CSV_BLOCK, "path": str(path)}}

    def test_run_writes_null_target_loss(self, tmp_path, edge_csv):
        doc = {"target": "dom2", "data": edge_csv, "federation": {**SMALL_FED, "rounds": 2}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, "edge.json", doc), "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_target_loss"] is None
        assert summary["rounds"] == 2

    def test_sweep_writes_null_target_loss(self, tmp_path, edge_csv):
        doc = {
            "sweep": {"strategies": ["fedavg", "aligned"], "seeds": [0], "targets": ["dom2"]},
            "data": edge_csv,
            "federation": {**SMALL_FED, "rounds": 2},
        }
        out = tmp_path / "out"
        assert main(["sweep", "--spec", write_config(tmp_path, "edge.json", doc), "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [cell["error"] for cell in summary["cells"]] == ["", ""]
        assert [cell["final_target_loss"] for cell in summary["cells"]] == [None, None]


class TestWriteJson:
    def test_failure_leaves_no_file(self, tmp_path):
        path = tmp_path / "doc.json"
        with pytest.raises(TypeError):
            cli._write_json(str(path), {"ok": 1.0, "bad": object()})
        assert not path.exists()

    def test_non_finite_floats_are_null(self, tmp_path):
        path = tmp_path / "doc.json"
        cli._write_json(str(path), {"a": [1.5, float("inf"), (float("nan"),)], "b": {"c": -float("inf")}})
        assert json.loads(path.read_text()) == {"a": [1.5, None, [None]], "b": {"c": None}}


class TestSweep:
    def sweep_config(self, tmp_path, **overrides):
        doc = {
            "sweep": {
                "strategies": ["fedavg", "aligned", "deepall"],
                "seeds": [0, 1],
                "targets": ["dom0", "dom2"],
            },
            "model": {"hidden_dim": 4},
            "data": SMALL_DATA,
            "federation": dict(SMALL_FED),
        }
        doc.update(overrides)
        return write_config(tmp_path, "grid.json", doc)

    def test_writes_sweep_directory(self, tmp_path, capsys):
        cfg = self.sweep_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--spec", cfg, "--out", str(out)]) == 0
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 2 * 2
        assert all(r["error"] == "" for r in rows)
        with open(out / "aggregate.csv") as fh:
            agg = list(csv.DictReader(fh))
        assert [r["strategy"] for r in agg] == ["fedavg", "aligned", "deepall"]
        assert set(agg[0]) == {"strategy", "dom0", "dom2", "average"}
        stdout = capsys.readouterr().out
        assert "average=" in stdout

    def test_summary_json_shape(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        out = tmp_path / "out"
        main(["sweep", "--spec", cfg, "--out", str(out), "--quiet"])
        doc = json.loads((out / "summary.json").read_text())
        assert doc["strategies"] == ["fedavg", "aligned", "deepall"]
        assert len(doc["cells"]) == 12
        assert len(doc["aggregate"]) == 3

    def test_replay_manifest(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--spec", cfg, "--out", str(a), "--quiet"]) == 0
        assert main(["sweep", "--spec", str(a / "manifest.json"), "--out", str(b), "--quiet"]) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_parallel_jobs_same_results(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--spec", cfg, "--out", str(a), "--quiet"]) == 0
        assert main(["sweep", "--spec", cfg, "--out", str(b), "--quiet", "--jobs", "2"]) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_empty_seeds_rejected(self, tmp_path, capsys):
        cfg = self.sweep_config(
            tmp_path,
            sweep={"strategies": ["fedavg"], "seeds": [], "targets": ["dom0"]},
        )
        assert main(["sweep", "--spec", cfg]) == 2
        assert "seeds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value", [("strategies", ["fedavg", "fedavg"]), ("seeds", [0, 0]), ("targets", ["dom0", "dom0"])]
    )
    def test_repeated_entry_rejected(self, tmp_path, capsys, field, value):
        grid = {"strategies": ["fedavg"], "seeds": [0], "targets": ["dom0"], field: value}
        out = tmp_path / "out"
        assert main(["sweep", "--spec", self.sweep_config(tmp_path, sweep=grid), "--out", str(out)]) == 2
        assert f"config field 'sweep.{field}': repeats {value[0]!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_target_rejected_before_running(self, tmp_path, capsys):
        cfg = self.sweep_config(
            tmp_path,
            sweep={"strategies": ["fedavg"], "seeds": [0], "targets": ["domX"]},
        )
        assert main(["sweep", "--spec", cfg]) == 2
        assert "domX" in capsys.readouterr().err

    def test_every_seed_checked_before_running(self, tmp_path, capsys):
        cfg = self.sweep_config(
            tmp_path,
            sweep={"strategies": ["fedavg"], "seeds": [0, -1], "targets": ["dom0"]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--spec", cfg, "--out", str(out), "--quiet"]) == 2
        assert "config field 'sweep.seeds'" in capsys.readouterr().err
        assert not out.exists()

    def test_every_strategy_checked_before_running(self, tmp_path, capsys):
        cfg = self.sweep_config(
            tmp_path,
            sweep={
                "strategies": ["fedavg", "aligned"],
                "seeds": [0],
                "targets": ["dom0"],
                "overrides": {"aligned": {"lr": -1}},
            },
        )
        out = tmp_path / "out"
        assert main(["sweep", "--spec", cfg, "--out", str(out), "--quiet"]) == 2
        assert "config field 'sweep.overrides.aligned.lr'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["lambda", "mu"])
    @pytest.mark.parametrize("strategies", [["fedavg", "aligned"], ["aligned", "fedprox"], ["fedprox", "aligned"]])
    def test_base_strategy_field_rejected(self, tmp_path, capsys, key, strategies):
        cfg = self.sweep_config(
            tmp_path,
            sweep={"strategies": strategies, "seeds": [0], "targets": ["dom0"]},
            federation={**SMALL_FED, key: 0.2},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--spec", cfg, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"config field 'federation.{key}'" in err and "sweep.overrides" in err
        assert not out.exists()

    def test_seed_flag_restricts_grid(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        out = tmp_path / "out"
        main(["sweep", "--spec", cfg, "--out", str(out), "--seed", "7", "--quiet"])
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["seed"] for r in rows} == {"7"}


class TestFedproxDuplicateWarning:
    """fedprox with one local step repeats fedavg's run exactly: the CLI
    says so once on stderr, and changes nothing else."""

    FEDPROX = {**{k: v for k, v in SMALL_FED.items() if k != "strategy"}, "strategy": "fedprox"}

    @staticmethod
    def warnings(err):
        return [line for line in err.splitlines() if line.startswith("warning:")]

    def test_run_warns_and_matches_fedavg(self, tmp_path, capsys):
        digests = {}
        for strategy in ("fedavg", "fedprox"):
            cfg = run_config(tmp_path, federation={**self.FEDPROX, "strategy": strategy})
            out = tmp_path / strategy
            assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
            digests[strategy] = json.loads((out / "summary.json").read_text())["final_params_sha256"]
            lines = self.warnings(capsys.readouterr().err)
            if strategy == "fedavg":
                assert lines == []
            else:
                assert len(lines) == 1
                assert "strategy fedprox" in lines[0] and "local_steps 1" in lines[0]
        assert digests["fedprox"] == digests["fedavg"]

    def test_run_with_local_steps_is_silent(self, tmp_path, capsys):
        cfg = run_config(tmp_path, federation={**self.FEDPROX, "local_steps": 2})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "overrides,expected",
        [({}, 1), ({"fedprox": {"local_steps": 2}}, 0), ({"fedprox": {"mu": 0.5}}, 1)],
    )
    def test_sweep_warns_once(self, tmp_path, capsys, overrides, expected):
        doc = {
            "sweep": {
                "strategies": ["fedavg", "fedprox"],
                "seeds": [0, 1],
                "targets": ["dom0", "dom2"],
                "overrides": overrides,
            },
            "model": {"hidden_dim": 4},
            "data": SMALL_DATA,
            "federation": {k: v for k, v in SMALL_FED.items() if k != "strategy"},
        }
        cfg = write_config(tmp_path, "grid.json", doc)
        assert main(["sweep", "--spec", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0
        lines = self.warnings(capsys.readouterr().err)
        assert len(lines) == expected
        assert all("strategy fedprox" in line and "local_steps 1" in line for line in lines)

    def test_library_stays_silent(self, capsys):
        from fedalign.federation import FedConfig, run_experiment
        from fedalign.models import ModelSpec
        from fedalign.sweep import SweepSpec, run_sweep

        suite = generate(SyntheticSpec(**SMALL_DATA["synthetic"]))
        model = ModelSpec(input_dim=2, hidden_dim=4)
        run_experiment(suite, "dom0", model, FedConfig.from_dict(self.FEDPROX))
        spec = SweepSpec(strategies=("fedprox",), seeds=(0,), targets=("dom0",))
        run_sweep(suite, model, {k: v for k, v in SMALL_FED.items() if k != "strategy"}, spec)
        assert capsys.readouterr().err == ""


class TestGenData:
    def test_default_benchmark_row_count(self, tmp_path):
        spec = write_config(tmp_path, "bench.json", {})  # all defaults
        out = tmp_path / "bench.csv"
        assert main(["gen-data", "--spec", spec, "--out", str(out), "--quiet"]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4 * 500
        assert lines[0] == "domain,x0,x1,label"

    def test_seed_override_changes_data(self, tmp_path):
        spec = write_config(tmp_path, "s.json", SMALL_DATA["synthetic"])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-data", "--spec", spec, "--out", str(a), "--quiet"])
        main(["gen-data", "--spec", spec, "--out", str(b), "--seed", "5", "--quiet"])
        assert a.read_text() != b.read_text()

    def test_deterministic(self, tmp_path):
        spec = write_config(tmp_path, "s.json", SMALL_DATA["synthetic"])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-data", "--spec", spec, "--out", str(a), "--quiet"])
        main(["gen-data", "--spec", spec, "--out", str(b), "--quiet"])
        assert a.read_bytes() == b.read_bytes()

    def test_boolean_row_count_rejected(self, tmp_path, capsys):
        spec = write_config(tmp_path, "s.json", {"samples_per_domain": True})
        out = tmp_path / "s.csv"
        assert main(["gen-data", "--spec", spec, "--out", str(out), "--quiet"]) == 2
        assert "config field 'data.synthetic.samples_per_domain'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_spec_field(self, tmp_path, capsys):
        spec = write_config(tmp_path, "s.json", {"samples": 10})
        assert main(["gen-data", "--spec", spec]) == 2
        assert "samples" in capsys.readouterr().err

    def test_unwritable_path_is_runtime_error(self, tmp_path, capsys):
        spec = write_config(tmp_path, "s.json", SMALL_DATA["synthetic"])
        code = main(["gen-data", "--spec", spec, "--out", "/proc/nope/data.csv"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_default_out_path_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDALIGN_OUT", str(tmp_path / "root"))
        os.makedirs(tmp_path / "root", exist_ok=True)
        spec = write_config(tmp_path, "moons.json", SMALL_DATA["synthetic"])
        assert main(["gen-data", "--spec", spec, "--quiet"]) == 0
        assert (tmp_path / "root" / "moons.csv").exists()


# Tiny valid configs that set every field; the contract test swaps one of
# their fields (or a whole section) for a hostile JSON value.
CONTRACT_RUN = {
    "target": "dom3",
    "model": {"hidden_dim": 4, "activation": "relu"},
    "data": {
        "synthetic": {
            "family": "rotated_two_moons",
            "num_domains": 4,
            "samples_per_domain": 20,
            "rotation_degrees": [0.0, 15.0, 30.0, 45.0],
            "noise_sigma": 0.3,
            "seed": 0,
        }
    },
    "federation": {
        "strategy": "aligned",
        "rounds": 2,
        "local_steps": 1,
        "batch_size": 2,
        "lr": 0.2,
        "lr_decay": {"every_n_rounds": 1, "factor": 10.0},
        "lambda": 0.1,
        "weighting": "uniform",
        "seed": 0,
        "encrypt": True,
        "scale": 1024,
        "accumulate": True,
        "align_target": "original",
        "order_mode": "random",
    },
}
# The test writes CONTRACT_RUN's data as a CSV in its temp directory and
# puts the file's path in place of this placeholder; the second file has a
# nan feature in the target domain.
CONTRACT_CSV_PATH = "@suite.csv@"
CONTRACT_NAN_CSV_PATH = "@nan_suite.csv@"
CONTRACT_CONFIGS = [
    ("run", CONTRACT_RUN),
    (
        "run",
        {
            **CONTRACT_RUN,
            "data": {"csv": {**CSV_BLOCK, "path": CONTRACT_CSV_PATH}},
            "federation": {**CONTRACT_RUN["federation"], "strategy": "fedprox", "lambda": None, "mu": 0.01},
        },
    ),
    ("run", {**CONTRACT_RUN, "data": {"csv": {**CSV_BLOCK, "path": CONTRACT_NAN_CSV_PATH}}}),
    (
        "sweep",
        {
            "sweep": {
                "strategies": ["fedavg", "aligned"],
                "seeds": [0],
                "targets": ["dom0"],
                "overrides": {"aligned": {"lambda": 0.2}},
            },
            "model": CONTRACT_RUN["model"],
            "data": CONTRACT_RUN["data"],
            "federation": {
                k: v for k, v in CONTRACT_RUN["federation"].items() if k not in ("strategy", "lambda", "seed")
            },
        },
    ),
    ("gen-data", CONTRACT_RUN["data"]["synthetic"]),
]
# JSON has no infinity literal, but Python's parser reads 1e400 as inf; the
# test writes this placeholder's place in the document as a bare 1e400.
JSON_1E400 = "@1e400@"
HOSTILE_VALUES = [True, "x", -1, 0, JSON_1E400, 10**400, None, [], {}]


def _field_paths(node, prefix=()):
    """Every path into a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestContract:
    """Any single-field change to a valid run, sweep or gen-data config
    exits 0, 1 or 2, and never with a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(
        case=st.sampled_from(
            [(command, doc, path) for command, doc in CONTRACT_CONFIGS for path in _field_paths(doc)]
        ),
        value=st.sampled_from(HOSTILE_VALUES),
    )
    def test_one_hostile_field(self, case, value):
        command, doc, path = case
        doc = _replaced(doc, path, value)
        text = json.dumps(doc).replace(json.dumps(JSON_1E400), "1e400")
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            data_csv = os.path.join(tmp, "suite.csv")
            save_csv(generate(SyntheticSpec(**CONTRACT_RUN["data"]["synthetic"])), data_csv)
            text = text.replace(json.dumps(CONTRACT_CSV_PATH), json.dumps(data_csv))
            nan_csv = os.path.join(tmp, "nan_suite.csv")
            write_nan_csv(CONTRACT_RUN["data"]["synthetic"], CONTRACT_RUN["target"], nan_csv)
            text = text.replace(json.dumps(CONTRACT_NAN_CSV_PATH), json.dumps(nan_csv))
            config = os.path.join(tmp, "config.json")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(text)
            flag = "--config" if command == "run" else "--spec"
            out = os.path.join(tmp, "out.csv" if command == "gen-data" else "out")
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([command, flag, config, "--out", out, "--quiet"])
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestMemoryLimit:
    """A count no memory can hold exits 1 with an error line, not a
    traceback, whatever the host's memory: the run gets a 2 GiB address
    space."""

    @pytest.mark.parametrize(
        "patch",
        [
            pytest.param({"model": {"hidden_dim": 2**40}}, id="hidden_dim"),
            # A layer whose byte size numpy cannot express at all.
            pytest.param({"model": {"hidden_dim": 2**62}}, id="hidden_dim-inexpressible"),
            pytest.param(_with_fed(batch_size=2**62), id="batch_size"),
            pytest.param(
                {"data": {"synthetic": {**SMALL_DATA["synthetic"], "samples_per_domain": 2**62}}},
                id="samples_per_domain",
            ),
        ],
    )
    def test_exit_1_without_traceback(self, tmp_path, patch):
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

        doc = {"target": "dom2", "model": {"hidden_dim": 4}, "data": SMALL_DATA, "federation": SMALL_FED, **patch}
        config = write_config(tmp_path, "big.json", doc)
        proc = subprocess.run(
            [sys.executable, "-m", "fedalign.cli", "run", "--config", config, "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            preexec_fn=limit_address_space,
            env=checkout_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        )
        assert proc.returncode == 1, proc.stderr
        assert "error: out of memory" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fedalign.cli", "--version"],
            capture_output=True,
            text=True,
            env=checkout_env(),
        )
        assert proc.returncode == 0
        assert "fedalign" in proc.stdout

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

import _ctypes
import contextlib
import csv
import glob
import hashlib
import io
import itertools
import json
import os
import platform
import re
import resource
import subprocess
import sys
import tempfile

import numpy as np
import pytest

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


def sweep_config(tmp_path, **overrides):
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

    def test_manifest_records_environment(self, tmp_path):
        cfg = run_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out), "--quiet"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
            "blas_kernel": cli._blas_kernel(),
        }

    def test_environment_starts_no_process(self, monkeypatch):
        # A child forked from the run's process would count toward its peak
        # memory (platform.platform() forks one for ``uname -p``).
        def refuse(*args, **kwargs):
            raise AssertionError("started a process")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        monkeypatch.setattr(os, "fork", refuse)
        # Drop platform's caches, which an earlier call may have filled.
        monkeypatch.setattr(platform, "_uname_cache", None, raising=False)
        monkeypatch.setattr(platform, "_platform_cache", {}, raising=False)
        assert set(cli._environment()) == {"python", "numpy", "platform", "blas_kernel"}

    def test_blas_kernel_names_the_runtime_kernel(self):
        # numpy's wheels bundle OpenBLAS; its corename is a short ASCII name.
        kernel = cli._blas_kernel()
        assert kernel is None or (kernel.isascii() and kernel.isprintable() and 0 < len(kernel) < 40)

    @pytest.mark.parametrize("found", [[], [os.devnull], ["ctypes"]], ids=["no-library", "unloadable", "no-symbol"])
    def test_blas_kernel_null_without_library_or_symbol(self, monkeypatch, found):
        # The ctypes extension module loads, but has no corename symbol.
        found = [_ctypes.__file__ if f == "ctypes" else f for f in found]
        monkeypatch.setattr(glob, "glob", lambda pattern: found)
        assert cli._blas_kernel() is None

    @pytest.mark.parametrize(
        "command,flag,make",
        [("run", "--config", run_config), ("sweep", "--spec", sweep_config)],
        ids=["run", "sweep"],
    )
    def test_replay_under_other_numpy_warns(self, tmp_path, capsys, command, flag, make):
        cfg = make(tmp_path)
        first, second, third = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main([command, flag, cfg, "--out", str(first), "--quiet"]) == 0
        # The same numpy: no warning.
        assert main([command, flag, str(first / "manifest.json"), "--out", str(second), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["environment"]["numpy"] = "0.0.1"
        other = write_config(tmp_path, "other.json", manifest)
        assert main([command, flag, other, "--out", str(third), "--quiet"]) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"warning: manifest written with numpy 0.0.1, running numpy {np.__version__};")
        assert (first / "summary.json").read_bytes() == (third / "summary.json").read_bytes()

    @pytest.mark.parametrize(
        "command,flag,make",
        [("run", "--config", run_config), ("sweep", "--spec", sweep_config)],
        ids=["run", "sweep"],
    )
    def test_replay_on_other_blas_kernel_warns(self, tmp_path, capsys, command, flag, make):
        cfg = make(tmp_path)
        first, second, third = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main([command, flag, cfg, "--out", str(first), "--quiet"]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["environment"]["blas_kernel"] == cli._blas_kernel()
        # A manifest that records no kernel, as older ones do: no warning.
        del manifest["environment"]["blas_kernel"]
        older = write_config(tmp_path, "older.json", manifest)
        assert main([command, flag, older, "--out", str(second), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        manifest["environment"]["blas_kernel"] = "Prescott"
        other = write_config(tmp_path, "other.json", manifest)
        assert main([command, flag, other, "--out", str(third), "--quiet"]) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"warning: manifest written with blas_kernel Prescott, running blas_kernel {cli._blas_kernel()};")
        assert (first / "summary.json").read_bytes() == (third / "summary.json").read_bytes()

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

    @pytest.mark.parametrize("command", ["run", "sweep", "gen-data"])
    def test_non_utf8_config_exit_2_names_position(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{\n  "seed": "\xff"}\n')
        flag = "--config" if command == "run" else "--spec"
        assert main([command, flag, str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error: line 2, column '12': invalid UTF-8 byte 0xff (invalid start byte)" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "value, message",
        [
            ("[" * 100000 + "]" * 100000, "arrays and objects nested {depth} deep, deeper than the parser follows"),
            ("9" * 5000, "integer literal of 5000 digits, longer than Python converts"),
            ("-" + "9" * 4301, "integer literal of 4301 digits, longer than Python converts"),
        ],
        ids=["nested-100000-deep", "5000-digit-int", "4301-digit-negative-int"],
    )
    @pytest.mark.parametrize("command", ["run", "sweep", "gen-data", "manifest"])
    def test_document_past_a_decoder_limit_exit_2_names_line(self, tmp_path, capsys, command, value, message):
        # The value sits at line 3, column 5, one object deep (two in a manifest).
        body = '{\n  "seed":\n    ' + value + "\n}"
        if command == "manifest":
            body = '{"tool_version": "0", "config": ' + body + "}"
        path = tmp_path / "deep.json"
        path.write_text(body + "\n", encoding="utf-8")
        subcommand = "run" if command == "manifest" else command
        flag = "--config" if subcommand == "run" else "--spec"
        assert main([subcommand, flag, str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        if value[0] == "[":
            column = 5 + 100000 - 1
            message = message.format(depth=100000 + (2 if command == "manifest" else 1))
        else:
            column = 5
        assert f"config error: line 3, column '{column}': {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, where, key, earlier, field",
        [
            pytest.param("run", "top", "target", "dom0", "target", id="run-top"),
            pytest.param("run", "nested", "lr", 0.2, "federation.lr", id="run-nested"),
            pytest.param(
                "sweep",
                "top",
                "sweep",
                {"strategies": ["fedavg"], "seeds": [1], "targets": ["dom1"]},
                "sweep",
                id="sweep-top",
            ),
            pytest.param("sweep", "nested", "lr", 0.2, "federation.lr", id="sweep-nested"),
            pytest.param("gen-data", "top", "seed", 1, "seed", id="gen-data-top"),
            pytest.param("gen-data", "nested", "seed", 1, "config.seed", id="gen-data-nested"),
            pytest.param("manifest", "top", "tool_version", "0", "tool_version", id="manifest-top"),
            pytest.param("manifest", "nested", "lr", 0.2, "config.federation.lr", id="manifest-nested"),
        ],
    )
    def test_duplicate_key_exit_2_names_key(
        self, tmp_path, capsys, written_manifest, command, where, key, earlier, field
    ):
        # Each earlier value is valid on its own, so taking the last one
        # would run; gen-data's nested case is its spec inside a manifest.
        doc = valid_document(command, written_manifest)
        if command == "gen-data" and where == "nested":
            doc = {"tool_version": "0", "config": doc}
        text = json.dumps(doc)
        assert text.count(f'"{key}": ') == 1
        path = tmp_path / "dup.json"
        path.write_text(text.replace(f'"{key}": ', f'"{key}": {json.dumps(earlier)}, "{key}": '), encoding="utf-8")
        subcommand = "run" if command == "manifest" else command
        flag = "--config" if subcommand == "run" else "--spec"
        assert main([subcommand, flag, str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"config error: config field '{field}': is set more than once in one JSON object" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "path, field",
        [
            (("config", "data", "synthetic", "seed"), "config.data.synthetic.seed"),
            (("config", "federation", "seed"), "config.federation.seed"),
            (("config", "model", 1, "seed"), "config.model[1].seed"),
        ],
        ids=["data-seed", "federation-seed", "in-an-array"],
    )
    def test_duplicate_key_path_tells_namesakes_apart(self, tmp_path, capsys, written_manifest, path, field):
        # The manifest sets both seeds, so only the path says which one is
        # set twice; an object inside an array is named by its index.
        doc = valid_document("manifest", written_manifest)
        assert "seed" in doc["config"]["data"]["synthetic"] and "seed" in doc["config"]["federation"]
        if 1 in path:
            doc["config"]["model"] = [{}, {"seed": 0}]
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = "@value@"
        config = tmp_path / "dup.json"
        config.write_text(json.dumps(doc).replace('"@value@"', '1, "seed": 0'), encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"config error: config field '{field}': is set more than once in one JSON object" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", [1, 80], ids=["header", "row"])
    def test_non_utf8_csv_exit_2_names_line(self, tmp_path, capsys, line):
        data_csv = tmp_path / "suite.csv"
        save_csv(generate(SyntheticSpec(**SMALL_DATA["synthetic"])), str(data_csv))
        lines = data_csv.read_bytes().split(b"\n")
        lines[line - 1] += b"\xe9"
        data_csv.write_bytes(b"\n".join(lines))
        doc = {
            "target": "dom2",
            "model": {"hidden_dim": 4},
            "data": {"csv": {**CSV_BLOCK, "path": str(data_csv)}},
            "federation": dict(SMALL_FED),
        }
        path = write_config(tmp_path, "utf8.json", doc)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"config error: line {line}, column '{len(lines[line - 1])}': invalid UTF-8 byte 0xe9" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["run", "sweep", "gen-data"])
    def test_overflowing_noise_sigma_exit_2_names_field(self, tmp_path, capsys, command):
        # Finite, but sigma times a standard normal draw overflows float64;
        # a numpy RuntimeWarning fails this test (see pyproject.toml).
        data = {"synthetic": {**SMALL_DATA["synthetic"], "noise_sigma": 1e308}}
        if command == "gen-data":
            path, flag = write_config(tmp_path, "spec.json", data["synthetic"]), "--spec"
        elif command == "run":
            path, flag = run_config(tmp_path, data=data), "--config"
        else:
            path, flag = sweep_config(tmp_path, data=data), "--spec"
        assert main([command, flag, path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "config error: config field 'data.synthetic': noise_sigma 1e+308 makes the noise overflow" in err
        assert "Traceback" not in err

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


class TestSweepBytes:
    """The output bytes of a sweep whose fedprox cells diverge (lr 1e30) and
    fail, pinned at one and at two worker processes: aligned, fedavg and
    fedprox x dom0-dom3 x seeds 0, 1, 30 rounds each.  The digests hold
    where OpenBLAS picks an FMA kernel, as the plain golden digests do."""

    DOC = {
        "sweep": {
            "strategies": ["aligned", "fedavg", "fedprox"],
            "seeds": [0, 1],
            "targets": ["dom0", "dom1", "dom2", "dom3"],
            "overrides": {"fedprox": {"lr": 1e30}},
        },
        "model": {"hidden_dim": 8},
        "data": {
            "synthetic": {
                "family": "rotated_two_moons",
                "num_domains": 4,
                "samples_per_domain": 120,
                "rotation_degrees": [0.0, 15.0, 30.0, 45.0],
                "noise_sigma": 0.1,
                "seed": 0,
            }
        },
        "federation": {"rounds": 30, "batch_size": 8, "lr": 0.1},
    }
    PINNED = {
        "results.csv": "95e287d19b331bf5066269d155924dc97cd37b75c6232fc9a01d2a19e41feb75",
        "aggregate.csv": "d55b0c9be65f836d8d41aab055a3a2c7293d745c103e33011f639afb5bc4f44a",
        "summary.json": "4f1402259eb2a17df8fd4078218fc980c0531e43015010f6233f715bd9fddc29",
    }

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_pinned(self, tmp_path, jobs):
        out = tmp_path / "out"
        path = write_config(tmp_path, "grid.json", self.DOC)
        assert main(["sweep", "--spec", path, "--out", str(out), "--quiet", "--jobs", jobs]) == 0
        with open(out / "results.csv", encoding="utf-8") as fh:
            errors = [row["error"] for row in csv.DictReader(fh) if row["strategy"] == "fedprox"]
        assert len(errors) == 8 and all(e.startswith("NonFiniteResult: round ") for e in errors)
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in self.PINNED}
        assert digests == self.PINNED


class TestSweep:
    sweep_config = staticmethod(sweep_config)

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

    def test_default_outdir_uses_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDALIGN_OUT", str(tmp_path / "root"))
        cfg = self.sweep_config(tmp_path, sweep={"strategies": ["fedavg"], "seeds": [0], "targets": ["dom0"]})
        assert main(["sweep", "--spec", cfg, "--quiet"]) == 0
        assert (tmp_path / "root" / "grid-sweep" / "summary.json").exists()


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
HOSTILE_VALUES = [True, "x", -1, 0, 1e308, JSON_1E400, 10**400, None, [], {}]


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


CONTRACT_CASES = [(command, doc, path) for command, doc in CONTRACT_CONFIGS for path in _field_paths(doc)]


@pytest.fixture(scope="session")
def contract_csvs(tmp_path_factory):
    """Each CSV placeholder of the contract configs, JSON-quoted, mapped to
    its file's quoted path; both files are written once per session."""
    tmp = tmp_path_factory.mktemp("contract")
    data_csv, nan_csv = str(tmp / "suite.csv"), str(tmp / "nan_suite.csv")
    save_csv(generate(SyntheticSpec(**CONTRACT_RUN["data"]["synthetic"])), data_csv)
    write_nan_csv(CONTRACT_RUN["data"]["synthetic"], CONTRACT_RUN["target"], nan_csv)
    return {json.dumps(CONTRACT_CSV_PATH): json.dumps(data_csv), json.dumps(CONTRACT_NAN_CSV_PATH): json.dumps(nan_csv)}


class TestContract:
    """Any single-field change to a valid run, sweep or gen-data config
    exits 0, 1 or 2, and never with a traceback."""

    def test_one_hostile_field(self, contract_csvs):
        # Every (field, hostile value) pair, on every run.
        outcomes = []
        for (command, doc, path), value in itertools.product(CONTRACT_CASES, HOSTILE_VALUES):
            text = json.dumps(_replaced(doc, path, value)).replace(json.dumps(JSON_1E400), "1e400")
            for placeholder, quoted in contract_csvs.items():
                text = text.replace(placeholder, quoted)
            err = io.StringIO()
            with tempfile.TemporaryDirectory() as tmp:
                config = os.path.join(tmp, "config.json")
                with open(config, "w", encoding="utf-8") as fh:
                    fh.write(text)
                flag = "--config" if command == "run" else "--spec"
                out = os.path.join(tmp, "out.csv" if command == "gen-data" else "out")
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = main([command, flag, config, "--out", out, "--quiet"])
            outcomes.append((command, path, value, code, err.getvalue()))
        assert len(outcomes) == len(CONTRACT_CASES) * len(HOSTILE_VALUES)
        assert [o for o in outcomes if o[3] not in (0, 1, 2)] == []
        assert [o for o in outcomes if "Traceback" in o[4]] == []

    @pytest.mark.parametrize("row", ["dom2,0.5,0.5", "dom2,0.5"], ids=["no-label", "no-feature"])
    def test_short_csv_row_exit_1_names_line(self, tmp_path, capsys, row):
        data_csv = tmp_path / "suite.csv"
        save_csv(generate(SyntheticSpec(**SMALL_DATA["synthetic"])), str(data_csv))
        with open(data_csv, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        lineno = len(data_csv.read_text(encoding="utf-8").splitlines())
        doc = {
            "target": "dom2",
            "model": {"hidden_dim": 4},
            "data": {"csv": {**CSV_BLOCK, "path": str(data_csv)}},
            "federation": dict(SMALL_FED),
        }
        path = write_config(tmp_path, "short.json", doc)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"error: line {lineno}: row is shorter than the header" in err
        assert "Traceback" not in err

    def test_long_csv_row_exit_1_names_line(self, tmp_path, capsys):
        data_csv = tmp_path / "suite.csv"
        save_csv(generate(SyntheticSpec(**SMALL_DATA["synthetic"])), str(data_csv))
        with open(data_csv, "a", encoding="utf-8") as fh:
            fh.write("dom2,0.5,0.5,0,EXTRA\n")
        lineno = len(data_csv.read_text(encoding="utf-8").splitlines())
        doc = {
            "target": "dom2",
            "model": {"hidden_dim": 4},
            "data": {"csv": {**CSV_BLOCK, "path": str(data_csv)}},
            "federation": dict(SMALL_FED),
        }
        path = write_config(tmp_path, "long.json", doc)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"error: line {lineno}: row is longer than the header" in err
        assert "Traceback" not in err


def valid_document(command, manifest):
    """A document ``command`` runs: TestBadValues' run, sweep or gen-data
    config, or a manifest that ``run`` wrote, fed back to ``run``."""
    if command == "manifest":
        return json.loads(json.dumps(manifest))
    if command == "gen-data":
        return dict(SMALL_DATA["synthetic"])
    doc = {"model": {"hidden_dim": 4}, "data": SMALL_DATA, "federation": dict(SMALL_FED)}
    if command == "sweep":
        return {"sweep": {"strategies": ["fedavg"], "seeds": [0], "targets": ["dom2"]}, **doc}
    return {"target": "dom2", **doc}


@pytest.fixture(scope="module")
def written_manifest(tmp_path_factory):
    """The manifest of one small run."""
    out = tmp_path_factory.mktemp("manifest") / "out"
    config = write_config(out.parent, "exp.json", valid_document("run", None))
    assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 0
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


def _object_paths(node, prefix=()):
    """Every path into a JSON document that holds an object, the root
    included (the documents here hold no object inside a list)."""
    if isinstance(node, dict):
        yield prefix
        for key, child in node.items():
            yield from _object_paths(child, prefix + (key,))


NON_OBJECTS = [None, True, 0, "x", []]


class TestDocumentContract:
    """Whatever the document as a whole looks like, run, sweep, gen-data and
    a manifest fed back exit 0, 1 or 2, never with a traceback, and exit 2
    names a field or a line."""

    @pytest.mark.parametrize("case", ["bom", "non-object", "duplicate-key", "nested-too-deep", "5000-digit-int"])
    @pytest.mark.parametrize("command", ["run", "sweep", "gen-data", "manifest"])
    def test_document(self, tmp_path, written_manifest, command, case):
        doc = valid_document(command, written_manifest)
        seed = {"gen-data": ("seed",), "manifest": ("config", "data", "synthetic", "seed")}
        placeholder = json.dumps(_replaced(doc, seed.get(command, ("data", "synthetic", "seed")), "@value@"))
        if case == "bom":
            texts = ["\ufeff" + json.dumps(doc)]
        elif case == "non-object":
            texts = [
                json.dumps(value if path == () else _replaced(doc, path, value))
                for path in _object_paths(doc)
                for value in NON_OBJECTS
            ]
        elif case == "duplicate-key":
            texts = [placeholder.replace('"seed": "@value@"', '"seed": 1, "seed": 0')]
        elif case == "nested-too-deep":
            texts = [placeholder.replace('"@value@"', "[" * 100000 + "]" * 100000)]
        else:
            texts = [placeholder.replace('"@value@"', "9" * 5000)]
        subcommand = "run" if command == "manifest" else command
        flag = "--config" if subcommand == "run" else "--spec"
        outcomes = []
        for n, text in enumerate(texts):
            path = tmp_path / f"doc{n}.json"
            path.write_text(text, encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main([subcommand, flag, str(path), "--out", str(tmp_path / f"out{n}"), "--quiet"])
            outcomes.append((text[:200], code, err.getvalue()))
        assert [o for o in outcomes if o[1] not in (0, 1, 2)] == []
        assert [o for o in outcomes if "Traceback" in o[2]] == []
        named = re.compile(r"^config error: (config field '[^']*'|line \d+, )", re.M)
        assert [o for o in outcomes if o[1] == 2 and not named.search(o[2])] == []
        if case != "non-object":
            assert [code for _, code, _ in outcomes] == [2]


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

"""README's examples against the package: the Quick start block runs, and
the run and sweep configs load through the CLI's own config parsing, so
neither can drift from the API unnoticed."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from fedalign.cli import _load_config, _section
from fedalign.federation import FedConfig
from fedalign.sweep import SweepSpec

from _oracles import checkout_env

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def test_quick_start_runs(tmp_path):
    (quick_start,) = _blocks("python")
    proc = subprocess.run(
        [sys.executable, "-c", quick_start],
        cwd=tmp_path,
        env=checkout_env(TMPDIR=str(tmp_path)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    accuracy, fraction = (float(line) for line in proc.stdout.split())
    assert 0.0 <= accuracy <= 1.0 and 0.0 <= fraction <= 1.0


@pytest.mark.parametrize("index, head", [(0, "target"), (1, "sweep")], ids=["run", "sweep"])
def test_config_examples_load(tmp_path, index, head):
    configs = _blocks("json")
    assert len(configs) == 2
    path = tmp_path / f"{head}.json"
    path.write_text(configs[index], encoding="utf-8")
    doc, suite, _, model = _load_config(str(path), head)
    cfg = FedConfig.from_dict(_section(doc, "federation"))
    if head == "sweep":
        spec = SweepSpec.from_dict(doc["sweep"])
        assert set(spec.targets) <= set(suite.domain_ids)
    else:
        assert doc["target"] in suite.domain_ids
        assert cfg.strategy == "aligned"
    assert model.input_dim == suite.num_features

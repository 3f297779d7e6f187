"""Smoke test: the walk-through demos run to completion.

Each demo runs in its own process from an empty working directory, with
its temporary directory inside it, so any file it writes lands there.
``05_benchmark_sweep.py`` runs a full comparison grid and is the slowest,
at about 15 s on a 2-core host.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from _oracles import checkout_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py"))


def test_demo_set():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = checkout_env(TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

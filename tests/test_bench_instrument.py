"""The benchmark's tracer against the package it patches.

``bench/instrument.py`` replaces module attributes by name, so a refactor
that renames or reroutes one of them would silently drop its spans from
every traced benchmark run.  These tests import the tracer from the
checkout's ``bench`` directory and check that every patch point exists,
that installing the tracer restores the originals, and that a short traced
run records the layers the benchmark reports.
"""

import pathlib
from collections import Counter

import pytest

from fedalign.domains import SyntheticSpec, generate
from fedalign.federation import FedConfig, client_rows, run_experiment
from fedalign.models import ModelSpec

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def instrument(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import instrument

    return instrument


def test_every_patch_point_exists_and_is_callable(instrument):
    points = instrument._patch_points()
    assert points
    for module, attr, name, _ in points:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_installed_restores_the_originals(instrument):
    points = instrument._patch_points()
    originals = [getattr(module, attr) for module, attr, _, _ in points]
    with instrument.installed(instrument.Tracer()):
        assert all(getattr(m, a) is not fn for (m, a, _, _), fn in zip(points, originals))
    assert all(getattr(m, a) is fn for (m, a, _, _), fn in zip(points, originals))


def test_traced_run_records_each_layer(instrument):
    spec = SyntheticSpec(num_domains=3, rotation_degrees=(0.0, 20.0, 40.0), samples_per_domain=30)
    suite = generate(spec)
    model = ModelSpec(input_dim=2, hidden_dim=4)
    cfg = FedConfig(strategy="aligned", rounds=2, batch_size=2)
    tracer = instrument.Tracer()
    # Start from no memoized batch rows, so every client stream is drawn.
    client_rows.clear()
    with instrument.installed(tracer):
        run_experiment(suite, "dom2", model, cfg)
    calls = Counter(span[3] for span in tracer.spans)
    assert calls["federation.run_round"] == 2
    # One stacked loss_and_grad per round.  The client phase gathers the
    # memoized rows itself and never calls minibatch, so the tracer's
    # domains.minibatch span reads 0 until the benchmark wraps
    # domains.batch_rows instead (ROADMAP item 1, "Record every speed
    # claim in BENCH_*.json and repair the tracer"); then count its calls
    # on memo misses here.
    assert calls["models.loss_and_grad"] == 2
    assert calls["domains.minibatch"] == 0
    # One Rng at init, then per round two client streams and the
    # aggregation order's stream.
    assert calls["numcore.rng_init"] == 1 + 2 * (2 + 1)
    # Two minibatch shuffles of 30 rows a round.  The aggregation orders
    # come from one numcore.shuffles draw, which does not go through shuffle.
    assert calls["numcore.shuffle"] == 2 * 2
    assert tracer.counts["numcore.shuffle.draws"] == 2 * (2 * 29)
    # Nothing in the run reads either variance, so neither is computed.
    assert calls["aggregation.domain_variance"] == 0
    # Run again: the client streams are memoized, so only the aggregation
    # order is drawn, and no shuffle runs.
    tracer.reset()
    with instrument.installed(tracer):
        run_experiment(suite, "dom2", model, cfg)
    calls = Counter(span[3] for span in tracer.spans)
    assert calls["numcore.rng_init"] == 1 + 2
    assert calls["numcore.shuffle"] == 0

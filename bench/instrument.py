"""Spans around fedalign's public layer functions, recorded from outside the
package.

A :class:`Tracer` replaces the module attributes that callers resolve at
call time (``fedalign.federation.run_round``, ``fedalign.domains.shuffle``
and so on) with wrappers that record one span per call: id, parent id,
round id, name, start and end in ``perf_counter_ns``.  Every span inside a
``federation.run_round`` call carries that round's span id as its round
id.  Spans stay in memory; the caller writes them out at the end.

Sweep cells run in ``ProcessPoolExecutor`` workers, which inherit the
patched modules through ``fork``.  ``fedalign.sweep._run_cell`` is replaced
by :func:`captured_cell`, which records each cell's digest, checks, time
and (when tracing) spans into a file that :func:`collect_cells` reads back
in the parent.  This capture runs in traced and untraced repetitions alike.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

import checks

SPAN_FIELDS = ("id", "parent", "round", "name", "start_ns", "end_ns")
LAYERS = ("numcore", "domains", "models", "aggregation", "hekit", "federation")

_ACTIVE = None  # the installed Tracer, inherited by forked sweep workers
_CELL_DIR = None
_CAPTURED: list[dict] = []
_ORIGINAL = {}


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.cells: list[dict] = []
        self._stack: list[int] = []
        self._next = 0
        self._round = None

    def wrap(self, name: str, fn, count=None):
        starts_round = name == "federation.run_round"

        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            if starts_round:
                self._round = sid
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, parent, self._round, name, start, end))
                if starts_round:
                    self._round = None
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def add_cells(self, cells: dict) -> None:
        self.cells.extend(cells.values())

    def batches(self) -> list[tuple[str, list]]:
        """(process label, spans) for this process and every sweep cell."""
        return [("main", self.spans)] + [(c["label"], c.get("spans", [])) for c in self.cells]

    def to_json(self) -> dict:
        return {
            "fields": list(SPAN_FIELDS),
            "processes": [{"process": p, "spans": [list(s) for s in spans]} for p, spans in self.batches()],
        }


# ------------------------------------------------------------- counters


def _count_draws(counts, args, result):
    counts["numcore.shuffle.draws"] += max(int(args[1]) - 1, 0)


def _count_minibatch(counts, args, result):
    dataset, batch_size = args[0], args[1]
    returned = len(result[1])
    counts["domains.minibatch.rows_returned"] += returned
    counts["domains.minibatch.rows_permuted"] += dataset.num_rows if batch_size < dataset.num_rows else returned


def _count_evaluate(counts, args, result):
    counts["models.evaluate.rows"] += args[1].num_rows


def _count_aggregate(counts, args, result):
    counts["aggregation.pairs_tested"] += len(result.tested_pairs)
    counts["aggregation.conflicts"] += result.num_conflicts
    counts["aggregation.bytes_in"] += sum(u.gradient.nbytes for u in args[0])


def _patch_points():
    from fedalign import aggregation, cli, domains, federation, hekit

    return [
        (federation, "Rng", "numcore.rng_init", None),
        (domains, "shuffle", "numcore.shuffle", _count_draws),
        (aggregation, "shuffle", "numcore.shuffle", _count_draws),
        (federation, "minibatch", "domains.minibatch", _count_minibatch),
        (federation, "loss_and_grad", "models.loss_and_grad", None),
        (federation, "sgd_step", "models.sgd_step", None),
        (federation, "evaluate", "models.evaluate", _count_evaluate),
        (federation, "aggregate_aligned", "aggregation.aggregate_aligned", _count_aggregate),
        (federation, "aggregate_fedavg", "aggregation.aggregate_fedavg", _count_aggregate),
        (aggregation, "domain_variance", "aggregation.domain_variance", None),
        (federation, "enc_vec", "hekit.enc_vec", None),
        (federation, "aligned_aggregate_encrypted", "hekit.aligned_aggregate_encrypted", None),
        (federation, "weighted_sum_encrypted", "hekit.weighted_sum_encrypted", None),
        (hekit, "weighted_sum_encrypted", "hekit.weighted_sum_encrypted", None),
        (hekit, "audit_trace", "hekit.audit_trace", None),
        (federation, "dec_vec", "hekit.dec_vec", None),
        (federation, "run_round", "federation.run_round", None),
        (federation, "client_local_step", "federation.client_local_step", None),
        (cli, "run_sweep", "sweep.run_sweep", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer | None):
    """Route the layer functions through ``tracer`` for the block's duration;
    no-op for ``None``."""
    global _ACTIVE
    if tracer is None:
        yield
        return
    saved = []
    for module, attr, name, count in _patch_points():
        fn = getattr(module, attr)
        saved.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(name, fn, count))
    _ACTIVE = tracer
    try:
        yield
    finally:
        _ACTIVE = None
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# ---------------------------------------------------------- sweep cells


def _capturing_run_experiment(suite, target, model, cfg, *args, **kwargs):
    result = _ORIGINAL["run_experiment"](suite, target, model, cfg, *args, **kwargs)
    _CAPTURED.append(checks.summarize(result, cfg.rounds))
    return result


def captured_cell(args):
    """Stand-in for ``fedalign.sweep._run_cell`` in the pool workers."""
    tracer = _ACTIVE
    _CAPTURED.clear()
    run_cell = _ORIGINAL["_run_cell"]
    if tracer is not None:
        tracer.reset()  # drop the parent's spans inherited through fork
        run_cell = tracer.wrap("sweep.cell", run_cell)
    t0 = time.perf_counter_ns()
    cell = run_cell(args)
    t1 = time.perf_counter_ns()
    entry = {
        "label": f"{cell.strategy}/{cell.target}/seed{cell.seed}",
        "cell_s": (t1 - t0) / 1e9,
        **(_CAPTURED[0] if _CAPTURED else {}),
    }
    if tracer is not None:
        entry["spans"] = tracer.spans
        entry["counts"] = dict(tracer.counts)
    path = os.path.join(_CELL_DIR, f"{os.getpid()}-{t0}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh)
    return cell


def begin_sweep(workdir: str) -> str:
    """Capture every sweep cell run from now on into a fresh directory."""
    global _CELL_DIR
    from fedalign import sweep

    if sweep._run_cell is not captured_cell:
        _ORIGINAL["_run_cell"] = sweep._run_cell
        _ORIGINAL["run_experiment"] = sweep.run_experiment
        sweep._run_cell = captured_cell
        sweep.run_experiment = _capturing_run_experiment
    _CELL_DIR = os.path.join(workdir, "cells")
    os.makedirs(_CELL_DIR)
    return _CELL_DIR


def collect_cells(cell_dir: str) -> dict:
    """label -> captured entry, for every cell file; removes the files."""
    cells = {}
    for name in sorted(os.listdir(cell_dir)):
        path = os.path.join(cell_dir, name)
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
        cells[entry["label"]] = entry
        os.remove(path)
    os.rmdir(cell_dir)
    return cells


# -------------------------------------------------------------- metrics


def _self_times(spans) -> list[tuple]:
    """(name, round, inclusive_ns, self_ns) per span."""
    children = defaultdict(int)
    for sid, parent, _, _, start, end in spans:
        if parent is not None:
            children[parent] += end - start
    return [(name, rnd, end - start, end - start - children[sid]) for sid, _, rnd, name, start, end in spans]


def rep_metrics(tracer: Tracer, rep, jobs: int) -> tuple[dict, dict]:
    """Per-layer figures of one traced repetition: (totals, samples).
    Totals are per repetition; samples are per-call inclusive times in ms,
    pooled across repetitions for percentiles."""
    calls = Counter()
    self_ns = Counter()
    layer_round_ns = Counter()
    round_ns = 0
    samples = defaultdict(list)
    counts = Counter(tracer.counts)
    for cell in tracer.cells:
        counts.update(cell.get("counts", {}))
    for _, spans in tracer.batches():
        for name, rnd, incl, own in _self_times(spans):
            calls[name] += 1
            self_ns[name] += own
            samples[name].append(incl / 1e6)
            if rnd is not None:
                layer_round_ns[name.split(".")[0]] += own
            if name == "federation.run_round":
                round_ns += incl

    def ms(name):
        return self_ns[name] / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    cell_s = [c["cell_s"] for c in tracer.cells]
    sweep_ms = sum(samples["sweep.run_sweep"])
    m = {
        "numcore.shuffle.calls": calls["numcore.shuffle"],
        "numcore.shuffle.ms": ms("numcore.shuffle"),
        "numcore.shuffle.draws": counts["numcore.shuffle.draws"],
        "numcore.rng_init.calls": calls["numcore.rng_init"],
        "numcore.rng_init.ms": ms("numcore.rng_init"),
        "domains.minibatch.calls": calls["domains.minibatch"],
        "domains.minibatch.ms": ms("domains.minibatch"),
        "domains.minibatch.useful_ratio": ratio(
            counts["domains.minibatch.rows_returned"], counts["domains.minibatch.rows_permuted"]
        ),
        "models.loss_and_grad.calls": calls["models.loss_and_grad"],
        "models.loss_and_grad.ms": ms("models.loss_and_grad"),
        "models.sgd_step.ms": ms("models.sgd_step"),
        "models.evaluate.calls": calls["models.evaluate"],
        "models.evaluate.ms": ms("models.evaluate"),
        "models.evaluate.rows": counts["models.evaluate.rows"],
        "aggregation.domain_variance.ms": ms("aggregation.domain_variance"),
        "aggregation.bytes_in": counts["aggregation.bytes_in"],
        "aggregation.pairs_tested": counts["aggregation.pairs_tested"],
        "aggregation.conflicts": counts["aggregation.conflicts"],
        "aggregation.conflict_ratio": ratio(counts["aggregation.conflicts"], counts["aggregation.pairs_tested"]),
        "hekit.enc_vec.ms": ms("hekit.enc_vec"),
        "hekit.aligned_aggregate_encrypted.ms": ms("hekit.aligned_aggregate_encrypted"),
        "hekit.weighted_sum_encrypted.ms": ms("hekit.weighted_sum_encrypted"),
        "hekit.audit_trace.ms": ms("hekit.audit_trace"),
        "hekit.dec_vec.ms": ms("hekit.dec_vec"),
        "hekit.cipher_ops": sum(r.cipher_ops for r in rep.runs),
        "federation.run_round.calls": calls["federation.run_round"],
        "federation.client_local_step.ms": ms("federation.client_local_step"),
        "federation.records_mb": sum(r.records_bytes for r in rep.runs) / 2**20,
        "sweep.cell_s.p50": float(np.median(cell_s)) if cell_s else 0.0,
        "sweep.cell_s.max": max(cell_s, default=0.0),
        "sweep.pool_busy_fraction": ratio(sum(cell_s), jobs * sweep_ms / 1e3),
        "cli.self_ms": ms("cli.main"),
        "cli.bytes_written": rep.bytes_written,
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = sum(v for k, v in self_ns.items() if k.startswith(layer + ".")) / 1e6
        m[f"{layer}.round_share"] = ratio(layer_round_ns[layer], round_ns)
    return m, samples


PERCENTILES = {
    "aggregation.aggregate_aligned.ms": "aggregation.aggregate_aligned",
    "aggregation.aggregate_fedavg.ms": "aggregation.aggregate_fedavg",
    "federation.run_round.ms": "federation.run_round",
}


def combine(per_rep: list[tuple[dict, dict]]) -> dict:
    """Median of each per-repetition total; p50/p99 over pooled samples."""
    out = {k: float(np.median([m[k] for m, _ in per_rep])) for k in per_rep[0][0]}
    for prefix, name in PERCENTILES.items():
        pooled = [v for _, s in per_rep for v in s.get(name, [])]
        for q in (50, 99):
            out[f"{prefix}.p{q}"] = float(np.percentile(pooled, q)) if pooled else 0.0
    return out

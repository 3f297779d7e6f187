"""Shared numerical oracles for the test suite.

Fisher-Yates with one scalar generator call per swap, and with-replacement
row draws one scalar call at a time: the references for the sampler's
one-call forms, which must read the Philox stream identically.

Scalar fixed-point rounding on Python integers, the reference for the
cipher codec's elementwise int64 arithmetic.

The pair diagnostics of aggregation as the per-pair loops they replaced:
one ``np.sum`` per pair, accumulated in (i, j) order.  The batched forms
must agree with them exactly.  The aligned pair loop likewise, with one
``numcore.dot`` per tested pair, replayed in a recorded visiting order
read back from a report's ``tested_pairs``.

The cipher with flattened tuple traces, as it was before handles carried
tag counts: each operation joins its operands' traces and appends its own
tag, the audit counts the joined tuple, and the encrypted aligned replay
walks the recorded visiting order, skipping the pairs that did not
conflict.  The count traces and the conflict-driven replay must give the
same payloads and the same audit dict, key order included.

The model's forward pass, loss gradient and evaluation written with a
fresh temporary per expression: the references for the in-place forms,
which must agree byte for byte.  The evaluation reference takes the whole
log-softmax matrix and indexes the label entries out of it.  Both can also
take the loss the way the class-weighted loss once did, at weights of one:
each sample's term times 1.0, and the gradient rows times the array
``weights / n``.  The plain pass must keep those bits.

The per-round mean source-domain figures as training once recorded them:
each source evaluated, by the evaluation reference, on the server
parameters right after each round.  ``ExperimentResult.csv_rows``
evaluates them at each record's parameters and must agree bit for bit.

A whole run written the slow, obvious way: each client alone, each local
step drawing its rows one scalar call at a time from its own stream
``(seed, 1, k, t)``, the loss-gradient reference on those rows, the aligned
pair loop's reference on the visiting orders drawn one scalar call at a
time from ``(seed, 2, t)``, a left-to-right fold for the weighted sum,
``values - lr * g`` for the step, and the evaluation reference for every
figure.  An encrypted run replays the round's own conflict pairs (or the
plain weighted sum) on cipher handles and steps on the decryption.  The
first check to fail ends the run with the error a one-at-a-time round
raises (see below).  ``run_experiment``'s records, ``csv_rows``, final
parameters and any error must equal it bit for bit.

Central finite differences over the flat parameter vector, with the usual
gradient-check hygiene: a symmetric relative-error metric with an absolute
floor (difference quotients bottom out around 1e-9 at h=1e-6, so demanding
relative accuracy of coordinates that are essentially zero would only test
roundoff), and a relu kink guard so no hidden-unit preactivation sits
within a step of the non-differentiable point.

A fedavg or fedprox round's error as ``run_round`` found it when it
replayed a failing round one client at a time: each client in order walks
its local steps alone, on the rows its own stream draws, and the first step
to fail, or a displacement that is not finite, names that client; with
every walk finished, the aggregate and the server step may still fail,
naming the round only.  The stacked client phase, which keeps each row's
first failure, must raise the same error.

The client phase's success path as it was written before its first step
took the shared global parameters: every local step at a (K, P) stack
that starts as K broadcast views of them, stepped by ``dataclasses.replace``.
The shared first step must give the same bytes.

And one piece of plumbing: the environment for a child Python process that
must import this checkout's sources, as the tests' own imports do.
"""

import math
import os
import pathlib
from dataclasses import replace

import numpy as np

from fedalign.aggregation import AlignConfig, ClientUpdate, aggregate_fedavg, align_pair
from fedalign.domains import DomainDataset, leave_one_out, minibatch
from fedalign.errors import DimensionMismatch, NonFiniteResult, OverflowAtScale, TraceViolation
from fedalign.hekit import (
    ADD,
    ALLOWED_TAGS,
    ENC,
    MUL,
    SUB,
    CipherHandle,
    TraceAudit,
    TransparentCipher,
    aligned_aggregate_encrypted,
    dec_vec,
    enc_vec,
    transparent_cipher,
    weighted_sum_encrypted,
)
from fedalign.federation import effective_lr, run_round
from fedalign.models import Metrics, ParamVector, init_params, loss_and_grad, sgd_step
from fedalign.numcore import Rng, dot, ensure_finite


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def checkout_env(**extra) -> dict:
    """``os.environ`` plus ``extra``, with this checkout's ``src`` first on
    ``PYTHONPATH``."""
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def scalar_shuffle(rng, n: int) -> np.ndarray:
    """Fisher-Yates over ``0..n-1``, drawing each swap index separately."""
    perm = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = rng.integers(0, i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def scalar_draws(rng, n: int, count: int) -> np.ndarray:
    """``count`` row indices from ``[0, n)``, with replacement, one call each."""
    return np.array([rng.integers(0, n) for _ in range(count)], dtype=np.int64)


def round_half_away(x: float) -> int:
    """Nearest integer to ``x``, ties away from zero."""
    return math.floor(x + 0.5) if x >= 0 else -math.floor(-x + 0.5)


def div_round(n: int, d: int) -> int:
    """``n / d`` rounded to nearest, ties away from zero (d > 0)."""
    q, r = divmod(abs(n), d)
    if 2 * r >= d:
        q += 1
    return q if n >= 0 else -q


def squared_distance(a, b) -> float:
    """Squared Euclidean distance ``||a - b||^2`` as ``np.sum(d * d)``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"vector lengths differ: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.sum(d * d))


def reference_domain_variance(grads) -> float:
    """Sum of ``squared_distance`` over pairs i < j, added in (i, j) order."""
    total = 0.0
    for i in range(len(grads)):
        for j in range(i + 1, len(grads)):
            total += squared_distance(grads[i], grads[j])
    return total


def reference_pair_dots(grads) -> list[tuple[int, int, float]]:
    """``(i, j, np.sum(g_i * g_j))`` for pairs i < j in (i, j) order."""
    return [
        (i, j, float(np.sum(grads[i] * grads[j])))
        for i in range(len(grads))
        for j in range(i + 1, len(grads))
    ]


def visiting_order(tested_pairs) -> tuple[list[int], dict[int, list[int]]]:
    """The aligned pair loop's visiting order read back from a report's
    ``tested_pairs``: (outer order, {client: its inner order})."""
    outer, inner = [], {}
    for i, j in tested_pairs.tolist():
        if i not in inner:
            outer.append(i)
            inner[i] = []
        inner[i].append(j)
    return outer, inner


def reference_aligned_pairs(grads, lam, outer, inner, accumulate=True, target="original"):
    """The aligned pair loop with ``numcore.dot`` as the conflict test:
    ``[(i, j, inner product), ...]`` in visiting order, and the final rows."""
    originals = [np.asarray(g, dtype=np.float64) for g in grads]
    working = [g.copy() for g in originals]
    tested = []
    for i in outer:
        for j in inner[i]:
            other = originals[j] if target == "original" else working[j]
            probe = working[i] if accumulate else originals[i]
            value = dot(probe, other)
            tested.append((i, j, value))
            if value < 0.0:
                working[i] = align_pair(probe, other, lam)
    return tested, np.array(working)


class TupleTraceCipher(TransparentCipher):
    """``TransparentCipher``'s arithmetic, with each trace the flattened
    tuple of every tag in the handle's expression tree."""

    def enc(self, x) -> CipherHandle:
        return CipherHandle(self.codec.encode(x), (ENC,))

    def add(self, a, b) -> CipherHandle:
        return CipherHandle(self.codec.check_range(a.payload + b.payload), a.trace + b.trace + (ADD,))

    def sub(self, a, b) -> CipherHandle:
        return CipherHandle(self.codec.check_range(a.payload - b.payload), a.trace + b.trace + (SUB,))

    def mul(self, a, b) -> CipherHandle:
        return CipherHandle(self.codec.rescale(a.payload * b.payload), a.trace + b.trace + (MUL,))


def reference_audit(handles) -> TraceAudit:
    """The audit of tuple traces: rooted in ENC, allowed tags only, each
    tag counted once per occurrence per slot, keys in first-occurrence
    order."""
    counts: dict[str, int] = {}
    coordinates = total = 0
    for idx, h in enumerate(handles):
        if len(h.trace) == 0 or h.trace[0] != ENC:
            raise TraceViolation(f"handle {idx}: trace does not start with ENC")
        slots = int(np.size(h.payload))
        for tag in h.trace:
            if tag not in ALLOWED_TAGS:
                raise TraceViolation(f"handle {idx}: forbidden operator tag {tag!r}")
            counts[tag] = counts.get(tag, 0) + slots
        coordinates += slots
        total += len(h.trace) * slots
    return TraceAudit(coordinates=coordinates, total_tags=total, tag_counts=counts)


def reference_aligned_encrypted(enc_updates, lam, tested_pairs, cipher, conflicts, weights, accumulate, target):
    """The encrypted aligned replay over a recorded visiting order (the
    report's ``tested_pairs``), correcting the pairs in the set
    ``conflicts``, then the encrypted weighted sum: (handle,
    ``reference_audit`` of it)."""
    two_lam = cipher.mul(cipher.enc(2.0), cipher.enc(lam))
    working = list(enc_updates)
    for i, j in tested_pairs.tolist():
        if (i, j) in conflicts:
            base = working[i] if accumulate else enc_updates[i]
            tgt = enc_updates[j] if target == "original" else working[j]
            working[i] = cipher.sub(base, cipher.mul(two_lam, cipher.sub(base, tgt)))
    out = cipher.mul(cipher.enc(float(weights[0])), working[0])
    for w, g in zip(weights[1:], working[1:]):
        out = cipher.add(out, cipher.mul(cipher.enc(float(w)), g))
    return out, reference_audit([out])


def _reference_hidden(params: ParamVector, x):
    (w1, b1), (w2, b2) = params.layers()
    pre1 = x @ w1 + b1
    h = np.maximum(pre1, 0.0) if params.spec.activation == "relu" else np.tanh(pre1)
    return pre1, h, w2, b2


def reference_forward(params: ParamVector, x) -> np.ndarray:
    """Logits as ``x @ w1 + b1``, activation, ``h @ w2 + b2``."""
    x = np.asarray(x, dtype=np.float64)
    if params.spec.hidden_dim == 0:
        (w, b), = params.layers()
        return x @ w + b
    _, h, w2, b2 = _reference_hidden(params, x)
    return h @ w2 + b2


def _unit_weighted_mean(terms, unit_weights: bool):
    """``terms`` summed and divided by their count, and the factor the
    gradient rows take: plainly, or through a weight vector of ones."""
    n = terms.shape[0]
    if unit_weights:
        weights = np.ones(n)
        return float(np.sum(weights * terms) / n), (weights / n)[:, None]
    return float(np.sum(terms) / n), 1.0 / n


def reference_loss_and_grad(params: ParamVector, x, labels, unit_weights: bool = False):
    """Mean cross-entropy and its gradient, one temporary per step."""
    spec = params.spec
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    if spec.hidden_dim == 0:
        (w, b), = params.layers()
        logits = x @ w + b
    else:
        pre1, h, w2, b2 = _reference_hidden(params, x)
        logits = h @ w2 + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    total, row_scale = _unit_weighted_mean(-logp[np.arange(n), labels], unit_weights)
    dz = np.exp(logp)
    dz[np.arange(n), labels] -= 1.0
    dz *= row_scale
    if spec.hidden_dim == 0:
        return total, np.concatenate([(x.T @ dz).reshape(-1), dz.sum(axis=0)])
    dh = dz @ w2.T
    act_grad = (pre1 > 0).astype(np.float64) if spec.activation == "relu" else 1.0 - h * h
    da = dh * act_grad
    parts = [(x.T @ da).reshape(-1), da.sum(axis=0), (h.T @ dz).reshape(-1), dz.sum(axis=0)]
    return total, np.concatenate(parts)


def reference_evaluate(params: ParamVector, dataset, unit_weights: bool = False) -> Metrics:
    """Accuracy as the mean of ``argmax == label`` and the mean loss read
    out of the full log-softmax matrix."""
    logits = reference_forward(params, dataset.features)
    labels = dataset.labels
    n = labels.shape[0]
    accuracy = float(np.mean(np.argmax(logits, axis=1) == labels))
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss, _ = _unit_weighted_mean(-logp[np.arange(n), labels], unit_weights)
    return Metrics(accuracy=accuracy, loss=loss)


def reference_source_means(suite, target, model, cfg, unit_weights: bool = False):
    """``[(mean source accuracy, mean source loss), ...]`` per round, each
    source evaluated on the ``params`` of that round's ``run_round`` record
    (deepall: the pooled sources, trained as fedavg), and the final params."""
    sources, target_ds = leave_one_out(suite, target)
    if cfg.strategy == "deepall":
        features = np.vstack([s.features for s in sources])
        sources = [DomainDataset("pooled", features, np.concatenate([s.labels for s in sources]))]
        cfg = replace(cfg, strategy="fedavg", lam=None, mu=None)
    params = init_params(model, Rng(cfg.seed, 0))
    means = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.rounds):
            params = run_round(params, t, sources, cfg, target_ds).params
            metrics = [reference_evaluate(params, ds, unit_weights) for ds in sources]
            means.append(
                (float(np.mean([m.accuracy for m in metrics])), float(np.mean([m.loss for m in metrics])))
            )
    return means, params


def reference_rows(rng, num_rows: int, batch_size: int) -> np.ndarray:
    """One local step's rows: every row in order for a full batch, a
    shuffle's prefix below it, draws with replacement above it."""
    if batch_size == num_rows:
        return np.arange(num_rows)
    if batch_size < num_rows:
        return scalar_shuffle(rng, num_rows)[:batch_size]
    return scalar_draws(rng, num_rows, batch_size)


def reference_run(suite, target, model, cfg):
    """A run as the module docstring says: ``(rounds, final params)``, each
    round a dict of its post-step ``params``, its ``target_metrics``, its
    ``per_client`` dicts, its ``csv_row`` and its ``trace_audit``.  A round
    that fails raises its error as ``one_at_a_time_round_error`` builds it."""
    sources, target_ds = leave_one_out(suite, target)
    if cfg.strategy == "deepall":
        features = np.vstack([s.features for s in sources])
        sources = [DomainDataset("pooled", features, np.concatenate([s.labels for s in sources]))]
        cfg = replace(cfg, strategy="fedavg", lam=None, mu=None)
    params = init_params(model, Rng(cfg.seed, 0))
    rounds = []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.rounds):
            rounds.append(_reference_round(sources, target_ds, model, cfg, params, t))
            params = rounds[-1]["params"]
    return rounds, params


def _reference_round(sources, target_ds, model, cfg, params, t):
    """Round ``t`` of ``reference_run`` from ``params``: its record."""
    k = len(sources)
    lr = effective_lr(cfg, t)
    grads, per_client = [], []
    for c, ds in enumerate(sources):
        rng, w, losses = Rng(cfg.seed, 1, c, t), params, []
        try:
            for _ in range(cfg.local_steps):
                rows = reference_rows(rng, ds.num_rows, cfg.batch_size)
                loss, grad = reference_loss_and_grad(w, ds.features[rows], ds.labels[rows])
                ensure_finite(grad, "gradient")
                losses.append(loss)
                if cfg.local_steps > 1:
                    if cfg.strategy == "fedprox":
                        grad = grad + cfg.mu * (w.values - params.values)
                    w = ParamVector(model, ensure_finite(w.values - lr * grad, "updated parameters"))
            if cfg.local_steps > 1:
                grad = ensure_finite((params.values - w.values) / lr, "displacement")
        except NonFiniteResult as exc:
            raise NonFiniteResult(f"round {t}, client {ds.domain_id}: {exc}") from None
        grads.append(grad)
        norm = math.sqrt(dot(grad, grad))
        per_client.append({"client_id": ds.domain_id, "local_loss": float(np.mean(losses)), "grad_norm": norm})

    if cfg.strategy == "aligned":
        if cfg.order_mode == "random":
            rng = Rng(cfg.seed, 2, t)
            outer = scalar_shuffle(rng, k).tolist()
            perms = [scalar_shuffle(rng, k - 1).tolist() for _ in range(k)]
        else:
            outer, perms = list(range(k)), [list(range(k - 1))] * k
        inner = {i: [p + (p >= i) for p in perm] for i, perm in zip(outer, perms)}
        tested, aligned = reference_aligned_pairs(grads, cfg.lam, outer, inner, cfg.accumulate, cfg.align_target)
        for ds, row in zip(sources, aligned):
            if not np.isfinite(row).all():
                raise NonFiniteResult(f"round {t}, client {ds.domain_id}: aligned gradients contains NaN or Inf")
    else:
        tested, aligned = reference_pair_dots(grads), np.array(grads)
    if cfg.resolved_weighting == "uniform":
        weights = [1.0 / k] * k
    else:
        weights = [ds.num_rows / sum(d.num_rows for d in sources) for ds in sources]
    audit = None
    try:
        g = weights[0] * aligned[0]
        for weight, row in zip(weights[1:], aligned[1:]):
            g = g + weight * row
        ensure_finite(g, "weighted sum")
        if cfg.encrypt:
            # The round's own conflict pairs, replayed on cipher handles.
            cipher = transparent_cipher(cfg.scale)
            enc = [enc_vec(cipher, row) for row in grads]
            if cfg.strategy == "aligned":
                conflicts = [(i, j) for i, j, v in tested if v < 0.0]
                acfg = AlignConfig(lam=cfg.lam, accumulate=cfg.accumulate, target=cfg.align_target)
                handle, audit = aligned_aggregate_encrypted(enc, acfg, cipher, conflicts, weights)
            else:
                handle, audit = weighted_sum_encrypted(enc, weights, cipher)
            g, audit = dec_vec(cipher, handle), audit.to_dict()
        params = ParamVector(model, ensure_finite(params.values - lr * g, "updated parameters"))
    except (NonFiniteResult, OverflowAtScale) as exc:
        raise type(exc)(f"round {t}: {exc}") from None

    target_metrics = reference_evaluate(params, target_ds)
    src = [reference_evaluate(params, ds) for ds in sources]
    csv_row = {
        "round": t,
        "lr": lr,
        "target_accuracy": target_metrics.accuracy,
        "target_loss": target_metrics.loss,
        "mean_source_accuracy": float(np.mean([m.accuracy for m in src])),
        "mean_source_loss": float(np.mean([m.loss for m in src])),
        "mean_local_loss": float(np.mean([c["local_loss"] for c in per_client])),
        "mean_grad_norm": float(np.mean([c["grad_norm"] for c in per_client])),
        "num_conflicts": sum(v < 0.0 for _, _, v in tested),
        "variance_before": reference_domain_variance(grads),
        "variance_after": reference_domain_variance(list(aligned)),
    }
    return {
        "params": params,
        "target_metrics": target_metrics,
        "per_client": per_client,
        "csv_row": csv_row,
        "trace_audit": audit,
    }


def one_at_a_time_round_error(clients, params: ParamVector, cfg, round_index: int, inject):
    """The error of fedavg or fedprox round ``round_index`` from ``params``
    with the clients stepped one at a time (see the module docstring), or
    None.  ``inject(k, step, grad)`` returns client k's gradient at local
    step ``step`` as the round is to see it."""
    lr = effective_lr(cfg, round_index)
    updates = []
    for k, ds in enumerate(clients):
        rng, w = Rng(cfg.seed, 1, k, round_index), params
        try:
            for step in range(cfg.local_steps):
                x, y = minibatch(ds, cfg.batch_size, rng)
                _, grad = loss_and_grad(w, x, y)
                grad = ensure_finite(inject(k, step, grad), "gradient")
                if cfg.local_steps > 1:
                    if cfg.strategy == "fedprox":
                        grad = grad + cfg.mu * (w.values - params.values)
                    w = sgd_step(w, grad, lr)
            if cfg.local_steps > 1:
                grad = ensure_finite((params.values - w.values) / lr, "displacement")
        except NonFiniteResult as exc:
            return NonFiniteResult(f"round {round_index}, client {ds.domain_id}: {exc}")
        updates.append(ClientUpdate(ds.domain_id, grad, ds.num_rows, 0.0))
    try:
        sgd_step(params, aggregate_fedavg(updates, cfg.resolved_weighting).aggregated, lr)
    except NonFiniteResult as exc:
        return NonFiniteResult(f"round {round_index}: {exc}")
    return None


def broadcast_client_phase(clients, params: ParamVector, cfg, rows, lr: float):
    """The K losses and the K×P update matrix of a round whose clients all
    pass their checks, every step at a broadcast (K, P) parameter stack."""
    w = replace(params, values=np.broadcast_to(params.values, (len(clients), params.values.shape[0])))
    losses = []
    for step in range(cfg.local_steps):
        xs = np.array([ds.features[sel[step]] for ds, sel in zip(clients, rows)])
        ys = np.array([ds.labels[sel[step]] for ds, sel in zip(clients, rows)])
        values, grads = loss_and_grad(w, xs, ys)
        if cfg.local_steps > 1:
            losses.append(values)
            if cfg.strategy == "fedprox":
                grads = grads + cfg.mu * (w.values - params.values)
            w = replace(w, values=w.values - lr * grads)
    if cfg.local_steps > 1:
        grads = (params.values - w.values) / lr
        values = np.mean(np.stack(losses, axis=1), axis=1)
    return values, grads


def fd_gradient(params: ParamVector, x, y, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of the batch loss, coordinatewise."""
    base = params.values
    out = np.zeros_like(base)
    for i in range(base.shape[0]):
        up = base.copy()
        up[i] += h
        dn = base.copy()
        dn[i] -= h
        lu, _ = loss_and_grad(ParamVector(params.spec, up), x, y)
        ld, _ = loss_and_grad(ParamVector(params.spec, dn), x, y)
        out[i] = (lu - ld) / (2.0 * h)
    return out


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-2) -> float:
    """max_i |a_i - b_i| / max(|a_i| + |b_i|, floor)."""
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def relu_kink_too_close(params: ParamVector, x, margin: float = 1e-4) -> bool:
    """True when any hidden preactivation is within ``margin`` of zero, where
    a central difference would straddle the relu kink."""
    spec = params.spec
    if spec.hidden_dim == 0 or spec.activation != "relu":
        return False
    (w1, b1), _ = params.layers()
    pre = np.asarray(x) @ w1 + b1
    return bool(np.min(np.abs(pre)) < margin)


def random_case(rng: np.random.Generator, force_hidden: bool | None = None):
    """One random (params, x, y) gradient-check case, kink-safe."""
    from fedalign.models import ModelSpec, init_params
    from fedalign.numcore import Rng

    input_dim = int(rng.integers(1, 6))
    if force_hidden is None:
        hidden = int(rng.choice([0, 0, 2, 4, 8]))
    elif force_hidden:
        hidden = int(rng.integers(1, 9))
    else:
        hidden = 0
    classes = int(rng.integers(2, 5))
    activation = str(rng.choice(["relu", "tanh"]))
    spec = ModelSpec(input_dim=input_dim, hidden_dim=hidden, num_classes=classes, activation=activation)

    params = init_params(spec, Rng(int(rng.integers(2**31))))
    params = ParamVector(spec, params.values + 0.3 * rng.standard_normal(params.values.shape))

    batch = int(rng.integers(1, 9))
    for _ in range(100):
        x = rng.standard_normal((batch, input_dim)) * 2.0
        if not relu_kink_too_close(params, x):
            break
    y = rng.integers(0, classes, size=batch)
    return params, x, y

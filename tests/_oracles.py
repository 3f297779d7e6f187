"""Shared numerical oracles for the test suite.

Fisher-Yates with one scalar generator call per swap, and with-replacement
row draws one scalar call at a time: the references for the sampler's
one-call forms, which must read the Philox stream identically.

Scalar fixed-point rounding on Python integers, the reference for the
cipher codec's elementwise int64 arithmetic.

The pair diagnostics of aggregation as the per-pair loops they replaced:
one ``np.sum`` per pair, accumulated in (i, j) order.  The batched forms
must agree with them exactly.  The aligned pair loop likewise, with one
``numcore.dot`` per tested pair, replayed in a recorded visiting order.

The model's forward pass, loss gradient and evaluation written with a
fresh temporary per expression: the references for the in-place forms,
which must agree byte for byte.  The evaluation reference takes the whole
log-softmax matrix and indexes the label entries out of it.  Both can also
take the loss the way the class-weighted loss once did, at weights of one:
each sample's term times 1.0, and the gradient rows times the array
``weights / n``.  The plain pass must keep those bits.

The per-round mean source-domain figures as training once recorded them:
each source evaluated, by the evaluation reference, on the server
parameters right after each round.
``ExperimentResult.csv_rows`` recomputes them by replaying the recorded
steps and must agree bit for bit.

Central finite differences over the flat parameter vector, with the usual
gradient-check hygiene: a symmetric relative-error metric with an absolute
floor (difference quotients bottom out around 1e-9 at h=1e-6, so demanding
relative accuracy of coordinates that are essentially zero would only test
roundoff), and a relu kink guard so no hidden-unit preactivation sits
within a step of the non-differentiable point.

And one piece of plumbing: the environment for a child Python process that
must import this checkout's sources, as the tests' own imports do.
"""

import math
import os
import pathlib
from dataclasses import replace

import numpy as np

from fedalign.aggregation import align_pair
from fedalign.domains import DomainDataset, leave_one_out
from fedalign.errors import DimensionMismatch
from fedalign.federation import ServerState, run_round
from fedalign.models import Metrics, ParamVector, init_params, loss_and_grad
from fedalign.numcore import Rng, dot


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
    source evaluated on ``server.params`` after that round's ``run_round``
    (deepall: the pooled sources, trained as fedavg), and the final params."""
    sources, target_ds = leave_one_out(suite, target)
    if cfg.strategy == "deepall":
        features = np.vstack([s.features for s in sources])
        sources = [DomainDataset("pooled", features, np.concatenate([s.labels for s in sources]))]
        cfg = replace(cfg, strategy="fedavg", lam=None, mu=None)
    server = ServerState(params=init_params(model, Rng(cfg.seed, 0)))
    means = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.rounds):
            run_round(server, sources, cfg, target_ds)
            metrics = [reference_evaluate(server.params, ds, unit_weights) for ds in sources]
            means.append(
                (float(np.mean([m.accuracy for m in metrics])), float(np.mean([m.loss for m in metrics])))
            )
    return means, server.params


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

"""Shared numerical oracles for the test suite.

Fisher-Yates with one scalar generator call per swap, and with-replacement
row draws one scalar call at a time: the references for the sampler's
one-call forms, which must read the Philox stream identically.

Scalar fixed-point rounding on Python integers, the reference for the
cipher codec's elementwise int64 arithmetic.

The pair diagnostics of aggregation as the per-pair loops they replaced:
one ``np.sum`` per pair, accumulated in (i, j) order.  The batched forms
must agree with them exactly.

The model's forward pass and loss gradient written with a fresh temporary
per expression: the references for the in-place forms, which must agree
byte for byte.

Central finite differences over the flat parameter vector, with the usual
gradient-check hygiene: a symmetric relative-error metric with an absolute
floor (difference quotients bottom out around 1e-9 at h=1e-6, so demanding
relative accuracy of coordinates that are essentially zero would only test
roundoff), and a relu kink guard so no hidden-unit preactivation sits
within a step of the non-differentiable point.
"""

import math

import numpy as np

from fedalign.errors import DimensionMismatch
from fedalign.models import LossKind, ParamVector, loss_and_grad


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


def reference_loss_and_grad(params: ParamVector, x, labels, loss: LossKind = LossKind()):
    """Mean (weighted) cross-entropy and its gradient, one temporary per step."""
    spec = params.spec
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    weights = loss.sample_weights(labels, spec.num_classes)
    if spec.hidden_dim == 0:
        (w, b), = params.layers()
        logits = x @ w + b
    else:
        pre1, h, w2, b2 = _reference_hidden(params, x)
        logits = h @ w2 + b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    total = float(np.sum(weights * -logp[np.arange(n), labels]) / n)
    dz = np.exp(logp)
    dz[np.arange(n), labels] -= 1.0
    dz *= (weights / n)[:, None]
    if spec.hidden_dim == 0:
        return total, np.concatenate([(x.T @ dz).reshape(-1), dz.sum(axis=0)])
    dh = dz @ w2.T
    act_grad = (pre1 > 0).astype(np.float64) if spec.activation == "relu" else 1.0 - h * h
    da = dh * act_grad
    parts = [(x.T @ da).reshape(-1), da.sum(axis=0), (h.T @ dz).reshape(-1), dz.sum(axis=0)]
    return total, np.concatenate(parts)


def fd_gradient(params: ParamVector, x, y, loss: LossKind = LossKind(), h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of the batch loss, coordinatewise."""
    base = params.values
    out = np.zeros_like(base)
    for i in range(base.shape[0]):
        up = base.copy()
        up[i] += h
        dn = base.copy()
        dn[i] -= h
        lu, _ = loss_and_grad(ParamVector(params.spec, up), x, y, loss)
        ld, _ = loss_and_grad(ParamVector(params.spec, dn), x, y, loss)
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
    """One random (params, x, y, loss) gradient-check case, kink-safe."""
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
    if rng.random() < 0.3:
        weights = tuple(float(w) for w in rng.uniform(0.5, 3.0, size=classes))
        loss = LossKind(kind="weighted_cross_entropy", class_weights=weights)
    else:
        loss = LossKind()
    for _ in range(100):
        x = rng.standard_normal((batch, input_dim)) * 2.0
        if not relu_kink_too_close(params, x):
            break
    y = rng.integers(0, classes, size=batch)
    return params, x, y, loss

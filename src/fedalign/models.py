"""Small differentiable classifiers with hand-written forward/backward passes.

Two architectures cover the simulator's needs: plain multinomial logistic
regression (``hidden_dim == 0``) and a one-hidden-layer MLP with relu or
tanh activation.  Backpropagation is written out by hand so the gradients
the aggregation layer operates on can be audited coordinate-by-coordinate
against finite differences; no autodiff framework is involved.

Parameter flattening order is canonical and shared by every consumer of a
flat vector: layer by layer, weights before biases, weight matrices
row-major with shape (fan_in, fan_out).  Concretely:

* logistic regression: ``[W (input_dim x num_classes), b]``
* MLP: ``[W1 (input_dim x hidden), b1, W2 (hidden x num_classes), b2]``

``loss_and_grad`` takes one batch or a stack of K batches, at shared or
per-batch parameters (a ``ParamVector`` may hold a (K, P) stack); one batch
is the K = 1 case of the same pass, and every row of a stack is
byte-identical to its one-batch result.

Each (rows x hidden) intermediate is written once and then updated in
place: a freed temporary of that size goes back to the operating system
and is faulted in again on the next call, which cost more than the
arithmetic, while every element still goes through the same IEEE
operation on the same operands, so results are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .domains import DomainDataset
from .errors import (
    DimensionMismatch,
    EmptyBatch,
    EmptyDataset,
    InvalidSpec,
)
from .numcore import RealMat, RealVec, Rng, ensure_finite

__all__ = [
    "ModelSpec",
    "ParamVector",
    "Metrics",
    "init_params",
    "forward",
    "loss_and_grad",
    "sgd_step",
    "evaluate",
]

ACTIVATIONS = ("relu", "tanh")

# A stacked ``loss_and_grad`` holds at most this many bytes of each
# (batches x rows x width) intermediate at a time (but one batch at least).
_STACK_BYTES = 256 * 1024
# The most float64 parameters whose byte size numpy can express.
_MAX_PARAMS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; parameter count is a pure function of it."""

    input_dim: int
    hidden_dim: int = 0  # 0 selects logistic regression
    num_classes: int = 2
    activation: str = "relu"

    def __post_init__(self):
        if self.input_dim < 1:
            raise InvalidSpec("input_dim must be positive")
        if self.hidden_dim < 0:
            raise InvalidSpec("hidden_dim must be nonnegative")
        if self.num_classes < 2:
            raise InvalidSpec("num_classes must be >= 2")
        if self.activation not in ACTIVATIONS:
            raise InvalidSpec(f"activation must be one of {ACTIVATIONS}")

    @property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        """(fan_in, fan_out) per layer, input to output."""
        if self.hidden_dim == 0:
            return ((self.input_dim, self.num_classes),)
        return (
            (self.input_dim, self.hidden_dim),
            (self.hidden_dim, self.num_classes),
        )

    @property
    def param_count(self) -> int:
        return sum(fi * fo + fo for fi, fo in self.layer_shapes)


@dataclass(frozen=True)
class ParamVector:
    """A model's parameters as one flat float64 vector in canonical order,
    or a (K, P) stack of K such vectors, one per row."""

    spec: ModelSpec
    values: RealVec

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim not in (1, 2) or v.shape[-1] != self.spec.param_count:
            raise DimensionMismatch(
                f"parameter vector has length {v.shape}, spec wants {self.spec.param_count}"
            )
        object.__setattr__(self, "values", v)

    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Unflatten into [(W, b), ...] views in canonical order; a stack
        gives (K, fan_in, fan_out) weights and (K, fan_out) biases."""
        lead = self.values.shape[:-1]
        out = []
        off = 0
        for fi, fo in self.spec.layer_shapes:
            w = self.values[..., off : off + fi * fo].reshape(lead + (fi, fo))
            off += fi * fo
            b = self.values[..., off : off + fo]
            off += fo
            out.append((w, b))
        return out


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    loss: float


def init_params(spec: ModelSpec, rng: Rng) -> ParamVector:
    """Glorot-uniform weights (scale sqrt(6/(fan_in+fan_out))), zero biases."""
    if spec.param_count > _MAX_PARAMS:
        # numpy refuses such a size with a ValueError; it is a request for
        # more memory than any address space holds.
        raise MemoryError(f"cannot hold {spec.param_count} parameters")
    parts = []
    for fi, fo in spec.layer_shapes:
        s = np.sqrt(6.0 / (fi + fo))
        parts.append(np.asarray(rng.uniform(-s, s, size=(fi, fo))).reshape(-1))
        parts.append(np.zeros(fo))
    return ParamVector(spec=spec, values=np.concatenate(parts))


def _check_batch(spec: ModelSpec, x: RealMat) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise DimensionMismatch(f"batch shape {x.shape} does not match input_dim={spec.input_dim}")
    return x


def _forward(spec: ModelSpec, layers, x: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """Hidden activations (None for logistic regression) and logits, for
    one batch or a stack of batches (leading axis K on ``x`` and, for
    per-batch parameters, on every layer)."""
    if spec.hidden_dim == 0:
        (w, b), = layers
        logits = x @ w
        logits += b[..., None, :]
        return None, logits
    (w1, b1), (w2, b2) = layers
    h = x @ w1
    h += b1[..., None, :]
    if spec.activation == "relu":
        np.maximum(h, 0.0, out=h)
    else:
        np.tanh(h, out=h)
    logits = h @ w2
    logits += b2[..., None, :]
    return h, logits


def forward(params: ParamVector, x: RealMat) -> RealMat:
    """Per-sample class logits, shape (rows, num_classes)."""
    x = _check_batch(params.spec, x)
    return _forward(params.spec, params.layers(), x)[1]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _stack_pass(spec: ModelSpec, layers, x, labels, losses, grads) -> None:
    """Losses and gradients of a (K, rows, input_dim) stack, written into
    ``losses`` (K,) and ``grads`` (K, P)."""
    k, n = labels.shape
    h, logits = _forward(spec, layers, x)

    logp = _log_softmax(logits)
    batch, rows = np.arange(k)[:, None], np.arange(n)
    np.divide(np.sum(-logp[batch, rows, labels], axis=1), n, out=losses)

    # d(loss)/d(logits): softmax minus one-hot, scaled by 1/n.  Multiplying
    # by the reciprocal, not dividing by n, is what the pinned digests hold.
    dz = np.exp(logp)
    dz[batch, rows, labels] -= 1.0
    dz *= 1.0 / n

    if h is None:
        parts = [np.swapaxes(x, 1, 2) @ dz, dz.sum(axis=1)]
    else:
        _, (w2, _) = layers
        dw2 = np.swapaxes(h, 1, 2) @ dz
        db2 = dz.sum(axis=1)
        da = dz @ np.swapaxes(w2, -1, -2)
        # Activation derivative: relu's mask h > 0 equals preactivation > 0;
        # tanh's 1 - h*h overwrites h, which dw2 no longer needs.
        if spec.activation == "relu":
            da *= h > 0
        else:
            np.multiply(h, h, out=h)
            np.subtract(1.0, h, out=h)
            da *= h
        parts = [np.swapaxes(x, 1, 2) @ da, da.sum(axis=1), dw2, db2]
    np.concatenate([p.reshape(k, -1) for p in parts], axis=1, out=grads)


def loss_and_grad(
    params: ParamVector,
    x: RealMat,
    labels: np.ndarray,
) -> tuple[float, RealVec] | tuple[RealVec, RealMat]:
    """Mean cross-entropy over a batch and its gradient.

    One batch: ``x`` is (rows, input_dim) and ``labels`` (rows,); the loss
    comes back as a float and the gradient flattened in canonical parameter
    order, ready for exchange with the aggregation layer.

    A stack of K batches: ``x`` is (K, rows, input_dim) and ``labels``
    (K, rows), and ``params`` is one parameter vector shared by every batch
    or a (K, P) stack, row k for batch k.  Returns the K losses and the K×P
    gradient matrix, row k for batch k.  One batch is the K = 1 case, and
    each row is byte-identical to the one-batch call on its batch alone:
    numpy's stacked matmul runs one 2-D product per batch, of the one-batch
    shapes, and every sum runs over the same values along the same axis.
    The stack is worked through ``_STACK_BYTES`` of (rows x width)
    intermediates at a time.
    """
    spec = params.spec
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != spec.input_dim:
        shape = x.shape[1:] if x.ndim == 3 else x.shape
        raise DimensionMismatch(f"batch shape {shape} does not match input_dim={spec.input_dim}")
    if x.size == 0:
        raise EmptyBatch("loss_and_grad needs at least one sample")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != x.shape[:-1]:
        raise DimensionMismatch(f"labels shape {labels.shape} does not match batch rows {x.shape[-2]}")
    single = x.ndim == 2
    stacked = params.values.ndim == 2
    if stacked and (single or params.values.shape[0] != x.shape[0]):
        raise DimensionMismatch(f"{params.values.shape[0]} parameter vectors for batches of shape {x.shape}")
    if labels.min() < 0 or labels.max() >= spec.num_classes:
        raise InvalidSpec(f"labels outside [0, {spec.num_classes})")
    if single:
        x, labels = x[None], labels[None]

    k, n = labels.shape
    losses = np.empty(k)
    grads = np.empty((k, spec.param_count))
    layers = params.layers()
    step = max(1, _STACK_BYTES // (8 * n * max(spec.hidden_dim, spec.num_classes)))
    for lo in range(0, k, step):
        part = slice(lo, lo + step)
        chunk = [(w[part], b[part]) for w, b in layers] if stacked else layers
        _stack_pass(spec, chunk, x[part], labels[part], losses[part], grads[part])

    ensure_finite(grads, "gradient")
    if single:
        return float(losses[0]), grads[0]
    return losses, grads


def sgd_step(params: ParamVector, grad: RealVec, lr: float) -> ParamVector:
    """One gradient-descent step ``w <- w - lr * grad``."""
    if lr <= 0:
        raise InvalidSpec("learning rate must be positive")
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.values.shape:
        raise DimensionMismatch(f"gradient length {grad.shape} vs params {params.values.shape}")
    new_values = ensure_finite(params.values - lr * grad, "updated parameters")
    return replace(params, values=new_values)


def evaluate(params: ParamVector, dataset: DomainDataset) -> Metrics:
    """Accuracy (argmax, ties broken toward the lowest class index) and mean loss.

    The loss is ``_log_softmax`` read only at the label entries: the row
    max is a running maximum over the class columns (a max is exact in any
    order), the fresh logits are shifted and exponentiated in place, and
    the row sums are the same ``sum(axis=1)``, so it is bit-identical to
    the full log-softmax matrix.  A running column sum would not be: numpy
    adds a row of eight or more entries in eight partial sums.
    """
    n = dataset.num_rows
    if n == 0:
        raise EmptyDataset(f"domain {dataset.domain_id!r} has no rows")
    labels = dataset.labels
    logits = forward(params, dataset.features)
    # np.argmax returns the first maximum.
    accuracy = float(np.count_nonzero(np.argmax(logits, axis=1) == labels) / n)
    top = np.maximum(logits[:, 0], logits[:, 1])
    for j in range(2, logits.shape[1]):
        np.maximum(top, logits[:, j], out=top)
    logits -= top[:, None]
    picked = logits[np.arange(n), labels]
    np.exp(logits, out=logits)
    picked -= np.log(logits.sum(axis=1))
    np.negative(picked, out=picked)
    return Metrics(accuracy=accuracy, loss=float(np.sum(picked) / n))

"""Server-side gradient combination: alignment, averaging, and diagnostics.

The alignment aggregator treats each client's mini-batch gradient as that
client's summary statistic and fixes *gradient conflict* — a negative inner
product between two clients' gradients — by stepping the conflicting
gradient toward the other one:

    aligned = g_i - 2*lam*(g_i - g_j)  ==  (1 - 2*lam)*g_i + 2*lam*g_j

which is one gradient-descent step (step size ``lam``) on the pairwise
squared distance ``||g_i - g_j||^2``.  Repeating this over all client pairs
in a random order and then averaging yields the aggregated gradient.

Pair-loop semantics are configurable because the bare update rule leaves
two choices open:

* ``accumulate`` — whether successive corrections to client *i* compound on
  a working copy (default), or each conflicting *j* rewrites from the
  original ``g_i`` so only the last conflict survives;
* ``target`` — whether the conflict test and the correction use the other
  client's *original* gradient (default, mirroring how gradient-surgery
  methods project against originals) or its *current* working copy.

Each aggregation stacks the round's client gradients once into a
C-contiguous K×P float64 matrix, one row per client; the aligned strategy
corrects its rows in place and reads the originals from the updates.  The
report records which semantics ran, every tested pair, the visiting order,
the final K×P matrix (``aligned``), and the sum of pairwise squared
gradient distances (the domain-variance diagnostic) before and after
alignment.

The pair diagnostics (``domain_variance`` and fedavg's pairwise inner
products) are batched: for each row *i* one numpy call forms the
differences or products against every later row, and each row is then
summed.  Each such row sum is numpy's pairwise summation over the same
elementwise values that ``np.sum(a * b)`` reduces, and the pair values are
accumulated in (i, j) order, so the batched diagnostics are bit-for-bit
equal to the per-pair loops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyUpdateSet,
    InvalidLambda,
    InvalidSpec,
)
from .numcore import RealMat, RealVec, Rng, axpby, dot, shuffle, weighted_sum

__all__ = [
    "GradientVector",
    "ClientUpdate",
    "AlignConfig",
    "AggregationReport",
    "detect_conflict",
    "align_pair",
    "aggregate_aligned",
    "aggregate_fedavg",
    "domain_variance",
]

# A gradient travels as a flat float64 vector in canonical model order;
# client attribution lives on the enclosing ClientUpdate / report fields.
GradientVector = np.ndarray

WEIGHTINGS = ("uniform", "sample_weighted")
TARGETS = ("original", "current")
ORDER_MODES = ("random", "fixed")

# The scratch buffer of the pair diagnostics holds at most this many bytes
# (at least one row), so at large P it stays in cache instead of streaming.
_SCRATCH_BYTES = 256 * 1024


@dataclass(frozen=True)
class ClientUpdate:
    """One round's message from a client: gradient plus bookkeeping."""

    client_id: str
    gradient: GradientVector
    num_samples: int
    local_loss: float

    def __post_init__(self):
        g = np.asarray(self.gradient, dtype=np.float64)
        if g.ndim != 1:
            raise DimensionMismatch("gradient must be a flat vector")
        if not np.all(np.isfinite(g)):
            raise InvalidSpec(f"client {self.client_id!r} sent a non-finite gradient")
        if self.num_samples < 1:
            raise InvalidSpec("num_samples must be >= 1")
        object.__setattr__(self, "gradient", g)


@dataclass(frozen=True)
class AlignConfig:
    """Knobs of the alignment aggregator.

    ``lam`` must lie in (0, 0.5]: at 0.5 the correction lands exactly on the
    other gradient, and beyond it the (1 - 2*lam) factor flips the sign of
    the client's own direction.
    """

    lam: float = 0.1
    order_seed: int = 0
    weighting: str = "uniform"
    accumulate: bool = True
    target: str = "original"
    order_mode: str = "random"

    def __post_init__(self):
        _check_lambda(self.lam)
        if self.weighting not in WEIGHTINGS:
            raise InvalidSpec(f"weighting must be one of {WEIGHTINGS}")
        if self.target not in TARGETS:
            raise InvalidSpec(f"target must be one of {TARGETS}")
        if self.order_mode not in ORDER_MODES:
            raise InvalidSpec(f"order_mode must be one of {ORDER_MODES}")


@dataclass(frozen=True)
class AggregationReport:
    """Everything one aggregation did.

    ``aligned`` is the K×P matrix of final client gradients, row k for
    ``client_ids[k]``: the aligned working copy, or the stacked originals
    for fedavg.
    """

    strategy: str
    aggregated: GradientVector
    aligned: RealMat
    client_ids: tuple[str, ...]
    weights: tuple[float, ...]
    tested_pairs: tuple[tuple[str, str, float], ...]
    conflict_pairs: tuple[tuple[str, str, float], ...]
    variance_before: float
    variance_after: float
    order_used: dict
    semantics: dict = field(default_factory=dict)

    @property
    def num_conflicts(self) -> int:
        return len(self.conflict_pairs)


def _check_lambda(lam: float) -> None:
    if not (0.0 < lam <= 0.5):
        raise InvalidLambda(f"lambda must be in (0, 0.5], got {lam}")


def detect_conflict(g_i: RealVec, g_j: RealVec) -> tuple[bool, float]:
    """(conflict?, inner product).  Strictly negative counts; zero does not."""
    value = dot(g_i, g_j)
    return value < 0.0, value


def align_pair(g_i: RealVec, g_j: RealVec, lam: float) -> RealVec:
    """One alignment step of ``g_i`` toward ``g_j``: (1-2*lam)*g_i + 2*lam*g_j.

    ``g_j`` is never modified.
    """
    _check_lambda(lam)
    return axpby(1.0 - 2.0 * lam, g_i, 2.0 * lam, g_j)


def _scratch(k: int, p: int) -> RealMat:
    """Row buffer for the pair diagnostics of a K×P matrix, at most
    ``_SCRATCH_BYTES`` (but one row at least)."""
    rows = max(1, min(k - 1, _SCRATCH_BYTES // (8 * max(p, 1))))
    return np.empty((rows, p))


def _pair_sums(x: RealMat, buf: RealMat, square: bool):
    """Yield ``sum((x[i] - x[j])**2)`` if ``square``, else ``sum(x[i] * x[j])``,
    for every pair i < j in (i, j) order.

    Row i is combined with the later rows a chunk of ``len(buf)`` rows at a
    time, and every row of the chunk summed; each value equals the per-pair
    ``np.sum`` bit for bit.
    """
    k = x.shape[0]
    step = buf.shape[0]
    for i in range(k - 1):
        for lo in range(i + 1, k, step):
            hi = min(lo + step, k)
            d = buf[: hi - lo]
            if square:
                np.subtract(x[i], x[lo:hi], out=d)
                d *= d
            else:
                np.multiply(x[i], x[lo:hi], out=d)
            yield from d.sum(axis=1).tolist()


def _stack(grads: Sequence[RealVec] | RealMat) -> RealMat:
    """Gradients as one K×P matrix: a 2-D array as it is, equal-length
    vectors stacked into a new C-contiguous float64 one."""
    if len(grads) == 0:
        raise EmptyUpdateSet("domain_variance needs at least one gradient")
    if isinstance(grads, np.ndarray) and grads.ndim == 2:
        return grads
    rows = [np.asarray(g, dtype=np.float64) for g in grads]
    for g in rows:
        if g.ndim != 1 or g.shape != rows[0].shape:
            raise DimensionMismatch(f"gradient shapes differ or are not flat: {g.shape} vs {rows[0].shape}")
    return np.array(rows)


def domain_variance(grads: Sequence[RealVec] | RealMat, buf: RealMat | None = None) -> float:
    """Sum of squared distances over unordered gradient pairs (each once).

    ``grads`` is a K×P matrix or a sequence of K equal-length vectors.
    ``buf``, a scratch buffer with P columns, lets one aggregation share its
    buffer across calls.
    """
    x = _stack(grads)
    if buf is None:
        buf = _scratch(*x.shape)
    total = 0.0
    for value in _pair_sums(x, buf, square=True):
        total += value
    return total


def _gradient_matrix(updates: Sequence[ClientUpdate]) -> RealMat:
    """The updates' gradients stacked as a K×P matrix, row k for update k."""
    if len(updates) == 0:
        raise EmptyUpdateSet("no client updates to aggregate")
    length = updates[0].gradient.shape[0]
    for u in updates:
        if u.gradient.shape[0] != length:
            raise DimensionMismatch(
                f"client {u.client_id!r} gradient length {u.gradient.shape[0]} != {length}"
            )
    return np.array([u.gradient for u in updates])


def _weights(updates: Sequence[ClientUpdate], weighting: str) -> tuple[float, ...]:
    k = len(updates)
    if weighting == "uniform":
        return tuple(1.0 / k for _ in updates)
    if weighting == "sample_weighted":
        total = sum(u.num_samples for u in updates)
        return tuple(u.num_samples / total for u in updates)
    raise InvalidSpec(f"weighting must be one of {WEIGHTINGS}")


def aggregate_aligned(
    updates: Sequence[ClientUpdate],
    cfg: AlignConfig = AlignConfig(),
    rng: Rng | None = None,
) -> AggregationReport:
    """Align conflicting client gradients pairwise, then average.

    Clients are visited in a random order drawn from ``rng`` (or from
    ``cfg.order_seed`` when no rng is passed); for each client *i* the other
    clients are visited in a random order, and every tested pair's inner
    product is recorded.  ``cfg.order_mode == "fixed"`` keeps plain list
    order instead, for literal replay of the pair loop.
    """
    # The stacked matrix is the working copy; the originals stay readable in
    # the updates, so the round holds one K×P copy beyond the clients' own.
    working = _gradient_matrix(updates)
    buf = _scratch(*working.shape)
    variance_before = domain_variance(working, buf)
    if rng is None:
        rng = Rng(cfg.order_seed)
    k = len(updates)
    orig_rows = [u.gradient for u in updates]
    # Row views, made once: the pair loop indexes them thousands of times.
    work_rows = list(working)
    ids = tuple(u.client_id for u in updates)

    if cfg.order_mode == "random":
        outer = [int(v) for v in shuffle(rng, k)]
    else:
        outer = list(range(k))
    inner_orders: dict[int, list[int]] = {}
    tested = []
    conflicts = []
    for i in outer:
        others = [j for j in range(k) if j != i]
        if cfg.order_mode == "random":
            others = [others[int(p)] for p in shuffle(rng, len(others))]
        inner_orders[i] = others
        for j in others:
            target_vec = orig_rows[j] if cfg.target == "original" else work_rows[j]
            probe = work_rows[i] if cfg.accumulate else orig_rows[i]
            is_conflict, value = detect_conflict(probe, target_vec)
            tested.append((ids[i], ids[j], value))
            if is_conflict:
                conflicts.append((ids[i], ids[j], value))
                work_rows[i][:] = align_pair(probe, target_vec, cfg.lam)

    weights = _weights(updates, cfg.weighting)
    aggregated = weighted_sum(work_rows, weights)
    return AggregationReport(
        strategy="aligned",
        aggregated=aggregated,
        aligned=working,
        client_ids=ids,
        weights=weights,
        tested_pairs=tuple(tested),
        conflict_pairs=tuple(conflicts),
        variance_before=variance_before,
        variance_after=domain_variance(working, buf),
        order_used={"outer": outer, "inner": {str(i): js for i, js in inner_orders.items()}},
        semantics={
            "lambda": cfg.lam,
            "accumulate": cfg.accumulate,
            "target": cfg.target,
            "order_mode": cfg.order_mode,
            "weighting": cfg.weighting,
        },
    )


def aggregate_fedavg(
    updates: Sequence[ClientUpdate],
    weighting: str = "sample_weighted",
) -> AggregationReport:
    """Weighted averaging of client gradients (weights n_k / n by default).

    Pairwise inner products are still recorded as a conflict diagnostic but
    do not influence the result.
    """
    originals = _gradient_matrix(updates)
    ids = tuple(u.client_id for u in updates)
    buf = _scratch(*originals.shape)
    tested = []
    conflicts = []
    pairs = itertools.combinations(range(len(updates)), 2)
    for (i, j), value in zip(pairs, _pair_sums(originals, buf, square=False)):
        tested.append((ids[i], ids[j], value))
        if value < 0.0:
            conflicts.append((ids[i], ids[j], value))

    weights = _weights(updates, weighting)
    aggregated = weighted_sum([u.gradient for u in updates], weights)
    variance = domain_variance(originals, buf)
    return AggregationReport(
        strategy="fedavg",
        aggregated=aggregated,
        aligned=originals,
        client_ids=ids,
        weights=weights,
        tested_pairs=tuple(tested),
        conflict_pairs=tuple(conflicts),
        variance_before=variance,
        variance_after=variance,
        order_used={"outer": list(range(len(updates))), "inner": {}},
        semantics={"weighting": weighting},
    )

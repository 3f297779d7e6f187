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
corrects its rows in place and reads the originals from the updates.

The aligned pair loop pays for little beyond its arithmetic.  A round's
K+1 visiting orders (the outer order, then each client's inner order) come
from one ``numcore.shuffles`` draw, the same orders and the same stream as
K+1 ``shuffle`` calls.  A tested pair is a conflict when
``np.sum(probe * target)``, numpy's pairwise sum, is negative.  The loop
decides most pairs from one BLAS dot and a rigorous bound on its rounding
error, and forms the pairwise sum itself (``_exact_dot``) only when the
bound cannot settle the sign (see ``aggregate_aligned``), so every decision
is the pairwise sum's.  A conflict writes ``align_pair``'s
``(1-2*lam)*g_i + 2*lam*g_j`` into the working row with three in-place
ufuncs, the same bits as ``align_pair``; the finite check ``align_pair``
makes per call runs once, over the finished working matrix, and raises
:class:`NonFiniteResult`.

A report stores the round's original K×P matrix (``originals``) and the
loop's decisions: which semantics ran, every tested pair (``tested_pairs``,
the (M, 2) client indices in the order tested) and whether each conflicted
(``loop_conflicts``).  For the aligned strategy that order is the visiting
order: each outer client in turn, with its inner order.  Once the
aggregate is formed, the aligned round copies the originals back into its
working matrix's buffer, so the round allocates no K×P matrix beyond its
working copy.

Everything else is derived on read.  ``aligned`` is the originals
themselves for fedavg or a round without conflicts, and otherwise the
recorded conflicts replayed in tested order on a fresh copy, with the
loop's own in-place step, so it equals the loop's working matrix bit for
bit; it is not cached, so a record holds one K×P matrix.  The aligned
``pair_dots`` walk the tested pairs the same way, taking each pair's
pairwise sum; fedavg's conflicts are decided from one Gram matrix and the
same bound.  fedavg's conflicts, the domain variance before and after
alignment, and the pair inner products are computed on first read and
cached.  An aggregation whose reader never looks at them pays nothing for
them; the readers that do are ``rounds.csv`` (every round) and a sweep
cell's variance means (the conflict rounds, which pay a replay too).

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
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyUpdateSet,
    InvalidLambda,
    InvalidSpec,
)
from .numcore import RealMat, RealVec, Rng, axpby, dot, ensure_finite, shuffles, weighted_sum

# ``shuffle`` is not called here (a round's visiting orders come from one
# ``shuffles`` draw); it stays a module attribute for callers that look it up
# on this module, such as the benchmark's tracer.
from .numcore import shuffle  # noqa: F401

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

# The sign certificate of a pair's inner product (see ``aggregate_aligned``):
# the unit roundoff; the least squared norm whose computed value keeps its
# relative accuracy through underflow; and the norm product below which no
# partial sum of a dot product can overflow.
_UNIT = 2.0**-53
_TINY_SQUARE = 2.0**-960
_SAFE_SCALE = 2.0**1000


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

    ``originals`` is the K×P matrix of the round's client gradients, row k
    for ``client_ids[k]``.  ``aligned`` is the K×P matrix of final client
    gradients: ``originals`` itself for fedavg and for an aligned round
    without conflicts, otherwise the recorded conflicts replayed on a fresh
    copy, on every read.

    ``tested_pairs`` is a read-only (M, 2) int64 array of client indices,
    one row per tested pair in the order tested: the visiting order for
    the aligned strategy (each outer client, then its inner order), and
    (i, j) with i < j for fedavg.  ``conflict_mask`` is the read-only (M,)
    bool array of which pairs conflict: ``loop_conflicts``, the aligned
    loop's decisions, or for fedavg (where ``loop_conflicts`` is None)
    decided from ``originals`` on first read.  ``pair_dots`` is the
    read-only (M,) float64 array of the pairs' inner products, each the
    pairwise ``np.sum(probe * target)`` the decision stands for, computed
    on first read: for aligned by replaying the tested pairs in order.

    ``variance_before`` and ``variance_after`` are computed on first read
    and cached; the second is the first when ``aligned`` is ``originals``.
    """

    strategy: str
    aggregated: GradientVector
    originals: RealMat
    client_ids: tuple[str, ...]
    weights: tuple[float, ...]
    tested_pairs: np.ndarray
    semantics: dict = field(default_factory=dict)
    loop_conflicts: np.ndarray | None = None

    # The derived figures are read after the run, outside its numpy error
    # state: a diagnostic that overflows reads inf, without a warning.
    @cached_property
    @np.errstate(over="ignore", under="ignore", invalid="ignore")
    def conflict_mask(self) -> np.ndarray:
        if self.loop_conflicts is not None:
            return self.loop_conflicts
        # fedavg: every pair's inner product from one Gram matrix, its sign
        # certified as in ``aggregate_aligned``; an unsettled pair takes
        # the pairwise sum.
        x = self.originals
        gram = (x @ x.T).tolist()
        norms = [_norm(gram[i][i]) for i in range(len(gram))]
        slope, floor = _certificate(x.shape[1])
        product = np.empty(x.shape[1])
        conflicts = []
        for i, j in self.tested_pairs.tolist():
            scale, value = norms[i] * norms[j], gram[i][j]
            if scale < _SAFE_SCALE and abs(value) > slope * scale + floor:
                conflicts.append(value < 0.0)
            else:
                conflicts.append(_exact_dot(x[i], x[j], product) < 0.0)
        return _frozen(np.array(conflicts, dtype=bool))

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def pair_dots(self) -> RealVec:
        x = self.originals
        if self.loop_conflicts is None:
            sums = _pair_sums(x, _scratch(*x.shape), square=False)
            return _frozen(np.fromiter(sums, dtype=np.float64, count=len(self.tested_pairs)))
        product = np.empty(x.shape[1])
        walk = self._replay(x.copy(), self.tested_pairs.tolist(), self.loop_conflicts.tolist())
        return _frozen(np.array([_exact_dot(p, t, product) for p, t in walk], dtype=np.float64))

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def variance_before(self) -> float:
        return domain_variance(self.originals)

    @property
    @np.errstate(over="ignore", invalid="ignore")
    def aligned(self) -> RealMat:
        conflicts = [] if self.loop_conflicts is None else self.conflict_pairs.tolist()
        if not conflicts:
            return self.originals
        working = self.originals.copy()
        for _ in self._replay(working, conflicts, itertools.repeat(True)):
            pass
        return working

    def _replay(self, working: RealMat, pairs, steps):
        """Walk ``pairs`` as the aligned loop did, on ``working``, a fresh
        copy of the originals: yield each pair's (probe, target) rows, then
        step the probe's row toward the target where ``steps`` says so."""
        sem = self.semantics
        orig_rows, work_rows = list(self.originals), list(working)
        probes = work_rows if sem["accumulate"] else orig_rows
        targets = orig_rows if sem["target"] == "original" else work_rows
        product = np.empty(working.shape[1])
        for (i, j), step in zip(pairs, steps):
            yield probes[i], targets[j]
            if step:
                _step_into(work_rows[i], probes[i], targets[j], sem["lambda"], product)

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def variance_after(self) -> float:
        aligned = self.aligned
        if aligned is self.originals:
            return self.variance_before
        return domain_variance(aligned)

    @property
    def conflict_pairs(self) -> np.ndarray:
        """The rows of ``tested_pairs`` that conflict, in tested order."""
        return self.tested_pairs[self.conflict_mask]

    @property
    def num_conflicts(self) -> int:
        return int(np.count_nonzero(self.conflict_mask))


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


def _step_into(row: RealVec, probe: RealVec, target: RealVec, lam: float, buf: RealVec) -> None:
    """``align_pair(probe, target, lam)`` written into ``row`` with three
    in-place ufuncs, ``buf`` as scratch: the same bits.  ``probe`` may be
    ``row``; ``target`` must not be."""
    np.multiply(target, 2.0 * lam, out=buf)
    np.multiply(probe, 1.0 - 2.0 * lam, out=row)
    np.add(row, buf, out=row)


def _exact_dot(probe: RealVec, target: RealVec, buf: RealVec) -> float:
    """``np.sum(probe * target)``, the product formed in ``buf``: the inner
    product ``detect_conflict`` and the per-pair references take, bit for
    bit."""
    np.multiply(probe, target, out=buf)
    return float(np.add.reduce(buf))


def _certificate(p: int) -> tuple[float, float]:
    """(slope, floor) of the sign certificate at length ``p``: a pair's
    BLAS dot settles its sign when it lies outside
    ``slope * norm_product + floor``."""
    return 4.0 * (p + 2) * _UNIT, p * 2.0**-1070


def _norm(square: float) -> float:
    """A row's norm from its computed squared norm, as the certificate uses
    it: inf, which settles nothing, when the square is not finite or is
    below ``_TINY_SQUARE``."""
    return math.sqrt(square) if _TINY_SQUARE <= square < math.inf else math.inf


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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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


def domain_variance(grads: Sequence[RealVec] | RealMat) -> float:
    """Sum of squared distances over unordered gradient pairs (each once).

    ``grads`` is a K×P matrix or a sequence of K equal-length vectors.
    """
    x = _stack(grads)
    total = 0.0
    for value in _pair_sums(x, _scratch(*x.shape), square=True):
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
    clients are visited in a random order, and whether every tested pair
    conflicted is recorded.  ``cfg.order_mode == "fixed"`` keeps plain list
    order instead, for literal replay of the pair loop.

    A pair conflicts when ``np.sum(probe * target)`` (numpy's pairwise
    sum) is negative; the loop mostly decides from one BLAS dot
    ``v = probe.dot(target)`` instead.  For n = P terms, in any summation
    order, with or without fused multiply-adds, a computed dot product
    satisfies ``|fl(x.y) - x.y| <= gamma_n * |x|.|y| + n * 2**-1075``,
    where ``gamma_n = n*u / (1 - n*u)``, ``u = 2**-53``, and the second
    term covers products that underflow (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., 2002, §3.1).  ``v`` and the
    pairwise sum both obey it, so they lie within twice that of each
    other, and ``|x|.|y| <= ||x|| ||y||``.  The row norms are computed as
    well: a computed squared norm that is finite and at least
    ``_TINY_SQUARE`` has relative error about ``gamma_n`` at most.  So

        bound = 4 * (P + 2) * u * ||probe|| * ||target|| + P * 2**-1070

    over the computed norms exceeds twice the error for any P below
    2**51; the factor 4 in place of 2 and P + 2 in place of P absorb the
    rounding of the norms and of the bound itself.  A ``v`` above
    ``bound`` has a positive pairwise sum (no conflict), one below
    ``-bound`` a negative one (a conflict).  In every other case the loop
    takes the pairwise sum itself (``_exact_dot``) and decides from it:
    ``v`` within the bound, a squared norm that is not finite or below
    ``_TINY_SQUARE`` (the norm then reads inf), or a norm product of
    ``_SAFE_SCALE`` or more, where ``v`` is not taken because a partial
    sum could overflow.  Every decision is the pairwise sum's, so the
    output does not depend on the BLAS.

    The bound needs only upper bounds on the norms, to within that slack.
    The row norms are computed once per round, under an error state that
    lets a squared norm overflow to inf without a warning.  A pass starts
    from its probe row's norm: row *i* is untouched until its own pass.  A
    conflict's step is a convex combination, so the stepped row's norm is
    at most the larger of the probe's and the target's, up to a few
    roundings per step and an underflow that is negligible beside a norm
    of at least 2**-480.  A round takes fewer than K**2 steps, and the
    slack absorbs their roundings for any K below 2**20.
    That larger norm becomes the row's: with ``cfg.accumulate`` it is the
    probe's for the rest of the pass, and with ``cfg.target == "current"``
    it is stored when the pass ends, for the later passes that target the
    row.  No row's norm is taken twice.
    """
    # The stacked matrix is the working copy; the originals stay readable in
    # the updates until the aggregate is formed.
    working = _gradient_matrix(updates)
    if rng is None:
        rng = Rng(cfg.order_seed)
    k = len(updates)
    ids = tuple(u.client_id for u in updates)

    # The visiting orders: the outer one, then each client's inner one over
    # its k - 1 others, in outer order.  Inner position p is other client
    # p, or p + 1 from client i on.  They are the tested pairs: row n of
    # ``pairs`` holds the n-th outer client against each of its others.
    if cfg.order_mode == "random":
        outer, *inner = shuffles(rng, [k] + [k - 1] * k)
    else:
        outer, inner = list(range(k)), [list(range(k - 1))] * k
    pairs = np.empty((k, k - 1, 2), dtype=np.int64)
    firsts, others = pairs[..., 0], pairs[..., 1]
    firsts[...] = np.array(outer)[:, None]
    others[...] = inner
    others += others >= firsts

    # Row views, made once: the pair loop indexes them thousands of times.
    work_rows = list(working)
    orig_rows = [u.gradient for u in updates]
    accumulate, current, lam = cfg.accumulate, cfg.target == "current", cfg.lam
    probes = work_rows if accumulate else orig_rows
    targets = work_rows if current else orig_rows
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        norms = [_norm(s) for s in np.einsum("ij,ij->i", working, working).tolist()]
    slope, floor = _certificate(working.shape[1])
    product = np.empty(working.shape[1])
    conflicts = []
    for i, js in zip(outer, others.tolist()):
        probe, row = probes[i], work_rows[i]
        pnorm = row_norm = norms[i]
        for j in js:
            target_vec, tnorm = targets[j], norms[j]
            scale = pnorm * tnorm
            value = float(probe.dot(target_vec)) if scale < _SAFE_SCALE else math.nan
            bound = slope * scale + floor
            if value > bound:
                conflict = False
            elif value < -bound:
                conflict = True
            else:
                conflict = _exact_dot(probe, target_vec, product) < 0.0
            conflicts.append(conflict)
            if conflict:
                # j != i, so the target is never the row.
                _step_into(row, probe, target_vec, lam, product)
                row_norm = max(pnorm, tnorm)
                if accumulate:
                    pnorm = row_norm
        if current:
            norms[i] = row_norm
    ensure_finite(working, "aligned gradients")

    weights = _weights(updates, cfg.weighting)
    aggregated = weighted_sum(work_rows, weights)
    loop_conflicts = _frozen(np.array(conflicts, dtype=bool))
    # The report keeps the originals, in the working matrix's buffer: the
    # aligned rows are replayed from them when read.
    if loop_conflicts.any():
        for row, g in zip(work_rows, orig_rows):
            row[...] = g
    return AggregationReport(
        strategy="aligned",
        aggregated=aggregated,
        originals=working,
        client_ids=ids,
        weights=weights,
        tested_pairs=_frozen(pairs).reshape(-1, 2),
        semantics={
            "lambda": cfg.lam,
            "accumulate": cfg.accumulate,
            "target": cfg.target,
            "order_mode": cfg.order_mode,
            "weighting": cfg.weighting,
        },
        loop_conflicts=loop_conflicts,
    )


def aggregate_fedavg(
    updates: Sequence[ClientUpdate],
    weighting: str = "sample_weighted",
) -> AggregationReport:
    """Weighted averaging of client gradients (weights n_k / n by default).

    Pairwise conflicts and inner products are still reported as a
    diagnostic, computed when first read, but do not influence the result.
    """
    originals = _gradient_matrix(updates)
    k = len(updates)
    m = k * (k - 1) // 2
    pairs = itertools.chain.from_iterable(itertools.combinations(range(k), 2))
    tested = np.fromiter(pairs, dtype=np.int64, count=2 * m).reshape(m, 2)
    weights = _weights(updates, weighting)
    return AggregationReport(
        strategy="fedavg",
        aggregated=weighted_sum([u.gradient for u in updates], weights),
        originals=originals,
        client_ids=tuple(u.client_id for u in updates),
        weights=weights,
        tested_pairs=_frozen(tested),
        semantics={"weighting": weighting},
    )

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
C-contiguous K×P float64 matrix, one row per client, checks the messages
there, with one finite pass over the stack, and takes each row's squared
norm; the aligned strategy corrects its rows in place and reads the
originals from the updates.

The aligned pair loop pays for little beyond its arithmetic.  A round's
K+1 visiting orders come from one ``numcore.shuffles`` draw.  A tested
pair conflicts when ``np.sum(probe * target)``, numpy's pairwise sum, is
negative; the loop mostly decides from one BLAS dot and a rigorous bound
on its rounding error (see ``aggregate_aligned``).  A conflict writes
``align_pair``'s bits into the working row with two in-place ufuncs,
reading ``2*lam*g_j`` from one pre-scaled copy of the originals (with
``target == "current"`` it forms that product first, a third ufunc), and
one finite check over the finished working matrix names the first client
whose row is not finite.

A report stores the round's originals and the loop's decisions; everything
else is derived on read and, except ``aligned``, cached (see
:class:`AggregationReport`).  ``probes_and_targets`` is the one rule for
which rows a step reads, its probe under ``accumulate`` and its target
under ``target``: the pair loop, the ``aligned`` replay and the encrypted
replay (``hekit.aligned_aggregate_encrypted``) all take their rows from
it.  An aggregation whose reader never looks at the diagnostics pays
nothing for them; the readers that do are ``rounds.csv`` (every round)
and a sweep cell's variance means (the conflict rounds, which pay a
replay of the aligned rows too).

``domain_variance`` is batched: for each row *i* one numpy call forms the
differences against a chunk of later rows, and each row is then squared
and summed.  Each such row sum is numpy's pairwise summation over the same
elementwise values that ``np.sum(d * d)`` reduces, and the pair values are
accumulated in (i, j) order, so it is bit-for-bit equal to the per-pair
loop.
"""

from __future__ import annotations

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
    NonFiniteResult,
    is_real,
)
from .numcore import RealMat, RealVec, Rng, axpby, dot, nonfinite_rows, shuffles, weighted_sum

# ``shuffle`` is not called here (a round's visiting orders come from one
# ``shuffles`` draw); it stays a module attribute for callers that look it up
# on this module, such as the benchmark's tracer.
from .numcore import shuffle  # noqa: F401

__all__ = [
    "ClientUpdate",
    "AlignConfig",
    "AggregationReport",
    "detect_conflict",
    "align_pair",
    "aggregate_aligned",
    "aggregate_fedavg",
    "domain_variance",
]

WEIGHTINGS = ("uniform", "sample_weighted")
TARGETS = ("original", "current")
ORDER_MODES = ("random", "fixed")

# The scratch buffer of ``domain_variance`` holds at most this many bytes
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
    """One round's message from a client: gradient plus bookkeeping.

    A plain message: it keeps its fields as given.  The aggregators check a
    round's messages once, where they stack the gradients (see
    ``_gradient_matrix``)."""

    client_id: str
    gradient: RealVec
    num_samples: int
    local_loss: float


@dataclass(frozen=True)
class AlignConfig:
    """Knobs of the alignment aggregator.

    ``lam`` must lie in (0, 0.5]: at 0.5 the correction lands exactly on the
    other gradient, and beyond it the (1 - 2*lam) factor flips the sign of
    the client's own direction.
    """

    lam: float = 0.1
    weighting: str = "uniform"
    accumulate: bool = True
    target: str = "original"
    order_mode: str = "random"

    def __post_init__(self):
        _check_lambda(self.lam)
        if self.weighting not in WEIGHTINGS:
            raise InvalidSpec(f"weighting must be one of {WEIGHTINGS}")
        if not isinstance(self.accumulate, bool):
            raise InvalidSpec("accumulate must be true or false")
        if self.target not in TARGETS:
            raise InvalidSpec(f"target must be one of {TARGETS}")
        if self.order_mode not in ORDER_MODES:
            raise InvalidSpec(f"order_mode must be one of {ORDER_MODES}")


@dataclass(frozen=True)
class AggregationReport:
    """Everything one aggregation did.

    ``originals`` is the K×P matrix of the round's client gradients, row k
    for ``client_ids[k]``.  ``aligned`` is the K×P matrix of final ones:
    ``originals`` itself for fedavg and for an aligned round without
    conflicts, otherwise the recorded conflicts replayed on a fresh copy, from
    ``probes_and_targets``'s rows and with the loop's own in-place step, on
    every read.

    ``tested_pairs`` is a read-only (M, 2) int64 array of client indices,
    one row per tested pair in the order tested: the visiting order for
    aligned (each outer client, then its inner order), (i, j) with i < j
    for fedavg.  ``conflict_mask`` is the read-only (M,) bool array of which
    pairs conflict: ``loop_conflicts``, the aligned loop's decisions, or for
    fedavg decided from ``originals`` on first read.  ``variance_before`` and
    ``variance_after`` are computed on first read and cached; the second is
    the first when ``aligned`` is ``originals``.  ``row_squares`` holds
    each row of ``originals``' squared norm as the pairwise ``np.sum(g *
    g)``: the sums the sign certificates read and the round's gradient
    norms take.  ``config`` is the :class:`AlignConfig` the aligned
    aggregator ran with (None for fedavg).
    """

    aggregated: RealVec
    originals: RealMat
    client_ids: tuple[str, ...]
    weights: tuple[float, ...]
    tested_pairs: np.ndarray
    row_squares: np.ndarray = field(repr=False, compare=False)
    config: AlignConfig | None = None
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
        norms = list(map(_norm, self.row_squares.tolist()))
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
    def variance_before(self) -> float:
        return domain_variance(self.originals)

    @property
    @np.errstate(over="ignore", invalid="ignore")
    def aligned(self) -> RealMat:
        conflicts = [] if self.loop_conflicts is None else self.conflict_pairs.tolist()
        if not conflicts:
            return self.originals
        # The recorded conflicts, in tested order, stepped as the loop did.
        lam, working = self.config.lam, self.originals.copy()
        work_rows, addend = list(working), np.empty(working.shape[1])
        probes, targets = probes_and_targets(list(self.originals), work_rows, self.config)
        for i, j in conflicts:
            _step_into(work_rows[i], probes[i], np.multiply(targets[j], 2.0 * lam, out=addend), lam)
        return working

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
    if not (is_real(lam) and 0.0 < lam <= 0.5):
        # A value that is not a number is quoted, so "0.1" does not read as in range.
        shown = lam if is_real(lam) else repr(lam)
        raise InvalidLambda(f"lambda must be in (0, 0.5], got {shown}")


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


def _step_into(row: RealVec, probe: RealVec, addend: RealVec, lam: float) -> None:
    """``align_pair(probe, target, lam)`` written into ``row`` with two
    in-place ufuncs, ``addend`` holding ``target * (2*lam)``: the same bits.
    The pair loop takes ``addend`` from a pre-scaled copy of the originals
    when the steps target them; otherwise, and in the ``aligned`` replay, it
    is formed in a scratch row.
    ``probe`` may be ``row``; ``addend`` must not be."""
    np.multiply(probe, 1.0 - 2.0 * lam, out=row)
    np.add(row, addend, out=row)


def probes_and_targets(originals: Sequence, working: Sequence, cfg: AlignConfig) -> tuple[Sequence, Sequence]:
    """The rows the aligned loop's step for a pair ``(i, j)`` reads, as
    ``(probes, targets)``: the step sets row *i* from ``probes[i]`` and
    ``targets[j]``.  The probes are ``working`` under ``cfg.accumulate`` and
    ``originals`` otherwise; the targets are ``originals`` under
    ``cfg.target == "original"`` and ``working`` otherwise.  The one rule
    for the pair loop, the ``aligned`` replay and the encrypted replay
    (``hekit.aligned_aggregate_encrypted``, on cipher handles)."""
    return (working if cfg.accumulate else originals), (originals if cfg.target == "original" else working)


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
    """Row buffer for ``domain_variance`` of a K×P matrix, at most
    ``_SCRATCH_BYTES`` (but one row at least)."""
    rows = max(1, min(k - 1, _SCRATCH_BYTES // (8 * max(p, 1))))
    return np.empty((rows, p))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def domain_variance(grads: RealMat) -> float:
    """Sum of squared distances over unordered pairs of rows of the K×P
    matrix ``grads`` (each pair once), batched as the module docstring says."""
    if getattr(grads, "ndim", None) != 2:
        raise DimensionMismatch("domain_variance needs a K×P gradient matrix")
    k = grads.shape[0]
    if k == 0:
        raise EmptyUpdateSet("domain_variance needs at least one gradient")
    buf = _scratch(*grads.shape)
    total = 0.0
    for i in range(k - 1):
        for lo in range(i + 1, k, len(buf)):
            d = buf[: k - lo]
            np.subtract(grads[i], grads[lo : lo + len(d)], out=d)
            d *= d
            for value in d.sum(axis=1).tolist():
                total += value
    return total


def _gradient_matrix(updates: Sequence[ClientUpdate]) -> tuple[RealMat, np.ndarray]:
    """The updates' gradients stacked as a float64 K×P matrix, row k for
    update k, and each row's pairwise squared norm (a square may overflow
    to inf, without a warning): the one check of a round's messages.  The
    first update, in order, whose gradient is not a flat vector as long as
    the first one's, or whose ``num_samples`` is below 1, raises; then one
    finite pass over the stack names the first client whose gradient holds
    a NaN or Inf."""
    if len(updates) == 0:
        raise EmptyUpdateSet("no client updates to aggregate")
    first = np.shape(updates[0].gradient)
    for u in updates:
        shape = np.shape(u.gradient)
        if len(shape) != 1:
            raise DimensionMismatch("gradient must be a flat vector")
        if shape != first:
            raise DimensionMismatch(f"client {u.client_id!r} gradient length {shape[0]} != {first[0]}")
        if u.num_samples < 1:
            raise InvalidSpec("num_samples must be >= 1")
    grads = np.array([u.gradient for u in updates], dtype=np.float64)
    if bad := nonfinite_rows(grads):
        raise InvalidSpec(f"client {updates[bad[0]].client_id!r} sent a non-finite gradient")
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        return grads, np.add.reduce(grads * grads, axis=1)


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

    Clients are visited in a random order drawn from ``rng`` (``Rng(0)``
    when none is passed); for each client *i* the other
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
    The row norms are computed once per round, from the ``row_squares``
    that ``_gradient_matrix`` takes.  A pass starts
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
    working, squares = _gradient_matrix(updates)
    if rng is None:
        rng = Rng(0)
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
    orig_rows = [np.asarray(u.gradient, dtype=np.float64) for u in updates]
    accumulate, current, lam = cfg.accumulate, cfg.target == "current", cfg.lam
    probes, targets = probes_and_targets(orig_rows, work_rows, cfg)
    norms = list(map(_norm, squares.tolist()))
    # The steps' 2*lam * g_j, when they target the originals (still the
    # working rows here).
    scaled = None if current else list(working * (2.0 * lam))
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
                _step_into(row, probe, np.multiply(target_vec, 2.0 * lam, out=product) if current else scaled[j], lam)
                row_norm = max(pnorm, tnorm)
                if accumulate:
                    pnorm = row_norm
        if current:
            norms[i] = row_norm
    if bad := nonfinite_rows(working):
        raise NonFiniteResult(f"client {ids[bad[0]]}: aligned gradients contains NaN or Inf")

    del scaled  # before the sum's own K×P temporary, for the peak memory
    weights = _weights(updates, cfg.weighting)
    aggregated = weighted_sum(working, weights)
    loop_conflicts = _frozen(np.array(conflicts, dtype=bool))
    # The report keeps the originals, in the working matrix's buffer: the
    # aligned rows are replayed from them when read.
    if loop_conflicts.any():
        for row, g in zip(work_rows, orig_rows):
            row[...] = g
    return AggregationReport(
        aggregated=aggregated,
        originals=working,
        client_ids=ids,
        weights=weights,
        tested_pairs=_frozen(pairs).reshape(-1, 2),
        row_squares=squares,
        config=cfg,
        loop_conflicts=loop_conflicts,
    )


def aggregate_fedavg(
    updates: Sequence[ClientUpdate],
    weighting: str = "sample_weighted",
) -> AggregationReport:
    """Weighted averaging of client gradients (weights n_k / n by default).

    Pairwise conflicts are still reported as a diagnostic, decided when
    first read, but do not influence the result.
    """
    originals, squares = _gradient_matrix(updates)
    k = len(updates)
    # Every (i, j) with i < j, in row-major order.  ``np.triu_indices``
    # gives the same pairs at several times the cost for small K.
    order = np.arange(k)
    tested = np.column_stack(np.nonzero(order[:, None] < order))
    weights = _weights(updates, weighting)
    return AggregationReport(
        aggregated=weighted_sum(originals, weights),
        originals=originals,
        client_ids=tuple(u.client_id for u in updates),
        weights=weights,
        tested_pairs=_frozen(tested),
        row_squares=squares,
    )

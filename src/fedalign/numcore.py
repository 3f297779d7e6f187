"""Dense vector/matrix arithmetic and seeded pseudorandom generation.

Vectors and matrices are plain ``numpy`` arrays of ``float64``; 1-D arrays
play the role of parameter/gradient vectors and 2-D arrays hold row-major
feature matrices.  The helpers here pin down two things the rest of the
package relies on:

* **Accumulation order.**  ``dot`` reduces through ``numpy``'s
  pairwise-tree summation, so results are reproducible run to run and
  symmetric in their arguments (the elementwise product is commutative
  bit-for-bit, and the reduction over identical values is identical).
* **The random generator.**  :class:`Rng` wraps the Philox 4x64-10 counter
  based bit generator seeded through ``numpy.random.SeedSequence``.  The
  algorithm is fully specified, so a seed produces the same stream on every
  platform, and a derived generator is keyed by an extended entropy tuple
  rather than by consumed state.
* **The shuffle.**  ``shuffle(rng, n, k)`` returns the first ``k`` entries
  of one pinned Fisher-Yates permutation and consumes the stream exactly as
  the full shuffle does, so a minibatch of k rows costs the draw and O(k)
  Python work, not a permutation of all n rows.  ``shuffles(rng, sizes)``
  draws several full permutations, one after another, from one generator
  call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NonFiniteResult

__all__ = [
    "RealVec",
    "RealMat",
    "Rng",
    "ensure_finite",
    "nonfinite_rows",
    "dot",
    "axpby",
    "shuffle",
    "shuffles",
    "weighted_sum",
]

# Type aliases: a RealVec is a 1-D float64 array, a RealMat a 2-D one.
RealVec = np.ndarray
RealMat = np.ndarray


def ensure_finite(a: np.ndarray, what: str = "result") -> np.ndarray:
    """Raise :class:`NonFiniteResult` if ``a`` contains NaN or infinity."""
    if not np.isfinite(a).all():
        raise NonFiniteResult(f"{what} contains NaN or Inf")
    return a


def nonfinite_rows(a: RealMat) -> list[int]:
    """The rows of ``a`` holding a NaN or Inf, in order; one whole-matrix pass if none do."""
    finite = np.isfinite(a)
    if finite.all():
        return []
    return np.flatnonzero(~finite.all(axis=1)).tolist()


def _check_same_length(a: RealVec, b: RealVec) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"vector lengths differ: {a.shape} vs {b.shape}")


def dot(a: RealVec, b: RealVec) -> float:
    """Inner product of two equal-length vectors.

    Accumulated as ``np.sum(a * b)`` (numpy's pairwise tree), which makes the
    result exactly symmetric in ``a`` and ``b``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_same_length(a, b)
    return float(np.sum(a * b))


def axpby(alpha: float, a: RealVec, beta: float, b: RealVec) -> RealVec:
    """Elementwise ``alpha * a + beta * b``.

    Raises :class:`NonFiniteResult` if any output entry is NaN/Inf, so
    numerical blow-ups surface at the operation that caused them.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check_same_length(a, b)
    out = alpha * a + beta * b
    return ensure_finite(out, "axpby result")


class Rng:
    """Reproducible random source based on the Philox 4x64-10 generator.

    The generator is identified by an entropy ``key`` (a tuple of integers).
    ``Rng(seed)`` uses ``(seed,)`` and ``Rng(seed, *subkeys)`` extends it, so
    a stream derived as ``Rng(*rng.key, *subkeys)`` depends only on the key,
    never on how much of ``rng``'s stream was consumed.  An ``Rng`` is
    single-owner state: do not share one instance across threads, derive a
    generator per owner instead.
    """

    def __init__(self, seed: int, *subkeys: int):
        self.key = (int(seed),) + tuple(int(k) for k in subkeys)
        self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(self.key)))

    def integers(self, low, high=None, size=None) -> np.ndarray | int:
        """Integers from ``[low, high)`` (or ``[0, low)`` when high is None).

        A Python ``int`` for scalar bounds and no ``size``; otherwise an
        int64 array shaped like ``size`` or like the broadcast bounds.  One
        call draws exactly what the matching sequence of scalar calls would,
        element by element in C order, and leaves the same state behind.
        """
        out = self._gen.integers(low, high, size)
        return int(out) if np.ndim(out) == 0 else out

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None) -> np.ndarray | float:
        return self._gen.normal(loc, scale, size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray | float:
        return self._gen.uniform(low, high, size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rng(key={self.key})"


def shuffle(rng: Rng, n: int, k: int | None = None) -> np.ndarray:
    """The first ``k`` entries (all ``n`` by default) of a uniform random
    permutation of ``0..n-1`` via Fisher-Yates.

    The swap loop is written out here (rather than delegated to numpy's
    ``permutation``) so the exact algorithm consuming the stream is pinned
    in this repository: for ``i = n-1 .. 1``, swap slot ``i`` with a slot
    ``j_i`` drawn uniformly from ``[0, i]``.  All ``n - 1`` swap indices come
    from one generator call with the bounds ``n, n-1, .., 2``, which draws
    the same values and leaves the same state as one scalar call per swap,
    whatever ``k`` is.  Deterministic per rng state.

    Only the prefix is built.  A swap ``i >= k`` never touches slot ``i``
    again and moves the value it holds into slot ``j_i``, so at the end of
    those swaps a prefix slot holds the value of a chain of writers: slot
    ``m`` keeps ``m`` unless some step ``i > m`` has ``j_i == m``, and then
    holds what slot ``i`` held at its first (smallest) such writer ``i``.
    The chains of all ``k`` slots are followed with array operations, then
    the last ``k - 1`` swaps, which stay inside the prefix, run in Python.
    With ``k == n`` there are no chains, only the swap loop.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = n if k is None else k
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    swaps = rng.integers(0, np.arange(n, 1, -1))
    head = len(swaps) - max(k - 1, 0)  # the swaps i = n-1 .. max(k, 1)
    if head:
        # The first writer of each slot, n marking "none".  A slot that a
        # chain enters was written by its own step elsewhere, so a swap of a
        # slot with itself never lands on a chain.
        first = np.full(n, n)
        np.minimum.at(first, swaps[:head], np.arange(n - 1, n - 1 - head, -1))
        source = np.arange(n)
        np.copyto(source, first, where=first < n)
        prefix = source[:k]
        # Each hop moves to a later writer; a chain ends at a slot that
        # still holds its own index.  (Comparing bytes is the cheap test.)
        while (chained := source[prefix]).tobytes() != prefix.tobytes():
            prefix = chained
        perm = prefix.tolist()
    else:
        perm = list(range(k))
    for i, j in zip(range(k - 1, 0, -1), swaps[head:].tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)


def shuffles(rng: Rng, sizes: Sequence[int]) -> list[list[int]]:
    """One full Fisher-Yates permutation of ``0..n-1`` per ``n`` in
    ``sizes``, as Python lists: the permutations ``shuffle(rng, n)`` returns
    when called once per size, in order.

    The swap indices of every permutation come from one generator call
    over the concatenated bounds (``n, n-1, .., 2`` for each size in turn),
    and the swaps run in Python.  That call draws the same values and
    leaves the same state as the calls in turn, because Philox keeps a
    half-used 64-bit word across calls, so the stream after it is the
    stream after the separate shuffles.  A round's aggregation orders, K+1
    short permutations, cost one call this way instead of K+1.
    """
    if any(n < 0 for n in sizes):
        raise ValueError("sizes must be nonnegative")
    bounds = np.array([b for n in sizes for b in range(n, 1, -1)], dtype=np.int64)
    swaps = iter(rng.integers(0, bounds).tolist())
    perms = []
    for n in sizes:
        perm = list(range(n))
        # zip reads the range first, so it stops without taking an index
        # that belongs to the next permutation.
        for i, j in zip(range(n - 1, 0, -1), swaps):
            perm[i], perm[j] = perm[j], perm[i]
        perms.append(perm)
    return perms


def weighted_sum(vectors: Sequence[RealVec], weights: Sequence[float]) -> RealVec:
    """``sum_k weights[k] * vectors[k]`` accumulated left-to-right in index order.

    Shared by every aggregation strategy so that strategies which should
    coincide (e.g. alignment with no conflicts vs plain averaging) coincide
    bit-for-bit.

    ``vectors`` may be the K×P matrix itself, which is then not copied.  The
    K products are formed in one multiply and summed by one ``np.add.reduce``
    over the leading axis, which numpy accumulates row after row: the fold's
    bits, from an initial -0.0, which adds nothing to any value (numpy's own
    initial, +0.0, would turn a sum of negative zeros positive).  Vectors of
    one entry are folded in Python, because numpy sums a column of K single
    entries pairwise.
    """
    if len(vectors) == 0:
        raise DimensionMismatch("weighted_sum needs at least one vector")
    if len(vectors) != len(weights):
        raise DimensionMismatch("vectors and weights differ in length")
    if not isinstance(vectors, np.ndarray) and len({np.shape(v) for v in vectors}) > 1:
        raise DimensionMismatch("vector lengths differ")
    x = np.asarray(vectors, dtype=np.float64)
    products = np.multiply(x, np.reshape(weights, (-1,) + (1,) * (x.ndim - 1)), order="C")
    acc = np.add.reduce(products, axis=0, initial=-0.0) if products[0].size > 1 else sum(products[1:], products[0])
    return ensure_finite(acc, "weighted sum")

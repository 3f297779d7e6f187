"""Homomorphic-operator facade for the aggregation arithmetic.

The point is structural, not cryptographic: the whole alignment
aggregation needs nothing but add / subtract / multiply on opaque handles
between encryption and the final decryption.  The reference
:class:`TransparentCipher` provides no secrecy; it carries fixed-point
integers and implements the operator semantics exactly, as the equivalence
tests need.

One handle packs a whole vector, as the slot packing of CKKS/BFV does: its
payload is an int64 array (0-d for a constant such as a weight, 1-D for a
gradient) and every operator acts on all slots at once.  Every handle
carries the counts of the operator tags that produced it, shared by all of
its slots, so a trace costs what the circuit does.  The audit still counts
per coordinate, so a tag counted on a P-slot handle counts P times.

Every operator certifies its result's range from its operands' bounds.  A
handle that :class:`TransparentCipher` makes carries an exact integer upper
bound on its slots' magnitudes, propagated with Python integers; only when
the bound reaches the codec limit does the operator run the exact
:meth:`FixedPointCodec.check_range` scan, so it raises
:class:`OverflowAtScale` exactly when a scan after every operator would,
with the same message.  A handle built by hand carries no bound, so every
operator on it takes the exact scan.

The auditor accepts only {ENC, ADD, SUB, MUL}; any other tag (say, from a
shortcut that decrypts, computes in plaintext and re-encrypts) raises
:class:`TraceViolation`.  Traces are taken at face value — with a
transparent cipher there is nothing to hide — so the audit checks protocol
shape, not adversarial behavior.

One gap is explicit: a conflict is the *sign* of an inner product, and an
add/sub/mul algebra cannot produce a plaintext bit.  The conflict decisions
therefore enter :func:`aligned_aggregate_encrypted` as an external input
(in the simulator, from the plaintext aggregation as a trusted comparator),
together with that aggregation's own :class:`AlignConfig` and weights: the
replay has no defaults, and it takes each step's rows from the plaintext
loop's own rule (``aggregation.probes_and_targets``), so it runs with
exactly the semantics the plaintext loop ran with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .aggregation import AlignConfig, probes_and_targets
from .errors import DimensionMismatch, InvalidSpec, NonFiniteResult, OverflowAtScale, TraceViolation, is_int
from .numcore import RealVec

__all__ = [
    "ENC",
    "ADD",
    "SUB",
    "MUL",
    "ALLOWED_TAGS",
    "CipherHandle",
    "FixedPointCodec",
    "TransparentCipher",
    "TraceAudit",
    "transparent_cipher",
    "enc_vec",
    "dec_vec",
    "audit_trace",
    "aligned_aggregate_encrypted",
    "weighted_sum_encrypted",
]

ENC = "ENC"
ADD = "ADD"
SUB = "SUB"
MUL = "MUL"
ALLOWED_TAGS = frozenset({ENC, ADD, SUB, MUL})

# 2^24 keeps the full aggregation pipeline (encode, one rescale per MUL,
# weighted sum) well under 1e-6 absolute error per coordinate for desk-scale
# gradient magnitudes; 2^20 measures at ~2.4e-6 worst case, which is too
# coarse.  Headroom: |value| < 2^31 / 2^24 = 128.
DEFAULT_SCALE = 2**24

# Encoded magnitudes must stay below 2^31 so that any single product of two
# in-range values fits a signed 64-bit plaintext slot ((2^31)^2 = 2^62).
_INT_LIMIT = 2**31
_FLOAT_MAX = float(np.finfo(np.float64).max)


@dataclass(frozen=True)
class CipherHandle:
    """Opaque encrypted vector: int64 slot payloads plus their shared tag counts.

    ``payload`` is 0-d for a constant (a weight, ``2``, ``lambda``) and 1-D
    for a gradient.  ``trace`` counts each tag's occurrences in the handle's
    expression tree, keys in first-occurrence order.  ``bound`` is an exact
    integer upper bound on the slots' magnitudes, set only by
    :class:`TransparentCipher`; a handle built by hand has none, so every
    operator on it runs the exact range scan.
    """

    payload: np.ndarray
    trace: dict[str, int]
    bound: int | None = field(default=None, init=False, repr=False, compare=False)


def _bounded(payload: np.ndarray, trace: dict[str, int], bound: int) -> CipherHandle:
    handle = CipherHandle(payload, trace)
    object.__setattr__(handle, "bound", bound)
    return handle


@dataclass(frozen=True)
class FixedPointCodec:
    """Maps reals to scaled integers elementwise: encode(x) = round(x * scale).

    ``scale`` must be a positive power of two (an integer, not a bool), and
    is kept as a Python ``int``.  Round-trip error is at most half a unit
    (1 unit = 1/scale); each MUL rescales its raw product by 1/scale exactly
    once, rounding to nearest with ties away from zero.  :meth:`encode` and
    :meth:`rescale` range-check every value they return;
    :class:`TransparentCipher` calls :meth:`check_range` only where its
    operand bounds cannot certify the range.
    """

    scale: int = DEFAULT_SCALE

    def __post_init__(self):
        if not is_int(self.scale) or self.scale < 1 or (self.scale & (self.scale - 1)) != 0:
            raise InvalidSpec(f"scale must be a positive power of two, got {self.scale}")
        object.__setattr__(self, "scale", int(self.scale))

    def encode(self, x) -> np.ndarray:
        return self._encode(x)[0]

    def _encode(self, x) -> tuple[np.ndarray, int]:
        """(encoded slots, their largest magnitude).  A Python float, such
        as a weight, 2 or lambda, takes the same IEEE arithmetic in Python
        floats, without a 0-d array's set-up."""
        if isinstance(x, float):
            worst = abs(x)
        else:
            x = np.asarray(x, dtype=np.float64)
            magnitude = np.abs(x, out=np.empty_like(x))
            # One pass serves both checks: the largest magnitude is NaN or
            # inf exactly when some value is.
            worst = float(np.maximum.reduce(magnitude, axis=None, initial=0.0))
        if not math.isfinite(worst):
            raise NonFiniteResult("cannot encode a non-finite value")
        # A finite value this large would overflow the float64 product to
        # inf; it is far out of range, so refuse it before scaling.
        if worst > _FLOAT_MAX / self.scale:
            raise self._overflow(f"{worst:g} x {self.scale}")
        # Scaling by a power of two is exact and floor(v + 0.5) is monotone,
        # so the largest slot is the largest magnitude rounded: range-check
        # it before the int64 cast so an out-of-range value cannot wrap.
        top = math.floor(worst * self.scale + 0.5)
        if top >= _INT_LIMIT:
            raise self._overflow(f"{float(top):g}")
        if isinstance(x, float):
            return np.array(-top if x < 0 else top, dtype=np.int64), top
        # Round half away from zero.
        magnitude *= self.scale
        magnitude += 0.5
        np.floor(magnitude, out=magnitude)
        np.copysign(magnitude, x, out=magnitude)
        return magnitude.astype(np.int64), top

    def decode(self, i: np.ndarray) -> np.ndarray:
        return i / self.scale

    def rescale(self, raw_product: np.ndarray) -> np.ndarray:
        """Divide by ``scale``, rounding to nearest with ties away from zero."""
        return self.check_range(self._shifted(np.array(raw_product)))

    def _shifted(self, raw: np.ndarray) -> np.ndarray:
        """:meth:`rescale` without its range check, in place on ``raw``."""
        half = self.scale // 2
        if half:
            # floor((raw + half - [raw < 0]) / scale) rounds half away from
            # zero, and on integers a right shift by log2(scale) is that floor.
            offset = raw >> 63  # -1 where raw is negative, 0 elsewhere
            offset += half
            raw += offset
            raw >>= self.scale.bit_length() - 1
        return raw

    def check_range(self, i: np.ndarray) -> np.ndarray:
        i = np.asarray(i)
        worst = np.max(np.abs(i), initial=0)
        if worst >= _INT_LIMIT:
            raise self._overflow(f"{worst:g}")
        return i

    def _overflow(self, magnitude) -> OverflowAtScale:
        return OverflowAtScale(
            f"encoded magnitude {magnitude} exceeds the codec range "
            f"(|value| must stay below {_INT_LIMIT / self.scale:g} at scale {self.scale})"
        )


class TransparentCipher:
    """Reference scheme: fixed-point payloads, exact operator semantics,
    zero secrecy.

    Handles pack a whole vector (or one constant); add/sub/mul act slot by
    slot, broadcasting a constant against a vector, and stay closed over
    handles — plaintext never appears between :meth:`enc` and :meth:`dec`.

    Each handle it makes carries a bound on its slots' magnitudes: ENC's is
    its largest slot, ADD and SUB add their operands' bounds, and MUL
    rescales their product as it rescales the slots.  An operator runs the
    exact :meth:`FixedPointCodec.check_range` scan only when that bound
    reaches the codec limit, or when an operand was built by hand and has no
    bound, and then keeps the scanned maximum as the bound.  Every overflow
    is therefore raised where, and as, a scan after every operator raises it.
    """

    def __init__(self, codec: FixedPointCodec | None = None):
        self.codec = codec or FixedPointCodec()

    def enc(self, x) -> CipherHandle:
        payload, bound = self.codec._encode(x)
        return _bounded(payload, {ENC: 1}, bound)

    def dec(self, h: CipherHandle) -> np.ndarray:
        return self.codec.decode(h.payload)

    def add(self, a: CipherHandle, b: CipherHandle) -> CipherHandle:
        bound = None if a.bound is None or b.bound is None else a.bound + b.bound
        return self._certified(a.payload + b.payload, _merged(a, b, ADD), bound)

    def sub(self, a: CipherHandle, b: CipherHandle) -> CipherHandle:
        bound = None if a.bound is None or b.bound is None else a.bound + b.bound
        return self._certified(a.payload - b.payload, _merged(a, b, SUB), bound)

    def mul(self, a: CipherHandle, b: CipherHandle) -> CipherHandle:
        # Both factors are below 2^31 in magnitude, so the int64 product is
        # exact, and rescaling the product of the bounds bounds the result.
        scale = self.codec.scale
        bound = None if a.bound is None or b.bound is None else (a.bound * b.bound + scale // 2) // scale
        return self._certified(self.codec._shifted(a.payload * b.payload), _merged(a, b, MUL), bound)

    def _certified(self, payload: np.ndarray, trace: dict[str, int], bound: int | None) -> CipherHandle:
        # An operator on two 0-d payloads gives a numpy scalar: keep an array.
        payload = np.asarray(payload)
        if bound is None or bound >= _INT_LIMIT:
            payload = self.codec.check_range(payload)
            bound = int(np.max(np.abs(payload), initial=0))
        return _bounded(payload, trace, bound)


def _merged(a: CipherHandle, b: CipherHandle, tag: str) -> dict[str, int]:
    """The tag counts of ``tag(a, b)``: ``a``'s, plus ``b``'s, plus one ``tag``."""
    counts = dict(a.trace)
    for t, n in (*b.trace.items(), (tag, 1)):
        counts[t] = counts.get(t, 0) + n
    return counts


def transparent_cipher(scale: int = DEFAULT_SCALE) -> TransparentCipher:
    """The reference cipher at the given fixed-point scale."""
    return TransparentCipher(FixedPointCodec(scale=scale))


def enc_vec(cipher: TransparentCipher, v: RealVec) -> CipherHandle:
    """Encrypt a vector into one handle whose trace is exactly {ENC: 1}."""
    return cipher.enc(v)


def dec_vec(cipher: TransparentCipher, handle: CipherHandle) -> RealVec:
    return cipher.dec(handle)


@dataclass(frozen=True)
class TraceAudit:
    """Summary of an operator-trace inspection (raised past, not returned,
    on violation).  Counts are per coordinate: a tag counted on a P-slot
    handle counts P times."""

    coordinates: int
    total_tags: int
    tag_counts: dict

    def to_dict(self) -> dict:
        return {
            "coordinates": self.coordinates,
            "total_tags": self.total_tags,
            "tag_counts": dict(self.tag_counts),
            "allowed": sorted(ALLOWED_TAGS),
        }


def audit_trace(handles: Sequence[CipherHandle]) -> TraceAudit:
    """Verify every handle was produced purely by {ENC, ADD, SUB, MUL}.

    Raises :class:`TraceViolation` on a trace with no ENC or a foreign tag.
    """
    counts: dict[str, int] = {}
    coordinates = total = 0
    for idx, h in enumerate(handles):
        if ENC not in h.trace:
            raise TraceViolation(f"handle {idx}: trace has no ENC root")
        slots = int(np.size(h.payload))
        for tag, n in h.trace.items():
            if tag not in ALLOWED_TAGS:
                raise TraceViolation(f"handle {idx}: forbidden operator tag {tag!r}")
            counts[tag] = counts.get(tag, 0) + n * slots
        coordinates += slots
        total += sum(h.trace.values()) * slots
    return TraceAudit(coordinates=coordinates, total_tags=total, tag_counts=counts)


def _check_enc_updates(enc_updates: Sequence[CipherHandle]) -> None:
    if len(enc_updates) == 0:
        raise InvalidSpec("no encrypted updates")
    shape = np.shape(enc_updates[0].payload)
    for k, h in enumerate(enc_updates):
        if np.shape(h.payload) != shape:
            raise DimensionMismatch(f"encrypted update {k} has shape {np.shape(h.payload)} != {shape}")


def weighted_sum_encrypted(
    enc_updates: Sequence[CipherHandle],
    weights: Sequence[float],
    cipher: TransparentCipher,
) -> tuple[CipherHandle, TraceAudit]:
    """Encrypted ``sum_k E(w_k) (x) E(g_k)`` — the averaging step of any
    strategy, in operator algebra."""
    _check_enc_updates(enc_updates)
    if len(weights) != len(enc_updates):
        raise DimensionMismatch("one weight per encrypted update required")
    # Each distinct weight is encrypted once, in first-occurrence order, so
    # uniform weights cost one ENC; every E(w) still has the trace {ENC: 1}.
    weights = [float(w) for w in weights]
    enc_w = {w: cipher.enc(w) for w in dict.fromkeys(weights)}
    out = cipher.mul(enc_w[weights[0]], enc_updates[0])
    for w, g in zip(weights[1:], enc_updates[1:]):
        out = cipher.add(out, cipher.mul(enc_w[w], g))
    return out, audit_trace([out])


def aligned_aggregate_encrypted(
    enc_updates: Sequence[CipherHandle],
    cfg: AlignConfig,
    cipher: TransparentCipher,
    conflicts: Sequence[tuple[int, int]],
    weights: Sequence[float],
) -> tuple[CipherHandle, TraceAudit]:
    """Replay the alignment aggregation entirely in encrypted space.

    ``cfg`` is the :class:`AlignConfig` the plaintext aggregator ran with
    (a report's ``config``): the replay takes its ``lam``, and
    ``weights`` are the report's own.  ``conflicts`` are the externally
    supplied decisions: the ordered ``(i, j)`` client-index pairs that
    conflicted, in the visiting order the plaintext loop met them, as the
    plaintext report's ``conflict_pairs`` array holds them (or any sequence
    of index pairs).  The sign test is not expressible in the operator
    algebra (see module docstring).  Every pair is checked before any
    cipher work, so a malformed list raises :class:`InvalidSpec` first.

    Each step's probe ``p`` and target ``t`` come from
    ``aggregation.probes_and_targets``, as in the plaintext loop.  The step
    is

        E(p) (-) E(2) (*) E(lam) (*) (E(p) (-) E(t))

    with ``E(2) (*) E(lam)`` computed once.  Returns the encrypted
    aggregated gradient and its trace audit.
    """
    _check_enc_updates(enc_updates)
    k, seen = len(enc_updates), set()
    pairs = np.asarray(conflicts, dtype=np.int64).reshape(-1, 2).tolist()
    for i, j in pairs:
        if not (0 <= i < k and 0 <= j < k) or i == j or (i, j) in seen:
            raise InvalidSpec(f"conflict pair {(i, j)} is not a new pair of two of the {k} clients")
        seen.add((i, j))
    # Built even when no pair conflicts: at a scale of 2^30 or more, encoding
    # 2.0 overflows, and a run at that scale must fail in its first round.
    two_lam = cipher.mul(cipher.enc(2.0), cipher.enc(cfg.lam))
    working = list(enc_updates)
    probes, targets = probes_and_targets(enc_updates, working, cfg)
    for i, j in pairs:
        working[i] = cipher.sub(probes[i], cipher.mul(two_lam, cipher.sub(probes[i], targets[j])))
    return weighted_sum_encrypted(working, weights, cipher)

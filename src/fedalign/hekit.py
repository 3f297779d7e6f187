"""Homomorphic-operator facade for the aggregation arithmetic.

The point of this module is structural, not cryptographic: it demonstrates
that the whole alignment aggregation is expressible with nothing but
encrypted-space add / subtract / multiply on opaque handles, so a server
running it never needs plaintext arithmetic between encryption and the
final decryption.  The reference :class:`TransparentCipher` provides no
secrecy; it carries fixed-point integers in the handles and implements the
operator semantics exactly, which is what the equivalence tests need.

One handle packs a whole vector, as the slot packing of CKKS/BFV does: its
payload is an int64 array (0-d for a constant such as a weight, 1-D for a
gradient) and every operator acts on all slots at once.  Every handle
carries the counts of the operator tags that produced it, shared by all of
its slots, so a trace costs what the circuit does.  The audit still counts
per coordinate, so a tag counted on a P-slot handle counts P times.

The auditor accepts only {ENC, ADD, SUB, MUL}; any other tag (say, from a
shortcut that decrypts, computes in plaintext and re-encrypts) raises
:class:`TraceViolation`.  Traces are taken at face value — with a
transparent cipher there is nothing to hide — so the audit checks protocol
shape, not adversarial behavior.

One genuine gap is made explicit rather than papered over: deciding whether
two gradients conflict needs the *sign* of their inner product, and a pure
add/sub/mul operator algebra cannot produce a plaintext bit.  The conflict
decisions therefore enter :func:`aligned_aggregate_encrypted` as an
external input (in the simulator they come from the plaintext aggregation
acting as a trusted comparator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .aggregation import TARGETS
from .errors import DimensionMismatch, InvalidSpec, NonFiniteResult, OverflowAtScale, TraceViolation
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
    expression tree, keys in first-occurrence order.
    """

    payload: np.ndarray
    trace: dict[str, int]


@dataclass(frozen=True)
class FixedPointCodec:
    """Maps reals to scaled integers elementwise: encode(x) = round(x * scale).

    ``scale`` must be a positive power of two.  Round-trip error is at most
    half a unit (1 unit = 1/scale); each MUL rescales its raw product by
    1/scale exactly once, rounding to nearest with ties away from zero.
    """

    scale: int = DEFAULT_SCALE

    def __post_init__(self):
        if self.scale < 1 or (self.scale & (self.scale - 1)) != 0:
            raise InvalidSpec(f"scale must be a positive power of two, got {self.scale}")

    def encode(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        # One pass serves both checks: the largest magnitude is NaN or inf
        # exactly when some value is.
        worst = float(np.max(np.abs(x), initial=0.0))
        if not math.isfinite(worst):
            raise NonFiniteResult("cannot encode a non-finite value")
        # A finite value this large would overflow the float64 product to
        # inf; it is far out of range, so refuse it before scaling.
        if worst > _FLOAT_MAX / self.scale:
            raise self._overflow(f"{worst:g} x {self.scale}")
        scaled = x * self.scale
        # Round half away from zero, then range-check the float before the
        # int64 cast so an out-of-range value cannot wrap.
        raw = np.copysign(np.floor(np.abs(scaled) + 0.5), scaled)
        return self.check_range(raw).astype(np.int64)

    def decode(self, i: np.ndarray) -> np.ndarray:
        return i / self.scale

    def rescale(self, raw_product: np.ndarray) -> np.ndarray:
        """Divide by ``scale``, rounding to nearest with ties away from zero."""
        magnitude = (np.abs(raw_product) + self.scale // 2) // self.scale
        return self.check_range(np.where(raw_product < 0, -magnitude, magnitude))

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
    """

    def __init__(self, codec: FixedPointCodec | None = None):
        self.codec = codec or FixedPointCodec()

    def enc(self, x) -> CipherHandle:
        return CipherHandle(payload=self.codec.encode(x), trace={ENC: 1})

    def dec(self, h: CipherHandle) -> np.ndarray:
        return self.codec.decode(h.payload)

    def add(self, a: CipherHandle, b: CipherHandle) -> CipherHandle:
        payload = self.codec.check_range(a.payload + b.payload)
        return CipherHandle(payload=payload, trace=_merged(a, b, ADD))

    def sub(self, a: CipherHandle, b: CipherHandle) -> CipherHandle:
        payload = self.codec.check_range(a.payload - b.payload)
        return CipherHandle(payload=payload, trace=_merged(a, b, SUB))

    def mul(self, a: CipherHandle, b: CipherHandle) -> CipherHandle:
        # Both factors are below 2^31 in magnitude, so the int64 product is exact.
        payload = self.codec.rescale(a.payload * b.payload)
        return CipherHandle(payload=payload, trace=_merged(a, b, MUL))


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
    enc_w = [cipher.enc(float(w)) for w in weights]
    out = cipher.mul(enc_w[0], enc_updates[0])
    for w, g in zip(enc_w[1:], enc_updates[1:]):
        out = cipher.add(out, cipher.mul(w, g))
    return out, audit_trace([out])


def aligned_aggregate_encrypted(
    enc_updates: Sequence[CipherHandle],
    lam: float,
    cipher: TransparentCipher,
    conflicts: Sequence[tuple[int, int]],
    weights: Sequence[float] | None = None,
    accumulate: bool = True,
    target: str = "original",
) -> tuple[CipherHandle, TraceAudit]:
    """Replay the alignment aggregation entirely in encrypted space.

    ``conflicts`` are the externally supplied decisions: the ordered
    ``(i, j)`` client-index pairs that conflicted, in the visiting order the
    plaintext loop met them, as the plaintext report's ``conflict_pairs``
    array holds them (or any sequence of index pairs).  The sign test is
    not expressible in the operator algebra (see module docstring).

    The correction applied for each conflicting pair is

        E(h_i) (-) E(2) (*) E(lam) (*) (E(h_i) (-) E(g_j))

    with ``E(2) (*) E(lam)`` computed once.  Returns the encrypted
    aggregated gradient and its trace audit.
    """
    if not (0.0 < lam <= 0.5):
        raise InvalidSpec(f"lambda must be in (0, 0.5], got {lam}")
    if target not in TARGETS:
        raise InvalidSpec(f"target must be one of {TARGETS}")
    _check_enc_updates(enc_updates)
    k = len(enc_updates)
    two_lam = cipher.mul(cipher.enc(2.0), cipher.enc(lam))
    working = list(enc_updates)
    seen = set()
    for i, j in np.asarray(conflicts, dtype=np.int64).reshape(-1, 2).tolist():
        if not (0 <= i < k and 0 <= j < k) or i == j or (i, j) in seen:
            raise InvalidSpec(f"conflict pair {(i, j)} is not a new pair of two of the {k} clients")
        seen.add((i, j))
        base = working[i] if accumulate else enc_updates[i]
        tgt = enc_updates[j] if target == "original" else working[j]
        working[i] = cipher.sub(base, cipher.mul(two_lam, cipher.sub(base, tgt)))

    if weights is None:
        weights = [1.0 / k] * k
    return weighted_sum_encrypted(working, weights, cipher)

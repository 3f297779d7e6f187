"""The aggregation arithmetic, replayed on encrypted handles.

The server-side combination step — align conflicting gradients, then take
the weighted sum — uses nothing but add, subtract and multiply, so it can
run on ciphertext handles and be decrypted only at the end.  The reference
cipher here is *transparent* (fixed-point integers, no secrecy); what it
demonstrates is the operator discipline, which an audit of per-handle
operation traces enforces.

Each client's gradient is one handle: an int64 array with one fixed-point
slot per coordinate and one set of operator tag counts shared by all slots.
The audit still reports per coordinate, so a tag counted on a 6-slot handle
counts 6 times.
"""

import numpy as np

from fedalign import (
    AlignConfig,
    ClientUpdate,
    Rng,
    aggregate_aligned,
    aligned_aggregate_encrypted,
    dec_vec,
    enc_vec,
    transparent_cipher,
)

rng = np.random.default_rng(0)
grads = [rng.normal(size=6) for _ in range(4)]
updates = [ClientUpdate(f"c{i}", g, 50, 0.0) for i, g in enumerate(grads)]

# Plaintext pass: the report records the conflicts in visiting order.
report = aggregate_aligned(updates, AlignConfig(lam=0.1), rng=Rng(7))
print(f"plaintext aggregate: {np.round(report.aggregated, 4)}")
ids = report.client_ids
print(f"conflicting pairs  : {[(ids[i], ids[j]) for i, j in report.conflict_pairs.tolist()]}")

# Encrypted replay: the report's own AlignConfig and weights, and the same
# conflict decisions (client index pairs) in the same order, cipher handles
# only.  None of them has a default, so the replay cannot silently run with
# other semantics than the plaintext pass.
cipher = transparent_cipher()
encrypted = [enc_vec(cipher, g) for g in grads]
handles, audit = aligned_aggregate_encrypted(encrypted, report.config, cipher, report.conflict_pairs, report.weights)
decrypted = dec_vec(cipher, handles)

print(f"decrypted aggregate: {np.round(decrypted, 4)}")
print(f"max coordinate gap : {np.max(np.abs(decrypted - report.aggregated)):.2e} "
      f"(fixed-point scale 2^24)")
print(f"operator trace     : {audit.total_tags} tags over {audit.coordinates} coordinates, "
      f"counts {audit.tag_counts}")
print("allowed operators  :", sorted(audit.to_dict()["allowed"]))

# The one thing the operator algebra cannot do is *decide* a conflict: that
# needs the sign of an inner product, which add/sub/mul never exposes.  The
# decisions therefore arrive as an explicit input above.

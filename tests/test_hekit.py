import json
import math
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedalign import hekit
from fedalign.aggregation import AlignConfig, aggregate_aligned, ClientUpdate
from fedalign.domains import default_benchmark_spec, generate
from fedalign.errors import (
    DimensionMismatch,
    InvalidLambda,
    InvalidSpec,
    NonFiniteResult,
    OverflowAtScale,
    TraceViolation,
)
from fedalign.hekit import (
    ADD,
    ALLOWED_TAGS,
    DEFAULT_SCALE,
    ENC,
    MUL,
    SUB,
    CipherHandle,
    FixedPointCodec,
    TransparentCipher,
    aligned_aggregate_encrypted,
    audit_trace,
    dec_vec,
    enc_vec,
    transparent_cipher,
    weighted_sum_encrypted,
)
from fedalign.federation import FedConfig, LrDecay, run_experiment
from fedalign.models import ModelSpec
from fedalign.numcore import Rng

from _oracles import TupleTraceCipher, div_round, reference_aligned_encrypted, round_half_away


class LeakyCipher(TransparentCipher):
    """Test double that cheats: mul decrypts, multiplies in plaintext and
    re-encrypts, leaving a PLAIN_MUL tag in the trace."""

    def mul(self, a, b):
        value = self.dec(a) * self.dec(b)
        payload = self.codec.encode(value)
        trace = Counter(a.trace) + Counter(b.trace) + Counter({"PLAIN_MUL": 1})
        return CipherHandle(payload=payload, trace=dict(trace))


class TestCodec:
    def test_round_trip_bound(self):
        codec = FixedPointCodec()
        for x in (0.0, 1.0, -1.0, 0.123456, -3.14159, 17.25, -0.0001):
            assert abs(codec.decode(codec.encode(x)) - x) <= 1.0 / codec.scale

    def test_half_is_exact(self):
        codec = FixedPointCodec()
        assert codec.decode(codec.encode(0.5)) == 0.5

    def test_dyadic_values_exact(self):
        codec = FixedPointCodec(scale=2**20)
        for x in (0.25, -0.125, 3.0, -7.5):
            assert codec.decode(codec.encode(x)) == x

    def test_overflow(self):
        codec = FixedPointCodec()
        with pytest.raises(OverflowAtScale):
            codec.encode(1e9)

    @pytest.mark.parametrize("x", [1e305, -1.7e308, np.array([0.5, 1e305]), np.array([[1e302], [0.0]])],
                             ids=["scalar", "negative-scalar", "vector", "matrix"])
    def test_overflow_past_float64_scaling_raises_without_warning(self, x):
        # x * scale overflows float64 itself; the range check comes first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowAtScale, match="exceeds the codec range"):
                FixedPointCodec().encode(x)

    def test_overflow_message_names_bound(self):
        with pytest.raises(OverflowAtScale) as err:
            FixedPointCodec().encode(1e9)
        assert str(2**31 // DEFAULT_SCALE) in str(err.value)

    @pytest.mark.parametrize("x", [1.07e301, np.array([0.5, -1.07e301])], ids=["scalar", "vector"])
    def test_overflow_message_is_short_and_names_scale(self, x):
        # Just below the float64 guard at scale 2^24: the scaled magnitude is
        # finite, and 309 digits long as an exact integer.
        with pytest.raises(OverflowAtScale) as err:
            FixedPointCodec(scale=2**24).encode(x)
        message = str(err.value)
        assert "encoded magnitude 1.79" in message and "at scale 16777216" in message
        assert len(message) < 120

    @pytest.mark.parametrize(
        "scale",
        [0, -8, 3, 1000, 2.0**24, 8.0, np.float64(8.0), True, False, "8", 2**63],
        ids=["0", "-8", "3", "1000", "float-2^24", "float-8", "np.float64-8", "True", "False", "str-8", "2^63"],
    )
    def test_scale_must_be_power_of_two(self, scale):
        with pytest.raises(InvalidSpec):
            FixedPointCodec(scale=scale)

    def test_scale_kept_as_python_int(self):
        codec = FixedPointCodec(scale=np.int64(2**24))
        assert type(codec.scale) is int and codec.scale == 2**24
        assert codec.rescale(np.array([3 * 2**23, -(2**23)])).tolist() == [2, -1]

    def test_scale_one_allowed(self):
        codec = FixedPointCodec(scale=1)
        assert codec.decode(codec.encode(3.0)) == 3.0

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteResult):
            FixedPointCodec().encode(float("nan"))

    def test_rounding_ties_away_from_zero(self):
        codec = FixedPointCodec(scale=2)
        assert codec.encode(0.25) == 1  # 0.5 units, rounds up
        assert codec.encode(-0.25) == -1

    @given(st.floats(-100, 100, allow_nan=False))
    @settings(max_examples=100)
    def test_round_trip_property(self, x):
        codec = FixedPointCodec()
        assert abs(codec.decode(codec.encode(x)) - x) <= 0.5 / codec.scale + 1e-15


def _encoding(codec, x):
    """``codec._encode(x)``'s payload (type, dtype, shape, value) and bound,
    or the type and message of the error it raises."""
    try:
        payload, bound = codec._encode(x)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)
    return type(payload), payload.dtype, payload.shape, payload.tolist(), bound


class TestConstantEncoding:
    """A Python float is encoded in Python floats, as the 0-d array it
    replaces was encoded in numpy: same payload, bound and errors."""

    @pytest.mark.parametrize("scale", [1, 2, 2**24, 2**30, 2**40])
    def test_matches_the_zero_d_array_path(self, scale):
        unit, limit = 1.0 / scale, float(2**31) / scale
        values = [
            0.0, -0.0, 0.5 * unit, -0.5 * unit, 1.5 * unit, -2.5 * unit, 0.1, -0.1, 2.0, 1.0 / 3.0,
            limit - 0.5 * unit, -(limit - 0.5 * unit), limit - unit, -(limit - unit), limit, -limit,
            np.nextafter(limit - 0.5 * unit, 0.0), 1e308, -1e308, 1.7976931348623157e308,
            math.inf, -math.inf, math.nan, -math.nan,
        ]
        codec = FixedPointCodec(scale)
        for x in values:
            x = float(x)
            assert _encoding(codec, x) == _encoding(codec, np.array(x)), x

    def test_numpy_float_takes_the_same_path(self):
        codec = FixedPointCodec()
        for x in (0.1, -3.75, 127.9999999):
            assert _encoding(codec, np.float64(x)) == _encoding(codec, np.array(x))


class TestTransparentCipher:
    def setup_method(self):
        self.c = transparent_cipher()

    def test_enc_dec_identity_within_unit(self):
        h = self.c.enc(0.7371)
        assert abs(self.c.dec(h) - 0.7371) <= 1.0 / DEFAULT_SCALE

    def test_add_homomorphism(self):
        a, b = 1.234, -0.567
        got = self.c.dec(self.c.add(self.c.enc(a), self.c.enc(b)))
        assert abs(got - (a + b)) <= 2.0 / DEFAULT_SCALE

    def test_sub_homomorphism(self):
        a, b = 0.2, 0.9
        got = self.c.dec(self.c.sub(self.c.enc(a), self.c.enc(b)))
        assert abs(got - (a - b)) <= 2.0 / DEFAULT_SCALE

    def test_mul_known_product(self):
        got = self.c.dec(self.c.mul(self.c.enc(0.2), self.c.enc(0.1)))
        assert abs(got - 0.02) <= 1.0 / DEFAULT_SCALE

    def test_mul_of_dyadics_exact(self):
        got = self.c.dec(self.c.mul(self.c.enc(0.5), self.c.enc(0.25)))
        assert got == 0.125

    @given(
        # Products must stay inside the codec headroom (|value| < 128).
        st.floats(-11, 11, allow_nan=False),
        st.floats(-11, 11, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_homomorphism_property(self, a, b):
        c = self.c
        assert abs(c.dec(c.add(c.enc(a), c.enc(b))) - (a + b)) <= 2.0 / DEFAULT_SCALE
        assert abs(c.dec(c.sub(c.enc(a), c.enc(b))) - (a - b)) <= 2.0 / DEFAULT_SCALE
        # mul error: encode error of each operand is amplified by the other.
        tol = (abs(a) + abs(b) + 2.0) / DEFAULT_SCALE
        assert abs(c.dec(c.mul(c.enc(a), c.enc(b))) - a * b) <= tol

    def test_trace_concatenation(self):
        h = self.c.add(self.c.enc(1.0), self.c.mul(self.c.enc(2.0), self.c.enc(3.0)))
        assert h.trace == {ENC: 3, MUL: 1, ADD: 1}

    def test_enc_of_huge_finite_vector_raises_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowAtScale, match="below 128 at scale 16777216"):
                self.c.enc(np.array([0.5, 1e305]))

    def test_addition_overflow_detected(self):
        big = self.c.enc(100.0)
        with pytest.raises(OverflowAtScale):
            self.c.add(big, big)  # 200 > 128 headroom


class TestVectors:
    def test_vec_round_trip(self):
        c = transparent_cipher()
        v = np.array([0.1, -0.2, 0.3, 127.0])
        back = dec_vec(c, enc_vec(c, v))
        assert np.max(np.abs(back - v)) <= 1.0 / DEFAULT_SCALE


class TestVectorHandles:
    def test_one_overflowing_slot_raises(self):
        c = transparent_cipher()
        with pytest.raises(OverflowAtScale):
            c.enc(np.array([0.5, 200.0, -0.25]))
        h = c.enc(np.array([1.0, 100.0, -1.0]))
        with pytest.raises(OverflowAtScale):
            c.add(h, h)  # only the middle slot leaves the 128 headroom

    def test_mul_ties_round_away_from_zero(self):
        c = transparent_cipher(scale=2)
        v = c.enc(np.array([-0.5, -1.5, -2.5, 0.5, 1.5]))  # payloads -1 -3 -5 1 3
        half = c.enc(0.5)  # payload 1: every raw product sits on a tie
        h = c.mul(half, v)
        assert h.payload.tolist() == [-1, -2, -3, 1, 2]
        assert h.payload.dtype == np.int64
        assert h.trace == {ENC: 2, MUL: 1}

    @given(
        # Products of two values below 11 stay inside the 128 headroom.
        st.lists(st.floats(-11, 11, allow_nan=False), min_size=1, max_size=16),
        st.sampled_from([1, 2, 2**10, DEFAULT_SCALE]),
    )
    @settings(max_examples=200)
    def test_codec_matches_scalar_reference(self, xs, scale):
        codec = FixedPointCodec(scale=scale)
        enc = codec.encode(np.array(xs))
        assert enc.tolist() == [round_half_away(x * scale) for x in xs]
        assert codec.decode(enc).tolist() == [i / scale for i in enc.tolist()]
        a, b = enc.tolist(), enc[::-1].tolist()
        got = codec.rescale(enc * enc[::-1])
        assert got.tolist() == [div_round(x * y, scale) for x, y in zip(a, b)]

    def test_audit_counts_each_tag_once_per_slot(self):
        c = transparent_cipher()
        h = c.mul(c.enc(0.5), enc_vec(c, np.ones(5)))
        audit = audit_trace([h])
        assert audit.coordinates == 5
        assert audit.tag_counts == {ENC: 10, MUL: 5}
        assert audit.total_tags == 15


class TestAudit:
    def test_clean_trace_passes_and_counts(self):
        c = transparent_cipher()
        h = c.sub(c.add(c.enc(1.0), c.enc(2.0)), c.enc(0.5))
        audit = audit_trace([h])
        assert audit.coordinates == 1
        assert audit.tag_counts == {ENC: 3, ADD: 1, SUB: 1}
        assert audit.total_tags == 5
        assert set(audit.to_dict()["allowed"]) == ALLOWED_TAGS

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceViolation):
            audit_trace([CipherHandle(payload=0, trace={})])

    def test_must_start_with_enc(self):
        with pytest.raises(TraceViolation):
            audit_trace([CipherHandle(payload=0, trace={ADD: 1})])

    def test_foreign_tag_rejected(self):
        leaky = LeakyCipher()
        h = leaky.mul(leaky.enc(0.5), leaky.enc(0.5))
        with pytest.raises(TraceViolation) as err:
            audit_trace([h])
        assert "PLAIN_MUL" in str(err.value)


class TestWeightedSumEncrypted:
    def test_matches_plain_weighted_sum(self):
        c = transparent_cipher()
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=5) for _ in range(3)]
        weights = [0.5, 0.25, 0.25]
        enc = [enc_vec(c, g) for g in grads]
        out, audit = weighted_sum_encrypted(enc, weights, c)
        expected = sum(w * g for w, g in zip(weights, grads))
        assert np.max(np.abs(dec_vec(c, out) - expected)) < 1e-6
        assert audit.coordinates == 5
        assert set(audit.tag_counts) <= ALLOWED_TAGS

    def test_each_distinct_weight_encrypted_once(self):
        c = transparent_cipher()
        enc = [enc_vec(c, np.ones(2)) for _ in range(3)]
        seen = []
        c.enc = lambda x: seen.append(x) or TransparentCipher.enc(c, x)
        out, audit = weighted_sum_encrypted(enc, [0.25, np.float64(0.5), 0.25], c)
        assert seen == [0.25, 0.5]
        # Each E(w) still counts as one ENC in the audit.
        assert audit.tag_counts == {ENC: 12, MUL: 6, ADD: 4}
        assert dec_vec(c, out).tolist() == [1.0, 1.0]

    def test_weight_count_checked(self):
        c = transparent_cipher()
        enc = [enc_vec(c, np.ones(2))]
        with pytest.raises(DimensionMismatch):
            weighted_sum_encrypted(enc, [0.5, 0.5], c)

    def test_ragged_updates_rejected(self):
        c = transparent_cipher()
        enc = [enc_vec(c, np.ones(2)), enc_vec(c, np.ones(3))]
        with pytest.raises(DimensionMismatch):
            weighted_sum_encrypted(enc, [0.5, 0.5], c)

    def test_empty_rejected(self):
        with pytest.raises(InvalidSpec):
            weighted_sum_encrypted([], [], transparent_cipher())


class TestEncryptedAlignment:
    def plain_report(self, grads, lam=0.1, seed=0):
        updates = [ClientUpdate(f"c{i}", g, 1, 0.0) for i, g in enumerate(grads)]
        return aggregate_aligned(updates, AlignConfig(lam=lam), rng=Rng(seed))

    def replay(self, grads, rep):
        c = transparent_cipher()
        enc = [enc_vec(c, g) for g in grads]
        out, audit = aligned_aggregate_encrypted(enc, rep.config, c, rep.conflict_pairs, rep.weights)
        return dec_vec(c, out), audit

    def test_pipeline_matches_plaintext(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for trial in range(50):
            k = int(rng.integers(2, 5))
            dim = int(rng.integers(1, 8))
            grads = [rng.normal(size=dim) for _ in range(k)]
            rep = self.plain_report(grads, seed=trial)
            got, audit = self.replay(grads, rep)
            worst = max(worst, float(np.max(np.abs(got - rep.aggregated))))
            assert set(audit.tag_counts) <= ALLOWED_TAGS
        assert worst <= 1e-6

    def test_replay_sums_through_the_public_function(self, monkeypatch):
        # The sum the replay ends with goes through the public function (the
        # benchmark's tracer wraps it), which checks its handles as any
        # caller's: once in the replay, once in the sum.
        checks, sums = [], []
        check, total = hekit._check_enc_updates, hekit.weighted_sum_encrypted
        monkeypatch.setattr(hekit, "_check_enc_updates", lambda h: checks.append(len(h)) or check(h))
        monkeypatch.setattr(hekit, "weighted_sum_encrypted", lambda *a: sums.append(a) or total(*a))
        grads = [np.array([1.0, 0.5]), np.array([-0.9, 0.6]), np.array([0.2, -0.4])]
        rep = self.plain_report(grads)
        assert rep.num_conflicts > 0
        got, _ = self.replay(grads, rep)
        assert checks == [3, 3] and len(sums) == 1
        assert np.max(np.abs(got - rep.aggregated)) < 1e-6

    @pytest.mark.parametrize(
        "shapes,error,message",
        [
            ([], InvalidSpec, "no encrypted updates"),
            ([(2,), (3,)], DimensionMismatch, r"encrypted update 1 has shape \(3,\) != \(2,\)"),
            ([(2,), (2,), ()], DimensionMismatch, r"encrypted update 2 has shape \(\) != \(2,\)"),
        ],
        ids=["empty", "ragged", "constant"],
    )
    def test_both_public_functions_reject_bad_handles(self, shapes, error, message):
        c = transparent_cipher()
        enc = [enc_vec(c, np.ones(shape)) for shape in shapes]
        weights = [1.0] * len(enc)
        with pytest.raises(error, match=f"^{message}$"):
            weighted_sum_encrypted(enc, weights, c)
        with pytest.raises(error, match=f"^{message}$"):
            aligned_aggregate_encrypted(enc, AlignConfig(), c, [], weights)

    def test_conflict_free_case(self):
        grads = [np.array([1.0, 0.5]), np.array([0.9, 0.6])]
        rep = self.plain_report(grads)
        assert rep.num_conflicts == 0
        got, _ = self.replay(grads, rep)
        assert np.max(np.abs(got - rep.aggregated)) <= 1e-6

    def test_forced_conflict_case(self):
        grads = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
        rep = self.plain_report(grads)
        assert rep.num_conflicts == 2
        got, _ = self.replay(grads, rep)
        assert np.max(np.abs(got - rep.aggregated)) <= 1e-6

    def test_lambda_validated(self):
        # The replay's lambda is checked once, where its AlignConfig is built.
        with pytest.raises(InvalidLambda):
            AlignConfig(lam=0.9)

    def test_audit_runs_inside_pipeline(self):
        # A leaky backend is caught by the audit the pipeline performs.
        grads = [np.array([1.0]), np.array([-1.0])]
        rep = self.plain_report(grads)
        leaky = LeakyCipher()
        enc = [enc_vec(leaky, g) for g in grads]
        with pytest.raises(TraceViolation):
            aligned_aggregate_encrypted(enc, rep.config, leaky, [(0, 1), (1, 0)], rep.weights)

    def test_replays_the_reports_semantics_and_weights(self):
        # Sample weights, no accumulation and the "current" target: a replay
        # that fell back to uniform weights, accumulation or the "original"
        # target would decrypt far from the plaintext aggregate.
        grads = [np.array([1.0, 0.2]), np.array([-0.8, 0.5]), np.array([-0.3, -0.9])]
        updates = [ClientUpdate(f"c{i}", g, n, 0.0) for i, (g, n) in enumerate(zip(grads, [5, 40, 15]))]
        cfg = AlignConfig(lam=0.3, weighting="sample_weighted", accumulate=False, target="current")
        rep = aggregate_aligned(updates, cfg, rng=Rng(0))
        assert rep.num_conflicts == 4
        got, _ = self.replay(grads, rep)
        assert np.max(np.abs(got - rep.aggregated)) <= 1e-6
        # The same conflicts replayed with the semantics the removed defaults
        # gave (accumulate, "original" target, uniform weights) land 0.3 away.
        c = transparent_cipher()
        out, _ = aligned_aggregate_encrypted(
            [enc_vec(c, g) for g in grads], AlignConfig(lam=0.3), c, rep.conflict_pairs, [1 / 3] * 3
        )
        assert np.max(np.abs(dec_vec(c, out) - rep.aggregated)) > 0.1

    def test_target_validated(self):
        # The replay's target is checked once, where its AlignConfig is built.
        with pytest.raises(InvalidSpec, match="target"):
            AlignConfig(target="orignal")

    @pytest.mark.parametrize(
        "conflicts",
        [[(0, 2)], [(2, 0)], [(-1, 0)], [(0, -1)], [(1, 1)], [(0, 1), (1, 0), (0, 1)]],
        ids=["j-past-end", "i-past-end", "i-negative", "j-negative", "self-pair", "repeat"],
    )
    def test_bad_conflict_pair_rejected(self, conflicts):
        c = transparent_cipher()
        enc = [enc_vec(c, np.ones(1)), enc_vec(c, -np.ones(1))]
        with pytest.raises(InvalidSpec, match="conflict pair"):
            aligned_aggregate_encrypted(enc, AlignConfig(), c, conflicts, [0.5, 0.5])

    def test_pairs_checked_before_any_step(self):
        # The first step's SUB would leave the codec range (100 - (-100) =
        # 200 >= 128 at the default scale); the malformed second pair is
        # rejected before it runs.
        c = transparent_cipher()
        enc = [enc_vec(c, np.array([100.0])), enc_vec(c, np.array([-100.0]))]
        with pytest.raises(InvalidSpec, match=r"^conflict pair \(0, 0\) "):
            aligned_aggregate_encrypted(enc, AlignConfig(), c, [(0, 1), (0, 0)], [0.5, 0.5])


class TestCountTraces:
    """Tag-count traces and the conflict-list replay against the tuple
    traces and the visiting-order walk they replaced."""

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    @pytest.mark.parametrize("accumulate", [True, False])
    @pytest.mark.parametrize("target", ["original", "current"])
    def test_replay_matches_tuple_trace_reference(self, k, accumulate, target):
        rng = np.random.default_rng(k)
        for seed, lam in enumerate([0.1, 0.25, 0.5, 0.1]):
            dim = int(rng.integers(1, 8))
            grads = [rng.normal(size=dim) for _ in range(k)]
            updates = [ClientUpdate(f"c{i}", g, int(rng.integers(1, 50)), 0.0) for i, g in enumerate(grads)]
            cfg = AlignConfig(lam=lam, weighting="sample_weighted", accumulate=accumulate, target=target)
            rep = aggregate_aligned(updates, cfg, rng=Rng(seed))
            c, ref = transparent_cipher(), TupleTraceCipher()
            out, audit = aligned_aggregate_encrypted(
                [enc_vec(c, g) for g in grads], rep.config, c, rep.conflict_pairs, rep.weights
            )
            ref_out, ref_audit = reference_aligned_encrypted(
                [ref.enc(g) for g in grads], lam, rep.tested_pairs, ref, set(map(tuple, rep.conflict_pairs.tolist())),
                list(rep.weights), accumulate, target,
            )
            assert np.array_equal(out.payload, ref_out.payload)
            assert json.dumps(audit.to_dict()) == json.dumps(ref_audit.to_dict())

    def test_k32_many_conflicts_in_milliseconds(self):
        # 508 conflicts: a trace that spelled out the expression tree would
        # double per conflict (2.7e9 tags); counts keep this to milliseconds.
        rng = np.random.default_rng(32)
        grads = [rng.standard_normal(50) for _ in range(32)]
        updates = [ClientUpdate(f"c{k}", g, 10, 0.0) for k, g in enumerate(grads)]
        rep = aggregate_aligned(updates, AlignConfig(lam=0.1), rng=Rng(0, 2, 0))
        conflicts = rep.conflict_pairs
        assert len(conflicts) == 508
        c = transparent_cipher()
        enc = [enc_vec(c, g) for g in grads]
        t0 = time.perf_counter()
        out, audit = aligned_aggregate_encrypted(enc, rep.config, c, conflicts, rep.weights)
        elapsed = time.perf_counter() - t0
        assert audit.total_tags == 2656659150
        assert np.max(np.abs(dec_vec(c, out) - rep.aggregated)) <= 1e-6
        assert elapsed < 5.0


@st.composite
def cipher_programs(draw):
    """(scale, steps): a random chain of ENC, ADD, SUB and MUL.  A step is
    ``("enc", value)`` or ``(op, i, j)`` on earlier steps' handles.  Values
    are scalars or vectors of one length, many within a few half units
    below 2^31/scale, the first magnitude out of range; the last two
    (2^31 - 1/2 units, which rounds away to 2^31, and 2^31) overflow."""
    scale = draw(st.sampled_from([1, 2**10, 2**24, 2**29]))
    edge = 2**31 / scale
    near_edge = st.builds(
        lambda halves, sign: sign * (edge + halves / (2 * scale)), st.integers(-8, 0), st.sampled_from([-1.0, 1.0])
    )
    value = st.one_of(near_edge, st.floats(-2, 2, allow_nan=False), st.floats(-edge, edge, allow_nan=False))
    size = draw(st.integers(1, 4))
    operand = st.one_of(value, st.lists(value, min_size=size, max_size=size).map(np.array))
    steps = [("enc", draw(operand))]
    for _ in range(draw(st.integers(0, 11))):
        op = draw(st.sampled_from(["enc", "add", "sub", "mul"]))
        index = st.integers(0, len(steps) - 1)
        steps.append(("enc", draw(operand)) if op == "enc" else (op, draw(index), draw(index)))
    return scale, steps


def run_program(cipher, steps):
    """One outcome per step: (payload bytes, shape, tag counts) until a step
    raises, then (exception type, message) and stop."""
    handles, outcomes = [], []
    for step in steps:
        try:
            if step[0] == "enc":
                h = cipher.enc(step[1])
            else:
                op, i, j = step
                h = getattr(cipher, op)(handles[i], handles[j])
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
            break
        handles.append(h)
        payload = np.asarray(h.payload)
        outcomes.append((payload.dtype, payload.tobytes(), payload.shape, dict(Counter(h.trace))))
    return handles, outcomes


class TestBoundCertificates:
    """Each operator certifies its range from its operands' bounds and runs
    the exact scan only where the bound reaches 2^31: the same payloads and
    the same overflow errors, at the same step, as the tuple-trace oracle
    that scans after every operator."""

    @given(cipher_programs())
    @settings(max_examples=400, deadline=None)
    def test_matches_scanning_oracle(self, program):
        scale, steps = program
        handles, got = run_program(transparent_cipher(scale), steps)
        _, expected = run_program(TupleTraceCipher(FixedPointCodec(scale)), steps)
        assert got == expected
        for h in handles:
            assert np.max(np.abs(h.payload), initial=0) <= h.bound < 2**31

    @pytest.fixture
    def scans(self, monkeypatch):
        """The slot count of every exact ``check_range`` scan, in call order."""
        seen = []
        original = FixedPointCodec.check_range

        def counting(codec, i):
            seen.append(np.size(i))
            return original(codec, i)

        monkeypatch.setattr(FixedPointCodec, "check_range", counting)
        return seen

    def test_encrypted_workload_round_makes_no_scan(self, scans):
        # The encrypted benchmark's shape: K=3, P=642, scale 2^24.
        cfg = FedConfig(strategy="aligned", rounds=2, seed=0, encrypt=True, lr=0.2, lr_decay=LrDecay(20, 10.0))
        res = run_experiment(generate(default_benchmark_spec(seed=0)), "dom3", ModelSpec(2, 128, 2), cfg)
        assert res.records[-1].aggregation.num_conflicts > 0
        assert res.records[-1].trace_audit["coordinates"] == 642
        assert scans == []

    def test_bound_at_limit_scans_once_and_keeps_the_scanned_bound(self, scans):
        c = transparent_cipher()
        # Each bounded by just over 2^30: the sum's bound reaches 2^31 while
        # every slot of the sum is in range.
        a, b = c.enc(np.array([65.0, -65.0, 1.0])), c.enc(np.array([-65.0, 65.0, 0.5]))
        assert a.bound == b.bound == 65 * DEFAULT_SCALE > 2**30
        total = c.add(a, b)
        assert scans == [3]
        assert total.payload.tolist() == [0, 0, 3 * DEFAULT_SCALE // 2]
        assert total.bound == 3 * DEFAULT_SCALE // 2
        c.mul(total, c.add(total, total))
        assert scans == [3]

    def test_hand_built_handle_always_scans(self, scans):
        c = transparent_cipher()
        built = CipherHandle(c.enc(np.array([1.0, -2.0])).payload, {ENC: 1})
        assert built.bound is None
        c.add(built, c.enc(0.5))
        c.mul(c.enc(0.5), built)
        c.sub(built, built)
        assert scans == [2, 2, 2]

    def test_sub_overflow_inside_aligned_replay_raises_oracle_message(self):
        # 3 - (-3) = 6 leaves the headroom of 4 at scale 2^29.
        grads = [np.array([3.0]), np.array([-3.0])]
        c, ref = transparent_cipher(2**29), TupleTraceCipher(FixedPointCodec(2**29))
        with pytest.raises(OverflowAtScale) as expected:
            reference_aligned_encrypted(
                [ref.enc(g) for g in grads], 0.1, np.array([[0, 1]]), ref, {(0, 1)}, [0.5, 0.5], True, "original"
            )
        with pytest.raises(OverflowAtScale) as err:
            aligned_aggregate_encrypted([enc_vec(c, g) for g in grads], AlignConfig(), c, [(0, 1)], [0.5, 0.5])
        assert str(err.value) == str(expected.value)
        assert "below 4 at scale 536870912" in str(err.value)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedalign.errors import DimensionMismatch, NonFiniteResult
from fedalign.numcore import Rng, axpby, dot, shuffle, weighted_sum

from _oracles import scalar_draws, scalar_shuffle, squared_distance

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def vec_pair(draw, min_n=1, max_n=40):
    n = draw(st.integers(min_n, max_n))
    a = draw(st.lists(finite, min_size=n, max_size=n))
    b = draw(st.lists(finite, min_size=n, max_size=n))
    return np.array(a), np.array(b)


class TestDot:
    def test_known_value(self):
        assert dot(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])) == 32.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dot(np.ones(3), np.ones(4))

    @given(st.data())
    def test_exactly_symmetric(self, data):
        a, b = vec_pair(data.draw)
        assert dot(a, b) == dot(b, a)

    @given(st.data())
    def test_against_fsum(self, data):
        # math.fsum is exact; pairwise summation should sit within a few ulps.
        import math

        a, b = vec_pair(data.draw)
        exact = math.fsum(float(x) * float(y) for x, y in zip(a, b))
        scale = max(1.0, math.fsum(abs(float(x) * float(y)) for x, y in zip(a, b)))
        assert abs(dot(a, b) - exact) <= 1e-12 * scale


class TestSquaredDistance:
    def test_zero_for_identical(self):
        v = np.array([0.1, -0.7, 3.5])
        assert squared_distance(v, v) == 0.0

    def test_known_value(self):
        assert squared_distance(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 4.0

    @given(st.data())
    def test_symmetric_and_nonnegative(self, data):
        a, b = vec_pair(data.draw)
        d = squared_distance(a, b)
        assert d >= 0.0
        assert d == squared_distance(b, a)


class TestAxpby:
    @given(st.data(), finite, finite)
    def test_matches_direct_expression(self, data, alpha, beta):
        a, b = vec_pair(data.draw)
        out = axpby(alpha, a, beta, b)
        assert np.array_equal(out, alpha * a + beta * b)

    def test_overflow_surfaces(self):
        big = np.full(3, 1e308)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteResult):
            axpby(10.0, big, 10.0, big)


class TestRng:
    def test_same_key_same_stream(self):
        a, b = Rng(42), Rng(42)
        assert [a.integers(1000) for _ in range(20)] == [b.integers(1000) for _ in range(20)]

    def test_different_subkeys_differ(self):
        a, b = Rng(42, 1), Rng(42, 2)
        assert [a.integers(10**9) for _ in range(8)] != [b.integers(10**9) for _ in range(8)]

    def test_child_equivalent_to_direct_key(self):
        via_child = Rng(*Rng(7).key, 3, 4)
        direct = Rng(7, 3, 4)
        assert via_child.key == direct.key == (7, 3, 4)
        assert via_child.normal(size=5).tolist() == direct.normal(size=5).tolist()

    def test_child_independent_of_consumption(self):
        a = Rng(9)
        a.normal(size=100)  # consume a chunk of the parent stream
        b = Rng(9)
        assert Rng(*a.key, 1).integers(10**9) == Rng(*b.key, 1).integers(10**9)

    def test_known_stream_snapshot(self):
        # Philox is fully specified; freeze a few draws to catch accidental
        # generator swaps.
        rng = Rng(0)
        snapshot = [rng.integers(2**31) for _ in range(4)]
        replay = Rng(0)
        assert snapshot == [replay.integers(2**31) for _ in range(4)]
        assert len(set(snapshot)) > 1

    def test_scalar_bounds_give_python_int(self):
        assert type(Rng(0).integers(5)) is int
        assert type(Rng(0).integers(0, 5)) is int

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 500, 2**31, 2**33])
    def test_sized_draw_matches_scalar_calls(self, n):
        for count in (1, 7, 100):
            fast, ref = Rng(5, n), Rng(5, n)
            out = fast.integers(0, n, size=count)
            assert out.dtype == np.int64
            assert out.tolist() == scalar_draws(ref, n, count).tolist()
            assert fast.integers(2**62) == ref.integers(2**62)


SHUFFLE_KEYS = [(0,), (0, 1, 0, 0), (7, 1, 3, 11), (123456789, 2, 5)]
SHUFFLE_SIZES = [*range(301), 499, 500, 1500, 5000]


class TestShuffle:
    @pytest.mark.parametrize("key", SHUFFLE_KEYS)
    def test_matches_scalar_fisher_yates(self, key):
        # Same permutation and same generator state afterwards as one
        # scalar draw per swap.
        for n in SHUFFLE_SIZES:
            fast, ref = Rng(*key), Rng(*key)
            perm = shuffle(fast, n)
            assert perm.dtype == np.int64
            assert perm.tolist() == scalar_shuffle(ref, n).tolist(), n
            assert fast.integers(2**62) == ref.integers(2**62), n

    def test_pinned_permutations(self):
        # Rng(0, 1, 0, 0) is client 0's round-0 key under seed 0.
        assert shuffle(Rng(0, 1, 0, 0), 10).tolist() == [7, 9, 0, 8, 2, 6, 3, 4, 5, 1]
        assert shuffle(Rng(0, 1, 0, 0), 500)[:4].tolist() == [105, 416, 106, 30]

    def test_is_permutation(self):
        perm = shuffle(Rng(3), 50)
        assert sorted(perm.tolist()) == list(range(50))

    def test_deterministic(self):
        assert shuffle(Rng(11), 20).tolist() == shuffle(Rng(11), 20).tolist()

    def test_edge_sizes(self):
        assert shuffle(Rng(0), 0).tolist() == []
        assert shuffle(Rng(0), 1).tolist() == [0]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            shuffle(Rng(0), -1)

    @pytest.mark.parametrize("k", [-1, 6])
    def test_prefix_length_outside_range_rejected(self, k):
        with pytest.raises(ValueError, match="k must be in"):
            shuffle(Rng(0), 5, k)

    @settings(max_examples=20)
    @given(st.integers(0, 10**6), st.integers(2, 30))
    def test_permutation_property(self, seed, n):
        perm = shuffle(Rng(seed), n)
        assert sorted(perm.tolist()) == list(range(n))

    def test_roughly_uniform_first_position(self):
        # Coarse sanity check, not a statistical proof: each value should
        # land in slot 0 sometimes.
        n = 5
        counts = np.zeros(n)
        for s in range(500):
            counts[shuffle(Rng(s), n)[0]] += 1
        assert counts.min() > 50


class TestShufflePrefix:
    """``shuffle(rng, n, k)`` is the first k entries of the full
    Fisher-Yates permutation and leaves the generator where the full
    shuffle does, for every k <= n."""

    @pytest.mark.parametrize("key", SHUFFLE_KEYS)
    @pytest.mark.parametrize(
        "sizes", [range(0, 151), range(151, 231), range(231, 301), (499, 500, 1500), (5000,)], ids=str
    )
    def test_every_prefix_matches_scalar_fisher_yates(self, key, sizes):
        for n in sizes:
            ref = Rng(*key)
            expected = scalar_shuffle(ref, n).tolist()
            after = ref.integers(2**62)
            for k in range(n + 1):
                rng = Rng(*key)
                perm = shuffle(rng, n, k)
                assert perm.dtype == np.int64 and perm.tolist() == expected[:k], (n, k)
                assert rng.integers(2**62) == after, (n, k)

    def test_full_length_is_the_default(self):
        assert shuffle(Rng(5), 40, 40).tolist() == shuffle(Rng(5), 40).tolist()


class TestWeightedSum:
    def test_single_vector_is_scaled_copy(self):
        v = np.array([1.0, -2.0, 3.0])
        out = weighted_sum([v], [1.0])
        assert np.array_equal(out, v)

    def test_known_combination(self):
        out = weighted_sum([np.array([1.0, 0.0]), np.array([0.0, 1.0])], [2.0, 3.0])
        assert out.tolist() == [2.0, 3.0]

    def test_left_to_right_accumulation_order(self):
        # The contract is literal fold order: ((w0*v0 + w1*v1) + w2*v2).
        vs = [np.array([0.1]), np.array([0.2]), np.array([0.3])]
        ws = [0.3, 0.3, 0.4]
        expected = (ws[0] * vs[0] + ws[1] * vs[1]) + ws[2] * vs[2]
        assert np.array_equal(weighted_sum(vs, ws), expected)

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            weighted_sum([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            weighted_sum([np.ones(2)], [1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            weighted_sum([np.ones(2), np.ones(3)], [0.5, 0.5])

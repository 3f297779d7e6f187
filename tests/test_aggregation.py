import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedalign import aggregation
from fedalign.aggregation import (
    AlignConfig,
    ClientUpdate,
    aggregate_aligned,
    aggregate_fedavg,
    align_pair,
    detect_conflict,
    domain_variance,
)
from fedalign.errors import (
    DimensionMismatch,
    EmptyUpdateSet,
    InvalidLambda,
    InvalidSpec,
)
from fedalign.numcore import Rng

from _oracles import reference_domain_variance, reference_pair_dots


def updates_from(grads, ids=None, samples=None):
    ids = ids or [f"c{i}" for i in range(len(grads))]
    samples = samples or [1] * len(grads)
    return [
        ClientUpdate(cid, np.asarray(g, dtype=np.float64), n, 0.0)
        for cid, g, n in zip(ids, grads, samples)
    ]


def reference_aligned(grads, lam, outer, inner, accumulate=True, target="original"):
    """Straight-line transcription of the pair loop, kept independent of the
    library: plain Python floats, no shared helpers."""
    originals = [list(map(float, g)) for g in grads]
    working = [list(g) for g in originals]

    def ip(a, b):
        return sum(x * y for x, y in zip(a, b))

    for i in outer:
        for j in inner[i]:
            tgt = originals[j] if target == "original" else working[j]
            probe = working[i] if accumulate else originals[i]
            if ip(probe, tgt) < 0.0:
                base = working[i] if accumulate else originals[i]
                working[i] = [(1.0 - 2.0 * lam) * b + 2.0 * lam * t for b, t in zip(base, tgt)]
    k = len(grads)
    agg = [0.0] * len(originals[0])
    for w in working:
        for d in range(len(agg)):
            agg[d] += w[d] / k
    return working, agg


class TestDetectConflict:
    def test_negative_inner_product(self):
        flag, value = detect_conflict(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        assert flag and value == -1.0

    def test_zero_is_not_conflict(self):
        flag, value = detect_conflict(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert not flag and value == 0.0

    def test_positive(self):
        flag, _ = detect_conflict(np.array([1.0, 1.0]), np.array([2.0, 0.5]))
        assert not flag


class TestAlignPair:
    def test_closed_form(self):
        g_i = np.array([1.0, -2.0, 3.0])
        g_j = np.array([0.5, 0.5, -0.5])
        lam = 0.1
        out = align_pair(g_i, g_j, lam)
        assert np.allclose(out, (1 - 2 * lam) * g_i + 2 * lam * g_j, rtol=0, atol=1e-15)

    def test_equivalent_descent_form(self):
        # Same update written as a step on the pairwise squared distance:
        # g_i - lam * d/dg_i ||g_i - g_j||^2 = g_i - 2*lam*(g_i - g_j).
        g_i = np.array([2.0, -1.0])
        g_j = np.array([-3.0, 4.0])
        for lam in (0.05, 0.1, 0.25, 0.5):
            a = align_pair(g_i, g_j, lam)
            b = g_i - 2.0 * lam * (g_i - g_j)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_lambda_half_lands_on_target(self):
        g_i = np.array([1.0, 2.0])
        g_j = np.array([-5.0, 7.0])
        assert np.allclose(align_pair(g_i, g_j, 0.5), g_j, atol=1e-15)

    def test_moves_strictly_toward_target(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g_i, g_j = rng.normal(size=4), rng.normal(size=4)
            out = align_pair(g_i, g_j, 0.2)
            assert np.linalg.norm(out - g_j) < np.linalg.norm(g_i - g_j)

    @pytest.mark.parametrize("lam", [0.0, -0.1, 0.5001, 1.0])
    def test_lambda_range(self, lam):
        with pytest.raises(InvalidLambda):
            align_pair(np.ones(2), np.ones(2), lam)

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=6),
        st.lists(st.floats(-10, 10), min_size=2, max_size=6),
        st.floats(0.01, 0.5),
    )
    @settings(max_examples=60)
    def test_conflict_reduction_property(self, a, b, lam):
        # Aligning i toward j can only shrink ||g_i - g_j||, so a conflicting
        # inner product never becomes more negative.
        n = min(len(a), len(b))
        g_i, g_j = np.array(a[:n]), np.array(b[:n])
        before = float(g_i @ g_j)
        if before >= 0:
            return
        after = float(align_pair(g_i, g_j, lam) @ g_j)
        assert after >= before - 1e-9


class TestDomainVariance:
    def test_two_opposed_vectors(self):
        assert domain_variance([np.array([1.0, 0.0]), np.array([-1.0, 0.0])]) == 4.0

    def test_three_vectors_known_value(self):
        g = [np.array([1.0, 0.0]), np.array([-1.0, 0.0]), np.array([0.0, 1.0])]
        # pairs: (0,1) -> 4, (0,2) -> 2, (1,2) -> 2
        assert domain_variance(g) == 8.0

    def test_identical_gradients_zero(self):
        g = np.array([0.3, -0.7, 1.1])
        assert domain_variance([g, g.copy(), g.copy()]) == 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        grads = [rng.normal(size=5) for _ in range(4)]
        base = domain_variance(grads)
        for perm in itertools.permutations(range(4)):
            assert abs(domain_variance([grads[p] for p in perm]) - base) < 1e-9

    def test_single_gradient_is_zero(self):
        assert domain_variance([np.ones(3)]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyUpdateSet):
            domain_variance([])

    def test_ragged_rejected(self):
        with pytest.raises(DimensionMismatch):
            domain_variance([np.ones(3), np.ones(3), np.ones(2)])


def bits(values):
    """Exact bit patterns of floats, so -0.0 and 0.0 count as different."""
    return [float(v).hex() for v in values]


def gradient_rows(k, p, seed, magnitudes=(0.0, 0.0)):
    """k rows of length p, each row scaled by 10**u with u uniform in
    ``magnitudes``."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(*magnitudes, size=(k, 1))
    return list(rng.standard_normal((k, p)) * scales)


class TestBatchedDiagnostics:
    """The batched pair diagnostics against the per-pair loops, exactly."""

    def assert_match(self, grads):
        expected = reference_domain_variance(grads)
        assert bits([domain_variance(grads)]) == bits([expected])
        assert bits([domain_variance(np.stack(grads))]) == bits([expected])

        ids = [f"c{i}" for i in range(len(grads))]
        rep = aggregate_fedavg(updates_from(grads, ids=ids))
        dots = reference_pair_dots(grads)
        assert [(a, b) for a, b, _ in rep.tested_pairs] == [(ids[i], ids[j]) for i, j, _ in dots]
        assert bits(v for _, _, v in rep.tested_pairs) == bits(v for _, _, v in dots)
        assert [(a, b) for a, b, v in rep.tested_pairs if v < 0.0] == [(a, b) for a, b, _ in rep.conflict_pairs]
        assert bits([rep.variance_before, rep.variance_after]) == bits([expected, expected])

        al = aggregate_aligned(updates_from(grads, ids=ids), AlignConfig(lam=0.3))
        assert bits([al.variance_before]) == bits([expected])
        assert bits([al.variance_after]) == bits([reference_domain_variance(list(al.aligned))])

    @pytest.mark.parametrize("p", [1, 42, 2002, 10000])
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 32, 33])
    def test_random_rows(self, k, p):
        self.assert_match(gradient_rows(k, p, seed=k * 100003 + p))

    @pytest.mark.parametrize("p", [1, 42, 2002])
    def test_magnitudes_1e_minus150_to_1e150(self, p):
        self.assert_match(gradient_rows(33, p, seed=p, magnitudes=(-150.0, 150.0)))

    @pytest.mark.parametrize("p", [1, 42, 10000])
    def test_identical_rows_exactly_zero(self, p):
        row = gradient_rows(1, p, seed=p)[0]
        grads = [row.copy() for _ in range(33)]
        assert bits([domain_variance(grads)]) == bits([0.0])
        self.assert_match(grads)

    @pytest.mark.parametrize("p", [1, 2002])
    def test_zero_rows(self, p):
        grads = [np.zeros(p) for _ in range(8)]
        grads[3] = -np.ones(p)
        self.assert_match(grads)

    @pytest.mark.parametrize("k,p", [(8, 10000), (33, 2002), (33, 10000)])
    def test_rows_spanning_several_buffer_chunks(self, k, p):
        assert aggregation._scratch(k, p).shape[0] < k - 1
        self.assert_match(gradient_rows(k, p, seed=7))

    @pytest.mark.parametrize("strategy", [aggregate_aligned, aggregate_fedavg])
    def test_aligned_is_one_contiguous_matrix(self, strategy):
        grads = gradient_rows(5, 42, seed=3)
        rep = strategy(updates_from(grads))
        assert isinstance(rep.aligned, np.ndarray)
        assert rep.aligned.shape == (5, 42)
        assert rep.aligned.dtype == np.float64
        assert rep.aligned.flags.c_contiguous


class TestAlignConfig:
    @pytest.mark.parametrize("lam", [-1.0, 0.0, 0.6])
    def test_lambda_validated(self, lam):
        with pytest.raises(InvalidLambda):
            AlignConfig(lam=lam)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(weighting="equal"), dict(target="other"), dict(order_mode="sorted")],
    )
    def test_enums_validated(self, kwargs):
        with pytest.raises(InvalidSpec):
            AlignConfig(**kwargs)


class TestClientUpdate:
    def test_nonfinite_gradient_rejected(self):
        with pytest.raises(InvalidSpec):
            ClientUpdate("c", np.array([1.0, np.nan]), 1, 0.0)

    def test_matrix_gradient_rejected(self):
        with pytest.raises(DimensionMismatch):
            ClientUpdate("c", np.ones((2, 2)), 1, 0.0)

    def test_zero_samples_rejected(self):
        with pytest.raises(InvalidSpec):
            ClientUpdate("c", np.ones(2), 0, 0.0)


class TestAggregateAligned:
    def test_matches_reference_loop_bit_for_bit(self):
        # Fixed order makes the pair loop reproducible outside the library.
        rng = np.random.default_rng(7)
        for trial in range(30):
            k = int(rng.integers(2, 5))
            dim = int(rng.integers(1, 4))
            grads = [rng.normal(size=dim) for _ in range(k)]
            cfg = AlignConfig(lam=0.1, order_mode="fixed")
            rep = aggregate_aligned(updates_from(grads), cfg)
            outer = rep.order_used["outer"]
            inner = {i: rep.order_used["inner"][str(i)] for i in outer}
            ref_working, _ = reference_aligned(grads, 0.1, outer, inner)
            for lib, ref in zip(rep.aligned, ref_working):
                assert np.array_equal(lib, np.array(ref))

    def test_matches_reference_under_recorded_random_order(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            grads = [rng.normal(size=3) for _ in range(4)]
            rep = aggregate_aligned(updates_from(grads), AlignConfig(lam=0.2, order_seed=trial))
            outer = rep.order_used["outer"]
            inner = {i: rep.order_used["inner"][str(i)] for i in outer}
            ref_working, _ = reference_aligned(grads, 0.2, outer, inner)
            for lib, ref in zip(rep.aligned, ref_working):
                assert np.max(np.abs(lib - np.array(ref))) < 1e-12

    def test_no_conflicts_is_plain_average(self):
        # All pairwise inner products positive: aggregation must be
        # transparent, bit for bit equal to the uniform mean.
        grads = [np.array([1.0, 0.5]), np.array([0.8, 0.6]), np.array([1.2, 0.1])]
        rep = aggregate_aligned(updates_from(grads), AlignConfig(lam=0.25))
        assert rep.num_conflicts == 0
        for orig, aligned in zip(grads, rep.aligned):
            assert np.array_equal(orig, aligned)
        fedavg = aggregate_fedavg(updates_from(grads), weighting="uniform")
        assert np.array_equal(rep.aggregated, fedavg.aggregated)

    def test_two_client_conflict_exact_value(self):
        g = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
        cfg = AlignConfig(lam=0.1, order_mode="fixed")
        rep = aggregate_aligned(updates_from(g), cfg)
        # i=0 vs j=1 conflicts: g0 -> 0.8*(1,0) + 0.2*(-1,0) = (0.6, 0).
        # i=1 vs original g0: g1 -> 0.8*(-1,0) + 0.2*(1,0) = (-0.6, 0).
        assert np.allclose(rep.aligned[0], [0.6, 0.0], atol=1e-15)
        assert np.allclose(rep.aligned[1], [-0.6, 0.0], atol=1e-15)
        assert rep.num_conflicts == 2
        assert rep.variance_before == 4.0
        assert abs(rep.variance_after - (1.2 ** 2)) < 1e-12

    def test_variance_never_increases_on_conflicts(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            grads = [rng.normal(size=4) for _ in range(int(rng.integers(2, 6)))]
            rep = aggregate_aligned(updates_from(grads), AlignConfig(lam=0.1, order_seed=trial))
            if rep.num_conflicts:
                assert rep.variance_after <= rep.variance_before + 1e-9
            else:
                assert rep.variance_after == rep.variance_before

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        grads = [rng.normal(size=6) for _ in range(4)]
        a = aggregate_aligned(updates_from(grads), AlignConfig(order_seed=5))
        b = aggregate_aligned(updates_from(grads), AlignConfig(order_seed=5))
        assert np.array_equal(a.aggregated, b.aggregated)
        assert a.order_used == b.order_used

    def test_order_seed_changes_order(self):
        rng = np.random.default_rng(10)
        grads = [rng.normal(size=3) for _ in range(5)]
        orders = {
            tuple(aggregate_aligned(updates_from(grads), AlignConfig(order_seed=s)).order_used["outer"])
            for s in range(8)
        }
        assert len(orders) > 1

    def test_external_rng_overrides_order_seed(self):
        grads = [np.ones(2) * s for s in (1.0, -1.0, 2.0)]
        rep_rng = aggregate_aligned(updates_from(grads), AlignConfig(order_seed=999), rng=Rng(4))
        rep_seed = aggregate_aligned(updates_from(grads), AlignConfig(order_seed=4))
        assert rep_rng.order_used == rep_seed.order_used

    def test_every_unordered_pair_tested_twice(self):
        grads = [np.array([float(i), 1.0]) for i in range(4)]
        rep = aggregate_aligned(updates_from(grads))
        assert len(rep.tested_pairs) == 4 * 3  # ordered pairs i != j
        seen = {(a, b) for a, b, _ in rep.tested_pairs}
        assert len(seen) == 12

    def test_uniform_weights_default(self):
        grads = [np.ones(2), 2 * np.ones(2), 3 * np.ones(2)]
        rep = aggregate_aligned(updates_from(grads, samples=[10, 20, 70]))
        assert rep.weights == (1 / 3, 1 / 3, 1 / 3)

    def test_sample_weighting_opt_in(self):
        grads = [np.ones(2), np.ones(2)]
        rep = aggregate_aligned(
            updates_from(grads, samples=[1, 3]), AlignConfig(weighting="sample_weighted")
        )
        assert rep.weights == (0.25, 0.75)

    def test_last_write_wins_when_not_accumulating(self):
        # g0 conflicts with both g1 and g2; with accumulate=False only the
        # final correction (toward the last j visited) survives.
        g = [np.array([1.0, 0.0]), np.array([-1.0, 0.5]), np.array([-1.0, -0.5])]
        cfg = AlignConfig(lam=0.1, order_mode="fixed", accumulate=False)
        rep = aggregate_aligned(updates_from(g), cfg)
        expected = align_pair(g[0], g[2], 0.1)  # j=2 visited last in fixed order
        assert np.array_equal(rep.aligned[0], expected)

    def test_current_target_uses_working_copy(self):
        g = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
        cfg = AlignConfig(lam=0.1, order_mode="fixed", target="current")
        rep = aggregate_aligned(updates_from(g), cfg)
        # i=0 aligns toward original g1 (working copy untouched so far),
        # then i=1 aligns toward the *updated* g0 = (0.6, 0).
        assert np.allclose(rep.aligned[0], [0.6, 0.0], atol=1e-15)
        expected_g1 = 0.8 * g[1] + 0.2 * np.array([0.6, 0.0])
        assert np.allclose(rep.aligned[1], expected_g1, atol=1e-15)

    def test_semantics_recorded(self):
        rep = aggregate_aligned(updates_from([np.ones(2), np.ones(2)]))
        assert rep.semantics == {
            "lambda": 0.1,
            "accumulate": True,
            "target": "original",
            "order_mode": "random",
            "weighting": "uniform",
        }

    def test_empty_updates_rejected(self):
        with pytest.raises(EmptyUpdateSet):
            aggregate_aligned([])

    def test_mismatched_lengths_rejected(self):
        ups = [
            ClientUpdate("a", np.ones(2), 1, 0.0),
            ClientUpdate("b", np.ones(3), 1, 0.0),
        ]
        with pytest.raises(DimensionMismatch):
            aggregate_aligned(ups)

    def test_single_client_passthrough(self):
        g = np.array([0.1, -0.2, 0.3])
        rep = aggregate_aligned(updates_from([g]))
        assert np.array_equal(rep.aggregated, g)
        assert rep.tested_pairs == ()


class TestAggregateFedavg:
    def test_sample_weighted_average(self):
        grads = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        rep = aggregate_fedavg(updates_from(grads, samples=[3, 1]))
        assert np.allclose(rep.aggregated, [0.75, 0.25], atol=1e-15)
        assert rep.weights == (0.75, 0.25)

    def test_records_conflicts_but_ignores_them(self):
        grads = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
        rep = aggregate_fedavg(updates_from(grads, samples=[1, 1]))
        assert rep.num_conflicts == 1
        assert np.array_equal(rep.aggregated, np.zeros(2))
        assert rep.variance_before == rep.variance_after == 4.0

    def test_uniform_mode(self):
        grads = [np.array([2.0]), np.array([4.0])]
        rep = aggregate_fedavg(updates_from(grads, samples=[9, 1]), weighting="uniform")
        assert rep.aggregated[0] == 3.0

    def test_aligned_equals_fedavg_without_conflicts(self):
        rng = np.random.default_rng(21)
        base = np.abs(rng.normal(size=4)) + 0.5
        grads = [base + 0.01 * rng.normal(size=4) for _ in range(3)]
        al = aggregate_aligned(updates_from(grads), AlignConfig(lam=0.3, order_seed=1))
        fa = aggregate_fedavg(updates_from(grads), weighting="uniform")
        assert al.num_conflicts == 0
        assert np.array_equal(al.aggregated, fa.aggregated)

import dataclasses
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
from fedalign.domains import DomainSuite, SyntheticSpec, generate
from fedalign.errors import (
    DimensionMismatch,
    EmptyUpdateSet,
    InvalidLambda,
    InvalidSpec,
    NonFiniteResult,
)
from fedalign.federation import FedConfig, run_experiment
from fedalign.models import ModelSpec
from fedalign.numcore import Rng, weighted_sum

from _oracles import (
    reference_aligned_pairs,
    reference_domain_variance,
    reference_pair_dots,
    scalar_shuffle,
    visiting_order,
)


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
        assert domain_variance(np.array([[1.0, 0.0], [-1.0, 0.0]])) == 4.0

    def test_three_vectors_known_value(self):
        g = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        # pairs: (0,1) -> 4, (0,2) -> 2, (1,2) -> 2
        assert domain_variance(g) == 8.0

    def test_identical_gradients_zero(self):
        g = np.array([0.3, -0.7, 1.1])
        assert domain_variance(np.stack([g, g, g])) == 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        grads = rng.normal(size=(4, 5))
        base = domain_variance(grads)
        for perm in itertools.permutations(range(4)):
            assert abs(domain_variance(grads[list(perm)]) - base) < 1e-9

    def test_single_gradient_is_zero(self):
        assert domain_variance(np.ones((1, 3))) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyUpdateSet):
            domain_variance(np.empty((0, 3)))

    @pytest.mark.parametrize(
        "grads", [np.ones(3), np.ones((2, 3, 1)), [np.ones(3), np.ones(3)]], ids=["1-D", "3-D", "list"]
    )
    def test_not_a_matrix_rejected(self, grads):
        with pytest.raises(DimensionMismatch):
            domain_variance(grads)


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
        assert bits([domain_variance(np.stack(grads))]) == bits([expected])

        rep = aggregate_fedavg(updates_from(grads))
        dots = reference_pair_dots(grads)
        assert rep.tested_pairs.tolist() == [[i, j] for i, j, _ in dots]
        assert rep.conflict_pairs.tolist() == [[i, j] for i, j, v in dots if v < 0.0]
        assert bits([rep.variance_before, rep.variance_after]) == bits([expected, expected])

        al = aggregate_aligned(updates_from(grads), AlignConfig(lam=0.3))
        assert bits([al.variance_before]) == bits([expected])
        assert bits([al.variance_after]) == bits([reference_domain_variance(list(al.aligned))])
        self.assert_aligned_replays(grads, al, AlignConfig(lam=0.3))

    @staticmethod
    def assert_aligned_replays(grads, rep, cfg):
        """The aligned pair loop's decisions, in its recorded order, against
        one ``numcore.dot`` per pair; and its final rows."""
        outer, inner = visiting_order(rep.tested_pairs)
        tested, working = reference_aligned_pairs(grads, cfg.lam, outer, inner, cfg.accumulate, cfg.target)
        assert rep.tested_pairs.tolist() == [[i, j] for i, j, _ in tested]
        assert rep.conflict_pairs.tolist() == [[i, j] for i, j, v in tested if v < 0.0]
        assert rep.aligned.tobytes() == working.tobytes()

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
        assert bits([domain_variance(np.stack(grads))]) == bits([0.0])
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

    @pytest.mark.parametrize("target", ["original", "current"])
    @pytest.mark.parametrize("accumulate", [True, False])
    @pytest.mark.parametrize("k,p", [(8, 2002), (33, 42)])
    def test_aligned_semantics_replay(self, k, p, accumulate, target):
        grads = gradient_rows(k, p, seed=k + p)
        cfg = AlignConfig(lam=0.2, accumulate=accumulate, target=target)
        self.assert_aligned_replays(grads, aggregate_aligned(updates_from(grads), cfg), cfg)

    @pytest.mark.parametrize("strategy", [aggregate_aligned, aggregate_fedavg])
    def test_aligned_is_one_contiguous_matrix(self, strategy):
        grads = gradient_rows(5, 42, seed=3)
        rep = strategy(updates_from(grads))
        assert isinstance(rep.aligned, np.ndarray)
        assert rep.aligned.shape == (5, 42)
        assert rep.aligned.dtype == np.float64
        assert rep.aligned.flags.c_contiguous


class TestPairLoopExactness:
    """The aligned pair loop's one-draw visiting orders and in-place
    conflict step against their one-call-each references."""

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 32])
    def test_orders_are_scalar_shuffles_in_turn(self, k):
        grads = gradient_rows(k, 3, seed=k)
        for seed, t in [(0, 0), (7, 5), (123, 39)]:
            rng, ref = Rng(seed, 2, t), Rng(seed, 2, t)
            rep = aggregate_aligned(updates_from(grads), AlignConfig(order_mode="random"), rng=rng)
            # The outer order, then one inner order per client in outer order.
            pairs = []
            for i in scalar_shuffle(ref, k).tolist():
                others = [j for j in range(k) if j != i]
                pairs += [[i, others[p]] for p in scalar_shuffle(ref, k - 1).tolist()]
            assert rep.tested_pairs.tolist() == pairs
            assert rng.integers(2**62) == ref.integers(2**62)

    @pytest.mark.parametrize("lam", [0.1, 0.25, 0.5])
    @pytest.mark.parametrize("target", ["original", "current"])
    @pytest.mark.parametrize("accumulate", [True, False])
    def test_in_place_conflicts_match_align_pair(self, accumulate, target, lam):
        # K=32, P=2002: the benchmark's many-clients shape.
        grads = gradient_rows(32, 2002, seed=int(lam * 100) + 2 * accumulate + (target == "current"))
        cfg = AlignConfig(lam=lam, accumulate=accumulate, target=target)
        rep = aggregate_aligned(updates_from(grads), cfg, rng=Rng(3, 2, 0))
        assert rep.num_conflicts > 0
        TestBatchedDiagnostics.assert_aligned_replays(grads, rep, cfg)
        # The last conflict of each row, redone by align_pair alone: with
        # accumulate off it is the whole final row.
        if not accumulate and target == "original":
            last = dict(rep.conflict_pairs.tolist())
            for a, b in last.items():
                expected = align_pair(grads[a], grads[b], lam)
                assert rep.aligned[a].tobytes() == expected.tobytes()


class TestAlignedOnRead:
    """``aligned`` is replayed from the originals and the recorded conflicts
    on every read, and equals the pair loop's working matrix byte for byte."""

    @pytest.fixture
    def loop_working(self, monkeypatch):
        """Copies of the loop's finished working matrix, as the weighted sum
        of the aligned rows reads it, one per aggregation."""
        seen = []
        original = aggregation.weighted_sum

        def capture(vectors, weights):
            seen.append(np.array(vectors))
            return original(vectors, weights)

        monkeypatch.setattr(aggregation, "weighted_sum", capture)
        return seen

    @staticmethod
    def assert_replays(grads, rep, working):
        assert rep.originals.tobytes() == np.array(grads, dtype=np.float64).tobytes()
        first, second = rep.aligned, rep.aligned
        assert first.tobytes() == working.tobytes()
        assert second.tobytes() == first.tobytes()
        assert bits(weighted_sum(list(first), rep.weights)) == bits(rep.aggregated)
        if rep.num_conflicts == 0:
            assert first is rep.originals
        else:
            assert first is not second and first is not rep.originals

    @pytest.mark.parametrize("p", [1, 42, 2002])
    @pytest.mark.parametrize("k", [1, 2, 3, 32])
    @pytest.mark.parametrize("order_mode", ["random", "fixed"])
    @pytest.mark.parametrize("target", ["original", "current"])
    @pytest.mark.parametrize("accumulate", [True, False])
    def test_equals_the_loops_working_matrix(self, loop_working, accumulate, target, order_mode, k, p):
        grads = gradient_rows(k, p, seed=k * 1009 + p)
        cfg = AlignConfig(lam=0.3, accumulate=accumulate, target=target, order_mode=order_mode)
        rep = aggregate_aligned(updates_from(grads), cfg, rng=Rng(k, 2, p))
        assert rep.num_conflicts > 0 or k < 3 or p == 1
        [working] = loop_working
        self.assert_replays(grads, rep, working)

    def test_criterion_3_grid_with_orthogonal_pairs(self, loop_working):
        # Criterion 3's grid: (1, -1) and (1, 1) are exactly orthogonal, so
        # their zero inner product is tested and is not a conflict.
        grid = [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 0.0), (2.0, -1.0)]
        zeros = 0
        for lam in (0.1, 0.3):
            for k in range(1, 5):
                for combo in itertools.combinations_with_replacement(grid, k):
                    grads = [np.array(g) for g in combo]
                    loop_working.clear()
                    rep = aggregate_aligned(updates_from(grads), AlignConfig(lam=lam, order_mode="fixed"))
                    tested, _ = reference_aligned_pairs(grads, lam, *visiting_order(rep.tested_pairs))
                    zero = np.array([v == 0.0 for _, _, v in tested], dtype=bool)
                    zeros += int(np.count_nonzero(zero))
                    conflicts = {tuple(pair) for pair in rep.conflict_pairs.tolist()}
                    assert not conflicts & {tuple(pair) for pair in rep.tested_pairs[zero].tolist()}
                    self.assert_replays(grads, rep, loop_working[0])
        assert zeros > 0


ROW_KINDS = ("gaussian", "near_cancelling", "mixed_1e150_1e-170", "all_1e-300", "overflowing_norm")


def adversarial_row(kind, rng, p, first):
    """One gradient row of length ``p``; ``first`` is the case's plain
    first row, which a near-cancelling row nearly cancels against."""
    g = rng.standard_normal(p)
    if kind == "near_cancelling":
        # |g . first| about 1e-15 * ||g|| * ||first||: inside the bound.
        g -= (g @ first) / (first @ first) * first
        return g + rng.choice([-1e-15, 1e-15]) * np.linalg.norm(g) / np.linalg.norm(first) * first
    if kind == "mixed_1e150_1e-170":
        g[::2] *= 1e150
        g[1::2] *= 1e-170
    elif kind == "all_1e-300":
        g = np.where(g < 0.0, -1e-300, 1e-300)  # the squared norm underflows
    elif kind == "overflowing_norm":
        g *= 1e160  # the squared norm overflows
    return g


def adversarial_rows(kinds, p, seed):
    """Row 0 plain, row r of kind ``kinds[r - 1]``."""
    rng = np.random.default_rng(seed)
    rows = [rng.standard_normal(p)]
    return rows + [adversarial_row(kind, rng, p, rows[0]) for kind in kinds]


class TestCertifiedDecisions:
    """The aligned loop decides each pair from a BLAS dot and a rigorous
    bound, falling back to the pairwise sum; every decision, and so every
    output bit, is the per-pair reference's."""

    @pytest.fixture
    def exact_calls(self, monkeypatch):
        """A one-item list counting ``_exact_dot`` calls."""
        count = [0]
        original = aggregation._exact_dot

        def counting(probe, target, buf):
            count[0] += 1
            return original(probe, target, buf)

        monkeypatch.setattr(aggregation, "_exact_dot", counting)
        return count

    @staticmethod
    def assert_decisions(grads, cfg, rng=None):
        rep = aggregate_aligned(updates_from(grads), cfg, rng=rng)
        outer, inner = visiting_order(rep.tested_pairs)
        tested, working = reference_aligned_pairs(grads, cfg.lam, outer, inner, cfg.accumulate, cfg.target)
        decided = rep.loop_conflicts
        assert decided.dtype == bool and decided.shape == (len(tested),)
        assert not decided.flags.writeable
        assert decided.tolist() == [v < 0.0 for _, _, v in tested]
        assert rep.conflict_pairs.tolist() == [[i, j] for i, j, v in tested if v < 0.0]
        assert rep.aligned.tobytes() == working.tobytes()
        assert bits(rep.aggregated) == bits(weighted_sum(list(working), rep.weights))
        return rep

    @staticmethod
    def assert_fedavg_decisions(grads):
        rep = aggregate_fedavg(updates_from(grads))
        dots = reference_pair_dots(grads)
        assert rep.conflict_mask.tolist() == [v < 0.0 for _, _, v in dots]
        assert not rep.conflict_mask.flags.writeable
        assert rep.conflict_pairs.tolist() == [[i, j] for i, j, v in dots if v < 0.0]
        assert rep.num_conflicts == sum(v < 0.0 for _, _, v in dots)

    @pytest.mark.parametrize("kind", ROW_KINDS)
    @pytest.mark.parametrize("p", [1, 2, 42, 2002])
    @pytest.mark.parametrize("k", [1, 2, 3, 32])
    @pytest.mark.parametrize("order_mode", ["random", "fixed"])
    @pytest.mark.parametrize("target", ["original", "current"])
    @pytest.mark.parametrize("accumulate", [True, False])
    def test_adversarial_rows(self, accumulate, target, order_mode, k, p, kind):
        # Every other row is of the kind, the rest plain.  Overflowing
        # rows overflow some inner products, as a run's error state allows.
        grads = adversarial_rows([kind if r % 2 == 0 else "gaussian" for r in range(k - 1)], p, seed=k * 31 + p)
        cfg = AlignConfig(lam=0.3, accumulate=accumulate, target=target, order_mode=order_mode)
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_decisions(grads, cfg, rng=Rng(k, 2, p))
            self.assert_fedavg_decisions(grads)

    @given(
        kinds=st.lists(st.sampled_from(ROW_KINDS), max_size=5),
        p=st.sampled_from([1, 2, 3, 42]),
        seed=st.integers(0, 2**32 - 1),
        lam=st.sampled_from([0.1, 0.3, 0.5]),
        accumulate=st.booleans(),
        target=st.sampled_from(["original", "current"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_mixed_rows_property(self, kinds, p, seed, lam, accumulate, target):
        grads = adversarial_rows(kinds, p, seed)
        cfg = AlignConfig(lam=lam, accumulate=accumulate, target=target)
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_decisions(grads, cfg, rng=Rng(seed))
            self.assert_fedavg_decisions(grads)

    @pytest.mark.parametrize("target", ["original", "current"])
    @pytest.mark.parametrize("accumulate", [True, False])
    def test_criterion_3_grid_falls_back_on_orthogonal_pairs(self, exact_calls, accumulate, target):
        # An exactly zero inner product lies inside every bound: only the
        # pairwise sum can say it is not a conflict.
        grid = [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 0.0), (2.0, -1.0)]
        for k in range(1, 5):
            for combo in itertools.combinations_with_replacement(grid, k):
                grads = [np.array(g) for g in combo]
                cfg = AlignConfig(lam=0.3, accumulate=accumulate, target=target, order_mode="fixed")
                self.assert_decisions(grads, cfg)
                self.assert_fedavg_decisions(grads)
        assert exact_calls[0] > 0

    @pytest.mark.parametrize("target", ["original", "current"])
    @pytest.mark.parametrize("accumulate", [True, False])
    @pytest.mark.parametrize("p", [42, 2002])
    def test_norms_follow_the_stepped_rows(self, accumulate, target, p):
        # Rows 1 and 2 are orthogonal up to rounding, and their BLAS dot and
        # pairwise sum differ in sign.  At lambda 0.5 row 0, 2**20 times
        # shorter than row 1 and opposed to it, steps onto row 1 exactly.
        # A bound that kept row 0's old norm would be 2**20 times too small
        # and decide (0, 2), or with target current (2, 0), from the BLAS
        # dot.  The pairwise sum's sign is chosen so that row 0 is row 1
        # when those pairs are tested.
        rng = np.random.default_rng(p)
        r1 = rng.standard_normal(p)
        want = 1.0 if accumulate else -1.0
        while True:
            g = rng.standard_normal(p)
            r2 = g - (g @ r1) / (r1 @ r1) * r1
            if np.sum(r1 * r2) * want > 0.0 > r1.dot(r2) * want:
                break
        cfg = AlignConfig(lam=0.5, accumulate=accumulate, target=target, order_mode="fixed")
        rep = self.assert_decisions([-(2.0**-20) * r1, r1, r2], cfg)
        assert rep.conflict_pairs[0].tolist() == [0, 1]

    @pytest.mark.parametrize("strategy", [aggregate_aligned, aggregate_fedavg])
    @pytest.mark.parametrize("p", [2, 42, 2002])
    def test_near_cancelling_rows_fall_back(self, exact_calls, strategy, p):
        grads = adversarial_rows(["near_cancelling"] * 5, p, seed=p)
        strategy(updates_from(grads)).num_conflicts
        assert exact_calls[0] > 0

    @pytest.mark.parametrize("target", ["original", "current"])
    @pytest.mark.parametrize("accumulate", [True, False])
    def test_seeded_many_clients_rows_never_fall_back(self, exact_calls, accumulate, target):
        # K=32, P=2002, the benchmark's many-clients shape.
        grads = gradient_rows(32, 2002, seed=2 * accumulate + (target == "current"))
        cfg = AlignConfig(lam=0.1, accumulate=accumulate, target=target)
        rep = aggregate_aligned(updates_from(grads), cfg, rng=Rng(5, 2, 0))
        assert 0 < rep.num_conflicts < len(rep.tested_pairs)
        assert 0 < aggregate_fedavg(updates_from(grads)).num_conflicts
        assert exact_calls[0] == 0

    def test_many_clients_run_never_falls_back(self, exact_calls):
        # A short run shaped like the benchmark's many-clients workload:
        # K=32 clients, P=2002.
        k = 33
        spec = SyntheticSpec(
            num_domains=k, samples_per_domain=50, rotation_degrees=tuple(90.0 * d / (k - 1) for d in range(k))
        )
        model = ModelSpec(input_dim=2, hidden_dim=400)
        for strategy in ("aligned", "fedavg"):
            cfg = FedConfig(strategy=strategy, rounds=2, batch_size=10)
            res = run_experiment(generate(spec), f"dom{k - 1}", model, cfg)
            assert res.records[0].aggregation.originals.shape == (32, 2002)
            assert sum(r.aggregation.num_conflicts for r in res.records) > 0
        assert exact_calls[0] == 0

    def test_overflowing_squared_norms_add_no_warning(self):
        # Finite inner products of a row whose squared norm overflows,
        # called outside a run's error state: pytest turns a RuntimeWarning
        # into an error.  Rows 1 and 2 conflict; their steps stay small.
        grads = [np.array([1e155, 1e-10]), np.array([1e-160, 1.0]), np.array([1e-160, -1.0])]
        for accumulate, target, order_mode in itertools.product(
            [True, False], ["original", "current"], ["random", "fixed"]
        ):
            cfg = AlignConfig(lam=0.1, accumulate=accumulate, target=target, order_mode=order_mode)
            rep = self.assert_decisions(grads, cfg)
            assert rep.conflict_pairs.tolist() in ([[1, 2], [2, 1]], [[2, 1], [1, 2]])
        rep = aggregate_fedavg(updates_from(grads))
        assert rep.conflict_pairs.tolist() == [[1, 2]]
        # Row 0 conflicts with row 2 and steps; the stepped rows' squared
        # norms overflow too.  Against the original rows every inner
        # product stays finite.
        grads[2] = np.array([-1e-170, -1.0])
        for accumulate, order_mode in itertools.product([True, False], ["random", "fixed"]):
            cfg = AlignConfig(lam=0.1, accumulate=accumulate, order_mode=order_mode)
            assert [0, 2] in self.assert_decisions(grads, cfg).conflict_pairs.tolist()
        self.assert_fedavg_decisions(grads)


class TestReportArrays:
    """A report's pair results: a read-only array of tested pairs, conflicts
    derived."""

    @pytest.mark.parametrize(
        "strategy, pairs",
        [(aggregate_aligned, lambda k: k * (k - 1)), (aggregate_fedavg, lambda k: k * (k - 1) // 2)],
        ids=["aligned", "fedavg"],
    )
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    def test_dtypes_shapes_and_read_only(self, strategy, pairs, k):
        rep = strategy(updates_from(gradient_rows(k, 5, seed=k)))
        m = pairs(k)
        assert rep.tested_pairs.dtype == np.int64 and rep.tested_pairs.shape == (m, 2)
        assert not rep.tested_pairs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rep.tested_pairs[...] = 0

    @pytest.mark.parametrize("strategy", [aggregate_aligned, aggregate_fedavg])
    def test_single_client_arrays_empty(self, strategy):
        rep = strategy(updates_from([np.array([0.1, -0.2])]))
        assert rep.tested_pairs.shape == (0, 2) and rep.tested_pairs.dtype == np.int64
        assert rep.conflict_pairs.shape == (0, 2) and rep.num_conflicts == 0

    @pytest.mark.parametrize("strategy", [aggregate_aligned, aggregate_fedavg])
    @pytest.mark.parametrize("k", [3, 5, 32])
    def test_conflicts_are_the_negative_rows(self, strategy, k):
        grads = gradient_rows(k, 7, seed=k)
        rep = strategy(updates_from(grads))
        if strategy is aggregate_fedavg:
            tested = reference_pair_dots(grads)
        else:
            tested, _ = reference_aligned_pairs(grads, AlignConfig().lam, *visiting_order(rep.tested_pairs))
        assert rep.tested_pairs.tolist() == [[i, j] for i, j, _ in tested]
        negative = [[i, j] for i, j, v in tested if v < 0.0]
        assert 0 < len(negative) < len(rep.tested_pairs), "the case must mix conflicts and agreements"
        assert rep.conflict_pairs.tolist() == negative
        assert rep.conflict_pairs.dtype == np.int64
        assert rep.num_conflicts == len(negative) and type(rep.num_conflicts) is int

    def test_zero_inner_product_is_not_a_conflict(self):
        grads = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-1.0, 0.0])]
        rep = aggregate_fedavg(updates_from(grads))
        assert bits(v for _, _, v in reference_pair_dots(grads)) == bits([0.0, -1.0, 0.0])
        assert rep.conflict_pairs.tolist() == [[0, 2]] and rep.num_conflicts == 1


class TestLazyDiagnostics:
    """The diagnostics a report can derive from ``aligned`` are computed when
    first read, once, and equal the per-pair references bit for bit."""

    ROUNDS = 3

    @pytest.fixture
    def calls(self, monkeypatch):
        """Copies of every ``domain_variance`` argument, in call order."""
        seen = []
        original = aggregation.domain_variance

        def counting(grads):
            seen.append(np.array(grads))
            return original(grads)

        monkeypatch.setattr(aggregation, "domain_variance", counting)
        return seen

    def run(self, strategy):
        suite = generate(SyntheticSpec(num_domains=5, rotation_degrees=(0, 20, 40, 60, 80), samples_per_domain=40))
        cfg = FedConfig(strategy=strategy, rounds=self.ROUNDS, batch_size=2)
        return run_experiment(suite, "dom4", ModelSpec(input_dim=2, hidden_dim=4), cfg)

    def test_aligned_computes_nothing_until_read_then_one_variance_per_distinct_matrix(self, calls):
        res = self.run("aligned")
        assert calls == []
        conflict = [r.aggregation.num_conflicts > 0 for r in res.records]
        assert any(conflict) and not all(conflict), "the run must mix conflict and no-conflict rounds"
        res.summary()
        res.csv_rows()
        # Each variance once, then cached: a conflict round's originals and
        # its replayed aligned matrix; a no-conflict round's aligned matrix
        # is its originals, so before and after share one call.
        assert len(calls) == sum(2 if c else 1 for c in conflict)
        seen = {x.tobytes() for x in calls}
        for r, hit in zip(res.records, conflict):
            rep = r.aggregation
            x = rep.originals
            assert x.tobytes() in seen and rep.aligned.tobytes() in seen
            assert (rep.aligned is x) is not hit
            # The report's originals are this round's original gradients.
            norms = np.sqrt(np.add.reduce(x * x, axis=1))
            assert bits(norms) == bits(c["grad_norm"] for c in r.per_client)
            assert bits([rep.variance_before]) == bits([reference_domain_variance(list(x))])
            assert bits([rep.variance_after]) == bits([reference_domain_variance(list(rep.aligned))])
            sem = rep.semantics
            outer, inner = visiting_order(rep.tested_pairs)
            tested, working = reference_aligned_pairs(
                list(x), sem["lambda"], outer, inner, sem["accumulate"], sem["target"]
            )
            assert rep.conflict_pairs.tolist() == [[i, j] for i, j, v in tested if v < 0.0]
            assert rep.aligned.tobytes() == working.tobytes()

    def test_fedavg_computes_nothing_until_read(self, calls):
        res = self.run("fedavg")
        assert calls == []
        res.summary()
        res.csv_rows()
        assert len(calls) == self.ROUNDS  # before and after share one call
        for r in res.records:
            rep = r.aggregation
            expected = reference_domain_variance(list(rep.aligned))
            assert bits([rep.variance_before, rep.variance_after]) == bits([expected, expected])
            dots = reference_pair_dots(list(rep.aligned))
            assert rep.tested_pairs.tolist() == [[i, j] for i, j, _ in dots]
            assert rep.conflict_pairs.tolist() == [[i, j] for i, j, v in dots if v < 0.0]

    @pytest.mark.parametrize("strategy", ["aligned", "fedavg"])
    def test_a_read_record_holds_one_k_by_p_matrix(self, strategy):
        # The aligned matrix is replayed on each read, never cached: a
        # record holds the originals and nothing else of their size.
        res = self.run(strategy)
        res.summary()
        res.csv_rows()
        for r in res.records:
            rep = r.aggregation
            shape = rep.originals.shape
            held = [
                name for name, value in vars(rep).items()
                if isinstance(value, np.ndarray) and value.shape == shape and value.dtype == np.float64
            ]
            assert held == ["originals"]

    @pytest.mark.parametrize("strategy", ["aligned", "fedavg"])
    def test_overflowing_diagnostics_read_without_warning(self, strategy):
        # Features of 1e160 give finite gradients whose squares overflow.
        # The diagnostics are read after the run, outside its numpy error
        # state; pytest turns a RuntimeWarning into an error.
        suite = generate(SyntheticSpec(num_domains=4, samples_per_domain=20))
        big = DomainSuite(tuple(dataclasses.replace(d, features=d.features * 1e160) for d in suite.domains), 2)
        cfg = FedConfig(strategy=strategy, rounds=2, batch_size=4, lr=1e-300, lr_decay=None)
        res = run_experiment(big, "dom3", ModelSpec(input_dim=2, hidden_dim=0), cfg)
        res.summary()
        assert all(r.aggregation.variance_after == np.inf for r in res.records)

    @pytest.mark.parametrize("strategy", [aggregate_aligned, aggregate_fedavg])
    def test_replaced_aggregate_reads_the_same_diagnostics(self, strategy):
        # The encrypted path swaps in the decrypted aggregate this way.
        grads = gradient_rows(6, 9, seed=11)
        rep = strategy(updates_from(grads))
        new = dataclasses.replace(rep, aggregated=np.zeros(9))
        assert rep.num_conflicts > 0
        for name in ("variance_before", "variance_after"):
            assert bits([getattr(new, name)]) == bits([getattr(rep, name)])
        assert np.array_equal(new.tested_pairs, rep.tested_pairs)
        assert np.array_equal(new.conflict_pairs, rep.conflict_pairs)


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
    """A message is checked where both aggregators stack the round's
    gradients, not when it is built."""

    @staticmethod
    def assert_rejected(update, error, message):
        for aggregate in (aggregate_fedavg, aggregate_aligned):
            with pytest.raises(error, match=f"^{message}$"):
                aggregate([update])

    def test_nonfinite_gradient_rejected(self):
        update = ClientUpdate("c", np.array([1.0, np.nan]), 1, 0.0)
        self.assert_rejected(update, InvalidSpec, "client 'c' sent a non-finite gradient")

    def test_matrix_gradient_rejected(self):
        update = ClientUpdate("c", np.ones((2, 2)), 1, 0.0)
        self.assert_rejected(update, DimensionMismatch, "gradient must be a flat vector")

    def test_zero_samples_rejected(self):
        update = ClientUpdate("c", np.ones(2), 0, 0.0)
        self.assert_rejected(update, InvalidSpec, "num_samples must be >= 1")


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
            outer, inner = visiting_order(rep.tested_pairs)
            ref_working, _ = reference_aligned(grads, 0.1, outer, inner)
            for lib, ref in zip(rep.aligned, ref_working):
                assert np.array_equal(lib, np.array(ref))

    def test_matches_reference_under_recorded_random_order(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            grads = [rng.normal(size=3) for _ in range(4)]
            rep = aggregate_aligned(updates_from(grads), AlignConfig(lam=0.2), rng=Rng(trial))
            outer, inner = visiting_order(rep.tested_pairs)
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
            rep = aggregate_aligned(updates_from(grads), AlignConfig(lam=0.1), rng=Rng(trial))
            if rep.num_conflicts:
                assert rep.variance_after <= rep.variance_before + 1e-9
            else:
                assert rep.variance_after == rep.variance_before

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        grads = [rng.normal(size=6) for _ in range(4)]
        a = aggregate_aligned(updates_from(grads), rng=Rng(5))
        b = aggregate_aligned(updates_from(grads), rng=Rng(5))
        assert np.array_equal(a.aggregated, b.aggregated)
        assert np.array_equal(a.tested_pairs, b.tested_pairs)

    def test_rng_seed_changes_order(self):
        rng = np.random.default_rng(10)
        grads = [rng.normal(size=3) for _ in range(5)]
        orders = {
            tuple(visiting_order(aggregate_aligned(updates_from(grads), rng=Rng(s)).tested_pairs)[0])
            for s in range(8)
        }
        assert len(orders) > 1

    def test_omitted_rng_draws_the_rng_0_order(self):
        grads = [np.ones(2) * s for s in (1.0, -1.0, 2.0)]
        rep_default = aggregate_aligned(updates_from(grads))
        rep_zero = aggregate_aligned(updates_from(grads), rng=Rng(0))
        assert np.array_equal(rep_default.tested_pairs, rep_zero.tested_pairs)

    def test_every_unordered_pair_tested_twice(self):
        grads = [np.array([float(i), 1.0]) for i in range(4)]
        rep = aggregate_aligned(updates_from(grads))
        assert len(rep.tested_pairs) == 4 * 3  # ordered pairs i != j
        seen = {(a, b) for a, b in rep.tested_pairs.tolist()}
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
        for aggregate in (aggregate_fedavg, aggregate_aligned):
            with pytest.raises(DimensionMismatch, match="^client 'b' gradient length 3 != 2$"):
                aggregate(ups)

    @staticmethod
    def past_the_entry_check(monkeypatch, *cells):
        """Write each ``(row, column, value)`` of ``cells`` into the updates'
        gradients and their stack once ``_gradient_matrix`` has checked
        them, as though the updates had held it all along."""
        stack = aggregation._gradient_matrix

        def poisoned(updates):
            grads = stack(updates)
            for k, c, value in cells:
                grads[k, c] = updates[k].gradient[c] = value
            return grads

        monkeypatch.setattr(aggregation, "_gradient_matrix", poisoned)

    def test_non_finite_working_matrix_raises(self, monkeypatch):
        # Set past the entry's own check: the pair loop's one finite
        # check, over the finished working matrix, names it.
        updates = updates_from([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
        self.past_the_entry_check(monkeypatch, (0, 0, np.inf))
        with pytest.raises(NonFiniteResult, match="^client c0: aligned gradients contains NaN or Inf$"):
            aggregate_aligned(updates, AlignConfig(order_mode="fixed"))

    def test_non_finite_working_matrix_names_the_lowest_row(self, monkeypatch):
        # No pair conflicts, so no step carries a row's NaN or Inf to another.
        updates = updates_from([np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])])
        self.past_the_entry_check(monkeypatch, (2, 0, np.nan), (1, 1, np.nan))
        with pytest.raises(NonFiniteResult, match="^client c1: aligned gradients contains NaN or Inf$"):
            aggregate_aligned(updates, AlignConfig(order_mode="fixed"))

    def test_single_client_passthrough(self):
        g = np.array([0.1, -0.2, 0.3])
        rep = aggregate_aligned(updates_from([g]))
        assert np.array_equal(rep.aggregated, g)
        assert rep.tested_pairs.shape == (0, 2)


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
        al = aggregate_aligned(updates_from(grads), AlignConfig(lam=0.3), rng=Rng(1))
        fa = aggregate_fedavg(updates_from(grads), weighting="uniform")
        assert al.num_conflicts == 0
        assert np.array_equal(al.aggregated, fa.aggregated)

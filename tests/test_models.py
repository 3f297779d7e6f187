import math
import tracemalloc

import numpy as np
import pytest

from fedalign.domains import DomainDataset
from fedalign.errors import DimensionMismatch, EmptyBatch, EmptyDataset, InvalidSpec
from fedalign.models import (
    ModelSpec,
    ParamVector,
    evaluate,
    forward,
    init_params,
    loss_and_grad,
    sgd_step,
)
from fedalign.numcore import Rng

from _oracles import (
    fd_gradient,
    max_rel_error,
    random_case,
    reference_evaluate,
    reference_forward,
    reference_loss_and_grad,
)

LOGREG = ModelSpec(input_dim=2, hidden_dim=0, num_classes=2)
MLP = ModelSpec(input_dim=2, hidden_dim=4, num_classes=2)


class TestModelSpec:
    def test_param_count_logreg(self):
        assert LOGREG.param_count == 2 * 2 + 2

    def test_param_count_mlp(self):
        spec = ModelSpec(input_dim=3, hidden_dim=5, num_classes=4)
        assert spec.param_count == (3 * 5 + 5) + (5 * 4 + 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(input_dim=0),
            dict(input_dim=2, hidden_dim=-1),
            dict(input_dim=2, num_classes=1),
            dict(input_dim=2, activation="sigmoid"),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(InvalidSpec):
            ModelSpec(**kwargs)


class TestParamVector:
    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            ParamVector(LOGREG, np.zeros(5))

    def test_layers_flatten_round_trip(self):
        rng = Rng(4)
        params = init_params(MLP, rng)
        rebuilt = np.concatenate([a.ravel() for layer in params.layers() for a in layer])
        assert np.array_equal(rebuilt, params.values)

    def test_layer_shapes(self):
        params = init_params(MLP, Rng(0))
        (w1, b1), (w2, b2) = params.layers()
        assert w1.shape == (2, 4) and b1.shape == (4,)
        assert w2.shape == (4, 2) and b2.shape == (2,)


class TestInit:
    def test_deterministic(self):
        a = init_params(MLP, Rng(123))
        b = init_params(MLP, Rng(123))
        assert np.array_equal(a.values, b.values)

    def test_glorot_bounds_and_zero_biases(self):
        spec = ModelSpec(input_dim=10, hidden_dim=7, num_classes=3)
        params = init_params(spec, Rng(1))
        for (fi, fo), (w, b) in zip(spec.layer_shapes, params.layers()):
            bound = math.sqrt(6.0 / (fi + fo))
            assert np.all(np.abs(w) <= bound)
            assert np.all(b == 0.0)


class TestForward:
    def test_logreg_is_affine(self):
        w = np.array([[1.0, -1.0], [0.5, 2.0]])
        b = np.array([0.1, -0.2])
        params = ParamVector(LOGREG, np.concatenate([w.ravel(), b]))
        x = np.array([[2.0, 3.0]])
        assert np.allclose(forward(params, x), x @ w + b)

    def test_zero_rows_pass_through(self):
        params = init_params(MLP, Rng(0))
        out = forward(params, np.zeros((0, 2)))
        assert out.shape == (0, 2)

    def test_input_dim_mismatch(self):
        params = init_params(LOGREG, Rng(0))
        with pytest.raises(DimensionMismatch):
            forward(params, np.zeros((3, 5)))


class TestLossValue:
    def test_zero_params_give_log_c(self):
        for classes in (2, 3, 5):
            spec = ModelSpec(input_dim=2, hidden_dim=0, num_classes=classes)
            params = ParamVector(spec, np.zeros(spec.param_count))
            x = np.random.default_rng(0).normal(size=(6, 2))
            y = np.arange(6) % classes
            value, _ = loss_and_grad(params, x, y)
            assert abs(value - math.log(classes)) < 1e-12

    def test_huge_logits_stay_finite(self):
        w = np.array([[1e4, -1e4], [1e4, -1e4]])
        b = np.zeros(2)
        params = ParamVector(LOGREG, np.concatenate([w.ravel(), b]))
        x = np.array([[1.0, 1.0], [-1.0, -1.0]])
        value, grad = loss_and_grad(params, x, np.array([0, 1]))
        assert math.isfinite(value)
        assert np.all(np.isfinite(grad))

    def test_all_ones_weights_equal_plain(self):
        # The loss as the removed class-weighted form computed it at weights
        # of one: the plain pass keeps its bits.
        params = init_params(MLP, Rng(5))
        x = np.random.default_rng(1).normal(size=(5, 2))
        y = np.array([0, 1, 0, 1, 1])
        plain = loss_and_grad(params, x, y)
        weighted = reference_loss_and_grad(params, x, y, unit_weights=True)
        assert plain[0] == weighted[0]
        assert np.array_equal(plain[1], weighted[1])


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            params, x, y = random_case(rng)
            _, grad = loss_and_grad(params, x, y)
            fd = fd_gradient(params, x, y)
            assert max_rel_error(grad, fd) < 1e-5

    def test_tanh_hidden_layer(self):
        rng = np.random.default_rng(7)
        spec = ModelSpec(input_dim=3, hidden_dim=6, num_classes=3, activation="tanh")
        params = init_params(spec, Rng(70))
        x = rng.normal(size=(5, 3))
        y = np.array([0, 1, 2, 1, 0])
        _, grad = loss_and_grad(params, x, y)
        assert max_rel_error(grad, fd_gradient(params, x, y)) < 1e-5

    def test_single_sample(self):
        params = init_params(LOGREG, Rng(8))
        x = np.array([[0.5, -1.5]])
        y = np.array([1])
        _, grad = loss_and_grad(params, x, y)
        assert max_rel_error(grad, fd_gradient(params, x, y)) < 1e-5

    def test_gradient_shape_is_param_count(self):
        params = init_params(MLP, Rng(3))
        x = np.zeros((2, 2))
        _, grad = loss_and_grad(params, x, np.array([0, 1]))
        assert grad.shape == (MLP.param_count,)


class TestLossErrors:
    def test_empty_batch(self):
        params = init_params(LOGREG, Rng(0))
        with pytest.raises(EmptyBatch):
            loss_and_grad(params, np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_label_out_of_range(self):
        params = init_params(LOGREG, Rng(0))
        with pytest.raises(InvalidSpec):
            loss_and_grad(params, np.zeros((1, 2)), np.array([2]))

    def test_labels_shape_mismatch(self):
        params = init_params(LOGREG, Rng(0))
        with pytest.raises(DimensionMismatch):
            loss_and_grad(params, np.zeros((2, 2)), np.array([0]))


class TestSgdStep:
    def test_exact_arithmetic(self):
        params = init_params(LOGREG, Rng(2))
        grad = np.ones(LOGREG.param_count)
        stepped = sgd_step(params, grad, 0.1)
        assert np.array_equal(stepped.values, params.values - 0.1 * grad)

    def test_nonpositive_lr_rejected(self):
        params = init_params(LOGREG, Rng(2))
        with pytest.raises(InvalidSpec):
            sgd_step(params, np.zeros(LOGREG.param_count), 0.0)

    def test_gradient_length_checked(self):
        params = init_params(LOGREG, Rng(2))
        with pytest.raises(DimensionMismatch):
            sgd_step(params, np.zeros(3), 0.1)


class TestEvaluate:
    def test_tie_breaks_to_lowest_class(self):
        # Zero parameters produce identical logits, so every prediction is
        # class 0 by the first-maximum rule.
        params = ParamVector(LOGREG, np.zeros(LOGREG.param_count))
        ds = DomainDataset(
            domain_id="d",
            features=np.random.default_rng(0).normal(size=(10, 2)),
            labels=np.array([0] * 3 + [1] * 7),
        )
        m = evaluate(params, ds)
        assert m.accuracy == 0.3
        assert abs(m.loss - math.log(2)) < 1e-12

    def test_perfect_separation(self):
        w = np.array([[10.0, -10.0], [0.0, 0.0]])
        params = ParamVector(LOGREG, np.concatenate([w.ravel(), np.zeros(2)]))
        ds = DomainDataset(
            domain_id="d",
            features=np.array([[1.0, 0.0], [-1.0, 0.0]]),
            labels=np.array([0, 1]),
        )
        assert evaluate(params, ds).accuracy == 1.0

    def test_empty_dataset_rejected(self):
        params = init_params(LOGREG, Rng(0))
        ds = DomainDataset(domain_id="d", features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
        with pytest.raises(EmptyDataset):
            evaluate(params, ds)

    @pytest.mark.parametrize("label", [2, 7])
    def test_label_outside_classes_rejected(self, label):
        # The label entry is read per row, so a label past the last class
        # raises instead of reading the next row's logits.
        params = init_params(LOGREG, Rng(0))
        ds = DomainDataset(domain_id="d", features=np.ones((3, 2)), labels=np.array([label, 0, 1]))
        with pytest.raises(IndexError):
            evaluate(params, ds)


def _model_case(hidden: int, activation: str, rows: int, classes: int = 3):
    """Perturbed parameters and a batch whose first row is zero, so that
    relu preactivations sit exactly on the kink where biases are zeroed."""
    spec = ModelSpec(input_dim=4, hidden_dim=hidden, num_classes=classes, activation=activation)
    rng = np.random.default_rng([hidden, rows, len(activation)])
    values = init_params(spec, Rng(hidden + rows)).values + 0.3 * rng.standard_normal(spec.param_count)
    params = ParamVector(spec, values)
    if hidden:
        (_, b1), _ = params.layers()
        b1[::2] = 0.0  # a view into params.values
    x = 2.0 * rng.standard_normal((rows, spec.input_dim))
    if rows > 1:
        x[0] = 0.0
    y = rng.integers(0, classes, size=rows)
    return params, x, y


# The reference loss taken plainly, or as the removed class-weighted loss
# took it at weights of one (see ``_oracles``).
LOSSES = [pytest.param(False, id="plain"), pytest.param(True, id="weighted")]


def metric_bits(m):
    """Exact bit patterns of a Metrics pair, so -0.0 and 0.0 differ."""
    return (float(m.accuracy).hex(), float(m.loss).hex())


class TestInPlaceMatchesReference:
    """The in-place forward and backward passes agree byte for byte with the
    one-temporary-per-expression reference in ``_oracles``."""

    @pytest.mark.parametrize("unit_weights", LOSSES)
    @pytest.mark.parametrize("rows", [1, 2, 10, 500])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("hidden", [0, 8, 128, 400])
    def test_bit_identical(self, hidden, activation, rows, unit_weights):
        params, x, y = _model_case(hidden, activation, rows)
        expected_logits = reference_forward(params, x)
        logits = forward(params, x)
        assert logits.tobytes() == expected_logits.tobytes()

        ds = DomainDataset(domain_id="d", features=x, labels=y)
        assert metric_bits(evaluate(params, ds)) == metric_bits(reference_evaluate(params, ds, unit_weights))

        value, grad = loss_and_grad(params, x, y)
        ref_value, ref_grad = reference_loss_and_grad(params, x, y, unit_weights)
        assert value == ref_value
        assert grad.tobytes() == ref_grad.tobytes()


class TestStackedMatchesReference:
    """A stack of K batches goes through one forward/backward pass; every
    row agrees byte for byte with the one-batch reference on its batch, at
    shared and at per-batch parameters, across the byte cap's chunking."""

    @pytest.mark.parametrize("k", [1, 2, 3, 32])
    @pytest.mark.parametrize("unit_weights", LOSSES)
    @pytest.mark.parametrize("rows", [1, 2, 10, 500])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("hidden", [0, 8, 128, 400])
    def test_rows_bit_identical(self, hidden, activation, rows, unit_weights, k):
        params, _, _ = _model_case(hidden, activation, rows)
        rng = np.random.default_rng([hidden, rows, k])
        stack = params.values + 0.1 * rng.standard_normal((k, params.spec.param_count))
        x = 2.0 * rng.standard_normal((k, rows, params.spec.input_dim))
        y = rng.integers(0, params.spec.num_classes, size=(k, rows))
        for values in (params.values, stack):
            losses, grads = loss_and_grad(ParamVector(params.spec, values), x, y)
            assert losses.shape == (k,) and grads.shape == (k, params.spec.param_count)
            for i in range(k):
                own = ParamVector(params.spec, values if values.ndim == 1 else values[i])
                ref_value, ref_grad = reference_loss_and_grad(own, x[i], y[i], unit_weights)
                assert float(losses[i]).hex() == ref_value.hex(), i
                assert grads[i].tobytes() == ref_grad.tobytes(), i

    def test_stack_errors(self):
        params, x, y = _model_case(8, "relu", 10)
        stack = ParamVector(params.spec, np.tile(params.values, (3, 1)))
        with pytest.raises(DimensionMismatch, match="3 parameter vectors"):
            loss_and_grad(stack, np.stack([x, x]), np.stack([y, y]))
        with pytest.raises(DimensionMismatch, match="3 parameter vectors"):
            loss_and_grad(stack, x, y)
        with pytest.raises(DimensionMismatch, match="labels shape"):
            loss_and_grad(params, np.stack([x, x]), y)
        with pytest.raises(EmptyBatch):
            loss_and_grad(params, np.zeros((0, 10, 4)), np.zeros((0, 10), dtype=int))
        bad = np.stack([y, y])
        bad[1, 3] = 3
        with pytest.raises(InvalidSpec, match="labels outside"):
            loss_and_grad(params, np.stack([x, x]), bad)

    def test_stacked_params_unflatten_per_row(self):
        params = init_params(MLP, Rng(2))
        stack = ParamVector(MLP, np.stack([params.values, 2.0 * params.values]))
        for (w, b), (w0, b0) in zip(stack.layers(), params.layers()):
            assert np.array_equal(w[0], w0) and np.array_equal(b[0], b0)
            assert np.array_equal(w[1], 2.0 * w0) and np.array_equal(b[1], 2.0 * b0)


class TestEvaluateMatchesReference:
    """``evaluate`` reads the label entries of the log-softmax without
    forming it; accuracy and loss agree bit for bit with the full matrix.
    Eight or more classes are where a running column sum would part from
    numpy's pairwise row sum."""

    @pytest.mark.parametrize("unit_weights", LOSSES)
    @pytest.mark.parametrize("rows", [1, 2, 10, 500])
    @pytest.mark.parametrize("classes", [2, 3, 7, 8, 9])
    @pytest.mark.parametrize("hidden", [0, 8, 128, 400])
    def test_bit_identical(self, hidden, classes, rows, unit_weights):
        params, x, y = _model_case(hidden, "relu", rows, classes=classes)
        ds = DomainDataset(domain_id="d", features=x, labels=y)
        assert metric_bits(evaluate(params, ds)) == metric_bits(reference_evaluate(params, ds, unit_weights))

    @pytest.mark.parametrize("classes", [2, 8, 9, 20])
    def test_single_rows(self, classes):
        # One row's loss is its own log-sum-exp, so a last-bit difference in
        # a row sum is not averaged away.
        spec = ModelSpec(input_dim=4, hidden_dim=0, num_classes=classes)
        rng = np.random.default_rng(classes)
        for _ in range(100):
            params = ParamVector(spec, 2.0 * rng.standard_normal(spec.param_count))
            ds = DomainDataset("d", rng.standard_normal((1, 4)), rng.integers(0, classes, size=1))
            assert metric_bits(evaluate(params, ds)) == metric_bits(reference_evaluate(params, ds))

    @pytest.mark.parametrize("classes", [2, 3, 7, 8, 9])
    @pytest.mark.parametrize("hidden", [0, 8])
    def test_exact_ties(self, hidden, classes):
        spec = ModelSpec(input_dim=4, hidden_dim=hidden, num_classes=classes)
        params = ParamVector(spec, np.zeros(spec.param_count))
        _, x, y = _model_case(hidden, "relu", 10, classes=classes)
        ds = DomainDataset(domain_id="d", features=x, labels=y)
        m = evaluate(params, ds)
        assert metric_bits(m) == metric_bits(reference_evaluate(params, ds))
        assert m.accuracy == np.mean(y == 0)

    @pytest.mark.parametrize("unit_weights", LOSSES)
    @pytest.mark.parametrize("classes", [2, 8, 9])
    @pytest.mark.parametrize("hidden", [0, 8, 128])
    @pytest.mark.parametrize("scale", [1e150, 1e160])
    def test_huge_params(self, scale, hidden, classes, unit_weights):
        # At 1e150 the losses reach 1e300; at 1e160 hidden logits overflow
        # to inf and shift to NaN.  The run's errstate, as run_experiment
        # sets it, silences the warnings for both forms.
        params, x, y = _model_case(hidden, "relu", 500, classes=classes)
        params = ParamVector(params.spec, params.values * scale)
        ds = DomainDataset(domain_id="d", features=x, labels=y)
        with np.errstate(over="ignore", invalid="ignore"):
            got, expected = evaluate(params, ds), reference_evaluate(params, ds, unit_weights)
        assert metric_bits(got) == metric_bits(expected)


def _peak_bytes(fn) -> int:
    """Peak bytes traced while ``fn`` runs, above what was live before it
    (numpy reports its data buffers to tracemalloc)."""
    fn()  # warm up lazily built numpy state outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestModelMemory:
    """Peak memory in units of one (rows x hidden) float64 buffer: each such
    intermediate is written once and updated in place."""

    ROWS, HIDDEN = 500, 128
    BUFFER = ROWS * HIDDEN * 8

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_forward_peak(self, activation):
        params, x, _ = _model_case(self.HIDDEN, activation, self.ROWS, classes=2)
        assert _peak_bytes(lambda: forward(params, x)) < 1.5 * self.BUFFER

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_loss_and_grad_peak(self, activation):
        params, x, y = _model_case(self.HIDDEN, activation, self.ROWS, classes=2)
        assert _peak_bytes(lambda: loss_and_grad(params, x, y)) < 3 * self.BUFFER

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_stacked_peak_is_one_batch_at_a_time(self, activation):
        # Eight batches, each of whose intermediates exceeds the byte cap,
        # are worked through one at a time: beyond the K×P output, the peak
        # stays that of one batch.
        params, x, y = _model_case(self.HIDDEN, activation, self.ROWS, classes=2)
        k = 8
        x, y = np.stack([x] * k), np.stack([y] * k)
        output = k * params.spec.param_count * 8
        assert _peak_bytes(lambda: loss_and_grad(params, x, y)) < 3 * self.BUFFER + output

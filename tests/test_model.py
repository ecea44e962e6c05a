import math

import numpy as np
import pytest

from fedsim.data import Example, TriggerSpec, gen_blobs
from fedsim.errors import DimensionMismatchError, EmptySetError, NoEligibleExamplesError
from fedsim.model import (
    ModelSpec,
    TrainSpec,
    accuracy,
    evaluate_acc,
    evaluate_asr,
    forward,
    init_params,
    local_train,
    loss_and_grad,
)

from helpers import finite_diff_grad, rel_grad_error, sgd_oracle, stacked

SOFTMAX = ModelSpec(4, 3)
MLP = ModelSpec(4, 3, hidden_dim=8)


def _random_batch(rng, spec, n):
    return [
        Example(rng.normal(size=spec.input_dim), int(rng.integers(spec.num_classes)))
        for _ in range(n)
    ]


class TestInitParams:
    def test_softmax_count(self):
        assert init_params(SOFTMAX, 0).size == 4 * 3 + 3 == 15

    def test_mlp_count(self):
        assert init_params(MLP, 0).size == 4 * 8 + 8 + 8 * 3 + 3 == 67

    def test_count_formula_fuzzed(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = int(rng.integers(1, 30))
            c = int(rng.integers(2, 12))
            h = int(rng.integers(0, 20))
            spec = ModelSpec(d, c, h)
            expected = d * c + c if h == 0 else d * h + h + h * c + c
            assert init_params(spec, 1).size == spec.param_count() == expected

    def test_determinism(self):
        assert np.array_equal(init_params(MLP, 42), init_params(MLP, 42))

    def test_bias_zero_weight_bound(self):
        p = init_params(SOFTMAX, 3)
        w = p[:12]
        b = p[12:]
        assert np.all(b == 0.0)
        assert np.all(np.abs(w) <= 1 / math.sqrt(4))


class TestForward:
    def test_zero_params_uniform(self):
        p = np.zeros(SOFTMAX.param_count())
        out = forward(p, SOFTMAX, [1.0, -2.0, 0.5, 3.0])
        assert np.allclose(out, 1 / 3)

    def test_extreme_logits_stable(self):
        spec = ModelSpec(1, 2)
        params = np.array([1000.0, 0.0, 0.0, 0.0])  # W=[[1000],[0]], b=0
        out = forward(params, spec, [1.0])
        assert np.all(np.isfinite(out))
        assert np.isclose(out[0], 1.0) and out[1] < 1e-300

    def test_simplex_and_argmax(self):
        rng = np.random.default_rng(5)
        for spec in (SOFTMAX, MLP):
            for _ in range(25):
                p = rng.normal(size=spec.param_count())
                x = rng.normal(size=spec.input_dim) * 10
                probs = forward(p, spec, x)
                assert np.all(probs > 0)
                assert np.isclose(probs.sum(), 1.0, atol=1e-9)
                from fedsim.model import _logits

                logits = _logits(p, spec, x.reshape(1, -1))[0]
                assert np.argmax(probs) == np.argmax(logits)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            forward(np.zeros(15), SOFTMAX, [1.0, 2.0])


class TestLossAndGrad:
    def test_zero_params_log_c(self):
        rng = np.random.default_rng(0)
        batch = _random_batch(rng, SOFTMAX, 8)
        loss, _ = loss_and_grad(np.zeros(SOFTMAX.param_count()), SOFTMAX, batch)
        assert np.isclose(loss, math.log(3), atol=1e-12)

    @pytest.mark.parametrize("spec", [SOFTMAX, MLP], ids=["softmax", "mlp"])
    def test_gradient_matches_finite_differences(self, spec):
        rng = np.random.default_rng(11)
        for _ in range(50):
            params = rng.normal(scale=0.7, size=spec.param_count())
            batch = _random_batch(rng, spec, int(rng.integers(1, 6)))
            _, grad = loss_and_grad(params, spec, batch)
            fd = finite_diff_grad(lambda p: loss_and_grad(p, spec, batch)[0], params)
            assert rel_grad_error(grad, fd) <= 1e-4

    def test_duplicated_batch_invariance(self):
        rng = np.random.default_rng(4)
        batch = _random_batch(rng, SOFTMAX, 5)
        params = rng.normal(size=SOFTMAX.param_count())
        l1, g1 = loss_and_grad(params, SOFTMAX, batch)
        l2, g2 = loss_and_grad(params, SOFTMAX, batch + batch)
        assert np.isclose(l1, l2, rtol=1e-12, atol=1e-14)
        assert np.allclose(g1, g2, rtol=1e-10, atol=1e-13)

    def test_empty_batch(self):
        with pytest.raises(EmptySetError):
            loss_and_grad(np.zeros(15), SOFTMAX, [])


class TestLocalTrain:
    def _tspec(self, **kw):
        base = dict(local_epochs=2, batch_size=4, learning_rate=0.1, seed=3)
        base.update(kw)
        return TrainSpec(**base)

    def test_zero_lr_identity(self):
        rng = np.random.default_rng(6)
        data = _random_batch(rng, SOFTMAX, 10)
        start = rng.normal(size=SOFTMAX.param_count())
        out = local_train(start, SOFTMAX, data, self._tspec(learning_rate=0.0))
        assert np.array_equal(out, start)

    def test_descent_small_lr(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            data = _random_batch(rng, SOFTMAX, 20)
            start = rng.normal(scale=0.5, size=SOFTMAX.param_count())
            tspec = self._tspec(local_epochs=1, batch_size=100, learning_rate=0.01, seed=seed)
            out = local_train(start, SOFTMAX, data, tspec)
            before, _ = loss_and_grad(start, SOFTMAX, data)
            after, _ = loss_and_grad(out, SOFTMAX, data)
            assert after <= before + 1e-12, seed

    def test_determinism(self):
        rng = np.random.default_rng(8)
        data = _random_batch(rng, MLP, 16)
        start = init_params(MLP, 0)
        a = local_train(start, MLP, data, self._tspec())
        b = local_train(start, MLP, data, self._tspec())
        assert np.array_equal(a, b)

    def test_empty_dataset(self):
        with pytest.raises(EmptySetError):
            local_train(np.zeros(15), SOFTMAX, [], self._tspec())


class TestEvaluate:
    def test_zero_params_acc_is_class0_frequency(self):
        labels = [0, 0, 1, 2, 0, 1]
        test = [Example(np.ones(4), l) for l in labels]
        acc = evaluate_acc(np.zeros(SOFTMAX.param_count()), SOFTMAX, test)
        assert np.isclose(acc, labels.count(0) / len(labels))

    def test_single_correct(self):
        spec = ModelSpec(2, 2)
        params = np.array([5.0, 0.0, -5.0, 0.0, 0.0, 0.0])  # strong class-0 weight
        test = [Example(np.array([1.0, 0.0]), 0)]
        assert evaluate_acc(params, spec, test) == 1.0

    def test_converged_blobs_accuracy(self):
        ds = gen_blobs(4, 8, 60, 8.0, 2)
        spec = ModelSpec(8, 4)
        tspec = TrainSpec(local_epochs=30, batch_size=240, learning_rate=0.05, seed=0)
        params = local_train(init_params(spec, 0), spec, ds, tspec)
        assert evaluate_acc(params, spec, ds) >= 0.95

    def test_asr_degenerate_predictor(self):
        test = [Example(np.ones(4), l) for l in (1, 2, 1)]
        trig = TriggerSpec((0,), (3.0,), 0)
        asr = evaluate_asr(np.zeros(SOFTMAX.param_count()), SOFTMAX, test, trig)
        assert asr == 1.0  # uniform probs tie-break to class 0 = target

    def test_asr_excludes_target_examples(self):
        spec = ModelSpec(2, 2)
        # model that always predicts class 1; trigger targets class 1
        params = np.array([0.0, 0.0, 5.0, 5.0, 0.0, 1.0])
        test = [Example(np.array([1.0, 1.0]), 1) for _ in range(5)]
        test.append(Example(np.array([1.0, 1.0]), 0))
        trig = TriggerSpec((0,), (1.0,), 1)
        # only the single label-0 example counts; it is classified 1 = target
        assert evaluate_asr(params, spec, test, trig) == 1.0
        with pytest.raises(NoEligibleExamplesError):
            evaluate_asr(params, spec, test[:5], trig)

    def test_clean_model_low_asr_control(self):
        ds = gen_blobs(10, 16, 80, 8.0, 3)
        spec = ModelSpec(16, 10)
        tspec = TrainSpec(local_epochs=20, batch_size=800, learning_rate=0.05, seed=1)
        params = local_train(init_params(spec, 1), spec, ds, tspec)
        assert evaluate_acc(params, spec, ds) >= 0.95
        trig = TriggerSpec((13, 14, 15), (1.5, -1.5, 1.5), 0)
        # mild trigger on a clean model stays near chance level
        assert evaluate_asr(params, spec, ds, trig) <= 0.1 + 0.15

    def test_empty_test_set(self):
        with pytest.raises(EmptySetError):
            evaluate_acc(np.zeros(15), SOFTMAX, [])

    def test_list_evaluators_equal_the_array_core(self):
        ds = gen_blobs(4, 8, 30, 4.0, 6)
        spec = ModelSpec(8, 4, hidden_dim=5)
        params = init_params(spec, 2)
        x = np.stack([e.features for e in ds])
        y = np.array([e.label for e in ds])
        preds = np.array([np.argmax(forward(params, spec, row)) for row in x])
        assert evaluate_acc(params, spec, ds) == accuracy(params, spec, x, y) == np.mean(preds == y)
        t = TriggerSpec((0,), (6.0,), 1)
        eligible = y != 1
        x[:, 0] = 6.0
        assert evaluate_asr(params, spec, ds, t) == accuracy(params, spec, x[eligible], 1)


class TestArrayInput:
    """Every routine gives the same bits on a list of Examples and on its arrays."""

    @pytest.mark.parametrize("spec", [SOFTMAX, MLP])
    @pytest.mark.parametrize("batch_size", [5, 100])
    def test_local_train(self, spec, batch_size):
        rng = np.random.default_rng(11)
        data = _random_batch(rng, spec, 23)
        arrays = stacked(data)
        x0, y0 = arrays.x.copy(), arrays.y.copy()
        start = init_params(spec, 4)
        tspec = TrainSpec(local_epochs=3, batch_size=batch_size, learning_rate=0.1, seed=9)
        got = local_train(start, spec, arrays, tspec)
        assert got.tobytes() == local_train(start, spec, data, tspec).tobytes()
        assert got.tobytes() == sgd_oracle(start, spec, data, tspec).tobytes()
        assert np.array_equal(arrays.x, x0) and np.array_equal(arrays.y, y0)

    def test_loss_and_evaluators(self):
        rng = np.random.default_rng(12)
        data = _random_batch(rng, MLP, 30)
        arrays = stacked(data)
        params = init_params(MLP, 2)
        loss_l, grad_l = loss_and_grad(params, MLP, data)
        loss_a, grad_a = loss_and_grad(params, MLP, arrays)
        assert loss_l == loss_a and grad_l.tobytes() == grad_a.tobytes()
        assert evaluate_acc(params, MLP, arrays) == evaluate_acc(params, MLP, data)
        t = TriggerSpec((1,), (3.0,), 2)
        assert evaluate_asr(params, MLP, arrays, t) == evaluate_asr(params, MLP, data, t)

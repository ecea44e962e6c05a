import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.data import Example, Samples, TriggerSpec, blob_arrays
from fedsim.errors import DimensionMismatchError, EmptySetError, NoEligibleExamplesError
from fedsim.errors import NonFiniteLogitsError
from fedsim.model import (
    ModelSpec,
    TrainSpec,
    _forward,
    accuracy,
    evaluate_acc,
    evaluate_asr,
    init_params,
    local_train,
    loss_and_grad,
    philox,
    sgd,
)

from helpers import fresh_philox, finite_diff_grad, rel_grad_error, sgd_oracle, stacked

SOFTMAX = ModelSpec(4, 3)
MLP = ModelSpec(4, 3, hidden_dim=8)
NARROW = ModelSpec(4, 3, hidden_dim=1)


def _documented_blocks(params, spec):
    """(W, b) of each layer, cut from ``params`` as the module docstring lays them out."""
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    if h == 0:
        return [(params[: c * d].reshape(c, d), params[c * d :])]
    w2_at = h * d + h
    return [
        (params[: h * d].reshape(h, d), params[h * d : w2_at]),
        (params[w2_at : w2_at + c * h].reshape(c, h), params[w2_at + c * h :]),
    ]


def _documented_logits(params, spec, x):
    """``W @ x + b``, or ``W2 @ relu(W1 @ x + b1) + b2``, for each row of ``x``."""
    blocks = _documented_blocks(params, spec)
    z = x @ blocks[0][0].T + blocks[0][1]
    if len(blocks) == 2:
        z = np.maximum(z, 0.0) @ blocks[1][0].T + blocks[1][1]
    return z


def _random_batch(rng, spec, n):
    return stacked([
        Example(rng.normal(size=spec.input_dim), int(rng.integers(spec.num_classes)))
        for _ in range(n)
    ])


def _empty(spec):
    return Samples(np.empty((0, spec.input_dim)), np.empty(0))


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

    @pytest.mark.parametrize("spec", [MLP, NARROW, ModelSpec(9, 5, 30)],
                             ids=["mlp", "hidden1", "wide"])
    def test_mlp_blocks_hold_zero_biases_and_bounded_weights(self, spec):
        blocks = _documented_blocks(init_params(spec, 5), spec)
        for (w, b), fan_in in zip(blocks, [spec.input_dim, spec.hidden_dim], strict=True):
            assert np.all(b == 0.0)
            assert np.all(w != 0.0) and np.all(np.abs(w) <= 1 / math.sqrt(fan_in))


class TestFlatteningOrder:
    """The documented flat layout is the one the model reads."""

    @pytest.mark.parametrize("spec", [SOFTMAX, MLP, NARROW, ModelSpec(3, 4, 5)],
                             ids=["softmax", "mlp", "hidden1", "more_classes"])
    def test_forward_reads_the_documented_slices(self, spec):
        # integer params and inputs keep every logit exact, whatever the summation order
        params = np.arange(spec.param_count(), dtype=float)
        stack = np.stack([params, params[::-1]])
        x = np.random.default_rng(0).integers(-3, 4, size=(7, spec.input_dim)).astype(float)
        logits = _forward(stack, spec, x)[0]
        assert logits.shape == (2, 7, spec.num_classes)
        for row, p in zip(logits, stack, strict=True):
            assert np.array_equal(row, _documented_logits(p, spec, x))


class TestLossAndGrad:
    def test_zero_params_log_c(self):
        rng = np.random.default_rng(0)
        batch = _random_batch(rng, SOFTMAX, 8)
        loss, _ = loss_and_grad(np.zeros(SOFTMAX.param_count()), SOFTMAX, batch)
        assert np.isclose(loss, math.log(3), atol=1e-12)

    @pytest.mark.parametrize("spec", [SOFTMAX, MLP, NARROW], ids=["softmax", "mlp", "hidden1"])
    def test_gradient_matches_finite_differences(self, spec):
        rng = np.random.default_rng(11)
        for _ in range(50):
            params = rng.normal(scale=0.7, size=spec.param_count())
            batch = _random_batch(rng, spec, int(rng.integers(1, 6)))
            _, grad = loss_and_grad(params, spec, batch)
            fd = finite_diff_grad(lambda p: loss_and_grad(p, spec, batch)[0], params)
            assert rel_grad_error(grad, fd) <= 1e-4

    @pytest.mark.parametrize("hidden_dim", [0, 1, 8])
    def test_loss_keeps_its_bits(self, hidden_dim):
        spec = ModelSpec(5, 4, hidden_dim)
        rng = np.random.default_rng(hidden_dim)
        for n in [1, 1, 2, 3, 7, 32, 1, 5]:
            params = rng.normal(scale=1.5, size=spec.param_count())
            batch = _random_batch(rng, spec, n)
            z = _documented_logits(params, spec, batch.x)
            zs = z - np.max(z, axis=1, keepdims=True)
            lse = np.log(np.sum(np.exp(zs), axis=1))
            expected = np.mean(lse - zs[np.arange(n), batch.y])
            assert loss_and_grad(params, spec, batch)[0] == expected

    def test_duplicated_batch_invariance(self):
        rng = np.random.default_rng(4)
        batch = _random_batch(rng, SOFTMAX, 5)
        params = rng.normal(size=SOFTMAX.param_count())
        l1, g1 = loss_and_grad(params, SOFTMAX, batch)
        l2, g2 = loss_and_grad(params, SOFTMAX, stacked([*batch, *batch]))
        assert np.isclose(l1, l2, rtol=1e-12, atol=1e-14)
        assert np.allclose(g1, g2, rtol=1e-10, atol=1e-13)

    def test_empty_batch(self):
        with pytest.raises(EmptySetError):
            loss_and_grad(np.zeros(15), SOFTMAX, _empty(SOFTMAX))

    def test_label_past_the_last_class_raises_naming_it(self):
        batch = Samples(np.zeros((2, 4)), [0, 3])
        with pytest.raises(DimensionMismatchError, match="^label 3 is not a class of a 3-class"):
            loss_and_grad(np.zeros(15), SOFTMAX, batch)


class TestLocalTrain:
    def _tspec(self, **kw):
        base = dict(local_epochs=2, batch_size=4, learning_rate=0.1)
        base.update(kw)
        return TrainSpec(**base)

    def test_zero_lr_identity(self):
        rng = np.random.default_rng(6)
        data = _random_batch(rng, SOFTMAX, 10)
        start = rng.normal(size=SOFTMAX.param_count())
        out = local_train(start, SOFTMAX, data, self._tspec(learning_rate=0.0), 3)
        assert np.array_equal(out, start)

    def test_descent_small_lr(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            data = _random_batch(rng, SOFTMAX, 20)
            start = rng.normal(scale=0.5, size=SOFTMAX.param_count())
            tspec = self._tspec(local_epochs=1, batch_size=100, learning_rate=0.01)
            out = local_train(start, SOFTMAX, data, tspec, seed)
            before, _ = loss_and_grad(start, SOFTMAX, data)
            after, _ = loss_and_grad(out, SOFTMAX, data)
            assert after <= before + 1e-12, seed

    def test_determinism(self):
        rng = np.random.default_rng(8)
        data = _random_batch(rng, MLP, 16)
        start = init_params(MLP, 0)
        a = local_train(start, MLP, data, self._tspec(), 3)
        b = local_train(start, MLP, data, self._tspec(), 3)
        assert np.array_equal(a, b)

    def test_empty_dataset(self):
        with pytest.raises(EmptySetError):
            local_train(np.zeros(15), SOFTMAX, _empty(SOFTMAX), self._tspec(), 3)

    @pytest.mark.parametrize("spec", [SOFTMAX, MLP], ids=["softmax", "mlp"])
    @pytest.mark.parametrize("label", [3, 7, -1])
    def test_label_outside_the_classes_raises_naming_it(self, spec, label):
        # sgd takes raw label arrays, so it rejects a negative label too
        x, y = np.zeros((5, 4)), np.array([0, 1, label, 2, 0])
        start = init_params(spec, 0)
        with pytest.raises(DimensionMismatchError, match=f"^label {label} is not a class of a 3-"):
            sgd(start, spec, x, y, self._tspec(), 3)
        if label >= 0:
            with pytest.raises(DimensionMismatchError, match=f"^label {label} is not a class"):
                local_train(np.stack([start, start]), spec, Samples(x, y), self._tspec(), 3)


class TestEvaluate:
    def test_zero_params_acc_is_class0_frequency(self):
        labels = [0, 0, 1, 2, 0, 1]
        test = stacked([Example(np.ones(4), l) for l in labels])
        acc = evaluate_acc(np.zeros(SOFTMAX.param_count()), SOFTMAX, test)
        assert np.isclose(acc, labels.count(0) / len(labels))

    def test_single_correct(self):
        spec = ModelSpec(2, 2)
        params = np.array([5.0, 0.0, -5.0, 0.0, 0.0, 0.0])  # strong class-0 weight
        test = stacked([Example(np.array([1.0, 0.0]), 0)])
        assert evaluate_acc(params, spec, test) == 1.0

    def test_converged_blobs_accuracy(self):
        ds = blob_arrays(4, 8, 60, 8.0, 2)
        spec = ModelSpec(8, 4)
        tspec = TrainSpec(local_epochs=30, batch_size=240, learning_rate=0.05)
        params = local_train(init_params(spec, 0), spec, ds, tspec, 0)
        assert evaluate_acc(params, spec, ds) >= 0.95

    def test_asr_degenerate_predictor(self):
        test = stacked([Example(np.ones(4), l) for l in (1, 2, 1)])
        trig = TriggerSpec((0,), (3.0,), 0)
        asr = evaluate_asr(np.zeros(SOFTMAX.param_count()), SOFTMAX, test, trig)
        assert asr == 1.0  # uniform probs tie-break to class 0 = target

    def test_asr_excludes_target_examples(self):
        spec = ModelSpec(2, 2)
        # model that always predicts class 1; trigger targets class 1
        params = np.array([0.0, 0.0, 5.0, 5.0, 0.0, 1.0])
        test = stacked([Example(np.array([1.0, 1.0]), l) for l in (1, 1, 1, 1, 1, 0)])
        trig = TriggerSpec((0,), (1.0,), 1)
        # only the single label-0 example counts; it is classified 1 = target
        assert evaluate_asr(params, spec, test, trig) == 1.0
        with pytest.raises(NoEligibleExamplesError):
            evaluate_asr(params, spec, test.take(slice(5)), trig)

    def test_clean_model_low_asr_control(self):
        ds = blob_arrays(10, 16, 80, 8.0, 3)
        spec = ModelSpec(16, 10)
        tspec = TrainSpec(local_epochs=20, batch_size=800, learning_rate=0.05)
        params = local_train(init_params(spec, 1), spec, ds, tspec, 1)
        assert evaluate_acc(params, spec, ds) >= 0.95
        trig = TriggerSpec((13, 14, 15), (1.5, -1.5, 1.5), 0)
        # mild trigger on a clean model stays near chance level
        assert evaluate_asr(params, spec, ds, trig) <= 0.1 + 0.15

    def test_empty_test_set(self):
        with pytest.raises(EmptySetError):
            evaluate_acc(np.zeros(15), SOFTMAX, _empty(SOFTMAX))

    def test_evaluators_equal_the_array_core(self):
        ds = blob_arrays(4, 8, 30, 4.0, 6)
        spec = ModelSpec(8, 4, hidden_dim=5)
        params = init_params(spec, 2)
        x = np.stack([e.features for e in ds])
        y = np.array([e.label for e in ds])
        preds = np.array([np.argmax(_forward(params[None], spec, row[None])[0]) for row in x])
        assert evaluate_acc(params, spec, ds) == accuracy(params, spec, x, y) == np.mean(preds == y)
        t = TriggerSpec((0,), (6.0,), 1)
        eligible = y != 1
        x[:, 0] = 6.0
        assert evaluate_asr(params, spec, ds, t) == accuracy(params, spec, x[eligible], 1)

    @pytest.mark.parametrize("value", [1e308, math.nan])
    def test_logits_that_are_not_finite_raise(self, value):
        # finite weights of 1e308 overflow the logits of rows with an entry past 1.8
        ds = blob_arrays(4, 8, 30, 4.0, 6)
        spec = ModelSpec(8, 4)
        params = np.full(spec.param_count(), value)
        with pytest.raises(NonFiniteLogitsError, match="^the model's logits on the evaluation "
                                                       r"rows are not finite \(NaN or Inf\)"):
            evaluate_acc(params, spec, ds)


class TestArrayInput:
    """local_train follows the documented schedule and leaves its arrays untouched."""

    @pytest.mark.parametrize("spec", [SOFTMAX, MLP])
    @pytest.mark.parametrize("batch_size", [5, 100])
    def test_local_train(self, spec, batch_size):
        rng = np.random.default_rng(11)
        arrays = _random_batch(rng, spec, 23)
        x0, y0 = arrays.x.copy(), arrays.y.copy()
        start = init_params(spec, 4)
        tspec = TrainSpec(local_epochs=3, batch_size=batch_size, learning_rate=0.1)
        got = local_train(start, spec, arrays, tspec, 9)
        assert got.tobytes() == sgd_oracle(start, spec, arrays, tspec, 9).tobytes()
        assert np.array_equal(arrays.x, x0) and np.array_equal(arrays.y, y0)


# seeds at the edges of the key word: 0, the top bit, the largest word and one
# that wraps modulo 2**64
EDGE_SEEDS = (0, 2**63, 2**64 - 1, 2**64 + 5)
seeds = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**70))
counters = st.integers(0, 20)


class TestPhilox:
    """``philox`` draws what a fresh Philox generator keyed the same way draws."""

    @given(seeds, counters, st.integers(1, 500))
    @settings(max_examples=200, deadline=None)
    def test_draws_equal_a_fresh_generator(self, seed, counter, n):
        assert np.array_equal(philox(seed, counter).permutation(n),
                              fresh_philox(seed, counter).permutation(n))
        got, want = philox(seed, counter), fresh_philox(seed, counter)
        assert np.array_equal(got.integers(0, 2**40, size=7), want.integers(0, 2**40, size=7))
        assert got.random(5).tobytes() == want.random(5).tobytes()

    def test_every_permutation_length(self):
        for n in range(1, 501):
            seed, counter = EDGE_SEEDS[n % 4], n % 21
            assert np.array_equal(philox(seed, counter).permutation(n),
                                  fresh_philox(seed, counter).permutation(n)), n

    @given(seeds, counters, seeds, counters)
    @settings(max_examples=100, deadline=None)
    def test_rekeying_starts_each_stream_fresh(self, s1, c1, s2, c2):
        # an odd count of 32-bit draws leaves half a word buffered in the
        # generator; the next stream must not start from it
        def draws(gen):
            return gen.integers(0, 2**32, size=3, dtype=np.uint32).tobytes() + gen.random(4).tobytes()

        first = draws(philox(s1, c1))
        second = draws(philox(s2, c2))
        again = draws(philox(s1, c1))
        assert first == again == draws(fresh_philox(s1, c1))
        assert second == draws(fresh_philox(s2, c2))

    def test_threads_training_at_once_match_serial_runs(self):
        rng = np.random.default_rng(12)
        data = _random_batch(rng, MLP, 40)
        start = init_params(MLP, 1)
        tspec = TrainSpec(local_epochs=40, batch_size=8, learning_rate=0.05)
        train_seeds = (5, 2**64 - 3)
        serial = [local_train(start, MLP, data, tspec, s).tobytes() for s in train_seeds]
        results = [[], []]

        def train(i):
            for _ in range(5):
                results[i].append(local_train(start, MLP, data, tspec, train_seeds[i]).tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=train, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[serial[0]] * 5, [serial[1]] * 5]

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from fedsim.attacks import (
    AttackConfig,
    constrain_and_scale_train,
    cosine_loss_and_grad,
    edge_case_pgd_train,
    malicious_local_train,
    model_replacement,
    pgd_project,
    _edge_source_label,
)
from fedsim.data import (
    Example,
    Samples,
    TriggerSpec,
    apply_trigger,
    blob_arrays,
    edge_case_pool,
    poison_dataset,
)
from fedsim.defenses import ClientUpdate, fedavg
from fedsim.errors import ConfigError, DimensionMismatchError, EmptySetError
from fedsim.model import ModelSpec, TrainSpec, evaluate_asr, init_params, local_train

from helpers import finite_diff_grad, rel_grad_error, sgd_oracle, stacked

SPEC = ModelSpec(8, 4)
TRIGGER = TriggerSpec((5, 6), (4.0, -4.0), 0)


def _local_data(seed=0, n=60, classes=4, dim=8):
    rng = np.random.default_rng(seed)
    ds = blob_arrays(classes, dim, n // classes, 6.0, seed)
    return ds.take(rng.permutation(len(ds)))


def _target_only():
    rng = np.random.default_rng(20)
    return stacked([Example(rng.normal(size=8), TRIGGER.target_label) for _ in range(20)])


SEED = 5


def _tspec(**kw):
    base = dict(local_epochs=3, batch_size=16, learning_rate=0.05)
    base.update(kw)
    return TrainSpec(**base)


class TestDispatch:
    def test_none_is_honest_training(self):
        data = _local_data()
        start = init_params(SPEC, 1)
        acfg = AttackConfig(kind="none", trigger=TRIGGER)
        mal = malicious_local_train(start, SPEC, data, _tspec(), SEED, acfg)
        hon = local_train(start, SPEC, data, _tspec(), SEED)
        assert np.array_equal(mal, hon)

    def test_data_poison_overfits_own_backdoor(self):
        data = _local_data(3)
        start = init_params(SPEC, 2)
        acfg = AttackConfig(kind="data_poison", trigger=TRIGGER, poison_rate=1.0)
        tspec = _tspec(local_epochs=60, batch_size=100, learning_rate=0.1)
        params = malicious_local_train(start, SPEC, data, tspec, SEED, acfg)
        assert evaluate_asr(params, SPEC, data, TRIGGER) >= 0.9

    def test_deterministic(self):
        data = _local_data(4)
        start = init_params(SPEC, 3)
        for kind in ("data_poison", "model_replacement", "constrain_and_scale", "edge_case_pgd"):
            acfg = AttackConfig(kind=kind, trigger=TRIGGER, boost=4.0, alpha=0.5,
                                pgd_radius=5.0, edge_fraction=0.3)
            a = malicious_local_train(start, SPEC, data, _tspec(), SEED, acfg)
            b = malicious_local_train(start, SPEC, data, _tspec(), SEED, acfg)
            assert np.array_equal(a, b), kind

    def test_all_target_data_degrades_to_honest_behavior(self):
        # nothing to poison: the attacker trains on its data as-is
        data = _target_only()
        start = init_params(SPEC, 8)
        acfg = AttackConfig(kind="data_poison", trigger=TRIGGER)
        out = malicious_local_train(start, SPEC, data, _tspec(), SEED, acfg)
        assert np.array_equal(out, local_train(start, SPEC, data, _tspec(), SEED))
        boosted = malicious_local_train(
            start, SPEC, data, _tspec(), SEED,
            AttackConfig(kind="model_replacement", trigger=TRIGGER, boost=3.0),
        )
        assert np.allclose(boosted, model_replacement(
            local_train(start, SPEC, data, _tspec(), SEED), start, 3.0))
        projected = malicious_local_train(
            start, SPEC, data, _tspec(), SEED,
            AttackConfig(kind="edge_case_pgd", trigger=TRIGGER, pgd_radius=0.05),
        )
        assert np.linalg.norm(projected - start) <= 0.05 + 1e-9


def test_attack_config_is_frozen_and_hashable():
    acfg = AttackConfig(kind="model_replacement", trigger=TRIGGER, boost=3.0)
    with pytest.raises(FrozenInstanceError):
        acfg.boost = 4.0
    assert hash(acfg) == hash(replace(acfg)) and acfg == replace(acfg)
    assert acfg != replace(acfg, poison_rate=1.0)


class TestModelReplacement:
    def test_boost_one_identity(self):
        rng = np.random.default_rng(0)
        local = rng.normal(size=10)
        global_p = rng.normal(size=10)
        assert np.allclose(model_replacement(local, global_p, 1.0), local)

    def test_fedavg_domination_algebra(self):
        # boost = k with all-zero honest deltas: the average equals the
        # malicious delta exactly
        rng = np.random.default_rng(1)
        k = 8
        global_p = rng.normal(size=12)
        local = global_p + rng.normal(size=12) * 0.1
        boosted = model_replacement(local, global_p, float(k))
        updates = [ClientUpdate(0, boosted - global_p)]
        updates += [ClientUpdate(i, np.zeros(12)) for i in range(1, k)]
        agg = fedavg(updates).aggregated_delta
        assert np.allclose(agg, local - global_p, atol=1e-12)

    def test_delta_norm_linear_in_boost(self):
        rng = np.random.default_rng(2)
        global_p = rng.normal(size=9)
        local = global_p + rng.normal(size=9)
        base = np.linalg.norm(local - global_p)
        for boost in (2.0, 5.0, 10.0):
            out = model_replacement(local, global_p, boost)
            assert np.isclose(np.linalg.norm(out - global_p), boost * base)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            model_replacement(np.zeros(3), np.zeros(4), 2.0)


class TestPgdProject:
    def test_inside_ball_unchanged(self):
        p = np.array([0.5, 0.5])
        out = pgd_project(p, np.zeros(2), 1.0)
        assert np.array_equal(out, p)

    def test_three_four_five(self):
        out = pgd_project(np.array([3.0, 4.0]), np.zeros(2), 1.0)
        assert np.allclose(out, [0.6, 0.8])

    def test_projection_law_and_idempotence(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            dim = int(rng.integers(2, 12))
            p = rng.normal(size=dim) * 10
            c = rng.normal(size=dim)
            r = float(rng.uniform(0.1, 5.0))
            out = pgd_project(p, c, r)
            assert np.linalg.norm(out - c) <= r + 1e-9
            assert np.allclose(pgd_project(out, c, r), out)
            # contraction toward the center
            assert np.linalg.norm(out - c) <= np.linalg.norm(p - c) + 1e-12


class TestConstrainAndScale:
    def test_cosine_grad_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(2, 20))
            g = rng.normal(size=dim)
            p = rng.normal(size=dim)
            _, grad = cosine_loss_and_grad(p, g)
            fd = finite_diff_grad(lambda x: cosine_loss_and_grad(x, g)[0], p)
            assert rel_grad_error(grad, fd) <= 1e-4

    def test_alpha_zero_equals_plain_poison_training(self):
        data = _local_data(9)
        poisoned = poison_dataset(data, TRIGGER, 0.5, 5)
        start = init_params(SPEC, 4)
        a = constrain_and_scale_train(start, SPEC, poisoned, _tspec(), SEED, 0.0)
        b = local_train(start, SPEC, poisoned, _tspec(), SEED)
        assert np.array_equal(a, b)

    def test_alpha_one_descends_cosine_distance(self):
        from fedsim.linalg import cosine_distance

        rng = np.random.default_rng(10)
        data = _local_data(10)
        global_p = rng.normal(size=SPEC.param_count())
        params = global_p + rng.normal(size=SPEC.param_count()) * 0.5
        prev = cosine_distance(params, global_p)
        for epoch in range(8):
            tspec = _tspec(local_epochs=1, batch_size=100, learning_rate=0.05)
            params = constrain_and_scale_train(params, SPEC, data, tspec, epoch, 1.0)
            # pure stealth loss: distance to the global ray must not increase
            cur = cosine_distance(params, global_p)
            assert cur <= prev + 1e-6
            prev = cur

    def test_zero_global_trains_without_stealth(self):
        zero = np.zeros(SPEC.param_count())
        data = _local_data()
        out = constrain_and_scale_train(zero, SPEC, data, _tspec(), SEED, 0.5)
        assert np.array_equal(out, local_train(zero, SPEC, data, _tspec(), SEED))

    def test_dispatch_falls_back_on_zero_global(self):
        data = _local_data(2)
        acfg = AttackConfig(kind="constrain_and_scale", trigger=TRIGGER, alpha=0.7)
        out = malicious_local_train(np.zeros(SPEC.param_count()), SPEC, data, _tspec(), SEED, acfg)
        poisoned = poison_dataset(data, TRIGGER, acfg.poison_rate, SEED)
        expected = local_train(np.zeros(SPEC.param_count()), SPEC, poisoned, _tspec(), SEED)
        assert np.array_equal(out, expected)

    def test_stealth_spectrum(self):
        # high alpha updates end up closer (cosine) to the mean honest update
        from fedsim.linalg import cosine_distance

        dists = {0.1: [], 0.9: []}
        for seed in range(20):
            data_pool = blob_arrays(4, 8, 80, 6.0, seed)
            rng = np.random.default_rng(seed)
            global_p = init_params(SPEC, seed)
            # a short warm-up so the global model is informative
            warm = TrainSpec(3, 400, 0.05)
            global_p = local_train(global_p, SPEC, data_pool, warm, seed)
            honest_deltas = []
            for i in range(6):
                sl = data_pool.take(slice(i * 40, (i + 1) * 40))
                tspec = TrainSpec(10, 400, 0.05)
                honest_deltas.append(local_train(global_p, SPEC, sl, tspec, 1000 + i) - global_p)
            mean_honest = np.mean(honest_deltas, axis=0)
            mal_data = poison_dataset(data_pool.take(slice(240, None)), TRIGGER, 1.0, seed)
            for alpha in (0.1, 0.9):
                tspec = TrainSpec(10, 400, 0.05)
                mal = constrain_and_scale_train(global_p, SPEC, mal_data, tspec, 77, alpha)
                dists[alpha].append(cosine_distance(mal - global_p, mean_honest))
        assert np.mean(dists[0.9]) < np.mean(dists[0.1])


class TestEdgeCasePgd:
    def test_source_label_is_modal_non_target(self):
        data = Samples(np.zeros((6, 4)), [0, 1, 1, 1, 2, 2])
        assert _edge_source_label(data, 0) == 1
        assert _edge_source_label(data, 1) == 2
        with pytest.raises(ConfigError):
            _edge_source_label(Samples(np.zeros((1, 4)), [0]), 0)

    def test_infinite_radius_equals_plain_training_on_augmented_set(self):
        data = _local_data(12)
        start = init_params(SPEC, 5)
        acfg = AttackConfig(kind="edge_case_pgd", trigger=TRIGGER,
                            pgd_radius=math.inf, edge_fraction=0.3)
        out = edge_case_pgd_train(start, SPEC, data, _tspec(), SEED, acfg)
        source = _edge_source_label(data, TRIGGER.target_label)
        pool = edge_case_pool(data, source, 0.3)
        augmented = stacked([*data, *(apply_trigger(e, TRIGGER) for e in pool)])
        expected = local_train(start, SPEC, augmented, _tspec(), SEED)
        assert np.array_equal(out, expected)

    def test_final_params_within_radius(self):
        data = _local_data(13)
        start = init_params(SPEC, 6)
        for radius in (0.05, 0.5, 2.0):
            acfg = AttackConfig(kind="edge_case_pgd", trigger=TRIGGER,
                                pgd_radius=radius, edge_fraction=0.4)
            out = edge_case_pgd_train(start, SPEC, data, _tspec(learning_rate=0.3), SEED, acfg)
            assert np.linalg.norm(out - start) <= radius + 1e-9

    def test_tiny_radius_throttles_attack(self):
        data = _local_data(14)
        ds_test = _local_data(15)
        start = init_params(SPEC, 7)
        acfg = AttackConfig(kind="edge_case_pgd", trigger=TRIGGER,
                            pgd_radius=1e-6, edge_fraction=0.4)
        out = edge_case_pgd_train(start, SPEC, data, _tspec(), SEED, acfg)
        asr_model = evaluate_asr(out, SPEC, ds_test, TRIGGER)
        asr_global = evaluate_asr(start, SPEC, ds_test, TRIGGER)
        assert abs(asr_model - asr_global) <= 0.01


ATTACK_KINDS = ("none", "data_poison", "model_replacement", "constrain_and_scale", "edge_case_pgd")


class TestArrayInput:
    """Attacks follow the documented schedule and leave their input arrays untouched."""

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    @pytest.mark.parametrize("rate", [0.6, 1.0])
    @pytest.mark.parametrize("all_target", [False, True])
    def test_malicious_local_train(self, kind, rate, all_target):
        arrays = _target_only() if all_target else _local_data(21)
        x0, y0 = arrays.x.copy(), arrays.y.copy()
        start = init_params(SPEC, 9)
        acfg = AttackConfig(kind=kind, trigger=TRIGGER, poison_rate=rate, boost=3.0,
                            alpha=0.4, pgd_radius=1.5, edge_fraction=0.3)
        malicious_local_train(start, SPEC, arrays, _tspec(), SEED, acfg)
        assert np.array_equal(arrays.x, x0) and np.array_equal(arrays.y, y0)

    def test_poisoned_training_follows_the_documented_schedule(self):
        # data_poison at rate 0.6: SGD over the poisoned example list
        data = _local_data(22)
        start = init_params(SPEC, 10)
        acfg = AttackConfig(kind="data_poison", trigger=TRIGGER, poison_rate=0.6)
        got = malicious_local_train(start, SPEC, data, _tspec(), SEED, acfg)
        poisoned = list(poison_dataset(data, TRIGGER, 0.6, SEED))
        assert got.tobytes() == sgd_oracle(start, SPEC, poisoned, _tspec(), SEED).tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_constrain_and_scale_train(self, alpha):
        # the stealth gradient is mixed into every step, before the step
        data = _local_data(23)
        start = init_params(SPEC, 11)
        tspec = _tspec()
        assert tspec.local_epochs >= 2
        got = constrain_and_scale_train(start, SPEC, data, tspec, SEED, alpha)
        assert got.tobytes() == sgd_oracle(start, SPEC, data, tspec, SEED, alpha=alpha).tobytes()

    def test_edge_case_pgd_train(self):
        # the edge-case rows follow the local rows; the projection runs after every epoch
        data = _local_data(24)
        start = init_params(SPEC, 12)
        radius = 0.8
        acfg = AttackConfig(kind="edge_case_pgd", trigger=TRIGGER, pgd_radius=radius,
                            edge_fraction=0.4)
        tspec = _tspec(learning_rate=0.3)
        assert tspec.local_epochs >= 2
        got = edge_case_pgd_train(start, SPEC, data, tspec, SEED, acfg)
        pool = edge_case_pool(data, _edge_source_label(data, TRIGGER.target_label), 0.4)
        augmented = [*data, *(apply_trigger(e, TRIGGER) for e in pool)]
        first_epoch = sgd_oracle(start, SPEC, augmented, replace(tspec, local_epochs=1), SEED)
        assert np.linalg.norm(first_epoch - start) > radius  # the radius binds from epoch 1
        assert got.tobytes() == sgd_oracle(start, SPEC, augmented, tspec, SEED, radius=radius).tobytes()

    def test_edge_source_label_ties_to_the_lowest_label(self):
        data = Samples(np.zeros((9, 4)), [3, 1, 0, 3, 1, 2, 0, 0, 0])
        assert _edge_source_label(data, 0) == 1
        assert _edge_source_label(data, 1) == 0

    def test_empty_data_rejected(self):
        empty = Samples(np.empty((0, SPEC.input_dim)), np.empty(0))
        with pytest.raises(EmptySetError):
            constrain_and_scale_train(init_params(SPEC, 0), SPEC, empty, _tspec(), SEED, 0.5)


class TestStackedTraining:
    """A (G, P) stack trains each row exactly as that row alone, hooks included."""

    @staticmethod
    def _globals(spec, data):
        # a fresh model, an all-zero one (constrain-and-scale trains it plain),
        # a model already fitted to the data (small updates) and a random one
        start = init_params(spec, 1)
        fitted = local_train(start, spec, data, _tspec(local_epochs=40, batch_size=64), 2)
        rng = np.random.default_rng(3)
        return np.stack([start, np.zeros(spec.param_count()), fitted,
                         rng.normal(scale=0.5, size=spec.param_count())])

    @pytest.mark.parametrize("batch_size", [16, 64], ids=["batch_below_n", "batch_above_n"])
    @pytest.mark.parametrize("spec", [SPEC, ModelSpec(8, 4, hidden_dim=5)], ids=["softmax", "mlp"])
    @pytest.mark.parametrize("kind", ["honest", *ATTACK_KINDS[1:]])
    def test_each_row_equals_training_it_alone(self, kind, spec, batch_size):
        data = _local_data(25)
        assert 16 < len(data) <= 64
        tspec = _tspec(batch_size=batch_size)
        starts = self._globals(spec, data)
        acfg = AttackConfig(kind=kind if kind != "honest" else "none", trigger=TRIGGER,
                            poison_rate=0.6, boost=3.0, alpha=0.5, edge_fraction=0.4)

        def train(global_params, acfg=acfg):
            if kind == "honest":
                return local_train(global_params, spec, data, tspec, SEED)
            return malicious_local_train(global_params, spec, data, tspec, SEED, acfg)

        if kind == "edge_case_pgd":
            # a radius that the fitted model's updates stay inside and the fresh
            # model's leave, so the stack holds a projected and an unprojected row
            free = replace(acfg, pgd_radius=math.inf)
            fresh, fitted = (np.linalg.norm(train(starts[g], free) - starts[g]) for g in (0, 2))
            acfg = replace(acfg, pgd_radius=math.sqrt(fresh * fitted))
            assert train(starts[2], acfg).tobytes() == train(starts[2], free).tobytes()
            assert train(starts[0], acfg).tobytes() != train(starts[0], free).tobytes()
        stacked_rows = train(starts, acfg)
        assert stacked_rows.shape == starts.shape
        for row, start in zip(stacked_rows, starts, strict=True):
            assert row.tobytes() == train(start, acfg).tobytes()

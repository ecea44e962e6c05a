import dataclasses
import json
import math
import random
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim import errors, sim
from fedsim.attacks import ATTACK_KINDS, AttackConfig
from fedsim.defenses import DEFENSE_KINDS, ClientUpdate, DefenseConfig
from fedsim.errors import ConfigError
from fedsim.data import TriggerSpec
from fedsim.model import ModelSpec, TrainSpec, evaluate_acc, evaluate_asr
from fedsim.sim import (
    CSV_HEADER,
    RoundRecord,
    build_state,
    run_round,
    run_simulation,
    run_simulations,
    sample_clients,
    summarize,
    write_results,
)

from helpers import standard_config


def small_config(**kw):
    base = dict(rounds=6, malicious=0, n_per_class=50)
    base.update(kw)
    return dataclasses.replace(standard_config(**base), total_clients=12, clients_per_round=4)


class TestSampleClients:
    def test_full_population(self):
        assert sample_clients(5, 5, 1, 0) == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        assert sample_clients(50, 10, 7, 42) == sample_clients(50, 10, 7, 42)
        assert sample_clients(50, 10, 8, 42) != sample_clients(50, 10, 7, 42)

    def test_k_exceeds_total(self):
        with pytest.raises(ConfigError):
            sample_clients(5, 6, 1, 0)

    def test_arguments_out_of_range_raise_naming_them(self):
        assert sample_clients(5, 0, 0, 7) == []
        for k, round_idx, name in ((-1, 1, "k"), (6, 1, "k"), (2, -1, "round_idx")):
            with pytest.raises(ConfigError, match=f"^{name} must be in "):
                sample_clients(5, k, round_idx, 7)

    def test_uniformity_chi_square(self):
        total, k, rounds = 20, 5, 10000
        counts = np.zeros(total)
        for r in range(1, rounds + 1):
            for i in sample_clients(total, k, r, 7):
                counts[i] += 1
        expected = rounds * k / total
        sigma = math.sqrt(rounds * (k / total) * (1 - k / total))
        assert np.all(np.abs(counts - expected) <= 3 * sigma), counts
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # chi-square with 19 dof: far tail cutoff
        assert chi2 <= 43.8, chi2


class TestDeriveSeed:
    def test_equals_the_seed_sequence_of_the_parts(self):
        # the uint32 words and the joined output words are the ones
        # SeedSequence([m, tag, *parts]).generate_state(1, uint64) uses
        rng = random.Random(5)
        widths = [1, 8, 31, 32, 33, 63, 64, 65, 128, 260]
        for _ in range(20000):
            parts = [0 if rng.random() < 0.2 else rng.getrandbits(rng.choice(widths))
                     for _ in range(rng.randint(2, 4))]
            want = np.random.SeedSequence(parts).generate_state(1, np.uint64)[0]
            assert sim._derive_seed(*parts) == int(want), parts

    def test_negative_part_rejected(self):
        with pytest.raises(ValueError):
            sim._derive_seed(7, 2, -1)


class TestRunRound:
    def test_fedavg_equals_faros_with_full_accept(self):
        cfg_a = small_config(defense="fedavg")
        cfg_b = small_config(defense="faros", accept_count=4, core_size=2)
        state_a = build_state(cfg_a)
        state_b = build_state(cfg_b)
        assert np.array_equal(state_a.global_params, state_b.global_params)
        for _ in range(4):
            state_a, _ = run_round(state_a, cfg_a)
            state_b, _ = run_round(state_b, cfg_b)
            assert np.array_equal(state_a.global_params, state_b.global_params)

    def test_no_malicious_means_no_detection_counts(self):
        cfg = small_config(defense="faros", accept_count=2, core_size=2)
        state = build_state(cfg)
        for _ in range(3):
            state, rec = run_round(state, cfg)
            assert rec.tp == 0 and rec.fn == 0
            assert rec.malicious_selected == []

    def test_round_wall_time(self):
        cfg = standard_config(defense="faros", attack="model_replacement")
        state = build_state(cfg)
        t0 = time.perf_counter()
        run_round(state, cfg)
        assert time.perf_counter() - t0 < 1.0

    def test_divergence_raises_typed_error_naming_round_and_client(self):
        cfg = dataclasses.replace(small_config(), model=ModelSpec(16, 10, hidden_dim=8),
                                  train=TrainSpec(2, 4000, 1e300))
        state = build_state(cfg)
        ids = sample_clients(cfg.total_clients, cfg.clients_per_round, 1, cfg.master_seed)
        with pytest.raises(errors.NonFiniteUpdateError) as info, np.errstate(all="ignore"):
            run_round(state, cfg)
        assert isinstance(info.value, errors.FedsimError)
        assert info.value.round == 1
        assert info.value.client_id == ids[0]
        assert f"round 1, client {ids[0]}" in str(info.value)

    @pytest.mark.parametrize("diverging_first", [True, False])
    def test_a_lone_round_raises_the_first_client_error_in_plan_order(self, monkeypatch,
                                                                     diverging_first):
        cfg = small_config()
        state = build_state(cfg)
        ids = sample_clients(cfg.total_clients, cfg.clients_per_round, 1, cfg.master_seed)
        diverging, failing = (ids[0], ids[-1]) if diverging_first else (ids[-1], ids[0])
        real_train = sim._train_group

        def train(state, cfg, attack, i, seed, stack):
            if i == failing:
                raise errors.ZeroVectorError(f"planted, client {i}")
            deltas = real_train(state, cfg, attack, i, seed, stack)
            return np.full_like(deltas, np.nan) if i == diverging else deltas

        monkeypatch.setattr(sim, "_train_group", train)
        if diverging_first:
            with pytest.raises(errors.NonFiniteUpdateError) as info:
                run_round(state, cfg)
            assert (info.value.round, info.value.client_id) == (1, ids[0])
        else:
            with pytest.raises(errors.ZeroVectorError, match=f"^planted, client {ids[0]}$"):
                run_round(state, cfg)

    def test_a_lone_round_trains_no_client_after_its_first_failure(self, monkeypatch):
        cfg = small_config()
        state = build_state(cfg)
        ids = sample_clients(cfg.total_clients, cfg.clients_per_round, 1, cfg.master_seed)
        real_train = sim._train_group
        trained = []

        def train(state, cfg, attack, i, seed, stack):
            trained.append(i)
            deltas = real_train(state, cfg, attack, i, seed, stack)
            return np.full_like(deltas, np.nan) if i == ids[1] else deltas

        monkeypatch.setattr(sim, "_train_group", train)
        with pytest.raises(errors.NonFiniteUpdateError) as info:
            run_round(state, cfg)
        assert (info.value.round, info.value.client_id) == (1, ids[1])
        assert trained == ids[:2]

    def test_overflowing_aggregate_raises_typed_error_naming_round_and_rule(self):
        cfg = small_config()
        state = build_state(cfg)
        ids = sample_clients(cfg.total_clients, cfg.clients_per_round, 1, cfg.master_seed)
        # finite updates whose sum overflows, as no training here would produce them
        updates = [ClientUpdate(i, np.full(cfg.model.param_count(), 1.5e308)) for i in ids]
        with pytest.raises(errors.NonFiniteAggregateError, match="^round 1, defense.kind fedavg: "):
            run_round(state, cfg, updates)
        assert np.isfinite(state.global_params).all()

    def test_a_new_global_model_that_overflows_raises_naming_round_and_rule(self):
        cfg = small_config()
        params = np.full(cfg.model.param_count(), 1.5e308)
        state = dataclasses.replace(build_state(cfg), global_params=params)
        ids = sample_clients(cfg.total_clients, cfg.clients_per_round, 1, cfg.master_seed)
        # their mean is finite, its sum with the global model is not
        updates = [ClientUpdate(i, np.full(len(params), 4e307)) for i in ids]
        with pytest.raises(errors.NonFiniteAggregateError,
                           match="^round 1, defense.kind fedavg: the new global model has NaN "
                                 "or Inf entries; not applied$"):
            run_round(state, cfg, updates)

    def test_logits_that_overflow_at_evaluation_raise_naming_the_round(self):
        cfg = small_config()
        # a finite model whose logits on the test rows overflow
        params = np.full(cfg.model.param_count(), 1e308)
        state = dataclasses.replace(build_state(cfg), global_params=params)
        ids = sample_clients(cfg.total_clients, cfg.clients_per_round, 1, cfg.master_seed)
        updates = [ClientUpdate(i, np.zeros(len(params))) for i in ids]
        with pytest.raises(errors.NonFiniteLogitsError,
                           match="^round 1: the model's logits on the evaluation rows are not "
                                 "finite"):
            run_round(state, cfg, updates)

    @pytest.mark.parametrize("hidden_dim", [0, 8])
    @pytest.mark.parametrize("attack", ["none", "model_replacement"])
    def test_metrics_equal_the_list_evaluators(self, attack, hidden_dim):
        cfg = small_config(defense="faros", malicious=3, attack=attack, force_c=1)
        # ASR is measured with the attack's trigger, in clean runs too
        trigger = TriggerSpec((2, 9), (4.0, -4.0), 3)
        cfg = dataclasses.replace(cfg, model=ModelSpec(16, 10, hidden_dim=hidden_dim),
                                  attack=dataclasses.replace(cfg.attack, trigger=trigger))
        state = build_state(cfg)
        for _ in range(3):
            new, rec = run_round(state, cfg)
            assert rec.acc == evaluate_acc(new.global_params, cfg.model, state.test_set)
            assert rec.asr == evaluate_asr(new.global_params, cfg.model, state.test_set, trigger)
            state = new

    def test_state_carries_the_test_matrices(self):
        cfg = small_config(malicious=3, attack="model_replacement", force_c=1)
        state = build_state(cfg)
        t = cfg.attack.trigger
        eligible = [e.features for e in state.test_set if e.label != t.target_label]
        assert len(state.asr_x) == len(eligible)
        assert np.array_equal(state.asr_x[:, list(t.positions)], np.tile(t.values, (len(eligible), 1)))
        state2, _ = run_round(state, cfg)
        assert state2.test_set is state.test_set and state2.asr_x is state.asr_x

    def test_clients_hold_their_rows_in_partition_order(self):
        cfg = small_config(malicious=3, attack="model_replacement", force_c=1)
        state = build_state(cfg)
        assert len(state.clients) == cfg.total_clients == len(state.partition)
        for cid, rows in state.partition.items():
            mine = state.clients[cid]
            want = np.stack([state.dataset.x[j] for j in rows])
            assert mine.x.dtype == np.float64 and mine.x.tobytes() == want.tobytes()
            assert mine.y.tolist() == [int(state.dataset.y[j]) for j in rows]
        state2, _ = run_round(state, cfg)
        assert state2.clients is state.clients

    def test_dataset_rows_are_views_of_the_training_matrix(self):
        cfg = small_config()
        state = build_state(cfg)
        assert len(state.dataset) == cfg.data.n_per_class * cfg.data.num_classes
        rows = list(state.dataset)
        assert all(np.shares_memory(e.features, state.dataset.x) for e in rows)
        assert [e.label for e in rows] == state.dataset.y.tolist()

    def test_train_one_passes_each_client_its_arrays(self, monkeypatch):
        cfg = small_config(malicious=3, attack="model_replacement", force_c=1)
        state = build_state(cfg)
        seen = []

        def spy(real):
            def wrapped(global_params, spec, dataset, tspec, *rest):
                seen.append((dataset, len(dataset)))
                return real(global_params, spec, dataset, tspec, *rest)
            return wrapped

        monkeypatch.setattr(sim, "local_train", spy(sim.local_train))
        monkeypatch.setattr(sim, "malicious_local_train", spy(sim.malicious_local_train))
        run_round(state, cfg)
        ids = sim._sample_forced(cfg, 1)
        assert [d for d, _ in seen] == [state.clients[i] for i in ids]
        assert [n for _, n in seen] == [len(state.partition[i]) for i in ids]

    def test_conservation_and_self_consistency(self):
        cfg = small_config(defense="faros", malicious=3, attack="data_poison",
                           accept_count=2, core_size=2, force_c=1)
        state = build_state(cfg)
        for _ in range(5):
            state, rec = run_round(state, cfg)
            sampled = set(rec.accepted) | set(rec.malicious_selected)
            assert len(sampled) <= cfg.clients_per_round
            assert rec.tp + rec.fn == len(rec.malicious_selected)
            n_honest = cfg.clients_per_round - len(rec.malicious_selected)
            assert 0 <= rec.fp <= n_honest


class TestRunSimulation:
    def test_bit_identical_records(self):
        cfg = small_config(defense="faros", malicious=3, attack="data_poison",
                           accept_count=3, core_size=2, force_c=1)
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert len(a) == len(b) == cfg.rounds
        # wall-clock timing is excluded from the determinism contract
        for ra, rb in zip(a, b):
            da, db = vars(ra).copy(), vars(rb).copy()
            da.pop("wall_ms")
            db.pop("wall_ms")
            assert da == db

    @pytest.mark.parametrize("defense", ["faros", "weak_dp"])
    def test_noise_seed_derived_only_under_weak_dp(self, monkeypatch, defense):
        cfg = small_config(defense=defense)
        tags = []
        real = sim._derive_seed
        monkeypatch.setattr(sim, "_derive_seed", lambda *a: tags.append(a[1]) or real(*a))
        run_simulation(cfg)
        assert tags.count(sim._TAG_DP_NOISE) == (cfg.rounds if defense == "weak_dp" else 0)

    def test_parallel_equals_serial(self, monkeypatch):
        # parallel_clients is accepted but trains serially: no thread is
        # started while a round runs, and the records equal the serial ones
        cfg = small_config(defense="faros", malicious=3, attack="model_replacement",
                           accept_count=3, core_size=2, force_c=1)
        serial = run_simulation(cfg)

        seen = []
        real_train = sim._train_group

        def watched(*args, **kwargs):
            seen.append((len(args[5]), threading.active_count(), threading.get_ident()))
            return real_train(*args, **kwargs)

        monkeypatch.setattr(sim, "_train_group", watched)
        before = threading.active_count()
        parallel = run_simulation(dataclasses.replace(cfg, parallel_clients=True))
        assert threading.active_count() == before
        # a run alone trains each client as a stack of one
        assert len(seen) == cfg.rounds * cfg.clients_per_round
        assert set(seen) == {(1, before, threading.get_ident())}
        assert len(serial) == len(parallel) == cfg.rounds
        for ra, rb in zip(serial, parallel):
            da, db = vars(ra).copy(), vars(rb).copy()
            da.pop("wall_ms")
            db.pop("wall_ms")
            assert da == db

    def test_eval_every_controls_record_count(self):
        cfg = dataclasses.replace(small_config(rounds=12), eval_every=3)
        recs = run_simulation(cfg)
        assert len(recs) == 4
        assert [r.round for r in recs] == [3, 6, 9, 12]
        assert all(not math.isnan(r.acc) for r in recs)

    def test_invalid_config(self):
        with pytest.raises(ConfigError, match="clients_per_round"):
            dataclasses.replace(small_config(), clients_per_round=99)

    @pytest.mark.parametrize("num_classes", [5, 12])
    def test_model_classes_must_match_the_data(self, num_classes):
        with pytest.raises(ConfigError, match="data.num_classes"):
            sim.SimConfig(rounds=1, model=ModelSpec(16, num_classes),
                          data=sim.DataConfig(num_classes=10))

    def test_forced_sampling_needs_enough_honest_clients(self):
        # 6 per round with 1 pinned attacker needs 5 honest clients; 10 - 8 = 2 exist
        cfg = small_config(malicious=8, attack="model_replacement", force_c=1)
        with pytest.raises(ConfigError, match="force_c_per_round"):
            dataclasses.replace(cfg, total_clients=10, clients_per_round=6)
        # 4 pinned attackers leave exactly 2 honest slots: every round trains 6
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cfg = dataclasses.replace(cfg, total_clients=10, clients_per_round=6,
                                      force_c_per_round=4)
        for r in range(1, 6):
            ids = sim._sample_forced(cfg, r)
            assert len(set(ids)) == 6 and sum(i < 8 for i in ids) == 4

    @pytest.mark.parametrize("force_c,expected", [
        # 2 pinned attackers of 10 in every round: an honest majority
        (2, []),
        # 30 of 50 malicious: 6 of every 10 sampled are expected to be
        (None, ["expected malicious share per round is not an honest majority"]),
    ])
    def test_expected_share_warns_only_when_attackers_are_not_pinned(self, force_c, expected):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sim.SimConfig(total_clients=50, clients_per_round=10, malicious_count=30,
                          force_c_per_round=force_c)
        assert [str(w.message) for w in caught] == expected

    def test_replacement_attack_implants_under_plain_averaging(self):
        cfg = dataclasses.replace(standard_config(defense="fedavg", attack="model_replacement",
                                                  rounds=50, boost=20.0),
                                  clients_per_round=20, force_c_per_round=4)
        recs = run_simulation(cfg)
        assert recs[-1].asr >= 0.80


def _pick(draw, strategy):
    """One of one or two values drawn from ``strategy``, so that configs often share it."""
    return draw(st.sampled_from(draw(st.lists(strategy, min_size=1, max_size=2))))


@st.composite
def _shared_state_configs(draw):
    """2-5 valid configs on tiny data that agree on ``sim._shared`` and differ in
    sampling, training, attack, defense, ``rounds`` and ``eval_every``."""
    total = draw(st.integers(3, 6))
    data = sim.DataConfig(num_classes=3, feature_dim=4, n_per_class=4, test_per_class=2)
    model = ModelSpec(4, 3, hidden_dim=draw(st.sampled_from([0, 3])))
    trigger = TriggerSpec((0, 3), (4.0, -4.0), draw(st.integers(0, 2)))
    seed = draw(st.integers(0, 2**40))
    # a client holds 2 to 4 rows: one batch size is below that, one above
    trains = st.builds(TrainSpec, st.integers(1, 2), st.sampled_from([1, 64]),
                       st.sampled_from([0.1, 0.7, 1e300]))
    attacks = st.builds(
        AttackConfig, st.sampled_from(ATTACK_KINDS), st.just(trigger),
        poison_rate=st.sampled_from([0.3, 1.0]), boost=st.sampled_from([None, 1.0, 6.0]),
        alpha=st.sampled_from([0.0, 0.6]), pgd_radius=st.sampled_from([0.5, math.inf]),
        edge_fraction=st.sampled_from([0.3, 0.9]),
    )
    cfgs = []
    for _ in range(draw(st.integers(2, 5))):
        k = draw(st.integers(1, total))
        malicious = draw(st.integers(0, total))
        forced = st.integers(max(0, k - total + malicious), min(k, malicious))
        defenses = st.builds(
            DefenseConfig, st.sampled_from(DEFENSE_KINDS), phi_max=st.sampled_from([1.5, 4.0]),
            kappa=st.sampled_from([5.0, 50.0]), core_size=st.none() | st.integers(1, k),
            accept_count=st.none() | st.integers(1, k), krum_f=st.integers(0, 1),
            clip_norm=st.sampled_from([0.5, math.inf]), noise_std=st.sampled_from([0.0, 0.1]),
            phi_static=st.sampled_from([1.0, 2.5]),
        )
        rounds = draw(st.integers(1, 3))
        fields = dict(
            total_clients=total, clients_per_round=k, malicious_count=malicious,
            rounds=rounds, eval_every=draw(st.integers(1, rounds)), master_seed=seed,
            force_c_per_round=draw(st.none() | forced), model=model,
            train=_pick(draw, trains), data=data, attack=_pick(draw, attacks),
            defense=draw(defenses),
        )
        with warnings.catch_warnings():
            # a drawn roster need not be an honest majority
            warnings.simplefilter("ignore", RuntimeWarning)
            cfgs.append(sim.SimConfig(**fields))
    return cfgs


class TestSharedState:
    @given(_shared_state_configs())
    @settings(max_examples=80, deadline=None)
    def test_runs_equal_the_configs_run_one_after_another(self, cfgs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            runs, error = run_simulations(cfgs)
            want, want_error = [], None
            for cfg in cfgs:
                try:
                    want.append([_no_wall(r) for r in run_simulation(cfg)])
                except errors.FedsimError as e:
                    want_error = e
                    break
        assert [[_no_wall(r) for r in run] for run in runs] == want
        assert repr(error) == repr(want_error)

    def test_the_state_is_frozen(self):
        # the runs of one run_simulations call share one state object
        state = build_state(small_config())
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.global_params = np.zeros_like(state.global_params)

    def test_arrays_are_read_only(self):
        cfg = small_config(malicious=3, attack="model_replacement", force_c=1)
        state = build_state(cfg)
        arrays = _state_arrays(state)
        # a trained update, an attacker's or an honest one, may be handed to several runs
        stack = np.stack([state.global_params, state.global_params * 0.5])
        arrays += [row for i, attack in ((0, sim._resolve_attack(cfg)), (5, None))
                   for row in sim._train_group(state, cfg, attack, i, 11, stack)]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_runs_from_one_state_equal_fresh_runs(self, monkeypatch):
        base = small_config(defense="faros", malicious=3, attack="model_replacement",
                            accept_count=3, core_size=2, force_c=1)
        cfgs = [
            dataclasses.replace(
                base,
                attack=dataclasses.replace(base.attack, kind=attack),
                defense=dataclasses.replace(base.defense, kind=defense),
            )
            for attack, defense in [("model_replacement", "faros"), ("none", "fedavg"),
                                    ("model_replacement", "faros")]
        ]
        fresh = [[_no_wall(r) for r in run_simulation(cfg)] for cfg in cfgs]
        planned, built = [], []
        real = sim._sample_forced
        monkeypatch.setattr(sim, "_sample_forced",
                            lambda cfg, r: planned.append(r) or real(cfg, r))
        real_build = sim.build_state
        monkeypatch.setattr(sim, "build_state", lambda cfg: built.append(cfg) or real_build(cfg))
        runs, error = run_simulations(cfgs)
        assert error is None
        assert [[_no_wall(r) for r in run] for run in runs] == fresh
        assert built == [cfgs[0]]
        # the runs sample alike, so each round is planned once, not once per run
        assert planned == list(range(1, base.rounds + 1))

    def test_runs_of_different_lengths_equal_fresh_runs(self):
        base = small_config(defense="faros", malicious=3, attack="model_replacement",
                            accept_count=3, core_size=2, force_c=1)
        # a run that ends early sits before, between and after longer ones
        cfgs = [dataclasses.replace(base, rounds=rounds, eval_every=every)
                for rounds, every in [(2, 1), (5, 2), (3, 1), (4, 4), (1, 1)]]
        runs, error = run_simulations(cfgs)
        assert error is None
        for cfg, run in zip(cfgs, runs):
            assert [r.round for r in run] == list(range(cfg.eval_every, cfg.rounds + 1,
                                                        cfg.eval_every))
            assert [_no_wall(r) for r in run] == [_no_wall(r) for r in run_simulation(cfg)]

    @pytest.mark.parametrize("section,name,value", [
        ("data", "class_sep", 5.0), ("model", "hidden_dim", 4),
        ("attack", "trigger", TriggerSpec((1, 2), (3.0, -3.0))),
        ("", "master_seed", 8), ("", "total_clients", 13),
    ])
    def test_configs_that_differ_in_what_the_state_reads_raise(self, monkeypatch, section, name,
                                                               value):
        base = small_config(malicious=3, attack="model_replacement", force_c=1)
        other = _changed(base, section, name, value)
        monkeypatch.setattr(sim, "build_state", lambda cfg: pytest.fail("state built"))
        with pytest.raises(ConfigError, match="config 2 differs"):
            run_simulations([base, base, other])

    def test_no_configs_raise(self):
        with pytest.raises(ConfigError):
            run_simulations([])

    def test_fields_outside_shared_leave_the_state_unchanged(self):
        # every field but data, model, attack.trigger, master_seed and total_clients,
        # set to another valid value
        others = {
            ("", "clients_per_round"): 5, ("", "malicious_count"): 2, ("", "rounds"): 7,
            ("", "eval_every"): 2, ("", "force_c_per_round"): None,
            ("", "parallel_clients"): True,
            ("train", "local_epochs"): 3, ("train", "batch_size"): 16,
            ("train", "learning_rate"): 0.1,
            ("attack", "kind"): "data_poison", ("attack", "poison_rate"): 0.25,
            ("attack", "boost"): 3.0, ("attack", "alpha"): 0.25, ("attack", "pgd_radius"): 1.0,
            ("attack", "edge_fraction"): 0.5,
            ("defense", "kind"): "faros", ("defense", "phi_max"): 2.0,
            ("defense", "kappa"): 10.0, ("defense", "core_size"): 2,
            ("defense", "accept_count"): 3, ("defense", "krum_f"): 1,
            ("defense", "clip_norm"): 1.0, ("defense", "noise_std"): 0.1,
            ("defense", "phi_static"): 2.0,
        }
        base = small_config(malicious=3, attack="model_replacement", force_c=1)
        sections = ("train", "attack", "defense")
        every = {("", f.name) for f in dataclasses.fields(base) if f.name not in sections}
        every |= {(s, f.name) for s in sections for f in dataclasses.fields(getattr(base, s))}
        shared = {("", "data"), ("", "model"), ("attack", "trigger"), ("", "master_seed"),
                  ("", "total_clients")}
        assert set(others) == every - shared
        want = _state_bytes(build_state(base))
        for (section, name), value in others.items():
            cfg = _changed(base, section, name, value)
            assert _field(cfg, section, name) != _field(base, section, name)
            assert sim._shared(cfg) == sim._shared(base)
            assert _state_bytes(build_state(cfg)) == want, (section, name)

    def test_each_sampling_config_gets_its_own_plan(self, monkeypatch):
        forced = small_config(malicious=3, attack="model_replacement", force_c=1)
        cfgs = {"forced": forced,
                "free": dataclasses.replace(forced, force_c_per_round=None, clients_per_round=6)}
        state = build_state(forced)
        ids = {"forced": sim._sample_forced(forced, 1),
               "free": sample_clients(12, 6, 1, forced.master_seed)}
        assert ids["forced"] != ids["free"]
        plans = {k: [(i, sim._derive_seed(forced.master_seed, sim._TAG_CLIENT, 1, i)) for i in v]
                 for k, v in ids.items()}
        sampled, seen = [], []
        for fn in ("_sample_forced", "sample_clients"):
            real = getattr(sim, fn)
            monkeypatch.setattr(sim, fn, lambda *a, real=real, fn=fn: sampled.append(fn) or real(*a))
        real_train = sim._train_group
        monkeypatch.setattr(sim, "_train_group", lambda state, cfg, attack, i, seed, stack:
                            seen.extend([(i, seed)] * len(stack))
                            or real_train(state, cfg, attack, i, seed, stack))
        names = ("forced", "free", "forced")
        for name, updates in zip(names, sim._round_updates([state] * 3, [cfgs[n] for n in names])):
            assert [u.client_id for u in updates] == ids[name]
            _, rec = run_round(state, cfgs[name], updates)
            assert rec.malicious_selected == [i for i in ids[name] if i < 3]
        # one plan per sampling config in the round; the repeated config reuses its own
        assert sampled == ["_sample_forced", "sample_clients"]
        # each planned client trained once; the two configs share the clients they both drew
        assert sorted(seen) == sorted(set(plans["forced"]) | set(plans["free"]))

    def test_a_group_error_is_raised_by_the_run_that_needs_it(self, monkeypatch):
        base = small_config(defense="faros", malicious=3, attack="model_replacement",
                            accept_count=3, core_size=2, force_c=1)
        cfgs = [dataclasses.replace(base, defense=dataclasses.replace(base.defense, kind=kind))
                for kind in ("faros", "fedavg")]
        fresh = [_no_wall(r) for r in run_simulation(cfgs[0])]
        state = build_state(cfgs[1])
        for _ in range(2):
            state, _ = run_round(state, cfgs[1])
        poisoned = state.global_params.tobytes()
        real_train = sim._train_group
        stacks = []

        def train(state, cfg, attack, i, seed, stack):
            # a training from the fedavg run's round-3 model fails, in a stack or alone
            stacks.append(len(stack))
            if any(g.tobytes() == poisoned for g in stack):
                raise errors.ZeroVectorError(f"planted, client {i}")
            return real_train(state, cfg, attack, i, seed, stack)

        monkeypatch.setattr(sim, "_train_group", train)
        runs, error = run_simulations(cfgs)
        # the failed stacks of round 3 left the faros run to train its clients alone
        assert isinstance(error, errors.ZeroVectorError) and max(stacks) == 2
        ids = sim._sample_forced(base, 3)
        assert str(error) == f"planted, client {ids[0]}"
        assert [[_no_wall(r) for r in run] for run in runs] == [fresh]

    def test_a_failed_shared_step_is_retried_alone_for_that_step_only(self, monkeypatch):
        base = small_config(defense="faros", malicious=3, attack="model_replacement",
                            accept_count=3, core_size=2, force_c=1)
        cfgs = [dataclasses.replace(base, defense=dataclasses.replace(base.defense, kind=kind))
                for kind in ("faros", "fedavg")]
        # trains apart from the other two, so its global models are its own
        cfgs.append(_changed(base, "train", "learning_rate", 0.05))
        fresh = [[_no_wall(r) for r in run_simulation(cfg)] for cfg in cfgs[:2]]
        state = build_state(cfgs[2])
        for _ in range(2):
            state, _ = run_round(state, cfgs[2])
        poisoned = state.global_params.tobytes()
        real_train = sim._train_group
        stacks = []

        def train(state, cfg, attack, i, seed, stack):
            # only a training from the last run's round-3 model fails
            stacks.append((state.round, len(stack)))
            if any(g.tobytes() == poisoned for g in stack):
                raise errors.ZeroVectorError(f"planted, client {i}")
            return real_train(state, cfg, attack, i, seed, stack)

        monkeypatch.setattr(sim, "_train_group", train)
        runs, error = run_simulations(cfgs)
        assert str(error) == f"planted, client {sim._sample_forced(base, 3)[0]}"
        assert [[_no_wall(r) for r in run] for run in runs] == fresh
        k = base.clients_per_round
        # round 3: the shared stacks of the first two runs, the last run's first
        # client failing, then each run alone up to that same failure
        assert [n for r, n in stacks if r == 3] == [2] * k + [1] + [1] * (2 * k + 1)
        # from round 4 the first two runs train as shared stacks again
        assert [n for r, n in stacks if r > 3] == [2] * k * (base.rounds - 3)

    def test_stacks_are_cut_to_the_element_cap(self, monkeypatch):
        cfg = small_config(defense="faros", malicious=3, attack="constrain_and_scale", force_c=1)
        state = build_state(cfg)
        # three runs' global models, one of them shared by two runs
        scaled = [dataclasses.replace(state, global_params=state.global_params * f)
                  for f in (1.0, 0.5, 0.5, 2.0)]
        real_train = sim._train_group
        stacks = []
        monkeypatch.setattr(sim, "_train_group", lambda *a: stacks.append(len(a[5])) or real_train(*a))

        def trained(cap):
            monkeypatch.setattr(sim, "MAX_DATA_ELEMENTS", cap)
            stacks.clear()
            return [[(u.client_id, u.delta.tobytes()) for u in updates]
                    for updates in sim._round_updates(scaled, [cfg] * 4)]

        whole = trained(sim.MAX_DATA_ELEMENTS)
        assert set(stacks) == {3}
        # one client's rows times the parameter count already exceed a cap of 1
        assert trained(1) == whole and set(stacks) == {1} and len(stacks) == 3 * cfg.clients_per_round

    @pytest.mark.parametrize("section,name,value", [
        ("train", "learning_rate", 0.05), ("attack", "boost", 3.0), ("attack", "poison_rate", 0.5),
    ])
    def test_runs_that_differ_in_what_training_reads_equal_fresh_runs(self, section, name, value):
        base = small_config(malicious=3, attack="model_replacement", force_c=1)
        other = _changed(base, section, name, value)
        runs, error = run_simulations([base, other])
        assert error is None
        fresh = [[_no_wall(r) for r in run_simulation(cfg)] for cfg in (base, other)]
        # the field moves the records, so a run handed the other's updates would show
        assert fresh[0] != fresh[1], name
        assert [[_no_wall(r) for r in records] for records in runs] == fresh


def _field(cfg, section: str, name: str):
    """Field ``name`` of ``section`` of ``cfg``; section "" is the top level."""
    return getattr(getattr(cfg, section) if section else cfg, name)


def _changed(cfg, section: str, name: str, value):
    """A copy of ``cfg`` with field ``name`` of ``section`` set to ``value``."""
    if not section:
        return dataclasses.replace(cfg, **{name: value})
    changed = dataclasses.replace(getattr(cfg, section), **{name: value})
    return dataclasses.replace(cfg, **{section: changed})


def _state_arrays(state) -> list:
    """Every array of a state."""
    return [state.global_params, state.dataset.x, state.dataset.y, state.test_set.x,
            state.test_set.y, state.asr_x, *(a for c in state.clients for a in (c.x, c.y))]


def _state_bytes(state) -> list:
    """Every array of a state, as bytes, and its partition."""
    return [a.tobytes() for a in _state_arrays(state)] + [state.partition]


def _no_wall(record) -> str:
    """The record's fields but wall_ms, as text, so NaN equals NaN."""
    row = vars(record).copy()
    row.pop("wall_ms")
    return repr(row)


def _toy_records():
    return [
        RoundRecord(1, 0.5, 0.25, 0.0123456789, 2.3456789, [1, 2], [3], 1, 0, 0, 12.5),
        RoundRecord(2, 0.75, 0.125, float("nan"), float("nan"), [0], [], 0, 1, 0, 8.25),
    ]


class TestWriteResults:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results([], path, "csv")
        assert path.read_text() == CSV_HEADER + "\n"

    def test_csv_shape(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results(_toy_records(), path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[5] == "1;2" and first[6] == "3"

    def test_header_and_json_record_keys_are_pinned(self, tmp_path):
        header = "round,acc,asr,d_t,phi_t,accepted,malicious_selected,tp,fp,fn,wall_ms"
        write_results(_toy_records(), tmp_path / "out.csv", "csv")
        assert (tmp_path / "out.csv").read_text() == (
            f"{header}\n"
            "1,0.5,0.25,0.0123456789,2.3456789,1;2,3,1,0,0,12.5\n"
            "2,0.75,0.125,nan,nan,0,,0,1,0,8.25\n"
        )
        write_results(_toy_records(), tmp_path / "out.json", "json")
        for record in json.loads((tmp_path / "out.json").read_text())["records"]:
            assert list(record) == header.split(",")

    def test_csv_line_count_matches_eval_cadence(self, tmp_path):
        cfg = dataclasses.replace(small_config(rounds=12), eval_every=3)
        recs = run_simulation(cfg)
        path = tmp_path / "run.csv"
        write_results(recs, path, "csv")
        lines = path.read_text().splitlines()
        assert len(lines) == cfg.rounds // cfg.eval_every + 1

    def test_json_round_trip_nine_digits(self, tmp_path):
        path = tmp_path / "out.json"
        recs = _toy_records()
        write_results(recs, path, "json", config_echo={"rounds": "2"})
        doc = json.loads(path.read_text())
        assert doc["config"] == {"rounds": "2"}
        assert len(doc["records"]) == 2
        got = doc["records"][0]
        assert got["acc"] == float(f"{recs[0].acc:.9g}")
        assert got["d_t"] == float(f"{recs[0].d_t:.9g}")
        assert got["accepted"] == [1, 2]
        assert "final_acc" in doc["summary"]

    def test_json_is_strict_with_null_for_undefined_values(self, tmp_path):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        path = tmp_path / "out.json"
        write_results(_toy_records(), path, "json")
        doc = json.loads(path.read_text(), parse_constant=reject)
        assert doc["records"][1]["d_t"] is None and doc["records"][1]["phi_t"] is None
        assert doc["records"][0]["d_t"] == float(f"{_toy_records()[0].d_t:.9g}")
        write_results([], path, "json")
        doc = json.loads(path.read_text(), parse_constant=reject)
        assert set(doc["summary"].values()) == {None}
        # the CSV keeps nan
        write_results(_toy_records(), tmp_path / "out.csv", "csv")
        assert ",nan,nan," in (tmp_path / "out.csv").read_text()

    def test_json_of_a_fedavg_run_is_strict(self, tmp_path):
        path = tmp_path / "run.json"
        write_results(run_simulation(small_config(rounds=2)), path, "json")
        doc = json.loads(path.read_text(), parse_constant=lambda name: pytest.fail(name))
        assert [r["d_t"] for r in doc["records"]] == [None, None]
        assert doc["summary"]["mean_detection_precision"] is None

    def test_summary_consistency(self):
        recs = _toy_records()
        s = summarize(recs)
        assert s["final_acc"] == 0.75
        assert s["final_asr"] == 0.125
        # round 1: precision 1/1, recall 1/1; round 2: precision 0/1, recall undefined
        assert np.isclose(s["mean_detection_precision"], 0.5)
        assert np.isclose(s["mean_detection_recall"], 1.0)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            write_results([], tmp_path / "x", "xml")

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(OSError, match="taken"):
            write_results(_toy_records(), target, "csv")
        assert target.is_dir()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsim import config as cfgmod
from fedsim import sim
from fedsim.cli import main
from fedsim.config import build_config, load_config_file
from fedsim.defenses import ClientUpdate
from fedsim.errors import ConfigError

REPO = Path(__file__).resolve().parent.parent
REPO_CONFIGS = REPO / "configs"

TINY = """
total_clients = 12
clients_per_round = 4
malicious_count = 3
rounds = 5
master_seed = 3
force_c_per_round = 1
data.num_classes = 4
data.feature_dim = 8
data.n_per_class = 40
data.test_per_class = 10
trigger.positions = 5,6
trigger.values = 2.0,-2.0
trigger.target_label = 0
train.local_epochs = 2
train.batch_size = 500
train.learning_rate = 0.05
attack.kind = data_poison
defense.kind = faros
defense.core_size = 2
defense.accept_count = 3
compare.attacks = none,data_poison
compare.defenses = fedavg,faros
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY)
    return p


class TestRun:
    def test_writes_results_and_summary_line(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(tiny_cfg), "--out", str(out)])
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "results.json").exists()
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("final_acc=") and "final_asr=" in line

    def test_set_override_applies(self, tiny_cfg, tmp_path):
        out = tmp_path / "o"
        code = main(["run", "--config", str(tiny_cfg), "--out", str(out),
                     "--set", "defense.kind=fedavg", "--set", "rounds=3",
                     "--format", "json"])
        assert code == 0
        doc = json.loads((out / "results.json").read_text())
        assert doc["config"]["defense.kind"] == "fedavg"
        assert len(doc["records"]) == 3

    def test_unknown_key_exit_2(self, tiny_cfg, tmp_path, capsys):
        code = main(["run", "--config", str(tiny_cfg), "--out", str(tmp_path),
                     "--set", "defense.bogus_knob=1"])
        assert code == 2
        assert "defense.bogus_knob" in capsys.readouterr().err

    def test_seed_determinism(self, tiny_cfg, tmp_path):
        # identical up to wall-clock timing, which the determinism contract
        # explicitly excludes
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["run", "--config", str(tiny_cfg), "--out", str(out),
                         "--seed", "7"]) == 0
        docs = []
        for out in (out_a, out_b):
            doc = json.loads((out / "results.json").read_text())
            for rec in doc["records"]:
                rec.pop("wall_ms")
            docs.append(doc)
        assert docs[0] == docs[1]
        csvs = []
        for out in (out_a, out_b):
            rows = (out / "results.csv").read_text().splitlines()
            csvs.append([",".join(r.split(",")[:-1]) for r in rows])
        assert csvs[0] == csvs[1]

    def test_env_var_out_dir(self, tiny_cfg, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("FEDSIM_OUT_DIR", str(env_dir))
        assert main(["run", "--config", str(tiny_cfg), "--format", "csv"]) == 0
        assert (env_dir / "results.csv").exists()

    def test_negative_seed_exit_2_naming_key(self, tiny_cfg, tmp_path, capsys):
        code = main(["run", "--config", str(tiny_cfg), "--out", str(tmp_path), "--seed", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "master_seed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["data.num_classes", "data.feature_dim"])
    def test_oversized_data_exit_2_naming_key(self, key, tmp_path, capsys):
        code = main(["run", "--config", str(REPO_CONFIGS / "compare_small.cfg"),
                     "--out", str(tmp_path), "--set", f"{key}=1000000"])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_oversized_model_exit_2_naming_key(self, tmp_path, capsys):
        code = main(["run", "--config", str(REPO_CONFIGS / "compare_small.cfg"),
                     "--out", str(tmp_path), "--set", "model.hidden_dim=10000000000",
                     "--set", "rounds=1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "model.hidden_dim" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


class TestSweep:
    def test_axis_produces_per_value_files_and_summary(self, tiny_cfg, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(tiny_cfg), "--out", str(out),
                     "--axis", "data.dirichlet_q=0.1,0.4,1.0", "--format", "csv"])
        assert code == 0
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert summary[0] == "axis_value,final_acc,final_asr"
        assert len(summary) == 4
        csvs = sorted(p.name for p in out.glob("sweep_*.csv") if "summary" not in p.name)
        assert len(csvs) == 3

    def test_failed_value_preserves_completed_runs(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "sweep2"
        code = main(["sweep", "--config", str(tiny_cfg), "--out", str(out),
                     "--axis", "data.dirichlet_q=0.4,-1.0,1.0", "--format", "csv"])
        assert code != 0
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert len(summary) == 3  # header + the two completed values
        assert "FAILED" in capsys.readouterr().err

    def test_defense_axis(self, tiny_cfg, tmp_path):
        out = tmp_path / "sweep3"
        code = main(["sweep", "--config", str(tiny_cfg), "--out", str(out),
                     "--axis", "defense.kind=fedavg,faros", "--format", "csv"])
        assert code == 0
        rows = (out / "sweep_summary.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["fedavg", "faros"]

    def test_master_seed_axis_runs_the_swept_seeds(self, tiny_cfg, tmp_path):
        out = tmp_path / "sweep5"
        code = main(["sweep", "--config", str(tiny_cfg), "--out", str(out), "--set", "rounds=2",
                     "--axis", "master_seed=100,200", "--format", "json"])
        assert code == 0
        echoed = [json.loads((out / f"sweep_{i:03d}_{seed}.json").read_text())["config"]
                  for i, seed in enumerate(("100", "200"))]
        assert [c["master_seed"] for c in echoed] == ["100", "200"]
        rows = (out / "sweep_summary.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["100", "200"]

    def test_other_axes_step_the_base_seed(self, tiny_cfg, tmp_path):
        out = tmp_path / "sweep6"
        code = main(["sweep", "--config", str(tiny_cfg), "--out", str(out), "--set", "rounds=2",
                     "--axis", "data.dirichlet_q=0.4,1.0", "--format", "json"])
        assert code == 0
        seeds = [json.loads(p.read_text())["config"]["master_seed"]
                 for p in sorted(out.glob("sweep_*.json"))]
        assert seeds == ["3", "4"]

    @pytest.mark.parametrize("axis,message", [
        ("foo=1,2", "unknown config key 'foo'"),
        (" = 1", "unknown config key ''"),
        ("rounds", "expected key = value, got 'rounds'"),
        ("rounds= , ", "no values"),
        ("compare.attacks=none,data_poison", "compare.attacks configures compare"),
        ("trigger.values=1.5,-1.5,1.5", "trigger.values takes a list"),
        ("trigger.positions=13,14", "trigger.positions takes a list"),
    ])
    def test_bad_axis_exit_2_naming_the_axis(self, tiny_cfg, tmp_path, capsys, axis, message):
        out = tmp_path / "bad"
        code = main(["sweep", "--config", str(tiny_cfg), "--out", str(out), "--axis", axis])
        err = capsys.readouterr().err
        assert code == 2
        assert f"config error: sweep axis: {message}" in err, err
        assert not out.exists()

    def test_failed_summary_write_leaves_no_temp_file(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "sweep4"
        (out / "sweep_summary.csv").mkdir(parents=True)
        code = main(["sweep", "--config", str(tiny_cfg), "--out", str(out),
                     "--axis", "rounds=2", "--format", "csv"])
        assert code == 1
        assert "sweep_summary.csv" in capsys.readouterr().err
        assert not (out / "sweep_summary.csv.tmp").exists()


class TestDivergence:
    # A hidden layer and a huge step size overflow to NaN in round 1.
    DIVERGE = ["--set", "model.hidden_dim=8", "--set", "train.learning_rate=1e300"]

    def test_run_exits_1_naming_round_and_client(self, tiny_cfg, tmp_path):
        # a child process, so numpy's warnings would reach its stderr as a user sees them
        done = _fedsim_process("run", "--config", str(tiny_cfg), "--out", str(tmp_path),
                               *self.DIVERGE)
        assert done.returncode == 1
        assert "round 1" in done.stderr and "client" in done.stderr
        assert "Traceback" not in done.stderr
        assert "RuntimeWarning" not in done.stderr

    def test_run_exits_1_when_the_new_global_model_overflows(self, tiny_cfg, tmp_path,
                                                              monkeypatch, capsys):
        # finite updates whose mean is finite but whose sum with the global model is not
        real_build = sim.build_state
        monkeypatch.setattr(sim, "build_state", lambda cfg: dataclasses.replace(
            real_build(cfg), global_params=np.full(cfg.model.param_count(), 1.5e308)))
        monkeypatch.setattr(sim, "_round_updates", lambda states, cfgs: [
            [ClientUpdate(i, np.full(cfg.model.param_count(), 4e307)) for i in range(4)]
            for cfg in cfgs])
        code = main(["run", "--config", str(tiny_cfg), "--out", str(tmp_path),
                     "--set", "defense.kind=fedavg"])
        assert code == 1
        assert capsys.readouterr().err == ("error: round 1, defense.kind fedavg: the new global "
                                           "model has NaN or Inf entries; not applied\n")

    def test_run_exits_1_when_the_logits_overflow_at_evaluation(self, tmp_path, capsys):
        # rows this far apart overflow the logits of the model that round 1 trains
        path = tmp_path / "base.cfg"
        path.write_text(CONTRACT_BASE)
        code = main(["run", "--config", str(path), "--out", str(tmp_path),
                     "--set", "data.class_sep=1e308", "--set", "rounds=1"])
        assert code == 1
        assert capsys.readouterr().err == ("error: round 1: the model's logits on the evaluation "
                                           "rows are not finite (NaN or Inf); not reported\n")

    def test_sweep_records_failure_and_finishes(self, tiny_cfg, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(tiny_cfg), "--out", str(out),
                     "--set", "model.hidden_dim=8",
                     "--axis", "train.learning_rate=0.05,1e300,0.02", "--format", "csv"])
        assert code == 1
        rows = (out / "sweep_summary.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["0.05", "0.02"]
        assert "train.learning_rate=1e300: FAILED" in capsys.readouterr().err


class TestCompare:
    def test_matrix_rows_sorted(self, tiny_cfg, tmp_path):
        out = tmp_path / "cmp"
        code = main(["compare", "--config", str(tiny_cfg), "--out", str(out)])
        assert code == 0
        lines = (out / "compare_matrix.csv").read_text().splitlines()
        assert lines[0] == "attack,defense,final_acc,final_asr"
        combos = [tuple(l.split(",")[:2]) for l in lines[1:]]
        assert combos == [
            ("data_poison", "faros"),
            ("data_poison", "fedavg"),
            ("none", "faros"),
            ("none", "fedavg"),
        ]

    def test_builds_one_state_and_matches_fresh_runs(self, tiny_cfg, tmp_path, monkeypatch):
        attacks = ("none", "data_poison", "model_replacement", "constrain_and_scale",
                   "edge_case_pgd")
        defenses = ("fedavg", "multi_krum", "weak_dp", "scope_static", "faros")
        built = []
        real_build = sim.build_state
        monkeypatch.setattr(sim, "build_state", lambda cfg: built.append(cfg) or real_build(cfg))
        # every trained row's (round, global bytes, client, attack-or-None) input,
        # and the number of stacks the rows came in
        trained, stacks = [], []
        real_train = sim._train_group

        def train(state, cfg, attack, client_id, seed, global_params):
            trained.extend((state.round, g.tobytes(), client_id, attack) for g in global_params)
            stacks.append(len(global_params))
            return real_train(state, cfg, attack, client_id, seed, global_params)

        monkeypatch.setattr(sim, "_train_group", train)
        # 4 clients a round: krum_f=0 keeps Multi-Krum within k >= 2f + 3
        code = main(["compare", "--config", str(tiny_cfg), "--out", str(tmp_path),
                     "--set", "defense.krum_f=0",
                     "--set", "compare.attacks=" + ",".join(attacks),
                     "--set", "compare.defenses=" + ",".join(defenses)])
        assert code == 0
        assert len(built) == 1
        rows = (tmp_path / "compare_matrix.csv").read_text().splitlines()[1:]
        assert len(rows) == 25
        shared, shared_stacks = list(trained), list(stacks)
        trained.clear()
        stacks.clear()
        monkeypatch.setattr(sim, "build_state", real_build)
        raw = {**load_config_file(tiny_cfg), "defense.krum_f": "0"}
        for row in rows:
            attack, defense, acc, asr = row.split(",")
            cell = build_config({**raw, "attack.kind": attack, "defense.kind": defense}).sim
            summary = sim.summarize(sim.run_simulation(cell))
            assert (acc, asr) == (f"{summary['final_acc']:.9g}", f"{summary['final_asr']:.9g}")
        # compare trains each distinct input of the 25 fresh runs once a round,
        # as rows of stacks; a run alone trains stacks of one
        assert len(trained) == 25 * 5 * 4 == len(stacks) and set(stacks) == {1}
        assert len(shared) == len(set(trained)) < len(trained)
        assert set(shared) == set(trained)
        assert len(shared_stacks) < len(shared) and max(shared_stacks) > 1

    def test_first_failed_cell_in_order_is_reported(self, tiny_cfg, tmp_path, monkeypatch,
                                                    capsys):
        # Only the one cell of each attack trains its roster member that way, so
        # each planted divergence fires in its own cell: data_poison's at round 4,
        # and model_replacement's, which comes later in order, at round 2.
        # constrain_and_scale, first in order, finishes.
        fail_at = {"data_poison": 4, "model_replacement": 2}
        real_train = sim._train_group

        def train(state, cfg, attack, client_id, seed, global_params):
            deltas = real_train(state, cfg, attack, client_id, seed, global_params)
            if attack is not None and fail_at.get(attack.kind) == state.round:
                deltas = np.full_like(deltas, np.nan)
            return deltas

        monkeypatch.setattr(sim, "_train_group", train)
        code = main(["compare", "--config", str(tiny_cfg), "--out", str(tmp_path),
                     "--set", "compare.attacks=constrain_and_scale,data_poison,model_replacement",
                     "--set", "compare.defenses=fedavg"])
        assert code == 1
        out, err = capsys.readouterr()
        assert [line.split(":")[0] for line in out.splitlines()] == ["constrain_and_scale vs fedavg"]
        assert "round 4" in err and "round 2" not in err
        assert not (tmp_path / "compare_matrix.csv").exists()

    def test_one_diverging_row_of_a_shared_stack_fails_only_its_cell(
            self, tiny_cfg, tmp_path, monkeypatch, capsys):
        # From round 2 the faros and fedavg cells hold different global models,
        # so each client trains as one stack of two rows. At round 3 only the
        # rows trained from fedavg's model diverge: fedavg fails at its first
        # client, and faros, before it in order, keeps the records of a run alone.
        raw = load_config_file(tiny_cfg)
        cell, other = (build_config({**raw, "attack.kind": "data_poison",
                                     "defense.kind": kind}).sim for kind in ("faros", "fedavg"))
        state = sim.build_state(other)
        for _ in range(2):
            state, _ = sim.run_round(state, other)
        poisoned = state.global_params.tobytes()
        real_train = sim._train_group
        stacks = []

        def train(state, cfg, attack, client_id, seed, global_params):
            deltas = real_train(state, cfg, attack, client_id, seed, global_params)
            if state.round == 3:
                stacks.append(len(global_params))
                hit = [[g.tobytes() == poisoned] for g in global_params]
                deltas = np.where(hit, np.inf, deltas)
            return deltas

        monkeypatch.setattr(sim, "_train_group", train)
        code = main(["compare", "--config", str(tiny_cfg), "--out", str(tmp_path),
                     "--set", "compare.attacks=data_poison",
                     "--set", "compare.defenses=faros,fedavg"])
        assert code == 1
        out, err = capsys.readouterr()
        assert max(stacks) == 2
        monkeypatch.setattr(sim, "_train_group", real_train)
        summary = sim.summarize(sim.run_simulation(cell))
        assert out.splitlines() == [f"data_poison vs faros: acc={summary['final_acc']:.9g} "
                                    f"asr={summary['final_asr']:.9g}"]
        first = sim._sample_forced(cell, 3)[0]
        assert f"round 3, client {first}" in err
        assert not (tmp_path / "compare_matrix.csv").exists()

    def test_a_compare_of_n_cells_makes_2n_evaluations(self, tiny_cfg, tmp_path, monkeypatch):
        calls = []
        real_accuracy = sim.accuracy
        monkeypatch.setattr(sim, "accuracy", lambda *a: calls.append(a) or real_accuracy(*a))
        assert main(["compare", "--config", str(tiny_cfg), "--out", str(tmp_path)]) == 0
        # 4 cells of 5 rounds under eval_every = 1: ACC and ASR of round 5 only
        assert len(calls) == 2 * 4

    def test_cells_evaluate_only_the_last_evaluated_round_of_their_fresh_run(
            self, tiny_cfg, tmp_path, monkeypatch, capsys):
        evaluated = []
        real_accuracy = sim.accuracy

        def accuracy(params, spec, x, y):
            evaluated.append((params.tobytes(), x.tobytes(), np.asarray(y).tobytes()))
            return real_accuracy(params, spec, x, y)

        monkeypatch.setattr(sim, "accuracy", accuracy)
        # 5 rounds, evaluated every 2: round 4 is the last evaluated one
        code = main(["compare", "--config", str(tiny_cfg), "--out", str(tmp_path),
                     "--set", "eval_every=2"])
        assert code == 0
        compared = list(evaluated)
        rows = (tmp_path / "compare_matrix.csv").read_text().splitlines()[1:]
        printed = capsys.readouterr().out.splitlines()
        raw = {**load_config_file(tiny_cfg), "eval_every": "2"}
        fresh = []
        for row, line in zip(rows, printed, strict=True):
            attack, defense, acc, asr = row.split(",")
            evaluated.clear()
            records = sim.run_simulation(
                build_config({**raw, "attack.kind": attack, "defense.kind": defense}).sim)
            assert [r.round for r in records] == [2, 4]
            summary = sim.summarize(records)
            assert (acc, asr) == (f"{summary['final_acc']:.9g}", f"{summary['final_asr']:.9g}")
            assert line == f"{attack} vs {defense}: acc={acc} asr={asr}"
            fresh += evaluated[2:]
        # the compare evaluated each cell's round-4 model on the two test sets, nothing else
        assert compared == fresh

    def test_each_trained_row_is_wrapped_in_one_client_update(self, tiny_cfg, tmp_path,
                                                              monkeypatch):
        rows, wrapped = [], []
        real_train, real_update = sim._train_group, sim.ClientUpdate

        def train(state, cfg, attack, client_id, seed, global_params):
            rows.extend([client_id] * len(global_params))
            return real_train(state, cfg, attack, client_id, seed, global_params)

        monkeypatch.setattr(sim, "_train_group", train)
        monkeypatch.setattr(sim, "ClientUpdate",
                            lambda i, delta: wrapped.append(i) or real_update(i, delta))
        code = main(["compare", "--config", str(tiny_cfg), "--out", str(tmp_path),
                     "--set", "compare.attacks=data_poison",
                     "--set", "compare.defenses=faros,fedavg"])
        assert code == 0
        # the two cells share their round-1 rows, so fewer rows train than they aggregate
        assert len(rows) < 2 * 5 * 4
        assert sorted(wrapped) == sorted(rows)

    @pytest.mark.parametrize("key", ["compare.attacks", "compare.defenses"])
    @pytest.mark.parametrize("command", ["compare", "validate-config"])
    def test_repeated_kind_exit_2_naming_key(self, tiny_cfg, tmp_path, capsys, key, command):
        kinds = "none,none" if key == "compare.attacks" else "faros,fedavg,faros"
        out = ["--out", str(tmp_path)] if command == "compare" else []
        assert main([command, "--config", str(tiny_cfg), *out, "--set", f"{key}={kinds}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err and "Traceback" not in err
        assert not (tmp_path / "compare_matrix.csv").exists()

    def test_requires_compare_lists(self, tmp_path):
        cfg = tmp_path / "nolists.cfg"
        cfg.write_text("rounds = 2\ndata.n_per_class = 30\n")
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "command,option",
    [("compare", ["--format", "json"]), ("validate-config", ["--out", "x"]),
     ("validate-config", ["--format", "json"])],
)
def test_option_a_command_does_not_read_is_rejected(command, option, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--config", str(REPO_CONFIGS / "compare_small.cfg"), *option])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_honest_majority_warning_prints_once_per_run(tiny_cfg, tmp_path):
    # 6 of 12 clients malicious: 2 of every 4 sampled are expected to be
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        code = main(["run", "--config", str(tiny_cfg), "--out", str(tmp_path),
                     "--set", "malicious_count=6", "--set", "force_c_per_round=none",
                     "--set", "rounds=1"])
    assert code == 0
    assert [str(w.message) for w in caught] == [
        "expected malicious share per round is not an honest majority"
    ]


class TestValidateConfig:
    def test_accepts_all_shipped_configs(self, capsys):
        shipped = sorted(REPO_CONFIGS.glob("*.cfg"))
        assert shipped, "no shipped configs found"
        for cfg in shipped:
            assert main(["validate-config", "--config", str(cfg)]) == 0, cfg

    def test_rejects_unknown_key_mutation(self, tmp_path, capsys):
        for cfg in sorted(REPO_CONFIGS.glob("*.cfg")):
            mutated = tmp_path / cfg.name
            mutated.write_text(cfg.read_text() + "\nmystery.knob = 1\n")
            assert main(["validate-config", "--config", str(mutated)]) == 2
            assert "mystery.knob" in capsys.readouterr().err

    def test_data_size_cap_is_inclusive(self, capsys):
        # 2048 * 2048 * 16 center differences is exactly the 2**26-element cap
        standard = str(REPO_CONFIGS / "standard.cfg")
        assert main(["validate-config", "--config", standard, "--set", "data.num_classes=2048"]) == 0
        assert main(["validate-config", "--config", standard, "--set", "data.num_classes=2049"]) == 2
        # 10 * (500 + 40) * 12427 blob entries are just under it, 12428 just over
        assert main(["validate-config", "--config", standard, "--set", "data.feature_dim=12427"]) == 0
        assert main(["validate-config", "--config", standard, "--set", "data.feature_dim=12428"]) == 2
        assert "data.test_per_class" in capsys.readouterr().err

    def test_model_size_cap_is_inclusive(self, capsys):
        standard = ["validate-config", "--config", str(REPO_CONFIGS / "standard.cfg")]
        # 12427 * 10 * (500 + 40) hidden activations are just under the 2**26 cap
        assert main([*standard, "--set", "model.hidden_dim=12427"]) == 0
        assert main([*standard, "--set", "model.hidden_dim=12428"]) == 2
        assert "model.hidden_dim" in capsys.readouterr().err
        # with 6000 features a round's update matrix binds first: 10 * (1116 * 6001 + 10 * 1117)
        wide = [*standard, "--set", "data.feature_dim=6000"]
        assert main([*wide, "--set", "model.hidden_dim=1116"]) == 0
        assert main([*wide, "--set", "model.hidden_dim=1117"]) == 2
        assert "clients_per_round * the parameter count for model.hidden_dim" in capsys.readouterr().err
        # one client per round leaves the parameter count alone: 11164 * 6001 + 10 * 11165
        single = [*wide, "--set", "clients_per_round=1"]
        assert main([*single, "--set", "model.hidden_dim=11164"]) == 0
        assert main([*single, "--set", "model.hidden_dim=11165"]) == 2
        assert "clients_per_round * the parameter count for model.hidden_dim" in capsys.readouterr().err

    def test_rejects_bad_value_naming_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rounds = many\n")
        assert main(["validate-config", "--config", str(cfg)]) == 2
        assert "rounds" in capsys.readouterr().err

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # some editors save UTF-8 with a leading byte-order mark
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfrounds = 3\n")
        assert main(["validate-config", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("ok: 1 keys")
        assert load_config_file(cfg) == {"rounds": "3"}

    @pytest.mark.parametrize("text,overrides,message", [
        (b"\xff\xfe rounds = 3\n", [], "cannot read config {path}: 'utf-8' codec can't decode"),
        (b"rounds = 3\nrounds 4  # no equals sign\n", [],
         "{path}:2: expected key = value, got 'rounds 4'"),
        (b"rounds = 3\n", ["--set", "rounds"], "override: expected key = value, got 'rounds'"),
        (b"rounds = 3\n# rounds = 9\nrounds = 4\n", [], "{path}:3: 'rounds' is already set on line 1"),
    ], ids=["not-utf8", "line-without-equals", "set-without-equals", "key-set-twice"])
    def test_unreadable_or_malformed_input_exit_2(self, tmp_path, capsys, text, overrides,
                                                  message):
        cfg = tmp_path / "in.cfg"
        cfg.write_bytes(text)
        assert main(["validate-config", "--config", str(cfg), *overrides]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + message.format(path=cfg))
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key,value",
        [
            ("master_seed", "-1"),
            ("clients_per_round", "0"),
            ("rounds", "0"),
            ("eval_every", "0"),
            ("train.batch_size", "0"),
            ("train.local_epochs", "0"),
            ("train.learning_rate", "-0.5"),
            ("train.learning_rate", "inf"),
            ("train.learning_rate", "nan"),
            ("model.hidden_dim", "-1"),
            ("data.num_classes", "1"),
            ("data.feature_dim", "0"),
            ("data.feature_dim", "1"),
            ("trigger.target_label", "-1"),
            ("trigger.target_label", "99"),
            ("trigger.positions", "13,14,99"),
            ("data.test_per_class", "0"),
            ("data.n_per_class", "0"),
            ("data.class_sep", "0"),
            ("data.dirichlet_q", "-1"),
            ("attack.poison_rate", "2"),
            ("attack.poison_rate", "0"),
            ("attack.edge_fraction", "1"),
            ("data.n_per_class", "4"),
            ("attack.boost", "nan"),
            ("defense.phi_max", "nan"),
            ("trigger.values", "nan,1.5,1.5"),
            ("attack.boost", "inf"),
            ("defense.noise_std", "inf"),
            ("defense.phi_max", "inf"),
            ("defense.phi_static", "inf"),
            ("defense.kappa", "inf"),
            ("eval_every", "101"),
            ("defense.core_size", "0"),
            ("defense.core_size", "20"),
            ("defense.accept_count", "0"),
            ("defense.accept_count", "11"),
            ("defense.krum_f", "-1"),
            # sizes whose blob draw would need terabytes
            ("data.num_classes", "1000000"),
            ("data.feature_dim", "1000000"),
            # 10 clients' updates of 67.1M parameters each, about 5 GiB a round
            ("model.hidden_dim", "11164"),
            # with 45 of 50 clients malicious, 9 honest slots cannot be filled
            ("force_c_per_round", "1"),
        ],
    )
    def test_bad_spec_value_exit_2_naming_key(self, key, value, capsys):
        context = {
            ("force_c_per_round", "1"): ["--set", "malicious_count=45"],
            ("model.hidden_dim", "11164"): ["--set", "data.feature_dim=6000"],
        }.get((key, value), [])
        code = main(["validate-config", "--config", str(REPO_CONFIGS / "standard.cfg"),
                     *context, "--set", f"{key}={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err


def _fedsim_process(*args):
    """``python -m fedsim *args`` in a child process run from a clean checkout."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run([sys.executable, "-m", "fedsim", *args], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=120)


def test_python_dash_m_runs_from_a_clean_checkout():
    ok = _fedsim_process("validate-config", "--config", "configs/standard.cfg")
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.startswith("ok")
    bad = _fedsim_process("validate-config", "--config", "configs/standard.cfg",
                          "--set", "mystery.knob=1")
    assert bad.returncode == 2
    assert "mystery.knob" in bad.stderr


# ROADMAP O: the CLI contract as a property. A tiny config (2 rounds of 8
# clients on 24 rows) is overridden with values at each key's boundaries.
CONTRACT_BASE = """
total_clients = 8
clients_per_round = 4
malicious_count = 2
rounds = 2
master_seed = 3
force_c_per_round = 1
data.num_classes = 3
data.feature_dim = 4
data.n_per_class = 8
data.test_per_class = 4
trigger.positions = 1,2
trigger.values = 2.0,-2.0
train.local_epochs = 1
attack.kind = model_replacement
defense.kind = faros
"""
# the keys that scale a run's work, and the largest value drawn for each
CONTRACT_CAPS = {
    "total_clients": 16, "clients_per_round": 16, "malicious_count": 16, "rounds": 2,
    "eval_every": 2, "data.num_classes": 8, "data.feature_dim": 8, "data.n_per_class": 16,
    "data.test_per_class": 16, "model.hidden_dim": 8, "train.local_epochs": 2,
}
# values at the edges of every type, drawn for every key
CONTRACT_EDGES = ("0", "1", "-1", "1e308", "nan", "inf", "-inf", "", "none", "true", "bogus")
# the warnings a valid config or round may raise, by message
CONTRACT_WARNINGS = ("forced malicious count", "expected malicious share", "multi-krum has k=",
                     "client [0-9]+ sent an all-zero update")


def _bound_values() -> dict:
    """key -> the values drawn for it besides CONTRACT_EDGES: each end of a bounded
    field's interval and the integers beside it, each kind of a kind field, and
    each side of every limit of ``SimConfig._limits`` at CONTRACT_BASE whose key or
    limit key is a config key."""
    values = {key: set() for key in cfgmod.KEY_PARSERS}
    for section, cls in cfgmod._SECTIONS.items():
        for f in dataclasses.fields(cls):
            key, bound = cfgmod._key(section, f.name), f.metadata.get("bound")
            if key not in values or bound is None:
                continue
            if isinstance(bound, tuple):
                values[key] |= set(bound)
                continue
            for end in map(float, bound[1:-1].split(",")):
                if math.isfinite(end) and int in (f.type, *typing.get_args(f.type)):
                    values[key] |= {str(int(end) + d) for d in (-1, 0, 1)}
                elif math.isfinite(end):
                    values[key].add(repr(end))
    values["parallel_clients"] |= {"true", "false"}
    values["trigger.positions"] |= {"0,0", "3", "1,2,3"}
    values["trigger.values"] |= {"1,1", "1,-1"}
    for key in ("compare.attacks", "compare.defenses"):
        values[key] |= {"none,faros", "faros,faros"}
    base = build_config(cfgmod.parse_config_text(CONTRACT_BASE)).sim
    for key, value, limit_key, limit in base._limits():
        if value is not None:
            for k, texts in ((key, (limit, limit + 1)), (limit_key, (value - 1, value))):
                if k in values:
                    values[k] |= {str(t) for t in texts}
    for key, cap in CONTRACT_CAPS.items():
        values[key] = {v for v in values[key] if not v.lstrip("-").isdigit() or int(v) <= cap}
    return {key: sorted(v) for key, v in values.items()}


CONTRACT_VALUES = _bound_values()
# a key's own bound values twice as often as the edges of every type
_overrides = st.lists(
    st.sampled_from(sorted(CONTRACT_VALUES)).flatmap(lambda key: st.tuples(st.just(key), (
        st.sampled_from(CONTRACT_VALUES[key]) | st.sampled_from(CONTRACT_VALUES[key])
        | st.sampled_from(CONTRACT_EDGES)))),
    min_size=1, max_size=3, unique_by=lambda kv: kv[0])


@contextlib.contextmanager
def _contract_warnings():
    """Any warning outside CONTRACT_WARNINGS raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for message in CONTRACT_WARNINGS:
            warnings.filterwarnings("ignore", message, RuntimeWarning)
        yield


def _contract_main(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr."""
    err = io.StringIO()
    with _contract_warnings(), contextlib.redirect_stderr(err):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    return code, err.getvalue()


@given(_overrides)
# evaluating a model whose logits overflow printed numpy's warning
@example([("data.class_sep", "1e308")])
@settings(max_examples=150, deadline=None)
def test_cli_contract_at_boundary_values(overrides):
    sets = [f"{key}={value}" for key, value in overrides]
    argv = [arg for item in sets for arg in ("--set", item)]
    try:
        with _contract_warnings():
            build_config(cfgmod.apply_overrides(cfgmod.parse_config_text(CONTRACT_BASE), sets))
        builds = True
    except ConfigError:
        builds = False
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "base.cfg")
        with open(path, "w") as f:
            f.write(CONTRACT_BASE)
        code, err = _contract_main(["validate-config", "--config", path, *argv])
        assert code == (0 if builds else 2), err
        if code == 2:
            # one line, naming a key that was set
            assert err.startswith("config error: ") and err.count("\n") == 1, err
            assert any(key in err for key, _ in overrides), err
            return
        code, err = _contract_main(["run", "--config", path, "--out", out, "--format", "csv",
                                    *argv])
        assert code in (0, 1), err
        assert err == "" if code == 0 else err.startswith("error: "), err

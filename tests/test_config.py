"""The config key list, the config every shipped file builds, and bad values.

Expected keys and values are written out here, not read from the config
dataclasses, so a renamed key or a changed default fails a test. The bound
tests at the end read each bound from its field and try its endpoints.
"""

import dataclasses
import math
import re
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

from fedsim import config
from fedsim.attacks import AttackConfig
from fedsim.cli import main
from fedsim.data import TriggerSpec, blob_arrays, dirichlet_partition
from fedsim.defenses import DefenseConfig, adaptive_phi
from fedsim.errors import ConfigError
from fedsim.model import ModelSpec, TrainSpec
from fedsim.sim import DataConfig, SimConfig

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"

KEYS = [
    "total_clients",
    "clients_per_round",
    "malicious_count",
    "rounds",
    "eval_every",
    "master_seed",
    "force_c_per_round",
    "parallel_clients",
    "data.num_classes",
    "data.feature_dim",
    "data.n_per_class",
    "data.test_per_class",
    "data.class_sep",
    "data.dirichlet_q",
    "trigger.positions",
    "trigger.values",
    "trigger.target_label",
    "model.hidden_dim",
    "train.local_epochs",
    "train.batch_size",
    "train.learning_rate",
    "attack.kind",
    "attack.poison_rate",
    "attack.boost",
    "attack.alpha",
    "attack.pgd_radius",
    "attack.edge_fraction",
    "defense.kind",
    "defense.phi_max",
    "defense.kappa",
    "defense.core_size",
    "defense.accept_count",
    "defense.krum_f",
    "defense.clip_norm",
    "defense.noise_std",
    "defense.phi_static",
    "compare.attacks",
    "compare.defenses",
]

# build_config({}) flattened to dotted field paths, plus the compare lists.
DEFAULT = {
    "total_clients": 50,
    "clients_per_round": 10,
    "malicious_count": 10,
    "rounds": 100,
    "eval_every": 1,
    "master_seed": 7,
    "force_c_per_round": None,
    "parallel_clients": False,
    "model.input_dim": 16,
    "model.num_classes": 10,
    "model.hidden_dim": 0,
    "train.local_epochs": 2,
    "train.batch_size": 32,
    "train.learning_rate": 0.25,
    "data.num_classes": 10,
    "data.feature_dim": 16,
    "data.n_per_class": 100,
    "data.test_per_class": 40,
    "data.class_sep": 6.0,
    "data.dirichlet_q": 0.4,
    "attack.kind": "none",
    "attack.trigger.positions": (13, 14, 15),
    "attack.trigger.values": (8.0, -8.0, 8.0),
    "attack.trigger.target_label": 0,
    "attack.poison_rate": 0.5,
    "attack.boost": None,
    "attack.alpha": 0.5,
    "attack.pgd_radius": 2.0,
    "attack.edge_fraction": 0.2,
    "defense.kind": "fedavg",
    "defense.phi_max": 3.0,
    "defense.kappa": 50.0,
    "defense.core_size": None,
    "defense.accept_count": None,
    "defense.krum_f": 2,
    "defense.clip_norm": 5.0,
    "defense.noise_std": 0.0,
    "defense.phi_static": 1.5,
    "compare.attacks": (),
    "compare.defenses": (),
}


# Each shipped config's built values that differ from DEFAULT.
SHIPPED = {
    "standard.cfg": {
        "master_seed": 18,
        "data.n_per_class": 500,
        "attack.trigger.values": (1.5, -1.5, 1.5),
        "train.batch_size": 4000,
        "train.learning_rate": 0.02,
        "attack.poison_rate": 1.0,
        "attack.boost": 10.0,
        "attack.edge_fraction": 0.95,
        "defense.noise_std": 0.01,
    },
    "replacement_vs_faros.cfg": {
        "master_seed": 18,
        "force_c_per_round": 2,
        "data.n_per_class": 500,
        "attack.trigger.values": (1.5, -1.5, 1.5),
        "train.batch_size": 4000,
        "train.learning_rate": 0.02,
        "attack.kind": "model_replacement",
        "attack.boost": 10.0,
        "attack.poison_rate": 1.0,
        "defense.kind": "faros",
    },
    "edge_case_detection.cfg": {
        "master_seed": 18,
        "force_c_per_round": 2,
        "data.n_per_class": 500,
        "attack.trigger.values": (5.0, -5.0, 5.0),
        "train.batch_size": 4000,
        "train.learning_rate": 0.02,
        "attack.kind": "edge_case_pgd",
        "attack.poison_rate": 1.0,
        "attack.edge_fraction": 0.95,
        "defense.kind": "faros",
        "defense.accept_count": 8,
    },
    "compare_small.cfg": {
        "total_clients": 30,
        "clients_per_round": 8,
        "malicious_count": 6,
        "rounds": 15,
        "master_seed": 18,
        "force_c_per_round": 2,
        "data.n_per_class": 200,
        "data.test_per_class": 20,
        "attack.trigger.values": (1.5, -1.5, 1.5),
        "train.batch_size": 2000,
        "train.learning_rate": 0.02,
        "attack.boost": 8.0,
        "attack.poison_rate": 1.0,
        "compare.attacks": ("none", "model_replacement", "constrain_and_scale"),
        "compare.defenses": ("fedavg", "faros"),
    },
}

# One value per key that its parser or its checks reject.
MALFORMED = {
    "total_clients": "many",
    "clients_per_round": "x",
    "malicious_count": "1.5",
    "rounds": "many",
    "eval_every": "often",
    "master_seed": "seven",
    "force_c_per_round": "two",
    "parallel_clients": "maybe",
    "data.num_classes": "ten",
    "data.feature_dim": "16.5",
    "data.n_per_class": "lots",
    "data.test_per_class": "x",
    "data.class_sep": "wide",
    "data.dirichlet_q": "q",
    "trigger.positions": "13,x,15",
    "trigger.values": "1.5,up,1.5",
    "trigger.target_label": "zero",
    "model.hidden_dim": "none",
    "train.local_epochs": "two",
    "train.batch_size": "big",
    "train.learning_rate": "fast",
    "attack.kind": "bogus",
    "attack.poison_rate": "half",
    "attack.boost": "huge",
    "attack.alpha": "a",
    "attack.pgd_radius": "r",
    "attack.edge_fraction": "f",
    "defense.kind": "median",
    "defense.phi_max": "p",
    "defense.kappa": "k",
    "defense.core_size": "half",
    "defense.accept_count": "most",
    "defense.krum_f": "f",
    "defense.clip_norm": "c",
    "defense.noise_std": "n",
    "defense.phi_static": "s",
    "compare.attacks": "none,bogus",
    "compare.defenses": "fedavg,median",
}

# A second rejected value for the float keys whose checks must also refuse
# non-finite input (an infinite clip_norm or pgd_radius is allowed: it means
# no clipping or no projection).
NON_FINITE = {
    "trigger.values": "nan,1.5,1.5",
    "attack.boost": "inf",
    "defense.phi_max": "inf",
    "defense.kappa": "inf",
    "defense.noise_std": "inf",
    "defense.phi_static": "inf",
}


def _flat(obj, prefix=""):
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            out.update(_flat(value, f"{prefix}{f.name}."))
        else:
            out[prefix + f.name] = value
    return out


def _built(raw):
    exp = config.build_config(raw)
    return {
        **_flat(exp.sim),
        "compare.attacks": exp.compare_attacks,
        "compare.defenses": exp.compare_defenses,
    }


def _assert_same(got, expected):
    assert got == expected
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in expected.items()}


def test_key_list_and_order():
    assert list(config.KEY_PARSERS) == KEYS


def test_no_config_field_is_ignored():
    # a field that is neither a key nor filled and checked is a knob that nothing reads
    for section, cls in config._SECTIONS.items():
        for f in dataclasses.fields(cls):
            key = config._key(section, f.name)
            if f.type in config._SECTIONS.values() or key in config.KEY_PARSERS:
                continue
            assert key in config._FILLED_BY_SIMULATOR, key
            part = getattr(SimConfig(), section)
            part = dataclasses.replace(part, **{f.name: getattr(part, f.name) + 1})
            with pytest.raises(ConfigError, match=re.escape(key)):
                SimConfig(**{section: part})


@pytest.mark.parametrize("make", [SimConfig, DataConfig, lambda: ModelSpec(16, 10), TrainSpec,
                                  AttackConfig, TriggerSpec, DefenseConfig,
                                  lambda: config.ExperimentConfig(SimConfig())],
                         ids=["SimConfig", "DataConfig", "ModelSpec", "TrainSpec", "AttackConfig",
                              "TriggerSpec", "DefenseConfig", "ExperimentConfig"])
def test_configs_are_frozen(make):
    # a config is checked when it is built, so none may change afterwards
    cfg = make()
    name = dataclasses.fields(cfg)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, name, getattr(cfg, name))


@pytest.mark.parametrize("command,built", [("run", 1), ("compare", 7)])
def test_a_command_checks_each_config_once(command, built, monkeypatch, tmp_path):
    # compare_small.cfg's compare builds its config, then one per cell: 1 + 3 x 2
    real, calls = SimConfig._limits, []
    monkeypatch.setattr(SimConfig, "_limits", lambda cfg: calls.append(cfg) or real(cfg))
    code = main([command, "--config", str(REPO_CONFIGS / "compare_small.cfg"),
                 "--out", str(tmp_path), "--set", "rounds=2"])
    assert code == 0
    assert len(calls) == built


def test_shipped_configs_cover_every_key():
    used = set()
    for path in REPO_CONFIGS.glob("*.cfg"):
        used |= set(config.load_config_file(path))
    assert sorted(used) == sorted(KEYS)


def test_empty_config_builds_the_defaults():
    _assert_same(_built({}), DEFAULT)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_builds_pinned_values(name):
    raw = config.load_config_file(REPO_CONFIGS / name)
    _assert_same(_built(raw), {**DEFAULT, **SHIPPED[name]})


def test_every_shipped_config_is_pinned():
    assert sorted(p.name for p in REPO_CONFIGS.glob("*.cfg")) == sorted(SHIPPED)


def test_malformed_table_covers_every_key():
    assert list(MALFORMED) == KEYS


@pytest.mark.parametrize("key", KEYS)
def test_malformed_value_exit_2_naming_key(key, capsys):
    for value in filter(None, (MALFORMED[key], NON_FINITE.get(key))):
        code = main(["validate-config", "--config", str(REPO_CONFIGS / "standard.cfg"),
                     "--set", f"{key}={value}"])
        err = capsys.readouterr().err
        assert code == 2, (value, err)
        assert key in err
        assert "Traceback" not in err


# Keys that older configs may still name. Naming one must stop the run with
# the key named, not be ignored, since the value it held is no longer applied.
DELETED = [
    "defense.norm_strategy",
    "defense.sample_weighted",
    "defense.global_lr",
    "attack.pgd_per_step",
    "model.activation",
]


@pytest.mark.parametrize("key", DELETED)
def test_deleted_key_exit_2_naming_key(key, tmp_path, capsys):
    old = tmp_path / "old.cfg"
    old.write_text((REPO_CONFIGS / "standard.cfg").read_text() + f"\n{key} = 1\n")
    for argv in (["--config", str(old)],
                 ["--config", str(REPO_CONFIGS / "standard.cfg"), "--set", f"{key}=1"]):
        code = main(["validate-config", *argv])
        err = capsys.readouterr().err
        assert code == 2, (argv, err)
        assert f"unknown config key {key!r}" in err
        assert "Traceback" not in err


SECTIONS = ((SimConfig, ""), (DataConfig, "data"), (ModelSpec, "model"), (TrainSpec, "train"),
            (AttackConfig, "attack"), (DefenseConfig, "defense"))
BOUNDED = [(cls, section, f) for cls, section in SECTIONS
           for f in dataclasses.fields(cls) if "bound" in f.metadata]
INTERVALS = [b for b in BOUNDED if isinstance(b[2].metadata["bound"], str)]
KINDS = [b for b in BOUNDED if isinstance(b[2].metadata["bound"], tuple)]


def _id(case):
    return f"{case[0].__name__}.{case[2].name}"


def _key(section, f):
    return f.metadata["key"] or (f"{section}.{f.name}" if section else f.name)


def _build(cls, name, value):
    """``cls`` with ``name=value``; ModelSpec needs its two data-derived fields."""
    if cls is ModelSpec:
        return ModelSpec(**{"input_dim": 16, "num_classes": 10, name: value})
    return cls(**{name: value})


def _assert_rejected(cls, section, f, value):
    """Building ``cls`` with the value fails, naming the field's key."""
    with pytest.raises(ConfigError) as info:
        _build(cls, f.name, value)
    assert str(info.value).startswith(f"{_key(section, f)} must be in "), (value, info.value)


def _endpoints(f):
    """(accepted, rejected) values at the two ends of ``f``'s interval, and NaN."""
    bound = f.metadata["bound"]
    is_int = int in (f.type, *typing.get_args(f.type))
    accepted, rejected = [None] if f.default is None else [], [math.nan]
    for end, closed, outward in ((bound[1:].split(",")[0], bound[0] == "[", -math.inf),
                                 (bound[:-1].split(",")[1], bound[-1] == "]", math.inf)):
        end = float(end)
        if math.isfinite(end):
            end = int(end) if is_int else end
            rejected.append(end + (1 if outward > 0 else -1) if is_int else math.nextafter(end, outward))
        (accepted if closed else rejected).append(end)
    return accepted, rejected


@pytest.mark.parametrize("case", INTERVALS, ids=_id)
def test_bound_endpoints(case):
    cls, section, f = case
    accepted, rejected = _endpoints(f)
    for value in accepted:
        try:
            built = _build(cls, f.name, value)
        except ConfigError as e:
            # SimConfig's other defaults may break a limit that spans fields, never a bound
            assert cls is SimConfig and " must be at most " in str(e), (value, e)
            continue
        assert getattr(built, f.name) == value
    for value in rejected:
        _assert_rejected(cls, section, f, value)


@pytest.mark.parametrize("case", KINDS, ids=_id)
def test_kind_fields_accept_their_kinds_only(case):
    cls, section, f = case
    for kind in f.metadata["bound"]:
        assert getattr(_build(cls, f.name, kind), f.name) == kind
    for other in ("", "bogus", f.metadata["bound"][0].upper()):
        _assert_rejected(cls, section, f, other)


def test_every_numeric_field_carries_a_bound():
    unbounded = [f"{cls.__name__}.{f.name}" for cls, _ in SECTIONS for f in dataclasses.fields(cls)
                 if {int, float} & {f.type, *typing.get_args(f.type)} and "bound" not in f.metadata]
    assert not unbounded, unbounded
    assert len(INTERVALS) == 32 and len(KINDS) == 2


# public functions that take a value of a bounded field: (function, args), each
# with one NaN or infinite argument that the field's interval excludes
NON_FINITE_CALLS = [
    (adaptive_phi, (0.1, math.nan, 50.0)),  # phi_max in (1, inf)
    (adaptive_phi, (0.1, math.inf, 50.0)),
    (adaptive_phi, (0.1, 3.0, math.nan)),  # kappa in (0, inf)
    (adaptive_phi, (0.1, 3.0, math.inf)),
    (adaptive_phi, (math.nan, 3.0, 50.0)),  # d_t in [0, inf]
    (blob_arrays, (3, 4, 5, math.nan, 0)),  # class_sep in (0, inf)
    (blob_arrays, (3, 4, 5, math.inf, 0)),
    (dirichlet_partition, (np.repeat(np.arange(3), 8), 4, math.nan, 0)),  # q in (0, inf)
    (dirichlet_partition, (np.repeat(np.arange(3), 8), 4, math.inf, 0)),
]


@pytest.mark.parametrize("fn,args", NON_FINITE_CALLS,
                         ids=[f"{fn.__name__}{i}" for i, (fn, _) in enumerate(NON_FINITE_CALLS)])
def test_functions_reject_what_the_field_rejects(fn, args):
    with pytest.raises(ConfigError, match=r"must be in [\[(]"):
        fn(*args)


def test_infinite_dispersion_gives_the_least_power():
    assert adaptive_phi(math.inf, 3.0, 50.0) == 1.0


# the cross-field limits whose value is one config key, at standard.cfg's values
STANDARD = REPO_CONFIGS / "standard.cfg"
PLAIN_LIMITS = [(key, limit) for key, _, _, limit
                in config.build_config(config.load_config_file(STANDARD)).sim._limits()
                if key in config.KEY_PARSERS]


@pytest.mark.parametrize("key,limit", PLAIN_LIMITS, ids=[key for key, _ in PLAIN_LIMITS])
def test_cross_field_limit_is_inclusive(key, limit, capsys):
    validate = ["validate-config", "--config", str(STANDARD)]
    with warnings.catch_warnings():
        # malicious_count or force_c_per_round at its limit is not an honest majority
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main([*validate, "--set", f"{key}={limit}"]) == 0
        assert main([*validate, "--set", f"{key}={limit + 1}"]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be at most " in err
    assert "Traceback" not in err


def test_cross_field_limits_name_config_keys_only():
    assert [key for key, _ in PLAIN_LIMITS] == [
        "clients_per_round", "malicious_count", "eval_every", "defense.core_size",
        "defense.accept_count", "total_clients", "trigger.target_label", "force_c_per_round",
    ]
    # the words of the key texts that are not keys, so a renamed key cannot leave a stale row
    prose = {"max", "min", "the", "parameter", "count", "for"}
    for key, _, limit_key, _ in SimConfig()._limits():
        for text in (key, limit_key):
            assert set(re.findall(r"[a-z][a-z_.]*", text)) - prose <= set(config.KEY_PARSERS), text

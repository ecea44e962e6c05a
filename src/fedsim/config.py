"""Flat key-value experiment configs and dot-path overrides.

File format: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored. Keys mirror the simulation config structure (``defense.kind``,
``data.dirichlet_q``, ...); unknown keys are rejected by name. The
``compare.attacks`` / ``compare.defenses`` keys configure the comparison
matrix and are not part of the single-run config.
"""

from dataclasses import dataclass, field

from .attacks import ATTACK_KINDS, AttackConfig
from .data import TriggerSpec
from .defenses import DEFENSE_KINDS, DefenseConfig
from .errors import ConfigError
from .model import ModelSpec, TrainSpec
from .sim import DataConfig, SimConfig


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_opt_int(s: str):
    v = s.strip().lower()
    if v in ("none", ""):
        return None
    return int(s)


def _parse_int_list(s: str) -> tuple[int, ...]:
    s = s.strip()
    return tuple(int(x) for x in s.split(",")) if s else ()


def _parse_float_list(s: str) -> tuple[float, ...]:
    s = s.strip()
    return tuple(float(x) for x in s.split(",")) if s else ()


def _parse_str_list(s: str) -> tuple[str, ...]:
    s = s.strip()
    return tuple(x.strip() for x in s.split(",")) if s else ()


def _choice(options):
    def parse(s: str) -> str:
        v = s.strip()
        if v not in options:
            raise ValueError(f"must be one of {', '.join(options)}; got {v!r}")
        return v

    return parse


# key -> value parser; this is the complete documented key list.
KEY_PARSERS = {
    "total_clients": int,
    "clients_per_round": int,
    "malicious_count": int,
    "rounds": int,
    "eval_every": int,
    "master_seed": int,
    "force_c_per_round": _parse_opt_int,
    "parallel_clients": _parse_bool,
    "data.num_classes": int,
    "data.feature_dim": int,
    "data.n_per_class": int,
    "data.test_per_class": int,
    "data.class_sep": float,
    "data.dirichlet_q": float,
    "trigger.positions": _parse_int_list,
    "trigger.values": _parse_float_list,
    "trigger.target_label": int,
    "model.hidden_dim": int,
    "model.activation": _choice(("relu",)),
    "train.local_epochs": int,
    "train.batch_size": int,
    "train.learning_rate": float,
    "attack.kind": _choice(ATTACK_KINDS),
    "attack.poison_rate": float,
    "attack.boost": lambda s: None if s.strip().lower() == "none" else float(s),
    "attack.alpha": float,
    "attack.pgd_radius": float,
    "attack.edge_fraction": float,
    "attack.pgd_per_step": _parse_bool,
    "defense.kind": _choice(DEFENSE_KINDS),
    "defense.phi_max": float,
    "defense.kappa": float,
    "defense.core_size": _parse_opt_int,
    "defense.accept_count": _parse_opt_int,
    "defense.krum_f": int,
    "defense.clip_norm": float,
    "defense.noise_std": float,
    "defense.phi_static": float,
    "defense.global_lr": float,
    "defense.norm_strategy": _choice(("maxabs", "l2")),
    "defense.sample_weighted": _parse_bool,
    "compare.attacks": _parse_str_list,
    "compare.defenses": _parse_str_list,
}


@dataclass
class ExperimentConfig:
    """A parsed config file: the simulation config plus comparison lists."""

    sim: SimConfig
    compare_attacks: tuple[str, ...] = ()
    compare_defenses: tuple[str, ...] = ()
    raw: dict = field(default_factory=dict)


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse key = value lines into a raw string map; unknown keys are fatal."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key not in KEY_PARSERS:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        raw[key] = value.strip()
    return raw


def load_config_file(path) -> dict:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config_text(text, source=str(path))


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply ``key=value`` override strings; last one wins; unknown keys are fatal."""
    out = dict(raw)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in KEY_PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        out[key] = value.strip()
    return out


def _parsed_values(raw: dict) -> dict:
    values = {}
    for key, text in raw.items():
        try:
            values[key] = KEY_PARSERS[key](text)
        except (ValueError, ConfigError) as e:
            raise ConfigError(f"bad value for {key!r}: {e}") from e
    return values


def build_config(raw: dict) -> ExperimentConfig:
    """Turn a raw key map into a validated ExperimentConfig."""
    v = _parsed_values(raw)

    def get(key, default):
        return v.get(key, default)

    trigger = TriggerSpec(
        positions=get("trigger.positions", (13, 14, 15)),
        values=get("trigger.values", (8.0, -8.0, 8.0)),
        target_label=get("trigger.target_label", 0),
    )
    data = DataConfig(
        num_classes=get("data.num_classes", 10),
        feature_dim=get("data.feature_dim", 16),
        n_per_class=get("data.n_per_class", 100),
        test_per_class=get("data.test_per_class", 40),
        class_sep=get("data.class_sep", 6.0),
        dirichlet_q=get("data.dirichlet_q", 0.4),
        trigger=trigger,
    )
    model = ModelSpec(
        input_dim=data.feature_dim,
        num_classes=data.num_classes,
        hidden_dim=get("model.hidden_dim", 0),
        activation=get("model.activation", "relu"),
    )
    train = TrainSpec(
        local_epochs=get("train.local_epochs", 2),
        batch_size=get("train.batch_size", 32),
        learning_rate=get("train.learning_rate", 0.25),
        seed=0,
    )
    attack = AttackConfig(
        kind=get("attack.kind", "none"),
        trigger=trigger,
        poison_rate=get("attack.poison_rate", 0.5),
        boost=get("attack.boost", None),
        alpha=get("attack.alpha", 0.5),
        pgd_radius=get("attack.pgd_radius", 2.0),
        edge_fraction=get("attack.edge_fraction", 0.2),
        pgd_per_step=get("attack.pgd_per_step", False),
    )
    defense = DefenseConfig(
        kind=get("defense.kind", "fedavg"),
        phi_max=get("defense.phi_max", 3.0),
        kappa=get("defense.kappa", 50.0),
        core_size=get("defense.core_size", None),
        accept_count=get("defense.accept_count", None),
        krum_f=get("defense.krum_f", 2),
        clip_norm=get("defense.clip_norm", 5.0),
        noise_std=get("defense.noise_std", 0.0),
        phi_static=get("defense.phi_static", 1.5),
        global_lr=get("defense.global_lr", 1.0),
        norm_strategy=get("defense.norm_strategy", "maxabs"),
        sample_weighted=get("defense.sample_weighted", False),
    )
    sim = SimConfig(
        total_clients=get("total_clients", 50),
        clients_per_round=get("clients_per_round", 10),
        malicious_count=get("malicious_count", 10),
        rounds=get("rounds", 100),
        eval_every=get("eval_every", 1),
        master_seed=get("master_seed", 7),
        force_c_per_round=get("force_c_per_round", None),
        parallel_clients=get("parallel_clients", False),
        model=model,
        train=train,
        data=data,
        attack=attack,
        defense=defense,
    )
    sim.validate()
    return ExperimentConfig(
        sim=sim,
        compare_attacks=get("compare.attacks", ()),
        compare_defenses=get("compare.defenses", ()),
        raw=dict(raw),
    )

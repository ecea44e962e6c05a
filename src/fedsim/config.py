"""Flat key-value experiment configs and dot-path overrides.

File format: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored; unknown keys are rejected by name.

The config dataclasses are the only description of the keys. Each field of
``SimConfig`` is a key of its own name (``rounds``), and each field of its
sections is ``<section>.<field>``: ``data.`` (DataConfig), ``trigger.``
(TriggerSpec), ``model.`` (ModelSpec), ``train.`` (TrainSpec), ``attack.``
(AttackConfig) and ``defense.`` (DefenseConfig). A value is parsed by the
field's annotation, and an unset key takes the field's default. The field
is the only place its default and its bound (``errors.bounded``: an
interval such as ``(0, 1]``, or the kinds) are written. Every config
dataclass is frozen and checked once, when it is built: ``check_bounds``
checks every bound, naming the key, and ``SimConfig`` adds the limits that
span fields, each written once as a row of ``SimConfig._limits``. Two
fields are filled by the simulator and are not keys: ``model.input_dim``
and ``model.num_classes`` (from ``data``).
The ``trigger`` section builds ``attack.trigger``, the run's one trigger.

The ``compare.attacks`` / ``compare.defenses`` keys configure the comparison
matrix and are not part of the single-run config.
"""

import types
import typing
from dataclasses import dataclass, field, fields

from .attacks import ATTACK_KINDS, AttackConfig
from .data import TriggerSpec
from .defenses import DEFENSE_KINDS, DefenseConfig
from .errors import ConfigError
from .model import ModelSpec, TrainSpec
from .sim import DataConfig, SimConfig

# key prefix -> the dataclass whose fields are that section's keys
_SECTIONS = {
    "": SimConfig,
    "data": DataConfig,
    "trigger": TriggerSpec,
    "model": ModelSpec,
    "train": TrainSpec,
    "attack": AttackConfig,
    "defense": DefenseConfig,
}
_FILLED_BY_SIMULATOR = ("model.input_dim", "model.num_classes")


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parser(annotation):
    """Value parser for a field annotated ``annotation``."""
    if annotation is bool:
        return _parse_bool
    if annotation is str:
        return str.strip
    if annotation in (int, float):
        return annotation
    args = typing.get_args(annotation)
    if isinstance(annotation, types.UnionType) and len(args) == 2 and args[1] is type(None):
        inner = _parser(args[0])
        return lambda s: None if s.strip().lower() in ("none", "") else inner(s)
    if typing.get_origin(annotation) is tuple and args[1:] == (Ellipsis,):
        inner = _parser(args[0])
        return lambda s: tuple(inner(x) for x in s.split(",")) if s.strip() else ()
    raise TypeError(f"no config value parser for {annotation!r}")


def _key(section: str, name: str) -> str:
    return f"{section}.{name}" if section else name


# key -> value parser; this is the complete documented key list.
KEY_PARSERS = {
    _key(section, f.name): _parser(f.type)
    for section, cls in _SECTIONS.items()
    for f in fields(cls)
    if f.type not in _SECTIONS.values() and _key(section, f.name) not in _FILLED_BY_SIMULATOR
}
KEY_PARSERS["compare.attacks"] = KEY_PARSERS["compare.defenses"] = _parser(tuple[str, ...])
# the keys of a run whose value is a comma-separated list
LIST_KEYS = {_key(section, f.name) for section, cls in _SECTIONS.items() for f in fields(cls)
             if typing.get_origin(f.type) is tuple}


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config file: the simulation config plus comparison lists."""

    sim: SimConfig
    compare_attacks: tuple[str, ...] = ()
    compare_defenses: tuple[str, ...] = ()
    raw: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, chosen, kinds in (
            ("compare.attacks", self.compare_attacks, ATTACK_KINDS),
            ("compare.defenses", self.compare_defenses, DEFENSE_KINDS),
        ):
            unknown = [k for k in chosen if k not in kinds]
            if unknown:
                raise ConfigError(
                    f"{key} must list kinds out of {', '.join(kinds)}; got {unknown[0]!r}"
                )
            repeated = [k for k in chosen if chosen.count(k) > 1]
            if repeated:
                raise ConfigError(f"{key} lists {repeated[0]!r} more than once")


def _key_value(item: str, where: str) -> tuple[str, str]:
    """``item`` split at its first ``=``, both sides stripped; the key must be known.
    ``where`` opens each error message."""
    key, eq, value = item.partition("=")
    key = key.strip()
    if not eq:
        raise ConfigError(f"{where}expected key = value, got {item!r}")
    if key not in KEY_PARSERS:
        raise ConfigError(f"{where}unknown config key {key!r}")
    return key, value.strip()


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse key = value lines into a raw string map; an unknown key, or a key
    set on two lines, is fatal."""
    raw, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            key, value = _key_value(stripped, f"{source}:{lineno}: ")
            if key in lines:
                raise ConfigError(f"{source}:{lineno}: {key!r} is already set on line {lines[key]}")
            raw[key], lines[key] = value, lineno
    return raw


def load_config_file(path) -> dict:
    """Parse the UTF-8 config file at ``path``, skipping a leading byte-order
    mark; a file that cannot be read or decoded raises ConfigError."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config_text(text, source=str(path))


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply ``key=value`` override strings; last one wins; unknown keys are fatal."""
    out = dict(raw)
    for item in overrides or ():
        key, value = _key_value(item, "override: ")
        out[key] = value
    return out


def parse_values(raw: dict) -> dict:
    """Parse each raw value with its key's parser; a bad value names its key."""
    values = {}
    for key, text in raw.items():
        try:
            values[key] = KEY_PARSERS[key](text)
        except (ValueError, ConfigError) as e:
            raise ConfigError(f"bad value for {key!r}: {e}") from e
    return values


def build_config(raw: dict) -> ExperimentConfig:
    """Turn a raw key map into a validated ExperimentConfig.

    Each section is built from its keys in ``raw``; every other field keeps
    its dataclass default.
    """
    given = {section: {} for section in (*_SECTIONS, "compare")}
    for key, value in parse_values(raw).items():
        section, _, name = key.rpartition(".")
        given[section][name] = value
    data = DataConfig(**given["data"])
    sim = SimConfig(
        **given[""],
        model=ModelSpec(data.feature_dim, data.num_classes, **given["model"]),
        train=TrainSpec(**given["train"]),
        data=data,
        attack=AttackConfig(**given["attack"], trigger=TriggerSpec(**given["trigger"])),
        defense=DefenseConfig(**given["defense"]),
    )
    compare = {f"compare_{name}": value for name, value in given["compare"].items()}
    return ExperimentConfig(sim, **compare, raw=dict(raw))

"""The README's Python examples run as written, its key table matches the
config fields, its cross-field limit table matches ``SimConfig._limits``,
its count of simulator-filled fields matches ``config._FILLED_BY_SIMULATOR``,
the module names it cites exist and it names what the package root exports,
so API docs that drift fail here."""

import dataclasses
import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import fedsim
from fedsim import config
from fedsim.sim import SimConfig

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def _value(v) -> str:
    """``v`` as a config file writes it."""
    if isinstance(v, tuple):
        return ",".join(map(_value, v))
    return "none" if v is None else str(v).lower() if isinstance(v, bool) else str(v)


def key_table() -> str:
    """The README's "Config keys" table, rebuilt from the config dataclass fields."""
    lines = ["| Key | Default | Bound |", "|---|---|---|"]
    for key in config.KEY_PARSERS:
        section, _, name = key.rpartition(".")
        if section == "compare":
            continue
        f = next(f for f in dataclasses.fields(config._SECTIONS[section]) if f.name == name)
        bound = f.metadata.get("bound", "")
        bound = f"`{bound}`" if isinstance(bound, str) and bound else ", ".join(f"`{k}`" for k in bound)
        if f.default is None:
            bound += " or `none`"
        lines.append(f"| `{key}` | `{_value(f.default)}` | {bound} |")
    return "\n".join(lines) + "\n"


def test_readme_key_table_matches_the_config_fields():
    assert key_table() in README.read_text(), key_table()


def limit_table() -> str:
    """The README's "Cross-field limits" table, rebuilt from ``SimConfig._limits``."""
    lines = ["| Value | At most |", "|---|---|"]
    lines += [f"| `{key}` | `{limit_key}` |" for key, _, limit_key, _ in SimConfig()._limits()]
    return "\n".join(lines) + "\n"


def test_readme_limit_table_matches_the_limits():
    assert limit_table() in README.read_text(), limit_table()


def test_readme_names_the_fields_the_simulator_fills():
    *rest, last = [f"`{key}`" for key in config._FILLED_BY_SIMULATOR]
    count = ("One", "Two", "Three", "Four")[len(rest)]
    names = f"{', '.join(rest)} and {last}" if rest else last
    sentence = f"{count} fields are filled by the simulator and are not keys: {names}"
    assert sentence in " ".join(README.read_text().split()), sentence


def _resolves(module: str, name: str) -> bool:
    """``<module>.<name>`` is a config key, a field of section ``module``'s dataclass
    (the data and model sections share their module's name) or an attribute of
    ``fedsim.<module>``."""
    section = config._SECTIONS.get(module)
    return (f"{module}.{name}" in config.KEY_PARSERS
            or section is not None and name in {f.name for f in dataclasses.fields(section)}
            or hasattr(importlib.import_module(f"fedsim.{module}"), name))


def test_readme_module_names_resolve():
    modules = {m.name for m in pkgutil.iter_modules(fedsim.__path__)}
    cited = [(m, n) for m, n in re.findall(r"`(\w+)\.(\w+)`", README.read_text()) if m in modules]
    assert len(cited) >= 10
    unknown = [f"{m}.{n}" for m, n in cited if not _resolves(m, n)]
    assert not unknown, unknown


def test_readme_names_exactly_what_the_package_root_exports():
    paragraph = next(p for p in README.read_text().split("\n\n")
                     if p.startswith("The package root `fedsim` exports"))
    named = set(re.findall(r"`(\w+)`", paragraph)) - {"fedsim"}
    exported = {name for name, value in vars(fedsim).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert named == exported

"""Command-line front end: single runs, parameter sweeps, and defense matrices.

Exit codes: 0 success, 1 runtime failure, 2 configuration error. The output
directory comes from --out, falling back to the FEDSIM_OUT_DIR environment
variable, then to the current directory.
"""

import argparse
import os
import re
import sys

from . import config as cfgmod
from . import sim as simmod
from .errors import ConfigError, FedsimError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

OUT_DIR_ENV = "FEDSIM_OUT_DIR"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedsim",
        description="Deterministic federated-learning attack/defense simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, out=True, fmt=False):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="path to a config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config key (dot-path); repeatable, last wins",
        )
        if out:
            p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        if fmt:
            p.add_argument(
                "--format",
                choices=("csv", "json", "both"),
                default="both",
                help="result file format(s) for run outputs",
            )
        return p

    command("run", "run one simulation", fmt=True)
    command("sweep", "run one simulation per axis value", fmt=True).add_argument(
        "--axis",
        required=True,
        metavar="KEY=V1,V2,...",
        help="config key and comma-separated values to sweep",
    )
    command("compare", "run an attack x defense matrix")
    command("validate-config", "parse and validate a config", out=False)
    return parser


def _out_dir(args) -> str:
    out = args.out if args.out is not None else os.environ.get(OUT_DIR_ENV, ".")
    os.makedirs(out, exist_ok=True)
    return out


def _raw(args) -> dict:
    """The config file's key map with the --set and --seed overrides applied."""
    raw = cfgmod.load_config_file(args.config)
    raw = cfgmod.apply_overrides(raw, args.overrides)
    if args.seed is not None:
        raw["master_seed"] = str(args.seed)
    return raw


def _load(args) -> cfgmod.ExperimentConfig:
    return cfgmod.build_config(_raw(args))


def _final(records) -> tuple[str, str]:
    """The final ACC and ASR of ``records``, each as ``:.9g`` text."""
    summary = simmod.summarize(records)
    return f"{summary['final_acc']:.9g}", f"{summary['final_asr']:.9g}"


def _run_once(exp: cfgmod.ExperimentConfig, out_dir: str, fmt: str, stem: str = "results"):
    """Run ``exp``, write ``<stem>.csv`` and/or ``<stem>.json`` as ``fmt`` asks,
    and return the run's ``_final``."""
    records = simmod.run_simulation(exp.sim)
    for kind in ("csv", "json"):
        if fmt in (kind, "both"):
            simmod.write_results(
                records, os.path.join(out_dir, f"{stem}.{kind}"), kind, config_echo=exp.raw
            )
    return _final(records)


def _write_table(out_dir: str, name: str, header: str, rows):
    simmod.atomic_write(os.path.join(out_dir, name), "".join(f"{r}\n" for r in (header, *rows)))


def cmd_run(args) -> int:
    acc, asr = _run_once(_load(args), _out_dir(args), args.format)
    print(f"final_acc={acc} final_asr={asr}")
    return EXIT_OK


def _safe_name(value: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", value)


def cmd_sweep(args) -> int:
    """Run each axis value in turn and write ``sweep_summary.csv``. A failed value
    prints its error and the sweep goes on; the first failure sets the exit code."""
    key, values_text = cfgmod._key_value(args.axis, "sweep axis: ")
    if key.startswith("compare."):
        raise ConfigError(f"sweep axis: {key} configures compare, not a run")
    if key in cfgmod.LIST_KEYS:
        raise ConfigError(f"sweep axis: {key} takes a list, which the axis splits at commas")
    values = [v.strip() for v in values_text.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep axis: no values")

    raw = _raw(args)
    base_seed = cfgmod.parse_values(raw).get("master_seed", simmod.SimConfig.master_seed)
    out_dir = _out_dir(args)

    rows, failure = [], None
    for idx, value in enumerate(values):
        per_run = {**raw, key: value}
        if key != "master_seed":
            per_run["master_seed"] = str(base_seed + idx)
        try:
            acc, asr = _run_once(cfgmod.build_config(per_run), out_dir, args.format,
                                 stem=f"sweep_{idx:03d}_{_safe_name(value)}")
        except FedsimError as e:
            failure = failure or e
            print(f"{key}={value}: FAILED ({e})", file=sys.stderr)
            continue
        rows.append(f"{value},{acc},{asr}")
        print(f"{key}={value}: final_acc={acc} final_asr={asr}")

    _write_table(out_dir, "sweep_summary.csv", "axis_value,final_acc,final_asr", rows)
    if failure is None:
        return EXIT_OK
    return EXIT_CONFIG if isinstance(failure, ConfigError) else EXIT_RUNTIME


def cmd_compare(args) -> int:
    """Run every attack x defense cell and write ``compare_matrix.csv``.

    The cells differ only in ``attack.kind`` and ``defense.kind``, so they
    all run from one state, round by round (``sim.run_simulations``). Each
    round trains a client input that several cells share once, over the
    stack of their global models. A cell's line reads only its last
    evaluated round, so each cell evaluates that round alone (its
    ``eval_every`` is that round's number); the line equals its fresh
    run's final metrics. The cell lines print when every cell is done. If
    a cell fails, the lines of the cells before it print and its error is
    raised, as if the cells had run one after another.
    """
    exp = _load(args)
    if not exp.compare_attacks or not exp.compare_defenses:
        raise ConfigError("compare needs compare.attacks and compare.defenses in the config")
    out_dir = _out_dir(args)
    cells = [(a, d) for a in sorted(exp.compare_attacks) for d in sorted(exp.compare_defenses)]
    last = str(exp.sim.rounds // exp.sim.eval_every * exp.sim.eval_every)
    runs, error = simmod.run_simulations([
        cfgmod.build_config({**exp.raw, "attack.kind": a, "defense.kind": d, "eval_every": last}).sim
        for a, d in cells
    ])

    rows = []
    for (attack, defense), records in zip(cells, runs):
        acc, asr = _final(records)
        rows.append(f"{attack},{defense},{acc},{asr}")
        print(f"{attack} vs {defense}: acc={acc} asr={asr}")
    if error is not None:
        raise error

    _write_table(out_dir, "compare_matrix.csv", "attack,defense,final_acc,final_asr", rows)
    return EXIT_OK


def cmd_validate_config(args) -> int:
    exp = _load(args)
    print(f"ok: {len(exp.raw)} keys, defense={exp.sim.defense.kind}, "
          f"attack={exp.sim.attack.kind}")
    return EXIT_OK


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "validate-config": cmd_validate_config,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FedsimError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_RUNTIME

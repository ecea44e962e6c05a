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


def _run_once(exp: cfgmod.ExperimentConfig, out_dir: str, fmt: str, stem: str = "results"):
    records = simmod.run_simulation(exp.sim)
    if fmt in ("csv", "both"):
        simmod.write_results(records, os.path.join(out_dir, f"{stem}.csv"), "csv")
    if fmt in ("json", "both"):
        simmod.write_results(
            records, os.path.join(out_dir, f"{stem}.json"), "json", config_echo=exp.raw
        )
    return records


def cmd_run(args) -> int:
    exp = _load(args)
    out_dir = _out_dir(args)
    records = _run_once(exp, out_dir, args.format)
    summary = simmod.summarize(records)
    print(f"final_acc={summary['final_acc']:.9g} final_asr={summary['final_asr']:.9g}")
    return EXIT_OK


def _safe_name(value: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", value)


def cmd_sweep(args) -> int:
    key, values_text = cfgmod._key_value(args.axis, "sweep axis: ")
    if key.startswith("compare."):
        raise ConfigError(f"sweep axis: {key} configures compare, not a run")
    values = [v.strip() for v in values_text.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep axis: no values")

    raw = _raw(args)
    base_seed = cfgmod.parse_values(raw).get("master_seed", simmod.SimConfig.master_seed)
    out_dir = _out_dir(args)

    rows, failures = [], []
    for idx, value in enumerate(values):
        per_run = {**raw, key: value}
        if key != "master_seed":
            per_run["master_seed"] = str(base_seed + idx)
        try:
            exp = cfgmod.build_config(per_run)
            stem = f"sweep_{idx:03d}_{_safe_name(value)}"
            records = _run_once(exp, out_dir, args.format, stem=stem)
            summary = simmod.summarize(records)
            rows.append(
                f"{value},{summary['final_acc']:.9g},{summary['final_asr']:.9g}"
            )
            print(f"{key}={value}: final_acc={summary['final_acc']:.9g} "
                  f"final_asr={summary['final_asr']:.9g}")
        except FedsimError as e:
            failures.append((value, e))
            print(f"{key}={value}: FAILED ({e})", file=sys.stderr)

    simmod.atomic_write(
        os.path.join(out_dir, "sweep_summary.csv"),
        "axis_value,final_acc,final_asr\n" + "".join(r + "\n" for r in rows),
    )
    if failures:
        first = failures[0][1]
        return EXIT_CONFIG if isinstance(first, ConfigError) else EXIT_RUNTIME
    return EXIT_OK


def cmd_compare(args) -> int:
    """Run every attack x defense cell and write ``compare_matrix.csv``.

    The cells differ only in ``attack.kind`` and ``defense.kind``, so they
    all run from one state, round by round (``sim.run_simulations``). Each
    round trains a client input that several cells share once, over the
    stack of their global models. The cell lines print when every cell is
    done. If a cell fails, the lines of the cells before it print and its
    error is raised, as if the cells had run one after another.
    """
    exp = _load(args)
    if not exp.compare_attacks or not exp.compare_defenses:
        raise ConfigError(
            "compare needs compare.attacks and compare.defenses in the config"
        )
    out_dir = _out_dir(args)
    cells = [(a, d) for a in sorted(exp.compare_attacks) for d in sorted(exp.compare_defenses)]
    cfgs = [
        cfgmod.build_config(
            cfgmod.apply_overrides(exp.raw, [f"attack.kind={a}", f"defense.kind={d}"])
        ).sim
        for a, d in cells
    ]
    runs, error = simmod.run_simulations(cfgs)

    rows = []
    for (attack, defense), records in zip(cells, runs):
        summary = simmod.summarize(records)
        acc, asr = f"{summary['final_acc']:.9g}", f"{summary['final_asr']:.9g}"
        rows.append(f"{attack},{defense},{acc},{asr}\n")
        print(f"{attack} vs {defense}: acc={acc} asr={asr}")
    if error is not None:
        raise error

    simmod.atomic_write(
        os.path.join(out_dir, "compare_matrix.csv"), "attack,defense,final_acc,final_asr\n" + "".join(rows)
    )
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


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads and the operation each one repeats.

An operation is one simulation run (library workloads) or one ``fedsim
compare`` command (``compare_matrix``). Every workload is a flat config key
map built here from the seed; nothing is read from ``configs/``.
"""

import contextlib
import io
import os
import time
from dataclasses import dataclass, field

from fedsim import cli, config, sim

from . import tracing

# The desk scenario: same records as tests/helpers.standard_config(...) and
# configs/replacement_vs_faros.cfg.
_DESK = {
    "total_clients": "50",
    "clients_per_round": "10",
    "malicious_count": "10",
    "rounds": "100",
    "eval_every": "1",
    "force_c_per_round": "2",
    "data.n_per_class": "500",
    "trigger.positions": "13,14,15",
    "trigger.values": "1.5,-1.5,1.5",
    "trigger.target_label": "0",
    "train.local_epochs": "2",
    "train.batch_size": "4000",
    "train.learning_rate": "0.02",
    "attack.kind": "model_replacement",
    "attack.boost": "10",
    "attack.poison_rate": "1.0",
    "defense.kind": "faros",
}

_LIBRARY = {
    "desk_faros_mr": _DESK,
    # standard_config("fedavg", "none") samples without pinned attackers.
    "desk_fedavg_clean": {
        **_DESK,
        "attack.kind": "none",
        "defense.kind": "fedavg",
        "force_c_per_round": "none",
    },
    "wide_faros_pgd_mlp": {
        **_DESK,
        "total_clients": "120",
        "clients_per_round": "60",
        "malicious_count": "24",
        "force_c_per_round": "12",
        "rounds": "20",
        "data.n_per_class": "300",
        "model.hidden_dim": "32",
        "train.local_epochs": "1",
        "attack.kind": "edge_case_pgd",
        "attack.pgd_radius": "2.0",
        "attack.edge_fraction": "0.95",
    },
}

# configs/compare_small.cfg; the benchmark writes it out and widens it with
# --set overrides to the full attack x defense matrix.
COMPARE_BASE = """\
total_clients = 30
clients_per_round = 8
malicious_count = 6
rounds = 15
force_c_per_round = 2
data.n_per_class = 200
data.test_per_class = 20
trigger.positions = 13,14,15
trigger.values = 1.5,-1.5,1.5
trigger.target_label = 0
train.local_epochs = 2
train.batch_size = 2000
train.learning_rate = 0.02
attack.kind = none
attack.boost = 8
attack.poison_rate = 1.0
defense.kind = fedavg
compare.attacks = none,model_replacement,constrain_and_scale
compare.defenses = fedavg,faros
"""
COMPARE_ATTACKS = ("none", "data_poison", "model_replacement", "constrain_and_scale", "edge_case_pgd")
COMPARE_DEFENSES = ("fedavg", "multi_krum", "weak_dp", "scope_static", "faros")
COMPARE_ROUNDS = int(config.parse_config_text(COMPARE_BASE)["rounds"])

WORKLOADS = tuple(_LIBRARY) + ("compare_matrix",)


def raw_config(workload: str, seed: int) -> dict:
    """Flat config key map of a library workload for ``seed``."""
    return {**_LIBRARY[workload], "master_seed": str(seed)}


def compare_argv(config_path: str, out_dir: str, seed: int, parallel: bool = True) -> list:
    return [
        "compare", "--config", config_path, "--out", out_dir, "--seed", str(seed),
        "--set", "compare.attacks=" + ",".join(COMPARE_ATTACKS),
        "--set", "compare.defenses=" + ",".join(COMPARE_DEFENSES),
        "--set", f"parallel_clients={'true' if parallel else 'false'}",
    ]


@dataclass
class OpResult:
    """What one operation produced and how long its parts took."""

    wall_s: float
    rounds: int
    setup_s: list = field(default_factory=list)
    round_s: list = field(default_factory=list)
    output: str = ""  # CSV text the output check compares
    exit_code: int = 0


def run_library(workload: str, seed: int, work_dir: str, rounds: int | None = None) -> OpResult:
    """Build the config and state, then run every round the way run_simulation does.

    Calls go through the module attributes so that an active Tracer sees them.
    """
    raw = raw_config(workload, seed)
    if rounds is not None:
        raw["rounds"] = str(rounds)
    clock = time.perf_counter
    t0 = clock()
    exp = config.build_config(raw)
    state = sim.build_state(exp.sim)
    setup = clock() - t0
    cfg = exp.sim
    records, round_s = [], []
    for _ in range(cfg.rounds):
        r = state.round
        t = clock()
        state, record = sim.run_round(state, cfg)
        round_s.append(clock() - t)
        if r % cfg.eval_every == 0:
            records.append(record)
    wall = clock() - t0
    path = os.path.join(work_dir, "records.csv")
    sim.write_results(records, path, "csv")
    with open(path, newline="") as f:
        text = f.read()
    return OpResult(wall, cfg.rounds, [setup], round_s, text)


def run_compare(
    seed: int, work_dir: str, timers: bool = True, parallel: bool = True, rounds: int | None = None
) -> OpResult:
    """One in-process ``fedsim compare`` over the full matrix.

    With ``timers`` the rounds and each cell's set-up are timed by replacing
    ``sim.run_round``, ``sim.build_state`` and ``config.build_config``, the
    names the CLI resolves.
    """
    cfg_path = os.path.join(work_dir, "compare.cfg")
    with open(cfg_path, "w") as f:
        f.write(COMPARE_BASE)
    out_dir = os.path.join(work_dir, "compare_out")
    argv = compare_argv(cfg_path, out_dir, seed, parallel)
    if rounds is not None:
        argv += ["--set", f"rounds={rounds}"]
    cfg_s, state_s, round_s = [], [], []
    with contextlib.ExitStack() as stack:
        if timers:
            stack.enter_context(tracing.stopwatch(config, "build_config", cfg_s))
            stack.enter_context(tracing.stopwatch(sim, "build_state", state_s))
            stack.enter_context(tracing.stopwatch(sim, "run_round", round_s))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    text = ""
    if code == 0:
        with open(os.path.join(out_dir, "compare_matrix.csv"), newline="") as f:
            text = f.read()
    # _load builds the base config once before the per-cell builds.
    setup = [c + s for c, s in zip(cfg_s[1:], state_s)]
    cells = len(COMPARE_ATTACKS) * len(COMPARE_DEFENSES)
    return OpResult(wall, cells * (rounds or COMPARE_ROUNDS), setup, round_s, text, code)


def run_op(workload: str, seed: int, work_dir: str, timers: bool = True) -> OpResult:
    if workload == "compare_matrix":
        return run_compare(seed, work_dir, timers=timers)
    return run_library(workload, seed, work_dir)


def warm_up(workload: str, seed: int, work_dir: str):
    """A two-round pass so imports, allocator and BLAS set-up are not timed."""
    if workload == "compare_matrix":
        run_compare(seed, work_dir, timers=False, rounds=2)
    else:
        run_library(workload, seed, work_dir, rounds=2)

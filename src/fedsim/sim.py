"""Round orchestration: sampling, training dispatch, defense, metrics, persistence.

The whole run is a pure function of the master seed. Per-purpose seeds are
derived through SeedSequence so client training, sampling, data generation
and defense noise never share a stream; client sampling itself draws from
``model.philox`` keyed by (master_seed, round), the calling thread's one
Philox generator re-keyed for that round, and uses it up before the next
``philox`` call.
"""

import contextlib
import itertools
import json
import math
import os
import time
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .attacks import AttackConfig, malicious_local_train
from .data import Samples, blob_arrays, dirichlet_partition, triggered_rows
from .defenses import ClientUpdate, DefenseConfig, aggregate
from .errors import ConfigError, FedsimError, NonFiniteUpdateError
from .model import ModelSpec, TrainSpec, accuracy, init_params, local_train, philox

# Elements in the largest array the blob draw or the model may build (512 MiB
# of float64); see SimConfig.
MAX_DATA_ELEMENTS = 2**26

# Seed-stream tags (see _derive_seed).
_TAG_DATA, _TAG_PARTITION, _TAG_CLIENT, _TAG_DP_NOISE, _TAG_INIT = range(5)


@dataclass
class DataConfig:
    """Synthetic dataset shape plus the heterogeneity setting."""

    num_classes: int = 10
    feature_dim: int = 16
    n_per_class: int = 100
    test_per_class: int = 40
    class_sep: float = 6.0
    dirichlet_q: float = 0.4

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"data.num_classes must be >= 2, got {self.num_classes}")
        if self.feature_dim < 2:
            raise ConfigError(f"data.feature_dim must be >= 2, got {self.feature_dim}")
        if self.n_per_class < 1:
            raise ConfigError(f"data.n_per_class must be >= 1, got {self.n_per_class}")
        if self.test_per_class < 1:
            raise ConfigError(f"data.test_per_class must be >= 1, got {self.test_per_class}")
        if not (0 < self.class_sep < math.inf):
            raise ConfigError(f"data.class_sep must be finite and > 0, got {self.class_sep}")
        if not (0 < self.dirichlet_q < math.inf):
            raise ConfigError(f"data.dirichlet_q must be finite and > 0, got {self.dirichlet_q}")


@dataclass
class SimConfig:
    """Full experiment description; every run is determined by this plus nothing.

    ``parallel_clients`` is accepted and validated for config compatibility
    but has no effect: a round always trains its clients serially, because
    a thread pool over GIL-bound numpy calls on small vectors only slowed
    rounds down.

    ``validate`` rejects data sizes whose blob draw would build an array of
    more than ``MAX_DATA_ELEMENTS`` (2**26) elements: ``data.num_classes**2
    * data.feature_dim`` for the class-center differences, and
    ``data.num_classes * (data.n_per_class + data.test_per_class) *
    data.feature_dim`` for the blob matrix. It holds the model to the same
    cap: a round's update matrix, ``clients_per_round * param_count()``,
    and its hidden activation over every blob row, ``model.hidden_dim *
    data.num_classes * (data.n_per_class + data.test_per_class)``.
    """

    total_clients: int = 50
    clients_per_round: int = 10
    malicious_count: int = 10
    rounds: int = 100
    eval_every: int = 1
    master_seed: int = 7
    force_c_per_round: int | None = None
    parallel_clients: bool = False
    model: ModelSpec = field(
        default_factory=lambda: ModelSpec(DataConfig.feature_dim, DataConfig.num_classes)
    )
    train: TrainSpec = field(default_factory=TrainSpec)
    data: DataConfig = field(default_factory=DataConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    defense: DefenseConfig = field(default_factory=DefenseConfig)

    def validate(self):
        for name in ("total_clients", "clients_per_round", "rounds", "eval_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        # every per-purpose seed is a SeedSequence entropy word, which is non-negative
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.clients_per_round > self.total_clients:
            raise ConfigError(
                f"clients_per_round {self.clients_per_round} exceeds "
                f"total_clients {self.total_clients}"
            )
        if self.malicious_count < 0 or self.malicious_count > self.total_clients:
            raise ConfigError(f"malicious_count out of range: {self.malicious_count}")
        if self.eval_every > self.rounds:
            raise ConfigError(
                f"eval_every {self.eval_every} exceeds rounds {self.rounds}: no round would be evaluated"
            )
        if self.model.input_dim != self.data.feature_dim:
            raise ConfigError(
                f"model input_dim {self.model.input_dim} != feature_dim "
                f"{self.data.feature_dim}"
            )
        if self.model.num_classes != self.data.num_classes:
            raise ConfigError(
                f"model num_classes {self.model.num_classes} != data.num_classes "
                f"{self.data.num_classes}"
            )
        for name in ("core_size", "accept_count"):
            count = getattr(self.defense, name)
            if count is not None and count > self.clients_per_round:
                raise ConfigError(
                    f"defense.{name} {count} exceeds clients_per_round {self.clients_per_round}"
                )
        d = self.data
        rows = d.num_classes * (d.n_per_class + d.test_per_class)
        for keys, elements in (
            ("data.num_classes * data.num_classes * data.feature_dim",
             d.num_classes * d.num_classes * d.feature_dim),
            ("data.num_classes * (data.n_per_class + data.test_per_class) * data.feature_dim",
             rows * d.feature_dim),
            # a round stacks its clients' update vectors into one matrix
            ("clients_per_round * the parameter count for model.hidden_dim",
             self.clients_per_round * self.model.param_count()),
            ("model.hidden_dim * data.num_classes * (data.n_per_class + data.test_per_class)",
             self.model.hidden_dim * rows),
        ):
            if elements > MAX_DATA_ELEMENTS:
                raise ConfigError(
                    f"{keys} = {elements} exceeds the cap of {MAX_DATA_ELEMENTS} elements"
                )
        if d.n_per_class * d.num_classes < self.total_clients:
            raise ConfigError(
                f"data.n_per_class * data.num_classes = {d.n_per_class * d.num_classes} "
                f"training examples cannot cover total_clients {self.total_clients}"
            )
        t = self.attack.trigger
        if not 0 <= t.target_label < d.num_classes:
            raise ConfigError(
                f"trigger.target_label must be in [0, {d.num_classes}) for "
                f"data.num_classes {d.num_classes}, got {t.target_label}"
            )
        if any(not 0 <= p < d.feature_dim for p in t.positions):
            raise ConfigError(
                f"trigger.positions must be in [0, {d.feature_dim}) for "
                f"data.feature_dim {d.feature_dim}, got {t.positions}"
            )
        if self.force_c_per_round is not None:
            c = self.force_c_per_round
            if c < 0 or c > min(self.clients_per_round, self.malicious_count):
                raise ConfigError(f"force_c_per_round out of range: {c}")
            honest = self.total_clients - self.malicious_count
            if honest < self.clients_per_round - c:
                raise ConfigError(
                    f"force_c_per_round {c} leaves {self.clients_per_round - c} of "
                    f"clients_per_round {self.clients_per_round} to honest clients, but only "
                    f"{honest} are honest (total_clients {self.total_clients} - "
                    f"malicious_count {self.malicious_count})"
                )
            # both warnings are filed under this file's lines, not the caller's:
            # build_config and build_state both validate, and the default
            # filter then shows each warning once per process
            if c >= self.clients_per_round / 2:
                warnings.warn(
                    "forced malicious count is not an honest majority",
                    RuntimeWarning,
                    stacklevel=1,
                )
        expected = self.clients_per_round * self.malicious_count / self.total_clients
        if expected >= self.clients_per_round / 2:
            warnings.warn(
                "expected malicious share per round is not an honest majority",
                RuntimeWarning,
                stacklevel=1,
            )


@dataclass
class RoundRecord:
    """One evaluated round: metrics, defense internals, detection confusion counts."""

    round: int
    acc: float
    asr: float
    d_t: float
    phi_t: float
    accepted: list[int]
    malicious_selected: list[int]
    tp: int
    fp: int
    fn: int
    wall_ms: float


CSV_HEADER = ",".join(f.name for f in fields(RoundRecord))


@dataclass
class SimState:
    """Everything carried between rounds.

    ``dataset`` holds the training rows and ``test_set`` the held-out rows,
    each as one feature matrix and one label vector. ``clients[i]`` holds
    client ``i``'s rows, cut from ``dataset`` once, in the order of
    ``partition[i]``; every round trains on these arrays. ``asr_x`` holds
    the triggered test rows whose label is not the attack's target. All of
    them are built once by :func:`build_state` and are read-only, as is the
    initial ``global_params``. ``plans`` memoizes each round's clients and
    seeds (``_round_plan``); ``replace`` hands the same dict to every later
    state, so all runs started from one state share it.
    """

    round: int
    global_params: np.ndarray
    dataset: Samples
    test_set: Samples
    partition: dict[int, list[int]]
    clients: list[Samples]
    asr_x: np.ndarray
    plans: dict = field(default_factory=dict)


def _derive_seed(master_seed: int, tag: int, *parts: int) -> int:
    """``SeedSequence([master_seed, tag, *parts]).generate_state(1, uint64)[0]``, fed
    each part's little-endian uint32 words directly (numpy's list coercion is slow)."""
    words = []
    for v in (master_seed, tag, *parts):
        if v < 0:
            raise ValueError(f"seed parts must be non-negative, got {v}")
        words.append(v & 0xFFFFFFFF)
        while v > 0xFFFFFFFF:
            v >>= 32
            words.append(v & 0xFFFFFFFF)
    lo, hi = np.random.SeedSequence(np.array(words, dtype=np.uint32)).generate_state(2).tolist()
    return lo | hi << 32


def sample_clients(total: int, k: int, round_idx: int, master_seed: int) -> list[int]:
    """k distinct client ids for a round, from a Philox stream keyed by (seed, round)."""
    if k > total:
        raise ConfigError(f"cannot sample {k} of {total} clients")
    return sorted(int(i) for i in philox(master_seed, round_idx).permutation(total)[:k])


def _sample_forced(cfg: SimConfig, round_idx: int) -> list[int]:
    """Sample with exactly force_c_per_round malicious roster members pinned in."""
    c = cfg.force_c_per_round
    mc = cfg.malicious_count
    gen = philox(cfg.master_seed, round_idx)
    mal = gen.permutation(mc)[:c]
    hon = gen.permutation(cfg.total_clients - mc)[: cfg.clients_per_round - c] + mc
    return sorted(int(i) for i in np.concatenate([mal, hon]))


def build_state(cfg: SimConfig) -> SimState:
    """Generate data, deal it to clients, and initialize the global model.

    Train and held-out test rows are sliced from a single blob draw (shared
    class centers), the first ``n_per_class`` rows of each class for
    training; the test rows are never partitioned to clients. Each client's
    rows are a view of one gather of the training rows in partition order.
    Every array is read-only: a stray write raises instead of corrupting
    the runs that share the state.
    """
    cfg.validate()
    d = cfg.data
    per_class = d.n_per_class + d.test_per_class
    blobs = blob_arrays(
        d.num_classes, d.feature_dim, per_class, d.class_sep, _derive_seed(cfg.master_seed, _TAG_DATA)
    )
    is_train = np.arange(len(blobs)) % per_class < d.n_per_class
    train = blobs.take(is_train)
    test = blobs.take(~is_train)
    part = dirichlet_partition(
        train.y,
        cfg.total_clients,
        d.dirichlet_q,
        _derive_seed(cfg.master_seed, _TAG_PARTITION),
    )
    params = init_params(cfg.model, _derive_seed(cfg.master_seed, _TAG_INIT))
    asr_x = triggered_rows(test.x, test.y, cfg.attack.trigger)
    order = [part[i] for i in range(cfg.total_clients)]
    dealt = train.take(np.concatenate(order))
    # the client rows are views of dealt, so they inherit its flag
    for arr in (params, asr_x, train.x, train.y, test.x, test.y, dealt.x, dealt.y):
        arr.flags.writeable = False
    bounds = [0, *itertools.accumulate(map(len, order))]
    return SimState(
        round=1,
        global_params=params,
        dataset=train,
        test_set=test,
        partition=part,
        clients=[Samples(dealt.x[a:b], dealt.y[a:b]) for a, b in zip(bounds, bounds[1:])],
        asr_x=asr_x,
    )


def _resolve_attack(cfg: SimConfig) -> AttackConfig:
    acfg = cfg.attack
    if acfg.boost is None:
        acfg = replace(acfg, boost=float(cfg.clients_per_round))
    return acfg


def _round_plan(state: SimState, cfg: SimConfig) -> list[tuple[int, int]]:
    """``[(client_id, training_seed), ...]`` for ``state.round``, memoized in
    ``state.plans`` under every config field that sampling and the seeds read."""
    r = state.round
    key = (r, cfg.master_seed, cfg.total_clients, cfg.clients_per_round,
           cfg.malicious_count, cfg.force_c_per_round)
    plan = state.plans.get(key)
    if plan is None:
        if cfg.force_c_per_round is not None:
            ids = _sample_forced(cfg, r)
        else:
            ids = sample_clients(cfg.total_clients, cfg.clients_per_round, r, cfg.master_seed)
        plan = [(i, _derive_seed(cfg.master_seed, _TAG_CLIENT, r, i)) for i in ids]
        state.plans[key] = plan
    return plan


def _train_one(state: SimState, cfg: SimConfig, acfg: AttackConfig, client_id: int, seed: int):
    data = state.clients[client_id]
    tspec = replace(cfg.train, seed=seed)
    if client_id < cfg.malicious_count and acfg.kind != "none":
        params = malicious_local_train(state.global_params, cfg.model, data, tspec, acfg)
    else:
        params = local_train(state.global_params, cfg.model, data, tspec)
    delta = params - state.global_params
    if not np.isfinite(delta).all():
        raise NonFiniteUpdateError(state.round, client_id)
    # a memo may hand this update to several runs: a write must raise, not leak
    delta.flags.writeable = False
    return ClientUpdate(client_id, delta)


def _train_clients(state: SimState, cfg: SimConfig, acfg: AttackConfig, plan, memo):
    """Each planned client's update, trained once per distinct input in ``memo``.

    ``memo[(global bytes, cfg.train, cfg.model, attack)][(client_id, seed)]``
    is an update; ``attack`` is ``acfg`` for an attacking roster member and
    None for honest training. With the client's rows, which the runs sharing
    a memo share through one state, that is all ``_train_one`` reads.
    """
    head =(state.global_params.tobytes(), cfg.train, cfg.model)
    honest = memo.setdefault((*head, None), {})
    attacked = honest if acfg.kind == "none" else memo.setdefault((*head, acfg), {})
    updates = []
    for i, seed in plan:
        trained = attacked if i < cfg.malicious_count else honest
        update = trained.get((i, seed))
        if update is None:
            update = trained[i, seed] = _train_one(state, cfg, acfg, i, seed)
        updates.append(update)
    return updates


def run_round(
    state: SimState, cfg: SimConfig, memo: dict | None = None
) -> tuple[SimState, RoundRecord]:
    """Execute one full round and report it.

    Sampled clients train one after another in ascending id order. Roster
    members (ids below malicious_count) train maliciously, everyone else
    honestly; the configured defense aggregates the deltas and the
    aggregated delta is added to the global model. ACC/ASR are evaluated on
    rounds divisible by eval_every (NaN otherwise).

    ``memo`` lets the runs of one round that share a state reuse each
    other's client updates (see ``_train_clients``); it must live for one
    round only. Without it the round starts an empty one of its own.
    """
    t0 = time.perf_counter()
    r = state.round
    plan = _round_plan(state, cfg)
    ids = [i for i, _ in plan]
    acfg = _resolve_attack(cfg)
    # a diverging client overflows inside numpy; _train_one reports it
    with np.errstate(over="ignore", invalid="ignore"):
        updates = _train_clients(state, cfg, acfg, plan, {} if memo is None else memo)

    # only weak_dp reads the noise seed
    seed = _derive_seed(cfg.master_seed, _TAG_DP_NOISE, r) if cfg.defense.kind == "weak_dp" else 0
    outcome = aggregate(updates, cfg.defense, seed=seed)
    new_params = state.global_params + outcome.aggregated_delta

    malicious = [i for i in ids if i < cfg.malicious_count]
    accepted = set(outcome.accepted)
    tp = sum(1 for i in malicious if i not in accepted)
    fp = sum(1 for i in ids if i >= cfg.malicious_count and i not in accepted)
    fn = len(malicious) - tp

    acc = asr = float("nan")
    if r % cfg.eval_every == 0:
        acc = accuracy(new_params, cfg.model, state.test_set.x, state.test_set.y)
        asr = accuracy(new_params, cfg.model, state.asr_x, acfg.trigger.target_label)

    diag = outcome.diagnostics
    record = RoundRecord(
        round=r,
        acc=acc,
        asr=asr,
        d_t=diag.d_t if diag is not None else float("nan"),
        phi_t=diag.phi_t if diag is not None else float("nan"),
        accepted=sorted(outcome.accepted),
        malicious_selected=malicious,
        tp=tp,
        fp=fp,
        fn=fn,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return replace(state, round=r + 1, global_params=new_params), record


def run_simulations(
    cfgs: list[SimConfig], state: SimState
) -> tuple[list[list[RoundRecord]], FedsimError | None]:
    """Run every config in ``cfgs`` from ``state``, all advancing one round at a time.

    ``state`` must come from ``build_state`` on a config with the same data,
    model, trigger, ``master_seed`` and ``total_clients`` as each of
    ``cfgs``. Within a round, byte-equal client inputs train once
    (``run_round``'s memo); each run's records equal those of a run alone.

    Returns the evaluated rounds of each run before the first, in order, to
    raise a :class:`FedsimError`, and that error (None if none did): the
    outcome of running ``cfgs`` one after another up to the first error.
    """
    for cfg in cfgs:
        cfg.validate()
    states = [state] * len(cfgs)
    records = [[] for _ in cfgs]
    live, error = len(cfgs), None
    for step in range(max((cfg.rounds for cfg in cfgs), default=0)):
        memo = {}
        for j in range(live):
            cfg = cfgs[j]
            if step >= cfg.rounds:
                continue
            r = states[j].round
            try:
                states[j], record = run_round(states[j], cfg, memo)
            except FedsimError as e:
                live, error = j, e
                break
            if r % cfg.eval_every == 0:
                records[j].append(record)
    return records[:live], error


def run_simulation(cfg: SimConfig, state: SimState | None = None) -> list[RoundRecord]:
    """Run all rounds from ``state``, by default ``build_state(cfg)``; keep evaluated rounds.

    The one-run case of :func:`run_simulations`, whose contract a given
    ``state`` must meet.
    """
    runs, error = run_simulations([cfg], build_state(cfg) if state is None else state)
    if error is not None:
        raise error
    return runs[0]


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _round_sig(x: float) -> float:
    if isinstance(x, float) and math.isnan(x):
        return x
    return float(_fmt(x))


def _json_float(x: float) -> float | None:
    """``x`` at 9 significant digits, or None (JSON null) when it is undefined (NaN)."""
    return None if math.isnan(x) else _round_sig(x)


def _ids(ids) -> str:
    return ";".join(str(i) for i in ids)


# Per annotation of a RoundRecord field: how the CSV and the JSON write it.
_CSV_FORMAT = {int: str, float: _fmt, list[int]: _ids}
_JSON_FORMAT = {int: int, float: _json_float, list[int]: list}


def _row(record: RoundRecord, formats: dict) -> dict:
    return {f.name: formats[f.type](getattr(record, f.name)) for f in fields(RoundRecord)}


def summarize(records) -> dict:
    """Final metrics plus mean detection precision/recall over defined rounds."""
    if not records:
        return {
            "final_acc": float("nan"),
            "final_asr": float("nan"),
            "mean_detection_precision": float("nan"),
            "mean_detection_recall": float("nan"),
        }
    precisions = [r.tp / (r.tp + r.fp) for r in records if r.tp + r.fp > 0]
    recalls = [r.tp / (r.tp + r.fn) for r in records if r.tp + r.fn > 0]
    return {
        "final_acc": _round_sig(records[-1].acc),
        "final_asr": _round_sig(records[-1].asr),
        "mean_detection_precision": (
            _round_sig(float(np.mean(precisions))) if precisions else float("nan")
        ),
        "mean_detection_recall": (
            _round_sig(float(np.mean(recalls))) if recalls else float("nan")
        ),
    }


def write_results(records, path, format: str = "csv", config_echo: dict | None = None):
    """Persist records as CSV (fixed header) or JSON (config echo + summary).

    The CSV columns and the JSON record keys are the fields of
    :class:`RoundRecord` in order, each written by its annotation: floats
    with 9 significant digits, id lists semicolon-separated in the CSV, ints
    as they are. An undefined float (NaN, such as ``d_t`` under a
    non-filtering defense) is ``nan`` in the CSV and ``null`` in the JSON,
    which is strict JSON. Writes are atomic (temp file + rename).
    """
    if format == "csv":
        lines = [CSV_HEADER, *(",".join(_row(r, _CSV_FORMAT).values()) for r in records)]
        payload = "\n".join(lines) + "\n"
    elif format == "json":
        doc = {
            "config": config_echo or {},
            "records": [_row(r, _JSON_FORMAT) for r in records],
            "summary": {k: _json_float(v) for k, v in summarize(records).items()},
        }
        payload = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    else:
        raise ConfigError(f"unknown result format {format!r}")
    atomic_write(path, payload)


def atomic_write(path, text: str):
    """Write ``text`` to ``path`` through ``<path>.tmp`` and a rename.

    Readers see the old file or the new one, never a partial write. If the
    write or the rename fails, the temp file is removed and an OSError
    naming ``path`` is raised.
    """
    tmp = f"{path}.tmp"
    created = False
    try:
        with open(tmp, "w", newline="") as f:
            created = True
            f.write(text)
        os.replace(tmp, path)
    except BaseException as e:
        if created:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        if isinstance(e, OSError):
            raise OSError(f"failed writing {path}: {e}") from e
        raise

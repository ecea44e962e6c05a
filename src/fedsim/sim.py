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
from .errors import ConfigError, FedsimError, NonFiniteUpdateError, bounded, check_bounds, check_in
from .model import ModelSpec, TrainSpec, accuracy, init_params, local_train, philox

# Elements in the largest array the blob draw or the model may build (512 MiB
# of float64); see SimConfig. It also bounds a training stack (_round_updates).
MAX_DATA_ELEMENTS = 2**26

# Seed-stream tags (see _derive_seed).
_TAG_DATA, _TAG_PARTITION, _TAG_CLIENT, _TAG_DP_NOISE, _TAG_INIT = range(5)


@dataclass
class DataConfig:
    """Synthetic dataset shape plus the heterogeneity setting."""

    num_classes: int = bounded("[2, inf)", 10)
    feature_dim: int = bounded("[2, inf)", 16)
    n_per_class: int = bounded("[1, inf)", 100)
    test_per_class: int = bounded("[1, inf)", 40)
    class_sep: float = bounded("(0, inf)", 6.0)
    dirichlet_q: float = bounded("(0, inf)", 0.4)

    def __post_init__(self):
        check_bounds(self, "data")


@dataclass
class SimConfig:
    """Full experiment description; every run is determined by this plus nothing.

    ``parallel_clients`` is accepted and validated for config compatibility
    but has no effect: a round always trains its clients serially, because
    a thread pool over GIL-bound numpy calls on small vectors only slowed
    rounds down.

    ``validate`` checks every field's bound, then each limit that spans
    fields: the rows of ``_limits``. Four of them cap at
    ``MAX_DATA_ELEMENTS`` (2**26) the arrays that the blob draw (the
    class-center differences and the blob matrix) and the model (a round's
    update matrix and the hidden activation over every blob row) build.
    """

    total_clients: int = bounded("[1, inf)", 50)
    clients_per_round: int = bounded("[1, inf)", 10)
    malicious_count: int = bounded("[0, inf)", 10)
    rounds: int = bounded("[1, inf)", 100)
    eval_every: int = bounded("[1, inf)", 1)
    # every per-purpose seed is a SeedSequence entropy word, which is non-negative
    master_seed: int = bounded("[0, inf)", 7)
    force_c_per_round: int | None = bounded("[0, inf)", None)
    parallel_clients: bool = False
    model: ModelSpec = field(
        default_factory=lambda: ModelSpec(DataConfig.feature_dim, DataConfig.num_classes)
    )
    train: TrainSpec = field(default_factory=TrainSpec)
    data: DataConfig = field(default_factory=DataConfig)
    attack: AttackConfig = field(default_factory=AttackConfig)
    defense: DefenseConfig = field(default_factory=DefenseConfig)

    def _limits(self) -> tuple:
        """The limits that span fields: rows ``(key, value, limit key, limit)``, each
        meaning ``value <= limit``. A None value (an unset optional key) is not limited."""
        d, t, c = self.data, self.attack.trigger, self.force_c_per_round
        rows = d.num_classes * (d.n_per_class + d.test_per_class)
        cap = ("2**26", MAX_DATA_ELEMENTS)
        return (
            ("clients_per_round", self.clients_per_round, "total_clients", self.total_clients),
            ("malicious_count", self.malicious_count, "total_clients", self.total_clients),
            ("eval_every", self.eval_every, "rounds", self.rounds),
            ("defense.core_size", self.defense.core_size,
             "clients_per_round", self.clients_per_round),
            ("defense.accept_count", self.defense.accept_count,
             "clients_per_round", self.clients_per_round),
            ("data.num_classes * data.num_classes * data.feature_dim",
             d.num_classes * d.num_classes * d.feature_dim, *cap),
            ("data.num_classes * (data.n_per_class + data.test_per_class) * data.feature_dim",
             rows * d.feature_dim, *cap),
            # a round stacks its clients' update vectors into one matrix
            ("clients_per_round * the parameter count for model.hidden_dim",
             self.clients_per_round * self.model.param_count(), *cap),
            ("model.hidden_dim * data.num_classes * (data.n_per_class + data.test_per_class)",
             self.model.hidden_dim * rows, *cap),
            ("total_clients", self.total_clients,
             "data.n_per_class * data.num_classes", d.n_per_class * d.num_classes),
            ("trigger.target_label", t.target_label, "data.num_classes - 1", d.num_classes - 1),
            ("max(trigger.positions)", max(t.positions, default=None),
             "data.feature_dim - 1", d.feature_dim - 1),
            ("force_c_per_round", c, "min(clients_per_round, malicious_count)",
             min(self.clients_per_round, self.malicious_count)),
            # the round's other slots go to honest clients
            ("clients_per_round - force_c_per_round",
             None if c is None else self.clients_per_round - c,
             "total_clients - malicious_count", self.total_clients - self.malicious_count),
        )

    def validate(self):
        # the sections too: a field set after construction skipped their check
        for section in ("", "data", "model", "train", "attack", "defense"):
            check_bounds(getattr(self, section) if section else self, section)
        # filled from the data section; only a library caller can set them apart
        for name, field_ in (("input_dim", "feature_dim"), ("num_classes", "num_classes")):
            got, want = getattr(self.model, name), getattr(self.data, field_)
            if got != want:
                raise ConfigError(f"model.{name} {got} != data.{field_} {want}")
        for key, value, limit_key, limit in self._limits():
            if value is not None and value > limit:
                raise ConfigError(f"{key} must be at most {limit_key} = {limit}, got {value}")
        # both warnings are filed under this file's lines, not the caller's:
        # build_config and build_state both validate, and the default
        # filter then shows each warning once per process
        c = self.force_c_per_round
        if c is not None and c >= self.clients_per_round / 2:
            warnings.warn("forced malicious count is not an honest majority", RuntimeWarning,
                          stacklevel=1)
        # pinned attackers make every round hold exactly c of them, checked above
        expected = self.clients_per_round * self.malicious_count / self.total_clients
        if c is None and expected >= self.clients_per_round / 2:
            warnings.warn("expected malicious share per round is not an honest majority",
                          RuntimeWarning, stacklevel=1)


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
    them are read-only, as is the initial ``global_params``: the runs of one
    :func:`run_simulations` call share the one state that it builds.
    """

    round: int
    global_params: np.ndarray
    dataset: Samples
    test_set: Samples
    partition: dict[int, list[int]]
    clients: list[Samples]
    asr_x: np.ndarray


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
    check_in(f"[0, {total}]", "k", k)
    check_in("[0, inf)", "round_idx", round_idx)
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


def _resolve_attack(cfg: SimConfig) -> AttackConfig | None:
    """The attack a roster member trains with: None under ``attack.kind = none``,
    and an unset boost resolved to ``clients_per_round``."""
    acfg = cfg.attack
    if acfg.kind == "none":
        return None
    if acfg.boost is None:
        acfg = replace(acfg, boost=float(cfg.clients_per_round))
    return acfg


def _train_group(state: SimState, cfg: SimConfig, attack: AttackConfig | None, client_id: int,
                 seed: int, global_params: np.ndarray) -> np.ndarray:
    """Client ``client_id``'s deltas from each global model of the (G, P) stack
    ``global_params``: honest training if ``attack`` is None, else ``attack``'s.

    The one training path: the models train as one stack, each row exactly
    as it would alone. The (G, P) result is read-only, because a row may be
    handed to several runs; a non-finite row is left for
    :func:`_round_updates` to raise.
    """
    data = state.clients[client_id]
    if attack is None:
        params = local_train(global_params, cfg.model, data, cfg.train, seed)
    else:
        params = malicious_local_train(global_params, cfg.model, data, cfg.train, seed, attack)
    deltas = params - global_params
    deltas.flags.writeable = False
    return deltas


def _round_updates(states: list[SimState], cfgs: list[SimConfig]) -> list[list[ClientUpdate]]:
    """Each run's updates for its round: a :class:`ClientUpdate` per sampled
    client, in plan order. Raises the first :class:`FedsimError` it meets.

    The runs share their clients' rows (one :func:`build_state`). Each
    sampling config is planned once: its client ids and their training
    seeds. A roster member (id below ``malicious_count``) trains with the
    resolved attack, every other client honestly (attack None). Each input,
    a (client, seed, ``cfg.train``, ``cfg.model``, attack), trains once over
    the stack of the distinct global models of the runs that need it, in
    slices of at most ``MAX_DATA_ELEMENTS`` elements of rows x params. Each
    trained row is wrapped in its :class:`ClientUpdate` once, and every run
    that needs it gets that one object. A row with a NaN or Inf entry
    raises :class:`NonFiniteUpdateError` (its round and client), and a
    trainer's :class:`FedsimError` propagates. The inputs train in the
    order the runs first need them, so for a lone run the error raised is
    the first of its plan.
    """
    plans, heads, groups, runs = {}, {}, {}, []
    for state, cfg in zip(states, cfgs):
        r, c = state.round, cfg.force_c_per_round
        sampling = (r, cfg.master_seed, cfg.total_clients, cfg.clients_per_round,
                    cfg.malicious_count, c)
        if sampling not in plans:
            ids = (_sample_forced(cfg, r) if c is not None else
                   sample_clients(cfg.total_clients, cfg.clients_per_round, r, cfg.master_seed))
            plans[sampling] = [(i, _derive_seed(cfg.master_seed, _TAG_CLIENT, r, i)) for i in ids]
        acfg = _resolve_attack(cfg)
        # the training configs hash once per run, to a number that the client keys
        # hold; under attack none (acfg None) both numbers are the honest one
        honest = heads.setdefault((cfg.train, cfg.model, None), len(heads))
        attacked = heads.setdefault((cfg.train, cfg.model, acfg), len(heads))
        row_cap = MAX_DATA_ELEMENTS // cfg.model.param_count()
        model = state.global_params.tobytes()
        run = []
        for i, seed in plans[sampling]:
            attack, head = (acfg, attacked) if i < cfg.malicious_count else (None, honest)
            # the input's global models, by their bytes; training swaps each for its update
            models = groups.setdefault((head, i, seed), (state, cfg, attack, row_cap, {}))[-1]
            models.setdefault(model, state.global_params)
            run.append(models)
        runs.append((model, run))
    # a diverging client overflows inside numpy; its non-finite row raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for (_, i, seed), (state, cfg, attack, row_cap, models) in groups.items():
            keys = list(models)
            step = max(1, row_cap // len(state.clients[i]))
            for at in range(0, len(keys), step):
                chunk = keys[at : at + step]
                deltas = _train_group(state, cfg, attack, i, seed,
                                      np.array([models[k] for k in chunk]))
                for k, delta in zip(chunk, deltas):
                    try:
                        models[k] = ClientUpdate(i, delta)
                    except ValueError:  # ClientUpdate's one check: a NaN or Inf entry
                        raise NonFiniteUpdateError(state.round, i) from None
    return [[models[model] for models in run] for model, run in runs]


def run_round(
    state: SimState, cfg: SimConfig, updates: list[ClientUpdate] | None = None
) -> tuple[SimState, RoundRecord]:
    """Execute one full round and report it.

    Sampled clients train in ascending id order. Roster members (ids below
    malicious_count) train maliciously, everyone else honestly; the
    configured defense aggregates the deltas and the aggregated delta is
    added to the global model. ACC/ASR are evaluated on rounds divisible by
    eval_every (NaN otherwise).

    ``updates`` is this run's entry of :func:`_round_updates`: a
    :class:`ClientUpdate` per sampled client, in plan order. Without it the
    round trains its clients itself, stopping at the first client whose
    training fails: its :class:`FedsimError` is raised
    (:class:`NonFiniteUpdateError` for a delta that is not finite).
    ``wall_ms`` covers the training only when the round does it.
    """
    t0 = time.perf_counter()
    r = state.round
    if updates is None:
        (updates,) = _round_updates([state], [cfg])
    ids = [u.client_id for u in updates]

    # only weak_dp reads the noise seed
    seed = _derive_seed(cfg.master_seed, _TAG_DP_NOISE, r) if cfg.defense.kind == "weak_dp" else 0
    outcome = aggregate(updates, cfg.defense, seed=seed, round=r)
    new_params = state.global_params + outcome.aggregated_delta

    malicious = [i for i in ids if i < cfg.malicious_count]
    rejected = set(ids).difference(outcome.accepted)
    tp = len(rejected.intersection(malicious))
    fp = len(rejected) - tp
    fn = len(malicious) - tp

    acc = asr = float("nan")
    if r % cfg.eval_every == 0:
        acc = accuracy(new_params, cfg.model, state.test_set.x, state.test_set.y)
        asr = accuracy(new_params, cfg.model, state.asr_x, cfg.attack.trigger.target_label)

    record = RoundRecord(
        round=r,
        acc=acc,
        asr=asr,
        d_t=outcome.diagnostics.d_t,
        phi_t=outcome.diagnostics.phi_t,
        accepted=sorted(outcome.accepted),
        malicious_selected=malicious,
        tp=tp,
        fp=fp,
        fn=fn,
        wall_ms=(time.perf_counter() - t0) * 1000.0,
    )
    return replace(state, round=r + 1, global_params=new_params), record


def _shared(cfg: SimConfig) -> tuple:
    """The config fields that :func:`build_state` reads."""
    return (cfg.data, cfg.model, cfg.attack.trigger, cfg.master_seed, cfg.total_clients)


def run_simulations(cfgs: list[SimConfig]) -> tuple[list[list[RoundRecord]], FedsimError | None]:
    """Run every config in ``cfgs`` from one state, all advancing one round at a time.

    The state is built once, from ``cfgs[0]``; an empty or invalid
    ``cfgs`` raises :class:`ConfigError`, as does a config that differs from
    ``cfgs[0]`` in a field that :func:`build_state` reads (``_shared``).
    With more than one run due, one :func:`_round_updates` call trains the
    round for all of them, and their ``wall_ms`` leaves that training out;
    a lone run trains in :func:`run_round`. If that shared call raises a
    :class:`FedsimError`, each due run trains the step alone, in order, and
    so meets its own error, if any, as it would alone. Each run's records,
    ``wall_ms`` aside, equal those of a run alone.

    Returns the evaluated rounds of each run before the first, in order, to
    raise a :class:`FedsimError`, and that error (None if none did): the
    outcome of running ``cfgs`` one after another up to the first error.
    """
    if not cfgs:
        raise ConfigError("no configs to run")
    for j, cfg in enumerate(cfgs):
        cfg.validate()
        if _shared(cfg) != _shared(cfgs[0]):
            raise ConfigError(f"config {j} differs from config 0 in what its state is built from")
    states = [build_state(cfgs[0])] * len(cfgs)
    records = [[] for _ in cfgs]
    live, error = len(cfgs), None
    for step in range(max(cfg.rounds for cfg in cfgs)):
        due = [j for j in range(live) if step < cfgs[j].rounds]
        shared = [None] * len(due)
        if len(due) > 1:
            with contextlib.suppress(FedsimError):  # then each run trains alone
                shared = _round_updates([states[j] for j in due], [cfgs[j] for j in due])
        for j, updates in zip(due, shared):
            cfg = cfgs[j]
            r = states[j].round
            try:
                states[j], record = run_round(states[j], cfg, updates)
            except FedsimError as e:
                live, error = j, e
                break
            if r % cfg.eval_every == 0:
                records[j].append(record)
    return records[:live], error


def run_simulation(cfg: SimConfig) -> list[RoundRecord]:
    """Run all rounds of ``cfg`` from ``build_state(cfg)``; keep the evaluated rounds.

    The one-run case of :func:`run_simulations`, whose error it raises.
    """
    runs, error = run_simulations([cfg])
    if error is not None:
        raise error
    return runs[0]


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _round_sig(x: float) -> float:
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
    """Final metrics plus mean detection precision/recall over defined rounds, at
    9 significant digits; NaN where no record defines one."""
    precisions = [r.tp / (r.tp + r.fp) for r in records if r.tp + r.fp > 0]
    recalls = [r.tp / (r.tp + r.fn) for r in records if r.tp + r.fn > 0]
    summary = {
        "final_acc": records[-1].acc if records else math.nan,
        "final_asr": records[-1].asr if records else math.nan,
        "mean_detection_precision": float(np.mean(precisions)) if precisions else math.nan,
        "mean_detection_recall": float(np.mean(recalls)) if recalls else math.nan,
    }
    return {key: _round_sig(value) for key, value in summary.items()}


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

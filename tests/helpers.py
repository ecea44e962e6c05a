"""Shared oracles and scenario builders for the test suite.

Oracles here deliberately avoid the library's own code paths: finite
differences for gradients, exhaustive subset enumeration for Multi-Krum,
plain-formula cosine arithmetic for the filter constructions.
"""

import itertools
import math
import warnings
from pathlib import Path

import numpy as np

from fedsim import config, linalg
from fedsim.attacks import cosine_loss_and_grad
from fedsim.data import Example, Samples, TriggerSpec
from fedsim.defenses import (
    DISPERSION_SENTINEL,
    ClientUpdate,
    DefenseConfig,
    DefenseOutcome,
    RoundDiagnostics,
    adaptive_phi,
    differential_scale,
    pairwise_scores,
    rcc_filter,
    select_core_set,
)
from fedsim.errors import DegenerateCentroidError, ZeroVectorError
from fedsim.model import ModelSpec, TrainSpec, loss_and_grad
from fedsim.sim import SimConfig

# The desk-scale scenario every end-to-end criterion runs on. Seed 18 was
# chosen once for roster health (no malicious client with target-dominated
# or tiny local data) and then frozen; see the acceptance suite.
STANDARD_SEED = 18
STANDARD_TRIGGER = TriggerSpec((13, 14, 15), (1.5, -1.5, 1.5), 0)
REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def standard_config(
    defense="fedavg",
    attack="none",
    seed=STANDARD_SEED,
    malicious=10,
    force_c=2,
    rounds=100,
    trigger=STANDARD_TRIGGER,
    epochs=2,
    lr=0.02,
    accept_count=None,
    core_size=None,
    kappa=50.0,
    alpha=0.5,
    edge_fraction=0.95,
    pgd_radius=2.0,
    boost=10.0,
    n_per_class=500,
) -> SimConfig:
    """``configs/replacement_vs_faros.cfg`` with the given values set over it.

    Attackers are pinned into every round (``force_c``) only when there are
    attackers that attack.
    """
    overrides = {
        "defense.kind": defense,
        "attack.kind": attack,
        "master_seed": seed,
        "malicious_count": malicious,
        "force_c_per_round": force_c if (malicious and attack != "none") else None,
        "rounds": rounds,
        "trigger.positions": ",".join(map(str, trigger.positions)),
        "trigger.values": ",".join(map(repr, trigger.values)),
        "trigger.target_label": trigger.target_label,
        "train.local_epochs": epochs,
        "train.learning_rate": repr(lr),
        "defense.accept_count": accept_count,
        "defense.core_size": core_size,
        "defense.kappa": repr(kappa),
        "attack.alpha": repr(alpha),
        "attack.edge_fraction": repr(edge_fraction),
        "attack.pgd_radius": repr(pgd_radius),
        "attack.boost": repr(boost),
        "data.n_per_class": n_per_class,
    }
    raw = config.load_config_file(REPO_CONFIGS / "replacement_vs_faros.cfg")
    raw.update({key: str(value) for key, value in overrides.items()})
    return config.build_config(raw).sim


def finite_diff_grad(f, x, h=1e-5) -> np.ndarray:
    """Central finite differences of a scalar function at x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        grad[j] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def rel_grad_error(analytic, numeric) -> float:
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    scale = max(1e-8, float(np.max(np.abs(numeric))), float(np.max(np.abs(analytic))))
    return float(np.max(np.abs(analytic - numeric)) / scale)


def brute_force_multi_krum(updates, f: int):
    """Independent Multi-Krum oracle: enumerate every neighbor subset.

    Per-pair squared distances use the same dot-product primitive as any
    numpy code would, but scores come from an exhaustive minimum over all
    neighbor subsets (fsum, order-free) rather than a sort.
    """
    k = len(updates)
    n_neighbors = min(max(k - f - 2, 1), k - 1)
    deltas = [np.asarray(u.delta, dtype=np.float64) for u in updates]
    scores = []
    for i in range(k):
        dists = []
        for j in range(k):
            if j == i:
                continue
            diff = deltas[i] - deltas[j]
            dists.append(float(np.dot(diff, diff)))
        best = min(
            math.fsum(subset) for subset in itertools.combinations(dists, n_neighbors)
        )
        scores.append(best)
    return scores


def plain_cosine(a, b) -> float:
    """Textbook cosine distance used to cross-check constructions."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return 1.0 - float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def make_duplicated_malicious_instance(seed: int, dim: int = 16):
    """Adversarial instance for the single-seed-failure comparison.

    Six honest clients share a dominant direction but carry idiosyncratic
    mid-magnitude coordinates; five malicious clients submit identical
    copies of a stealthy vector that hides one near-maximal spike
    coordinate. Under weak static scaling the duplicate block wins the
    mutual-similarity ranking; under strong adaptive scaling the spike is
    exposed and the mid-coordinate noise vanishes. Ids 0-4 are malicious.
    """
    rng = np.random.default_rng(seed)
    u = np.zeros(dim)
    u[:8] = rng.uniform(0.7, 1.0, size=8)
    umax = float(np.max(u))
    honest = []
    for _ in range(6):
        v = u * (1 + rng.normal(0, 0.01, size=dim))
        v[8:14] = rng.uniform(0, 0.65, size=6) * umax
        v[14:16] = 0.02 * umax
        honest.append(v * rng.uniform(0.5, 2.0))
    m = u.copy()
    m[8:14] = 0.5 * 0.65 * umax
    m[14] = 0.02 * umax
    m[15] = 0.9 * umax
    mal = [m.copy() for _ in range(5)]
    return [ClientUpdate(i, v) for i, v in enumerate(mal + honest)]


def make_separable_instance(seed: int, dim: int = 30):
    """Six near-parallel honest vectors plus two far (near-antipodal) malicious.

    Construction premises (honest pairwise cosine distance <= 0.1, malicious
    at >= 1.5 from every honest vector) are re-verified by the caller with
    plain cosine arithmetic. Ids 0-5 are honest, 6-7 malicious.
    """
    rng = np.random.default_rng(seed)
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    honest = [(u + 0.035 * rng.normal(size=dim)) * rng.uniform(0.5, 2.0) for _ in range(6)]
    mal = [(-u + 0.1 * rng.normal(size=dim)) * rng.uniform(0.5, 2.0) for _ in range(2)]
    return [ClientUpdate(i, v) for i, v in enumerate(honest + mal)]


def poison_dataset_oracle(ds, t: TriggerSpec, rate: float, seed: int) -> list[Example]:
    """Per-example poisoning formula: the same seeded selection as
    ``poison_dataset``, each picked example copied and triggered on its own."""
    ds = list(ds)
    eligible = [i for i, e in enumerate(ds) if e.label != t.target_label]
    count = min(math.ceil(rate * len(ds)), len(eligible))
    rng = np.random.default_rng(seed)
    picked = {eligible[j] for j in rng.choice(len(eligible), size=count, replace=False).tolist()}
    out = []
    for i, e in enumerate(ds):
        if i in picked:
            feats = np.array(e.features, dtype=np.float64, copy=True)
            for p, v in zip(t.positions, t.values):
                feats[p] = v
            e = Example(feats, t.target_label)
        out.append(e)
    return out


def dirichlet_partition_oracle(labels, num_clients: int, q: float, seed: int) -> dict:
    """Dealing by its documented steps: per class (ascending), shuffle the
    class's indices, draw Dirichlet(q) proportions, split at the floored
    cumulative cuts and append chunk ``j`` to client ``j``; then give each
    empty client, in id order, the last index of the currently largest one."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    buckets = [[] for _ in range(num_clients)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        props = rng.dirichlet(np.full(num_clients, q))
        cuts = (np.cumsum(props) * idx.size).astype(int)[:-1]
        for client, chunk in enumerate(np.split(idx, cuts)):
            buckets[client].extend(chunk.tolist())
    for client in range(num_clients):
        if not buckets[client]:
            donor = max(range(num_clients), key=lambda c: (len(buckets[c]), -c))
            buckets[client].append(buckets[donor].pop())
    return dict(enumerate(buckets))


def fresh_philox(seed: int, counter: int) -> np.random.Generator:
    """The documented stream of ``model.philox``, as a new generator built here."""
    key = np.array([seed % 2**64, counter], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sgd_oracle(
    global_params, spec: ModelSpec, examples, tspec: TrainSpec, alpha=0.0, radius=math.inf
) -> np.ndarray:
    """Local SGD by its documented schedule over a sequence of ``Example``s.

    Each epoch's order is ``fresh_philox(seed, epoch).permutation(n)``; each
    mini-batch is the examples at the next ``batch_size`` positions, stacked
    here, and the step is ``params - lr * grad`` with ``loss_and_grad`` on it.
    A nonzero ``alpha`` mixes the cosine stealth gradient against
    ``global_params`` into every step's gradient, before the step; a finite
    ``radius`` projects the params onto the L2 ball of that radius around
    ``global_params`` after every epoch.
    """
    examples = list(examples)
    center = np.array(global_params, dtype=np.float64, copy=True)
    params = center
    for epoch in range(tspec.local_epochs):
        order = fresh_philox(tspec.seed, epoch).permutation(len(examples)).tolist()
        for start in range(0, len(examples), tspec.batch_size):
            batch = stacked([examples[i] for i in order[start : start + tspec.batch_size]])
            grad = loss_and_grad(params, spec, batch)[1]
            if alpha:
                grad = (1.0 - alpha) * grad + alpha * cosine_loss_and_grad(params, center)[1]
            params = params - tspec.learning_rate * grad
        diff = params - center
        norm = float(np.linalg.norm(diff))
        if norm > radius:
            params = center + (radius / norm) * diff
    return params


def stacked(examples):
    """The arrays of a list of ``Example``s, stacked here rather than by the library."""
    examples = list(examples)
    return Samples(
        np.array([np.asarray(e.features, dtype=np.float64) for e in examples]),
        np.array([e.label for e in examples]),
    )


def longdouble_cosine(a, b) -> float:
    """Cosine distance by the reference formula: finite float64 operands,
    long-double dot products and norms, clamped into [0, 2]."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    assert np.isfinite(a).all() and np.isfinite(b).all() and a.shape == b.shape
    wa, wb = a.astype(np.longdouble), b.astype(np.longdouble)
    na, nb = np.sqrt(np.dot(wa, wa)), np.sqrt(np.dot(wb, wb))
    assert na != 0.0 and nb != 0.0
    d = 1.0 - float(np.dot(wa, wb) / (na * nb))
    return min(max(d, 0.0), 2.0)


def _list_mean(updates) -> np.ndarray:
    return np.mean(np.array([u.delta.tolist() for u in updates]), axis=0)


def scaled_filter_oracle(updates, cfg: DefenseConfig, single_core: bool) -> DefenseOutcome:
    """Per-vector FAROS (``single_core=False``) or static single-seed filter.

    Composes the public stages one vector at a time over Python lists:
    normalize -> dispersion -> scaling power -> differential_scale ->
    pairwise_scores -> select_core_set -> rcc_filter -> mean of the
    accepted raw deltas, with the same zero-delta exclusion warnings and
    fallbacks to plain averaging.
    """
    updates = sorted(updates, key=lambda u: u.client_id)
    cfg = cfg.resolved(len(updates))
    diag = RoundDiagnostics()

    def fallback():
        diag.fallback = True
        return DefenseOutcome(_list_mean(updates), [u.client_id for u in updates], diag)

    live, normalized = [], []
    for u in updates:
        try:
            normalized.append(linalg.normalize(u.delta.tolist()).tolist())
            live.append(u)
        except ZeroVectorError:
            diag.excluded.append(u.client_id)
            warnings.warn(
                f"client {u.client_id} sent an all-zero update; excluded from filtering",
                RuntimeWarning,
            )
    core_size = 1 if single_core else cfg.core_size
    if len(live) < 2 or len(live) < max(core_size, cfg.accept_count):
        return fallback()
    try:
        diag.d_t = linalg.dispersion(normalized)
    except DegenerateCentroidError:
        diag.d_t = DISPERSION_SENTINEL
    diag.phi_t = cfg.phi_static if single_core else adaptive_phi(diag.d_t, cfg.phi_max, cfg.kappa)
    scaled = [differential_scale(v, diag.phi_t).tolist() for v in normalized]
    scores = pairwise_scores(scaled)
    diag.scores = {u.client_id: s for u, s in zip(live, scores)}
    core = select_core_set(scores, core_size)
    diag.core_set = [live[i].client_id for i in core]
    try:
        _, accepted_pos, dists = rcc_filter(scaled, core, cfg.accept_count)
    except DegenerateCentroidError:
        return fallback()
    diag.distances = {u.client_id: d for u, d in zip(live, dists)}
    accepted = [live[i] for i in accepted_pos]
    return DefenseOutcome(_list_mean(accepted), [u.client_id for u in accepted], diag)


def outcome_bytes(out: DefenseOutcome) -> tuple:
    """Everything an aggregation outcome carries, with floats as exact reprs."""
    d = out.diagnostics
    return (
        out.aggregated_delta.dtype.str,
        out.aggregated_delta.tobytes(),
        list(out.accepted),
        repr((d.d_t, d.phi_t)),
        d.core_set,
        repr(sorted(d.distances.items())),
        repr(sorted(d.scores.items())),
        d.excluded,
        d.fallback,
    )

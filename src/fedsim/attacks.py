"""Malicious-client behaviors.

Four attack kinds on top of honest training: plain data poisoning,
model replacement (boosted updates), constrain-and-scale (stealth-regularized
training), and edge-case PGD (tail-data backdoor with norm-ball projection).
Attackers collude only through a shared config and trigger; every routine is
a pure function of its arguments.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import TriggerSpec, as_samples, edge_case_pool, poison_dataset, triggered_rows
from .errors import ConfigError, DimensionMismatchError, EmptySetError, ZeroVectorError
from .model import ModelSpec, TrainSpec, _epoch_order, _loss_grad_arrays, local_train


ATTACK_KINDS = ("none", "data_poison", "model_replacement", "constrain_and_scale", "edge_case_pgd")


@dataclass
class AttackConfig:
    """Knobs for the malicious side; only the fields relevant to ``kind`` matter.

    ``boost=None`` means "resolve to the per-round client count" (the value
    that makes a single boosted update dominate a plain average).
    """

    kind: str = "none"
    trigger: TriggerSpec | None = None
    poison_rate: float = 0.5
    boost: float | None = None
    alpha: float = 0.5
    pgd_radius: float = 2.0
    edge_fraction: float = 0.2
    pgd_per_step: bool = False

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ConfigError(
                f"attack.kind must be one of {', '.join(ATTACK_KINDS)}; got {self.kind!r}"
            )
        if not 0 < self.poison_rate <= 1:
            raise ConfigError(f"attack.poison_rate must be in (0, 1], got {self.poison_rate}")
        if not 0 <= self.alpha <= 1:
            raise ConfigError(f"attack.alpha must be in [0, 1], got {self.alpha}")
        if self.boost is not None and not 1 <= self.boost < math.inf:
            raise ConfigError(f"attack.boost must be finite and >= 1, got {self.boost}")
        # an infinite pgd_radius means no projection
        if not self.pgd_radius > 0:
            raise ConfigError(f"attack.pgd_radius must be > 0, got {self.pgd_radius}")
        if not 0 < self.edge_fraction < 1:
            raise ConfigError(f"attack.edge_fraction must be in (0, 1), got {self.edge_fraction}")


def model_replacement(local_params, global_params, boost: float) -> np.ndarray:
    """Amplify a local update: global + boost * (local - global)."""
    local_params = np.asarray(local_params, dtype=np.float64)
    global_params = np.asarray(global_params, dtype=np.float64)
    if local_params.shape != global_params.shape:
        raise DimensionMismatchError(
            f"dim mismatch: {local_params.size} vs {global_params.size}"
        )
    return global_params + boost * (local_params - global_params)


def pgd_project(params, center, radius: float) -> np.ndarray:
    """Project ``params`` onto the L2 ball of ``radius`` around ``center``."""
    params = np.asarray(params, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    if params.shape != center.shape:
        raise DimensionMismatchError(f"dim mismatch: {params.size} vs {center.size}")
    diff = params - center
    norm = float(np.linalg.norm(diff))
    if norm <= radius:
        return params
    return center + (radius / norm) * diff


def cosine_loss_and_grad(params, global_params) -> tuple[float, np.ndarray]:
    """Cosine-distance stealth term between current params and the global model.

    Returns (1 - cos(params, global_params)) and its analytic gradient with
    respect to ``params``.
    """
    p = np.asarray(params, dtype=np.float64)
    g = np.asarray(global_params, dtype=np.float64)
    if p.shape != g.shape:
        raise DimensionMismatchError(f"dim mismatch: {p.size} vs {g.size}")
    np_norm = float(np.linalg.norm(p))
    ng_norm = float(np.linalg.norm(g))
    if np_norm == 0.0 or ng_norm == 0.0:
        raise ZeroVectorError("cosine stealth loss undefined for zero vectors")
    cos = float(np.dot(p, g)) / (np_norm * ng_norm)
    grad = (cos / (np_norm * np_norm)) * p - g / (np_norm * ng_norm)
    return 1.0 - cos, grad


def constrain_and_scale_train(
    global_params, spec: ModelSpec, poisoned_data, tspec: TrainSpec, alpha: float
) -> np.ndarray:
    """SGD on (1-alpha) * classification loss + alpha * cosine stealth loss.

    ``poisoned_data`` is a ``Samples`` or a sequence of ``Example``s.
    alpha = 0 reproduces plain poisoned training bit-for-bit; alpha = 1
    descends the stealth term alone.
    """
    if not 0 <= alpha <= 1:
        raise ConfigError(f"alpha must be in [0, 1], got {alpha}")
    global_params = np.asarray(global_params, dtype=np.float64)
    if not np.any(global_params):
        raise ZeroVectorError("stealth term undefined against an all-zero global model")
    poisoned = as_samples(poisoned_data)
    if not len(poisoned):
        raise EmptySetError("cannot train on an empty dataset")
    params = np.array(global_params, copy=True)
    x, y = poisoned.x, poisoned.y
    n = x.shape[0]
    for epoch in range(tspec.local_epochs):
        order = _epoch_order(tspec.seed, epoch, n)
        for start in range(0, n, tspec.batch_size):
            idx = order[start : start + tspec.batch_size]
            _, g_class = _loss_grad_arrays(params, spec, x[idx], y[idx])
            if alpha == 0.0:
                grad = g_class
            else:
                _, g_cos = cosine_loss_and_grad(params, global_params)
                grad = (1.0 - alpha) * g_class + alpha * g_cos
            params = params - tspec.learning_rate * grad
    return params


def _edge_source_label(local_data, target_label: int) -> int:
    """Most frequent non-target label in the local data (ties to lowest label)."""
    labels = as_samples(local_data).y
    counts = np.bincount(labels[labels != target_label])
    if not counts.any():
        raise ConfigError("no non-target examples to build an edge-case pool from")
    return int(np.argmax(counts))


def edge_case_pgd_train(
    global_params, spec: ModelSpec, local_data, tspec: TrainSpec, acfg: AttackConfig
) -> np.ndarray:
    """Backdoor training on local data plus a triggered edge-case tail.

    The pool is the far tail of the dominant non-target class in the local
    data (a ``Samples`` or a sequence of ``Example``s); its triggered copies
    are appended after the local rows. After every epoch (or every step
    with ``pgd_per_step``) the params are projected back into the L2 ball
    of ``pgd_radius`` around the global model, so the returned model always
    lies within that ball.
    """
    local = as_samples(local_data)
    if acfg.trigger is None:
        raise ConfigError("edge_case_pgd needs a trigger")
    source = _edge_source_label(local, acfg.trigger.target_label)
    pool = edge_case_pool(local, source, acfg.edge_fraction, tspec.seed)
    if not len(pool):
        raise ConfigError("edge-case pool is empty")
    x = np.concatenate([local.x, triggered_rows(pool.x, pool.y, acfg.trigger)])
    y = np.concatenate([local.y, np.full(len(pool), acfg.trigger.target_label, dtype=np.intp)])

    global_params = np.asarray(global_params, dtype=np.float64)
    params = np.array(global_params, copy=True)
    n = x.shape[0]
    for epoch in range(tspec.local_epochs):
        order = _epoch_order(tspec.seed, epoch, n)
        for start in range(0, n, tspec.batch_size):
            idx = order[start : start + tspec.batch_size]
            _, grad = _loss_grad_arrays(params, spec, x[idx], y[idx])
            params = params - tspec.learning_rate * grad
            if acfg.pgd_per_step:
                params = pgd_project(params, global_params, acfg.pgd_radius)
        params = pgd_project(params, global_params, acfg.pgd_radius)
    return params


def malicious_local_train(
    global_params, spec: ModelSpec, local_data, tspec: TrainSpec, acfg: AttackConfig
) -> np.ndarray:
    """Dispatch local training by attack kind.

    ``local_data`` is a ``Samples`` or a sequence of ``Example``s. ``none``
    is byte-identical to honest training. The poisoning kinds train on a
    seeded poisoned copy of the local data (``poison_dataset``);
    constrain-and-scale falls back to plain poisoned training when the
    global model is all zeros (its stealth term is undefined there).
    """
    if acfg.kind == "none":
        return local_train(global_params, spec, local_data, tspec)
    if acfg.trigger is None:
        raise ConfigError(f"attack kind {acfg.kind!r} needs a trigger")

    # an attacker holding only target-label data has nothing to poison and
    # falls back to its unmodified local set (boost/projection still apply)
    local = as_samples(local_data)
    eligible = bool(np.any(local.y != acfg.trigger.target_label))

    if acfg.kind == "edge_case_pgd":
        if not eligible:
            params = local_train(global_params, spec, local, tspec)
            return pgd_project(params, np.asarray(global_params, dtype=np.float64), acfg.pgd_radius)
        return edge_case_pgd_train(global_params, spec, local, tspec, acfg)

    poisoned = local
    if eligible:
        poisoned = poison_dataset(local, acfg.trigger, acfg.poison_rate, tspec.seed)
    if acfg.kind == "data_poison":
        return local_train(global_params, spec, poisoned, tspec)
    if acfg.kind == "model_replacement":
        if acfg.boost is None:
            raise ConfigError("attack.boost must be resolved before training")
        trained = local_train(global_params, spec, poisoned, tspec)
        return model_replacement(trained, global_params, acfg.boost)
    if acfg.kind == "constrain_and_scale":
        if not np.any(np.asarray(global_params)):
            return local_train(global_params, spec, poisoned, tspec)
        return constrain_and_scale_train(global_params, spec, poisoned, tspec, acfg.alpha)
    raise ConfigError(f"unknown attack kind {acfg.kind!r}")

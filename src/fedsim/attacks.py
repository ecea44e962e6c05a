"""Malicious-client behaviors.

Four attack kinds on top of honest training: plain data poisoning,
model replacement (boosted updates), constrain-and-scale (stealth-regularized
training), and edge-case PGD (tail-data backdoor with norm-ball projection).
Every trainer here runs ``model.sgd`` on a ``data.Samples``: constrain-and-scale
mixes a stealth gradient into each step, edge-case PGD projects after each
epoch. Like ``sgd``, each trainer takes one global model, shape (P,), or a
stack of G of them, shape (G, P), and returns the same shape; every hook acts
on each row against that row's own global model, so a row of a stack equals
the one-model result bit for bit. Attackers collude only through a shared
config and trigger; every routine is a pure function of its arguments.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import Samples, TriggerSpec, edge_case_pool, poison_dataset, triggered_rows
from .errors import ConfigError, DimensionMismatchError, ZeroVectorError, bounded, check_bounds
from .errors import check_in
from .model import ModelSpec, TrainSpec, local_train, sgd


ATTACK_KINDS = ("none", "data_poison", "model_replacement", "constrain_and_scale", "edge_case_pgd")


@dataclass(frozen=True)
class AttackConfig:
    """Knobs for the malicious side; only the fields relevant to ``kind`` matter.

    ``trigger`` is the run's one backdoor trigger: attackers stamp it, and
    the attack success rate is measured with it, in clean runs too.
    ``boost=None`` means "resolve to the per-round client count" (the value
    that makes a single boosted update dominate a plain average).
    """

    kind: str = bounded(ATTACK_KINDS, "none")
    trigger: TriggerSpec = field(default_factory=TriggerSpec)
    poison_rate: float = bounded("(0, 1]", 0.5)
    boost: float | None = bounded("[1, inf)", None)
    alpha: float = bounded("[0, 1]", 0.5)
    # an infinite pgd_radius means no projection
    pgd_radius: float = bounded("(0, inf]", 2.0)
    edge_fraction: float = bounded("(0, 1)", 0.2)

    def __post_init__(self):
        check_bounds(self, "attack")


def model_replacement(local_params, global_params, boost: float) -> np.ndarray:
    """Amplify a local update: global + boost * (local - global), elementwise, so
    row by row for (G, P) stacks."""
    local_params = np.asarray(local_params, dtype=np.float64)
    global_params = np.asarray(global_params, dtype=np.float64)
    if local_params.shape != global_params.shape:
        raise DimensionMismatchError(
            f"dim mismatch: {local_params.size} vs {global_params.size}"
        )
    return global_params + boost * (local_params - global_params)


def pgd_project(params, center, radius: float) -> np.ndarray:
    """Project ``params`` onto the L2 ball of ``radius`` around ``center``; a
    (G, P) stack row by row, each row onto the ball around its row of ``center``."""
    params = np.asarray(params, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    if params.shape != center.shape:
        raise DimensionMismatchError(f"dim mismatch: {params.size} vs {center.size}")
    out = params.copy()
    for row, c in zip(np.atleast_2d(out), np.atleast_2d(center)):
        diff = row - c
        norm = float(np.linalg.norm(diff))
        # a NaN norm projects too, to NaN
        if not norm <= radius:
            row[:] = c + (radius / norm) * diff
    return out


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
    global_params, spec: ModelSpec, poisoned_data: Samples, tspec: TrainSpec, alpha: float
) -> np.ndarray:
    """SGD on (1-alpha) * classification loss + alpha * cosine stealth loss.

    alpha = 0 and an all-zero global model (where the stealth term is
    undefined) give plain poisoned training bit-for-bit; alpha = 1
    descends the stealth term alone. In a (G, P) stack each row mixes in
    the stealth term against its own global model, and an all-zero row
    trains plain.
    """
    check_in("[0, 1]", "alpha", alpha)
    global_params = np.asarray(global_params, dtype=np.float64)
    # each row a fresh array, so a BLAS dot that aligns its operands first
    # sees what it sees for one model alone
    centers = [center.copy() for center in np.atleast_2d(global_params)]
    mixed = [g for g, center in enumerate(centers) if np.any(center)] if alpha else []

    def stealth(params, grad):
        for g in mixed:
            _, g_cos = cosine_loss_and_grad(params[g].copy(), centers[g])
            grad[g] = (1.0 - alpha) * grad[g] + alpha * g_cos
        return grad

    return sgd(global_params, spec, poisoned_data.x, poisoned_data.y, tspec,
               step=stealth if mixed else None)


def _edge_source_label(local_data: Samples, target_label: int) -> int:
    """Most frequent non-target label in the local data (ties to lowest label)."""
    labels = local_data.y
    counts = np.bincount(labels[labels != target_label])
    if not counts.any():
        raise ConfigError("no non-target examples to build an edge-case pool from")
    return int(np.argmax(counts))


def edge_case_pgd_train(
    global_params, spec: ModelSpec, local_data: Samples, tspec: TrainSpec, acfg: AttackConfig
) -> np.ndarray:
    """Backdoor training on local data plus a triggered edge-case tail.

    The pool is the far tail of the dominant non-target class in the local
    data; its triggered copies are appended after the local rows. After
    every epoch the params are projected back into the L2 ball of
    ``pgd_radius`` around the global model, so the returned model always
    lies within that ball; in a (G, P) stack each row is projected onto the
    ball around its own global model.
    """
    source = _edge_source_label(local_data, acfg.trigger.target_label)
    pool = edge_case_pool(local_data, source, acfg.edge_fraction)
    x = np.concatenate([local_data.x, triggered_rows(pool.x, pool.y, acfg.trigger)])
    target = np.full(len(pool), acfg.trigger.target_label, dtype=np.intp)
    y = np.concatenate([local_data.y, target])
    global_params = np.asarray(global_params, dtype=np.float64)
    centers = np.atleast_2d(global_params)
    return sgd(global_params, spec, x, y, tspec,
               end_epoch=lambda params: pgd_project(params, centers, acfg.pgd_radius))


def malicious_local_train(
    global_params, spec: ModelSpec, local_data: Samples, tspec: TrainSpec, acfg: AttackConfig
) -> np.ndarray:
    """Dispatch local training by attack kind, for one global model (P,) or a
    stack (G, P).

    ``none`` is byte-identical to honest training. The poisoning kinds
    train on a seeded poisoned copy of the local data (``poison_dataset``),
    made once for the whole stack.
    """
    if acfg.kind == "none":
        return local_train(global_params, spec, local_data, tspec)

    # an attacker holding only target-label data has nothing to poison and
    # falls back to its unmodified local set (boost/projection still apply)
    eligible = bool(np.any(local_data.y != acfg.trigger.target_label))

    if acfg.kind == "edge_case_pgd":
        if not eligible:
            params = local_train(global_params, spec, local_data, tspec)
            return pgd_project(params, np.asarray(global_params, dtype=np.float64), acfg.pgd_radius)
        return edge_case_pgd_train(global_params, spec, local_data, tspec, acfg)

    poisoned = local_data
    if eligible:
        poisoned = poison_dataset(local_data, acfg.trigger, acfg.poison_rate, tspec.seed)
    if acfg.kind == "data_poison":
        return local_train(global_params, spec, poisoned, tspec)
    if acfg.kind == "model_replacement":
        if acfg.boost is None:
            raise ConfigError("attack.boost must be resolved before training")
        trained = local_train(global_params, spec, poisoned, tspec)
        return model_replacement(trained, global_params, acfg.boost)
    if acfg.kind == "constrain_and_scale":
        return constrain_and_scale_train(global_params, spec, poisoned, tspec, acfg.alpha)
    raise ConfigError(f"unknown attack kind {acfg.kind!r}")

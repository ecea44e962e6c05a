"""Server-side aggregation rules.

Baselines (plain averaging, Multi-Krum, weak differential privacy, a
static-power single-seed filter) plus the adaptive two-stage filter that
combines dispersion-driven power scaling with core-set centroid filtering.

A rule reads only the round's updates and its :class:`DefenseConfig`. Every
rule stacks the updates once, in ascending client id order, into one
(k, P) delta matrix and works on the positions of its rows, so results are
bit-identical under permutation of the input, reductions have a fixed
summation order, and every tie-break goes to the lower client id.
"""

import contextlib
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import ConfigError, DegenerateCentroidError, DimensionMismatchError
from .errors import DuplicateClientError, EmptySetError, NonFiniteAggregateError, bounded
from .errors import check_bounds, check_in

DEFENSE_KINDS = ("fedavg", "multi_krum", "weak_dp", "scope_static", "faros")

# Dispersion stand-in for a round whose normalized-update centroid is zero
# (maximal disagreement): large enough to drive the scaling power to its
# most conservative value, small enough that kappa * sentinel stays finite.
DISPERSION_SENTINEL = 1e300


@dataclass(frozen=True, eq=False)
class ClientUpdate:
    """One client's raw parameter delta for a round."""

    client_id: int
    delta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta", linalg.as_vector(self.delta))


@dataclass(frozen=True)
class DefenseConfig:
    """Settings of the aggregation rules; only the fields for ``kind`` matter.

    ``core_size`` (l) and ``accept_count`` (m) default to None, meaning
    "half the round's clients, rounded up" -- the honest-majority default.
    Their upper bound is the round's client count, checked by
    ``SimConfig`` against ``clients_per_round`` and by :meth:`size`
    against a given k, only by the rules that read them.
    """

    kind: str = bounded(DEFENSE_KINDS, "fedavg")
    phi_max: float = bounded("(1, inf)", 3.0)
    kappa: float = bounded("(0, inf)", 50.0)
    core_size: int | None = bounded("[1, inf)", None)
    accept_count: int | None = bounded("[1, inf)", None)
    krum_f: int = bounded("[0, inf)", 2)
    # an infinite clip_norm means no clipping
    clip_norm: float = bounded("(0, inf]", 5.0)
    noise_std: float = bounded("[0, inf)", 0.0)
    phi_static: float = bounded("[1, inf)", 1.5)

    def __post_init__(self):
        check_bounds(self, "defense")

    def size(self, name: str, k: int) -> int:
        """Field ``name``, ``core_size`` or ``accept_count``, for a round of k
        clients: unset is ceil(k/2), and the value must lie in [1, k]."""
        value = getattr(self, name)
        value = math.ceil(k / 2) if value is None else value
        check_in(f"[1, {k}]", f"defense.{name}", value)
        return value


@dataclass
class RoundDiagnostics:
    """Per-round defense internals, keyed by client id where applicable; a rule
    that does not power-scale leaves ``d_t`` and ``phi_t`` NaN."""

    d_t: float = float("nan")
    phi_t: float = float("nan")
    core_set: list[int] = field(default_factory=list)
    distances: dict[int, float] = field(default_factory=dict)
    scores: dict[int, float] = field(default_factory=dict)
    excluded: list[int] = field(default_factory=list)
    fallback: bool = False


@dataclass
class DefenseOutcome:
    """Aggregation result: the delta to apply, who was accepted, and internals."""

    aggregated_delta: np.ndarray
    accepted: list[int]
    diagnostics: RoundDiagnostics


def _stack(updates) -> tuple[list[int], np.ndarray]:
    """The round's client ids, ascending, and their deltas as the rows of one matrix.
    A client may send one update per round."""
    updates = sorted(updates, key=lambda u: u.client_id)
    if not updates:
        raise EmptySetError("no client updates to aggregate")
    dim = updates[0].delta.size
    for prev, u in zip(updates, updates[1:]):
        if u.client_id == prev.client_id:
            raise DuplicateClientError(f"client {u.client_id} sent more than one update")
        if u.delta.size != dim:
            raise DimensionMismatchError(
                f"client {u.client_id} delta has dim {u.delta.size}, expected {dim}"
            )
    return [u.client_id for u in updates], np.array([u.delta for u in updates])


def _mean_of(ids, deltas, rows, diag, noise=None) -> DefenseOutcome:
    """Accept the clients at the ascending positions ``rows`` and average their deltas,
    plus ``noise`` if given. A mean of finite deltas that overflows raises
    :class:`NonFiniteAggregateError`."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = deltas[rows].mean(axis=0)
        if noise is not None:
            mean += noise
    if not np.isfinite(mean).all():
        raise NonFiniteAggregateError("the aggregate of finite updates overflows (NaN or Inf); "
                                      "not applied")
    return DefenseOutcome(mean, [ids[i] for i in rows], diag)


def fedavg(updates) -> DefenseOutcome:
    """Plain averaging: accept everyone, mean the deltas in client-id order."""
    ids, deltas = _stack(updates)
    return _mean_of(ids, deltas, range(len(ids)), RoundDiagnostics())


def _fsum_or_inf(values: list[float]) -> float:
    """The exactly rounded sum of non-negative ``values``; inf where it overflows."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def multi_krum(updates, cfg: DefenseConfig) -> DefenseOutcome:
    """Score clients by summed squared distance to nearest neighbors, keep the best.

    With f = ``cfg.krum_f``, score_i sums the squared L2 distances from
    client i to its k - f - 2 nearest neighbors; the ``cfg.accept_count``
    lowest-scoring clients (resolved against k) are averaged. The
    k >= 2f + 3 requirement is warned about but not enforced, so its
    failure mode can be studied.
    """
    ids, deltas = _stack(updates)
    k = len(ids)
    f = cfg.krum_f
    select = cfg.size("accept_count", k)
    if k < 2 * f + 3:
        warnings.warn(
            f"multi-krum has k={k} < 2f+3={2 * f + 3}; scores are not Byzantine-safe",
            RuntimeWarning,
            stacklevel=2,
        )
    n_neighbors = min(max(k - f - 2, 1), k - 1) if k > 1 else 0

    # math.fsum gives exactly rounded, order-independent neighbor sums. A distance
    # between finite deltas may overflow to inf, which scores the pair farthest;
    # so may a sum of finite distances, which fsum raises on instead.
    sq_dists = np.zeros((k, k))
    with np.errstate(over="ignore"):
        for i in range(k):
            for j in range(i + 1, k):
                diff = deltas[i] - deltas[j]
                sq_dists[i, j] = sq_dists[j, i] = float(np.dot(diff, diff))
    # the zero self-distance sorts first in its row
    scores = [_fsum_or_inf(row[1 : n_neighbors + 1]) for row in np.sort(sq_dists, axis=1).tolist()]

    diag = RoundDiagnostics(scores=dict(zip(ids, scores)))
    return _mean_of(ids, deltas, select_core_set(scores, select), diag)


def weak_dp(updates, cfg: DefenseConfig, seed: int) -> DefenseOutcome:
    """Clip each delta to norm ``cfg.clip_norm``, average, add seeded ``cfg.noise_std`` noise."""
    ids, deltas = _stack(updates)
    # rows of the stacked copy are clipped in place, not the callers' deltas; a finite
    # row's norm can overflow, and the row scaled to max magnitude 1 then gives a finite one
    with np.errstate(over="ignore"):
        for row in deltas:
            norm = float(np.linalg.norm(row))
            if norm > cfg.clip_norm:
                if norm == math.inf:
                    row /= np.abs(row).max()
                    norm = float(np.linalg.norm(row))
                row *= cfg.clip_norm / norm
    noise = None
    if cfg.noise_std > 0:
        noise = np.random.default_rng(seed).normal(0.0, cfg.noise_std, size=deltas.shape[1])
    return _mean_of(ids, deltas, range(len(ids)), RoundDiagnostics(), noise)


def adaptive_phi(d_t: float, phi_max: float, kappa: float) -> float:
    """Exponential-decay scaling power: 1 + (phi_max - 1) * exp(-kappa * d_t).

    Approaches phi_max for concentrated rounds (small dispersion) and 1 for
    scattered ones. Strictly decreasing and continuous in d_t; for very
    large d_t the exponential underflows and the value is exactly 1.0.
    """
    check_in("[0, inf]", "dispersion", d_t)
    check_in("(1, inf)", "phi_max", phi_max)
    check_in("(0, inf)", "kappa", kappa)
    return 1.0 + (phi_max - 1.0) * math.exp(-kappa * d_t)


def differential_scale(v, phi: float) -> np.ndarray:
    """Element-wise |x|^phi * sgn(x); expects normalized entries in [-1, 1].

    {-1, 0, 1} are fixed points for any power; phi > 1 suppresses small
    coordinates relative to dominant ones. A 2-D matrix of vectors keeps
    its shape; any other input is flattened to one vector.
    """
    v = linalg.as_matrix(v) if np.ndim(v) == 2 else linalg.as_vector(v)
    return np.sign(v) * np.abs(v) ** phi


def pairwise_scores(scaled) -> list[float]:
    """Mutual-dissimilarity score per row: sum of cosine distances to all rows.

    ``scaled`` is a (k, P) matrix. The sum runs over every row including
    itself (the self term is 0 and never affects the ranking).
    """
    # widened once, not on each cosine_distance call
    rows = list(linalg.as_matrix(scaled).astype(np.longdouble))
    k = len(rows)
    dists = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            dists[i, j] = dists[j, i] = linalg.cosine_distance(rows[i], rows[j])
    # a row sum along axis 1 adds in the same order as np.sum of the row
    return dists.sum(axis=1).tolist()


def select_core_set(scores, l: int) -> list[int]:
    """Positions of the ``l`` smallest scores, ascending, ties broken by lower position.

    The one selection routine: the core set, RCC's and Multi-Krum's accepted rows.
    """
    scores = list(scores)
    if not 1 <= l <= len(scores):
        raise ConfigError(f"core size must be in [1, {len(scores)}], got {l}")
    order = sorted(range(len(scores)), key=lambda i: (scores[i], i))
    return sorted(order[:l])


def rcc_filter(scaled, core, m: int):
    """Accept the ``m`` rows nearest the core set's centroid.

    Returns (centroid, accepted positions, per-row cosine distances).
    ``scaled`` is a (k, P) matrix. The centroid averages its rows at the
    ``core`` positions; a zero centroid is degenerate and raises.
    """
    scaled = linalg.as_matrix(scaled)
    core = list(core)
    if not core:
        raise EmptySetError("core set is empty")
    if not 1 <= m <= len(scaled):
        raise ConfigError(f"accept count must be in [1, {len(scaled)}], got {m}")
    centroid, dists = linalg.centroid_distances(scaled, core, "core-set")
    return centroid, select_core_set(dists, m), dists


def _scaled_pipeline(updates, cfg: DefenseConfig, single_core: bool) -> DefenseOutcome:
    """Shared two-stage filter behind the adaptive and static-power rules.

    Pipeline: normalize each delta -> dispersion -> scaling power ->
    power-scale -> mutual-similarity core set -> centroid filtering ->
    uniform mean of the accepted raw deltas. ``single_core`` selects the
    static rule: power ``cfg.phi_static`` and a one-client core set. Every
    stage works on rows of the round's one stacked delta matrix, by position.
    Zero-delta clients are excluded up front; degenerate rounds fall back to
    plain averaging over all updates, flagged in the diagnostics.
    """
    ids, deltas = _stack(updates)
    core_size = 1 if single_core else cfg.size("core_size", len(ids))
    accept_count = cfg.size("accept_count", len(ids))
    diag = RoundDiagnostics()

    normalized, zero = linalg.normalize_rows(deltas)
    for i in np.flatnonzero(zero).tolist():
        diag.excluded.append(ids[i])
        warnings.warn(
            f"client {ids[i]} sent an all-zero update; excluded from filtering",
            RuntimeWarning,
            stacklevel=3,
        )
    # row positions of the clients that take part in filtering, and their ids
    live = np.flatnonzero(~zero).tolist()
    live_ids = [ids[p] for p in live]

    accepted = None  # positions among live; None falls back to plain averaging
    if len(live) >= max(2, core_size, accept_count):
        try:
            diag.d_t = linalg.dispersion(normalized)
        except DegenerateCentroidError:
            diag.d_t = DISPERSION_SENTINEL
        diag.phi_t = (cfg.phi_static if single_core
                      else adaptive_phi(diag.d_t, cfg.phi_max, cfg.kappa))

        scaled = differential_scale(normalized, diag.phi_t)
        scores = pairwise_scores(scaled)
        diag.scores = dict(zip(live_ids, scores))
        core = select_core_set(scores, core_size)
        diag.core_set = [live_ids[i] for i in core]
        with contextlib.suppress(DegenerateCentroidError):
            _, accepted, dists = rcc_filter(scaled, core, accept_count)
            diag.distances = dict(zip(live_ids, dists))

    diag.fallback = accepted is None
    rows = range(len(ids)) if diag.fallback else [live[i] for i in accepted]
    return _mean_of(ids, deltas, rows, diag)


def faros_aggregate(updates, cfg: DefenseConfig) -> DefenseOutcome:
    """Adaptive two-stage filter: dispersion-driven scaling plus core-set filtering.

    The scaling power adapts each round to the dispersion of the normalized
    updates; the trust anchor is the centroid of the most mutually similar
    core set rather than any single client. With ``accept_count == k`` the
    result equals :func:`fedavg` element-wise.
    """
    return _scaled_pipeline(updates, cfg, single_core=False)


def scope_static_aggregate(updates, cfg: DefenseConfig) -> DefenseOutcome:
    """Static-power single-seed baseline.

    Same pipeline with two deliberate weaknesses: the scaling power is the
    fixed ``phi_static`` (no adaptation) and the core set collapses to the
    single most mutually similar client, whose vector alone becomes the
    filtering anchor.
    """
    return _scaled_pipeline(updates, cfg, single_core=True)


def aggregate(updates, cfg: DefenseConfig, seed: int = 0, round: int | None = None) -> DefenseOutcome:
    """Dispatch to the rule selected by ``cfg.kind``; ``seed`` keys ``weak_dp``'s noise.

    ``updates`` may be any iterable; an empty one raises :class:`EmptySetError`.
    An aggregate that overflows raises :class:`NonFiniteAggregateError`,
    naming ``cfg.kind`` and ``round`` if given.
    """
    rules = {
        "fedavg": lambda: fedavg(updates),
        "multi_krum": lambda: multi_krum(updates, cfg),
        "weak_dp": lambda: weak_dp(updates, cfg, seed),
        "scope_static": lambda: scope_static_aggregate(updates, cfg),
        "faros": lambda: faros_aggregate(updates, cfg),
    }
    try:
        # DefenseConfig is frozen and its kind checked against DEFENSE_KINDS
        return rules[cfg.kind]()
    except NonFiniteAggregateError as e:
        where = "" if round is None else f"round {round}, "
        raise NonFiniteAggregateError(f"{where}defense.kind {cfg.kind}: {e}") from None

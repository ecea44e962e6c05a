"""Server-side aggregation rules.

Baselines (plain averaging, Multi-Krum, weak differential privacy, a
static-power single-seed filter) plus the adaptive two-stage filter that
combines dispersion-driven power scaling with core-set centroid filtering.

A rule reads only the round's updates and its :class:`DefenseConfig`. Every
rule sorts the incoming updates by ascending client id before doing any
arithmetic, so results are bit-identical under permutation of the input
and reductions have a fixed summation order. All tie-breaks are by ascending
client id.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    ConfigError,
    DegenerateCentroidError,
    DimensionMismatchError,
    EmptySetError,
)

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


@dataclass
class DefenseConfig:
    """Settings of the aggregation rules; only the fields for ``kind`` matter.

    ``core_size`` (l) and ``accept_count`` (m) default to None, meaning
    "half the round's clients, rounded up" -- the honest-majority default.
    Set counts must be at least 1 (``krum_f`` at least 0); the upper bound
    is the round's client count, checked by ``SimConfig.validate`` against
    ``clients_per_round`` and by :meth:`resolved` against a given k.
    """

    kind: str = "fedavg"
    phi_max: float = 3.0
    kappa: float = 50.0
    core_size: int | None = None
    accept_count: int | None = None
    krum_f: int = 2
    clip_norm: float = 5.0
    noise_std: float = 0.0
    phi_static: float = 1.5

    def __post_init__(self):
        if self.kind not in DEFENSE_KINDS:
            raise ConfigError(
                f"defense.kind must be one of {', '.join(DEFENSE_KINDS)}; got {self.kind!r}"
            )
        if not 1 < self.phi_max < math.inf:
            raise ConfigError(f"defense.phi_max must be finite and > 1, got {self.phi_max}")
        if not 0 < self.kappa < math.inf:
            raise ConfigError(f"defense.kappa must be finite and > 0, got {self.kappa}")
        # an infinite clip_norm means no clipping
        if not self.clip_norm > 0:
            raise ConfigError(f"defense.clip_norm must be > 0, got {self.clip_norm}")
        if not 0 <= self.noise_std < math.inf:
            raise ConfigError(f"defense.noise_std must be finite and >= 0, got {self.noise_std}")
        if not 1 <= self.phi_static < math.inf:
            raise ConfigError(f"defense.phi_static must be finite and >= 1, got {self.phi_static}")
        for key, count, low in (
            ("defense.core_size", self.core_size, 1),
            ("defense.accept_count", self.accept_count, 1),
            ("defense.krum_f", self.krum_f, 0),
        ):
            if count is not None and count < low:
                raise ConfigError(f"{key} must be >= {low}, got {count}")

    def resolved(self, k: int) -> "DefenseConfig":
        """Fill the per-round defaults l = m = ceil(k/2) and validate against k."""
        l = self.core_size if self.core_size is not None else math.ceil(k / 2)
        m = self.accept_count if self.accept_count is not None else math.ceil(k / 2)
        if not 1 <= l <= k:
            raise ConfigError(f"core_size must be in [1, {k}], got {l}")
        if not 1 <= m <= k:
            raise ConfigError(f"accept_count must be in [1, {k}], got {m}")
        return DefenseConfig(**{**self.__dict__, "core_size": l, "accept_count": m})


@dataclass
class RoundDiagnostics:
    """Per-round defense internals, keyed by client id where applicable."""

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
    diagnostics: RoundDiagnostics | None = None


def _sorted_updates(updates) -> list[ClientUpdate]:
    updates = list(updates)
    if not updates:
        raise EmptySetError("no client updates to aggregate")
    updates = sorted(updates, key=lambda u: u.client_id)
    dim = updates[0].delta.size
    for u in updates[1:]:
        if u.delta.size != dim:
            raise DimensionMismatchError(
                f"client {u.client_id} delta has dim {u.delta.size}, expected {dim}"
            )
    return updates


def _mean_delta(updates) -> np.ndarray:
    return np.mean(np.array([u.delta for u in updates]), axis=0)


def fedavg(updates) -> DefenseOutcome:
    """Plain averaging: accept everyone, mean the deltas in client-id order."""
    updates = _sorted_updates(updates)
    return DefenseOutcome(
        aggregated_delta=_mean_delta(updates),
        accepted=[u.client_id for u in updates],
    )


def multi_krum(updates, cfg: DefenseConfig) -> DefenseOutcome:
    """Score clients by summed squared distance to nearest neighbors, keep the best.

    With f = ``cfg.krum_f``, score_i sums the squared L2 distances from
    client i to its k - f - 2 nearest neighbors; the ``cfg.accept_count``
    lowest-scoring clients (resolved against k) are averaged. The
    k >= 2f + 3 requirement is warned about but not enforced, so its
    failure mode can be studied.
    """
    updates = _sorted_updates(updates)
    k = len(updates)
    f = cfg.krum_f
    select = cfg.resolved(k).accept_count
    if k < 2 * f + 3:
        warnings.warn(
            f"multi-krum has k={k} < 2f+3={2 * f + 3}; scores are not Byzantine-safe",
            RuntimeWarning,
            stacklevel=2,
        )
    n_neighbors = min(max(k - f - 2, 1), k - 1) if k > 1 else 0

    # math.fsum gives exactly rounded, order-independent neighbor sums.
    sq_dists = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            diff = updates[i].delta - updates[j].delta
            sq_dists[i, j] = sq_dists[j, i] = float(np.dot(diff, diff))
    scores = []
    for i in range(k):
        others = sorted(np.delete(sq_dists[i], i).tolist())
        scores.append(math.fsum(others[:n_neighbors]))

    order = sorted(range(k), key=lambda i: (scores[i], updates[i].client_id))
    chosen = sorted(order[:select])
    accepted = [updates[i] for i in chosen]
    diag = RoundDiagnostics(
        scores={u.client_id: scores[i] for i, u in enumerate(updates)}
    )
    return DefenseOutcome(
        aggregated_delta=_mean_delta(accepted),
        accepted=[u.client_id for u in accepted],
        diagnostics=diag,
    )


def weak_dp(updates, cfg: DefenseConfig, seed: int) -> DefenseOutcome:
    """Clip each delta to norm ``cfg.clip_norm``, average, add seeded ``cfg.noise_std`` noise."""
    updates = _sorted_updates(updates)
    clipped = []
    for u in updates:
        norm = float(np.linalg.norm(u.delta))
        scale = min(1.0, cfg.clip_norm / norm) if norm > 0 else 1.0
        clipped.append(u.delta * scale if scale < 1.0 else u.delta)
    mean = np.mean(np.array(clipped), axis=0)
    if cfg.noise_std > 0:
        rng = np.random.default_rng(seed)
        mean = mean + rng.normal(0.0, cfg.noise_std, size=mean.shape)
    return DefenseOutcome(
        aggregated_delta=mean, accepted=[u.client_id for u in updates]
    )


def adaptive_phi(d_t: float, phi_max: float, kappa: float) -> float:
    """Exponential-decay scaling power: 1 + (phi_max - 1) * exp(-kappa * d_t).

    Approaches phi_max for concentrated rounds (small dispersion) and 1 for
    scattered ones. Strictly decreasing and continuous in d_t; for very
    large d_t the exponential underflows and the value is exactly 1.0.
    """
    if d_t < 0:
        raise ConfigError(f"dispersion must be >= 0, got {d_t}")
    if phi_max <= 1:
        raise ConfigError(f"phi_max must be > 1, got {phi_max}")
    if kappa <= 0:
        raise ConfigError(f"kappa must be > 0, got {kappa}")
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
    """Mutual-dissimilarity score per vector: sum of cosine distances to all vectors.

    ``scaled`` is a sequence of vectors or the rows of a 2-D matrix. The sum
    runs over every vector including itself (the self term is 0 and never
    affects the ranking).
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
    """Positions of the ``l`` smallest scores, ties broken by lower position."""
    scores = list(scores)
    if not 1 <= l <= len(scores):
        raise ConfigError(f"core size must be in [1, {len(scores)}], got {l}")
    order = sorted(range(len(scores)), key=lambda i: (scores[i], i))
    return sorted(order[:l])


def rcc_filter(scaled, core, m: int):
    """Accept the ``m`` vectors nearest the core set's centroid.

    Returns (centroid, accepted positions, per-vector cosine distances).
    ``scaled`` is a sequence of vectors or the rows of a 2-D matrix. The
    centroid averages the scaled vectors at the ``core`` positions; a zero
    centroid is degenerate and raises.
    """
    scaled = linalg.as_matrix(scaled)
    core = list(core)
    if not core:
        raise EmptySetError("core set is empty")
    if not 1 <= m <= len(scaled):
        raise ConfigError(f"accept count must be in [1, {len(scaled)}], got {m}")
    centroid = np.mean(scaled[core], axis=0)
    if not np.any(centroid):
        raise DegenerateCentroidError("core-set centroid is the zero vector")
    # widened once, not on each cosine_distance call
    wide_centroid = centroid.astype(np.longdouble)
    dists = [linalg.cosine_distance(v, wide_centroid) for v in scaled.astype(np.longdouble)]
    order = sorted(range(len(scaled)), key=lambda i: (dists[i], i))
    return centroid, sorted(order[:m]), dists


def _fallback_outcome(updates, diag: RoundDiagnostics) -> DefenseOutcome:
    diag.fallback = True
    out = fedavg(updates)
    out.diagnostics = diag
    return out


def _scaled_pipeline(updates, cfg: DefenseConfig, single_core: bool) -> DefenseOutcome:
    """Shared two-stage filter behind the adaptive and static-power rules.

    Pipeline: normalize each delta -> dispersion -> scaling power ->
    power-scale -> mutual-similarity core set -> centroid filtering ->
    uniform mean of the accepted raw deltas. ``single_core`` selects the
    static rule: power ``cfg.phi_static`` and a one-client core set. The
    deltas are stacked once and every stage works on rows of that matrix.
    Zero-delta clients are excluded up front; degenerate rounds fall back to
    plain averaging over all updates, flagged in the diagnostics.
    """
    updates = _sorted_updates(updates)
    cfg = cfg.resolved(len(updates))
    diag = RoundDiagnostics()

    normalized, zero = linalg.normalize_rows(np.array([u.delta for u in updates]))
    live = []
    for u, is_zero in zip(updates, zero.tolist()):
        if is_zero:
            diag.excluded.append(u.client_id)
            warnings.warn(
                f"client {u.client_id} sent an all-zero update; excluded from filtering",
                RuntimeWarning,
                stacklevel=3,
            )
        else:
            live.append(u)

    core_size = 1 if single_core else cfg.core_size
    if len(live) < 2 or len(live) < max(core_size, cfg.accept_count):
        return _fallback_outcome(updates, diag)

    try:
        diag.d_t = linalg.dispersion(normalized)
    except DegenerateCentroidError:
        diag.d_t = DISPERSION_SENTINEL
    diag.phi_t = cfg.phi_static if single_core else adaptive_phi(diag.d_t, cfg.phi_max, cfg.kappa)

    scaled = differential_scale(normalized, diag.phi_t)
    scores = pairwise_scores(scaled)
    diag.scores = {u.client_id: s for u, s in zip(live, scores)}
    core = select_core_set(scores, core_size)
    diag.core_set = [live[i].client_id for i in core]

    try:
        _, accepted_pos, dists = rcc_filter(scaled, core, cfg.accept_count)
    except DegenerateCentroidError:
        return _fallback_outcome(updates, diag)
    diag.distances = {u.client_id: d for u, d in zip(live, dists)}

    accepted = [live[i] for i in accepted_pos]
    return DefenseOutcome(
        aggregated_delta=_mean_delta(accepted),
        accepted=[u.client_id for u in accepted],
        diagnostics=diag,
    )


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


def aggregate(updates, cfg: DefenseConfig, seed: int = 0) -> DefenseOutcome:
    """Dispatch to the rule selected by ``cfg.kind``; ``seed`` keys ``weak_dp``'s noise.

    ``updates`` may be any iterable; an empty one raises :class:`EmptySetError`.
    """
    if cfg.kind == "fedavg":
        return fedavg(updates)
    if cfg.kind == "multi_krum":
        return multi_krum(updates, cfg)
    if cfg.kind == "weak_dp":
        return weak_dp(updates, cfg, seed)
    if cfg.kind == "scope_static":
        return scope_static_aggregate(updates, cfg)
    if cfg.kind == "faros":
        return faros_aggregate(updates, cfg)
    raise ConfigError(f"unknown defense kind {cfg.kind!r}")

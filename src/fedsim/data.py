"""Synthetic datasets, non-IID partitioning, and backdoor trigger injection.

Gaussian blob generation stands in for image benchmarks at desk scale. A
dataset is a ``Samples``: a float64 feature matrix and an intp label vector.
Every function that takes a dataset takes a ``Samples``; ``Example`` is only
the row view it yields. All generators are pure functions of their seed.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatchError, bounded, check_bounds, check_in


_INTP = np.iinfo(np.intp)


@dataclass(frozen=True, eq=False)
class Example:
    """One labeled input: a flat feature vector and a class index."""

    features: np.ndarray
    label: int


class Samples:
    """A labelled dataset as two arrays: features ``x`` (n, d) and labels ``y`` (n,).

    ``len`` is the row count. Iterating gives ``Example`` objects whose
    features are views of the rows of ``x``, not copies.
    """

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        if y.dtype.kind != "i":
            y = _whole(y)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise DimensionMismatchError(
                f"samples need x of shape (n, d) and y of shape (n,), got {x.shape} and {y.shape}"
            )
        if y.size and y.min() < 0:
            raise DimensionMismatchError(f"labels must be non-negative, got {y.min()}")
        self.x = x
        self.y = y.astype(np.intp, copy=False)

    def __len__(self) -> int:
        return self.y.shape[0]

    def __iter__(self):
        return map(Example, self.x, self.y.tolist())

    def take(self, rows) -> "Samples":
        """The rows that the index ``rows`` selects: views for a slice, new arrays for
        positions or a boolean mask. Rows of checked samples are not checked again."""
        out = object.__new__(Samples)
        out.x, out.y = self.x[rows], self.y[rows]
        return out


def _whole(labels: np.ndarray) -> np.ndarray:
    """``labels`` cast to intp. The first label that is not a real number or that
    the cast changes raises :class:`DimensionMismatchError`: a string, None, a
    fraction, NaN or inf as not whole, a whole number past intp as out of range."""
    y = None
    # strings, bytes and complex numbers are not labels, whatever numpy casts them to
    if labels.dtype.kind in "buifO":
        # numpy casts NaN, inf and floats past intp to some integer, and warns
        with np.errstate(invalid="ignore"):
            try:
                y = labels.astype(np.intp)
            except (OverflowError, TypeError, ValueError):  # in an object array
                pass
    for label in (labels if y is None else labels[y != labels]).tolist():
        if not (isinstance(label, numbers.Real)
                and (isinstance(label, int) or float(label).is_integer())):
            raise DimensionMismatchError(f"labels must be whole numbers, got {label!r}")
        if not _INTP.min <= label <= _INTP.max:
            bound = "non-negative" if label < 0 else f"at most {_INTP.max}"
            raise DimensionMismatchError(f"labels must be {bound}, got {label}")
    return y


@dataclass(frozen=True)
class TriggerSpec:
    """Backdoor trigger: overwrite ``positions`` with ``values``, relabel to target."""

    positions: tuple[int, ...] = (13, 14, 15)
    values: tuple[float, ...] = (8.0, -8.0, 8.0)
    target_label: int = bounded("[0, inf)", 0)

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(int(p) for p in self.positions))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        check_bounds(self, "trigger")
        if any(p < 0 for p in self.positions):
            raise ConfigError(f"trigger.positions must be non-negative, got {self.positions}")
        if len(self.positions) != len(set(self.positions)):
            raise ConfigError(f"trigger.positions must be distinct, got {self.positions}")
        if len(self.positions) != len(self.values):
            raise ConfigError(
                f"trigger.positions and trigger.values must have equal length, got "
                f"{len(self.positions)} and {len(self.values)}"
            )
        if not all(map(math.isfinite, self.values)):
            raise ConfigError(f"trigger.values must be finite, got {self.values}")


def blob_arrays(
    num_classes: int,
    feature_dim: int,
    n_per_class: int,
    class_sep: float,
    seed: int,
) -> Samples:
    """Isotropic unit-variance Gaussian clusters with well-separated centers.

    Class centers are drawn once from the seed and rescaled so the minimum
    pairwise center distance equals ``class_sep``; each class's samples are
    then drawn in class order. Rows are class-blocked: ``n_per_class`` rows
    of class 0 first, then class 1, and so on.
    """
    check_in("[2, inf)", "num_classes", num_classes)
    check_in("[2, inf)", "feature_dim", feature_dim)
    check_in("[1, inf)", "n_per_class", n_per_class)
    check_in("(0, inf)", "class_sep", class_sep)
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(num_classes, feature_dim))
    diffs = centers[:, None, :] - centers[None, :, :]
    dists = np.sqrt(np.sum(diffs * diffs, axis=-1))
    min_dist = float(np.min(dists[np.triu_indices(num_classes, k=1)]))
    if min_dist < 1e-9:
        raise ConfigError("degenerate class centers; choose another seed")
    centers *= class_sep / min_dist
    # one draw in class order: the same stream as one draw per class
    x = centers[:, None, :] + rng.standard_normal(size=(num_classes, n_per_class, feature_dim))
    labels = np.repeat(np.arange(num_classes, dtype=np.intp), n_per_class)
    return Samples(x.reshape(num_classes * n_per_class, feature_dim), labels)


def gen_blobs(
    num_classes: int,
    feature_dim: int,
    n_per_class: int,
    class_sep: float,
    seed: int,
) -> list[Example]:
    """``blob_arrays`` as a list of ``Example`` row views, class-blocked."""
    return list(blob_arrays(num_classes, feature_dim, n_per_class, class_sep, seed))


def dirichlet_partition(labels, num_clients: int, q: float, seed: int) -> dict[int, list[int]]:
    """Deal each class's indices to clients by Dirichlet(q) proportions.

    Returns client id -> indices into ``labels``, a disjoint cover.

    Lower ``q`` means more heterogeneity. Dealing can starve a client; each
    empty client is repaired by moving one index from the currently largest
    client (a deterministic, seed-independent fix that keeps the partition
    a disjoint cover).
    """
    check_in("(0, inf)", "dirichlet concentration", q)
    if num_clients < 1:
        raise ConfigError(f"need at least one client, got {num_clients}")
    labels = np.asarray(labels if isinstance(labels, np.ndarray) else list(labels))
    if labels.size < num_clients:
        raise ConfigError(
            f"cannot spread {labels.size} examples over {num_clients} clients"
        )
    rng = np.random.default_rng(seed)
    dealt, owner = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        props = rng.dirichlet(np.full(num_clients, q))
        cuts = (np.cumsum(props) * idx.size).astype(int)[:-1]
        dealt.append(idx)  # shuffled position p goes to the client whose [cut, next cut) holds p
        owner.append(np.searchsorted(cuts, np.arange(idx.size), side="right"))
    owner = np.concatenate(owner)
    # a stable sort keeps each client's indices in class, then shuffled, order
    grouped = np.concatenate(dealt)[np.argsort(owner, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(owner, minlength=num_clients)).tolist()
    buckets = [grouped[a:b] for a, b in zip([0, *ends], ends)]
    for client in range(num_clients):
        if not buckets[client]:
            donor = max(range(num_clients), key=lambda c: len(buckets[c]))  # ties to lowest id
            buckets[client].append(buckets[donor].pop())
    return dict(enumerate(buckets))


def _check_positions(t: TriggerSpec, dim: int):
    for p in t.positions:
        if p < 0 or p >= dim:
            raise ConfigError(f"trigger position {p} out of range for dim {dim}")


def apply_trigger(e: Example, t: TriggerSpec) -> Example:
    """Copy of ``e`` with trigger features overwritten and the target label."""
    _check_positions(t, e.features.shape[0])
    feats = np.array(e.features, dtype=np.float64, copy=True)
    if t.positions:
        feats[list(t.positions)] = t.values
    return Example(feats, t.target_label)


def triggered_rows(x: np.ndarray, y: np.ndarray, t: TriggerSpec) -> np.ndarray:
    """Triggered copies of the rows of ``x`` whose label in ``y`` is not the target.

    The rows the attack success rate is measured on, in their original
    order, as one new float64 matrix.
    """
    rows = np.asarray(x, dtype=np.float64)[np.asarray(y) != t.target_label]
    _check_positions(t, rows.shape[1])
    if t.positions:
        rows[:, list(t.positions)] = t.values
    return rows


def poison_dataset(ds: Samples, t: TriggerSpec, rate: float, seed: int) -> Samples:
    """Trigger a seeded selection of the non-target rows of ``ds``, on a copy.

    Selects ceil(rate * len(ds)) rows among those whose label differs from
    the target (capped at the eligible count), overwrites their trigger
    columns and relabels them to the target in one write; the other rows
    are copied unchanged and ``ds`` is left untouched. When every eligible
    row is selected (always at rate 1) the result does not depend on
    ``seed``; otherwise the selection is
    ``default_rng(seed).choice(eligible_count, count, replace=False)`` over
    the eligible rows in ascending order.
    """
    check_in("(0, 1]", "poison rate", rate)
    picked = np.flatnonzero(ds.y != t.target_label)
    if not picked.size:
        raise ConfigError("no examples eligible for poisoning")
    _check_positions(t, ds.x.shape[1])
    count = min(math.ceil(rate * len(ds)), picked.size)
    if count < picked.size:
        picked = picked[np.random.default_rng(seed).choice(picked.size, size=count, replace=False)]
    x, y = ds.x.copy(), ds.y.copy()
    if t.positions:
        x[np.ix_(picked, t.positions)] = t.values
    y[picked] = t.target_label
    return Samples(x, y)


def edge_case_pool(ds: Samples, source_label: int, fraction: float) -> Samples:
    """Low-density tail of one class: the rows farthest from the class mean.

    Returns the ceil(fraction * n) rows of ``source_label`` with the
    largest Euclidean distance to that class's empirical mean, farthest
    first. Selection is deterministic and draws no random numbers (stable
    sort, ties to lower row).
    """
    check_in("(0, 1)", "edge fraction", fraction)
    members = ds.take(np.flatnonzero(ds.y == source_label))
    if not len(members):
        raise ConfigError(f"no examples of label {source_label}")
    center = members.x.mean(axis=0)
    dists = np.linalg.norm(members.x - center, axis=1)
    order = np.argsort(-dists, kind="stable")
    return members.take(order[: math.ceil(fraction * len(members))])

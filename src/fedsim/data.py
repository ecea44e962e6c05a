"""Synthetic datasets, non-IID partitioning, and backdoor trigger injection.

Gaussian blob generation stands in for image benchmarks at desk scale;
an IDX loader is provided for optional experiments on real digit files.
All generators are pure functions of their seed.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError


@dataclass(frozen=True, eq=False)
class Example:
    """One labeled input: a flat feature vector and a class index."""

    features: np.ndarray
    label: int


@dataclass(frozen=True)
class TriggerSpec:
    """Backdoor trigger: overwrite ``positions`` with ``values``, relabel to target."""

    positions: tuple[int, ...] = (13, 14, 15)
    values: tuple[float, ...] = (8.0, -8.0, 8.0)
    target_label: int = 0

    def __post_init__(self):
        object.__setattr__(self, "positions", tuple(int(p) for p in self.positions))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.positions) != len(set(self.positions)):
            raise ConfigError(f"trigger.positions must be distinct, got {self.positions}")
        if len(self.positions) != len(self.values):
            raise ConfigError(
                f"trigger.positions and trigger.values must have equal length, got "
                f"{len(self.positions)} and {len(self.values)}"
            )


def gen_blobs(
    num_classes: int,
    feature_dim: int,
    n_per_class: int,
    class_sep: float,
    seed: int,
) -> list[Example]:
    """Isotropic unit-variance Gaussian clusters with well-separated centers.

    Class centers are drawn once from the seed and rescaled so the minimum
    pairwise center distance equals ``class_sep``. Output is class-blocked:
    ``n_per_class`` examples of class 0 first, then class 1, and so on.
    """
    if num_classes < 2 or feature_dim < 2 or n_per_class < 1 or class_sep <= 0:
        raise ConfigError(
            f"invalid blob sizes: classes={num_classes} dim={feature_dim} "
            f"n={n_per_class} sep={class_sep}"
        )
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(num_classes, feature_dim))
    diffs = centers[:, None, :] - centers[None, :, :]
    dists = np.sqrt(np.sum(diffs * diffs, axis=-1))
    min_dist = float(np.min(dists[np.triu_indices(num_classes, k=1)]))
    if min_dist < 1e-9:
        raise ConfigError("degenerate class centers; choose another seed")
    centers *= class_sep / min_dist
    out = []
    for c in range(num_classes):
        samples = centers[c] + rng.standard_normal(size=(n_per_class, feature_dim))
        out.extend(Example(samples[i], c) for i in range(n_per_class))
    return out


def dirichlet_partition(labels, num_clients: int, q: float, seed: int) -> dict[int, list[int]]:
    """Deal each class's indices to clients by Dirichlet(q) proportions.

    Returns client id -> indices into ``labels``, a disjoint cover.

    Lower ``q`` means more heterogeneity. Dealing can starve a client; each
    empty client is repaired by moving one index from the currently largest
    client (a deterministic, seed-independent fix that keeps the partition
    a disjoint cover).
    """
    if q <= 0:
        raise ConfigError(f"dirichlet concentration must be positive, got {q}")
    if num_clients < 1:
        raise ConfigError(f"need at least one client, got {num_clients}")
    labels = np.asarray(list(labels))
    if labels.size < num_clients:
        raise ConfigError(
            f"cannot spread {labels.size} examples over {num_clients} clients"
        )
    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[] for _ in range(num_clients)]
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        props = rng.dirichlet(np.full(num_clients, q))
        cuts = (np.cumsum(props) * idx.size).astype(int)[:-1]
        for client, chunk in enumerate(np.split(idx, cuts)):
            buckets[client].extend(chunk.tolist())
    for client in range(num_clients):
        if not buckets[client]:
            sizes = [len(b) for b in buckets]
            donor = int(np.argmax(sizes))  # argmax ties break to lowest id
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


def _stamp(feats: np.ndarray, t: TriggerSpec) -> np.ndarray:
    """Overwrite the trigger columns of a fresh 2-D feature matrix in place."""
    _check_positions(t, feats.shape[1])
    if t.positions:
        feats[:, list(t.positions)] = t.values
    return feats


def trigger_examples(examples, t: TriggerSpec) -> list[Example]:
    """``apply_trigger`` over a non-empty sequence, as one write on a stacked copy.

    The triggered examples' features are rows of one new float64 matrix.
    """
    feats = _stamp(np.stack([e.features for e in examples], dtype=np.float64), t)
    return [Example(row, t.target_label) for row in feats]


def triggered_rows(x: np.ndarray, y: np.ndarray, t: TriggerSpec) -> np.ndarray:
    """Triggered copies of the rows of ``x`` whose label in ``y`` is not the target.

    The rows the attack success rate is measured on, in their original
    order, as one new float64 matrix.
    """
    return _stamp(np.asarray(x, dtype=np.float64)[np.asarray(y) != t.target_label], t)


def poison_dataset(ds, t: TriggerSpec, rate: float, seed: int) -> list[Example]:
    """Replace a seeded selection of non-target examples with triggered copies.

    Selects ceil(rate * len(ds)) examples among those whose original label
    differs from the target (capped at the eligible count); the rest pass
    through unchanged.
    """
    ds = list(ds)
    if not 0 < rate <= 1:
        raise ConfigError(f"poison rate must be in (0, 1], got {rate}")
    eligible = [i for i, e in enumerate(ds) if e.label != t.target_label]
    if not eligible:
        raise ConfigError("no examples eligible for poisoning")
    count = min(math.ceil(rate * len(ds)), len(eligible))
    rng = np.random.default_rng(seed)
    picked = [eligible[j] for j in rng.choice(len(eligible), size=count, replace=False).tolist()]
    for i, e in zip(picked, trigger_examples([ds[i] for i in picked], t)):
        ds[i] = e
    return ds


def edge_case_pool(ds, source_label: int, fraction: float, seed: int) -> list[Example]:
    """Low-density tail of one class: examples farthest from the class mean.

    Returns the ceil(fraction * n) examples of ``source_label`` with the
    largest Euclidean distance to that class's empirical mean. Selection is
    fully deterministic (stable sort, ties to lower index); ``seed`` is kept
    in the signature for interface symmetry with the other generators.
    """
    if not 0 < fraction < 1:
        raise ConfigError(f"edge fraction must be in (0, 1), got {fraction}")
    members = [e for e in ds if e.label == source_label]
    if not members:
        raise ConfigError(f"no examples of label {source_label}")
    feats = np.stack([e.features for e in members])
    center = feats.mean(axis=0)
    dists = np.linalg.norm(feats - center, axis=1)
    order = np.argsort(-dists, kind="stable")
    count = math.ceil(fraction * len(members))
    return [members[i] for i in order[:count]]


_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_exact(f, n: int, path: str) -> bytes:
    offset = f.tell()
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"{path}: truncated at byte {offset + len(buf)}")
    return buf


def load_idx(images_path, labels_path) -> list[Example]:
    """Parse big-endian IDX3 image + IDX1 label files into examples.

    Pixel bytes are scaled to [0, 1]; image and label counts must match.
    """
    with open(images_path, "rb") as f:
        magic = struct.unpack(">i", _read_exact(f, 4, str(images_path)))[0]
        if magic != _IDX_IMAGES_MAGIC:
            raise FormatError(
                f"{images_path}: bad image magic 0x{magic:08x} at byte 0"
            )
        n, rows, cols = struct.unpack(">iii", _read_exact(f, 12, str(images_path)))
        raw = _read_exact(f, n * rows * cols, str(images_path))
    pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    pixels = pixels.reshape(n, rows * cols)

    with open(labels_path, "rb") as f:
        magic = struct.unpack(">i", _read_exact(f, 4, str(labels_path)))[0]
        if magic != _IDX_LABELS_MAGIC:
            raise FormatError(
                f"{labels_path}: bad label magic 0x{magic:08x} at byte 0"
            )
        (count,) = struct.unpack(">i", _read_exact(f, 4, str(labels_path)))
        raw = _read_exact(f, count, str(labels_path))
    labels = np.frombuffer(raw, dtype=np.uint8)

    if count != n:
        raise FormatError(
            f"{labels_path}: label count {count} != image count {n} (at byte 4)"
        )
    return [Example(pixels[i], int(labels[i])) for i in range(n)]

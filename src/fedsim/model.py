"""Desk-scale classifiers with analytic gradients and local SGD training.

Two shapes are supported: softmax regression (hidden_dim == 0) and a
one-hidden-layer ReLU MLP. Parameters live in a single flat float64 vector
so the aggregation rules can treat every model uniformly.

Flattening order is part of the public contract: layers first-to-last, and
within each layer the weight matrix in C (row-major) order followed by its
bias vector. Concretely:

  softmax regression: [W (C x d, row-major), b (C)]
  MLP:                [W1 (h x d), b1 (h), W2 (C x h), b2 (C)]

where d = input_dim, h = hidden_dim, C = num_classes. Logits are
``W @ x + b`` (respectively ``W2 @ relu(W1 @ x + b1) + b2``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatchError, EmptySetError, NoEligibleExamplesError
from .data import TriggerSpec, as_samples, triggered_rows


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description. ``hidden_dim == 0`` selects softmax regression."""

    input_dim: int
    num_classes: int
    hidden_dim: int = 0
    activation: str = "relu"

    def __post_init__(self):
        # messages name the config key each field is built from
        if self.input_dim < 1:
            raise ConfigError(
                f"data.feature_dim (model input_dim) must be >= 1, got {self.input_dim}"
            )
        if self.num_classes < 2:
            raise ConfigError(
                f"data.num_classes (model num_classes) must be >= 2, got {self.num_classes}"
            )
        if self.hidden_dim < 0:
            raise ConfigError(f"model.hidden_dim must be >= 0, got {self.hidden_dim}")
        if self.activation != "relu":
            raise ConfigError(f"model.activation must be one of relu; got {self.activation!r}")

    def param_count(self) -> int:
        d, c, h = self.input_dim, self.num_classes, self.hidden_dim
        if h == 0:
            return d * c + c
        return d * h + h + h * c + c


@dataclass(frozen=True)
class TrainSpec:
    """Local SGD schedule for one client."""

    local_epochs: int = 2
    batch_size: int = 32
    learning_rate: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.local_epochs < 1:
            raise ConfigError(f"train.local_epochs must be >= 1, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError(
                f"train.learning_rate must be finite and >= 0, got {self.learning_rate}"
            )


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Deterministic initialization: uniform weights bounded by 1/sqrt(fan_in), zero biases."""
    rng = np.random.default_rng(seed)
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    parts = []
    if h == 0:
        bound = 1.0 / np.sqrt(d)
        parts.append(rng.uniform(-bound, bound, size=(c, d)).ravel())
        parts.append(np.zeros(c))
    else:
        b1 = 1.0 / np.sqrt(d)
        parts.append(rng.uniform(-b1, b1, size=(h, d)).ravel())
        parts.append(np.zeros(h))
        b2 = 1.0 / np.sqrt(h)
        parts.append(rng.uniform(-b2, b2, size=(c, h)).ravel())
        parts.append(np.zeros(c))
    return np.concatenate(parts)


def _unpack(params: np.ndarray, spec: ModelSpec):
    d, c, h = spec.input_dim, spec.num_classes, spec.hidden_dim
    if params.size != spec.param_count():
        raise DimensionMismatchError(
            f"params have dim {params.size}, spec needs {spec.param_count()}"
        )
    if h == 0:
        w = params[: c * d].reshape(c, d)
        b = params[c * d :]
        return w, b
    o = 0
    w1 = params[o : o + h * d].reshape(h, d)
    o += h * d
    b1 = params[o : o + h]
    o += h
    w2 = params[o : o + c * h].reshape(c, h)
    o += c * h
    b2 = params[o:]
    return w1, b1, w2, b2


def _logits(params: np.ndarray, spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    """Raw class scores for a batch ``x`` of shape (n, input_dim)."""
    if spec.hidden_dim == 0:
        w, b = _unpack(params, spec)
        return x @ w.T + b
    w1, b1, w2, b2 = _unpack(params, spec)
    hidden = np.maximum(x @ w1.T + b1, 0.0)
    return hidden @ w2.T + b2


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - np.max(z, axis=1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=1, keepdims=True)


def forward(params: np.ndarray, spec: ModelSpec, features) -> np.ndarray:
    """Class probabilities for a single example; stabilized by max-subtraction."""
    x = np.asarray(features, dtype=np.float64).reshape(1, -1)
    if x.shape[1] != spec.input_dim:
        raise DimensionMismatchError(
            f"features have dim {x.shape[1]}, spec needs {spec.input_dim}"
        )
    return _softmax(_logits(params, spec, x))[0]


def _loss_grad_arrays(params, spec, x, y):
    n = x.shape[0]
    if spec.hidden_dim == 0:
        w, b = _unpack(params, spec)
        z = x @ w.T + b
    else:
        w1, b1, w2, b2 = _unpack(params, spec)
        pre = x @ w1.T + b1
        hidden = np.maximum(pre, 0.0)
        z = hidden @ w2.T + b2
    # softmax cross-entropy and its gradient with respect to the logits
    zs = z - np.max(z, axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(zs), axis=1))
    loss = float(np.mean(lse - zs[np.arange(n), y]))
    g = np.exp(zs - lse[:, None])
    g[np.arange(n), y] -= 1.0
    g /= n
    if spec.hidden_dim == 0:
        return loss, np.concatenate([(g.T @ x).ravel(), g.sum(axis=0)])
    gw2 = g.T @ hidden
    gb2 = g.sum(axis=0)
    dh = g @ w2
    dpre = dh * (pre > 0.0)  # ReLU subgradient at 0 is 0
    gw1 = dpre.T @ x
    gb1 = dpre.sum(axis=0)
    return loss, np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])


def loss_and_grad(params: np.ndarray, spec: ModelSpec, batch) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over ``batch`` and its exact analytic gradient.

    ``batch`` is a ``Samples`` or a sequence of ``Example``s.
    """
    batch = as_samples(batch)
    if not len(batch):
        raise EmptySetError("loss over an empty batch")
    return _loss_grad_arrays(np.asarray(params, dtype=np.float64), spec, batch.x, batch.y)


def philox(seed: int, counter: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed mod 2**64, counter)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, counter], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """Per-epoch shuffle from a counter-based stream keyed by (seed, epoch)."""
    return philox(seed, epoch).permutation(n)


def local_train(
    global_params: np.ndarray, spec: ModelSpec, dataset, tspec: TrainSpec
) -> np.ndarray:
    """Run local mini-batch SGD from ``global_params`` and return the final params.

    ``dataset`` is a ``Samples`` (the simulator passes each client's arrays,
    cut once per run) or a sequence of ``Example``s, stacked once here; both
    give the same bits. Pure function of its arguments: the mini-batch order
    for each epoch comes from a Philox stream keyed by (tspec.seed, epoch),
    so distinct clients never share RNG state and repeated calls are
    bit-identical.
    """
    data = as_samples(dataset)
    if not len(data):
        raise EmptySetError("cannot train on an empty dataset")
    params = np.array(global_params, dtype=np.float64, copy=True)
    x, y = data.x, data.y
    n = x.shape[0]
    for epoch in range(tspec.local_epochs):
        order = _epoch_order(tspec.seed, epoch, n)
        for start in range(0, n, tspec.batch_size):
            idx = order[start : start + tspec.batch_size]
            _, grad = _loss_grad_arrays(params, spec, x[idx], y[idx])
            params = params - tspec.learning_rate * grad
    return params


def accuracy(params: np.ndarray, spec: ModelSpec, x: np.ndarray, labels) -> float:
    """Fraction of the rows of ``x``, shape (n, input_dim), predicted as ``labels``.

    ``labels`` is one class per row, or one class for all rows (the target,
    for the attack success rate). The prediction is the argmax class; ties
    break to the lowest class index (numpy argmax takes the first max).
    """
    logits = _logits(np.asarray(params, dtype=np.float64), spec, x)
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def evaluate_acc(params: np.ndarray, spec: ModelSpec, clean_test) -> float:
    """Fraction of examples whose argmax prediction matches the label."""
    test = as_samples(clean_test)
    if not len(test):
        raise EmptySetError("cannot evaluate on an empty test set")
    return accuracy(params, spec, test.x, test.y)


def evaluate_asr(
    params: np.ndarray, spec: ModelSpec, clean_test, trigger: TriggerSpec
) -> float:
    """Attack success rate: triggered non-target examples classified as the target.

    Examples whose true label already equals the target are excluded from
    the denominator.
    """
    test = as_samples(clean_test)
    if not np.any(test.y != trigger.target_label):
        raise NoEligibleExamplesError("no test examples with label != target_label")
    return accuracy(params, spec, triggered_rows(test.x, test.y, trigger), trigger.target_label)

"""Desk-scale classifiers with analytic gradients and local SGD training.

A model is a list of layers (``ModelSpec.layers``) with a ReLU between each
two: one layer (hidden_dim == 0) is softmax regression, two are a
one-hidden-layer MLP. Its parameters are one flat float64 vector, so the
aggregation rules treat every model alike. Datasets are ``data.Samples``, and
every client, honest or malicious, trains through ``sgd``: the attacks change
only its per-batch gradient or its per-epoch params, through two hooks.
``sgd`` trains one model or a (G, P) stack of models on the same rows, each
row bit for bit as it would train alone. Its
epoch orders, and the simulator's client samples, come from ``philox``: each
thread keeps one Philox generator and re-keys it per call, so a returned
stream is valid until the next ``philox`` call on the same thread, and no two
threads share one.

Flattening order is part of the public contract: layers first-to-last, and
within each layer the weight matrix in C (row-major) order followed by its
bias vector. Concretely:

  softmax regression: [W (C x d, row-major), b (C)]
  MLP:                [W1 (h x d), b1 (h), W2 (C x h), b2 (C)]

where d = input_dim, h = hidden_dim, C = num_classes. Logits are
``W @ x + b`` (respectively ``W2 @ relu(W1 @ x + b1) + b2``).
"""

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, EmptySetError, NoEligibleExamplesError
from .errors import bounded, check_bounds
from .data import Samples, TriggerSpec, triggered_rows


@dataclass(frozen=True)
class ModelSpec:
    """Architecture: a list of layers; ``hidden_dim == 0`` means one, softmax regression."""

    # messages name the config key each field is built from
    input_dim: int = bounded("[1, inf)", key="data.feature_dim")
    num_classes: int = bounded("[2, inf)", key="data.num_classes")
    hidden_dim: int = bounded("[0, inf)", 0)

    def __post_init__(self):
        check_bounds(self, "model")

    @cached_property
    def layers(self) -> tuple[tuple[int, int], ...]:
        """``(fan_out, fan_in)`` of each layer, first to last."""
        d, c, h = self.input_dim, self.num_classes, self.hidden_dim
        return ((c, d),) if h == 0 else ((h, d), (c, h))

    def param_count(self) -> int:
        return sum(fan_out * (fan_in + 1) for fan_out, fan_in in self.layers)


@dataclass(frozen=True)
class TrainSpec:
    """Local SGD schedule for one client."""

    local_epochs: int = bounded("[1, inf)", 2)
    batch_size: int = bounded("[1, inf)", 32)
    learning_rate: float = bounded("[0, inf)", 0.25)
    seed: int = 0

    def __post_init__(self):
        check_bounds(self, "train")


def init_params(spec: ModelSpec, seed: int) -> np.ndarray:
    """Deterministic initialization: uniform weights bounded by 1/sqrt(fan_in), zero biases."""
    rng = np.random.default_rng(seed)
    parts = []
    for fan_out, fan_in in spec.layers:
        bound = 1.0 / np.sqrt(fan_in)
        parts += (rng.uniform(-bound, bound, size=(fan_out, fan_in)).ravel(), np.zeros(fan_out))
    return np.concatenate(parts)


def _forward(params: np.ndarray, spec: ModelSpec, x: np.ndarray):
    """Logits of the rows ``x``, shape (n, input_dim), under each model of the
    stack ``params``, shape (G, P): shape (G, n, num_classes); and each
    layer's (weights, input), weights shape (G, fan_out, fan_in).

    Every product is one stacked ``np.matmul``, whose slices equal the 2-D
    products of one model bit for bit, so row g of the logits does not
    depend on the other rows.
    """
    if params.ndim != 2 or params.shape[1] != spec.param_count():
        raise DimensionMismatchError(f"params have shape {params.shape}, spec needs "
                                     f"(G, {spec.param_count()})")
    g, trace, end = len(params), [], 0
    for fan_out, fan_in in spec.layers:
        if trace:
            x = np.maximum(x, 0.0)
        start, end = end, end + fan_out * fan_in
        w = params[:, start:end].reshape(g, fan_out, fan_in)
        trace.append((w, x))
        x = np.matmul(x, w.transpose(0, 2, 1))
        x += params[:, None, end : end + fan_out]
        end += fan_out
    return x, trace


def _log_softmax_grad(params, spec, x, y):
    """Log-softmax of the logits of rows ``x`` under each model of the stack
    ``params``, and each model's mean cross-entropy gradient for ``y``: shapes
    (G, n, num_classes) and (G, P)."""
    # in place on the fresh logits, the same operations as out of place
    log_probs, trace = _forward(params, spec, x)
    log_probs -= log_probs.max(axis=2, keepdims=True)
    log_probs -= np.log(np.exp(log_probs).sum(axis=2, keepdims=True))
    g = np.exp(log_probs)
    n = g.shape[1]
    g[:, np.arange(n), y] -= 1.0
    g /= n
    grads = []
    for w, inp in trace[:0:-1]:  # the layers after the first, last to first
        grads += (g.sum(axis=1), (g.transpose(0, 2, 1) @ inp).reshape(len(g), -1))
        g = g @ w
        # relu(pre) > 0 exactly where pre > 0; the subgradient at 0 is 0
        g *= inp > 0.0
    grads += (g.sum(axis=1), (g.transpose(0, 2, 1) @ x).reshape(len(g), -1))
    return log_probs, np.concatenate(grads[::-1], axis=1)


def loss_and_grad(params: np.ndarray, spec: ModelSpec, batch: Samples) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the rows of ``batch`` and its exact analytic gradient."""
    if not len(batch):
        raise EmptySetError("loss over an empty batch")
    params = np.asarray(params, np.float64)[None]
    log_probs, grad = _log_softmax_grad(params, spec, batch.x, batch.y)
    return float(np.mean(-log_probs[0, np.arange(len(batch)), batch.y])), grad[0]


class _Stream(threading.local):
    """One Philox generator per thread, re-keyed by every ``philox`` call on it."""

    def __init__(self):
        self.gen = np.random.Generator(np.random.Philox(0))


_stream = _Stream()
_ZEROS = (0, 0, 0, 0)


def philox(seed: int, counter: int) -> np.random.Generator:
    """Counter-based stream keyed by (seed mod 2**64, counter).

    The stream draws exactly what a fresh
    ``Generator(Philox(key=[seed mod 2**64, counter]))`` draws, but it is
    the calling thread's one generator, re-keyed: it is valid until the next
    ``philox`` call on the same thread, so use it up before asking for
    another. Threads never share a generator.
    """
    # the state of a new Philox: counter zero, word buffer empty (position
    # 4 of 4) and no 32-bit half-word pending
    _stream.gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": (seed & 0xFFFFFFFFFFFFFFFF, counter)},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return _stream.gen


def sgd(params, spec: ModelSpec, x, y, tspec: TrainSpec, step=None, end_epoch=None) -> np.ndarray:
    """Mini-batch SGD on the rows ``x``, labels ``y`` from ``params``; the final params.

    ``params`` is one model, shape (P,), or a stack of G models, shape
    (G, P); the result has the same shape. Every model of a stack trains on
    the same rows in the same order, and its row of the result equals, bit
    for bit, a ``(P,)`` call from that row alone.

    Epoch ``e`` walks ``philox(tspec.seed, e).permutation(n)`` ``batch_size``
    rows at a time and steps ``params - learning_rate * grad``, with ``grad``
    the cross-entropy gradient on those rows. ``step(params, grad)``, if
    given, replaces each batch's gradient before the step; ``end_epoch(params)``,
    if given, maps the params after each epoch. Both hooks get and return
    (G, P) stacks, a single model as a stack of one, and act on each row
    alone. Each epoch's order is drawn in full before the steps, so the
    re-keyed stream is used up before the next ``philox`` call; repeated
    calls, on any thread, are bit-identical. Only the gradient is computed
    on a step, never the loss.
    """
    n = x.shape[0]
    if not n:
        raise EmptySetError("cannot train on an empty dataset")
    single = np.ndim(params) == 1
    params = np.array(params, dtype=np.float64, ndmin=2, copy=True)
    for epoch in range(tspec.local_epochs):
        order = philox(tspec.seed, epoch).permutation(n)
        for start in range(0, n, tspec.batch_size):
            idx = order[start : start + tspec.batch_size]
            grad = _log_softmax_grad(params, spec, x[idx], y[idx])[1]
            if step is not None:
                grad = step(params, grad)
            params = params - tspec.learning_rate * grad
        if end_epoch is not None:
            params = end_epoch(params)
    return params[0] if single else params


def local_train(
    global_params: np.ndarray, spec: ModelSpec, dataset: Samples, tspec: TrainSpec
) -> np.ndarray:
    """Honest local training: ``sgd`` on ``dataset`` from ``global_params``, one
    model (P,) or a stack (G, P) trained row by row."""
    return sgd(global_params, spec, dataset.x, dataset.y, tspec)


def accuracy(params: np.ndarray, spec: ModelSpec, x: np.ndarray, labels) -> float:
    """Fraction of the rows of ``x``, shape (n, input_dim), predicted as ``labels``.

    ``labels`` is one class per row, or one class for all rows (the target,
    for the attack success rate). The prediction is the argmax class; ties
    break to the lowest class index (numpy argmax takes the first max).
    """
    logits = _forward(np.asarray(params, dtype=np.float64)[None], spec, x)[0][0]
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def evaluate_acc(params: np.ndarray, spec: ModelSpec, clean_test: Samples) -> float:
    """Fraction of the rows of ``clean_test`` whose argmax prediction matches the label."""
    if not len(clean_test):
        raise EmptySetError("cannot evaluate on an empty test set")
    return accuracy(params, spec, clean_test.x, clean_test.y)


def evaluate_asr(
    params: np.ndarray, spec: ModelSpec, clean_test: Samples, trigger: TriggerSpec
) -> float:
    """Attack success rate: triggered non-target rows of ``clean_test`` classified as the target.

    Rows whose true label already equals the target are excluded from the
    denominator.
    """
    if not np.any(clean_test.y != trigger.target_label):
        raise NoEligibleExamplesError("no test examples with label != target_label")
    rows = triggered_rows(clean_test.x, clean_test.y, trigger)
    return accuracy(params, spec, rows, trigger.target_label)

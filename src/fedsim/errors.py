"""Exception types shared across the package, and the one check of config bounds."""

import functools
import operator
from dataclasses import MISSING, field, fields


class FedsimError(Exception):
    """Base class for all package-specific errors."""


class ZeroVectorError(FedsimError):
    """An operation received an all-zero vector where a direction is required."""


class DimensionMismatchError(FedsimError):
    """Operands have incompatible dimensions."""


class EmptySetError(FedsimError):
    """An operation received an empty collection."""


class DuplicateClientError(FedsimError):
    """A round holds more than one update from the same client."""


class DegenerateCentroidError(FedsimError):
    """The centroid of a vector set is the zero vector."""


class ConfigError(FedsimError):
    """Invalid configuration value or unknown configuration key."""


def bounded(bound, default=MISSING, *, key=None):
    """A dataclass field whose value must lie in ``bound``: an interval such as ``"(0, 1]"``
    or ``"[1, inf)"``, or a tuple of the allowed values. ``key`` is the config key that
    :func:`check_bounds` names, by default ``<section>.<field>``."""
    return field(default=default, metadata={"bound": bound, "key": key})


@functools.cache
def _test(bound):
    """Membership test and its text for a ``bounded`` field's bound."""
    if not isinstance(bound, str):
        return bound.__contains__, "{" + ", ".join(bound) + "}"
    low, high = (float(s) for s in bound[1:-1].split(","))
    above = operator.le if bound[0] == "[" else operator.lt
    below = operator.le if bound[-1] == "]" else operator.lt
    # NaN compares false, so it lies in no interval
    return (lambda v: above(low, v) and below(v, high)), bound


@functools.cache
def _bounds(cls, section: str) -> tuple:
    """``(name, key, text, test)`` of each bounded field of ``cls``, built once per class."""
    out = []
    for f in (f for f in fields(cls) if "bound" in f.metadata):
        test, text = _test(f.metadata["bound"])
        if f.default is None:
            test = lambda v, inner=test: v is None or inner(v)
        key = f.metadata["key"] or (f"{section}.{f.name}" if section else f.name)
        out.append((f.name, key, text, test))
    return tuple(out)


def check_in(bound, key: str, v) -> None:
    """Raise :class:`ConfigError` naming ``key`` unless ``v`` lies in ``bound`` (see bounded)."""
    test, text = _test(bound)
    if not test(v):
        raise ConfigError(f"{key} must be in {text}, got {v!r}")


def check_bounds(obj, section: str = "") -> None:
    """Raise :class:`ConfigError` naming the key of the first field of ``obj`` out of its
    bound; ``section`` prefixes the keys. A field whose default is None accepts None."""
    for name, key, text, test in _bounds(type(obj), section):
        v = getattr(obj, name)
        if not test(v):
            raise ConfigError(f"{key} must be in {text}, got {v!r}")


class NonFiniteUpdateError(FedsimError):
    """A client's local training diverged: its update has NaN or Inf entries."""

    def __init__(self, round: int, client_id: int):
        super().__init__(
            f"round {round}, client {client_id}: local training diverged "
            "(NaN or Inf in the update); lower train.learning_rate"
        )
        self.round = round
        self.client_id = client_id


class NonFiniteAggregateError(FedsimError):
    """An aggregation rule combined finite client updates into NaN or Inf entries."""


class NonFiniteLogitsError(FedsimError):
    """A model's logits on the evaluation rows have NaN or Inf entries, so its
    predictions, and the accuracy read from them, are undefined."""


class NoEligibleExamplesError(FedsimError):
    """No test examples qualify for the requested metric."""

"""Exception types shared across the package."""


class FedsimError(Exception):
    """Base class for all package-specific errors."""


class ZeroVectorError(FedsimError):
    """An operation received an all-zero vector where a direction is required."""


class DimensionMismatchError(FedsimError):
    """Operands have incompatible dimensions."""


class EmptySetError(FedsimError):
    """An operation received an empty collection."""


class DegenerateCentroidError(FedsimError):
    """The centroid of a vector set is the zero vector."""


class ConfigError(FedsimError):
    """Invalid configuration value or unknown configuration key."""


class NonFiniteUpdateError(FedsimError):
    """A client's local training diverged: its update has NaN or Inf entries."""

    def __init__(self, round: int, client_id: int):
        super().__init__(
            f"round {round}, client {client_id}: local training diverged "
            "(NaN or Inf in the update); lower train.learning_rate"
        )
        self.round = round
        self.client_id = client_id


class FormatError(FedsimError):
    """Malformed external file (bad magic, truncation, count mismatch)."""


class NoEligibleExamplesError(FedsimError):
    """No test examples qualify for the requested metric."""

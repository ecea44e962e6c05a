"""Deterministic federated-learning simulator with backdoor attacks and
robust aggregation defenses.

The root holds the library surface: the configs, the runners and their
results, standalone aggregation and the error types. Everything else is
imported from its module (``fedsim.defenses``, ``fedsim.attacks``,
``fedsim.data``, ``fedsim.model``, ``fedsim.linalg``, ``fedsim.sim``)."""

from .attacks import AttackConfig
from .data import Samples, TriggerSpec
from .defenses import ClientUpdate, DefenseConfig, DefenseOutcome, RoundDiagnostics, aggregate
from .errors import (
    ConfigError,
    DegenerateCentroidError,
    DimensionMismatchError,
    DuplicateClientError,
    EmptySetError,
    FedsimError,
    NoEligibleExamplesError,
    NonFiniteAggregateError,
    NonFiniteLogitsError,
    NonFiniteUpdateError,
    ZeroVectorError,
)
from .model import ModelSpec, TrainSpec
from .sim import (
    DataConfig,
    RoundRecord,
    SimConfig,
    SimState,
    build_state,
    run_round,
    run_simulation,
    run_simulations,
    summarize,
    write_results,
)

__version__ = "0.1.0"

"""Deterministic federated-learning simulator with backdoor attacks and
robust aggregation defenses."""

from .attacks import (
    AttackConfig,
    constrain_and_scale_train,
    cosine_loss_and_grad,
    edge_case_pgd_train,
    malicious_local_train,
    model_replacement,
    pgd_project,
)
from .data import (
    Example,
    Samples,
    TriggerSpec,
    apply_trigger,
    blob_arrays,
    dirichlet_partition,
    edge_case_pool,
    gen_blobs,
    poison_dataset,
)
from .defenses import (
    ClientUpdate,
    DefenseConfig,
    DefenseOutcome,
    RoundDiagnostics,
    adaptive_phi,
    aggregate,
    differential_scale,
    faros_aggregate,
    fedavg,
    multi_krum,
    pairwise_scores,
    rcc_filter,
    scope_static_aggregate,
    select_core_set,
    weak_dp,
)
from .errors import (
    ConfigError,
    DegenerateCentroidError,
    DimensionMismatchError,
    EmptySetError,
    FedsimError,
    NoEligibleExamplesError,
    NonFiniteUpdateError,
    ZeroVectorError,
)
from .linalg import cosine_distance, dispersion, normalize
from .model import (
    ModelSpec,
    TrainSpec,
    evaluate_acc,
    evaluate_asr,
    init_params,
    local_train,
    loss_and_grad,
)
from .sim import (
    DataConfig,
    RoundRecord,
    SimConfig,
    SimState,
    build_state,
    run_round,
    run_simulation,
    run_simulations,
    sample_clients,
    summarize,
    write_results,
)

__version__ = "0.1.0"

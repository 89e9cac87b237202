"""SGD with matrix-valued learning rates: engine, checkers, diagnostics."""

from .checkers import (
    AssumptionReport,
    HolderEstimate,
    RadialProbe,
    check_descent_inequality,
    check_expected_smoothness,
    check_grad_bound,
    check_variance_control,
    estimate_local_holder,
    find_eigenvalue_threshold,
    holder_sup_on_box,
    probe_radial_conditions,
)
from .diagnostics import (
    CaptureConfig,
    CaptureReport,
    ConvergenceReport,
    DichotomyClassification,
    EnsembleResult,
    EnsembleSpec,
    StoppingTimes,
    classify_dichotomy,
    compute_stopping_times,
    gradient_convergence_stats,
    run_ensemble,
    split_seed,
)
from .engine import (
    Schedule,
    ScheduleReport,
    Trajectory,
    run_trajectory,
    validate_schedule,
)
from .errors import ConfigError, ContractViolation, DomainError, UnknownObjectiveError
from .objectives import (
    NoiseModel,
    NoiseSpec,
    Objective,
    ObjectiveSpec,
    StochasticOracle,
    catalog_lookup,
)

__version__ = "0.1.0"

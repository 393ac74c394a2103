"""Classical and adaptive fuzzy model predictive control of a rotational
inverted pendulum, with an in-package dense SQP solver and a scenario
harness."""

from .plant import (
    CoeffSet,
    DisturbanceSpec,
    IntegrationDivergenceError,
    PlantParams,
    derive_coefficients,
    disturbance_value,
    dynamics,
    rk4,
    step,
)
from .dense_linalg import (
    NotPositiveDefiniteWarning,
    SingularLyapunovError,
    is_positive_definite,
    solve_lyapunov,
)
from .fuzzy import (
    DegenerateFiringError,
    FuzzyModel,
    GaussianMF,
    ParameterBlowupError,
    adapt,
    basis,
    basis_matrix,
    build_rule_grid,
    f_hat,
    fit_consequents_lsq,
    g_hat,
    membership,
)
from .nlp_optimizer import (
    NlpProblem,
    QpInfeasibleError,
    Solution,
    SolverSettings,
    minimize,
)
from .mpc import (
    AdaptationLoop,
    AdaptiveFuzzyPredictor,
    ClosedLoop,
    ControlStep,
    MpcConfig,
    NominalPredictor,
    PredictionDivergenceError,
    TrajectoryLog,
    horizon_cost,
    predict_trajectory,
    run_receding_horizon,
    shift_warm_start,
    solve_step,
)
from .harness import (
    ConfigError,
    MismatchFactors,
    ReferenceSpec,
    RunMetrics,
    ScenarioConfig,
    compare_report,
    compute_metrics,
    default_config,
    dump_config,
    export_csv,
    load_config,
    load_csv,
    reference_trajectory,
    run_comparison,
    run_scenario,
    state_reference,
)

__version__ = "0.1.0"

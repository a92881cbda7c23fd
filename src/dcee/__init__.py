"""Structure-exploiting numerical dual control for exploration and
exploitation, with a vehicle eco-cruising simulation harness."""

from .baselines import EscConfig, EscState, GradDceeConfig, esc_init, esc_step, grad_dcee_step
from .config import ScenarioConfig, default_config, load_config, scenario_from_dict
from .core import (
    DceeProblem,
    evaluate,
    objective,
    objective_grid,
    objective_split,
    residual_fn,
    standstill_input,
    warm_start,
)
from .diagnostics import (
    AuditReport,
    HessianSplit,
    contraction_rate,
    derivative_audit,
    ggn_split,
    jacobian_fd,
)
from .ensemble import (
    CHANGE_LIMIT,
    NOISE_VAR_FLOOR,
    Ensemble,
    EnsembleSettings,
    change_test,
    condition_stats,
    draw_bank,
    init_ensemble,
    measured_update,
)
from .errors import (
    ConfigurationError,
    CurvatureViolationError,
    DceeError,
    InfeasibleCandidateError,
    InvalidInputError,
    RateUndefinedError,
    SolverFailureError,
)
from .harness import RunResult, StepRecord, bench_solver, compute_metrics, export, run_closed_loop
from .plant import (
    EnvSegment,
    NoiseSpec,
    VehicleParams,
    active_segment,
    drag_force,
    measure,
    plant_step,
    reward_noise,
)
from .reward import (
    QuadraticRewardSpec,
    basis,
    eval_reward,
    make_true_params,
    optimal_condition,
)
from .solver import GnConfig, GnReport, controller_step, gn_step, gn_terms, scp_step, solve

__version__ = "0.1.0"

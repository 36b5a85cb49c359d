"""Human-aware robot trajectory optimization with predicted-motion costs.

A stochastic prediction of human arm motion feeds five weighted costs
(distance, visibility, legibility, nominal deviation, smoothness) that
are minimized over joint-space waypoints with both endpoints fixed.
Baseline planners, evaluation metrics, and a scenario benchmark are
included; see the ``comoto`` CLI.
"""

from .baselines import (
    ExecutionTrace,
    SpeedAdjustParams,
    distvis_optimize,
    legible_optimize,
    min_separation,
    nominal_trajectory,
    speed_adjusted_execute,
)
from .benchmark import (
    METHODS,
    RunConfig,
    aggregate_rows,
    load_config,
    run_benchmark,
    write_benchmark_outputs,
)
from .costs import (
    CostContext,
    CostReport,
    CostWeights,
    cost_distance,
    cost_legibility,
    cost_nominal,
    cost_smoothness,
    cost_visibility,
    gaze_angle,
    goal_probability,
    mahalanobis_proximity,
    objective,
)
from .errors import ContractViolation, GradientCheckError
from .human_motion import (
    HumanTrajectory,
    PredictedHumanTrajectory,
    PredictorOptions,
    ReachScript,
    extrapolate_skeleton,
    generate_reach,
    minimum_jerk_fraction,
    predict,
)
from .kinematics import (
    ChainSpec,
    JointTrajectory,
    default_chain,
    fk_eef,
    fk_points,
    fk_points_batch,
    load_chain,
    load_trajectory,
    position_jacobian,
    save_trajectory,
    solve_position_ik,
)
from .metrics import (
    GoalSet,
    MetricReport,
    aggregate,
    evaluate_run,
    metric_legibility,
    metric_nominal_dev,
    metric_separation,
    metric_visibility,
)
from .optimizer import OptimizerOptions, OptResult, optimize, straightline_joint_init
from .scenarios import FAMILIES, Scenario, generate_scenarios, load_scenario, make_scenario, save_scenario

__version__ = "0.1.0"

__all__ = [
    "ChainSpec",
    "ContractViolation",
    "CostContext",
    "CostReport",
    "CostWeights",
    "ExecutionTrace",
    "FAMILIES",
    "GoalSet",
    "GradientCheckError",
    "HumanTrajectory",
    "JointTrajectory",
    "METHODS",
    "MetricReport",
    "OptResult",
    "OptimizerOptions",
    "PredictedHumanTrajectory",
    "PredictorOptions",
    "ReachScript",
    "RunConfig",
    "Scenario",
    "SpeedAdjustParams",
    "aggregate",
    "aggregate_rows",
    "cost_distance",
    "cost_legibility",
    "cost_nominal",
    "cost_smoothness",
    "cost_visibility",
    "default_chain",
    "distvis_optimize",
    "evaluate_run",
    "extrapolate_skeleton",
    "fk_eef",
    "fk_points",
    "fk_points_batch",
    "gaze_angle",
    "generate_reach",
    "generate_scenarios",
    "goal_probability",
    "legible_optimize",
    "load_chain",
    "load_config",
    "load_scenario",
    "load_trajectory",
    "mahalanobis_proximity",
    "make_scenario",
    "metric_legibility",
    "metric_nominal_dev",
    "metric_separation",
    "metric_visibility",
    "min_separation",
    "minimum_jerk_fraction",
    "nominal_trajectory",
    "objective",
    "optimize",
    "position_jacobian",
    "predict",
    "run_benchmark",
    "save_scenario",
    "save_trajectory",
    "solve_position_ik",
    "speed_adjusted_execute",
    "straightline_joint_init",
    "write_benchmark_outputs",
]

"""Desk-scale laboratory for RL under training/inference engine mismatch.

A tiny dual-engine softmax policy, synthetic verifiable rewards, a
masked-calibration surrogate objective with exact gradients, a
budget-partitioned rollout scheduler with a single-pass baseline, and a
discrepancy-dynamics lab, wired together by a seeded batch harness.
"""

from .config import ExperimentConfig, load_config
from .discrepancy import (
    BiasMode,
    DiscrepancyFit,
    DiscrepancySample,
    compounding_experiment,
    make_probes,
    measure,
)
from .errors import ConfigError, NumericError, TickCapError
from .objective import (
    Algo,
    LossBreakdown,
    ObjectiveConfig,
    RolloutBatch,
    momentum_update,
    objective_and_grad,
    sgd_update,
)
from .policy import (
    Context,
    Engine,
    PolicyParams,
    Vocabulary,
    infer_engine,
    init_params,
)
from .scheduler import (
    BudgetConfig,
    SchedulerState,
    StepReport,
    SyntheticPromptSource,
    run_iteration,
    run_iteration_baseline,
    train_loop,
)
from .tasks import TaskKind, TaskSpec, sample_prompt, verify

__version__ = "0.1.0"

__all__ = [
    "Algo",
    "BiasMode",
    "BudgetConfig",
    "ConfigError",
    "Context",
    "DiscrepancyFit",
    "DiscrepancySample",
    "Engine",
    "ExperimentConfig",
    "LossBreakdown",
    "NumericError",
    "ObjectiveConfig",
    "PolicyParams",
    "RolloutBatch",
    "SchedulerState",
    "StepReport",
    "SyntheticPromptSource",
    "TaskKind",
    "TaskSpec",
    "TickCapError",
    "Vocabulary",
    "compounding_experiment",
    "infer_engine",
    "init_params",
    "load_config",
    "make_probes",
    "measure",
    "momentum_update",
    "objective_and_grad",
    "run_iteration",
    "run_iteration_baseline",
    "sample_prompt",
    "sgd_update",
    "train_loop",
    "verify",
]

"""Desk-scale laboratory for RL under training/inference engine mismatch.

A tiny dual-engine softmax policy, synthetic verifiable rewards, a
masked-calibration surrogate objective with exact gradients, a
budget-partitioned rollout scheduler with a single-pass baseline, and a
discrepancy-dynamics lab, wired together by a seeded batch harness.
"""

from .config import ExperimentConfig, default_config, load_config
from .discrepancy import (
    BiasMode,
    DiscrepancyFit,
    DiscrepancySample,
    compounding_experiment,
    delta_and_gap,
    delta_gradient,
    kl_categorical,
    make_probes,
    measure,
)
from .errors import ConfigError, NumericError, TickCapError
from .objective import (
    Algo,
    LossBreakdown,
    ObjectiveConfig,
    PromptGroup,
    group_advantages,
    mask,
    momentum_update,
    objective_and_grad,
    sgd_update,
)
from .policy import (
    Context,
    Engine,
    PolicyParams,
    TokenDistribution,
    Vocabulary,
    distribution,
    feature_indices,
    infer_engine,
    init_params,
    log_prob,
    sample_token,
    sample_with_logprobs,
    train_engine,
)
from .scheduler import (
    BudgetConfig,
    Rollout,
    SchedulerState,
    ScriptedPromptSource,
    StepReport,
    SyntheticPromptSource,
    make_state,
    run_iteration,
    run_iteration_baseline,
    train_loop,
)
from .tasks import TaskKind, TaskSpec, prefix_pattern, sample_prompt, verify

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
    "PromptGroup",
    "Rollout",
    "SchedulerState",
    "ScriptedPromptSource",
    "StepReport",
    "SyntheticPromptSource",
    "TaskKind",
    "TaskSpec",
    "TickCapError",
    "TokenDistribution",
    "Vocabulary",
    "compounding_experiment",
    "default_config",
    "delta_and_gap",
    "delta_gradient",
    "distribution",
    "feature_indices",
    "group_advantages",
    "infer_engine",
    "init_params",
    "kl_categorical",
    "load_config",
    "log_prob",
    "make_probes",
    "make_state",
    "mask",
    "measure",
    "momentum_update",
    "objective_and_grad",
    "prefix_pattern",
    "run_iteration",
    "run_iteration_baseline",
    "sample_prompt",
    "sample_token",
    "sample_with_logprobs",
    "sgd_update",
    "train_engine",
    "train_loop",
    "verify",
]

"""Token-level surrogate objective, calibration masking, and exact gradients.

Per token, the surrogate multiplies a calibration factor (computed from
the two engines' log probabilities recorded at generation time) against
the clipped importance-weighted advantage, minus an optional exact
categorical KL penalty to a frozen reference policy:

    value_t = m_t * min(r_t * A, clip(r_t, 1-eps, 1+eps) * A) - gamma * KL_t

where the calibration ratio c_t = pi_train(old) / pi_infer(old) and the
importance ratio r_t = pi_train(theta) / pi_train(old). The mode decides
m_t: the masked variant keeps c_t inside [alpha, beta] and zeroes it
outside; the unmasked variant uses c_t as-is; the truncated variant caps
it at a constant. m_t and the advantage are treated as constants in the
gradient. Aggregation is token-mean within a rollout, mean over the
group, mean over groups, in that fixed order so results are bit-stable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, NumericError
from .policy import (
    ContextTable,
    PolicyParams,
    batched_log_softmax,
    batched_train_logits,
    context_rows,
    train_engine,
    weight_grad,
)
from .tasks import TaskSpec

if TYPE_CHECKING:
    from .scheduler import Rollout


class Algo(enum.Enum):
    ICEPOP = "icepop"
    GRPO = "grpo"
    TIS = "tis"


def check_bounds(alpha: float, beta: float, where: str) -> None:
    """Raise ConfigError unless the calibration-ratio bounds satisfy 0 < alpha <= 1 <= beta."""
    if not 0.0 < alpha <= 1.0 <= beta:
        raise ConfigError(f"{where}: bounds must satisfy 0 < alpha <= 1 <= beta, got [{alpha}, {beta}]")


@dataclass(frozen=True)
class ObjectiveConfig:
    """The surrogate objective and the update that applies its gradient.

    [alpha, beta] are the inclusive limits of the calibration ratio that
    the masked variant keeps. Also the experiment config's objective
    section, so the field order is the document's.
    """

    algo: Algo = Algo.ICEPOP
    alpha: float = 0.5
    beta: float = 5.0
    clip_eps: float = 0.2
    kl_coeff: float = 0.0
    group_size: int = 8
    tis_cap: float = 2.0
    learning_rate: float = 24.0
    optimizer: str = "sgd"
    momentum: float = 0.9

    def __post_init__(self) -> None:
        check_bounds(self.alpha, self.beta, "objective")
        if not 0.0 < self.clip_eps < 1.0:
            raise ConfigError("objective.clip_eps: must be in (0, 1)")
        if self.kl_coeff < 0.0:
            raise ConfigError("objective.kl_coeff: must be nonnegative")
        if self.group_size < 2:
            raise ConfigError("objective.group_size: must be >= 2")
        if self.tis_cap <= 0.0:
            raise ConfigError("objective.tis_cap: must be positive")
        if not self.learning_rate > 0.0:
            raise ConfigError("objective.learning_rate: must be positive")
        if self.optimizer not in ("sgd", "momentum"):
            raise ConfigError(f"objective.optimizer: unknown optimizer {self.optimizer!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("objective.momentum: must be in [0, 1)")


def mask(k: float, cfg: ObjectiveConfig) -> float:
    """k if cfg.alpha <= k <= cfg.beta (inclusive), else 0."""
    if not math.isfinite(k) or k <= 0.0:
        raise ValueError(f"mask argument must be a finite positive ratio, got {k}")
    return k if cfg.alpha <= k <= cfg.beta else 0.0


@dataclass
class PromptGroup:
    """A prompt with its sibling rollouts, rewards, and group advantages."""

    task: TaskSpec
    rollouts: list["Rollout"]
    rewards: list[float]
    advantages: list[float]

    def __post_init__(self) -> None:
        if not (len(self.rollouts) == len(self.rewards) == len(self.advantages)):
            raise ValueError("rollouts, rewards, and advantages must have equal length")
        if not all(math.isfinite(a) for a in self.advantages):
            raise NumericError("group advantages contain non-finite values")


@dataclass
class LossBreakdown:
    """Objective value, gradient and per-token diagnostics of one batch.

    grad_norm is fixed when the breakdown is built, so it stays when a
    holder drops grad after applying it (train_loop sets it to None).
    """

    objective_value: float
    per_token_mask_kept: np.ndarray
    clipped_fraction: float
    grad: np.ndarray | None
    kl_to_ref: float
    token_count: int = 0
    mean_logp: float = 0.0
    entropy_all: float = 0.0
    entropy_clipped: float = math.nan
    per_token_surrogate: np.ndarray = field(default_factory=lambda: np.zeros(0))
    per_token_calibration: np.ndarray = field(default_factory=lambda: np.zeros(0))
    per_token_entropy: np.ndarray = field(default_factory=lambda: np.zeros(0))
    grad_norm: float = field(init=False)

    def __post_init__(self) -> None:
        self.grad_norm = float(np.linalg.norm(self.grad))


def empty_breakdown(params: PolicyParams) -> LossBreakdown:
    """Placeholder for iterations that emitted no trainable groups."""
    return LossBreakdown(
        objective_value=0.0,
        per_token_mask_kept=np.zeros(0, dtype=bool),
        clipped_fraction=0.0,
        grad=np.zeros_like(params.weights),
        kl_to_ref=0.0,
    )


def group_advantages(rewards: list[float] | np.ndarray) -> np.ndarray:
    """Group z-scores with a 1e-6 std floor; zero-variance groups get zeros."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.size < 2:
        raise ValueError("advantage normalization needs a group of >= 2 rewards")
    std = float(r.std())
    return (r - r.mean()) / max(std, 1e-6)


def batch_group_advantages(rewards: np.ndarray) -> np.ndarray:
    """group_advantages of every row of a (groups, group size) reward matrix, bit for bit."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.ndim != 2 or r.shape[1] < 2:
        raise ValueError("advantage normalization needs groups of >= 2 rewards")
    return (r - r.mean(axis=1, keepdims=True)) / np.maximum(r.std(axis=1, keepdims=True), 1e-6)


def objective_and_grad(
    groups: list[PromptGroup],
    theta: PolicyParams,
    theta_old: PolicyParams,
    ref: PolicyParams | None,
    cfg: ObjectiveConfig,
    temperature: float = 1.0,
    table: ContextTable | None = None,
) -> LossBreakdown:
    """Objective value and its exact analytic gradient w.r.t. theta.

    The current-train log probabilities are recomputed from theta, so the
    value is a pure function of theta given the generation-time fields
    each rollout recorded; that is what the finite-difference checks
    differentiate. The inputs are not modified. A calibration ratio that
    underflows to zero counts as outside any bounds (masked, or zero
    weight in the unmasked modes). The KL to ref is evaluated only when
    it enters the objective (kl_coeff > 0); kl_to_ref is nan otherwise.

    Every token of every group is evaluated as one flat batch, with each
    token weighted by 1 / (groups * group size * rollout length). The
    reductions keep the per-rollout order (token sum per rollout, then
    rollouts in group order, then groups), so results are bit-stable.

    With a context table (at temperature, with every group's prompt
    registered), the current-train feature rows, log probs and probs are
    gathered from its rows at theta instead of evaluated; the values are
    the same bits.
    """
    if not groups:
        raise ValueError("objective needs at least one prompt group")
    if theta_old.version_id > theta.version_id:
        raise ValueError("theta_old must not be newer than theta")
    rollouts = [r for g in groups for r in g.rollouts]
    if not all(g.rollouts for g in groups):
        raise ValueError("empty prompt group")
    if not all(r.tokens for r in rollouts):
        raise ValueError("empty rollout in prompt group")
    if any(v > theta_old.version_id for r in rollouts for v in r.versions):
        raise ValueError("token generated by a version newer than theta_old")

    lengths = np.asarray([r.length for r in rollouts])
    group_sizes = np.repeat([len(g.rollouts) for g in groups], [len(g.rollouts) for g in groups])
    seg = np.repeat(np.arange(lengths.size), lengths)
    tokens = np.fromiter((t for r in rollouts for t in r.tokens), np.int64, seg.size)
    lp_old = np.fromiter((v for r in rollouts for v in r.lp_train), np.float64, seg.size)
    lp_inf = np.fromiter((v for r in rollouts for v in r.lp_infer), np.float64, seg.size)
    advantage = np.repeat([a for g in groups for a in g.advantages], lengths)
    weight = 1.0 / (len(groups) * group_sizes * lengths)[seg]
    # Window before each token: (prev, last) shift along the rollout,
    # -1 where the rollout has not produced them yet.
    pos = np.arange(seg.size) - (np.cumsum(lengths) - lengths)[seg]
    last = np.where(pos >= 1, np.roll(tokens, 1), -1)
    prev = np.where(pos >= 2, np.roll(tokens, 2), -1)
    prompt_ids = np.repeat([r.task.prompt_id for r in rollouts], lengths)
    if table is None:
        feats, _, _ = context_rows(prompt_ids, prev, last, theta.n_features, train_engine(), theta.version_id)
        log_probs, probs = batched_log_softmax(batched_train_logits(theta, feats, temperature))
    else:
        if table.temperature != temperature:
            raise ValueError("context table is at another temperature")
        table.load(theta)
        at = table.rows(prompt_ids, prev, last)
        table.check(at)
        feats, log_probs, probs = table.feats[at], table.lp_train[at], table.probs_train[at]
    rows = np.arange(seg.size)
    lp_cur = log_probs[rows, tokens]
    calib = np.exp(lp_old - lp_inf)
    ratio = np.exp(lp_cur - lp_old)
    bad = ~(np.isfinite(calib) & np.isfinite(ratio))
    if bad.any():
        # Report the first offending rollout, calibration before ratio.
        in_first = seg == seg[bad.argmax()]
        which = "calibration" if not np.isfinite(calib[in_first]).all() else "importance"
        raise NumericError(f"{which} ratio overflow")
    if cfg.algo is Algo.ICEPOP:
        kept = (calib >= cfg.alpha) & (calib <= cfg.beta)
        factor = np.where(kept, calib, 0.0)
    elif cfg.algo is Algo.GRPO:
        kept = np.ones(seg.size, dtype=bool)
        factor = calib
    else:
        kept = np.ones(seg.size, dtype=bool)
        factor = np.minimum(calib, cfg.tis_cap)

    unclipped = ratio * advantage
    clipped = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * advantage
    active = unclipped <= clipped
    pg_values = factor * np.where(active, unclipped, clipped)

    # Gradient w.r.t. the scaled logits, then scattered onto the four
    # active feature rows per position (duplicates counted).
    coeffs = np.where(active, weight * factor * ratio * advantage / temperature, 0.0)
    grad_logits = -coeffs[:, None] * probs
    grad_logits[rows, tokens] += coeffs

    with_kl = ref is not None and cfg.kl_coeff > 0.0
    kl_values = np.zeros(seg.size)
    if with_kl:
        ref_log_probs, _ = batched_log_softmax(batched_train_logits(ref, feats, temperature))
        diff = log_probs - ref_log_probs
        kl_values = (probs * diff).sum(axis=1)
        kl_grad = (weight * cfg.kl_coeff / temperature)[:, None] * (probs * (diff - kl_values[:, None]))
        grad_logits -= kl_grad
    grad = weight_grad(feats, grad_logits, theta.n_features, lengths)

    token_values = pg_values - cfg.kl_coeff * kl_values
    total = 0.0
    end = 0
    for group in groups:
        group_value = 0.0
        for rollout in group.rollouts:
            start, end = end, end + rollout.length
            group_value += float(token_values[start:end].sum()) / (len(group.rollouts) * rollout.length)
        total += group_value
    objective = total / len(groups)
    if not math.isfinite(objective) or not np.isfinite(grad).all():
        raise NumericError("objective or gradient is not finite")

    entropy = -(probs * log_probs).sum(axis=1)
    n_clipped = int((~kept).sum())
    return LossBreakdown(
        objective_value=objective,
        per_token_mask_kept=kept,
        clipped_fraction=n_clipped / kept.size,
        grad=grad,
        kl_to_ref=float(kl_values.mean()) if with_kl else math.nan,
        token_count=int(kept.size),
        mean_logp=float(lp_cur.mean()),
        entropy_all=float(entropy.mean()),
        entropy_clipped=float(entropy[~kept].mean()) if n_clipped else math.nan,
        per_token_surrogate=pg_values,
        per_token_calibration=calib,
        per_token_entropy=entropy,
    )


def sgd_update(theta: PolicyParams, grad: np.ndarray, lr: float) -> PolicyParams:
    """Gradient ascent step at a positive lr; increments the parameter version."""
    if grad.shape != theta.weights.shape:
        raise ValueError("gradient shape does not match parameters")
    with np.errstate(over="ignore"):
        weights = theta.weights + lr * grad
    if not np.isfinite(weights).all():
        raise NumericError("parameter update produced non-finite weights")
    return PolicyParams(weights=weights, version_id=theta.version_id + 1)


def momentum_update(
    theta: PolicyParams,
    grad: np.ndarray,
    velocity: np.ndarray,
    lr: float,
    beta: float = 0.9,
) -> tuple[PolicyParams, np.ndarray]:
    """Moment-based ascent variant, with beta in [0, 1); same contract as sgd_update."""
    new_velocity = beta * velocity + grad
    params = sgd_update(theta, new_velocity, lr)
    return params, new_velocity

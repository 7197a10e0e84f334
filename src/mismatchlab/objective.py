"""Token-level surrogate objective, calibration masking, and exact gradients.

Per token, the surrogate multiplies a calibration factor (computed from
the two engines' log probabilities recorded at generation time) against
the clipped importance-weighted advantage:

    value_t = m_t * min(r_t * A, clip(r_t, 1-eps, 1+eps) * A)

where the calibration ratio c_t = pi_train(old) / pi_infer(old) and the
importance ratio r_t = pi_train(theta) / pi_train(old). objective.algo
decides m_t:

    icepop  m_t = c_t inside [alpha, beta], and 0 outside
    grpo    m_t = c_t, uncapped: full importance correction, not the
            uncorrected baseline (m_t = 1)
    tis     m_t = min(c_t, tis_cap)

m_t and the advantage are treated as constants in the gradient. It reads
a RolloutBatch, the emitted rollouts as flat arrays, and pi_train(theta)
from the ContextTable row each token was sampled at.
Aggregation is token-mean within a rollout, mean over the group, mean
over groups; each rollout's tokens are summed in order, so results are
bit-stable. Tokens at one table row share its features and probs, so the
gradient is summed by row, as sum(c e_token) - sum(c) p_row over the
row's tokens, then scattered onto the weights once per row.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .policy import ContextTable, PolicyParams, weight_grad
# The direct engine path, no longer called here: perfbench/child.py wraps these names where each layer binds them.
from .policy import batched_log_softmax, batched_train_logits  # noqa: F401


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
    group_size: int = 8
    tis_cap: float = 2.0
    learning_rate: float = 24.0

    def __post_init__(self) -> None:
        check_bounds(self.alpha, self.beta, "objective")
        if not 0.0 < self.clip_eps < 1.0:
            raise ConfigError("objective.clip_eps: must be in (0, 1)")
        if self.group_size < 2:
            raise ConfigError("objective.group_size: must be >= 2")
        if self.tis_cap <= 0.0:
            raise ConfigError("objective.tis_cap: must be positive")
        if not self.learning_rate > 0.0:
            raise ConfigError("objective.learning_rate: must be positive")


@dataclass(frozen=True, eq=False)
class RolloutBatch:
    """Trainable rollouts as flat arrays, in groups of group_size consecutive rollouts; len() counts groups.

    Per rollout: its length, prompt id, reward, group advantage and uid.
    Per token, each rollout's in order: the token id, the ContextTable row
    of the context it was sampled at, its log probability under the
    training and the inference engine at the generating parameters, and
    that parameter version.
    """

    group_size: int
    lengths: np.ndarray
    prompt_ids: np.ndarray
    rewards: np.ndarray
    advantages: np.ndarray
    uids: np.ndarray
    tokens: np.ndarray
    rows: np.ndarray
    lp_train: np.ndarray
    lp_infer: np.ndarray
    versions: np.ndarray

    def __len__(self) -> int:
        return self.lengths.size // self.group_size


@dataclass
class LossBreakdown:
    """Objective value, gradient and per-token diagnostics of one batch.

    train_loop hands each iteration's breakdown to its on_step and keeps
    none of them, so a caller folds what it writes as the breakdown
    lands. grad_norm is fixed when the breakdown is built.
    """

    objective_value: float
    per_token_mask_kept: np.ndarray
    clipped_fraction: float
    grad: np.ndarray
    token_count: int = 0
    mean_logp: float = 0.0
    entropy_all: float = 0.0
    entropy_clipped: float = math.nan
    per_token_surrogate: np.ndarray = field(default_factory=lambda: np.zeros(0))
    per_token_calibration: np.ndarray = field(default_factory=lambda: np.zeros(0))
    per_token_entropy: np.ndarray = field(default_factory=lambda: np.zeros(0))
    grad_norm: float = field(init=False)

    def __post_init__(self) -> None:
        self.grad_norm = _norm(self.grad)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of x. The plain norm squares every entry, so it overflows on a finite x whose
    entries reach about 1e154; then it is taken of x scaled by its largest |entry|. Raises NumericError
    if even that norm is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(x))
        if math.isfinite(norm):
            return norm
        scale = float(np.abs(x).max())
        norm = scale * float(np.linalg.norm(x / scale))
    if not math.isfinite(norm):
        raise NumericError("gradient norm is not finite")
    return norm


def _finite(*arrays: np.ndarray) -> bool:
    """np.isfinite(a).all() for every array, without a mask: NaN propagates through min and max, and an
    infinity is one of them."""
    return all(math.isfinite(v) for a in arrays for v in (a.min(initial=0.0), a.max(initial=0.0)))


def empty_breakdown(params: PolicyParams) -> LossBreakdown:
    """Placeholder for iterations that emitted no trainable groups."""
    return LossBreakdown(
        objective_value=0.0,
        per_token_mask_kept=np.zeros(0, dtype=bool),
        clipped_fraction=0.0,
        grad=np.zeros_like(params.weights),
    )


def batch_group_advantages(rewards: np.ndarray) -> np.ndarray:
    """Group z-scores of every row of a (groups, group size) reward matrix, with a 1e-6 std floor;
    zero-variance groups get zeros."""
    r = np.asarray(rewards, dtype=np.float64)
    if r.ndim != 2 or r.shape[1] < 2:
        raise ValueError("advantage normalization needs groups of >= 2 rewards")
    return (r - r.mean(axis=1, keepdims=True)) / np.maximum(r.std(axis=1, keepdims=True), 1e-6)


def objective_and_grad(
    batch: RolloutBatch,
    theta: PolicyParams,
    cfg: ObjectiveConfig,
    table: ContextTable,
) -> LossBreakdown:
    """Objective value and its exact analytic gradient w.r.t. theta.

    The current-train log probs and probs are read from the table at
    theta, by the table row the batch recorded for each token, at the
    table's temperature; the table must hold the batch's prompts.
    So the value is a pure function of theta given the generation-time
    fields the batch recorded; that is what the finite-difference checks
    differentiate. The inputs are not modified (the table only evaluates
    rows at theta). A calibration ratio that underflows to zero counts as
    outside any bounds (masked, or zero weight in the unmasked modes).

    Every token of the batch is evaluated at once, each weighted by
    1 / (groups * group size * rollout length). The value is the sum of
    the weighted rollouts, each one segment sum of its tokens in order.
    The gradient works on the batch's distinct table rows, not its tokens:
    a row's is sum(c e_token) - sum(c) p_row, both sums in token order.
    Each per-token term is written in place where it can be (the ratio
    over the current log probs, the selected surrogate term over the
    clipped one, the coefficients over the token weights) and released
    after its last use; the rows' probs and log probs are gathered from
    the table only where they are read, once the per-token terms are
    freed, and each row's entropy scales its log probs in place, before
    its gradient scales its probs in place. So it peaks at about 8 arrays
    of one word a token above its entry (8.1 on 6,047 tokens over 838
    rows), at the row gradient. The value is folded before the scatter
    onto the feature rows, which adds in place (weight_grad): at the
    scatter it holds no per-token array that it does not return or still
    read. A check reads its arrays' min and max, so on valid input it
    allocates nothing, and a mask is built only where it is kept (the
    IcePop mask, in one array) or on the raise path, to name the first
    offender.
    """
    lengths, group_size = batch.lengths, batch.group_size
    if not lengths.size:
        raise ValueError("objective needs at least one prompt group")
    if group_size < 1 or lengths.size % group_size:
        raise ValueError("the batch's rollouts do not form whole groups")
    if lengths.min() < 1:
        raise ValueError("empty rollout in prompt group")
    if batch.versions.max(initial=theta.version_id) > theta.version_id:
        raise ValueError("token generated by a version newer than theta")
    if not _finite(batch.advantages):
        raise NumericError("group advantages contain non-finite values")

    n_groups, tokens, lp_old, lp_inf = len(batch), batch.tokens, batch.lp_train, batch.lp_infer
    table.load(theta)
    # The distinct rows in row order, and each token's index among them, as np.unique gives them, without a sort.
    marker = np.zeros(table.feats.shape[0], dtype=bool)
    marker[batch.rows] = True
    rows, inverse = np.flatnonzero(marker), (np.cumsum(marker) - 1)[batch.rows]
    slots = table.check(rows)
    ratio = table.log_probs[0][slots[inverse], tokens]  # the current log probs, read through their mean, then the ratio
    mean_logp = float(ratio.mean())
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite ratios raise just below
        calib = np.exp(lp_old - lp_inf)
        np.exp(np.subtract(ratio, lp_old, out=ratio), out=ratio)
    if not _finite(calib, ratio):
        # Report the first offending rollout, calibration before ratio.
        bad = ~(np.isfinite(calib) & np.isfinite(ratio))
        in_first = np.repeat(np.arange(lengths.size) == np.searchsorted(np.cumsum(lengths), bad.argmax(), "right"), lengths)
        which = "calibration" if not np.isfinite(calib[in_first]).all() else "importance"
        raise NumericError(f"{which} ratio overflow")
    kept, factor = np.ones(tokens.size, dtype=bool), calib  # grpo: every token kept, c uncapped
    if cfg.algo is Algo.ICEPOP:
        kept = calib >= cfg.alpha
        kept &= calib <= cfg.beta
        factor = np.where(kept, calib, 0.0)
    elif cfg.algo is Algo.TIS:
        factor = np.minimum(calib, cfg.tis_cap)

    # Overflows here leave non-finite values, which raise NumericError below. Each term is written in place where
    # it can be, and released after its last use: the selected term goes where the clipped one was computed.
    advantage = np.repeat(batch.advantages, lengths)
    with np.errstate(over="ignore", invalid="ignore"):
        unclipped = ratio * advantage
        pg_values = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps)
        pg_values *= advantage
        active = unclipped <= pg_values
        np.copyto(pg_values, unclipped, where=active)
        del unclipped
        np.multiply(factor, pg_values, out=pg_values)

        # Gradient w.r.t. each row's scaled logits, its tokens' one-hot and coefficient sums in token order, then
        # added onto each row's four feature rows (duplicates counted). A token's coefficient is its weight
        # 1 / (groups * group size * rollout length) times factor, ratio and advantage, over the temperature.
        coeffs = np.repeat(1.0 / (n_groups * group_size * lengths), lengths)
        coeffs *= factor
        coeffs *= ratio
        coeffs *= advantage
        coeffs /= table.temperature
        coeffs[np.logical_not(active, out=active)] = 0.0
        del factor, ratio, advantage, active
    # Each row's entropy reads its probs, which its gradient, sum(c e_token) - sum(c) p_row, then scales in place.
    probs, entropy = table.probs[0].take(slots, axis=0), table.log_probs[0].take(slots, axis=0)
    entropy = -np.multiply(entropy, probs, out=entropy).sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        row_grad = np.bincount(inverse * probs.shape[1] + tokens, weights=coeffs, minlength=probs.size).reshape(probs.shape)
        row_grad -= np.multiply(probs, np.bincount(inverse, weights=coeffs, minlength=rows.size)[:, None], out=probs)
    del coeffs, probs
    rollout_values = np.bincount(np.repeat(np.arange(lengths.size), lengths), weights=pg_values) / (group_size * lengths)
    objective = float(rollout_values.sum()) / n_groups
    grad = weight_grad(table.feats[rows], row_grad, theta.n_features)
    if not math.isfinite(objective) or not np.isfinite(grad).all():
        raise NumericError("objective or gradient is not finite")

    entropy = entropy[inverse]
    n_clipped = kept.size - int(np.count_nonzero(kept))
    return LossBreakdown(
        objective_value=objective,
        per_token_mask_kept=kept,
        clipped_fraction=n_clipped / kept.size,
        grad=grad,
        token_count=int(kept.size),
        mean_logp=mean_logp,
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

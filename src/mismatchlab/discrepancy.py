"""Engine-discrepancy measurement and dynamics experiments.

The headline quantity is delta(theta): the exact categorical KL from the
inference engine's distribution to the training engine's, averaged over
a fixed probe context set. Because the toy policy's KL is available in
closed form, so is its gradient, which lets the dynamics experiment
construct update bias that provably satisfies the alignment assumption
and then check the fitted geometric growth bound step by step instead of
assuming it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .policy import (
    _FAULT_GAIN,
    Context,
    ContextTable,
    Engine,
    PolicyParams,
    Vocabulary,
    batched_log_softmax,
    batched_train_logits,
    check_inference_logits,
    context_rows,
    fixed_noise,
    inference_error,
    perturb_logits,
    train_engine,
    weight_grad,
)

if TYPE_CHECKING:
    from .objective import ObjectiveConfig
    from .scheduler import BudgetConfig

_MASK64 = (1 << 64) - 1


@dataclass
class DiscrepancySample:
    """Per-step discrepancy and training diagnostics."""

    step: int
    delta: float
    max_token_gap: float
    mean_logp: float = 0.0
    grad_norm: float = 0.0
    clipped_fraction: float = 0.0
    entropy_all: float = 0.0
    entropy_clipped: float = math.nan


@dataclass
class DiscrepancyFit:
    """Constants fitted from a dynamics trace.

    delta_c = 2 * kappa_hat / eta_hat is the threshold above which the
    per-step geometric growth bound is asserted; growth_holds records
    whether every post-threshold step satisfied it.
    """

    eta_hat: float
    kappa_hat: float
    delta_c: float
    growth_holds: bool
    step_size: float
    grad_bound: float
    drift_bound: float
    smoothness: float
    align_const: float
    vacuous: bool = False


class BiasMode(enum.Enum):
    THEOREM_ALIGNED = "theorem_aligned"
    RL_LOOP = "rl_loop"


def kl_categorical(p: np.ndarray, q: np.ndarray) -> float:
    """Exact KL(p || q) in nats; p-zero terms contribute nothing."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    mask = p > 0.0
    with np.errstate(divide="ignore"):
        terms = p[mask] * (np.log(p[mask]) - np.log(q[mask]))
    return float(terms.sum())


def make_probes(n: int, vocab: Vocabulary, seed: int, max_len: int = 24) -> list[Context]:
    """Fixed probe context set, sampled once per run seed.

    Probes pair prompt identities drawn from the task distribution with
    random token windows, so the measured discrepancy tracks contexts
    the training loop actually visits.
    """
    from .tasks import sample_prompt

    rng = np.random.default_rng(np.random.SeedSequence((seed & _MASK64, 3)))
    probes = []
    for _ in range(n):
        prompt_id = sample_prompt(rng, vocab, max_len).prompt_id
        draw = int(rng.integers(0, 4))
        hist_len = 0 if draw < 2 else draw - 1
        history = tuple(int(rng.integers(0, vocab.size)) for _ in range(hist_len))
        probes.append(Context(prompt_id, history))
    return probes


def probe_windows(probes: list[Context]) -> np.ndarray:
    """(3, N) int64 (prompt id, prev, last) of each probe context."""
    windows = [ctx.window() for ctx in probes]
    return np.asarray(
        [[ctx.prompt_id for ctx in probes], [prev for prev, _ in windows], [last for _, last in windows]],
        dtype=np.int64,
    )


def _probe_rows(
    params: PolicyParams, probes: list[Context], infer: Engine
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """context_rows of the probe set."""
    return context_rows(*probe_windows(probes), params.n_features, infer, params.version_id)


def _delta_and_gap_rows(p_inf, p_tr, lp_inf, lp_tr) -> tuple[float, float]:
    per_probe = (p_inf * (lp_inf - lp_tr)).sum(axis=1)
    gap = float(np.abs(p_inf - p_tr).max())
    return float(per_probe.mean()), gap


def delta_and_gap(
    params: PolicyParams, probes: list[Context], infer: Engine, temperature: float = 1.0
) -> tuple[float, float]:
    """(mean KL(infer || train) over probes, max |p_infer - p_train|)."""
    if not probes:
        raise ValueError("probe set must be non-empty")
    feats, keys_fixed, keys_version = _probe_rows(params, probes, infer)
    train_logits = batched_train_logits(params, feats, temperature)
    infer_logits = perturb_logits(train_logits, keys_fixed, keys_version, infer.mismatch_scale)
    lp_inf, p_inf = batched_log_softmax(infer_logits)
    lp_tr, p_tr = batched_log_softmax(train_logits)
    return _delta_and_gap_rows(p_inf, p_tr, lp_inf, lp_tr)


def measure(
    params: PolicyParams,
    probes: list[Context],
    infer: Engine,
    temperature: float = 1.0,
    step: int = 0,
    loss=None,
    table: ContextTable | None = None,
    rows: np.ndarray | None = None,
) -> DiscrepancySample:
    """Probe-set discrepancy plus diagnostics from the latest loss breakdown.

    With a context table (of infer at temperature, with the probes'
    prompts registered), the distributions are gathered from its rows at
    params: the same bits as delta_and_gap. rows, when given, are the
    probes' rows (ContextTable.rows of probe_windows), built once by a
    caller that measures the same probes every iteration.
    """
    if table is None:
        delta, gap = delta_and_gap(params, probes, infer, temperature)
    else:
        if not probes:
            raise ValueError("probe set must be non-empty")
        if table.infer != infer or table.temperature != temperature:
            raise ValueError("context table is of another engine or temperature")
        if rows is None:
            rows = table.rows(*probe_windows(probes))
        table.load(params)
        table.check(rows)
        delta, gap = _delta_and_gap_rows(table.probs_infer[rows], table.probs_train[rows], table.lp_infer[rows], table.lp_train[rows])
    sample = DiscrepancySample(step=step, delta=delta, max_token_gap=gap)
    if loss is not None and loss.token_count:
        sample.mean_logp = loss.mean_logp
        sample.grad_norm = loss.grad_norm
        sample.clipped_fraction = loss.clipped_fraction
        sample.entropy_all = loss.entropy_all
        sample.entropy_clipped = loss.entropy_clipped
    return sample


def _infer_logits_and_slope(
    train_logits: np.ndarray, keys_fixed: np.ndarray, keys_version: np.ndarray, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """(inference logits, their slope in the training logits s), entry by entry.

    Only the fault term scale * gain * |s_j| * noise_j of the error moves
    with s, so the slope is 1 + scale * gain * sign(s_j) * noise_j at the
    fault entries and 1 elsewhere. Raises NumericError, as perturb_logits
    does, if the inference logits overflow.
    """
    slope = np.ones_like(train_logits)
    if scale <= 0.0:
        return train_logits, slope
    fixed = fixed_noise(keys_fixed, train_logits.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        error, fault_noise = inference_error(train_logits, fixed, keys_version)
        infer_logits = train_logits + scale * error
    check_inference_logits(infer_logits)
    slope.ravel()[fixed.fault_at] += scale * _FAULT_GAIN * np.sign(train_logits.ravel()[fixed.fault_at]) * fault_noise
    return infer_logits, slope


def delta_gradient(
    params: PolicyParams, probes: list[Context], infer: Engine, temperature: float = 1.0
) -> np.ndarray:
    """Exact gradient of the probe-averaged KL w.r.t. the weights.

    Per probe, with p the inference and q the training distribution over
    the shared scaled logits s, a unit change of s_j moves the inference
    logit by the slope a_j of _infer_logits_and_slope and the training
    logit plainly. With delta = sum_k p_k (lp_k - lq_k):

        d delta / d s_j = a_j p_j (lp_j - lq_j - delta) + q_j - p_j

    accumulated on the probe's active feature rows, divided by the
    temperature and the probe count. Raises NumericError, as
    delta_and_gap does, if the inference logits overflow.
    """
    feats, keys_fixed, keys_version = _probe_rows(params, probes, infer)
    train_logits = batched_train_logits(params, feats, temperature)
    infer_logits, slope = _infer_logits_and_slope(train_logits, keys_fixed, keys_version, infer.mismatch_scale)
    lp_inf, p_inf = batched_log_softmax(infer_logits)
    lp_tr, p_tr = batched_log_softmax(train_logits)
    ratio = lp_inf - lp_tr
    delta_rows = (p_inf * ratio).sum(axis=1, keepdims=True)
    d_s = slope * (p_inf * (ratio - delta_rows)) + p_tr - p_inf
    d_s /= temperature * len(probes)
    return weight_grad(feats, d_s, params.n_features)


def _exact_reward_gradient(
    params: PolicyParams,
    probes: list[Context],
    reward_table: np.ndarray,
    temperature: float,
) -> tuple[np.ndarray, float]:
    """On-policy policy gradient of a fixed synthetic reward, in closed form.

    Advantages are the rewards centered under the current training
    distribution, so the expected advantage is zero per probe and the
    per-probe gradient of E[reward] w.r.t. the scaled logits is q * A.
    """
    feats, _, _ = _probe_rows(params, probes, train_engine())
    _, q = batched_log_softmax(batched_train_logits(params, feats, temperature))
    baseline = (q * reward_table).sum(axis=1, keepdims=True)
    d_s = q * (reward_table - baseline) / (temperature * len(probes))
    return weight_grad(feats, d_s, params.n_features), float(baseline.mean())


def compounding_experiment(
    theta_0: PolicyParams,
    mu: float,
    n_steps: int,
    bias_mode: BiasMode,
    vocab: Vocabulary,
    infer: Engine,
    probes: list[Context],
    temperature: float = 1.0,
    align_target: float = 1.0,
    reward_seed: int = 0,
    objective: ObjectiveConfig | None = None,
    budget: BudgetConfig | None = None,
    seed: int = 0,
    max_len: int = 8,
) -> tuple[list[DiscrepancySample], DiscrepancyFit]:
    """Run the discrepancy-growth dynamics experiment.

    THEOREM_ALIGNED constructs each update as an exact on-policy reward
    gradient plus a bias component aligned with the exact discrepancy
    gradient (inner product equal to align_target * delta_t), holding
    the parameter version fixed so the engine-noise map stays smooth.
    Constants are fitted from the same trace; the growth bound is then a
    literal per-step assertion. RL_LOOP runs the training loop with the
    objective and budget configs, which it requires, on prompts of up to
    max_len tokens from a scheduler seeded with seed, and fits the affine
    recursion delta_{t+1} = a delta_t + b. Its step size is mu, not the
    objective's learning rate, because the fit divides by it.
    """
    if mu <= 0:
        raise ValueError("step size mu must be positive")
    if bias_mode is BiasMode.RL_LOOP:
        if objective is None or budget is None:
            raise ValueError("the rl_loop mode needs the objective and budget configs")
        return _rl_loop_fit(theta_0, mu, n_steps, vocab, infer, probes, temperature, objective, budget, seed, max_len)

    rng = np.random.default_rng(np.random.SeedSequence((reward_seed & _MASK64, 4)))
    reward_table = rng.uniform(-1.0, 1.0, size=(len(probes), vocab.size))

    params = theta_0.copy()
    deltas: list[float] = []
    gaps: list[float] = []
    dots_bias: list[float] = []
    dots_drift: list[float] = []
    grad_norms: list[float] = []
    resid_ls: list[float] = []
    samples: list[DiscrepancySample] = []

    # Each parameter state is measured once: a step's delta_next is the next step's delta_t.
    delta_t, gap_t = delta_and_gap(params, probes, infer, temperature)
    for t in range(n_steps):
        grad_delta = delta_gradient(params, probes, infer, temperature)
        g_star, _ = _exact_reward_gradient(params, probes, reward_table, temperature)
        norm_sq = float((grad_delta * grad_delta).sum())
        if delta_t > 0.0 and norm_sq > 1e-30:
            bias = (align_target * delta_t / norm_sq) * grad_delta
        else:
            bias = np.zeros_like(grad_delta)
        g_total = g_star + bias

        deltas.append(delta_t)
        gaps.append(gap_t)
        dots_bias.append(float((grad_delta * bias).sum()))
        dots_drift.append(float((grad_delta * g_star).sum()))
        grad_norms.append(float(np.linalg.norm(g_total)))
        samples.append(DiscrepancySample(step=t, delta=delta_t, max_token_gap=gap_t))

        new_weights = params.weights + mu * g_total
        dot_total = float((grad_delta * g_total).sum())
        params = PolicyParams(new_weights, version_id=params.version_id)
        delta_next, gap_next = delta_and_gap(params, probes, infer, temperature)
        g_sq = grad_norms[-1] ** 2
        if g_sq > 1e-30:
            resid_ls.append(2.0 * abs(delta_next - delta_t - mu * dot_total) / (mu * mu * g_sq))
        delta_t, gap_t = delta_next, gap_next

    deltas.append(delta_t)
    samples.append(DiscrepancySample(step=n_steps, delta=delta_t, max_token_gap=gap_t))

    if max(deltas) <= 1e-15:
        return samples, DiscrepancyFit(
            eta_hat=0.0,
            kappa_hat=0.0,
            delta_c=0.0,
            growth_holds=True,
            step_size=mu,
            grad_bound=max(grad_norms) if grad_norms else 0.0,
            drift_bound=0.0,
            smoothness=0.0,
            align_const=0.0,
            vacuous=True,
        )

    align_const = min(
        dots_bias[t] / deltas[t] for t in range(n_steps) if deltas[t] > 1e-15
    )
    drift_bound = max(abs(d) for d in dots_drift)
    grad_bound = max(grad_norms)
    smoothness = max(resid_ls) if resid_ls else 0.0
    eta_hat = align_const
    kappa_hat = drift_bound + 0.5 * smoothness * mu * grad_bound**2
    delta_c = 2.0 * kappa_hat / eta_hat if eta_hat > 0 else math.inf
    growth_holds = all(
        deltas[t + 1] >= (1.0 + 0.5 * eta_hat * mu) * deltas[t] - 1e-12
        for t in range(n_steps)
        if deltas[t] >= delta_c
    )
    fit = DiscrepancyFit(
        eta_hat=eta_hat,
        kappa_hat=kappa_hat,
        delta_c=delta_c,
        growth_holds=growth_holds,
        step_size=mu,
        grad_bound=grad_bound,
        drift_bound=drift_bound,
        smoothness=smoothness,
        align_const=align_const,
    )
    return samples, fit


def _rl_loop_fit(
    theta_0: PolicyParams,
    mu: float,
    n_steps: int,
    vocab: Vocabulary,
    infer: Engine,
    probes: list[Context],
    temperature: float,
    objective: ObjectiveConfig,
    budget: BudgetConfig,
    seed: int,
    max_len: int,
) -> tuple[list[DiscrepancySample], DiscrepancyFit]:
    from .scheduler import SyntheticPromptSource, make_state, train_loop

    state = make_state(seed, vocab, infer, SyntheticPromptSource(vocab, max_len=max_len), temperature)
    objective = replace(objective, learning_rate=mu)
    results, _ = train_loop(n_steps, state, theta_0.copy(), budget, objective, probes)
    samples = [r[2] for r in results]
    deltas = np.asarray([s.delta for s in samples])
    grad_norms = [r[1].grad_norm for r in results]

    if deltas.max(initial=0.0) <= 1e-15 or len(deltas) < 3:
        return samples, DiscrepancyFit(
            eta_hat=0.0,
            kappa_hat=0.0,
            delta_c=0.0,
            growth_holds=True,
            step_size=mu,
            grad_bound=max(grad_norms) if grad_norms else 0.0,
            drift_bound=math.nan,
            smoothness=math.nan,
            align_const=math.nan,
            vacuous=True,
        )

    x = deltas[:-1]
    y = deltas[1:]
    a, b = np.polyfit(x, y, 1)
    eta_hat = (float(a) - 1.0) / mu
    kappa_hat = -float(b) / mu
    delta_c = 2.0 * kappa_hat / eta_hat if eta_hat > 0 else math.inf
    fit = DiscrepancyFit(
        eta_hat=eta_hat,
        kappa_hat=kappa_hat,
        delta_c=delta_c,
        growth_holds=float(a) > 1.0,
        step_size=mu,
        grad_bound=max(grad_norms) if grad_norms else 0.0,
        drift_bound=math.nan,
        smoothness=math.nan,
        align_const=math.nan,
    )
    return samples, fit


def sensitivity_sweep(
    bounds_list: list,
    seed: int,
    vocab: Vocabulary,
    infer: Engine,
    theta_0: PolicyParams,
    n_iterations: int,
    budget: BudgetConfig,
    objective: ObjectiveConfig,
    max_len: int = 24,
    temperature: float = 1.0,
    n_probes: int = 256,
) -> list[dict]:
    """Run the training loop once per masking-bound setting on shared seeds.

    Each row carries the setting's own training trajectory. Because
    independently trained runs diverge, per-step mask-set comparisons are
    additionally evaluated counterfactually on the first setting's
    trajectory (clipped_fraction_shared): on shared batches, the tokens
    clipped by a narrower range are a strict superset of those clipped
    by a wider one. Each setting replaces the objective's bounds.
    """
    from .scheduler import SyntheticPromptSource, make_state, train_loop

    if len(bounds_list) < 2:
        raise ValueError("sensitivity sweep needs at least two bound settings")
    reference_calibrations: list[np.ndarray] = []
    rows = []
    for idx, (alpha, beta) in enumerate(bounds_list):
        setting = replace(objective, alpha=alpha, beta=beta)
        source = SyntheticPromptSource(vocab, max_len=max_len)
        state = make_state(seed, vocab, infer, source, temperature)
        probes = make_probes(n_probes, vocab, seed)
        results, _ = train_loop(n_iterations, state, theta_0.copy(), budget, setting, probes)
        if idx == 0:
            reference_calibrations = [r[1].per_token_calibration for r in results]
        final_reward = math.nan
        for report, _, _ in reversed(results):
            if report.emitted_groups:
                final_reward = report.reward_mean
                break
        shared = [
            float(((c < alpha) | (c > beta)).mean()) if c.size else 0.0
            for c in reference_calibrations
        ]
        rows.append(
            {
                "alpha": alpha,
                "beta": beta,
                "delta": [r[2].delta for r in results],
                "grad_norm": [r[1].grad_norm for r in results],
                "clipped_fraction": [r[1].clipped_fraction for r in results],
                "clipped_fraction_shared": shared,
                "mean_logp": [r[1].mean_logp for r in results],
                "final_delta": results[-1][2].delta if results else 0.0,
                "final_reward_mean": final_reward,
            }
        )
    return rows

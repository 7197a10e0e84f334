"""Engine-discrepancy measurement, its gradient, and the growth fits.

The headline quantity is delta(theta): the exact categorical KL from the
inference engine's distribution to the training engine's, averaged over
a fixed probe context set. Because the toy policy's KL is available in
closed form, so is its gradient, which lets the theorem-aligned dynamics
experiment construct update bias that provably satisfies the alignment
assumption and then check the fitted geometric growth bound step by
step instead of assuming it. fit_affine_trace fits the same growth
constants to the delta trace of a training run; the runs themselves
are set up by the CLI.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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

_MASK64 = (1 << 64) - 1


@dataclass
class DiscrepancySample:
    """Probe-set discrepancy at one step."""

    step: int
    delta: float
    max_token_gap: float


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
    table: ContextTable | None = None,
    rows: np.ndarray | None = None,
) -> DiscrepancySample:
    """Probe-set discrepancy of params, recorded as step.

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
    return DiscrepancySample(step=step, delta=delta, max_token_gap=gap)


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
    vocab: Vocabulary,
    infer: Engine,
    probes: list[Context],
    temperature: float = 1.0,
    align_target: float = 1.0,
    reward_seed: int = 0,
) -> tuple[list[DiscrepancySample], DiscrepancyFit]:
    """The theorem-aligned discrepancy-growth experiment: n_steps updates of step size mu from theta_0.

    Each update is the exact on-policy gradient of a fixed synthetic
    reward (drawn from reward_seed over the probes) plus a bias
    component aligned with the exact discrepancy gradient, with inner
    product align_target * delta_t. The parameter version stays fixed,
    so the engine-noise map stays smooth. The constants are fitted from
    the same trace, and the growth bound is then checked step by step.
    Returns the n_steps + 1 samples, one per parameter state, and the
    fit; a trace whose delta never leaves zero gives a vacuous fit.
    """
    if mu <= 0:
        raise ValueError("step size mu must be positive")
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


def fit_affine_trace(deltas, grad_norms, mu: float) -> DiscrepancyFit:
    """Fit delta_{t+1} = a delta_t + b to a training run's delta trace.

    The run's step size mu turns the slope and intercept into the growth
    constants: eta_hat = (a - 1) / mu and kappa_hat = -b / mu.
    growth_holds records a > 1, and grad_bound is the largest of the
    run's gradient norms. A trace shorter than three steps, or one whose
    delta never leaves zero, gives a vacuous fit.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    grad_bound = max(grad_norms) if grad_norms else 0.0
    if deltas.max(initial=0.0) <= 1e-15 or len(deltas) < 3:
        return DiscrepancyFit(
            eta_hat=0.0,
            kappa_hat=0.0,
            delta_c=0.0,
            growth_holds=True,
            step_size=mu,
            grad_bound=grad_bound,
            drift_bound=math.nan,
            smoothness=math.nan,
            align_const=math.nan,
            vacuous=True,
        )

    a, b = np.polyfit(deltas[:-1], deltas[1:], 1)
    eta_hat = (float(a) - 1.0) / mu
    kappa_hat = -float(b) / mu
    return DiscrepancyFit(
        eta_hat=eta_hat,
        kappa_hat=kappa_hat,
        delta_c=2.0 * kappa_hat / eta_hat if eta_hat > 0 else math.inf,
        growth_holds=float(a) > 1.0,
        step_size=mu,
        grad_bound=grad_bound,
        drift_bound=math.nan,
        smoothness=math.nan,
        align_const=math.nan,
    )

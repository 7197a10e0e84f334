"""Engine-discrepancy measurement, its gradient, and the growth fits.

The headline quantity is delta(theta): the exact categorical KL from the
inference engine's distribution to the training engine's, averaged over
a fixed probe context set. Because the toy policy's KL is available in
closed form, so is its gradient, which lets the theorem-aligned dynamics
experiment construct update bias that provably satisfies the alignment
assumption and then check the fitted geometric growth bound step by
step instead of assuming it. The probes are hashed once, as a
policy.RowSet (probe_set), and each parameter state, at any version, is
evaluated once (evaluate_probes); delta, its gradient and the reward
gradient read that evaluation. fit_affine_trace fits the same growth
constants to a training run's delta trace; the CLI sets up the runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericError
from .objective import _norm
from .policy import (
    _MASK64,
    _NON_FINITE_INFER_LOGITS,
    Context,
    ContextTable,
    Engine,
    PolicyParams,
    RowSet,
    Vocabulary,
    batched_log_softmax,  # noqa: F401  (uncalled: perfbench/child.py wraps the name where discrepancy binds it)
    batched_train_logits,
    inference_slope,
    perturb_logits,  # noqa: F401  (the same)
    weight_grad,
)


def _times_square(c: float, x: float) -> float:
    """c * x**2 of a finite x >= 0. Above about 1e154, where x**2 overflows (and a float's ** raises
    OverflowError), it is taken as c * x * x, which c can keep finite."""
    return c * x**2 if x < 1e154 else c * x * x


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
    whether every checked step satisfied it. A step is checked if it is
    past the threshold and the growth the bound predicts for it,
    0.5 * eta_hat * mu * delta_t, is above the check's 1e-12 tolerance.
    growth_holds is None where no step was checked: where delta_c is not
    finite (eta_hat <= 0), or mu is too small for any step to show growth.
    """

    eta_hat: float
    kappa_hat: float
    delta_c: float
    growth_holds: bool | None
    step_size: float
    grad_bound: float
    drift_bound: float
    smoothness: float
    align_const: float
    vacuous: bool = False


class BiasMode(enum.Enum):
    THEOREM_ALIGNED = "theorem_aligned"
    RL_LOOP = "rl_loop"


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


def probe_set(probes: list[Context], params: PolicyParams, infer: Engine, temperature: float = 1.0) -> RowSet:
    """The RowSet of the probes' windows for infer at temperature, for params of params' shape at any version."""
    if not probes:
        raise ValueError("probe set must be non-empty")
    return RowSet(probe_windows(probes), params.n_features, params.vocab_size, infer, temperature)


class ProbeEvaluation(NamedTuple):
    """Both engines at a probe set at one params, which delta_and_gap, delta_gradient and _exact_reward_gradient
    read: RowSet.engines' outputs at logits it found finite. delta_gradient reads the probes' noise as probes.fixed."""

    probes: RowSet
    train_logits: np.ndarray
    log_probs: np.ndarray
    probs: np.ndarray
    fault_noise: np.ndarray


def evaluate_probes(probes: RowSet, params: PolicyParams) -> ProbeEvaluation:
    """Both engines at the probes at params, once; raises ValueError on params of another shape, and
    NumericError, with the direct path's messages, on non-finite logits: batched_train_logits checks the
    training engine's, so non-finite counts from RowSet.engines are the inference engine's."""
    if params.weights.shape != (probes.n_features, probes.vocab_size):
        raise ValueError(f"params {params.weights.shape}, probes {(probes.n_features, probes.vocab_size)}")
    train_logits = batched_train_logits(params, probes.feats, probes.temperature)
    log_probs, probs, fault_noise, counts = probes.engines(train_logits, params.version_id)
    if counts is not None:
        raise NumericError(_NON_FINITE_INFER_LOGITS)
    return ProbeEvaluation(probes, train_logits, log_probs, probs, fault_noise)


def delta_and_gap(log_probs: np.ndarray, probs: np.ndarray) -> tuple[float, float]:
    """(mean KL(infer || train) over probes, max |p_infer - p_train|) of (2, probes, V) log-probs and
    probs, training engine first: the one delta computation, of a ProbeEvaluation or a table's rows."""
    p_inf = probs[1]
    per_probe = (p_inf * (log_probs[1] - log_probs[0])).sum(axis=1)
    return float(per_probe.mean()), float(np.abs(p_inf - probs[0]).max())


def measure(
    params: PolicyParams,
    probes: list[Context],
    infer: Engine,
    temperature: float = 1.0,
    step: int = 0,
    table: ContextTable | None = None,
    rows: np.ndarray | None = None,
) -> DiscrepancySample:
    """Probe-set discrepancy of params, recorded as step, by delta_and_gap: of the probes evaluated as the
    compounding experiment evaluates them, or, with a context table (of infer at temperature, holding the
    probes' prompts) and rows, the probes' rows (ContextTable.rows of probe_windows), of their rows' slots gathered
    once from its block at params, the same bits."""
    if table is None:
        evaluation = evaluate_probes(probe_set(probes, params, infer, temperature), params)
        return DiscrepancySample(step, *delta_and_gap(evaluation.log_probs, evaluation.probs))
    if not probes:
        raise ValueError("probe set must be non-empty")
    if table.infer != infer or table.temperature != temperature:
        raise ValueError("context table is of another engine or temperature")
    if rows is None:
        raise ValueError("measure on a context table needs rows, the probes' table rows")
    table.load(params)
    slots = table.check(rows)
    return DiscrepancySample(step, *delta_and_gap(table.log_probs.take(slots, axis=1), table.probs.take(slots, axis=1)))


def delta_gradient(evaluation: ProbeEvaluation) -> np.ndarray:
    """Exact gradient of the probe-averaged KL w.r.t. the weights.

    Per probe, with p the inference and q the training distribution over
    the shared scaled logits s, a unit change of s_j moves the inference
    logit by the slope a_j of policy.inference_slope and the training
    logit plainly. With delta = sum_k p_k (lp_k - lq_k):

        d delta / d s_j = a_j p_j (lp_j - lq_j - delta) + q_j - p_j

    accumulated on the probe's active feature rows, divided by the
    temperature and the probe count.
    """
    probes = evaluation.probes
    slope = inference_slope(evaluation.train_logits, probes.fixed, evaluation.fault_noise, probes.infer.mismatch_scale)
    lp_tr, lp_inf = evaluation.log_probs
    p_tr, p_inf = evaluation.probs
    ratio = lp_inf - lp_tr
    delta_rows = (p_inf * ratio).sum(axis=1, keepdims=True)
    return _probe_weight_grad(probes, slope * (p_inf * (ratio - delta_rows)) + p_tr - p_inf)


def _exact_reward_gradient(evaluation: ProbeEvaluation, reward_table: np.ndarray) -> np.ndarray:
    """On-policy policy gradient of a fixed synthetic reward, in closed form.

    Advantages are the rewards centered under the current training
    distribution, so the expected advantage is zero per probe and the
    per-probe gradient of E[reward] w.r.t. the scaled logits is q * A.
    """
    q = evaluation.probs[0]
    baseline = (q * reward_table).sum(axis=1, keepdims=True)
    return _probe_weight_grad(evaluation.probes, q * (reward_table - baseline))


def _probe_weight_grad(probes: RowSet, d_s: np.ndarray) -> np.ndarray:
    """The weight gradient of per-probe scaled-logit gradients d_s (divided in place by the temperature and the
    probe count), accumulated on each probe's feature rows."""
    d_s /= probes.temperature * len(probes.feats)
    return weight_grad(probes.feats, d_s, probes.n_features)


def compounding_experiment(
    theta_0: PolicyParams,
    mu: float,
    n_steps: int,
    infer: Engine,
    probes: list[Context],
    temperature: float = 1.0,
    align_target: float = 1.0,
    reward_seed: int = 0,
    on_sample=None,
) -> DiscrepancyFit:
    """The theorem-aligned discrepancy-growth experiment: n_steps updates of step size mu from theta_0.

    Each update is the exact on-policy gradient of a fixed synthetic
    reward (drawn from reward_seed over the probes and theta_0's
    vocabulary) plus a bias component aligned with the exact discrepancy
    gradient, with inner product align_target * delta_t. The parameter
    version stays fixed, so the engine-noise map stays smooth. The
    constants are fitted from the same trace, and the growth bound is
    then checked step by step. One loop visits the n_steps + 1 parameter
    states: it evaluates and measures each once, adds the previous step's
    smoothness residual (none where |g| is below 1e-15 or mu^2 |g|^2
    underflows to zero), and hands the sample to on_sample, when given,
    so a caller keeps the steps done before a NumericError. It keeps the
    fit's running extremes and the deltas the growth check reads. |g| is
    taken with the train path's scaled norm, and no norm is squared where
    the square overflows. The fit is vacuous, each fitted constant but
    grad_bound zero, when no step t < n_steps (the steps eta_hat divides
    by) has delta_t > 1e-15. Raises ValueError if n_steps < 1: there is
    no step to fit; NumericError if a gradient norm or a fitted constant
    other than delta_c is not finite.
    """
    if n_steps < 1:
        raise ValueError("compounding experiment needs n_steps >= 1")
    rng = np.random.default_rng(np.random.SeedSequence((reward_seed & _MASK64, 4)))
    reward_table = rng.uniform(-1.0, 1.0, size=(len(probes), theta_0.vocab_size))

    params = theta_0
    hashed_probes = probe_set(probes, params, infer, temperature)
    deltas: list[float] = []
    eta_hat = math.inf  # the least bias inner product over delta_t of the steps with delta_t > 1e-15
    grad_bound = drift_bound = smoothness = 0.0
    for t in range(n_steps + 1):
        evaluation = evaluate_probes(hashed_probes, params)
        delta_t, gap_t = delta_and_gap(evaluation.log_probs, evaluation.probs)
        if t:
            quotient = _times_square(mu * mu, norm)  # 0.0 where it underflows, at a tiny mu
            if norm > 1e-15 and quotient != 0.0:
                smoothness = max(smoothness, 2.0 * abs(delta_t - deltas[-1] - mu * dot_total) / quotient)
        deltas.append(delta_t)
        if on_sample is not None:
            on_sample(DiscrepancySample(step=t, delta=delta_t, max_token_gap=gap_t))
        if t == n_steps:
            break
        grad_delta = delta_gradient(evaluation)
        g_star = _exact_reward_gradient(evaluation, reward_table)
        # A step that overflows the weights raises NumericError in PolicyParams, as sgd_update does.
        with np.errstate(over="ignore", invalid="ignore"):
            norm_sq = float((grad_delta * grad_delta).sum())
            if delta_t > 0.0 and norm_sq > 1e-30:
                bias = (align_target * delta_t / norm_sq) * grad_delta
            else:
                bias = np.zeros_like(grad_delta)
            g_total = g_star + bias
            if delta_t > 1e-15:
                eta_hat = min(eta_hat, float((grad_delta * bias).sum()) / delta_t)
            drift_bound = max(drift_bound, abs(float((grad_delta * g_star).sum())))
            norm = _norm(g_total)
            grad_bound = max(grad_bound, norm)
            dot_total = float((grad_delta * g_total).sum())
            params = PolicyParams(params.weights + mu * g_total, version_id=params.version_id)

    vacuous = max(deltas[:-1]) <= 1e-15
    kappa_hat = delta_c = 0.0
    growth_holds = True
    if vacuous:  # the vacuous fit's values; eta_hat is align_const
        eta_hat = drift_bound = smoothness = 0.0
    else:
        kappa_hat = drift_bound + _times_square(0.5 * smoothness * mu, grad_bound)
        delta_c = 2.0 * kappa_hat / eta_hat if eta_hat > 0 else math.inf
        checked = [t for t in range(n_steps) if deltas[t] >= delta_c and 0.5 * eta_hat * mu * deltas[t] > 1e-12]
        growth_holds = None if not checked else all(
            deltas[t + 1] >= (1.0 + 0.5 * eta_hat * mu) * deltas[t] - 1e-12 for t in checked
        )
    if not all(map(math.isfinite, (eta_hat, kappa_hat, grad_bound, drift_bound, smoothness))):
        raise NumericError("a fitted growth constant is not finite")
    return DiscrepancyFit(
        eta_hat=eta_hat, kappa_hat=kappa_hat, delta_c=delta_c, growth_holds=growth_holds, step_size=mu,
        grad_bound=grad_bound, drift_bound=drift_bound, smoothness=smoothness, align_const=eta_hat, vacuous=vacuous,
    )


def fit_affine_trace(deltas, grad_norms, mu: float) -> DiscrepancyFit:
    """Fit delta_{t+1} = a delta_t + b to a training run's delta trace.

    The run's step size mu turns the slope and intercept into the growth
    constants: eta_hat = (a - 1) / mu and kappa_hat = -b / mu.
    growth_holds records a > 1, and grad_bound is the largest of the
    run's gradient norms. A trace shorter than three steps, or one whose
    delta never leaves zero, gives a vacuous fit. The fit is built once:
    from the vacuous fit's values, which the affine fit overwrites.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    vacuous = bool(deltas.max(initial=0.0) <= 1e-15 or len(deltas) < 3)
    eta_hat = kappa_hat = delta_c = 0.0
    growth_holds = True
    if not vacuous:
        # Fitted on the trace scaled by a power of two, which is exact:
        # polyfit squares its columns, which overflows above about 1e154.
        k = int(np.frexp(deltas.max())[1])
        scaled = np.ldexp(deltas, -k)
        a, b = np.polyfit(scaled[:-1], scaled[1:], 1)
        b = np.ldexp(b, k)
        eta_hat = (float(a) - 1.0) / mu
        kappa_hat = -float(b) / mu
        delta_c = 2.0 * kappa_hat / eta_hat if eta_hat > 0 else math.inf
        growth_holds = float(a) > 1.0
    return DiscrepancyFit(
        eta_hat=eta_hat, kappa_hat=kappa_hat, delta_c=delta_c, growth_holds=growth_holds, step_size=mu,
        grad_bound=max(grad_norms, default=0.0), drift_bound=math.nan, smoothness=math.nan, align_const=math.nan,
        vacuous=vacuous,
    )

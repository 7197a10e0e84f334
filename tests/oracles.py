"""Reference implementations that the package computes another way.

Inference error, one full noise block at a time. The program draws the
fault stream only at the fault entries and scatters the fault term into
the dense term. These oracles draw every block at every entry and mask
the fault term instead. Off the fault entries the masked term is
0 * |logit| * noise = +-0, which leaves the dense term unchanged unless
that term is exactly zero (a Box-Muller radius of exactly 0, probability
about 2^-53 per entry), so the two agree bit for bit.

The single-pass baseline as its own wave loop, which the scheduler runs
as its one rollout loop refilling only an empty pool.

The probe discrepancy, its gradient and the reward gradient on the
direct path, each state evaluated anew per call: the probes hashed by
context_rows, the inference logits by perturb_logits or
inference_logits, and a separate softmax per engine. The package
evaluates a probe set hashed once through engine_pair instead.
"""

from __future__ import annotations

import math

import numpy as np

from mismatchlab.discrepancy import _delta_and_gap_rows, probe_windows
from mismatchlab.policy import (
    _DENSE_TAIL_CUT,
    _DENSE_TAIL_GAIN,
    _DENSE_WEIGHT,
    _FAULT_CUT,
    _FAULT_GAIN,
    _FAULT_NOISE_CLIP,
    _FAULT_TAIL_CUT,
    _FAULT_TAIL_GAIN,
    _FAULT_XOR,
    _PERSISTENT_WEIGHT,
    _SECOND_FIXED_XOR,
    _SECOND_VERSION_XOR,
    _STRIDE_A,
    _STRIDE_B,
    _VERSION_WEIGHT,
    _XOR_B,
    Context,
    Engine,
    PolicyParams,
    _splitmix64_vec,
    batched_log_softmax,
    batched_train_logits,
    check_inference_logits,
    context_rows,
    fixed_noise,
    inference_logits,
    inference_slope,
    perturb_logits,
    train_engine,
    weight_grad,
)
from mismatchlab.scheduler import _close_iteration, _generate_tick, _spawn_group


def _unit_noise_matrix(keys, width, tail_cut, tail_gain):
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 1)
    idx = np.arange(width, dtype=np.uint64).reshape(1, -1)
    a = _splitmix64_vec(keys + idx * _STRIDE_A)
    b = _splitmix64_vec((keys ^ np.uint64(_XOR_B)) + idx * _STRIDE_B)
    u1 = ((a >> np.uint64(11)).astype(np.float64) + 1.0) / float(1 << 53)
    u2 = (b >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    normals = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)
    heavy = (b & np.uint64(0x7FF)) < np.uint64(tail_cut)
    return np.where(heavy, normals * tail_gain, normals)


def _mixed_unit_noise(keys_fixed, keys_version, width, tail_cut, tail_gain):
    return _PERSISTENT_WEIGHT * _unit_noise_matrix(keys_fixed, width, tail_cut, tail_gain) + _VERSION_WEIGHT * _unit_noise_matrix(keys_version, width, tail_cut, tail_gain)


def block_noise_components(kf, kv, width):
    """(dense noise, clipped fault noise, fault mask), each a full (rows, width) block."""
    kf = np.asarray(kf, dtype=np.uint64)
    kv = np.asarray(kv, dtype=np.uint64)
    dense = _mixed_unit_noise(kf, kv, width, _DENSE_TAIL_CUT, _DENSE_TAIL_GAIN)
    fault_noise = np.clip(
        _mixed_unit_noise(
            kf ^ np.uint64(_SECOND_FIXED_XOR), kv ^ np.uint64(_SECOND_VERSION_XOR), width, _FAULT_TAIL_CUT, _FAULT_TAIL_GAIN
        ),
        -_FAULT_NOISE_CLIP,
        _FAULT_NOISE_CLIP,
    )
    idx = np.arange(width, dtype=np.uint64).reshape(1, -1)
    faults = (_splitmix64_vec((kf.reshape(-1, 1) ^ np.uint64(_FAULT_XOR)) + idx * _STRIDE_A) & np.uint64(0x7FF)) < np.uint64(_FAULT_CUT)
    return dense, fault_noise, faults


def block_error(train_logits, noise):
    """dense_weight * dense + fault_gain * fault_mask * |logit| * fault_noise, given block_noise_components."""
    dense, fault_noise, faults = noise
    return _DENSE_WEIGHT * dense + _FAULT_GAIN * faults * np.abs(train_logits) * fault_noise


def block_inference_logits(train_logits, kf, kv, scale):
    """The inference engine's logits, every noise block drawn in full."""
    return train_logits + scale * block_error(train_logits, block_noise_components(kf, kv, train_logits.shape[1]))


def block_slope(train_logits, kf, kv, scale):
    """d inference logit / d training logit: 1 + scale * fault_gain * fault_mask * sign(logit) * fault_noise."""
    _, fault_noise, faults = block_noise_components(kf, kv, train_logits.shape[1])
    return 1.0 + scale * _FAULT_GAIN * faults * np.sign(train_logits) * fault_noise


def baseline_wave_loop(state, params_t, cfg, group_cfg):
    """One baseline iteration: spawn the whole prompt batch, then run it to termination in capacity-sized waves.

    Each wave ticks until its longest rollout ends. An empty batch is an
    empty iteration. Has no tick cap.
    """
    for _ in range(cfg.prompts_per_iteration):
        if not _spawn_group(state, group_cfg):
            break
    batch = list(state.pending)
    state.pending.clear()
    ticks = 0
    for start in range(0, len(batch), cfg.infer_capacity):
        active = batch[start : start + cfg.infer_capacity]
        while active:
            if _generate_tick(active, params_t, state):
                active = [r for r in active if not r.terminal]
            ticks += 1
    state.tick_clock += ticks
    return _close_iteration(state, params_t.version_id, ticks, sum(r.length for r in batch), len(batch), 0, 0)


def _probe_rows(
    params: PolicyParams, probes: list[Context], infer: Engine
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """context_rows of the probe set."""
    return context_rows(*probe_windows(probes), params.n_features, infer, params.version_id)


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


def delta_gradient(
    params: PolicyParams, probes: list[Context], infer: Engine, temperature: float = 1.0
) -> np.ndarray:
    """Exact gradient of the probe-averaged KL w.r.t. the weights.

    Per probe, with p the inference and q the training distribution over
    the shared scaled logits s, a unit change of s_j moves the inference
    logit by the slope a_j of policy.inference_slope and the training
    logit plainly. With delta = sum_k p_k (lp_k - lq_k):

        d delta / d s_j = a_j p_j (lp_j - lq_j - delta) + q_j - p_j

    accumulated on the probe's active feature rows, divided by the
    temperature and the probe count. Raises NumericError, as
    delta_and_gap does, if the inference logits overflow.
    """
    feats, keys_fixed, keys_version = _probe_rows(params, probes, infer)
    train_logits = batched_train_logits(params, feats, temperature)
    fixed = fixed_noise(keys_fixed, train_logits.shape[1])
    infer_logits, fault_noise = inference_logits(train_logits, fixed, keys_version, infer.mismatch_scale)
    check_inference_logits(infer_logits)
    slope = inference_slope(train_logits, fixed, fault_noise, infer.mismatch_scale)
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

"""Reference compositions of the inference error, one full noise block at a time.

The program draws the fault stream only at the fault entries and
scatters the fault term into the dense term. These oracles draw every
block at every entry and mask the fault term instead. Off the fault
entries the masked term is 0 * |logit| * noise = +-0, which leaves the
dense term unchanged unless that term is exactly zero (a Box-Muller
radius of exactly 0, probability about 2^-53 per entry), so the two
agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

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
    _splitmix64_vec,
)


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

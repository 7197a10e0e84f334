"""Array kernels against their scalar and per-block oracles, bit for bit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mismatchlab import infer_engine
from mismatchlab.policy import (
    _DENSE_TAIL_CUT,
    _DENSE_TAIL_GAIN,
    _FAULT_CUT,
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
    context_rows,
    feature_rows,
    mix_noise,
    noise_components,
    noise_keys,
    persistent_noise,
    version_noise,
    weight_grad,
)

INT64 = st.integers(-(2**63), 2**63 - 1)
EDGE = st.sampled_from([-(2**63), -(2**63) + 1, -2, -1, 0, 1, 2**63 - 2, 2**63 - 1])
WINDOW = st.one_of(st.just(-1), EDGE, INT64)


@settings(max_examples=200, deadline=None)
@given(
    contexts=st.lists(st.tuples(st.one_of(EDGE, INT64), WINDOW, WINDOW), min_size=1, max_size=20),
    n_features=st.integers(1, 4096),
    mismatch_seed=st.one_of(EDGE, INT64),
    version_id=st.integers(0, 2**40),
)
def test_context_rows_match_scalar_hashes(contexts, n_features, mismatch_seed, version_id) -> None:
    engine = infer_engine(0.1, mismatch_seed)
    pids, prevs, lasts = (list(col) for col in zip(*contexts))
    feats, keys_fixed, keys_version = context_rows(pids, prevs, lasts, n_features, engine, version_id)
    assert feats.shape == (len(contexts), 4)
    for i, (pid, prev, last) in enumerate(contexts):
        assert tuple(int(f) for f in feats[i]) == feature_rows(pid, prev, last, n_features)
        assert (int(keys_fixed[i]), int(keys_version[i])) == noise_keys(engine, version_id, pid, prev, last)


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


def _block_noise_components(kf, kv, width):
    """One block at a time: the composition the fused kernel replaces."""
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


@pytest.mark.parametrize("rows", [1, 13, 48, 256])
@pytest.mark.parametrize("width", [8, 32])
def test_fused_noise_matches_block_composition(rows: int, width: int) -> None:
    rng = np.random.default_rng(rows * 1000 + width)
    kf = rng.integers(0, 2**64, size=rows, dtype=np.uint64)
    kv = rng.integers(0, 2**64, size=rows, dtype=np.uint64)
    fused = noise_components(kf, kv, width)
    oracle = _block_noise_components(kf, kv, width)
    for got, want in zip(fused, oracle):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [2, 8, 33])
def test_split_noise_recomposes_noise_components(width: int) -> None:
    """Persistent half drawn once for all rows, version half per subset, as the context table draws them."""
    rng = np.random.default_rng(width)
    kf = rng.integers(0, 2**64, size=300, dtype=np.uint64)
    normals, faults = persistent_noise(kf, width)
    for version in range(3):
        pick = rng.choice(kf.size, size=int(rng.integers(1, 60)))
        kv = rng.integers(0, 2**64, size=pick.size, dtype=np.uint64)
        split = mix_noise((normals[:, pick], faults[pick]), version_noise(kv, width))
        for reference in (noise_components(kf[pick], kv, width), _block_noise_components(kf[pick], kv, width)):
            for got, want in zip(split, reference):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=8), n_features=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_weight_grad_matches_add_at_loop(lengths, n_features, seed) -> None:
    rng = np.random.default_rng(seed)
    n = sum(lengths)
    feats = rng.integers(0, n_features, size=(n, 4))
    grad_logits = rng.normal(size=(n, 5)) * 10.0 ** rng.uniform(-8, 8, size=(n, 1))
    oracle = np.zeros((n_features, 5))
    start = 0
    for length in lengths:
        for j in range(4):
            np.add.at(oracle, feats[start : start + length, j], grad_logits[start : start + length])
        start += length
    assert weight_grad(feats, grad_logits, n_features, lengths).tobytes() == oracle.tobytes()
    single = np.zeros((n_features, 5))
    for j in range(4):
        np.add.at(single, feats[:, j], grad_logits)
    assert weight_grad(feats, grad_logits, n_features).tobytes() == single.tobytes()

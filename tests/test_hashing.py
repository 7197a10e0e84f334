"""Array kernels against their scalar and per-block oracles, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mismatchlab import NumericError, infer_engine
from mismatchlab.discrepancy import _infer_logits_and_slope
from mismatchlab.policy import (
    FixedNoise,
    context_rows,
    feature_rows,
    fixed_noise,
    inference_error,
    noise_keys,
    perturb_logits,
    weight_grad,
)
from oracles import block_error, block_inference_logits, block_noise_components, block_slope

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


@pytest.mark.parametrize("rows", [1, 13, 48, 256])
@pytest.mark.parametrize("width", [8, 32])
def test_fused_noise_matches_block_composition(rows: int, width: int) -> None:
    """The one kernel: fault entries, error and fault noise against every block drawn in full."""
    rng = np.random.default_rng(rows * 1000 + width)
    kf = rng.integers(0, 2**64, size=rows, dtype=np.uint64)
    kv = rng.integers(0, 2**64, size=rows, dtype=np.uint64)
    logits = rng.normal(size=(rows, width)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
    fixed = fixed_noise(kf, width)
    error, fault_noise = inference_error(logits, fixed, kv)
    oracle = block_noise_components(kf, kv, width)
    assert fixed.fault_at.tolist() == np.flatnonzero(oracle[2]).tolist()
    for got, want in ((error, block_error(logits, oracle)), (fault_noise, oracle[1][oracle[2]])):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def subset_rows(fixed: FixedNoise, width: int, pick: np.ndarray) -> FixedNoise:
    """The fixed noise of rows pick (repeats allowed), gathered from a batch's."""
    faults = np.zeros(fixed.dense.shape, dtype=bool)
    fault = np.zeros(fixed.dense.shape)
    faults.ravel()[fixed.fault_at] = True
    fault.ravel()[fixed.fault_at] = fixed.fault
    return FixedNoise(np.flatnonzero(faults[pick]), fixed.dense[pick], fault[pick][faults[pick]])


@pytest.mark.parametrize("width", [2, 8, 33])
def test_split_noise_recomposes_noise_components(width: int) -> None:
    """Fixed noise drawn once for all rows, version keys per subset, as the context table draws them."""
    rng = np.random.default_rng(width)
    kf = rng.integers(0, 2**64, size=300, dtype=np.uint64)
    fixed = fixed_noise(kf, width)
    for version in range(3):
        pick = rng.choice(kf.size, size=int(rng.integers(1, 60)))
        kv = rng.integers(0, 2**64, size=pick.size, dtype=np.uint64)
        logits = rng.normal(size=(pick.size, width)) * 10.0 ** rng.uniform(-3, 3, size=(pick.size, 1))
        split = inference_error(logits, subset_rows(fixed, width, pick), kv)
        oracle = block_noise_components(kf[pick], kv, width)
        for reference in (inference_error(logits, fixed_noise(kf[pick], width), kv), (block_error(logits, oracle), oracle[1][oracle[2]])):
            for got, want in zip(split, reference):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 256),
    width=st.integers(2, 33),
    max_exponent=st.floats(-3, 300),
    scale=st.sampled_from([0.05, 0.22, 1.5]),
    overflow=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_direct_inference_logits_and_slope_match_the_block_oracle(rows, width, max_exponent, scale, overflow, seed) -> None:
    """perturb_logits and delta_gradient's slope: finite rows bit for bit, overflowing rows raise."""
    rng = np.random.default_rng(seed)
    kf = rng.integers(0, 2**64, size=rows, dtype=np.uint64)
    kv = rng.integers(0, 2**64, size=rows, dtype=np.uint64)
    logits = rng.normal(size=(rows, width)) * 10.0 ** rng.uniform(-3, max(-3.0, max_exponent), size=(rows, 1))
    if overflow:
        hit = rng.random(rows) < 0.5
        logits[hit, rng.integers(0, width)] = 1e307 * rng.choice([-1.0, 1.0, 4.0])
    with np.errstate(over="ignore", invalid="ignore"):
        want = block_inference_logits(logits, kf, kv, scale)
        want_slope = block_slope(logits, kf, kv, scale)
    finite = np.isfinite(want).all(axis=1)
    assert overflow or finite.all()
    if finite.any():
        at = np.flatnonzero(finite)
        got = perturb_logits(logits[at], kf[at], kv[at], scale)
        got_logits, got_slope = _infer_logits_and_slope(logits[at], kf[at], kv[at], scale)
        for g, w in ((got, want[at]), (got_logits, want[at]), (got_slope, want_slope[at])):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    for row in np.flatnonzero(~finite):
        for direct in (perturb_logits, _infer_logits_and_slope):
            with pytest.raises(NumericError, match="non-finite inference engine logits"):
                direct(logits[row : row + 1], kf[row : row + 1], kv[row : row + 1], scale)


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

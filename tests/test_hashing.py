"""Array kernels against their scalar and per-block oracles, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mismatchlab import NumericError, infer_engine
from mismatchlab.policy import (
    FixedNoise,
    RowSet,
    batched_log_softmax,
    context_rows,
    feature_rows,
    fixed_noise,
    inference_error,
    inference_logits,
    inference_slope,
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
    assert np.flatnonzero(fixed.is_fault).tolist() == np.flatnonzero(oracle[2]).tolist()
    for got, want in ((error, block_error(logits, oracle)), (fault_noise, oracle[1][oracle[2]])):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def subset_rows(fixed: FixedNoise, pick: np.ndarray) -> FixedNoise:
    """The fixed noise of rows pick (repeats allowed), gathered from a batch's field by field."""
    return FixedNoise(*(f[pick] for f in fixed))


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
        split = inference_error(logits, subset_rows(fixed, pick), kv)
        oracle = block_noise_components(kf[pick], kv, width)
        for reference in (inference_error(logits, fixed_noise(kf[pick], width), kv), (block_error(logits, oracle), oracle[1][oracle[2]])):
            for got, want in zip(split, reference):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def random_row_set(rng, rows: int, width: int, scale: float, version: int) -> tuple[RowSet, np.ndarray, np.ndarray]:
    """A RowSet of rows random (prompt, prev, last) contexts at vocabulary width, and its persistent and
    per-version noise keys at version, hashed on the direct path."""
    contexts = rng.integers(-(2**63), 2**63, size=(3, rows), dtype=np.int64)
    infer = infer_engine(scale, int(rng.integers(-(2**63), 2**63)))
    _, kf, kv = context_rows(*contexts, 16, infer, version)
    return RowSet(contexts, 16, width, infer, 1.0), kf, kv


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
    """perturb_logits, and delta_gradient's inference log-probs and slope: finite rows bit for bit, overflowing rows raise."""

    def logits_and_slope(logits, at):
        """RowSet.engines' inference log-probs at rows at and the slope of its fault noise, checked as
        evaluate_probes checks them."""
        log_probs, _, fault_noise, counts = row_set.engines(logits, 5, at)
        if counts is not None:
            raise NumericError("non-finite inference engine logits (mismatch noise overflowed)")
        return log_probs[1], inference_slope(logits, subset_rows(row_set.fixed, at), fault_noise, scale)

    rng = np.random.default_rng(seed)
    row_set, kf, kv = random_row_set(rng, rows, width, scale, 5)
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
        got_logits, got_slope = logits_and_slope(logits[at], at)
        want_log_probs, _ = batched_log_softmax(want[at])
        for g, w in ((got, want[at]), (got_logits, want_log_probs), (got_slope, want_slope[at])):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    for row in np.flatnonzero(~finite):
        with pytest.raises(NumericError, match="non-finite inference engine logits"):
            perturb_logits(logits[row : row + 1], kf[row : row + 1], kv[row : row + 1], scale)
        with pytest.raises(NumericError, match="non-finite inference engine logits"):
            logits_and_slope(logits[row : row + 1], np.asarray([row]))


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 64),
    width=st.integers(2, 33),
    scale=st.sampled_from([0.0, 0.05, 0.22, 1.5]),
    overflow=st.booleans(),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_engines_equal_inference_logits_and_a_softmax_per_engine(rows, width, scale, overflow, ties, seed) -> None:
    """One softmax over both engines' planes, computed in place where their logits were, is each engine's own
    softmax, bit for bit; the non-finite counts are returned exactly when a logit is non-finite, and count the
    engines with non-finite logits per row."""
    rng = np.random.default_rng(seed)
    row_set, kf, kv = random_row_set(rng, rows, width, scale, 9)
    logits = rng.normal(size=(rows, width)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
    if ties:
        # Rows whose maximum is +0.0, -0.0 or NaN, which _row_max takes from max(axis=1): in the training plane,
        # and so in the inference plane at scale 0, and a NaN in the inference plane at every scale.
        hit = rng.random(rows) < 0.5
        logits[hit] = -np.abs(logits[hit])
        logits[hit, rng.integers(0, width)] = rng.choice([0.0, -0.0, np.nan], size=int(hit.sum()))
    if overflow:
        # Huge finite training logits overflow the inference engine; infinite ones overflow both.
        hit = rng.random(rows) < 0.5
        logits[hit, rng.integers(0, width)] = rng.choice([-1e307, 1e307, 4e307, np.inf, -np.inf], size=int(hit.sum()))
    log_probs, probs, fault_noise, counts = row_set.engines(logits, 9)
    infer_logits, want_fault_noise = inference_logits(logits, fixed_noise(kf, width), kv, scale)
    assert fault_noise.tobytes() == want_fault_noise.tobytes()
    non_finite = np.zeros(rows, dtype=np.intp)
    for engine, engine_logits in enumerate((logits, infer_logits)):
        want_log_probs, want_probs = batched_log_softmax(engine_logits)
        for got, want in ((log_probs[engine], want_log_probs), (probs[engine], want_probs)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        non_finite += ~np.isfinite(engine_logits).all(axis=1)
    if non_finite.any():
        assert counts.tolist() == non_finite.tolist()
    else:
        assert counts is None
    assert overflow or ties or counts is None


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 96), slots=st.integers(1, 4), n_features=st.integers(1, 16), seed=st.integers(0, 2**32 - 1))
def test_weight_grad_matches_add_at_loop(n, slots, n_features, seed) -> None:
    """Any number of feature slots: the objective sums its tokens by row with one slot, then scatters rows with four."""
    rng = np.random.default_rng(seed)
    feats = rng.integers(0, n_features, size=(n, slots))
    grad_logits = rng.normal(size=(n, 5)) * 10.0 ** rng.uniform(-8, 8, size=(n, 1))
    oracle = np.zeros((n_features, 5))
    for j in range(slots):
        np.add.at(oracle, feats[:, j], grad_logits)
    assert weight_grad(feats, grad_logits, n_features).tobytes() == oracle.tobytes()

"""Tiny autoregressive softmax policy evaluated by two engines.

The policy is linear over hashed n-gram features of the recent token
window (plus a prompt feature and a bias), so it is the smallest model
with context-dependent, nontrivial gradients. The training engine
computes the exact softmax; the inference engine adds a seeded,
zero-mean logit perturbation whose magnitude tracks the logit scale,
standing in for the numerical disagreement between separate serving and
training stacks. The perturbation is re-drawn per parameter version so
the disagreement evolves with the parameters.

The inference logits have one composition, inference_logits: the
training logits plus scale * inference_error, a dense term everywhere
and a clipped |logit|-proportional term at sparse fault entries;
inference_slope is its derivative. The noise mixes a run-fixed draw per
context (fixed_noise) with one re-drawn per parameter version, and all
its normals come from one counter-based kernel over (key, column)
entries, so a block and any subset give the same bits entry by entry.

The softmax, inverse-CDF sampling and the context hashes each have one
batched implementation. context_rows hashes a batch of contexts into
feature rows and noise keys, the per-version keys by version_keys, which
a RowSet calls alone at each version; feature_rows and noise_keys, the
same hashes of one context in plain integer arithmetic, are its bitwise
reference. A RowSet is a fixed list of contexts hashed once; its one
method, engines, evaluates both engines at any params of one shape from
the rows' training logits: each engine's logits where its log-probs go,
then one softmax over both, in place. It checks the logits by their min
and max and counts a row's non-finite engines only when that check
fails. A training run's ContextTable is the RowSet of every prompt's
(prev, last) windows; per parameter version it holds one block of the
rows the run can read, in row order, written by one pass, and a map from
row to slot, through which sampling, the objective and the probe measure
gather. Sampling is inverse-CDF: a token is the count of the row's first
V - 1 inference CDF entries at or below its uniform, which the block
keeps token-major, one (V - 1, slots) array, so one take reads them for
a batch of slots. The compounding experiment evaluates the RowSet of its
probes (discrepancy.probe_set) at each state. Both raise NumericError on
non-finite logits that a caller reads. The direct path (context_rows ->
batched_train_logits -> perturb_logits -> a softmax per engine) is kept
as the tests' reference and the benchmark's kernel: both equal it bit
for bit, with its messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Heavy-tail mixtures: the dense stream keeps a fatter tail than the
# fault stream; a fault tail mostly manufactures implausible boosts of
# already-suppressed tokens.
_DENSE_TAIL_CUT = 164   # 164/2048 = 8%
_DENSE_TAIL_GAIN = 4.0
_FAULT_TAIL_CUT = 82    # 82/2048 = 4%
_FAULT_TAIL_GAIN = 4.0
# Fault relative error is bounded (clipped noise): a lossy kernel can
# wreck a value within a bounded factor, so an error can suppress a
# leader outright but can never hoist a deeply-suppressed token over it.
_FAULT_NOISE_CLIP = 1.6
_NOISE_TAG = 0x6E015E
_NOISE_VERSION_TAG = 0x7A11E7
_SECOND_FIXED_XOR = 0x1B873593C2B2AE35
_SECOND_VERSION_XOR = 0x85EBCA77C2B2AE63
_FAULT_XOR = 0x46A0175E37C2D91B

# Each noise stream mixes a context-persistent component with one
# re-drawn per parameter version (weights on the unit circle, so the
# marginal stays standard normal). Persistence is what lets repeated
# updates on a disagreeing context compound instead of averaging out.
_PERSISTENT_WEIGHT = 0.99
_VERSION_WEIGHT = 0.141

# Disagreement structure: a dense additive component everywhere plus
# sparse persistent "fault" entries whose error tracks the logit
# magnitude, mimicking heterogeneous kernels that are near-exact on most
# entries and badly lossy on a few.
_FAULT_CUT = 820  # 820/2048 = 40% of (context, token) pairs
_FAULT_GAIN = 10.0
_DENSE_WEIGHT = 0.3


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix(*values: int) -> int:
    """Stable (process-independent) hash of an integer tuple."""
    h = 0x8A5CD789635D2DFF
    for v in values:
        h = _splitmix64(h ^ (v & _MASK64))
    return h


def _splitmix64_vec(x: np.ndarray) -> np.ndarray:
    """splitmix64 of every entry of a uint64 array, in place (plus one scratch array): callers pass a temporary."""
    x += np.uint64(_GOLDEN)
    shifted = x >> np.uint64(30)
    x ^= shifted
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= np.right_shift(x, np.uint64(27), out=shifted)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= np.right_shift(x, np.uint64(31), out=shifted)
    return x


_STRIDE_A = np.uint64(0xD1342543DE82EF95)
_STRIDE_B = np.uint64(0x2545F4914F6CDD1D)
_XOR_B = 0x9E6C63D0876A9A47


@dataclass(frozen=True)
class Vocabulary:
    """Token alphabet; eos_id is the reserved termination token."""

    size: int = 32
    eos_id: int = 0


@dataclass
class PolicyParams:
    """Weight matrix indexed by (feature, token), plus a version counter."""

    weights: np.ndarray
    version_id: int = 0

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be a (n_features, vocab_size) matrix")
        if not np.isfinite(self.weights).all():
            raise NumericError("policy weights contain non-finite values")

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.weights.shape[1]


def init_params(
    vocab: Vocabulary,
    n_features: int = 64,
    init_scale: float = 0.8,
    seed: int = 0,
) -> PolicyParams:
    """Fresh Gaussian weights at version 0, deterministic in seed."""
    rng = np.random.default_rng(np.random.SeedSequence((seed & _MASK64, 0xA11CE)))
    weights = rng.normal(0.0, init_scale, size=(n_features, vocab.size))
    return PolicyParams(weights=weights, version_id=0)


@dataclass(frozen=True)
class Engine:
    """An evaluation engine: the training engine plus a seeded logit error of mismatch_scale.

    At mismatch_scale == 0 the engine is the training engine, bit for
    bit; Engine() is that engine.
    """

    mismatch_scale: float = 0.0
    mismatch_seed: int = 0


def infer_engine(mismatch_scale: float = 0.0, mismatch_seed: int = 0) -> Engine:
    return Engine(mismatch_scale, mismatch_seed)


@dataclass(frozen=True)
class Context:
    """Prompt identity plus the recent token window."""

    prompt_id: int
    token_history: tuple[int, ...] = ()

    def window(self) -> tuple[int, int]:
        """(second-to-last, last) tokens, -1 where history is short."""
        hist = self.token_history
        last = hist[-1] if hist else -1
        prev = hist[-2] if len(hist) >= 2 else -1
        return prev, last


def feature_rows(prompt_id: int, prev: int, last: int, n_features: int) -> tuple[int, int, int, int]:
    """Bias plus prompt-conditioned n-gram rows of the token window.

    All non-bias rows are window-local, so updates at one context do not
    bleed into another context's distribution except through the bias.
    """
    return (
        _mix(1) % n_features,
        _mix(3, prompt_id, last) % n_features,
        _mix(4, prompt_id, prev, last) % n_features,
        _mix(5, prompt_id, prev, last) % n_features,
    )


def noise_keys(
    engine: Engine, version_id: int, prompt_id: int, prev: int, last: int
) -> tuple[int, int]:
    """(persistent, per-version) noise stream keys for one context."""
    return (
        _mix(_NOISE_TAG, engine.mismatch_seed, prompt_id, prev, last),
        _mix(_NOISE_VERSION_TAG, engine.mismatch_seed, version_id, prompt_id, prev, last),
    )


def context_rows(
    prompt_ids, prev, last, n_features: int, infer: Engine, version_id: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, 4) feature rows and (persistent, per-version) noise keys of N contexts.

    Batched feature_rows and noise_keys, bit-identical to them on int64
    inputs (-1 marks an empty window slot). The hash chains differ only
    in a constant prefix and all end in (prompt, prev, last), so the three
    feature chains and the persistent key's run as one stacked (4, N)
    array: the unigram chain (row 0) takes last where the others take
    prev, and stops there. The per-version keys are version_keys'.
    """
    window = np.asarray((prompt_ids, prev, last), dtype=np.int64).view(np.uint64)
    prefixes = [_mix(3), _mix(4), _mix(5), _mix(_NOISE_TAG, infer.mismatch_seed)]
    h = _splitmix64_vec(np.asarray(prefixes, dtype=np.uint64)[:, None] ^ window[0])
    h = _splitmix64_vec(h ^ window[[2, 1, 1, 1]])
    h[1:] = _splitmix64_vec(h[1:] ^ window[2])
    feats = np.empty((window.shape[1], 4), dtype=np.intp)
    feats[:, 0] = _mix(1) % n_features
    feats[:, 1:] = (h[:3] % np.uint64(n_features)).T
    return feats, h[3], version_keys(window, infer, version_id)


def version_keys(window: np.ndarray, infer: Engine, version_id: int) -> np.ndarray:
    """Per-version noise keys of a (3, N) uint64 window of (prompt, prev, last) words: noise_keys' second, batched."""
    keys = np.full(window.shape[1], _mix(_NOISE_VERSION_TAG, infer.mismatch_seed, version_id), dtype=np.uint64)
    for column in window:
        keys = _splitmix64_vec(keys ^ column)
    return keys


_NON_FINITE_LOGITS = "non-finite logits (corrupted parameters)"
_NON_FINITE_INFER_LOGITS = "non-finite inference engine logits (mismatch noise overflowed)"


def _scaled_train_logits(weights: np.ndarray, feats: np.ndarray, temperature: float, out=None) -> np.ndarray:
    logits = weights.take(feats[:, 0], axis=0, out=out)
    for slot in (1, 2, 3):
        logits += weights.take(feats[:, slot], axis=0)
    if temperature != 1.0:
        logits /= temperature
    return logits


def batched_train_logits(params: PolicyParams, feats: np.ndarray, temperature: float) -> np.ndarray:
    """(N, vocab) scaled training-engine logits for an (N, 4) feature-row batch."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits = _scaled_train_logits(params.weights, feats, temperature)
    if not np.isfinite(logits).all():
        raise NumericError(_NON_FINITE_LOGITS)
    return logits


def weight_grad(feats: np.ndarray, grad_logits: np.ndarray, n_features: int) -> np.ndarray:
    """(n_features, vocab) weight gradient from per-row scaled-logit gradients.

    Each row of grad_logits is added onto the feature rows its row of the
    (N, slots) feats lists (duplicates counted), slot by slot, then row by
    row, by np.add.at over each slot column: in place, so its scratch is
    a slot's column of indices, not a copy of grad_logits per slot.
    """
    grad = np.zeros((n_features, grad_logits.shape[1]))
    for slot in range(feats.shape[1]):
        np.add.at(grad, feats[:, slot], grad_logits)
    return grad


def _mixed_keys(keys: np.ndarray, cols: np.ndarray, stride: np.uint64) -> np.ndarray:
    """splitmix64 of keys + cols * stride at the broadcast shape of keys and cols, in a copy of the keys at that
    shape. numpy buffers each broadcast operand of a ufunc, so adding the broadcast keys would hold the sum and
    two buffers of its size; the add into the copy buffers only cols * stride, and the hash runs in place."""
    x = np.broadcast_to(keys, np.broadcast(keys, cols).shape).copy()
    return _splitmix64_vec(np.add(x, cols * stride, out=x))


def _heavy_normals(keys: np.ndarray, cols: np.ndarray, cuts, gains, out=None) -> np.ndarray:
    """Heavy-tailed standard normals at (key, column) entries, into out when given.

    keys, cols (uint64), tail cuts and gains broadcast against each
    other, and the result takes their broadcast shape. Box-Muller on two
    splitmix64 streams per entry, with the tail flag taken from spare low
    bits of the second. Counter-based: deterministic in (key, column),
    entry by entry, so a block and any subset of its entries give the
    same bits. Computed in place, in the operations of sqrt(-2 log(u1)) *
    cos(2 pi u2), the second stream drawn once the first is folded into
    the normals, and its tail flags read before its angle bits are
    shifted down in place; scaling by 2**-53 is exact, as dividing by
    2**53 is.
    """
    normals = np.add(_mixed_keys(keys, cols, _STRIDE_A) >> np.uint64(11), 1.0, out=out)  # cast, then + 1
    normals *= 2.0**-53
    np.log(normals, out=normals)
    normals *= -2.0
    np.sqrt(normals, out=normals)
    b = _mixed_keys(keys ^ np.uint64(_XOR_B), cols, _STRIDE_B)
    tail = (b & np.uint64(0x7FF)) < cuts
    angle = np.right_shift(b, np.uint64(11), out=b).astype(np.float64)
    angle *= 2.0**-53
    angle *= 2.0 * math.pi
    normals *= np.cos(angle, out=angle)
    return np.multiply(normals, gains, out=normals, where=tail)


class FixedNoise(NamedTuple):
    """The run-fixed mismatch noise of a key batch: is_fault marks the fault entries (about 40%), dense holds
    the persistent dense normals of every entry, and fault the persistent fault normals there, 0 elsewhere.
    Each is a (rows, width) block, so FixedNoise(*(f[rows] for f in fixed)) is the noise of those rows."""

    is_fault: np.ndarray
    dense: np.ndarray
    fault: np.ndarray


def _stream_normals(keys: np.ndarray, fault_at: np.ndarray, width: int, fault_xor: int, out=None) -> tuple[np.ndarray, np.ndarray]:
    """(dense normals of keys at every entry, into out when given, and fault normals of keys ^ fault_xor at the
    flat fault entries fault_at)."""
    dense = _heavy_normals(keys[:, None], np.arange(width, dtype=np.uint64), np.uint64(_DENSE_TAIL_CUT), _DENSE_TAIL_GAIN, out)
    fault = _heavy_normals(keys[fault_at // width] ^ np.uint64(fault_xor), (fault_at % width).astype(np.uint64),
                           np.uint64(_FAULT_TAIL_CUT), _FAULT_TAIL_GAIN)
    return dense, fault


def fixed_noise(keys_fixed: np.ndarray, width: int) -> FixedNoise:
    """FixedNoise of the persistent keys of a batch of contexts."""
    kf = np.asarray(keys_fixed, dtype=np.uint64)
    bits = _mixed_keys((kf ^ np.uint64(_FAULT_XOR))[:, None], np.arange(width, dtype=np.uint64), _STRIDE_A)
    is_fault = (bits & np.uint64(0x7FF)) < np.uint64(_FAULT_CUT)
    dense, normals = _stream_normals(kf, np.flatnonzero(is_fault), width, _SECOND_FIXED_XOR)
    fault = np.zeros_like(dense)
    fault[is_fault] = normals
    return FixedNoise(is_fault, dense, fault)


def inference_error(train_logits: np.ndarray, fixed: FixedNoise, keys_version: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """(error, fault noise): the inference engine's logit error per unit mismatch scale, the error into out (C-contiguous) when given.

    Each noise stream mixes the fixed normals with the per-version
    normals of keys_version, the fault stream at the fault entries only.
    The error is dense_weight * dense noise everywhere, plus fault_gain *
    |logit| * fault noise at the fault entries; the fault noise is
    clipped and returned too, in flat order of the fault entries.
    """
    fault_at = np.flatnonzero(fixed.is_fault)
    error, fault_noise = _stream_normals(np.asarray(keys_version, dtype=np.uint64), fault_at, train_logits.shape[1], _SECOND_VERSION_XOR, out)
    # In place: each sum is the persistent term plus the version term (addition commutes bit for bit).
    error *= _VERSION_WEIGHT
    error += _PERSISTENT_WEIGHT * fixed.dense
    error *= _DENSE_WEIGHT
    fault_noise *= _VERSION_WEIGHT
    fault_noise += _PERSISTENT_WEIGHT * fixed.fault.take(fault_at)
    np.clip(fault_noise, -_FAULT_NOISE_CLIP, _FAULT_NOISE_CLIP, out=fault_noise)
    error.ravel()[fault_at] += _FAULT_GAIN * np.abs(train_logits.take(fault_at)) * fault_noise
    return error, fault_noise


def inference_logits(train_logits: np.ndarray, fixed: FixedNoise, keys_version: np.ndarray, scale: float,
                     out=None) -> tuple[np.ndarray, np.ndarray]:
    """(train_logits + scale * inference_error, its clipped fault noise): the one composition, unchecked.

    Computed with numpy's overflow warnings off: the caller checks the
    rows it reads. At scale 0 the inference engine is the training
    engine, bit for bit: the training logits themselves, and no noise;
    otherwise the logits are computed in out, when given.
    """
    if scale <= 0.0:
        return train_logits, np.zeros(np.count_nonzero(fixed.is_fault))
    with np.errstate(over="ignore", invalid="ignore"):
        error, fault_noise = inference_error(train_logits, fixed, keys_version, out)
        error *= scale
        error += train_logits
    return error, fault_noise


def inference_slope(train_logits: np.ndarray, fixed: FixedNoise, fault_noise: np.ndarray, scale: float) -> np.ndarray:
    """d inference logit / d training logit s, entry by entry, given inference_logits' fault noise.

    Only the fault term scale * gain * |s_j| * noise_j of the error moves
    with s, so the slope is 1 + scale * gain * sign(s_j) * noise_j at the
    fault entries and 1 elsewhere.
    """
    slope = np.ones_like(train_logits)
    slope[fixed.is_fault] += scale * _FAULT_GAIN * np.sign(train_logits[fixed.is_fault]) * fault_noise
    return slope


def perturb_logits(logits: np.ndarray, keys_fixed: np.ndarray, keys_version: np.ndarray, scale: float) -> np.ndarray:
    """Inference-engine view of a batch of finite training logits: the tests' reference path and the
    benchmark's kernel, beside RowSet.engines. Raises NumericError if the mismatch noise overflows the
    inference logits, the direct path's one check of them."""
    infer_logits, _ = inference_logits(logits, fixed_noise(keys_fixed, logits.shape[1]), keys_version, scale)
    if not np.isfinite(infer_logits).all():
        raise NumericError(_NON_FINITE_INFER_LOGITS)
    return infer_logits


def _row_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=1, keepdims=True) bit for bit, column by column (numpy reduces short rows slowly);
    rows whose maximum is a zero (+0.0 ties -0.0) or a NaN take max(axis=1) itself. The check for such rows
    reads a count and a max, so it allocates nothing; their mask is built only when one is present."""
    top = x[:, 0].copy()
    for column in range(1, x.shape[1]):
        np.maximum(top, x[:, column], out=top)
    if np.count_nonzero(top) < top.size or np.isnan(top.max(initial=-np.inf)):
        tied = (top == 0.0) | np.isnan(top)
        top[tied] = x[tied].max(axis=1)
    return top[:, None]


def batched_log_softmax(logits: np.ndarray, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """(log_probs, probs) rows; exact log-sum-exp, no flooring; a non-finite row warns of nothing. out, when given,
    is the (log_probs, probs) pair of arrays to write, and its log_probs may be logits itself."""
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = np.subtract(logits, _row_max(logits), out=out[0])
        probs = np.exp(shifted, out=out[1])
        z = probs.sum(axis=1, keepdims=True)
        probs /= z
        shifted -= np.log(z, out=z)
    return shifted, probs


class RowSet:
    """Both engines at a fixed (3, N) list of (prompt, prev, last) contexts, at any params of one shape.

    The contexts are hashed once into their feature rows, FixedNoise and words; engines, the one evaluation of
    both engines, takes the version_keys of the words of the rows it evaluates. A row equals its context on the
    direct path, bit for bit."""

    def __init__(self, contexts, n_features: int, vocab_size: int, infer: Engine, temperature: float) -> None:
        self.n_features = n_features
        self.vocab_size = vocab_size
        self.infer = infer
        self.temperature = temperature
        contexts = np.asarray(contexts, dtype=np.int64)
        self._words = contexts.view(np.uint64)
        self.feats, keys_fixed, _ = context_rows(*contexts, n_features, infer, 0)
        self.fixed = fixed_noise(keys_fixed, vocab_size)

    def engines(self, train_logits: np.ndarray, version_id: int, rows=slice(None), out=None):
        """Both engines at the rows from their scaled training logits at version_id; raises nothing. Returns
        (2, rows, V) log_probs and probs, training engine first, into out's pair of C-contiguous arrays when given
        (train_logits may be out's log_probs[0]); inference_logits' clipped fault noise, which inference_slope
        reads; and None if every logit is finite, else per row how many engines have non-finite logits: 0, 1
        (inference) or 2 (both; inference reads training)."""
        log_probs, probs = np.empty((2, 2, *train_logits.shape)) if out is None else out
        # Each engine's logits where its log-probs go, so that one softmax over both planes runs in place; the
        # inference logits are computed there (assigning them to themselves copies nothing).
        log_probs[0] = train_logits
        keys = version_keys(self._words[:, rows], self.infer, version_id)
        fixed = FixedNoise(*(f[rows] for f in self.fixed))
        log_probs[1], fault_noise = inference_logits(train_logits, fixed, keys, self.infer.mismatch_scale, log_probs[1])
        # A min and a max allocate nothing, and either is non-finite if any logit is (a NaN propagates).
        finite = np.isfinite(log_probs.min()) and np.isfinite(log_probs.max())
        counts = None if finite else np.count_nonzero(~np.isfinite(log_probs).all(axis=2), axis=0)
        stacked = log_probs.reshape(-1, self.vocab_size)
        batched_log_softmax(stacked, (stacked, probs.reshape(stacked.shape)))
        return log_probs, probs, fault_noise, counts


class ContextTable(RowSet):
    """Both engines at every context of a fixed prompt list, one parameter version at a time.

    Within a parameter version the policy is a pure function of the
    context (prompt, prev, last), and a window takes one of (V+1)^2
    values (a token, or -1 for an empty slot). The table is the RowSet of
    every window of each prompt it is built over, in a block per prompt
    that a dict indexes by prompt id, so its shape is fixed for the run.
    It adds the window index (prompt_row, rows, advance: one gather of a
    per-row successor base, plus the token) and a cache of the loaded
    version: the sampler records the row each token is sampled at, and the
    objective gathers by it. The RowSet and the window index are the
    run-fixed half, built once; only the per-version half, sized to the
    rows a version reads, changes.
    readable_rows gives the windows a rollout can reach from (-1, -1):
    never a token followed by an empty slot, and none that holds the
    token that ends it (EOS for a rollout without a target length), which
    it never reads past.

    The per-version half is one block of slots, one per row evaluated at
    the loaded params, in row order, and the row-to-slot map slot, -1 for
    a row not evaluated. The block's views: log_probs and probs, (2,
    slots, V), training engine first; cdf, (V - 1, slots), token-major:
    cdf[k, slot] is the sum of the slot's first k + 1 inference probs, in
    order (np.cumsum), so a batch of slots is one take along axis 1 (the
    last running sum is not kept: the count of entries at or below a
    uniform is clamped at V - 1 anyway). A pass writes a new block of
    exactly the rows it evaluates; only a pass that meets a non-finite
    logit also keeps, per slot, how many engines have non-finite logits,
    which check reads. load(params, rows) loads params, freeing the block,
    and evaluates rows in one pass: the rollout loop passes every row the
    version can read. A load at the loaded params that meets rows not yet
    evaluated evaluates them with the rows evaluated before, in one pass
    over both: a row is a pure function of its context and the params, so
    it keeps its bits, but its slot may move. check(rows), the one read
    gate, has load evaluate any requested row a pass missed, then raises
    NumericError with the direct path's messages if a row's training or
    inference logits are non-finite, and otherwise returns the rows'
    slots, which hold until the next pass; a context the run never reads
    cannot fail it. Not a first-touch table: a pass costs a few hundred
    microseconds however few its rows, which one pass per version pays
    once and first-touch evaluation pays on most reads. Loaded params must
    not change in place.
    """

    def __init__(self, prompt_ids, n_features: int, vocab_size: int, infer: Engine, temperature: float) -> None:
        self.side = vocab_size + 1
        n_windows = self.side * self.side
        prompts = list(dict.fromkeys(int(p) for p in prompt_ids))
        self._first_row = {p: i * n_windows for i, p in enumerate(prompts)}
        self.params: PolicyParams | None = None
        windows = np.arange(n_windows)
        super().__init__([
            np.repeat(np.asarray(prompts, dtype=np.int64), n_windows),
            np.tile(windows // self.side - 1, len(prompts)),
            np.tile(windows % self.side - 1, len(prompts)),
        ], n_features, vocab_size, infer, temperature)
        self.slot = np.full(self.feats.shape[0], -1, dtype=np.intp)
        self._new_block(0)
        # Per row (prev, last), the row of (last, 0), which advance adds each token to.
        rows = np.arange(self.feats.shape[0])
        self._after = rows - rows % n_windows + rows % self.side * self.side + 1
        # Per end token e (-1 for none) at index e + 1, the windows a rollout can read.
        prev, last, end = windows // self.side - 1, windows % self.side - 1, np.arange(-1, vocab_size)[:, None]
        self._readable = ((prev < 0) | (last >= 0)) & ((end < 0) | ((prev != end) & (last != end)))

    def prompt_row(self, prompt_id: int) -> int:
        """Row of a prompt's empty window (-1, -1), its first row."""
        return self._first_row[prompt_id]

    def readable_rows(self, pairs) -> np.ndarray:
        """The rows a rollout can read, for each (prompt id, end token) pair (-1 for none): every window of
        the prompt but a token followed by an empty slot, (t, -1), and none that holds the end token."""
        first, end = np.array([(self._first_row[p], e) for p, e in pairs], dtype=np.intp).reshape(-1, 2).T
        return (first[:, None] + np.arange(self.side * self.side))[self._readable[end + 1]]

    def rows(self, prompt_ids, prev, last) -> np.ndarray:
        """Row of each context (prompt, prev, last): a prompt of the table, -1 <= prev, last < V."""
        pids, prev, last = (np.asarray(a, dtype=np.int64) for a in (prompt_ids, prev, last))
        first = np.fromiter((self._first_row.get(p, -1) for p in pids.tolist()), np.intp, pids.size)
        if (first < 0).any():
            raise ValueError("context of a prompt outside the table")
        if min(prev.min(initial=0), last.min(initial=0)) < -1 or max(prev.max(initial=0), last.max(initial=0)) >= self.vocab_size:
            raise ValueError(f"context window outside [-1, {self.vocab_size})")
        return first + (prev + 1) * self.side + (last + 1)

    def advance(self, rows: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """Rows of the contexts at rows once each has generated its token: one gather, which the tokens are
        added to in place."""
        after = self._after.take(rows)
        after += tokens
        return after

    def load(self, params: PolicyParams, rows=()) -> None:
        """Load params, unless they are loaded; then, if rows holds a row not yet evaluated, evaluate it with every row
        evaluated before, in one pass."""
        if params is not self.params:
            if params.vocab_size != self.vocab_size:
                raise ValueError(f"params have vocabulary {params.vocab_size}, the table {self.vocab_size}")
            if params.n_features != self.n_features:
                raise ValueError(f"params have {params.n_features} features, the table {self.n_features}")
            self.params = params
            self.slot.fill(-1)
            self._new_block(0)
        if len(rows):
            wanted = self.slot >= 0
            wanted[np.asarray(rows, dtype=np.intp)] = True
            if np.count_nonzero(wanted) > self.cdf.shape[1]:
                self._evaluate(np.flatnonzero(wanted))

    def check(self, rows: np.ndarray, ticks: np.ndarray | None = None) -> np.ndarray:
        """The rows' slots, which hold until the next pass, once load has evaluated the rows not yet evaluated;
        raises NumericError if a row's training logits (the direct path's message), or else its inference logits,
        are non-finite. Given ticks, rows[i] is read at tick ticks[i], and only the reads of the first tick that
        reads a non-finite row count. The check for rows not yet evaluated reads the slots' min, so it allocates
        no mask, and after a clean pass the slots are all it gathers."""
        slots = self.slot[rows]
        if slots.min(initial=0) < 0:
            self.load(self.params, rows)
            slots = self.slot[rows]
        if self._bad is not None and np.count_nonzero(status := self._bad[slots]):
            if ticks is not None:
                status = status[ticks == ticks[status > 0].min()]
            raise NumericError(_NON_FINITE_LOGITS if status.max() == 2 else _NON_FINITE_INFER_LOGITS)
        return slots

    def _new_block(self, n: int) -> None:
        """Point the per-version views at a new block of n slots, in one buffer: log_probs, probs, then the
        token-major cdf's V - 1 rows. The per-slot non-finite counts, _bad, are None until a pass that meets a
        non-finite logit sets them."""
        planes = 4 * n * self.vocab_size
        block = np.empty(planes + (self.vocab_size - 1) * n)
        self.log_probs, self.probs = block[:planes].reshape(2, 2, n, self.vocab_size)
        self.cdf = block[planes:].reshape(self.vocab_size - 1, n)
        self._bad = None

    def _evaluate(self, rows: np.ndarray) -> None:
        """One pass: both engines at the loaded params on distinct rows in increasing order, written in place into a
        new block of exactly those rows, which replaces the old one."""
        self._new_block(rows.size)
        with np.errstate(over="ignore", invalid="ignore"):
            _scaled_train_logits(self.params.weights, self.feats[rows], self.temperature, self.log_probs[0])
        self._bad = self.engines(self.log_probs[0], self.params.version_id, rows, (self.log_probs, self.probs))[3]
        np.cumsum(self.probs[1, :, :-1], axis=1, out=self.cdf.T)
        self.slot[rows] = np.arange(rows.size)
